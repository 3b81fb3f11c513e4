import pytest

from conftest import trace_entries
from splitstore.scenarios import (
    SCENARIO_NAMES,
    random_config,
    run_scenario,
)
from splitstore.types import ConfigError


def test_unknown_scenario_name_is_rejected():
    with pytest.raises(ConfigError):
        run_scenario("no-such-scenario", 0)


def test_stale_replica_read_scenario():
    """A Byzantine replica serving a concurrent uncommitted pair must not
    stop the reader from returning the last committed value."""
    outcome = run_scenario("fig1", 0)
    assert outcome.passed, outcome.summary()
    label, result, verdict = outcome.runs[0]
    read = next(op for op in result.history if op.kind == "READ")
    assert read.ret == b"v1"
    assert read.md2_ts is None  # accepted on the matching-timestamp path
    assert verdict.ok


def test_crash_below_replication_scenario():
    """With only 2t data replicas a single crash blocks writes forever;
    nothing unsafe happens, but wait-freedom is gone."""
    outcome = run_scenario("theorem1-crash", 3)
    assert outcome.passed, outcome.summary()
    label, result, verdict = outcome.runs[0]
    assert verdict.results["wait-free"].passed is False
    assert verdict.results["linearizable"].passed is True
    assert result.quiescent


def test_forged_digest_scenario():
    """With 2t+1 replicas and a breakable digest, a reader can be served a
    value nobody ever wrote; the checker must notice."""
    outcome = run_scenario("theorem1-byz", 0)
    assert outcome.passed, outcome.summary()
    runs = dict((label, (result, verdict)) for label, result, verdict in outcome.runs)
    base_result, base_verdict = runs["baseline"]
    assert base_verdict.ok
    att_result, att_verdict = runs["forged"]
    assert att_verdict.results["linearizable"].passed is False
    forged_read = next(op for op in att_result.history if op.kind == "READ")
    assert forged_read.ret == b"v"  # never written in this run
    writes = {op.arg for op in att_result.history if op.kind == "WRITE"}
    assert b"v" not in writes


def test_control_scenario_stays_clean():
    outcome = run_scenario("control-2t1", 0)
    assert outcome.passed, outcome.summary()


def test_garbage_collection_scenario():
    outcome = run_scenario("gc-quiescence", 0)
    assert outcome.passed, outcome.summary()
    label, result, verdict = outcome.runs[0]
    finals = {e["proc"]: e for e in trace_entries(result) if e["ev"] == "final"}
    for pid in ("d1", "d2", "d3"):
        state = finals[pid]["state"]
        assert len(state["data"]) == 1
        assert state["data"][0]["ts"] == state["committed"]


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "random"])
@pytest.mark.parametrize("seed", [1, 2])
def test_named_scenarios_pass_on_other_seeds(name, seed):
    assert run_scenario(name, seed).passed


@pytest.mark.parametrize("seed", range(12))
def test_random_scenario_seeds(seed):
    outcome = run_scenario("random", seed)
    assert outcome.passed, outcome.summary()


def test_random_config_cycles_fault_plans():
    modes = set()
    strategies = set()
    crash_targets = set()
    for seed in range(24):
        cfg = random_config(seed)
        cfg.validate()
        modes.add(cfg.mds_mode)
        strategies.update(cfg.byz_data.values())
        for crash in cfg.crashes:
            crash_targets.add(crash.process)
    assert modes == {"oracle", "replicated"}
    assert len(strategies) >= 4
    assert crash_targets == {"w2"}


def test_random_config_respects_a_pinned_mode():
    for seed in range(6):
        assert random_config(seed, mds_mode="oracle").mds_mode == "oracle"
        cfg = random_config(seed, mds_mode="oracle", with_meta_faults=False)
        assert not cfg.byz_meta


def test_random_config_meta_faults_only_in_replicated_mode():
    for seed in range(40):
        cfg = random_config(seed)
        if cfg.byz_meta:
            assert cfg.mds_mode == "replicated"
