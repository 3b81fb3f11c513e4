"""Acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`: the PASSED/FAILED line per
test is the per-criterion verdict. Each test also prints a one-line
summary (visible with -s or on failure) with the measured numbers.
"""
import random
import time

import pytest

from conftest import check_register_exhaustive, random_history, trace_entries
from splitstore.checker import check_register_linearizable, check_run
from splitstore.scenarios import random_config, run_scenario
from splitstore.simnet import run

RANDOM_RUNS = 1000
HISTORY_SAMPLES = 1000
MODE_COMPARE_SEEDS = 100
VIOLATION_SEEDS = 100
REPLAY_SEEDS = 30


@pytest.fixture(scope="module")
def random_campaign():
    """The criterion-2 batch, shared with criterion 3."""
    t0 = time.monotonic()
    verdicts = []
    for seed in range(RANDOM_RUNS):
        result = run(random_config(seed))
        verdicts.append((seed, check_run(result)))
    return verdicts, time.monotonic() - t0


def test_criterion_1_stale_replica_read_completes_correctly():
    t0 = time.monotonic()
    outcome = run_scenario("fig1", 0)
    elapsed = time.monotonic() - t0
    label, result, verdict = outcome.runs[0]
    read = next(op for op in result.history if op.kind == "READ")
    assert read.ret == b"v1", f"read returned {read.ret!r}"
    assert verdict.results["linearizable"].passed is True
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion-1 PASS: read=v1, linearizable, {elapsed * 1000:.0f}ms")


def test_criterion_2_random_runs_are_all_linearizable(random_campaign):
    verdicts, elapsed = random_campaign
    assert len(verdicts) >= RANDOM_RUNS
    bad = []
    for seed, verdict in verdicts:
        for name, res in verdict.results.items():
            if name == "wait-free":
                continue  # criterion 3 owns liveness
            if res.passed is False:
                bad.append((seed, name, res.detail))
    assert not bad, bad[:5]
    assert elapsed < 300, f"campaign took {elapsed:.0f}s"
    print(
        f"criterion-2 PASS: {len(verdicts)} runs, all linearizable, "
        f"zero lemma failures, {elapsed:.1f}s"
    )


def test_criterion_3_random_runs_are_wait_free(random_campaign):
    verdicts, _ = random_campaign
    blocked = [
        (seed, verdict.results["wait-free"].detail)
        for seed, verdict in verdicts
        if verdict.results["wait-free"].passed is False
    ]
    assert not blocked, blocked[:5]
    print(f"criterion-3 PASS: every live client finished within budget in "
          f"{len(verdicts)} runs")


def test_criterion_4_violations_appear_exactly_where_predicted():
    byz_flagged = crash_flagged = control_clean = 0
    for seed in range(VIOLATION_SEEDS):
        byz = run_scenario("theorem1-byz", seed)
        assert byz.passed, byz.summary()
        byz_flagged += 1

        crash = run_scenario("theorem1-crash", seed)
        assert crash.passed, crash.summary()
        crash_flagged += 1

        control = run_scenario("control-2t1", seed)
        assert control.passed, control.summary()
        control_clean += 1
    print(
        f"criterion-4 PASS: {byz_flagged} forged-digest safety violations, "
        f"{crash_flagged} under-replication liveness violations, "
        f"{control_clean} clean control runs"
    )


def test_criterion_5_garbage_collection_leaves_one_value_per_replica():
    for seed in range(25):
        outcome = run_scenario("gc-quiescence", seed)
        assert outcome.passed, outcome.summary()
        label, result, verdict = outcome.runs[0]
        for entry in trace_entries(result):
            proc = entry.get("proc", "")
            is_data_replica = proc.startswith("d") and proc[1:].isdigit()
            if entry["ev"] != "final" or not is_data_replica:
                continue
            state = entry["state"]
            assert len(state["data"]) == 1, (seed, entry["proc"], state)
            assert state["data"][0]["ts"] == state["committed"]
    print("criterion-5 PASS: 25 seeds, every replica ended with exactly "
          "the committed pair")


def test_criterion_6_witness_checker_matches_exhaustive_search():
    rng = random.Random("acceptance|histories")
    disagreements = 0
    violations = 0
    for _ in range(HISTORY_SAMPLES):
        hist = random_history(rng, max_ops=6)
        full = check_register_exhaustive(hist)
        ladder = check_register_linearizable(hist, small_limit=0)
        if full.passed != ladder.passed:
            disagreements += 1
        if full.passed is False:
            violations += 1
    assert disagreements == 0
    print(
        f"criterion-6 PASS: {HISTORY_SAMPLES} histories "
        f"({violations} non-linearizable), zero disagreements"
    )


def test_criterion_7_oracle_and_replicated_metadata_agree():
    mismatches = []
    for seed in range(MODE_COMPARE_SEEDS):
        maps = {}
        for mode in ("oracle", "replicated"):
            cfg = random_config(seed, mds_mode=mode, with_meta_faults=False)
            verdict = check_run(run(cfg))
            maps[mode] = {name: res.passed for name, res in verdict.results.items()}
        if maps["oracle"] != maps["replicated"]:
            mismatches.append((seed, maps))
    assert not mismatches, mismatches[:3]
    print(f"criterion-7 PASS: {MODE_COMPARE_SEEDS} seeds, verdicts identical "
          "under both metadata services")


def test_criterion_8_trace_files_replay_byte_identically(tmp_path):
    from splitstore.cli import write_outputs

    compared = 0
    for scenario, seeds in (
        ("random", range(REPLAY_SEEDS)),
        ("fig1", range(2)),
        ("gc-quiescence", range(2)),
        ("theorem1-byz", range(2)),
    ):
        for seed in seeds:
            paths = {}
            for attempt in ("a", "b"):
                out = tmp_path / attempt / scenario / str(seed)
                paths[attempt] = sorted(
                    p for p in write_outputs(out, run_scenario(scenario, seed))
                    if p.suffix == ".jsonl"
                )
            for first, second in zip(paths["a"], paths["b"]):
                assert first.read_bytes() == second.read_bytes(), first.name
                compared += 1
    print(f"criterion-8 PASS: {compared} trace files replayed byte-identically")
