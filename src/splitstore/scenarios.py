"""Built-in scenarios: scripted proof-style executions, controls, and the
randomized suite.

Each scenario returns the runs it executed together with their checker
verdicts and a single pass/fail judgment. Scenarios that demonstrate
impossibility results pass exactly when the expected violation is
detected; everything else passes when the verdict is clean.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .checker import Verdict, check_run
from .faults import ByzStrategy, CrashSpec
from .net import MsgKind
from .simnet import AdversaryAction, Config, Match, RunResult, Script, World, run
from .types import ConfigError, HashMode, Timestamp


@dataclass
class ScenarioOutcome:
    name: str
    seed: int
    passed: bool
    expectation: str
    runs: list[tuple[str, RunResult, Verdict]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "expectation": self.expectation,
            "notes": self.notes,
            "runs": [
                {
                    "label": label,
                    "steps": result.steps,
                    "quiescent": result.quiescent,
                    "ops": len(result.history),
                    "crashed": sorted(result.crashed),
                    "verdict_ok": verdict.ok,
                    "failed_checks": verdict.failed(),
                }
                for label, result, verdict in self.runs
            ],
        }


def single_run(
    name: str, seed: int, expectation: str, config: Config, label: str | None = None,
    script: Callable[[Script, World], None] | None = None,
    judge: Callable[[RunResult, Verdict], tuple[bool, list[str]]] | None = None,
) -> ScenarioOutcome:
    """Run `config` (under `script`, if given), check the run, and judge
    it: `judge(result, verdict)` returns `(passed, notes)`, and with no
    judge the run passes when its verdict is clean. The outcome's one run
    is labelled `label`, or `name` when that is None."""
    result = run(config, script)
    verdict = check_run(result)
    passed, notes = judge(result, verdict) if judge is not None else (verdict.ok, [])
    return ScenarioOutcome(
        name=name, seed=seed, passed=passed, expectation=expectation,
        runs=[(label if label is not None else name, result, verdict)], notes=notes,
    )


def _op_result(result: RunResult, client: str) -> object:
    for op in result.history:
        if op.client == client:
            return op.ret
    return None


# -- fig1: concurrent write/read with a stale-serving Byzantine replica -------


def scenario_fig1(seed: int = 0) -> ScenarioOutcome:
    """One complete write, then a second write concurrent with a read.

    The third data replica is Byzantine and serves the concurrent,
    uncommitted pair. The reader must detect the directory has not
    caught up, discard that reply, and return the first writer's value.
    """
    config = Config(
        t=1, tm=1, writers=2, readers=1, seed=seed,
        hash_mode=HashMode.PRODUCTION, mds_mode="replicated",
        byz_data={"d3": ByzStrategy.STALE_CONCURRENT},
        workload={
            "w1": [("WRITE", b"v1")],
            "w2": [("WRITE", b"v2")],
            "r1": [("READ", None)],
        },
    )
    d1_down = (Match(dst="d1"), Match(src="d1"))
    hold_w2_acks = Match(kind=MsgKind.WRITE_ACK, dst="w2")
    hold_d2_read = Match(kind=MsgKind.READ, dst="d2")

    def script(s: Script, world: World) -> None:
        s.invoke("w1")
        s.drain(*d1_down)  # first write completes against d2, d3
        s.invoke("w2")
        s.drain(*d1_down, hold_w2_acks)  # second write parks before its acks
        s.invoke("r1")
        # the read reaches only d3 first; its stale-concurrent answer forces
        # a directory re-read, which has not caught up, so it is discarded
        s.drain(*d1_down, hold_w2_acks, hold_d2_read)
        s.deliver(hold_d2_read)
        s.drain(*d1_down, hold_w2_acks)  # d2's honest pair completes the read
        s.drain(*d1_down)  # now let the second write finish

    def judge(result: RunResult, verdict: Verdict) -> tuple[bool, list[str]]:
        read_back = _op_result(result, "r1")
        return verdict.ok and read_back == b"v1", [f"read returned {read_back!r}"]

    return single_run(
        "fig1", seed, "read returns v1 and the history is linearizable", config,
        script=script, judge=judge,
    )


# -- theorem1: lower-bound demonstrations --------------------------------------


def scenario_theorem1_crash(seed: int = 0) -> ScenarioOutcome:
    """With only 2t data replicas, one silent replica blocks writes: the
    writer cannot assemble its ack quorum, which surfaces as a liveness
    violation at quiescence."""
    config = Config(
        t=1, tm=1, writers=1, readers=1, d=2, seed=seed,
        hash_mode=HashMode.PRODUCTION, mds_mode="oracle",
        lower_bound=True,
        crashes=(CrashSpec(process="d1", at_step=0),),
        workload={"w1": [("WRITE", b"v")], "r1": [("READ", None)]},
    )

    def judge(result: RunResult, verdict: Verdict) -> tuple[bool, list[str]]:
        checks = verdict.results
        passed = checks["wait-free"].passed is False and checks["linearizable"].passed is True
        blocked = [op.op_id for op in result.incomplete_ops()]
        return passed, [f"operations blocked at quiescence: {blocked}"]

    return single_run(
        "theorem1-crash", seed,
        "the write blocks forever (liveness violation) while safety holds", config,
        label="crash-lower-bound", judge=judge,
    )


def _theorem1_config(seed: int, value: bytes) -> Config:
    return Config(
        t=1, tm=1, writers=1, readers=1, seed=seed,
        hash_mode=HashMode.FORGEABLE, mds_mode="oracle",
        byz_data={"d3": ByzStrategy.STATE_SWITCH},
        workload={"w1": [("WRITE", value)], "r1": [("READ", None)]},
    )


def scenario_theorem1_byz(seed: int = 0) -> ScenarioOutcome:
    """Two sub-runs with D = 2t+b (b = 1) and a forgeable digest.

    The baseline writes v, crashes one correct replica, and reads v back.
    The attack writes v-prime, forges the digest of v to collide with it,
    has the Byzantine replica swap its stored value from v-prime to v,
    crashes the same correct replica, and the read returns the never-
    written v: a safety violation the checker must detect.
    """
    d1_down = (Match(dst="d1"), Match(src="d1"))
    ts1 = Timestamp(1, 1)

    def baseline_script(s: Script, world: World) -> None:
        s.invoke("w1")
        s.drain(*d1_down)  # write v lands on d2, d3
        s.crash("d2")
        s.invoke("r1")
        s.drain(*d1_down)

    base_result = run(_theorem1_config(seed, b"v"), baseline_script)
    base_verdict = check_run(base_result)
    base_read = _op_result(base_result, "r1")

    def attack_script(s: Script, world: World) -> None:
        s.invoke("w1")
        s.drain(*d1_down)  # write v' lands on d2, d3
        # second-preimage forgery: digest(v) now collides with digest(v')
        world.digests.forge(b"v", world.digests.digest(b"vp"))
        s.adversary("d3", "swap-values", {"pairs": [(ts1, b"v")]})
        s.crash("d2")
        s.invoke("r1")
        s.drain(*d1_down)

    attack_result = run(_theorem1_config(seed, b"vp"), attack_script)
    attack_verdict = check_run(attack_result)
    attack_read = _op_result(attack_result, "r1")

    passed = (
        base_verdict.ok
        and base_read == b"v"
        and attack_read == b"v"
        and attack_verdict.results["linearizable"].passed is False
    )
    outcome = ScenarioOutcome(
        name="theorem1-byz", seed=seed, passed=passed,
        expectation=(
            "baseline read returns the written value; under forgery the read "
            "returns a never-written value and the checker flags the history"
        ),
        runs=[
            ("baseline", base_result, base_verdict),
            ("forged", attack_result, attack_verdict),
        ],
    )
    outcome.notes.append(f"baseline read {base_read!r}; forged-run read {attack_read!r}")
    if attack_verdict.results["linearizable"].counterexample:
        outcome.notes.append(
            "violation counterexample ops: "
            f"{attack_verdict.results['linearizable'].counterexample}"
        )
    return outcome


def scenario_control_2t1(seed: int = 0) -> ScenarioOutcome:
    """Positive control for the lower bound: full 2t+1 data replicas, a
    collision-resistant digest, and the same state-switching adversary.
    The attack must achieve nothing."""
    config = Config(
        t=1, tm=1, writers=2, readers=2, seed=seed, ops=2,
        hash_mode=HashMode.PRODUCTION, mds_mode="oracle",
        byz_data={"d3": ByzStrategy.STATE_SWITCH},
        adversary=(
            AdversaryAction(step=25 + seed % 50, process="d3", action="corrupt-all"),
        ),
    )
    return single_run(
        "control-2t1", seed,
        "no violations with 2t+1 replicas and a collision-resistant digest", config,
        label="control",
    )


# -- garbage collection ---------------------------------------------------------


def scenario_gc_quiescence(seed: int = 0) -> ScenarioOutcome:
    """Fault-free run over in-order channels, driven to quiescence: every
    data replica must end up storing exactly one tagged value."""
    config = Config(
        t=1, tm=1, writers=2, readers=1, seed=seed, ops=3,
        hash_mode=HashMode.PRODUCTION, mds_mode="oracle", fifo=True,
    )

    def judge(result: RunResult, verdict: Verdict) -> tuple[bool, list[str]]:
        notes = []
        for pid in config.data_pids():
            state = result.final_states[pid]
            pairs = state["data"]
            if len(pairs) != 1 or state["committed"] != pairs[0]["ts"]:
                notes.append(f"{pid} holds {len(pairs)} pairs, committed {state['committed']}")
        passed = verdict.ok and result.quiescent and not notes
        return passed, notes or ["all replicas hold exactly the committed pair"]

    return single_run(
        "gc-quiescence", seed,
        "at quiescence every replica stores exactly one tagged value", config,
        label="gc", judge=judge,
    )


# -- randomized suite -----------------------------------------------------------


DATA_STRATEGY_CYCLE: tuple[ByzStrategy | None, ...] = (
    None,
    ByzStrategy.STALE_CONCURRENT,
    ByzStrategy.FABRICATE_HIGH_TS,
    ByzStrategy.MUTE,
    ByzStrategy.EQUIVOCATE,
    ByzStrategy.STATE_SWITCH,
)
META_STRATEGY_CYCLE: tuple[ByzStrategy | None, ...] = (
    None,
    ByzStrategy.MUTE,
    ByzStrategy.STALE_CONCURRENT,
    ByzStrategy.FABRICATE_HIGH_TS,
    ByzStrategy.EQUIVOCATE,
    ByzStrategy.STATE_SWITCH,
)
CRASH_PHASE_CYCLE = ("WRITE-DATA", "WRITE-DIR")


def random_config(
    seed: int,
    mds_mode: str | None = None,
    with_meta_faults: bool = True,
) -> Config:
    """Per-seed fault plan for the randomized suite: Byzantine strategies
    cycle with the seed, every fifth seed crashes a writer mid-operation,
    and the metadata mode alternates unless pinned."""
    byz_data = {}
    strategy = DATA_STRATEGY_CYCLE[seed % len(DATA_STRATEGY_CYCLE)]
    if strategy is not None:
        byz_data["d3"] = strategy
    mode = mds_mode if mds_mode is not None else ("oracle" if seed % 2 == 0 else "replicated")
    byz_meta = {}
    if mode == "replicated" and with_meta_faults:
        meta_strategy = META_STRATEGY_CYCLE[(seed // 2) % len(META_STRATEGY_CYCLE)]
        if meta_strategy is not None:
            byz_meta["m4"] = meta_strategy
    crashes = ()
    if seed % 5 == 0 and seed > 0:
        phase = CRASH_PHASE_CYCLE[(seed // 5) % len(CRASH_PHASE_CYCLE)]
        crashes = (CrashSpec(process="w2", at_phase=phase),)
    adversary = []
    if strategy is ByzStrategy.STATE_SWITCH:
        adversary.append(
            AdversaryAction(step=40 + seed % 60, process="d3", action="corrupt-all")
        )
    if byz_meta.get("m4") is ByzStrategy.STATE_SWITCH:
        adversary.append(
            AdversaryAction(step=50 + seed % 60, process="m4", action="scramble")
        )
    return Config(
        t=1, tm=1, writers=2, readers=2, seed=seed,
        hash_mode=HashMode.PRODUCTION, mds_mode=mode,
        byz_data=byz_data, byz_meta=byz_meta,
        crashes=crashes, adversary=tuple(adversary),
    )


def scenario_random(seed: int = 0) -> ScenarioOutcome:
    config = random_config(seed)
    note = (
        f"mode={config.mds_mode} byz_data={sorted(config.byz_data)} "
        f"byz_meta={sorted(config.byz_meta)} crashes={len(config.crashes)}"
    )
    return single_run(
        "random", seed, "randomized fault plan keeps the history clean", config,
        judge=lambda result, verdict: (verdict.ok, [note]),
    )


SCENARIOS = {
    "fig1": scenario_fig1,
    "theorem1-crash": scenario_theorem1_crash,
    "theorem1-byz": scenario_theorem1_byz,
    "control-2t1": scenario_control_2t1,
    "gc-quiescence": scenario_gc_quiescence,
    "random": scenario_random,
}
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> ScenarioOutcome:
    fn = SCENARIOS.get(name)
    if fn is None:
        raise ConfigError(f"unknown scenario {name!r}; pick one of {', '.join(SCENARIO_NAMES)}")
    return fn(seed)
