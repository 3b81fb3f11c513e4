#!/usr/bin/env python3
"""splitstore benchmark: trustworthy verdicts per second, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 25 --trace 0

One invocation runs one workload in this single-threaded process. Set-up
imports splitstore from ./src and builds one Config per seed of the
workload's seed range (the range is offset by --seed, so the same seed
gives the same inputs). The timed phase then repeats whole passes over
the range until --seconds have passed and the workload's minimum run
count is reached. Each run is simulated with `simnet.run`, checked with
`check_run` and, on cli-long, written with `cli.write_outputs`. Times are
scaled to a reference machine speed (see calibrate.py).

With --trace 0 the end-to-end metrics are measured untraced. With
--trace 1 one untraced pass is followed by traced passes (see spans.py),
which give the per-layer metrics.

Correctness gate: every run must be ok and quiescent, every pass must
repeat the first pass's step counts, and the traced pass must reproduce
the untraced pass's outcome digest (sha256 over each run's steps,
rendered history, directory ops and verdict; never the trace). Any
failure prints the result with "correct": false and exits 1. A missing
./src/splitstore exits 2 without a result.

The last line of stdout is the JSON result; the lines before it give
every metric with its unit, the seed range, the digest and
failed_run_share. A fuller record is written to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from calibrate import Calibrator
from spans import WASTE_NOTES, Tracer, plane_of
from workloads import KNOWN_BAD, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MODES = ("oracle", "replicated")
ORACLE_KINDS = (
    "WRITE", "WRITE-ACK", "COMMIT", "READ", "READ-VAL",
    "DIR-READ", "DIR-READ-RESP", "DIR-WRITE", "DIR-WRITE-RESP",
    "HASH-READ", "HASH-READ-RESP", "HASH-WRITE", "HASH-WRITE-RESP",
)
REPLICATED_KINDS = (
    "WRITE", "WRITE-ACK", "COMMIT", "READ", "READ-VAL",
    "META-STORE", "META-ACK", "META-QUERY", "META-UPDATE", "META-UNSUB",
    "META-WRITEBACK", "META-ECHO",
)
MODE_KINDS = {"oracle": ORACLE_KINDS, "replicated": REPLICATED_KINDS}
# Layer -> the span names whose self time it owns.
LAYERS = {
    "simnet": ("simnet.build", "simnet.schedule", "simnet.dispatch", "simnet.finish"),
    "net": ("net.send", "net.render"),
    "client": ("client.invoke", "client.on_message"),
    "replica": ("replica.on_message", "replica.adversary"),
    "mds_oracle": ("mds_oracle.directory", "mds_oracle.hash_array", "mds_oracle.driver"),
    "mds_replicated": ("mds_replicated.replica", "mds_replicated.driver"),
    "checker": ("checker.run", "checker.register", "checker.directory",
                "checker.wait_free", "checker.lemmas"),
    "cli": ("cli.write_outputs",),
    "bench": ("bench.run", "bench.plane"),
}


class Api:
    """The package's public entry points, looked up after set-up."""

    def __init__(self) -> None:
        import splitstore
        from splitstore import checker, cli, scenarios, simnet
        self.splitstore = splitstore
        self.checker = checker
        self.cli = cli
        self.scenarios = scenarios
        self.simnet = simnet
        self.ScenarioOutcome = splitstore.ScenarioOutcome


@dataclass
class RunRecord:
    seed: int
    mode: str
    steps: int
    sim_s: float
    check_s: float
    write_s: float
    ok: bool
    written: list = field(default_factory=list)
    trace: Any = None  # RunTrace of a traced run

    def scale(self, factor: float) -> None:
        self.sim_s *= factor
        self.check_s *= factor
        self.write_s *= factor
        if self.trace is not None:
            self.trace.scale(factor)

    @property
    def run_ms(self) -> float:
        """simnet.run to verdict."""
        return 1000.0 * (self.sim_s + self.check_s)

    @property
    def total_s(self) -> float:
        return self.sim_s + self.check_s + self.write_s


@dataclass
class Pass:
    records: list[RunRecord]

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def verdicts_per_s(self) -> float:
        return self.runs / sum(r.total_s for r in self.records)

    @property
    def steps_per_s(self) -> float:
        return sum(r.steps for r in self.records) / sum(r.sim_s for r in self.records)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class SetupRecord:
    total_s: float

    def scale(self, factor: float) -> None:
        self.total_s *= factor


def measure_setup(workload: Workload, seed: int,
                  calibrator: Calibrator) -> tuple[list[SetupRecord], list]:
    """Time importing splitstore and building the workload's inputs.

    The package is dropped from sys.modules before each repeat so every
    repeat imports it afresh; the first repeat also pays for compiling
    bytecode, which setup_s, the median, leaves out.
    """
    records = []
    inputs: list = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "splitstore" or m.startswith("splitstore.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("splitstore")
        importlib.import_module("splitstore.cli")
        inputs = workload.inputs(seed)
        records.append(SetupRecord(time.perf_counter() - start))
        calibrator.add(records[-1])
        calibrator.flush()
    return records, inputs


class Runner:
    def __init__(self, workload: Workload, api: Api, inputs: list, scratch: Path,
                 calibrator: Calibrator):
        self.workload = workload
        self.calibrator = calibrator
        self.api = api
        self.inputs = inputs
        self.scratch = scratch
        self.steps_by_seed: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def execute(self, seed: int, item: Any) -> tuple[RunRecord, Any, Any]:
        api = self.api
        t0 = time.perf_counter()
        result = self.workload.run(api, item)
        t1 = time.perf_counter()
        verdict = api.checker.check_run(result)
        t2 = time.perf_counter()
        written: list = []
        if self.workload.writes_outputs:
            outcome = api.ScenarioOutcome(
                name=self.workload.name, seed=seed, passed=verdict.ok,
                expectation="benchmark run keeps the history clean",
                runs=[("run", result, verdict)],
            )
            written = api.cli.write_outputs(self.scratch, outcome)
        t3 = time.perf_counter()
        record = RunRecord(
            seed=seed, mode=result.config.mds_mode, steps=result.steps,
            sim_s=t1 - t0, check_s=t2 - t1, write_s=t3 - t2,
            ok=verdict.ok and result.quiescent, written=written,
        )
        return record, result, verdict

    def settle(self, record: RunRecord, result: Any, verdict: Any) -> None:
        """Apply the correctness gate to one run and clean up its files."""
        self.attempted += 1
        expected = self.steps_by_seed.setdefault(record.seed, record.steps)
        if not record.ok:
            self.failed += 1
            self.problems[
                f"seed {record.seed}: verdict failed {verdict.failed()}, "
                f"quiescent={result.quiescent}"
            ] += 1
        elif expected != record.steps:
            self.failed += 1
            self.problems[
                f"seed {record.seed}: {record.steps} steps, earlier pass took {expected}"
            ] += 1
        for path in record.written:
            path.unlink()

    def one_pass(self, digest: Any = None, on_run: Any = None,
                 execute: Any = None) -> Pass:
        execute = execute or self.execute
        records = []
        for seed, item in self.inputs:
            # Each run starts from a fully collected heap, so the garbage
            # collections inside it, and their pauses, depend on that run
            # alone and repeat from pass to pass.
            gc.collect()
            record, result, verdict = execute(seed, item)
            if digest is not None:
                digest.update(outcome_bytes(record.seed, result, verdict))
            if on_run is not None:
                on_run(record, result)
            self.settle(record, result, verdict)
            self.calibrator.add(record)
            records.append(record)
        self.calibrator.flush()
        return Pass(records)

    def warm_up(self) -> None:
        seed, item = self.inputs[0]
        self.settle(*self.execute(seed, item))


def outcome_bytes(seed: int, result: Any, verdict: Any) -> bytes:
    payload = {
        "seed": seed,
        "steps": result.steps,
        "quiescent": result.quiescent,
        "history": [op.render() for op in result.history],
        "dir_ops": [op.render() for op in result.dir_ops],
        "verdict": verdict.render(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# -- untraced: end-to-end metrics -------------------------------------------------


def timed(runner: Runner, seconds: float, setup: list[SetupRecord]) -> tuple[dict, dict]:
    workload = runner.workload
    runner.warm_up()
    digest = hashlib.sha256()
    passes: list[Pass] = []
    start = now = time.perf_counter()
    while True:
        before = now
        passes.append(runner.one_pass(digest if not passes else None))
        now = time.perf_counter()
        runs = sum(p.runs for p in passes)
        # Stop before a pass that would end after the deadline.
        if now - start + (now - before) > seconds and runs >= workload.min_runs:
            break
    runner.calibrator.finish()
    run_ms = [r.run_ms for p in passes for r in p.records]
    tail = percentile(run_ms, workload.tail_pct)
    by_mode = {mode: [r.run_ms for p in passes for r in p.records if r.mode == mode]
               for mode in MODES}
    # The median within each metadata mode, averaged over the modes used.
    # Pooled, campaign's half-oracle, half-replicated runs would put the
    # median in the sparse gap between two clusters, where it jumps.
    p50 = statistics.fmean(statistics.median(ms) for ms in by_mode.values() if ms)
    metrics = {
        "verdicts_per_s": (statistics.median(p.verdicts_per_s for p in passes), "1/s"),
        "steps_per_s": (statistics.median(p.steps_per_s for p in passes), "1/s"),
        "run_ms_p50": (p50, "ms"),
        "run_ms_tail": (tail, "ms"),
        "setup_s": (statistics.median(r.total_s for r in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "digest": digest.hexdigest(),
        "passes": len(passes),
        "pass_verdicts_per_s": [p.verdicts_per_s for p in passes],
        "run_ms": by_mode,
        "runs": len(run_ms),
        "run_ms_tail": {
            "percentile": workload.tail_pct,
            "runs": len(run_ms),
            "beyond": sum(1 for v in run_ms if v > tail),
        },
    }
    return metrics, info


# -- traced: per-layer metrics -----------------------------------------------------


@dataclass
class FirstPass:
    """Exact counts from the first traced pass."""

    steps: int = 0
    pending_peak: int = 0
    render_calls: int = 0
    waste: int = 0
    readvals: int = 0
    update_msgs: int = 0
    update_pairs: int = 0
    latencies: list = field(default_factory=list)
    stored_max: int = 0
    established_max: int = 0
    bytes_written: int = 0
    ops: dict = field(default_factory=lambda: {m: 0 for m in MODES})
    messages: dict = field(default_factory=dict)  # (mode, kind) -> [msgs, bytes]


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    runner.warm_up()
    plain_digest = hashlib.sha256()
    plain = runner.one_pass(plain_digest)

    tracer = Tracer()
    first = FirstPass()
    traced_digest = hashlib.sha256()
    pass_traces: list[list] = []
    raw_spans: list = []
    current: list = []  # RunTraces of the pass in progress
    tracer.install()
    try:
        root = tracer.span("bench.run", runner.execute)

        def execute(seed: int, item: Any) -> tuple:
            tracer.begin_run(seed, getattr(item, "mds_mode", "oracle"))
            record, result, verdict = root(seed, item)
            if not raw_spans:
                raw_spans.extend(tracer.raw_spans())
            record.trace = tracer.end_run()
            current.append(record.trace)
            return record, result, verdict

        def count_first(record: RunRecord, result: Any) -> None:
            rt = current[-1]
            first.steps += result.steps
            first.pending_peak = max(first.pending_peak, rt.counts["pending_peak"])
            first.render_calls += rt.calls["net.render"]
            first.waste += sum(rt.counts["note." + n] for n in WASTE_NOTES)
            first.readvals += rt.counts["readval_delivered"]
            first.update_msgs += rt.counts["update_msgs"]
            first.update_pairs += rt.counts["update_pairs"]
            first.latencies.extend(v for v in result.latencies().values() if v is not None)
            first.ops[record.mode] += sum(1 for op in result.history if op.complete)
            for key, (msgs, size) in rt.messages.items():
                entry = first.messages.setdefault(key, [0, 0])
                entry[0] += msgs
                entry[1] += size
            config = result.config
            for pid in config.data_pids():
                first.stored_max = max(first.stored_max, len(result.final_states[pid]["data"]))
            if config.mds_mode == "replicated":
                for pid in config.meta_pids():
                    regs = result.final_states[pid].values()
                    first.established_max = max(
                        first.established_max, sum(len(r["established"]) for r in regs)
                    )
            first.bytes_written += sum(p.stat().st_size for p in record.written)

        now = time.perf_counter()
        while True:
            before = now
            current = []
            if not pass_traces:
                runner.one_pass(traced_digest, count_first, execute)
            else:
                runner.one_pass(execute=execute)
            pass_traces.append(current)
            now = time.perf_counter()
            if now - start + (now - before) > seconds:
                break
    finally:
        tracer.uninstall()
    runner.calibrator.finish()
    plain_run_s = statistics.fmean(r.total_s for r in plain.records)

    if traced_digest.hexdigest() != plain_digest.hexdigest():
        runner.failed += 1
        runner.problems["traced pass did not reproduce the untraced outcome digest"] += 1

    per_pass = [layer_figures(traces) for traces in pass_traces]
    metrics: dict[str, tuple[float, str]] = {}
    for name in per_pass[0]:
        metrics[name] = (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
    root_s = metrics.pop("bench.root_s")[0]
    metrics.update({
        "simnet.steps": (first.steps, "count"),
        "simnet.pending_peak": (first.pending_peak, "count"),
        "net.render.calls": (first.render_calls, "count"),
        "client.read_waste_ratio": (first.waste / max(first.readvals, 1), "ratio"),
        "client.op_latency_steps_p50": (percentile(first.latencies, 50), "steps"),
        "client.op_latency_steps_p95": (percentile(first.latencies, 95), "steps"),
        "replica.stored_final_max": (first.stored_max, "count"),
        "mds_replicated.update_pairs_mean": (
            first.update_pairs / first.update_msgs if first.update_msgs else 0.0, "pairs/msg"),
        "mds_replicated.established_final_max": (first.established_max, "count"),
        "cli.bytes_written": (first.bytes_written, "B"),
        "trace_overhead": (root_s / plain_run_s, "ratio"),
    })
    for mode in MODES:
        ms = [r.run_ms for r in plain.records if r.mode == mode]
        metrics[f"campaign.run_ms.{mode}"] = (statistics.median(ms) if ms else 0.0, "ms")
    metrics.update(plane_metrics(first))
    info = {
        "digest": traced_digest.hexdigest(),
        "untraced_digest": plain_digest.hexdigest(),
        "passes": len(pass_traces),
        "runs": sum(len(t) for t in pass_traces),
        "layers": {
            layer: {"self_s": metrics[f"{layer}.self_s"][0],
                    "share": metrics[f"{layer}.self_s"][0] / root_s}
            for layer in LAYERS
        },
        "raw_spans": raw_spans,
    }
    return metrics, info


def layer_figures(traces: list) -> dict[str, tuple[float, str]]:
    """Mean self time per run, by span and by layer, over one pass."""
    n = len(traces)
    self_s: dict[str, float] = {}
    for rt in traces:
        for name, value in rt.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + value / n
    root_s = sum(rt.root_s for rt in traces) / n
    get = lambda *names: sum(self_s.get(name, 0.0) for name in names)
    out = {f"{layer}.self_s": (get(*names), "s/run") for layer, names in LAYERS.items()}
    for name in ("simnet.schedule", "simnet.dispatch", "simnet.finish", "net.render",
                 "net.send", "mds_replicated.replica", "mds_replicated.driver",
                 "checker.register", "checker.directory", "checker.wait_free",
                 "checker.lemmas", "cli.write_outputs"):
        out[f"{name}.self_s"] = (get(name), "s/run")
    out["simnet.schedule.share"] = (get("simnet.schedule") / root_s, "ratio")
    out["bench.root_s"] = (root_s, "s/run")
    return out


def plane_metrics(first: FirstPass) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for mode in MODES:
        ops = first.ops[mode]
        out[f"plane.{mode}.ops"] = (ops, "count")
        for plane in ("data", "meta"):
            msgs = sum(v[0] for (m, k), v in first.messages.items()
                       if m == mode and plane_of(k) == plane)
            size = sum(v[1] for (m, k), v in first.messages.items()
                       if m == mode and plane_of(k) == plane)
            out[f"plane.{mode}.{plane}.msgs_per_op"] = (msgs / ops if ops else 0.0, "msgs/op")
            out[f"plane.{mode}.{plane}.bytes_per_op"] = (size / ops if ops else 0.0, "B/op")
        for kind in MODE_KINDS[mode]:
            msgs, size = first.messages.get((mode, kind), (0, 0))
            out[f"plane.{mode}.kind.{kind}.msgs"] = (msgs, "count")
            out[f"plane.{mode}.kind.{kind}.bytes"] = (size, "B")
    unknown = {k for (_m, k) in first.messages} - set(ORACLE_KINDS) - set(REPLICATED_KINDS)
    if unknown:
        raise RuntimeError(f"message kinds outside the plane tables: {sorted(unknown)}")
    return out


# -- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = sorted(WORKLOADS) + [KNOWN_BAD.name]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "splitstore" / "__init__.py").is_file():
        print(f"splitstore sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS.get(args.workload, KNOWN_BAD)

    calibrator = Calibrator()
    setup, inputs = measure_setup(workload, args.seed, calibrator)
    api = Api()
    if not Path(api.splitstore.__file__).resolve().is_relative_to(src.resolve()):
        print(f"splitstore imported from {api.splitstore.__file__}, not {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    runner = Runner(workload, api, inputs, scratch, calibrator)
    try:
        if args.trace:
            metrics, info = traced(runner, args.seconds)
        else:
            metrics, info = timed(runner, args.seconds, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    seeds = workload.seeds(args.seed)
    correct = runner.failed == 0
    print(f"workload={workload.name} seed={args.seed} sim_seeds={seeds.start}..{seeds.stop - 1} "
          f"trace={args.trace} passes={info['passes']} runs={info['runs']}")
    print(f"outcome_digest=sha256:{info['digest']}")
    print(f"host_speed={calibrator.speed():.4f} (times below are scaled to the reference "
          "speed; see calibrate.py)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "run_ms_tail" in info:
        tail = info["run_ms_tail"]
        print(f"  run_ms_tail is p{tail['percentile']:g} over {tail['runs']} runs "
              f"({tail['beyond']} beyond it)")
    if "layers" in info:
        print("  layer self time per run (share of the traced run):")
        for layer, figures in info["layers"].items():
            print(f"    {layer:15s} {1000 * figures['self_s']:9.3f} ms  {figures['share']:6.1%}")
    print(f"  failed_run_share = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed}/{runner.attempted})")
    for problem, times in runner.problems.most_common(20):
        print(f"  FAILED {problem} ({times}x)")

    raw_spans = info.pop("raw_spans", None)
    record = {
        "workload": workload.name, "seed": args.seed,
        "sim_seeds": [seeds.start, seeds.stop - 1], "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "host_speed": calibrator.speed(),
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": dict(runner.problems), **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{workload.name}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if raw_spans:
        with (OUT_DIR / f"{stem}.spans.jsonl").open("w") as fh:
            for span in raw_spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
