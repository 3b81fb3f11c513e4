#!/usr/bin/env python3
"""Stability check for the benchmark's end-to-end metrics.

Runs perfbench/run.py once per (seed, workload), each in its own process,
for the seeds given, and reports for every end-to-end metric the spread
(q3 - q1) / median over the seeds, with the quartiles from
`statistics.quantiles(values, n=4)`. A spread must stay under a third of
the metric's bound in BENCHMARK.json; setup_s is reported but exempt.
With --compare, also checks that each median is no worse than the one in
an earlier saved set by more than the bound.

    python3 perfbench/stability.py --seeds 0-9 --save .perfbench_out/set-a.json
    python3 perfbench/stability.py --seeds 100-109 --compare .perfbench_out/set-a.json

Exits 1 when a spread or a comparison fails, or a run is not correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in metrics} for w in workloads}
    ok = True
    start = time.perf_counter()
    for seed in seeds:  # seeds outside, so drift in machine load hits every workload alike
        for workload in workloads:
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct ({result['failed']} failed)")
                ok = False
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
        print(f"seed {seed} done at {time.perf_counter() - start:.0f} s", flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    for workload in workloads:
        print(f"{workload}:")
        for name, spec in metrics.items():
            vals = values[workload][name]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            limit = spec["bound"] / 3
            verdict = "ok" if spread < limit else ("exempt" if name == "setup_s" else "WIDE")
            if verdict == "WIDE":
                ok = False
            line = (f"  {name:14s} median {median:12.6g} {spec['unit']:5s} "
                    f"spread {spread:6.2%} (limit {limit:6.2%}) {verdict}")
            if earlier is not None:
                before = statistics.median(earlier[workload][name])
                worse = (median - before) / before
                if spec["better"] == "higher":
                    worse = -worse
                status = "ok" if worse <= spec["bound"] else "WORSE"
                if status == "WORSE":
                    ok = False
                line += f" | vs earlier {before:.6g}: {worse:+.2%} worse {status}"
            print(line)
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(values, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
