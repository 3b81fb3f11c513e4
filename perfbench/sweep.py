#!/usr/bin/env python3
"""Scaling sweep: how per-step cost grows with history and with width.

Report-only; it gates nothing. Run from the repository root:

    python3 perfbench/sweep.py [--seed N] [--runs 3]

Two series, each point run on `--runs` consecutive simulation seeds:
- replicated metadata, t=t_M=1, 2 writers + 2 readers, ops in {10, 30, 50}:
  ms per simulated step, and pairs per META-UPDATE;
- oracle metadata, t=t_M=3, ops=5, clients in {2+2, 4+4, 8+8}:
  ms per simulated step, and the peak number of pending events.
Milliseconds per step come from untraced runs (host wall clock inside
simnet.run, unscaled, so compare points of one invocation only);
the counts come from a second, traced run of the same seeds. Each series
ends with the per-step cost ratio between its two ends, printed next to
the ratio of the replicated baseline in ROADMAP.md (14.8k / 7.3k / 3.5k
steps/s at ops 10 / 50 / 100).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BASELINE_STEPS_PER_S = {10: 14_800, 50: 7_300, 100: 3_500}

SERIES = {
    "replicated-ops": [
        (ops, dict(t=1, tm=1, writers=2, readers=2, ops=ops, mds_mode="replicated"))
        for ops in (10, 30, 50)
    ],
    "oracle-clients": [
        (n, dict(t=3, tm=3, writers=n, readers=n, ops=5, mds_mode="oracle"))
        for n in (2, 4, 8)
    ],
}


def measure(params: dict, seeds: range) -> dict:
    from splitstore import Config, simnet

    sim_s = 0.0
    steps = 0
    for seed in seeds:
        config = Config(seed=seed, **params)
        start = time.perf_counter()
        result = simnet.run(config)
        sim_s += time.perf_counter() - start
        steps += result.steps
    tracer = Tracer()
    pending_peak = update_msgs = update_pairs = 0
    tracer.install()
    try:
        for seed in seeds:
            tracer.begin_run(seed, params["mds_mode"])
            simnet.run(Config(seed=seed, **params))
            counts = tracer.end_run().counts
            pending_peak = max(pending_peak, counts["pending_peak"])
            update_msgs += counts["update_msgs"]
            update_pairs += counts["update_pairs"]
    finally:
        tracer.uninstall()
    return {
        "ms_per_step": 1000.0 * sim_s / steps,
        "steps_per_run": steps / len(seeds),
        "pending_peak": pending_peak,
        "update_pairs_mean": update_pairs / update_msgs if update_msgs else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "splitstore" / "__init__.py").is_file():
        print(f"splitstore sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    seeds = range(args.seed * args.runs, (args.seed + 1) * args.runs)
    report: dict = {"seed": args.seed, "sim_seeds": [seeds.start, seeds.stop - 1]}
    baseline_ratio = BASELINE_STEPS_PER_S[10] / BASELINE_STEPS_PER_S[50]
    for series, points in SERIES.items():
        rows = []
        print(f"{series}:")
        for x, params in points:
            row = {"x": x, **measure(params, seeds)}
            rows.append(row)
            print(f"  {x:3d}: {row['ms_per_step']:.4f} ms/step  "
                  f"{row['steps_per_run']:8.0f} steps/run  "
                  f"pending_peak {row['pending_peak']:4d}  "
                  f"update_pairs_mean {row['update_pairs_mean']:.2f}")
        ratio = rows[-1]["ms_per_step"] / rows[0]["ms_per_step"]
        report[series] = {"points": rows, "cost_ratio_ends": ratio}
        print(f"  per-step cost ratio {points[-1][0]} vs {points[0][0]}: {ratio:.2f}x")
        if series == "replicated-ops":
            report[series]["roadmap_baseline_ratio"] = baseline_ratio
            print(f"  ROADMAP baseline, ops 50 vs 10: {baseline_ratio:.2f}x "
                  f"({BASELINE_STEPS_PER_S[10]} -> {BASELINE_STEPS_PER_S[50]} steps/s)")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
