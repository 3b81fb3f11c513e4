"""Report what one dispatched event costs, by message kind, for each
benchmark shape.

It wraps `Simulation.dispatch` at class level and times each call with
`time.perf_counter_ns`, keyed by the delivered message's kind, or
``invoke`` for a client invocation. A call's time includes everything the
event runs: the handler, its driver, its sends and the watched-crash
check. It runs each workload of perfbench/workloads.py at the first seed
of its range at ``--seed 0``, once untimed and then ``--runs`` times, and
prints per kind the events per run and the mean microseconds per event
in the run where that mean is lowest (the host's other load only adds
time). The wrapper's own cost is in every figure, so compare them across
commits, not with untraced run times. The report never fails; it exits 0.

usage: python tools/event_cost.py [--runs N]   (N defaults to 3)
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def event_cost(config: object, runs: int) -> dict:
    from splitstore.simnet import Simulation, run

    counts: Counter = Counter()
    ns: Counter = Counter()
    dispatch = Simulation.__dict__["dispatch"]
    clock = time.perf_counter_ns

    def timed(sim: Simulation, delivery: object) -> None:
        msg = delivery.msg
        start = clock()
        dispatch(sim, delivery)
        key = "invoke" if msg is None else msg.kind.value
        ns[key] += clock() - start
        counts[key] += 1

    best: dict[str, float] = {}
    run(config)  # warm up: the first run pays for first calls and caches
    Simulation.dispatch = timed
    try:
        for _ in range(runs):
            counts.clear()
            ns.clear()
            run(config)
            for key, n in counts.items():
                best[key] = min(best.get(key, float("inf")), ns[key] / n)
    finally:
        Simulation.dispatch = dispatch
    return {
        key: {"per_run": counts[key], "us_per_event": round(best[key] / 1000, 2)}
        for key in sorted(counts, key=lambda k: -counts[k] * best[k])
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv[1:])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    report = {"runs": args.runs, "by_workload": {}}
    for name, workload in WORKLOADS.items():
        seed = workload.seeds(0)[0]
        report["by_workload"][name] = {
            "seed": seed, "by_kind": event_cost(workload.config(seed), args.runs),
        }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
