"""Report what one client operation costs as t = t_M grows, in both
metadata modes.

For t = t_M = 1 to 5 (seed 1, 2 writers, 2 readers, 30 ops each), it runs
the simulation in oracle and in replicated mode and prints, per client
operation: the messages sent, in total and per kind, the simulated steps
and the wall-clock milliseconds (the best of ``--runs`` runs). A message
counts once, at its first event in `RunResult.events`: its send, or its
drop when it was sent to a crashed process. That is how the tests'
``conftest.message_counts`` counts. The report never fails; it exits 0.

usage: python tools/cost_by_t.py [--runs N]   (N defaults to 3)
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TS = range(1, 6)
MODES = ("oracle", "replicated")
SHAPE = {"seed": 1, "writers": 2, "readers": 2, "ops": 30}


def message_counts(events: list) -> Counter:
    """Messages per kind name, each counted at its first event. The log's
    entries are a `Delivery` (a send, or an invocation when its msg is
    None), a step int followed by the `Delivery` it delivers, a
    (step, ev, reason, msg) tuple for a drop or an undelivered message,
    and a dict for every other entry."""
    from splitstore.net import Delivery

    counts: Counter = Counter()
    seen: set[int] = set()
    entries = iter(events)
    for entry in entries:
        if isinstance(entry, int):
            next(entries)  # a delivery: its message was counted at its send
            continue
        if isinstance(entry, dict):
            continue
        msg = entry.msg if isinstance(entry, Delivery) else entry[3]
        if msg is not None and id(msg) not in seen:
            seen.add(id(msg))
            counts[msg.kind.value] += 1
    return counts


def cost(t: int, mode: str, runs: int) -> dict:
    from splitstore.simnet import Config, run

    config = Config(t=t, tm=t, mds_mode=mode, **SHAPE)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = run(config)
        best = min(best, time.perf_counter() - start)
    ops = len(result.history)
    counts = message_counts(result.events)
    return {
        "messages_per_op": round(sum(counts.values()) / ops, 2),
        "by_kind": {kind: round(n / ops, 2) for kind, n in sorted(counts.items())},
        "steps_per_op": round(result.steps / ops, 1),
        "ms_per_op": round(1000 * best / ops, 3),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv[1:])
    sys.path.insert(0, str(ROOT / "src"))
    report = {
        "shape": {**SHAPE, "t": "t = t_M"},
        "runs": args.runs,
        "by_t": {str(t): {mode: cost(t, mode, args.runs) for mode in MODES} for t in TS},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
