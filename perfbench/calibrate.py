"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by 20-50% over tens of
seconds as neighbours come and go, far more than the changes the
benchmark has to resolve. The runner therefore times a fixed calibration
kernel between runs, about every CALIBRATE_EVERY_S seconds of measured
work; the runs in between form a segment. When measuring ends, each
segment's runs are scaled by REFERENCE_KERNEL_S divided by the median of
the kernel times nearest the segment (SMOOTHING of them), which damps
the kernel's own jitter. Reported times are thus host wall-clock times
converted to a reference machine speed: a machine that runs the kernel
in REFERENCE_KERNEL_S reports unscaled wall clock. The kernel is the benchmark's own code and
never changes with splitstore, so a faster splitstore still reports
faster times; only the host's drift is divided out.

The kernel mimics the simulator's mix: small frozen dataclasses, dict
churn, JSON rendering and sorting, plus scattered reads over a working
set of several megabytes, so it slows down with the workload when a
neighbour contends for the core and its caches. The working set is a
flat array, which the cyclic garbage collector never scans, so it does
not lengthen the workload's collections. The collector is off while the
kernel runs, so collections owed by the workload neither land in the
kernel nor get skipped.
"""
from __future__ import annotations

import gc
import json
from array import array
import statistics
import time
from dataclasses import dataclass
from typing import Any

# Kernel time on a 2-vCPU Intel Xeon VM at 2.1 GHz with Python 3.11.7.
REFERENCE_KERNEL_S = 0.0140
CALIBRATE_EVERY_S = 0.4
SMOOTHING = 5
_SPAN = 1_000_003


@dataclass(frozen=True)
class _Msg:
    kind: str
    src: str
    dst: str
    fields: dict

    def render(self) -> dict:
        out = {"kind": self.kind, "src": self.src, "dst": self.dst}
        for key in sorted(self.fields):
            out[key] = self.fields[key]
        return out


class Calibrator:
    """Times the kernel between segments of runs and scales the runs.

    Each item passed to `add` has a `total_s` and a `scale(factor)`;
    `finish` scales every item added so far.
    """

    def __init__(self) -> None:
        self._working_set = array("q", range(_SPAN))
        self.kernel()  # warm up
        self._kernels = [self.kernel()]
        self._segments: list[list[Any]] = []
        self._pending: list[Any] = []
        self._work_s = 0.0
        self.factors: list[float] = []

    def kernel(self, n: int = 1300) -> float:
        """Run the kernel once and return its wall time in seconds."""
        big = self._working_set
        gc.disable()
        try:
            start = time.perf_counter()
            pending = {}
            acc = 0
            for i in range(n):
                msg = _Msg("WRITE", f"w{i % 7}", f"d{i % 5}", {"ts": [i, i % 3], "val": "abc"})
                pending[i] = msg
                if i % 3 == 0:
                    pending.pop(i - 1, None)
                acc += len(json.dumps(msg.render(), separators=(",", ":")))
                acc += big[(i * 7919) % _SPAN] + big[(i * 104729) % _SPAN]
            acc += len(sorted(pending.items(), key=lambda kv: (kv[1].dst, kv[0])))
            return time.perf_counter() - start
        finally:
            gc.enable()

    def add(self, item: Any) -> None:
        self._pending.append(item)
        self._work_s += item.total_s
        if self._work_s >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Close the current segment and time the kernel after it."""
        if not self._pending:
            return
        self._segments.append(self._pending)
        self._kernels.append(self.kernel())
        self._pending = []
        self._work_s = 0.0

    def finish(self) -> None:
        """Scale the items of every closed segment."""
        self.flush()
        kernels = self._kernels
        for i, segment in enumerate(self._segments):
            # segment i lies between kernels[i] and kernels[i + 1]
            lo = max(0, min(i + 1 - SMOOTHING // 2, len(kernels) - SMOOTHING))
            factor = REFERENCE_KERNEL_S / statistics.median(kernels[lo:lo + SMOOTHING])
            for item in segment:
                item.scale(factor)
            self.factors.append(factor)
        self._segments = []
        self._kernels = kernels[-1:]

    def speed(self) -> float:
        """Median host speed relative to the reference machine."""
        return 1.0 / statistics.median(self.factors) if self.factors else 0.0
