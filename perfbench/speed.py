"""Host speed probe: a fixed pure-Python workload, timed in CPU seconds.

On a shared host the same code costs up to ~1.8x more CPU time while the
neighbours are busy, in phases seconds to minutes long and with little
steal reported.  The probe repeats one fixed workload between the
benchmark's operations — interpreter-bound like the program: recursion
and tuple-keyed dict lookups — and the run's median probe time gives its
speed factor (a set-up uses the probes on either side of it).  CPU times divided by that factor are CPU times at the speed the
host had when ``REFERENCE_S`` was taken, so runs made in busy and quiet
phases compare.  The probe runs no program code, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

# Median probe time on the reference host (2 vCPU Xeon, quiet phase).
REFERENCE_S = 0.015
# Probe at most this often while operations run back to back.
INTERVAL_S = 0.5


# A fixed working set, built once (well under a megabyte): probing must
# not move the peak RSS the benchmark reports.
_TABLE = {(i, (i * 7919) & 1023): i for i in range(4096)}
_KEYS = sorted(_TABLE, key=lambda key: (key[1], key[0]))


def _fold(lo: int, hi: int) -> int:
    """Memo-free recursive halving with a tuple-keyed lookup per leaf."""
    if hi - lo == 1:
        return _TABLE[_KEYS[lo]]
    mid = (lo + hi) // 2
    return _fold(lo, mid) ^ _fold(mid, hi)


def _workload() -> int:
    return sum(_fold(0, len(_KEYS)) for _ in range(16))


class SpeedProbe:
    """Collects probe times over a run; :meth:`factor` is their median
    over ``REFERENCE_S`` (above 1: the host ran slower than reference)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        # This thread's CPU only: the serve load generator's threads keep
        # running beside the probe.
        times = []
        for _ in range(3):
            started = time.thread_time()
            _workload()
            times.append(time.thread_time() - started)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def around_last(self) -> float:
        """Probe now; the factor for what ran since the previous probe."""
        self.sample()
        around = self.samples[-2:]
        return sum(around) / len(around) / REFERENCE_S

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S
