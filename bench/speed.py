"""The host's speed over a run, measured with a fixed reference computation.

The benchmark runs on shared machines whose speed drifts: on the 2-CPU
VM it was tuned on, the same pure-Python code ran up to 1.7 times slower
for seconds to minutes at a time, so whole 30-second runs differed by 20%
while the program did not change.  ``SpeedProbe`` times ``reference``, an
exact rational elimination written with the standard library only (the
same kind of work as the program's simplex and projections), every
``INTERVAL_S`` between queries.  ``scale`` turns a query's wall time into
the time it would have taken at nominal speed, that is, on a machine where
``reference`` takes ``NOMINAL_S``: wall time × ``NOMINAL_S`` / the trimmed
mean reference time within ``WINDOW_S`` of the query.

The reference does not touch the program, so a change to the program
moves the scaled times and a change in the host's speed mostly does not.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0015   # about the reference's median time on the tuning VM
# A fresh process's time is scaled against a fresh process of the same kind.
FRESH_REFERENCE = ("-c", "import numpy")
FRESH_NOMINAL_S = 0.2
INTERVAL_S = 0.1
REPEATS = 3
WINDOW_S = 1.0
MIN_SAMPLES = 9


def reference(n: int = 8) -> Fraction:
    """Forward elimination of a fixed rational n x (n+1) system."""
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot[c]
            rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    return rows[-1][-1]


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth.

    A query takes the host's mean speed over its run time, so a mean
    tracks it more closely than a median; the trim drops timings that an
    interrupt happened to land in.
    """
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class SpeedProbe:
    """Reference timings taken through a run, and the scaling they imply."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter() at each timing's start
        self.seconds: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        """Time the reference ``REPEATS`` times, with the collector off so
        that garbage the program left cannot slow the reference."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                start = perf_counter()
                reference()
                self.seconds.append(perf_counter() - start)
                self.at.append(start)
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter()

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time starting at ``start``, at nominal speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # too few nearby: take the nearest ones
            mid = bisect.bisect_left(self.at, start)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return seconds * NOMINAL_S / trimmed_mean(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
