"""Machine speed, measured in the process being timed.

On a shared machine the same work takes up to 1.5x longer from one minute to
the next, as other tenants load the caches and the memory bus, so raw times
of identical runs spread wider than any useful regression bound.  A fixed
probe -- a product of two small polynomials with exact-fraction
coefficients, the kind of work the engine does, built from the standard
library only -- is timed on a SIGALRM every PERIOD_S seconds while the
measured interval runs.  Each time the benchmark reports is divided by the
probe's mean duration over the same interval, relative to REFERENCE_S: it
reads as seconds at the reference speed, moves when the engine changes, and
mostly does not move when the machine's load does.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# mean probe duration on a 2-core Xeon VM with CPython 3.11 in a quiet spell
REFERENCE_S = 200e-6
# probes run right before and after the interval, so that every interval,
# however short, has some; alone they measure the speed around set-up
EDGE_PROBES = 20

_POLY = {i: Fraction(i + 1, 2 * i + 3) for i in range(6)}


def probe() -> float:
    """Seconds one fixed polynomial product takes."""
    t = time.perf_counter()
    out: dict[int, Fraction] = {}
    for i, a in _POLY.items():
        for j, b in _POLY.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return time.perf_counter() - t


class Meter:
    """Probe durations sampled before, during and after a `with` block."""

    def __init__(self):
        self.durations: list[float] = []

    def burst(self) -> None:
        self.durations += [probe() for _ in range(EDGE_PROBES)]

    def _tick(self, signum, frame) -> None:
        self.durations.append(probe())

    def __enter__(self) -> "Meter":
        self.burst()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.burst()
        return False

    @property
    def spent(self) -> float:
        """Seconds the probes took, to be taken off the measured interval."""
        return sum(self.durations)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran."""
        return statistics.fmean(self.durations) / REFERENCE_S
