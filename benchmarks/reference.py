"""A fixed speed reference for scaling the timing metrics.

The machine this benchmark was written on shares its cores with other
guests, and its speed drifted by up to 1.7x within minutes: three runs of
one seed, back to back, read up to 19% apart.  A run therefore times this fixed
job, which uses none of the library, between its instances, and scales every
time it reports by NOMINAL_S / (the job's mean time over the run).  The
reported times are what the run would have taken on a machine that runs the
job in NOMINAL_S; the unscaled times are in the report above the result
line.

The job is exact rational and integer arithmetic of the kind the library
does: a sum of Fraction products and the plain O(n^2) simplicity test on a
fixed star polygon with rational coordinates.  It runs with the cyclic
garbage collector paused, so the size of the library's live heap does not
change its time.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter

import plain

# The job's typical time on the machine the benchmark was written on
# (Python 3.11, 2 cores of a shared Xeon host); it only sets the unit.
NOMINAL_S = 0.0055


def _star(n: int):
    turn = (Fraction(3, 5), Fraction(4, 5))
    pts = []
    for i in range(n):
        r = 100 if i % 2 == 0 else 55
        a = 2 * math.pi * i / n
        x, y = round(r * math.cos(a)), round(r * math.sin(a))
        pts.append((turn[0] * x - turn[1] * y + Fraction(1, 3), turn[1] * x + turn[0] * y - Fraction(2, 7)))
    return tuple(pts)


STAR = _star(24)


def job() -> None:
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    for _ in range(10):
        if not plain.is_simple(STAR):
            raise AssertionError("reference polygon is not simple")


def sample() -> float:
    """Seconds for one run of the job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        job()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
