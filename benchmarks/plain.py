"""Plain exact polygon predicates kept inside the benchmark.

These are the benchmark's own reference for simplicity and orientation.
They stay independent of `banded.geometry.polygon_is_simple`, which later
changes are expected to optimise, so the corpus and the morph output check
do not move when that function does.  All arithmetic is exact: coordinates
are ints or Fractions, and each polygon is first scaled to integers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_integers(pts):
    """The polygon scaled by the lcm of its denominators (a similarity, so
    simplicity and orientation are unchanged)."""
    k = 1
    for x, y in pts:
        if isinstance(x, Fraction):
            k = math.lcm(k, x.denominator)
        if isinstance(y, Fraction):
            k = math.lcm(k, y.denominator)
    if k == 1:
        return [(int(x), int(y)) for x, y in pts]
    return [(int(x * k), int(y * k)) for x, y in pts]


def signed_area2(pts):
    total = 0
    n = len(pts)
    for i in range(n):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % n]
        total += x0 * y1 - y0 * x1
    return total


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b) -> bool:
    """p, known to be collinear with a and b, lies on the closed segment."""
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _segments_meet(a, b, c, d) -> bool:
    """The closed segments ab and cd share at least one point."""
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    return (
        (o1 == 0 and _on_segment(c, a, b))
        or (o2 == 0 and _on_segment(d, a, b))
        or (o3 == 0 and _on_segment(a, c, d))
        or (o4 == 0 and _on_segment(b, c, d))
    )


def is_simple(pts) -> bool:
    """True iff the closed chain is simple: distinct vertices, non-adjacent
    edges disjoint, adjacent edges meeting only at their shared vertex.
    Collinear (flat) vertices are allowed.  O(n^2) pairs, each first
    rejected by its bounding boxes."""
    p = to_integers(pts)
    n = len(p)
    if len(set(p)) != n:
        return False
    boxes = []
    for i in range(n):
        (ax, ay), (bx, by) = p[i], p[(i + 1) % n]
        boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)))
    for i in range(n):
        a, b = p[i], p[(i + 1) % n]
        c = p[(i + 2) % n]
        # adjacent edges ab, bc fold onto each other iff c lies back along ba
        if _orient(a, b, c) == 0 and (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0:
            return False
        x0, x1, y0, y1 = boxes[i]
        last = n - 1 if i > 0 else n - 2  # edge n-1 is adjacent to edge 0
        for j in range(i + 2, last + 1):
            u0, u1, v0, v1 = boxes[j]
            if u0 > x1 or x0 > u1 or v0 > y1 or y0 > v1:
                continue
            if _segments_meet(a, b, p[j], p[(j + 1) % n]):
                return False
    return True


def is_valid_snapshot(pts) -> bool:
    """Simple and positively oriented: what the linear morph must keep."""
    return is_simple(pts) and signed_area2(to_integers(pts)) > 0
