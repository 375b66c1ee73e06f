"""Simple, counterclockwise polygons drawn on a small integer grid, convex
ones, star-shaped ones, and seeded pairs of them.

Vertices drawn uniformly from a g x g grid make flat vertices, shared
coordinates, touching edges and touching boxes common, which the
generators in `banded.generators` rarely draw.  Test-only: nothing in
`banded` imports it.
"""

from __future__ import annotations

import functools
import random

from banded.geometry import Point2, orient2d, polygon_is_ccw, polygon_is_simple
from banded.model import LabeledPolygon, SliceInstance


def grid_polygon(rng: random.Random, n: int, g: int = 5) -> tuple[Point2, ...]:
    """n distinct vertices drawn uniformly from the g x g grid, in the order
    drawn, redrawn until the polygon is simple and counterclockwise."""
    cells = [(x, y) for x in range(g) for y in range(g)]
    while True:
        pts = tuple(Point2(*p) for p in rng.sample(cells, n))
        if polygon_is_simple(pts) and polygon_is_ccw(pts):
            return pts


# the seeds of `grid_pair` whose two polygons share no corner triple and
# whose layered build raises (ROADMAP item 1)
GRID_PAIRS_THAT_RAISE = (22, 93, 232, 297)


def grid_pair(seed: int) -> SliceInstance:
    """Two polygons on the 5 x 5 grid, n = 4 + seed % 3, from `Random(seed)`."""
    rng = random.Random(seed)
    n = 4 + seed % 3
    return SliceInstance(LabeledPolygon(grid_polygon(rng, n), 0), LabeledPolygon(grid_polygon(rng, n), 1))


def convex_grid_polygon(rng: random.Random, n: int, g: int = 5) -> tuple[Point2, ...]:
    """n vertices of the strict convex hull of 2n cells drawn from the
    g x g grid, kept in counterclockwise order from a drawn start vertex,
    redrawn until the hull has n vertices.  `grid_polygon` rarely draws a
    convex polygon beyond n = 4."""
    cells = [(x, y) for x in range(g) for y in range(g)]
    while True:
        hull = _strict_hull(rng.sample(cells, 2 * n))
        if len(hull) >= n:
            pts = [hull[k] for k in sorted(rng.sample(range(len(hull)), n))]
            start = rng.randrange(n)
            return tuple(Point2(*p) for p in pts[start:] + pts[:start])


def star_grid_polygon(rng: random.Random, n: int, g: int = 5) -> tuple[Point2, ...]:
    """n distinct cells of the g x g grid drawn around a drawn interior cell
    c, in counterclockwise order of their angle about c, the nearer first
    on one ray.  Never redrawn, so a shrinking random shrinks the draw
    toward small coordinates, which `grid_polygon` does not allow.

    The polygon is simple, counterclockwise and star-shaped about c when
    no two cells lie on one ray from c and consecutive cells turn less
    than half a turn about it; other draws, such as cells on one line, may
    be clockwise or not simple."""
    c = (rng.randrange(1, g - 1), rng.randrange(1, g - 1))
    cells = [(x, y) for x in range(g) for y in range(g) if (x, y) != c]

    def half(p):
        # 0 on the open upper half-plane about c and its ray toward +x
        return 0 if p[1] > c[1] or p[1] == c[1] and p[0] > c[0] else 1

    def before(p, q):
        distance = (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2 - (q[0] - c[0]) ** 2 - (q[1] - c[1]) ** 2
        return half(p) - half(q) or -orient2d(c, p, q) or distance

    return tuple(Point2(*p) for p in sorted(rng.sample(cells, n), key=functools.cmp_to_key(before)))


def _strict_hull(points) -> list:
    """The vertices of the convex hull of `points`, counterclockwise, with
    no flat vertex (Andrew's monotone chain)."""
    pts = sorted(points)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])
