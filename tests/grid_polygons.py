"""Simple, counterclockwise polygons drawn on a small integer grid, convex
ones, and seeded pairs of them.

Vertices drawn uniformly from a g x g grid make flat vertices, shared
coordinates, touching edges and touching boxes common, which the
generators in `banded.generators` rarely draw.  Test-only: nothing in
`banded` imports it.
"""

from __future__ import annotations

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
