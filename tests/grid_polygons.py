"""Simple, counterclockwise polygons drawn on a small integer grid.

Vertices drawn uniformly from a g x g grid make flat vertices, shared
coordinates, touching edges and touching boxes common, which the
generators in `banded.generators` rarely draw.  Test-only: nothing in
`banded` imports it.
"""

from __future__ import annotations

import random

from banded.geometry import Point2, polygon_is_ccw, polygon_is_simple


def grid_polygon(rng: random.Random, n: int, g: int = 5) -> tuple[Point2, ...]:
    """n distinct vertices drawn uniformly from the g x g grid, in the order
    drawn, redrawn until the polygon is simple and counterclockwise."""
    cells = [(x, y) for x in range(g) for y in range(g)]
    while True:
        pts = tuple(Point2(*p) for p in rng.sample(cells, n))
        if polygon_is_simple(pts) and polygon_is_ccw(pts):
            return pts
