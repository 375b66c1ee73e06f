"""Seeded random polygons and instances, for the tests only: nothing in
`banded` imports this module.

The first generators draw convex, star and spiral polygons of any size, and
instances whose targets range from benign to adversarial.  They may consult
floating point to propose shapes, but every emitted coordinate is rational
and every claimed property (simple, counterclockwise, convex) is re-checked
exactly before the polygon is returned; a failed check just retries with
fresh randomness from the same stream, so output is fully determined by the
seed.

The grid draws take their vertices from a small g x g integer grid.  That
makes flat vertices, shared coordinates, touching edges and touching boxes
common, which the generators above rarely draw.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from banded.errors import PreconditionError
from banded.geometry import Point2, orient2d, polygon_is_ccw, polygon_is_convex, polygon_is_simple
from banded.model import LabeledPolygon, SliceInstance
from banded.morph import _rotated


class GenerationError(Exception):
    """A random instance generator gave up before producing a valid instance."""


def _dir_half(v: tuple[int, int]) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _dir_cmp(u, v) -> int:
    hu, hv = _dir_half(u), _dir_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def _primitive_count(spread: int) -> int:
    """The number of primitive integer vectors in [-spread, spread]^2, the
    distinct directions that vectors drawn from that square can take."""
    return sum(math.gcd(x, y) == 1 for x in range(-spread, spread + 1) for y in range(-spread, spread + 1))


# Convex polygons draw their edges, and star polygons their ray directions,
# from [-spread, spread]^2; the counts bound the n each can take.
_CONVEX_SPREAD = 20
_CONVEX_MOST = _primitive_count(_CONVEX_SPREAD) + 1  # 1025
_STAR_SPREAD = 12
_STAR_MOST = _primitive_count(_STAR_SPREAD)  # 368


# Up to this n the n - 1 drawn edges are redrawn together until all n
# directions differ, the stream that seeded corpora were drawn from; above
# it a joint redraw almost never succeeds (the draw took seconds at
# n = 100), so one edge at a time is redrawn instead.
_JOINT_DRAW_MAX_N = 80


def random_convex_polygon(rng: random.Random, n: int) -> LabeledPolygon:
    """Convex CCW n-gon with integer coordinates (edge-vector construction).
    Its n edges take distinct directions: n - 1 drawn from [-20, 20]^2 and
    the closing edge, so n may not exceed one more than the number of
    primitive vectors there, 1025."""
    if n > _CONVEX_MOST:
        raise PreconditionError(f"a convex polygon has at most {_CONVEX_MOST} vertices, not {n}")
    draw = _joint_edges if n <= _JOINT_DRAW_MAX_N else _one_by_one_edges
    while True:
        vecs = draw(rng, n, _CONVEX_SPREAD)
        if vecs is None:
            continue
        vecs.sort(key=functools.cmp_to_key(_dir_cmp))
        pts = []
        x = y = 0
        for v in vecs:
            pts.append(Point2(x, y))
            x += v[0]
            y += v[1]
        poly = tuple(pts)
        if polygon_is_simple(poly) and polygon_is_ccw(poly) and polygon_is_convex(poly):
            return LabeledPolygon(poly, 0)


def _joint_edges(rng: random.Random, n: int, spread: int) -> list | None:
    """n - 1 nonzero vectors from [-spread, spread]^2 and the closing edge,
    or None when the closing edge is zero or two of the n share a
    direction."""
    vecs = []
    for _ in range(n - 1):
        while True:
            v = (rng.randint(-spread, spread), rng.randint(-spread, spread))
            if v != (0, 0):
                vecs.append(v)
                break
    closing = (-sum(v[0] for v in vecs), -sum(v[1] for v in vecs))
    if closing == (0, 0):
        return None
    vecs.append(closing)
    return vecs if len({_canon_dir(v) for v in vecs}) == n else None


def _one_by_one_edges(rng: random.Random, n: int, spread: int) -> list:
    """n - 1 vectors from [-spread, spread]^2, each redrawn alone until its
    direction is new, and the closing edge.  While the closing edge is zero
    or repeats a direction, a random one of the n - 1 is drawn afresh."""
    edges = {}  # direction -> vector
    while True:
        while len(edges) < n - 1:
            v = (rng.randint(-spread, spread), rng.randint(-spread, spread))
            if v != (0, 0):
                edges.setdefault(_canon_dir(v), v)
        closing = (-sum(v[0] for v in edges.values()), -sum(v[1] for v in edges.values()))
        if closing != (0, 0) and _canon_dir(closing) not in edges:
            return [*edges.values(), closing]
        del edges[rng.choice(list(edges))]


def _canon_dir(v) -> tuple[int, int]:
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def random_star_polygon(rng: random.Random, n: int) -> LabeledPolygon:
    """Simple CCW n-gon star-shaped around the origin: distinct ray directions
    in angular order with random integer radii.  The directions are the
    primitive integer vectors in [-12, 12]^2, so n may not exceed their
    number, 368."""
    if n > _STAR_MOST:
        raise PreconditionError(f"a star polygon has at most {_STAR_MOST} vertices, not {n}")
    while True:
        dirs = set()
        while len(dirs) < n:
            v = (rng.randint(-_STAR_SPREAD, _STAR_SPREAD), rng.randint(-_STAR_SPREAD, _STAR_SPREAD))
            if v != (0, 0):
                dirs.add(_canon_dir(v))
        ordered = sorted(dirs, key=functools.cmp_to_key(_dir_cmp))
        pts = []
        for dx, dy in ordered:
            r = rng.randint(1, 6)
            pts.append(Point2(r * dx, r * dy))
        poly = tuple(pts)
        if polygon_is_simple(poly) and polygon_is_ccw(poly):
            return LabeledPolygon(poly, 0)


def random_spiral_polygon(rng: random.Random, n: int) -> LabeledPolygon:
    """Simple CCW n-gon shaped like a spiral band (outbound arm, return arm).

    The sweep grows with n: few vertices cannot trace many turns and stay
    simple, so small polygons get a coarse arc while larger ones wind round.
    """
    max_turns = min(1.6, 0.25 + n * 0.075)
    while True:
        k = max(3, n // 2)
        turns = rng.uniform(0.35, max_turns)
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(1.5, 3.0)
        gap = rng.uniform(0.35, 0.55)
        out_pts = []
        for i in range(k):
            theta = turns * 2 * math.pi * i / (k - 1)
            r = a + b * theta
            out_pts.append((r * math.cos(theta), r * math.sin(theta)))
        back_pts = []
        for i in range(n - k):
            frac = 1 - (i + 1) / (n - k + 1)
            theta = turns * 2 * math.pi * frac
            r = (a + b * theta) * (1 - gap)
            back_pts.append((r * math.cos(theta), r * math.sin(theta)))
        raw = out_pts + back_pts
        pts = tuple(
            Point2(
                Fraction(x).limit_denominator(16),
                Fraction(y).limit_denominator(16),
            )
            for x, y in raw
        )
        if len({(p.x, p.y) for p in pts}) != n:
            continue
        if polygon_is_simple(pts):
            poly = pts if polygon_is_ccw(pts) else tuple(reversed(pts))
            return LabeledPolygon(poly, 0)


def random_rotation(rng: random.Random):
    """Exact unit-circle pair (cos, sin) with sin > 0, i.e. an angle in (0, pi);
    a coin flip picks the sign of cos."""
    while True:
        m = rng.randint(1, 9)
        k = rng.randint(1, 9)
        if m == k:
            continue
        m, k = max(m, k), min(m, k)
        den = m * m + k * k
        c = Fraction(m * m - k * k, den)
        s = Fraction(2 * m * k, den)
        if rng.random() < 0.5:
            c = -c
        return c, s


def random_translation(rng: random.Random, spread: int):
    return Fraction(rng.randint(-spread, spread)), Fraction(rng.randint(-spread, spread))


def _as_instance(source: LabeledPolygon, target_pts) -> SliceInstance:
    return SliceInstance(
        LabeledPolygon(source.vertices, 0), LabeledPolygon(tuple(target_pts), 1)
    )


def similar_copy_instance(rng: random.Random, polygon: LabeledPolygon) -> SliceInstance:
    """Target = rotate(< pi, about a random center), uniformly scale, translate."""
    c, s = random_rotation(rng)
    cx, cy = random_translation(rng, 8)
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    tx, ty = random_translation(rng, 10)
    pts = []
    for p in polygon.vertices:
        dx, dy = p.x - cx, p.y - cy
        rx, ry = c * dx - s * dy, s * dx + c * dy
        pts.append(Point2(cx + scale * rx + tx, cy + scale * ry + ty))
    return _as_instance(polygon, pts)


def jiggled_instance(rng: random.Random, polygon: LabeledPolygon, amount: int = 2) -> SliceInstance:
    """Target = source with small random exact offsets, re-checked simple+CCW.

    After 200 draws with offsets up to `amount`, the offset range shrinks a
    quarter at a time, 10 draws each, down to zero, where the target is the
    source itself; so every valid source gets an instance."""
    full = amount * 4
    spans = [full] * 200 + [span for span in range(full - 1, 0, -1) for _ in range(10)] + [0]
    for span in spans:
        pts = [
            Point2(
                p.x + Fraction(rng.randint(-span, span), 4),
                p.y + Fraction(rng.randint(-span, span), 4),
            )
            for p in polygon.vertices
        ]
        if polygon_is_simple(pts) and polygon_is_ccw(pts):
            return _as_instance(polygon, pts)
    raise GenerationError("jiggle failed to produce a simple polygon")


def rotated_instance(rng: random.Random, polygon: LabeledPolygon) -> SliceInstance:
    c, s = random_rotation(rng)
    cx = Fraction(rng.randint(-5, 5))
    cy = Fraction(rng.randint(-5, 5))
    return rotate_copy_instance(polygon, Point2(cx, cy), (c, s))


def rotate_copy_instance(polygon: LabeledPolygon, center: Point2, cos_sin) -> SliceInstance:
    """Instance whose target is the source rotated about `center` by the exact
    rotation (cos, sin); the pair must satisfy cos^2 + sin^2 == 1."""
    c, s = Fraction(cos_sin[0]), Fraction(cos_sin[1])
    if c * c + s * s != 1:
        raise PreconditionError("rotation pair must lie exactly on the unit circle")
    target = _rotated(polygon.vertices, center, c, s)
    return SliceInstance(LabeledPolygon(polygon.vertices, 0), LabeledPolygon(target, 1))


def random_polygon(rng: random.Random, n: int, kind: str) -> LabeledPolygon:
    if kind == "convex":
        return random_convex_polygon(rng, n)
    if kind == "star":
        return random_star_polygon(rng, n)
    if kind == "spiral":
        return random_spiral_polygon(rng, n)
    raise PreconditionError(f"unknown polygon kind {kind!r}")


def random_instance(rng: random.Random, n: int, kind: str) -> SliceInstance:
    """Mixed instance generator: a polygon of the given kind with a target
    drawn from transforms ranging from benign to adversarial."""
    polygon = random_polygon(rng, n, kind)
    style = rng.choice(["similar", "jiggle", "rotate", "independent"])
    if style == "similar":
        return similar_copy_instance(rng, polygon)
    if style == "jiggle":
        return jiggled_instance(rng, polygon)
    if style == "rotate":
        return rotated_instance(rng, polygon)
    other = random_polygon(rng, polygon.n, kind)
    return _as_instance(polygon, (p for p in other.vertices))


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

    def before(p, q):
        u, v = (p[0] - c[0], p[1] - c[1]), (q[0] - c[0], q[1] - c[1])
        return _dir_cmp(u, v) or u[0] ** 2 + u[1] ** 2 - v[0] ** 2 - v[1] ** 2

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
