"""Golden verdicts of the exact morph planarity decision.

Each instance is drawn here, from a seeded stream of its own (not from
`banded.generators`, which may change), or pinned by hand.  The expected
`(preserved, kind, subjects, interval, instantaneous)` tuples were recorded
with the all-pairs `Fraction` kernel that the integer-scaled, swept kernel
replaced, so any change to a verdict or to the bits of a witness interval
fails here.

A vertex collision is never the reported kind: at the instant two vertices
meet, an angle collapse (adjacent vertices) or an edge contact (non-adjacent
vertices, n >= 4) starts too, and both sort before it.  The square swap below
has such a collision at t = 1/2; its verdict is the edge contact that starts
there.
"""

import functools
import random
from fractions import Fraction

import pytest

from banded.geometry import Point2, polygon_is_ccw, polygon_is_simple
from banded.model import LabeledPolygon, SliceInstance, _frame
from banded.morph import _decide, planarity_preserving

TURNS = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(-12, 13)),
    (Fraction(-24, 25), Fraction(7, 25)),
    (Fraction(-1), Fraction(0)),
)


def _angle_cmp(u, v) -> int:
    """Exact order of integer directions by angle in [0, 2 pi)."""
    hu = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    hv = v[1] < 0 or (v[1] == 0 and v[0] < 0)
    if hu != hv:
        return 1 if hu else -1
    c = u[0] * v[1] - u[1] * v[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


def _valid(pts) -> bool:
    return polygon_is_simple(pts) and polygon_is_ccw(pts)


def _star(rng, n, spread):
    """A polygon star-shaped about the origin: n integer directions of
    distinct angles, in angle order, each stretched by 1, 2 or 3."""
    while True:
        dirs = set()
        while len(dirs) < n:
            d = (rng.randint(-spread, spread), rng.randint(-spread, spread))
            if d != (0, 0):
                dirs.add(d)
        dirs = sorted(dirs, key=functools.cmp_to_key(_angle_cmp))
        if any(_angle_cmp(a, b) == 0 for a, b in zip(dirs, dirs[1:])):
            continue
        pts = tuple(Point2(x * rng.randint(1, 3), y * rng.randint(1, 3)) for x, y in dirs)
        if _valid(pts):
            return pts


def _target(rng, style, pts):
    if style == "rotate":
        c, s = TURNS[rng.randrange(len(TURNS))]
        cx, cy = rng.randint(-3, 3), rng.randint(-3, 3)
        return tuple(
            Point2(cx + c * (p.x - cx) - s * (p.y - cy), cy + s * (p.x - cx) + c * (p.y - cy))
            for p in pts
        )
    while True:
        if style == "jiggle":
            q = tuple(
                Point2(p.x + Fraction(rng.randint(-4, 4), 2), p.y + Fraction(rng.randint(-4, 4), 2))
                for p in pts
            )
        elif style == "half":  # a half turn, jiggled
            cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
            q = tuple(
                Point2(2 * cx - p.x + rng.randint(-1, 1), 2 * cy - p.y + rng.randint(-1, 1))
                for p in pts
            )
        else:  # independent
            q = _star(rng, len(pts), 4)
        if _valid(q):
            return q


def drawn(seed: int) -> SliceInstance:
    """Instance `seed` of the stream: n in 3..20 for even seeds, 3..6 for odd
    ones (where orientation flips and folds are common)."""
    rng = random.Random(seed)
    n = rng.randint(3, 20) if seed % 2 == 0 else rng.randint(3, 6)
    src = _star(rng, n, 4 if seed % 2 == 0 else 3)
    style = rng.choice(("rotate", "jiggle", "independent", "half"))
    return SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(_target(rng, style, src), 1))


def _pinned(src, tgt) -> SliceInstance:
    return SliceInstance(
        LabeledPolygon(tuple(Point2(*p) for p in src), 0),
        LabeledPolygon(tuple(Point2(*p) for p in tgt), 1),
    )


def _scaled(inst: SliceInstance, s, dx, dy) -> SliceInstance:
    """The instance under the similarity p -> s p + (dx, dy): the same
    verdict, but with rational coordinates whose roots are isolated from
    other coefficients than those of the original."""
    def image(poly):
        pts = tuple(Point2(s * p.x + dx, s * p.y + dy) for p in poly.vertices)
        return LabeledPolygon(pts, poly.z_level)

    return SliceInstance(image(inst.source), image(inst.target))


PINNED = {
    # witness intervals with irrational ends, on coordinates over 3 and 14
    "scaled_0": _scaled(drawn(0), Fraction(1, 3), Fraction(1, 2), Fraction(-2, 7)),
    "scaled_129": _scaled(drawn(129), Fraction(5, 7), Fraction(1, 2), 3),
    # vertex 3 grazes edge 0 at t = 1/2 (a double root of the orientation)
    "tangential_touch": _pinned(
        ((0, 0), (4, 2), (6, 4), (2, Fraction(3, 2)), (-2, 4)),
        ((0, 0), (4, -2), (6, 4), (4, Fraction(-3, 2)), (-2, 4)),
    ),
    "angle_collapse_8_9": _pinned(
        ((0, 0), (4, 0), (4, 3), (-4, 3)), ((-1, 5), (2, -2), (4, 4), (5, 4))
    ),
    "edge_contact": _pinned(
        ((1, -1), (3, 4), (-2, -1), (-5, -5)), ((2, 4), (-1, -1), (3, -2), (1, 0))
    ),
    # vertices 0 and 1 swap places (target not counterclockwise)
    "square_swap": _pinned(((0, 0), (4, 0), (4, 4), (0, 4)), ((4, 0), (0, 0), (4, 4), (0, 4))),
}

# seed or pinned name -> (preserved, kind, subjects, interval, instantaneous)
GOLDEN = {
    30: (False, 'angle_collapse', (1,), ('2/5', '2/5'), True),
    128: (False, 'angle_collapse', (6,), ('7/15', '7/15'), True),
    320: (False, 'angle_collapse', (0,), ('1/4', '1/4'), True),
    366: (False, 'angle_collapse', (0,), ('1/2', '1/2'), True),
    5: (False, 'angle_collapse', (0,), ('1/2', '1/2'), True),
    33: (False, 'angle_collapse', (0,), ('7/13', '7/13'), True),
    43: (False, 'angle_collapse', (0,), ('1/2', '1/2'), True),
    0: (False, 'edge_contact', (6, 8), ('75/182', '27/58'), False),
    8: (False, 'edge_contact', (1, 5), ('77/177', '11/25'), False),
    10: (False, 'edge_contact', (0, 2), ('17/46', '1/2'), False),
    12: (False, 'edge_contact', (9, 11), ('63/188', '32/89'), False),
    34: (False, 'edge_contact', (16, 18), ('13/72', '4/11'), False),
    40: (False, 'edge_contact', (3, 5), ('1/3', '15/37'), False),
    54: (False, 'edge_contact', (1, 6), ('11/26', '38/75'), False),
    66: (False, 'edge_contact', (0, 3), ('6/13', '167/358'), False),
    3: (False, 'edge_contact', (0, 2), ('437/1152', '2/5'), False),
    9: (False, 'edge_contact', (0, 2), ('27/80', '19/42'), False),
    11: (False, 'edge_contact', (2, 4), ('23/58', '105/194'), False),
    27: (False, 'edge_contact', (3, 5), ('67/147', '361/782'), False),
    129: (False, 'edge_contact', (2, 4), ('7/16', '7027/15584'), False),
    131: (False, 'edge_contact', (2, 4), ('533/1168', '143/272'), False),
    126: (False, 'orientation_flip', (), ('1/2', '141/265'), False),
    162: (False, 'orientation_flip', (), ('1/2', '23/45'), False),
    378: (False, 'orientation_flip', (), ('8/17', '1/2'), False),
    37: (False, 'orientation_flip', (), ('397/822', '443/822'), False),
    113: (False, 'orientation_flip', (), ('199/414', '79/138'), False),
    139: (False, 'orientation_flip', (), ('1/2', '21/40'), False),
    2: (True, None, None, None, False),
    4: (True, None, None, None, False),
    16: (True, None, None, None, False),
    18: (True, None, None, None, False),
    24: (True, None, None, None, False),
    26: (True, None, None, None, False),
    1: (True, None, None, None, False),
    7: (True, None, None, None, False),
    25: (True, None, None, None, False),
    'tangential_touch': (False, 'edge_contact', (0, 2), ('1/2', '1/2'), True),
    'angle_collapse_8_9': (False, 'angle_collapse', (2,), ('8/9', '8/9'), True),
    'edge_contact': (False, 'edge_contact', (1, 3), ('4/15', '87/100'), False),
    'square_swap': (False, 'edge_contact', (1, 3), ('1/2', '1'), False),
    'scaled_0': (False, 'edge_contact', (6, 8), ('677/1638', '27/58'), False),
    'scaled_129': (False, 'edge_contact', (2, 4), ('647/1470', '269001/596575'), False),
}


def _instance(key):
    return PINNED[key] if isinstance(key, str) else drawn(key)


@pytest.mark.parametrize("key", list(GOLDEN), ids=str)
def test_golden_verdict(key):
    inst = _instance(key)
    # the square swap's target is not simple, so the entry point rejects it
    # and the kernel decides it on its own frame
    verdict = _decide(*_frame(inst)) if key == "square_swap" else planarity_preserving(inst)
    interval = None if verdict.interval is None else tuple(str(v) for v in verdict.interval)
    got = (verdict.preserved, verdict.kind, verdict.subjects, interval, verdict.instantaneous)
    assert got == GOLDEN[key]


def test_golden_set_covers_every_reported_kind():
    kinds = {v[1] for v in GOLDEN.values()}
    assert kinds == {None, "edge_contact", "angle_collapse", "orientation_flip"}
    assert any(v[4] and v[1] == "edge_contact" for v in GOLDEN.values())
    assert any(v[4] and v[1] == "angle_collapse" for v in GOLDEN.values())
    assert all(_instance(k).n <= 20 for k in GOLDEN)
