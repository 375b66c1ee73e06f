"""Linear-morph analysis.

Each vertex travels in a straight line from its source to its target position,
so every geometric predicate along the morph is a quadratic polynomial in the
time parameter.  The planarity decision isolates the real roots of those
quadratics and evaluates exact sign predicates on each resulting piece, at
rational sample points inside pieces and in Q(sqrt(d)) at the roots
themselves; no sampling heuristics and no floating point are involved.

With morph time as the z axis and a rational horizon H in (0, 1], edge i at a
time t <= H lies in the section at z = t / H of the tetrahedron on the edge
at times 0 and H, hull(p_i, p_{i+1}, h_{i+1}, h_i) for source vertices p at
z = 0 and their positions h at time H at z = 1.  Two edges whose tetrahedra
are disjoint have no common point on [0, H], and `geometry._sections_apart`
decides that from the 8 xy differences of the two bands, as it does for the
conflict table, so such pairs are dismissed before any polynomial is built.
The tetrahedra test runs over [0, H], with H = 1, the band between source
and target, until a first run is known.

Only the earliest violation is reported, so the scan looks for nothing else
(detecting an intersection costs less than reporting them all, as Shamos
and Hoey 1976 observed for segments).  Each candidate's later runs start
after its first, so only first runs compete, and a candidate's walk stops
at the first piece that starts after the best start B so far.  Once B is
known, H drops to a rational horizon above B, below 1 where one can be had:
an edge pair apart before H cannot start a run at or before B.

A target that is A p + v of the source points p, as rotated, similar and
translated copies are, needs no scan: the snapshot at time t is the source
mapped by (1 - t) I + tA and then translated, and that map keeps a positive
determinant on [0, 1] exactly when A has no eigenvalue in (-inf, 0].  An
orientation-preserving affine map takes a simple, counterclockwise polygon
to one, so every snapshot is valid and the morph preserves planarity.  The
test reads the fit that `SliceInstance.validate` makes anyway
(`model._affine_fit`, O(n) int arithmetic).  The ear-squash planner in
`steiner` applies the same eigenvalue test (`_planar_linear_part`) to its
end gap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import quadfield
from .errors import AllPointsEqualError, InputError, InternalConsistencyError, PreconditionError
from .geometry import (
    Point2,
    _box_pairs,
    _ends_apart,
    _horizon_bands,
    _sections_apart,
    _turn_rule,
    _xy_differences,
    polygon_is_convex,
)
from .model import ChordAssignment, LabeledPolygon, SliceInstance, _frame, _integer_instance
from .quadfield import ExactTime, midpoint, rational_between
from .solver import _verified


@dataclass(frozen=True)
class PlanarityVerdict:
    """Outcome of the exact planarity decision.

    On violation, `interval` is a rational interval that contains the first
    violating stretch; unless `instantaneous` is set, its midpoint itself
    violates, so the witness can be re-checked directly.  `kind` is one of
    edge_contact (`subjects` are the two edges' indices), angle_collapse
    (the vertex whose angle closes) and orientation_flip (no subjects).  Two
    colliding vertices are reported as the angle collapse or the edge
    contact that starts with the collision.
    """

    preserved: bool
    interval: tuple[Fraction, Fraction] | None = None
    kind: str | None = None
    subjects: tuple[int, ...] | None = None
    instantaneous: bool = False


def morph_position(inst: SliceInstance, t) -> LabeledPolygon:
    """The intermediate polygon at time t, exactly interpolated, at
    `z_level` t: with morph time as z, the level-t polygon of the morph."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise PreconditionError("morph time must lie in [0, 1]")
    pts = []
    for p, q in zip(inst.source.vertices, inst.target.vertices):
        pts.append(Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    return LabeledPolygon(tuple(pts), t)


# ---------------------------------------------------------------------------
# moving-point polynomial helpers
# ---------------------------------------------------------------------------
#
# The decision scales the source and target onto integers once, by one
# positive factor k (a similarity, which leaves every event time unchanged),
# so every coefficient below is an int.  Polynomials are coefficient tuples
# (c0, c1) or (c0, c1, c2) in the time t.


def _lin_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _lin_mul(p, q):
    return (p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1])


def _quad_add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def _quad_sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


class _MovingPoint:
    """A vertex moving from the scaled source (px, py) to the scaled target
    (qx, qy), all ints: (x0 + x1 t, y0 + y1 t)."""

    __slots__ = ("x", "y")

    def __init__(self, px: int, py: int, qx: int, qy: int):
        self.x = (px, qx - px)
        self.y = (py, qy - py)


def _orient_quad(a: _MovingPoint, b: _MovingPoint, c: _MovingPoint):
    ux, uy = _lin_sub(b.x, a.x), _lin_sub(b.y, a.y)
    vx, vy = _lin_sub(c.x, a.x), _lin_sub(c.y, a.y)
    return _quad_sub(_lin_mul(ux, vy), _lin_mul(uy, vx))


def _dot_quad(a: _MovingPoint, b: _MovingPoint, c: _MovingPoint):
    """Dot product (a - b) . (c - b) as a quadratic in t."""
    ux, uy = _lin_sub(a.x, b.x), _lin_sub(a.y, b.y)
    vx, vy = _lin_sub(c.x, b.x), _lin_sub(c.y, b.y)
    return _quad_add(_lin_mul(ux, vx), _lin_mul(uy, vy))


def _quad_is_zero(q):
    return q[0] == 0 and q[1] == 0 and q[2] == 0


def _constant_sign(q) -> int:
    """+1 (or -1) when q > 0 (or q < 0) on all of (0, 1), else 0.

    q keeps one strict sign on (0, 1) exactly when it has no root inside
    and is not 0 at t = 1/2, and that sign is the one of 4 q(1/2) =
    4 c0 + 2 c1 + c2.  Integer arithmetic only."""
    if _has_root01(q):
        return 0
    half = 4 * q[0] + 2 * q[1] + q[2]
    return (half > 0) - (half < 0)


def _has_root01(q) -> bool:
    """Whether q has a root strictly inside (0, 1); the zero polynomial has
    none, as for `roots_in_open_interval`.  Integer arithmetic only."""
    c0, c1, c2 = q
    b0, b2 = c0, c0 + c1 + c2
    if (b0 < 0 < b2) or (b2 < 0 < b0):
        return True
    if c2 < 0:
        c0, c1, c2, b0, b2 = -c0, -c1, -c2, -b0, -b2
    # no sign change: roots inside need the apex -c1 / (2 c2) inside too
    if c2 == 0 or not 0 < -c1 < 2 * c2:
        return False
    disc = c1 * c1 - 4 * c0 * c2
    # a double root at the apex, or two roots of which one is inside
    # exactly when the value at its side's end is positive
    return disc == 0 or (disc > 0 and (b0 > 0 or b2 > 0))


def _roots01(q, kk: int):
    """The roots of q in (0, 1), bracketed as if isolated from the unscaled
    coefficients q / k^2, so that their brackets do not depend on k."""
    if not _has_root01(q):
        return []
    return quadfield.roots_in_open_interval(*q, kk)


def _collision_times(a: _MovingPoint, b: _MovingPoint):
    """Rational times in (0,1) at which the two moving points coincide: the
    root of whichever coordinate difference moves, x first, kept where both
    differences vanish."""
    (x0, x1), (y0, y1) = _lin_sub(a.x, b.x), _lin_sub(a.y, b.y)
    num, den = (-x0, x1) if x1 else (-y0, y1)
    if not (den or x0 or y0):
        raise InputError("two vertices travel identically; polygons have repeated vertices")
    if den < 0:
        num, den = -num, -den
    # with neither difference moving, den = 0 and no time is in (0, 1)
    if x0 * den + x1 * num or y0 * den + y1 * num or not 0 < num < den:
        return []
    return [Fraction(num, den)]


def _collision_events(pairs):
    return [ExactTime(t.numerator, t.denominator) for a, b in pairs for t in _collision_times(a, b)]


def _gap(u, v):
    """u - v for two linear coordinates, as a quadratic."""
    return (u[0] - v[0], u[1] - v[1], 0)


def _apart(t: ExactTime, a: _MovingPoint, b: _MovingPoint) -> bool:
    """Whether the positions of a and b at t differ."""
    return bool(t.sign(_gap(a.x, b.x)) or t.sign(_gap(a.y, b.y)))


def _between(t: ExactTime, p: _MovingPoint, a: _MovingPoint, b: _MovingPoint) -> bool:
    """Whether p, collinear with a and b at t, lies on the closed segment
    ab at t: between a and b in x, or, where a and b share their x, sharing
    it and between them in y, so that a zero-length segment holds only its
    own point."""
    if t.sign(_gap(a.x, b.x)):
        return t.sign(_gap(p.x, a.x)) * t.sign(_gap(p.x, b.x)) <= 0
    return not t.sign(_gap(p.x, a.x)) and t.sign(_gap(p.y, a.y)) * t.sign(_gap(p.y, b.y)) <= 0


def _predicate(kind: str, points, polys):
    """The exact violation test of one candidate at an `ExactTime`.
    `points` are the moving points involved and `polys` the candidate's
    polynomials: the shoelace for orientation_flip, the cross and dot
    product at the middle vertex for angle_collapse, and for edge_contact
    the four orientations of each edge's ends against the other's line,
    whose signs settle it unless one of them is 0."""
    if kind == "orientation_flip":
        (shoelace,) = polys
        return lambda t: t.sign(shoelace) <= 0
    if kind == "angle_collapse":
        cross, dot = polys
        return lambda t: t.sign(cross) == 0 and t.sign(dot) >= 0
    e0, e1, f0, f1 = points

    def edges_touch(t):
        """Whether the closed segments e0 e1 and f0 f1 have a common point at
        t; a zero-length one is its point."""
        o1, o2, o3, o4 = (t.sign(q) for q in polys)
        if o1 and o2 and o3 and o4:
            return o1 != o2 and o3 != o4
        if not o1 and not o2 and _apart(t, e0, e1) and _apart(t, f0, f1):
            # collinear: with u = e1 - e0, the projections (f - e0) . u of
            # f0 and f1 span an interval that must meet [0, u . u]
            return (t.sign(_dot_quad(f0, e0, e1)) >= 0 or t.sign(_dot_quad(f1, e0, e1)) >= 0) and (
                t.sign(_dot_quad(f0, e1, e0)) >= 0 or t.sign(_dot_quad(f1, e1, e0)) >= 0
            )
        return (
            (not o1 and _between(t, f0, e0, e1))
            or (not o2 and _between(t, f1, e0, e1))
            or (not o3 and _between(t, e0, f0, f1))
            or (not o4 and _between(t, e1, f0, f1))
        )

    return edges_touch


# ---------------------------------------------------------------------------
# piecewise sign analysis
# ---------------------------------------------------------------------------


def _sorted_unique_events(events):
    if not events:
        return []
    events = sorted(events, key=functools.cmp_to_key(lambda a, b: a.compare(b)))
    out = [events[0]]
    for e in events[1:]:
        if e.compare(out[-1]) != 0:
            out.append(e)
    return out


def _compare_copies(t: ExactTime, u: ExactTime) -> int:
    """Sign of t - u, decided on copies when both are irrational, so that
    neither bracket is refined: a time's bracket then depends only on its
    own candidate's work."""
    if t.q and u.q:
        t, u = _copy(t), _copy(u)
    return t.compare(u)


def _copy(t: ExactTime) -> ExactTime:
    c = ExactTime(t.p, t.r, t.q, t.d, t.lo)
    c.k = t.k
    return c


def _walked_past(t: ExactTime, bound: ExactTime | None) -> bool:
    """Whether a piece that starts at t starts strictly after `bound`, so
    that no run of it or of a later piece can come first."""
    return bound is not None and _compare_copies(t, bound) > 0


@dataclass
class _Run:
    start: ExactTime  # left boundary of the violating stretch
    end: ExactTime  # right boundary
    instantaneous: bool  # single touching instant
    sample: ExactTime | None  # a rational violating time inside, when one exists

    def outer_bounds(self) -> tuple[Fraction, Fraction]:
        return self.start.bounds()[0], self.end.bounds()[1]


def _first_run(events, predicate, bound: ExactTime | None) -> _Run | None:
    """The first violating run of one candidate, or None when it has none
    that starts at or before `bound` (None: no bound).

    (0, 1) is split at the sorted, distinct `events` into open pieces and
    the event points between them; `predicate` receives an `ExactTime`,
    must be constant on each open piece, where it is tested at a rational
    sample, and is tested exactly at each event.  A run is a maximal stretch
    of consecutive violating pieces.  The walk goes in time order and,
    outside a run, stops at the first piece that starts strictly after the
    bound, or after the candidate's own run start once that run has ended:
    a later run starts after it.  The open piece just after the run is
    still sampled, because that sample refines the run's end bracket as it
    would in a walk over every piece.
    """
    one = ExactTime(1, 1)
    bounds = [ExactTime(0, 1), *events, one]
    run = None
    inside = False
    for a, b in zip(bounds, bounds[1:]):
        m = rational_between(a, b)
        if not predicate(m):
            inside = False
        elif run is None:
            run, inside = _Run(a, b, False, m), True
        elif inside:
            run.end, run.instantaneous = b, False
            run.sample = run.sample or m
        if b is one:
            break
        # the event b, where the pieces that start at b begin
        if not inside and _walked_past(b, bound if run is None else run.start):
            break
        if not predicate(b):
            inside = False
        elif run is None:
            run, inside = _Run(b, b, True, None if b.q else b), True
        elif inside:
            run.end, run.instantaneous = b, False
            run.sample = run.sample or (None if b.q else b)
    return run


_TIGHTEN_ROUNDS = 200


def _tighten_run(run: _Run, predicate) -> tuple[Fraction, Fraction]:
    """Refine the run's boundary brackets until the midpoint of the reported
    rational interval itself violates; the interval always contains the run."""
    if run.instantaneous and run.sample is None:
        return run.outer_bounds()
    for _ in range(_TIGHTEN_ROUNDS):
        if predicate(midpoint(run.start.lower(), run.end.upper())):
            return run.outer_bounds()
        run.start.refine()
        run.end.refine()
    raise InternalConsistencyError("failed to tighten a planarity violation interval")


# ---------------------------------------------------------------------------
# the planarity decision
# ---------------------------------------------------------------------------


def planarity_preserving(inst: SliceInstance) -> PlanarityVerdict:
    """Exact decision: do all intermediate polygons of the linear morph stay
    simple (and positively oriented) for t strictly inside (0, 1)?

    Violations: non-adjacent edges touching or crossing, a polygon angle
    collapsing to zero (adjacent edges folding onto each other), and the
    signed area dropping to or below zero (the polygon inverting).  Endpoint
    times are excluded.  Two vertices that collide are not scanned for: at
    that instant adjacent vertices collapse their angle, and non-adjacent
    ones bring their edges into contact, which the scans already find.

    The instance is validated first (`SliceInstance.validate` raises
    `InputError` on an invalid one), and the decision reuses the integer
    frame and affine fit that validation returns.  A target that is A p + v
    of the source points p, with A free of eigenvalues in (-inf, 0], is
    decided in O(n) without a scan: the snapshot at t is the source mapped
    by (1 - t) I + tA, whose determinant stays positive on [0, 1], and then
    translated, so it is simple and counterclockwise like the source.  The
    fit that validation needs for the target is the one this test reads, so
    such a pair costs one source sweep and one O(n) fit.

    Every other instance is scanned.  Only non-adjacent edges whose swept
    boxes meet are examined, and of those only the pairs whose band
    tetrahedra over [0, H] meet, for a rational horizon H in (0, 1].  With
    time as z, edge i at time t <= H lies in (1 - t/H) e_i(0) + (t/H)
    e_i(H), the section at z = t/H of the tetrahedron on the edge at times
    0 and H.  When two such closed tetrahedra are disjoint (the xy boxes,
    then `_sections_apart` on the bands' 8 xy differences, by its lemma),
    so is every pair of their sections, and the two edges have no common
    point at any t in [0, H].  H is 1 until a first run is known.  A
    vertex's angle whose cross product keeps one strict sign over (0, 1)
    never closes, and an edge pair one of whose edges stays strictly on
    one side of the other's line never touches.  All three are dismissed
    before any root is isolated.  The tetrahedra test and the
    constant-sign test (no root inside (0, 1) and nonzero at 1/2) are
    exact, so a dismissed candidate never had a violating run before H.

    The scan keeps one best first run: the least start, ties broken by
    `_tiebreak`.  A candidate's later runs start after its first, so they
    never win, and its walk over the pieces between its events stops at
    the first piece, outside a run, that starts strictly after the best
    start B; a run that starts at B is walked to its end, so that ties see
    whether it is instantaneous.  With B known, H drops to a rational
    horizon above B (`_horizon`), or stays 1 when none below 1 can be had.
    A run that starts at or before B violates at some time below H, so a
    pair apart before H never holds one.  Times of different candidates
    are compared on copies, so every bracket, and so the witness interval,
    depends on the winning candidate's own events and samples alone, and
    every verdict and witness interval is the one a scan of every piece of
    every candidate gives.
    """
    return _decide(*inst.validate())


def _decide(k: int, cs: list[int], fit) -> PlanarityVerdict:
    """The decision on the integer frame (k, cs) and affine fit that
    `model._frame` gives."""
    if fit is not None and _planar_linear_part(*fit):
        return PlanarityVerdict(preserved=True)
    return _scan_verdict(k, cs)


def _planar_linear_part(m, d) -> bool:
    """Whether A = M / d has no eigenvalue in (-inf, 0], so that (1 - t) I +
    tA keeps a positive determinant for every t in [0, 1]: that determinant
    is the product of 1 - t + t lambda over A's eigenvalues lambda, a real
    lambda zeroes it at t = 1 / (1 - lambda), which is in (0, 1] iff
    lambda <= 0, and a complex pair gives |1 - t + t lambda|^2 > 0.  The
    test is det A > 0 and not (tr A <= 0 and tr A^2 >= 4 det A), run on M,
    whose trace is d tr A and whose determinant is d^2 det A."""
    a, b, c, e = m
    tr, det = a + e, a * e - b * c
    return det > 0 and not (tr * d <= 0 and tr * tr >= 4 * det)


def _scan_verdict(k: int, cs: list[int]) -> PlanarityVerdict:
    """The decision by scanning, for its first violating run, every
    candidate that the filters keep, on the coordinates that `model._frame`
    scaled by k."""
    n = len(cs) // 4
    kk = k * k
    moving = [_MovingPoint(*cs[i : i + 4]) for i in range(0, 4 * n, 4)]
    best = None  # (run, kind, subjects, predicate) of the earliest first run so far
    # `_horizon_bands` over [0, 1], then for best's start once an edge pair needs it
    horizon, stale = _horizon_bands(cs, (1, 1)), False

    def scan(kind, subjects, points, polys, events):
        nonlocal best, stale
        predicate = _predicate(kind, points, polys)
        run = _first_run(_sorted_unique_events(events), predicate, best and best[0].start)
        if run is None:
            return
        candidate = (run, kind, subjects, predicate)
        if best is None or (_compare_copies(run.start, best[0].start) or _tiebreak(candidate, best)) < 0:
            best, stale = candidate, True

    # angle collapse at each vertex (adjacent edge pairs)
    for i in range(n):
        a, b, c = moving[(i - 1) % n], moving[i], moving[(i + 1) % n]
        cross = _orient_quad(a, b, c)
        if _constant_sign(cross):
            continue  # never collinear inside (0, 1)
        dot = _dot_quad(a, b, c)
        events = _roots01(dot if _quad_is_zero(cross) else cross, kk)
        events += _collision_events(((a, b), (b, c), (a, c)))
        scan("angle_collapse", (i,), (a, b, c), (cross, dot), events)

    # non-adjacent edge pairs, ascending, whose swept boxes meet: an edge's
    # box over t in [0, 1] is that of its band quad
    pairs = [(i, j) if i < j else (j, i) for i, j in _box_pairs(horizon[0]) if (j - i) % n not in (1, n - 1)]
    for i, j in sorted(pairs):
        if stale:
            horizon, stale = _horizon_bands(cs, _horizon(best[0].start) or (1, 1)), False
        if _apart_before(horizon, i, j):
            continue  # the edges do not meet before the horizon
        e0, e1, f0, f1 = moving[i], moving[(i + 1) % n], moving[j], moving[(j + 1) % n]
        o1, o2 = _orient_quad(e0, e1, f0), _orient_quad(e0, e1, f1)
        s = _constant_sign(o1)
        if s and s == _constant_sign(o2):
            continue  # f stays strictly on one side of e's line
        o3, o4 = _orient_quad(f0, f1, e0), _orient_quad(f0, f1, e1)
        s = _constant_sign(o3)
        if s and s == _constant_sign(o4):
            continue  # e stays strictly on one side of f's line
        quads = (o1, o2, o3, o4)
        events = [r for q in quads for r in _roots01(q, kk)]
        events += _collision_events((u, v) for u in (e0, e1) for v in (f0, f1))
        scan("edge_contact", (i, j), (e0, e1, f0, f1), quads, events)

    # orientation flip: the shoelace quadratic must stay strictly positive
    shoelace = (0, 0, 0)
    for i in range(n):
        a, b = moving[i], moving[(i + 1) % n]
        shoelace = _quad_add(shoelace, _quad_sub(_lin_mul(a.x, b.y), _lin_mul(a.y, b.x)))
    scan("orientation_flip", (), (), (shoelace,), _roots01(shoelace, kk))

    if best is None:
        return PlanarityVerdict(preserved=True)
    run, kind, subjects, predicate = best
    lo, hi = _tighten_run(run, predicate)
    return PlanarityVerdict(
        preserved=False,
        interval=(lo, hi),
        kind=kind,
        subjects=subjects,
        instantaneous=run.instantaneous,
    )


def _tiebreak(p, q):
    # among runs starting at the same instant, prefer an extended violating
    # stretch over an isolated touch, then order deterministically
    kp = (p[0].instantaneous, p[1], p[2])
    kq = (q[0].instantaneous, q[1], q[2])
    return -1 if kp < kq else (1 if kp > kq else 0)


def _horizon(start: ExactTime) -> tuple[int, int] | None:
    """A rational horizon H = num / den > start, as (num, den), or None
    when H < 1 cannot be had that way: the upper end of the bracket of an
    irrational start, and start + 1 / (2 r) for a rational start p / r."""
    num, den = start.upper() if start.q else (2 * start.p + 1, 2 * start.r)
    g = math.gcd(num, den)
    return (num // g, den // g) if num < den else None


def _apart_before(horizon, i: int, j: int) -> bool:
    """Whether edges i and j have no common point at any time t in [0, H],
    from their boxes, end boxes and band quads over [0, H]
    (`_horizon_bands`): edge i at t lies in the section at z = t / H of the
    tetrahedron on its band quad over [0, H], and `_sections_apart` decides
    whether two such tetrahedra are disjoint.  Disjoint boxes, or end boxes
    that `_ends_apart` sets apart, settle it first with the same verdict."""
    boxes, ends, bands = horizon
    (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[i], boxes[j]
    if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0 or _ends_apart(ends[i], ends[j]):
        return True
    return _sections_apart(_xy_differences(bands[i], bands[j]))


# ---------------------------------------------------------------------------
# convex chord rule, rotations, similarity
# ---------------------------------------------------------------------------


def convex_chord_rule(inst: SliceInstance) -> ChordAssignment:
    """Chord assignment for convex, planarity-preserving instances: band i
    takes the left chord iff cross(u, v) >= 0 for its source edge vector u
    and target edge vector v, that is, iff the edge turns by less than pi,
    and the right chord otherwise.  The convexity tests, the turn signs and
    the self-check surface all use validation's integer frame, and the
    signs come from `geometry._turn_rule`, the start that every conflict
    table holds and that `solve_no_steiner` certifies after ring 1, so on
    the theorem's instances the solve returns this assignment.

    cross(u, v) = 0 means that u and v point the same way here: were
    v = -lambda u with lambda > 0, the edge would shrink to a point at
    t = 1 / (1 + lambda), a vertex collision that the planarity decision
    reports as an angle collapse, so no band of a planarity-preserving
    morph turns by exactly pi.  The result's surface is built and verified
    by `solver._verified`, as `solve_no_steiner` does, before it is
    returned; a verification failure here is a bug and raises loudly."""
    k, cs, fit = inst.validate()
    scaled = _integer_instance(inst, cs)
    if not polygon_is_convex(scaled.source.vertices) or not polygon_is_convex(scaled.target.vertices):
        raise PreconditionError("convex_chord_rule requires convex polygons")
    verdict = _decide(k, cs, fit)
    if not verdict.preserved:
        raise PreconditionError(
            f"convex_chord_rule requires a planarity-preserving morph; violated at {verdict.interval}"
        )
    outcome = _verified(scaled, _turn_rule(cs), "turn rule")
    if not outcome.report.passed:
        raise InternalConsistencyError(
            "convex chord rule produced a surface the verifier rejects:\n" + outcome.report.summary()
        )
    return outcome.assignment


def _rotated(pts, center: Point2, c, s) -> tuple[Point2, ...]:
    """The points turned about `center` by the rotation (c, s) = (cos, sin);
    int coordinates with an int pair, such as a quarter turn (0, 1), stay
    ints."""
    out = []
    for p in pts:
        dx, dy = p.x - center.x, p.y - center.y
        out.append(Point2(center.x + c * dx - s * dy, center.y + s * dx + c * dy))
    return tuple(out)


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving similarity x -> W x + v, with W the rotation
    and scale encoded as the complex number (wx + i wy)."""

    wx: Fraction
    wy: Fraction
    tx: Fraction
    ty: Fraction

    @property
    def scale_squared(self) -> Fraction:
        return self.wx * self.wx + self.wy * self.wy

    @property
    def is_identity_rotation(self) -> bool:
        return self.wy == 0 and self.wx > 0


def similarity_witness(a: LabeledPolygon, b: LabeledPolygon):
    """The unique label-preserving, reflection-free similarity mapping polygon
    a onto polygon b exactly, or None when no such map exists.

    The map is read off the affine fit b = A p + v over a's points p with
    det A > 0 (`model._affine_fit`, O(n) int arithmetic): it is a
    similarity exactly when A = M / d has M = [[a, -c], [c, a]].  The fit
    needs three non-collinear vertices of a, vertices 0 and 1 apart and one
    off their line, which every simple polygon has; for a source without
    them the result is None.

    Raises AllPointsEqualError when either polygon has collapsed to a single
    point (there, shape comparison is meaningless)."""
    if a.n != b.n:
        raise InputError("similarity_witness requires equal vertex counts")
    av, bv = a.vertices, b.vertices
    if all(p == av[0] for p in av):
        raise AllPointsEqualError("source polygon has all points equal")
    if all(p == bv[0] for p in bv):
        raise AllPointsEqualError("target polygon has all points equal")
    fit = _frame(SliceInstance(a, b))[2]
    if fit is None:
        return None
    (ma, mb, mc, md), d = fit
    if md != ma or mb != -mc:
        return None
    wx, wy = Fraction(ma, d), Fraction(mc, d)
    (px, py), (qx, qy) = av[0], bv[0]
    return Similarity(wx, wy, qx - (wx * px - wy * py), qy - (wy * px + wx * py))
