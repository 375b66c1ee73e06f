"""Exact 2D/3D geometric predicates over rational coordinates.

Every routine in this module is decision-exact: coordinates are Python ints or
`fractions.Fraction` values (mixing is fine) and no floating point is ever
consulted.  Most predicates are division-free, so they also accept any scalar
type implementing ring operations and comparisons against 0 (this is used by
the morph analysis, which evaluates them over quadratic field extensions).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DegenerateTriangleError, ZeroVectorError

Rational = int | Fraction


@dataclass(frozen=True, slots=True)
class Point2:
    x: Rational
    y: Rational

    def __iter__(self):
        return iter((self.x, self.y))

    def translated(self, dx, dy):
        return Point2(self.x + dx, self.y + dy)


@dataclass(frozen=True, slots=True)
class Point3:
    x: Rational
    y: Rational
    z: Rational

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    @property
    def xy(self) -> Point2:
        return Point2(self.x, self.y)


@dataclass(frozen=True)
class Triangle3:
    """Closed triangle in 3D; `vertices` must be pairwise distinct points."""

    a: Point3
    b: Point3
    c: Point3

    @property
    def vertices(self):
        return (self.a, self.b, self.c)

    @functools.cached_property
    def normal(self):
        return _cross3(_sub3(self.b, self.a), _sub3(self.c, self.a))

    @functools.cached_property
    def offset(self):
        """normal . a, so that the plane is {p : normal . p == offset}."""
        return _dot3(self.normal, (self.a.x, self.a.y, self.a.z))

    def is_degenerate(self) -> bool:
        return self.normal == (0, 0, 0)

    @functools.cached_property
    def _bounds(self):
        xs = (self.a.x, self.b.x, self.c.x)
        ys = (self.a.y, self.b.y, self.c.y)
        zs = (self.a.z, self.b.z, self.c.z)
        return (min(xs), min(ys), min(zs)), (max(xs), max(ys), max(zs))

    def bounds(self):
        return self._bounds


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient2d(a, b, c) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 collinear."""
    return _sign((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


def _orient2d_raw(ax, ay, bx, by, cx, cy) -> int:
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _sub3(p: Point3, q: Point3):
    return (p.x - q.x, p.y - q.y, p.z - q.z)


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def orient3d(a: Point3, b: Point3, c: Point3, d: Point3) -> int:
    """Sign of det(b-a, c-a, d-a); 0 iff the four points are coplanar."""
    return _sign(_dot3(_cross3(_sub3(b, a), _sub3(c, a)), _sub3(d, a)))


class AngleClass(enum.Enum):
    LESS_PI = "less_pi"
    EQUAL_PI = "equal_pi"
    GREATER_PI = "greater_pi"


@dataclass(frozen=True, slots=True)
class AngleWitness:
    """Exact stand-in for the CCW angle from u to v, totally ordered in [0, 2*pi).

    `half` is 0 on [0, pi), 1 at exactly pi, 2 on (pi, 2*pi); within a half the
    order is decided by the exact cross/dot pair without evaluating the angle.
    """

    half: int
    cross: Rational
    dot: Rational

    def _cmp(self, other: "AngleWitness") -> int:
        if self.half != other.half:
            return -1 if self.half < other.half else 1
        if self.half == 1:
            return 0
        lhs = self.dot * other.cross
        rhs = other.dot * self.cross
        if lhs == rhs:
            return 0
        # larger dot/cross ratio means smaller CCW angle within one half
        return -1 if lhs > rhs else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


def ccw_angle(u: Point2, v: Point2) -> tuple[AngleClass, AngleWitness]:
    """Classify the CCW angle from vector u to vector v against pi.

    Returns the trichotomy (below / exactly / above pi) together with an exact
    comparable witness.  Zero angle classifies as LESS_PI.
    """
    if (u.x == 0 and u.y == 0) or (v.x == 0 and v.y == 0):
        raise ZeroVectorError("ccw_angle requires nonzero vectors")
    cross = u.x * v.y - u.y * v.x
    dot = u.x * v.x + u.y * v.y
    if cross > 0:
        cls = AngleClass.LESS_PI
        half = 0
    elif cross < 0:
        cls = AngleClass.GREATER_PI
        half = 2
    elif dot > 0:
        cls = AngleClass.LESS_PI
        half = 0
    else:
        cls = AngleClass.EQUAL_PI
        half = 1
    return cls, AngleWitness(half, cross, dot)


def _between_collinear(p, a, b) -> bool:
    # assumes p collinear with a,b
    if a.x != b.x:
        lo, hi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
        return lo <= p.x <= hi
    lo, hi = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    return lo <= p.y <= hi


def point_on_segment_2d(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    return orient2d(a, b, p) == 0 and _between_collinear(p, a, b)


def segments_intersect_2d(p1, p2, p3, p4, mode: str = "any") -> bool:
    """Exact closed-segment intersection test.

    mode="any":     any common point counts.
    mode="proper":  a common point that is not a shared endpoint of the two
                    segments is required (touching endpoint-to-endpoint does
                    not count, but endpoint-into-interior contact does).
    """
    if mode not in ("any", "proper"):
        raise ValueError(f"unknown mode {mode!r}")
    o1 = orient2d(p1, p2, p3)
    o2 = orient2d(p1, p2, p4)
    o3 = orient2d(p3, p4, p1)
    o4 = orient2d(p3, p4, p2)

    if o1 == 0 and o2 == 0:
        # collinear: compare parameter intervals along p1->p2
        dx, dy = p2.x - p1.x, p2.y - p1.y
        t2 = dx * dx + dy * dy
        t3 = (p3.x - p1.x) * dx + (p3.y - p1.y) * dy
        t4 = (p4.x - p1.x) * dx + (p4.y - p1.y) * dy
        lo = max(0, min(t3, t4))
        hi = min(t2, max(t3, t4))
        if lo > hi:
            return False
        if lo < hi:
            return True
        return mode == "any"  # single-point overlap is an endpoint of both

    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True  # strict interior crossing

    contacts = []
    if o1 == 0 and _between_collinear(p3, p1, p2):
        contacts.append(p3)
    if o2 == 0 and _between_collinear(p4, p1, p2):
        contacts.append(p4)
    if o3 == 0 and _between_collinear(p1, p3, p4):
        contacts.append(p1)
    if o4 == 0 and _between_collinear(p2, p3, p4):
        contacts.append(p2)
    if mode == "any":
        return bool(contacts)
    shared = [q for q in (p1, p2) if q == p3 or q == p4]
    return any(p not in shared for p in contacts)


# ---------------------------------------------------------------------------
# polygon predicates
# ---------------------------------------------------------------------------


def denominator_lcm(values: Iterable[Rational]) -> int:
    """The least positive k with k * v an integer for every int or Fraction v.

    Multiplying coordinates by one positive factor is a similarity, so exact
    predicates give the same verdicts on the integer copy, and far faster.
    """
    return math.lcm(*{v.denominator for v in values})


def polygon_signed_area2(pts: Sequence[Point2]):
    """Twice the signed area (positive for counterclockwise order)."""
    total = 0
    n = len(pts)
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        total += p.x * q.y - p.y * q.x
    return total


def polygon_is_simple(pts: Sequence[Point2]) -> bool:
    """True iff the closed polygonal chain is simple.

    Vertices must be distinct, non-adjacent edges disjoint, and adjacent
    edges may share only their common vertex.  Collinear (flat) vertices are
    allowed.  Exact: the polygon is first scaled onto integers by one
    positive factor (a similarity, so the verdict is unchanged), then a sweep
    over the edges sorted by min-x runs the exact segment test only on pairs
    whose bounding boxes meet.
    """
    n = len(pts)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    k = denominator_lcm(c for p in pts for c in (p.x, p.y))
    q = [Point2(int(p.x * k), int(p.y * k)) for p in pts]
    if len(set(q)) != n:
        return False
    edges = []
    for i in range(n):
        a, b = q[i], q[(i + 1) % n]
        if segments_intersect_2d(a, b, b, q[(i + 2) % n], mode="proper"):
            return False  # edge i+1 folds back onto edge i
        x0, x1 = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        y0, y1 = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        edges.append((x0, x1, y0, y1, i, a, b))
    edges.sort(key=lambda e: e[0])
    active = []
    for x0, x1, y0, y1, i, a, b in edges:
        active = [e for e in active if e[1] >= x0]
        for _, _, v0, v1, j, c, d in active:
            if (
                v0 <= y1
                and y0 <= v1
                and (i - j) % n not in (1, n - 1)
                and segments_intersect_2d(a, b, c, d, mode="any")
            ):
                return False
        active.append((x0, x1, y0, y1, i, a, b))
    return True


def polygon_is_ccw(pts: Sequence[Point2]) -> bool:
    """Orientation test by signed area; meaningful for simple polygons."""
    return polygon_signed_area2(pts) > 0


def polygon_is_convex(pts: Sequence[Point2]) -> bool:
    """True iff all turns agree in sign (either orientation), with at least
    three strict turns.  Flat vertices are tolerated."""
    n = len(pts)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    pos = neg = 0
    for i in range(n):
        o = orient2d(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
        if o > 0:
            pos += 1
        elif o < 0:
            neg += 1
        if pos and neg:
            return False
    return max(pos, neg) >= 3


# ---------------------------------------------------------------------------
# triangle-triangle contact in 3D
# ---------------------------------------------------------------------------


def _proj_axis(normal) -> int:
    ax, ay, az = abs(normal[0]), abs(normal[1]), abs(normal[2])
    if ax >= ay and ax >= az:
        return 0
    return 1 if ay >= az else 2


def _project(p: Point3, axis: int) -> Point2:
    if axis == 0:
        return Point2(p.y, p.z)
    if axis == 1:
        return Point2(p.z, p.x)
    return Point2(p.x, p.y)


def _shared_structure(t1: Triangle3, t2: Triangle3):
    v1, v2 = t1.vertices, t2.vertices
    shared_vertices = [p for p in v1 if p in v2]
    edges1 = [(v1[i], v1[(i + 1) % 3]) for i in range(3)]
    edges2 = [frozenset(((v2[i].x, v2[i].y, v2[i].z), (v2[(i + 1) % 3].x, v2[(i + 1) % 3].y, v2[(i + 1) % 3].z))) for i in range(3)]
    shared_edges = []
    for a, b in edges1:
        key = frozenset(((a.x, a.y, a.z), (b.x, b.y, b.z)))
        if key in edges2:
            shared_edges.append((a, b))
    return shared_vertices, shared_edges


def _point_on_segment_3d(p: Point3, a: Point3, b: Point3) -> bool:
    if _cross3(_sub3(p, a), _sub3(b, a)) != (0, 0, 0):
        return False
    d = _sub3(b, a)
    t = _dot3(_sub3(p, a), d)
    return 0 <= t <= _dot3(d, d)


def _contact_allowed(points, shared_vertices, shared_edges) -> bool:
    """points: 1 or 2 distinct 3D points spanning the contact set (a point or
    a segment).  Contact is legal iff it lies inside the shared structure."""
    if len(points) == 1:
        p = points[0]
        if any(p == v for v in shared_vertices):
            return True
        return any(_point_on_segment_3d(p, a, b) for a, b in shared_edges)
    return any(
        _point_on_segment_3d(points[0], a, b) and _point_on_segment_3d(points[1], a, b)
        for a, b in shared_edges
    )


def _line_triangle_interval(origin_h, direction, tri: Triangle3, axis: int):
    """Parameter interval {s : origin + s*direction in tri} for a line lying
    in the triangle's plane.  `origin_h` is homogeneous (ox, oy, oz, w) with
    w > 0.  Bounds are returned as exact (num, den) pairs with den > 0, or
    None if the intersection is empty.  All arithmetic stays in the input
    ring (no normalization), which matters in hot paths."""
    w = origin_h[3]
    o2 = _project_tuple(origin_h, axis)
    d2 = _project_tuple(direction, axis)
    verts = [_project(p, axis) for p in tri.vertices]
    lo = hi = None  # rational pairs (num, den), den > 0
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        g = orient2d(a, b, verts[(i + 2) % 3])
        ex, ey = b.x - a.x, b.y - a.y
        alpha = ex * (o2[1] - a.y * w) - ey * (o2[0] - a.x * w)
        beta = (ex * d2[1] - ey * d2[0]) * w
        if g < 0:
            alpha, beta = -alpha, -beta
        # constraint: alpha + beta * s >= 0
        if beta == 0:
            if alpha < 0:
                return None
            continue
        num, den = (-alpha, beta) if beta > 0 else (alpha, -beta)
        if beta > 0:
            if lo is None or num * lo[1] > lo[0] * den:
                lo = (num, den)
        else:
            if hi is None or num * hi[1] < hi[0] * den:
                hi = (num, den)
    if lo is None or hi is None or lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def _project_tuple(v, axis: int):
    if axis == 0:
        return (v[1], v[2])
    if axis == 1:
        return (v[2], v[0])
    return (v[0], v[1])


def _clip_triangle_2d(subject, clip):
    """Intersection of two triangles in 2D (lists of Point2) via half-plane
    clipping; returns the convex intersection's points, possibly duplicated."""
    if orient2d(*clip) < 0:
        clip = [clip[0], clip[2], clip[1]]
    out = list(subject)
    for i in range(3):
        a, b = clip[i], clip[(i + 1) % 3]
        inp, out = out, []
        if not inp:
            return []
        for j, cur in enumerate(inp):
            prev = inp[j - 1]
            oc = orient2d(a, b, cur)
            op = orient2d(a, b, prev)
            if op * oc < 0:
                t = Fraction(op, op - oc)
                out.append(
                    Point2(prev.x + t * (cur.x - prev.x), prev.y + t * (cur.y - prev.y))
                )
            if oc >= 0:
                out.append(cur)
    return out


def _plane_sides(t: Triangle3, points) -> list[int]:
    """The side of t's plane that each point lies on: +1 where t's normal
    points, -1 opposite, 0 on the plane."""
    (nx, ny, nz), off = t.normal, t.offset
    return [_sign(nx * p.x + ny * p.y + nz * p.z - off) for p in points]


def _lone_vertex_first(verts, signs):
    """Rotate a triangle cyclically so that its first vertex is alone on its
    side of another triangle's plane: strictly on one side with the other
    two on the closed other side, or on the plane with the other two
    strictly on one side.  `signs` are the vertices' sides of that plane,
    neither all zero nor all one strict sign.  The flag is True when the
    other two lie on the positive side, so that the other triangle must be
    flipped (two vertices swapped) to put the lone vertex on the positive
    side."""
    if signs.count(1) == 1:
        k, flip = signs.index(1), False
    elif signs.count(-1) == 1:
        k, flip = signs.index(-1), True
    else:  # one vertex on the plane, the other two on one strict side
        k, flip = signs.index(0), signs.count(1) == 2
    return (verts[k], verts[(k + 1) % 3], verts[(k + 2) % 3]), flip


def _crossing_triangles_meet(t1: Triangle3, s1, t2: Triangle3, s2) -> bool:
    """Whether two closed triangles in crossing planes have a common point,
    decided from orientation signs alone (Guigue & Devillers 2003).

    s1 holds t1's vertex sides of t2's plane and s2 the converse.  Once each
    triangle has its lone vertex first and the pair is oriented so that both
    lone vertices lie on the positive sides, t1 and t2 cut the planes'
    common line in the intervals [j, i] and [k, l] (i on edge p1q1, j on
    p1r1, k on p2q2, l on p2r2, in the order of n1 x n2).  The intervals
    meet iff k <= i and j <= l, and those are the signs of the two
    tetrahedra below."""
    (p1, q1, r1), flip2 = _lone_vertex_first(t1.vertices, s1)
    (p2, q2, r2), flip1 = _lone_vertex_first(t2.vertices, s2)
    if flip1:
        q1, r1 = r1, q1
    if flip2:
        q2, r2 = r2, q2
    return orient3d(p1, q1, p2, q2) <= 0 and orient3d(p1, p2, r1, r2) <= 0


def open_triangles_intersect_3d(t1: Triangle3, t2: Triangle3) -> bool:
    """Exact conflict test between two closed triangles.

    Contact confined to structure the triangles genuinely share (an identical
    vertex, or an identical full edge) is legal and returns False.  Any other
    common point, however slight, returns True: interiors crossing, an edge
    grazing a face, boundaries touching at a non-shared point, or coplanar
    overlap beyond a shared edge.  This is exactly the condition under which
    two faces cannot coexist on an embedded surface.

    After a bounding-box test and the plane-side signs of each triangle's
    vertices, triangles in crossing planes that share no vertex are decided
    by two more orientation signs, with no point constructed, and those
    that share an edge meet in just that edge.  Triangles that share one
    vertex have their contact set constructed exactly on the planes' common
    line and checked against the shared structure; coplanar triangles are
    clipped against each other in 2D.
    """
    if t1.is_degenerate() or t2.is_degenerate():
        raise DegenerateTriangleError("open_triangles_intersect_3d needs proper triangles")

    (lo1, hi1), (lo2, hi2) = t1.bounds(), t2.bounds()
    if any(hi1[k] < lo2[k] or hi2[k] < lo1[k] for k in range(3)):
        return False

    s2 = _plane_sides(t1, t2.vertices)
    if s2[0] == s2[1] == s2[2] != 0:
        return False
    s1 = _plane_sides(t2, t1.vertices)
    if s1[0] == s1[1] == s1[2] != 0:
        return False

    n1, n2 = t1.normal, t2.normal
    if s2 == [0, 0, 0]:
        # coplanar: intersect in 2D
        shared_vertices, shared_edges = _shared_structure(t1, t2)
        axis = _proj_axis(n1)
        sub = [_project(p, axis) for p in t2.vertices]
        clip = [_project(p, axis) for p in t1.vertices]
        region = _clip_triangle_2d(sub, clip)
        distinct = []
        for p in region:
            if p not in distinct:
                distinct.append(p)
        if not distinct:
            return False
        if len(distinct) == 1:
            pts2 = distinct
        else:
            base = distinct[0]
            rest = [p for p in distinct[1:] if p != base]
            if any(orient2d(base, rest[0], p) != 0 for p in rest[1:]):
                return True  # positive-area overlap can never be legal
            # collinear: take extremes along the segment direction
            dx, dy = rest[0].x - base.x, rest[0].y - base.y
            keyed = sorted(distinct, key=lambda p: (p.x - base.x) * dx + (p.y - base.y) * dy)
            pts2 = [keyed[0], keyed[-1]]
        sv2 = [_project(p, axis) for p in shared_vertices]
        se2 = [(_project(a, axis), _project(b, axis)) for a, b in shared_edges]
        return not _contact_allowed_2d(pts2, sv2, se2)

    # a shared vertex lies on both planes
    shared = sum(1 for p, s in zip(t1.vertices, s1) if s == 0 and p in t2.vertices)
    if not shared:
        return _crossing_triangles_meet(t1, s1, t2, s2)
    if shared == 2:
        # the planes cross in the shared edge's line, which each triangle
        # meets in exactly that edge: the contact is the shared edge
        return False

    # proper plane crossing with a shared vertex: construct the contact on
    # the planes' common line, then check it against the shared structure
    direction = _cross3(n1, n2)
    origin_h = _line_on_both_planes(t1.a, n1, t2.a, n2, direction)
    i1 = _line_triangle_interval(origin_h, direction, t1, _proj_axis(n1))
    if i1 is None:
        return False
    i2 = _line_triangle_interval(origin_h, direction, t2, _proj_axis(n2))
    if i2 is None:
        return False
    lo = i1[0] if i1[0][0] * i2[0][1] >= i2[0][0] * i1[0][1] else i2[0]
    hi = i1[1] if i1[1][0] * i2[1][1] <= i2[1][0] * i1[1][1] else i2[1]
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return False
    pts = [_line_point(origin_h, direction, lo)]
    if lo[0] * hi[1] != hi[0] * lo[1]:
        pts.append(_line_point(origin_h, direction, hi))
    return not _contact_allowed(pts, *_shared_structure(t1, t2))


def _contact_allowed_2d(points, shared_vertices, shared_edges) -> bool:
    if len(points) == 1:
        p = points[0]
        if any(p == v for v in shared_vertices):
            return True
        return any(point_on_segment_2d(p, a, b) for a, b in shared_edges)
    return any(
        point_on_segment_2d(points[0], a, b) and point_on_segment_2d(points[1], a, b)
        for a, b in shared_edges
    )


def _line_point(origin_h, direction, s_pair) -> Point3:
    """Exact point origin + s*direction with homogeneous origin and rational
    parameter pair s = (num, den)."""
    ox, oy, oz, w = origin_h
    sn, sd = s_pair
    den = w * sd
    return Point3(
        Fraction(ox * sd + direction[0] * w * sn, den),
        Fraction(oy * sd + direction[1] * w * sn, den),
        Fraction(oz * sd + direction[2] * w * sn, den),
    )


def _line_on_both_planes(p1: Point3, n1, p2: Point3, n2, direction):
    """A homogeneous point (x, y, z, w), w > 0, on both planes' intersection."""
    c1 = _dot3(n1, (p1.x, p1.y, p1.z))
    c2 = _dot3(n2, (p2.x, p2.y, p2.z))
    k = _proj_axis(direction)
    # set coordinate k to 0 and solve the remaining 2x2 system
    i, j = (1, 2) if k == 0 else (2, 0) if k == 1 else (0, 1)
    det = n1[i] * n2[j] - n1[j] * n2[i]
    coords = [0, 0, 0]
    coords[i] = c1 * n2[j] - c2 * n1[j]
    coords[j] = n1[i] * c2 - n2[i] * c1
    if det < 0:
        det = -det
        coords = [-c for c in coords]
    return (coords[0], coords[1], coords[2], det)


def segment_triangle_contact_3d(p: Point3, q: Point3, tri: Triangle3) -> bool:
    """True iff closed segment [p, q] meets the closed triangle anywhere."""
    if tri.is_degenerate():
        raise DegenerateTriangleError("segment_triangle_contact_3d needs a proper triangle")
    n = tri.normal
    sp = _sign(_dot3(n, _sub3(p, tri.a)))
    sq = _sign(_dot3(n, _sub3(q, tri.a)))
    if sp == sq and sp != 0:
        return False
    axis = _proj_axis(n)
    verts = [_project(v, axis) for v in tri.vertices]

    def inside(pt2) -> bool:
        signs = [orient2d(verts[i], verts[(i + 1) % 3], pt2) for i in range(3)]
        ref = orient2d(*verts)
        return all(s * ref >= 0 for s in signs)

    if sp == 0 and sq == 0:
        # segment in the triangle's plane
        a2, b2 = _project(p, axis), _project(q, axis)
        if inside(a2) or inside(b2):
            return True
        return any(
            segments_intersect_2d(a2, b2, verts[i], verts[(i + 1) % 3], mode="any")
            for i in range(3)
        )
    if sp == 0:
        return inside(_project(p, axis))
    if sq == 0:
        return inside(_project(q, axis))
    # strict crossing: intersection point at parameter sp/(sp - sq) in exact form
    d = _sub3(q, p)
    denom = _dot3(n, d)
    t = Fraction(_dot3(n, _sub3(tri.a, p)), denom)
    x = Point3(p.x + t * d[0], p.y + t * d[1], p.z + t * d[2])
    return inside(_project(x, axis))
