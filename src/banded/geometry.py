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
import itertools
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


def orient3d(a, b, c, d) -> int:
    """Sign of det(b-a, c-a, d-a); 0 iff the four points are coplanar.

    The points are `Point3`s or (x, y, z) tuples; on tuples no intermediate
    object is built."""
    ax, ay, az = a
    bx, by, bz = b
    cx, cy, cz = c
    dx, dy, dz = d
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    wx, wy, wz = dx - ax, dy - ay, dz - az
    det = ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx)
    return (det > 0) - (det < 0)


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
    # assumes p collinear with a,b; where a and b share their x, p must share
    # it too, so that a zero-length segment touches only its own point
    if a.x != b.x:
        return a.x <= p.x <= b.x or b.x <= p.x <= a.x
    return p.x == a.x and (a.y <= p.y <= b.y or b.y <= p.y <= a.y)


def point_on_segment_2d(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    return orient2d(a, b, p) == 0 and _between_collinear(p, a, b)


def segments_intersect_2d(p1, p2, p3, p4, mode: str = "any") -> bool:
    """Exact closed-segment intersection test.

    mode="any":     any common point counts.
    mode="proper":  a common point that is not a shared endpoint of the two
                    segments is required (touching endpoint-to-endpoint does
                    not count, but endpoint-into-interior contact does).

    A zero-length segment is a point, which touches the other segment only
    where it lies on it.
    """
    if mode not in ("any", "proper"):
        raise ValueError(f"unknown mode {mode!r}")
    o1 = orient2d(p1, p2, p3)
    o2 = orient2d(p1, p2, p4)
    o3 = orient2d(p3, p4, p1)
    o4 = orient2d(p3, p4, p2)

    if o1 == 0 and o2 == 0 and p1 != p2 and p3 != p4:
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


def _plane(a, b, c):
    """The plane through the (x, y, z) tuples a, b, c as (nx, ny, nz,
    offset), with the normal (b - a) x (c - a) and the offset normal . a,
    as `Triangle3` has them; the normal is zero iff the points are
    collinear."""
    ax, ay, az = a
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return nx, ny, nz, nx * ax + ny * ay + nz * az


def _plane_sides(plane, points) -> tuple:
    """The side of `plane` (as `_plane` gives it) that each point lies on:
    +1 where the normal points, -1 opposite, 0 on the plane."""
    nx, ny, nz, off = plane
    dots = [nx * x + ny * y + nz * z - off for x, y, z in points]
    return tuple([(d > 0) - (d < 0) for d in dots])


def _lone_vertex(signs):
    """The cyclic rotation (i, j, k) of a triangle's vertex indices, and a
    flag, that put first a vertex alone on its side of another triangle's
    plane: strictly on one side
    with the other two on the closed other side, or on the plane with the
    other two strictly on one side.  `signs` are the vertices' sides of
    that plane, neither all zero nor all one strict sign.  The flag is True
    when the other two lie on the positive side, so that the other triangle
    must be flipped (two vertices swapped) to put the lone vertex on the
    positive side."""
    if signs.count(1) == 1:
        k, flip = signs.index(1), False
    elif signs.count(-1) == 1:
        k, flip = signs.index(-1), True
    else:  # one vertex on the plane, the other two on one strict side
        k, flip = signs.index(0), signs.count(1) == 2
    return k, (k + 1) % 3, (k + 2) % 3, flip


_ON_PLANE = (0, 0, 0)

# `_lone_vertex` of every side triple but _ON_PLANE, and None for the two
# triples that put a triangle strictly on one side of the other's plane
_LONE_VERTEX = {
    s: None if s[0] == s[1] == s[2] else _lone_vertex(s)
    for s in itertools.product((-1, 0, 1), repeat=3)
    if s != _ON_PLANE
}


def _triangles_meet(v1, s1, v2, s2):
    """The verdict of `open_triangles_intersect_3d` on two proper triangles,
    or None when they are coplanar, which the caller decides.

    v1 and v2 are the vertex triples, (x, y, z) tuples or `Point3`s; s1
    holds v1's vertex sides of v2's plane and s2 the converse, as tuples
    from `_plane_sides`.  A triangle strictly on one side of the other's
    plane misses it.  Otherwise the planes cross, and a vertex the two
    share (equal by value) lies on both: with none,
    `_crossing_triangles_meet` decides; with two, the planes cross in the
    shared edge's line, which each triangle meets in exactly that edge, so
    the contact is the shared edge; with one, `_shared_vertex_triangles_meet`
    decides.  No point is constructed."""
    if s2 == _ON_PLANE:
        return None
    if _LONE_VERTEX[s1] is None or _LONE_VERTEX[s2] is None:
        return False
    if 0 in s1:
        shared = [i for i in range(3) if s1[i] == 0 and v1[i] in v2]
        if len(shared) == 2:
            return False
        if shared:
            return _shared_vertex_triangles_meet(v1, s1, v2, s2, shared[0])
    return _crossing_triangles_meet(v1, s1, v2, s2)


def _crossing_triangles_meet(v1, s1, v2, s2) -> bool:
    """Whether two closed triangles in crossing planes that share no vertex
    have a common point, decided from orientation signs alone (Guigue &
    Devillers 2003); the arguments are as in `_triangles_meet`.

    Once each triangle has its lone vertex first (`_LONE_VERTEX`) and the
    pair is oriented so that both lone vertices lie on the positive sides,
    t1 = (p1, q1, r1) and t2 = (p2, q2, r2) cut the planes' common line in
    the intervals [j, i] and [k, l] (i on edge p1q1, j on p1r1, k on p2q2,
    l on p2r2, in the order of n1 x n2).  The intervals meet iff k <= i and
    j <= l, and those are the signs of the two tetrahedra below."""
    p, q, r, flip2 = _LONE_VERTEX[s1]
    i, j, k, flip1 = _LONE_VERTEX[s2]
    if flip1:
        q, r = r, q
    if flip2:
        j, k = k, j
    p1, p2 = v1[p], v2[i]
    return orient3d(p1, v1[q], p2, v2[j]) <= 0 and orient3d(p1, p2, v1[r], v2[k]) <= 0


def _shared_vertex_triangles_meet(v1, s1, v2, s2, i: int) -> bool:
    """Whether two closed triangles in crossing planes that share exactly
    one vertex, v = v1[i], have a common point other than v, decided from
    orientation signs alone; the other arguments are as in
    `_triangles_meet`.

    Rotated cyclically (so normals and sides keep their signs) to
    t1 = (v, a, b) and t2 = (v, c, d), each triangle cuts the planes'
    common line in a segment that starts at v and ends on its far edge, so
    they meet beyond v iff [a, b] meets t2 or [c, d] meets t1.  A far edge
    strictly on one side of the other plane leaves its triangle touching
    that plane only in v.  Otherwise [a, b] meets t2's plane in one point,
    which lies in the closed t2 iff orient3d(a, b, v, c) = sc,
    orient3d(a, b, c, d) and orient3d(a, b, d, v) = -sd have no two
    strictly opposite signs; sc and -sd already agree, so the test is on
    the sign of orient3d(a, b, c, d) alone, and the converse test for
    [c, d] uses the same sign."""
    j = v2.index(v1[i])
    a, b = v1[(i + 1) % 3], v1[(i + 2) % 3]
    c, d = v2[(j + 1) % 3], v2[(j + 2) % 3]
    sa, sb = s1[(i + 1) % 3], s1[(i + 2) % 3]
    sc, sd = s2[(j + 1) % 3], s2[(j + 2) % 3]
    if sa == sb or sc == sd:
        return False  # a far edge strictly on one side of the other plane
    o = orient3d(a, b, c, d)
    # [a, b] meets t2, or [c, d] meets t1: `x or -y` is the common sign
    return o == 0 or o == (sc or -sd) or o == (sa or -sb)


def open_triangles_intersect_3d(t1: Triangle3, t2: Triangle3) -> bool:
    """Exact conflict test between two closed triangles.

    Contact confined to structure the triangles genuinely share (an identical
    vertex, or an identical full edge) is legal and returns False.  Any other
    common point, however slight, returns True: interiors crossing, an edge
    grazing a face, boundaries touching at a non-shared point, or coplanar
    overlap beyond a shared edge.  This is exactly the condition under which
    two faces cannot coexist on an embedded surface.

    After a bounding-box test, the plane-side signs of each triangle's
    vertices go through `_triangles_meet`, which decides every pair in
    crossing planes from orientation signs.  Coplanar triangles are
    clipped against each other in 2D.
    """
    if t1.is_degenerate() or t2.is_degenerate():
        raise DegenerateTriangleError("open_triangles_intersect_3d needs proper triangles")

    (lo1, hi1), (lo2, hi2) = t1.bounds(), t2.bounds()
    if any(hi1[k] < lo2[k] or hi2[k] < lo1[k] for k in range(3)):
        return False

    v1, v2 = t1.vertices, t2.vertices
    s2 = _plane_sides((*t1.normal, t1.offset), v2)
    s1 = _plane_sides((*t2.normal, t2.offset), v1)
    hit = _triangles_meet(v1, s1, v2, s2)
    if hit is not None:
        return hit

    # coplanar: intersect in 2D
    shared_vertices, shared_edges = _shared_structure(t1, t2)
    axis = _proj_axis(t1.normal)
    sub = [_project(p, axis) for p in v2]
    clip = [_project(p, axis) for p in v1]
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
