"""Exact 2D/3D geometric predicates over rational coordinates.

Every routine in this module is decision-exact: coordinates are Python ints or
`fractions.Fraction` values (mixing is fine) and no floating point is ever
consulted.  Most predicates are division-free, and the simplicity and
orientation tests of a polygon scale it onto integers first.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DegenerateTriangleError, InputError, PreconditionError

Rational = int | Fraction


class Point2(NamedTuple):
    x: Rational
    y: Rational

    def translated(self, dx, dy):
        return Point2(self.x + dx, self.y + dy)


class Point3(NamedTuple):
    x: Rational
    y: Rational
    z: Rational

    @property
    def xy(self) -> Point2:
        return Point2(self.x, self.y)


def orient2d(a, b, c) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 collinear; the points
    are any (x, y) pairs, `Point2`s among them."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def orient3d(a, b, c, d) -> int:
    """Sign of det(b-a, c-a, d-a); 0 iff the four points are coplanar.

    The points are any (x, y, z) triples, `Point3`s among them."""
    ax, ay, az = a
    bx, by, bz = b
    cx, cy, cz = c
    dx, dy, dz = d
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    wx, wy, wz = dx - ax, dy - ay, dz - az
    det = ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx)
    return (det > 0) - (det < 0)


def _between_collinear(p, a, b) -> bool:
    # assumes p collinear with a,b; where a and b share their x, p must share
    # it too, so that a zero-length segment touches only its own point
    if a.x != b.x:
        return a.x <= p.x <= b.x or b.x <= p.x <= a.x
    return p.x == a.x and (a.y <= p.y <= b.y or b.y <= p.y <= a.y)


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
        raise PreconditionError(f"unknown mode {mode!r}")
    o1 = orient2d(p1, p2, p3)
    o2 = orient2d(p1, p2, p4)
    if o1 == o2 != 0:
        return False  # p3 and p4 strictly on one side of p1p2
    o3 = orient2d(p3, p4, p1)
    o4 = orient2d(p3, p4, p2)
    if o3 == o4 != 0:
        return False  # p1 and p2 strictly on one side of p3p4

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

    if o1 and o2 and o3 and o4:
        return True  # strict interior crossing: the signs differ on both lines

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


def _integer_axis(values: list) -> tuple[int, list[int]]:
    """The least positive k with k * v an integer for every int or Fraction
    v in `values`, and those integers k * v, in order, as ints even when k
    is 1, built without `Fraction` arithmetic.  Every function that scales
    coordinates does it here, so this holds the number policy: a value
    with no `denominator`, such as a float, raises `InputError`.

    Multiplying coordinates by one positive factor is a similarity, so exact
    predicates give the same verdicts on the integer copy, and far faster.
    """
    try:
        k = math.lcm(*{v.denominator for v in values})
    except AttributeError as exc:
        raise InputError("coordinates must be ints or Fractions") from exc
    return k, [v.numerator * (k // v.denominator) for v in values]


def _integer_polygon(pts: Sequence) -> Sequence:
    """The polygon, given as any (x, y) pairs, scaled onto integers by one
    positive factor: a similarity, so simplicity and orientation are
    unchanged.  A polygon already on integers is returned as it is, and
    another one as a list of (x, y) tuples."""
    if all(type(x) is int and type(y) is int for x, y in pts):
        return pts
    n = len(pts)
    _, cs = _integer_axis([x for x, _ in pts] + [y for _, y in pts])
    return list(zip(cs[:n], cs[n:]))


def _end_map(u, w, v, z) -> tuple:
    """M = Q adj(P) and d = det P, for P with the columns u and w and Q with
    the columns v and z: the linear map taking u to v and w to z is
    A = M / d when d is not 0.  M is returned row by row."""
    d = u[0] * w[1] - u[1] * w[0]
    m = (
        v[0] * w[1] - z[0] * u[1],
        z[0] * u[0] - v[0] * w[0],
        v[1] * w[1] - z[1] * u[1],
        z[1] * u[0] - v[1] * w[0],
    )
    return m, d


def _end_boxes(band):
    """The xy boxes of a band quad's bottom pair and of its top pair, as
    one tuple (x0, x1, y0, y1, x0', x1', y0', y1'), as `_ends_apart`
    takes it."""
    (ax, ay, _), (bx, by, _), (cx, cy, _), (dx, dy, _) = band
    x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
    y0, y1 = (ay, by) if ay <= by else (by, ay)
    u0, u1 = (cx, dx) if cx <= dx else (dx, cx)
    v0, v1 = (cy, dy) if cy <= dy else (dy, cy)
    return x0, x1, y0, y1, u0, u1, v0, v1


def _box(ends):
    """The closed xy box (x0, x1, y0, y1) of a body's points on two levels,
    as `_box_pairs` takes it, from the `_end_boxes` of those points: the
    union of the bottom box and the top box."""
    x0, x1, y0, y1, u0, u1, v0, v1 = ends
    return (x0 if x0 <= u0 else u0, x1 if x1 >= u1 else u1, y0 if y0 <= v0 else v0, y1 if y1 >= v1 else v1)


def _horizon_bands(cs: list[int], horizon: tuple[int, int]):
    """The boxes, the end boxes and the band quads of every edge over
    [0, H] for the horizon H = num / den, on the coordinates cs laid out
    as `model._coordinates`, with each vertex's source at z = 0 and its
    position at time H at z = 1, all scaled by den onto ints.  Band i's
    quad is (p_i, p_i+1, q_i+1, q_i), bottom pair then top, its end boxes
    are `_end_boxes` of it, and its box is `_box` of those, the union of
    the two end boxes, which is the box of the quad's four points; with
    H = 1 these are the instance's band quads, for the conflict table and
    the morph scan alike."""
    num, den = horizon
    tracks = []
    for m in range(0, len(cs), 4):
        px, py, qx, qy = cs[m : m + 4]
        x, y = den * px, den * py
        tracks.append(((x, y, 0), (x + num * (qx - px), y + num * (qy - py), 1)))
    bands = [(p0, p1, q1, q0) for (p0, q0), (p1, q1) in zip(tracks, tracks[1:] + tracks[:1])]
    ends = [_end_boxes(band) for band in bands]
    return [_box(e) for e in ends], ends, bands


def _box_pairs(boxes):
    """Yield (j, k) for every pair of closed xy boxes (x0, x1, y0, y1) in
    `boxes` that meet, touching included, as indices into `boxes`.

    The boxes are swept in order of min-x, ties by index, with an active
    list of the earlier boxes whose max-x reaches the current min-x; j is
    the earlier of the two in that order, and the pairs come grouped by k
    in sweep order.  Polygon simplicity, the morph decision and the
    verifier's face pass all prune their pairs here."""
    active = []
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x0, x1, y0, y1 = boxes[k]
        active = [box for box in active if box[0] >= x0]
        for _, v0, v1, j in active:
            if v0 <= y1 and y0 <= v1:
                yield j, k
        active.append((x1, y0, y1, k))


def _meet_only_at_ends(segments) -> bool:
    """Whether every two of the closed segments (p, q) of `Point2`s in
    `segments` meet only in endpoints they share; a segment with p == q is
    the point p, which may touch another segment only at an endpoint equal
    to p.  So two segments that cross, touch an interior point or overlap
    along a collinear stretch fail, and so does a point inside a segment.

    One sweep in the style of Shamos and Hoey (1976): the pairs whose
    closed boxes meet, as `_box_pairs` finds them, go through
    `segments_intersect_2d(..., mode="proper")`, and a pair with disjoint
    boxes has no common point."""
    boxes = []
    for (px, py), (qx, qy) in segments:
        x0, x1 = (px, qx) if px <= qx else (qx, px)
        y0, y1 = (py, qy) if py <= qy else (qy, py)
        boxes.append((x0, x1, y0, y1))
    for j, k in _box_pairs(boxes):
        if segments_intersect_2d(*segments[j], *segments[k], mode="proper"):
            return False
    return True


def polygon_signed_area2(pts: Sequence):
    """Twice the signed area (positive for counterclockwise order) of the
    polygon given as any (x, y) pairs."""
    total = 0
    px, py = pts[-1]
    for x, y in pts:
        total += px * y - py * x
        px, py = x, y
    return total


def _edges_meet(e, f) -> bool:
    """Whether two closed segments e and f, each given as (ax, ay, bx, by,
    ux, uy) with the ends a != b and u = b - a, have a common point,
    provided that their closed boxes meet: the straddle test, whose lemma
    and proof are in `polygon_is_simple`."""
    ax, ay, bx, by, ux, uy = e
    cx, cy, dx, dy, vx, vy = f
    s = ux * (cy - ay) - uy * (cx - ax)
    t = ux * (dy - ay) - uy * (dx - ax)
    if s > 0 < t or s < 0 > t:
        return False  # f strictly on one side of e's line
    s = vx * (ay - cy) - vy * (ax - cx)
    t = vx * (by - cy) - vy * (bx - cx)
    return not (s > 0 < t or s < 0 > t)


def polygon_is_simple(pts: Sequence) -> bool:
    """True iff the closed polygonal chain, given as any (x, y) pairs, is
    simple.

    Vertices must be distinct, non-adjacent edges disjoint, and adjacent
    edges may share only their common vertex.  Collinear (flat) vertices are
    allowed.  Exact: the polygon is first scaled onto integers by one
    positive factor (a similarity, so the verdict is unchanged; a polygon on
    ints is taken as it is), then one pass over consecutive vertices makes
    the fold-back test of each pair of adjacent edges and the closed box of
    each edge, and only the non-adjacent edge pairs whose boxes meet, as
    `_box_pairs` finds them, take the straddle test (`_edges_meet`).

    Adjacent edges ab and bc, with a, b, c distinct, share more than b iff
    the path folds back at b: a, b, c are collinear and (b - a) . (c - b) <
    0.  That is `segments_intersect_2d(a, b, b, c, mode="proper")` in
    closed form: off a line the two segments meet only in b, and on one,
    c - a projects onto b - a at less than |b - a|^2 iff the dot product
    is negative, which makes the overlap a segment rather than b alone.

    Lemma (straddle).  Let ab and cd be closed segments with a != b and
    c != d whose closed boxes meet.  They have a common point iff neither
    has both ends of the other strictly on one side of its line.

    Proof.  A common point lies on both lines, so neither segment lies
    strictly on one side of the other's line.  Conversely, let s and t be
    the sides of line ab that c and d lie on, and s' and t' those of line
    cd that a and b lie on (+1, -1, or 0 on the line), with neither pair
    equal and nonzero.  (1) s = t = 0: all four ends lie on one line, and
    two segments on a line meet iff their extents along it meet, which is
    iff their boxes meet.  (2) Exactly one of s, t is 0, say s: c lies on
    line ab and d does not, so the lines differ and meet only in c.  If a
    or b is c, c is common.  Otherwise a and b, on line ab but not c, are
    off line cd, so s' and t' are nonzero and differ: ab crosses line cd
    at a point of line ab, which is c.  (3) s and t nonzero: they differ.
    If s' = t' = 0, line cd is line ab, against s != 0; if exactly one is
    0, (2) applies with the segments swapped; if neither is, they differ
    too, and each segment crosses the other's line, both at the one point
    where the two distinct lines meet.  So the boxes matter only in (1),
    where the collinear case is exactly box overlap.  Non-adjacent edges of
    a polygon with distinct vertices satisfy a != b and c != d.
    """
    n = len(pts)
    if n < 3:
        raise InputError("polygon needs at least 3 vertices")
    q = _integer_polygon(pts)
    if len(set(q)) != n:
        return False
    # edge m runs from vertex m - 1 to vertex m; adjacency is cyclic, so the
    # rotated numbering changes no pair
    edges, boxes = [], []
    (ax, ay), (bx, by) = q[-2], q[-1]
    ux, uy = bx - ax, by - ay
    for cx, cy in q:
        vx, vy = cx - bx, cy - by
        if ux * vy == uy * vx and ux * vx + uy * vy < 0:
            return False  # the path folds back at b
        x0, x1 = (bx, cx) if bx <= cx else (cx, bx)
        y0, y1 = (by, cy) if by <= cy else (cy, by)
        boxes.append((x0, x1, y0, y1))
        edges.append((bx, by, cx, cy, vx, vy))
        bx, by, ux, uy = cx, cy, vx, vy
    for j, k in _box_pairs(boxes):
        if (k - j) % n not in (1, n - 1) and _edges_meet(edges[j], edges[k]):
            return False
    return True


def polygon_is_ccw(pts: Sequence) -> bool:
    """Orientation test by signed area, taken on the integer copy of the
    polygon, given as any (x, y) pairs; meaningful for simple polygons."""
    return polygon_signed_area2(_integer_polygon(pts)) > 0


def polygon_is_convex(pts: Sequence[Point2]) -> bool:
    """True iff all turns agree in sign (either orientation), with at least
    three strict turns.  Flat vertices are tolerated."""
    n = len(pts)
    if n < 3:
        raise InputError("polygon needs at least 3 vertices")
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


def _is_ear(pts, i: int, j: int, k: int) -> bool:
    """Vertices i, j, k, in the cyclic order of the counterclockwise simple
    polygon `pts`, span a triangle of some triangulation of it: the triangle
    turns left, its closed area holds no other vertex and no polygon edge
    crosses a side.  The indices lie in range(len(pts)); with j = i + 1 and
    k = j + 1, mod len(pts), this is an ear at j."""
    a, b, c = pts[i], pts[j], pts[k]
    if orient2d(a, b, c) <= 0:
        return False
    triple = (i, j, k)
    n = len(pts)
    for m, p in enumerate(pts):
        if m in triple:
            continue
        if orient2d(a, b, p) >= 0 and orient2d(b, c, p) >= 0 and orient2d(c, a, p) >= 0:
            return False  # p lies in the closed triangle
    sides = ((a, b), (b, c), (c, a))
    for m in range(n):
        if m in triple and (m + 1) % n in triple:
            continue  # the edge is a side of the triangle
        e0, e1 = pts[m], pts[(m + 1) % n]
        if any(segments_intersect_2d(e0, e1, s0, s1, mode="proper") for s0, s1 in sides):
            return False
    return True


# ---------------------------------------------------------------------------
# triangle-triangle contact in 3D
# ---------------------------------------------------------------------------


def _plane(a, b, c):
    """The plane through the (x, y, z) points a, b, c as (nx, ny, nz,
    offset), with the normal (b - a) x (c - a) and the offset normal . a;
    the normal is zero iff the points are collinear."""
    ax, ay, az = a
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return nx, ny, nz, nx * ax + ny * ay + nz * az


def _plane_sides(plane, points) -> tuple:
    """The side of `plane` (as `_plane` gives it) that each point lies on:
    +1 where the normal points, -1 opposite, 0 on the plane."""
    nx, ny, nz, off = plane
    sides = []
    for x, y, z in points:  # a plain loop: before Python 3.12 a comprehension is a call
        d = nx * x + ny * y + nz * z
        sides.append((d > off) - (d < off))
    return tuple(sides)


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


def _triangles_meet(v1, s1, v2, s2) -> bool:
    """The verdict of `open_triangles_intersect_3d` on two proper triangles.

    v1 and v2 are the vertex triples of (x, y, z) points; s1
    holds v1's vertex sides of v2's plane and s2 the converse, as tuples
    from `_plane_sides`.  Coplanar triangles go to
    `_coplanar_triangles_meet`.  A triangle strictly on one side of the
    other's plane misses it.  Otherwise the planes cross, and a vertex the
    two share (equal by value) lies on both: with none,
    `_crossing_triangles_meet` decides; with two, the planes cross in the
    shared edge's line, which each triangle meets in exactly that edge, so
    the contact is the shared edge; with one, `_shared_vertex_triangles_meet`
    decides.  No point is constructed."""
    if s2 == _ON_PLANE:
        return _coplanar_triangles_meet(v1, v2)
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


def _coplanar_triangles_meet(v1, v2) -> bool:
    """Whether two proper coplanar triangles have a common point outside a
    vertex or edge they share, from 2D orientation signs alone; v1 and v2
    are as in `_triangles_meet`.

    The triangles are projected along the first of xy, yz and zx in which
    v1 does not collapse.  That projection is one to one on their plane, so
    it keeps every contact and every vertex equality, and both triangles
    are turned left in it.  With three shared vertices the triangles are
    equal.  With two, the contact is the shared edge alone iff the third
    vertices lie on opposite sides of its line.  With one, v, each triangle
    fills its cone at v near v, so the contact is more than v iff the cones
    share a ray, that is iff a far vertex of one lies in the other's closed
    cone.  With none, any common point conflicts, and two closed triangles
    meet iff a vertex of one lies in the other or two edges cross
    strictly."""
    for x, y in ((0, 1), (1, 2), (2, 0)):
        flat = [(p[x], p[y]) for p in (*v1, *v2)]
        turn = orient2d(*flat[:3])
        if turn:
            break
    a1, b1, c1, a2, b2, c2 = flat
    t1 = (a1, b1, c1) if turn > 0 else (a1, c1, b1)
    t2 = (a2, b2, c2) if orient2d(a2, b2, c2) > 0 else (a2, c2, b2)
    shared = [p for p in t1 if p in t2]
    if len(shared) == 3:
        return True
    if len(shared) == 2:
        u, w = shared
        (p,) = (p for p in t1 if p not in shared)
        (q,) = (q for q in t2 if q not in shared)
        return orient2d(u, w, p) == orient2d(u, w, q)
    if shared:
        v = shared[0]
        i, j = t1.index(v), t2.index(v)
        a, b = t1[(i + 1) % 3], t1[(i + 2) % 3]
        c, d = t2[(j + 1) % 3], t2[(j + 2) % 3]
        return any(orient2d(v, c, p) >= 0 and orient2d(d, v, p) >= 0 for p in (a, b)) or any(
            orient2d(v, a, p) >= 0 and orient2d(b, v, p) >= 0 for p in (c, d)
        )
    for s, t in ((t1, t2), (t2, t1)):
        a, b, c = t
        if any(orient2d(a, b, p) >= 0 and orient2d(b, c, p) >= 0 and orient2d(c, a, p) >= 0 for p in s):
            return True
    for k in range(3):
        p, q = t1[k - 1], t1[k]
        for m in range(3):
            u, w = t2[m - 1], t2[m]
            if orient2d(p, q, u) * orient2d(p, q, w) < 0 and orient2d(u, w, p) * orient2d(u, w, q) < 0:
                return True
    return False


def open_triangles_intersect_3d(t1, t2) -> bool:
    """Exact conflict test between two closed triangles, each a triple of
    (x, y, z) points.

    Contact confined to structure the triangles genuinely share (an identical
    vertex, or an identical full edge) is legal and returns False.  Any other
    common point, however slight, returns True: interiors crossing, an edge
    grazing a face, boundaries touching at a non-shared point, or coplanar
    overlap beyond a shared edge.  This is exactly the condition under which
    two faces cannot coexist on an embedded surface.

    A collinear triple raises `DegenerateTriangleError`.  After a
    bounding-box test, the plane-side signs of each triangle's vertices go
    through `_triangles_meet`, which decides every pair, in crossing planes
    or coplanar, from orientation signs.
    """
    plane1, plane2 = _plane(*t1), _plane(*t2)
    if plane1[:3] == (0, 0, 0) or plane2[:3] == (0, 0, 0):
        raise DegenerateTriangleError("open_triangles_intersect_3d needs proper triangles")

    for axis in range(3):
        c1, c2 = [p[axis] for p in t1], [p[axis] for p in t2]
        if max(c1) < min(c2) or max(c2) < min(c1):
            return False

    return _triangles_meet(t1, _plane_sides(plane2, t1), t2, _plane_sides(plane1, t2))


# ---------------------------------------------------------------------------
# convex bodies between two levels
# ---------------------------------------------------------------------------


def _xy_differences(a, b) -> tuple:
    """The 8 xy differences u - w of two band quads, given as (p0, p1, q1,
    q0) tuples of (x, y, z) points with the p's on one level and the q's on
    the other: the bottom points of a against those of b, then the top
    points against the top points.  A band's point k against the other's
    point m sits at index 2 k + m, less 2 at the top."""
    (a0x, a0y, _), (a1x, a1y, _), (a2x, a2y, _), (a3x, a3y, _) = a
    (b0x, b0y, _), (b1x, b1y, _), (b2x, b2y, _), (b3x, b3y, _) = b
    return (
        (a0x - b0x, a0y - b0y),
        (a0x - b1x, a0y - b1y),
        (a1x - b0x, a1y - b0y),
        (a1x - b1x, a1y - b1y),
        (a2x - b2x, a2y - b2y),
        (a2x - b3x, a2y - b3y),
        (a3x - b2x, a3y - b2y),
        (a3x - b3x, a3y - b3y),
    )


def _ends_apart(e, f) -> bool:
    """Whether two closed convex bodies, each the hull of its points on the
    same two levels, are apart by their end boxes: e and f hold the xy box
    of each body's bottom points and that of its top points, as
    `_end_boxes` gives them.

    When, along x or along y, the bottom box of one lies strictly below the
    other's bottom box and its top box strictly below the other's top box,
    every xy difference of the two bodies' points at either level is
    strictly negative along that axis.  They then lie in an open half-plane
    through the origin, so the bodies are disjoint (the lemma of
    `_sections_apart`) and share no vertex.  Touching boxes, an equal
    coordinate, dismiss nothing."""
    return (
        e[1] < f[0] and e[5] < f[4]
        or f[1] < e[0] and f[5] < e[4]
        or e[3] < f[2] and e[7] < f[6]
        or f[3] < e[2] and f[7] < e[6]
    )


def _sections_apart(vectors) -> bool:
    """Whether two closed convex bodies that span the same two levels are
    disjoint, from `vectors`: the xy differences u - w of their points, u
    of the one and w of the other, taken at the bottom level and at the top
    level.

    Lemma.  Let X = hull(X0 u X1) and Y = hull(Y0 u Y1), with X0 and Y0
    finite and nonempty on a level z0, and X1 and Y1 on a level z1 != z0.
    Let D hold the differences X0 - Y0 and X1 - Y1.  Then X and Y meet iff
    the origin lies in the convex hull of D.

    Proof.  Write z = (1 - t) z0 + t z1.  The section of X at t is
    (1 - t) hull(X0) + t hull(X1), and the same holds for Y.  Two sections
    meet iff the origin lies in their Minkowski difference
    (1 - t) hull(X0 - Y0) + t hull(X1 - Y1).  For convex A and B, the union
    of (1 - t) A + t B over t in [0, 1] is the hull of A and B.  So some
    section pair meets iff the origin lies in the hull of D.  The bodies
    here are the tetrahedron on a band quad, from its bottom and top edges
    (8 differences; the Minkowski-difference criterion of Gilbert, Johnson
    and Keerthi 1988), and a chord triangle, from its one or two vertices
    on each level (4 or 5 differences of a triangle pair).  The conflict
    table (`solver._pair_conflicts`) tests both, the tetrahedra by the
    dismissal of `_quads_apart`, and the triangle pairs that share a
    vertex by the corollary below; the verifier's face pass tests the
    tetrahedra of two cells through `_quads_apart`; the morph decision
    (`morph.planarity_preserving`) tests the tetrahedra of two edges'
    bands with morph time as z, whose sections at t hold the edges at time
    t, and, once it knows a violation at B, the tetrahedra of the two edges
    at levels 0 and a horizon H > B, whose sections at z = t / H hold the
    edges at times t <= H.

    Corollary (a shared vertex).  Let T and U be triangles, each with two
    distinct points on one of the levels and one on the other, that share
    exactly one vertex v, on z0 say.  Let D hold T's other points on z0
    minus v, v minus U's other points on z0, and T's points on z1 minus
    U's points on z1.  Then T and U meet beyond v iff the origin lies in
    the hull of D.

    Proof.  Each triangle equals its cone at v near v, so T and U meet
    beyond v iff some w != 0 is both sum a_P (P - v) and sum b_Q (Q - v),
    over their other vertices, with a, b >= 0.  The z-row makes the
    weights of T's points on z1 and of U's have one sum; pair them as a
    transport plan g, with a_P the row sums of g and b_Q its column sums.
    Then the xy rows read sum a_P (P - v) + sum b_Q (v - Q) +
    sum g_PQ (P - Q) = 0, over the points on z0 and the pairs on z1: a
    nonnegative combination of D, not all zero, that vanishes, which
    exists iff the origin lies in the hull of D.  Conversely such a
    combination gives a and b with one sum on z1, so w is in both cones,
    and w != 0: each triangle's two edges at v are independent, so w = 0
    would make every weight zero.

    Two such triangles that share an edge s t, s on z0 and t on z1, meet
    beyond it iff they lie in one plane with their third points on one
    side of it.  The projection along s t, x -> x - s on z0 and x -> x - t
    on z1, sends s t to the origin and each triangle onto the segment from
    there to its third point's image, so they do iff the image of T's third
    point and minus that of U's hold the origin in their hull: again the
    differences that the corollary takes per level.

    The origin is outside that hull iff all of D lies in an open half-plane
    through it.  That holds iff some v in D has every w in D with
    cross(v, w) > 0, or cross(v, w) = 0 and dot(v, w) > 0; then v is the
    clockwise-most vector of D.  A zero vector, a vertex shared by value,
    fails the test for every v.  Within an open half-plane, "w is strictly
    clockwise of v" orders D, so one pass keeps the clockwise-most vector as
    the only candidate, and a second pass checks it.
    """
    vx, vy = vectors[0]
    for wx, wy in vectors:
        if vx * wy < vy * wx:
            vx, vy = wx, wy
    for wx, wy in vectors:
        cross = vx * wy - vy * wx
        if cross < 0 or (cross == 0 and vx * wx + vy * wy <= 0):
            return False
    return True


def _shared_edge_apart(d, i: int, j: int) -> bool:
    """Whether no triangle on the points of quad a meets one on the points
    of quad b outside a vertex or edge they share, for two quads on the
    same two levels, two points of each at each level, that share the
    bottom point s at the zero difference d[i] and the top point t at the
    zero d[j], given their 8 xy differences d as `_xy_differences` lays
    them out.

    Let P be a plane through the line s t with a's other two points
    strictly on one side and b's on the other.  A triangle on a's points
    meets P only in the hull of its vertices among s and t, and likewise
    for b; so two triangles meet at most in the hull of the vertices among
    s and t that both have, a vertex or an edge they share.  Projecting
    along s t onto the xy plane maps the line to a point and P to a line
    through it, and sends a bottom point x to x - s and a top point to
    x - t, up to the factor z(t) - z(s).  So P exists iff a's other points
    minus the shared ones and the shared ones minus b's other points lie
    in an open half-plane: `_sections_apart` on those four differences,
    the ones beside each zero in the 2 x 2 layout of its level."""
    return _sections_apart((d[i ^ 1], d[i ^ 2], d[j ^ 1], d[j ^ 2]))


def _quads_apart(d) -> bool:
    """Whether no triangle on the points of quad a meets one on the points
    of quad b outside a vertex or edge they share, from the 8 xy
    differences d of two quads on the same two levels, two points of each
    at each level, laid out as `_xy_differences` gives them.

    With no zero difference, the quads share no point, and their closed
    tetrahedra are disjoint iff `_sections_apart` holds for all 8.  With
    exactly one zero difference at each level, the quads share one bottom
    point and one top point, and `_shared_edge_apart` decides.  Any other
    pair is not dismissed."""
    if (0, 0) not in d:
        return _sections_apart(d)
    # the first zero at the bottom, the second and last at the top
    i = d.index((0, 0))
    if i > 3 or d.count((0, 0)) != 2:
        return False
    j = d.index((0, 0), i + 1)
    return j > 3 and _shared_edge_apart(d, i, j)
