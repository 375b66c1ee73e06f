"""Reference predicates for the tests of `banded.geometry`: a point on a
closed segment in 2D, the common points of two segments and how they
meet, polygon simplicity edge pair by edge pair, a point in a closed
triangle, the ear test vertex by vertex and edge by edge, a triangle's
normal, and a closed segment against a closed triangle in 3D.  A triangle
is a triple of `Point3`s.  Also a similarity fit in `Fraction`s, the
reference for `morph.similarity_witness`.

All are exact.  Segment contact solves for the common points as
`Fraction`s, and the triangle tests solve for barycentric coordinates or
build the crossing point as `Fraction`s: routes independent of the sign
kernels in `banded.geometry` (the straddle test, `_meet_beyond_ends`, the
strict crossing and the closed-triangle test), so the tests use them as
oracles.  Test-only: nothing in `banded` imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from banded.errors import DegenerateTriangleError
from banded.geometry import Point2, Point3, orient2d


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _sub3(p: Point3, q: Point3):
    return (p.x - q.x, p.y - q.y, p.z - q.z)


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def triangle_normal(tri):
    """The normal (b - a) x (c - a) of the triangle (a, b, c) of `Point3`s."""
    a, b, c = tri
    u, v = _sub3(b, a), _sub3(c, a)
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def is_degenerate(tri) -> bool:
    """True iff the three points of `tri` are collinear."""
    return triangle_normal(tri) == (0, 0, 0)


def point_on_segment_2d(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b], which may be the point
    a = b: on its line and in its closed box."""
    return (
        orient2d(a, b, p) == 0
        and min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _quotient(num, den):
    """num / den, exactly: a `Fraction` for rationals, and the quotient of
    another exact number type, such as `quadfield_reference.QuadExt`."""
    try:
        return Fraction(num, den)
    except TypeError:
        return num / den


def common_points(a, b, c, d):
    """Common points of the closed segments ab and cd, each of positive
    length, from a + s (b - a) = c + u (d - c) solved exactly; a collinear
    overlap gives its two ends and, when they differ, its midpoint.  An
    oracle that shares no code with the sign kernels of `banded.geometry`."""
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = d.x - c.x, d.y - c.y
    qx, qy = c.x - a.x, c.y - a.y
    den = rx * sy - ry * sx
    if den != 0:
        s = _quotient(qx * sy - qy * sx, den)
        u = _quotient(qx * ry - qy * rx, den)
        return [Point2(a.x + s * rx, a.y + s * ry)] if 0 <= s <= 1 and 0 <= u <= 1 else []
    if qx * ry - qy * rx != 0:
        return []  # parallel, on two lines
    rr = rx * rx + ry * ry
    sc = _quotient(qx * rx + qy * ry, rr)
    sd = _quotient((d.x - a.x) * rx + (d.y - a.y) * ry, rr)
    lo, hi = max(0, min(sc, sd)), min(1, max(sc, sd))
    if lo > hi:
        return []
    ts = [lo] if lo == hi else [lo, hi, _quotient(lo + hi, 2)]
    return [Point2(a.x + t * rx, a.y + t * ry) for t in ts]


def segment_contact(s, t) -> str:
    """How the closed segments s and t meet, each a pair of `Point2`s and a
    point where its two ends are equal: "apart"; "shared end", in an end of
    both; "inside", in an end of one that is no end of the other;
    "crossing", in a point that is an end of neither; or "overlap", along
    a collinear stretch.  From `common_points`, or `point_on_segment_2d`
    for a point."""
    (a, b), (c, d) = s, t
    if a == b or c == d:
        (p, _), (u, w) = (s, t) if a == b else (t, s)
        common = [p] if point_on_segment_2d(p, u, w) else []
    else:
        common = common_points(a, b, c, d)
    if not common:
        return "apart"
    if len(common) > 1:
        return "overlap"
    (x,) = common
    ends = (x in (a, b)) + (x in (c, d))
    return ("crossing", "inside", "shared end")[ends]


def segments_meet_only_at_ends_pairwise(segments) -> bool:
    """`geometry._meet_only_at_ends` pair by pair, with no sweep, by
    `segment_contact`."""
    return all(segment_contact(s, t) in ("apart", "shared end") for s, t in itertools.combinations(segments, 2))


def polygon_is_simple_pairwise(pts) -> bool:
    """`polygon_is_simple` by `segment_contact` on every edge pair, with no
    sweep and no scaling: distinct vertices, adjacent edges meeting only in
    their shared vertex, and non-adjacent edges apart."""
    n = len(pts)
    if len(set(pts)) != n:
        return False
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        if segment_contact(edges[i], edges[(i + 1) % n]) != "shared end":
            return False
    for i, j in itertools.combinations(range(n), 2):
        if (j - i) % n not in (1, n - 1) and segment_contact(edges[i], edges[j]) != "apart":
            return False
    return True


def point_in_closed_triangle(p, a, b, c) -> bool:
    """True iff p lies in the closed triangle a, b, c, which must not be
    flat: p = a + s (b - a) + u (c - a) solved in `Fraction`s, with s, u
    and 1 - s - u all at least 0."""
    bx, by, cx, cy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
    px, py = p.x - a.x, p.y - a.y
    den = bx * cy - by * cx
    s = Fraction(px * cy - py * cx, den)
    u = Fraction(bx * py - by * px, den)
    return s >= 0 and u >= 0 and s + u <= 1


def is_ear_pairwise(pts, i: int, j: int, k: int) -> bool:
    """`geometry._is_ear` vertex by vertex and edge by edge, on `Point2`s:
    the triangle of vertices i, j, k turns left (twice its signed area is
    positive), no other vertex lies in it (`point_in_closed_triangle`), and
    every polygon edge that is not a side is apart from each side or meets
    it in a shared end (`segment_contact`)."""
    a, b, c = pts[i], pts[j], pts[k]
    if (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) <= 0:
        return False
    triple = (i, j, k)
    if any(point_in_closed_triangle(p, a, b, c) for m, p in enumerate(pts) if m not in triple):
        return False
    n = len(pts)
    for m in range(n):
        if m in triple and (m + 1) % n in triple:
            continue  # the edge is a side
        edge = (pts[m], pts[(m + 1) % n])
        if any(segment_contact(edge, side) not in ("apart", "shared end") for side in ((a, b), (b, c), (c, a))):
            return False
    return True


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


def segment_triangle_contact_3d(p: Point3, q: Point3, tri) -> bool:
    """True iff closed segment [p, q] meets the closed triangle `tri`, a
    triple of `Point3`s, anywhere."""
    n = triangle_normal(tri)
    if n == (0, 0, 0):
        raise DegenerateTriangleError("segment_triangle_contact_3d needs a proper triangle")
    a = tri[0]
    sp = _sign(_dot3(n, _sub3(p, a)))
    sq = _sign(_dot3(n, _sub3(q, a)))
    if sp == sq and sp != 0:
        return False
    axis = _proj_axis(n)
    verts = [_project(v, axis) for v in tri]

    def inside(pt2) -> bool:
        signs = [orient2d(verts[i], verts[(i + 1) % 3], pt2) for i in range(3)]
        ref = orient2d(*verts)
        return all(s * ref >= 0 for s in signs)

    if sp == 0 and sq == 0:
        # segment in the triangle's plane
        a2, b2 = _project(p, axis), _project(q, axis)
        if inside(a2) or inside(b2):
            return True
        return any(segment_contact((a2, b2), (verts[i], verts[(i + 1) % 3])) != "apart" for i in range(3))
    if sp == 0:
        return inside(_project(p, axis))
    if sq == 0:
        return inside(_project(q, axis))
    # strict crossing: intersection point at parameter sp/(sp - sq) in exact form
    d = _sub3(q, p)
    denom = _dot3(n, d)
    t = Fraction(_dot3(n, _sub3(a, p)), denom)
    x = Point3(p.x + t * d[0], p.y + t * d[1], p.z + t * d[2])
    return inside(_project(x, axis))


def similarity_fit(av, bv):
    """The similarity x -> W x + v taking the points av onto the points bv
    label by label, as (wx, wy, tx, ty) with W = wx + i wy, or None when
    there is none with W != 0.  W is fitted in `Fraction`s from vertex 0
    and the first vertex apart from it, then checked vertex by vertex; av
    needs a vertex apart from its first."""
    k = next(i for i in range(1, len(av)) if av[i] != av[0])
    dax, day = Fraction(av[k].x - av[0].x), Fraction(av[k].y - av[0].y)
    dbx, dby = Fraction(bv[k].x - bv[0].x), Fraction(bv[k].y - bv[0].y)
    denom = dax * dax + day * day
    wx = (dbx * dax + dby * day) / denom
    wy = (dby * dax - dbx * day) / denom
    if wx == 0 and wy == 0:
        return None
    tx = bv[0].x - (wx * av[0].x - wy * av[0].y)
    ty = bv[0].y - (wy * av[0].x + wx * av[0].y)
    for p, q in zip(av, bv):
        if (wx * p.x - wy * p.y + tx, wy * p.x + wx * p.y + ty) != (q.x, q.y):
            return None
    return wx, wy, tx, ty
