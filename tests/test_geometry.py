import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banded.errors import DegenerateTriangleError, ZeroVectorError
from banded.geometry import (
    AngleClass,
    Point2,
    Point3,
    Triangle3,
    ccw_angle,
    open_triangles_intersect_3d,
    orient2d,
    orient3d,
    point_on_segment_2d,
    polygon_is_ccw,
    polygon_is_convex,
    polygon_is_simple,
    segment_triangle_contact_3d,
    segments_intersect_2d,
)

P = Point2
V = Point3


def tri(a, b, c):
    return Triangle3(V(*a), V(*b), V(*c))


class TestOrient2d:
    def test_left_turn(self):
        assert orient2d(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orient2d(P(0, 0), P(1, 0), P(2, 0)) == 0

    def test_right_turn(self):
        assert orient2d(P(0, 0), P(1, 0), P(0, -1)) == -1

    coords = st.integers(min_value=-50, max_value=50)

    @given(st.tuples(*(coords,) * 6))
    @settings(derandomize=True)
    def test_antisymmetric_under_swaps(self, xs):
        a, b, c = P(xs[0], xs[1]), P(xs[2], xs[3]), P(xs[4], xs[5])
        o = orient2d(a, b, c)
        assert orient2d(b, a, c) == -o
        assert orient2d(a, c, b) == -o
        assert orient2d(c, b, a) == -o


class TestCcwAngle:
    def test_quarter_turn_ccw(self):
        assert ccw_angle(P(1, 0), P(0, 1))[0] is AngleClass.LESS_PI

    def test_opposite_vectors(self):
        assert ccw_angle(P(1, 0), P(-1, 0))[0] is AngleClass.EQUAL_PI

    def test_quarter_turn_cw(self):
        assert ccw_angle(P(1, 0), P(0, -1))[0] is AngleClass.GREATER_PI

    def test_zero_angle_counts_below_pi(self):
        assert ccw_angle(P(2, 3), P(4, 6))[0] is AngleClass.LESS_PI

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            ccw_angle(P(0, 0), P(1, 0))

    def test_witness_orders_angles(self):
        base = P(1, 0)
        vectors = [P(1, 0), P(2, 1), P(0, 1), P(-3, 1), P(-1, 0), P(-1, -2), P(0, -1), P(5, -1)]
        witnesses = [ccw_angle(base, v)[1] for v in vectors]
        assert witnesses == sorted(witnesses)


class TestSegments:
    def test_crossing_diagonals(self):
        assert segments_intersect_2d(P(0, 0), P(2, 2), P(0, 2), P(2, 0), mode="proper")

    def test_shared_endpoint_not_proper(self):
        assert not segments_intersect_2d(P(0, 0), P(1, 0), P(1, 0), P(2, 0), mode="proper")

    def test_shared_endpoint_any(self):
        assert segments_intersect_2d(P(0, 0), P(1, 0), P(1, 0), P(2, 0), mode="any")

    def test_t_touch_is_proper(self):
        assert segments_intersect_2d(P(0, 0), P(2, 0), P(1, 0), P(1, 5), mode="proper")

    def test_collinear_overlap(self):
        assert segments_intersect_2d(P(0, 0), P(3, 0), P(1, 0), P(5, 0), mode="proper")

    def test_identical_segments_proper(self):
        assert segments_intersect_2d(P(0, 0), P(3, 0), P(0, 0), P(3, 0), mode="proper")

    def test_disjoint_collinear(self):
        assert not segments_intersect_2d(P(0, 0), P(1, 0), P(2, 0), P(3, 0), mode="any")

    def test_zero_length_segment_touches_only_its_point(self):
        # the point (5, 0) shares only its y with the segment's end (0, 0)
        for mode in ("any", "proper"):
            assert not segments_intersect_2d(P(0, 0), P(1, 1), P(5, 0), P(5, 0), mode=mode)
            assert not segments_intersect_2d(P(5, 0), P(5, 0), P(0, 0), P(1, 1), mode=mode)

    coords = st.integers(min_value=-8, max_value=8)

    @given(st.tuples(*(coords,) * 8))
    @settings(max_examples=300, derandomize=True)
    def test_symmetric(self, xs):
        a, b, c, d = P(xs[0], xs[1]), P(xs[2], xs[3]), P(xs[4], xs[5]), P(xs[6], xs[7])
        for mode in ("any", "proper"):
            assert segments_intersect_2d(a, b, c, d, mode=mode) == segments_intersect_2d(
                c, d, a, b, mode=mode
            )

    @given(st.tuples(*(coords,) * 6), st.booleans())
    @settings(max_examples=300, derandomize=True)
    def test_zero_length_segment_is_a_point(self, xs, first):
        a, b, c = P(xs[0], xs[1]), P(xs[2], xs[3]), P(xs[4], xs[5])
        pair = (c, c, a, b) if first else (a, b, c, c)
        assert segments_intersect_2d(*pair, mode="any") == point_on_segment_2d(c, a, b)


SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
BOWTIE = (P(0, 0), P(2, 2), P(2, 0), P(0, 2))


class TestPolygons:
    def test_square_simple_ccw_convex(self):
        assert polygon_is_simple(SQUARE)
        assert polygon_is_ccw(SQUARE)
        assert polygon_is_convex(SQUARE)

    def test_bowtie_not_simple(self):
        assert not polygon_is_simple(BOWTIE)

    def test_cw_square(self):
        cw = tuple(reversed(SQUARE))
        assert polygon_is_simple(cw)
        assert not polygon_is_ccw(cw)
        assert polygon_is_convex(cw)  # convex in either orientation

    def test_star_simple_not_convex(self):
        from banded.figures import fig7_star

        star = fig7_star().instance.source
        assert polygon_is_simple(star.vertices)
        assert polygon_is_ccw(star.vertices)
        assert not polygon_is_convex(star.vertices)

    def test_flat_vertex_allowed(self):
        flat = (P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2))
        assert polygon_is_simple(flat)
        assert polygon_is_convex(flat)

    def test_repeated_vertex_rejected(self):
        assert not polygon_is_simple((P(0, 0), P(1, 0), P(1, 1), P(1, 0)))

    def test_matches_independent_pairwise_check(self):
        # oracle: literal quadratic-time re-derivation with its own primitives
        def oracle(pts):
            n = len(pts)
            if len({(q.x, q.y) for q in pts}) != n:
                return False
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = pts[i], pts[(i + 1) % n]
                    c, d = pts[j], pts[(j + 1) % n]
                    shared = [u for u in (a, b) if u == c or u == d]
                    if segments_intersect_2d(a, b, c, d, mode="any"):
                        if not shared:
                            return False
                        if segments_intersect_2d(a, b, c, d, mode="proper"):
                            return False
            return True

        def coord(rng, r):
            d = rng.choice((1, 2, 3, 5, 7, 11))
            return Fraction(rng.randint(-r * d, r * d), d)

        def star(rng, n):
            # angle-sorted points around the origin: mostly simple, so the
            # sweep has to clear every pair rather than stop early
            pts = [P(coord(rng, 12), coord(rng, 12)) for _ in range(n)]
            return sorted(pts, key=lambda q: math.atan2(q.y, q.x))

        def mutate(rng, pts):
            pts = list(pts)
            n = len(pts)
            i = rng.randrange(n)
            a, b = pts[i], pts[(i + 1) % n]
            kind = rng.choice(("flat", "fold", "touch", "repeat", "none"))
            if kind == "flat":  # a vertex inside edge ab: still simple
                t = Fraction(rng.randint(1, 6), 7)
                pts.insert(i + 1, P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            elif kind == "fold":  # after b, go back along ba
                t = Fraction(rng.randint(1, 6), 7)
                pts.insert(i + 2, P(b.x + t * (a.x - b.x), b.y + t * (a.y - b.y)))
            elif kind == "touch" and n > 4:  # a vertex onto a non-adjacent edge
                j = (i + rng.randint(2, n - 3)) % n
                c, d = pts[j], pts[(j + 1) % n]
                t = Fraction(rng.randint(0, 5), 5)
                pts[i] = P(c.x + t * (d.x - c.x), c.y + t * (d.y - c.y))
            elif kind == "repeat" and n > 3:
                pts[i] = pts[(i + rng.randint(2, n - 2)) % n]
            return pts

        # contacts that only closed bounding boxes see: a vertex resting on a
        # horizontal edge, one on a vertical edge, and a fold-back through
        # the closing vertex
        for pts in (
            [P(0, 0), P(4, 0), P(4, 4), P(3, 4), P(2, 0), P(1, 4), P(0, 4)],
            [P(0, 0), P(4, 0), P(4, 4), P(0, 4), P(0, 3), P(4, 2), P(0, 1)],
            [P(4, 0), P(2, 0), P(2, 4), P(0, 4), P(0, 0)],
        ):
            assert not oracle(pts)
            assert not polygon_is_simple(pts)

        rng = random.Random(42)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n = rng.randint(3, 9)
            pts = tuple(P(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n))
            verdict = polygon_is_simple(pts)
            verdicts[verdict] += 1
            assert verdict == oracle(pts), pts
        for _ in range(150):
            pts = star(rng, rng.randint(3, 40))
            for _ in range(rng.randint(0, 3)):
                pts = mutate(rng, pts)
            verdict = polygon_is_simple(pts)
            verdicts[verdict] += 1
            assert verdict == oracle(pts), pts
        assert min(verdicts.values()) > 100

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=10
        ),
        st.booleans(),
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.tuples(*(st.fractions(-9, 9, max_denominator=30),) * 2),
    )
    @settings(max_examples=300, derandomize=True)
    def test_invariant_under_scaling_and_translation(self, xys, by_angle, k, shift):
        if by_angle:  # star-shaped order, so simple polygons are common too
            xys = sorted(xys, key=lambda q: math.atan2(q[1] - 0.1, q[0] - 0.2))
        pts = [P(Fraction(x, 3), Fraction(y, 2)) for x, y in xys]
        moved = [P(k * q.x + shift[0], k * q.y + shift[1]) for q in pts]
        assert polygon_is_simple(moved) == polygon_is_simple(pts)


class TestOpenTrianglesIntersect:
    def test_hinge_configuration(self):
        t1 = tri((0, 0, 0), (2, 0, 0), (1, 1, 1))
        t2 = tri((0, 0, 0), (2, 0, 0), (1, -1, -1))
        assert not open_triangles_intersect_3d(t1, t2)

    def test_stabbing_configuration(self):
        flat = tri((0, 0, Fraction(1, 2)), (4, 0, Fraction(1, 2)), (0, 4, Fraction(1, 2)))
        spike = tri((1, 1, 0), (1, 1, 1), (2, 1, 0))
        assert open_triangles_intersect_3d(flat, spike)

    def test_disjoint(self):
        t1 = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        t2 = tri((5, 5, 5), (6, 5, 5), (5, 6, 5))
        assert not open_triangles_intersect_3d(t1, t2)

    def test_shared_vertex_only(self):
        t1 = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        t2 = tri((0, 0, 0), (-1, 0, 1), (0, -1, 1))
        assert not open_triangles_intersect_3d(t1, t2)

    def test_coplanar_overlap(self):
        t1 = tri((0, 0, 0), (4, 0, 0), (0, 4, 0))
        t2 = tri((1, 1, 0), (5, 1, 0), (1, 5, 0))
        assert open_triangles_intersect_3d(t1, t2)

    def test_coplanar_back_to_back(self):
        t1 = tri((0, 0, 0), (2, 0, 0), (1, 2, 0))
        t2 = tri((0, 0, 0), (1, -2, 0), (2, 0, 0))
        assert not open_triangles_intersect_3d(t1, t2)

    def test_edge_graze_is_conflict(self):
        t1 = tri((0, 0, 0), (2, 0, 0), (1, 2, 0))
        t2 = tri((1, 1, 0), (1, 1, 1), (3, 3, 1))  # vertex touches t1's interior
        assert open_triangles_intersect_3d(t1, t2)

    def test_degenerate_rejected(self):
        bad = tri((0, 0, 0), (1, 1, 1), (2, 2, 2))
        good = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        with pytest.raises(DegenerateTriangleError):
            open_triangles_intersect_3d(bad, good)

    def test_twisted_prism_adjacent_bands_compatible(self):
        from banded.figures import fig1_twisted_prism
        from banded.model import Chord
        from banded.solver import chord_triangles

        inst = fig1_twisted_prism().instance
        b0 = chord_triangles(inst, 0, Chord.RIGHT)
        b1 = chord_triangles(inst, 1, Chord.RIGHT)
        for u in b0.triangles:
            for w in b1.triangles:
                assert not open_triangles_intersect_3d(u, w)

    def _random_triangle(self, rng, spread=4):
        while True:
            t = tri(
                *(tuple(rng.randint(-spread, spread) for _ in range(3)) for _ in range(3))
            )
            if not t.is_degenerate():
                return t

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            t1 = self._random_triangle(rng)
            t2 = self._random_triangle(rng)
            assert open_triangles_intersect_3d(t1, t2) == open_triangles_intersect_3d(t2, t1)

    def test_crossing_pairs_agree_with_edge_contact_oracle(self):
        # two closed triangles in crossing planes meet iff an edge of one
        # meets the other; with no shared vertex, any contact conflicts.
        # t1 has even coordinates so that half-steps along its edges, used
        # to put t2's vertices on t1's plane, stay integral.
        rng = random.Random(29)

        def on_plane(t, m, k):
            return V(*(
                a + (m * (b - a) + k * (c - a)) // 2
                for a, b, c in zip(t.a, t.b, t.c)
            ))

        seen = {}
        while sum(seen.values()) < 4000:
            spread = rng.choice((1, 2, 3))
            zs = rng.choice(((0, 1), tuple(range(-spread, spread + 1))))

            def point(scale=1):
                return V(
                    scale * rng.randint(-spread, spread),
                    scale * rng.randint(-spread, spread),
                    scale * rng.choice(zs),
                )

            t1 = Triangle3(point(2), point(2), point(2))
            if t1.is_degenerate():
                continue
            verts = [point(), point(), point()]
            for k in rng.sample(range(3), rng.choice((0, 0, 1, 2))):
                verts[k] = on_plane(t1, rng.randint(-1, 2), rng.randint(-1, 2))
            t2 = Triangle3(*verts)
            if t2.is_degenerate() or set(t1.vertices) & set(t2.vertices):
                continue
            sides = [orient3d(t1.a, t1.b, t1.c, v) for v in t2.vertices]
            if sides == [0, 0, 0]:
                continue
            hit = open_triangles_intersect_3d(t1, t2)
            oracle = any(
                segment_triangle_contact_3d(u.vertices[i], u.vertices[i - 1], w)
                for u, w in ((t1, t2), (t2, t1))
                for i in range(3)
            )
            assert hit == oracle, (t1, t2)
            key = (hit, sides.count(0))
            seen[key] = seen.get(key, 0) + 1
        # contacts and misses with t2 crossing t1's plane, touching it at a
        # vertex, and lying on it along an edge all occur
        assert all(seen.get((hit, k), 0) >= 40 for hit in (True, False) for k in (0, 1, 2))

    def test_shared_edge_pairs(self):
        # triangles sharing an edge AB: in crossing planes they meet in just
        # AB (legal); coplanar, they overlap exactly when the third vertices
        # lie on the same side of AB
        rng = random.Random(31)
        seen = {}
        while sum(seen.values()) < 2000:
            spread = rng.choice((1, 2, 3))
            zs = rng.choice(((0, 1), tuple(range(-spread, spread + 1))))

            def point():
                return V(rng.randint(-spread, spread), rng.randint(-spread, spread), rng.choice(zs))

            a, b, c = point(), point(), point()
            t1 = Triangle3(a, b, c)
            if t1.is_degenerate():
                continue
            m, k = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
            coplanar = rng.random() < 0.3
            if coplanar:
                d = V(*(p + m * (q - p) + k * (r - p) for p, q, r in zip(a, b, c)))
            else:
                d = point()
            verts = [a, b, d]
            rng.shuffle(verts)
            t2 = Triangle3(*verts)
            if t2.is_degenerate() or d in t1.vertices:
                continue
            on_plane = orient3d(a, b, c, d) == 0
            hit = open_triangles_intersect_3d(t1, t2)
            assert hit == open_triangles_intersect_3d(t2, t1)
            if on_plane:
                # d lies on c's side of AB iff (b - a) x (d - a) points along t1's normal
                above = V(*(p + q for p, q in zip(a, t1.normal)))
                assert hit == (orient3d(a, b, d, above) > 0), (t1, t2)
                key = ("coplanar", hit)
            else:
                assert not hit, (t1, t2)
                key = ("crossing", hit)
            seen[key] = seen.get(key, 0) + 1
        kinds = (("crossing", False), ("coplanar", True), ("coplanar", False))
        assert all(seen.get(key, 0) >= 100 for key in kinds)

    def test_one_shared_vertex_pairs_agree_with_far_edge_oracle(self):
        # triangles (v, b, c) and (v, d, e) in crossing planes meet in a
        # segment of the planes' common line that starts at v; it is more
        # than v exactly when its far end, which lies on the boundary of
        # one triangle away from v, is on edge bc or edge de.  The kernel
        # decides from the far edges' sides of the other plane: one strictly
        # on one side (its triangle touches that plane only in v, so always
        # a miss), an endpoint on the other plane, or both straddling.
        rng = random.Random(37)
        seen = {}
        while sum(seen.values()) < 4000:
            spread = rng.choice((1, 2, 3))
            zs = rng.choice(((0, 1), tuple(range(-spread, spread + 1))))

            def point():
                return V(rng.randint(-spread, spread), rng.randint(-spread, spread), rng.choice(zs))

            v, b, c, d, e = (point() for _ in range(5))
            if rng.random() < 0.5:
                # (v, d, e) near the reflection of (v, b, c) through v, so
                # that both far edges often straddle and miss
                d, e = (
                    V(2 * v.x - p.x + q.x % 2, 2 * v.y - p.y + q.y % 2, 2 * v.z - p.z + q.z % 2)
                    for p, q in ((b, d), (c, e))
                )
            t1, t2 = Triangle3(v, b, c), Triangle3(*rng.sample((v, d, e), 3))
            if t1.is_degenerate() or t2.is_degenerate() or len({b, c, d, e} - {v}) < 4:
                continue
            if [orient3d(v, b, c, p) for p in (d, e)] == [0, 0]:
                continue  # coplanar
            hit = open_triangles_intersect_3d(t1, t2)
            assert hit == open_triangles_intersect_3d(t2, t1)
            oracle = segment_triangle_contact_3d(b, c, t2) or segment_triangle_contact_3d(d, e, t1)
            assert hit == oracle, (t1, t2)
            s1 = [orient3d(*t2.vertices, p) for p in (b, c)]
            s2 = [orient3d(*t1.vertices, p) for p in (d, e)]
            if s1[0] == s1[1] or s2[0] == s2[1]:
                branch = "one side"
            elif 0 in s1 + s2:
                branch = "endpoint on plane"
            else:
                branch = "straddling"
            seen[branch, hit] = seen.get((branch, hit), 0) + 1
        assert seen.get(("one side", True), 0) == 0
        for branch in "one side", "endpoint on plane", "straddling":
            for hit in (False,) if branch == "one side" else (True, False):
                assert seen.get((branch, hit), 0) >= 40, seen

    def test_agrees_with_barycentric_probe_oracle(self):
        # probing oracle: a grid point inside both closed triangles that lies
        # outside the genuinely shared structure certifies a conflict
        rng = random.Random(13)

        def in_closed(p, t):
            if orient3d(t.a, t.b, t.c, p) != 0:
                return False
            n = t.normal
            axis = max(range(3), key=lambda k: abs(n[k]))
            def proj(q):
                c = (q.x, q.y, q.z)
                return P(c[(axis + 1) % 3], c[(axis + 2) % 3])
            a, b, c = proj(t.a), proj(t.b), proj(t.c)
            q = proj(p)
            ref = orient2d(a, b, c)
            return all(
                orient2d(u, v, q) * ref >= 0 for u, v in ((a, b), (b, c), (c, a))
            )

        def on_segment(p, a, b):
            ab = (b.x - a.x, b.y - a.y, b.z - a.z)
            ap = (p.x - a.x, p.y - a.y, p.z - a.z)
            cross = (
                ap[1] * ab[2] - ap[2] * ab[1],
                ap[2] * ab[0] - ap[0] * ab[2],
                ap[0] * ab[1] - ap[1] * ab[0],
            )
            if cross != (0, 0, 0):
                return False
            dot = sum(u * v for u, v in zip(ap, ab))
            return 0 <= dot <= sum(u * u for u in ab)

        checked = conclusive = 0
        for _ in range(500):
            t1 = self._random_triangle(rng, spread=3)
            t2 = self._random_triangle(rng, spread=3)
            shared_v = [p for p in t1.vertices if p in t2.vertices]
            edges2 = {
                frozenset(((e[0].x, e[0].y, e[0].z), (e[1].x, e[1].y, e[1].z)))
                for e in ((t2.a, t2.b), (t2.b, t2.c), (t2.c, t2.a))
            }
            shared_e = [
                (u, w)
                for u, w in ((t1.a, t1.b), (t1.b, t1.c), (t1.c, t1.a))
                if frozenset(((u.x, u.y, u.z), (w.x, w.y, w.z))) in edges2
            ]

            def allowed(p):
                return any(p == v for v in shared_v) or any(
                    on_segment(p, a, b) for a, b in shared_e
                )

            witness = False
            grid = [Fraction(k, 6) for k in range(7)]
            for src, other in ((t1, t2), (t2, t1)):
                for u in grid:
                    for v in grid:
                        if u + v > 1:
                            continue
                        w = 1 - u - v
                        p = V(
                            u * src.a.x + v * src.b.x + w * src.c.x,
                            u * src.a.y + v * src.b.y + w * src.c.y,
                            u * src.a.z + v * src.b.z + w * src.c.z,
                        )
                        if in_closed(p, other) and not allowed(p):
                            witness = True
                            break
                    if witness:
                        break
                if witness:
                    break
            checked += 1
            if witness:
                conclusive += 1
                assert open_triangles_intersect_3d(t1, t2)
        assert checked == 500 and conclusive > 30
