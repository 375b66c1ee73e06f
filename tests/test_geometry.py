import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from geometry_reference import (
    common_points,
    is_degenerate,
    is_ear_pairwise,
    point_in_closed_triangle,
    point_on_segment_2d,
    polygon_is_simple_pairwise,
    segment_contact,
    segment_triangle_contact_3d,
    segments_meet_only_at_ends_pairwise,
    triangle_normal,
)
from grid_polygons import grid_polygon, star_grid_polygon
from hypothesis import given, settings
from hypothesis import strategies as st

from banded.errors import DegenerateTriangleError, InputError
from banded.generators import random_polygon
from banded.geometry import (
    Point2,
    Point3,
    _box,
    _box_pairs,
    _edges_meet,
    _end_boxes,
    _ends_apart,
    _horizon_bands,
    _integer_polygon,
    _is_ear,
    _meet_beyond_ends,
    _meet_only_at_ends,
    _quads_apart,
    _sections_apart,
    _shared_edge_apart,
    _xy_differences,
    open_triangles_intersect_3d,
    orient2d,
    orient3d,
    polygon_is_ccw,
    polygon_is_convex,
    polygon_is_simple,
    polygon_signed_area2,
)

P = Point2
V = Point3


def tri(a, b, c):
    return V(*a), V(*b), V(*c)


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


class TestPointFormat:
    def test_point_equals_its_coordinate_tuple(self):
        assert P(1, 2) == (1, 2)
        assert hash(P(1, 2)) == hash((1, 2))
        assert repr(P(1, 2)) == "Point2(x=1, y=2)"

    def test_point3_unpacks_to_its_coordinates(self):
        x, y, z = V(1, Fraction(1, 2), -3)
        assert (x, y, z) == (1, Fraction(1, 2), -3)
        assert V(1, 2, 3).xy == P(1, 2)

    coords = st.integers(min_value=-20, max_value=20)

    @given(st.tuples(*(coords,) * 6))
    @settings(derandomize=True)
    def test_orient2d_takes_points_and_tuples_alike(self, xs):
        pts = [P(xs[k], xs[k + 1]) for k in (0, 2, 4)]
        assert orient2d(*pts) == orient2d(*((p.x, p.y) for p in pts))


def _oracle_meets(a, b, c, d, mode):
    """Whether the segments ab and cd of positive length meet, by
    `common_points`: "any" asks for a common point, "proper" for one that
    is not an endpoint shared by both."""
    shared = [u for u in (a, b) if u == c or u == d]
    common = common_points(a, b, c, d)
    return bool(common) if mode == "any" else any(p not in shared for p in common)


def _boxes_meet(a, b, c, d) -> bool:
    """Whether the closed boxes of the segments ab and cd meet."""
    return (
        max(min(a.x, b.x), min(c.x, d.x)) <= min(max(a.x, b.x), max(c.x, d.x))
        and max(min(a.y, b.y), min(c.y, d.y)) <= min(max(a.y, b.y), max(c.y, d.y))
    )


def _meets(a, b, c, d) -> bool:
    """Whether the segments ab and cd of positive length have a common
    point, as `polygon_is_simple` decides it: their closed boxes meet and
    the straddle test (`_edges_meet`) holds."""
    return _boxes_meet(a, b, c, d) and _edges_meet((*a, *b, b.x - a.x, b.y - a.y), (*c, *d, d.x - c.x, d.y - c.y))


def _beyond(s, t) -> bool:
    """Whether the segments s and t meet outside their shared ends, as the
    clean-level sweep decides it: their closed boxes meet and
    `_meet_beyond_ends` holds."""
    return _boxes_meet(*s, *t) and _meet_beyond_ends(s, t)


class TestSegments:
    # (segment, segment, whether they meet, whether they meet outside their
    # shared ends), each against the segment (0, 0)-(4, 0)
    EARLY_EXITS = (
        # strictly on one side of the other's line: the straddle test exits
        # at its first line in one argument order, at its second in the other
        ((1, 1), (3, 2), False, False),
        ((6, -1), (6, 1), False, False),
        # one endpoint on the other's line
        ((6, 0), (7, 3), False, False),
        ((2, 0), (3, 3), True, True),
        ((4, 0), (5, 3), True, False),
        # collinear
        ((2, 0), (6, 0), True, True),
        ((5, 0), (6, 0), False, False),
        ((4, 0), (6, 0), True, False),
    )

    @pytest.mark.parametrize("c, d, meet, beyond", EARLY_EXITS)
    def test_early_exits_in_both_modes_and_orders(self, c, d, meet, beyond):
        # both questions the library asks of a segment pair, any contact
        # (the straddle test) and contact outside the shared ends
        # (`_meet_beyond_ends`), in every order of segments and of ends
        a, b, c, d = P(0, 0), P(4, 0), P(*c), P(*d)
        orders = [(a, b, c, d), (c, d, a, b), (b, a, d, c), (d, c, b, a)]
        for args in orders:
            assert _meets(*args) == meet == _oracle_meets(*args, "any"), args
            assert _beyond(args[:2], args[2:]) == beyond == _oracle_meets(*args, "proper"), args

    def test_crossing_diagonals(self):
        assert _meet_beyond_ends((P(0, 0), P(2, 2)), (P(0, 2), P(2, 0)))

    def test_shared_endpoint_not_proper(self):
        assert not _meet_beyond_ends((P(0, 0), P(1, 0)), (P(1, 0), P(2, 0)))
        assert not _meet_beyond_ends((P(0, 0), P(1, 0)), (P(1, 0), P(0, 1)))

    def test_shared_endpoint_any(self):
        assert _meets(P(0, 0), P(1, 0), P(1, 0), P(2, 0))

    def test_t_touch_is_proper(self):
        assert _meet_beyond_ends((P(0, 0), P(2, 0)), (P(1, 0), P(1, 5)))

    def test_collinear_overlap(self):
        assert _meet_beyond_ends((P(0, 0), P(3, 0)), (P(1, 0), P(5, 0)))
        # sharing one end, along one ray from it
        assert _meet_beyond_ends((P(0, 0), P(3, 0)), (P(0, 0), P(5, 0)))

    def test_identical_segments_proper(self):
        assert _meet_beyond_ends((P(0, 0), P(3, 0)), (P(0, 0), P(3, 0)))
        assert _meet_beyond_ends((P(0, 0), P(3, 0)), (P(3, 0), P(0, 0)))

    def test_disjoint_collinear(self):
        assert not _meets(P(0, 0), P(1, 0), P(2, 0), P(3, 0))
        assert _meet_only_at_ends([(P(0, 0), P(1, 0)), (P(2, 0), P(3, 0))])

    def test_zero_length_segment_touches_only_its_point(self):
        # a point within the segment's box meets it beyond its ends only on
        # its line and off its ends; the point (5, 0) shares only its y with
        # the segment's end (0, 0), and its box is apart
        edge = (P(0, 0), P(2, 2))
        for point, verdict in (((1, 0), False), ((1, 1), True), ((2, 2), False)):
            point = (P(*point),) * 2
            assert _meet_beyond_ends(point, edge) == _meet_beyond_ends(edge, point) == verdict, point
        for segments in ([edge, (P(5, 0),) * 2], [(P(5, 0),) * 2, edge]):
            assert _meet_only_at_ends(segments)

    coords = st.integers(min_value=-8, max_value=8)

    @given(st.tuples(*(coords,) * 8))
    @settings(max_examples=300, derandomize=True)
    def test_symmetric(self, xs):
        a, b, c, d = P(xs[0], xs[1]), P(xs[2], xs[3]), P(xs[4], xs[5]), P(xs[6], xs[7])
        beyond = _beyond((a, b), (c, d))
        assert beyond == _beyond((c, d), (a, b)) == _beyond((b, a), (d, c))
        if a != b and c != d:
            assert beyond == _oracle_meets(a, b, c, d, "proper")
            assert _meets(a, b, c, d) == _meets(c, d, a, b) == _oracle_meets(a, b, c, d, "any")

    @given(st.tuples(*(coords,) * 6), st.booleans())
    @settings(max_examples=300, derandomize=True)
    def test_zero_length_segment_is_a_point(self, xs, first):
        a, b, c = P(xs[0], xs[1]), P(xs[2], xs[3]), P(xs[4], xs[5])
        pair = ((c, c), (a, b)) if first else ((a, b), (c, c))
        assert _beyond(*pair) == (point_on_segment_2d(c, a, b) and c not in (a, b))


def grid_segments(rng: random.Random) -> list:
    """2 to 6 segments on the 4 x 4 grid, a fifth of them points, drawn
    apart or, on half the draws, chained end to end."""
    chained = rng.random() < 0.5
    a, out = None, []
    for _ in range(rng.randint(2, 6)):
        if a is None or not chained:
            a = P(rng.randrange(4), rng.randrange(4))
        b = a if rng.random() < 0.2 else P(rng.randrange(4), rng.randrange(4))
        out.append((a, b))
        a = b
    return out


class TestMeetOnlyAtEnds:
    def test_matches_the_pairwise_reference(self):
        # the face pass's clean-level check: the sweep agrees with every
        # pair's contact, and the draws cover each kind of contact, a point
        # inside a segment, and sets that meet only in shared ends
        kinds, verdicts = Counter(), Counter()
        for seed in range(500):
            segments = grid_segments(random.Random(seed))
            got = _meet_only_at_ends(segments)
            assert got == segments_meet_only_at_ends_pairwise(segments), segments
            contacts = set()
            for s, t in itertools.combinations(segments, 2):
                kind = segment_contact(s, t)
                contacts.add(kind + (" point" if s[0] == s[1] or t[0] == t[1] else ""))
            kinds.update(contacts)
            verdicts[got, "shared end" in contacts] += 1
        for kind in ("crossing", "inside", "inside point", "overlap", "shared end", "shared end point"):
            assert kinds[kind] > 0, kind
        assert verdicts[True, True] > 0 and verdicts[False, True] > 0 and verdicts[False, False] > 0

    def test_points_and_ends(self):
        edge = (P(0, 0), P(2, 0))
        assert _meet_only_at_ends([edge, (P(2, 0), P(2, 2)), (P(1, 1),) * 2])
        assert not _meet_only_at_ends([edge, (P(1, 0),) * 2])
        assert not _meet_only_at_ends([edge, (P(1, 0), P(1, 2))])
        assert not _meet_only_at_ends([edge, (P(2, 0), P(1, 0))])


class TestEars:
    def test_matches_the_pairwise_reference(self):
        # every triple of seeded generator polygons (convex, star and
        # spiral) and of grid polygons, where flat vertices and touching
        # edges are common, against the reference that tests each vertex
        # in the closed triangle and each edge's contact with each side; a
        # share of the triples turns left and holds no other vertex but is
        # rejected by the edge test alone
        polygons = []
        rng = random.Random(4949)
        for k in range(45):
            polygons.append(random_polygon(rng, rng.randint(4, 12), ("convex", "star", "spiral")[k % 3]).vertices)
        for seed in range(400):
            grid = random.Random(seed)
            polygons.append(grid_polygon(grid, grid.randint(4, 8)))
        tally = Counter()
        for pts in polygons:
            for i, j, k in itertools.combinations(range(len(pts)), 3):
                got = _is_ear(pts, i, j, k)
                assert got == is_ear_pairwise(pts, i, j, k), (pts, i, j, k)
                if got:
                    tally["ear"] += 1
                elif orient2d(pts[i], pts[j], pts[k]) > 0 and not any(
                    point_in_closed_triangle(p, pts[i], pts[j], pts[k])
                    for m, p in enumerate(pts)
                    if m not in (i, j, k)
                ):
                    tally["edge only"] += 1
                else:
                    tally["turn or vertex"] += 1
        assert min(tally.values()) > 500, tally


@given(st.randoms(use_true_random=False), st.integers(3, 8))
@settings(max_examples=200, derandomize=True)
def test_star_grid_draws_match_the_pairwise_references(rng, n):
    # a grid draw that shrinks: simplicity, the clean-level sweep on the
    # polygon's edges (which, with distinct vertices, is simplicity again)
    # and, on simple counterclockwise draws, every triple's ear test, each
    # against its pairwise reference
    pts = star_grid_polygon(rng, n)
    simple = polygon_is_simple(pts)
    assert simple == polygon_is_simple_pairwise(pts)
    edges = [(pts[m - 1], pts[m]) for m in range(n)]
    assert _meet_only_at_ends(edges) == segments_meet_only_at_ends_pairwise(edges) == simple
    if simple and polygon_is_ccw(pts):
        for t in itertools.combinations(range(n), 3):
            assert _is_ear(pts, *t) == is_ear_pairwise(pts, *t), (pts, t)


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
        from reference_figures import fig7_star

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

    def test_fewer_than_three_vertices_is_an_input_error(self):
        for pts in ((), (P(0, 0),), (P(0, 0), P(1, 0))):
            with pytest.raises(InputError):
                polygon_is_simple(pts)
            with pytest.raises(InputError):
                polygon_is_convex(pts)

    def test_orientation_of_fractional_polygons(self):
        # the signed area is taken on the integer copy: a tiny triangle
        # with mixed denominators keeps its orientation either way round
        f = Fraction
        tiny = (P(f(1, 3), f(1, 7)), P(f(2, 5), f(1, 7)), P(f(1, 3), f(2, 11)))
        assert polygon_is_ccw(tiny)
        assert not polygon_is_ccw(tiny[::-1])

    def test_matches_independent_pairwise_check(self):
        # oracle: literal quadratic-time re-derivation with its own segment
        # test: no two edges may share a point other than a common vertex
        def oracle(pts):
            n = len(pts)
            if len({(q.x, q.y) for q in pts}) != n:
                return False
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = pts[i], pts[(i + 1) % n]
                    c, d = pts[j], pts[(j + 1) % n]
                    if _oracle_meets(a, b, c, d, "proper"):
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

    def test_fold_test_matches_the_segment_test_on_adjacent_edges(self):
        # the closed-form fold test against `polygon_is_simple_pairwise`,
        # which asks `segment_contact` of every pair of adjacent edges: small int and Fraction grids, where collinear
        # vertices are common, with vertices put straight through or folded
        # back along the previous edge, and polygons on one line
        rng = random.Random(19)
        tally = Counter()
        for k in range(6000):
            n = rng.randint(3, 7)
            d = 1 if k % 2 else rng.choice((2, 3, 6))
            r = rng.choice((2, 3))

            def grid_point():
                return P(Fraction(rng.randint(0, r * d), d), Fraction(rng.randint(0, r * d), d))

            if rng.random() < 0.1:  # all vertices on one line
                a, b = grid_point(), grid_point()
                pts = [P(a.x + m * (b.x - a.x), a.y + m * (b.y - a.y)) for m in rng.sample(range(-3, 4), n)]
            else:
                pts = [grid_point() for _ in range(n)]
                for _ in range(rng.randint(0, 2)):
                    # vertex i + 2 continues edge (i, i + 1) forwards or back
                    i = rng.randrange(n)
                    a, b = pts[i], pts[(i + 1) % n]
                    s = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
                    pts[(i + 2) % n] = P(b.x + s * (b.x - a.x), b.y + s * (b.y - a.y))
            for i in range(n):
                a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
                if orient2d(a, b, c):
                    tally["turn"] += 1
                elif a != b != c:
                    dot = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
                    tally["fold-back" if dot < 0 else "straight-through"] += 1
            if all(orient2d(pts[0], pts[1], p) == 0 for p in pts) and pts[0] != pts[1]:
                tally["flat"] += 1
            verdict = polygon_is_simple(pts)
            tally[verdict] += 1
            assert verdict == polygon_is_simple_pairwise(pts), pts
        assert min(tally.values()) > 500, tally

    def test_straddle_test_matches_the_segment_test_where_boxes_meet(self):
        # the straddle lemma of `polygon_is_simple`: on small int and
        # Fraction grids, full of collinear, touching and overlapping
        # edges, every non-adjacent edge pair whose closed boxes meet, as
        # the kernel sweeps them on the integer copy, gets from
        # `_edges_meet` the verdict of `common_points` on the given points
        rng = random.Random(23)
        tally = Counter()
        for k in range(3000):
            n = rng.randint(4, 8)
            d = 1 if k % 2 else rng.choice((2, 3, 6))
            r = rng.choice((2, 3))

            def coordinate():
                return rng.randint(0, r) if d == 1 else Fraction(rng.randint(0, r * d), d)

            pts = []
            while len(pts) < n:
                if len(pts) >= 2 and rng.random() < 0.4:
                    # continue the last edge forwards or back along its line
                    a, b = pts[-2], pts[-1]
                    f = rng.randint(1, 3) if d == 1 else Fraction(rng.randint(1, 4), rng.randint(1, 3))
                    f *= rng.choice((1, -1))
                    p = P(b.x + f * (b.x - a.x), b.y + f * (b.y - a.y))
                else:
                    p = P(coordinate(), coordinate())
                if p not in pts:
                    pts.append(p)
            q = _integer_polygon(pts)
            # edge m runs from vertex m - 1 to vertex m, as in the kernel
            edges = [(*q[m - 1], *q[m], q[m][0] - q[m - 1][0], q[m][1] - q[m - 1][1]) for m in range(n)]
            boxes = [(min(e[0], e[2]), max(e[0], e[2]), min(e[1], e[3]), max(e[1], e[3])) for e in edges]
            for j, m in _box_pairs(boxes):
                if (m - j) % n in (1, n - 1):
                    continue
                a, b, c, e = pts[j - 1], pts[j], pts[m - 1], pts[m]
                meet = bool(common_points(a, b, c, e))
                assert _edges_meet(edges[j], edges[m]) == meet, (pts, j, m)
                sides = (orient2d(a, b, c), orient2d(a, b, e), orient2d(c, e, a), orient2d(c, e, b))
                if sides[0] == sides[1] == 0:
                    assert meet  # on one line, meeting boxes mean meeting extents
                    tally["collinear"] += 1
                elif meet:
                    tally["touch" if 0 in sides else "cross"] += 1
                else:
                    tally["apart"] += 1
        assert min(tally.values()) > 200, tally

    def test_points_and_plain_tuples_answer_alike(self):
        # the polygon predicates take any (x, y) pairs: `Point2`s, and
        # plain tuples of ints or of `Fraction`s
        rng = random.Random(29)
        verdicts = Counter()
        for k in range(600):
            n = rng.randint(3, 9)
            d = 1 if k % 2 else rng.choice((2, 3))

            def coordinate():
                return rng.randint(-4, 4) if d == 1 else Fraction(rng.randint(-4 * d, 4 * d), d)

            pts = [P(coordinate(), coordinate()) for _ in range(n)]
            if k % 3 == 0:  # star-shaped order, so simple polygons are common
                pts.sort(key=lambda p: math.atan2(p.y - 0.1, p.x - 0.2))
            tuples = [(p.x, p.y) for p in pts]
            assert all(type(t) is tuple for t in tuples)
            verdict = polygon_is_simple(pts)
            assert polygon_is_simple(tuples) == verdict, pts
            assert polygon_signed_area2(tuples) == polygon_signed_area2(pts), pts
            assert polygon_is_ccw(tuples) == polygon_is_ccw(pts), pts
            verdicts[verdict, d == 1] += 1
        assert len(verdicts) == 4 and min(verdicts.values()) > 50, verdicts

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
        from reference_figures import fig1_twisted_prism
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
            if not is_degenerate(t):
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
                for a, b, c in zip(*t)
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

            t1 = (point(2), point(2), point(2))
            if is_degenerate(t1):
                continue
            verts = [point(), point(), point()]
            for k in rng.sample(range(3), rng.choice((0, 0, 1, 2))):
                verts[k] = on_plane(t1, rng.randint(-1, 2), rng.randint(-1, 2))
            t2 = tuple(verts)
            if is_degenerate(t2) or set(t1) & set(t2):
                continue
            sides = [orient3d(*t1, v) for v in t2]
            if sides == [0, 0, 0]:
                continue
            hit = open_triangles_intersect_3d(t1, t2)
            oracle = any(
                segment_triangle_contact_3d(u[i], u[i - 1], w)
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
            t1 = (a, b, c)
            if is_degenerate(t1):
                continue
            m, k = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
            coplanar = rng.random() < 0.3
            if coplanar:
                d = V(*(p + m * (q - p) + k * (r - p) for p, q, r in zip(a, b, c)))
            else:
                d = point()
            verts = [a, b, d]
            rng.shuffle(verts)
            t2 = tuple(verts)
            if is_degenerate(t2) or d in t1:
                continue
            on_plane = orient3d(a, b, c, d) == 0
            hit = open_triangles_intersect_3d(t1, t2)
            assert hit == open_triangles_intersect_3d(t2, t1)
            if on_plane:
                # d lies on c's side of AB iff (b - a) x (d - a) points along t1's normal
                above = V(*(p + q for p, q in zip(a, triangle_normal(t1))))
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
            t1, t2 = (v, b, c), tuple(rng.sample((v, d, e), 3))
            if is_degenerate(t1) or is_degenerate(t2) or len({b, c, d, e} - {v}) < 4:
                continue
            if [orient3d(v, b, c, p) for p in (d, e)] == [0, 0]:
                continue  # coplanar
            hit = open_triangles_intersect_3d(t1, t2)
            assert hit == open_triangles_intersect_3d(t2, t1)
            oracle = segment_triangle_contact_3d(b, c, t2) or segment_triangle_contact_3d(d, e, t1)
            assert hit == oracle, (t1, t2)
            s1 = [orient3d(*t2, p) for p in (b, c)]
            s2 = [orient3d(*t1, p) for p in (d, e)]
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
            if orient3d(*t, p) != 0:
                return False
            n = triangle_normal(t)
            axis = max(range(3), key=lambda k: abs(n[k]))
            def proj(q):
                c = (q.x, q.y, q.z)
                return P(c[(axis + 1) % 3], c[(axis + 2) % 3])
            a, b, c = (proj(v) for v in t)
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
            shared_v = [p for p in t1 if p in t2]
            edges2 = {
                frozenset(((e[0].x, e[0].y, e[0].z), (e[1].x, e[1].y, e[1].z)))
                for e in ((t2[0], t2[1]), (t2[1], t2[2]), (t2[2], t2[0]))
            }
            shared_e = [
                (u, w)
                for u, w in ((t1[0], t1[1]), (t1[1], t1[2]), (t1[2], t1[0]))
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
                            u * src[0].x + v * src[1].x + w * src[2].x,
                            u * src[0].y + v * src[1].y + w * src[2].y,
                            u * src[0].z + v * src[1].z + w * src[2].z,
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


def cross2(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def hull_vertices(points) -> set:
    """The extreme points of a finite set (Andrew's monotone chain, with
    collinear boundary points dropped)."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(pts) <= 2:
        return set(pts)
    chain = []
    for seq in (pts, pts[::-1]):
        half = []
        for p in seq:
            while len(half) >= 2 and cross2(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        chain += half[:-1]
    return set(chain)


def reference_region(s, c) -> set:
    """Extreme points of the intersection of two closed 2D triangles, built
    from the vertices of each inside the other and the exact crossings of
    their edges."""

    def inside(p, t):
        ref = cross2(*t)
        return all(cross2(t[i], t[(i + 1) % 3], p) * ref >= 0 for i in range(3))

    points = [p for p in s if inside(p, c)] + [p for p in c if inside(p, s)]
    for i in range(3):
        p, q = s[i], s[(i + 1) % 3]
        for j in range(3):
            u, v = c[j], c[(j + 1) % 3]
            d = (q.x - p.x) * (v.y - u.y) - (q.y - p.y) * (v.x - u.x)
            if d == 0:
                continue  # parallel: any overlap ends at vertices inside
            t = Fraction((u.x - p.x) * (v.y - u.y) - (u.y - p.y) * (v.x - u.x), d)
            w = Fraction((u.x - p.x) * (q.y - p.y) - (u.y - p.y) * (q.x - p.x), d)
            if 0 <= t <= 1 and 0 <= w <= 1:
                points.append(P(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    return hull_vertices(points)


class TestCoplanarClip:
    def test_vertex_inside_the_other_triangle(self):
        # (3, 1) lies inside the second triangle; midpoint cuts missed it
        t1 = tri((5, 7, 0), (3, 1, 0), (3, 8, 0))
        t2 = tri((2, 0, 0), (6, 0, 0), (2, 4, 0))
        assert open_triangles_intersect_3d(t1, t2)
        assert open_triangles_intersect_3d(t2, t1)

    def test_apart_in_a_vertical_plane(self):
        t1 = tri((10, 8, Fraction(6, 7)), (8, 4, 1), (6, 0, 1))
        t2 = tri((10, 8, Fraction(5, 7)), (18, 24, Fraction(5, 7)), (18, 24, Fraction(6, 7)))
        assert not open_triangles_intersect_3d(t1, t2)
        assert not open_triangles_intersect_3d(t2, t1)

    def test_coplanar_verdict_is_symmetric(self):
        # an exact oracle: the verdict, in both argument orders, is True iff
        # the intersection has a point off the structure the triangles share.
        # Pairs on a 7 x 7 grid with 0 to 3 vertices in common are lifted
        # onto sloped planes z = sx x + sy y and onto vertical planes, the
        # walls of a layered gap
        rng = random.Random(41)
        lifts = (
            lambda x, y: (x, y, 0),
            lambda x, y: (x, y, x + 2 * y),
            lambda x, y: (x, y, -3 * x + y),
            lambda x, y: (x, 0, y),
            lambda x, y: (0, x, y),
            lambda x, y: (x, 2 * x, y),
        )

        def triangle():
            while True:
                t = [P(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
                if orient2d(*t) != 0:
                    return t

        def on_segment(p, a, b):
            return (
                cross2(a, b, p) == 0
                and min(a.x, b.x) <= p.x <= max(a.x, b.x)
                and min(a.y, b.y) <= p.y <= max(a.y, b.y)
            )

        seen = Counter()
        while sum(seen.values()) < 4000:
            s, c = triangle(), triangle()
            for k, m in zip(rng.sample(range(3), rng.choice((0, 1, 1, 2, 2))), rng.sample(range(3), 3)):
                c[k] = s[m]  # copy vertex m of s into c
            if orient2d(*c) == 0:
                continue
            shared = [p for p in s if p in c]
            region = reference_region(s, c)
            if len(region) >= 3:
                expected = True  # a positive-area overlap is never legal
            elif not region:
                expected = False
            else:
                ends = list(region)
                expected = not (
                    (len(ends) == 1 and ends[0] in shared)
                    or any(all(on_segment(p, a, b) for p in ends) for a, b in itertools.combinations(shared, 2))
                )
            lift = rng.choice(lifts)
            t1, t2 = (tri(*(lift(p.x, p.y) for p in t)) for t in (s, c))
            verdict = open_triangles_intersect_3d(t1, t2)
            assert verdict == open_triangles_intersect_3d(t2, t1) == expected, (s, c, lift(1, 1))
            seen[len(shared), verdict] += 1
        assert all(seen[k, hit] >= 100 for k in (0, 1, 2) for hit in (True, False)), seen


def band_quad(p0, p1, q1, q0):
    """A band quad (p0, p1, q1, q0) from four xy points, the p's at z = 0
    and the q's at z = 1."""
    return (*p0, 0), (*p1, 0), (*q1, 1), (*q0, 1)


def grid_quads(x0=0, x1=4):
    """Band quads on the 5 x 5 grid, with x in [x0, x1]: shared vertices,
    touching boxes and zero-length edges are common."""
    point = st.tuples(st.integers(x0, x1), st.integers(0, 4))
    return st.tuples(point, point, point, point)


# the symmetries of the grid that keep x or swap it with y, with or
# without a mirror, so that draws split along x also split along y
GRID_TURNS = (lambda x, y: (x, y), lambda x, y: (4 - x, y), lambda x, y: (y, x), lambda x, y: (y, 4 - x))


@st.composite
def grid_quad_pairs(draw):
    """Two band quads anywhere on the grid, or one on the columns 0..2 and
    the other on 2..4, under one of `GRID_TURNS`."""
    a, b = draw(st.one_of(st.tuples(grid_quads(), grid_quads()), st.tuples(grid_quads(0, 2), grid_quads(2, 4))))
    turn = draw(st.sampled_from(GRID_TURNS))
    return band_quad(*(turn(*p) for p in a)), band_quad(*(turn(*p) for p in b))


class TestEndsApart:
    def test_dismissal_implies_sections_apart(self):
        # `_ends_apart` is symmetric, and a pair it sets apart has no zero
        # difference and is apart by `_sections_apart`, both ways round;
        # some of those pairs have boxes that meet, so the test dismisses
        # pairs that the box test keeps
        seen = Counter()

        @settings(max_examples=1500, derandomize=True, deadline=None)
        @given(grid_quad_pairs())
        def check(pair):
            a, b = pair
            apart = _ends_apart(_end_boxes(a), _end_boxes(b))
            assert apart == _ends_apart(_end_boxes(b), _end_boxes(a))
            if apart:
                for d in (_xy_differences(a, b), _xy_differences(b, a)):
                    assert (0, 0) not in d and _sections_apart(d)
                (x0, x1, y0, y1), (u0, u1, v0, v1) = _box(_end_boxes(a)), _box(_end_boxes(b))
                seen["boxes meet"] += x0 <= u1 and u0 <= x1 and y0 <= v1 and v0 <= y1
            seen[apart] += 1

        check()
        assert seen[True] > 100 and seen[False] > 100 and seen["boxes meet"] > 10, seen

    @pytest.mark.parametrize("turn", [lambda x, y: (x, y), lambda x, y: (-y, x)])
    def test_touching_end_boxes_are_not_dismissed(self, turn):
        # the bottom boxes touch at x = 1, an equal coordinate, while the
        # top boxes lie strictly apart; the bottom edges share the vertex
        # (1, 0), so the bodies meet and the pair must not be dismissed
        # (the quarter turn puts the touch on a y boundary)
        a = band_quad(*(turn(*p) for p in ((0, 0), (1, 0), (1, 1), (0, 1))))
        b = band_quad(*(turn(*p) for p in ((1, 0), (2, 0), (4, 1), (3, 1))))
        assert not _ends_apart(_end_boxes(a), _end_boxes(b))
        assert not _ends_apart(_end_boxes(b), _end_boxes(a))
        assert not _sections_apart(_xy_differences(a, b))

    def test_ends_apart_on_different_axes_are_kept(self):
        # the bottoms lie apart along x and the tops along y: the bodies are
        # apart, but no one axis and order holds at both levels, so the end
        # test keeps the pair for `_sections_apart`, which dismisses it
        a = band_quad((0, 0), (1, 0), (1, 1), (0, 1))
        b = band_quad((2, 0), (3, 0), (1, 2), (0, 2))
        assert not _ends_apart(_end_boxes(a), _end_boxes(b))
        assert _sections_apart(_xy_differences(a, b))


GRID = [(x, y) for x in range(5) for y in range(5)]

@pytest.mark.parametrize("horizon", [(1, 1), (2, 3)])
def test_horizon_band_boxes_are_the_boxes_of_their_points(horizon):
    # `_horizon_bands` takes each band's box as the union of its end boxes
    # (`_box`): it must be the plain min/max box of the band's four points,
    # and hold both end boxes, which are the boxes of the bottom pair and
    # of the top pair; seeded draws on the 5 x 5 grid, at H = 1 and at a
    # fractional horizon
    rng = random.Random(0)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(3, 6)
        boxes, ends, bands = _horizon_bands([rng.randrange(5) for _ in range(4 * n)], horizon)
        for box, end, band in zip(boxes, ends, bands):
            xs, ys = [p[0] for p in band], [p[1] for p in band]
            x0, x1, y0, y1 = box
            assert box == (min(xs), max(xs), min(ys), max(ys)), band
            pairs = [band[:2], band[2:]]
            assert end == tuple(c for pair in pairs for k in (0, 1) for c in sorted(p[k] for p in pair))
            assert all(x0 <= u0 <= u1 <= x1 and y0 <= v0 <= v1 <= y1 for u0, u1, v0, v1 in (end[:4], end[4:]))
            points = {p[:2] for p in band}
            seen["shared coordinate"] += len(set(xs)) < 4 or len(set(ys)) < 4
            seen["degenerate"] += any(p[:2] == q[:2] for p, q in pairs)
            seen["collinear"] += len(points) > 2 and all(orient2d(*t) == 0 for t in itertools.combinations(points, 3))
        for (x0, x1, y0, y1), (u0, u1, v0, v1) in itertools.combinations(boxes, 2):
            seen["touching"] += x1 == u0 or u1 == x0 or y1 == v0 or v1 == y0
    assert min(seen[k] for k in ("shared coordinate", "degenerate", "collinear", "touching")) >= 10, seen


# the zeros a level can hold when each quad has two distinct points there:
# none, one of a's points as one of b's, or both
LEVEL_ZEROS = ((), (0,), (1,), (2,), (3,), (0, 3), (1, 2))


def _zeros(bottom, top):
    return bottom + tuple(4 + k for k in top)


# every zero pattern of two such quads, in the classes that `_quads_apart`
# routes apart; the last two overlap
ZERO_PATTERNS = {
    "no zero": [()],
    "path edge": [(2, 5), (1, 6)],
    # a chord of one quad on a side or a chord of the other, e.g. (2, 4),
    # or two sides in the orientation no two bands of a polygon take
    "other shared segment": [_zeros((i,), (j,)) for i in range(4) for j in range(4) if (i, j) not in ((2, 1), (1, 2))],
    "zeros on one level only": [_zeros(z, ()) for z in LEVEL_ZEROS[1:]] + [_zeros((), z) for z in LEVEL_ZEROS[1:]],
    "two zeros on one level": [
        _zeros(b, t) for b in LEVEL_ZEROS for t in LEVEL_ZEROS if max(len(b), len(t)) == 2
    ],
}


@st.composite
def quad_pairs_sharing(draw, patterns):
    """Two band quads on the 5 x 5 grid, as `band_quad` gives them, with
    two distinct points at each level, whose 8 `_xy_differences` are zero
    exactly at one of `patterns`: a's point k and b's point m are equal at
    a level iff 2k + m, plus 4 at the top, is in the pattern."""
    zeros = draw(st.sampled_from(patterns))
    a, b = [], []
    for level in (0, 1):
        mine = draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True))
        theirs = [None, None]
        for k, m in itertools.product(range(2), range(2)):
            if 4 * level + 2 * k + m in zeros:
                theirs[m] = mine[k]
        for m in range(2):
            if theirs[m] is None:
                theirs[m] = draw(st.sampled_from([p for p in GRID if p not in mine and p not in theirs]))
        a += mine
        b += theirs
    return zeros, band_quad(*a), band_quad(*b)


@pytest.mark.parametrize("pattern_class", sorted(ZERO_PATTERNS))
def test_quads_apart_dismisses_only_proper_triangle_pairs(pattern_class):
    # a dismissal by `_quads_apart` leaves every triangle on three points of
    # one quad proper against every triangle on three points of the other,
    # by `open_triangles_intersect_3d`; with no zero the verdict is the
    # sections lemma's, and it dismisses nothing unless the quads share
    # exactly one point at each level.  No valid instance's conflict table
    # reaches the shared segments that are not path edges
    seen, verdicts = set(), Counter()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(quad_pairs_sharing(ZERO_PATTERNS[pattern_class]))
    def check(pair):
        zeros, a, b = pair
        d = _xy_differences(a, b)
        assert tuple(k for k, v in enumerate(d) if v == (0, 0)) == zeros
        apart = _quads_apart(d)
        if not zeros:
            assert apart == _sections_apart(d)
        elif sum(k < 4 for k in zeros) != 1 or len(zeros) != 2:
            assert not apart
        else:
            assert apart == _shared_edge_apart(d, *zeros)
        if apart:
            for t1, t2 in itertools.product(itertools.combinations(a, 3), itertools.combinations(b, 3)):
                assert not open_triangles_intersect_3d(tri(*t1), tri(*t2)), (a, b)
        seen.add((a, b))
        verdicts[apart] += 1

    check()
    assert len(seen) >= 50, len(seen)
    if pattern_class in ("no zero", "path edge", "other shared segment"):
        assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
