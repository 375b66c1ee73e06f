import contextlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import geometry_reference
import pytest
import quadfield_reference as ref
from generators import (
    convex_grid_polygon,
    grid_polygon,
    jiggled_instance,
    random_convex_polygon,
    random_polygon,
    random_star_polygon,
    rotate_copy_instance,
    rotated_instance,
    similar_copy_instance,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_figures import fig3b_sat_nonplanar, fig7_star

from banded import geometry, model, morph, quadfield, solver
from banded.errors import AllPointsEqualError, InputError, PreconditionError
from banded.geometry import (
    Point2,
    _sections_apart,
    _xy_differences,
    orient2d,
    polygon_is_ccw,
    polygon_is_convex,
    polygon_is_simple,
)
from banded.model import (
    Chord,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    verify_banded_surface,
)
from banded.morph import (
    _rotated,
    convex_chord_rule,
    morph_position,
    planarity_preserving,
    similarity_witness,
)
from banded.quadfield import ExactTime, roots_in_open_interval
from banded.solver import brute_force_assignments, solve_no_steiner
from banded.steiner import build_layered_surface
from test_morph_verdicts import drawn

SQUARE = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))


def _edge_contact(pts, i: int, j: int) -> str:
    """How edges i and j of the polygon `pts` meet, by the reference
    `segment_contact`."""
    n = len(pts)
    return geometry_reference.segment_contact((pts[i], pts[(i + 1) % n]), (pts[j], pts[(j + 1) % n]))


class TestMorphPosition:
    def test_endpoints_exact(self):
        rng = random.Random(0)
        inst = similar_copy_instance(rng, random_convex_polygon(rng, 6))
        assert morph_position(inst, 0).vertices == inst.source.vertices
        assert morph_position(inst, 1).vertices == inst.target.vertices

    def test_translation_commutes(self):
        # moving the target polygon by s moves the time-t snapshot by t*s
        rng = random.Random(1)
        for k in range(25):
            poly = random_star_polygon(rng, rng.randint(3, 8))
            inst = jiggled_instance(rng, poly)
            s = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            shifted = SliceInstance(inst.source, inst.target.translated(*s))
            for t in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)):
                base = morph_position(inst, t).vertices
                moved = morph_position(shifted, t).vertices
                assert all(
                    q == Point2(p.x + t * s[0], p.y + t * s[1])
                    for p, q in zip(base, moved)
                )

    def test_half_turn_collapses_to_center(self):
        tri = LabeledPolygon((Point2(4, 0), Point2(-2, 3), Point2(-2, -3)), 0)
        inst = rotate_copy_instance(tri, Point2(0, 0), (-1, 0))
        snap = morph_position(inst, Fraction(1, 2))
        assert all(p == Point2(0, 0) for p in snap.vertices)

    def test_time_range(self):
        tri = LabeledPolygon((Point2(4, 0), Point2(-2, 3), Point2(-2, -3)), 0)
        inst = rotate_copy_instance(tri, Point2(0, 0), (1, 0))
        with pytest.raises(PreconditionError):
            morph_position(inst, Fraction(3, 2))


class TestPlanarity:
    def test_convex_rotation_preserved(self):
        rng = random.Random(2)
        for _ in range(5):
            poly = random_convex_polygon(rng, rng.randint(4, 8))
            inst = rotate_copy_instance(poly, Point2(rng.randint(-3, 3), rng.randint(-3, 3)), (Fraction(3, 5), Fraction(4, 5)))
            assert planarity_preserving(inst).preserved

    def test_fig3b_violated_around_half(self):
        verdict = planarity_preserving(fig3b_sat_nonplanar().instance)
        assert not verdict.preserved
        lo, hi = verdict.interval
        assert lo < Fraction(1, 2) < hi
        assert verdict.kind == "orientation_flip"
        # the witness interval midpoint itself violates: the snapshot there is inverted
        mid = (lo + hi) / 2
        snap = morph_position(fig3b_sat_nonplanar().instance, mid)
        assert orient2d(*snap.vertices) < 0

    def test_fig7_star_preserved(self):
        assert planarity_preserving(fig7_star().instance).preserved

    def test_edge_contact_detected(self):
        src = (Point2(1, -1), Point2(3, 4), Point2(-2, -1), Point2(-5, -5))
        tgt = (Point2(2, 4), Point2(-1, -1), Point2(3, -2), Point2(1, 0))
        inst = SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(tgt, 1))
        verdict = planarity_preserving(inst)
        assert not verdict.preserved
        assert verdict.kind == "edge_contact"
        assert not verdict.instantaneous
        # midpoint of the reported interval shows the two edges in contact
        i, j = verdict.subjects
        mid = sum(verdict.interval, Fraction(0)) / 2
        snap = morph_position(inst, mid).vertices
        assert _edge_contact(snap, i, j) != "apart"

    def test_angle_collapse_detected(self):
        src = (Point2(0, 0), Point2(4, 0), Point2(4, 3), Point2(-4, 3))
        tgt = (Point2(-1, 5), Point2(2, -2), Point2(4, 4), Point2(5, 4))
        inst = SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(tgt, 1))
        verdict = planarity_preserving(inst)
        assert not verdict.preserved
        assert verdict.kind == "angle_collapse"
        assert verdict.instantaneous
        assert verdict.interval[0] == verdict.interval[1] == Fraction(8, 9)

    def test_vertex_collision_detected(self):
        src = (Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4))
        tgt = (Point2(4, 0), Point2(0, 0), Point2(4, 4), Point2(0, 4))
        # vertices 0 and 1 swap places, colliding at t=1/2; the target is
        # not simple, so the kernel decides it on its own frame
        inst = SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(tgt, 1))
        verdict = morph._decide(*model._frame(inst))
        assert not verdict.preserved

    def test_tangential_touch_counts_as_violation(self):
        # vertex 3 moves to the edge's supporting line and returns; grazing
        # contact at one instant must be reported (the target is not simple)
        src = (Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(2, 2))
        tgt = (Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(2, Fraction(-2)))
        inst = SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(tgt, 1))
        verdict = morph._decide(*model._frame(inst))
        assert not verdict.preserved


def _instance(src, tgt) -> SliceInstance:
    return SliceInstance(
        LabeledPolygon(tuple(Point2(*p) for p in src), 0),
        LabeledPolygon(tuple(Point2(*p) for p in tgt), 1),
    )


def _verdict_tuple(v):
    return (v.preserved, v.kind, v.subjects, v.interval, v.instantaneous)


class TestKernel:
    def test_certificates_agree_with_root_isolation(self):
        # every quadratic with coefficients in -4..4: double roots, roots at
        # exactly 0 and 1, linear and constant ones, and the zero polynomial
        # (the constant-sign test is exact: a sign exactly when there is no
        # root inside and q is not zero, and then q has it everywhere)
        samples = [Fraction(k, 16) for k in range(1, 16)]
        for q in itertools.product(range(-4, 5), repeat=3):
            roots = roots_in_open_interval(*q, 1)
            assert morph._has_root01(q) == bool(roots), q
            signs = set()
            for t in samples:
                v = ref.poly_eval(q, t)
                signs.add((v > 0) - (v < 0))
                assert ExactTime(t.numerator, t.denominator).sign(q) == (v > 0) - (v < 0)
            for r in roots:
                assert r.sign(q) == 0
            sign = morph._constant_sign(q)
            assert bool(sign) == (not roots and any(q)), q
            if sign:
                assert signs == {sign}, q

    def test_roots_do_not_depend_on_the_scale(self):
        # roots of a scaled quadratic keep the brackets of the unscaled one
        for q in itertools.product(range(-4, 5), repeat=3):
            kk = 36
            scaled = morph._roots01(tuple(c * kk for c in q), kk)
            plain = roots_in_open_interval(*q, 1)
            assert len(scaled) == len(plain), q
            for a, b in zip(scaled, plain):
                assert a.compare(b) == 0 and (a.q == 0) == (b.q == 0), q
                assert a.bounds() == b.bounds(), q
                a.refine(), b.refine()
                assert a.bounds() == b.bounds(), q

    def test_sign_at_a_quadratic_irrationality(self):
        # t = (1 + sqrt(3)) / 4 is a root of 8t^2 - 4t - 1
        t = ExactTime(1, 4, 1, 3)
        assert t.sign((-1, -4, 8)) == 0
        assert t.sign((0, -1, 2)) == 1  # 2t^2 - t = 1/4 there
        assert t.sign((1, -4, 0)) == -1  # 1 - 4t = -sqrt(3)

    def test_collision_times(self):
        def moving(p, q):
            return morph._MovingPoint(*p, *q)

        # along one line towards each other, meeting at t = 1/2
        half = [Fraction(1, 2)]
        assert morph._collision_times(moving((0, 0), (4, 0)), moving((4, 0), (0, 0))) == half
        # the same with the other axis constant
        assert morph._collision_times(moving((2, 0), (2, 4)), moving((2, 4), (2, 0))) == half
        # meeting only at t = 0 or at t = 1: excluded
        assert morph._collision_times(moving((0, 0), (4, 0)), moving((0, 0), (0, 4))) == []
        assert morph._collision_times(moving((0, 0), (4, 4)), moving((4, 0), (4, 4))) == []
        # dx keeps a strict sign on [0, 1]
        assert morph._collision_times(moving((0, 0), (4, 0)), moving((1, 3), (5, -3))) == []
        with pytest.raises(InputError):
            morph._collision_times(moving((1, 1), (2, 3)), moving((1, 1), (2, 3)))

    def test_collision_times_match_a_fraction_reference(self):
        # every pair of int differences x0 + x1 t and y0 + y1 t with
        # coefficients in [-3, 3]: the candidate roots -x0 / x1 and -y0 / y1
        # in (0, 1) at which both differences vanish, and identical travel
        # an input error
        span = range(-3, 4)
        for x0, x1, y0, y1 in itertools.product(span, repeat=4):
            a, b = morph._MovingPoint(x0, y0, x0 + x1, y0 + y1), morph._MovingPoint(0, 0, 0, 0)
            if x0 == x1 == y0 == y1 == 0:
                with pytest.raises(InputError):
                    morph._collision_times(a, b)
                continue
            roots = {Fraction(-c0, c1) for c0, c1 in ((x0, x1), (y0, y1)) if c1}
            expected = sorted(t for t in roots if 0 < t < 1 and x0 + x1 * t == 0 and y0 + y1 * t == 0)
            assert morph._collision_times(a, b) == expected, (x0, x1, y0, y1)

    def test_box_pairs_match_all_pairs(self):
        # `geometry._box_pairs`, which prunes the morph's edge pairs, yields
        # every pair of closed boxes that meet exactly once, the earlier box
        # in its min-x sweep (ties by index) first and grouped by the later
        # one; boxes that only touch and zero-width boxes count
        rng = random.Random(17)
        touching = flat = 0
        for _ in range(300):
            count = rng.randint(0, 12)
            g = rng.choice((2, 4, 8))
            boxes = []
            for _ in range(count):
                x0, x1 = sorted(rng.randint(0, g) for _ in range(2))
                y0, y1 = sorted(rng.randint(0, g) for _ in range(2))
                boxes.append((x0, x1, y0, y1))
            rank = {k: r for r, k in enumerate(sorted(range(count), key=lambda k: boxes[k][0]))}
            found = list(geometry._box_pairs(boxes))
            assert all(rank[j] < rank[k] for j, k in found), boxes
            assert [rank[k] for _, k in found] == sorted(rank[k] for _, k in found), boxes
            expected = []
            for j, k in itertools.combinations(range(count), 2):
                a, b = boxes[j], boxes[k]
                if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                    expected.append((j, k))
                    touching += a[0] == b[1] or b[0] == a[1] or a[2] == b[3] or b[2] == a[3]
            assert sorted((min(p), max(p)) for p in found) == expected, boxes
            flat += sum(x0 == x1 or y0 == y1 for x0, x1, y0, y1 in boxes)
        assert touching >= 100 and flat >= 100

    # a U whose arms carry a spike each, tips on the line x = 5: the left tip
    # moves down past the right one, so the two meet at t = 1/2 where every
    # edge pair involved has boxes that meet only along x = 5
    U_ARMS = (
        (0, 0), (10, 0), (10, 10), (7, 10), (7, 6), (5, 5), (7, 4),
        (7, 2), (3, 2), (3, 4), None, (3, 6), (3, 10), (0, 10),
    )

    @pytest.mark.parametrize("quarter_turn", [False, True])
    def test_contact_on_a_box_boundary(self, quarter_turn):
        def polygon(tip):
            pts = [tip if p is None else p for p in self.U_ARMS]
            return [(-y, x) for x, y in pts] if quarter_turn else pts

        inst = _instance(polygon((5, 7)), polygon((5, 3)))
        inst.validate()
        half = Fraction(1, 2)
        assert _verdict_tuple(planarity_preserving(inst)) == (
            False, "edge_contact", (4, 9), (half, half), True
        )

    # vertex 3 grazes edge 0 at t = 1/2 (a double root of the orientation)
    TOUCH = (
        ((0, 0), (4, 2), (6, 4), (2, Fraction(3, 2)), (-2, 4)),
        ((0, 0), (4, -2), (6, 4), (4, Fraction(-3, 2)), (-2, 4)),
    )

    def test_contacts_at_the_endpoints_are_excluded(self):
        inst = _instance(*self.TOUCH)
        inst.validate()

        def sub(a, b):
            # the linear morph restricted to [a, b] is the linear morph
            # between the snapshots at a and b
            return SliceInstance(
                LabeledPolygon(morph_position(inst, a).vertices, 0),
                LabeledPolygon(morph_position(inst, b).vertices, 1),
            )

        # the snapshot at 1/2 is not simple, so the kernel decides the two
        # halves on their own frames
        half = Fraction(1, 2)
        assert morph._decide(*model._frame(sub(0, half))).preserved
        assert morph._decide(*model._frame(sub(half, 1))).preserved
        for a, b, t in ((Fraction(1, 4), 1, Fraction(1, 3)), (0, Fraction(3, 4), Fraction(2, 3))):
            assert _verdict_tuple(planarity_preserving(sub(a, b))) == (
                False, "edge_contact", (0, 2), (t, t), True
            )


def _reference_time(t: ExactTime):
    """t as a Fraction, or as a reference `QuadExt` when it is irrational."""
    if not t.q:
        return Fraction(t.p, t.r)
    return ref.QuadExt(Fraction(t.p, t.r), Fraction(t.q, t.r), t.d)


def _position(m, t) -> Point2:
    return Point2(m.x[0] + m.x[1] * t, m.y[0] + m.y[1] * t)


class TestContactFallback:
    def test_integer_contact_matches_segments_intersect(self, monkeypatch):
        # every time at which the exhaustive scan tests an edge pair in the
        # golden stream: its events, its piece samples and its tightening
        # midpoints; the first-run scan tests a subset of them, which misses
        # the collinear disjoint case on this stream
        seen = []
        original = morph._predicate

        def recording(kind, points, polys):
            predicate = original(kind, points, polys)
            if kind != "edge_contact":
                return predicate

            def record(t):
                got = predicate(t)
                seen.append((points, t, got))
                return got

            return record

        monkeypatch.setattr(morph, "_predicate", recording)
        with _exhaustive():
            for seed in range(200):
                planarity_preserving(drawn(seed))
        # as many as the scan of every run that the first-run scan replaced
        assert len(seen) == 16781
        cases = {"zero-length edge": 0, "collinear overlap": 0, "collinear disjoint": 0, "endpoint touch": 0}
        for points, t, got in seen:
            e0, e1, f0, f1 = p = [_position(m, _reference_time(t)) for m in points]
            assert got == (geometry_reference.segment_contact((e0, e1), (f0, f1)) != "apart"), (p, t)
            if e0 == e1 or f0 == f1:
                cases["zero-length edge"] += 1
            elif orient2d(e0, e1, f0) == 0 and orient2d(e0, e1, f1) == 0:
                cases["collinear overlap" if got else "collinear disjoint"] += 1
            elif got and 0 in (orient2d(e0, e1, f0), orient2d(e0, e1, f1), orient2d(f0, f1, e0), orient2d(f0, f1, e1)):
                cases["endpoint touch"] += 1
        assert all(cases.values()), cases


@contextlib.contextmanager
def _exhaustive():
    """Turn off the horizon dismissal and the piece cut-off, so that the
    scan walks every piece of every candidate that the other filters keep."""
    with mock.patch.object(morph, "_horizon", lambda start: None), mock.patch.object(
        morph, "_walked_past", lambda t, bound: False
    ):
        yield


def _scan(inst):
    """The verdict of the full scan, without the affine shortcut."""
    k, cs, _fit = model._frame(inst)
    return morph._scan_verdict(k, cs)


def _decide(inst):
    """`planarity_preserving`'s verdict, and whether it took the affine
    shortcut, that is, never reached the scan."""
    scanned = []
    original = morph._scan_verdict

    def counted(k, cs):
        scanned.append(k)
        return original(k, cs)

    with mock.patch.object(morph, "_scan_verdict", counted):
        verdict = planarity_preserving(inst)
    return verdict, not scanned


def _no_eigenvalue_at_most_zero(a) -> bool:
    """Reference: the 2 x 2 matrix a has no real eigenvalue in (-inf, 0].
    Its eigenvalues are complex when tr^2 < 4 det; otherwise both are real,
    and both positive exactly when det > 0 and tr > 0."""
    (a00, a01), (a10, a11) = a
    tr, det = a00 + a11, a00 * a11 - a01 * a10
    return det > 0 and (tr * tr < 4 * det or tr > 0)


def _affine_image(polygon, a, v):
    (a00, a01), (a10, a11) = a
    pts = tuple(Point2(a00 * p.x + a01 * p.y + v[0], a10 * p.x + a11 * p.y + v[1]) for p in polygon.vertices)
    return SliceInstance(LabeledPolygon(polygon.vertices, 0), LabeledPolygon(pts, 1))


def _rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def _positive(rng):
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


AFFINE_STYLES = ("similarity", "shear", "identity", "minus_identity", "minus_two", "negative_pair", "general")


def _linear_part(rng, style):
    """A 2 x 2 rational matrix with det A > 0 of the given style."""
    if style == "similarity":
        c, s = _positive(rng), _rational(rng)
        return (c, -s), (s, c)
    if style == "shear":
        s = _rational(rng)
        return ((1, s), (0, 1)) if rng.random() < 0.5 else ((1, 0), (s, 1))
    if style == "identity":
        return (1, 0), (0, 1)
    if style == "minus_identity":
        return (-1, 0), (0, -1)
    if style == "minus_two":
        return (-2, 0), (0, -2)
    if style == "negative_pair":  # eigenvalues -a and -d
        return (-_positive(rng), _rational(rng)), (0, -_positive(rng))
    while True:
        a = (_rational(rng), _rational(rng)), (_rational(rng), _rational(rng))
        if a[0][0] * a[1][1] > a[0][1] * a[1][0]:
            return a


def test_affine_shortcut_matches_the_scan():
    # a target A p + v of a star, convex or spiral source: the verdict is the
    # scan's, field for field, the shortcut is taken exactly when A passes
    # the eigenvalue test, and every other such morph is violated (its
    # snapshot at t = 1 / (1 - lambda) is degenerate)
    tally = Counter()
    for seed in range(140):
        rng = random.Random(seed)
        style = AFFINE_STYLES[seed % len(AFFINE_STYLES)]
        kind = ("star", "convex", "spiral")[seed // len(AFFINE_STYLES) % 3]
        polygon = random_polygon(rng, rng.randint(3, 20), kind)
        a = _linear_part(rng, style)
        inst = _affine_image(polygon, a, (_rational(rng, 20), _rational(rng, 20)))
        verdict, shortcut = _decide(inst)
        assert _verdict_tuple(verdict) == _verdict_tuple(_scan(inst)), (seed, style)
        assert shortcut == _no_eigenvalue_at_most_zero(a), (seed, style)
        assert verdict.preserved == shortcut, (seed, style)
        tally[style, shortcut] += 1
    assert all(tally[style, True] for style in ("similarity", "shear", "identity", "general")), tally
    assert all(tally[style, False] for style in ("minus_identity", "minus_two", "negative_pair", "general")), tally


class TestAffineShortcut:
    TURN = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))

    def test_collinear_leading_vertices(self):
        # vertices 0, 1 and 2 lie on one line, so A is read from vertex 3
        src = LabeledPolygon(tuple(Point2(*p) for p in ((0, 0), (2, 0), (4, 0), (4, 3), (0, 3))), 0)
        inst = _affine_image(src, self.TURN, (5, -1))
        inst.validate()
        verdict, shortcut = _decide(inst)
        assert shortcut and verdict.preserved
        assert _verdict_tuple(_scan(inst)) == _verdict_tuple(verdict)

    def test_fraction_coordinates(self):
        pts = ((0, 0), (Fraction(7, 3), Fraction(1, 5)), (Fraction(5, 2), Fraction(9, 4)), (Fraction(-1, 7), 2))
        src = LabeledPolygon(tuple(Point2(*p) for p in pts), 0)
        a = (Fraction(1, 2), Fraction(-3, 4)), (Fraction(2, 3), 1)
        inst = _affine_image(src, a, (Fraction(-5, 6), Fraction(1, 9)))
        inst.validate()
        verdict, shortcut = _decide(inst)
        assert shortcut and verdict.preserved
        assert _verdict_tuple(_scan(inst)) == _verdict_tuple(verdict)

    @pytest.mark.parametrize("moved", [1, 4])
    def test_one_vertex_off_the_map_falls_through(self, moved):
        # affine at every vertex but one: the scan decides
        rng = random.Random(5)
        inst = _affine_image(random_convex_polygon(rng, 7), self.TURN, (2, 3))
        pts = list(inst.target.vertices)
        pts[moved] = Point2(pts[moved].x + Fraction(1, 100), pts[moved].y)
        inst = SliceInstance(inst.source, LabeledPolygon(tuple(pts), 1))
        inst.validate()
        verdict, shortcut = _decide(inst)
        assert not shortcut
        assert _verdict_tuple(verdict) == _verdict_tuple(_scan(inst))


class TestTraceBindings:
    @staticmethod
    def traced_decision(name):
        """Span calls of one traced `planarity_preserving` on fig3b, a
        triangle pair and so affine, or on a square to kite pair, which no
        affine map relates."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = "\n".join((
            "import json, sys",
            "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/benchmarks', sys.argv[1] + '/tests']",
            "import spans",
            "import banded.morph as morph",
            "from reference_figures import fig3b_sat_nonplanar",
            "from banded.geometry import Point2",
            "from banded.model import LabeledPolygon, SliceInstance",
            "square = tuple(Point2(x, y) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4)))",
            "kite = tuple(Point2(x, y) for x, y in ((0, 0), (5, 0), (4, 4), (0, 4)))",
            "instances = {'fig3b': fig3b_sat_nonplanar().instance,",
            "             'kite': SliceInstance(LabeledPolygon(square, 0), LabeledPolygon(kite, 1))}",
            "tracer = spans.Tracer()",
            "spans.install(tracer)",
            "span = tracer.open(spans.OP)",
            "verdict = morph.planarity_preserving(instances[sys.argv[2]])",
            "tracer.close(span)",
            "calls = {k: v['calls'] for k, v in tracer.aggregate().items()}",
            "parents = sorted({tracer.names[tracer.name[p]] for i, p in enumerate(tracer.parent)",
            "                  if tracer.names[tracer.name[i]] == 'geometry.polygon_is_simple@model'})",
            "print(json.dumps({'preserved': verdict.preserved, 'simple_parents': parents, **calls}))",
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script, root, name], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_traced_run_sees_root_isolation_and_samples(self):
        # the benchmark's tracer wraps `quadfield.roots_in_open_interval`,
        # `morph.rational_between`, `SliceInstance.validate` and model's
        # `polygon_is_simple`; the decision must call each through those
        # bindings, or a traced run reports no calls for them
        calls = self.traced_decision("fig3b")
        assert calls["preserved"] is False
        assert calls["quadfield.roots_in_open_interval"] > 0
        assert calls["quadfield.rational_between"] > 0
        # the traced `SliceInstance.validate` reaches the simplicity test
        # through model's binding; an orientation-preserving affine map
        # relates fig3b's triangles, so only the source is swept
        assert calls["model.validate"] == 1
        assert calls["geometry.polygon_is_simple@model"] == 1
        assert calls["simple_parents"] == ["model.validate"]
        # a target that is no affine image of the source is swept too
        calls = self.traced_decision("kite")
        assert calls["model.validate"] == 1
        assert calls["geometry.polygon_is_simple@model"] == 2
        assert calls["simple_parents"] == ["model.validate"]


TARGET_STYLES = ("similar", "jiggle", "rotate", "independent")


@st.composite
def generated_instances(draw):
    kind = draw(st.sampled_from(("convex", "star", "spiral")))
    n = draw(st.integers(3, 12))
    style = draw(st.sampled_from(TARGET_STYLES))
    rng = random.Random(draw(st.integers(0, 2**20)))
    polygon = random_polygon(rng, n, kind)
    if style == "similar":
        return similar_copy_instance(rng, polygon)
    if style == "jiggle":
        return jiggled_instance(rng, polygon)
    if style == "rotate":
        return rotated_instance(rng, polygon)
    other = random_polygon(rng, polygon.n, kind)
    return SliceInstance(LabeledPolygon(polygon.vertices, 0), LabeledPolygon(other.vertices, 1))


def _snapshot_is_valid(inst, t) -> bool:
    """The morph at time t is simple and counterclockwise, by a route that
    shares no code with `morph`: the snapshot interpolated here and put on
    integers by the lcm of its denominators (a similarity), the pairwise
    segment test of `geometry_reference` and the shoelace sign."""
    ends = zip(inst.source.vertices, inst.target.vertices)
    xys = [(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)) for p, q in ends]
    k = math.lcm(*(c.denominator for xy in xys for c in xy))
    pts = [Point2(int(x * k), int(y * k)) for x, y in xys]
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    return area2 > 0 and geometry_reference.polygon_is_simple_pairwise(pts)


def _assert_verdict_agrees_with_snapshots(inst):
    # a preserved morph is simple and counterclockwise at every snapshot; a
    # violated one is valid before its witness interval, and invalid at the
    # interval's midpoint unless the violation is a single instant
    verdict = planarity_preserving(inst)
    grid = [Fraction(j, 64) for j in range(1, 64)]
    if verdict.preserved:
        assert all(_snapshot_is_valid(inst, t) for t in grid)
        return
    lo, hi = verdict.interval
    assert all(_snapshot_is_valid(inst, t) for t in grid if t < lo)
    if not verdict.instantaneous:
        assert not _snapshot_is_valid(inst, (lo + hi) / 2)


@settings(max_examples=80, deadline=None)
@given(generated_instances())
def test_verdict_agrees_with_snapshots(inst):
    _assert_verdict_agrees_with_snapshots(inst)


@given(st.randoms(use_true_random=True), st.integers(3, 6))
@settings(max_examples=600, derandomize=True, deadline=None)
def test_grid_morphs_agree_with_snapshots(rng, n):
    # two polygons on the 5 x 5 grid, as in the solver's grid property
    _assert_verdict_agrees_with_snapshots(_instance(grid_polygon(rng, n), grid_polygon(rng, n)))


GRID = [(x, y) for x in range(4) for y in range(4)]


@st.composite
def grid_morphs(draw):
    """A morph between polygons on a 4 x 4 grid: collinear vertices, and
    source and target vertices that share xy, are common.  The target is
    drawn on its own or moves some of the source's vertices."""
    n = draw(st.integers(3, 7))
    moved = draw(st.sampled_from((None, 0.3, 0.6)))
    rng = random.Random(draw(st.integers(0, 2**20)))

    def polygon(base=None):
        while True:
            if base is None:
                pts = rng.sample(GRID, n)
                pts.sort(key=lambda p: math.atan2(p[1] - 1.61, p[0] - 1.43))
            else:
                pts = [rng.choice(GRID) if rng.random() < moved else p for p in base]
            poly = tuple(Point2(*p) for p in pts)
            if polygon_is_simple(poly) and polygon_is_ccw(poly):
                return pts

    src = polygon()
    tgt = polygon(src if moved else None)
    return _instance(src, tgt)


def _independent_stars() -> SliceInstance:
    """A violated morph between two independently drawn n = 40 stars."""
    rng = random.Random(0)
    source, target = random_polygon(rng, 40, "star"), random_polygon(rng, 40, "star")
    return SliceInstance(LabeledPolygon(source.vertices, 0), LabeledPolygon(target.vertices, 1))


def test_dismissal_keeps_every_verdict():
    # dismissing the candidates of constant sign, the edge pairs whose band
    # tetrahedra over [0, H] are apart by their end boxes or their sections
    # (H = 1 until a first run), cutting each candidate's walk off after its
    # first run or past the best start, and deciding planar affine targets
    # without a scan, changes no verdict and no bit of a witness interval:
    # compare with a scan of every piece of every candidate of every box pair
    apart, ends_apart = morph._sections_apart, morph._ends_apart
    before, bands = morph._apart_before, morph._horizon_bands
    dismissed, by_ends, horizon = Counter(), Counter(), Counter()
    short = {}  # id -> `_horizon_bands` result, for each horizon H < 1

    def counted(d):
        verdict = apart(d)
        dismissed[verdict] += 1
        return verdict

    def counted_ends(e, f):
        verdict = ends_apart(e, f)
        by_ends[verdict] += 1
        return verdict

    def counted_bands(cs, h):
        out = bands(cs, h)
        if h[0] < h[1]:
            short[id(out)] = out
        return out

    def counted_before(h, i, j):
        # every edge pair comes here, at H = 1 too; only the pairs tested
        # against a horizon below 1 count as horizon dismissals
        verdict = before(h, i, j)
        if id(h) in short:
            horizon[verdict] += 1
        return verdict

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(generated_instances(), grid_morphs()))
    # edge pairs that touch while one edge stays across the other's line, so
    # that the two orientations against that line keep opposite signs: only
    # a same-sign test may dismiss a pair, and random draws rarely give such
    # a one (one example for each of the pair's two lines)
    @example(_instance([(1, 2), (4, 2), (1, 4), (1, 3)], [(2, 2), (1, 4), (0, 0), (1, 3)]))
    @example(_instance([(1, 0), (2, 2), (3, 4), (1, 3)], [(0, 1), (1, 1), (4, 0), (4, 2)]))
    # a violated morph whose scan dismisses hundreds of edge pairs by the
    # horizon, so that the horizon count below does not rest on the draws
    @example(_independent_stars())
    # a grid morph whose scan dismisses 6 edge pairs by their end boxes
    # alone, so that the end-box count below does not rest on the draws
    @example(
        _instance(
            [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (1, 3), (0, 2)],
            [(0, 1), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2), (2, 3)],
        )
    )
    def check(inst):
        with mock.patch.object(morph, "_sections_apart", counted), mock.patch.object(
            morph, "_ends_apart", counted_ends
        ), mock.patch.object(morph, "_apart_before", counted_before), mock.patch.object(
            morph, "_horizon_bands", counted_bands
        ):
            fast = planarity_preserving(inst)
        with mock.patch.object(morph, "_constant_sign", lambda q: 0), mock.patch.object(
            morph, "_sections_apart", lambda d: False
        ), mock.patch.object(morph, "_ends_apart", lambda e, f: False), _exhaustive():
            slow = _scan(inst)
        assert _verdict_tuple(fast) == _verdict_tuple(slow)

    check()
    # end boxes and sections over [0, 1], and tetrahedra over [0, H] for
    # H < 1, all dismissed pairs, so the comparison is not vacuous (a
    # horizon below 1 only comes on violated morphs, after a first run)
    assert dismissed[True] > 100, dismissed
    assert by_ends[True] > 5, by_ends
    assert horizon[True] > 10, horizon


def test_every_box_pair_meets_the_one_dismissal():
    # before a first run is known the horizon is H = 1, so on a preserved
    # morph that is scanned every non-adjacent edge pair whose boxes over
    # [0, 1] meet goes through `_apart_before`, once and in ascending order
    rng = random.Random(0)
    inst = jiggled_instance(rng, random_polygon(rng, 30, "star"))
    n = inst.n
    boxes = [geometry._box(geometry._end_boxes(inst.band_quad(i))) for i in range(n)]
    pairs = sorted((min(i, j), max(i, j)) for i, j in geometry._box_pairs(boxes))
    expected = [(i, j) for i, j in pairs if (j - i) % n not in (1, n - 1)]
    seen = []
    original = morph._apart_before

    def counted(horizon, i, j):
        seen.append((i, j))
        return original(horizon, i, j)

    with mock.patch.object(morph, "_apart_before", counted):
        verdict, affine = _decide(inst)
    assert verdict.preserved and not affine
    assert len(expected) > 50
    assert seen == expected


def test_dismissed_edge_pairs_never_meet():
    # an edge pair whose band tetrahedra `_sections_apart` finds disjoint
    # has no common point at any snapshot t = k/64, ends included
    tally = Counter()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(generated_instances(), grid_morphs()))
    def check(inst):
        n = inst.n
        bands = [inst.band_quad(i) for i in range(n)]
        snapshots = [morph_position(inst, Fraction(k, 64)).vertices for k in range(65)]
        for i, j in itertools.combinations(range(n), 2):
            if not _sections_apart(_xy_differences(bands[i], bands[j])):
                continue
            tally["apart"] += 1
            for pts in snapshots:
                assert _edge_contact(pts, i, j) == "apart"

    check()
    assert tally["apart"] > 100, tally


def test_first_run_scan_isolates_few_roots():
    # on a violated morph between independent stars (n = 40), the first-run
    # scan isolates the roots of well under half the quadratics that the
    # scan of every piece of every candidate isolates, with the same verdict
    inst = _independent_stars()
    calls = []
    original = quadfield.roots_in_open_interval

    def counted(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(quadfield, "roots_in_open_interval", counted):
        first = _scan(inst)
        first_calls = len(calls)
        with _exhaustive():
            every = _scan(inst)
    every_calls = len(calls) - first_calls
    assert not first.preserved
    assert _verdict_tuple(first) == _verdict_tuple(every)
    assert 4 * first_calls < every_calls, (first_calls, every_calls)


# horizons H = `_horizon(start)` for the rational starts 1/4 and 3/4
# (H = start + 1/32) and for the irrational start 1/sqrt(2) (H = the upper
# end of its bracket)
HORIZONS = [morph._horizon(ExactTime(a, 16)) for a in (4, 12)] + [
    morph._horizon(roots_in_open_interval(-1, 0, 2, 1)[0])
]


def test_horizon_dismissed_edge_pairs_never_meet():
    # an edge pair that `_apart_before` dismisses for a horizon H has no
    # common point at any snapshot t = k/64 <= H
    tally = Counter()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(generated_instances(), grid_morphs()))
    def check(inst):
        n = inst.n
        _k, cs, _fit = model._frame(inst)
        snapshots = [(Fraction(k, 64), morph_position(inst, Fraction(k, 64)).vertices) for k in range(65)]
        for num, den in HORIZONS:
            horizon = morph._horizon_bands(cs, (num, den))
            for i, j in itertools.combinations(range(n), 2):
                if not morph._apart_before(horizon, i, j):
                    continue
                tally["apart"] += 1
                for t, pts in snapshots:
                    if t * den <= num:
                        assert _edge_contact(pts, i, j) == "apart"

    assert all(num < den for num, den in HORIZONS), HORIZONS
    check()
    assert tally["apart"] > 100, tally


def planar_convex_grid_morphs():
    """The grid draws of the paper's convex-morph theorem (ROADMAP item
    12), as (name, seed, instance): both polygons convex and the linear
    morph planar.  `grid_polygon` draws few convex polygons beyond
    n = 4, so `convex_grid_polygon` draws convex ones at every n."""
    for draw, seeds in ((grid_polygon, 1500), (convex_grid_polygon, 800)):
        for seed in range(seeds):
            rng = random.Random(seed)
            n = 3 + seed % 4
            inst = _instance(draw(rng, n), draw(rng, n))
            if not (polygon_is_convex(inst.source.vertices) and polygon_is_convex(inst.target.vertices)):
                continue
            if planarity_preserving(inst).preserved:
                yield draw.__name__, seed, inst


class TestConvexChordRule:
    def test_translation_gives_all_left(self):
        inst = SliceInstance(
            LabeledPolygon(SQUARE, 0), LabeledPolygon(SQUARE, 1).translated(3, 2)
        )
        assert str(convex_chord_rule(inst)) == "LLLL"

    def test_small_ccw_rotation_all_left(self):
        inst = rotate_copy_instance(
            LabeledPolygon(SQUARE, 0), Point2(2, 2), (Fraction(4, 5), Fraction(3, 5))
        )
        assert str(convex_chord_rule(inst)) == "LLLL"

    def test_cw_rotation_all_right_and_oracle_member(self):
        inst = rotate_copy_instance(
            LabeledPolygon(SQUARE, 0), Point2(2, 2), (Fraction(4, 5), Fraction(-3, 5))
        )
        assignment = convex_chord_rule(inst)
        assert str(assignment) == "RRRR"
        assert "RRRR" in {str(a) for a in brute_force_assignments(inst)}

    def test_sharp_rotation_picks_one_of_few_valid(self):
        # at ~127 degrees only 5 of 16 assignments survive; the rule must
        # land on one of them (here all-left, every turn still below pi)
        inst = rotate_copy_instance(
            LabeledPolygon(SQUARE, 0), Point2(2, 2), (Fraction(-3, 5), Fraction(4, 5))
        )
        names = {str(a) for a in brute_force_assignments(inst)}
        assert names == {"LLLL", "LLLR", "LLRL", "LRLL", "RLLL"}
        assert str(convex_chord_rule(inst)) == "LLLL"

    def test_requires_convex(self):
        with pytest.raises(PreconditionError):
            convex_chord_rule(fig7_star().instance)

    def test_requires_planar_morph(self):
        with pytest.raises(PreconditionError):
            convex_chord_rule(fig3b_sat_nonplanar().instance)

    @pytest.mark.parametrize("name", ["translation", "kite", "fig3b"])
    def test_frames_the_instance_once(self, name):
        # validation's frame and fit serve the decision too: one `_frame`
        # call per rule call, whether the morph is affine, is scanned, or is
        # violated and raises
        kite = tuple(Point2(x, y) for x, y in ((0, 0), (5, 0), (4, 4), (0, 4)))
        inst = {
            "translation": SliceInstance(
                LabeledPolygon(SQUARE, 0), LabeledPolygon(SQUARE, 1).translated(Fraction(3, 2), 2)
            ),
            "kite": SliceInstance(LabeledPolygon(SQUARE, 0), LabeledPolygon(kite, 1)),
            "fig3b": fig3b_sat_nonplanar().instance,
        }[name]
        calls = []
        original = model._frame

        def counted(i):
            calls.append(i)
            return original(i)

        # the convexity tests and the self-check surface see only the
        # instance on validation's ints, as the turn signs do
        seen = []
        original_convex, original_surface = morph.polygon_is_convex, solver.assignment_to_surface

        def convex(pts):
            seen.extend(c for p in pts for c in p)
            return original_convex(pts)

        def surface(i, assignment):
            seen.extend(c for poly in (i.source, i.target) for p in poly.vertices for c in p)
            return original_surface(i, assignment)

        with (
            mock.patch.object(model, "_frame", counted),
            mock.patch.object(morph, "polygon_is_convex", convex),
            mock.patch.object(solver, "assignment_to_surface", surface),
        ):
            try:
                convex_chord_rule(inst)
            except PreconditionError:
                assert name == "fig3b"
        assert len(calls) == 1
        assert seen and all(type(c) is int for c in seen)

    def test_errors_in_order(self):
        # an invalid instance is reported before a non-convex one, and a
        # non-convex one before a non-planar morph
        bowtie = tuple(Point2(x, y) for x, y in ((0, 0), (4, 4), (4, 0), (0, 4)))
        with pytest.raises(InputError):
            convex_chord_rule(SliceInstance(LabeledPolygon(SQUARE, 0), LabeledPolygon(bowtie, 1)))
        dart = tuple(Point2(x, y) for x, y in ((0, 0), (4, 0), (1, 1), (0, 4)))
        half_turn = SliceInstance(LabeledPolygon(dart, 0), LabeledPolygon(tuple(Point2(-p.x, -p.y) for p in dart), 1))
        assert not planarity_preserving(half_turn).preserved
        with pytest.raises(PreconditionError, match="convex polygons"):
            convex_chord_rule(half_turn)
        with pytest.raises(PreconditionError, match="planarity-preserving"):
            convex_chord_rule(fig3b_sat_nonplanar().instance)

    def test_alternation_vertices_stay_locally_convex(self):
        # where the rule switches from a right chord to a left chord, the
        # morph must keep that vertex convex at sampled times
        rng = random.Random(8)
        alternations = 0
        for _ in range(40):
            poly = random_convex_polygon(rng, rng.randint(4, 9))
            inst = jiggled_instance(rng, poly, amount=1)
            if not polygon_is_convex(inst.target.vertices):
                continue
            verdict = planarity_preserving(inst)
            if not verdict.preserved:
                continue
            choices = convex_chord_rule(inst).choices
            n = inst.n
            for i in range(n):
                if choices[(i - 1) % n] is Chord.RIGHT and choices[i] is Chord.LEFT:
                    alternations += 1
                    for t in [Fraction(k, 8) for k in range(1, 8)]:
                        snap = morph_position(inst, t).vertices
                        assert (
                            orient2d(snap[(i - 1) % n], snap[i], snap[(i + 1) % n]) >= 0
                        )
        assert alternations >= 3

    def test_grid_convex_morphs_take_the_rule(self):
        # the rule returns a surface that its own check verifies, and the
        # decision is SAT, on at least 100 draws per n
        counts = Counter()
        for name, seed, inst in planar_convex_grid_morphs():
            convex_chord_rule(inst)
            assert solve_no_steiner(inst).satisfiable, (name, seed)
            counts[inst.n] += 1
        assert min(counts[n] for n in range(3, 7)) >= 100, counts

    def test_the_solve_certifies_the_theorem_case_by_the_rule(self):
        # the theorem's surface meets every conflict, so the solve accepts
        # the rule after ring 1 of its conflict table, walks no further
        # ring, and returns the rule's assignment
        for name, seed, inst in planar_convex_grid_morphs():
            outcome = solve_no_steiner(inst)
            assert outcome.certified_by == "turn rule", (name, seed)
            assert outcome.assignment == convex_chord_rule(inst), (name, seed)


# two non-convex pentagons whose linear morph preserves planarity, though no
# chord assignment gives a surface: the theorem's convexity cannot be dropped
NONCONVEX_SOURCE = tuple(Point2(*xy) for xy in ((4, 2), (1, 3), (1, 4), (0, 4), (2, 1)))
NONCONVEX_TARGET = tuple(Point2(*xy) for xy in ((1, 1), (3, 2), (4, 0), (3, 3), (1, 4)))


def test_planarity_without_convexity_does_not_give_a_surface():
    inst = SliceInstance(LabeledPolygon(NONCONVEX_SOURCE, 0), LabeledPolygon(NONCONVEX_TARGET, 1))
    assert not polygon_is_convex(NONCONVEX_SOURCE) and not polygon_is_convex(NONCONVEX_TARGET)
    assert planarity_preserving(inst).preserved
    outcome = solve_no_steiner(inst)
    assert not outcome.satisfiable
    # band 0 is forced both ways
    assert outcome.unsat.witness_var == 0
    assert brute_force_assignments(inst) == []
    # the layered construction still builds the pair
    surface = build_layered_surface(inst)
    assert surface.steiner_count() == 5
    assert verify_banded_surface(surface, force_sections=True).passed


class TestRotateCopy:
    def test_int_quarter_turns_keep_int_coordinates(self):
        # the planner's quarter-turn bridge turns int points by (0, +-1)
        center = Point2(1, 2)
        for s in (1, -1):
            turned = _rotated(SQUARE, center, 0, s)
            assert all(type(c) is int for p in turned for c in p)
            assert _rotated(turned, center, 0, -s) == SQUARE
        assert _rotated(SQUARE, center, 0, 1)[0] == Point2(3, 1)


class TestSimilarity:
    def test_scaled_square(self):
        a = LabeledPolygon(SQUARE, 0)
        b = LabeledPolygon(tuple(Point2(2 * p.x, 2 * p.y) for p in SQUARE), 0)
        sim = similarity_witness(a, b)
        assert sim.scale_squared == 4
        assert sim.is_identity_rotation

    def test_rectangle_is_not_similar(self):
        a = LabeledPolygon(SQUARE, 0)
        b = LabeledPolygon(tuple(Point2(2 * p.x, p.y) for p in SQUARE), 0)
        assert similarity_witness(a, b) is None

    def test_rotation_snapshots_are_similar_copies(self):
        rng = random.Random(3)
        poly = random_star_polygon(rng, 8)
        inst = rotate_copy_instance(poly, Point2(2, -1), (Fraction(5, 13), Fraction(12, 13)))
        for t in [Fraction(k, 8) for k in range(1, 8)]:
            snap = morph_position(inst, t)
            sim = similarity_witness(inst.source, LabeledPolygon(snap.vertices, 0))
            assert sim is not None
            # the map x -> W x + v, with W = wx + i wy
            for p, q in zip(poly.vertices, snap.vertices):
                assert q == Point2(sim.wx * p.x - sim.wy * p.y + sim.tx, sim.wy * p.x + sim.wx * p.y + sim.ty)

    def test_collapse_signal(self):
        tri = LabeledPolygon((Point2(4, 0), Point2(-2, 3), Point2(-2, -3)), 0)
        inst = rotate_copy_instance(tri, Point2(0, 0), (-1, 0))
        snap = morph_position(inst, Fraction(1, 2))
        with pytest.raises(AllPointsEqualError):
            similarity_witness(inst.source, LabeledPolygon(snap.vertices, 0))

    def test_unequal_vertex_counts(self):
        triangle = LabeledPolygon(SQUARE[:3], 0)
        with pytest.raises(InputError, match="equal vertex counts"):
            similarity_witness(triangle, LabeledPolygon(SQUARE, 0))

    def test_collapsed_source(self):
        point = LabeledPolygon((Point2(1, 1),) * 4, 0)
        with pytest.raises(AllPointsEqualError, match="source polygon"):
            similarity_witness(point, LabeledPolygon(SQUARE, 0))

    def test_half_turn_other_times_still_similar(self):
        tri = LabeledPolygon((Point2(4, 0), Point2(-2, 3), Point2(-2, -3)), 0)
        inst = rotate_copy_instance(tri, Point2(0, 0), (-1, 0))
        snap = morph_position(inst, Fraction(1, 4))
        assert similarity_witness(inst.source, LabeledPolygon(snap.vertices, 0)) is not None

    @pytest.mark.parametrize("scale", [(2, 2), (2, 1), (-1, 1)], ids=["similar", "stretched", "reflected"])
    def test_fits_once(self, scale):
        # the witness reads the one affine fit that validation makes too
        sx, sy = scale
        a = LabeledPolygon(SQUARE, 0)
        b = LabeledPolygon(tuple(Point2(sx * p.x, sy * p.y) for p in SQUARE), 0)
        calls = []
        original = model._affine_fit

        def counted(cs):
            calls.append(cs)
            return original(cs)

        with mock.patch.object(model, "_affine_fit", counted):
            sim = similarity_witness(a, b)
        assert (sim is not None) == (scale == (2, 2))
        assert len(calls) == 1


WITNESS_STYLES = ("similar", "rotate", "reflect", "shear", "jiggle", "snapshot", "collapse")


@st.composite
def witness_pairs(draw):
    """A valid source polygon and a target with the same labels: a similar
    copy, a rotation, a reflection, a shear, a jiggle, a snapshot of such a
    morph, or the midpoint of a half turn, where every vertex meets."""
    kind = draw(st.sampled_from(("convex", "star", "spiral")))
    n = draw(st.integers(3, 12))
    style = draw(st.sampled_from(WITNESS_STYLES))
    rng = random.Random(draw(st.integers(0, 2**20)))
    polygon = random_polygon(rng, n, kind)
    pts = polygon.vertices
    if style == "similar":
        target = similar_copy_instance(rng, polygon).target.vertices
    elif style == "rotate":
        target = rotated_instance(rng, polygon).target.vertices
    elif style == "reflect":
        target = tuple(Point2(-p.x, p.y) for p in pts)
    elif style == "shear":
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        target = tuple(Point2(p.x + s * p.y, p.y) for p in pts)
    elif style == "jiggle":
        target = jiggled_instance(rng, polygon).target.vertices
    elif style == "snapshot":
        morph_of = rng.choice((similar_copy_instance, rotated_instance, jiggled_instance))
        target = morph_position(morph_of(rng, polygon), Fraction(rng.randint(1, 15), 16)).vertices
    else:
        center = Point2(rng.randint(-5, 5), rng.randint(-5, 5))
        target = morph_position(rotate_copy_instance(polygon, center, (-1, 0)), Fraction(1, 2)).vertices
    return LabeledPolygon(pts, 0), LabeledPolygon(target, 0)


def test_similarity_witness_matches_the_fraction_fit():
    # the witness read off the affine fit is the similarity that a fit in
    # `Fraction`s, checked vertex by vertex, finds, and a target whose
    # vertices all meet is signalled
    tally = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(witness_pairs())
    def check(pair):
        a, b = pair
        if all(q == b.vertices[0] for q in b.vertices):
            tally["collapse"] += 1
            with pytest.raises(AllPointsEqualError):
                similarity_witness(a, b)
            return
        sim = similarity_witness(a, b)
        tally["similar" if sim else "none"] += 1
        got = None if sim is None else (sim.wx, sim.wy, sim.tx, sim.ty)
        assert got == geometry_reference.similarity_fit(a.vertices, b.vertices)

    check()
    assert min(tally[key] for key in ("collapse", "similar", "none")) > 10, tally
