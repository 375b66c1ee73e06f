import functools
import itertools
import random
import unittest.mock
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from generators import (
    grid_polygon,
    jiggled_instance,
    random_instance,
    random_polygon,
    rotated_instance,
    similar_copy_instance,
)
from geometry_reference import is_degenerate, segments_meet_only_at_ends_pairwise
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_figures import fig1_twisted_prism, fig3a_no_surface, reference_instances

from banded.errors import (
    BandedError,
    InputError,
    MeshStructureError,
    PreconditionError,
    SectionError,
)
import banded.geometry as geometry
import banded.model as model
from banded.geometry import (
    Point2,
    Point3,
    _plane,
    open_triangles_intersect_3d,
    orient2d,
    orient3d,
    polygon_is_ccw,
    polygon_is_simple,
    polygon_signed_area2,
)
from banded.model import (
    BandedSurface,
    CheckResult,
    Chord,
    ChordAssignment,
    LabeledPolygon,
    OriginalLabel,
    SliceInstance,
    SteinerLabel,
    assignment_to_surface,
    cross_section,
    perturbed_level,
    scaled_to_integers,
    verify_banded_surface,
)
from banded.morph import _decide, planarity_preserving
from banded.solver import brute_force_assignments
from banded.steiner import build_layered_surface

SQUARE = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))
SIXTEENTHS = [Fraction(j, 16) for j in range(1, 16)]
STRUCTURAL = "structural: paths and face pass force one simple cycle per level"


def identity_square():
    return SliceInstance(LabeledPolygon(SQUARE, 0), LabeledPolygon(SQUARE, 1))


class TestTypes:
    def test_polygon_needs_three_vertices(self):
        with pytest.raises(InputError):
            LabeledPolygon((Point2(0, 0), Point2(1, 1)), 0)

    def test_validate_rejects_cw(self):
        with pytest.raises(InputError):
            LabeledPolygon(tuple(reversed(SQUARE)), 0).validate()

    def test_instance_validate_checks_sizes(self):
        tri = LabeledPolygon(SQUARE[:3], 1)
        with pytest.raises(InputError):
            SliceInstance(LabeledPolygon(SQUARE, 0), tri).validate()

    def test_assignment_strings(self):
        a = ChordAssignment.from_string("rLr")
        assert str(a) == "RLR"
        assert a.choices[0] is Chord.RIGHT
        with pytest.raises(InputError):
            ChordAssignment.from_string("RX")

    def test_scaled_to_integers(self):
        half = tuple(Point2(Fraction(p.x, 2), Fraction(p.y, 3)) for p in SQUARE)
        inst = SliceInstance(LabeledPolygon(half, 0), LabeledPolygon(SQUARE, 1))
        integral = tuple(Point2(Fraction(p.x), Fraction(p.y)) for p in SQUARE)
        whole = SliceInstance(LabeledPolygon(integral, 0), LabeledPolygon(SQUARE, 1))
        for case in (inst, whole):
            scaled = scaled_to_integers(case)
            for poly in (scaled.source, scaled.target):
                for p in poly.vertices:
                    assert type(p.x) is int and type(p.y) is int
            # an instance already on ints comes back as it is
            assert scaled_to_integers(scaled) is scaled


# ---------------------------------------------------------------------------
# instance validation on one integer frame
# ---------------------------------------------------------------------------


def reference_validate(inst: SliceInstance) -> None:
    """Validation by sweeping both polygons: the frame checks, then the
    source, then the target."""
    if inst.source.z_level != 0 or inst.target.z_level != 1:
        raise InputError("slice instance requires z levels exactly 0 and 1")
    if inst.source.n != inst.target.n:
        raise InputError("source and target must have the same vertex count")
    inst.source.validate()
    inst.target.validate()


def validation_error(check) -> str | None:
    try:
        check()
    except InputError as exc:
        return str(exc)
    return None


def affine_image(pts, a, v) -> tuple:
    (a00, a01), (a10, a11) = a
    return tuple(Point2(a00 * p.x + a01 * p.y + v[0], a10 * p.x + a11 * p.y + v[1]) for p in pts)


def broken(pts, how) -> tuple:
    """pts with two consecutive vertices swapped (a crossing, for most
    polygons), reversed, or with a vertex repeated; "none" keeps them."""
    pts = list(pts)
    if how == "crossing":
        pts[1], pts[2] = pts[2], pts[1]
    elif how == "clockwise":
        pts.reverse()
    elif how == "repeated":
        pts[2] = pts[0]
    return tuple(pts)


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def linear_parts(draw, sign: int):
    """A 2 x 2 rational matrix whose determinant has the sign of `sign`;
    for 0, both rows are multiples of one row."""
    if sign == 0:
        r0, r1, s, u = (draw(RATIONALS) for _ in range(4))
        return (s * r0, s * r1), (u * r0, u * r1)
    (a, b), (c, d) = (draw(RATIONALS), draw(RATIONALS)), (draw(RATIONALS), draw(RATIONALS))
    det = a * d - b * c
    assume(det != 0)
    return ((a, b), (c, d)) if (det > 0) == (sign > 0) else ((a, b), (-c, -d))


STYLES = {"similar": similar_copy_instance, "jiggle": jiggled_instance, "rotate": rotated_instance}


@st.composite
def validation_cases(draw) -> SliceInstance:
    """Valid pairs of every kind and style, affine targets A p + v with det
    A of each sign, affine images of broken sources, and other polygons,
    valid or broken, as targets; n = 3 (every triangle pair is affine)
    included."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    kind = draw(st.sampled_from(("convex", "star", "spiral")))
    source = random_polygon(rng, draw(st.sampled_from((3, 4, 5, 7, 10))), kind).vertices
    case = draw(st.sampled_from(("style", "affine", "broken_source", "other_target")))
    v = (draw(RATIONALS), draw(RATIONALS))
    if case == "style":
        return STYLES[draw(st.sampled_from(sorted(STYLES)))](rng, LabeledPolygon(source, 0))
    if case == "affine":
        target = affine_image(source, draw(linear_parts(draw(st.sampled_from((1, -1, 0))))), v)
    elif case == "broken_source":
        source = broken(source, draw(st.sampled_from(("crossing", "clockwise", "repeated"))))
        target = affine_image(source, draw(linear_parts(draw(st.sampled_from((1, -1))))), v)
    else:
        other = random_polygon(rng, len(source), kind).vertices
        target = broken(other, draw(st.sampled_from(("none", "crossing", "clockwise", "repeated"))))
    return SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(target, 1))


@settings(max_examples=200, deadline=None)
@given(validation_cases())
def test_validate_matches_sweeping_both_polygons(inst):
    # skipping the target sweep where an orientation-preserving affine map
    # fits must raise exactly what sweeping both polygons raises; on valid
    # instances, the decision that reuses the returned frame and fit must
    # agree with its kernel on a frame and fit computed apart
    expected = validation_error(lambda: reference_validate(inst))
    assert validation_error(inst.validate) == expected
    if expected is None:
        assert planarity_preserving(inst) == _decide(*model._frame(inst))


class TestValidateByAffineFit:
    SOURCE = LabeledPolygon(SQUARE, 0)

    def instance(self, target_pts) -> SliceInstance:
        return SliceInstance(self.SOURCE, LabeledPolygon(tuple(target_pts), 1))

    def test_reflection_is_not_counterclockwise(self):
        inst = self.instance(affine_image(SQUARE, ((1, 0), (0, -1)), (0, 4)))
        with pytest.raises(InputError, match="polygon is not counterclockwise"):
            inst.validate()

    def test_collapse_is_not_simple(self):
        inst = self.instance(affine_image(SQUARE, ((1, 1), (2, 2)), (0, 0)))
        with pytest.raises(InputError, match="polygon is not simple"):
            inst.validate()

    def test_only_a_target_without_fit_is_swept(self, monkeypatch):
        swept = []

        def counted(q):
            swept.append(q)
            return polygon_is_simple(q)

        monkeypatch.setattr(model, "polygon_is_simple", counted)
        sheared = self.instance(affine_image(SQUARE, ((1, Fraction(1, 2)), (0, 1)), (3, -1)))
        frame = sheared.validate()
        assert frame == model._frame(sheared) and frame[2] is not None
        assert len(swept) == 1
        kite = self.instance(Point2(*xy) for xy in ((0, 0), (5, 0), (4, 4), (0, 4)))
        assert kite.validate()[2] is None
        assert len(swept) == 3

    def test_a_target_without_fit_is_put_on_integers_once(self, monkeypatch):
        # both polygons are swept on the instance's integer frame, so the
        # frame's `_integer_axis` call, through `model`'s binding, is the
        # only one, and a `Fraction` target is not scaled again through
        # `geometry`'s
        calls = []
        inner = geometry._integer_axis

        def counted(values):
            calls.append(len(values))
            return inner(values)

        monkeypatch.setattr(geometry, "_integer_axis", counted)
        monkeypatch.setattr(model, "_integer_axis", counted)
        kite = self.instance(Point2(Fraction(x, 3), Fraction(y, 2)) for x, y in ((0, 0), (5, 0), (4, 4), (0, 4)))
        assert kite.validate()[2] is None
        assert calls == [16]

    def test_with_both_polygons_invalid_the_source_error_is_raised(self):
        bowtie = tuple(Point2(*xy) for xy in ((0, 0), (4, 4), (4, 0), (0, 4)))
        clockwise = SQUARE[::-1]
        for source, target, message in (
            (bowtie, clockwise, "polygon is not simple"),
            (clockwise, bowtie, "polygon is not counterclockwise"),
        ):
            inst = SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(target, 1))
            assert model._frame(inst)[2] is None
            assert validation_error(inst.validate) == message


class TestAssignmentToSurface:
    def test_counts_and_structure(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RLRL"))
        assert len(s.faces) == 8
        assert len(s.vertices) == 8
        assert s.n == 4
        assert all(len(b) == 2 for b in s.bands)
        assert s.paths == ((0, 4), (1, 5), (2, 6), (3, 7))
        assert s.vertices[0][1] == OriginalLabel(0, 0)
        assert s.vertices[4][1] == OriginalLabel(1, 0)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            assignment_to_surface(identity_square(), ChordAssignment.from_string("RRR"))

    def test_right_choice_triangles(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        assert s.faces[0] == (0, 1, 5) and s.faces[1] == (0, 5, 4)


def missing_path_mesh() -> BandedSurface:
    """An annulus between two triangles whose edge set pairs A' with B, so
    no disjoint vertical path system exists."""
    inst = fig1_twisted_prism().instance
    vertices = tuple(
        [(inst.source.point3(i), OriginalLabel(0, i)) for i in range(3)]
        + [(inst.target.point3(i), OriginalLabel(1, i)) for i in range(3)]
    )
    A, B, C, Ap, Bp, Cp = range(6)
    faces = (
        (B, C, Bp),
        (C, Cp, Bp),
        (C, A, Cp),
        (A, B, Cp),
        (B, Ap, Cp),
        (B, Bp, Ap),
    )
    bands = (frozenset({3, 4, 5}), frozenset({0, 1}), frozenset({2}))
    paths = ((A, Cp, Ap), (B, Bp), (C, Cp))
    return BandedSurface(vertices, faces, bands, paths)


class TestVerifier:
    def test_identity_prism_passes(self):
        inst = identity_square()
        for text in ("RRRR", "LLLL", "RLRL"):
            s = assignment_to_surface(inst, ChordAssignment.from_string(text))
            assert verify_banded_surface(s).passed

    def test_schonhardt_passes(self):
        inst = fig1_twisted_prism().instance
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRR"))
        report = verify_banded_surface(s, force_sections=True)
        assert report.passed, report.summary()

    def test_missing_path_mesh_fails_on_paths(self):
        report = verify_banded_surface(missing_path_mesh())
        assert report.topology.passed, report.summary()
        assert not report.path_disjointness.passed
        assert not report.passed

    @pytest.mark.parametrize("label", [OriginalLabel(0, 1), OriginalLabel(1, 0), OriginalLabel(0, 99)])
    def test_interior_vertex_labelled_original_fails_paths(self, label):
        # a second "source vertex 1" would make `steiner_count` undercount;
        # only the 2n path ends may carry an original label
        s = dict(layered_builds())["fig3a"]
        v = next(v for v, (_, old) in enumerate(s.vertices) if isinstance(old, SteinerLabel))
        vertices = s.vertices[:v] + ((s.point(v), label),) + s.vertices[v + 1 :]
        report = verify_banded_surface(BandedSurface(vertices, s.faces, s.bands, s.paths))
        assert report.topology.passed and report.face_intersections.passed
        assert report.path_disjointness.detail == "a vertex other than the path ends carries an original label"
        assert report.monotone_sections.detail == "skipped: path check failed"

    def test_self_intersecting_assignment_fails_face_check(self):
        # folded coplanar band: source edge reversed in the target
        src = tuple(Point2(*xy) for xy in ((0, 0), (1, 0), (1, 1), (0, 1)))
        tgt = tuple(Point2(*xy) for xy in ((3, 0), (2, 0), (2, 1), (3, 1)))
        inst = SliceInstance(LabeledPolygon(src, 0), LabeledPolygon(tgt, 1))
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        report = verify_banded_surface(s)
        assert not report.face_intersections.passed

    def test_duplicate_coordinates_rejected(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        vertices = list(s.vertices)
        p0, _ = vertices[0]
        vertices[1] = (p0, vertices[1][1])
        bad = BandedSurface(tuple(vertices), s.faces, s.bands, s.paths)
        assert not verify_banded_surface(bad).topology.passed

    def test_inconsistent_winding_rejected(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        faces = list(s.faces)
        a, b, c = faces[0]
        faces[0] = (a, c, b)
        bad = BandedSurface(s.vertices, tuple(faces), s.bands, s.paths)
        report = verify_banded_surface(bad)
        assert not report.topology.passed
        assert "winding" in report.topology.detail

    def test_duplicated_face_rejected(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        faces = s.faces + (s.faces[0],)
        bands = s.bands[:-1] + (s.bands[-1] | {len(faces) - 1},)
        bad = BandedSurface(s.vertices, faces, bands, s.paths)
        assert not verify_banded_surface(bad).topology.passed

    def test_face_of_four_indices_is_a_structure_error(self):
        # three distinct indices pass the malformed-face test, and a face
        # with four distinct ones fails it; either way a face of four
        # indices is a MeshStructureError, never a bare ValueError
        s = assignment_to_surface(identity_square(), ChordAssignment.from_string("RRRR"))
        for face in ((0, 1, 5, 5), (0, 1, 5, 4)):
            bad = BandedSurface(s.vertices, (face,) + s.faces[1:], s.bands, s.paths)
            with pytest.raises(MeshStructureError):
                verify_banded_surface(bad)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_path_index_out_of_range_is_a_structure_error(self, shift):
        # v - V would read a real vertex from the end, so both signs are
        # malformed, not a topology failure
        s = assignment_to_surface(identity_square(), ChordAssignment.from_string("RRRR"))
        (bottom, top), *rest = s.paths
        bad_paths = ((bottom, top + shift * len(s.vertices)), *rest)
        bad = BandedSurface(s.vertices, s.faces, s.bands, bad_paths)
        with pytest.raises(MeshStructureError, match="path index"):
            verify_banded_surface(bad)

    def test_missing_face_breaks_boundary(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        faces = s.faces[:-1]
        bands = s.bands[:-1] + (frozenset({6}),)
        bad = BandedSurface(s.vertices, faces, bands, s.paths)
        report = verify_banded_surface(bad)
        assert not report.topology.passed


class TestCrossSection:
    def test_identity_square_midway(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        section = cross_section(s, Fraction(1, 2))
        assert {(p.x, p.y) for p in section.vertices} >= {
            (0, 0),
            (4, 0),
            (4, 4),
            (0, 4),
        }
        assert polygon_is_simple(section.vertices) and polygon_is_ccw(section.vertices)

    def test_schonhardt_hexagon_directions(self):
        inst = fig1_twisted_prism().instance
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRR"))
        section = cross_section(s, Fraction(1, 3))
        pts = section.vertices
        assert len(pts) == 6
        # each hexagon edge is parallel to a bottom or top polygon edge
        expected = []
        for poly in (inst.source, inst.target):
            for i in range(3):
                a, b = poly.vertices[i], poly.vertices[(i + 1) % 3]
                expected.append((b.x - a.x, b.y - a.y))
        matched = []
        for i in range(6):
            a, b = pts[i], pts[(i + 1) % 6]
            d = (b.x - a.x, b.y - a.y)
            hit = [k for k, e in enumerate(expected) if e[0] * d[1] - e[1] * d[0] == 0]
            assert hit, f"section edge {d} parallel to no polygon edge"
            matched.append(hit[0])
        assert set(matched) == set(range(6))

    def test_section_edge_count_drops_per_degenerate_band(self):
        # merged (non-flat) edge count: two per band, one for each band whose
        # quad is coplanar there; the identity prism has four such bands
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        section = cross_section(s, Fraction(1, 2))
        pts = section.vertices
        corners = sum(
            1
            for i in range(len(pts))
            if orient2d(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) != 0
        )
        assert len(pts) == 8 and corners == 2 * 4 - 4

    def test_fig3b_mid_height_hexagon(self):
        # the all-left surface over the inverting triangle pair cuts at
        # mid-height in a hexagon even though the morph polygon there is inverted
        from reference_figures import fig3b_sat_nonplanar

        inst = fig3b_sat_nonplanar().instance
        s = assignment_to_surface(inst, ChordAssignment.from_string("LLL"))
        section = cross_section(s, Fraction(1, 2))
        assert len(section.vertices) == 6
        assert polygon_is_simple(section.vertices)

    def test_level_preconditions(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        with pytest.raises(PreconditionError):
            cross_section(s, Fraction(0))
        with pytest.raises(PreconditionError):
            cross_section(s, Fraction(3, 2))

    def test_perturbed_level_avoids_vertices(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        assert perturbed_level(s, Fraction(1, 2)) == Fraction(1, 2)
        layered = dict(layered_builds())["fig3a"]
        for lo, hi in slabs(layered)[1:]:
            assert perturbed_level(layered, lo) == (lo + hi) / 2

    def test_section_error_on_hole(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        holey = BandedSurface(s.vertices, s.faces[:-1], s.bands[:-1] + (frozenset({6}),), s.paths)
        with pytest.raises(SectionError):
            cross_section(holey, Fraction(1, 2))

    def test_two_point_cycle_is_a_section_error(self):
        # one face repeated with reversed winding: both faces cut the level
        # in the same segment, which chains into a closed cycle of 2 points
        two = mesh([(0, 0, 0), (1, 0, 1), (0, 1, 1)], [(0, 1, 2), (0, 2, 1)])
        with pytest.raises(SectionError, match="closes after 2 points"):
            cross_section(two, Fraction(1, 2))


def test_verify_report_summary_mentions_failures():
    inst = identity_square()
    s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
    report = verify_banded_surface(s)
    assert "pass" in report.summary()


def test_combinatorial_checks_never_fail_for_assignment_surfaces():
    # topology and path disjointness depend only on the index structure, so
    # every chord surface passes them; only the geometric checks may fail
    import random

    from generators import random_instance

    rng = random.Random(9)
    kinds = ["convex", "star", "spiral"]
    for k in range(30):
        inst = random_instance(rng, rng.randint(3, 8), kinds[k % 3])
        mask = rng.randrange(1 << inst.n)
        assignment = ChordAssignment.from_bools(
            bool((mask >> i) & 1) for i in range(inst.n)
        )
        report = verify_banded_surface(assignment_to_surface(inst, assignment))
        assert report.topology.passed, report.summary()
        assert report.path_disjointness.passed, report.summary()


def fraction_cross_section(s: BandedSurface, t) -> LabeledPolygon:
    """Reference: the per-face `Fraction` section that `cross_section`
    must match value for value, or raise the same exception as."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("section level must satisfy 0 < t < 1")
    if t in {Fraction(p.z) for p, _ in s.vertices}:
        raise PreconditionError(f"section level {t} hits a vertex; retry slightly off")
    segments = []
    for k in range(len(s.faces)):
        verts = s.face_triangle(k)
        zs = [p.z for p in verts]
        if t < min(zs) or t > max(zs):
            continue
        pts = []
        for i in range(3):
            u, v = verts[i], verts[(i + 1) % 3]
            if (u.z - t) * (v.z - t) < 0:
                lam = Fraction(t - u.z, v.z - u.z)
                pts.append((u.x + lam * (v.x - u.x), u.y + lam * (v.y - u.y)))
        if len(pts) != 2 or pts[0] == pts[1]:
            raise SectionError(f"face {k} has an unexpected section at t={t}")
        segments.append((pts[0], pts[1]))
    if not segments:
        raise SectionError(f"no face crosses the plane z={t}")

    incidence: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        incidence.setdefault(a, []).append(idx)
        incidence.setdefault(b, []).append(idx)
    for (x, y), ids in incidence.items():
        if len(ids) != 2:
            raise SectionError(f"section point ({x}, {y}) touches {len(ids)} segments; cannot chain")

    start = min(incidence)
    cycle = [start]
    used = set()
    current = start
    while True:
        nxt_seg = None
        for idx in incidence[current]:
            if idx not in used:
                nxt_seg = idx
                break
        if nxt_seg is None:
            break
        used.add(nxt_seg)
        a, b = segments[nxt_seg]
        current = b if a == current else a
        if current == start:
            break
        cycle.append(current)
    if len(used) != len(segments):
        raise SectionError("section chains into more than one cycle; surface is not monotone here")

    pts2 = [Point2(x, y) for x, y in cycle]
    if not polygon_is_simple(pts2):
        raise SectionError(f"section at t={t} is not a simple polygon")
    if polygon_signed_area2(pts2) < 0:
        pts2.reverse()
    return LabeledPolygon(tuple(pts2), t)


def slabs(s: BandedSurface) -> list[tuple[Fraction, Fraction]]:
    """The open slabs of (0, 1) between consecutive vertex z-levels."""
    levels = sorted({Fraction(p.z) for p, _ in s.vertices if 0 <= p.z <= 1} | {Fraction(0), Fraction(1)})
    return list(zip(levels, levels[1:]))


def slab_midpoints(s: BandedSurface) -> list[Fraction]:
    return [(lo + hi) / 2 for lo, hi in slabs(s)]


def section_outcome(section, s, t):
    """The section with its coordinate types, or the exception raised."""
    try:
        result = section(s, t)
    except BandedError as exc:
        return type(exc), str(exc)
    types = {type(c) for p in result.vertices for c in p}
    return result, types


def mesh(points, faces) -> BandedSurface:
    """A bare mesh: `cross_section` reads only vertices and faces."""
    vertices = tuple((Point3(*p), SteinerLabel(i)) for i, p in enumerate(points))
    return BandedSurface(vertices, tuple(faces), (frozenset(range(len(faces))),), ((0, 1),))


def tube(columns):
    """A strip of bands between consecutive (bottom xy, top xy) columns."""
    points = [p for (bx, by), (tx, ty) in columns for p in ((bx, by, 0), (tx, ty, 1))]
    faces = []
    for i in range(len(columns) - 1):
        p, q, p1, q1 = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        faces += [(p, p1, q1), (p, q1, q)]
    return points, faces


def slit_mesh() -> BandedSurface:
    # the two seam edges (0,0,0)-(0,2,1) and (0,2,0)-(0,0,1) are boundary
    # edges with no vertex in common that meet at (0, 1, 1/2)
    return mesh(*tube([((0, 0), (0, 2)), ((4, 0), (4, 0)), ((4, 4), (4, 4)), ((0, 4), (0, 4)), ((0, 2), (0, 0))]))


def two_cycle_mesh() -> BandedSurface:
    square = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
    a_points, a_faces = tube([(p, p) for p in square])
    b_points, b_faces = tube([((x + 10, y), (x + 10, y)) for x, y in square])
    # close each strip onto its own first column
    a_faces = [tuple(v % 8 for v in f) for f in a_faces]
    b_faces = [tuple(v % 8 + 10 for v in f) for f in b_faces]
    return mesh(a_points + b_points, a_faces + b_faces)


def bowtie_prism() -> BandedSurface:
    bowtie = tuple(Point2(*xy) for xy in ((0, 0), (4, 4), (4, 0), (0, 4)))
    shifted = tuple(p.translated(1, 0) for p in bowtie)
    inst = SliceInstance(LabeledPolygon(bowtie, 0), LabeledPolygon(shifted, 1))
    return assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))


def degenerate_face_mesh() -> BandedSurface:
    s = assignment_to_surface(identity_square(), ChordAssignment.from_string("RRRR"))
    points = [tuple(p) for p, _ in s.vertices] + [(10, 10, 0), (11, 11, Fraction(1, 2)), (12, 12, 1)]
    faces = list(s.faces[:4]) + [(8, 9, 10)] + list(s.faces[4:])
    return mesh(points, faces)


def mixed_denominators(s: BandedSurface) -> BandedSurface:
    """An affine copy with coordinates over denominators 5, 7, 11 and 17."""
    points = [
        (p.x * Fraction(3, 7) + Fraction(1, 5), p.y * Fraction(5, 11) - Fraction(2, 3), (p.z * 13 + 2) / Fraction(17))
        for p, _ in s.vertices
    ]
    return mesh(points, s.faces)


@functools.cache
def layered_builds() -> tuple[tuple[str, BandedSurface], ...]:
    """Named `build_layered_surface` outputs for `fig3a_no_surface` and
    40 convex and 40 star instances (n 3-12, `Random(505)` per kind)."""
    builds = [("fig3a", build_layered_surface(fig3a_no_surface().instance))]
    for kind in ("convex", "star"):
        rng = random.Random(505)
        for k in range(40):
            inst = random_instance(rng, rng.randint(3, 12), kind)
            builds.append((f"{kind} #{k}", build_layered_surface(inst)))
    return tuple(builds)


@functools.cache
def layered_surfaces() -> tuple[BandedSurface, ...]:
    return tuple(s for _, s in layered_builds())


def test_layered_surfaces_within_bound():
    for name, s in layered_builds():
        n = s.n
        assert s.steiner_count() <= 2 * n * (n - 3) + 12, name


def edge_case_meshes() -> list[BandedSurface]:
    square = assignment_to_surface(identity_square(), ChordAssignment.from_string("RRRR"))
    holey = BandedSurface(square.vertices, square.faces[:-1], square.bands, square.paths)
    half_height = mesh([(p.x, p.y, Fraction(p.z, 2)) for p, _ in square.vertices], square.faces)
    meshes = [square, holey, half_height, slit_mesh(), two_cycle_mesh(), bowtie_prism()]
    return meshes + [degenerate_face_mesh()]


class TestCrossSectionMatchesFractionReference:
    def test_layered_surfaces(self):
        rng = random.Random(8)
        big = 10**12 + 39  # prime
        surfaces = layered_surfaces()
        assert len(surfaces) >= 70
        assert sum(len({p.z for p, _ in s.vertices}) > 2 for s in surfaces) >= 10
        kinds = set()
        for s in surfaces + tuple(mixed_denominators(s) for s in surfaces[::3]):
            levels = SIXTEENTHS + slab_midpoints(s) + [Fraction(rng.randrange(1, big), big) for _ in range(5)]
            levels += sorted({p.z for p, _ in s.vertices})[1:2]  # hits a vertex
            for t in levels:
                got = section_outcome(cross_section, s, t)
                assert got == section_outcome(fraction_cross_section, s, t), (s, t)
                kinds.add(got[1] == {Fraction} or got[0])
        assert kinds == {True, PreconditionError, SectionError}

    def test_edge_case_meshes(self):
        levels = [Fraction(j, 16) for j in range(-1, 18)] + [Fraction(1, 3), Fraction(999_999, 1_000_000)]
        messages = []
        for s in edge_case_meshes():
            for t in levels:
                got = section_outcome(cross_section, s, t)
                assert got == section_outcome(fraction_cross_section, s, t), (s, t)
                if got[0] is SectionError:
                    messages.append(got[1])
        for expected in (
            "has an unexpected section",
            "no face crosses",
            "touches 1 segments",
            "more than one cycle",
            "is not a simple polygon",
        ):
            assert any(expected in m for m in messages), expected

    def test_touch_message_prints_the_point_as_rationals(self):
        holey = edge_case_meshes()[1]
        with pytest.raises(SectionError) as exc:
            cross_section(holey, Fraction(1, 3))
        assert str(exc.value) == "section point (0, 4) touches 1 segments; cannot chain"

    def test_slit_closes_only_where_the_seams_meet(self):
        s = slit_mesh()
        section = cross_section(s, Fraction(1, 2))
        assert Point2(0, 1) in section.vertices
        with pytest.raises(SectionError):
            cross_section(s, Fraction(1, 4))


def sections_pass(s: BandedSurface, levels, section=cross_section) -> bool:
    """Whether the section at each level, moved off vertex levels by
    `perturbed_level`, is one simple polygon."""
    try:
        for t in levels:
            section(s, perturbed_level(s, t))
    except SectionError:
        return False
    return True


def forced_sections(monkeypatch, s: BandedSurface):
    """The forced verification report and the levels it sectioned at,
    mapped back from the verifier's doubled integer z coordinates."""
    levels = []
    kz, _ = geometry._integer_axis([p.z for p, _ in s.vertices])
    section = model._section_cycle

    def counted(points, zs, faces, crossing, level, scale):
        levels.append(Fraction(level, 2 * kz))
        return section(points, zs, faces, crossing, level, scale)

    with monkeypatch.context() as patch:
        patch.setattr(model, "_section_cycle", counted)
        report = verify_banded_surface(s, force_sections=True)
    return report, levels


class TestSlabSections:
    def test_one_section_per_slab_decides_every_level(self, monkeypatch):
        # the forced verdict equals the verdict at every sixteenth, at
        # random levels and at every slab midpoint, from one section per slab
        rng = random.Random(16)
        big = 10**9 + 7  # prime
        reached = 0
        for s in layered_surfaces() + tuple(_metamorphic_surfaces()):
            plain = verify_banded_surface(s)
            if not (plain.topology.passed and plain.path_disjointness.passed and plain.face_intersections.passed):
                continue
            reached += 1
            report, levels = forced_sections(monkeypatch, s)
            sampled = SIXTEENTHS + [Fraction(rng.randrange(1, big), big) for _ in range(5)] + slab_midpoints(s)
            assert report.monotone_sections.passed == sections_pass(s, sampled)
            expected = slabs(s)
            if report.monotone_sections.passed:
                assert len(levels) == len(expected)
            for t, (lo, hi) in zip(levels, expected):
                assert lo < t < hi
            assert len(levels) <= len(expected)
        assert reached >= len(layered_surfaces()) + 2

    def test_sections_a_slab_below_the_first_sixteenth(self, monkeypatch):
        # squeeze the lowest slab of a layered surface into (0, 1/32): the
        # sixteenths never look there, the per-slab check must
        s = next(s for s in layered_surfaces() if len(slabs(s)) >= 2)
        first = slabs(s)[0][1]

        def squeezed(z):
            if z <= first:
                return z / first / 32
            return Fraction(1, 32) + (z - first) / (1 - first) * Fraction(31, 32)

        image = BandedSurface(
            tuple((Point3(p.x, p.y, squeezed(Fraction(p.z))), label) for p, label in s.vertices),
            s.faces,
            s.bands,
            s.paths,
        )
        assert all(perturbed_level(image, t) > Fraction(1, 32) for t in SIXTEENTHS)
        report, levels = forced_sections(monkeypatch, image)
        assert report.passed, report.summary()
        assert len(levels) == len(slabs(image)) and min(levels) == Fraction(1, 64)

    def test_detail_names_how_sections_passed(self):
        # unforced, sections pass structurally on one slab or many; forced,
        # the detail counts the slabs sectioned
        square = assignment_to_surface(identity_square(), ChordAssignment.from_string("RRRR"))
        layered = dict(layered_builds())["fig3a"]
        assert len(slabs(layered)) > 1
        for s, count in ((square, "1 slab"), (layered, f"{len(slabs(layered))} slabs")):
            report = verify_banded_surface(s)
            assert report.monotone_sections.detail == STRUCTURAL
            assert f"monotone_sections: pass ({STRUCTURAL})" in report.summary()
            assert verify_banded_surface(s, force_sections=True).monotone_sections.detail == f"sectioned {count}"

    def test_only_forced_verification_sections(self, monkeypatch):
        # the proof in `verify_banded_surface` passes sections unforced, with
        # no section taken; forced, each slab is sectioned once
        s = dict(layered_builds())["fig3a"]
        calls = Counter()

        def counting(name):
            original = getattr(model, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        with monkeypatch.context() as patch:
            for name in ("_check_sections", "_section_cycle"):
                patch.setattr(model, name, counting(name))
            assert verify_banded_surface(s).passed
            assert calls == Counter()
            assert verify_banded_surface(s, force_sections=True).passed
        assert calls == Counter({"_check_sections": 1, "_section_cycle": len(slabs(s))})

    def test_sections_skipped_when_paths_fail(self):
        report = verify_banded_surface(missing_path_mesh(), force_sections=True)
        assert report.topology.passed and report.face_intersections.passed
        assert not report.path_disjointness.passed
        assert report.monotone_sections.detail == "skipped: path check failed"


def face_pass_faces(s: BandedSurface):
    """The face pass's input, built as `_check_topology` builds it but for
    every face, so that meshes failing topology can be checked too."""
    points, _ = model._integer_points(s)
    faces = []
    for f in s.faces:
        verts = tuple(points[v] for v in f)
        faces.append(model._face_record(verts, _plane(*verts)))
    return points, faces


def face_pair_branch(t1, t2) -> str:
    """The branch of the sign cascade that decides a pair, from `orient3d`
    and vertex values alone."""
    s2 = [orient3d(*t1, p) for p in t2]
    s1 = [orient3d(*t2, p) for p in t1]
    if any(s[0] == s[1] == s[2] != 0 for s in (s1, s2)):
        return "strict dismissal"
    if s2 == [0, 0, 0]:
        return "coplanar"
    shared = sum(p in t2 for p in t1)
    return ("crossing", "one shared vertex", "shared edge")[shared]


def _xy_box(points):
    return min(p.x for p in points), max(p.x for p in points), min(p.y for p in points), max(p.y for p in points)


def _boxes_apart(a, b) -> bool:
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def slab_filter(t1, t2) -> str:
    """The slab filter that dismisses a pair before any plane side, from
    vertex values alone: "level touch" when the z-ranges meet in one level
    and the parts of the faces at that level have disjoint xy boxes; "end
    boxes" when both faces have vertices at the same two levels and no
    other, and on one axis the bottom and top boxes of one lie strictly
    below those of the other; else ""."""
    z1, z2 = [p.z for p in t1], [p.z for p in t2]
    (lo1, hi1), (lo2, hi2) = (min(z1), max(z1)), (min(z2), max(z2))
    if hi1 == lo2 or hi2 == lo1:
        level = lo2 if hi1 == lo2 else lo1
        a = _xy_box([p for p in t1 if p.z == level])
        b = _xy_box([p for p in t2 if p.z == level])
        return "level touch" if _boxes_apart(a, b) else ""
    if (lo1, hi1) != (lo2, hi2) or len(set(z1)) != 2 or len(set(z2)) != 2:
        return ""
    ends = [[_xy_box([p for p in t if p.z == z]) for z in (lo1, hi1)] for t in (t1, t2)]
    for u, w in (ends, ends[::-1]):
        for axis in (0, 2):  # x, then y
            if all(u[e][axis + 1] < w[e][axis] for e in (0, 1)):
                return "end boxes"
    return ""


def two_level_touch(cell1, cell2):
    """The level at which two cells, given as their points, touch when each
    has its points on exactly two levels and their z-ranges meet in one
    level, else None."""
    z1, z2 = sorted({p.z for p in cell1}), sorted({p.z for p in cell2})
    if len(z1) != 2 or len(z2) != 2:
        return None
    if z1[1] == z2[0]:
        return z1[1]
    if z2[1] == z1[0]:
        return z1[0]
    return None


def reference_clean_level(triangles, z) -> bool:
    """Whether the level z of the faces `triangles` is clean, pair by pair:
    the edges with both ends at z and the vertices at z, as points, meet
    only in shared ends (`segments_meet_only_at_ends_pairwise`)."""
    edges = {frozenset((p.xy, q.xy)) for t in triangles for p, q in zip(t, t[1:] + t[:1]) if p.z == q.z == z}
    points = {p.xy for t in triangles for p in t if p.z == z}
    return segments_meet_only_at_ends_pairwise([tuple(e) for e in edges] + [(p, p) for p in points])


def touching_pair_meshes() -> list[BandedSurface]:
    """Bare two-face meshes whose z-ranges touch at exactly one level,
    z = 1/2: a lower face's top vertex inside, at an end of, beside and
    beyond an upper face's bottom edge."""
    edge = [(0, 0, Fraction(1, 2)), (2, 2, Fraction(1, 2)), (0, 2, 1)]
    out = []
    for tip in ((1, 1), (2, 2), (2, 0), (3, 3)):
        lower = [(0, -3, 0), (2, -3, 0), (*tip, Fraction(1, 2))]
        out.append(mesh(lower + edge, [(0, 1, 2), (3, 4, 5)]))
    return out


def split_path_edge(s: BandedSurface, i: int, offset=(0, 0)) -> BandedSurface:
    """s with path i's first edge (a, b) split at a new vertex halfway up,
    moved by `offset` in xy from the edge's midpoint; each face on the edge
    is split in two within its band, so every other face of a one-gap
    surface spans both of the new slabs."""
    a, b = s.paths[i][:2]
    pa, pb = s.point(a), s.point(b)
    m = len(s.vertices)
    half = Fraction(1, 2)
    middle = Point3((pa.x + pb.x) * half + offset[0], (pa.y + pb.y) * half + offset[1], (pa.z + pb.z) * half)
    faces, bands = list(s.faces), [set(members) for members in s.bands]
    for k, face in enumerate(s.faces):
        for r in range(3):
            u, v, w = face[r:] + face[:r]
            if {u, v} == {a, b}:
                faces[k] = (u, m, w)
                bands[next(band for band, members in enumerate(bands) if k in members)].add(len(faces))
                faces.append((m, v, w))
    paths = list(s.paths)
    paths[i] = (a, m) + s.paths[i][1:]
    return BandedSurface(
        s.vertices + ((middle, SteinerLabel(0)),), tuple(faces), tuple(frozenset(b) for b in bands), tuple(paths)
    )


def self_touching_layer_meshes() -> list[BandedSurface]:
    """Two-gap surfaces over a pentagon whose middle layer pulls vertex 3
    down to y = 0 (onto the layer's edge 0-1, so the layer polygon touches
    itself) or to y = 1 (a simple layer)."""
    pentagon = [(0, 0), (4, 0), (4, 4), (2, 5), (0, 4)]
    out = []
    for tip in ((2, 0), (2, 1)):
        middle = pentagon[:3] + [tip] + pentagon[4:]
        polys = [
            LabeledPolygon(tuple(Point2(*p) for p in pts), z)
            for pts, z in ((pentagon, 0), (middle, Fraction(1, 2)), (pentagon, 1))
        ]
        for text in ("RRRRR", "LRLRL"):
            out.append(model.layers_to_surface(polys, [ChordAssignment.from_string(text)] * 2))
    return out


def two_slab_meshes() -> list[BandedSurface]:
    """One-gap surfaces with one path edge split halfway up, on it or off
    it, so that most faces span both slabs."""
    prism = assignment_to_surface(fig1_twisted_prism().instance, ChordAssignment.from_string("RRR"))
    square = assignment_to_surface(identity_square(), ChordAssignment.from_string("RLRL"))
    return [split_path_edge(prism, 0), split_path_edge(square, 1), split_path_edge(square, 2, (Fraction(1, 4), 1))]


def slab_filter_meshes() -> list[BandedSurface]:
    """Meshes for the slab filters: faces touching at exactly one level, a
    face that spans two slabs, and a layer polygon that touches itself."""
    return touching_pair_meshes() + two_slab_meshes() + self_touching_layer_meshes()


def pushed_through(pts: list, v: int) -> list:
    """pts with point v pushed through the far side of the annulus, to
    3c - 2p for the centroid c of pts."""
    cx = Fraction(sum(p.x for p in pts), len(pts))
    cy = Fraction(sum(p.y for p in pts), len(pts))
    p = pts[v]
    return pts[:v] + [Point3(3 * cx - 2 * p.x, 3 * cy - 2 * p.y, p.z)] + pts[v + 1 :]


def broken_at_a_level_meshes() -> list[BandedSurface]:
    """Every layered-corpus surface of more than one gap with vertex 0 of
    its first interior layer moved onto the middle of that layer's edge
    from vertex n // 2 to the next, so that only that level is not clean;
    skipped where a face degenerates."""
    out = []
    for s in layered_surfaces():
        if len(s.paths[0]) < 3:
            continue
        a = s.n // 2
        v, u, w = s.paths[0][1], s.paths[a][1], s.paths[(a + 1) % s.n][1]
        pu, pw = s.point(u), s.point(w)
        moved = Point3(Fraction(pu.x + pw.x, 2), Fraction(pu.y + pw.y, 2), s.point(v).z)
        image = replace(s, vertices=s.vertices[:v] + ((moved, s.vertices[v][1]),) + s.vertices[v + 1 :])
        if not any(is_degenerate(image.face_triangle(k)) for k in range(len(s.faces))):
            out.append(image)
    return out


def face_pass_meshes():
    """Every layered-corpus surface, and meshes whose faces intersect: a
    vertex of every fifth surface pushed through the far side of the
    annulus (skipped where a face degenerates), and a duplicated face; the
    `slab_filter_meshes`; and the `broken_at_a_level_meshes`."""
    out = list(layered_surfaces())
    for s in layered_surfaces()[::5]:
        pts = [p for p, _ in s.vertices]
        for v in (len(pts) // 2, len(pts) // 3):
            image = mesh(pushed_through(pts, v), s.faces)
            if not any(is_degenerate(image.face_triangle(k)) for k in range(len(s.faces))):
                out.append(image)
        out.append(mesh(pts, s.faces + s.faces[:1]))
    return out + slab_filter_meshes() + broken_at_a_level_meshes()


def reference_cells(s: BandedSurface, faces) -> set[frozenset[int]]:
    """The face pass's cells by their definition, as sets of face indices:
    per band, the faces whose vertices take exactly two z values, grouped by
    those values; a group with exactly two points at each of its levels is
    one cell, and every other face is a cell on its own."""
    out = set()
    for members in s.bands:
        groups: dict[tuple, list[int]] = {}
        for k in members:
            zs = sorted({p[2] for p in faces[k][8]})
            if len(zs) == 2:
                groups.setdefault(tuple(zs), []).append(k)
            else:
                out.add(frozenset([k]))
        for (lo, hi), ks in groups.items():
            pts = {p for k in ks for p in faces[k][8]}
            if sum(p[2] == lo for p in pts) == 2 == sum(p[2] == hi for p in pts):
                out.add(frozenset(ks))
            else:
                out.update(frozenset([k]) for k in ks)
    return out


def quad_filter(cell1, cell2) -> str:
    """The quad test that dismisses two cells of two bottom and two top
    points each, given as their points, from point values alone: "" unless
    they lie on the same two levels; "cell
    sections" when they share no point and every xy difference of their
    points at the same level lies in one open half-plane; "cell path edge"
    when they share one point s at the bottom and one point t at the top,
    and their other points less the shared one at their level, as x - s
    or x - t for the first cell and s - x or t - x for the second, lie in
    one open half-plane; else ""."""
    lo, hi = min(p.z for p in cell1), max(p.z for p in cell1)
    if (lo, hi) != (min(p.z for p in cell2), max(p.z for p in cell2)):
        return ""
    at = [[[p for p in cell if p.z == z] for z in (lo, hi)] for cell in (cell1, cell2)]
    shared = [[p for p in at[0][e] if p in at[1][e]] for e in (0, 1)]
    if shared == [[], []]:
        diffs = [(p.x - q.x, p.y - q.y) for e in (0, 1) for p in at[0][e] for q in at[1][e]]
        return "cell sections" if geometry._sections_apart(diffs) else ""
    if [len(level) for level in shared] != [1, 1]:
        return ""
    vectors = []
    for e in (0, 1):
        (c,) = shared[e]
        vectors += [(p.x - c.x, p.y - c.y) for p in at[0][e] if p != c]
        vectors += [(c.x - q.x, c.y - q.y) for q in at[1][e] if q != c]
    return "cell path edge" if geometry._sections_apart(vectors) else ""


def _closed_boxes_meet(a, b) -> bool:
    return all(lo <= hi2 and lo2 <= hi for (lo, hi), (lo2, hi2) in zip(a, b))


def _point_box(points):
    return [(min(c), max(c)) for c in zip(*points)]


def banded_failing_meshes() -> list[BandedSurface]:
    """Meshes with their bands, so with cells of two faces, whose faces
    intersect: a vertex of every fifth layered surface pushed through the
    far side of the annulus (skipped where a face degenerates), and the
    bowtie prism."""
    out = [bowtie_prism()]
    for s in layered_surfaces()[::5]:
        moved = pushed_through([p for p, _ in s.vertices], len(s.vertices) // 2)
        image = replace(s, vertices=tuple((p, label) for p, (_, label) in zip(moved, s.vertices)))
        if not any(is_degenerate(image.face_triangle(k)) for k in range(len(s.faces))):
            out.append(image)
    return out


class TestFacePass:
    def test_kernel_pairs_match_the_reference_cascade(self, monkeypatch):
        # the pass sweeps cells before faces: the cells are the reference
        # cells, swept by min-x (ties by their order); a later cell's face
        # pairs are visited first, in their order in the cell, with no
        # filter, then the face pairs across each earlier cell whose closed
        # box meets its own, unless the slab filters, the clean-level skip
        # (two cells on two levels each that touch at a level where the
        # mesh's edges and vertices meet only in shared ends, by the
        # pairwise reference) or the quad test dismiss that cell pair, and
        # whose own closed boxes meet; every
        # visited face pair goes through the reference cascade, up to the
        # first that `open_triangles_intersect_3d` finds improper, which is
        # reported.  So the pairs that reach the kernel are exactly the
        # cascade's pairs within cells and across the cell pairs that no
        # test clears, in that order; no face pair across a dismissed cell
        # pair is improper, a skipped one at a clean level included; and
        # the filters the pass no longer runs on faces would dismiss no
        # pair within a cell
        kernel_pairs = []
        coplanar_calls = []
        kernel = model._triangles_meet
        coplanar = geometry._coplanar_triangles_meet

        def counted_kernel(v1, s1, v2, s2):
            kernel_pairs.append((v1, v2))
            return kernel(v1, s1, v2, s2)

        def counted_coplanar(v1, v2):
            coplanar_calls.append(1)
            return coplanar(v1, v2)

        branches = Counter()
        outcomes = Counter()
        for s in face_pass_meshes() + banded_failing_meshes():
            points, faces = face_pass_faces(s)
            cells = model._face_cells(s.bands, faces)
            assert {frozenset(c[9]) for c in cells} == reference_cells(s, faces)
            assert sorted(k for c in cells for k in c[9]) == list(range(len(faces)))
            triangles = [tuple(Point3(*p) for p in f[8]) for f in faces]
            boxes = [_point_box(f[8]) for f in faces]
            cell_points = [sorted({p for k in c[9] for p in triangles[k]}) for c in cells]
            cell_boxes = [_point_box(pts) for pts in cell_points]
            order = sorted(range(len(cells)), key=lambda c: cells[c][0])
            reached, hit, clean = [], None, {}
            for r, ck in enumerate(order):
                visits = list(itertools.combinations(cells[ck][9], 2))
                for cj in order[:r]:
                    if not _closed_boxes_meet(cell_boxes[cj], cell_boxes[ck]):
                        continue
                    across = [(j, k) for j in cells[cj][9] for k in cells[ck][9]]
                    branch = slab_filter(cell_points[cj], cell_points[ck])
                    level = None if branch else two_level_touch(cell_points[cj], cell_points[ck])
                    if level is not None:
                        if level not in clean:
                            clean[level] = reference_clean_level(triangles, level)
                        branch = "clean level" if clean[level] else ""
                        branches["unclean level"] += not clean[level]
                    if not branch and len(cells[cj][9]) > 1 and len(cells[ck][9]) > 1:
                        branch = quad_filter(cell_points[cj], cell_points[ck])
                    if branch:
                        branches[branch] += 1
                        for j, k in across:
                            assert not open_triangles_intersect_3d(triangles[j], triangles[k])
                        continue
                    for j, k in across:
                        if _closed_boxes_meet(boxes[j], boxes[k]):
                            visits.append((j, k))
                        else:
                            branches["face boxes"] += 1
                            assert not open_triangles_intersect_3d(triangles[j], triangles[k])
                for j, k in visits:
                    t1, t2 = triangles[j], triangles[k]
                    meets = open_triangles_intersect_3d(t1, t2)
                    branch = face_pair_branch(t1, t2)
                    branches[branch] += 1
                    if branch == "crossing":
                        branches["crossing, meet" if meets else "crossing, disjoint"] += 1
                    if j in cells[ck][9] and k in cells[ck][9]:
                        assert _closed_boxes_meet(boxes[j], boxes[k]) and not slab_filter(t1, t2)
                    # the first face's sides of the second's plane
                    sides = [orient3d(*t2, p) for p in t1]
                    if sides[0] == sides[1] == sides[2] != 0:
                        branches["first sides strict"] += 1
                    elif sides.count(0) == 2 and sum(p in t2 for p in t1) == 2:
                        branches["first sides shared edge"] += 1
                    else:
                        reached.append((faces[j][8], faces[k][8]))
                        branches["kernel, coplanar"] += branch == "coplanar"
                    if meets:
                        hit = (j, k)
                        branches["hit across quads"] += len(cells[ck][9]) > 1
                        break
                if hit is not None:
                    break
            kernel_pairs.clear()
            with monkeypatch.context() as patched:
                patched.setattr(model, "_triangles_meet", counted_kernel)
                patched.setattr(geometry, "_coplanar_triangles_meet", counted_coplanar)
                result = model._check_face_intersections(s.bands, faces)
            assert kernel_pairs == reached
            if hit is None:
                assert result.passed
            else:
                j, k = hit
                assert _closed_boxes_meet(boxes[j], boxes[k])
                assert open_triangles_intersect_3d(triangles[j], triangles[k])
                assert result == CheckResult(False, f"faces {j} and {k} intersect improperly")
            outcomes[result.passed] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0, outcomes
        for branch in (
            "level touch",
            "clean level",
            "unclean level",
            "end boxes",
            "cell sections",
            "cell path edge",
            "face boxes",
            "first sides strict",
            "first sides shared edge",
            "strict dismissal",
            "coplanar",
            "shared edge",
            "one shared vertex",
            "crossing, meet",
            "crossing, disjoint",
            "hit across quads",
        ):
            assert branches[branch] > 0, branch
        # no filter is left on faces that could settle a coplanar pair
        assert len(coplanar_calls) == branches["kernel, coplanar"] == branches["coplanar"] > 0

    def test_meshes_broken_at_a_level_report_the_pinned_pair(self):
        meshes = broken_at_a_level_meshes()
        assert len(meshes) == len(BROKEN_AT_A_LEVEL_PAIRS)
        for s, (j, k) in zip(meshes, BROKEN_AT_A_LEVEL_PAIRS):
            report = verify_banded_surface(s)
            assert report.topology.passed and report.path_disjointness.passed
            assert report.face_intersections == CheckResult(False, f"faces {j} and {k} intersect improperly")


# the first improper pair of each of the `broken_at_a_level_meshes`, pinned
# so that skipping pairs at clean levels cannot change which pair is found
BROKEN_AT_A_LEVEL_PAIRS = ((6, 8), (32, 1), (6, 11), (5, 1), (11, 1), (25, 27), (13, 1), (11, 1), (10, 1), (11, 1), (20, 22))


def all_pairs_face_verdict(s: BandedSurface) -> bool:
    """Whether no two faces of s are improper by `open_triangles_intersect_3d`,
    with no filter."""
    triangles = [s.face_triangle(k) for k in range(len(s.faces))]
    return not any(open_triangles_intersect_3d(t1, t2) for t1, t2 in itertools.combinations(triangles, 2))


@st.composite
def grid_surfaces(draw) -> BandedSurface:
    """A surface over polygons drawn on the 5 x 5 grid, n 3..6, with random
    chords: one gap, or a two-gap stack through a third grid polygon at
    z = 1/2."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 6))
    gaps = draw(st.integers(1, 2))
    levels = [Fraction(g, gaps) for g in range(gaps + 1)]
    polys = [LabeledPolygon(grid_polygon(rng, n), z) for z in levels]
    chords = st.lists(st.booleans(), min_size=n, max_size=n)
    return model.layers_to_surface(polys, [ChordAssignment.from_bools(draw(chords)) for _ in range(gaps)])


def quads_share_a_path_edge(a, b) -> bool:
    return len(set(a[:2]) & set(b[:2])) == 1 == len(set(a[2:]) & set(b[2:]))


def verify_recording_face_pairs(s: BandedSurface):
    """`verify_banded_surface(s)`, and the set of face pairs, as pairs of
    integer vertex triples, that the face pass handed to `_faces_meet`."""
    visited = set()
    faces_meet = model._faces_meet

    def recorded(f, g):
        visited.add(frozenset((f[8], g[8])))
        return faces_meet(f, g)

    with unittest.mock.patch.object(model, "_faces_meet", recorded):
        return verify_banded_surface(s), visited


def assert_quad_dismissals_are_sound(s: BandedSurface) -> Counter:
    """Every face pair across two quad cells on the same two levels that
    `_quads_apart` dismisses is proper by `open_triangles_intersect_3d`;
    returns the dismissals counted by route."""
    _, faces = face_pass_faces(s)
    cells = [c for c in model._face_cells(s.bands, faces) if c[8] is not None]
    routes = Counter()
    for a, b in itertools.combinations(cells, 2):
        if a[4:6] != b[4:6] or not geometry._quads_apart(geometry._xy_differences(a[8], b[8])):
            continue
        routes["path edge" if quads_share_a_path_edge(a[8], b[8]) else "sections"] += 1
        for j in a[9]:
            for k in b[9]:
                assert not open_triangles_intersect_3d(s.face_triangle(j), s.face_triangle(k))
    return routes


@given(grid_surfaces())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_cell_dismissals_keep_the_face_verdict_on_grid_draws(s):
    # the cell tests dismiss only proper face pairs: those that `_quads_apart`
    # dismisses, and on a passing mesh every pair the pass never hands to
    # `_faces_meet`; the verdict is the all-pairs one
    assert_quad_dismissals_are_sound(s)
    report, visited = verify_recording_face_pairs(s)
    assert report.topology.passed
    assert report.face_intersections.passed == all_pairs_face_verdict(s)
    if report.face_intersections.passed:
        _, faces = face_pass_faces(s)
        for j, k in itertools.combinations(range(len(faces)), 2):
            if frozenset((faces[j][8], faces[k][8])) not in visited:
                assert not open_triangles_intersect_3d(s.face_triangle(j), s.face_triangle(k))


class TestPinnedCellPairs:
    def test_bands_folded_over_their_shared_path_edge_go_to_face_pairs(self):
        # bands 0 and 1 share a path edge and fold over it: no plane through
        # the edge parts their other points, so the face pairs decide, and
        # on the first instance they find the surface valid, on the second
        # an improper pair
        for source, target, chords, passed in (
            (((1, 1), (1, 3), (0, 2)), ((1, 2), (4, 1), (3, 4)), "RRL", True),
            (((4, 0), (3, 3), (0, 2)), ((3, 4), (0, 0), (3, 0)), "RRL", False),
        ):
            inst = SliceInstance(
                LabeledPolygon(tuple(Point2(*p) for p in source), 0),
                LabeledPolygon(tuple(Point2(*p) for p in target), 1),
            )
            s = assignment_to_surface(inst, ChordAssignment.from_string(chords))
            _, faces = face_pass_faces(s)
            cells = model._face_cells(s.bands, faces)
            a, b = cells[0][8], cells[1][8]
            assert quads_share_a_path_edge(a, b) and not geometry._quads_apart(geometry._xy_differences(a, b))
            across = {frozenset((faces[j][8], faces[k][8])) for j in cells[0][9] for k in cells[1][9]}
            report, visited = verify_recording_face_pairs(s)
            assert report.face_intersections.passed == passed == all_pairs_face_verdict(s)
            assert visited & across

    def test_end_boxes_that_touch_leave_the_pair_to_the_quad_test(self):
        # bands 1 and 3: the bottom boxes touch at x = 1, the top boxes are
        # strictly apart along x, so the end-box test keeps the pair, and
        # the sections lemma on the 8 differences dismisses it
        inst = SliceInstance(
            LabeledPolygon(tuple(Point2(*p) for p in ((0, 0), (1, 2), (1, 1), (3, 2), (1, 3))), 0),
            LabeledPolygon(tuple(Point2(*p) for p in ((2, 3), (0, 4), (0, 0), (2, 0), (2, 1))), 1),
        )
        s = assignment_to_surface(inst, ChordAssignment.from_string("LLLRL"))
        _, faces = face_pass_faces(s)
        cells = model._face_cells(s.bands, faces)
        e, f = cells[1][6], cells[3][6]
        assert e[1] == f[0] and e[5] < f[4]
        assert not geometry._ends_apart(e, f)
        assert geometry._quads_apart(geometry._xy_differences(cells[1][8], cells[3][8]))
        assert assert_quad_dismissals_are_sound(s)["sections"] > 0
        assert verify_banded_surface(s).face_intersections.passed == all_pairs_face_verdict(s)


def oracle_instances() -> list[SliceInstance]:
    """Instances with n <= 6: the figures, generator draws, grid pairs and
    one draw moved off integers by a similarity on `Fraction` coordinates."""
    out = [fig.instance for fig in reference_instances().values() if fig.instance.n <= 6]
    rng = random.Random(606)
    for n, kind in ((4, "convex"), (5, "star"), (6, "spiral")):
        out.append(random_instance(rng, n, kind))
    grid = random.Random(607)
    for n in (4, 5, 6):
        out.append(SliceInstance(LabeledPolygon(grid_polygon(grid, n), 0), LabeledPolygon(grid_polygon(grid, n), 1)))
    inst = random_instance(rng, 6, "star")
    thirds = [LabeledPolygon(tuple(Point2(Fraction(x, 3), Fraction(y, 3)) for x, y in p.vertices), p.z_level) for p in (inst.source, inst.target)]
    out.append(SliceInstance(*(p.translated(Fraction(1, 2), Fraction(-2, 5)) for p in thirds)))
    return out


def test_oracle_lists_the_assignments_whose_surface_passes():
    # the oracle swaps band i's faces in from the surface of its chord; it
    # lists, in mask order, exactly the assignments whose own surface, built
    # on the instance's coordinates, passes a plain verification
    outcomes = Counter()
    for inst in oracle_instances():
        n = inst.n
        listed = []
        for mask in range(1 << n):
            assignment = ChordAssignment.from_bools((mask >> i) & 1 for i in range(n))
            s = assignment_to_surface(inst, assignment)
            # the layout the swap reads: band i's faces are 2i and 2i + 1,
            # its quad split by its own chord
            for i, chord in enumerate(assignment.choices):
                quad = (i, (i + 1) % n, n + (i + 1) % n, n + i)
                triples = model._QUAD_TRIPLES[:2] if chord is Chord.RIGHT else model._QUAD_TRIPLES[2:]
                assert s.bands[i] == {2 * i, 2 * i + 1}
                assert s.faces[2 * i : 2 * i + 2] == tuple(tuple(quad[v] for v in t) for t in triples)
            passed = verify_banded_surface(s).passed
            outcomes[passed] += 1
            if passed:
                listed.append(assignment)
        assert brute_force_assignments(inst) == listed, inst
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def reference_topology(s: BandedSurface) -> str:
    """The annulus checks as first written, with a walk around every
    vertex's fan and no endpoint premise: "" if they pass, else the name of
    the first that fails."""
    nv, nf = len(s.vertices), len(s.faces)
    if len(s.bands) != len(s.paths) or len({p for p, _ in s.vertices}) != nv:
        return "counts or coincident vertices"
    if sorted(f for members in s.bands for f in members) != list(range(nf)):
        return "band partition"
    directed = Counter()
    undirected: dict[frozenset, list[int]] = {}
    for k, face in enumerate(s.faces):
        if len(set(face)) != 3 or not all(0 <= v < nv for v in face) or is_degenerate(s.face_triangle(k)):
            return "face"
        directed.update(model._face_edges(face))
        for e in model._face_edges(face):
            undirected.setdefault(frozenset(e), []).append(k)
    if max(directed.values()) > 1 or {v for f in s.faces for v in f} != set(range(nv)):
        return "winding or unused vertex"
    if any(len(fs) > 2 for fs in undirected.values()):
        return "edge on three faces"
    n = len(s.paths)
    cycles = {frozenset((path[end], s.paths[(i + 1) % n][end])) for i, path in enumerate(s.paths) for end in (0, -1)}
    if {e for e, fs in undirected.items() if len(fs) == 1} != cycles:
        return "boundary"
    if nv - len(undirected) + nf != 0:
        return "euler"
    component, stack = {0}, [0]
    while stack:
        f = stack.pop()
        for e in model._face_edges(s.faces[f]):
            for g in undirected[frozenset(e)]:
                if g not in component:
                    component.add(g)
                    stack.append(g)
    if len(component) != nf:
        return "connected"
    for v in range(nv):
        fan = {k for k, face in enumerate(s.faces) if v in face}
        component, stack = set(), [min(fan)]
        while stack:
            f = stack.pop()
            component.add(f)
            for e in model._face_edges(s.faces[f]):
                if v in e:
                    stack.extend(g for g in undirected[frozenset(e)] if g not in component)
        if component != fan:
            return "pinch"
    for b, members in enumerate(s.bands):
        allowed = set(s.paths[b]) | set(s.paths[(b + 1) % n])
        if any(not set(s.faces[f]) <= allowed for f in members):
            return "band off its paths"
    return ""


def reference_paths(s: BandedSurface) -> bool:
    edges = {frozenset(e) for face in s.faces for e in model._face_edges(face)}
    used = set()
    for i, path in enumerate(s.paths):
        if len(path) < 2 or len(set(path)) != len(path) or used & set(path):
            return False
        used |= set(path)
        zs = [s.point(v).z for v in path]
        if zs[0] != 0 or zs[-1] != 1 or any(a >= b for a, b in zip(zs, zs[1:])):
            return False
        if (s.vertices[path[0]][1], s.vertices[path[-1]][1]) != (OriginalLabel(0, i), OriginalLabel(1, i)):
            return False
        if any(frozenset(e) not in edges for e in zip(path, path[1:])):
            return False
    originals = {v for v, (_, label) in enumerate(s.vertices) if isinstance(label, OriginalLabel)}
    return originals == {v for path in s.paths for v in (path[0], path[-1])}


def reference_verdicts(s: BandedSurface) -> tuple[bool, bool, bool, bool]:
    """The per-check verdicts of a reference verifier: `reference_topology`,
    `reference_paths`, every face pair through `open_triangles_intersect_3d`
    with no filter, and one `fraction_cross_section` at each slab's
    midpoint, with the verifier's skip rules.  It sections every mesh that
    reaches the section check, so both the verifier's forced sections and
    its unforced structural pass are held to real sections."""
    topology, paths = not reference_topology(s), reference_paths(s)
    if not topology:
        return False, paths, False, False
    triangles = [s.face_triangle(k) for k in range(len(s.faces))]
    faces = not any(
        open_triangles_intersect_3d(triangles[j], triangles[k]) for k in range(len(triangles)) for j in range(k)
    )
    if not (faces and paths):
        return topology, paths, faces, False
    return topology, paths, faces, sections_pass(s, slab_midpoints(s), fraction_cross_section)


class TestReferenceVerifier:
    def test_every_check_matches_the_reference(self):
        outcomes = Counter()
        for s in face_pass_meshes() + edge_case_meshes() + [missing_path_mesh()]:
            expected = reference_verdicts(s)
            for force in (False, True):
                report = verify_banded_surface(s, force_sections=force)
                got = tuple(
                    check.passed
                    for check in (
                        report.topology,
                        report.path_disjointness,
                        report.face_intersections,
                        report.monotone_sections,
                    )
                )
                assert got == expected, (report.summary(), force)
                outcomes[got] += 1
        assert outcomes[(True, True, True, True)] > 0
        assert outcomes[(True, True, False, False)] > 0
        assert outcomes[(True, False, True, False)] > 0
        assert outcomes[(False, False, False, False)] > 0

    def test_slab_filter_meshes(self):
        # a face spanning two slabs sections at both midpoints; a layer
        # polygon that touches itself fails the face pass at that level
        for s in two_slab_meshes():
            report = verify_banded_surface(s, force_sections=True)
            assert report.passed, report.summary()
            assert report.monotone_sections.detail == "sectioned 2 slabs"
            assert verify_banded_surface(s).monotone_sections.detail == STRUCTURAL
        touching, simple = self_touching_layer_meshes()[:2], self_touching_layer_meshes()[2:]
        for s in touching:
            report = verify_banded_surface(s, force_sections=True)
            assert report.topology.passed and report.path_disjointness.passed
            assert not report.face_intersections.passed
        assert any(verify_banded_surface(s, force_sections=True).passed for s in simple)


def merged_vertices(s: BandedSurface, u: int, v: int) -> BandedSurface:
    """s with vertex u merged into vertex v: faces and paths name v for u,
    and u is dropped."""
    index = {old: new for new, old in enumerate(w for w in range(len(s.vertices)) if w != u)}
    index[u] = index[v]
    return BandedSurface(
        tuple(vertex for w, vertex in enumerate(s.vertices) if w != u),
        tuple(tuple(index[w] for w in face) for face in s.faces),
        s.bands,
        tuple(tuple(index[w] for w in path) for path in s.paths),
    )


def chord_surfaces() -> list[BandedSurface]:
    rng = random.Random(41)
    out = []
    for k in range(30):
        inst = random_instance(rng, rng.randint(3, 9), ("convex", "star", "spiral")[k % 3])
        out.append(assignment_to_surface(inst, ChordAssignment.from_bools(rng.random() < 0.5 for _ in range(inst.n))))
    return out


class TestTopologyPremises:
    def test_merging_two_vertices_never_passes_topology(self):
        # pins the argument in `_check_topology` that its premises make a
        # per-vertex fan walk redundant: no merge of two vertices of an
        # annulus passes topology, and the reference's fan walk is never the
        # first of its checks to reject one
        rng = random.Random(1515)
        surfaces = list(layered_surfaces()) + chord_surfaces()
        first = Counter()
        for _ in range(1200):
            s = rng.choice(surfaces)
            u, v = rng.sample(range(len(s.vertices)), 2)
            merged = merged_vertices(s, u, v)
            report = verify_banded_surface(merged)
            assert not report.topology.passed and not report.passed
            first[reference_topology(merged)] += 1
        assert first[""] == first["pinch"] == 0
        assert len(first) >= 4

    def test_at_least_three_paths(self):
        square = assignment_to_surface(identity_square(), ChordAssignment.from_string("RLRL"))
        b = square.bands
        two = BandedSurface(square.vertices, square.faces, (b[0] | b[1], b[2] | b[3]), square.paths[::2])
        report = verify_banded_surface(two)
        assert not report.topology.passed
        assert report.topology.detail == "2 paths: an annulus needs at least 3"

    def test_path_endpoints_are_distinct(self):
        square = assignment_to_surface(identity_square(), ChordAssignment.from_string("RLRL"))
        for path in ((0, 7), (4, 7), (3, 4)):
            repeated = BandedSurface(square.vertices, square.faces, square.bands, square.paths[:3] + (path,))
            report = verify_banded_surface(repeated)
            assert not report.topology.passed
            assert "not 2n distinct" in report.topology.detail


def fig1_surface() -> BandedSurface:
    return assignment_to_surface(fig1_twisted_prism().instance, ChordAssignment.from_string("RRR"))


def torus_beside(s: BandedSurface) -> BandedSurface:
    """s with a 7-vertex torus (faces (i, i+1, i+3) and (i, i+3, i+2) mod 7)
    beside it, its faces in band 0: a closed component with chi = 0, so the
    counts and the boundary still say annulus."""
    v = len(s.vertices)
    # on a parabola in xy, so no face is degenerate
    torus = [(10 + t, t * t, Fraction(t + 1, 8)) for t in range(7)]
    faces = [tuple(v + (i + d) % 7 for d in triple) for triple in ((0, 1, 3), (0, 3, 2)) for i in range(7)]
    return replace(
        s,
        vertices=s.vertices + tuple((Point3(*p), SteinerLabel(t)) for t, p in enumerate(torus)),
        faces=s.faces + tuple(faces),
        bands=(s.bands[0] | set(range(len(s.faces), len(s.faces) + len(faces))),) + s.bands[1:],
    )


class TestFailureDetails:
    """Each failure return of the topology and path checks, reached by one
    edit of the fig1 surface or of fig3a's layered surface."""

    @pytest.mark.parametrize(
        "edit, check, detail",
        [
            (lambda s: replace(s, paths=s.paths[:-1]), "topology", "band count differs from path count"),
            (
                lambda s: replace(s, bands=(s.bands[0], s.bands[1] | {0}, s.bands[2])),
                "topology",
                "face 0 belongs to bands 0 and 1",
            ),
            (lambda s: replace(s, bands=(s.bands[0] - {1},) + s.bands[1:]), "topology", "face 1 belongs to no band"),
            (
                lambda s: replace(s, faces=((0, 1, 6),) + s.faces[1:]),
                "topology",
                "face 0 is malformed: (0, 1, 6)",
            ),
            (
                lambda s: replace(s, vertices=s.vertices + ((Point3(9, 9, Fraction(1, 2)), SteinerLabel(0)),)),
                "topology",
                "mesh has vertices not used by any face",
            ),
            (torus_beside, "topology", "surface is not connected"),
            (lambda s: replace(s, paths=((0,),) + s.paths[1:]), "path_disjointness", "path 0 is too short"),
        ],
        ids=["band_count", "face_in_two_bands", "face_in_no_band", "face_index", "unused_vertex", "torus", "one_vertex_path"],
    )
    def test_fig1_edit(self, edit, check, detail):
        assert verify_banded_surface(fig1_surface()).passed
        report = verify_banded_surface(edit(fig1_surface()))
        assert getattr(report, check) == CheckResult(False, detail)

    def test_path_step_that_is_no_mesh_edge(self):
        # path 0 of fig3a's layered surface, routed from its first vertex
        # straight to its last
        s = dict(layered_builds())["fig3a"]
        first, *_, last = s.paths[0]
        report = verify_banded_surface(replace(s, paths=((first, last),) + s.paths[1:]))
        assert report.path_disjointness == CheckResult(False, f"path 0 uses ({first},{last}) which is not a mesh edge")


def _metamorphic_surfaces():
    surfaces = edge_case_meshes() + [
        assignment_to_surface(fig1_twisted_prism().instance, ChordAssignment.from_string("RRR"))
    ]
    return surfaces + list(layered_surfaces()[:40:4])


positive = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=60)
offset = st.fractions(min_value=-30, max_value=30, max_denominator=60)
level = st.fractions(min_value=Fraction(1, 10**6), max_value=1 - Fraction(1, 10**6), max_denominator=10**6)


@given(st.integers(0, 10**6), positive, positive, offset, offset, level)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_section_commutes_with_positive_xy_scaling_and_translation(pick, kx, ky, dx, dy, t):
    surfaces = _metamorphic_surfaces()
    s = surfaces[pick % len(surfaces)]
    image = mesh([(kx * p.x + dx, ky * p.y + dy, p.z) for p, _ in s.vertices], s.faces)
    try:
        section = cross_section(s, t)
    except BandedError as exc:
        with pytest.raises(type(exc)):
            cross_section(image, t)
        return
    mapped = tuple(Point2(kx * p.x + dx, ky * p.y + dy) for p in section.vertices)
    assert cross_section(image, t).vertices == mapped
