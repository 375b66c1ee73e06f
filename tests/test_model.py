from fractions import Fraction

import pytest

from banded.errors import InputError, PreconditionError, SectionError
from banded.figures import fig1_twisted_prism
from banded.geometry import Point2, orient2d
from banded.model import (
    BandedSurface,
    Chord,
    ChordAssignment,
    LabeledPolygon,
    OriginalLabel,
    SliceInstance,
    assignment_to_surface,
    cross_section,
    perturbed_level,
    scaled_to_integers,
    verify_banded_surface,
)

SQUARE = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))


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
        # an annulus between two triangles whose edge set pairs A' with B, so
        # no disjoint vertical path system exists
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
        s = BandedSurface(vertices, faces, bands, paths)
        report = verify_banded_surface(s)
        assert report.topology.passed, report.summary()
        assert not report.path_disjointness.passed
        assert not report.passed

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
        assert {(p.x, p.y) for p in section.polygon.vertices} >= {
            (0, 0),
            (4, 0),
            (4, 4),
            (0, 4),
        }
        assert section.polygon.is_simple() and section.polygon.is_ccw()

    def test_schonhardt_hexagon_directions(self):
        inst = fig1_twisted_prism().instance
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRR"))
        section = cross_section(s, Fraction(1, 3))
        pts = section.polygon.vertices
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
        pts = section.polygon.vertices
        corners = sum(
            1
            for i in range(len(pts))
            if orient2d(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) != 0
        )
        assert len(pts) == 8 and corners == 2 * 4 - 4

    def test_fig3b_mid_height_hexagon(self):
        # the all-left surface over the inverting triangle pair cuts at
        # mid-height in a hexagon even though the morph polygon there is inverted
        from banded.figures import fig3b_sat_nonplanar

        inst = fig3b_sat_nonplanar().instance
        s = assignment_to_surface(inst, ChordAssignment.from_string("LLL"))
        section = cross_section(s, Fraction(1, 2))
        assert len(section.polygon.vertices) == 6
        assert section.polygon.is_simple()

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

    def test_section_error_on_hole(self):
        inst = identity_square()
        s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
        holey = BandedSurface(s.vertices, s.faces[:-1], s.bands[:-1] + (frozenset({6}),), s.paths)
        with pytest.raises(SectionError):
            cross_section(holey, Fraction(1, 2))


def test_verify_report_summary_mentions_failures():
    inst = identity_square()
    s = assignment_to_surface(inst, ChordAssignment.from_string("RRRR"))
    report = verify_banded_surface(s)
    assert "pass" in report.summary()


def test_combinatorial_checks_never_fail_for_assignment_surfaces():
    # topology and path disjointness depend only on the index structure, so
    # every chord surface passes them; only the geometric checks may fail
    import random

    from banded.generators import random_instance

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
