import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banded.errors import (
    BandedError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    SectionError,
)
from banded.figures import fig1_twisted_prism, fig3a_no_surface
from banded.generators import random_instance
from banded.geometry import Point2, Point3, orient2d, polygon_is_simple, polygon_signed_area2
from banded.model import (
    DEFAULT_SECTION_LEVELS,
    BandedSurface,
    Chord,
    ChordAssignment,
    CrossSection,
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
from banded.steiner import build_layered_surface

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


def fraction_cross_section(s: BandedSurface, t) -> CrossSection:
    """Reference: the per-face `Fraction` section that `cross_section`
    must match value for value, or raise the same exception as."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("section level must satisfy 0 < t < 1")
    if t in {Fraction(p.z) for p, _ in s.vertices}:
        raise PreconditionError(f"section level {t} hits a vertex; retry slightly off")
    segments = []
    for k in range(len(s.faces)):
        tri = s.face_triangle(k)
        zs = [tri.a.z, tri.b.z, tri.c.z]
        if t < min(zs) or t > max(zs):
            continue
        pts = []
        verts = tri.vertices
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
    for pt, ids in incidence.items():
        if len(ids) != 2:
            raise SectionError(f"section point {pt} touches {len(ids)} segments; cannot chain")

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
    return CrossSection(t, LabeledPolygon(tuple(pts2), t))


def section_outcome(section, s, t):
    """The section with its coordinate types, or the exception raised."""
    try:
        result = section(s, t)
    except BandedError as exc:
        return type(exc), str(exc)
    types = {type(c) for p in result.polygon.vertices for c in p}
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
def layered_surfaces() -> tuple[BandedSurface, ...]:
    """`build_layered_surface` outputs for convex and star instances, n <= 12."""
    surfaces = [build_layered_surface(fig3a_no_surface().instance)]
    for kind in ("convex", "star"):
        rng = random.Random(505)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(3, 12), kind)
            try:
                surfaces.append(build_layered_surface(inst))
            except InternalConsistencyError:
                continue  # a builder failure (ROADMAP); not what is tested here
    return tuple(surfaces)


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
            levels = list(DEFAULT_SECTION_LEVELS) + [Fraction(rng.randrange(1, big), big) for _ in range(5)]
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

    def test_slit_closes_only_where_the_seams_meet(self):
        s = slit_mesh()
        section = cross_section(s, Fraction(1, 2))
        assert Point2(0, 1) in section.polygon.vertices
        with pytest.raises(SectionError):
            cross_section(s, Fraction(1, 4))


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
    mapped = tuple(Point2(kx * p.x + dx, ky * p.y + dy) for p in section.polygon.vertices)
    assert cross_section(image, t).polygon.vertices == mapped
