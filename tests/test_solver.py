import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from banded import geometry, solver
from banded.errors import PreconditionError
from banded.figures import fig1_twisted_prism, fig3a_no_surface, fig7_star
from banded.generators import (
    jiggled_instance,
    random_instance,
    random_polygon,
    rotated_instance,
    similar_copy_instance,
)
from banded.geometry import (
    Point2,
    Triangle3,
    open_triangles_intersect_3d,
    orient3d,
    polygon_is_ccw,
    polygon_is_simple,
    segment_triangle_contact_3d,
)
from banded.model import (
    Chord,
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    scaled_to_integers,
    verify_banded_surface,
)
from banded.morph import planarity_preserving
from banded.solver import (
    brute_force_assignments,
    build_clauses,
    build_conflict_table,
    chord_triangles,
    conflicts,
    solve_no_steiner,
)

SQUARE = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))


def _instance(source, target):
    return SliceInstance(
        LabeledPolygon(tuple(Point2(*xy) for xy in source), 0),
        LabeledPolygon(tuple(Point2(*xy) for xy in target), 1),
    )


def identity_square():
    return SliceInstance(LabeledPolygon(SQUARE, 0), LabeledPolygon(SQUARE, 1))


# the triangles of a band quad (p0, p1, q1, q0), right chord then left, which
# are also the faces of the tetrahedron on the quad
QUAD_TRIPLES = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def tetrahedra_disjoint(a, b) -> bool:
    """Whether the closed tetrahedra on two quads, each at least a triangle,
    are disjoint, by an exact separating-axis test in 3D.  The axes are the
    face normals of both, the crosses of an edge of one with an edge of the
    other, and the crosses of each face normal with each edge: when both
    tetrahedra are flat in one plane, as two walls side by side in one
    vertical plane, every face normal and edge cross is normal to that
    plane, and only an in-plane edge normal separates them."""
    a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
    if set(a) & set(b):
        return False
    normals = [_cross(_sub(q[j], q[i]), _sub(q[k], q[i])) for q in (a, b) for i, j, k in QUAD_TRIPLES]
    edges = [[_sub(q[j], q[i]) for i in range(4) for j in range(i + 1, 4)] for q in (a, b)]
    axes = normals + [_cross(e, f) for e in edges[0] for f in edges[1]]
    axes += [_cross(nrm, e) for nrm in normals for e in edges[0] + edges[1]]
    for ux, uy, uz in axes:
        on_a = [ux * x + uy * y + uz * z for x, y, z in a]
        on_b = [ux * x + uy * y + uz * z for x, y, z in b]
        if max(on_a) < min(on_b) or max(on_b) < min(on_a):
            return True
    return False


def _triangle_branch(t1, t2) -> str:
    s2 = [orient3d(t1.a, t1.b, t1.c, p) for p in t2.vertices]
    s1 = [orient3d(t2.a, t2.b, t2.c, p) for p in t1.vertices]
    if any(s[0] == s[1] == s[2] != 0 for s in (s1, s2)):
        return "strict dismissal"
    if s2 == [0, 0, 0]:
        return "coplanar"
    shared = sum(p in t2.vertices for p in t1.vertices)
    return ("crossing", "one shared vertex", "shared edge")[shared]


def kernel_branches(inst, label: str) -> Counter:
    """Which branch of the band-pair kernel decides each test of the
    conflict table, found in 3D from `orient3d`, vertex values and
    `tetrahedra_disjoint`: per pair whose closed xy boxes meet, disjoint
    closed tetrahedra ("sections apart"), else one branch per triangle
    test, in the order of `open_triangles_intersect_3d` and stopping a
    choice pair at its first conflict.  Some branches also count under
    `label` or the pair, and each coplanar quad under "coplanar quad"."""
    scaled = scaled_to_integers(inst)
    n = inst.n
    quads = [scaled.band_quad(i) for i in range(n)]
    boxes = [
        (min(p.x for p in q), max(p.x for p in q), min(p.y for p in q), max(p.y for p in q))
        for q in quads
    ]
    counts = Counter()
    counts["coplanar quad"] = sum(orient3d(*quad) == 0 for quad in quads)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = quads[i], quads[j]
            (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[i], boxes[j]
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            if tetrahedra_disjoint(a, b):
                counts["sections apart"] += 1
                continue
            for ci in Chord:
                for cj in Chord:
                    tests = [
                        (t1, t2)
                        for t1 in chord_triangles(scaled, i, ci).triangles
                        for t2 in chord_triangles(scaled, j, cj).triangles
                    ]
                    for t1, t2 in tests:
                        branch = _triangle_branch(t1, t2)
                        hit = open_triangles_intersect_3d(t1, t2)
                        counts[branch] += 1
                        if branch == "coplanar":
                            counts[f"coplanar, {label}"] += 1
                        if branch == "shared edge" and n == 3:
                            counts["shared edge, n = 3"] += 1
                        if branch == "shared edge" and (i, j) == (0, n - 1) and n > 3:
                            counts["shared edge, wrap pair"] += 1
                        if branch == "crossing":
                            counts["crossing, meet" if hit else "crossing, disjoint"] += 1
                        if hit:
                            break
    return counts


def unvalidated_instances(rng, count):
    """Polygons on a small grid, mostly not simple and with repeated
    vertices, so that non-adjacent bands share vertices by value; instances
    with a degenerate chord triangle are skipped (the table rejects them)."""
    out = []
    while len(out) < count:
        n = rng.randint(4, 8)
        inst = _instance(*([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)] for _ in range(2)))
        if not any(
            t.is_degenerate()
            for i in range(n)
            for c in Chord
            for t in chord_triangles(inst, i, c).triangles
        ):
            out.append(inst)
    return out


class TestChordTriangles:
    def test_right_choice_uses_right_chord(self):
        inst = fig1_twisted_prism().instance
        cc = chord_triangles(inst, 0, Chord.RIGHT)
        p0, p1, q1, q0 = inst.band_quad(0)
        assert cc.triangles == (Triangle3(p0, p1, q1), Triangle3(p0, q1, q0))
        assert not cc.degenerate

    def test_left_choice_uses_left_chord(self):
        inst = fig1_twisted_prism().instance
        cc = chord_triangles(inst, 0, Chord.LEFT)
        p0, p1, q1, q0 = inst.band_quad(0)
        assert cc.triangles == (Triangle3(p0, p1, q0), Triangle3(p1, q1, q0))

    def test_identity_band_is_coplanar(self):
        cc = chord_triangles(identity_square(), 0, Chord.RIGHT)
        assert cc.degenerate

    def test_band_index_range(self):
        with pytest.raises(PreconditionError):
            chord_triangles(identity_square(), 4, Chord.RIGHT)


class TestConflicts:
    def test_requires_distinct_bands(self):
        with pytest.raises(PreconditionError):
            conflicts(identity_square(), 1, Chord.RIGHT, 1, Chord.LEFT)

    def test_identity_prism_has_no_conflicts(self):
        inst = identity_square()
        n, clauses = build_clauses(inst)
        assert n == 4 and clauses == []

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(3, 6), "star")
            for i in range(inst.n):
                for j in range(i + 1, inst.n):
                    for ci in Chord:
                        for cj in Chord:
                            assert conflicts(inst, i, ci, j, cj) == conflicts(
                                inst, j, cj, i, ci
                            )

    def test_conflict_table_matches_conflicts(self, monkeypatch):
        # the swept band-pair kernel against the unpruned pairwise reference,
        # on every target style and on unvalidated inputs; the pinned pair has
        # bands 0 and 3 conflicting while their boxes meet only along the
        # line x = 5, and its quarter turn puts that line on a y boundary, so
        # an open-box sweep misses both
        rng = random.Random(17)
        source = ((5, 0), (5, 4), (6, 7), (5, 6), (4, 5), (2, 6))
        target = ((5, 6), (7, 6), (1, 9), (5, 2), (4, 5), (3, 7))
        pinned = _instance(source, target)
        turned = _instance(*(tuple((-y, x) for x, y in p) for p in (source, target)))
        # a flat vertex at (2, 0) makes bands 0 and 1 coplanar walls
        flat = ((0, 0), (2, 0), (4, 0), (4, 4), (0, 4))
        instances = [
            ("figure", fig7_star().instance),
            ("figure", fig1_twisted_prism().instance),
            ("figure", pinned),
            ("figure", turned),
            ("identity", _instance(flat, flat)),
            ("wall", _instance(flat, flat[:3] + ((3, 3), (0, 4)))),
        ]
        for n in range(3, 13):
            for kind in ("convex", "star"):
                poly = random_polygon(rng, n, kind)
                other = random_polygon(rng, n, kind)
                instances += [
                    ("random", similar_copy_instance(rng, poly)),
                    ("random", jiggled_instance(rng, poly)),
                    ("random", rotated_instance(rng, poly)),
                    ("random", SliceInstance(poly, LabeledPolygon(other.vertices, 1))),
                ]
        for _, inst in instances:
            inst.validate()
        instances += [("unvalidated", inst) for inst in unvalidated_instances(rng, 40)]

        calls = Counter()

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        # the tails are looked up in `geometry`, where the shared sign
        # cascade calls them
        with monkeypatch.context() as patched:
            for name, fn in (
                ("crossing", geometry._crossing_triangles_meet),
                ("one shared vertex", geometry._shared_vertex_triangles_meet),
                ("coplanar", geometry._coplanar_triangles_meet),
            ):
                patched.setattr(geometry, fn.__name__, counted(name, fn))
            tables = [build_conflict_table(inst) for _, inst in instances]

        branches = Counter()
        for (label, inst), table in zip(instances, tables):
            branches += kernel_branches(inst, label)
            assert sorted(table.pairs) == [
                (i, j) for i in range(inst.n) for j in range(i + 1, inst.n)
            ]
            for (i, j), mat in table.pairs.items():
                for ci in Chord:
                    for cj in Chord:
                        idx = (0 if ci is Chord.RIGHT else 1, 0 if cj is Chord.RIGHT else 1)
                        assert mat[idx[0]][idx[1]] == conflicts(inst, i, ci, j, cj), (label, inst)
            for (i, c), folded in table.self_conflicts.items():
                assert folded == open_triangles_intersect_3d(*chord_triangles(inst, i, c).triangles)
                branches["folded quad"] += folded
        for inst in (pinned, turned):
            assert build_conflict_table(inst).pairs[(0, 3)] == ((True, True), (True, True))

        # every branch of the kernel is reached, and each one that calls out
        # is called exactly as often as the independent tally says (the
        # coplanar branch also serves the two self-conflict tests of each
        # coplanar quad)
        for branch in (
            "sections apart",
            "strict dismissal",
            "coplanar, identity",
            "coplanar, wall",
            "shared edge, wrap pair",
            "shared edge, n = 3",
            "one shared vertex",
            "crossing, meet",
            "crossing, disjoint",
            "coplanar quad",
            "folded quad",
        ):
            assert branches[branch] > 0, branch
        assert calls["crossing"] == branches["crossing"]
        assert calls["one shared vertex"] == branches["one shared vertex"]
        assert calls["coplanar"] == branches["coplanar"] + 2 * branches["coplanar quad"]

    def test_equal_levels_are_rejected(self):
        # the sections-apart test needs two distinct levels
        flat = LabeledPolygon(SQUARE, 0)
        with pytest.raises(PreconditionError):
            build_conflict_table(SliceInstance(flat, flat))

    def test_triangle_instance_wraparound_band_pair(self):
        # with n=3 every band pair is adjacent: bands 0 and 2 share the
        # vertical edge at vertex 0, so the sharing exemption must come from
        # the actual mesh and both uniform choices must stay conflict-free
        inst = fig1_twisted_prism().instance
        for c in Chord:
            assert not conflicts(inst, 0, c, 2, c)
        n, clauses = build_clauses(inst)
        assert n == 3
        res_vars = {cl.first.var for cl in clauses} | {cl.second.var for cl in clauses}
        assert res_vars <= {0, 1, 2}


class TestSolve:
    def test_twisted_prism_sat(self):
        out = solve_no_steiner(fig1_twisted_prism().instance)
        assert out.satisfiable
        assert out.report.passed

    def test_fig3a_unsat_with_witness(self):
        out = solve_no_steiner(fig3a_no_surface().instance)
        assert not out.satisfiable
        assert out.unsat.witness_var is not None
        assert "UNSAT" in out.describe()

    def test_fig3a_blocking_pattern(self):
        # the top edge of band AB must form a face with A or with B, and both
        # candidate faces cross the vertical edge CC'
        inst = fig3a_no_surface().instance
        A, B, C = (inst.source.point3(k) for k in range(3))
        Ap, Bp, Cp = (inst.target.point3(k) for k in range(3))
        assert segment_triangle_contact_3d(C, Cp, Triangle3(A, Bp, Ap))
        assert segment_triangle_contact_3d(C, Cp, Triangle3(B, Bp, Ap))

    def test_fig7_star_unsat(self):
        assert not solve_no_steiner(fig7_star().instance).satisfiable

    def test_identity_sat(self):
        out = solve_no_steiner(identity_square())
        assert out.satisfiable and out.report.passed


class TestBruteForce:
    def test_identity_square_all_valid(self):
        assert len(brute_force_assignments(identity_square())) == 16

    def test_fig3a_empty(self):
        assert brute_force_assignments(fig3a_no_surface().instance) == []

    def test_twisted_prism_contains_both_uniform_choices(self):
        names = {str(a) for a in brute_force_assignments(fig1_twisted_prism().instance)}
        assert {"RRR", "LLL"} <= names

    def test_limit(self):
        rng = random.Random(1)
        inst = random_instance(rng, 5, "convex")
        with pytest.raises(PreconditionError):
            brute_force_assignments(inst, limit=4)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(17)
        kinds = ["convex", "star", "spiral"]
        for k in range(25):
            inst = random_instance(rng, rng.randint(3, 8), kinds[k % 3])
            out = solve_no_steiner(inst)
            oracle = brute_force_assignments(inst)
            assert out.satisfiable == bool(oracle)
            if out.satisfiable:
                assert str(out.assignment) in {str(a) for a in oracle}

    def test_translation_invariance(self):
        rng = random.Random(23)
        found = 0
        while found < 5:
            inst = random_instance(rng, rng.randint(3, 7), "star")
            out = solve_no_steiner(inst)
            if not out.satisfiable:
                continue
            found += 1
            for _ in range(10):
                dx, dy = rng.randint(-30, 30), rng.randint(-30, 30)
                moved = SliceInstance(inst.source, inst.target.translated(dx, dy))
                s = assignment_to_surface(moved, out.assignment)
                assert verify_banded_surface(s).passed


GRID = st.tuples(st.integers(0, 3), st.integers(0, 3))
LEVELS = st.lists(st.integers(-2, 2), min_size=2, max_size=2, unique=True)


def _quad(bottom, top, levels):
    (p0, p1), (q0, q1), (z0, z1) = bottom, top, levels
    return ((*p0, z0), (*p1, z0), (*q1, z1), (*q0, z1))


# two walls side by side in the vertical plane y = 0, which only an in-plane
# axis separates
@example(((0, 0), (1, 0)), ((0, 0), (1, 0)), ((2, 0), (3, 0)), ((2, 0), (3, 0)), [0, 1])
@given(
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    LEVELS,
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_sections_apart_is_closed_tetrahedron_disjointness(bottom_a, top_a, bottom_b, top_b, levels):
    # on a 4 x 4 grid the draws hold flat quads, vertices shared by value and
    # corners that touch; a quad that is a single segment has no chord
    # triangles, so at least one of its edges has length
    assume(len(set(bottom_a)) == 2 or len(set(top_a)) == 2)
    assume(len(set(bottom_b)) == 2 or len(set(top_b)) == 2)
    a, b = _quad(bottom_a, top_a, levels), _quad(bottom_b, top_b, levels)
    assert solver._sections_apart(a, b) == tetrahedra_disjoint(a, b)
    assert solver._sections_apart(b, a) == solver._sections_apart(a, b)


def _relabelled(inst, k):
    """The instance with vertex i renamed i - k, so that its band i is band
    i + k of inst."""
    return SliceInstance(
        *(LabeledPolygon(p.vertices[k:] + p.vertices[:k], p.z_level) for p in (inst.source, inst.target))
    )


def _moved(inst, scale, dx, dy):
    return SliceInstance(
        *(
            LabeledPolygon(tuple(Point2(scale * v.x + dx, scale * v.y + dy) for v in p.vertices), p.z_level)
            for p in (inst.source, inst.target)
        )
    )


@given(
    st.integers(0, 10**6),
    st.integers(3, 10),
    st.sampled_from(["convex", "star", "spiral"]),
    st.integers(0, 9),
    st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=40),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_conflict_table_under_relabelling_translation_and_scaling(seed, n, kind, k, scale, dx, dy):
    inst = random_instance(random.Random(seed), n, kind)
    k %= n
    table = build_conflict_table(inst)

    relabelled = _relabelled(inst, k)
    shifted = build_conflict_table(relabelled)
    assert sorted(shifted.pairs) == sorted(table.pairs)
    for (i, j), mat in shifted.pairs.items():
        a, b = (i + k) % n, (j + k) % n
        assert mat == (table.pairs[(a, b)] if a < b else tuple(zip(*table.pairs[(b, a)])))
    assert shifted.self_conflicts == {
        (i, c): table.self_conflicts[((i + k) % n, c)] for i, c in shifted.self_conflicts
    }

    moved = _moved(inst, scale, dx, dy)
    moved_table = build_conflict_table(moved)
    assert moved_table.pairs == table.pairs
    assert moved_table.self_conflicts == table.self_conflicts

    verdict = solve_no_steiner(inst).satisfiable
    assert solve_no_steiner(relabelled).satisfiable == verdict
    assert solve_no_steiner(moved).satisfiable == verdict


def _mirrored(inst):
    """The instance mirrored by x -> -x with both vertex orders reversed,
    so that both polygons stay counterclockwise: its vertex i is vertex
    n - 1 - i of inst, and its band i is band n - 2 - i (mod n) of inst with
    the two chords exchanged."""
    return SliceInstance(
        *(
            LabeledPolygon(tuple(Point2(-v.x, v.y) for v in reversed(p.vertices)), p.z_level)
            for p in (inst.source, inst.target)
        )
    )


@given(st.integers(0, 10**6), st.integers(3, 10), st.sampled_from(["convex", "star", "spiral"]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_verdicts_under_mirror_and_reversal(seed, n, kind):
    inst = random_instance(random.Random(seed), n, kind)
    image = _mirrored(inst)
    image.validate()
    n = inst.n
    table, mirrored = build_conflict_table(inst), build_conflict_table(image)
    for (i, j), mat in mirrored.pairs.items():
        a, b = (n - 2 - i) % n, (n - 2 - j) % n
        old = table.pairs[(a, b)] if a < b else tuple(zip(*table.pairs[(b, a)]))
        # right and left exchange, so both indices flip
        assert mat == tuple(tuple(row[::-1]) for row in old[::-1])
    other = {Chord.RIGHT: Chord.LEFT, Chord.LEFT: Chord.RIGHT}
    assert mirrored.self_conflicts == {
        (i, c): table.self_conflicts[((n - 2 - i) % n, other[c])] for i, c in mirrored.self_conflicts
    }
    assert solve_no_steiner(image).satisfiable == solve_no_steiner(inst).satisfiable
    assert planarity_preserving(image).preserved == planarity_preserving(inst).preserved


@given(
    st.integers(0, 10**6),
    st.integers(3, 7),
    st.sampled_from(["convex", "star"]),
    st.sampled_from([None, -2, -1, Fraction(1, 2), 2]),
    st.integers(-6, 6),
    st.integers(-6, 6),
)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_coplanar_bands_agree_with_brute_force(seed, n, kind, factor, dx, dy):
    # every band quad is coplanar: the target is the source itself, so that
    # each band is a vertical wall, or a homothety of it, whose edges are
    # parallel to the source's; every band's two chord triangles then go
    # through the kernel's coplanar branch, in the table's self-conflict
    # tests and in the verifier's face pass
    source = random_polygon(random.Random(seed), n, kind).vertices
    if factor is None:
        target = source
    else:
        target = tuple(Point2(factor * p.x + dx, factor * p.y + dy) for p in source)
    inst = SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(target, 1))
    assert all(orient3d(*inst.band_quad(i)) == 0 for i in range(n))
    outcome = solve_no_steiner(inst)
    oracle = brute_force_assignments(inst)
    assert outcome.satisfiable == bool(oracle)
    if outcome.satisfiable:
        assert outcome.assignment in oracle


def _with_flat_vertices(polygon, flats: int):
    """The polygon with its coordinates doubled and the midpoints of its
    first `flats` edges inserted as collinear vertices."""
    doubled = [Point2(2 * p.x, 2 * p.y) for p in polygon]
    out = []
    for i, p in enumerate(doubled):
        out.append(p)
        if i < flats:
            q = doubled[(i + 1) % len(doubled)]
            out.append(Point2(Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2)))
    return tuple(out)


def _shared_xy_target(rng, source, keep, style):
    """A target that keeps the xy of the source vertices in `keep`.  "turn":
    the source turned by a rational rotation and scaled about its first
    kept vertex.  "offsets": every other vertex moved by random integer
    offsets, up to half the source's extent and shrinking until the target
    is simple and counterclockwise (at offset 0 it is the source itself)."""
    if style == "turn":
        c = source[min(keep)]
        cos, sin = rng.choice([(Fraction(3, 5), Fraction(4, 5)), (0, 1), (Fraction(-3, 5), Fraction(4, 5))])
        f = Fraction(rng.choice([1, 2, 3]), 2)
        return tuple(
            Point2(c.x + f * (cos * (p.x - c.x) - sin * (p.y - c.y)), c.y + f * (sin * (p.x - c.x) + cos * (p.y - c.y)))
            for p in source
        )
    span = max(max(p.x for p in source) - min(p.x for p in source), max(p.y for p in source) - min(p.y for p in source))
    while True:
        span //= 2
        for _ in range(20):
            pts = tuple(
                p if i in keep else Point2(p.x + rng.randint(-span, span), p.y + rng.randint(-span, span))
                for i, p in enumerate(source)
            )
            if polygon_is_simple(pts) and polygon_is_ccw(pts):
                return pts


@given(
    st.integers(0, 10**6),
    st.integers(3, 6),
    st.integers(1, 4),
    st.sampled_from(["convex", "star"]),
    st.sampled_from(["turn", "offsets"]),
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_flat_sources_and_shared_xy_agree_with_brute_force(seed, m, flats, kind, style):
    # sources with collinear (flat) vertices; targets that reuse the xy of
    # some source vertices, so that those paths are vertical, and with
    # offsets two adjacent ones, so that the band between them is a wall:
    # the solver, the brute-force oracle and the forced verifier agree
    # (n <= 7)
    rng = random.Random(seed)
    source = _with_flat_vertices(random_polygon(rng, m, kind).vertices, min(flats, 7 - m))
    n = len(source)
    i = rng.randrange(n)
    keep = {i, (i + 1) % n} | set(rng.sample(range(n), rng.randint(0, n - 2)))
    inst = SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(_shared_xy_target(rng, source, keep, style), 1))
    inst.validate()
    assert style == "turn" or orient3d(*inst.band_quad(i)) == 0
    outcome = solve_no_steiner(inst)
    oracle = brute_force_assignments(inst)
    assert outcome.satisfiable == bool(oracle)
    if outcome.satisfiable:
        assert outcome.assignment in oracle
    for mask in rng.sample(range(1 << n), 12):
        assignment = ChordAssignment.from_bools((mask >> i) & 1 for i in range(n))
        report = verify_banded_surface(assignment_to_surface(inst, assignment), force_sections=True)
        assert report.passed == (assignment in oracle), (str(assignment), report.summary())
