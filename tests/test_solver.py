import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def _separates(quad, other) -> bool:
    """Whether a face plane of quad's tetrahedron has quad's fourth vertex
    strictly on one side and all four points of other strictly on the other."""
    for triple in QUAD_TRIPLES:
        a, b, c = (quad[v] for v in triple)
        (fourth,) = (p for v, p in enumerate(quad) if v not in triple)
        own = orient3d(a, b, c, fourth)
        if own and all(orient3d(a, b, c, p) == -own for p in other):
            return True
    return False


def _triangle_branch(t1, t2) -> str:
    s2 = [orient3d(t1.a, t1.b, t1.c, p) for p in t2.vertices]
    s1 = [orient3d(t2.a, t2.b, t2.c, p) for p in t1.vertices]
    if any(s[0] == s[1] == s[2] != 0 for s in (s1, s2)):
        return "strict dismissal"
    if s2 == [0, 0, 0]:
        return "coplanar fallback"
    shared = sum(p in t2.vertices for p in t1.vertices)
    return ("crossing", "one shared vertex", "shared edge")[shared]


def kernel_branches(inst, label: str) -> Counter:
    """Which branch of the band-pair kernel decides each test of the
    conflict table, found from `orient3d` and vertex values alone: per pair
    whose closed xy boxes meet, separation by a plane of the lower band,
    then of the upper one, else one branch per triangle test, in the order
    of `open_triangles_intersect_3d` and stopping a choice pair at its
    first conflict.  Some branches also count under `label` or the pair."""
    scaled = scaled_to_integers(inst)
    n = inst.n
    quads = [scaled.band_quad(i) for i in range(n)]
    boxes = [
        (min(p.x for p in q), max(p.x for p in q), min(p.y for p in q), max(p.y for p in q))
        for q in quads
    ]
    counts = Counter()
    for i in range(n):
        for j in range(i + 1, n):
            a, b = quads[i], quads[j]
            (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[i], boxes[j]
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            if _separates(a, b):
                counts["separated by a"] += 1
                continue
            if _separates(b, a):
                counts["separated by b"] += 1
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
                        if branch == "coplanar fallback":
                            counts[f"coplanar fallback, {label}"] += 1
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
        # cascade calls them; the fallback on the solver's own binding
        with monkeypatch.context() as patched:
            for module, name, fn in (
                (geometry, "crossing", geometry._crossing_triangles_meet),
                (geometry, "one shared vertex", geometry._shared_vertex_triangles_meet),
                (solver, "coplanar fallback", solver.open_triangles_intersect_3d),
            ):
                patched.setattr(module, fn.__name__, counted(name, fn))
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
        for inst in (pinned, turned):
            assert build_conflict_table(inst).pairs[(0, 3)] == ((True, True), (True, True))

        # every branch of the kernel is reached, and each one that calls out
        # is called exactly as often as the independent tally says (the
        # fallback binding also serves the 2n self-conflict tests per table)
        for branch in (
            "separated by a",
            "separated by b",
            "strict dismissal",
            "coplanar fallback, identity",
            "coplanar fallback, wall",
            "shared edge, wrap pair",
            "shared edge, n = 3",
            "one shared vertex",
            "crossing, meet",
            "crossing, disjoint",
        ):
            assert branches[branch] > 0, branch
        assert calls["crossing"] == branches["crossing"]
        assert calls["one shared vertex"] == branches["one shared vertex"]
        self_tests = sum(2 * inst.n for _, inst in instances)
        assert calls["coplanar fallback"] == branches["coplanar fallback"] + self_tests

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
