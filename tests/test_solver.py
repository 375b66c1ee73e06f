import random
from fractions import Fraction

import pytest

from banded.errors import PreconditionError
from banded.figures import fig1_twisted_prism, fig3a_no_surface, fig7_star
from banded.generators import (
    jiggled_instance,
    random_instance,
    random_polygon,
    rotated_instance,
    similar_copy_instance,
)
from banded.geometry import Point2, Triangle3, segment_triangle_contact_3d
from banded.model import (
    Chord,
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    verify_banded_surface,
)
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

    def test_conflict_table_matches_conflicts(self):
        # the swept table against the unpruned pairwise reference, on every
        # target style; the pinned pair has bands 0 and 3 conflicting while
        # their boxes meet only along the line x = 5, and its quarter turn
        # puts that line on a y boundary, so an open-box sweep misses both
        rng = random.Random(17)
        source = ((5, 0), (5, 4), (6, 7), (5, 6), (4, 5), (2, 6))
        target = ((5, 6), (7, 6), (1, 9), (5, 2), (4, 5), (3, 7))
        pinned = _instance(source, target)
        turned = _instance(*(tuple((-y, x) for x, y in p) for p in (source, target)))
        instances = [fig7_star().instance, pinned, turned]
        for n in range(3, 13):
            for kind in ("convex", "star"):
                poly = random_polygon(rng, n, kind)
                other = random_polygon(rng, n, kind)
                instances += [
                    similar_copy_instance(rng, poly),
                    jiggled_instance(rng, poly),
                    rotated_instance(rng, poly),
                    SliceInstance(poly, LabeledPolygon(other.vertices, 1)),
                ]
        for inst in instances:
            inst.validate()
            table = build_conflict_table(inst)
            assert sorted(table.pairs) == [
                (i, j) for i in range(inst.n) for j in range(i + 1, inst.n)
            ]
            for (i, j), mat in table.pairs.items():
                for ci in Chord:
                    for cj in Chord:
                        idx = (0 if ci is Chord.RIGHT else 1, 0 if cj is Chord.RIGHT else 1)
                        assert mat[idx[0]][idx[1]] == conflicts(inst, i, ci, j, cj)
        for inst in (pinned, turned):
            assert build_conflict_table(inst).pairs[(0, 3)] == ((True, True), (True, True))

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
