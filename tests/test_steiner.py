import random
from fractions import Fraction

import pytest

import banded.solver as solver
import banded.steiner as steiner
from banded.errors import InternalConsistencyError, PreconditionError
from banded.figures import fig3a_no_surface, fig7_star
from banded.generators import random_instance, random_star_polygon
from banded.geometry import Point2
from banded.model import LabeledPolygon, SliceInstance, verify_banded_surface
from banded.morph import rotate_copy_instance
from banded.solver import solve_no_steiner
from banded.steiner import (
    build_layered_surface,
    collapse_ear,
    join_triangles,
    _corner_count,
    _gap_assignment,
)


class TestCollapseEar:
    def test_convex_quadrilateral(self):
        poly = LabeledPolygon(
            (Point2(0, 0), Point2(4, 0), Point2(5, 3), Point2(1, 4)), 0
        )
        out, moved = collapse_ear(poly)
        assert out.n == 4
        assert _corner_count(out.vertices) == 3
        assert out.is_simple()
        a, c = poly.vertices[(moved - 1) % 4], poly.vertices[(moved + 1) % 4]
        assert out.vertices[moved] == Point2(Fraction(a.x + c.x, 2), Fraction(a.y + c.y, 2))

    def test_triangle_refuses(self):
        tri = LabeledPolygon((Point2(0, 0), Point2(3, 0), Point2(0, 3)), 0)
        with pytest.raises(PreconditionError):
            collapse_ear(tri)

    def test_l_shaped_hexagon(self):
        poly = LabeledPolygon(
            (
                Point2(0, 0),
                Point2(6, 0),
                Point2(6, 2),
                Point2(2, 2),
                Point2(2, 6),
                Point2(0, 6),
            ),
            0,
        )
        out, moved = collapse_ear(poly)
        assert out.is_simple()
        assert _corner_count(out.vertices) == 5

    def test_start_offset_changes_choice(self):
        poly = LabeledPolygon(
            (Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)), 0
        )
        _, m0 = collapse_ear(poly, start=0)
        _, m2 = collapse_ear(poly, start=2)
        assert m0 != m2


class TestJoins:
    def test_identical_layers_join(self):
        poly = LabeledPolygon((Point2(0, 0), Point2(4, 0), Point2(0, 4)), 0)
        lower = LabeledPolygon(poly.vertices, 0)
        upper = LabeledPolygon(poly.vertices, Fraction(1, 4))
        assignment = _gap_assignment(lower, upper, {})
        assert len(assignment) == 3

    def test_collapse_gap_joins(self):
        # a gap that moves one vertex across an empty ear is always solvable
        poly = LabeledPolygon(
            (Point2(0, 0), Point2(4, 0), Point2(5, 3), Point2(1, 4)), 0
        )
        collapsed, _ = collapse_ear(poly)
        assignment = _gap_assignment(poly, LabeledPolygon(collapsed.vertices, Fraction(1, 2)), {})
        assert len(assignment) == 4

    def test_congruent_triangles_direct(self):
        tri = LabeledPolygon((Point2(0, 0), Point2(4, 0), Point2(0, 4)), 0)
        assert join_triangles(tri, tri, {}) == []

    def test_half_turn_triangles_need_layers(self):
        inst = fig3a_no_surface().instance
        mids = join_triangles(
            LabeledPolygon(inst.source.vertices, 0),
            LabeledPolygon(inst.target.vertices, 0),
            {},
        )
        assert len(mids) >= 1


class TestBuildLayeredSurface:
    def test_direct_instance_gets_zero_steiner(self):
        sq = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))
        inst = SliceInstance(LabeledPolygon(sq, 0), LabeledPolygon(sq, 1))
        s = build_layered_surface(inst)
        assert s.steiner_count() == 0
        assert verify_banded_surface(s).passed

    def test_fig3a_needs_layers_and_verifies(self):
        inst = fig3a_no_surface().instance
        s = build_layered_surface(inst)
        assert s.steiner_count() >= inst.n
        report = verify_banded_surface(s, force_sections=True)
        assert report.passed, report.summary()

    def test_fig7_star_verifies_within_bound(self):
        inst = fig7_star().instance
        s = build_layered_surface(inst)
        n = inst.n
        assert s.steiner_count() <= 2 * n * (n - 3) + 12
        report = verify_banded_surface(s, force_sections=True)
        assert report.passed, report.summary()

    def test_rotated_star_instance(self):
        rng = random.Random(77)
        star = random_star_polygon(rng, 9)
        inst = rotate_copy_instance(star, Point2(0, 0), (Fraction(-24, 25), Fraction(7, 25)))
        assert not solve_no_steiner(inst).satisfiable
        s = build_layered_surface(inst)
        assert verify_banded_surface(s, force_sections=True).passed
        assert s.steiner_count() <= 2 * 9 * 6 + 12

    def test_no_state_between_calls(self, monkeypatch):
        # two builds of one instance do the same work, and the direct pair's
        # table, built by the failed direct solve, is not built again
        inst = fig3a_no_surface().instance
        pair = (inst.source.vertices, inst.target.vertices)
        tables = []

        def counted(module):
            inner = module.build_conflict_table

            def build_conflict_table(table_inst):
                tables.append((module.__name__, (table_inst.source.vertices, table_inst.target.vertices)))
                return inner(table_inst)

            return build_conflict_table

        monkeypatch.setattr(solver, "build_conflict_table", counted(solver))
        monkeypatch.setattr(steiner, "build_conflict_table", counted(steiner))
        per_call = []
        for _ in range(2):
            tables.clear()
            surface = build_layered_surface(inst)
            per_call.append(list(tables))
        assert surface.steiner_count() > 0
        gaps = [[k for m, k in call if m == steiner.__name__] for call in per_call]
        assert len(gaps[0]) == len(gaps[1]) > 0
        assert [sum(k == pair for _, k in call) for call in per_call] == [1, 1]

    def test_fuzz_small_instances(self):
        rng = random.Random(101)
        kinds = ["convex", "star", "spiral"]
        for k in range(12):
            inst = random_instance(rng, rng.randint(3, 9), kinds[k % 3])
            s = build_layered_surface(inst)
            n = inst.n
            assert s.steiner_count() <= 2 * n * (n - 3) + 12
            report = verify_banded_surface(s)
            assert report.passed, report.summary()


def seed_505_star(index):
    """Star instance `index` of the seed-505 stream of tests/test_model.py."""
    rng = random.Random(505)
    for _ in range(index):
        random_instance(rng, rng.randint(3, 12), "star")
    return random_instance(rng, rng.randint(3, 12), "star")


# Reproducers of ROADMAP item 1: both instances reach `build_stack`.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="build_stack adds 350 vertices, bound 152")
def test_seed_505_star_10_within_bound():
    inst = seed_505_star(10)
    n = inst.n
    assert build_layered_surface(inst).steiner_count() <= 2 * n * (n - 3) + 12


@pytest.mark.xfail(strict=True, raises=InternalConsistencyError, reason="build_stack fails to join its layers")
def test_seed_505_star_2_builds():
    inst = seed_505_star(2)
    s = build_layered_surface(inst)
    n = inst.n
    assert s.steiner_count() <= 2 * n * (n - 3) + 12
    assert verify_banded_surface(s).passed
