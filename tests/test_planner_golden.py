"""Golden output of the layered planner, at least one instance per route.

`build_layered_surface` tries the direct chord solve, then snapshots of the
linear morph (`_morph_plan`), exact sub-rotations (`_rotation_plan`) and
finally the ear-squash chains toward a common corner triple
(`_squash_plan`).  Each instance below is pinned by its route and by the
sha256 of its surface (vertices with labels, faces, bands and paths), so a
refactor of the planner that changes any surface, or the route that built
it, fails here.  The instances come from recipes the other tests use: the
criterion-7 draw (seed 70707) of test_acceptance, the seed-505 star stream
of test_model, and `fig3a_no_surface`.  Rotation win c7_36 is a near half
turn whose morph bisection gives up at depth 4.  Squash win star_505_3
(n = 3) has no triple that passes the eigenvalue test and takes the
quarter-turn bridge.  The morph route's layers are also checked, point for
point, against `morph_position` at their morph times.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
from reference_figures import fig3a_no_surface

import banded.steiner as steiner
from banded.generators import random_instance, random_polygon, random_star_polygon
from banded.geometry import Point2, _turn_rule
from banded.model import ChordAssignment, LabeledPolygon
from banded.morph import morph_position, rotate_copy_instance
from banded.solver import solve_no_steiner

KINDS = ("convex", "star", "spiral")
PLANS = ("_morph_plan", "_rotation_plan", "_squash_plan")


@functools.cache
def criterion_7_cases():
    """The 110 instances of the criterion-7 recipe: 100 with n 4-15, then
    10 with n = 30."""
    rng = random.Random(70707)
    cases = []
    for k in range(100):
        n = rng.randint(4, 15)
        if k % 4 == 0:
            poly = random_polygon(rng, n, "star")
            inst = rotate_copy_instance(poly, Point2(0, 0), (Fraction(-24, 25), Fraction(7, 25)))
        else:
            inst = random_instance(rng, n, KINDS[k % 3])
        cases.append(inst)
    for k in range(10):
        if k % 2 == 0:
            poly = random_polygon(rng, 30, "star")
            inst = rotate_copy_instance(poly, Point2(0, 0), (Fraction(-4, 5), Fraction(3, 5)))
        else:
            inst = random_instance(rng, 30, KINDS[k % 3])
        cases.append(inst)
    return cases


def seed_505_star(index):
    rng = random.Random(505)
    for _ in range(index):
        random_instance(rng, rng.randint(3, 12), "star")
    return random_instance(rng, rng.randint(3, 12), "star")


def rotated_star():
    star = random_star_polygon(random.Random(77), 9)
    return rotate_copy_instance(star, Point2(0, 0), (Fraction(-24, 25), Fraction(7, 25)))


INSTANCES = {
    "c7_1": lambda: criterion_7_cases()[1],
    "c7_0": lambda: criterion_7_cases()[0],
    "c7_4": lambda: criterion_7_cases()[4],
    "rotated_star_77": rotated_star,
    "fig3a": lambda: fig3a_no_surface().instance,
    "c7_10": lambda: criterion_7_cases()[10],
    "c7_11": lambda: criterion_7_cases()[11],
    "c7_14": lambda: criterion_7_cases()[14],
    "c7_21": lambda: criterion_7_cases()[21],
    "c7_83": lambda: criterion_7_cases()[83],
    "c7_36": lambda: criterion_7_cases()[36],
    "star_505_3": lambda: seed_505_star(3),
    "star_505_2": lambda: seed_505_star(2),
    "star_505_10": lambda: seed_505_star(10),
}

# name -> (route, sha256 of the surface)
GOLDEN = {
    "c7_1": ("direct", "9e8001aa8e69cffe5d159494808c92eeda6eb687bd28e3a784def8a12d0694ec"),
    "c7_0": ("_morph_plan", "7467f527e9c7b73b2506c9e5a9a9f2063f6fe1bb9ff3f729d2ee44a0132f492d"),
    "c7_4": ("_morph_plan", "390bf6a73b6e0c22d8b671e963a6fe60afd2a52f1dad50ade3995ca3a934d037"),
    "rotated_star_77": ("_morph_plan", "ba5ddfc81f4c4bcc622019c2694e4d20df33aa95a4f25008d2c38f411322837a"),
    "fig3a": ("_rotation_plan", "f25dacbf113d5c8e789870c5291aa8de46a132aadd91e98488d4ee95d84dd4cf"),
    "c7_10": ("_squash_plan", "03f90a1299046f7f5b8d4d2250b51e3a9a3e8a022c4902b6ea21f42928b11b33"),
    "c7_11": ("_squash_plan", "56026c2638b88d34be8ddb20b09de0dfafdde162ed373fab9062f896f9052a20"),
    "c7_14": ("_squash_plan", "f50b97ca391f4d5ec51edc86d0afa1cf4fa597ad8d8e3b7dc53e3341c1c8afce"),
    "c7_21": ("_squash_plan", "dd5872f4d75f5535eb6c3f13a8d3dba42d83b0252a1b7a04ba12655a1735afa9"),
    "c7_83": ("direct", "e664711d55f8340d4fb013b657f122a601ba343e1d2678bb9f470b79feea9b60"),
    # bisecting this near half turn leaves a gap below t = 1/2, where the
    # copy is smallest, that still fails at depth 4
    "c7_36": ("_rotation_plan", "56d02b0a8b41991b632df5317a2d7d91a457f66a5467fb6acf1dc19833ace285"),
    "star_505_3": ("_squash_plan", "f58a1c2dff38e95d8349149c74764e94fd4b413e087cd4ed32a802b96b9328a2"),
    "star_505_2": ("_squash_plan", "7c54617048f630770e65d3da4040019bb1061819d3a3dbac579d661a14c9f052"),
    "star_505_10": ("_squash_plan", "e111cc4faf1f8a126d9bf75235e0dc9c70834a4b93ed609a26a84f4ac43f7e21"),
}


def surface_digest(s) -> str:
    vertices = tuple((str(p.x), str(p.y), str(p.z), repr(label)) for p, label in s.vertices)
    bands = tuple(tuple(sorted(b)) for b in s.bands)
    return hashlib.sha256(repr((vertices, s.faces, bands, s.paths)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_surface(name, monkeypatch):
    calls = []
    for plan in PLANS:

        def counted(*args, _plan=plan, _inner=getattr(steiner, plan), **kwargs):
            calls.append(_plan)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(steiner, plan, counted)
    surface = steiner.build_layered_surface(INSTANCES[name]())
    route = calls[-1] if calls else "direct"
    # every plan before the winner was tried once and gave up
    assert calls == list(PLANS[: len(calls)])
    assert (route, surface_digest(surface)) == GOLDEN[name]


@pytest.mark.parametrize("name", [name for name, (route, _) in GOLDEN.items() if route == "direct"])
def test_golden_direct_surfaces_take_the_turn_rule(name):
    # each direct golden is the turn rule's surface, accepted by the
    # verifier after ring 1 of the conflict table
    inst = INSTANCES[name]()
    outcome = solve_no_steiner(inst)
    assert outcome.certified_by == "turn rule"
    assert outcome.assignment == ChordAssignment.from_bools(_turn_rule(inst.validate()[1]))


def test_golden_set_covers_every_route():
    assert {route for route, _ in GOLDEN.values()} == {"direct", *PLANS}
    assert set(GOLDEN) == set(INSTANCES)


class NotTheMorphRoute(Exception):
    pass


def morph_route_surface(inst):
    """The surface that the morph route builds for inst, or None where the
    direct solve or a later route builds it."""

    def later_route(*args):
        raise NotTheMorphRoute

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steiner, "_rotation_plan", later_route)
        try:
            s = steiner.build_layered_surface(inst)
        except NotTheMorphRoute:
            return None
    return s if len(s.paths[0]) > 2 else None


def assert_layers_are_morph_snapshots(inst, s):
    # layer g of m + 1 stands at z = g/m, and its points equal, as values
    # and as `Fraction`s, those of `morph_position` at some t = j/16, with t
    # rising from 0 to 1
    m = len(s.paths[0]) - 1
    snapshots = {Fraction(j, 16): morph_position(inst, Fraction(j, 16)).vertices for j in range(17)}
    times = []
    for g in range(m + 1):
        layer = [s.vertices[path[g]][0] for path in s.paths]
        assert {p.z for p in layer} == {Fraction(g, m)}
        xy = tuple(Point2(p.x, p.y) for p in layer)
        times.append(next(t for t, snap in snapshots.items() if snap == xy))
        if 0 < g < m:
            assert all(type(c) is Fraction for p in xy for c in p)
    assert times[0] == 0 and times[-1] == 1
    assert times == sorted(set(times))


@pytest.mark.parametrize("name", [name for name, (route, _) in GOLDEN.items() if route == "_morph_plan"])
def test_golden_morph_layers_are_morph_snapshots(name):
    inst = INSTANCES[name]()
    assert_layers_are_morph_snapshots(inst, morph_route_surface(inst))


def test_criterion_7_morph_layers_are_morph_snapshots():
    wins = []
    for k, inst in enumerate(criterion_7_cases()):
        s = morph_route_surface(inst)
        if s is not None:
            assert_layers_are_morph_snapshots(inst, s)
            wins.append(k)
    assert {0, 4} <= set(wins) and len(wins) >= 30, wins


def test_near_half_turn_stars_on_fractions_take_morph_snapshots():
    # star coordinates with denominators 3 and 6, turned by (-24/25, 7/25)
    # about (1/7, 0), so the integer frame's factor is not 1
    wins = 0
    for seed in range(40):
        rng = random.Random(seed)
        star = random_star_polygon(rng, rng.randint(5, 12))
        source = tuple(Point2(Fraction(p.x, 3), Fraction(2 * p.y + 1, 6)) for p in star.vertices)
        inst = rotate_copy_instance(
            LabeledPolygon(source, 0), Point2(Fraction(1, 7), 0), (Fraction(-24, 25), Fraction(7, 25))
        )
        s = morph_route_surface(inst)
        if s is not None:
            assert_layers_are_morph_snapshots(inst, s)
            wins += 1
    assert wins >= 30
