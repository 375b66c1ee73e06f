"""Golden output of the layered planner, at least one instance per route.

`build_layered_surface` tries the direct chord solve, then snapshots of the
linear morph (`_morph_plan`), exact sub-rotations (`_rotation_plan`), paired
flattening chains (`_ladder_plan`) and finally the full collapse stack
(`build_stack`).  Each instance below is pinned by its route and by the
sha256 of its surface (vertices with labels, faces, bands and paths), so a
refactor of the planner that changes any surface, or the route that built
it, fails here.  The instances come from recipes the other tests use: the
criterion-7 draw (seed 70707) of test_acceptance, the seed-505 star stream
of test_model, and `fig3a_no_surface`.  Ladder win c7_11 pairs a strict
collapse chain against the relaxed one.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest

import banded.steiner as steiner
from banded.figures import fig3a_no_surface
from banded.generators import random_instance, random_polygon, random_star_polygon
from banded.geometry import Point2
from banded.morph import rotate_copy_instance

KINDS = ("convex", "star", "spiral")
PLANS = ("_morph_plan", "_rotation_plan", "_ladder_plan", "build_stack")


@functools.cache
def criterion_7_cases():
    """The first 100 instances of the criterion-7 recipe (n 4-15)."""
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
    "star_505_3": lambda: seed_505_star(3),
}

# name -> (route, sha256 of the surface)
GOLDEN = {
    "c7_1": ("direct", "25402a2fe2725c281be0b9cad73135db5010282f2a4949d3e833c9eb568c6da4"),
    "c7_0": ("_morph_plan", "7467f527e9c7b73b2506c9e5a9a9f2063f6fe1bb9ff3f729d2ee44a0132f492d"),
    "c7_4": ("_morph_plan", "390bf6a73b6e0c22d8b671e963a6fe60afd2a52f1dad50ade3995ca3a934d037"),
    "rotated_star_77": ("_morph_plan", "ba5ddfc81f4c4bcc622019c2694e4d20df33aa95a4f25008d2c38f411322837a"),
    "fig3a": ("_rotation_plan", "f25dacbf113d5c8e789870c5291aa8de46a132aadd91e98488d4ee95d84dd4cf"),
    "c7_10": ("_ladder_plan", "b26e0378ae495658adcf8b071e09c126fbb2ff207fe6b7fb0ea1f5258885ba4a"),
    "c7_11": ("_ladder_plan", "43759a6d07e0d9061bdd0f66bff9a43702cc2854a1e8ec86918a38862e1992ae"),
    "c7_14": ("_ladder_plan", "4f01eaea818681c47d50df19a378809a5fea27c4f101cb4bec770b31e4a8581c"),
    "c7_21": ("_ladder_plan", "5cbbb7ae0baf67ef3ab0064eb4dc4697908223d33c456c7a80501a27f8fc7ca7"),
    "c7_83": ("_ladder_plan", "c53252b1f6d09f4a2ce1012bbe811d35a16f70ef1ec7b7a2c690e1ab197ce5dd"),
    "star_505_3": ("build_stack", "28fee2d586a0a9f265cc9ca613e7c6aeb9f7086dadab42a38de93ea76d1d8e94"),
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


def test_golden_set_covers_every_route():
    assert {route for route, _ in GOLDEN.values()} == {"direct", *PLANS}
    assert set(GOLDEN) == set(INSTANCES)
