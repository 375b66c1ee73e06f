import random
from fractions import Fraction

import pytest

from banded import generators
from banded.errors import GenerationError
from banded.geometry import Point2, polygon_is_ccw, polygon_is_simple
from banded.generators import jiggled_instance, random_polygon, random_star_polygon


def test_jiggle_that_never_finds_a_simple_target_raises_generation_error(monkeypatch):
    rng = random.Random(0)
    poly = random_star_polygon(rng, 6)
    monkeypatch.setattr(generators, "polygon_is_simple", lambda pts: False)
    with pytest.raises(GenerationError):
        jiggled_instance(rng, poly)


def full_range_jiggle(rng, polygon, amount=2):
    """The first 200 draws of `jiggled_instance`, or None if none is valid."""
    for _ in range(200):
        pts = [
            Point2(
                p.x + Fraction(rng.randint(-amount * 4, amount * 4), 4),
                p.y + Fraction(rng.randint(-amount * 4, amount * 4), 4),
            )
            for p in polygon.vertices
        ]
        if polygon_is_simple(pts) and polygon_is_ccw(pts):
            return tuple(pts)
    return None


@pytest.mark.parametrize(
    "kind, n, seeds, full_range_seeds",
    [
        ("star", 80, range(10), ()),
        ("star", 60, range(10), (3, 7)),
        ("spiral", 40, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 40), (0, 2, 5, 6)),
    ],
)
def test_jiggle_is_total_and_keeps_full_range_draws(kind, n, seeds, full_range_seeds):
    # the other seeds used to give up after 200 full-range draws; the full
    # range ones must still give the instance they gave then
    for seed in seeds:
        rng = random.Random(seed)
        poly = random_polygon(rng, n, kind)
        state = rng.getstate()
        inst = jiggled_instance(rng, poly)
        inst.validate()
        assert inst.source.vertices == poly.vertices
        for p, q in zip(poly.vertices, inst.target.vertices):
            assert abs(q.x - p.x) <= 2 and abs(q.y - p.y) <= 2
        if seed in full_range_seeds:
            rng.setstate(state)
            assert inst.target.vertices == full_range_jiggle(rng, poly)
