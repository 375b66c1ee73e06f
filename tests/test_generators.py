import hashlib
import inspect
import random
import time
from fractions import Fraction

import generators
import pytest
from generators import (
    GenerationError,
    jiggled_instance,
    random_convex_polygon,
    random_polygon,
    random_star_polygon,
    random_translation,
)

from banded.errors import PreconditionError
from banded.geometry import Point2, polygon_is_ccw, polygon_is_convex, polygon_is_simple


def test_jiggle_that_never_finds_a_simple_target_raises_generation_error(monkeypatch):
    rng = random.Random(0)
    poly = random_star_polygon(rng, 6)
    monkeypatch.setattr(generators, "polygon_is_simple", lambda pts: False)
    with pytest.raises(GenerationError):
        jiggled_instance(rng, poly)


def test_generator_options_are_only_those_a_caller_sets():
    # an option that no caller sets is a code path that nothing runs
    for generator in (random_convex_polygon, random_star_polygon):
        assert list(inspect.signature(generator).parameters) == ["rng", "n"], generator.__name__
    # every caller of `random_translation` passes its spread; the convex chord
    # rule's alternation test jiggles by 1, every other caller by the default
    def defaulted(function):
        return [p.name for p in inspect.signature(function).parameters.values() if p.default is not p.empty]

    assert defaulted(random_translation) == []
    assert defaulted(jiggled_instance) == ["amount"]


def test_unknown_polygon_kind_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        random_polygon(random.Random(0), 5, "hexagon")


@pytest.mark.parametrize("kind", ["convex", "star", "spiral"])
def test_random_polygon_has_n_vertices(kind):
    # spirals with n = 3..5 used to come back as 6-gons
    for n in range(3, 13):
        poly = random_polygon(random.Random(n), n, kind)
        assert poly.n == n
        poly.validate()


def test_star_with_more_vertices_than_directions_is_a_precondition_error():
    # 368 primitive directions lie in [-12, 12]^2; n = 369 used to draw forever
    assert len(random_star_polygon(random.Random(0), 368).vertices) == 368
    with pytest.raises(PreconditionError, match="at most 368"):
        random_star_polygon(random.Random(0), 369)


def test_convex_with_more_vertices_than_directions_is_a_precondition_error():
    # 1024 primitive directions lie in [-20, 20]^2, and the closing edge
    # adds one; n = 1026 used to draw forever.  The check draws nothing.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(PreconditionError, match="at most 1025"):
        random_convex_polygon(rng, 1026)
    assert rng.getstate() == state


def test_convex_streams_up_to_80_vertices_are_pinned():
    # seeded corpora draw convex polygons with n <= 80 by joint redraws;
    # their vertices, and the stream left after them, must not change
    digest = hashlib.sha256()
    for n in (3, 4, 7, 20, 50, 80):
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            poly = random_convex_polygon(rng, n)
            digest.update(repr([(p.x, p.y) for p in poly.vertices]).encode())
            digest.update(repr(rng.random()).encode())
    assert digest.hexdigest()[:16] == "27521664504864d0"


@pytest.mark.parametrize("n", [81, 100, 200, 1025])
def test_large_convex_polygons_draw_edge_by_edge(n):
    # joint redraws took 6.65 s at n = 100; one edge at a time reaches the
    # largest n that [-20, 20]^2 allows
    start = time.perf_counter()
    poly = random_convex_polygon(random.Random(0), n)
    assert time.perf_counter() - start < 1
    assert poly.n == n
    assert polygon_is_convex(poly.vertices) and polygon_is_ccw(poly.vertices)


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
