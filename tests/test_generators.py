import random

import pytest

from banded import generators
from banded.errors import GenerationError
from banded.generators import jiggled_instance, random_star_polygon


def test_jiggle_that_never_finds_a_simple_target_raises_generation_error(monkeypatch):
    rng = random.Random(0)
    poly = random_star_polygon(rng, 6)
    monkeypatch.setattr(generators, "polygon_is_simple", lambda pts: False)
    with pytest.raises(GenerationError):
        jiggled_instance(rng, poly)
