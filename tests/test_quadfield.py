import functools
import itertools
from fractions import Fraction

import pytest
import quadfield_reference as ref

from banded.quadfield import (
    ExactTime,
    rational_between,
    roots_in_open_interval,
    sign_a_plus_b_sqrt,
)


def test_sign_a_plus_b_sqrt():
    # 3 - 2*sqrt(2) > 0, 2 - 2*sqrt(2) < 0, 2 - sqrt(4) == 0
    assert sign_a_plus_b_sqrt(3, -2, 2) == 1
    assert sign_a_plus_b_sqrt(2, -2, 2) == -1
    assert sign_a_plus_b_sqrt(2, -1, 4) == 0
    assert sign_a_plus_b_sqrt(0, 5, 7) == 1
    assert sign_a_plus_b_sqrt(Fraction(-1, 3), 0, 2) == -1


def _value(t: ExactTime):
    """t's value when it is rational, else None."""
    return None if t.q else Fraction(t.p, t.r)


class TestRoots:
    def test_rational_roots(self):
        roots = roots_in_open_interval(1, -6, 8, 1)  # (4t-1)(2t-1)
        assert [_value(r) for r in roots] == [Fraction(1, 4), Fraction(1, 2)]
        assert [r.bounds() for r in roots] == [(Fraction(1, 4),) * 2, (Fraction(1, 2),) * 2]

    def test_irrational_roots_bracketed(self):
        (root,) = roots_in_open_interval(-1, 0, 2, 1)  # t^2 = 1/2
        lo, hi = root.bounds()
        assert _value(root) is None
        assert lo < hi and float(lo) < 0.70710 < 0.70711 < float(hi)
        assert root.sign_minus(7, 10) > 0 and root.sign_minus(71, 100) < 0

    def test_no_real_roots(self):
        assert roots_in_open_interval(1, 0, 1, 1) == []

    def test_double_root(self):
        roots = roots_in_open_interval(1, -4, 4, 1)
        assert len(roots) == 1 and _value(roots[0]) == Fraction(1, 2)

    def test_linear(self):
        roots = roots_in_open_interval(3, -6, 0, 1)
        assert len(roots) == 1 and _value(roots[0]) == Fraction(1, 2)
        assert roots_in_open_interval(-3, 6, 0, 1)[0].bounds() == roots[0].bounds()
        assert roots_in_open_interval(0, 0, 0, 1) == []

    def test_equality_across_polynomials(self):
        (r1,) = roots_in_open_interval(-1, 0, 2, 1)  # sqrt(1/2)
        (r2,) = roots_in_open_interval(-4, 0, 8, 1)  # same number, other quadratic
        (r3,) = roots_in_open_interval(-36, 0, 72, 36)  # and scaled by 6^2
        assert r1.compare(r2) == 0 and r3.compare(r1) == 0

    def test_ordering_of_close_roots(self):
        (a,) = roots_in_open_interval(-1, 0, 2, 1)  # sqrt(1/2) = 0.70710...
        (b,) = roots_in_open_interval(-999, 0, 2000, 1)  # sqrt(0.4995)
        assert b.compare(a) < 0 and a.compare(b) > 0
        assert b.bounds()[1] < a.bounds()[0]  # separated by bisection

    def test_roots_in_open_interval(self):
        # roots 1/4 and 3/2: only 1/4 inside (0, 1)
        inside = roots_in_open_interval(3, -14, 8, 1)
        assert len(inside) == 1 and _value(inside[0]) == Fraction(1, 4)

    def test_poly_sign_at_irrational(self):
        (root,) = roots_in_open_interval(-1, 0, 2, 1)
        assert root.sign((-1, 0, 2)) == 0
        assert root.sign((0, 1, 0)) == 1  # t > 0 there
        assert root.sign((-3, 1, 0)) == -1  # t - 3 < 0


def test_rational_between():
    a = ExactTime(1, 3)
    (b,) = roots_in_open_interval(-1, 0, 2, 1)  # sqrt(1/2) = 0.707...
    m = rational_between(a, b)
    assert m.q == 0 and a.compare(m) < 0 and b.compare(m) > 0
    # two rationals
    m2 = rational_between(ExactTime(0, 1), ExactTime(1, 1))
    assert _value(m2) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# bracket states against the Fraction reference
# ---------------------------------------------------------------------------
#
# The witness intervals of the planarity decision are the brackets of its
# event times, so the integer kernel must reach every bracket of the
# Fraction kernel it replaced, in the same states: at isolation, after each
# halving, and after the halvings that comparisons and `rational_between`
# make.

QUADRATICS = list(itertools.product(range(-6, 7), repeat=3))


def _state(t: ExactTime):
    return (_value(t), *t.bounds())


def _ref_state(t: ref.AlgebraicNumber):
    return (t.rat, t.lo, t.hi)


def _root_pairs(kk):
    """(int root, reference root) for every root in (0, 1) of every
    quadratic, isolated from the int coefficients q and from q / kk."""
    pairs = []
    for q in QUADRATICS:
        new, old = roots_in_open_interval(*q, kk), ref.roots01(q, kk)
        assert len(new) == len(old), (q, kk)
        pairs += zip(new, old)
    return pairs


@pytest.mark.parametrize("kk", [1, 36, 196])
def test_isolation_and_halving_match_the_reference(kk):
    pairs = _root_pairs(kk)
    assert sum(a.q != 0 for a, _ in pairs) > 400
    for new, old in pairs:
        assert _state(new) == _ref_state(old)
        for _ in range(12):
            new.refine()
            old.refine()
            assert _state(new) == _ref_state(old)


@pytest.mark.parametrize("kk", [1, 36, 196])
def test_comparisons_and_samples_match_the_reference(kk):
    # sort all roots of one scale with the comparison, as the decision
    # sorts its events, then take a sample between each consecutive pair
    # and the ends, as it splits (0, 1) into pieces
    pairs = _root_pairs(kk)
    new = sorted((a for a, _ in pairs), key=functools.cmp_to_key(ExactTime.compare))
    old = sorted((b for _, b in pairs), key=functools.cmp_to_key(lambda a, b: a.compare(b)))
    assert [_state(a) for a in new] == [_ref_state(b) for b in old]
    ties = 0
    new = [ExactTime(0, 1)] + new + [ExactTime(1, 1)]
    old = [ref.AlgebraicNumber.from_rational(0)] + old + [ref.AlgebraicNumber.from_rational(1)]
    for (a, b), (c, d) in zip(zip(new, new[1:]), zip(old, old[1:])):
        order = a.compare(b)
        assert order == c.compare(d) <= 0
        assert (_state(a), _state(b)) == (_ref_state(c), _ref_state(d))
        if order == 0:
            ties += 1
            continue
        m = rational_between(a, b)
        assert _value(m) == ref.rational_between(c, d)
        assert (_state(a), _state(b)) == (_ref_state(c), _ref_state(d))
    assert ties > 100


def test_sign_matches_the_reference_at_every_root():
    for q in QUADRATICS[::7]:
        for new, old in zip(roots_in_open_interval(*q, 36), ref.roots01(q, 36)):
            for c in ((1, -3, 2), (-2, 5, 1), q):
                assert new.sign(c) == ref.poly_sign_at(c, old)


# ---------------------------------------------------------------------------
# the Fraction reference itself
# ---------------------------------------------------------------------------


def test_exact_sqrt():
    assert ref.exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert ref.exact_sqrt(0) == 0
    assert ref.exact_sqrt(2) is None
    assert ref.exact_sqrt(Fraction(-1)) is None
    assert ref.exact_sqrt(Fraction(49, 36)) == Fraction(7, 6)


class TestQuadExt:
    def test_known_identity(self):
        # (1 + sqrt2)(1 - sqrt2) == -1
        a = ref.QuadExt(1, 1, 2)
        b = ref.QuadExt(1, -1, 2)
        assert a * b == -1

    def test_mixed_arithmetic(self):
        x = ref.QuadExt(Fraction(1, 2), Fraction(1, 3), 5)
        y = 2 * x - Fraction(1, 2)
        assert y == ref.QuadExt(Fraction(1, 2), Fraction(2, 3), 5)

    def test_comparisons(self):
        sqrt2 = ref.QuadExt(0, 1, 2)
        assert Fraction(7, 5) < sqrt2 < Fraction(3, 2)
        assert sqrt2 > 1
        assert not sqrt2 < sqrt2

    def test_zero_field_part_mixes(self):
        a = ref.QuadExt(3, 0, 2)
        b = ref.QuadExt(1, 1, 3)
        assert a + b == ref.QuadExt(4, 1, 3)

    def test_incompatible_fields(self):
        with pytest.raises(ValueError):
            ref.QuadExt(0, 1, 2) + ref.QuadExt(0, 1, 3)
