"""Fraction reference for `banded.quadfield`: the exact-root arithmetic the
morph decision used before its event kernel moved to ints.

Roots carry `Fraction` isolating brackets refined by bisection, and values
in Q(sqrt(d)) are `QuadExt`s.  The integer kernel must reproduce every
bracket of this module bit for bit (see tests/test_quadfield.py), because
the brackets become the reported witness intervals.  Test-only: nothing in
`banded` imports it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]


def exact_sqrt(x: Rat) -> Optional[Fraction]:
    """The exact rational square root of x, or None if x is not a square."""
    f = Fraction(x)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    if rn * rn != f.numerator:
        return None
    rd = math.isqrt(f.denominator)
    if rd * rd != f.denominator:
        return None
    return Fraction(rn, rd)


def sign_a_plus_b_sqrt(a: Rat, b: Rat, d: Rat) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and d > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    mag = a * a - b * b * d
    if a > 0:  # b < 0
        return (mag > 0) - (mag < 0)
    return (mag < 0) - (mag > 0)  # a < 0, b > 0


class QuadExt:
    """Number a + b*sqrt(d) with rational a, b and a fixed non-square d > 0.

    Supports field arithmetic with other QuadExt values over the same d and
    with rationals, plus exact comparisons; this is enough to run the
    division-free geometric predicates at a quadratic irrationality, and
    the reference segment contact of tests/geometry_reference.py.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rat, b: Rat, d: Rat):
        self.a = a
        self.b = b
        self.d = d

    def __repr__(self):
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"

    def _pair(self, other):
        """Return (a1, b1, a2, b2, d) for self and other in one common field."""
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self.a, self.b, other.a, other.b, self.d
            if self.b == 0:
                return self.a, 0, other.a, other.b, other.d
            if other.b == 0:
                return self.a, self.b, other.a, 0, self.d
            raise ValueError("mixing different quadratic fields")
        if isinstance(other, (int, Fraction)):
            return self.a, self.b, other, 0, self.d
        return None

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        return QuadExt(a1 + a2, b1 + b2, d)

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        return QuadExt(a1 - a2, b1 - b2, d)

    def __rsub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        return QuadExt(a2 - a1, b2 - b1, d)

    def __mul__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        return QuadExt(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        n = Fraction(a2 * a2 - b2 * b2 * d)  # not 0: d is no square
        return QuadExt((a1 * a2 - b1 * b2 * d) / n, (b1 * a2 - a1 * b2) / n, d)

    def __rtruediv__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a1, b1, a2, b2, d = p
        return QuadExt(a2, b2, d) / QuadExt(a1, b1, d)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def sign(self) -> int:
        return sign_a_plus_b_sqrt(self.a, self.b, self.d)

    def _diff_sign(self, other) -> int:
        p = self._pair(other)
        a1, b1, a2, b2, d = p
        return QuadExt(a1 - a2, b1 - b2, d).sign()

    def __eq__(self, other):
        if not isinstance(other, (QuadExt, int, Fraction)):
            return NotImplemented
        return self._diff_sign(other) == 0

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __hash__(self):  # pragma: no cover - QuadExt is never dict-keyed
        raise TypeError("QuadExt is unhashable")


class AlgebraicNumber:
    """A real number, rational or of the form p + q*sqrt(d), with an
    always-valid rational isolating bracket that can be refined on demand."""

    __slots__ = ("rat", "p", "q", "d", "lo", "hi")

    def __init__(self, rat=None, p=None, q=None, d=None, lo=None, hi=None):
        self.rat = rat
        self.p = p
        self.q = q
        self.d = d
        if rat is not None:
            self.lo = self.hi = rat
        else:
            self.lo = lo
            self.hi = hi

    @classmethod
    def from_rational(cls, r: Rat) -> "AlgebraicNumber":
        return cls(rat=Fraction(r))

    @classmethod
    def from_sqrt_form(cls, p: Rat, q: Rat, d: Rat) -> "AlgebraicNumber":
        """p + q*sqrt(d); collapses to a rational when d is a perfect square."""
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        if q == 0 or d == 0:
            return cls.from_rational(p)
        root = exact_sqrt(d)
        if root is not None:
            return cls.from_rational(p + q * root)
        m = d.numerator * d.denominator
        r = math.isqrt(m)
        s_lo = Fraction(r, d.denominator)
        s_hi = Fraction(r + 1, d.denominator)
        if q > 0:
            lo, hi = p + q * s_lo, p + q * s_hi
        else:
            lo, hi = p + q * s_hi, p + q * s_lo
        return cls(p=p, q=q, d=d, lo=lo, hi=hi)

    @property
    def is_rational(self) -> bool:
        return self.rat is not None

    def refine(self) -> None:
        if self.rat is not None:
            return
        mid = (self.lo + self.hi) / 2
        if sign_a_plus_b_sqrt(self.p - mid, self.q, self.d) > 0:
            self.lo = mid
        else:
            self.hi = mid

    def as_scalar(self):
        """A value usable inside the division-free predicates."""
        if self.rat is not None:
            return self.rat
        return QuadExt(self.p, self.q, self.d)

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            other = AlgebraicNumber.from_rational(other)
        if self.rat is not None and other.rat is not None:
            return (self.rat > other.rat) - (self.rat < other.rat)
        if self.rat is not None:
            return -_cmp_irrational_rational(other, self.rat)
        if other.rat is not None:
            return _cmp_irrational_rational(self, other.rat)
        # both irrational: equality is decidable directly
        if (
            self.p == other.p
            and (self.q > 0) == (other.q > 0)
            and self.q * self.q * self.d == other.q * other.q * other.d
        ):
            return 0
        while not (self.hi < other.lo or other.hi < self.lo):
            self.refine()
            other.refine()
        return -1 if self.hi < other.lo else 1

    def __eq__(self, other):
        if not isinstance(other, (AlgebraicNumber, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):  # pragma: no cover
        raise TypeError("AlgebraicNumber is unhashable")

    def __repr__(self):
        if self.rat is not None:
            return f"AlgebraicNumber({self.rat})"
        return f"AlgebraicNumber({self.p} + {self.q}*sqrt({self.d}) in [{self.lo}, {self.hi}])"

    def approx(self) -> float:
        if self.rat is not None:
            return float(self.rat)
        return float((self.lo + self.hi) / 2)


def _cmp_irrational_rational(x: AlgebraicNumber, r: Fraction) -> int:
    return sign_a_plus_b_sqrt(x.p - r, x.q, x.d)


def poly_eval(coeffs, t):
    """Evaluate sum(coeffs[k] * t**k) by Horner; works for rational and
    QuadExt arguments alike."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def poly_sign_at(coeffs, t: AlgebraicNumber) -> int:
    v = poly_eval([Fraction(c) for c in coeffs], t.as_scalar())
    if isinstance(v, QuadExt):
        return v.sign()
    return (v > 0) - (v < 0)


def quadratic_roots(c0: Rat, c1: Rat, c2: Rat) -> list[AlgebraicNumber]:
    """Real roots of c0 + c1*t + c2*t^2, ascending.  The identically-zero
    polynomial returns [] (callers must detect that case themselves)."""
    if c2 == 0:
        if c1 == 0:
            return []
        return [AlgebraicNumber.from_rational(Fraction(-c0, 1) / Fraction(c1))]
    disc = Fraction(c1) * Fraction(c1) - 4 * Fraction(c2) * Fraction(c0)
    if disc < 0:
        return []
    p = Fraction(-c1) / (2 * Fraction(c2))
    if disc == 0:
        return [AlgebraicNumber.from_rational(p)]
    q = Fraction(1) / (2 * Fraction(c2))
    roots = [
        AlgebraicNumber.from_sqrt_form(p, -abs(q), disc),
        AlgebraicNumber.from_sqrt_form(p, abs(q), disc),
    ]
    return roots


def roots_in_open_interval(c0, c1, c2, lo: Rat, hi: Rat) -> list[AlgebraicNumber]:
    return [r for r in quadratic_roots(c0, c1, c2) if r.compare(lo) > 0 and r.compare(hi) < 0]


def rational_between(x: AlgebraicNumber, y: AlgebraicNumber) -> Fraction:
    """Some rational strictly between x and y (requires x < y)."""
    while True:
        m = (x.hi + y.lo) / 2
        if x.compare(m) < 0 and y.compare(m) > 0:
            return m
        x.refine()
        y.refine()


def roots01(q, kk) -> list[AlgebraicNumber]:
    """The roots in (0, 1) of the int quadratic q scaled down by kk, as the
    morph decision isolated them."""
    return roots_in_open_interval(*(Fraction(c, kk) for c in q), 0, 1)
