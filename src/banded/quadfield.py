"""Exact event times of a linear morph, in integer arithmetic.

Every event of the morph planarity decision is a root of a quadratic with
int coefficients, so every time it handles has the form

    t = (p + q sqrt(d)) / r,   ints p, q, d and r > 0,

with q = 0 when t is rational.  Each time carries an isolating bracket that
is held in ints too, [lo, lo + |q|] / (r 2^k).  Halving the bracket, ordering
two times and taking the sign of an int quadratic at a time are all done
with sign tests of a + b sqrt(d) (the technique of CGAL's Root_of_2:
Devillers, Fronville, Mourrain & Teillaud 2000), so no Fraction is built
until a bracket is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction


def sign_a_plus_b_sqrt(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for ints a and b, and d > 0 unless b == 0."""
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


class ExactTime:
    """The real t = (p + q sqrt(d)) / r with its isolating bracket
    [lo, lo + |q|] / (r 2^k).  A rational time has q = d = 0, and its
    bracket is the point p / r."""

    __slots__ = ("p", "q", "d", "r", "lo", "k")

    def __init__(self, p: int, r: int, q: int = 0, d: int = 0, lo: int | None = None):
        self.p, self.q, self.d, self.r = p, q, d, r
        self.lo = p if lo is None else lo
        self.k = 0

    def __repr__(self):
        return f"ExactTime(({self.p} + {self.q}*sqrt({self.d})) / {self.r} in {self.bounds()})"

    def lower(self) -> tuple[int, int]:
        """The bracket's lower end as (numerator, denominator)."""
        return self.lo, self.r << self.k

    def upper(self) -> tuple[int, int]:
        """The bracket's upper end as (numerator, denominator)."""
        return self.lo + abs(self.q), self.r << self.k

    def bounds(self) -> tuple[Fraction, Fraction]:
        den = self.r << self.k
        return Fraction(self.lo, den), Fraction(self.lo + abs(self.q), den)

    def refine(self) -> None:
        """Halve the bracket, keeping the half that holds t; the width
        numerator |q| stays, the denominator doubles."""
        q = self.q
        if not q:
            return
        self.k += 1
        mid = 2 * self.lo + abs(q)
        # t > mid / (r 2^k)  <=>  p 2^k - mid + q 2^k sqrt(d) > 0
        if sign_a_plus_b_sqrt((self.p << self.k) - mid, q << self.k, self.d) > 0:
            self.lo = mid
        else:
            self.lo *= 2

    def sign_minus(self, num: int, den: int) -> int:
        """Sign of t - num / den, for den > 0.  No bracket changes."""
        return sign_a_plus_b_sqrt(self.p * den - num * self.r, self.q * den, self.d)

    def compare(self, other: ExactTime) -> int:
        """Sign of self - other.  Two irrational times that differ are told
        apart by halving both brackets until they separate."""
        if not other.q:
            return self.sign_minus(other.p, other.r)
        if not self.q:
            return -other.sign_minus(self.p, self.r)
        # both irrational: equal exactly when the rational parts p / r and
        # the irrational parts q sqrt(d) / r are
        r1, r2 = self.r, other.r
        if (
            self.p * r2 == other.p * r1
            and (self.q > 0) == (other.q > 0)
            and self.q * self.q * self.d * r2 * r2 == other.q * other.q * other.d * r1 * r1
        ):
            return 0
        while True:
            (lo1, den1), (hi1, _) = self.lower(), self.upper()
            (lo2, den2), (hi2, _) = other.lower(), other.upper()
            if hi1 * den2 < lo2 * den1:
                return -1
            if hi2 * den1 < lo1 * den2:
                return 1
            self.refine()
            other.refine()

    def sign(self, c) -> int:
        """Sign of the int quadratic c0 + c1 t + c2 t^2 at t, from
        r^2 c(t) = a + b sqrt(d)."""
        p, q, r = self.p, self.q, self.r
        c0, c1, c2 = c
        a = (c0 * r + c1 * p) * r + c2 * (p * p + q * q * self.d)
        if not q:
            return (a > 0) - (a < 0)
        return sign_a_plus_b_sqrt(a, q * (c1 * r + 2 * c2 * p), self.d)


def midpoint(a: tuple[int, int], b: tuple[int, int]) -> ExactTime:
    """The rational time halfway between a and b, given as (num, den)."""
    (an, ad), (bn, bd) = a, b
    return ExactTime(an * bd + bn * ad, 2 * ad * bd)


def roots_in_open_interval(c0: int, c1: int, c2: int, kk: int) -> list[ExactTime]:
    """The roots in (0, 1) of c0 + c1 t + c2 t^2, ascending, for int
    coefficients scaled by kk = k^2; the zero polynomial has none.

    The brackets do not depend on k: they are the ones that isolating the
    roots from the unscaled coefficients c / kk gives.  There the
    discriminant is Delta / k^4 with Delta = c1^2 - 4 c0 c2; in lowest terms
    it is dn / dd, and with m = dn dd its root sqrt(m) / dd lies in
    [isqrt(m), isqrt(m) + 1] / dd.  With g = gcd(Delta, k^4), dd = k^4 / g,
    so each irrational root is (P +- g sqrt(m)) / R with P = -c1 kk and
    R = 2 c2 kk (signs taken so that R > 0), and its bracket has width g / R
    and lower end (P - g (isqrt(m) + 1)) / R or (P + g isqrt(m)) / R.
    """
    if c2 == 0:
        if c1 == 0:
            return []
        roots = [ExactTime(-c0, c1) if c1 > 0 else ExactTime(c0, -c1)]
    else:
        disc = c1 * c1 - 4 * c0 * c2
        if disc < 0:
            return []
        p, r = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)  # t = (p +- sqrt(disc)) / r
        s = math.isqrt(disc)
        if s * s == disc:
            roots = [ExactTime(p - s, r), ExactTime(p + s, r)] if s else [ExactTime(p, r)]
        else:
            k4 = kk * kk
            g = math.gcd(disc, k4)
            m = (disc // g) * (k4 // g)
            root = math.isqrt(m)
            p, r = p * kk, r * kk
            h = math.gcd(p, g, r)  # cancels without moving a bracket end
            p, g, r = p // h, g // h, r // h
            roots = [
                ExactTime(p, r, -g, m, p - g * (root + 1)),
                ExactTime(p, r, g, m, p + g * root),
            ]
    return [t for t in roots if t.sign_minus(0, 1) > 0 and t.sign_minus(1, 1) < 0]


def rational_between(x: ExactTime, y: ExactTime) -> ExactTime:
    """A rational time strictly between x and y (requires x < y): the
    midpoint of x's upper and y's lower bracket end, once both brackets have
    been halved enough for it to separate them."""
    while True:
        m = midpoint(x.upper(), y.lower())
        if x.sign_minus(m.p, m.r) < 0 and y.sign_minus(m.p, m.r) > 0:
            return m
        x.refine()
        y.refine()
