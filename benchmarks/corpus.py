"""Seeded instance corpora for the three benchmark workloads.

Everything here is the benchmark's own: the library receives only the
finished `SliceInstance` values.  The corpus deliberately does not use
`banded.generators`:

- that module is scheduled to change (total generators), which would silently
  change every corpus built on it;
- its `jiggled_instance` raises a bare `RuntimeError` for some seeds at n >= 40,
  which would make a workload fail for reasons that are not the code under
  measurement.  The jiggle style below retries instead, deterministically,
  and counts each retry as a rejected draw.

Draws come from one `random.Random` stream per workload and seed, plus one
pinned stream for the adversarial stars of `layered`, so the same seed
always gives the same corpus.  Validity of every drawn polygon is decided by
the plain exact test in `plain.py`, not by the library, so a later change to
`polygon_is_simple` cannot change the corpus either.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import plain

KINDS = ("convex", "star", "spiral")
STYLES = ("similar", "jiggle", "rotate", "independent")
DECIDE_LADDER = (10, 20, 40, 80)
# The criterion-7 recipe's rotation for its adversarial stars, close to a
# half turn.
NEAR_HALF_TURN = (Fraction(-24, 25), Fraction(7, 25))


def _turns():
    """Every exact rotation (cos, sin) = ((m^2-k^2)/d, 2mk/d), d = m^2+k^2,
    for 1 <= k < m <= 9, acute and obtuse, in one fixed shuffled order."""
    out = []
    for m in range(2, 10):
        for k in range(1, m):
            d = m * m + k * k
            c, s = Fraction(m * m - k * k, d), Fraction(2 * m * k, d)
            out += [(c, s), (-c, s)]
    random.Random(0).shuffle(out)
    return tuple(out)


# Rotations and scales are taken in a fixed cycle rather than drawn: their
# denominators set the size of every exact number downstream, and so much of
# an instance's cost.  Cycling them gives every seed the same mix of number
# sizes, while the polygons, centres and shifts still come from the seed.
TURNS = _turns()
SCALES = tuple(Fraction(a, b) for a in range(1, 9) for b in range(1, 5) if math.gcd(a, b) == 1)


@dataclass(frozen=True)
class Case:
    """One corpus instance with the recipe that drew it."""

    index: int
    recipe: str  # "<source kind>/<target style>"
    n: int
    source: tuple  # ((x, y), ...), exact ints or Fractions
    target: tuple


@dataclass
class Corpus:
    rounds: list  # list of rounds, each a list of Case
    rejected: int  # polygon draws thrown away as invalid

    @property
    def cases(self):
        return [c for r in self.rounds for c in r]

    def describe(self) -> dict:
        """Recipe-class and n mix of the corpus, for the run record."""
        mix: dict = {}
        for c in self.cases:
            key = f"{c.recipe} n={c.n}"
            mix[key] = mix.get(key, 0) + 1
        return {
            "instances": len(self.cases),
            "rounds": len(self.rounds),
            "rejected_draws": self.rejected,
            "mix": dict(sorted(mix.items())),
        }


class _Drawer:
    def __init__(self, seed: int, pinned: "_Drawer | None" = None):
        self.rng = random.Random(seed)
        self.pinned = pinned  # the seed-independent stream, if any
        self.rejected = 0
        self.turns = 0  # position in TURNS
        self.scales = 0  # position in SCALES

    def _accept(self, pts) -> bool:
        if plain.is_simple(pts) and plain.signed_area2(pts) > 0:
            return True
        self.rejected += 1
        return False

    # -- sources ----------------------------------------------------------

    def convex(self, n: int):
        """Convex CCW n-gon by Valtr's construction: x and y increments that
        each sum to zero, paired at random and sorted by angle."""
        rng = self.rng
        span = max(40, 8 * n)
        while True:
            dx, dy = self._increments(n, span), self._increments(n, span)
            rng.shuffle(dy)
            vecs = list(zip(dx, dy))
            if len({_direction(v) for v in vecs}) != n:
                self.rejected += 1
                continue
            vecs.sort(key=functools.cmp_to_key(_angle_cmp))
            pts, x, y = [], 0, 0
            for vx, vy in vecs:
                pts.append((x, y))
                x, y = x + vx, y + vy
            if self._accept(pts):
                return tuple(pts)

    def _increments(self, n: int, span: int) -> list:
        """n nonzero integers summing to zero: the steps of two chains
        between the least and greatest of n distinct values."""
        rng = self.rng
        values = sorted(rng.sample(range(span), n))
        lo, hi = values[0], values[-1]
        last = [lo, lo]
        steps = []
        for v in values[1:-1]:
            side = rng.randrange(2)
            steps.append((v - last[side]) * (1 if side == 0 else -1))
            last[side] = v
        steps.append(hi - last[0])
        steps.append(last[1] - hi)
        return steps

    def star(self, n: int, spread: int = 12):
        """CCW n-gon star-shaped around the origin: distinct ray directions
        in angular order, each at a random integer radius."""
        rng = self.rng
        while True:
            dirs = set()
            while len(dirs) < n:
                v = (rng.randint(-spread, spread), rng.randint(-spread, spread))
                if v != (0, 0):
                    dirs.add(_direction(v))
            ordered = sorted(dirs, key=functools.cmp_to_key(_angle_cmp))
            pts = []
            for dx, dy in ordered:
                r = rng.randint(1, 6)
                pts.append((r * dx, r * dy))
            if self._accept(pts):
                return tuple(pts)

    def spiral(self, n: int):
        """CCW n-gon shaped as a spiral arm with its return arm, proposed in
        floating point and snapped to the 1/16 grid (scaled to integers)."""
        rng = self.rng
        n = max(n, 6)
        max_turns = min(1.6, 0.25 + n * 0.075)
        while True:
            k = max(3, n // 2)
            turns = rng.uniform(0.35, max_turns)
            a, b = rng.uniform(1.0, 2.0), rng.uniform(1.5, 3.0)
            gap = rng.uniform(0.35, 0.55)
            raw = []
            for i in range(k):
                theta = turns * 2 * math.pi * i / (k - 1)
                r = a + b * theta
                raw.append((r * math.cos(theta), r * math.sin(theta)))
            for i in range(n - k):
                theta = turns * 2 * math.pi * (1 - (i + 1) / (n - k + 1))
                r = (a + b * theta) * (1 - gap)
                raw.append((r * math.cos(theta), r * math.sin(theta)))
            pts = [(round(16 * x), round(16 * y)) for x, y in raw]
            if plain.signed_area2(pts) < 0:
                pts.reverse()
            if len(set(pts)) == n and self._accept(pts):
                return tuple(pts)

    def polygon(self, kind: str, n: int):
        return {"convex": self.convex, "star": self.star, "spiral": self.spiral}[kind](n)

    # -- targets ----------------------------------------------------------

    def turn(self):
        """The next exact rotation (cos, sin) of a fixed cycle."""
        pair = TURNS[self.turns % len(TURNS)]
        self.turns += 1
        return pair

    def target(self, style: str, kind: str, src):
        rng = self.rng
        if style == "similar":
            turn = self.turn()
            center = (rng.randint(-8, 8), rng.randint(-8, 8))
            scale = SCALES[self.scales % len(SCALES)]
            self.scales += 1
            shift = (rng.randint(-10, 10), rng.randint(-10, 10))
            return tuple(
                (center[0] + scale * x + shift[0], center[1] + scale * y + shift[1])
                for x, y in rotated(src, center, turn, relative=True)
            )
        if style == "rotate":
            center = (rng.randint(-5, 5), rng.randint(-5, 5))
            return rotated(src, center, self.turn())
        if style == "jiggle":
            # Offsets in quarter units; halve the reach after repeated misses
            # so dense polygons still get a valid target.
            reach = 8
            while True:
                for _ in range(50):
                    pts = tuple(
                        (x + Fraction(rng.randint(-reach, reach), 4),
                         y + Fraction(rng.randint(-reach, reach), 4))
                        for x, y in src
                    )
                    if self._accept(pts):
                        return pts
                reach = max(1, reach // 2)
        return self.polygon(kind, len(src))  # independent


def _direction(v):
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _angle_cmp(u, v) -> int:
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def rotated(pts, center, turn, relative: bool = False):
    """Points rotated exactly about `center` by the unit pair (cos, sin);
    with `relative`, the offsets from the centre are returned instead."""
    c, s = turn
    cx, cy = center
    out = []
    for x, y in pts:
        dx, dy = x - cx, y - cy
        rx, ry = c * dx - s * dy, s * dx + c * dy
        out.append((rx, ry) if relative else (cx + rx, cy + ry))
    return tuple(out)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _ladder_round(d: _Drawer, r: int, start: int, rungs=DECIDE_LADDER) -> list:
    """One instance per ladder rung.  Kinds and styles are assigned in a
    Latin-square cycle, so any 12 consecutive rounds hold every kind/style
    pair on every rung: the mix of a run does not depend on the seed."""
    out = []
    for i, n in enumerate(rungs):
        kind = KINDS[(r + i) % 3]
        style = STYLES[(r // 3 + i) % 4]
        src = d.polygon(kind, n)
        tgt = d.target(style, kind, src)
        out.append(Case(start + i, f"{kind}/{style}", len(src), src, tgt))
    return out


def _morph_round(d: _Drawer, r: int, start: int) -> list:
    """The decide ladder with its n = 80 rung in every other round only.
    An n = 80 morph takes 0.3-2.5 s against 0.1-0.6 s at n = 40, so at
    equal weights that rung held two thirds of the run's time and the other
    rungs, where the median lies, too few instances to pin it down from seed
    to seed.  Over the even rounds the rung still sees every kind and style."""
    return _ladder_round(d, r, start, DECIDE_LADDER if r % 2 == 0 else DECIDE_LADDER[:-1])


LAYERED_BUCKETS = ((4, 6), (7, 9), (10, 12), (13, 15))
# No independent targets: on the baseline code about one in twelve reaches
# the full-stack fallback and then raises or exceeds the added-vertex bound
# (see README.md), and a workload whose operations fail gives no timing to
# compare against.
LAYERED_STYLES = ("similar", "jiggle", "rotate")


def _layered_round(d: _Drawer, r: int, start: int) -> list:
    """One stratified draw of the criterion-7 recipe: one instance from each
    n bucket of 4..15, with n stepping through the bucket round by round.
    The near-half-turn star takes one bucket, moving along the buckets, so
    every fourth round has one at n = 13..15, the size at which the
    criterion-7 corpus's morph plans failed.  Its polygons come from the
    pinned stream, the same for every seed: they
    carry most of the workload's added vertices and planner time, so a
    seed-to-seed change in them would hide a change in the program.  The
    other slots are mixed instances from the seed, with kinds and styles
    assigned in a cycle."""
    out = []
    for i, (lo, hi) in enumerate(LAYERED_BUCKETS):
        n = lo + (r + i) % (hi - lo + 1)
        if i == r % 4:
            src = d.pinned.star(n)
            tgt = rotated(src, (0, 0), NEAR_HALF_TURN)
            recipe = "star/near-half-turn"
        else:
            kind = KINDS[(r + i) % 3]
            style = LAYERED_STYLES[(r // 3 + i) % 3]
            src = d.polygon(kind, n)
            tgt = d.target(style, kind, src)
            recipe = f"{kind}/{style}"
        out.append(Case(start + i, recipe, len(src), src, tgt))
    return out


ROUND_BUILDERS = {"decide": _ladder_round, "morph": _morph_round, "layered": _layered_round}


# Seed of the pinned stream: the criterion-7 corpus seed.
PINNED_SEED = 70707


def build(workload: str, seed: int, rounds: int, min_instances: int = 0) -> Corpus:
    """At least `rounds` rounds, and more until the corpus holds
    `min_instances` instances."""
    # Each workload draws from its own stream, so decide and morph share the
    # recipe but not the instances.
    d = _Drawer(_stream_seed(workload, seed), pinned=_Drawer(PINNED_SEED))
    out = []
    start = 0
    r = 0
    while r < rounds or start < min_instances:
        cases = ROUND_BUILDERS[workload](d, r, start)
        start += len(cases)
        out.append(cases)
        r += 1
    return Corpus(out, d.rejected + d.pinned.rejected)


def _stream_seed(workload: str, seed: int) -> int:
    return seed * 1000 + {"decide": 1, "morph": 2, "layered": 3}[workload]
