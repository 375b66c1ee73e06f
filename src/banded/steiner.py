"""Always-succeeding layered construction of a banded surface.

When no chord assignment works directly, intermediate polygons are stood on
interior planes so that each consecutive pair admits a chord surface, and the
gap surfaces stack into one annulus.  Every layer keeps all n vertices, so
the n vertical paths thread through every level and the band structure is
preserved verbatim.  Plans are tried cheapest first: snapshots of the linear
morph, taken at the midpoints of a bisection at most 4 deep, which gives up
at the first midpoint that is not simple; exact sub-rotations for rotated
instances; and the ear-squash route, which has built every pair tried.
The morph snapshots are taken on the instance's integer frame, so that
search does no `Fraction` arithmetic.  Every gap is certified by the chord
solver, once per build: its verdict is memoised under the gap's primitive
int vector (`_gap_key`), which two gaps share exactly when one is the other
scaled by a positive factor, and such gaps share one table.

The ear-squash route picks a corner triple {i, j, k} that is a triangle of
some triangulation of both polygons (`_is_ear`).  Each side is squashed
toward it: the *corners* are the vertices not yet squashed, and each layer
takes an ear a-v-c of the corner polygon with v outside the triple and
spreads v and every squashed vertex between a and c evenly over a-c.  The
corners never move and each layer removes one corner, so a side takes
n - 3 layers, and an ear outside the triple always exists (the leaves of the
dual tree of a triangulation that contains the triple; Meisters 1975).
Both chains end with every vertex at the same barycentric position of the
triple's triangle, so the end gap is the affine morph x -> ((1 - t) I + tA) x
+ tv.  It is planar iff A has no eigenvalue in (-inf, 0], and convex
polygons with a planar linear morph have a Steiner-free surface (the
convex-morph theorem), so the full pair of chains joins: 2n(n - 3) added
vertices, 12 under the bound 2n(n - 3) + 12.  Prefix pairs of the two
chains are tried first, cheapest total first.

The end gap's surface is the convex turn rule's (`convex_chord_rule`,
which accepts the flat vertices on the triangle's sides); what is not
proven is that every squash gap certifies.  A candidate argument: each
moved point stays inside its empty ear triangle, and each unmoved band is a
vertical wall.  Neither a failing squash gap nor a failing end gap has been
seen; either would raise `InternalConsistencyError`.

Two cases fall outside the theorem.  When common triples exist but none
passes the eigenvalue test (a scaled half turn has A = -sI for every
triple), the first common triple's chains are paired as above, and then
one exact quarter turn R about a triple corner bridges their ends: R is
planar, and A R^-1 passes for at least one of the two quarter turns, since
its trace is c - b for one and b - c for the other (A = [[a, b], [c, d]]).
The turned end replaces the last source squash where that gap certifies,
and is otherwise an added layer, which the bound affords only for n <= 12.
When no triple is common to both polygons, prefixes of the chains toward
every triple of each side are paired, cheapest first, and the build raises
`InternalConsistencyError` if none certifies.  Only this case lists each
side's ear triples; in the other two, a lazy search in lexicographic
order stops at the triple taken.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import InternalConsistencyError
from .geometry import Point2, _integer_axis, _is_ear, polygon_is_simple
from .model import (
    BandedSurface,
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    _affine_fit,
    _coordinates,
    layers_to_surface,
)
from .morph import _planar_linear_part, _rotated
# `build_conflict_table` is not called here; the benchmark's tracer
# (benchmarks/spans.py) wraps this module's binding of it by name
from .solver import _conflict_table, build_clauses, build_conflict_table, solve_no_steiner  # noqa: F401
from .twosat import solve_2sat


def _gap_key(lower, upper) -> tuple[int, ...]:
    """The gap between two layers as its primitive int vector: its
    coordinates px, py, qx, qy per vertex, in `model._coordinates`' layout
    with the lower layer as source, scaled onto integers by one
    `_integer_axis` call over both layers, then divided by their gcd.  Two
    gaps share a key exactly when one is the other scaled by a positive
    factor, whether their coordinates are spelled as ints or `Fraction`s."""
    cs = _integer_axis([c for p, q in zip(lower, upper) for c in (p.x, p.y, q.x, q.y)])[1]
    g = math.gcd(*cs)
    return tuple(cs) if g <= 1 else tuple(c // g for c in cs)


def _gap_assignment(lower, upper, memo: dict) -> ChordAssignment | None:
    """Chord assignment for the gap between two layers, given as vertex
    tuples and stood at heights 0 and 1, or None.  `memo` holds the verdicts
    of one build, keyed by the gap's `_gap_key`; a stored None is an UNSAT
    verdict.  The table is built by `solver._conflict_table` on the key's
    own integers.  Scaling x and y by one positive factor, with z fixed, is
    an affine bijection of space, so it keeps every contact, and so every
    conflict, the table and its 2-SAT verdict: gaps that share a key share
    it.  Only a complete conflict table is solved here: a prefix that 2-SAT
    refuted carries that result (`solver.ConflictTable.refutation`)."""
    key = _gap_key(lower, upper)
    # False marks a gap not solved yet
    verdict = memo.get(key, False)
    if verdict is False:
        table = _conflict_table(len(lower), key)
        result = table.refutation or solve_2sat(*build_clauses(table))
        verdict = ChordAssignment.from_bools(result.assignment) if result.satisfiable else None
        memo[key] = verdict
    return verdict


def _certified(stack, memo: dict) -> list | None:
    """The `_gap_assignment` of every gap of the stack of layers, bottom
    up, or None from the first gap that has none, with no later gap
    solved."""
    assignments = []
    for lo, hi in zip(stack, stack[1:]):
        assignment = _gap_assignment(lo, hi, memo)
        if assignment is None:
            return None
        assignments.append(assignment)
    return assignments


def _layer_budget(n: int) -> int:
    # interior layers allowed by the added-vertex bound 2n(n-3) + 12
    return 2 * (n - 3) + 12 // n


def _morph_plan(inst: SliceInstance, max_layers: int, memo: dict) -> tuple | None:
    """Interior layers taken from the linear morph itself, with the
    certified assignment of each gap: snapshots at the midpoints of a
    bisection, at most 4 deep, until every gap is chord-solvable.  Cheap
    and small when source and target are already close; gives up (None) at
    the first midpoint snapshot that is not simple, at a gap that still fails at depth 4, or where the plan would
    exceed the layer budget.  A half turn collapses at t = 1/2, so it falls
    through at once to `_rotation_plan`.

    Every time is a multiple of 1/16, so the search runs on the instance's
    integer frame (`_integer_axis` of its `_coordinates`, factor k) scaled by
    16: the snapshot at t = j/16 is the int polygon (16 - j) P + j Q, for the
    source P and target Q on that frame, which is 16k times
    `morph.morph_position(inst, t)`.  A positive factor keeps simplicity,
    and `_gap_key`'s primitive key makes each gap share its verdict with the
    unscaled gap, so the 0-16 gap finds the direct pair's entry.  The layers
    of a plan become `Fraction`s only at the end, as x / 16k, equal point for
    point to `morph_position`'s."""
    k, cs = _integer_axis(_coordinates(inst))
    tracks = list(zip(cs[0::4], cs[1::4], cs[2::4], cs[3::4]))

    def snapshot(j):
        return tuple(Point2((16 - j) * px + j * qx, (16 - j) * py + j * qy) for px, py, qx, qy in tracks)

    layers, assignments = [], []

    def rec(lo_poly, hi_poly, lo_j, hi_j, depth) -> bool:
        # appends, left to right, the layers strictly between and the gaps'
        # assignments; False where the bisection gives up
        assignment = _gap_assignment(lo_poly, hi_poly, memo)
        if assignment is not None:
            assignments.append(assignment)
            return True
        if depth == 0:
            return False
        mid_j = (lo_j + hi_j) // 2
        mid = snapshot(mid_j)
        if not polygon_is_simple(mid) or not rec(lo_poly, mid, lo_j, mid_j, depth - 1):
            return False
        layers.append(mid)
        return rec(mid, hi_poly, mid_j, hi_j, depth - 1)

    if not rec(snapshot(0), snapshot(16), 0, 16, 4) or not 0 < len(layers) <= max_layers:
        return None
    d = 16 * k
    return [tuple(Point2(Fraction(x, d), Fraction(y, d)) for x, y in layer) for layer in layers], assignments


_ROTATION_PALETTE = (
    (Fraction(4, 5), Fraction(3, 5)),  # ~36.9 degrees
    (Fraction(12, 13), Fraction(5, 13)),  # ~22.6
    (Fraction(24, 25), Fraction(7, 25)),  # ~16.3
    (Fraction(60, 61), Fraction(11, 61)),  # ~10.4
    (Fraction(84, 85), Fraction(13, 85)),  # ~8.8
)


def _rotation_plan(inst: SliceInstance, max_layers: int, memo: dict) -> tuple | None:
    """For targets that are an exact rotation (plus translation) of the
    source: stand full-size copies rotated by rational sub-steps between the
    two, refining the step size until every gap solves or the layer budget
    runs out; the layers come with their gaps' certified assignments.
    Avoids the tiny-scale bottleneck that the straight morph of a
    near-half-turn rotation dives through.

    The steps are counted exactly: with W the target's rotation and C the
    product of the steps taken, the turn still to make is the unit complex
    number W conj(C), and another step (cos u, +-sin u) is taken while its
    real part is below cos u, in the direction of its imaginary part (a half
    turn steps positively).  The last step therefore never lands on W."""
    from .morph import similarity_witness

    sim = similarity_witness(inst.source, inst.target)
    if sim is None or sim.scale_squared != 1 or sim.is_identity_rotation:
        return None
    wx, wy = sim.wx, sim.wy
    # fixed point X of x -> Wx + v
    det = (1 - wx) * (1 - wx) + wy * wy
    cx = ((1 - wx) * sim.tx - wy * sim.ty) / det
    cy = (wy * sim.tx + (1 - wx) * sim.ty) / det
    center = Point2(cx, cy)

    src, tgt = inst.source.vertices, inst.target.vertices
    for uc, us in _ROTATION_PALETTE:
        c, s = Fraction(1), Fraction(0)
        layers = []
        while wx * c + wy * s < uc:
            if len(layers) == max_layers:
                return None  # a finer step needs at least as many layers
            step = us if wy * c - wx * s >= 0 else -us
            c, s = c * uc - s * step, c * step + s * uc
            layers.append(_rotated(src, center, c, s))
        assignments = _certified([src, *layers, tgt], memo)
        if assignments is not None:
            return layers, assignments
    return None


def _squash_chain(pts, triple) -> list[tuple[Point2, ...]]:
    """The layers, as vertex tuples, that squash the polygon `pts` ear by
    ear down to the corner triple.  Each takes the lowest ear a-v-c of the
    corner polygon with v outside the triple and puts the r-th of the k
    vertices after a (v and the squashed vertices on a-v and v-c) at
    a + r/(k + 1) (c - a)."""
    n = len(pts)
    corners = list(range(n))
    layer, chain = tuple(pts), []
    while len(corners) > 3:
        m = len(corners)
        ring = [pts[c] for c in corners]
        ears = (s for s in range(m) if corners[s] not in triple and _is_ear(ring, (s - 1) % m, s, (s + 1) % m))
        s = next(ears, None)
        if s is None:
            raise InternalConsistencyError("no ear outside the corner triple")
        a, c = corners[s - 1], corners[(s + 1) % m]
        moved = [(a + r) % n for r in range(1, (c - a) % n)]
        pa, pc, new = pts[a], pts[c], list(layer)
        for r, v in enumerate(moved, start=1):
            f = Fraction(r, len(moved) + 1)
            new[v] = Point2(pa.x + f * (pc.x - pa.x), pa.y + f * (pc.y - pa.y))
        layer = tuple(new)
        chain.append(layer)
        del corners[s]
    return chain


def _planar_end_map(src, tgt, triple) -> bool:
    """The affine map taking the source triple onto the target triple has
    a linear part A with no eigenvalue in (-inf, 0], so (1 - t) I + tA keeps
    a positive determinant for every t in [0, 1]: `morph._decide`'s test of
    an affine instance (`model._affine_fit`, then `_planar_linear_part`),
    made on the triple alone.  A collinear or orientation-reversing triple
    has no fit and fails."""
    fit = _affine_fit([c for v in triple for c in (src[v].x, src[v].y, tgt[v].x, tgt[v].y)])
    return fit is not None and _planar_linear_part(*fit)


def _prefixes(pts, triples) -> list[tuple]:
    """The prefixes of the squash chains of `pts` toward each triple, one
    per end layer, the empty prefix first."""
    ends = {tuple(pts): ()}
    for triple in triples:
        chain = _squash_chain(pts, triple)
        for d in range(len(chain)):
            ends.setdefault(chain[d], tuple(chain[: d + 1]))
    return list(ends.values())


def _ladder(src, tgt, bottoms, tops, memo: dict, max_cost: int) -> tuple | None:
    """The interior layers of the cheapest stack (src, *bottom, *reversed
    top, tgt) whose every gap certifies, over prefixes from the source
    and the target side, with the gaps' certified assignments, or None;
    ties go to the earlier prefixes.  The join gap is tried first."""
    pairs = sorted(
        (len(bot) + len(top), x, y)
        for x, bot in enumerate(bottoms)
        for y, top in enumerate(tops)
        if len(bot) + len(top) <= max_cost
    )
    for _cost, x, y in pairs:
        stack = [src, *bottoms[x], *reversed(tops[y]), tgt]
        split = len(bottoms[x])
        if _gap_assignment(stack[split], stack[split + 1], memo) is None:
            continue
        assignments = _certified(stack, memo)
        if assignments is not None:
            return stack[1:-1], assignments
    return None


def _squash_plan(inst: SliceInstance, memo: dict) -> tuple:
    """Interior layers from the ear-squash chains of both sides toward the
    first common corner triple that passes the eigenvalue test, with their
    gaps' certified assignments: prefix pairs cheapest first, the full pair
    last.  The module docstring gives the quarter-turn bridge for common
    triples that all fail the test and the pairing over every triple when
    none is common; each side's list of ear triples is built only in that
    last case, and the first common
    triple is otherwise found by one lazy search."""
    src, tgt = inst.source.vertices, inst.target.vertices
    n = inst.n
    triples = list(combinations(range(n), 3))
    passing = next(
        (t for t in triples if _planar_end_map(src, tgt, t) and _is_ear(src, *t) and _is_ear(tgt, *t)), None
    )
    # with none passing, the first shared triple, whose two ends a quarter turn joins
    bridged = None if passing else next((t for t in triples if _is_ear(src, *t) and _is_ear(tgt, *t)), None)
    if passing or bridged:
        below = above = [passing or bridged]
    else:
        below = [t for t in triples if _is_ear(src, *t)]
        above = [t for t in triples if _is_ear(tgt, *t)]
    bottoms, tops = _prefixes(src, below), _prefixes(tgt, above)
    plan = _ladder(src, tgt, bottoms, tops, memo, 2 * (n - 3))
    if plan is None and bridged:
        # the full chains are the last prefixes of their sides
        lo, hi = bottoms[-1], tops[-1]
        end, top = (lo[-1] if lo else src), (hi[-1] if hi else tgt)
        # a quarter turn R about a triple corner; A R^-1 passes for at least
        # one of the two turns, as its trace is c - b for one, b - c for the other
        turned = (_rotated(end, src[bridged[0]], 0, turn) for turn in (1, -1))
        mids = [mid for mid in turned if _planar_end_map(mid, top, bridged)]
        bottoms = [(*lo[:-1], mid) for mid in mids] + [(*lo, mid) for mid in mids]
        plan = _ladder(src, tgt, bottoms, [hi], memo, 2 * (n - 3) + 1)
    if plan is None:
        raise InternalConsistencyError("no ear-squash plan certifies")
    return plan


def build_layered_surface(inst: SliceInstance) -> BandedSurface:
    """Banded surface for a valid instance, validated by the direct solve
    (`solve_no_steiner`) first, or `InternalConsistencyError` where no plan
    certifies: the n = 4 dart pair with no common corner triple in
    tests/test_steiner.py is such a case.

    Strategy ladder, cheapest first, every gap certified by the chord solver:
    the direct chord solution (zero added vertices); interior layers sampled
    from the morph itself (bisected at midpoints until gaps solve); exact
    sub-rotations when the target is a rotated copy of the source; and the
    ear-squash route (`_squash_plan`).  When the two polygons share a corner
    triple whose end map passes the eigenvalue test, that route adds at most
    2n(n-3) vertices, proven but for the certification of each squash gap;
    with shared triples that all fail it, it adds at most n more, and so
    stays within 2n(n-3)+12 for n <= 12.  See the module docstring for what
    is observed rather than proven.
    """
    direct = solve_no_steiner(inst)
    if direct.satisfiable:
        return direct.surface

    # gap verdicts of this build only, starting with the direct pair's
    memo = {_gap_key(inst.source.vertices, inst.target.vertices): None}
    budget = _layer_budget(inst.n)
    plan = _morph_plan(inst, budget, memo)
    if plan is None:
        plan = _rotation_plan(inst, budget, memo)
    if plan is None:
        plan = _squash_plan(inst, memo)
    layers, assignments = plan
    m = len(layers) + 1
    interior = (LabeledPolygon(layer, Fraction(k, m)) for k, layer in enumerate(layers, start=1))
    return layers_to_surface([inst.source, *interior, inst.target], assignments)
