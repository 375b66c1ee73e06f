"""Always-succeeding layered construction of a banded surface.

When no chord assignment works directly, intermediate polygons are stood on
interior planes so that each consecutive pair admits a chord surface, and the
gap surfaces stack into one annulus.  Every layer keeps all n vertices, so
the n vertical paths thread through every level and the band structure is
preserved verbatim.  Plans are tried cheapest first: snapshots of the linear
morph, taken at the midpoints of a bisection at most 4 deep, which gives up
at the first midpoint that is not simple; exact sub-rotations for rotated
instances; and the ear-squash route, which has built every pair tried.
Every gap is certified by the chord solver, once per build: its verdict is
memoised under the gap put on one integer frame (`_gap_key`), and gaps
with one key, which are equal up to a positive factor, share one table.

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
`InternalConsistencyError` if none certifies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InternalConsistencyError
from .geometry import Point2, _end_map, _integer_axis, _is_ear, polygon_is_simple
from .model import (
    BandedSurface,
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    _coordinates,
    _integer_instance,
    layers_to_surface,
)
from .morph import _planar_linear_part, _rotated
from .solver import build_clauses, build_conflict_table, solve_no_steiner
from .twosat import solve_2sat


def _gap_instance(lower, upper) -> SliceInstance:
    """The gap between two layers, given as vertex tuples, stood at heights
    0 and 1."""
    return SliceInstance(LabeledPolygon(lower, 0), LabeledPolygon(upper, 1))


def _gap_key(lower, upper) -> tuple[int, ...]:
    """The gap between two layers on one integer frame: its
    `model._coordinates`, scaled by one `_integer_axis` call over both
    layers."""
    return tuple(_integer_axis(_coordinates(_gap_instance(lower, upper)))[1])


def _gap_assignment(lower, upper, memo: dict) -> ChordAssignment | None:
    """Chord assignment for the gap between two layers, given as vertex
    tuples and stood at heights 0 and 1, or None.  `memo` holds the verdicts
    of one build, keyed by the gap's `_gap_key`; a stored None is an UNSAT
    verdict.  Two gaps share a key only when one is the other scaled by a
    positive factor, a similarity that keeps every chord verdict.  The
    table is built on the key's integer points, so its own scaling runs at
    factor 1.  Only a complete conflict table is solved here: a prefix that
    2-SAT refuted carries that result (`solver.ConflictTable.refutation`)."""
    key = _gap_key(lower, upper)
    # False marks a gap not solved yet
    verdict = memo.get(key, False)
    if verdict is False:
        inst = _integer_instance(_gap_instance(lower, upper), key)
        table = build_conflict_table(inst)
        result = table.refutation or solve_2sat(*build_clauses(table))
        verdict = ChordAssignment.from_bools(result.assignment) if result.satisfiable else None
        memo[key] = verdict
    return verdict


def _layer_budget(n: int) -> int:
    # interior layers allowed by the added-vertex bound 2n(n-3) + 12
    return 2 * (n - 3) + 12 // n


def _morph_plan(inst: SliceInstance, max_layers: int, memo: dict) -> list | None:
    """Interior layers taken from the linear morph itself: snapshots at the
    midpoints of a bisection, at most 4 deep, until every gap is
    chord-solvable.  Cheap and small when source and target are already
    close; gives up (None) at the first midpoint snapshot that is not
    simple, at a gap that still fails at depth 4, or where the plan would
    exceed the layer budget.  A half turn collapses at t = 1/2, so it falls
    through at once to `_rotation_plan`."""
    from .morph import morph_position

    def rec(lo_poly, hi_poly, lo_t, hi_t, depth):
        if _gap_assignment(lo_poly, hi_poly, memo) is not None:
            return []
        if depth == 0:
            return None
        mid_t = (lo_t + hi_t) / 2
        mid = morph_position(inst, mid_t).vertices
        if not polygon_is_simple(mid):
            return None
        left = rec(lo_poly, mid, lo_t, mid_t, depth - 1)
        right = None if left is None else rec(mid, hi_poly, mid_t, hi_t, depth - 1)
        return None if right is None else left + [mid] + right

    plan = rec(inst.source.vertices, inst.target.vertices, Fraction(0), Fraction(1), 4)
    if plan is not None and 0 < len(plan) <= max_layers:
        return plan
    return None


_ROTATION_PALETTE = (
    (Fraction(4, 5), Fraction(3, 5)),  # ~36.9 degrees
    (Fraction(12, 13), Fraction(5, 13)),  # ~22.6
    (Fraction(24, 25), Fraction(7, 25)),  # ~16.3
    (Fraction(60, 61), Fraction(11, 61)),  # ~10.4
    (Fraction(84, 85), Fraction(13, 85)),  # ~8.8
)


def _rotation_plan(inst: SliceInstance, max_layers: int, memo: dict) -> list | None:
    """For targets that are an exact rotation (plus translation) of the
    source: stand full-size copies rotated by rational sub-steps between the
    two, refining the step size until every gap solves or the layer budget
    runs out.  Avoids the tiny-scale bottleneck that the straight morph of a
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
        stack = [src, *layers, tgt]
        if all(_gap_assignment(lo, hi, memo) is not None for lo, hi in zip(stack, stack[1:])):
            return layers
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
    """The matrix A of the affine map taking the source triple onto the
    target triple has no eigenvalue in (-inf, 0], so (1 - t) I + tA keeps a
    positive determinant for every t in [0, 1] (`morph._planar_linear_part`
    on the edge vectors from vertex i to j and k)."""
    i, j, k = triple
    p, q = src[i], tgt[i]
    m, d = _end_map(
        (src[j].x - p.x, src[j].y - p.y),
        (src[k].x - p.x, src[k].y - p.y),
        (tgt[j].x - q.x, tgt[j].y - q.y),
        (tgt[k].x - q.x, tgt[k].y - q.y),
    )
    return _planar_linear_part(m, d)


def _prefixes(pts, triples) -> list[tuple]:
    """The prefixes of the squash chains of `pts` toward each triple, one
    per end layer, the empty prefix first."""
    ends = {tuple(pts): ()}
    for triple in triples:
        chain = _squash_chain(pts, triple)
        for d in range(len(chain)):
            ends.setdefault(chain[d], tuple(chain[: d + 1]))
    return list(ends.values())


def _ladder(src, tgt, bottoms, tops, memo: dict, max_cost: int) -> list | None:
    """The interior layers of the cheapest stack (src, *bottom, *reversed
    top, tgt) whose every gap certifies, over prefixes from the source
    and the target side, or None; ties go to the earlier prefixes."""

    def certified(lo, hi) -> bool:
        return _gap_assignment(lo, hi, memo) is not None

    pairs = sorted(
        (len(bot) + len(top), x, y)
        for x, bot in enumerate(bottoms)
        for y, top in enumerate(tops)
        if len(bot) + len(top) <= max_cost
    )
    for _cost, x, y in pairs:
        stack = [src, *bottoms[x], *reversed(tops[y]), tgt]
        split = len(bottoms[x])
        if certified(stack[split], stack[split + 1]) and all(map(certified, stack, stack[1:])):
            return stack[1:-1]
    return None


def _squash_plan(inst: SliceInstance, memo: dict) -> list:
    """Interior layers from the ear-squash chains of both sides toward the
    first common corner triple that passes the eigenvalue test: prefix
    pairs cheapest first, the full pair last.  The module docstring gives
    the quarter-turn bridge for common triples that all fail the test and
    the pairing over every triple when none is common."""
    src, tgt = inst.source.vertices, inst.target.vertices
    n = inst.n
    triples = list(combinations(range(n), 3))
    passing = next(
        (t for t in triples if _planar_end_map(src, tgt, t) and _is_ear(src, *t) and _is_ear(tgt, *t)), None
    )
    bridged = None  # a shared triple whose two ends a quarter turn joins
    if passing is not None:
        below = above = [passing]
    else:
        below = [t for t in triples if _is_ear(src, *t)]
        above = [t for t in triples if _is_ear(tgt, *t)]
        shared = sorted(set(below).intersection(above))
        if shared:
            bridged = shared[0]
            below = above = [bridged]
    plan = _ladder(src, tgt, _prefixes(src, below), _prefixes(tgt, above), memo, 2 * (n - 3))
    if plan is None and bridged is not None:
        lo, hi = _squash_chain(src, bridged), _squash_chain(tgt, bridged)
        end, top = (lo[-1] if lo else src), (hi[-1] if hi else tgt)
        # a quarter turn R about a triple corner; A R^-1 passes for at least
        # one of the two turns, as its trace is c - b for one, b - c for the other
        turned = (_rotated(end, src[bridged[0]], 0, turn) for turn in (1, -1))
        mids = [mid for mid in turned if _planar_end_map(mid, top, bridged)]
        bottoms = [(*lo[:-1], mid) for mid in mids] + [(*lo, mid) for mid in mids]
        plan = _ladder(src, tgt, bottoms, [tuple(hi)], memo, 2 * (n - 3) + 1)
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
    layers = [inst.source.vertices, *plan, inst.target.vertices]
    assignments = [memo.get(_gap_key(lo, hi)) for lo, hi in zip(layers, layers[1:])]
    if None in assignments:
        raise InternalConsistencyError("a planned gap has no certified assignment")
    m = len(plan) + 1
    interior = (LabeledPolygon(layer, Fraction(k, m)) for k, layer in enumerate(plan, start=1))
    return layers_to_surface([inst.source, *interior, inst.target], assignments)
