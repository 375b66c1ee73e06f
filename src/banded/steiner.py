"""Always-succeeding layered construction of a banded surface.

When no chord assignment works directly, intermediate polygons are stood on
interior planes so that each consecutive pair admits a chord surface, and the
gap surfaces stack into one annulus.  Every layer keeps all n vertices, so
the n vertical paths thread through every level and the band structure is
preserved verbatim.  Plans are tried cheapest first: snapshots of the linear
morph; exact sub-rotation stages for rotated instances; flattening either
polygon ear by ear (each step moves one convex vertex onto its neighbours'
midpoint, one level up) and pairing partially flattened stages of the two
sides; finally translation/rotation/bisected-motion middle layers between
the fully flattened ends.  Each gap is certified by the chord solver; the
price is O(n^2) added vertices overall.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalConsistencyError, PreconditionError
from .geometry import Point2, orient2d, polygon_is_simple, segments_intersect_2d
from .model import BandedSurface, ChordAssignment, LabeledPolygon, SliceInstance, layers_to_surface
from .solver import build_clauses, build_conflict_table, solve_no_steiner
from .twosat import solve_2sat


def _is_corner(pts, i: int) -> bool:
    n = len(pts)
    return orient2d(pts[(i - 1) % n], pts[i % n], pts[(i + 1) % n]) != 0


def _corner_count(pts) -> int:
    return sum(1 for i in range(len(pts)) if _is_corner(pts, i))


def _point_in_closed_triangle(p, a, b, c) -> bool:
    ref = orient2d(a, b, c)
    s1 = orient2d(a, b, p)
    s2 = orient2d(b, c, p)
    s3 = orient2d(c, a, p)
    if ref > 0:
        return s1 >= 0 and s2 >= 0 and s3 >= 0
    return s1 <= 0 and s2 <= 0 and s3 <= 0


def _is_ear(pts, i: int) -> bool:
    """Vertex i is a strictly convex corner, and the closed triangle on it
    and its neighbours contains no other vertex and meets no non-incident
    edge."""
    n = len(pts)
    a, v, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
    if orient2d(a, v, c) <= 0:
        return False
    for k in range(n):
        if k in ((i - 1) % n, i, (i + 1) % n):
            continue
        if _point_in_closed_triangle(pts[k], a, v, c):
            return False
    tri_sides = ((a, v), (v, c), (c, a))
    for k in range(n):
        if k == (i - 1) % n or k == i:  # the two edges incident to v
            continue
        e0, e1 = pts[k], pts[(k + 1) % n]
        for s0, s1 in tri_sides:
            if segments_intersect_2d(e0, e1, s0, s1, mode="proper"):
                return False
    return True


def _flattened(pts, i: int) -> tuple[Point2, ...]:
    """The vertices with vertex i moved onto its neighbours' midpoint."""
    n = len(pts)
    a, c = pts[(i - 1) % n], pts[(i + 1) % n]
    mid = Point2(Fraction(a.x + c.x, 2), Fraction(a.y + c.y, 2))
    return tuple(mid if k == i else pts[k] for k in range(n))


def collapse_ear(poly: LabeledPolygon, start: int = 0) -> tuple[LabeledPolygon, int]:
    """Flatten one ear: move a convex corner onto the midpoint of the segment
    joining its neighbours.  The vertex count stays n (the moved vertex ends
    up collinear); the geometric corner count drops by one.

    Ears are tried starting from index `start` (cyclically), lowest first;
    an ear whose neighbours are flattened is skipped, since collapsing it
    would un-flatten them and undo earlier progress.  Raises
    PreconditionError when only 3 corners remain and InternalConsistencyError
    when no collapsible ear exists (possible once flattened vertices hem in
    every remaining corner).
    """
    pts = poly.vertices
    n = len(pts)
    if _corner_count(pts) <= 3:
        raise PreconditionError("polygon is already a triangle; nothing to collapse")
    for off in range(n):
        i = (start + off) % n
        if not (_is_corner(pts, i - 1) and _is_corner(pts, i + 1) and _is_ear(pts, i)):
            continue
        new_pts = _flattened(pts, i)
        if polygon_is_simple(new_pts) and _corner_count(new_pts) < _corner_count(pts):
            return LabeledPolygon(new_pts, poly.z_level), i
    raise InternalConsistencyError("no collapsible ear in this polygon")


def _collapse_sequence(poly: LabeledPolygon, start: int = 0) -> list[LabeledPolygon]:
    """Collapse toward 3 geometric corners; returns the produced polygons in
    order (not including the input polygon).  The sequence may stop early:
    earlier collapses leave flattened vertices around, and a corner pinched
    between two of them cannot be collapsed without undoing that work; the
    join machinery bridges whatever shape remains."""
    layers = []
    current = poly
    while _corner_count(current.vertices) > 3:
        try:
            current, _ = collapse_ear(current, start)
        except InternalConsistencyError:
            break
        layers.append(current)
    return layers


def _gap_assignment(lower: LabeledPolygon, upper: LabeledPolygon, memo: dict) -> ChordAssignment | None:
    """Chord assignment for the gap between two layers stood at heights 0
    and 1, or None.  `memo` holds the verdicts of one build, keyed by the
    two layers' vertices (so an int and the equal `Fraction` share a key)."""
    key = (lower.vertices, upper.vertices)
    if key not in memo:
        inst = SliceInstance(LabeledPolygon(lower.vertices, 0), LabeledPolygon(upper.vertices, 1))
        n, clauses = build_clauses(inst, build_conflict_table(inst))
        result = solve_2sat(n, clauses)
        memo[key] = ChordAssignment.from_bools(result.assignment) if result.satisfiable else None
    return memo[key]


# ---------------------------------------------------------------------------
# joining the two flattened triangles
# ---------------------------------------------------------------------------


def _centroid(pts) -> Point2:
    n = len(pts)
    return Point2(
        Fraction(sum(p.x for p in pts), n), Fraction(sum(p.y for p in pts), n)
    )


def _rotated(pts, center: Point2, c: Fraction, s: Fraction):
    out = []
    for p in pts:
        dx, dy = p.x - center.x, p.y - center.y
        out.append(Point2(center.x + c * dx - s * dy, center.y + s * dx + c * dy))
    return tuple(out)


def _pythagorean_rotation(angle: float) -> tuple[Fraction, Fraction]:
    """A rational unit rotation close to the given angle (radians)."""
    half = math.tan(angle / 2)
    frac = Fraction(half).limit_denominator(64)
    m, k = frac.numerator, frac.denominator
    den = k * k + m * m
    return Fraction(k * k - m * m, den), Fraction(2 * k * m, den)


def _rotation_steps(total_angle: float, max_step: float = 1.2) -> list[tuple[Fraction, Fraction]]:
    """Rational unit rotations, each under ~pi/2, composing to roughly the
    requested angle.  Only used as a search direction; every produced gap is
    verified exactly by the chord solver."""
    steps = []
    remaining = total_angle
    while abs(remaining) > max_step:
        steps.append(_pythagorean_rotation(math.copysign(max_step, remaining)))
        remaining -= math.copysign(max_step, remaining)
    if abs(remaining) > 1e-9:
        steps.append(_pythagorean_rotation(remaining))
    return steps


def _triangle_orientation_angle(pts) -> float:
    """Float direction of the longest edge of the corner triangle (heuristic)."""
    corners = [p for i, p in enumerate(pts) if _is_corner(pts, i)]
    if len(corners) < 2:
        return 0.0
    best, angle = -1.0, 0.0
    m = len(corners)
    for i in range(m):
        a, b = corners[i], corners[(i + 1) % m]
        dx, dy = float(b.x - a.x), float(b.y - a.y)
        l2 = dx * dx + dy * dy
        if l2 > best:
            best, angle = l2, math.atan2(dy, dx)
    return angle


def _bisect_join(lower, upper, memo: dict, depth: int = 0, max_depth: int = 8):
    """Try to connect two same-height polygons by straight per-vertex motion,
    splitting at vertex-wise midpoints while gaps stay unsolvable.  Returns
    the list of intermediate polygons, or None."""
    if _gap_assignment(lower, upper, memo) is not None:
        return []
    if depth >= max_depth:
        return None
    mid_pts = tuple(
        Point2(Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2))
        for p, q in zip(lower.vertices, upper.vertices)
    )
    if not polygon_is_simple(mid_pts):
        return None
    mid = LabeledPolygon(mid_pts, lower.z_level)
    left = _bisect_join(lower, mid, memo, depth + 1, max_depth)
    if left is None:
        return None
    right = _bisect_join(mid, upper, memo, depth + 1, max_depth)
    if right is None:
        return None
    return left + [mid] + right


def join_triangles(lower: LabeledPolygon, upper: LabeledPolygon, memo: dict) -> list[LabeledPolygon]:
    """Intermediate polygons joining the two flattened layers; empty when the
    direct gap is already solvable.

    The fallback route recentres the lower layer onto the upper centroid
    (pure-translation gaps are always solvable: the sheared prism over a
    simple polygon with one chord direction never self-intersects), aligns
    orientations by rigid rational rotations about the common centroid (each
    step well under a half turn), and bridges the rest by bisected straight
    motion; every gap is certified by the chord solver before being accepted.
    """
    if _gap_assignment(lower, upper, memo) is not None:
        return []
    inters: list[LabeledPolygon] = []
    current = lower

    c_lo, c_up = _centroid(current.vertices), _centroid(upper.vertices)
    if c_lo != c_up:
        shifted = current.translated(c_up.x - c_lo.x, c_up.y - c_lo.y)
        if _gap_assignment(current, shifted, memo) is None:
            raise InternalConsistencyError("translation gap came out unsolvable")
        inters.append(shifted)
        current = shifted
        direct = _bisect_join(current, upper, memo, max_depth=1)
        if direct is not None:
            return inters + direct

    # rotate stepwise toward the upper layer's orientation
    target_angle = _triangle_orientation_angle(upper.vertices)
    center = _centroid(current.vertices)
    best_tail: list[LabeledPolygon] | None = None
    for attempt in range(3):
        delta = target_angle - _triangle_orientation_angle(current.vertices)
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta < -math.pi:
            delta += 2 * math.pi
        if attempt == 1:
            delta += math.pi if delta <= 0 else -math.pi  # try the flipped alignment
        for c, s in _rotation_steps(delta):
            rotated = LabeledPolygon(
                _rotated(current.vertices, center, c, s), current.z_level
            )
            if _gap_assignment(current, rotated, memo) is None:
                break
            inters.append(rotated)
            current = rotated
        best_tail = _bisect_join(current, upper, memo)
        if best_tail is not None:
            break
    if best_tail is None:
        raise InternalConsistencyError("failed to join the two flattened layers")
    return inters + best_tail


# ---------------------------------------------------------------------------
# the full construction
# ---------------------------------------------------------------------------


def _finish_stack(
    inst: SliceInstance, interior: list[LabeledPolygon], memo: dict
) -> tuple[list[LabeledPolygon], list[ChordAssignment]]:
    """Assign heights uniformly; returns the polygons bottom to top, the
    source and target included, and the solved assignment of every gap."""
    m = len(interior)
    polys = [LabeledPolygon(inst.source.vertices, 0)]
    for k, poly in enumerate(interior, start=1):
        polys.append(LabeledPolygon(poly.vertices, Fraction(k, m + 1)))
    polys.append(LabeledPolygon(inst.target.vertices, 1))
    assignments = []
    for lower, upper in zip(polys, polys[1:]):
        assignment = _gap_assignment(lower, upper, memo)
        if assignment is None:
            raise InternalConsistencyError("a certified gap failed to re-solve")
        assignments.append(assignment)
    return polys, assignments


def build_stack(inst: SliceInstance, memo: dict) -> list[LabeledPolygon]:
    """Interior layers of the full collapse stack, with middle layers joining
    the two flattened ends; the last resort when no cheaper plan exists."""
    bottom = _relaxed_chain(LabeledPolygon(inst.source.vertices, 0), _layer_budget(inst.n))
    top = _relaxed_chain(LabeledPolygon(inst.target.vertices, 0), _layer_budget(inst.n))
    middle = join_triangles(
        LabeledPolygon(bottom[-1].vertices, 0), LabeledPolygon(top[-1].vertices, 0), memo
    )
    return bottom[1:] + middle + list(reversed(top[1:]))


def _relaxed_chain(poly: LabeledPolygon, cap: int) -> list[LabeledPolygon]:
    """Flattening chain starting at the polygon itself.  Each step moves one
    strictly convex vertex onto its neighbours' midpoint, preferring steps
    that lower the geometric corner count but accepting neutral ones (a
    flattened neighbour may pop back out); a visited set and the cap bound
    the walk, so it cannot cycle."""
    layers = [poly]
    seen = {poly.vertices}
    current = poly
    while len(layers) - 1 < cap and _corner_count(current.vertices) > 3:
        pts = current.vertices
        n = len(pts)
        best = None
        for i in range(n):
            if not _is_ear(pts, i):
                continue
            new_pts = _flattened(pts, i)
            if new_pts in seen or not polygon_is_simple(new_pts):
                continue
            decreases = _corner_count(new_pts) < _corner_count(pts)
            candidate = (0 if decreases else 1, i, new_pts)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            break
        seen.add(best[2])
        current = LabeledPolygon(best[2], poly.z_level)
        layers.append(current)
    return layers


def _layer_budget(n: int) -> int:
    # interior layers allowed by the added-vertex bound 2n(n-3) + 12
    return 2 * (n - 3) + 12 // n


def _morph_plan(inst: SliceInstance, max_layers: int, memo: dict) -> list[LabeledPolygon] | None:
    """Interior layers taken from the linear morph itself, bisected until all
    gaps are chord-solvable.  Cheap and small when source and target are
    already close or related by a rotation; gives up (None) where a snapshot
    goes non-simple or the layer budget would be exceeded."""
    from .morph import morph_position

    def snapshot(t: Fraction) -> LabeledPolygon | None:
        poly = morph_position(inst, t).polygon
        pts = poly.vertices
        if not polygon_is_simple(pts):
            return None
        return LabeledPolygon(pts, 0)

    def rec(lo_poly, hi_poly, lo_t, hi_t, depth):
        if _gap_assignment(lo_poly, hi_poly, memo) is not None:
            return []
        if depth == 0:
            return None
        span = hi_t - lo_t
        # prefer the midpoint, but step around stretches where the morph
        # itself goes non-simple: one gap may stride across such a window
        for frac in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 8), Fraction(5, 8)):
            mid_t = lo_t + span * frac
            mid = snapshot(mid_t)
            if mid is None:
                continue
            left = rec(lo_poly, mid, lo_t, mid_t, depth - 1)
            if left is None:
                continue
            right = rec(mid, hi_poly, mid_t, hi_t, depth - 1)
            if right is None:
                continue
            return left + [mid] + right
        return None

    src = LabeledPolygon(inst.source.vertices, 0)
    tgt = LabeledPolygon(inst.target.vertices, 0)
    plan = rec(src, tgt, Fraction(0), Fraction(1), 4)
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


def _rotation_plan(inst: SliceInstance, max_layers: int, memo: dict) -> list[LabeledPolygon] | None:
    """For targets that are an exact rotation (plus translation) of the
    source: stand full-size copies rotated by rational sub-steps between the
    two, refining the step size until every gap solves or the layer budget
    runs out.  Avoids the tiny-scale bottleneck that the straight morph of a
    near-half-turn rotation dives through."""
    from .morph import similarity_witness

    sim = similarity_witness(
        LabeledPolygon(inst.source.vertices, 0), LabeledPolygon(inst.target.vertices, 0)
    )
    if sim is None or sim.scale_squared != 1 or (sim.wy == 0 and sim.wx > 0):
        return None
    wx, wy = sim.wx, sim.wy
    # fixed point X of x -> Wx + v
    det = (1 - wx) * (1 - wx) + wy * wy
    cx = ((1 - wx) * sim.tx - wy * sim.ty) / det
    cy = (wy * sim.tx + (1 - wx) * sim.ty) / det
    center = Point2(cx, cy)
    total = math.atan2(float(wy), float(wx))

    src = LabeledPolygon(inst.source.vertices, 0)
    tgt = LabeledPolygon(inst.target.vertices, 0)
    for uc, us in _ROTATION_PALETTE:
        unit = math.atan2(float(us), float(uc))
        needed = int(abs(total) // unit) + 1
        if needed - 1 > max_layers:
            break
        cum = (Fraction(1), Fraction(0))
        rem_angle = total
        layers = []
        while abs(rem_angle) > unit:
            step = (uc, us if rem_angle > 0 else -us)
            cum = (cum[0] * step[0] - cum[1] * step[1], cum[0] * step[1] + cum[1] * step[0])
            rem_angle -= math.copysign(unit, rem_angle)
            layers.append(LabeledPolygon(_rotated(src.vertices, center, *cum), 0))
        ok = True
        prev = src
        for layer in layers + [tgt]:
            if _gap_assignment(prev, layer, memo) is None:
                ok = False
                break
            prev = layer
        if ok and len(layers) <= max_layers:
            return layers
    return None


def _ladder_plan(inst: SliceInstance, memo: dict, max_attempts: int = 400) -> list[LabeledPolygon] | None:
    """Pair a prefix approaching the source against a suffix approaching the
    target, cheapest total first.  Prefixes/suffixes come from the relaxed
    flattening chain, from strict chains started at other ears (different
    orders flatten to different shapes), and from single morph snapshots; a
    plan is accepted as soon as the two chosen ends admit a chord surface."""
    from .morph import morph_position

    n = inst.n
    budget = _layer_budget(n)
    src = LabeledPolygon(inst.source.vertices, 0)
    tgt = LabeledPolygon(inst.target.vertices, 0)

    def candidates(poly: LabeledPolygon, reverse: bool):
        out = []
        ends = {}

        def add(cost, layers):
            end = layers[-1] if layers else poly
            if cost <= budget and ends.get(end.vertices, cost + 1) > cost:
                ends[end.vertices] = cost
                out.append((cost, list(reversed(layers)) if reverse else layers, end))

        chain = _relaxed_chain(poly, budget)
        for i in range(len(chain)):
            add(i, chain[1 : i + 1])
        for start in range(1, min(n, 6)):
            strict = _collapse_sequence(poly, start)
            add(len(strict), strict)
        return out

    bottom_cands = candidates(src, reverse=False)
    top_cands = candidates(tgt, reverse=True)
    for t8 in (4, 2, 6, 3, 5, 1, 7):
        t = Fraction(t8, 8)
        poly = morph_position(inst, t).polygon
        pts = poly.vertices
        if not polygon_is_simple(pts):
            continue
        snap = LabeledPolygon(pts, 0)
        if _gap_assignment(src, snap, memo) is not None:
            bottom_cands.append((1, [snap], snap))
        if _gap_assignment(snap, tgt, memo) is not None:
            top_cands.append((1, [snap], snap))

    pairs = sorted(
        (
            (cb + ct, kb, kt)
            for kb, (cb, _, _) in enumerate(bottom_cands)
            for kt, (ct, _, _) in enumerate(top_cands)
            if 0 < cb + ct <= budget
        ),
    )
    for _cost, kb, kt in pairs[:max_attempts]:
        prefix, lo = bottom_cands[kb][1], bottom_cands[kb][2]
        suffix, hi = top_cands[kt][1], top_cands[kt][2]
        if _gap_assignment(lo, hi, memo) is not None:
            return prefix + suffix
    return None


def build_layered_surface(inst: SliceInstance) -> BandedSurface:
    """Banded surface for any valid instance.

    Strategy ladder, cheapest first, every gap certified by the chord solver:
    the direct chord solution (zero added vertices); interior layers sampled
    from the morph itself (bisected until gaps solve); exact sub-rotations
    when the target is a rotated copy of the source; ear-collapse plans
    whose flattened ends join without middle layers; and finally the full
    collapse stack with rotation/bisection middle layers.
    """
    inst.validate()
    direct = solve_no_steiner(inst, validate=False)
    if direct.satisfiable:
        return direct.surface

    # gap verdicts of this build only, starting with the direct pair's
    memo = {(inst.source.vertices, inst.target.vertices): None}
    budget = _layer_budget(inst.n)
    plan = _morph_plan(inst, budget, memo)
    if plan is None:
        plan = _rotation_plan(inst, budget, memo)
    if plan is None:
        plan = _ladder_plan(inst, memo)
    if plan is None:
        plan = build_stack(inst, memo)
    return layers_to_surface(*_finish_stack(inst, plan, memo))
