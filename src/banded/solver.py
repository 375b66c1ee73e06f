"""Steiner-free banded surface decision: conflict clauses over chord choices,
solved by 2-SAT, with a brute-force enumeration oracle for cross-checking.

Band i must be triangulated by one of two chords; two chord choices conflict
when their triangles touch beyond the structure they genuinely share.  Each
conflict forbids one (choice, choice) combination, which is a two-literal
clause, so satisfiability of the O(n^2) clauses decides existence exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalConsistencyError, PreconditionError
from .geometry import (
    Point3,
    Triangle3,
    _plane,
    _plane_sides,
    _triangles_meet,
    open_triangles_intersect_3d,
    orient3d,
)
from .model import (
    BandedSurface,
    Chord,
    ChordAssignment,
    SliceInstance,
    VerificationReport,
    assignment_to_surface,
    scaled_to_integers,
    verify_banded_surface,
)
from .twosat import Clause2, Literal, TwoSatResult, solve_2sat


@dataclass(frozen=True)
class ChordChoiceTriangles:
    band: int
    choice: Chord
    triangles: tuple[Triangle3, Triangle3]
    degenerate: bool  # True iff the band quad is coplanar


def chord_triangles(inst: SliceInstance, i: int, choice: Chord) -> ChordChoiceTriangles:
    """The two faces induced on band i by choosing the given chord."""
    if not 0 <= i < inst.n:
        raise PreconditionError(f"band index {i} out of range")
    p0, p1, q1, q0 = inst.band_quad(i)
    if choice is Chord.RIGHT:
        tris = (Triangle3(p0, p1, q1), Triangle3(p0, q1, q0))
    else:
        tris = (Triangle3(p0, p1, q0), Triangle3(p1, q1, q0))
    coplanar = orient3d(p0, p1, q1, q0) == 0
    return ChordChoiceTriangles(i, choice, tris, coplanar)


def _tris_conflict(a: ChordChoiceTriangles, b: ChordChoiceTriangles) -> bool:
    return any(
        open_triangles_intersect_3d(t1, t2) for t1 in a.triangles for t2 in b.triangles
    )


def conflicts(inst: SliceInstance, i: int, c_i: Chord, j: int, c_j: Chord) -> bool:
    """True iff choices (i, c_i) and (j, c_j) cannot coexist on the surface.

    Contact along genuinely shared structure (for adjacent bands, the common
    vertical edge and its endpoints) is exempt; everything else conflicts.
    """
    if i == j:
        raise PreconditionError("conflicts() compares two distinct bands")
    scaled = scaled_to_integers(inst)
    return _tris_conflict(chord_triangles(scaled, i, c_i), chord_triangles(scaled, j, c_j))


@dataclass(frozen=True)
class ConflictTable:
    """Precomputed conflict structure of an instance.

    self_conflicts[(i, c)] is True when the two triangles of choice (i, c)
    overlap each other (a folded coplanar quad); pairs[(i, j)][ci][cj] holds
    the cross-band conflicts for i < j with index 0 = Right, 1 = Left.
    """

    n: int
    self_conflicts: dict
    pairs: dict

    def choice_conflicts(self, i: int, c_i: Chord, j: int, c_j: Chord) -> bool:
        if i > j:
            i, j, c_i, c_j = j, i, c_j, c_i
        return self.pairs[(i, j)][_cidx(c_i)][_cidx(c_j)]


def _cidx(c: Chord) -> int:
    return 0 if c is Chord.RIGHT else 1


_NO_CONFLICT = ((False, False), (False, False))

# The vertex triples of a band quad (p0, p1, q1, q0): the right chord's two
# triangles, then the left chord's, each in `chord_triangles` order.  They
# are also the four faces of the tetrahedron on the quad.
_QUAD_TRIPLES = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))

# the sides of a quad's four points against a plane, split into the side
# triples of its four chord triangles, for every row of signs
_TRIANGLE_SIDES = {
    row: tuple(tuple(row[v] for v in triple) for triple in _QUAD_TRIPLES)
    for row in itertools.product((-1, 0, 1), repeat=4)
}

# per choice pair (right = 0, left = 1), its four triangle tests (k, m),
# triangle k of the lower band against triangle m of the upper one
_CHOICE_TESTS = tuple(
    tuple(tuple((k, m) for k in (2 * ca, 2 * ca + 1) for m in (2 * cb, 2 * cb + 1)) for cb in (0, 1))
    for ca in (0, 1)
)


@dataclass(frozen=True, slots=True)
class _BandPlanes:
    """A band's quad points as int tuples, its four chord triangles in
    `_QUAD_TRIPLES` order as vertex triples of those tuples, and their
    planes as `geometry._plane` gives them."""

    points: tuple
    vertices: tuple
    planes: tuple

    @classmethod
    def of(cls, quad):
        points = tuple((p.x, p.y, p.z) for p in quad)
        vertices = tuple(tuple(points[v] for v in triple) for triple in _QUAD_TRIPLES)
        return cls(points, vertices, tuple(_plane(*v) for v in vertices))


def _sections_apart(a, b) -> bool:
    """Whether the closed tetrahedra on two band quads are disjoint, from the
    quads' points (p0, p1, q1, q0) as (x, y, z) tuples, with the p's on one
    level and the q's on another.

    Lemma.  Let D hold the 8 xy differences u - w, with u and w the bottom
    points of a and b, or their top points.  The closed tetrahedra meet iff
    the origin lies in the convex hull of D.

    Proof.  Let the levels be z0 != z1 and write z = (1 - t) z0 + t z1.  The
    tetrahedron on a is the hull of a bottom segment A0 and a top segment
    A1, so its section at t is (1 - t) A0 + t A1, and the same holds for b.
    Two sections meet iff the origin lies in their Minkowski difference
    (1 - t) (A0 - B0) + t (A1 - B1), where A0 - B0 is the hull of the four
    bottom differences and A1 - B1 of the four top ones.  For convex X and
    Y, the union of (1 - t) X + t Y over t in [0, 1] is the hull of X and
    Y.  So some section pair meets iff the origin lies in the hull of D.

    The origin is outside that hull iff all of D lies in an open half-plane
    through it.  That holds iff some v in D has every w in D with
    cross(v, w) > 0, or cross(v, w) = 0 and dot(v, w) > 0; then v is the
    clockwise-most vector of D.  A zero vector, a vertex shared by value,
    fails the test for every v.  Within an open half-plane, "w is strictly
    clockwise of v" orders D, so one pass keeps the clockwise-most vector as
    the only candidate, and a second pass checks it.  Disjoint closed
    tetrahedra hold no common point of any chord triangles, so the pair
    cannot conflict.  A face plane that strictly separates the tetrahedra
    makes them disjoint, so this test ends every pair that such a plane
    would end.
    """
    (a0x, a0y, _), (a1x, a1y, _), (a2x, a2y, _), (a3x, a3y, _) = a
    (b0x, b0y, _), (b1x, b1y, _), (b2x, b2y, _), (b3x, b3y, _) = b
    vectors = (
        (a0x - b0x, a0y - b0y),
        (a0x - b1x, a0y - b1y),
        (a1x - b0x, a1y - b0y),
        (a1x - b1x, a1y - b1y),
        (a2x - b2x, a2y - b2y),
        (a2x - b3x, a2y - b3y),
        (a3x - b2x, a3y - b2y),
        (a3x - b3x, a3y - b3y),
    )
    vx, vy = vectors[0]
    for wx, wy in vectors:
        if vx * wy < vy * wx:
            vx, vy = wx, wy
    for wx, wy in vectors:
        cross = vx * wy - vy * wx
        if cross < 0 or (cross == 0 and vx * wx + vy * wy <= 0):
            return False
    return True


def _band_pair_conflicts(a: _BandPlanes, b: _BandPlanes):
    """The conflict matrix of bands a < b, with the verdicts of `conflicts`.

    A pair whose closed tetrahedra are disjoint (`_sections_apart`) cannot
    conflict.  Otherwise a sign matrix holds b's four points against a's
    four planes and the converse, 32 signs, and each of the 16 triangle
    pairs goes through `geometry._triangles_meet` with its side triples read
    from the matrix, and a coplanar pair through
    `open_triangles_intersect_3d`.
    """
    if _sections_apart(a.points, b.points):
        return _NO_CONFLICT
    # b_sides[k][m]: b's triangle m against a's plane k, and the converse
    b_sides = [_TRIANGLE_SIDES[_plane_sides(plane, b.points)] for plane in a.planes]
    a_sides = [_TRIANGLE_SIDES[_plane_sides(plane, a.points)] for plane in b.planes]
    mat = tuple(
        tuple(_choices_meet(a, a_sides, b, b_sides, tests) for tests in row)
        for row in _CHOICE_TESTS
    )
    # the shared all-False matrix lets `build_clauses` skip the pair
    return _NO_CONFLICT if mat == _NO_CONFLICT else mat


def _triangle(vertices) -> Triangle3:
    return Triangle3(*(Point3(*p) for p in vertices))


def _choices_meet(a: _BandPlanes, a_sides, b: _BandPlanes, b_sides, tests) -> bool:
    """Whether any triangle test (k, m) of one choice pair finds contact."""
    for k, m in tests:
        hit = _triangles_meet(a.vertices[k], a_sides[m][k], b.vertices[m], b_sides[k][m])
        if hit is None:
            hit = open_triangles_intersect_3d(_triangle(a.vertices[k]), _triangle(b.vertices[m]))
        if hit:
            return True
    return False


def build_conflict_table(inst: SliceInstance) -> ConflictTable:
    """The conflict table of an instance, with the verdicts of `conflicts`.

    Every chord triangle of band i lies in band i's quad, so two bands whose
    quads have disjoint closed xy bounding boxes cannot conflict (z cannot
    separate them: every quad spans the full height).  The boxes are sorted
    by min-x and swept with an active list, and `_band_pair_conflicts` runs
    only on pairs whose boxes meet; every other pair is recorded
    conflict-free.

    A band's two chord triangles share the chord.  When the quad is not
    coplanar they lie in crossing planes, so they meet only on the chord,
    and the choice has no self-conflict; only coplanar quads are tested.
    """
    if inst.source.z_level == inst.target.z_level:
        raise PreconditionError("conflict tables need distinct source and target z-levels")
    n = inst.n
    scaled = scaled_to_integers(inst)
    bands = [_BandPlanes.of(scaled.band_quad(i)) for i in range(n)]
    self_conflicts = {}
    boxes = []
    for i, band in enumerate(bands):
        coplanar = orient3d(*band.points) == 0
        for c in (Chord.RIGHT, Chord.LEFT):
            self_conflicts[(i, c)] = coplanar and open_triangles_intersect_3d(
                *chord_triangles(scaled, i, c).triangles
            )
        xs = [p[0] for p in band.points]
        ys = [p[1] for p in band.points]
        boxes.append((min(xs), max(xs), min(ys), max(ys), i))
    boxes.sort()
    pairs = dict.fromkeys(((i, j) for i in range(n) for j in range(i + 1, n)), _NO_CONFLICT)
    active = []
    for x0, x1, y0, y1, i in boxes:
        active = [box for box in active if box[1] >= x0]
        for _, _, v0, v1, j in active:
            if v0 <= y1 and y0 <= v1:
                a, b = (i, j) if i < j else (j, i)
                pairs[(a, b)] = _band_pair_conflicts(bands[a], bands[b])
        active.append((x0, x1, y0, y1, i))
    return ConflictTable(n, self_conflicts, pairs)


def _choice_literal(i: int, c: Chord) -> Literal:
    # variable i is True iff band i takes the right chord
    return Literal(i, negated=(c is Chord.LEFT))


def build_clauses(inst: SliceInstance, table: ConflictTable | None = None):
    """Clauses whose satisfying assignments are exactly the valid surfaces."""
    if table is None:
        table = build_conflict_table(inst)
    clauses = []
    for (i, c), bad in sorted(table.self_conflicts.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        if bad:
            lit = ~_choice_literal(i, c)
            clauses.append(Clause2(lit, lit))
    for (i, j), mat in sorted(table.pairs.items()):
        if mat is _NO_CONFLICT:
            continue
        for ci, row in zip(Chord, mat):
            for cj, bad in zip(Chord, row):
                if bad:
                    clauses.append(
                        Clause2(~_choice_literal(i, ci), ~_choice_literal(j, cj))
                    )
    return inst.n, clauses


@dataclass(frozen=True)
class SolveOutcome:
    satisfiable: bool
    assignment: ChordAssignment | None = None
    surface: BandedSurface | None = None
    report: VerificationReport | None = None
    unsat: TwoSatResult | None = None

    def describe(self) -> str:
        if self.satisfiable:
            return f"SAT {self.assignment}"
        w = self.unsat
        chains = ""
        if w.chain_pos_to_neg:
            chains = (
                f"; {' -> '.join(map(str, w.chain_pos_to_neg))}"
                f" and {' -> '.join(map(str, w.chain_neg_to_pos))}"
            )
        return f"UNSAT (band {w.witness_var} forced both ways{chains})"


def solve_no_steiner(inst: SliceInstance, *, validate: bool = True) -> SolveOutcome:
    """Find a Steiner-free banded surface or certify that none exists.

    On SAT the surface is re-certified by the independent verifier; a failure
    there means the conflict predicate and the verifier disagree, which is a
    bug worth crashing over.
    """
    if validate:
        inst.validate()
    table = build_conflict_table(inst)
    n, clauses = build_clauses(inst, table)
    result = solve_2sat(n, clauses)
    if not result.satisfiable:
        return SolveOutcome(satisfiable=False, unsat=result)
    assignment = ChordAssignment.from_bools(result.assignment)
    surface = assignment_to_surface(inst, assignment)
    report = verify_banded_surface(surface)
    if not report.passed:
        raise InternalConsistencyError(
            "2-SAT found an assignment but the verifier rejects the surface:\n"
            + report.summary()
        )
    return SolveOutcome(True, assignment, surface, report)


def brute_force_assignments(inst: SliceInstance, limit: int = 16) -> list[ChordAssignment]:
    """Enumerate all 2^n chord assignments and keep those whose surface passes
    the full verifier.  Independent of the clause/2-SAT machinery."""
    n = inst.n
    if n > limit:
        raise PreconditionError(f"brute force limited to n <= {limit}, got {n}")
    scaled = scaled_to_integers(inst)
    choices = {(i, c): chord_triangles(scaled, i, c) for i in range(n) for c in Chord}
    memo: dict = {}
    valid = []
    for mask in range(1 << n):
        assignment = ChordAssignment(
            tuple(Chord.RIGHT if (mask >> i) & 1 else Chord.LEFT for i in range(n))
        )
        surface = assignment_to_surface(scaled, assignment)
        triangles = []
        for i, c in enumerate(assignment.choices):
            triangles.extend(choices[(i, c)].triangles)
        report = verify_banded_surface(surface, _triangles=triangles, _pair_memo=memo)
        if report.passed:
            valid.append(assignment)
    return valid
