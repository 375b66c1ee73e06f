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
from operator import itemgetter

from .errors import InternalConsistencyError, PreconditionError
from .geometry import (
    _ON_PLANE,
    _horizon_bands,
    _integer_axis,
    _plane,
    _plane_sides,
    _sections_apart,
    _triangles_meet,
    _xy_differences,
    open_triangles_intersect_3d,
    orient3d,
)
from .model import (
    BandedSurface,
    Chord,
    ChordAssignment,
    SliceInstance,
    VerificationReport,
    _QUAD_TRIPLES,
    _integer_instance,
    assignment_to_surface,
    scaled_to_integers,
    verify_banded_surface,
)
from .twosat import Clause2, Literal, TwoSatResult, solve_2sat


def _quad_triangles(points) -> tuple:
    """The four chord triangles of a band quad, in `_QUAD_TRIPLES` order, as
    vertex triples of its points."""
    return tuple(tuple(points[v] for v in triple) for triple in _QUAD_TRIPLES)


@dataclass(frozen=True)
class ChordChoiceTriangles:
    band: int
    choice: Chord
    triangles: tuple[tuple, tuple]  # two vertex triples of (x, y, z) points
    degenerate: bool  # True iff the band quad is coplanar


def chord_triangles(inst: SliceInstance, i: int, choice: Chord) -> ChordChoiceTriangles:
    """The two faces induced on band i by choosing the given chord."""
    if not 0 <= i < inst.n:
        raise PreconditionError(f"band index {i} out of range")
    quad = inst.band_quad(i)
    k = 0 if choice is Chord.RIGHT else 2
    coplanar = orient3d(*quad) == 0
    return ChordChoiceTriangles(i, choice, _quad_triangles(quad)[k : k + 2], coplanar)


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
    """The conflicts of an instance, and nothing else.

    self_conflicts holds the folded choices (i, c), those whose two
    triangles overlap each other (a coplanar quad), per band left before
    right.  pairs[(i, j)][ci][cj] holds the cross-band conflicts for i < j
    with index 0 = Right, 1 = Left, for the pairs with at least one, in
    sorted key order.  Both are in the order of the clauses that
    `build_clauses` emits.

    A table is complete, an absent pair conflict-free, unless 2-SAT refuted
    it early: then it holds the conflicts of the nearest band pairs, as
    `build_conflict_table` walks them, and `refutation` is the 2-SAT result
    that refuted them (else None).  Every clause is a conflict of the
    instance, and a clause set with no satisfying assignment has none when
    clauses are added, so the prefix refutes the instance as the whole would.
    """

    n: int
    self_conflicts: tuple
    pairs: dict
    refutation: TwoSatResult | None = None


_NO_CONFLICT = ((False, False), (False, False))

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


def _level_pairs(k: int, m: int):
    """The `_xy_differences` indices of triangle k of the lower band against
    triangle m of the upper one (`_QUAD_TRIPLES` order): their bottom
    vertices against each other, then their top vertices."""
    tk, tm = _QUAD_TRIPLES[k], _QUAD_TRIPLES[m]
    bottom = [2 * u + w for u in tk if u < 2 for w in tm if w < 2]
    top = [2 * u + w - 2 for u in tk if u >= 2 for w in tm if w >= 2]
    return bottom + top


# per choice pair, as in `_CHOICE_TESTS`, a getter per triangle test that
# picks its 4 or 5 differences out of the 8
_PLANAR_TESTS = tuple(
    tuple(tuple(itemgetter(*_level_pairs(k, m)) for k, m in tests) for tests in row)
    for row in _CHOICE_TESTS
)

# the differences that hold a band's other two points against a path edge
# it shares with the other band: a's p1 q1 as b's p0 q0 (zero differences
# 2 and 5) or a's p0 q0 as b's p1 q1 (1 and 6)
_AROUND_EDGE = itemgetter(0, 3, 4, 7)


def _pair_conflicts(a, b):
    """The conflict matrix of band quads a < b, given as in `_xy_differences`,
    with the verdicts of `conflicts`.

    No shared vertex.  The pair cannot conflict when its closed tetrahedra
    are disjoint (`_sections_apart` on all 8 differences).  Otherwise a
    choice pair conflicts iff one of its four triangle pairs has the origin
    in the hull of its own 4 or 5 differences.  With no vertex shared,
    `geometry._triangles_meet` reports any common point of the closed
    triangles (its "none shared" coplanar branch and
    `_crossing_triangles_meet`), and by the lemma of `_sections_apart` two
    closed chord triangles have one iff their differences hold the origin in
    their hull; so the verdicts are equal, with no plane and no `orient3d`.

    A shared vertex.  A zero difference is a vertex the quads share by
    value: on a valid instance, adjacent bands, the wrap pair and every
    pair at n = 3; the route is chosen on values, not on indices.  When the
    shared vertices include a path edge s t, let P be a plane through the
    line s t with a's other two points strictly on one side and b's on the
    other.  Each chord triangle meets P only in the hull of its vertices
    among s and t, so a triangle of a and one of b meet at most in the
    vertex or edge they share, and the pair cannot conflict.  Projecting
    along s t onto the xy plane maps that line to a point and P to a line
    through it, and sends a bottom point x to x - s and a top point to
    x - t, up to the factor z(t) - z(s).  So P exists iff a's other points
    minus the shared ones and the shared ones minus b's other points lie in
    an open half-plane; those four vectors are the differences that
    `_AROUND_EDGE` picks.  Every other pair takes the sign matrix of
    `_band_pair_conflicts`.
    """
    d = _xy_differences(a, b)
    if (0, 0) in d:
        if (d[2] == d[5] == (0, 0) or d[1] == d[6] == (0, 0)) and _sections_apart(_AROUND_EDGE(d)):
            return _NO_CONFLICT
        return _band_pair_conflicts(a, b)
    if _sections_apart(d):
        return _NO_CONFLICT
    (rr, rl), (lr, ll) = _PLANAR_TESTS
    return (
        (_planar_choices_meet(d, rr), _planar_choices_meet(d, rl)),
        (_planar_choices_meet(d, lr), _planar_choices_meet(d, ll)),
    )


def _planar_choices_meet(d, tests) -> bool:
    """Whether the differences of any triangle test of one choice pair hold
    the origin in their hull."""
    for pick in tests:
        if not _sections_apart(pick(d)):
            return True
    return False


def _band_pair_conflicts(a, b):
    """The conflict matrix of band quads a < b that share a vertex by value.

    A sign matrix holds b's four points against the planes of a's four
    chord triangles and the converse, 32 signs, and each of the 16 triangle
    pairs goes through `geometry._triangles_meet` with its side triples read
    from the matrix; a coplanar pair is decided there too.  The closed
    tetrahedra of such a pair always meet, so no sections test precedes the
    matrix.
    """
    ta, tb = _quad_triangles(a), _quad_triangles(b)
    # b_sides[k][m]: b's triangle m against a's plane k, and the converse
    b_sides = [_TRIANGLE_SIDES[_plane_sides(_plane(*t), b)] for t in ta]
    a_sides = [_TRIANGLE_SIDES[_plane_sides(_plane(*t), a)] for t in tb]
    return tuple(
        tuple(_choices_meet(ta, a_sides, tb, b_sides, tests) for tests in row)
        for row in _CHOICE_TESTS
    )


def _choices_meet(ta, a_sides, tb, b_sides, tests) -> bool:
    """Whether any triangle test (k, m) of one choice pair finds contact."""
    for k, m in tests:
        if _triangles_meet(ta[k], a_sides[m][k], tb[m], b_sides[k][m]):
            return True
    return False


def build_conflict_table(inst: SliceInstance) -> ConflictTable:
    """The conflict table of an instance, with the verdicts of `conflicts`:
    complete whenever its clauses are satisfiable, and otherwise possibly an
    unsatisfiable prefix of the band pairs, walked nearest-first.

    The band quads and their boxes are those of the morph scan over [0, 1]
    (`geometry._horizon_bands`), on the instance's coordinates scaled onto
    integers: the source at z = 0 and the target at z = 1, whatever the
    instance's two distinct z levels.  Scaling x and y by one positive
    factor and mapping the two levels onto 0 and 1 is an affine bijection
    of space, so every contact, and so every conflict, is unchanged.

    Every chord triangle of band i lies in band i's quad, so two bands whose
    quads have disjoint closed xy bounding boxes cannot conflict (z cannot
    separate them: every quad spans the full height).  `_pair_conflicts`
    runs only on the pairs whose boxes meet, and only a pair with a
    conflict is kept; the kept pairs are sorted by key.
    It routes each pair on its 8 xy differences: a pair with no vertex
    shared by value is decided in the plane, from subsets of those
    differences; a pair that shares a path edge, with a plane through the
    edge between the two bands' other points, is dismissed; only the rest
    (on a valid instance, adjacent pairs whose bands fold over each other
    at the shared edge) take the sign matrix of `_band_pair_conflicts`.

    The pairs are walked nearest-first, in rings of cyclic distance: ring
    d = 1, 2, ..., n // 2 holds the pairs (i, i + d mod n), n of them, or
    n / 2 in the last ring of an even n.  After rings 1, 2, 4, ... while
    4d <= n, the conflicts found so far go through `build_clauses` and
    `solve_2sat` when one of them breaks the held assignment: the last such
    check's, or before the first, each band's right chord (its left one
    where the right one folds).  A prefix that the held assignment meets is
    satisfiable, so no check is skipped that could refute.  Each clause is
    a conflict of the instance, and a clause set with no satisfying
    assignment keeps none when clauses are added, so an unsatisfiable
    prefix refutes the instance and is returned with that result as its
    `refutation`.  A satisfiable table is complete, so its clauses and its
    2-SAT assignment are those of the full table.

    A band's two chord triangles share the chord.  When the quad is not
    coplanar they lie in crossing planes, so they meet only on the chord,
    and the choice has no self-conflict; only coplanar quads are tested,
    through `geometry._triangles_meet` on the quad's own vertex triples,
    left chord before right.  Every table holds all self-conflicts.
    """
    if inst.source.z_level == inst.target.z_level:
        raise PreconditionError("conflict tables need distinct source and target z-levels")
    n = inst.n
    ends = zip(inst.source.vertices, inst.target.vertices)
    _, cs = _integer_axis([c for p, q in ends for c in (p.x, p.y, q.x, q.y)])
    boxes, bands = _horizon_bands(cs, (1, 1))
    self_conflicts = []
    for i, band in enumerate(bands):
        if orient3d(*band) == 0:
            tris = _quad_triangles(band)
            for c, k in ((Chord.LEFT, 2), (Chord.RIGHT, 0)):
                if _triangles_meet(tris[k], _ON_PLANE, tris[k + 1], _ON_PLANE):
                    self_conflicts.append((i, c))
    self_conflicts = tuple(self_conflicts)
    # an assignment that meets every conflict found so far unless `stale`,
    # True for the right chord: before the first check, each band's right
    # chord, or its left one where the right one folds
    assignment = [(i, Chord.RIGHT) not in self_conflicts for i in range(n)]
    stale = len({i for i, _ in self_conflicts}) < len(self_conflicts)
    pairs = []
    for d in range(1, n // 2 + 1):
        for i in range(n - d if 2 * d == n else n):
            a, b = (i, i + d) if i + d < n else (i + d - n, i)
            (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[a], boxes[b]
            if x0 <= u1 and u0 <= x1 and y0 <= v1 and v0 <= y1:
                mat = _pair_conflicts(bands[a], bands[b])
                if mat != _NO_CONFLICT:
                    pairs.append(((a, b), mat))
                    stale = stale or mat[not assignment[a]][not assignment[b]]
        # a check after rings 1, 2, 4, ...
        if stale and d & (d - 1) == 0 and 4 * d <= n:
            found = dict(sorted(pairs))
            result = solve_2sat(*build_clauses(ConflictTable(n, self_conflicts, found)))
            if not result.satisfiable:
                return ConflictTable(n, self_conflicts, found, result)
            assignment, stale = result.assignment, False
    return ConflictTable(n, self_conflicts, dict(sorted(pairs)))


def build_clauses(table: ConflictTable):
    """The variable count n and the clauses of a conflict table, whose
    satisfying assignments are exactly the valid surfaces.

    Variable i is True iff band i takes the right chord, so each conflict
    (i, ci), (j, cj) gives the clause "not ci on i or not cj on j".  The
    clauses follow the table's order, which `build_conflict_table` sets:
    the self-conflicts first, per band left before right (the order of the
    chords' values), then the conflicting pairs in sorted key order.
    """
    # per band, its "not right" and "not left" literals, in the order of
    # the conflict matrices' indices (0 = Right, 1 = Left)
    nots = [(Literal(i, True), Literal(i, False)) for i in range(table.n)]
    clauses = []
    for i, c in table.self_conflicts:
        lit = nots[i][c is Chord.LEFT]
        clauses.append(Clause2(lit, lit))
    for (i, j), mat in table.pairs.items():
        not_i, not_j = nots[i], nots[j]
        for lit, (right, left) in zip(not_i, mat):
            if right:
                clauses.append(Clause2(lit, not_j[0]))
            if left:
                clauses.append(Clause2(lit, not_j[1]))
    return table.n, clauses


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


def solve_no_steiner(inst: SliceInstance) -> SolveOutcome:
    """Find a Steiner-free banded surface or certify that none exists.

    The instance is validated first (`SliceInstance.validate` raises
    `InputError` on an invalid one), and the conflict table is built on the
    integer frame that validation computes, so the instance is scaled once.
    On UNSAT the table may be a prefix that 2-SAT refuted, and then carries
    that result as its `refutation`, so only a complete table is solved
    here; its clauses are conflicts of the instance, so the witness chains
    hold as they are.  On SAT the table is complete, and the surface is
    re-certified by the independent verifier; a failure there means the
    conflict predicate and the verifier disagree, which is a bug worth
    crashing over.
    """
    table = build_conflict_table(_integer_instance(inst, inst.validate()[1]))
    result = table.refutation or solve_2sat(*build_clauses(table))
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


_BRUTE_FORCE_MAX_N = 16


def brute_force_assignments(inst: SliceInstance) -> list[ChordAssignment]:
    """Enumerate all 2^n chord assignments, for n <= 16, and keep those whose
    surface passes the full verifier; an invalid instance raises `InputError`
    (`SliceInstance.validate`) and a larger n `PreconditionError`.  The
    surfaces are built on validation's integer frame, as in
    `solve_no_steiner`.  Independent of the clause/2-SAT machinery.  Each
    (band, chord) gives the same two faces on every surface, so the
    verifier's face records and face-pair verdicts are memoised across the
    enumeration, keyed by the faces' integer vertices."""
    cs = inst.validate()[1]
    n = inst.n
    if n > _BRUTE_FORCE_MAX_N:
        raise PreconditionError(f"brute force limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    scaled = _integer_instance(inst, cs)
    memo: dict = {}
    valid = []
    for mask in range(1 << n):
        assignment = ChordAssignment(
            tuple(Chord.RIGHT if (mask >> i) & 1 else Chord.LEFT for i in range(n))
        )
        surface = assignment_to_surface(scaled, assignment)
        report = verify_banded_surface(surface, _memo=memo)
        if report.passed:
            valid.append(assignment)
    return valid
