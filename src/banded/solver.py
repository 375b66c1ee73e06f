"""Steiner-free banded surface decision: conflict clauses over chord choices,
solved by 2-SAT, with a brute-force enumeration oracle for cross-checking.

Band i must be triangulated by one of two chords; two chord choices conflict
when their triangles touch beyond the structure they genuinely share.  Each
conflict forbids one (choice, choice) combination, which is a two-literal
clause, so satisfiability of the O(n^2) clauses decides existence exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import itemgetter

from .errors import InternalConsistencyError, PreconditionError
from .geometry import (
    _ends_apart,
    _horizon_bands,
    _integer_axis,
    _quads_apart,
    _sections_apart,
    _shared_edge_apart,
    _turn_rule,
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
    _coordinates,
    _integer_instance,
    _levels,
    assignment_to_surface,
    scaled_to_integers,
    verify_banded_surface,
)
from .twosat import TwoSatResult, solve_2sat


@dataclass(frozen=True)
class ChordChoiceTriangles:
    band: int
    choice: Chord
    triangles: tuple[tuple, tuple]  # two vertex triples of (x, y, z) points
    degenerate: bool  # True iff the band quad is coplanar


def chord_triangles(inst: SliceInstance, i: int, choice: Chord) -> ChordChoiceTriangles:
    """The two faces induced on band i by choosing the given chord; a z
    level that is not an int or a `Fraction` raises `InputError`."""
    if not 0 <= i < inst.n:
        raise PreconditionError(f"band index {i} out of range")
    _levels(inst)
    quad = inst.band_quad(i)
    k = 0 if choice is Chord.RIGHT else 2
    triangles = tuple(tuple(quad[v] for v in triple) for triple in _QUAD_TRIPLES[k : k + 2])
    return ChordChoiceTriangles(i, choice, triangles, orient3d(*quad) == 0)


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
    triangles overlap each other (a coplanar quad whose bottom and top
    edges point in opposite directions, which folds both chords), per band
    left before right.  pairs[(i, j)][ci][cj] holds the cross-band
    conflicts for i < j with index 0 = Right, 1 = Left, for the pairs with
    at least one, in sorted key order.  Both are in the order of the
    clauses that `build_clauses` emits.

    A table is complete, an absent pair conflict-free, unless its walk
    stopped early, in one of two ways; it then holds the conflicts of the
    nearest band pairs, as `build_conflict_table` walks them.  Either 2-SAT
    refuted them, and `refutation` is that 2-SAT result (else None): every
    clause is a conflict of the instance, and a clause set with no
    satisfying assignment has none when clauses are added, so the prefix
    refutes the instance as the whole would.  Or the turn rule met every
    conflict of ring 1 and the walk's `certify` accepted it there, and
    `certificate` is what `certify` returned (else None): the table then
    holds ring 1 only, and the instance is satisfiable because the accepted
    surface is, not because of these clauses.
    """

    n: int
    self_conflicts: tuple
    pairs: dict
    refutation: TwoSatResult | None = None
    certificate: SolveOutcome | None = None


_NO_CONFLICT = ((False, False), (False, False))

# per choice pair (right = 0, left = 1), its four triangle tests (k, m),
# triangle k of the lower band against triangle m of the upper one
_CHOICE_TESTS = tuple(
    tuple(tuple((k, m) for k in (2 * ca, 2 * ca + 1) for m in (2 * cb, 2 * cb + 1)) for cb in (0, 1))
    for ca in (0, 1)
)


def _difference(u: int, w: int) -> int:
    """The `_xy_differences` index of the lower band's point u against the
    upper band's point w, both on one level."""
    return 2 * u + w - (2 if u >= 2 else 0)


def _level_pairs(k: int, m: int, zeros=()) -> list:
    """The `_sections_apart` tests of triangle k of the lower band against
    triangle m of the upper one (`_QUAD_TRIPLES` order), as lists of
    `_xy_differences` indices, given the indices `zeros` of the zero
    differences, the vertices the bands share by value.  The triangles meet
    beyond the vertex or edge they share iff the differences of one of the
    tests hold the origin in their hull.

    Per level: with no vertex of the two triangles shared there, every
    difference of their points on it; with one, v, the lower triangle's
    other points minus v and v minus the upper one's other points (the
    corollary of `_sections_apart`).  When a level holds the same two points
    of both, the triangles share that edge and each has one point, P and Q,
    on the other level; they meet beyond the edge iff P - Q is zero or
    parallel to the edge, so there are two tests, P - Q with either of the
    level's two nonzero differences."""
    tk, tm = _QUAD_TRIPLES[k], _QUAD_TRIPLES[m]
    every, picks = [], []
    for level in ((0, 1), (2, 3)):
        mine = [u for u in tk if u in level]
        theirs = [w for w in tm if w in level]
        every.append([_difference(u, w) for u in mine for w in theirs])
        shared = [(u, w) for u in mine for w in theirs if _difference(u, w) in zeros]
        if len(shared) == 1:
            ((s, t),) = shared
            picks.append([_difference(u, t) for u in mine if u != s] + [_difference(s, w) for w in theirs if w != t])
        else:
            picks.append(None if shared else every[-1])
    for level, other in ((0, 1), (1, 0)):
        if picks[level] is None:
            return [every[other] + [i] for i in every[level] if i not in zeros]
    return [picks[0] + picks[1]]


def _choice_tests(zeros=()):
    """Per choice pair, as in `_CHOICE_TESTS`, a getter per `_level_pairs`
    test of its four triangle tests, given the zero differences `zeros`."""
    return tuple(
        tuple(tuple(itemgetter(*pick) for k, m in tests for pick in _level_pairs(k, m, zeros)) for tests in row)
        for row in _CHOICE_TESTS
    )


# the tests of a pair that shares no vertex, each on 4 or 5 differences,
# and of the two zero patterns of the adjacent pairs of a valid instance:
# a's p1 q1 as b's p0 q0 (zero differences 2 and 5), and the wrap pair's
# a's p0 q0 as b's p1 q1 (1 and 6)
_PLANAR_TESTS = _choice_tests()
_EDGE_TESTS = {zeros: _choice_tests(zeros) for zeros in ((2, 5), (1, 6))}


def _pair_conflicts(a, b):
    """The conflict matrix of band quads a < b, given as in `_xy_differences`,
    with the verdicts of `conflicts`, decided in the plane from the pair's
    8 xy differences.

    Every chord triangle has two distinct points on one level and one on
    the other, so none is degenerate.  A choice pair conflicts iff one of
    its four triangle pairs meets beyond the vertex or edge it shares,
    which `_level_pairs` reduces to `_sections_apart` on subsets of the
    differences (the lemma of `_sections_apart` and its corollary).

    The zero differences, the vertices the quads share by value, are
    found once, and they route the pair.  With none, the pair cannot
    conflict when `_sections_apart` holds on all 8 (its closed tetrahedra
    are disjoint), and otherwise each triangle pair is tested on its own 4
    or 5 differences.  With one of the two zero patterns of a valid
    instance (adjacent bands, the wrap pair and every pair at n = 3, always
    sharing a path edge), it cannot conflict when
    `geometry._shared_edge_apart` finds a plane through the shared bottom
    and top point that parts the two bands' other points, and otherwise
    takes the tests built at import for that pattern.  Any other pattern,
    on unvalidated input, goes to `geometry._quads_apart`, and its tests
    are built per pair.  So every pair meets the dismissal of
    `_quads_apart`, and the route is chosen on values, not on indices.
    """
    d = _xy_differences(a, b)
    if (0, 0) not in d:
        if _sections_apart(d):
            return _NO_CONFLICT
        tests = _PLANAR_TESTS
    else:
        zeros = tuple(k for k, v in enumerate(d) if v == (0, 0))
        if zeros in _EDGE_TESTS:
            if _shared_edge_apart(d, *zeros):
                return _NO_CONFLICT
            tests = _EDGE_TESTS[zeros]
        elif _quads_apart(d):
            return _NO_CONFLICT
        else:
            tests = _choice_tests(zeros)
    (rr, rl), (lr, ll) = tests
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


def build_conflict_table(inst: SliceInstance) -> ConflictTable:
    """The conflict table of an instance, with the verdicts of `conflicts`:
    complete whenever its clauses are satisfiable, and otherwise possibly an
    unsatisfiable prefix of the band pairs, walked nearest-first.

    The instance's two z levels must be distinct ints or `Fraction`s
    (`model._levels`), as every coordinate must be.  Its coordinates are
    scaled onto integers by one `_integer_axis` call, and `_conflict_table`
    builds the table on them, with the source at z = 0 and the target at
    z = 1, whatever the two levels.  Scaling x and y by one positive factor
    and mapping the two levels onto 0 and 1 is an affine bijection of
    space, so every contact, and so every conflict, is unchanged.
    """
    z0, z1 = _levels(inst)
    if z0 == z1:
        raise PreconditionError("conflict tables need distinct source and target z-levels")
    return _conflict_table(inst.n, _integer_axis(_coordinates(inst))[1])


def _conflict_table(n: int, cs: list[int], certify=None) -> ConflictTable:
    """The table that `build_conflict_table` returns, for the n-vertex
    instance whose integer coordinates cs are laid out as
    `model._coordinates`, with the source at z = 0 and the target at z = 1.
    `solve_no_steiner` passes validation's frame here, and
    `build_conflict_table` its own scaling of the instance, so there is
    one table body; the planner's gap tables come here too.

    The band quads, their boxes and their end boxes are those of the morph
    scan over [0, 1] (`geometry._horizon_bands`).

    Every chord triangle of band i lies in band i's quad, so two bands whose
    quads have disjoint closed xy bounding boxes cannot conflict (z cannot
    separate them: every quad spans the full height), and nor can two
    whose tetrahedra `geometry._ends_apart` sets apart by the xy boxes of
    their bottom and of their top pairs; such a pair would reach
    `_sections_apart` with no zero difference and be dismissed there.
    `_pair_conflicts` runs only on the pairs that pass both tests, box
    test first, and only a pair with a conflict is kept; the kept pairs
    are sorted by key.
    It decides each pair in the plane, from subsets of its 8 xy
    differences: a pair that the dismissal of `geometry._quads_apart`
    sets apart is conflict-free, and every other pair takes one
    `_sections_apart` test per triangle pair on the subset that the pair's
    shared vertices pick.  No 3D predicate runs.

    The pairs are walked nearest-first, in rings of cyclic distance: ring
    d = 1, 2, ..., n // 2 holds the pairs (i, i + d mod n), n of them, or
    n / 2 in the last ring of an even n.  After rings 1, 2, 4, ... while
    4d <= n, the conflicts found so far go through `build_clauses` and
    `solve_2sat` when one of them breaks the held assignment: the last such
    check's, or before the first, the turn rule (`geometry._turn_rule`, the
    assignment of `morph.convex_chord_rule`), which a folded band breaks
    from the start.  A prefix that the held assignment meets is
    satisfiable, so no check is skipped that could refute, and an
    unsatisfiable prefix breaks any start: the refuting check, and so the
    refutation, do not depend on the start.  Each clause is
    a conflict of the instance, and a clause set with no satisfying
    assignment keeps none when clauses are added, so an unsatisfiable
    prefix refutes the instance and is returned with that result as its
    `refutation`.  When the turn rule still meets every conflict after
    ring 1 (the fold scan and the n adjacent pairs), `certify`, when given,
    is called with it, as a list of bools, True for the right chord; a
    result other than None stops the walk, and the table of ring 1 is
    returned with that result as its `certificate`.  `solve_no_steiner`
    certifies by the independent verifier; a planner's gap table takes no
    `certify`.  Any other satisfiable table is complete, so its clauses and
    its 2-SAT assignment are those of the full table.

    A band's two chord triangles share the chord, and they meet beyond it
    iff, projected along the chord, their third points point the same way
    (the shared-edge case of the corollary of `_sections_apart`).  For
    either chord those images are the band's bottom edge p1 - p0 and its
    top edge reversed, q0 - q1, up to one sign, so a chord folds iff the
    two edges point in opposite directions, and then both do: one
    `_sections_apart` test on the two edge vectors per band.  Every table
    holds all self-conflicts, left chord before right.
    """
    boxes, ends, bands = _horizon_bands(cs, (1, 1))
    self_conflicts = []
    for i, ((p0x, p0y, _), (p1x, p1y, _), (q1x, q1y, _), (q0x, q0y, _)) in enumerate(bands):
        if not _sections_apart(((p1x - p0x, p1y - p0y), (q1x - q0x, q1y - q0y))):
            self_conflicts += ((i, Chord.LEFT), (i, Chord.RIGHT))
    self_conflicts = tuple(self_conflicts)
    # an assignment that meets every conflict found so far unless `stale`,
    # True for the right chord: before the first check, the turn rule, which
    # a folded band breaks
    assignment, stale = _turn_rule(cs), bool(self_conflicts)
    pairs = []
    for d in range(1, n // 2 + 1):
        # (i, i + d) for i < n - d, then (i + d - n, i) for the rest of the
        # ring, which the last ring of an even n does not have
        ring = zip(range(n - d), range(d, n))
        if 2 * d < n:
            ring = itertools.chain(ring, zip(range(d), range(n - d, n)))
        for a, b in ring:
            (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[a], boxes[b]
            if x0 <= u1 and u0 <= x1 and y0 <= v1 and v0 <= y1 and not _ends_apart(ends[a], ends[b]):
                mat = _pair_conflicts(bands[a], bands[b])
                if mat != _NO_CONFLICT:
                    pairs.append(((a, b), mat))
                    stale = stale or mat[not assignment[a]][not assignment[b]]
        if d == 1 and not stale and certify is not None:
            certificate = certify(assignment)
            if certificate is not None:
                return ConflictTable(n, self_conflicts, dict(sorted(pairs)), certificate=certificate)
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
    (i, ci), (j, cj) gives the clause "not ci on i or not cj on j", as the
    pair of `solve_2sat` nodes: "not right" on band i is node 2i + 1 and
    "not left" node 2i.  The clauses follow the table's order, which
    `build_conflict_table` sets: the self-conflicts first, per band left
    before right (the order of the chords' values), then the conflicting
    pairs in sorted key order, row Right before Left.
    """
    # a folded chord c on band i gives the clause "not c or not c"
    clauses = [(2 * i + (c is Chord.RIGHT),) * 2 for i, c in table.self_conflicts]
    for (i, j), mat in table.pairs.items():
        # the rows and columns of a matrix are indexed 0 = Right, 1 = Left
        for u, (right, left) in zip((2 * i + 1, 2 * i), mat):
            if right:
                clauses.append((u, 2 * j + 1))
            if left:
                clauses.append((u, 2 * j))
    return table.n, clauses


@dataclass(frozen=True)
class SolveOutcome:
    """The verdict of one `solve_no_steiner` call.  On SAT, `certified_by`
    says how the assignment was found before the verifier passed its
    surface: "turn rule" when the turn rule was accepted after ring 1 of
    the conflict table, "2-SAT" when the complete table was solved; on
    UNSAT it is None."""

    satisfiable: bool
    assignment: ChordAssignment | None = None
    surface: BandedSurface | None = None
    report: VerificationReport | None = None
    unsat: TwoSatResult | None = None
    certified_by: str | None = None

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


def _verified(inst: SliceInstance, choices, certified_by: str) -> SolveOutcome:
    """The SAT outcome of the assignment `choices` (True for the right
    chord), with its surface and the independent verifier's report on it,
    which may fail."""
    assignment = ChordAssignment.from_bools(choices)
    surface = assignment_to_surface(inst, assignment)
    return SolveOutcome(True, assignment, surface, verify_banded_surface(surface), certified_by=certified_by)


def solve_no_steiner(inst: SliceInstance) -> SolveOutcome:
    """Find a Steiner-free banded surface or certify that none exists.

    The instance is validated first (`SliceInstance.validate` raises
    `InputError` on an invalid one), and the conflict table is built
    (`_conflict_table`) on the coordinates of validation's integer frame,
    so only validation clears denominators.

    A certificate and an independent checker (McConnell, Mehlhorn, Naeher
    and Schweitzer, "Certifying algorithms", 2011): every SAT answer is a
    surface that the verifier passes, whichever way it was found.  When
    the turn rule still meets every conflict after ring 1, its surface goes
    to the verifier there; if it passes, that is the answer, and no further
    ring and no 2-SAT solve run.  If it fails, nothing is raised (the rule
    is a guess outside the convex-morph theorem) and the table is walked to
    the end as before.  On UNSAT the table may be a prefix that 2-SAT
    refuted, and then carries that result as its `refutation`, so only a
    complete table is solved here; its clauses are conflicts of the
    instance, so the witness chains hold as they are.  A complete table's
    2-SAT assignment whose surface the verifier rejects means the conflict
    predicate and the verifier disagree, which is a bug worth crashing
    over.  `SolveOutcome.certified_by` records which way a SAT answer came.
    """

    def by_rule(choices):
        outcome = _verified(inst, choices, "turn rule")
        return outcome if outcome.report.passed else None

    table = _conflict_table(inst.n, inst.validate()[1], by_rule)
    if table.certificate is not None:
        return table.certificate
    result = table.refutation or solve_2sat(*build_clauses(table))
    if not result.satisfiable:
        return SolveOutcome(satisfiable=False, unsat=result)
    outcome = _verified(inst, result.assignment, "2-SAT")
    if not outcome.report.passed:
        raise InternalConsistencyError(
            "2-SAT found an assignment but the verifier rejects the surface:\n"
            + outcome.report.summary()
        )
    return outcome


_BRUTE_FORCE_MAX_N = 16


def brute_force_assignments(inst: SliceInstance) -> list[ChordAssignment]:
    """Enumerate all 2^n chord assignments, for n <= 16, and keep those whose
    surface passes the full verifier; an invalid instance raises `InputError`
    (`SliceInstance.validate`) and a larger n `PreconditionError`.
    Independent of the clause/2-SAT machinery.  The surfaces are built on
    validation's integer frame, and the all-right and all-left ones only
    once: band i's two faces are faces 2i and 2i + 1 of either
    (`layers_to_surface`), whose vertices, bands and paths are the same, so
    each assignment's surface is the all-right one with band i's faces
    taken from the surface of band i's chord."""
    cs = inst.validate()[1]
    n = inst.n
    if n > _BRUTE_FORCE_MAX_N:
        raise PreconditionError(f"brute force limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    scaled = _integer_instance(inst, cs)
    right, left = (assignment_to_surface(scaled, ChordAssignment((c,) * n)) for c in (Chord.RIGHT, Chord.LEFT))
    # band i's two faces under either chord, indexed by bit i of a mask
    pairs = [(left.faces[2 * i : 2 * i + 2], right.faces[2 * i : 2 * i + 2]) for i in range(n)]
    valid = []
    for mask in range(1 << n):
        faces = itertools.chain.from_iterable(pairs[i][(mask >> i) & 1] for i in range(n))
        if verify_banded_surface(replace(right, faces=tuple(faces))).passed:
            valid.append(ChordAssignment.from_bools((mask >> i) & 1 for i in range(n)))
    return valid
