import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
from geometry_reference import is_degenerate, segment_triangle_contact_3d
from grid_polygons import grid_polygon
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_figures import fig1_twisted_prism, fig3a_no_surface, fig7_star

from banded import geometry, model, solver, twosat
from banded.errors import PreconditionError
from banded.generators import (
    jiggled_instance,
    random_instance,
    random_polygon,
    rotated_instance,
    similar_copy_instance,
)
from banded.geometry import (
    Point2,
    open_triangles_intersect_3d,
    orient2d,
    orient3d,
    polygon_is_ccw,
    polygon_is_simple,
)
from banded.model import (
    Chord,
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    scaled_to_integers,
    verify_banded_surface,
)
from banded.morph import planarity_preserving
from banded.solver import (
    brute_force_assignments,
    build_clauses,
    build_conflict_table,
    chord_triangles,
    conflicts,
    solve_no_steiner,
)
from banded.twosat import Literal, TwoSatResult, solve_2sat

SQUARE = tuple(Point2(*xy) for xy in ((0, 0), (4, 0), (4, 4), (0, 4)))


def _instance(source, target):
    return SliceInstance(
        LabeledPolygon(tuple(Point2(*xy) for xy in source), 0),
        LabeledPolygon(tuple(Point2(*xy) for xy in target), 1),
    )


def identity_square():
    return SliceInstance(LabeledPolygon(SQUARE, 0), LabeledPolygon(SQUARE, 1))


# the triangles of a band quad (p0, p1, q1, q0), right chord then left, which
# are also the faces of the tetrahedron on the quad
QUAD_TRIPLES = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def tetrahedra_disjoint(a, b) -> bool:
    """Whether the closed tetrahedra on two quads, each at least a triangle,
    are disjoint, by an exact separating-axis test in 3D.  The axes are the
    face normals of both, the crosses of an edge of one with an edge of the
    other, and the crosses of each face normal with each edge: when both
    tetrahedra are flat in one plane, as two walls side by side in one
    vertical plane, every face normal and edge cross is normal to that
    plane, and only an in-plane edge normal separates them."""
    a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
    if set(a) & set(b):
        return False
    normals = [_cross(_sub(q[j], q[i]), _sub(q[k], q[i])) for q in (a, b) for i, j, k in QUAD_TRIPLES]
    edges = [[_sub(q[j], q[i]) for i in range(4) for j in range(i + 1, 4)] for q in (a, b)]
    axes = normals + [_cross(e, f) for e in edges[0] for f in edges[1]]
    axes += [_cross(nrm, e) for nrm in normals for e in edges[0] + edges[1]]
    for ux, uy, uz in axes:
        on_a = [ux * x + uy * y + uz * z for x, y, z in a]
        on_b = [ux * x + uy * y + uz * z for x, y, z in b]
        if max(on_a) < min(on_b) or max(on_b) < min(on_a):
            return True
    return False


def _triangle_branch(t1, t2) -> str:
    s2 = [orient3d(*t1, p) for p in t2]
    s1 = [orient3d(*t2, p) for p in t1]
    if any(s[0] == s[1] == s[2] != 0 for s in (s1, s2)):
        return "strict dismissal"
    if s2 == [0, 0, 0]:
        return "coplanar"
    shared = sum(p in t2 for p in t1)
    return ("crossing", "one shared vertex", "shared edge")[shared]


def _shares_a_path_edge(a, b) -> bool:
    """For quads a < b as (x, y, z) tuples: whether they share a path edge,
    as a's p1 q1 and b's p0 q0 (adjacent bands) or as a's p0 q0 and b's p1
    q1 (the wrap pair)."""
    return a[1] == b[0] and a[2] == b[3] or a[0] == b[1] and a[3] == b[2]


def _shared_segment(a, b):
    """For quads a and b as (x, y, z) tuples: the segment s t they share
    when exactly one point of a equals one of b at each level, s at the
    bottom and t at the top, with a's other two points and b's, or None."""
    shared = [[u for u in a[k : k + 2] for w in b[k : k + 2] if u == w] for k in (0, 2)]
    if [len(level) for level in shared] != [1, 1]:
        return None
    edge = (shared[0][0], shared[1][0])
    return edge, [p for p in a if p not in edge], [p for p in b if p not in edge]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def wedges_apart(edge, mine, theirs) -> bool:
    """Whether a plane through the line of `edge` has the points `mine`
    strictly on one side and `theirs` strictly on the other, by a search
    for a certificate in 3D.  With e the edge vector, each point p gives
    u = e x (p - s), or e x (s - p) for `theirs`: the component of p - s
    normal to e, turned a quarter about e, so that a plane normal n
    separates as asked iff m = e x n has m . u > 0 for every u.  If such an
    m exists, the u span a cone of angle below pi, and with u1 and u2 its
    two boundary vectors, e x u1 + u2 x e is one (or u1 itself, when the
    cone is a ray)."""
    s, t = edge
    e = _sub(t, s)
    us = [_cross(e, _sub(p, s)) for p in mine] + [_cross(e, _sub(s, p)) for p in theirs]
    candidates = us + [
        tuple(x + y for x, y in zip(_cross(e, u1), _cross(u2, e))) for u1 in us for u2 in us
    ]
    return any(all(_dot(m, u) > 0 for u in us) for m in candidates)


def kernel_branches(inst, label: str) -> Counter:
    """Which branch of the band-pair kernel decides each pair of the
    conflict table, found in 3D from `orient3d`, vertex values,
    `tetrahedra_disjoint` and `wedges_apart`, per pair whose closed xy
    boxes meet.  A pair that shares no vertex by value takes the planar
    route: disjoint closed tetrahedra ("planar apart"), else the planar
    triangle tests ("planar meet").  A pair that shares one bottom and one
    top point, with a plane through them strictly between the two bands'
    other points, is dismissed: "edge apart" when they are a path edge
    (two walls in one plane count again under `label`), else "segment
    apart".  Every other pair takes the triangle tests of its zero
    pattern ("shared tests"), tallied here with one branch of
    `open_triangles_intersect_3d` per triangle test, stopping a choice pair
    at its first conflict.  Some branches also count under `label` or the
    pair, and each coplanar quad under "coplanar quad"."""
    scaled = scaled_to_integers(inst)
    n = inst.n
    quads = [scaled.band_quad(i) for i in range(n)]
    boxes = [
        (min(p.x for p in q), max(p.x for p in q), min(p.y for p in q), max(p.y for p in q))
        for q in quads
    ]
    counts = Counter()
    counts["coplanar quad"] = sum(orient3d(*quad) == 0 for quad in quads)
    for poly in (scaled.source.vertices, scaled.target.vertices):
        counts[f"flat vertex, {label}"] += sum(orient2d(poly[k - 1], poly[k], poly[(k + 1) % n]) == 0 for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = (tuple(map(tuple, quads[k])) for k in (i, j))
            (x0, x1, y0, y1), (u0, u1, v0, v1) = boxes[i], boxes[j]
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            counts[f"end boxes touch, {label}"] += _end_boxes_touch(a, b)
            if not set(a) & set(b):
                counts["planar apart" if tetrahedra_disjoint(a, b) else "planar meet"] += 1
                continue
            segment = _shared_segment(a, b)
            if segment and wedges_apart(*segment):
                if not _shares_a_path_edge(a, b):
                    counts["segment apart"] += 1
                    continue
                counts["edge apart"] += 1
                if all(orient3d(*a[:3], p) == 0 for p in a[3:] + b):
                    counts[f"edge apart, coplanar, {label}"] += 1
                continue
            counts["shared tests"] += 1
            if j - i not in (1, n - 1):
                counts["shared tests, shared by value"] += 1
            for ci in Chord:
                for cj in Chord:
                    tests = [
                        (t1, t2)
                        for t1 in chord_triangles(scaled, i, ci).triangles
                        for t2 in chord_triangles(scaled, j, cj).triangles
                    ]
                    for t1, t2 in tests:
                        branch = _triangle_branch(t1, t2)
                        hit = open_triangles_intersect_3d(t1, t2)
                        counts[branch] += 1
                        if branch == "coplanar":
                            counts[f"coplanar, {label}"] += 1
                        if branch == "shared edge" and n == 3:
                            counts["shared edge, n = 3"] += 1
                        if branch == "shared edge" and (i, j) == (0, n - 1) and n > 3:
                            counts["shared edge, wrap pair"] += 1
                        if branch == "crossing":
                            counts["crossing, meet" if hit else "crossing, disjoint"] += 1
                        if hit:
                            break
    return counts


def _end_boxes_touch(a, b) -> bool:
    """Whether, along x or along y, the xy box of one quad's bottom pair
    and that of its top pair each lie below the other quad's, closed, with
    at least one of the two touching: `geometry._ends_apart` keeps such a
    pair for the kernel."""
    for axis in (0, 1):
        for u, w in ((a, b), (b, a)):
            gaps = [min(p[axis] for p in w[k : k + 2]) - max(p[axis] for p in u[k : k + 2]) for k in (0, 2)]
            if min(gaps) == 0:
                return True
    return False


def unvalidated_instances(rng, count):
    """Polygons on a small grid, mostly not simple and with repeated
    vertices, so that non-adjacent bands share vertices by value; instances
    with a degenerate chord triangle are skipped (the table rejects them)."""
    out = []
    while len(out) < count:
        n = rng.randint(4, 8)
        inst = _instance(*([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)] for _ in range(2)))
        if not any(
            is_degenerate(t)
            for i in range(n)
            for c in Chord
            for t in chord_triangles(inst, i, c).triangles
        ):
            out.append(inst)
    return out


def pair_matrix(table, i, j):
    """The conflict matrix of bands i and j, rows for band i, read from the
    sparse table with an absent pair as conflict-free."""
    if i < j:
        return table.pairs.get((i, j), solver._NO_CONFLICT)
    return tuple(zip(*pair_matrix(table, j, i)))


def chord_order(choice):
    """Sort key of a (band, chord) choice: by band, then left before right."""
    i, c = choice
    return i, c.value


def complete_table(inst):
    """The conflict table with every pair tested: each pair that
    `geometry._box_pairs` sweeps goes through `solver._pair_conflicts`, and
    each chord choice is tested against itself with
    `open_triangles_intersect_3d`; the kept pairs and choices come in the
    table's order."""
    scaled = scaled_to_integers(inst)
    bands = [scaled.band_quad(i) for i in range(inst.n)]
    pairs = {}
    for j, k in geometry._box_pairs([geometry._box(geometry._end_boxes(band)) for band in bands]):
        a, b = min(j, k), max(j, k)
        mat = solver._pair_conflicts(bands[a], bands[b])
        if mat != solver._NO_CONFLICT:
            pairs[(a, b)] = mat
    folded = [
        (i, c)
        for i in range(inst.n)
        for c in (Chord.LEFT, Chord.RIGHT)
        if open_triangles_intersect_3d(*chord_triangles(inst, i, c).triangles)
    ]
    return solver.ConflictTable(inst.n, tuple(folded), dict(sorted(pairs.items())))


def assert_refutes_or_completes(table, reference):
    """The table's contract against the complete one: equal to it when its
    clauses are satisfiable, and otherwise a subset of its conflicts, in
    key order and with all the folded choices, that 2-SAT refutes.  Returns the
    table's 2-SAT result."""
    result = solve_2sat(*build_clauses(table))
    if result.satisfiable:
        assert table == reference
    else:
        assert list(table.pairs) == sorted(table.pairs)
        assert table.self_conflicts == reference.self_conflicts
        assert {key: reference.pairs.get(key) for key in table.pairs} == table.pairs
    return result


def assert_table_agrees_with_the_oracle(inst, oracle):
    """The 2-SAT verdict of the conflict table, walked to the end or to a
    refuted prefix with no turn-rule exit (`build_conflict_table`), is the
    oracle's, and on SAT its assignment is one of the oracle's: the paper's
    polynomial algorithm stays covered whatever `solve_no_steiner`
    certifies by the turn rule."""
    table = build_conflict_table(inst)
    result = table.refutation or solve_2sat(*build_clauses(table))
    assert result.satisfiable == bool(oracle)
    if result.satisfiable:
        assert ChordAssignment.from_bools(result.assignment) in oracle


def negation(lit):
    """The literal of the opposite sign on the same variable."""
    return Literal(lit.var, not lit.negated)


def assert_chains_are_conflicts(inst, unsat):
    """Every implication a -> b of both UNSAT chains is a conflict of the
    instance, read from `conflicts` and the chord triangles, not from a
    table: choice a against the opposite of b, or a folded choice."""

    def chord(lit):
        return Chord.LEFT if lit.negated else Chord.RIGHT

    other = {Chord.RIGHT: Chord.LEFT, Chord.LEFT: Chord.RIGHT}
    v = unsat.witness_var
    assert unsat.chain_pos_to_neg[0] == unsat.chain_neg_to_pos[-1] == Literal(v)
    assert unsat.chain_neg_to_pos[0] == unsat.chain_pos_to_neg[-1] == Literal(v, True)
    for chain in (unsat.chain_pos_to_neg, unsat.chain_neg_to_pos):
        for a, b in zip(chain, chain[1:]):
            if a.var == b.var:
                assert b == negation(a)
                assert open_triangles_intersect_3d(*chord_triangles(inst, a.var, chord(a)).triangles)
            else:
                assert conflicts(inst, a.var, chord(a), b.var, other[chord(b)]), (a, b)


@functools.cache
def conflict_table_corpus():
    """(label, instance) pairs: figures, coplanar walls, every target style
    at n = 3..12, pairs of polygons drawn on a 5 x 5 grid at n = 4..6, with
    flat vertices and end boxes that touch, and unvalidated inputs.  The two
    "pinned" instances have bands 0 and 3 conflicting while their boxes
    meet only along the line x = 5; the second is the first turned a
    quarter, which puts that line on a y boundary, so an open-box sweep
    misses both."""
    rng = random.Random(17)
    source = ((5, 0), (5, 4), (6, 7), (5, 6), (4, 5), (2, 6))
    target = ((5, 6), (7, 6), (1, 9), (5, 2), (4, 5), (3, 7))
    pinned = _instance(source, target)
    turned = _instance(*(tuple((-y, x) for x, y in p) for p in (source, target)))
    # a flat vertex at (2, 0) makes bands 0 and 1 coplanar walls
    flat = ((0, 0), (2, 0), (4, 0), (4, 4), (0, 4))
    instances = [
        ("figure", fig7_star().instance),
        ("figure", fig1_twisted_prism().instance),
        ("pinned", pinned),
        ("pinned", turned),
        ("identity", _instance(flat, flat)),
        ("wall", _instance(flat, flat[:3] + ((3, 3), (0, 4)))),
    ]
    for n in range(3, 13):
        for kind in ("convex", "star"):
            poly = random_polygon(rng, n, kind)
            other = random_polygon(rng, n, kind)
            instances += [
                ("random", similar_copy_instance(rng, poly)),
                ("random", jiggled_instance(rng, poly)),
                ("random", rotated_instance(rng, poly)),
                ("random", SliceInstance(poly, LabeledPolygon(other.vertices, 1))),
            ]
    grid = random.Random(5)  # its own draws, so the others stay as they were
    for n in (4, 5, 6):
        for _ in range(8):
            bottom, top = grid_polygon(grid, n), grid_polygon(grid, n)
            instances.append(("grid", SliceInstance(LabeledPolygon(bottom, 0), LabeledPolygon(top, 1))))
    for _, inst in instances:
        inst.validate()
    return tuple(instances + [("unvalidated", inst) for inst in unvalidated_instances(rng, 40)])


class TestChordTriangles:
    def test_right_choice_uses_right_chord(self):
        inst = fig1_twisted_prism().instance
        cc = chord_triangles(inst, 0, Chord.RIGHT)
        p0, p1, q1, q0 = inst.band_quad(0)
        assert cc.triangles == ((p0, p1, q1), (p0, q1, q0))
        assert not cc.degenerate

    def test_left_choice_uses_left_chord(self):
        inst = fig1_twisted_prism().instance
        cc = chord_triangles(inst, 0, Chord.LEFT)
        p0, p1, q1, q0 = inst.band_quad(0)
        assert cc.triangles == ((p0, p1, q0), (p1, q1, q0))

    def test_identity_band_is_coplanar(self):
        cc = chord_triangles(identity_square(), 0, Chord.RIGHT)
        assert cc.degenerate

    def test_band_index_range(self):
        with pytest.raises(PreconditionError):
            chord_triangles(identity_square(), 4, Chord.RIGHT)


class TestConflicts:
    def test_requires_distinct_bands(self):
        with pytest.raises(PreconditionError):
            conflicts(identity_square(), 1, Chord.RIGHT, 1, Chord.LEFT)

    def test_identity_prism_has_no_conflicts(self):
        n, clauses = build_clauses(build_conflict_table(identity_square()))
        assert n == 4 and clauses == []

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(3, 6), "star")
            for i in range(inst.n):
                for j in range(i + 1, inst.n):
                    for ci in Chord:
                        for cj in Chord:
                            assert conflicts(inst, i, ci, j, cj) == conflicts(
                                inst, j, cj, i, ci
                            )

    def test_conflict_table_matches_conflicts(self, monkeypatch):
        # the swept band-pair kernel against the unpruned pairwise reference,
        # on every target style and on unvalidated inputs; the kernel is
        # read through the complete table, since a table that 2-SAT
        # refutes may stop early
        instances = conflict_table_corpus()
        pinned, turned = (inst for label, inst in instances if label == "pinned")

        calls = Counter()

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        def choice_pair(d, tests):
            # four per pair that reaches the triangle tests, by its route
            calls["shared tests" if (0, 0) in d else "planar meet"] += 1
            return planar_choices_meet(d, tests)

        # the tails are looked up in `geometry`, where the sign cascade of
        # `open_triangles_intersect_3d` calls them; the choice tests in
        # `solver`
        planar_choices_meet = solver._planar_choices_meet
        with monkeypatch.context() as patched:
            for name, fn in (
                ("crossing", geometry._crossing_triangles_meet),
                ("one shared vertex", geometry._shared_vertex_triangles_meet),
                ("coplanar", geometry._coplanar_triangles_meet),
            ):
                patched.setattr(geometry, fn.__name__, counted(name, fn))
            patched.setattr(solver, "_planar_choices_meet", choice_pair)
            references = [complete_table(inst) for _, inst in instances]

        branches = Counter()
        outcomes = Counter()
        for (label, inst), reference in zip(instances, references):
            branches += kernel_branches(inst, label)
            # the complete table stores exactly the conflicts: sorted pairs
            # i < j, none all False, and an absent pair reads as conflict-free
            every_pair = [(i, j) for i in range(inst.n) for j in range(i + 1, inst.n)]
            assert list(reference.pairs) == sorted(reference.pairs)
            assert set(reference.pairs) <= set(every_pair)
            assert all(any(map(any, mat)) for mat in reference.pairs.values())
            for i, j in every_pair:
                mat = pair_matrix(reference, i, j)
                for ci in Chord:
                    for cj in Chord:
                        idx = (0 if ci is Chord.RIGHT else 1, 0 if cj is Chord.RIGHT else 1)
                        assert mat[idx[0]][idx[1]] == conflicts(inst, i, ci, j, cj), (label, inst)
            # the table is the reference, or a prefix of it that 2-SAT refutes
            table = build_conflict_table(inst)
            result = assert_refutes_or_completes(table, reference)
            outcomes["sat" if result.satisfiable else "unsat"] += 1
            outcomes["refuted early"] += table != reference
            # the folded choices, per band left before right
            assert list(table.self_conflicts) == sorted(table.self_conflicts, key=chord_order)
            for i in range(inst.n):
                for c in Chord:
                    folded = open_triangles_intersect_3d(*chord_triangles(inst, i, c).triangles)
                    assert ((i, c) in table.self_conflicts) == folded
                    branches["folded quad"] += folded
        assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes
        for reference in (complete_table(pinned), complete_table(turned)):
            assert reference.pairs[(0, 3)] == ((True, True), (True, True))

        # every branch of the kernel is reached, and the pairs that reach
        # the triangle tests are those of the independent tally, by route;
        # the 3D tails run only in the reference's self-conflict tests, the
        # coplanar one twice per coplanar quad, and never for the kernel
        for branch in (
            "planar apart",
            "planar meet",
            "edge apart",
            "segment apart",
            "shared tests",
            "shared tests, shared by value",
            "strict dismissal",
            "edge apart, coplanar, identity",
            "edge apart, coplanar, wall",
            "coplanar",
            "shared edge, wrap pair",
            "shared edge, n = 3",
            "one shared vertex",
            "crossing, meet",
            "crossing, disjoint",
            "coplanar quad",
            "folded quad",
            "flat vertex, grid",
            "end boxes touch, grid",
        ):
            assert branches[branch] > 0, branch
        assert calls["shared tests"] == 4 * branches["shared tests"]
        assert calls["planar meet"] == 4 * branches["planar meet"]
        assert calls["crossing"] == calls["one shared vertex"] == 0
        assert calls["coplanar"] == 2 * branches["coplanar quad"]

    def test_equal_levels_are_rejected(self):
        # the sections-apart test needs two distinct levels
        flat = LabeledPolygon(SQUARE, 0)
        with pytest.raises(PreconditionError):
            build_conflict_table(SliceInstance(flat, flat))

    def test_triangle_instance_wraparound_band_pair(self):
        # with n=3 every band pair is adjacent: bands 0 and 2 share the
        # vertical edge at vertex 0, so the sharing exemption must come from
        # the actual mesh and both uniform choices must stay conflict-free
        inst = fig1_twisted_prism().instance
        for c in Chord:
            assert not conflicts(inst, 0, c, 2, c)
        n, clauses = build_clauses(build_conflict_table(inst))
        assert n == 3
        assert {node // 2 for cl in clauses for node in cl} <= {0, 1, 2}


class TestSolve:
    def test_twisted_prism_sat(self):
        out = solve_no_steiner(fig1_twisted_prism().instance)
        assert out.satisfiable
        assert out.report.passed

    def test_fig3a_unsat_with_witness(self):
        out = solve_no_steiner(fig3a_no_surface().instance)
        assert not out.satisfiable
        assert out.unsat.witness_var is not None
        assert "UNSAT" in out.describe()

    def test_fig3a_blocking_pattern(self):
        # the top edge of band AB must form a face with A or with B, and both
        # candidate faces cross the vertical edge CC'
        inst = fig3a_no_surface().instance
        A, B, C = (inst.source.point3(k) for k in range(3))
        Ap, Bp, Cp = (inst.target.point3(k) for k in range(3))
        assert segment_triangle_contact_3d(C, Cp, (A, Bp, Ap))
        assert segment_triangle_contact_3d(C, Cp, (B, Bp, Ap))

    def test_fig7_star_unsat(self):
        assert not solve_no_steiner(fig7_star().instance).satisfiable

    def test_identity_sat(self):
        out = solve_no_steiner(identity_square())
        assert out.satisfiable and out.report.passed


# two pairs on the 5 x 5 grid whose turn rule meets every conflict of ring 1
# (the fold scan and the adjacent pairs) while its surface fails the
# verifier: the first has a surface, the second none
RULE_FAILS_SAT = (((2, 2), (3, 2), (4, 0), (3, 3), (0, 1)), ((2, 1), (2, 2), (2, 4), (1, 1), (4, 0)))
RULE_FAILS_UNSAT = (
    ((2, 4), (1, 2), (0, 0), (2, 0), (3, 3), (4, 3)),
    ((4, 1), (3, 1), (2, 4), (0, 2), (1, 2), (4, 0)),
)


def turn_rule(inst) -> ChordAssignment:
    return ChordAssignment.from_bools(geometry._turn_rule(inst.validate()[1]))


def assert_rule_meets_ring_1_and_fails(inst):
    # read from the complete table and the verifier, not from the solve
    rule, table, n = turn_rule(inst), complete_table(inst), inst.n
    assert table.self_conflicts == ()
    for i in range(n):
        j = (i + 1) % n
        assert not pair_matrix(table, i, j)[rule.choices[i] is Chord.LEFT][rule.choices[j] is Chord.LEFT]
    assert not verify_banded_surface(assignment_to_surface(inst, rule)).passed


class TestTurnRuleExit:
    def test_a_rejected_rule_falls_back_to_the_complete_table(self):
        # the solve walks on past ring 1 and returns the complete table's
        # 2-SAT assignment, which is not the rule's
        inst = _instance(*RULE_FAILS_SAT)
        assert_rule_meets_ring_1_and_fails(inst)
        out = solve_no_steiner(inst)
        assert out.certified_by == "2-SAT" and out.report.passed
        expected = solve_2sat(*build_clauses(complete_table(inst)))
        assert out.assignment == ChordAssignment.from_bools(expected.assignment)
        assert out.assignment != turn_rule(inst)

    def test_a_failed_rule_verification_does_not_raise(self):
        # the rule's surface is rejected after ring 1, and the walk goes on
        # to refute the pair; only a 2-SAT assignment that the verifier
        # rejects raises
        inst = _instance(*RULE_FAILS_UNSAT)
        assert_rule_meets_ring_1_and_fails(inst)
        out = solve_no_steiner(inst)
        assert not out.satisfiable and out.certified_by is None
        assert_chains_are_conflicts(inst, out.unsat)
        assert brute_force_assignments(inst) == []


class TestBruteForce:
    def test_identity_square_all_valid(self):
        assert len(brute_force_assignments(identity_square())) == 16

    def test_fig3a_empty(self):
        assert brute_force_assignments(fig3a_no_surface().instance) == []

    def test_twisted_prism_contains_both_uniform_choices(self):
        names = {str(a) for a in brute_force_assignments(fig1_twisted_prism().instance)}
        assert {"RRR", "LLL"} <= names

    def test_limit(self):
        rng = random.Random(1)
        inst = random_instance(rng, 17, "convex")
        with pytest.raises(PreconditionError):
            brute_force_assignments(inst)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(17)
        kinds = ["convex", "star", "spiral"]
        for k in range(25):
            inst = random_instance(rng, rng.randint(3, 8), kinds[k % 3])
            out = solve_no_steiner(inst)
            oracle = brute_force_assignments(inst)
            assert out.satisfiable == bool(oracle)
            if out.satisfiable:
                assert str(out.assignment) in {str(a) for a in oracle}
            assert_table_agrees_with_the_oracle(inst, oracle)

    def test_translation_invariance(self):
        rng = random.Random(23)
        found = 0
        while found < 5:
            inst = random_instance(rng, rng.randint(3, 7), "star")
            out = solve_no_steiner(inst)
            if not out.satisfiable:
                continue
            found += 1
            for _ in range(10):
                dx, dy = rng.randint(-30, 30), rng.randint(-30, 30)
                moved = SliceInstance(inst.source, inst.target.translated(dx, dy))
                s = assignment_to_surface(moved, out.assignment)
                assert verify_banded_surface(s).passed


@given(st.randoms(use_true_random=True), st.integers(3, 6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_grid_pairs_agree_with_brute_force(rng, n):
    # two polygons on the 5 x 5 grid, whose flat vertices, shared
    # coordinates and touching boxes random targets rarely draw: the solver
    # is SAT iff the oracle finds a surface, its assignment is one of the
    # oracle's, and every step of an UNSAT chain is a conflict of the
    # instance; the conflict table's own 2-SAT verdict and assignment agree
    # with the oracle too
    inst = SliceInstance(LabeledPolygon(grid_polygon(rng, n), 0), LabeledPolygon(grid_polygon(rng, n), 1))
    outcome = solve_no_steiner(inst)
    oracle = brute_force_assignments(inst)
    assert outcome.satisfiable == bool(oracle)
    if outcome.satisfiable:
        assert outcome.assignment in oracle
    else:
        assert_chains_are_conflicts(inst, outcome.unsat)
    assert_table_agrees_with_the_oracle(inst, oracle)


GRID = st.tuples(st.integers(0, 3), st.integers(0, 3))
LEVELS = st.lists(st.integers(-2, 2), min_size=2, max_size=2, unique=True)


def _quad(bottom, top, levels):
    (p0, p1), (q0, q1), (z0, z1) = bottom, top, levels
    return ((*p0, z0), (*p1, z0), (*q1, z1), (*q0, z1))


# two walls side by side in the vertical plane y = 0, which only an in-plane
# axis separates
@example(((0, 0), (1, 0)), ((0, 0), (1, 0)), ((2, 0), (3, 0)), ((2, 0), (3, 0)), [0, 1])
@given(
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    st.tuples(GRID, GRID),
    LEVELS,
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_sections_apart_is_closed_tetrahedron_disjointness(bottom_a, top_a, bottom_b, top_b, levels):
    # on a 4 x 4 grid the draws hold flat quads, vertices shared by value and
    # corners that touch; a quad that is a single segment has no chord
    # triangles, so at least one of its edges has length
    assume(len(set(bottom_a)) == 2 or len(set(top_a)) == 2)
    assume(len(set(bottom_b)) == 2 or len(set(top_b)) == 2)
    a, b = _quad(bottom_a, top_a, levels), _quad(bottom_b, top_b, levels)
    apart = geometry._sections_apart(geometry._xy_differences(a, b))
    assert apart == tetrahedra_disjoint(a, b)
    assert geometry._sections_apart(geometry._xy_differences(b, a)) == apart



PLANAR_GRID = range(-2, 3)
# the steps of the grid lines on which coplanar draws put both quads
LINE_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))


GRID_POINTS = [(x, y) for x in PLANAR_GRID for y in PLANAR_GRID]


def _grid_point(rng):
    return rng.choice(GRID_POINTS)


def _grid_levels(rng, coplanar: bool, count: int, ordered: bool = False):
    """`count` bottom points and as many top points on the grid: anywhere
    (twisted quads), or all in one plane, with the bottom points on one
    grid line and the top points on that line moved by one offset, so that
    every quad over them is a vertical wall or a slanted flat quad.  With
    `ordered`, the points of each level are distinct and in order along
    the line."""
    if not coplanar:
        return [_grid_point(rng) for _ in range(count)], [_grid_point(rng) for _ in range(count)]
    (dx, dy), (cx, cy) = rng.choice(LINE_STEPS), _grid_point(rng)
    sx, sy = rng.choice((0, 0, 1, -1)), rng.choice((0, 0, 1, -1))
    levels = []
    for top in (0, 1):
        steps = sorted(rng.sample(PLANAR_GRID, count)) if ordered else [rng.choice(PLANAR_GRID) for _ in range(count)]
        levels.append([(cx + k * dx + top * sx, cy + k * dy + top * sy) for k in steps])
    return levels


def _choice_matrix(inst, i, j):
    """The conflict matrix of bands i and j from `open_triangles_intersect_3d`
    on their `chord_triangles`, indexed as in the table."""
    tris = {(k, c): chord_triangles(inst, k, c).triangles for k in (i, j) for c in Chord}
    return tuple(
        tuple(
            any(open_triangles_intersect_3d(t1, t2) for t1 in tris[(i, ci)] for t2 in tris[(j, cj)])
            for cj in Chord
        )
        for ci in Chord
    )


# the 3D predicates, which no path of the conflict table calls
THREE_D = ("orient3d", "_plane", "_plane_sides", "_triangles_meet", "open_triangles_intersect_3d")


def _forbidden(*args):
    raise AssertionError("the conflict table calls no 3D predicate")


def forbid_3d(patched):
    """Bind every 3D predicate to `_forbidden` in `geometry` and, where it
    binds one for the reference `conflicts`, in `solver`."""
    for module in (geometry, solver):
        for name in THREE_D:
            if hasattr(module, name):
                patched.setattr(module, name, _forbidden)


def test_planar_route_matches_the_3d_kernel(monkeypatch):
    # 20,000 pairs of quads on levels 0 and 1 that share no vertex, twisted
    # or both in one plane, put as bands 0 and 2 of an unvalidated 4-gon
    # instance: the planar route decides each with every 3D predicate
    # forbidden, and its matrix is that of the 3D predicate on the chord
    # triangles, computed outside that patch
    rng = random.Random(41)
    cases = []
    while len(cases) < 20000:
        coplanar = rng.random() < 0.5
        bottom, top = _grid_levels(rng, coplanar, 4)
        if any(len(set(level[k : k + 2])) < 2 for level in (bottom, top) for k in (0, 2)):
            continue  # a quad edge of length 0 has no chord triangles
        if set(bottom[:2]) & set(bottom[2:]) or set(top[:2]) & set(top[2:]):
            continue  # a shared vertex
        inst = _instance(bottom, top)
        cases.append((inst, *(tuple(map(tuple, inst.band_quad(k))) for k in (0, 2))))
    with monkeypatch.context() as patched:
        forbid_3d(patched)
        mats = [solver._pair_conflicts(a, b) for _, a, b in cases]
    tally = Counter()
    for (inst, a, b), mat in zip(cases, mats):
        assert mat == _choice_matrix(inst, 0, 2), inst
        if geometry._sections_apart(geometry._xy_differences(a, b)):
            tally["apart"] += 1
            continue
        tally["meet"] += any(map(any, mat))
        tally["partial"] += any(map(any, mat)) and not all(map(all, mat))
        tally["coplanar"] += all(orient3d(*a[:3], p) == 0 for p in a[3:] + b)
    assert min(tally[key] for key in ("apart", "meet", "partial", "coplanar")) > 1000, tally


def test_shared_path_edge_route_matches_the_3d_kernel(monkeypatch):
    # unvalidated 4-gon instances on the grid: bands 0 and 1 share the path
    # edge at vertex 1, and bands 0 and 3 the one at vertex 0 (the wrap
    # pair); each is dismissed by the plane through that edge, or goes
    # through the triangle tests of its zero pattern, with every 3D
    # predicate forbidden, and either way its matrix is that of the 3D
    # predicate
    rng = random.Random(43)
    cases = []
    while len(cases) < 3000:
        coplanar = rng.random() < 0.3
        bottom, top = _grid_levels(rng, coplanar, 4, ordered=rng.random() < 0.5)
        if any(level[k] == level[k - 1] for level in (bottom, top) for k in range(4)):
            continue  # a quad edge of length 0 has no chord triangles
        inst = _instance(bottom, top)
        bands = [tuple(map(tuple, inst.band_quad(k))) for k in range(4)]
        cases += [(inst, coplanar, j, bands[0], bands[j]) for j in (1, 3)]
    with monkeypatch.context() as patched:
        forbid_3d(patched)
        mats = [solver._pair_conflicts(a, b) for *_, a, b in cases]
    tally = Counter()
    for (inst, coplanar, j, a, b), mat in zip(cases, mats):
        assert mat == _choice_matrix(inst, 0, j), (inst, j)
        if geometry._quads_apart(geometry._xy_differences(a, b)):
            tally["edge apart"] += 1
            tally["edge apart, coplanar"] += coplanar
        else:
            tally["edge tests"] += 1
            tally["edge tests, partial"] += not all(map(all, mat))
    keys = ("edge apart", "edge apart, coplanar", "edge tests", "edge tests, partial")
    assert min(tally[key] for key in keys) > 200, tally


def _sharing_patterns(a, b) -> list:
    """The sharing patterns of band quads a and b, read from their points:
    which of their 8 `_xy_differences` are zero (which vertices they share
    by value), and whether a chord triangle of one is one of the other."""
    d = [(u[0] - w[0], u[1] - w[1]) for k in (0, 2) for u in a[k : k + 2] for w in b[k : k + 2]]
    zeros = {k for k in range(8) if d[k] == (0, 0)}
    patterns = []
    if zeros in ({2, 5}, {1, 6}):
        patterns.append(f"path edge {sorted(zeros)}")
    if not zeros:
        patterns.append("no zero")
    if len(zeros) == 1:
        patterns.append("single zero")
    if any(level <= zeros for level in ({0, 3}, {1, 2}, {4, 7}, {5, 6})):
        patterns.append("two zeros on one level")
    triangles = [{tuple(q[v]) for v in triple} for q in (a, b) for triple in QUAD_TRIPLES]
    if any(t in triangles[4:] for t in triangles[:4]):
        patterns.append("identical triangles")
    return patterns


def test_every_sharing_pattern_matches_the_3d_kernel(monkeypatch):
    # unvalidated 4-gon instances on a 4 x 4 grid, twisted or in one plane,
    # so that bands share vertices by value in every pattern: with every 3D
    # predicate forbidden, the kernel's matrices of band 0 against bands 1,
    # 2 and 3, and the table's folded choices, are those of the 3D
    # predicate, computed outside that patch
    rng = random.Random(45)
    instances = []
    while len(instances) < 2000:
        if rng.random() < 0.3:
            bottom, top = _grid_levels(rng, True, 4)
        else:
            bottom, top = ([(rng.randrange(4), rng.randrange(4)) for _ in range(4)] for _ in range(2))
        if any(level[k] == level[k - 1] for level in (bottom, top) for k in range(4)):
            continue  # a quad edge of length 0 has no chord triangles
        instances.append(_instance(bottom, top))
    bands = [[tuple(map(tuple, inst.band_quad(k))) for k in range(4)] for inst in instances]
    with monkeypatch.context() as patched:
        forbid_3d(patched)
        mats = [[solver._pair_conflicts(quads[0], quads[j]) for j in (1, 2, 3)] for quads in bands]
        folded = [build_conflict_table(inst).self_conflicts for inst in instances]
    tally = Counter()
    for inst, quads, row, table_folded in zip(instances, bands, mats, folded):
        for j, mat in zip((1, 2, 3), row):
            assert mat == _choice_matrix(inst, 0, j), (inst, j)
            tally.update(_sharing_patterns(quads[0], quads[j]))
        expected = [
            (i, c)
            for i in range(4)
            for c in (Chord.LEFT, Chord.RIGHT)
            if open_triangles_intersect_3d(*chord_triangles(inst, i, c).triangles)
        ]
        assert list(table_folded) == expected, inst
        tally["folded"] += len(expected)
    floors = {
        "path edge [2, 5]": 800,
        "path edge [1, 6]": 800,
        "no zero": 600,
        "single zero": 200,
        "two zeros on one level": 300,
        "identical triangles": 300,
        "folded": 800,
    }
    assert all(tally[key] > floor for key, floor in floors.items()), tally


def literal_node(lit):
    """The `solve_2sat` node of a literal."""
    return 2 * lit.var + (1 if lit.negated else 0)


def reference_clauses(table):
    """`build_clauses` the old way: pairs of the negated `Literal`s of the
    chosen chords over the sorted items of the table."""

    def chosen(i, c):
        return Literal(i, negated=c is Chord.LEFT)

    clauses = []
    for i, c in sorted(table.self_conflicts, key=chord_order):
        clauses.append((negation(chosen(i, c)), negation(chosen(i, c))))
    for (i, j), mat in sorted(table.pairs.items()):
        for ci, row in zip(Chord, mat):
            for cj, bad in zip(Chord, row):
                if bad:
                    clauses.append((negation(chosen(i, ci)), negation(chosen(j, cj))))
    return clauses


def reference_solve_2sat(n, clauses):
    """`solve_2sat` on `Literal` pairs, with the implication graph built
    from the nodes of negated literals."""
    adj = [[] for _ in range(2 * n)]
    for first, second in clauses:
        adj[literal_node(negation(first))].append(literal_node(second))
        adj[literal_node(negation(second))].append(literal_node(first))
    comp = twosat._tarjan_scc(2 * n, adj)
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return TwoSatResult(
                satisfiable=False,
                witness_var=v,
                chain_pos_to_neg=twosat._implication_path(adj, 2 * v, 2 * v + 1),
                chain_neg_to_pos=twosat._implication_path(adj, 2 * v + 1, 2 * v),
            )
    return TwoSatResult(satisfiable=True, assignment=tuple(comp[2 * v] < comp[2 * v + 1] for v in range(n)))


def test_clause_path_matches_the_literal_reference():
    # on the conflict-table corpus, the clauses come out as the reference's
    # literal pairs mapped to their nodes, in the same order, and the solver
    # returns the reference's result, UNSAT chains included
    outcomes = Counter()
    for _, inst in conflict_table_corpus():
        table = build_conflict_table(inst)
        n, clauses = build_clauses(table)
        expected = reference_clauses(table)
        assert clauses == [(literal_node(a), literal_node(b)) for a, b in expected]
        result = solve_2sat(n, clauses)
        assert result == reference_solve_2sat(n, expected)
        outcomes["sat" if result.satisfiable else "unsat"] += 1
        outcomes["self-conflict"] += any(u == w for u, w in clauses)
    assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes


def test_unsat_table_stops_at_a_refuted_prefix(monkeypatch):
    # a rotated 40-gon star, UNSAT: 2-SAT refutes a prefix of the nearest
    # band pairs, so the kernel runs on fewer than half of the pairs the
    # sweep finds, and the solve's chains still rest on the instance's
    # conflicts
    rng = random.Random(0)
    inst = rotated_instance(rng, random_polygon(rng, 40, "star"))
    scaled = scaled_to_integers(inst)
    swept = len(list(geometry._box_pairs([geometry._box(geometry._end_boxes(scaled.band_quad(i))) for i in range(inst.n)])))
    tested = Counter()
    kernel = solver._pair_conflicts

    def counted(a, b):
        tested["pairs"] += 1
        return kernel(a, b)

    monkeypatch.setattr(solver, "_pair_conflicts", counted)
    out = solve_no_steiner(inst)
    assert not out.satisfiable
    assert 0 < 2 * tested["pairs"] < swept, (tested, swept)
    assert_chains_are_conflicts(inst, out.unsat)
    assert not solve_2sat(*build_clauses(complete_table(inst))).satisfiable


@given(st.integers(0, 10**6), st.integers(3, 30), st.sampled_from(["convex", "star", "spiral"]))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_table_verdict_is_the_complete_tables(seed, n, kind):
    # `random_instance` draws the target style from the seed: the table's
    # 2-SAT verdict is the complete table's, and on SAT so are the table,
    # its clauses and the 2-SAT result; an UNSAT table carries the 2-SAT
    # result of its own clauses, and a SAT table none
    inst = random_instance(random.Random(seed), n, kind)
    table, reference = build_conflict_table(inst), complete_table(inst)
    expected = solve_2sat(*build_clauses(reference))
    result = assert_refutes_or_completes(table, reference)
    assert result.satisfiable == expected.satisfiable
    assert table.refutation == (None if result.satisfiable else result)
    if result.satisfiable:
        assert build_clauses(table) == build_clauses(reference)
        assert result == expected


def _relabelled(inst, k):
    """The instance with vertex i renamed i - k, so that its band i is band
    i + k of inst."""
    return SliceInstance(
        *(LabeledPolygon(p.vertices[k:] + p.vertices[:k], p.z_level) for p in (inst.source, inst.target))
    )


def _moved(inst, scale, dx, dy):
    return SliceInstance(
        *(
            LabeledPolygon(tuple(Point2(scale * v.x + dx, scale * v.y + dy) for v in p.vertices), p.z_level)
            for p in (inst.source, inst.target)
        )
    )


@given(
    st.integers(0, 10**6),
    st.integers(3, 10),
    st.sampled_from(["convex", "star", "spiral"]),
    st.integers(0, 9),
    st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=40),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_conflict_table_under_relabelling_translation_and_scaling(seed, n, kind, k, scale, dx, dy):
    inst = random_instance(random.Random(seed), n, kind)
    k %= n
    table, reference = build_conflict_table(inst), complete_table(inst)
    assert_refutes_or_completes(table, reference)

    # relabelling changes the order in which pairs are tested, so the
    # matrices are compared on the complete tables
    relabelled = _relabelled(inst, k)
    shifted = complete_table(relabelled)
    assert_refutes_or_completes(build_conflict_table(relabelled), shifted)
    for i in range(n):
        for j in range(i + 1, n):
            assert pair_matrix(shifted, i, j) == pair_matrix(reference, (i + k) % n, (j + k) % n)
    assert set(shifted.self_conflicts) == {((i - k) % n, c) for i, c in reference.self_conflicts}

    # a positive scaling and a translation keep that order, so the tables
    # are equal even when 2-SAT refutes a prefix
    moved = _moved(inst, scale, dx, dy)
    moved_table = build_conflict_table(moved)
    assert moved_table.pairs == table.pairs
    assert moved_table.self_conflicts == table.self_conflicts

    verdict = solve_no_steiner(inst).satisfiable
    assert solve_no_steiner(relabelled).satisfiable == verdict
    assert solve_no_steiner(moved).satisfiable == verdict


def test_a_refuted_table_is_solved_once(monkeypatch):
    # the rotated 40-gon star of `test_unsat_table_stops_at_a_refuted_prefix`:
    # each check inside the table builds its clauses and solves them once,
    # the table keeps the result that refuted it, and the solve calls
    # neither again after the table returns
    rng = random.Random(0)
    inst = rotated_instance(rng, random_polygon(rng, 40, "star"))
    calls, results = [], []

    def traced(name, inner):
        def wrapper(*args):
            out = inner(*args)
            calls.append(name)
            results.append(out)
            return out

        monkeypatch.setattr(solver, name, wrapper)

    for name in ("build_clauses", "solve_2sat", "_conflict_table"):
        traced(name, getattr(solver, name))
    out = solve_no_steiner(inst)
    assert not out.satisfiable
    checks = len(calls) // 2
    assert checks > 0 and calls == ["build_clauses", "solve_2sat"] * checks + ["_conflict_table"]
    assert results[-1].refutation is results[-2] is out.unsat


def test_unsat_solve_frames_the_instance_once(monkeypatch):
    # validation computes the joint integer frame, and the conflict table
    # takes its coordinates as they are; `LabeledPolygon.validate` scales
    # each polygon through `geometry` on its own, so that is not counted
    # here
    inst = _moved(fig3a_no_surface().instance, Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
    assert any(type(p.x) is Fraction for p in inst.source.vertices)
    calls = Counter()
    for name in ("_frame", "_integer_axis"):

        def counted(*args, _name=name, _inner=getattr(model, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(model, name, counted)
    assert not solve_no_steiner(inst).satisfiable
    assert calls == {"_frame": 1, "_integer_axis": 1}


@pytest.mark.parametrize("figure", [fig3a_no_surface, fig1_twisted_prism], ids=["unsat", "sat"])
def test_solve_puts_the_instance_on_integers_once(monkeypatch, figure):
    # validation's frame holds every coordinate on one integer axis, and
    # the conflict table reads it as it is: up to verification, which
    # scales the surface's points on its own, the solve scales once, in
    # validation, and never through `solver`'s binding
    inst = _moved(figure().instance, Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
    assert any(type(p.x) is Fraction for p in inst.source.vertices)
    calls, before_verification = Counter(), []
    for module in (model, solver):

        def counted(*args, _name=module.__name__, _inner=module._integer_axis):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(module, "_integer_axis", counted)

    def verify(surface, _inner=solver.verify_banded_surface):
        before_verification.append(Counter(calls))
        return _inner(surface)

    monkeypatch.setattr(solver, "verify_banded_surface", verify)
    sat = solve_no_steiner(inst).satisfiable
    assert sat == (figure is fig1_twisted_prism) and len(before_verification) == sat
    framed = before_verification[0] if sat else calls
    assert framed == {model.__name__: 1}, framed


def _mirrored(inst):
    """The instance mirrored by x -> -x with both vertex orders reversed,
    so that both polygons stay counterclockwise: its vertex i is vertex
    n - 1 - i of inst, and its band i is band n - 2 - i (mod n) of inst with
    the two chords exchanged."""
    return SliceInstance(
        *(
            LabeledPolygon(tuple(Point2(-v.x, v.y) for v in reversed(p.vertices)), p.z_level)
            for p in (inst.source, inst.target)
        )
    )


@given(st.integers(0, 10**6), st.integers(3, 10), st.sampled_from(["convex", "star", "spiral"]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_verdicts_under_mirror_and_reversal(seed, n, kind):
    inst = random_instance(random.Random(seed), n, kind)
    image = _mirrored(inst)
    image.validate()
    n = inst.n
    # the mirror changes the order in which pairs are tested, so the
    # matrices are compared on the complete tables
    table, mirrored = complete_table(inst), complete_table(image)
    assert_refutes_or_completes(build_conflict_table(inst), table)
    assert_refutes_or_completes(build_conflict_table(image), mirrored)
    for i in range(n):
        for j in range(i + 1, n):
            old = pair_matrix(table, (n - 2 - i) % n, (n - 2 - j) % n)
            # right and left exchange, so both indices flip
            assert pair_matrix(mirrored, i, j) == tuple(tuple(row[::-1]) for row in old[::-1])
    other = {Chord.RIGHT: Chord.LEFT, Chord.LEFT: Chord.RIGHT}
    assert set(mirrored.self_conflicts) == {((n - 2 - i) % n, other[c]) for i, c in table.self_conflicts}
    assert solve_no_steiner(image).satisfiable == solve_no_steiner(inst).satisfiable
    assert planarity_preserving(image).preserved == planarity_preserving(inst).preserved


@given(
    st.integers(0, 10**6),
    st.integers(3, 7),
    st.sampled_from(["convex", "star"]),
    st.sampled_from([None, -2, -1, Fraction(1, 2), 2]),
    st.integers(-6, 6),
    st.integers(-6, 6),
)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_coplanar_bands_agree_with_brute_force(seed, n, kind, factor, dx, dy):
    # every band quad is coplanar: the target is the source itself, so that
    # each band is a vertical wall, or a homothety of it, whose edges are
    # parallel to the source's; every band's two chord triangles then go
    # through the kernel's coplanar branch, in the table's self-conflict
    # tests and in the verifier's face pass
    source = random_polygon(random.Random(seed), n, kind).vertices
    if factor is None:
        target = source
    else:
        target = tuple(Point2(factor * p.x + dx, factor * p.y + dy) for p in source)
    inst = SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(target, 1))
    assert all(orient3d(*inst.band_quad(i)) == 0 for i in range(n))
    outcome = solve_no_steiner(inst)
    oracle = brute_force_assignments(inst)
    assert outcome.satisfiable == bool(oracle)
    if outcome.satisfiable:
        assert outcome.assignment in oracle
    assert_table_agrees_with_the_oracle(inst, oracle)


def _with_flat_vertices(polygon, flats: int):
    """The polygon with its coordinates doubled and the midpoints of its
    first `flats` edges inserted as collinear vertices."""
    doubled = [Point2(2 * p.x, 2 * p.y) for p in polygon]
    out = []
    for i, p in enumerate(doubled):
        out.append(p)
        if i < flats:
            q = doubled[(i + 1) % len(doubled)]
            out.append(Point2(Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2)))
    return tuple(out)


def _shared_xy_target(rng, source, keep, style):
    """A target that keeps the xy of the source vertices in `keep`.  "turn":
    the source turned by a rational rotation and scaled about its first
    kept vertex.  "offsets": every other vertex moved by random integer
    offsets, up to half the source's extent and shrinking until the target
    is simple and counterclockwise (at offset 0 it is the source itself)."""
    if style == "turn":
        c = source[min(keep)]
        cos, sin = rng.choice([(Fraction(3, 5), Fraction(4, 5)), (0, 1), (Fraction(-3, 5), Fraction(4, 5))])
        f = Fraction(rng.choice([1, 2, 3]), 2)
        return tuple(
            Point2(c.x + f * (cos * (p.x - c.x) - sin * (p.y - c.y)), c.y + f * (sin * (p.x - c.x) + cos * (p.y - c.y)))
            for p in source
        )
    span = max(max(p.x for p in source) - min(p.x for p in source), max(p.y for p in source) - min(p.y for p in source))
    while True:
        span //= 2
        for _ in range(20):
            pts = tuple(
                p if i in keep else Point2(p.x + rng.randint(-span, span), p.y + rng.randint(-span, span))
                for i, p in enumerate(source)
            )
            if polygon_is_simple(pts) and polygon_is_ccw(pts):
                return pts


@given(
    st.integers(0, 10**6),
    st.integers(3, 6),
    st.integers(1, 4),
    st.sampled_from(["convex", "star"]),
    st.sampled_from(["turn", "offsets"]),
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_flat_sources_and_shared_xy_agree_with_brute_force(seed, m, flats, kind, style):
    # sources with collinear (flat) vertices; targets that reuse the xy of
    # some source vertices, so that those paths are vertical, and with
    # offsets two adjacent ones, so that the band between them is a wall:
    # the solver, the brute-force oracle and the forced verifier agree
    # (n <= 7)
    rng = random.Random(seed)
    source = _with_flat_vertices(random_polygon(rng, m, kind).vertices, min(flats, 7 - m))
    n = len(source)
    i = rng.randrange(n)
    keep = {i, (i + 1) % n} | set(rng.sample(range(n), rng.randint(0, n - 2)))
    inst = SliceInstance(LabeledPolygon(source, 0), LabeledPolygon(_shared_xy_target(rng, source, keep, style), 1))
    inst.validate()
    assert style == "turn" or orient3d(*inst.band_quad(i)) == 0
    outcome = solve_no_steiner(inst)
    oracle = brute_force_assignments(inst)
    assert outcome.satisfiable == bool(oracle)
    if outcome.satisfiable:
        assert outcome.assignment in oracle
    assert_table_agrees_with_the_oracle(inst, oracle)
    for mask in rng.sample(range(1 << n), 12):
        assignment = ChordAssignment.from_bools((mask >> i) & 1 for i in range(n))
        report = verify_banded_surface(assignment_to_surface(inst, assignment), force_sections=True)
        assert report.passed == (assignment in oracle), (str(assignment), report.summary())
