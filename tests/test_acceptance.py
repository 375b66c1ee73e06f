"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All randomness is seeded; verdict checks are exact (no tolerances anywhere),
and the two long-running criteria also enforce their wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest
from reference_figures import reference_instances

from banded.errors import AllPointsEqualError
from banded.generators import (
    random_convex_polygon,
    random_instance,
    random_polygon,
    random_rotation,
    random_translation,
    similar_copy_instance,
)
from banded.geometry import Point2, polygon_is_simple
from banded.model import (
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    cross_section,
    verify_banded_surface,
)
from banded.morph import (
    convex_chord_rule,
    morph_position,
    planarity_preserving,
    rotate_copy_instance,
    similarity_witness,
)
from banded.solver import brute_force_assignments, build_clauses, build_conflict_table, solve_no_steiner
from banded.steiner import build_layered_surface
from banded.twosat import evaluate_clauses, solve_2sat

KINDS = ("convex", "star", "spiral")


def conclude(number: int, description: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)}: {failures[:3]})"
    print(f"\nACCEPTANCE {number} [{description}]: {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


@pytest.fixture(scope="module")
def oracle_results():
    """Criterion 1 corpus: 200 seeded instances with solver + oracle verdicts."""
    rng = random.Random(20250101)
    results = []
    t0 = time.time()
    for k in range(200):
        n = rng.randint(3, 10)
        inst = random_instance(rng, n, KINDS[k % 3])
        outcome = solve_no_steiner(inst)
        oracle = brute_force_assignments(inst)
        results.append((inst, outcome, oracle))
    return results, time.time() - t0


def test_criterion_1_oracle_equivalence(oracle_results):
    results, elapsed = oracle_results
    failures = []
    sat = 0
    for idx, (inst, outcome, oracle) in enumerate(results):
        if outcome.satisfiable != bool(oracle):
            failures.append(f"#{idx}: solver={outcome.satisfiable} oracle={len(oracle)}")
        if outcome.satisfiable:
            sat += 1
            if str(outcome.assignment) not in {str(a) for a in oracle}:
                failures.append(f"#{idx}: assignment not oracle-listed")
        # the paper's 2-SAT route on the table walked to the end or to a
        # refuted prefix, whatever the solve certified by the turn rule
        table = build_conflict_table(inst)
        result = table.refutation or solve_2sat(*build_clauses(table))
        if result.satisfiable != bool(oracle):
            failures.append(f"#{idx}: table 2-SAT={result.satisfiable} oracle={len(oracle)}")
        elif result.satisfiable and ChordAssignment.from_bools(result.assignment) not in oracle:
            failures.append(f"#{idx}: table 2-SAT assignment not oracle-listed")
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    print(f"\n  [criterion 1] {len(results)} instances, {sat} SAT, {elapsed:.1f}s")
    conclude(1, "solver verdict equals enumeration oracle on 200 mixed instances", failures)


def test_criterion_2_figure_fixtures():
    refs = reference_instances()
    failures = []

    fig1 = refs["fig1_twisted_prism"]
    out1 = solve_no_steiner(fig1.instance)
    if not out1.satisfiable:
        failures.append("fig1 not SAT")
    for text in ("RRR", "LLL"):
        s = assignment_to_surface(fig1.instance, ChordAssignment.from_string(text))
        if not verify_banded_surface(s, force_sections=True).passed:
            failures.append(f"fig1 {text} surface fails verification")

    if solve_no_steiner(refs["fig3a_no_surface"].instance).satisfiable:
        failures.append("fig3a unexpectedly SAT")

    fig3b = refs["fig3b_sat_nonplanar"]
    out3b = solve_no_steiner(fig3b.instance)
    if not out3b.satisfiable:
        failures.append("fig3b not SAT")
    verdict3b = planarity_preserving(fig3b.instance)
    if verdict3b.preserved:
        failures.append("fig3b morph unexpectedly planar")
    elif not (verdict3b.interval[0] < Fraction(1, 2) < verdict3b.interval[1]):
        failures.append(f"fig3b witness interval {verdict3b.interval} misses 1/2")

    fig7 = refs["fig7_star"]
    if not planarity_preserving(fig7.instance).preserved:
        failures.append("fig7 morph not preserved")
    if solve_no_steiner(fig7.instance).satisfiable:
        failures.append("fig7 unexpectedly SAT")

    conclude(2, "figure fixtures reproduce their exact verdicts", failures)


def test_criterion_3_convex_morph_rule():
    rng = random.Random(30303)
    failures = []
    for k in range(100):
        n = rng.randint(3, 12)
        inst = similar_copy_instance(rng, random_convex_polygon(rng, n))
        verdict = planarity_preserving(inst)
        if not verdict.preserved:
            failures.append(f"#{k}: planarity violated for a rotate/scale/translate image")
            continue
        assignment = convex_chord_rule(inst)
        s = assignment_to_surface(inst, assignment)
        if not verify_banded_surface(s).passed:
            failures.append(f"#{k}: rule surface fails verification")
        if n <= 10:
            names = {str(a) for a in brute_force_assignments(inst)}
            if str(assignment) not in names:
                failures.append(f"#{k}: rule assignment not in oracle list")
    conclude(3, "convex rule verified on 100 planar similar-copy instances", failures)


def test_criterion_4_translation_invariance(oracle_results):
    results, _ = oracle_results
    rng = random.Random(40404)
    failures = []
    checked = 0
    for idx, (inst, outcome, _oracle) in enumerate(results):
        if not outcome.satisfiable:
            continue
        checked += 1
        for _ in range(10):
            dx, dy = random_translation(rng, 25)
            moved = SliceInstance(inst.source, inst.target.translated(dx, dy))
            s = assignment_to_surface(moved, outcome.assignment)
            if not verify_banded_surface(s).passed:
                failures.append(f"#{idx}: assignment broke under translation ({dx},{dy})")
                break
    print(f"\n  [criterion 4] {checked} SAT instances x 10 translations")
    if checked == 0:
        failures.append("no SAT instances to test")
    conclude(4, "chord assignments survive target translations exactly", failures)


def test_criterion_5_rotation_similarity():
    rng = random.Random(50505)
    failures = []
    times = [Fraction(k, 8) for k in range(1, 8)]
    for k in range(100):
        n = rng.randint(3, 10)
        poly = random_polygon(rng, n, "convex" if k % 2 else "star")
        center = Point2(rng.randint(-5, 5), rng.randint(-5, 5))
        half_turn = k % 10 == 0
        pair = (-1, 0) if half_turn else random_rotation(rng)
        inst = rotate_copy_instance(poly, center, pair)
        for t in times:
            snap = morph_position(inst, t)
            flat = LabeledPolygon(snap.vertices, 0)
            if half_turn and t == Fraction(1, 2):
                try:
                    similarity_witness(inst.source, flat)
                    failures.append(f"#{k}: collapse at t=1/2 not signalled")
                except AllPointsEqualError:
                    pass
                continue
            sim = similarity_witness(inst.source, flat)
            if sim is None:
                failures.append(f"#{k}: no similarity witness at t={t}")
                break
    conclude(5, "rotation snapshots are exact similar copies (collapse signalled)", failures)


def test_criterion_6_convex_rotations_solvable():
    rng = random.Random(60606)
    failures = []
    for k in range(100):
        n = rng.randint(3, 10)
        poly = random_convex_polygon(rng, n)
        center = Point2(rng.randint(-6, 6), rng.randint(-6, 6))
        inst = rotate_copy_instance(poly, center, random_rotation(rng))
        if not solve_no_steiner(inst).satisfiable:
            failures.append(f"#{k}: convex rotation below a half turn came out UNSAT")
    conclude(6, "100 convex sub-half-turn rotations all admit chord surfaces", failures)


@pytest.fixture(scope="module")
def steiner_results():
    rng = random.Random(70707)
    cases = []
    for k in range(100):
        n = rng.randint(4, 15)
        kind = KINDS[k % 3]
        if k % 4 == 0:
            # adversarial: near-half-turn rotations of stars are usually unsolvable
            poly = random_polygon(rng, n, "star")
            inst = rotate_copy_instance(
                poly, Point2(0, 0), (Fraction(-24, 25), Fraction(7, 25))
            )
        else:
            inst = random_instance(rng, n, kind)
        cases.append(inst)
    for k in range(10):
        kind = KINDS[k % 3]
        if k % 2 == 0:
            poly = random_polygon(rng, 30, "star")
            inst = rotate_copy_instance(
                poly, Point2(0, 0), (Fraction(-4, 5), Fraction(3, 5))
            )
        else:
            inst = random_instance(rng, 30, kind)
        cases.append(inst)
    t0 = time.time()
    built = []
    for inst in cases:
        surface = build_layered_surface(inst)
        built.append((inst, surface))
    return built, time.time() - t0


def test_criterion_7_steiner_builder(steiner_results):
    built, build_time = steiner_results
    failures = []
    t0 = time.time()
    layered = 0
    for idx, (inst, surface) in enumerate(built):
        n = inst.n
        bound = 2 * n * (n - 3) + 12
        count = surface.steiner_count()
        if count > bound:
            failures.append(f"#{idx}: {count} steiner points exceeds bound {bound}")
        if count:
            layered += 1
        report = verify_banded_surface(surface, force_sections=True)
        if not report.passed:
            failures.append(f"#{idx}: verification failed: {report.summary()}")
    elapsed = build_time + (time.time() - t0)
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 min")
    print(
        f"\n  [criterion 7] 110 instances ({layered} needed layers), "
        f"build {build_time:.1f}s + verify {time.time() - t0:.1f}s"
    )
    conclude(7, "layered builder verified within the added-vertex bound", failures)


def test_criterion_8_cross_sections(steiner_results):
    refs = reference_instances()
    failures = []

    # every verifier-passing surface sections into one simple polygon at the
    # 15 default levels: re-checked explicitly for the figure surfaces (the
    # criterion-7 surfaces above were verified with forced section sampling)
    fig1 = refs["fig1_twisted_prism"]
    for text in ("RRR", "LLL"):
        s = assignment_to_surface(fig1.instance, ChordAssignment.from_string(text))
        for j in range(1, 16):
            section = cross_section(s, Fraction(j, 16))
            if not polygon_is_simple(section.vertices):
                failures.append(f"fig1 {text} section at {j}/16 not simple")

    # the twisted-prism hexagon: 6 edges, each parallel to a distinct polygon
    # edge, split 3 bottom / 3 top
    s = assignment_to_surface(fig1.instance, ChordAssignment.from_string("RRR"))
    section = cross_section(s, Fraction(1, 3))
    pts = section.vertices
    if len(pts) != 6:
        failures.append(f"hexagon has {len(pts)} edges")
    else:
        dirs = []
        for poly in (fig1.instance.source, fig1.instance.target):
            for i in range(3):
                a, b = poly.vertices[i], poly.vertices[(i + 1) % 3]
                dirs.append((b.x - a.x, b.y - a.y))
        matched = []
        for i in range(6):
            a, b = pts[i], pts[(i + 1) % 6]
            d = (b.x - a.x, b.y - a.y)
            hits = [k for k, e in enumerate(dirs) if e[0] * d[1] - e[1] * d[0] == 0]
            if not hits:
                failures.append(f"hexagon edge {d} parallel to no polygon edge")
            else:
                matched.append(hits[0])
        if sorted(matched) != list(range(6)):
            failures.append(f"hexagon edges match directions {sorted(matched)}")

    conclude(8, "sections simple at all 15 levels; hexagon directions exact", failures)


def test_criterion_9_two_sat_engine():
    rng = random.Random(90909)
    failures = []

    def enumeration_verdict(n_vars, clauses):
        full = (1 << (1 << n_vars)) - 1
        masks = []
        for v in range(n_vars):
            block = (1 << (1 << v)) - 1
            m = block << (1 << v)
            width = 1 << (v + 1)
            while width < (1 << n_vars):
                m |= m << width
                width *= 2
            masks.append(m)
        sat = full
        for cl in clauses:
            cm = 0
            for node in cl:
                v, negated = divmod(node, 2)
                cm |= (full ^ masks[v]) if negated else masks[v]
            sat &= cm
        return sat != 0

    for k in range(500):
        n = rng.randint(1, 12)
        # a clause is a pair of nodes 2 var + negated
        clauses = [
            (
                2 * rng.randrange(n) + (rng.random() < 0.5),
                2 * rng.randrange(n) + (rng.random() < 0.5),
            )
            for _ in range(rng.randint(0, 40))
        ]
        res = solve_2sat(n, clauses)
        if res.satisfiable != enumeration_verdict(n, clauses):
            failures.append(f"#{k}: verdict mismatch")
        elif res.satisfiable and not evaluate_clauses(res.assignment, clauses):
            failures.append(f"#{k}: assignment does not satisfy")
    conclude(9, "2-SAT verdicts match exhaustive enumeration on 500 instances", failures)
