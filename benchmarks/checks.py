"""Output checks, run after the timed loop has finished.

Each check returns (ok, verdict, detail).  `verdict` is a short text that is
hashed into the run's verdict digest, so two commits can be compared;
`detail` says what failed.
"""

from __future__ import annotations

from fractions import Fraction

import plain


def check_decide(inst, outcome):
    """SAT: the surface is the one the assignment induces and the
    independent verifier passes it.  UNSAT: both implication chains are
    re-derived from `conflicts`, which tests the chord triangles directly
    and so does not read the conflict table.  n <= 10: the verdict and the
    assignment agree with the brute-force oracle."""
    from banded.geometry import open_triangles_intersect_3d
    from banded.model import Chord, assignment_to_surface, scaled_to_integers, verify_banded_surface
    from banded.solver import brute_force_assignments, chord_triangles, conflicts

    if outcome.satisfiable:
        verdict = f"SAT {outcome.assignment}"
        surface = assignment_to_surface(inst, outcome.assignment)
        if surface != outcome.surface:
            return False, verdict, "surface differs from the one its assignment induces"
        report = verify_banded_surface(surface)
        if not report.passed:
            return False, verdict, "verifier rejects the surface: " + report.summary()
    else:
        verdict = "UNSAT"
        w = outcome.unsat
        scaled = scaled_to_integers(inst)

        def chord(lit):
            return Chord.LEFT if lit.negated else Chord.RIGHT

        def other(c):
            return Chord.RIGHT if c is Chord.LEFT else Chord.LEFT

        v = w.witness_var
        for chain, first, last in (
            (w.chain_pos_to_neg, False, True),
            (w.chain_neg_to_pos, True, False),
        ):
            if not chain or chain[0].var != v or chain[-1].var != v:
                return False, verdict, "implication chain does not start and end at the witness"
            if chain[0].negated != first or chain[-1].negated != last:
                return False, verdict, "implication chain has the wrong polarity"
            for a, b in zip(chain, chain[1:]):
                # a -> b holds when choice a conflicts with the opposite of b
                if a.var == b.var:
                    tris = chord_triangles(scaled, a.var, chord(a)).triangles
                    ok = b.negated != a.negated and open_triangles_intersect_3d(*tris)
                else:
                    ok = conflicts(inst, a.var, chord(a), b.var, other(chord(b)))
                if not ok:
                    return False, verdict, f"implication {a} -> {b} has no conflict behind it"
    if inst.n <= 10:
        oracle = {str(a) for a in brute_force_assignments(inst)}
        if outcome.satisfiable != bool(oracle):
            return False, verdict, f"oracle finds {len(oracle)} surfaces"
        if outcome.satisfiable and str(outcome.assignment) not in oracle:
            return False, verdict, "assignment not in the oracle's list"
    return True, verdict, ""


SNAPSHOT_TIMES = tuple(Fraction(k, 16) for k in range(1, 16))


def _snapshot(inst, t):
    return [
        (p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        for p, q in zip(inst.source.vertices, inst.target.vertices)
    ]


def check_morph(inst, verdict_obj):
    """Preserved: the morph is simple and positively oriented at t = k/16.
    Violated: it is not, at the midpoint of the witness interval.  Both use
    the benchmark's plain simplicity test, not the library's."""
    if verdict_obj.preserved:
        for t in SNAPSHOT_TIMES:
            if not plain.is_valid_snapshot(_snapshot(inst, t)):
                return False, "preserved", f"snapshot at t={t} is not simple and positive"
        return True, "preserved", ""
    lo, hi = verdict_obj.interval
    verdict = f"{verdict_obj.kind} {verdict_obj.subjects} [{lo}, {hi}]"
    if not 0 <= lo <= hi <= 1:
        return False, verdict, "witness interval outside [0, 1]"
    if plain.is_valid_snapshot(_snapshot(inst, (lo + hi) / 2)):
        return False, verdict, "the morph is valid at the witness midpoint"
    return True, verdict, ""


def check_layered(inst, result):
    """The verifier (run with forced sections inside the timed operation)
    passed, the added vertices stay within 2n(n-3)+12, and the surface's
    original vertices are the instance's own."""
    from banded.model import OriginalLabel

    surface, report = result
    n = inst.n
    added = surface.steiner_count()
    verdict = f"steiner={added} passed={report.passed}"
    if not report.passed:
        return False, verdict, "verifier rejects the surface: " + report.summary()
    bound = 2 * n * (n - 3) + 12
    if added > bound:
        return False, verdict, f"{added} added vertices exceed the bound {bound}"
    polys = (inst.source, inst.target)
    for point, label in surface.vertices:
        if isinstance(label, OriginalLabel) and polys[label.slice].point3(label.index) != point:
            return False, verdict, f"original vertex {label} moved"
    return True, verdict, ""
