"""Command-line interface.

Exit codes: 0 success / positive verdict, 1 invalid input, 2 negative
mathematical verdict (no surface, morph violated, verification failed,
non-simple section), 3 usage error or unmet precondition, 4 internal error
(any other `BandedError`: a bug in this package).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import fileio
from .errors import (
    BandedError,
    InputError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
    SectionError,
)
from .model import cross_section, verify_banded_surface
from .morph import convex_chord_rule, planarity_preserving
from .solver import brute_force_assignments, solve_no_steiner
from .steiner import build_layered_surface

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="banded",
        description="Decide and build banded surfaces between two labelled parallel polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance file (simple, CCW, matching sizes)")
    p.add_argument("instance")

    p = sub.add_parser("solve", help="find a surface without added vertices, or report UNSAT")
    p.add_argument("instance")
    p.add_argument("--export", metavar="MESH", help="write the surface as OFF/OBJ (by extension)")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="cross-check the verdict against full enumeration (n <= 16)",
    )

    p = sub.add_parser("steiner", help="always-succeeding layered construction")
    p.add_argument("instance")
    p.add_argument("--export", metavar="MESH", help="write the surface as OFF/OBJ (by extension)")

    p = sub.add_parser("morph-check", help="exact planarity decision for the linear morph")
    p.add_argument("instance")

    p = sub.add_parser("convex-rule", help="chord assignment by the convex turn rule")
    p.add_argument("instance")

    p = sub.add_parser("section", help="slice a mesh at a height and emit the polygon")
    p.add_argument("mesh")
    p.add_argument("--t", required=True, help="height in (0,1), decimal or p/q")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("verify", help="full certification of an exported surface")
    p.add_argument("mesh")
    p.add_argument("--bands", required=True, help="the .bands.json sidecar written at export")

    return parser


def _load_instance(path):
    inst = fileio.load_instance(path)
    inst.validate()
    return inst


def _export(surface, path) -> None:
    fmt = "obj" if str(path).lower().endswith(".obj") else "off"
    fileio.export_mesh(surface, fmt, path)


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    print(f"ok: {inst.n} vertices, both polygons simple and counterclockwise")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    outcome = solve_no_steiner(inst, validate=False)
    if args.brute_force:
        oracle = brute_force_assignments(inst)
        if outcome.satisfiable != bool(oracle):
            raise InternalConsistencyError("solver and enumeration oracle disagree")
        if outcome.satisfiable and str(outcome.assignment) not in {str(a) for a in oracle}:
            raise InternalConsistencyError("solver assignment missing from the oracle list")
        print(f"brute force: {len(oracle)} of {2 ** inst.n} assignments are valid")
    if not outcome.satisfiable:
        print(outcome.describe())
        return EXIT_NEGATIVE
    print(outcome.assignment)
    if args.export:
        _export(outcome.surface, args.export)
        print(f"wrote {args.export} (+ .bands.json)")
    return EXIT_OK


def _cmd_steiner(args) -> int:
    inst = _load_instance(args.instance)
    surface = build_layered_surface(inst)
    print(f"steiner points: {surface.steiner_count()}")
    if args.export:
        _export(surface, args.export)
        print(f"wrote {args.export} (+ .bands.json)")
    return EXIT_OK


def _cmd_morph_check(args) -> int:
    # the decision validates, on the integer frame and affine fit it reuses
    verdict = planarity_preserving(fileio.load_instance(args.instance))
    if verdict.preserved:
        print("preserved")
        return EXIT_OK
    lo, hi = verdict.interval
    subjects = ",".join(map(str, verdict.subjects))
    print(f"violated: {verdict.kind}({subjects}) within t in [{lo}, {hi}]")
    return EXIT_NEGATIVE


def _cmd_convex_rule(args) -> int:
    inst = _load_instance(args.instance)
    print(convex_chord_rule(inst))
    return EXIT_OK


def _cmd_section(args) -> int:
    from .model import perturbed_level

    surface = fileio.mesh_only_surface(args.mesh)
    t = fileio.parse_rational(args.t)
    if not 0 < t < 1:
        raise PreconditionError("--t must lie strictly between 0 and 1")
    level = perturbed_level(surface, Fraction(t))
    if level != t:
        print(f"note: {t} hits a vertex level, sectioning at {level} instead", file=sys.stderr)
    section = cross_section(surface, level)
    text = fileio.export_section(section, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    surface = fileio.load_surface(args.mesh, args.bands)
    report = verify_banded_surface(surface)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "steiner": _cmd_steiner,
    "morph-check": _cmd_morph_check,
    "convex-rule": _cmd_convex_rule,
    "section": _cmd_section,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"banded: parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InputError as exc:
        print(f"banded: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SectionError as exc:
        print(f"banded: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except PreconditionError as exc:
        print(f"banded: precondition not met: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BandedError as exc:
        print(f"banded: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
