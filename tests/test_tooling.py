"""The benchmark's span tracer against the library it wraps, the layout of
the library's shared predicates and of its package root, the exact
modules' freedom from floats, and the reach of every module from an entry
module.

`benchmarks/spans.py` replaces module attributes by name (`model.cross_section`,
`model.open_triangles_intersect_3d`, `steiner.polygon_is_simple`, ...).  A
refactor that drops or rebinds one of them breaks the traced benchmark run;
this test makes it break the suite as well.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/benchmarks', sys.argv[1] + '/tests']
import spans
from fractions import Fraction
import banded.model as model
import banded.morph as morph
import banded.steiner as steiner
from reference_figures import fig3a_no_surface, fig7_star
tracer = spans.Tracer()
spans.install(tracer)
span = tracer.open(spans.OP)
for figure in (fig7_star, fig3a_no_surface):
    s = steiner.build_layered_surface(figure().instance)
    model.verify_banded_surface(s, force_sections=True)
    model.cross_section(s, Fraction(1, 3))
morph.planarity_preserving(fig3a_no_surface().instance)
tracer.close(span)
metrics = spans.layer_metrics(tracer.aggregate(), tracer.counts, 1.0)
print(json.dumps({name: value for name, (value, _unit) in metrics.items()}))
"""


def test_tracer_installs_and_sees_every_traced_layer_of_a_build():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["model.verify_banded_surface.calls"] == 2
    assert metrics["model.cross_section.calls"] == 2
    # the rotation counter reads `similarity_witness` through the
    # function-body import in `steiner`; the clause and 2-SAT counters read
    # the `solver` and `steiner` bindings that the tracer wraps
    for name in (
        "steiner.gap_solves",
        "steiner.rotation_probes",
        "steiner.polygon_is_simple.calls",
        "solver.solve_no_steiner.calls",
        "solver.clauses",
        "twosat.solve_2sat.calls",
        "morph.planarity_preserving.total_s",
        "quadfield.roots_in_open_interval.calls",
        "quadfield.rational_between.calls",
    ):
        assert metrics[name] > 0, name
    # the morph route takes its snapshots on integers, with no call to
    # `morph_position`, and every table goes through `solver._conflict_table`,
    # which the tracer does not wrap, so these read 0 in a build; they are
    # still reported, until the benchmark reads the planner's own counts
    # (ROADMAP items 7 and 20)
    for name in ("steiner.morph_snapshots", "steiner.full_table_gaps", "solver.build_conflict_table.calls"):
        assert name in metrics, name


# shared predicates and tables, each with the one module that binds it
SHARED = {
    # the conflict table, the morph decision and the verifier's face pass
    # share one copy of the sections lemma's predicate and of the
    # differences it reads; the table and the morph decision share the
    # end-box test that runs before them; polygon simplicity, the morph
    # scan and the face pass's clean-level test prune their pairs with one
    # box sweep, and the 3D kernel keeps one plane-side routine
    "_sections_apart": "geometry.py",
    "_xy_differences": "geometry.py",
    "_ends_apart": "geometry.py",
    "_box_pairs": "geometry.py",
    # one segment-contact test: polygon simplicity follows the sweep with
    # the straddle test, and the clean-level test with the routine that
    # puts the shared-end cases before it; the ear test and the coplanar
    # triangle test share the closed-triangle and strict-crossing tests
    "_edges_meet": "geometry.py",
    "_meet_beyond_ends": "geometry.py",
    "_in_closed_triangle": "geometry.py",
    "_cross_strictly": "geometry.py",
    # the conflict table and the face pass share one dismissal of two
    # quads: apart by the sections lemma, or by a plane through the bottom
    # and top point they share, which the table also calls on its own for
    # the zero patterns of a valid instance
    "_quads_apart": "geometry.py",
    "_shared_edge_apart": "geometry.py",
    # the band quads over a horizon, their xy boxes and their end boxes,
    # for the conflict table and the morph scan; the face pass takes its
    # quad cells' end boxes from `_end_boxes` too, and both take a box as
    # the union of its end boxes from `_box`
    "_horizon_bands": "geometry.py",
    "_box": "geometry.py",
    "_end_boxes": "geometry.py",
    "_plane_sides": "geometry.py",
    # the chord split of a band quad, for the surface builder and the
    # conflict table alike
    "_QUAD_TRIPLES": "model.py",
    # the affine end map and its eigenvalue test, for the morph decision's
    # affine shortcut and the ear-squash end gap alike, and the one affine
    # fit: instance validation makes it, and the morph decision
    # (`morph._decide`) and the similarity witness (`similarity_witness`,
    # which the rotation planner calls) read it; the squash end gap
    # (`steiner._planar_end_map`) fits a corner triple with it
    "_end_map": "geometry.py",
    "_planar_linear_part": "morph.py",
    "_affine_fit": "model.py",
    # the simple-and-counterclockwise check of one polygon, for instance
    # validation on its integer frame and for `LabeledPolygon.validate`
    "_check_polygon": "model.py",
    # the convex turn rule: the start of every conflict table, which
    # `solve_no_steiner` certifies after ring 1, and `convex_chord_rule`
    "_turn_rule": "geometry.py",
}


def test_shared_predicates_and_tables_are_defined_once():
    defined = {name: [] for name in SHARED}
    for path in sorted((ROOT / "src" / "banded").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id  # a binding by assignment counts as a copy too
            else:
                continue
            if name in defined:
                defined[name].append(path.name)
    assert defined == {name: [module] for name, module in SHARED.items()}


# what the verifier may not use: the solver's band structure, conflict
# engine and turn-rule start, whatever module binds them
SOLVER_ONLY = ("_horizon_bands", "_pair_conflicts", "build_conflict_table", "_turn_rule")


def test_the_verifier_stays_independent_of_the_solver():
    # `model` re-derives every verdict from the mesh alone: of the package
    # it imports only the errors and the exact predicates of `geometry`,
    # and it names nothing of the conflict engine, so a verdict of the
    # solver is never certified by the solver's own code
    path = ROOT / "src" / "banded" / "model.py"
    text = path.read_text()
    imported = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    package = {module for module in imported if module.startswith(".") or module.split(".")[0] == "banded"}
    assert package == {".errors", ".geometry"}
    assert [name for name in SOLVER_ONLY if name in text] == []


# the 3D predicates, which the reference `solver.conflicts` and
# `chord_triangles` call and the conflict table does not
THREE_D = ("orient3d", "_plane", "_plane_sides", "_triangles_meet", "open_triangles_intersect_3d")


def test_the_conflict_table_names_no_3d_predicate():
    # the table decides every band pair and every folded chord in the plane:
    # `build_conflict_table` and `_pair_conflicts`, and every function or
    # module-level table of `solver` and `geometry` that they reach by
    # name, name none of the 3D predicates
    defined = {}
    for module in ("solver.py", "geometry.py"):
        path = ROOT / "src" / "banded" / module
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = node
    reached, todo = set(), ["build_conflict_table", "_pair_conflicts"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defined[name]):
            if isinstance(node, ast.Name) and node.id in defined:
                todo.append(node.id)
    assert {"_level_pairs", "_quads_apart", "_sections_apart", "_xy_differences", "build_clauses"} <= reached
    assert [name for name in THREE_D if name in reached] == []
    # the reference keeps its own: the names are bound, just not reached
    assert {"chord_triangles", "conflicts"} <= set(defined) - reached


def test_entry_points_take_only_the_instance():
    # each entry point validates its instance, so none takes an option to
    # skip or repeat that; the conflict table refutes a prefix whenever it
    # can, with no option to build it complete
    from banded.morph import convex_chord_rule, planarity_preserving
    from banded.solver import brute_force_assignments, build_conflict_table, solve_no_steiner
    from banded.steiner import build_layered_surface

    entries = (
        solve_no_steiner,
        planarity_preserving,
        convex_chord_rule,
        build_layered_surface,
        brute_force_assignments,
        build_conflict_table,
    )
    for entry in entries:
        assert list(inspect.signature(entry).parameters) == ["inst"], entry.__name__


SQUARE = ((0, 0), (4, 0), (4, 4), (0, 4))

# source, target and the target's z level of five invalid instances
INVALID = {
    "clockwise_squares": (SQUARE[::-1], SQUARE[::-1], 1),
    "bowtie_source": (((0, 0), (4, 4), (4, 0), (0, 4)), SQUARE, 1),
    "z_levels_0_and_2": (SQUARE, SQUARE, 2),
    "float_coordinate": (((0.5, 0),) + SQUARE[1:], SQUARE, 1),
    "float_z_level": (SQUARE, SQUARE, 1.0),
}


@pytest.mark.parametrize("case", list(INVALID))
@pytest.mark.parametrize(
    "entry",
    [
        "solver.solve_no_steiner",
        "morph.planarity_preserving",
        "morph.convex_chord_rule",
        "steiner.build_layered_surface",
        "solver.brute_force_assignments",
    ],
)
def test_entry_points_reject_invalid_instances(entry, case):
    from banded.errors import InputError
    from banded.geometry import Point2
    from banded.model import LabeledPolygon, SliceInstance

    module, name = entry.split(".")
    function = getattr(importlib.import_module(f"banded.{module}"), name)
    source, target, z = INVALID[case]
    inst = SliceInstance(
        LabeledPolygon(tuple(Point2(*p) for p in source), 0),
        LabeledPolygon(tuple(Point2(*p) for p in target), z),
    )
    with pytest.raises(InputError):
        function(inst)


# every function that puts coordinates on integers, each of which meets a
# float in `geometry._integer_axis`
SCALERS = (
    "LabeledPolygon.validate",
    "polygon_is_simple",
    "polygon_is_ccw",
    "scaled_to_integers",
    "build_conflict_table",
    "conflicts",
    "verify_banded_surface",
    "cross_section",
)


@pytest.mark.parametrize("scaler", SCALERS)
def test_every_scaler_rejects_a_float_coordinate(scaler):
    from fractions import Fraction

    from banded.errors import InputError
    from banded.geometry import Point2, polygon_is_ccw, polygon_is_simple
    from banded.model import (
        Chord,
        ChordAssignment,
        LabeledPolygon,
        SliceInstance,
        assignment_to_surface,
        cross_section,
        scaled_to_integers,
        verify_banded_surface,
    )
    from banded.solver import build_conflict_table, conflicts

    source = LabeledPolygon(tuple(Point2(*p) for p in INVALID["float_coordinate"][0]), 0)
    inst = SliceInstance(source, LabeledPolygon(tuple(Point2(*p) for p in SQUARE), 1))
    surface = assignment_to_surface(inst, ChordAssignment((Chord.RIGHT,) * inst.n))
    calls = {
        "LabeledPolygon.validate": source.validate,
        "polygon_is_simple": lambda: polygon_is_simple(source.vertices),
        "polygon_is_ccw": lambda: polygon_is_ccw(source.vertices),
        "scaled_to_integers": lambda: scaled_to_integers(inst),
        "build_conflict_table": lambda: build_conflict_table(inst),
        "conflicts": lambda: conflicts(inst, 0, Chord.RIGHT, 2, Chord.LEFT),
        "verify_banded_surface": lambda: verify_banded_surface(surface),
        "cross_section": lambda: cross_section(surface, Fraction(1, 2)),
    }
    with pytest.raises(InputError, match="ints or Fractions"):
        calls[scaler]()


# the kernels that take an instance's z levels as they are, each of which
# meets a float level in `model._levels`
LEVEL_KERNELS = ("build_conflict_table", "conflicts", "chord_triangles")


@pytest.mark.parametrize("kernel", LEVEL_KERNELS)
def test_every_kernel_rejects_a_float_z_level(kernel):
    from banded.errors import InputError
    from banded.geometry import Point2
    from banded.model import Chord, LabeledPolygon, SliceInstance
    from banded.solver import build_conflict_table, chord_triangles, conflicts

    source, target, z = INVALID["float_z_level"]
    inst = SliceInstance(
        LabeledPolygon(tuple(Point2(*p) for p in source), 0),
        LabeledPolygon(tuple(Point2(*p) for p in target), z),
    )
    calls = {
        "build_conflict_table": lambda: build_conflict_table(inst),
        "conflicts": lambda: conflicts(inst, 0, Chord.RIGHT, 2, Chord.LEFT),
        "chord_triangles": lambda: chord_triangles(inst, 0, Chord.RIGHT),
    }
    with pytest.raises(InputError, match="ints or Fractions"):
        calls[kernel]()


# between them the three figures give SAT and UNSAT decisions, the
# brute-force oracle (n <= 10), both morph verdicts and a layered build that
# adds vertices
CHECKED_FIGURES = ("fig1_twisted_prism", "fig3a_no_surface", "fig7_star")


def test_the_benchmark_checks_pass_on_the_figures(monkeypatch):
    # `benchmarks/checks.py` imports library names (`scaled_to_integers`,
    # `chord_triangles`, `conflicts`, `OriginalLabel`, ...) that the timed
    # loop does not; a change that drops one fails here, not only in a
    # benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import checks
    from reference_figures import reference_instance

    from banded.model import verify_banded_surface
    from banded.morph import planarity_preserving
    from banded.solver import solve_no_steiner
    from banded.steiner import build_layered_surface

    verdicts = []
    for name in CHECKED_FIGURES:
        inst = reference_instance(name).instance
        surface = build_layered_surface(inst)
        for check, result in (
            (checks.check_decide, solve_no_steiner(inst)),
            (checks.check_morph, planarity_preserving(inst)),
            (checks.check_layered, (surface, verify_banded_surface(surface, force_sections=True))),
        ):
            ok, verdict, detail = check(inst, result)
            assert ok, (name, check.__name__, verdict, detail)
            verdicts.append(verdict.split()[0])
    assert {"SAT", "UNSAT", "preserved"} <= set(verdicts)
    assert {"edge_contact", "angle_collapse", "orientation_flip"} & set(verdicts)
    assert any(v.startswith("steiner=") and v != "steiner=0" for v in verdicts)


def test_options_are_only_those_a_caller_sets():
    # an option that no caller sets is a code path that nothing runs;
    # `force_sections` is the benchmark's re-check
    from banded.fileio import export_mesh
    from banded.model import verify_banded_surface

    def keywords(function):
        parameters = inspect.signature(function).parameters.values()
        return [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]

    assert keywords(verify_banded_surface) == ["force_sections"]
    assert keywords(export_mesh) == ["include_caps", "floats"]


def test_package_root_exports_only_documented_names():
    # the root holds the entry points and types the README names, and the
    # error classes a caller catches; the kernels stay in their modules
    import banded
    from banded.errors import BandedError

    readme = (ROOT / "README.md").read_text()
    exported = {name: getattr(banded, name) for name in banded.__all__}
    errors = {name for name, obj in exported.items() if isinstance(obj, type) and issubclass(obj, BandedError)}
    assert [name for name in exported if f"`{name}`" not in readme and name not in errors] == []


def test_package_import_loads_the_timed_modules():
    # the benchmark's timed operations import these modules; a module that
    # first loads there would add its import time to the measurement
    code = "import sys; sys.path.insert(0, sys.argv[1]); import banded; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"banded.model", "banded.morph", "banded.solver", "banded.steiner"} <= loaded


# the one module that may use floats: `fileio`'s `floats=True` export is the
# documented lossy output; every other module is on the exact path
FLOAT_MODULES = {"fileio.py"}
EXACT_MATH = {"gcd", "lcm", "isqrt"}


def test_exact_modules_use_no_floats():
    # no epsilons: no `float`, no float literal, and of `math` only the
    # integer functions
    found = []
    for path in sorted((ROOT / "src" / "banded").glob("*.py")):
        if path.name in FLOAT_MODULES:
            continue
        module = path.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "float":
                found.append((module, node.lineno, "float"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((module, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
                if node.attr not in EXACT_MATH:
                    found.append((module, node.lineno, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(module, node.lineno, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH]
            elif isinstance(node, ast.Import):
                # an alias would hide the attribute check above
                found += [(module, node.lineno, "aliased math") for a in node.names if a.name == "math" and a.asname]
    assert found == []


# the modules a caller enters the package by: the package root, the CLI and
# `python -m banded`
ENTRY_MODULES = ("__init__", "cli", "__main__")


def test_every_module_is_reached_from_an_entry_module():
    # a module that no entry module reaches by its relative imports, at
    # module level or in a function body, is test-only code, which belongs
    # under tests/
    package = ROOT / "src" / "banded"
    modules = {path.stem for path in package.glob("*.py")}
    reached, todo = set(), list(ENTRY_MODULES)
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        path = package / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module.split(".")[0])
                else:
                    todo += [a.name for a in node.names if a.name in modules]
    assert sorted(modules - reached) == []


# the only modules that end the process themselves, with the CLI's exit code
EXITING_MODULES = {"cli.py", "__main__.py"}


def test_every_raise_names_a_package_error():
    # every failure is a `BandedError` subtype, which `cli.main` maps to an
    # exit code: each `raise` names a class of `banded.errors` or re-raises
    # what a handler caught, and only the entry points raise `SystemExit`
    from banded import errors

    allowed = {
        name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.BandedError)
    }
    found = []
    for path in sorted((ROOT / "src" / "banded").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            if name not in allowed and not (name == "SystemExit" and path.name in EXITING_MODULES):
                found.append((path.name, node.lineno, name))
    assert found == []
