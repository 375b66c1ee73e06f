import json
import os
import random
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from generators import GRID_PAIRS_THAT_RAISE, grid_pair, random_instance

from banded import cli, model, morph
from banded.cli import main
from banded.errors import InternalConsistencyError
from banded.fileio import load_instance, save_instance
from banded.solver import solve_no_steiner

ROOT = Path(__file__).resolve().parent.parent
FIGDIR = ROOT / "figures"


def run(*args):
    return main(list(args))


def fig(name):
    return str(FIGDIR / f"{name}.json")


class TestExitCodes:
    def test_check_valid(self, capsys):
        assert run("check", fig("fig1_twisted_prism")) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_invalid_polygon(self, tmp_path, capsys):
        bad = tmp_path / "bowtie.json"
        bad.write_text(
            json.dumps(
                {
                    "P": [["0", "0"], ["2", "2"], ["2", "0"], ["0", "2"]],
                    "Pprime": [["0", "0"], ["2", "2"], ["2", "0"], ["0", "2"]],
                }
            )
        )
        assert run("check", str(bad)) == 1

    def test_check_unreadable(self, tmp_path):
        assert run("check", str(tmp_path / "none.json")) == 1

    def test_solve_sat(self, capsys):
        assert run("solve", fig("fig1_twisted_prism")) == 0
        out = capsys.readouterr().out.strip()
        assert set(out) <= {"R", "L"} and len(out) == 3

    def test_solve_unsat(self, capsys):
        assert run("solve", fig("fig3a_no_surface")) == 2
        assert "UNSAT" in capsys.readouterr().out

    def test_solve_brute_force_cross_check(self, capsys):
        assert run("solve", fig("fig1_twisted_prism"), "--brute-force") == 0
        assert "8 of 8" in capsys.readouterr().out

    def test_morph_check(self, capsys):
        assert run("morph-check", fig("fig7_star")) == 0
        assert "preserved" in capsys.readouterr().out
        assert run("morph-check", fig("fig3b_sat_nonplanar")) == 2
        assert "violated" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "target, message",
        [
            ([["0", "0"], ["2", "2"], ["2", "0"], ["0", "2"]], "polygon is not simple"),
            ([["0", "0"], ["0", "2"], ["2", "2"], ["2", "0"]], "polygon is not counterclockwise"),
        ],
    )
    def test_morph_check_invalid_target(self, tmp_path, capsys, target, message):
        # every entry point validates: a bowtie target and a clockwise one
        # (the source reflected, an affine map with det A < 0) are invalid
        # input, reported as `check` reports them
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"P": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]], "Pprime": target}))
        for command in ("morph-check", "check", "solve", "steiner", "convex-rule"):
            assert run(command, str(bad)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == f"banded: invalid input: {message}"

    def test_convex_rule_precondition(self, capsys):
        assert run("convex-rule", fig("fig7_star")) == 3

    def test_convex_rule_ok(self, capsys):
        assert run("convex-rule", fig("fig1_twisted_prism")) == 0
        assert capsys.readouterr().out.strip() == "LLL"

    def test_usage_error_is_3(self):
        with pytest.raises(SystemExit) as info:
            run("solve")  # missing instance argument
        assert info.value.code == 3

    def test_unknown_command_is_3(self):
        with pytest.raises(SystemExit) as info:
            run("frobnicate")
        assert info.value.code == 3

    def test_internal_error_is_4(self, monkeypatch, capsys):
        def broken(inst):
            raise InternalConsistencyError("no ear-squash plan certifies")

        monkeypatch.setattr(cli, "build_layered_surface", broken)
        assert run("steiner", fig("fig1_twisted_prism")) == 4
        err = capsys.readouterr().err.strip()
        assert err == "banded: internal error: no ear-squash plan certifies"

    def test_oracle_disagreement_is_internal_error(self, monkeypatch, capsys):
        # fig1 is SAT, so an oracle that finds no surface disagrees
        monkeypatch.setattr(cli, "brute_force_assignments", lambda inst: [])
        assert run("solve", fig("fig1_twisted_prism"), "--brute-force") == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["banded: internal error: solver and enumeration oracle disagree"]

    def test_oracle_missing_the_solver_assignment_is_internal_error(self, monkeypatch, capsys):
        # an oracle that agrees on SAT but lists every valid assignment
        # except the solver's
        solver_assignment = str(solve_no_steiner(load_instance(fig("fig1_twisted_prism"))).assignment)
        oracle = cli.brute_force_assignments
        monkeypatch.setattr(
            cli, "brute_force_assignments", lambda inst: [a for a in oracle(inst) if str(a) != solver_assignment]
        )
        assert run("solve", fig("fig1_twisted_prism"), "--brute-force") == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["banded: internal error: solver assignment missing from the oracle list"]

    def test_section_that_does_not_chain_is_negative(self, tmp_path, capsys):
        # one vertical triangle: the plane z = 1/2 cuts it in one segment,
        # whose ends each touch only that segment
        mesh = tmp_path / "one.off"
        mesh.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 0 1\n3 0 1 2\n")
        assert run("section", str(mesh), "--t", "1/2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["banded: section point (1/2, 0) touches 1 segments; cannot chain"]

    @pytest.mark.parametrize("index", ["5", "-1"])
    def test_off_face_index_out_of_range_is_invalid_input(self, tmp_path, capsys, index):
        mesh = tmp_path / "m.off"
        mesh.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 1\n0 1 1\n3 0 1 {index}\n")
        assert run("section", str(mesh), "--t", "1/2") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"banded: parse error: {mesh}: face index {index} outside [0, 3) (line 6)"]

    @pytest.mark.parametrize("command", ["verify", "section"])
    def test_off_negative_counts_are_invalid_input(self, tmp_path, capsys, command):
        # not an empty mesh with a topology verdict or no section (exit 2)
        mesh = tmp_path / "m.off"
        mesh.write_text("OFF\n-3 -2 0\n")
        sidecar = tmp_path / "m.off.bands.json"
        sidecar.write_text(json.dumps({"labels": [], "bands": [], "paths": []}))
        extra = ("--bands", str(sidecar)) if command == "verify" else ("--t", "1/2")
        assert run(command, str(mesh), *extra) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"banded: parse error: {mesh}: vertex count -3 is negative (line 2)"]


def drop_paths(doc):
    del doc["paths"]
    return doc


def drop_slice(doc):
    del doc["labels"][0]["slice"]
    return doc


class TestMalformedFiles:
    """Malformed input ends in one parse-error line and exit 1, not a traceback."""

    def test_polygon_that_is_not_a_list(self, tmp_path, capsys):
        bad = tmp_path / "numbers.json"
        bad.write_text(json.dumps({"P": 5, "Pprime": 5}))
        assert run("check", str(bad)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"banded: parse error: {bad}: ")

    def test_bool_coordinate(self, tmp_path, capsys):
        bad = tmp_path / "flag.json"
        bad.write_text(json.dumps({"P": [[0, 0], [True, 0], [0, 1]], "Pprime": [[0, 0], [1, 0], [0, 1]]}))
        assert run("check", str(bad)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"banded: parse error: {bad}: ")

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: {**doc, "labels": list(range(len(doc["labels"])))},
            drop_paths,
            drop_slice,
            lambda doc: doc["labels"],
        ],
        ids=["int_labels", "no_paths", "label_without_slice", "array"],
    )
    def test_malformed_sidecar(self, tmp_path, capsys, tamper):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        sidecar = Path(str(mesh) + ".bands.json")
        sidecar.write_text(json.dumps(tamper(json.loads(sidecar.read_text()))))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"banded: parse error: {sidecar}: ")

    @pytest.mark.parametrize(
        "label",
        [
            {"kind": "original", "slice": 7, "index": -4},
            {"kind": "original", "slice": 2, "index": 1},
            {"kind": "original", "slice": 0, "index": -1},
            {"kind": "steiner", "id": -1},
        ],
        ids=["slice_7_index_-4", "slice_2", "negative_index", "negative_id"],
    )
    def test_out_of_range_label(self, tmp_path, capsys, label):
        mesh = tmp_path / "layered.off"
        run("steiner", fig("fig3a_no_surface"), "--export", str(mesh))
        sidecar = Path(str(mesh) + ".bands.json")
        doc = json.loads(sidecar.read_text())
        doc["labels"][4] = label
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"banded: parse error: {sidecar}: label ")

    @pytest.mark.parametrize("shift", [1, -1])
    def test_path_index_out_of_range(self, tmp_path, capsys, shift):
        # an interior vertex v of path 0 moved to v + V or v - V, with V the
        # vertex count: v - V must not read a real vertex from the end
        mesh = tmp_path / "layered.off"
        run("steiner", fig("fig3a_no_surface"), "--export", str(mesh))
        sidecar = Path(str(mesh) + ".bands.json")
        doc = json.loads(sidecar.read_text())
        doc["paths"][0][1] += shift * len(doc["labels"])
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("banded: invalid input: malformed mesh: ")

    @pytest.mark.parametrize("index", [-1, 10**6])
    def test_band_face_index_out_of_range(self, tmp_path, capsys, index):
        # malformed, as a face index of the OFF mesh is, and not a topology
        # FAIL (exit 2)
        mesh = tmp_path / "layered.off"
        run("steiner", fig("fig3a_no_surface"), "--export", str(mesh))
        sidecar = Path(str(mesh) + ".bands.json")
        doc = json.loads(sidecar.read_text())
        faces = sum(map(len, doc["bands"]))
        doc["bands"][0][0] = index
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"banded: parse error: {sidecar}: band 0 face index {index} outside [0, {faces})"]


    @pytest.mark.parametrize(
        "doc, message",
        [
            ([[0, 0]], "parse error: {path}: expected a JSON object"),
            (
                {"P": [[0, 0], [1, 0, 5], [0, 1]], "Pprime": [[0, 0], [1, 0], [0, 1]]},
                "parse error: {path}: P[1] must be a pair [x, y]",
            ),
            (
                {"P": [[0, 0], [1, 0], [0, 1]], "Pprime": [[0, 0], 7, [0, 1]]},
                "parse error: {path}: Pprime[1] must be a pair [x, y]",
            ),
            (
                {"P": [[0, 0], [1, 0], [0, 1]], "Pprime": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                "parse error: {path}: P has 3 vertices but Pprime has 4",
            ),
            (
                {"P": [[0, 0], [1, 0], [0, 1]], "Pprime": [[0, 0], ["1/0", 0], [0, 1]]},
                "parse error: {path}: zero denominator in '1/0'",
            ),
            # no vertex off the line of vertices 0 and 1, so no affine fit
            # and the source sweep rejects it
            (
                {"P": [[0, 0], [1, 0], [2, 0]], "Pprime": [[0, 0], [1, 0], [0, 1]]},
                "invalid input: polygon is not simple",
            ),
        ],
        ids=["list", "row_not_a_pair", "number_row", "lengths_differ", "bad_coordinate", "collinear_source"],
    )
    def test_instance_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("check", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["banded: " + message.format(path=path)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("OFF\n3 1 0\n0 0 0\n1 0\n", "unexpected end of file while reading vertex z"),
            ("OFF\n3.5 1 0\n", "expected integer vertex count, got '3.5' (line 2)"),
            ("OFF\n3 1 0\n0 0 0\n1 x 1\n0 1 1\n3 0 1 2\n", "not a finite decimal or fraction: 'x' (line 4)"),
            ("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 1\n0 1 1\n4 0 1 2 3\n", "only triangle faces supported, got 4-gon"),
        ],
        ids=["cut_short", "non_integer_count", "bad_coordinate", "quad_face"],
    )
    def test_off_file(self, tmp_path, capsys, text, message):
        mesh = tmp_path / "m.off"
        mesh.write_text(text)
        assert run("section", str(mesh), "--t", "1/2") == 1
        assert capsys.readouterr().err.splitlines() == [f"banded: parse error: {mesh}: {message}"]

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda doc: "bands", "Expecting value (line 1, column 1)"),
            (lambda doc: {**doc, "bands": [[0.5, 1], *doc["bands"][1:]]}, "'bands' holds a non-integer index"),
            (lambda doc: {**doc, "paths": [["0", 3], *doc["paths"][1:]]}, "'paths' holds a non-integer index"),
            (lambda doc: {**doc, "labels": doc["labels"][:-1]}, "5 labels for 6 mesh vertices"),
            (lambda doc: {**doc, "bands": [doc["bands"][0][:1], *doc["bands"][1:]]}, "band structure covers 5 of 6 faces"),
        ],
        ids=["not_json", "band_index", "path_index", "label_count", "uncovered_face"],
    )
    def test_sidecar(self, tmp_path, capsys, tamper, message):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        sidecar = Path(str(mesh) + ".bands.json")
        text = tamper(json.loads(sidecar.read_text()))
        sidecar.write_text(text if isinstance(text, str) else json.dumps(text))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 1
        assert capsys.readouterr().err.splitlines() == [f"banded: parse error: {sidecar}: {message}"]


class TestFileErrors:
    """A path that cannot be written, or a file that does not decode, ends
    in one input-error line and exit 1, not a traceback."""

    def test_unwritable_mesh(self, tmp_path, capsys):
        assert run("solve", fig("fig1_twisted_prism"), "--export", str(tmp_path / "missing" / "x.off")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("banded: invalid input: cannot write")

    def test_unwritable_sidecar(self, tmp_path, capsys):
        mesh = tmp_path / "x.off"
        Path(str(mesh) + ".bands.json").mkdir()
        assert run("solve", fig("fig1_twisted_prism"), "--export", str(mesh)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("banded: invalid input: cannot write")
        # a mesh without its sidecar cannot be re-verified, so none is left
        assert not mesh.exists()

    def test_unwritable_section(self, tmp_path, capsys):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        capsys.readouterr()
        assert run("section", str(mesh), "--t", "1/3", "--out", str(tmp_path / "missing" / "y.json")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("banded: invalid input: cannot write")

    @pytest.mark.parametrize("target", ["instance", "mesh", "sidecar"])
    def test_undecodable_file(self, tmp_path, capsys, target):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        capsys.readouterr()
        paths = {"instance": tmp_path / "i.json", "mesh": mesh, "sidecar": Path(str(mesh) + ".bands.json")}
        paths[target].write_bytes(b"\xff\xfe{}")
        if target == "instance":
            code = run("check", str(paths[target]))
        else:
            code = run("verify", str(mesh), "--bands", str(mesh) + ".bands.json")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"banded: parse error: {paths[target]}: cannot decode")


class TestPipelines:
    def test_interior_vertex_labelled_original_fails_verification(self, tmp_path, capsys):
        # a Steiner vertex relabelled as a second source vertex 1 is in range,
        # but only the path ends may carry original labels
        mesh = tmp_path / "layered.off"
        assert run("steiner", fig("fig3a_no_surface"), "--export", str(mesh)) == 0
        sidecar = Path(str(mesh) + ".bands.json")
        doc = json.loads(sidecar.read_text())
        assert doc["labels"][4]["kind"] == "steiner"
        doc["labels"][4] = {"kind": "original", "slice": 0, "index": 1}
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", str(mesh), "--bands", str(sidecar)) == 2
        out = capsys.readouterr().out
        assert "path_disjointness: FAIL (a vertex other than the path ends carries an original label)" in out
        assert "topology: pass" in out and "face_intersections: pass" in out

    def test_solve_export_verify_section(self, tmp_path, capsys):
        mesh = tmp_path / "prism.off"
        assert run("solve", fig("fig1_twisted_prism"), "--export", str(mesh)) == 0
        assert mesh.exists() and Path(str(mesh) + ".bands.json").exists()

        assert run("verify", str(mesh), "--bands", str(mesh) + ".bands.json") == 0
        assert "topology: pass" in capsys.readouterr().out

        out = tmp_path / "section.json"
        assert run("section", str(mesh), "--t", "1/3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 6

    def test_section_to_stdout(self, tmp_path, capsys):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        capsys.readouterr()
        assert run("section", str(mesh), "--t", "0.25") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed"] is True

    def test_section_bad_level(self, tmp_path):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        assert run("section", str(mesh), "--t", "7/2") == 3

    def test_section_at_vertex_level_gets_nudged(self, tmp_path, capsys):
        mesh = tmp_path / "layered.off"
        run("steiner", fig("fig3a_no_surface"), "--export", str(mesh))
        capsys.readouterr()
        # interior layers sit at fractional heights; ask for one exactly
        import json as _json
        from banded.fileio import read_off

        zs = sorted({p.z for p, in zip(read_off(mesh)[0])} - {0, 1})
        assert run("section", str(mesh), "--t", str(zs[0])) == 0
        captured = capsys.readouterr()
        assert "instead" in captured.err
        doc = _json.loads(captured.out)
        assert doc["closed"] is True

    def test_obj_export_via_cli(self, tmp_path):
        mesh = tmp_path / "prism.obj"
        assert run("solve", fig("fig1_twisted_prism"), "--export", str(mesh)) == 0
        text = mesh.read_text()
        assert text.startswith("v ") and "\nf " in text

    def test_steiner_pipeline(self, tmp_path, capsys):
        mesh = tmp_path / "layered.off"
        assert run("steiner", fig("fig3a_no_surface"), "--export", str(mesh)) == 0
        out = capsys.readouterr().out
        assert "steiner points:" in out
        assert run("verify", str(mesh), "--bands", str(mesh) + ".bands.json") == 0

    def test_steiner_builds_seed_505_star_2(self, tmp_path, capsys):
        # star #2 of the seed-505 stream (n = 11) once ended in an internal error
        rng = random.Random(505)
        for _ in range(2):
            random_instance(rng, rng.randint(3, 12), "star")
        path = tmp_path / "star_505_2.json"
        save_instance(random_instance(rng, rng.randint(3, 12), "star"), path)
        assert run("steiner", str(path)) == 0
        assert capsys.readouterr().out.startswith("steiner points:")

    def test_verify_detects_tampering(self, tmp_path, capsys):
        mesh = tmp_path / "prism.off"
        run("solve", fig("fig1_twisted_prism"), "--export", str(mesh))
        bands = json.loads(Path(str(mesh) + ".bands.json").read_text())
        bands["paths"][0], bands["paths"][1] = bands["paths"][1], bands["paths"][0]
        Path(str(mesh) + ".bands.json").write_text(json.dumps(bands))
        assert run("verify", str(mesh), "--bands", str(mesh) + ".bands.json") == 2


def exported(tmp_path, command, figure):
    """The mesh and the sidecar that `command --export` writes for `figure`,
    the sidecar loaded."""
    mesh = tmp_path / "mesh.off"
    assert run(command, fig(figure), "--export", str(mesh)) == 0
    sidecar = Path(str(mesh) + ".bands.json")
    return mesh, sidecar, json.loads(sidecar.read_text())


def unused_vertex(mesh, doc):
    lines = mesh.read_text().splitlines()
    nv, nf, ne = map(int, lines[1].split())
    lines[1] = f"{nv + 1} {nf} {ne}"
    lines.insert(2 + nv, "9 9 1/2")
    mesh.write_text("\n".join(lines) + "\n")
    doc["labels"].append({"kind": "steiner", "id": 0})


def face_in_two_bands(mesh, doc):
    doc["bands"][1][0] = doc["bands"][0][0]


def path_step_off_the_mesh(mesh, doc):
    doc["paths"][0] = [doc["paths"][0][0], doc["paths"][0][-1]]


@pytest.mark.parametrize(
    "command, figure, edit, line",
    [
        ("solve", "fig1_twisted_prism", lambda mesh, doc: doc["paths"].pop(), "topology: FAIL (band count differs from path count)"),
        ("solve", "fig1_twisted_prism", face_in_two_bands, "topology: FAIL (face 0 belongs to bands 0 and 1)"),
        ("solve", "fig1_twisted_prism", unused_vertex, "topology: FAIL (mesh has vertices not used by any face)"),
        (
            "steiner",
            "fig3a_no_surface",
            path_step_off_the_mesh,
            "path_disjointness: FAIL (path 0 uses (0,15) which is not a mesh edge)",
        ),
    ],
    ids=["band_count", "face_in_two_bands", "unused_vertex", "path_step"],
)
def test_verify_reports_an_edited_file(tmp_path, capsys, command, figure, edit, line):
    # files that load but do not form a banded surface: a FAIL line, exit 2
    mesh, sidecar, doc = exported(tmp_path, command, figure)
    edit(mesh, doc)
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", str(mesh), "--bands", str(sidecar)) == 2
    assert line in capsys.readouterr().out.splitlines()


def counted_validation(monkeypatch) -> Counter:
    """Calls of the integer frame through `model`'s binding and through
    `morph`'s own, of the simple-and-counterclockwise check of one polygon
    (`model._check_polygon`) and of `model._integer_axis`."""
    calls = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(model, "_frame", "model._frame")
    counted(morph, "_frame", "morph._frame")
    counted(model, "_check_polygon", "_check_polygon")
    counted(model, "_integer_axis", "_integer_axis")
    return calls


# the one command and figure that frame twice, in
# `test_steiner_on_a_half_turn_frames_once`
FRAMED_TWICE = ("steiner", "fig3a_no_surface")


@pytest.mark.parametrize("figure", ["fig1_twisted_prism", "fig3a_no_surface"])
def test_each_command_validates_once(monkeypatch, capsys, figure):
    # the entry point validates and the command does not: one integer frame
    # and one polygon sweep per command (both figures' targets are affine
    # images of their sources, so only the source is swept)
    calls = counted_validation(monkeypatch)
    for command in ("check", "solve", "steiner", "convex-rule", "morph-check"):
        calls.clear()
        run(command, fig(figure))
        assert (calls["model._frame"], calls["_check_polygon"]) == (1, 1), command
        if (command, figure) != FRAMED_TWICE:
            assert calls["morph._frame"] == 0, command
        if (command, figure) == ("solve", "fig3a_no_surface"):
            # the conflict table is built on validation's frame, and an
            # UNSAT verdict builds no surface to scale
            assert calls["_integer_axis"] == 1
    capsys.readouterr()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: `_rotation_plan` frames the instance again in `similarity_witness`",
)
def test_steiner_on_a_half_turn_frames_once(monkeypatch, capsys):
    calls = counted_validation(monkeypatch)
    command, figure = FRAMED_TWICE
    assert run(command, fig(figure)) == 0
    assert (calls["model._frame"], calls["morph._frame"], calls["_check_polygon"]) == (1, 0, 1)


GRID_COMMANDS = ("check", "solve", "morph-check", "convex-rule", "steiner")


def run_on_grid_pair(tmp_path, capsys, seed, command):
    """The exit code and stderr of one command on the saved `grid_pair`,
    with stderr checked to hold at most one line and no traceback."""
    path = tmp_path / f"grid_{seed}.json"
    if not path.exists():
        save_instance(grid_pair(seed), path)
    code = run(command, str(path))
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, (seed, command, err)
    return code


def test_grid_files_exit_cleanly(tmp_path, capsys):
    # ROADMAP item 12's CLI slice: each entry point, run on the 300 seeded
    # grid pairs of the builder property, gives a defined verdict (0-3) and
    # a one-line message at most; `steiner` on the item-1 seeds is pinned
    # below
    codes = Counter()
    for seed in range(300):
        for command in GRID_COMMANDS:
            if command == "steiner" and seed in GRID_PAIRS_THAT_RAISE:
                continue
            code = run_on_grid_pair(tmp_path, capsys, seed, command)
            assert 0 <= code <= 3, (seed, command)
            codes[command, code] += 1
    # the draw reaches both verdicts of the deciding commands, and the
    # turn rule's precondition
    assert {("solve", 2), ("morph-check", 2), ("convex-rule", 0), ("convex-rule", 3)} <= set(codes)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: `steiner` exits 4 on a grid pair with no common corner triple",
)
@pytest.mark.parametrize("seed", GRID_PAIRS_THAT_RAISE)
def test_steiner_on_grid_pairs_without_a_common_triple_exits_cleanly(tmp_path, capsys, seed):
    assert run_on_grid_pair(tmp_path, capsys, seed, "steiner") <= 3


def test_package_main_runs_the_cli(monkeypatch, capsys):
    # `python -m banded` runs `banded/__main__.py`, here in this process
    monkeypatch.setattr(sys, "argv", ["banded", "check", fig("fig1_twisted_prism")])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("banded", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("ok: 3 vertices")


def test_python_dash_m_runs_the_cli(tmp_path):
    # a face repeated with reversed winding sections into a 2-point cycle:
    # a negative verdict with one line on stderr, not a traceback
    mesh = tmp_path / "two.off"
    mesh.write_text("OFF\n3 2 0\n0 0 0\n1 0 1\n0 1 1\n3 0 1 2\n3 0 2 1\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "banded", "section", str(mesh), "--t", "1/2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["banded: section at t=1/2 closes after 2 points; not a polygon"]
