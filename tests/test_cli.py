import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from banded import cli
from banded.cli import main
from banded.errors import InternalConsistencyError
from banded.fileio import save_instance
from banded.figures import reference_instances
from banded.generators import random_instance

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
        # the decision validates: a bowtie target and a clockwise one (the
        # source reflected, an affine map with det A < 0) are invalid input,
        # reported as `check` reports them
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"P": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]], "Pprime": target}))
        for command in ("morph-check", "check"):
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

    @pytest.mark.parametrize("index", ["5", "-1"])
    def test_off_face_index_out_of_range_is_invalid_input(self, tmp_path, capsys, index):
        mesh = tmp_path / "m.off"
        mesh.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 1\n0 1 1\n3 0 1 {index}\n")
        assert run("section", str(mesh), "--t", "1/2") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"banded: parse error: {mesh}: face index {index} outside [0, 3) (line 6)"]


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
        assert len(err) == 1 and err[0].startswith("banded: parse error:")

    def test_bool_coordinate(self, tmp_path, capsys):
        bad = tmp_path / "flag.json"
        bad.write_text(json.dumps({"P": [[0, 0], [True, 0], [0, 1]], "Pprime": [[0, 0], [1, 0], [0, 1]]}))
        assert run("check", str(bad)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("banded: parse error:")

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


def test_bundled_figures_match_frozen_instances():
    for name, ref in reference_instances().items():
        from banded.fileio import load_instance

        loaded = load_instance(FIGDIR / f"{name}.json")
        assert loaded.source.vertices == ref.instance.source.vertices
        assert loaded.target.vertices == ref.instance.target.vertices


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
