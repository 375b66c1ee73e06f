"""Every bundled reference instance must reproduce its pinned verdicts, and
the files that pin them must stay the five the suite reads, each one
written exactly as `save_instance` writes it."""

import json

import pytest
from reference_figures import FIGURES, NAMES, reference_instances

from banded.fileio import load_instance, save_instance
from banded.morph import planarity_preserving
from banded.solver import brute_force_assignments, solve_no_steiner


@pytest.fixture(scope="module")
def refs():
    return reference_instances()


@pytest.mark.parametrize(
    "name", ["fig1_twisted_prism", "fig1c_antiprism", "fig3a_no_surface", "fig3b_sat_nonplanar", "fig7_star"]
)
def test_instances_are_valid(refs, name):
    refs[name].instance.validate()


@pytest.mark.parametrize(
    "name", ["fig1_twisted_prism", "fig1c_antiprism", "fig3a_no_surface", "fig3b_sat_nonplanar", "fig7_star"]
)
def test_solver_verdict(refs, name):
    ref = refs[name]
    out = solve_no_steiner(ref.instance)
    assert out.satisfiable == ref.solvable


@pytest.mark.parametrize(
    "name", ["fig1_twisted_prism", "fig1c_antiprism", "fig3a_no_surface", "fig3b_sat_nonplanar", "fig7_star"]
)
def test_planarity_verdict(refs, name):
    ref = refs[name]
    assert planarity_preserving(ref.instance).preserved == ref.planar_morph


@pytest.mark.parametrize(
    "name", ["fig1_twisted_prism", "fig1c_antiprism", "fig3b_sat_nonplanar"]
)
def test_pinned_assignments_in_oracle(refs, name):
    ref = refs[name]
    names = {str(a) for a in brute_force_assignments(ref.instance)}
    for expected in ref.valid_assignments:
        assert expected in names


def test_figures_holds_the_five_files_the_suite_reads():
    assert sorted(path.name for path in FIGURES.iterdir()) == sorted(f"{name}.json" for name in NAMES)


def test_each_file_pins_its_verdicts_and_notes():
    for name in NAMES:
        doc = json.loads((FIGURES / f"{name}.json").read_text())
        assert doc["name"] == name
        metadata = doc["metadata"]
        assert sorted(metadata) == ["expected", "notes"], name
        assert sorted(metadata["expected"]) == ["planar_morph", "solvable", "valid_assignments"], name
        assert isinstance(metadata["notes"], str) and metadata["notes"], name


def test_files_round_trip_byte_for_byte(tmp_path):
    for name in NAMES:
        path = FIGURES / f"{name}.json"
        doc = json.loads(path.read_text())
        copy = tmp_path / path.name
        save_instance(load_instance(path), copy, doc["name"], doc["metadata"])
        assert copy.read_bytes() == path.read_bytes(), name
