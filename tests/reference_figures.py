"""The bundled reference instances of the repository's `figures/`
directory, read as the CLI reads them, with the verdicts each file pins in
its `metadata`: `expected.solvable` (a surface without added vertices
exists), `expected.planar_morph` (the linear morph preserves planarity),
`expected.valid_assignments` (known members of the oracle list) and
`notes`.  The suite re-checks every pinned verdict on each run, so the
files that users run are the files that are tested.  Test-only: nothing in
`banded` imports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from banded.fileio import load_instance
from banded.model import SliceInstance

FIGURES = Path(__file__).resolve().parent.parent / "figures"

NAMES = ("fig1_twisted_prism", "fig1c_antiprism", "fig3a_no_surface", "fig3b_sat_nonplanar", "fig7_star")


@dataclass(frozen=True)
class ReferenceInstance:
    name: str
    instance: SliceInstance
    solvable: bool
    planar_morph: bool
    valid_assignments: tuple[str, ...]
    notes: str


def reference_instance(name: str) -> ReferenceInstance:
    path = FIGURES / f"{name}.json"
    metadata = json.loads(path.read_text())["metadata"]
    expected = metadata["expected"]
    return ReferenceInstance(
        name,
        load_instance(path),
        expected["solvable"],
        expected["planar_morph"],
        tuple(expected["valid_assignments"]),
        metadata["notes"],
    )


def reference_instances() -> dict[str, ReferenceInstance]:
    return {name: reference_instance(name) for name in NAMES}


def fig1_twisted_prism() -> ReferenceInstance:
    return reference_instance("fig1_twisted_prism")


def fig1c_antiprism() -> ReferenceInstance:
    return reference_instance("fig1c_antiprism")


def fig3a_no_surface() -> ReferenceInstance:
    return reference_instance("fig3a_no_surface")


def fig3b_sat_nonplanar() -> ReferenceInstance:
    return reference_instance("fig3b_sat_nonplanar")


def fig7_star() -> ReferenceInstance:
    return reference_instance("fig7_star")
