"""Banded surfaces: triangulated annuli between two labelled parallel polygons.

Decide whether the two polygons admit a surface using only their own vertices
(one chord per band, found via 2-SAT over exact geometric conflicts), apply
the convex linear-morph chord rule when it applies, or always succeed with a
layered construction that adds O(n^2) intermediate vertices.  Every surface
can be certified by an independent verifier.

The package root holds the entry points and the types they take and return;
the kernels (conflicts, predicates, clauses, 2-SAT) stay in their modules.
"""

from .errors import (
    AllPointsEqualError,
    BandedError,
    InputError,
    InternalConsistencyError,
    MeshStructureError,
    ParseError,
    PreconditionError,
    SectionError,
)
from .geometry import Point2, Point3
from .model import (
    BandedSurface,
    Chord,
    ChordAssignment,
    LabeledPolygon,
    OriginalLabel,
    SliceInstance,
    SteinerLabel,
    VerificationReport,
    cross_section,
    verify_banded_surface,
)
from .morph import PlanarityVerdict, convex_chord_rule, planarity_preserving
from .fileio import export_mesh, export_section, load_instance, load_surface, save_instance
from .solver import SolveOutcome, brute_force_assignments, solve_no_steiner
from .steiner import build_layered_surface

__version__ = "0.1.0"

__all__ = [
    "AllPointsEqualError",
    "BandedError",
    "BandedSurface",
    "Chord",
    "ChordAssignment",
    "InputError",
    "InternalConsistencyError",
    "LabeledPolygon",
    "MeshStructureError",
    "OriginalLabel",
    "ParseError",
    "PlanarityVerdict",
    "Point2",
    "Point3",
    "PreconditionError",
    "SectionError",
    "SliceInstance",
    "SolveOutcome",
    "SteinerLabel",
    "VerificationReport",
    "brute_force_assignments",
    "build_layered_surface",
    "convex_chord_rule",
    "cross_section",
    "export_mesh",
    "export_section",
    "load_instance",
    "load_surface",
    "planarity_preserving",
    "save_instance",
    "solve_no_steiner",
    "verify_banded_surface",
]
