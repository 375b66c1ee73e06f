"""Banded surfaces: triangulated annuli between two labelled parallel polygons.

Decide whether the two polygons admit a surface using only their own vertices
(one chord per band, found via 2-SAT over exact geometric conflicts), apply
the convex linear-morph chord rule when it applies, or always succeed with a
layered construction that adds O(n^2) intermediate vertices.  Every surface
can be certified by an independent verifier.
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
from .geometry import (
    AngleClass,
    Point2,
    Point3,
    ccw_angle,
    open_triangles_intersect_3d,
    orient2d,
    polygon_is_ccw,
    polygon_is_convex,
    polygon_is_simple,
    segments_intersect_2d,
)
from .model import (
    BandedSurface,
    Chord,
    ChordAssignment,
    CrossSection,
    LabeledPolygon,
    OriginalLabel,
    SliceInstance,
    SteinerLabel,
    VerificationReport,
    assignment_to_surface,
    cross_section,
    verify_banded_surface,
)
from .morph import (
    MorphSnapshot,
    PlanarityVerdict,
    convex_chord_rule,
    morph_position,
    planarity_preserving,
    rotate_copy_instance,
    similarity_witness,
)
from .fileio import (
    export_mesh,
    export_section,
    load_instance,
    load_surface,
    save_instance,
)
from .solver import (
    ConflictTable,
    SolveOutcome,
    brute_force_assignments,
    build_clauses,
    build_conflict_table,
    chord_triangles,
    conflicts,
    solve_no_steiner,
)
from .steiner import build_layered_surface
from .twosat import Clause2, Literal, TwoSatResult, solve_2sat

__version__ = "0.1.0"

__all__ = [
    "AllPointsEqualError",
    "AngleClass",
    "BandedError",
    "BandedSurface",
    "Chord",
    "ChordAssignment",
    "Clause2",
    "ConflictTable",
    "CrossSection",
    "InputError",
    "InternalConsistencyError",
    "LabeledPolygon",
    "Literal",
    "MeshStructureError",
    "MorphSnapshot",
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
    "TwoSatResult",
    "VerificationReport",
    "assignment_to_surface",
    "brute_force_assignments",
    "build_clauses",
    "build_conflict_table",
    "build_layered_surface",
    "ccw_angle",
    "chord_triangles",
    "conflicts",
    "convex_chord_rule",
    "cross_section",
    "export_mesh",
    "export_section",
    "load_instance",
    "load_surface",
    "morph_position",
    "open_triangles_intersect_3d",
    "orient2d",
    "planarity_preserving",
    "polygon_is_ccw",
    "polygon_is_convex",
    "polygon_is_simple",
    "rotate_copy_instance",
    "save_instance",
    "segments_intersect_2d",
    "similarity_witness",
    "solve_2sat",
    "solve_no_steiner",
    "verify_banded_surface",
]
