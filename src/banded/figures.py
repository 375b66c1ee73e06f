"""Bundled reference instances with pinned expected verdicts.

Each instance was derived once (search scripts over exact-rational
parameterizations, verdicts certified by the solver, the brute-force oracle,
and the planarity decision) and is frozen here; the acceptance suite re-checks
every pinned verdict on each run.  The same data is exported as JSON files in
the repository's figures/ directory for CLI use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point2
from .model import LabeledPolygon, SliceInstance
from .morph import rotate_copy_instance


@dataclass(frozen=True)
class ReferenceInstance:
    name: str
    instance: SliceInstance
    solvable: bool  # Steiner-free surface exists
    planar_morph: bool  # linear morph preserves planarity
    valid_assignments: tuple[str, ...] = ()  # known members of the oracle list
    notes: str = ""


def _poly(coords, z=0) -> LabeledPolygon:
    return LabeledPolygon(tuple(Point2(Fraction(x), Fraction(y)) for x, y in coords), z)


def _rotated_instance(coords, cos_sin) -> SliceInstance:
    return rotate_copy_instance(_poly(coords), Point2(0, 0), cos_sin)


# Near-equilateral triangle centred on the origin (integer coordinates; a true
# equilateral has no rational embedding).  Twists use exact unit-circle pairs.
_TRIANGLE = [(8, 0), (-4, 7), (-4, -7)]

# 8-vertex polygon star-shaped around the origin whose quarter-turn instance
# admits no chord surface even though the rotation morph stays planar.
_STAR = [(2, 0), (5, 5), (-3, 0), (-4, -2), (-1, -1), (-3, -5), (0, -4), (4, -1)]

# Triangle with its centroid at the origin, used for the half-turn instance.
_FIG3A_TRIANGLE = [(4, 0), (-2, 3), (-2, -3)]

# Triangle pair whose straight morph inverts around the middle yet the
# all-left chord surface exists.
_FIG3B_SOURCE = [(-4, -2), (-3, -4), (6, -4)]
_FIG3B_TARGET = [(0, -4), (4, 3), (5, 5)]


def fig1_twisted_prism() -> ReferenceInstance:
    return ReferenceInstance(
        name="fig1_twisted_prism",
        instance=_rotated_instance(_TRIANGLE, (Fraction(4, 5), Fraction(3, 5))),
        solvable=True,
        planar_morph=True,
        valid_assignments=("RRR", "LLL"),
        notes="triangle twisted by the (4/5, 3/5) rotation; every chord mix works",
    )


def fig1c_antiprism() -> ReferenceInstance:
    return ReferenceInstance(
        name="fig1c_antiprism",
        instance=_rotated_instance(_TRIANGLE, (Fraction(3, 5), Fraction(4, 5))),
        solvable=True,
        planar_morph=True,
        valid_assignments=("RRR", "LLL"),
        notes="larger twist via the (3/5, 4/5) rotation; antiprism-style all-left valid",
    )


def fig3a_no_surface() -> ReferenceInstance:
    return ReferenceInstance(
        name="fig3a_no_surface",
        instance=_rotated_instance(_FIG3A_TRIANGLE, (-1, 0)),
        solvable=False,
        planar_morph=False,
        notes=(
            "half-turn of a triangle about its centroid: the top edge over any "
            "band must form a triangle with one of the two bottom endpoints, "
            "and both candidates cross the opposite vertical edge"
        ),
    )


def fig3b_sat_nonplanar() -> ReferenceInstance:
    return ReferenceInstance(
        name="fig3b_sat_nonplanar",
        instance=SliceInstance(_poly(_FIG3B_SOURCE, 0), _poly(_FIG3B_TARGET, 1)),
        solvable=True,
        planar_morph=False,
        valid_assignments=("LLL",),
        notes="all-left chords give a surface although the morph inverts around t=1/2",
    )


def fig7_star() -> ReferenceInstance:
    return ReferenceInstance(
        name="fig7_star",
        instance=_rotated_instance(_STAR, (0, 1)),
        solvable=False,
        planar_morph=True,
        notes="quarter-turn of a star-shaped octagon: planar morph, no chord surface",
    )


ALL_FIGURES = (
    fig1_twisted_prism,
    fig1c_antiprism,
    fig3a_no_surface,
    fig3b_sat_nonplanar,
    fig7_star,
)


def reference_instances() -> dict[str, ReferenceInstance]:
    return {f().name: f() for f in ALL_FIGURES}
