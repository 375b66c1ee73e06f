"""Domain model: labelled polygons, slice instances, chord assignments, banded
surfaces, and the independent verifier that certifies a surface end to end.

The verifier is deliberately self-contained: it re-derives every property of a
banded surface (annulus topology, disjoint vertical paths, exact pairwise face
compatibility, and simple cross-sections) from the mesh alone, so it can act
as ground truth for the solver and the brute-force oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, MeshStructureError, PreconditionError, SectionError
from .geometry import (
    Point2,
    Point3,
    Triangle3,
    denominator_lcm,
    open_triangles_intersect_3d,
    polygon_is_ccw,
    polygon_is_convex,
    polygon_is_simple,
    polygon_signed_area2,
)


@dataclass(frozen=True, slots=True)
class LabeledPolygon:
    """Ordered labelled vertices at a fixed z level.

    Validity (simple, counterclockwise, distinct vertices) is checked by
    `validate`, not by the constructor: intermediate morph snapshots are
    allowed to be invalid, and deciding that is part of what this package does.
    """

    vertices: tuple[Point2, ...]
    z_level: Fraction | int = 0

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise InputError("polygon needs at least 3 vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def point3(self, i: int) -> Point3:
        p = self.vertices[i % self.n]
        return Point3(p.x, p.y, self.z_level)

    def is_simple(self) -> bool:
        return polygon_is_simple(self.vertices)

    def is_ccw(self) -> bool:
        return polygon_is_ccw(self.vertices)

    def is_convex(self) -> bool:
        return polygon_is_convex(self.vertices)

    def validate(self) -> None:
        if not self.is_simple():
            raise InputError("polygon is not simple")
        if not self.is_ccw():
            raise InputError("polygon is not counterclockwise")

    def translated(self, dx, dy) -> "LabeledPolygon":
        return LabeledPolygon(
            tuple(Point2(p.x + dx, p.y + dy) for p in self.vertices), self.z_level
        )

    def reversed(self) -> "LabeledPolygon":
        return LabeledPolygon(tuple(reversed(self.vertices)), self.z_level)


@dataclass(frozen=True, slots=True)
class SliceInstance:
    """The reconstruction input: source polygon at z=0, target at z=1, with
    vertex i of the source corresponding to vertex i of the target."""

    source: LabeledPolygon
    target: LabeledPolygon

    @property
    def n(self) -> int:
        return len(self.source.vertices)

    def validate(self) -> None:
        if self.source.z_level != 0 or self.target.z_level != 1:
            raise InputError("slice instance requires z levels exactly 0 and 1")
        if len(self.source.vertices) != len(self.target.vertices):
            raise InputError("source and target must have the same vertex count")
        self.source.validate()
        self.target.validate()

    def band_quad(self, i: int) -> tuple[Point3, Point3, Point3, Point3]:
        """Quad (p_i, p_{i+1}, q_{i+1}, q_i) of band i, bottom pair then top."""
        return (
            self.source.point3(i),
            self.source.point3(i + 1),
            self.target.point3(i + 1),
            self.target.point3(i),
        )


class Chord(enum.Enum):
    RIGHT = "R"
    LEFT = "L"


@dataclass(frozen=True, slots=True)
class ChordAssignment:
    choices: tuple[Chord, ...]

    @classmethod
    def from_bools(cls, right_flags) -> "ChordAssignment":
        return cls(tuple(Chord.RIGHT if f else Chord.LEFT for f in right_flags))

    @classmethod
    def from_string(cls, s: str) -> "ChordAssignment":
        try:
            return cls(tuple(Chord(ch) for ch in s.upper()))
        except ValueError as exc:
            raise InputError(f"bad assignment string {s!r}: use only R and L") from exc

    def __str__(self) -> str:
        return "".join(c.value for c in self.choices)

    def __len__(self) -> int:
        return len(self.choices)


@dataclass(frozen=True, slots=True)
class OriginalLabel:
    slice: int  # 0 = source polygon, 1 = target polygon
    index: int


@dataclass(frozen=True, slots=True)
class SteinerLabel:
    ident: int


@dataclass(frozen=True)
class BandedSurface:
    """Triangle mesh with band structure.

    vertices: (point, label) pairs; faces: vertex-index triples; bands: for
    each band the set of its face indices; paths: for each i the vertex-index
    chain from source vertex i up to target vertex i.
    """

    vertices: tuple[tuple[Point3, object], ...]
    faces: tuple[tuple[int, int, int], ...]
    bands: tuple[frozenset[int], ...]
    paths: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.bands)

    def point(self, i: int) -> Point3:
        return self.vertices[i][0]

    def face_triangle(self, k: int) -> Triangle3:
        i, j, l = self.faces[k]
        return Triangle3(self.vertices[i][0], self.vertices[j][0], self.vertices[l][0])

    def triangles(self) -> list[Triangle3]:
        return [self.face_triangle(k) for k in range(len(self.faces))]

    def steiner_count(self) -> int:
        return sum(1 for _, label in self.vertices if isinstance(label, SteinerLabel))


@dataclass(frozen=True)
class CrossSection:
    t: Fraction
    polygon: LabeledPolygon


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    topology: CheckResult
    path_disjointness: CheckResult
    face_intersections: CheckResult
    monotone_sections: CheckResult

    @property
    def passed(self) -> bool:
        return (
            self.topology.passed
            and self.path_disjointness.passed
            and self.face_intersections.passed
            and self.monotone_sections.passed
        )

    def summary(self) -> str:
        lines = []
        for name in ("topology", "path_disjointness", "face_intersections", "monotone_sections"):
            check: CheckResult = getattr(self, name)
            status = "pass" if check.passed else f"FAIL ({check.detail})"
            lines.append(f"{name}: {status}")
        return "\n".join(lines)


DEFAULT_SECTION_LEVELS = tuple(Fraction(j, 16) for j in range(1, 16))


def scaled_to_integers(inst: SliceInstance) -> SliceInstance:
    """The instance with all coordinates scaled to integers by one positive
    factor.  Scaling x and y together (z untouched) is a linear bijection of
    space, so chord conflicts, solvability, and verifier verdicts all carry
    over unchanged; integer coordinates make the exact predicates much faster.
    The coordinates come back as ints even when the factor is 1: integral
    `Fraction` values cost as much in arithmetic as any other `Fraction`.
    """
    polys = (inst.source, inst.target)
    k = denominator_lcm(c for poly in polys for p in poly.vertices for c in (p.x, p.y))

    def scale(poly: LabeledPolygon) -> LabeledPolygon:
        return LabeledPolygon(
            tuple(Point2(int(p.x * k), int(p.y * k)) for p in poly.vertices),
            poly.z_level,
        )

    return SliceInstance(scale(inst.source), scale(inst.target))


def _scaled_triangles(triangles) -> list[Triangle3]:
    """Triangles with coordinates scaled onto integers, one positive factor
    per axis; intersection verdicts are invariant under such scalings.  As
    in `scaled_to_integers`, the coordinates come back as ints."""
    points = [p for t in triangles for p in t.vertices]
    kx = denominator_lcm(p.x for p in points)
    ky = denominator_lcm(p.y for p in points)
    kz = denominator_lcm(p.z for p in points)
    return [
        Triangle3(*(Point3(int(p.x * kx), int(p.y * ky), int(p.z * kz)) for p in t.vertices))
        for t in triangles
    ]


def assignment_to_surface(inst: SliceInstance, assignment: ChordAssignment) -> BandedSurface:
    """Build the Steiner-free surface induced by one chord choice per band.

    Band i spans quad (p_i, p_{i+1}, q_{i+1}, q_i); the right chord (p_i,
    q_{i+1}) splits it into (p_i, p_{i+1}, q_{i+1}) and (p_i, q_{i+1}, q_i),
    the left chord (p_{i+1}, q_i) into (p_i, p_{i+1}, q_i) and
    (p_{i+1}, q_{i+1}, q_i).
    """
    n = inst.n
    if len(assignment) != n:
        raise InputError(f"assignment length {len(assignment)} != instance size {n}")
    vertices = [
        (inst.source.point3(i), OriginalLabel(0, i)) for i in range(n)
    ] + [
        (inst.target.point3(i), OriginalLabel(1, i)) for i in range(n)
    ]
    faces: list[tuple[int, int, int]] = []
    bands = []
    for i, choice in enumerate(assignment.choices):
        j = (i + 1) % n
        if choice is Chord.RIGHT:
            faces.append((i, j, n + j))
            faces.append((i, n + j, n + i))
        else:
            faces.append((i, j, n + i))
            faces.append((j, n + j, n + i))
        bands.append(frozenset((2 * i, 2 * i + 1)))
    paths = tuple((i, n + i) for i in range(n))
    return BandedSurface(tuple(vertices), tuple(faces), tuple(bands), paths)


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def _face_edges(face):
    a, b, c = face
    return ((a, b), (b, c), (c, a))


def _check_topology(s: BandedSurface) -> CheckResult:
    nv = len(s.vertices)
    if len(s.bands) != len(s.paths):
        return CheckResult(False, "band count differs from path count")
    seen_coords = {}
    for idx, (p, _) in enumerate(s.vertices):
        key = (p.x, p.y, p.z)
        if key in seen_coords:
            return CheckResult(False, f"vertices {seen_coords[key]} and {idx} coincide at {key}")
        seen_coords[key] = idx

    face_band = {}
    for b, members in enumerate(s.bands):
        for f in members:
            if not 0 <= f < len(s.faces):
                return CheckResult(False, f"band {b} references face {f} out of range")
            if f in face_band:
                return CheckResult(False, f"face {f} belongs to bands {face_band[f]} and {b}")
            face_band[f] = b
    if len(face_band) != len(s.faces):
        missing = next(f for f in range(len(s.faces)) if f not in face_band)
        return CheckResult(False, f"face {missing} belongs to no band")

    directed = set()
    undirected: dict[tuple[int, int], list[int]] = {}
    referenced = set()
    for k, face in enumerate(s.faces):
        if len(set(face)) != 3 or any(not 0 <= v < nv for v in face):
            return CheckResult(False, f"face {k} is malformed: {face}")
        tri = s.face_triangle(k)
        if tri.is_degenerate():
            return CheckResult(False, f"face {k} is degenerate")
        referenced.update(face)
        for e in _face_edges(face):
            if e in directed:
                return CheckResult(False, f"directed edge {e} used twice: winding is inconsistent")
            directed.add(e)
            key = (min(e), max(e))
            undirected.setdefault(key, []).append(k)
    if referenced != set(range(nv)):
        return CheckResult(False, "mesh has vertices not used by any face")

    boundary = set()
    for key, fs in undirected.items():
        if len(fs) > 2:
            return CheckResult(False, f"edge {key} borders {len(fs)} faces")
        if len(fs) == 1:
            boundary.add(key)

    n = s.n
    starts = [path[0] for path in s.paths]
    ends = [path[-1] for path in s.paths]
    expected_boundary = set()
    for i in range(n):
        j = (i + 1) % n
        expected_boundary.add((min(starts[i], starts[j]), max(starts[i], starts[j])))
        expected_boundary.add((min(ends[i], ends[j]), max(ends[i], ends[j])))
    if boundary != expected_boundary:
        return CheckResult(False, "boundary edges are not exactly the two polygon cycles")

    euler = nv - len(undirected) + len(s.faces)
    if euler != 0:
        return CheckResult(False, f"Euler characteristic is {euler}, expected 0 for an annulus")

    # face connectivity through shared edges
    adj: list[list[int]] = [[] for _ in range(len(s.faces))]
    for fs in undirected.values():
        if len(fs) == 2:
            adj[fs[0]].append(fs[1])
            adj[fs[1]].append(fs[0])
    stack, seen = [0], {0}
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    if len(seen) != len(s.faces):
        return CheckResult(False, "surface is not connected")

    # every vertex link must be a single fan of faces
    incident: dict[int, list[int]] = {}
    for k, face in enumerate(s.faces):
        for v in face:
            incident.setdefault(v, []).append(k)
    for v, fs in incident.items():
        if len(fs) == 1:
            continue
        comp = {fs[0]}
        stack = [fs[0]]
        fset = set(fs)
        while stack:
            f = stack.pop()
            for e in _face_edges(s.faces[f]):
                if v not in e:
                    continue
                key = (min(e), max(e))
                for g in undirected[key]:
                    if g in fset and g not in comp:
                        comp.add(g)
                        stack.append(g)
        if comp != fset:
            return CheckResult(False, f"vertex {v} is a pinch point (split face fan)")

    # band faces must stay between their two paths
    for b, members in enumerate(s.bands):
        allowed = set(s.paths[b]) | set(s.paths[(b + 1) % n])
        for f in members:
            if not set(s.faces[f]) <= allowed:
                return CheckResult(False, f"face {f} of band {b} uses vertices off its paths")
    return CheckResult(True)


def _check_paths(s: BandedSurface) -> CheckResult:
    mesh_edges = set()
    for face in s.faces:
        for a, b in _face_edges(face):
            mesh_edges.add((min(a, b), max(a, b)))
    used: dict[int, int] = {}
    for i, path in enumerate(s.paths):
        if len(path) < 2:
            return CheckResult(False, f"path {i} is too short")
        for v in path:
            if v in used:
                return CheckResult(False, f"paths {used[v]} and {i} share vertex {v}")
            used[v] = i
        pts = [s.point(v) for v in path]
        if pts[0].z != 0 or pts[-1].z != 1:
            return CheckResult(False, f"path {i} does not run from z=0 to z=1")
        label0, label1 = s.vertices[path[0]][1], s.vertices[path[-1]][1]
        if label0 != OriginalLabel(0, i) or label1 != OriginalLabel(1, i):
            return CheckResult(False, f"path {i} endpoints are not source/target vertex {i}")
        for a, b in zip(pts, pts[1:]):
            if not a.z < b.z:
                return CheckResult(False, f"path {i} is not strictly z-increasing")
        for a, b in zip(path, path[1:]):
            if (min(a, b), max(a, b)) not in mesh_edges:
                return CheckResult(False, f"path {i} uses ({a},{b}) which is not a mesh edge")
    return CheckResult(True)


def _check_face_intersections(s: BandedSurface, triangles, pair_memo) -> CheckResult:
    scaled = _scaled_triangles(triangles)
    m = len(scaled)
    bounds = [t.bounds() for t in scaled]
    order = sorted(range(m), key=lambda k: bounds[k][0][2])
    active: list[int] = []
    for k in order:
        (lo_k, hi_k) = bounds[k]
        still = []
        for j in active:
            if bounds[j][1][2] >= lo_k[2]:
                still.append(j)
        active = still
        for j in active:
            lo_j, hi_j = bounds[j]
            if (
                lo_j[0] > hi_k[0]
                or lo_k[0] > hi_j[0]
                or lo_j[1] > hi_k[1]
                or lo_k[1] > hi_j[1]
            ):
                continue
            if pair_memo is None:
                hit = open_triangles_intersect_3d(scaled[j], scaled[k])
            else:
                ij = (id(triangles[j]), id(triangles[k]))
                key = ij if ij[0] < ij[1] else (ij[1], ij[0])
                hit = pair_memo.get(key)
                if hit is None:
                    hit = open_triangles_intersect_3d(scaled[j], scaled[k])
                    pair_memo[key] = hit
            if hit:
                return CheckResult(False, f"faces {j} and {k} intersect improperly")
        active.append(k)
    return CheckResult(True)


def _vertex_z_levels(s: BandedSurface) -> set:
    return {Fraction(p.z) for p, _ in s.vertices}


def perturbed_level(s: BandedSurface, t: Fraction) -> Fraction:
    """t itself if no vertex sits at that level, else a nearby safe level."""
    levels = _vertex_z_levels(s)
    t = Fraction(t)
    if t not in levels:
        return t
    above = min((z for z in levels | {Fraction(1)} if z > t), default=Fraction(1))
    return (t + above) / 2


def cross_section(s: BandedSurface, t) -> CrossSection:
    """Intersect the surface with the plane z=t and chain the result into one
    simple closed polygon; any other outcome raises SectionError.

    The work is done in integers: x, y and z (with t) are scaled by one
    positive factor per axis, and each crossing edge's point is computed
    once over one common denominator.  Such a scaling keeps the
    lexicographic order of points, simplicity and orientation, so the chain
    and the verdicts are those of the rational points; only the returned
    polygon is built in Fractions.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("section level must satisfy 0 < t < 1")
    pts3 = [p for p, _ in s.vertices]
    kx = denominator_lcm(p.x for p in pts3)
    ky = denominator_lcm(p.y for p in pts3)
    kz = denominator_lcm([t] + [p.z for p in pts3])
    xs = [p.x.numerator * (kx // p.x.denominator) for p in pts3]
    ys = [p.y.numerator * (ky // p.y.denominator) for p in pts3]
    zs = [p.z.numerator * (kz // p.z.denominator) for p in pts3]
    level = t.numerator * (kz // t.denominator)
    if level in set(zs):
        raise PreconditionError(f"section level {t} hits a vertex; retry slightly off")

    # each crossing edge, keyed by its sorted vertex pair, maps to its point
    # at the level as (x, y, w) with x/w, y/w the scaled coordinates, w > 0
    edge_points: dict[tuple[int, int], tuple[int, int, int]] = {}
    face_edges = []
    for k, (a, b, c) in enumerate(s.faces):
        za, zb, zc = zs[a], zs[b], zs[c]
        if not min(za, zb, zc) < level < max(za, zb, zc):
            continue
        keys = []
        for u, v in ((a, b), (b, c), (c, a)):
            if (zs[u] < level) == (zs[v] < level):
                continue
            key = (u, v) if u < v else (v, u)
            keys.append(key)
            if key not in edge_points:
                lo, hi = (u, v) if zs[u] < zs[v] else (v, u)
                below, above = level - zs[lo], zs[hi] - level
                edge_points[key] = (
                    xs[lo] * above + xs[hi] * below,
                    ys[lo] * above + ys[hi] * below,
                    above + below,
                )
        face_edges.append((k, keys))
    w = math.lcm(*(pw for _, _, pw in edge_points.values()))
    points = {key: (px * (w // pw), py * (w // pw)) for key, (px, py, pw) in edge_points.items()}

    def rational(pt):
        return Fraction(pt[0], kx * w), Fraction(pt[1], ky * w)

    segments = []
    for k, (e, f) in face_edges:
        if points[e] == points[f]:
            raise SectionError(f"face {k} has an unexpected section at t={t}")
        segments.append((points[e], points[f]))
    if not segments:
        raise SectionError(f"no face crosses the plane z={t}")

    incidence: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        incidence.setdefault(a, []).append(idx)
        incidence.setdefault(b, []).append(idx)
    for pt, ids in incidence.items():
        if len(ids) != 2:
            raise SectionError(
                f"section point {rational(pt)} touches {len(ids)} segments; cannot chain"
            )

    start = min(incidence)
    cycle = [start]
    used = set()
    current = start
    while True:
        nxt_seg = None
        for idx in incidence[current]:
            if idx not in used:
                nxt_seg = idx
                break
        if nxt_seg is None:
            break
        used.add(nxt_seg)
        a, b = segments[nxt_seg]
        current = b if a == current else a
        if current == start:
            break
        cycle.append(current)
    if len(used) != len(segments):
        raise SectionError("section chains into more than one cycle; surface is not monotone here")

    scaled = [Point2(x, y) for x, y in cycle]
    if not polygon_is_simple(scaled):
        raise SectionError(f"section at t={t} is not a simple polygon")
    if polygon_signed_area2(scaled) < 0:
        cycle.reverse()
    return CrossSection(t, LabeledPolygon(tuple(Point2(*rational(pt)) for pt in cycle), t))


def _check_sections(s: BandedSurface, levels) -> CheckResult:
    for t in levels:
        try:
            cross_section(s, perturbed_level(s, Fraction(t)))
        except SectionError as exc:
            return CheckResult(False, str(exc))
    return CheckResult(True)


def verify_banded_surface(
    s: BandedSurface,
    section_levels=DEFAULT_SECTION_LEVELS,
    *,
    force_sections: bool = False,
    _triangles=None,
    _pair_memo=None,
) -> VerificationReport:
    """Run the four certification checks and report per-check verdicts.

    Monotonicity: when every face spans the full height z in [0,1] (no
    intermediate layers), a passing pairwise-intersection check already forces
    each plane section to chain into one simple polygon, so the section check
    is certified structurally; layered surfaces are checked by sampling the
    given levels.  Pass force_sections=True to always sample.

    Later checks assume structurally sound input, so they are skipped (marked
    failed with a note) when the topology check already failed hard.
    """
    try:
        topo = _check_topology(s)
        paths = _check_paths(s)
    except (IndexError, KeyError, TypeError) as exc:
        raise MeshStructureError(f"malformed mesh: {exc}") from exc
    if not topo.passed:
        skipped = CheckResult(False, "skipped: topology check failed")
        return VerificationReport(topo, paths, skipped, skipped)
    triangles = _triangles if _triangles is not None else s.triangles()
    inter = _check_face_intersections(s, triangles, _pair_memo)
    full_height = all(
        min(t.a.z, t.b.z, t.c.z) == 0 and max(t.a.z, t.b.z, t.c.z) == 1 for t in triangles
    )
    if inter.passed and full_height and not force_sections:
        sections = CheckResult(True, "structural: every face spans the full height")
    elif not inter.passed:
        sections = CheckResult(False, "skipped: face intersection check failed")
    else:
        sections = _check_sections(s, section_levels)
    return VerificationReport(topo, paths, inter, sections)
