"""Domain model: labelled polygons, slice instances, chord assignments, banded
surfaces, and the independent verifier that certifies a surface end to end.

The verifier is deliberately self-contained: it re-derives every property of a
banded surface (annulus topology, disjoint vertical paths, exact pairwise face
compatibility, and simple cross-sections) from the mesh alone, so it can act
as ground truth for the solver and the brute-force oracle.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import InputError, MeshStructureError, PreconditionError, SectionError
from .geometry import (
    Point2,
    Point3,
    _box,
    _end_boxes,
    _end_map,
    _integer_axis,
    _integer_polygon,
    _meet_only_at_ends,
    _plane,
    _quads_apart,
    _triangles_meet,
    _xy_differences,
    open_triangles_intersect_3d,  # unused; benchmarks/spans.py wraps this binding
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

    def validate(self) -> None:
        _check_polygon(_integer_polygon(self.vertices))

    def translated(self, dx, dy) -> "LabeledPolygon":
        return LabeledPolygon(
            tuple(Point2(p.x + dx, p.y + dy) for p in self.vertices), self.z_level
        )


def _check_polygon(pts) -> None:
    """Raise `InputError` unless the polygon, given as (x, y) pairs on
    integers, is simple and then counterclockwise: the one check of
    `LabeledPolygon.validate` and `SliceInstance.validate`.  It calls this
    module's binding of `polygon_is_simple`, which the benchmark's tracer
    (benchmarks/spans.py) wraps."""
    if not polygon_is_simple(pts):
        raise InputError("polygon is not simple")
    if polygon_signed_area2(pts) <= 0:
        raise InputError("polygon is not counterclockwise")


@dataclass(frozen=True, slots=True)
class SliceInstance:
    """The reconstruction input: source polygon at z=0, target at z=1, with
    vertex i of the source corresponding to vertex i of the target."""

    source: LabeledPolygon
    target: LabeledPolygon

    @property
    def n(self) -> int:
        return len(self.source.vertices)

    def validate(self) -> tuple[int, list[int], tuple | None]:
        """Raise `InputError` unless the z levels are the int or `Fraction`
        values 0 and 1, every coordinate is an int or `Fraction`, the vertex
        counts match and both polygons are simple and counterclockwise, and
        return the instance's integer frame and affine fit (k, cs, fit), as
        `_frame` gives them, for the morph decision to reuse.

        The source is swept, the target only when there is no fit.  A fit
        says that target = A p + v over the source points p with det A > 0:
        an affine bijection, which maps segments onto segments and distinct
        points to distinct points, so it takes a simple polygon to a simple
        one, and which scales the signed area by det A > 0, so it keeps
        counterclockwise order.  A valid source thus has a valid target,
        and every instance raises the error that sweeping the source and
        then the target would raise.  Each sweep (`_check_polygon`) takes
        its polygon as plain (x, y) int pairs from the frame's cs: one
        positive factor k for both polygons is a similarity, so simplicity
        and orientation read as on the given coordinates, and no polygon is
        scaled a second time.
        """
        z0, z1 = _levels(self)
        if not (z0 == 0 and z1 == 1):
            raise InputError("slice instance requires z levels exactly 0 and 1")
        if len(self.source.vertices) != len(self.target.vertices):
            raise InputError("source and target must have the same vertex count")
        frame = _frame(self)
        _, cs, fit = frame
        _check_polygon(list(zip(cs[0::4], cs[1::4])))
        if fit is None:
            _check_polygon(list(zip(cs[2::4], cs[3::4])))
        return frame

    def band_quad(self, i: int) -> tuple[Point3, Point3, Point3, Point3]:
        """Quad (p_i, p_{i+1}, q_{i+1}, q_i) of band i, bottom pair then top;
        `_QUAD_TRIPLES` splits it by either chord."""
        return (
            self.source.point3(i),
            self.source.point3(i + 1),
            self.target.point3(i + 1),
            self.target.point3(i),
        )


def _levels(inst: SliceInstance) -> tuple:
    """The source and target z levels, or `InputError` where one is not an
    int or a `Fraction`: the exact kernels take no float level, as
    `_integer_axis` takes no float coordinate."""
    levels = inst.source.z_level, inst.target.z_level
    if not all(isinstance(z, (int, Fraction)) for z in levels):
        raise InputError("z levels must be ints or Fractions")
    return levels


def _coordinates(inst: SliceInstance) -> list:
    """px, py, qx, qy of every vertex's source p and target q, in turn."""
    return [c for p, q in zip(inst.source.vertices, inst.target.vertices) for c in (p.x, p.y, q.x, q.y)]


def _frame(inst: SliceInstance) -> tuple[int, list[int], tuple | None]:
    """The instance's joint integer frame and affine fit: the least factor
    k that puts every coordinate of both polygons on integers, the scaled
    `_coordinates` cs, and `_affine_fit(cs)`.  One factor for both polygons
    is a similarity of space, so every morph event time is unchanged.  A
    float raises `InputError` in `_integer_axis`, which holds that policy."""
    k, cs = _integer_axis(_coordinates(inst))
    return k, cs, _affine_fit(cs)


def _affine_fit(cs: list) -> tuple | None:
    """(M, d) with target = A p + v over the source points p for A = M / d
    and det A > 0, on coordinates cs in `_coordinates`' layout, or None
    when the target is no such image of the source.  cs may hold any exact
    rationals: `_frame` passes validation's ints, and the ear-squash planner
    (`steiner._planar_end_map`) a corner triple's ints and `Fraction`s.

    A is fixed by vertices 0 and 1 and the first vertex k that is not on
    their line (`_end_map`); every vertex m must then satisfy d (q_m - q_0)
    = M (p_m - p_0).  det M = d^2 det A has the sign of det A.  Exact
    arithmetic only, in the type of cs."""
    px, py, qx, qy = cs[0::4], cs[1::4], cs[2::4], cs[3::4]
    x0, y0, s0, t0 = cs[:4]
    ux, uy = px[1] - x0, py[1] - y0
    k = next((j for j in range(2, len(px)) if ux * (py[j] - y0) != uy * (px[j] - x0)), None)
    if k is None:
        return None
    m, d = _end_map((ux, uy), (px[k] - x0, py[k] - y0), (qx[1] - s0, qy[1] - t0), (qx[k] - s0, qy[k] - t0))
    a, b, c, e = m
    if a * e - b * c <= 0:
        return None
    for x, y, s, t in zip(px, py, qx, qy):
        if d * (s - s0) != a * (x - x0) + b * (y - y0) or d * (t - t0) != c * (x - x0) + e * (y - y0):
            return None
    return m, d


# The vertex triples of a band quad (p0, p1, q1, q0): the right chord's two
# triangles, then the left chord's.  They are also the four faces of the
# tetrahedron on the quad.
_QUAD_TRIPLES = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))


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

    def face_triangle(self, k: int) -> tuple[Point3, Point3, Point3]:
        """Face k as the triple of its vertices' points."""
        i, j, l = self.faces[k]
        return self.vertices[i][0], self.vertices[j][0], self.vertices[l][0]

    def steiner_count(self) -> int:
        return sum(1 for _, label in self.vertices if isinstance(label, SteinerLabel))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""


_CHECKS = ("topology", "path_disjointness", "face_intersections", "monotone_sections")


@dataclass(frozen=True)
class VerificationReport:
    topology: CheckResult
    path_disjointness: CheckResult
    face_intersections: CheckResult
    monotone_sections: CheckResult

    @property
    def passed(self) -> bool:
        return all(getattr(self, name).passed for name in _CHECKS)

    def summary(self) -> str:
        lines = []
        for name in _CHECKS:
            check: CheckResult = getattr(self, name)
            if check.passed:
                status = f"pass ({check.detail})" if check.detail else "pass"
            else:
                status = f"FAIL ({check.detail})"
            lines.append(f"{name}: {status}")
        return "\n".join(lines)


def scaled_to_integers(inst: SliceInstance) -> SliceInstance:
    """The instance with all coordinates scaled to integers by one positive
    factor.  Scaling x and y together (z untouched) is a linear bijection of
    space, so chord conflicts, solvability, and verifier verdicts all carry
    over unchanged; integer coordinates make the exact predicates much faster.
    An instance already on ints is returned as it is.
    """
    values = _coordinates(inst)
    if all(type(c) is int for c in values):
        return inst
    return _integer_instance(inst, _integer_axis(values)[1])


def _integer_instance(inst: SliceInstance, cs: list[int]) -> SliceInstance:
    """The instance on the scaled coordinates cs of `_frame`, in the
    layout of `_coordinates`, at its own z levels."""
    return SliceInstance(
        LabeledPolygon(tuple(map(Point2, cs[0::4], cs[1::4])), inst.source.z_level),
        LabeledPolygon(tuple(map(Point2, cs[2::4], cs[3::4])), inst.target.z_level),
    )


def _integer_points(s: "BandedSurface") -> tuple[list[tuple[int, int, int]], tuple[int, int, int]]:
    """The mesh's vertices scaled onto integers, one positive factor per
    axis, as (x, y, z) tuples, and the factors (kx, ky, kz).  Such a
    scaling keeps coincidence, degeneracy and every intersection verdict,
    and int arithmetic is far faster than `Fraction` arithmetic."""
    pts = [p for p, _ in s.vertices]
    kx, xs = _integer_axis([p.x for p in pts])
    ky, ys = _integer_axis([p.y for p in pts])
    kz, zs = _integer_axis([p.z for p in pts])
    return list(zip(xs, ys, zs)), (kx, ky, kz)


def assignment_to_surface(inst: SliceInstance, assignment: ChordAssignment) -> BandedSurface:
    """Build the Steiner-free surface induced by one chord choice per band.

    Band i spans quad (p_i, p_{i+1}, q_{i+1}, q_i); the right chord (p_i,
    q_{i+1}) splits it into (p_i, p_{i+1}, q_{i+1}) and (p_i, q_{i+1}, q_i),
    the left chord (p_{i+1}, q_i) into (p_i, p_{i+1}, q_i) and
    (p_{i+1}, q_{i+1}, q_i), as `_QUAD_TRIPLES` lists them.
    """
    n = inst.n
    if len(assignment) != n:
        raise InputError(f"assignment length {len(assignment)} != instance size {n}")
    return layers_to_surface((inst.source, inst.target), (assignment,))


def layers_to_surface(polys, assignments) -> BandedSurface:
    """Build the surface over polygons stacked bottom to top, with one chord
    assignment per gap, each split as in `assignment_to_surface`.

    Vertex i of layer g is vertex g*n + i.  The bottom and top layers carry
    original labels (sides 0 and 1), every layer between them Steiner
    labels numbered upward; path i runs through vertex i of every layer.
    """
    n = polys[0].n
    m = len(polys)
    vertices = []
    steiner_id = 0
    for li, poly in enumerate(polys):
        for i in range(n):
            if li == 0:
                label = OriginalLabel(0, i)
            elif li == m - 1:
                label = OriginalLabel(1, i)
            else:
                label = SteinerLabel(steiner_id)
                steiner_id += 1
            vertices.append((poly.point3(i), label))
    # per chord, the getters that take its two faces from a quad's indices
    split = {
        Chord.RIGHT: [itemgetter(*triple) for triple in _QUAD_TRIPLES[:2]],
        Chord.LEFT: [itemgetter(*triple) for triple in _QUAD_TRIPLES[2:]],
    }
    faces: list[tuple[int, int, int]] = []
    band_faces: list[list[int]] = [[] for _ in range(n)]
    for g, assignment in enumerate(assignments):
        lo, hi = g * n, (g + 1) * n
        for i, choice in enumerate(assignment.choices):
            j = (i + 1) % n
            quad = (lo + i, lo + j, hi + j, hi + i)
            first, second = split[choice]
            band_faces[i].extend(range(len(faces), len(faces) + 2))
            faces += (first(quad), second(quad))
    paths = tuple(tuple(g * n + i for g in range(m)) for i in range(n))
    return BandedSurface(
        tuple(vertices),
        tuple(faces),
        tuple(frozenset(b) for b in band_faces),
        paths,
    )


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def _face_edges(face):
    a, b, c = face
    return ((a, b), (b, c), (c, a))


def _face_record(verts, plane) -> tuple:
    """A face's entry in the face pass: (x0, x1, y0, y1, z0, z1, ends,
    two_level, verts, plane).  The first six bound the face's closed box;
    ends holds the xy boxes of its vertices at z0 and at z1, as
    `geometry._end_boxes` lays them out (a horizontal face is its own
    bottom and top), and two_level says that z0 < z1 and no vertex lies
    strictly between them."""
    p, q, r = verts
    if p[2] == q[2]:
        lone, u, w = r, p, q
    elif q[2] == r[2]:
        lone, u, w = p, q, r
    elif r[2] == p[2]:
        lone, u, w = q, r, p
    else:  # three levels: the bottom and the top are single vertices
        lo, _, hi = sorted(verts, key=lambda v: v[2])
        xs, ys = (p[0], q[0], r[0]), (p[1], q[1], r[1])
        ends = (lo[0], lo[0], lo[1], lo[1], hi[0], hi[0], hi[1], hi[1])
        return (min(xs), max(xs), min(ys), max(ys), lo[2], hi[2], ends, False, verts, plane)
    lx, ly, lz = lone
    x0, x1 = (u[0], w[0]) if u[0] <= w[0] else (w[0], u[0])
    y0, y1 = (u[1], w[1]) if u[1] <= w[1] else (w[1], u[1])
    box = (x0 if x0 <= lx else lx, x1 if x1 >= lx else lx, y0 if y0 <= ly else ly, y1 if y1 >= ly else ly)
    if lz > u[2]:
        return (*box, u[2], lz, (x0, x1, y0, y1, lx, lx, ly, ly), True, verts, plane)
    if lz < u[2]:
        return (*box, lz, u[2], (lx, lx, ly, ly, x0, x1, y0, y1), True, verts, plane)
    return (*box, lz, lz, box + box, False, verts, plane)


def _check_topology(s: BandedSurface, points: list, faces: list, edges: dict) -> CheckResult:
    """The annulus checks on the mesh, with `points` its `_integer_points`.
    Each face's `_face_record` is appended to `faces` once the face has
    passed its own checks, and edges[(a, b)] = k is entered for each
    directed edge (a, b) of face k, so a pass leaves one record per face
    and the mesh's complete edge map.

    The checks are: every directed edge is used once (the winding is
    consistent, and an edge borders at most two faces, one per direction);
    every vertex is used; there are at least 3 paths, with 2n distinct end
    vertices; the boundary edges, those that border one face, are exactly
    the two cycles through the paths' first and through their last
    vertices, which are then disjoint and simple; the Euler characteristic
    V - E + F is 0; and the faces are connected through shared edges.
    They make the mesh K an annulus, so no per-vertex fan walk is needed:

    - The link of a vertex v (the edge bc of each face vbc) has degree at
      most 2, because an edge vb borders at most two faces.  So each link
      component is a path or a cycle; a path ends in the far ends of two
      boundary edges at v.  (A cycle of two link edges is two faces on the
      same three vertices, which share all their edges, so they would be
      a whole component with no boundary.)
    - Split every vertex into one copy per link component.  The result K'
      has the same edges and faces, each vertex link is one path or one
      cycle, and the winding is consistent, so K' is a connected
      orientable surface.  A boundary vertex of K has exactly two
      boundary edges, so it has one path component, and the boundary of
      K' is still the two cycles.  So chi(K') = 2 - 2g - 2 = -2g, where g
      is the genus of K'.
    - The split adds p >= 0 vertices, one per extra link component, and
      no edge or face, so chi(K) = chi(K') - p = -2g - p.  chi(K) = 0
      forces g = 0 and p = 0: no vertex is a pinch point, and K is an
      annulus.
    """
    nv = len(s.vertices)
    if len(s.bands) != len(s.paths):
        return CheckResult(False, "band count differs from path count")
    if len(set(points)) != nv:
        first = {}
        for idx, key in enumerate(points):
            if key in first:
                p = s.point(idx)
                return CheckResult(False, f"vertices {first[key]} and {idx} coincide at {(p.x, p.y, p.z)}")
            first[key] = idx

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

    for k, face in enumerate(s.faces):
        if len(set(face)) != 3:
            return CheckResult(False, f"face {k} is malformed: {face}")
        a, b, c = face
        if not (0 <= a < nv and 0 <= b < nv and 0 <= c < nv):
            return CheckResult(False, f"face {k} is malformed: {face}")
        verts = (points[a], points[b], points[c])
        record = _face_record(verts, _plane(*verts))
        if record[-1][:3] == (0, 0, 0):
            return CheckResult(False, f"face {k} is degenerate")
        ab, bc, ca = (a, b), (b, c), (c, a)
        if ab in edges or bc in edges or ca in edges:
            e = ab if ab in edges else bc if bc in edges else ca
            return CheckResult(False, f"directed edge {e} used twice: winding is inconsistent")
        edges[ab] = edges[bc] = edges[ca] = k
        faces.append(record)
    if len(set(itertools.chain.from_iterable(s.faces))) != nv:
        return CheckResult(False, "mesh has vertices not used by any face")

    n = len(s.paths)
    if n < 3:
        return CheckResult(False, f"{n} paths: an annulus needs at least 3")
    starts = [path[0] for path in s.paths]
    ends = [path[-1] for path in s.paths]
    if len(set(starts + ends)) != 2 * n:
        return CheckResult(False, "the paths' first and last vertices are not 2n distinct vertices")
    boundary = {(a, b) if a < b else (b, a) for a, b in edges if (b, a) not in edges}
    expected_boundary = {
        (a, b) if a < b else (b, a) for cycle in (starts, ends) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    }
    if boundary != expected_boundary:
        return CheckResult(False, "boundary edges are not exactly the two polygon cycles")

    # an inner edge is used in both directions, a boundary edge in one
    euler = nv - (len(edges) + len(boundary)) // 2 + len(s.faces)
    if euler != 0:
        return CheckResult(False, f"Euler characteristic is {euler}, expected 0 for an annulus")

    # face connectivity through shared edges: face g across edge (a, b) of
    # face f is the one that uses (b, a)
    stack, seen = [0], {0}
    while stack:
        a, b, c = s.faces[stack.pop()]
        for e in ((b, a), (c, b), (a, c)):
            g = edges.get(e)
            if g is not None and g not in seen:
                seen.add(g)
                stack.append(g)
    if len(seen) != len(s.faces):
        return CheckResult(False, "surface is not connected")

    # band faces must stay between their two paths
    for b, members in enumerate(s.bands):
        allowed = set(s.paths[b]).union(s.paths[(b + 1) % n])
        for f in members:
            if not allowed.issuperset(s.faces[f]):
                return CheckResult(False, f"face {f} of band {b} uses vertices off its paths")
    return CheckResult(True)


def _check_paths(s: BandedSurface, edges, points, kz) -> CheckResult:
    """The path checks; `edges` holds every directed edge of every face, so
    a mesh edge is in it in at least one direction, and `points` and the z
    factor `kz` are as `_integer_points` gives them, so that z = 0 and
    z = 1 are the integer levels 0 and kz.  The path ends must be source
    and target vertex i of path i, and no other vertex may carry an
    `OriginalLabel`: a count of 2n such labels then settles it."""
    used: dict[int, int] = {}
    for i, path in enumerate(s.paths):
        if len(path) < 2:
            return CheckResult(False, f"path {i} is too short")
        for v in path:
            if v in used:
                return CheckResult(False, f"paths {used[v]} and {i} share vertex {v}")
            used[v] = i
        zs = [points[v][2] for v in path]
        if zs[0] != 0 or zs[-1] != kz:
            return CheckResult(False, f"path {i} does not run from z=0 to z=1")
        # the labels' dataclass equality, with no label built to compare
        first, last = s.vertices[path[0]][1], s.vertices[path[-1]][1]
        if not (
            type(first) is OriginalLabel
            and type(last) is OriginalLabel
            and (first.slice, first.index, last.slice, last.index) == (0, i, 1, i)
        ):
            return CheckResult(False, f"path {i} endpoints are not source/target vertex {i}")
        for a, b in zip(zs, zs[1:]):
            if not a < b:
                return CheckResult(False, f"path {i} is not strictly z-increasing")
        for a, b in zip(path, path[1:]):
            if (a, b) not in edges and (b, a) not in edges:
                return CheckResult(False, f"path {i} uses ({a},{b}) which is not a mesh edge")
    if sum(isinstance(label, OriginalLabel) for _, label in s.vertices) != 2 * len(s.paths):
        return CheckResult(False, "a vertex other than the path ends carries an original label")
    return CheckResult(True)


_STRICT_SIDES = ((1, 1, 1), (-1, -1, -1))


def _face_cells(bands, faces) -> list:
    """The cells of the face pass, as (x0, x1, y0, y1, z0, z1, ends,
    two_level, quad, members) tuples: the first eight are laid out as in a
    `_face_record`, and `members` holds the cell's face indices into
    `faces`, the `_face_record`s of the mesh whose faces `bands`
    partitions.

    A band's faces whose vertices lie on the same two levels z0 < z1, and
    take exactly two points at each level, form one cell.  Its quad holds
    those points, the two bottom ones and then the two top ones, each pair
    sorted, so that it depends only on the points and not on the chord;
    every face of the cell lies in the hull of the quad, its end boxes are
    `geometry._end_boxes` of the quad and its box is their union,
    `geometry._box` of them.  Every other face is a cell on its own, with
    no quad."""
    cells = []
    for members in bands:
        slabs: dict = {}
        for k in members:
            f = faces[k]
            if f[7]:
                slabs.setdefault((f[4], f[5]), []).append(k)
            else:
                cells.append(f[:8] + (None, (k,)))
        for (z0, z1), ks in slabs.items():
            bottom, top = set(), set()
            for k in ks:
                for p in faces[k][8]:
                    if p[2] == z0:
                        bottom.add(p)
                    else:
                        top.add(p)
            if len(bottom) != 2 or len(top) != 2:
                cells.extend(faces[k][:8] + (None, (k,)) for k in ks)
                continue
            a, b = bottom
            if b < a:
                a, b = b, a
            c, e = top
            if e < c:
                c, e = e, c
            quad = (a, b, c, e)
            ends = _end_boxes(quad)
            cells.append((*_box(ends), z0, z1, ends, True, quad, tuple(ks)))
    return cells


def _faces_meet(f, g) -> bool:
    """Whether the faces of the `_face_record`s f and g meet outside a
    vertex or edge they share, from their integer vertex triples and planes
    alone, by the first that applies of these exact tests, with no point or
    triangle object built:

    - f's vertex sides of g's plane.  All strictly on one side: the faces
      miss.  Exactly two on the plane, and both vertices of g: the faces
      share an edge in crossing planes, and meet in exactly that edge.
    - Otherwise g's sides of f's plane, and `geometry._triangles_meet`,
      which decides coplanar pairs too.

    The face pass filters its pairs by box, level touch and end boxes on
    cells before it calls this."""
    vf, vg = f[8], g[8]
    nx, ny, nz, off = g[9]
    a, b, c = vf
    da = nx * a[0] + ny * a[1] + nz * a[2]
    db = nx * b[0] + ny * b[1] + nz * b[2]
    dc = nx * c[0] + ny * c[1] + nz * c[2]
    sf = (
        1 if da > off else -1 if da < off else 0,
        1 if db > off else -1 if db < off else 0,
        1 if dc > off else -1 if dc < off else 0,
    )
    if sf in _STRICT_SIDES or sf.count(0) == 2 and (a in vg) + (b in vg) + (c in vg) == 2:
        return False
    mx, my, mz, moff = f[9]
    (px, py, pz), (qx, qy, qz), (rx, ry, rz) = vg
    dp = mx * px + my * py + mz * pz
    dq = mx * qx + my * qy + mz * qz
    dr = mx * rx + my * ry + mz * rz
    sg = (
        1 if dp > moff else -1 if dp < moff else 0,
        1 if dq > moff else -1 if dq < moff else 0,
        1 if dr > moff else -1 if dr < moff else 0,
    )
    return _triangles_meet(vf, sf, vg, sg)


class _CleanLevels(dict):
    """Whether each z level of the `_face_record`s `faces` is clean, by
    level, computed at its first lookup.  A level is clean when every mesh
    edge with both ends on it meets every other such edge only in shared
    endpoints, and no vertex on it lies on such an edge but at an end:
    `geometry._meet_only_at_ends` on the level's edges and on its lone
    vertices, those at no end of one, as points.  The first lookup takes
    every level's edges and vertices from one pass over the records."""

    def __init__(self, faces):
        super().__init__()
        self.faces = faces
        self.parts = None

    def __missing__(self, z):
        if self.parts is None:
            self.parts = {}
            for f in self.faces:
                a, b, c = f[8]
                for p, q in ((a, b), (b, c), (c, a)):
                    edges, points = self.parts.setdefault(p[2], (set(), set()))
                    points.add(p[:2])
                    if p[2] == q[2]:
                        edges.add((p[:2], q[:2]) if p < q else (q[:2], p[:2]))
        edges, points = self.parts[z]
        ends = {p for edge in edges for p in edge}
        verdict = self[z] = _meet_only_at_ends([*edges, *((p, p) for p in points - ends)])
        return verdict


def _check_face_intersections(bands, faces) -> CheckResult:
    """No two faces meet outside a vertex or edge they share; `faces` holds
    the `_face_record`s that `_check_topology` leaves, `bands` the mesh's
    partition of them into bands, and the first pair found that does is
    reported.

    The pass sweeps cells before faces: a band's faces on the same two
    levels, whose hull is that of the quad of their two bottom and two top
    points, are one cell, and every other face is a cell on its own
    (`_face_cells`).  The cells are swept in order of min-x, ties by their
    order in `_face_cells`, with an active list of the earlier cells whose
    max-x reaches the current min-x, as `geometry._box_pairs` sweeps boxes.
    The faces of a cell are first tested pairwise, in their order in the
    cell, with no filter: they share the chord.  Two cells whose closed
    boxes meet are then dismissed by the first that applies of these exact
    tests on cells, which hold for every face of each:

    - Level touch.  When the z-ranges meet in one level, the cells can
      meet only at that level, in their parts there; parts with disjoint
      xy boxes never meet.
    - Clean level.  Two two-level cells whose z-ranges meet in one level
      z are apart when z is clean (`_CleanLevels`), which is checked the
      first time such a pair reaches this test at z.
    - End boxes.  Two cells with vertices at the same two levels and no
      other are apart when `geometry._ends_apart` holds for their end
      boxes; that test is written out here, since it runs on most pairs of
      a one-gap surface.
    - Quads.  Two cells with quads, on the same two levels, are dismissed
      by `geometry._quads_apart` on their 8 xy differences: the sections
      lemma, or a plane through the one bottom and one top point they
      share.

    Every face pair across two cells that no test dismisses, and whose
    closed xy boxes meet, goes through `_faces_meet`, the earlier cell's
    face first; a face's z-range is its cell's, which the cell pair's box
    test has met.  Every dismissed pair is proper, so the first improper
    pair is the one the undismissed sweep would report.

    Lemma (clean level).  Let F and G be two-level faces, F with its
    vertices on the levels a < z and G on z < b.  If z is clean, F and G
    meet at most in a vertex or edge they share.

    Proof.  F lies in the slab a <= z' <= z and G in z <= z' <= b, so they
    meet only in the plane z' = z.  A triangle's part in that plane is the
    hull of its vertices there, and F has one or two: a vertex, or an edge
    of F, which is a mesh edge with both ends at z; so is G's part.  Two
    such edges meet only in shared endpoints, a vertex that is on an edge
    is one of its ends, and two vertices meet only when equal.  So every
    common point of F and G is a vertex of both, and when they have two,
    the parts are one edge, which both share.  Each cell of a two-level
    cell pair holds only two-level faces on its own two levels, so the
    lemma clears every face pair across it, and keeping the one global
    sweep keeps the order in which the rest are tested."""
    clean = _CleanLevels(faces)
    active = []
    for cell in sorted(_face_cells(bands, faces), key=itemgetter(0)):
        x0, x1, y0, y1, z0, z1, ke, k2, kq, km = cell
        active = [a for a in active if a[0] >= x0]
        for j, k in itertools.combinations(km, 2):
            if _faces_meet(faces[j], faces[k]):
                return CheckResult(False, f"faces {j} and {k} intersect improperly")
        for _, v0, v1, w0, w1, je, j2, jq, jm in active:
            if v0 > y1 or y0 > v1 or w0 > z1 or z0 > w1:
                continue
            if w1 == z0 or z1 == w0:
                lo, hi = (je, ke) if w1 == z0 else (ke, je)
                if lo[5] < hi[0] or hi[1] < lo[4] or lo[7] < hi[2] or hi[3] < lo[6]:
                    continue
                if j2 and k2 and clean[z0 if w1 == z0 else w0]:
                    continue
            elif j2 and k2 and w0 == z0 and w1 == z1:
                if (
                    je[1] < ke[0] and je[5] < ke[4]
                    or ke[1] < je[0] and ke[5] < je[4]
                    or je[3] < ke[2] and je[7] < ke[6]
                    or ke[3] < je[2] and ke[7] < je[6]
                ):
                    continue
                if jq is not None and kq is not None and _quads_apart(_xy_differences(jq, kq)):
                    continue
            for j in jm:
                fj = faces[j]
                fx0, fx1, fy0, fy1 = fj[:4]
                for k in km:
                    fk = faces[k]
                    if fk[0] <= fx1 and fx0 <= fk[1] and fk[2] <= fy1 and fy0 <= fk[3] and _faces_meet(fj, fk):
                        return CheckResult(False, f"faces {j} and {k} intersect improperly")
        active.append(cell[1:])
    return CheckResult(True)


def _z_levels(s: BandedSurface) -> list:
    """The distinct vertex z-levels together with 0 and 1, in increasing
    order: consecutive levels bound the surface's open slabs."""
    return sorted({p.z for p, _ in s.vertices} | {0, 1})


def perturbed_level(s: BandedSurface, t: Fraction) -> Fraction:
    """t itself if no vertex sits at that level, else the midpoint of the
    slab just above it."""
    t = Fraction(t)
    levels = _z_levels(s)
    if t not in levels:
        return t
    above = next((z for z in levels if z > t), 1)
    return (t + above) / 2


def cross_section(s: BandedSurface, t) -> LabeledPolygon:
    """Intersect the surface with the plane z=t and chain the result into one
    simple closed polygon, returned at `z_level` t; any other outcome raises
    SectionError.

    The work is done in integers: x, y and z (with t) are scaled by one
    positive factor per axis, and `_section_cycle` computes each crossing
    edge's point once over one common denominator.  Such a scaling keeps
    the lexicographic order of points, simplicity and orientation, so the
    chain and the verdicts are those of the rational points; only the
    returned polygon is built in Fractions.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("section level must satisfy 0 < t < 1")
    pts3 = [p for p, _ in s.vertices]
    kx, xs = _integer_axis([p.x for p in pts3])
    ky, ys = _integer_axis([p.y for p in pts3])
    kz, zs = _integer_axis([p.z for p in pts3] + [t])
    level = zs.pop()
    if level in set(zs):
        raise PreconditionError(f"section level {t} hits a vertex; retry slightly off")
    # no vertex lies on the level, so a face crosses it iff one or two of
    # its vertices lie below
    crossing = [k for k, (a, b, c) in enumerate(s.faces) if 0 < (zs[a] < level) + (zs[b] < level) + (zs[c] < level) < 3]
    cycle, w = _section_cycle(list(zip(xs, ys)), zs, s.faces, crossing, level, (kx, ky, kz))
    if polygon_signed_area2(cycle) < 0:
        cycle.reverse()
    polygon = tuple(Point2(Fraction(x, kx * w), Fraction(y, ky * w)) for x, y in cycle)
    return LabeledPolygon(polygon, t)


def _section_cycle(points, zs, faces, crossing, level, scale) -> tuple[list[Point2], int]:
    """The section at the integer `level` through the faces numbered in
    `crossing`, those with vertices on both sides of it, chained into one
    cycle.  `points` and `zs` hold each vertex's integer x, y and z, and no
    vertex lies on the level.  Returns the cycle as integer `Point2`s (x, y)
    and their common denominator w > 0: x/w and y/w are the crossing
    points' scaled coordinates.  Raises SectionError unless the section is
    one simple closed polygon; `scale`, the factors (kx, ky, kz) that took
    the rational coordinates to the integer ones, only serves its messages.

    The segments are chained by point.  Once topology and the face pass
    have passed, chaining by crossing edge would agree: two different
    edges never cross a level that holds no vertex at one point, since that
    point would be a common point of their faces outside a vertex or edge
    they share."""
    kx, ky, kz = scale
    if not crossing:
        raise SectionError(f"no face crosses the plane z={Fraction(level, kz)}")
    # each crossing edge, keyed by its sorted vertex pair, maps to its point
    # at the level as (x, y, w) with x/w, y/w the scaled coordinates, w > 0
    edge_points: dict[tuple[int, int], tuple[int, int, int]] = {}
    face_edges = []
    for k in crossing:
        a, b, c = faces[k]
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
                    points[lo][0] * above + points[hi][0] * below,
                    points[lo][1] * above + points[hi][1] * below,
                    above + below,
                )
        face_edges.append((k, keys))
    w = math.lcm(*(pw for _, _, pw in edge_points.values()))
    scaled = {key: (px * (w // pw), py * (w // pw)) for key, (px, py, pw) in edge_points.items()}

    segments = []
    for k, (e, f) in face_edges:
        if scaled[e] == scaled[f]:
            raise SectionError(f"face {k} has an unexpected section at t={Fraction(level, kz)}")
        segments.append((scaled[e], scaled[f]))
    incidence: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        incidence.setdefault(p, []).append(idx)
        incidence.setdefault(q, []).append(idx)
    for (x, y), ids in incidence.items():
        if len(ids) != 2:
            where = f"({Fraction(x, kx * w)}, {Fraction(y, ky * w)})"
            raise SectionError(f"section point {where} touches {len(ids)} segments; cannot chain")

    start = min(incidence)
    cycle, current, idx = [start], start, incidence[start][0]
    while True:
        p, q = segments[idx]
        current = q if p == current else p
        if current == start:
            break
        cycle.append(current)
        f, g = incidence[current]
        idx = g if f == idx else f
    if len(cycle) != len(segments):
        raise SectionError("section chains into more than one cycle; surface is not monotone here")
    t = Fraction(level, kz)
    if len(cycle) < 3:
        raise SectionError(f"section at t={t} closes after {len(cycle)} points; not a polygon")
    cycle = [Point2(x, y) for x, y in cycle]
    if not polygon_is_simple(cycle):
        raise SectionError(f"section at t={t} is not a simple polygon")
    return cycle, w


def _check_sections(s: BandedSurface, points, scale) -> CheckResult:
    """One section per open slab between consecutive vertex z-levels, at
    its midpoint, by `_section_cycle`: the re-check that
    `verify_banded_surface` runs under force_sections=True.  `points` and
    `scale` are as `_integer_points` gives them.

    Once topology, paths and the face-pair check have passed, one section
    per slab is a complete check:

    - Every vertex lies on a path with z in [0, 1].  Topology requires every
      vertex to be used by a face, every face to belong to a band, and a
      band's faces to use only vertices of its two paths; each path runs
      strictly upward from z = 0 to z = 1.  So the vertex levels, with 0
      and 1, cut (0, 1) into open slabs, and every level lies in one slab
      or on a vertex level.
    - Within an open slab no vertex lies on the plane, so the faces and
      edges that cross it are the same at every level of the slab, and
      each crossing point moves linearly with the level.  Each crossing
      face cuts a proper segment between two of its crossing edges, and
      the path edges make the section non-empty.  The chaining of the
      segments (which points join, into how many cycles) can then change
      only where two crossing points of different edges coincide, and a
      simple section stops being simple only where two of its segments
      meet outside a shared point.  Either is a common point of two faces
      outside a vertex or edge they share, which the face-pair check has
      excluded at every level.  So the verdict is constant on each slab,
      and one section at each slab's midpoint decides every level in
      (0, 1) that no vertex sits on, including every level a sampler of
      fixed levels would test.

    The integer z coordinates of `points` are doubled, so that each slab
    midpoint is an integer level, and the faces are swept upward: a face
    crosses every slab from its lowest vertex level to its highest.
    `cross_section` shares `_section_cycle` with this check, so the two
    give the same verdict at each of those levels."""
    zs = [2 * p[2] for p in points]
    kx, ky, kz = scale
    levels = sorted(set(zs))
    tops = []
    rising: dict[int, list[int]] = {}  # lowest level -> faces that rise from it
    for k, (a, b, c) in enumerate(s.faces):
        za, zb, zc = zs[a], zs[b], zs[c]
        bottom, top = (za, zb) if za <= zb else (zb, za)
        if zc < bottom:
            bottom = zc
        elif zc > top:
            top = zc
        tops.append(top)
        if bottom < top:
            rising.setdefault(bottom, []).append(k)
    crossing: list[int] = []
    for lo, hi in zip(levels, levels[1:]):
        crossing = [k for k in crossing if tops[k] > lo] + rising.get(lo, [])
        try:
            _section_cycle(points, zs, s.faces, crossing, (lo + hi) // 2, (kx, ky, 2 * kz))
        except SectionError as exc:
            return CheckResult(False, str(exc))
    slabs = len(levels) - 1
    return CheckResult(True, f"sectioned {slabs} slab{'s' if slabs != 1 else ''}")


def verify_banded_surface(
    s: BandedSurface,
    *,
    force_sections: bool = False,
) -> VerificationReport:
    """Run the four certification checks and report per-check verdicts.

    The vertices are scaled onto integers once, one positive factor per
    axis, which keeps every verdict; as in every function that scales
    coordinates, `geometry._integer_axis` raises `InputError` on a float
    there.  The topology check proves the mesh an annulus from counts and
    edge incidences alone (the argument is in `_check_topology`); its one
    pass over the faces also leaves the edge map that the path check
    reads, and each face's integer vertices, plane, box and end boxes for
    the face-pair check.  That check sweeps the mesh's cells, a band's
    faces in one slab, before their faces, and stops at the first improper
    pair (`_check_face_intersections` gives its exact filters).
    Later checks assume structurally sound input, so they are skipped
    (marked failed with a note) when the topology check already failed
    hard.

    Sections.  `monotone_sections` runs only once topology, paths and the
    face-pair check have passed, and then it passes on a proof: every level
    z = t in (0, 1) that no vertex sits on cuts the surface in one simple
    cycle.

    - The boundary edges are the two cycles through the paths' ends, at
      z = 0 and z = 1, and every vertex lies on a path, which runs strictly
      upward from z = 0 to z = 1.  So every edge that crosses the level is
      interior and borders two faces, each crossing face cuts one segment
      (a face is not degenerate), and the section is a union of closed
      curves in the annulus.
    - A curve that bounds a disk would need a path to cross it twice: the
      disk holds a vertex of a face it cuts, that vertex lies on a path,
      and the path's ends lie on the boundary, outside the disk.  A path
      crosses the level once, so there is no such curve.
    - Every other curve separates the two boundary cycles, so each path
      crosses it; each path crosses the level once, so there is exactly one
      such curve.
    - Two of its segments that met outside a shared end would be a common
      point of two faces outside a vertex or edge they share, which the
      face-pair check has excluded.  So the curve is simple.

    force_sections=True re-checks that by sectioning every slab
    (`_check_sections`, which gives why one section per slab is complete).
    """
    faces: list = []
    edges: dict = {}
    nv = len(s.vertices)
    try:
        # a negative index would read a real vertex from the end
        if any(not 0 <= v < nv for path in s.paths for v in path):
            raise MeshStructureError(f"malformed mesh: a path index is outside [0, {nv})")
        points, scale = _integer_points(s)
        topo = _check_topology(s, points, faces, edges)
        if not topo.passed:
            edges = {e for face in s.faces for e in _face_edges(face)}
        paths = _check_paths(s, edges, points, scale[2])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise MeshStructureError(f"malformed mesh: {exc}") from exc
    if not topo.passed:
        skipped = CheckResult(False, "skipped: topology check failed")
        return VerificationReport(topo, paths, skipped, skipped)
    inter = _check_face_intersections(s.bands, faces)
    if not inter.passed:
        sections = CheckResult(False, "skipped: face intersection check failed")
    elif not paths.passed:
        sections = CheckResult(False, "skipped: path check failed")
    elif not force_sections:
        sections = CheckResult(True, "structural: paths and face pass force one simple cycle per level")
    else:
        sections = _check_sections(s, points, scale)
    return VerificationReport(topo, paths, inter, sections)
