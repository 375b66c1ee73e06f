"""File formats: instance documents, OFF/OBJ meshes, band sidecars, sections.

All coordinates are written exactly: plain decimals when the denominator
allows it, `p/q` fraction strings otherwise, so that save/load round-trips
bit-identically.  Standard OFF/OBJ viewers that cannot digest fractions can
be served with `floats=True` (lossy, for inspection only).
"""

from __future__ import annotations

import contextlib
import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import InputError, ParseError
from .geometry import Point3, _is_ear
from .model import (
    BandedSurface,
    LabeledPolygon,
    OriginalLabel,
    Point2,
    SliceInstance,
    SteinerLabel,
)

_DECIMAL_RE = re.compile(r"^-?(\d+)(\.\d+)?$")
_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")


def parse_rational(text) -> int | Fraction:
    """Exact rational from an int, or from a decimal string like '-12.625'
    or 'p/q'; a bool is not a number here.  An integral value is an int,
    which the exact kernels take without `Fraction` arithmetic, and any
    other value a `Fraction`; the two compare and hash alike."""
    if type(text) is int:
        return text
    if not isinstance(text, str):
        raise ParseError(f"expected a number string, got {text!r}")
    s = text.strip()
    m = _FRACTION_RE.match(s)
    if m and int(m.group(2)) == 0:
        raise ParseError(f"zero denominator in {text!r}")
    if not (m or _DECIMAL_RE.match(s)):
        raise ParseError(f"not a finite decimal or fraction: {text!r}")
    value = Fraction(s)
    return value.numerator if value.denominator == 1 else value


def format_rational(value) -> str:
    """Exact text for a rational: decimal when finite, else 'p/q'."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}" if digits else f"{sign}{body}"


def _num(value, floats: bool) -> str:
    return repr(float(value)) if floats else format_rational(value)


def _read_text(path) -> str:
    """The file's text; an unreadable file is an InputError, and one that
    does not decode a ParseError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from exc


def _read_json(path):
    """The file's JSON document; text that is not JSON is a ParseError at
    its line and column."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# instance documents
# ---------------------------------------------------------------------------


def _polygon_from_doc(rows, z_level, field: str) -> LabeledPolygon:
    pts = []
    for k, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ParseError(f"{field}[{k}] must be a pair [x, y]")
        pts.append(Point2(parse_rational(row[0]), parse_rational(row[1])))
    return LabeledPolygon(tuple(pts), z_level)


def instance_from_document(doc: dict) -> SliceInstance:
    for field in ("P", "Pprime"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
        if not isinstance(doc[field], list):
            raise ParseError(f"{field} must be a list of pairs [x, y]")
    src = _polygon_from_doc(doc["P"], 0, "P")
    tgt = _polygon_from_doc(doc["Pprime"], 1, "Pprime")
    if "n" in doc and doc["n"] != src.n:
        raise ParseError(f"declared n={doc['n']} but P has {src.n} vertices")
    if src.n != tgt.n:
        raise ParseError(f"P has {src.n} vertices but Pprime has {tgt.n}")
    return SliceInstance(src, tgt)


def instance_to_document(inst: SliceInstance, name=None, metadata=None) -> dict:
    doc = {
        "n": inst.n,
        "P": [[format_rational(p.x), format_rational(p.y)] for p in inst.source.vertices],
        "Pprime": [[format_rational(p.x), format_rational(p.y)] for p in inst.target.vertices],
    }
    if name:
        doc["name"] = name
    if metadata:
        doc["metadata"] = metadata
    return doc


def load_instance(path) -> SliceInstance:
    """The instance of a JSON document; every ParseError names the file."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    try:
        return instance_from_document(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_instance(inst: SliceInstance, path, name=None, metadata=None) -> None:
    doc = instance_to_document(inst, name, metadata)
    _write_text(path, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def _cap_faces(surface: BandedSurface) -> list[tuple[int, int, int]]:
    """The two caps' triangles, by ear clipping each end polygon of the
    paths: the first vertex that is an ear (`_is_ear`) is clipped until a
    triangle is left.  The bottom cap's triangles face downward."""
    faces = []
    for end in (0, -1):
        ring = [path[end] for path in surface.paths]
        pts = [surface.point(v).xy for v in ring]
        cap = []
        while len(ring) > 3:
            n = len(ring)
            k = next((k for k in range(n) if _is_ear(pts, (k - 1) % n, k, (k + 1) % n)), None)
            if k is None:
                raise InputError("cap triangulation found no ear; polygon may be non-simple")
            cap.append((ring[k - 1], ring[k], ring[(k + 1) % n]))
            del ring[k], pts[k]
        cap.append(tuple(ring))
        faces += [(c, v, a) for a, v, c in cap] if end == 0 else cap
    return faces


def export_mesh(
    surface: BandedSurface,
    fmt: str,
    path,
    *,
    include_caps: bool = False,
    floats: bool = False,
) -> None:
    """Write the mesh as OFF or OBJ, plus a `.bands.json` sidecar holding the
    band/path/label structure needed to re-verify after re-import.  When the
    sidecar cannot be written, the mesh just written is removed again."""
    fmt = fmt.lower()
    if fmt not in ("off", "obj"):
        raise InputError(f"unknown mesh format {fmt!r}")
    faces = list(surface.faces)
    if include_caps:
        faces += _cap_faces(surface)
    lines = []
    if fmt == "off":
        edges = set()
        for face in faces:
            for k in range(3):
                e = (face[k], face[(k + 1) % 3])
                edges.add((min(e), max(e)))
        lines.append("OFF")
        lines.append(f"{len(surface.vertices)} {len(faces)} {len(edges)}")
        for p, _ in surface.vertices:
            lines.append(f"{_num(p.x, floats)} {_num(p.y, floats)} {_num(p.z, floats)}")
        for face in faces:
            lines.append(f"3 {face[0]} {face[1]} {face[2]}")
    else:
        for p, _ in surface.vertices:
            lines.append(f"v {_num(p.x, floats)} {_num(p.y, floats)} {_num(p.z, floats)}")
        for face in faces:
            lines.append(f"f {face[0] + 1} {face[1] + 1} {face[2] + 1}")
    _write_text(path, "\n".join(lines) + "\n")
    try:
        save_bands(surface, str(path) + ".bands.json")
    except InputError:
        # a mesh without its sidecar cannot be re-verified: leave neither,
        # and report the sidecar even when the mesh cannot be removed
        with contextlib.suppress(OSError):
            Path(path).unlink()
        raise


def _label_to_doc(label):
    if isinstance(label, OriginalLabel):
        return {"kind": "original", "slice": label.slice, "index": label.index}
    if isinstance(label, SteinerLabel):
        return {"kind": "steiner", "id": label.ident}
    raise InputError(f"unknown vertex label {label!r}")


_LABEL_FIELDS = {"original": ("slice", "index"), "steiner": ("id",)}


def _label_from_doc(doc, path):
    fields = _LABEL_FIELDS.get(doc.get("kind")) if isinstance(doc, dict) else None
    if fields is None:
        raise ParseError(f"{path}: unknown label document {doc!r}")
    if not all(type(doc.get(field)) is int for field in fields):
        raise ParseError(f"{path}: label {doc!r} needs integer fields {', '.join(fields)}")
    if doc[fields[-1]] < 0 or doc["kind"] == "original" and doc["slice"] not in (0, 1):
        raise ParseError(f"{path}: label {doc!r} is out of range: slice is 0 or 1, {fields[-1]} at least 0")
    if doc["kind"] == "original":
        return OriginalLabel(doc["slice"], doc["index"])
    return SteinerLabel(doc["id"])


def save_bands(surface: BandedSurface, path) -> None:
    doc = {
        "n": surface.n,
        "labels": [_label_to_doc(label) for _, label in surface.vertices],
        "bands": [sorted(b) for b in surface.bands],
        "paths": [list(p) for p in surface.paths],
    }
    _write_text(path, json.dumps(doc) + "\n")


def read_off(path) -> tuple[list, list]:
    """Vertices (Point3 triples as rationals) and faces from an OFF file; a
    negative count or an index out of range is a `ParseError`."""
    raw = _read_text(path)
    tokens: list[tuple[str, int]] = []
    for ln, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            tokens.append((tok, ln))
    if not tokens or tokens[0][0] != "OFF":
        raise ParseError(f"{path}: missing OFF header", line=1)
    pos = 1

    def take(kind: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"{path}: unexpected end of file while reading {kind}")
        tok = tokens[pos]
        pos += 1
        return tok

    def take_int(kind: str, below: int | None = None) -> int:
        tok, ln = take(kind)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"{path}: expected integer {kind}, got {tok!r}", line=ln)
        if below is not None and not 0 <= value < below:
            raise ParseError(f"{path}: {kind} {value} outside [0, {below})", line=ln)
        if value < 0:
            raise ParseError(f"{path}: {kind} {value} is negative", line=ln)
        return value

    nv, nf, _ne = take_int("vertex count"), take_int("face count"), take_int("edge count")
    vertices = []
    for _ in range(nv):
        coords = []
        for axis in "xyz":
            tok, ln = take(f"vertex {axis}")
            try:
                coords.append(parse_rational(tok))
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}", line=ln) from exc
        vertices.append(Point3(*coords))
    faces = []
    for _ in range(nf):
        arity = take_int("face arity")
        if arity != 3:
            raise ParseError(f"{path}: only triangle faces supported, got {arity}-gon")
        faces.append(tuple(take_int("face index", nv) for _ in range(3)))
    return vertices, faces


def load_surface(mesh_path, bands_path) -> BandedSurface:
    """Rebuild a full banded surface from an OFF file and its band sidecar."""
    vertices, faces = read_off(mesh_path)
    doc = _read_json(bands_path)
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise ParseError(f"{bands_path}: expected a JSON object with a 'labels' list")
    for field in ("bands", "paths"):
        rows = doc.get(field)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError(f"{bands_path}: {field!r} must be a list of index lists")
        if not all(type(k) is int for row in rows for k in row):
            raise ParseError(f"{bands_path}: {field!r} holds a non-integer index")
    labels = [_label_from_doc(d, bands_path) for d in doc["labels"]]
    if len(labels) != len(vertices):
        raise ParseError(
            f"{bands_path}: {len(labels)} labels for {len(vertices)} mesh vertices"
        )
    for b, row in enumerate(doc["bands"]):
        for f in row:
            if not 0 <= f < len(faces):
                raise ParseError(f"{bands_path}: band {b} face index {f} outside [0, {len(faces)})")
    n_band_faces = sum(len(b) for b in doc["bands"])
    if n_band_faces != len(faces):
        raise ParseError(f"{bands_path}: band structure covers {n_band_faces} of {len(faces)} faces")
    return BandedSurface(
        tuple(zip(vertices, labels)),
        tuple(tuple(f) for f in faces),
        tuple(frozenset(b) for b in doc["bands"]),
        tuple(tuple(p) for p in doc["paths"]),
    )


def mesh_only_surface(mesh_path) -> BandedSurface:
    """A bands-free wrapper around a raw OFF mesh, enough for sectioning."""
    vertices, faces = read_off(mesh_path)
    labels = [SteinerLabel(i) for i in range(len(vertices))]
    return BandedSurface(tuple(zip(vertices, labels)), tuple(tuple(f) for f in faces), (), ())


def export_section(section: LabeledPolygon, path=None) -> str:
    """The section polygon as a JSON closed polyline, its `z_level` as "t"."""
    doc = {
        "t": format_rational(section.z_level),
        "closed": True,
        "points": [[format_rational(p.x), format_rational(p.y)] for p in section.vertices],
    }
    text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        _write_text(path, text)
    return text
