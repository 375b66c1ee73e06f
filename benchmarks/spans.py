"""Span tracer for the traced run, installed from outside the library.

Timing wrappers replace the module attributes that each caller reads, after
`banded` is imported, so no library code changes.  A caller that imported a
name at load time keeps its own binding (`banded.solver.open_triangles_intersect_3d`
is not `banded.model.open_triangles_intersect_3d`), so each binding is wrapped
on its own and tagged with the caller's module.  Names that the library
imports inside a function body (`banded.morph.morph_position` in `steiner`,
`banded.quadfield.roots_in_open_interval` in `morph`) are read from their
home module at call time, so wrapping the home module covers them.

Only calls made inside an operation span are recorded; calls made while the
benchmark builds its corpus or checks outputs pass straight through.  Each
recorded call is one span (name, start, end, parent) kept in flat arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.build_depth = 0  # open build_layered_surface spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A stand-in for fn that records a span named `name` per call made
        inside an operation, then hands (result, args) to `after`."""
        stack = self.stack
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the durations of direct children; spans never overlap their
        siblings, because the run is single-threaded)."""
        m = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(m)]
        child = [0.0] * m
        parent = self.parent
        for i in range(m):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(m):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: str, meta: dict) -> None:
        """Spans as four little-endian arrays in one .bin file, described by
        a .json file beside it."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                a = array(arr.typecode, arr)
                if sys.byteorder != "little":
                    a.byteswap()
                a.tofile(fh)
        layout = {
            "spans": len(self.start),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "counts": self.counts,
            **meta,
        }
        with open(path + ".json", "w") as fh:
            json.dump(layout, fh, indent=1, sort_keys=True)


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics name, on each
    binding a caller reads."""
    import banded.geometry as geometry
    import banded.model as model
    import banded.morph as morph
    import banded.quadfield as quadfield
    import banded.solver as solver
    import banded.steiner as steiner
    import banded.twosat as twosat

    t = tracer

    def patch(module, attr, name, after=None):
        setattr(module, attr, t.wrap(name, getattr(module, attr), after))

    def under_build(key):
        def after(_result, _args):
            if t.build_depth:
                t.count(key)
        return after

    def clauses(result, _args):
        t.count("solver.clauses", len(result[1]))

    def two_sat(key):
        def after(result, _args):
            t.count(key + ".calls")
            if result.satisfiable:
                t.count(key + ".sat")
        return after

    # geometry, on each caller's binding
    for module, tag in ((geometry, "geometry"), (solver, "solver"), (model, "model")):
        patch(module, "open_triangles_intersect_3d", f"geometry.open_triangles_intersect_3d@{tag}")
    for module, tag in ((geometry, "geometry"), (model, "model"), (steiner, "steiner")):
        patch(module, "polygon_is_simple", f"geometry.polygon_is_simple@{tag}")

    # solver
    for module, tag in ((solver, "solver"), (steiner, "steiner")):
        patch(module, "solve_no_steiner", f"solver.solve_no_steiner@{tag}")
        patch(module, "build_conflict_table", f"solver.build_conflict_table@{tag}")
        patch(module, "build_clauses", f"solver.build_clauses@{tag}", clauses)

    # twosat
    for module, tag in ((solver, "solver"), (steiner, "steiner")):
        patch(module, "solve_2sat", f"twosat.solve_2sat@{tag}", two_sat(f"twosat@{tag}"))

    # steiner
    original_build = steiner.build_layered_surface

    def build_layered_surface(*args, **kwargs):
        t.build_depth += 1
        try:
            return original_build(*args, **kwargs)
        finally:
            t.build_depth -= 1

    steiner.build_layered_surface = t.wrap("steiner.build_layered_surface", build_layered_surface)

    # model
    model.SliceInstance.validate = t.wrap("model.validate", model.SliceInstance.validate)
    for module, tag in ((model, "model"), (solver, "solver")):
        patch(module, "verify_banded_surface", f"model.verify_banded_surface@{tag}")
    patch(model, "cross_section", "model.cross_section")

    # morph
    patch(morph, "planarity_preserving", "morph.planarity_preserving")
    patch(morph, "morph_position", "morph.morph_position", under_build("steiner.morph_snapshots"))
    patch(morph, "similarity_witness", "morph.similarity_witness", under_build("steiner.rotation_probes"))

    # quadfield
    patch(quadfield, "roots_in_open_interval", "quadfield.roots_in_open_interval")
    patch(morph, "rational_between", "quadfield.rational_between")


def layer_metrics(agg: dict, counts: dict, wall_s: float) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json."""

    def pick(prefix):
        recs = [v for k, v in agg.items() if k == prefix or k.startswith(prefix + "@")]
        return {
            "calls": sum(r["calls"] for r in recs),
            "total_s": sum(r["total_s"] for r in recs),
            "self_s": sum(r["self_s"] for r in recs),
        }

    def share(num, den):
        return num / den if den else 0.0

    tri = pick("geometry.open_triangles_intersect_3d")
    simple = pick("geometry.polygon_is_simple")
    steiner_simple = pick("geometry.polygon_is_simple@steiner")
    table = pick("solver.build_conflict_table")
    sat_all = counts.get("twosat@solver.calls", 0) + counts.get("twosat@steiner.calls", 0)
    sat_yes = counts.get("twosat@solver.sat", 0) + counts.get("twosat@steiner.sat", 0)
    gap_calls = counts.get("twosat@steiner.calls", 0)
    build = pick("steiner.build_layered_surface")
    verify = pick("model.verify_banded_surface")
    section = pick("model.cross_section")
    planar = pick("morph.planarity_preserving")
    position = pick("morph.morph_position")
    roots = pick("quadfield.roots_in_open_interval")
    c = {
        "geometry.open_triangles_intersect_3d.calls": (tri["calls"], "count"),
        "geometry.open_triangles_intersect_3d.self_s": (tri["self_s"], "s"),
        "geometry.polygon_is_simple.calls": (simple["calls"], "count"),
        "geometry.polygon_is_simple.self_s": (simple["self_s"], "s"),
        "solver.solve_no_steiner.calls": (pick("solver.solve_no_steiner")["calls"], "count"),
        "solver.solve_no_steiner.total_s": (pick("solver.solve_no_steiner")["total_s"], "s"),
        "solver.build_conflict_table.calls": (table["calls"], "count"),
        "solver.build_conflict_table.self_s": (table["self_s"], "s"),
        "solver.conflict_tests": (pick("geometry.open_triangles_intersect_3d@solver")["calls"], "count"),
        "solver.clauses": (counts.get("solver.clauses", 0), "count"),
        "twosat.solve_2sat.calls": (sat_all, "count"),
        "twosat.solve_2sat.total_s": (pick("twosat.solve_2sat")["total_s"], "s"),
        "twosat.unsat_share": (share(sat_all - sat_yes, sat_all), "ratio"),
        "steiner.build_layered_surface.total_s": (build["total_s"], "s"),
        "steiner.build_layered_surface.self_s": (build["self_s"], "s"),
        "steiner.gap_solves": (gap_calls, "count"),
        "steiner.gap_sat_share": (share(counts.get("twosat@steiner.sat", 0), gap_calls), "ratio"),
        "steiner.full_table_gaps": (pick("solver.build_conflict_table@steiner")["calls"], "count"),
        "steiner.morph_snapshots": (counts.get("steiner.morph_snapshots", 0), "count"),
        "steiner.rotation_probes": (counts.get("steiner.rotation_probes", 0), "count"),
        "steiner.polygon_is_simple.calls": (steiner_simple["calls"], "count"),
        "steiner.polygon_is_simple.self_s": (steiner_simple["self_s"], "s"),
        "model.validate.total_s": (pick("model.validate")["total_s"], "s"),
        "model.verify_banded_surface.calls": (verify["calls"], "count"),
        "model.verify_banded_surface.total_s": (verify["total_s"], "s"),
        "model.verify_banded_surface.self_s": (verify["self_s"], "s"),
        "model.face_pair_tests": (pick("geometry.open_triangles_intersect_3d@model")["calls"], "count"),
        "model.cross_section.calls": (section["calls"], "count"),
        "model.cross_section.total_s": (section["total_s"], "s"),
        "morph.planarity_preserving.total_s": (planar["total_s"], "s"),
        "morph.planarity_preserving.self_s": (planar["self_s"], "s"),
        "morph.morph_position.calls": (position["calls"], "count"),
        "morph.morph_position.total_s": (position["total_s"], "s"),
        "morph.similarity_witness.calls": (pick("morph.similarity_witness")["calls"], "count"),
        "quadfield.roots_in_open_interval.calls": (roots["calls"], "count"),
        "quadfield.roots_in_open_interval.total_s": (roots["total_s"], "s"),
        "quadfield.rational_between.calls": (pick("quadfield.rational_between")["calls"], "count"),
    }
    attributed = sum(v["self_s"] for k, v in agg.items() if k != OP)
    c["trace.wall_s"] = (wall_s, "s")
    c["trace.unattributed_s"] = (wall_s - attributed, "s")
    return c
