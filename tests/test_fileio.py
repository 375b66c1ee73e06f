import json
from dataclasses import replace
from fractions import Fraction

import pytest
from reference_figures import fig1_twisted_prism, fig7_star

from banded.errors import InputError, ParseError
from banded.fileio import (
    export_mesh,
    export_section,
    format_rational,
    instance_from_document,
    instance_to_document,
    load_instance,
    load_surface,
    mesh_only_surface,
    parse_rational,
    read_off,
    save_instance,
)
from banded.geometry import Point2, polygon_is_convex, polygon_signed_area2
from banded.model import (
    ChordAssignment,
    LabeledPolygon,
    SliceInstance,
    assignment_to_surface,
    cross_section,
    verify_banded_surface,
)
from banded.steiner import build_layered_surface


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0),
            ("-3", -3),
            ("1.25", Fraction(5, 4)),
            ("-0.08", Fraction(-2, 25)),
            ("3/7", Fraction(3, 7)),
            ("-12/5", Fraction(-12, 5)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "1e3", "nan", "inf", "1/0", "1.2.3", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_not_a_number(self, flag):
        # JSON true and false load as Python bools, which are ints
        with pytest.raises(ParseError):
            parse_rational(flag)

    def test_format_prefers_decimal(self):
        assert format_rational(Fraction(5, 4)) == "1.25"
        assert format_rational(Fraction(-2, 25)) == "-0.08"
        assert format_rational(7) == "7"
        assert format_rational(Fraction(1, 3)) == "1/3"

    def test_round_trip_random(self):
        import random

        rng = random.Random(4)
        for _ in range(300):
            f = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            assert parse_rational(format_rational(f)) == f


class TestInstanceFiles:
    def test_save_load_round_trip(self, tmp_path):
        inst = fig1_twisted_prism().instance
        path = tmp_path / "inst.json"
        save_instance(inst, path, name="prism")
        loaded = load_instance(path)
        assert loaded.source.vertices == inst.source.vertices
        assert loaded.target.vertices == inst.target.vertices

    def test_integral_values_load_as_ints(self, tmp_path):
        # JSON ints, integral decimals and integral fractions all load as
        # ints, so the exact kernels skip `Fraction` arithmetic on them
        doc = {
            "P": [[0, "0"], ["4.0", -0], ["8/2", "3"]],
            "Pprime": [["-1", 0], ["3", "0.00"], ["3", "12/4"]],
        }
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path)
        assert {type(c) for poly in (inst.source, inst.target) for p in poly.vertices for c in p} == {int}
        assert inst.source.vertices[2] == Point2(4, 3)
        doc["Pprime"][2] = ["3", "5/2"]
        value = instance_from_document(doc).target.vertices[2].y
        assert type(value) is Fraction and value == Fraction(5, 2)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n": 3, "P": [["0", "0"], ["1", "0"], ["0", "1"]]}))
        with pytest.raises(ParseError, match="Pprime"):
            load_instance(path)

    def test_json_error_carries_location(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('{"n": 3,\n  "P": [[,]]}')
        with pytest.raises(ParseError) as info:
            load_instance(path)
        assert info.value.line == 2

    def test_size_mismatch(self, tmp_path):
        doc = instance_to_document(fig1_twisted_prism().instance)
        doc["n"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="n=5"):
            load_instance(path)

    def test_bool_coordinate(self, tmp_path):
        doc = {"P": [[0, 0], [True, 0], [0, 1]], "Pprime": [[0, 0], [1, 0], [0, 1]]}
        with pytest.raises(ParseError):
            instance_from_document(doc)
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_instance(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            load_instance(tmp_path / "missing.json")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(InputError, match="cannot write"):
            save_instance(fig1_twisted_prism().instance, tmp_path / "missing" / "i.json")

    def test_metadata_is_written_and_ignored_on_load(self, tmp_path):
        inst = fig1_twisted_prism().instance
        path = tmp_path / "inst.json"
        save_instance(inst, path, name="prism", metadata={"seed": 7})
        doc = json.loads(path.read_text())
        assert doc["name"] == "prism" and doc["metadata"] == {"seed": 7}
        assert load_instance(path) == inst


def schonhardt_surface():
    inst = fig1_twisted_prism().instance
    return assignment_to_surface(inst, ChordAssignment.from_string("RRR"))


class TestMeshFiles:
    def test_off_export_counts(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "mesh.off"
        export_mesh(s, "off", path)
        header = path.read_text().splitlines()
        assert header[0] == "OFF"
        nv, nf, ne = map(int, header[1].split())
        assert (nv, nf) == (6, 6)
        assert ne == 12

    def test_off_caps_flag(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "capped.off"
        export_mesh(s, "off", path, include_caps=True)
        nv, nf, _ = map(int, path.read_text().splitlines()[1].split())
        assert (nv, nf) == (6, 8)

    def test_caps_of_a_non_convex_surface_tile_its_end_polygons(self, tmp_path):
        # a star's caps need ear clipping: each end polygon of n vertices
        # becomes n - 2 triangles on its own vertices, whose areas add up
        # to the polygon's
        inst = fig7_star().instance
        assert not polygon_is_convex(inst.source.vertices)
        s = build_layered_surface(inst)
        path = tmp_path / "capped.off"
        export_mesh(s, "off", path, include_caps=True)
        vertices, faces = read_off(path)
        assert faces[: len(s.faces)] == list(s.faces)
        caps = faces[len(s.faces) :]
        for z, poly in ((0, inst.source), (1, inst.target)):
            cap = [f for f in caps if vertices[f[0]].z == z]
            assert len(cap) == poly.n - 2
            assert all(vertices[v].z == z and vertices[v].xy in poly.vertices for f in cap for v in f)
            area2 = sum(abs(polygon_signed_area2([vertices[v].xy for v in f])) for f in cap)
            assert area2 == polygon_signed_area2(poly.vertices)
        assert len(caps) == 2 * (inst.n - 2)

    def test_off_round_trip_preserves_verdict(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "mesh.off"
        export_mesh(s, "off", path)
        back = load_surface(path, str(path) + ".bands.json")
        assert back.vertices == s.vertices
        assert back.faces == s.faces
        before = verify_banded_surface(s, force_sections=True)
        after = verify_banded_surface(back, force_sections=True)
        assert before.passed and after.passed

    def test_cap_with_no_ear_is_invalid_input(self, tmp_path):
        # the paths in reverse order make each end polygon a clockwise
        # square, where no vertex is an ear
        square = LabeledPolygon(tuple(Point2(*p) for p in ((0, 0), (4, 0), (4, 4), (0, 4))), 0)
        target = LabeledPolygon(tuple(Point2(x + 1, y + 2) for x, y in square.vertices), 1)
        s = assignment_to_surface(SliceInstance(square, target), ChordAssignment.from_string("LLLL"))
        with pytest.raises(InputError, match="cap triangulation found no ear"):
            export_mesh(replace(s, paths=s.paths[::-1]), "off", tmp_path / "capped.off", include_caps=True)

    def test_caps_of_a_path_free_mesh_are_invalid_input(self, tmp_path):
        # a mesh read without its sidecar has no paths, so no end polygon
        # to cap, and the paths of a square taken out of order make each
        # end polygon a bowtie; neither writes a mesh
        mesh = tmp_path / "mesh.off"
        export_mesh(schonhardt_surface(), "off", mesh)
        square = LabeledPolygon(tuple(Point2(*p) for p in ((0, 0), (4, 0), (4, 4), (0, 4))), 0)
        target = LabeledPolygon(tuple(Point2(x + 1, y + 2) for x, y in square.vertices), 1)
        s = assignment_to_surface(SliceInstance(square, target), ChordAssignment.from_string("LLLL"))
        bowtie = replace(s, paths=tuple(s.paths[k] for k in (0, 2, 1, 3)))
        for surface in (mesh_only_surface(mesh), bowtie):
            with pytest.raises(InputError, match="cap needs a simple end polygon of at least 3 vertices"):
                export_mesh(surface, "off", tmp_path / "capped.off", include_caps=True)
        assert not (tmp_path / "capped.off").exists()

    def test_unknown_label_leaves_no_mesh(self, tmp_path):
        s = schonhardt_surface()
        point, _ = s.vertices[0]
        surface = replace(s, vertices=((point, "corner"), *s.vertices[1:]))
        with pytest.raises(InputError, match="unknown vertex label 'corner'"):
            export_mesh(surface, "off", tmp_path / "mesh.off")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_writes_nothing(self, tmp_path):
        path = tmp_path / "mesh.ply"
        with pytest.raises(InputError, match="unknown mesh format 'ply'"):
            export_mesh(schonhardt_surface(), "ply", path)
        assert list(tmp_path.iterdir()) == []

    def test_obj_export_one_based(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "mesh.obj"
        export_mesh(s, "obj", path)
        lines = path.read_text().splitlines()
        faces = [l for l in lines if l.startswith("f ")]
        assert len(faces) == 6
        indices = [int(tok) for l in faces for tok in l.split()[1:]]
        assert min(indices) == 1

    def test_floats_mode(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "approx.off"
        export_mesh(s, "off", path, floats=True)
        assert "/" not in path.read_text()

    def test_read_off_errors(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFZ\n0 0 0\n")
        with pytest.raises(ParseError):
            read_off(path)

    @pytest.mark.parametrize("counts", ["-3 -2 0", "0 -1 0", "0 0 -1"])
    def test_read_off_rejects_negative_counts(self, tmp_path, counts):
        # a negative count is malformed input, not an empty mesh
        path = tmp_path / "negative.off"
        path.write_text(f"OFF\n{counts}\n")
        with pytest.raises(ParseError, match="is negative"):
            read_off(path)

    @pytest.mark.parametrize("index", [-1, 10**6])
    def test_load_surface_rejects_band_face_index_out_of_range(self, tmp_path, index):
        # as `read_off` rejects a face vertex index outside the mesh
        path = tmp_path / "mesh.off"
        export_mesh(schonhardt_surface(), "off", path)
        sidecar = tmp_path / "mesh.off.bands.json"
        doc = json.loads(sidecar.read_text())
        doc["bands"][0][0] = index
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=rf"band 0 face index {index} outside \[0, 6\)"):
            load_surface(path, sidecar)

    def test_mesh_only_surface_sections(self, tmp_path):
        s = schonhardt_surface()
        path = tmp_path / "mesh.off"
        export_mesh(s, "off", path)
        raw = mesh_only_surface(path)
        section = cross_section(raw, Fraction(1, 3))
        assert len(section.vertices) == 6

    def test_export_section(self, tmp_path):
        s = schonhardt_surface()
        section = cross_section(s, Fraction(1, 3))
        out = tmp_path / "section.json"
        text = export_section(section, out)
        doc = json.loads(out.read_text())
        assert doc["t"] == "1/3"
        assert len(doc["points"]) == 6
        assert doc == json.loads(text)

    def test_layered_surface_round_trip_with_fraction_heights(self, tmp_path):
        # coordinates in thirds have no finite decimal form, so the layered
        # surface of this instance must exercise the p/q writer and round-trip
        from banded.geometry import Point2
        from banded.model import LabeledPolygon
        from banded.morph import rotate_copy_instance
        from banded.steiner import build_layered_surface

        tri = LabeledPolygon(
            (
                Point2(Fraction(4, 3), 0),
                Point2(Fraction(-2, 3), 1),
                Point2(Fraction(-2, 3), -1),
            ),
            0,
        )
        inst = rotate_copy_instance(tri, Point2(0, 0), (-1, 0))
        s = build_layered_surface(inst)
        assert s.steiner_count() > 0
        path = tmp_path / "layered.off"
        export_mesh(s, "off", path)
        assert "/" in path.read_text()  # fractional coordinates present
        back = load_surface(path, str(path) + ".bands.json")
        assert back.vertices == s.vertices
        assert back.faces == s.faces
        assert verify_banded_surface(back, force_sections=True).passed
