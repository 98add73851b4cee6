import pytest

from linkchroma import (
    Edge,
    Multigraph,
    PairedGraph,
    Pairing,
    SchemaError,
    link_graph,
)
from linkchroma import formats
from linkchroma.catalogue import k4_with_planar_rotation, tetrahedron_complex, triangle_complex
from linkchroma.construct import load_shipped_witness


class TestGraphDocuments:
    def test_round_trip(self):
        g = Multigraph((1, "b", ("t", 2)), (Edge("e", 1, "b"), Edge(7, ("t", 2), ("t", 2))))
        assert formats.graph_from_doc(formats.graph_to_doc(g)) == g

    def test_unknown_field_rejected(self):
        doc = formats.graph_to_doc(Multigraph((1,), ()))
        doc["colour"] = "red"
        with pytest.raises(SchemaError):
            formats.graph_from_doc(doc)

    def test_unknown_edge_field_rejected(self):
        doc = {"vertices": [1, 2], "edges": [{"id": 0, "end0": 1, "end1": 2, "w": 3}]}
        with pytest.raises(SchemaError):
            formats.graph_from_doc(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            formats.graph_from_doc({"vertices": []})

    def test_dangling_endpoint_is_schema_error(self):
        doc = {"vertices": [1], "edges": [{"id": 0, "end0": 1, "end1": 2}]}
        with pytest.raises(SchemaError):
            formats.graph_from_doc(doc)

    def test_tuple_ids_become_arrays(self):
        g = Multigraph(((1, 2),), ())
        doc = formats.graph_to_doc(g)
        assert doc["vertices"] == [[1, 2]]
        assert formats.graph_from_doc(doc).vertices == ((1, 2),)

    def test_id_depth_limit(self):
        def nested(depth):
            value = 0
            for _ in range(depth):
                value = [value, "x"]
            return value

        deepest = formats.id_from_json(nested(formats.MAX_ID_DEPTH))
        assert formats.id_to_json(deepest) == nested(formats.MAX_ID_DEPTH)
        with pytest.raises(SchemaError, match="nest"):
            formats.id_from_json(nested(formats.MAX_ID_DEPTH + 1))
        with pytest.raises(SchemaError, match="unsupported id"):
            formats.id_from_json(nested(formats.MAX_ID_DEPTH)[:1] + [1.5])


class TestPairedGraphDocuments:
    def test_round_trip_with_rotation(self):
        g, rot = k4_with_planar_rotation()
        pairing = Pairing(((1, 2), (3, 4)))
        pg = PairedGraph(g, pairing, rot)
        out = formats.paired_graph_from_doc(formats.paired_graph_to_doc(pg))
        assert out == pg

    def test_round_trip_without_rotation(self):
        pg = link_graph(triangle_complex())
        out = formats.paired_graph_from_doc(formats.paired_graph_to_doc(pg))
        assert out == pg

    def test_bad_pairing_is_schema_error(self):
        doc = {
            "vertices": [1, 2, 3],
            "edges": [],
            "pairs": [[1, 2]],
        }
        with pytest.raises(SchemaError):
            formats.paired_graph_from_doc(doc)

    def test_invalid_rotation_is_schema_error(self):
        g, rot = k4_with_planar_rotation()
        pg = PairedGraph(g, Pairing(((1, 2), (3, 4))), rot)
        doc = formats.paired_graph_to_doc(pg)
        doc["rotation"]["1"] = doc["rotation"]["1"][:-1]  # drop one edge-end
        with pytest.raises(SchemaError):
            formats.paired_graph_from_doc(doc)

    @pytest.mark.parametrize("side", [True, False, 1.0])
    def test_non_integer_rotation_side_rejected(self, side):
        doc = {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "end0": "u", "end1": "v"}],
            "pairs": [["u", "v"]],
            "rotation": {"u": [["e", 0]], "v": [["e", 1]]},
        }
        doc["rotation"]["u" if side == 0 else "v"] = [["e", side]]
        with pytest.raises(SchemaError, match="rotation entry"):
            formats.paired_graph_from_doc(doc)

    def test_rotation_key_for_unknown_vertex_rejected(self):
        g, rot = k4_with_planar_rotation()
        pg = PairedGraph(g, Pairing(((1, 2), (3, 4))), rot)
        doc = formats.paired_graph_to_doc(pg)
        doc["rotation"]["99"] = []
        with pytest.raises(SchemaError):
            formats.paired_graph_from_doc(doc)


class TestComplexDocuments:
    def test_round_trip(self):
        for c in (triangle_complex(), tetrahedron_complex()):
            assert formats.complex_from_doc(formats.complex_to_doc(c)) == c

    def test_kind_checked(self):
        doc = formats.complex_to_doc(triangle_complex())
        doc["kind"] = "open"
        with pytest.raises(SchemaError):
            formats.complex_from_doc(doc)

    def test_walk_not_in_skeleton_is_schema_error(self):
        doc = formats.complex_to_doc(triangle_complex())
        doc["cells"][0][0][0] = "zzz"
        with pytest.raises(SchemaError):
            formats.complex_from_doc(doc)

    def test_bad_step_shape_rejected(self):
        doc = formats.complex_to_doc(triangle_complex())
        doc["cells"][0][0] = ["a", 2]
        with pytest.raises(SchemaError):
            formats.complex_from_doc(doc)

    @pytest.mark.parametrize("side", [True, False, 0.0])
    def test_non_integer_step_side_rejected(self, side):
        doc = formats.complex_to_doc(triangle_complex())
        doc["cells"][0][0][1] = side
        with pytest.raises(SchemaError, match="walk step"):
            formats.complex_from_doc(doc)


class TestColouringDocuments:
    def test_round_trip_with_resolution(self):
        assignment = {"a": 0, "b": 1, "c": 2}
        doc = formats.colouring_to_doc(3, assignment)
        k, raw = formats.colouring_from_doc(doc)
        assert k == 3
        resolved = formats.resolve_assignment(raw, ["a", "b", "c"])
        assert resolved == assignment

    def test_tuple_keys_resolve(self):
        pairs = (("x", 0), ("x", 1))
        doc = formats.colouring_to_doc(1, {pairs: 0})
        _, raw = formats.colouring_from_doc(doc)
        assert formats.resolve_assignment(raw, [pairs]) == {pairs: 0}

    def test_text_collision_rejected_at_dump(self):
        with pytest.raises(SchemaError):
            formats.colouring_to_doc(1, {"1": 0, 1: 0})

    def test_unknown_key_rejected_at_resolution(self):
        doc = formats.colouring_to_doc(1, {"a": 0})
        _, raw = formats.colouring_from_doc(doc)
        with pytest.raises(SchemaError):
            formats.resolve_assignment(raw, ["b"])

    def test_bad_palette_rejected(self):
        with pytest.raises(SchemaError):
            formats.colouring_from_doc({"palette_size": -1, "assignment": {}})


class TestWitnessDocuments:
    def test_round_trip(self):
        w = load_shipped_witness()
        doc = formats.witness_to_doc(w)
        again = formats.witness_from_doc(doc)
        assert again.graph == w.graph
        assert again.pairs == w.pairs
        assert again.rotation == w.rotation
        assert again.designated_pairs == w.designated_pairs
        assert again.provenance == w.provenance

    def test_unknown_field_rejected(self):
        doc = formats.witness_to_doc(load_shipped_witness())
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            formats.witness_from_doc(doc)


class TestSniffing:
    def test_kinds(self):
        w = formats.witness_to_doc(load_shipped_witness())
        assert formats.sniff_kind(w) == "witness"
        assert formats.sniff_kind(formats.complex_to_doc(triangle_complex())) == "complex"
        pg = link_graph(triangle_complex())
        assert formats.sniff_kind(formats.paired_graph_to_doc(pg)) == "paired"
        assert formats.sniff_kind(formats.graph_to_doc(pg.graph)) == "graph"


class TestDot:
    def test_contains_nodes_edges_and_pair_colours(self):
        pg = link_graph(triangle_complex())
        dot = formats.to_dot(pg.graph, pg.pairing)
        assert dot.startswith("graph G {")
        assert '"a:0" -- "b:0"' not in dot  # link edges join a:1 -- b:0 etc.
        assert '"a:1" -- "b:0"' in dot
        assert "penwidth=3" in dot
        # both ends of one pair share a colour
        lines = [l for l in dot.splitlines() if l.strip().startswith('"a:')]
        colours = [l.split('color="')[1].split('"')[0] for l in lines if "color" in l]
        assert len(colours) == 2 and colours[0] == colours[1]

    def test_deterministic(self):
        g = tetrahedron_complex().skeleton
        assert formats.to_dot(g) == formats.to_dot(g)

    def test_loops_render(self):
        g = Multigraph(("v",), (Edge("e", "v", "v"),))
        assert '"v" -- "v"' in formats.to_dot(g)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        doc = formats.complex_to_doc(tetrahedron_complex())
        path = tmp_path / "t.json"
        formats.save(path, doc)
        assert formats.load(path) == doc

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            formats.load(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            formats.load(path)

    def test_shipped_copies_are_identical(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        a = (root / "data" / "k12_pire.json").read_text()
        b = (root / "src" / "linkchroma" / "data" / "k12_pire.json").read_text()
        assert a == b
