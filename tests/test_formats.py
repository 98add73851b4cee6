import dataclasses
import hashlib
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from linkchroma import (
    ClosedWalk,
    DomainError,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    SchemaError,
    TwoComplex,
    WalkStep,
    id_sort_key,
    link_graph,
)
from linkchroma import formats
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.construct import (
    TwelvePireWitness,
    load_shipped_witness,
    make_degree_faithful,
    random_planar_paired_graph,
    run_pipeline,
    seal,
    verify_witness,
)
from linkchroma.search import search_witness

from strategies import WALK_FAULT_SKELETON, WALK_FAULTS, k4_with_planar_rotation


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

    def test_no_list_is_shared(self):
        """Each vertex id is converted once, and each end gets its own copy,
        inner lists included: a flat id, an id that nests tuples, a scalar
        and loops, on a link graph and on a hand-built graph."""
        g = Multigraph(
            (1, ("t", 2), ("n", ("a", (3, "b")))),
            (
                Edge("e", 1, ("t", 2)),
                Edge("f", ("t", 2), ("n", ("a", (3, "b")))),
                Edge("l", ("n", ("a", (3, "b"))), ("n", ("a", (3, "b")))),
                Edge("m", ("t", 2), ("t", 2)),
            ),
        )
        for graph in (g, link_graph(seal(run_pipeline().punctured)).graph):
            doc = formats.graph_to_doc(graph)
            lists = []
            stack = [doc["vertices"], *doc["edges"]]
            while stack:
                item = stack.pop()
                for value in item.values() if isinstance(item, dict) else item:
                    if isinstance(value, list):
                        lists.append(value)
                        stack.append(value)
            assert len(set(map(id, lists))) == len(lists) > len(graph.vertices)
            assert formats.graph_from_doc(doc) == graph

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

    def test_a_rotation_order_that_is_not_an_array_is_refused(self):
        doc = {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "end0": "u", "end1": "v"}],
            "pairs": [["u", "v"]],
            "rotation": {"u": 5},
        }
        with pytest.raises(SchemaError) as info:
            formats.paired_graph_from_doc(doc)
        assert str(info.value) == "rotation order at 'u' must be an array"

    def test_a_rotation_that_is_not_an_object_is_refused(self):
        doc = {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "end0": "u", "end1": "v"}],
            "pairs": [["u", "v"]],
            "rotation": [],
        }
        with pytest.raises(SchemaError) as info:
            formats.paired_graph_from_doc(doc)
        assert str(info.value) == "rotation must be a JSON object"

    @pytest.mark.parametrize(
        "pairs, message",
        [(5, "'pairs' must be an array"), ([5], "pair 5 must be an array of two vertices")],
    )
    def test_pairs_that_are_not_arrays_are_refused(self, pairs, message):
        doc = {"vertices": ["u", "v"], "edges": [{"id": "e", "end0": "u", "end1": "v"}], "pairs": pairs}
        with pytest.raises(SchemaError) as info:
            formats.paired_graph_from_doc(doc)
        assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "cells, message",
        [(5, "'cells' must be an array"), ([5], "each cell must be an array of steps")],
    )
    def test_cells_that_are_not_arrays_are_refused(self, cells, message):
        doc = formats.complex_to_doc(triangle_complex())
        doc["cells"] = cells
        with pytest.raises(SchemaError) as info:
            formats.complex_from_doc(doc)
        assert str(info.value) == message

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


    def test_what_is_written_loads(self):
        # sides that only compare equal to 0 or 1, and an edge id that is
        # equal to the skeleton's but another object, are written as ints
        big = 10**6
        g = Multigraph(("h",), (Edge(big, "h", "h"), Edge("e", "h", "h")))
        walk = ClosedWalk((("e", False), ("e", 1.0), (int(str(big)), True)))
        for c in (TwoComplex(g, (walk,), "punctured"), seal(TwoComplex(g, (walk,), "punctured"))):
            text = formats.dumps(formats.complex_to_doc(c))
            assert "true" not in text and "false" not in text and "1.0" not in text
            assert formats.complex_from_doc(formats.loads(text)) == c

    @pytest.mark.parametrize("edge", [True, 1.0, [True], [1.0]])
    def test_an_equal_id_of_another_kind_cannot_be_written(self, edge):
        # the step is rejected where the complex is built, so no document
        # the library writes holds it
        g = Multigraph(("h",), (Edge(1, "h", "h"), Edge((1,), "h", "h")))
        step = WalkStep(tuple(edge) if isinstance(edge, list) else edge, 0)
        with pytest.raises(DomainError, match="only compares equal"):
            TwoComplex(g, ((step,),))

    @pytest.mark.parametrize("case", sorted(WALK_FAULTS))
    def test_walk_faults_keep_their_text(self, case):
        steps, message = WALK_FAULTS[case]
        doc = formats.complex_to_doc(TwoComplex(Multigraph(*WALK_FAULT_SKELETON)))
        doc["cells"] = [[[formats.id_to_json(e), side] for e, side in steps]]
        with pytest.raises(SchemaError) as info:
            formats.complex_from_doc(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "step, message",
        [
            (["ab", 2], "walk step ['ab', 2] must be [edge, entry_side]"),
            (["ab", True], "walk step ['ab', True] must be [edge, entry_side]"),
            (["ab"], "walk step ['ab'] must be [edge, entry_side]"),
            ("ab", "walk step 'ab' must be [edge, entry_side]"),
            ([True, 0], "booleans are not valid ids"),
            ([1.5, 0], "unsupported id 1.5: ids are ints, strings or tuples"),
            ([None, 0], "unsupported id None: ids are ints, strings or tuples"),
            ([{"a": 1}, 0], "unsupported id {'a': 1}: ids are ints, strings or tuples"),
        ],
    )
    def test_bad_steps_keep_their_text(self, step, message):
        doc = formats.complex_to_doc(triangle_complex())
        doc["cells"][0][1] = step
        with pytest.raises(SchemaError) as info:
            formats.complex_from_doc(doc)
        assert str(info.value) == message


def refused_or_read_back(build, to_doc, from_doc) -> bool:
    """Whether ``build()`` raises DomainError; if it does not, what it builds
    must read back equal from the text written for it, and write that text
    again."""
    try:
        x = build()
    except DomainError:
        return True
    text = formats.dumps(to_doc(x))
    again = from_doc(formats.loads(text))
    assert again == x
    assert formats.dumps(to_doc(again)) == text
    return False


class TestWrittenThenRead:
    @pytest.mark.parametrize(
        "vertex, end, refused",
        [
            (1, 1, False),
            (1, True, True),
            (1, 1.0, True),
            ((1,), (1,), False),
            ((1,), (True,), True),
            ((1,), (1.0,), True),
        ],
    )
    def test_ends_equal_to_a_vertex_id(self, vertex, end, refused):
        edges = (Edge("a", end, "w"), Edge("b", "w", vertex))
        ends = {vertex: (EdgeEnd("a", 0), EdgeEnd("b", 1)), "w": (EdgeEnd("a", 1), EdgeEnd("b", 0))}
        cases = [
            (lambda: Multigraph((vertex, "w"), edges), formats.graph_to_doc, formats.graph_from_doc),
            (
                lambda: PairedGraph(Multigraph((vertex, "w"), edges), Pairing(((vertex, "w"),)), RotationSystem(ends)),
                formats.paired_graph_to_doc,
                formats.paired_graph_from_doc,
            ),
            (
                lambda: TwoComplex(Multigraph((vertex, "w"), edges), ((("a", 0), ("b", 0)),)),
                formats.complex_to_doc,
                formats.complex_from_doc,
            ),
        ]
        assert [refused_or_read_back(*case) for case in cases] == [refused] * 3
        if refused:
            with pytest.raises(DomainError) as info:
                Multigraph((vertex, "w"), edges)
            assert str(info.value) == "edge 'a' names a vertex by an id that only compares equal to it"

    @pytest.mark.parametrize("side0, side1", [(0, 1), (False, True), (0.0, 1.0), (False, 1.0)])
    def test_rotation_sides_equal_to_0_or_1(self, side0, side1):
        g = Multigraph(("u", "v"), (Edge(1, "u", "v"),))
        rotation = {"u": [EdgeEnd(1, side0)], "v": [EdgeEnd(1, side1)]}
        assert not refused_or_read_back(
            lambda: PairedGraph(g, Pairing((("u", "v"),)), RotationSystem(rotation)),
            formats.paired_graph_to_doc,
            formats.paired_graph_from_doc,
        )


def reference_colouring_to_doc(palette_size, assignment):
    """``formats.colouring_to_doc`` as it was before key columns were typed
    in one pass: every key sorted by ``id_sort_key`` and texted alone."""
    by_text = formats.text_key_map(sorted(assignment, key=id_sort_key), "colouring")
    return {"palette_size": palette_size, "assignment": {t: assignment[k] for t, k in by_text.items()}}


class IntKey(int):
    pass


_flat_int_tuples = st.lists(st.integers(-30, 30), max_size=4).map(tuple)
_key_atoms = st.one_of(
    st.integers(-30, 30),
    st.text(alphabet="ab1:2-", max_size=3),
    st.booleans(),
    st.integers(-3, 3).map(IntKey),
    _flat_int_tuples,
)
# columns the writer types in one pass, and columns that only look like them
key_columns = st.one_of(
    st.lists(st.integers(-(10**6), 10**6), max_size=30),
    st.lists(st.text(max_size=4), max_size=30),
    st.lists(_flat_int_tuples, max_size=30),
    st.lists(st.one_of(st.integers(-30, 30), st.text(alphabet="12:", max_size=3)), max_size=12),
    st.lists(st.recursive(_key_atoms, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6), max_size=12),
)


def written_or_refused(write, palette_size, assignment):
    try:
        doc = write(palette_size, assignment)
    except Exception as exc:
        return type(exc), str(exc)
    return doc, formats.dumps(doc)


class TestColouringDocuments:
    def test_text_collision_rejected_at_dump(self):
        with pytest.raises(SchemaError):
            formats.colouring_to_doc(1, {"1": 0, 1: 0})

    @given(key_columns)
    @example(["1:2", (1, 2)])
    @example([(1, 2), "1:2"])
    @example([(1, 2), (True, 2)])
    @example([(), (0,), (-1, 5), (0, 0, 0)])
    @example([((1, 2), 3), (1, 2)])
    @example([IntKey(3), 4])
    @example([True])
    @example([(1, "a")])
    @settings(max_examples=400, deadline=None)
    def test_writes_what_the_reference_writer_writes(self, keys):
        assignment = {k: i % 12 for i, k in enumerate(keys)}
        # the same document and bytes (so the same key order), or the same error
        got = written_or_refused(formats.colouring_to_doc, 12, assignment)
        assert got == written_or_refused(reference_colouring_to_doc, 12, assignment)


class StrKey(str):
    pass


def nested_id(value, depth: int):
    for _ in range(depth):
        value = (value,)
    return value


def one_edge_map(vertex=1, edge="e", side=1) -> PairedGraph:
    """One pair joined by one edge, with a rotation: ``vertex`` is the pair's
    first member, ``edge`` the edge and ``side`` its end at ``"w"``."""
    g = Multigraph((vertex, "w"), (Edge(edge, vertex, "w"),))
    rotation = RotationSystem({vertex: [EdgeEnd(edge, 0)], "w": [EdgeEnd(edge, side)]})
    return PairedGraph(g, Pairing(((vertex, "w"),)), rotation)


def as_witness(pg: PairedGraph) -> TwelvePireWitness:
    """``pg`` as a witness designating every pair."""
    return TwelvePireWitness(pg.graph, pg.pairing.pairs, pg.rotation, pg.pairing.pairs)


class TestRotationsAndWitnessesWrittenThenRead:
    @given(st.integers(0, 2**32), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_random_maps_and_their_augmentations(self, seed, pairs):
        # ("dup", k) twins in the map; ("dbl", id) and ("bal", w, i) in its augmentation
        pg = random_planar_paired_graph(seed, pairs)
        for x in (pg, make_degree_faithful(pg)):
            assert x.rotation is not None
            assert not refused_or_read_back(lambda: x, formats.paired_graph_to_doc, formats.paired_graph_from_doc)

    @pytest.mark.parametrize("which", ["shipped", "seed 34", "loose"])
    def test_witnesses(self, which):
        w = search_witness(seed=34, budget=6000) if which == "seed 34" else load_shipped_witness()
        if which == "loose":
            # twelve pairs of vertices, none of them a pair of the pairing
            pairs = w.pairing.pairs
            w = dataclasses.replace(w, designated_pairs=tuple((p[0], q[1]) for p, q in zip(pairs, pairs[1:] + pairs[:1])))
            assert len(w.designated_pairs) == 12 and not set(w.designated_pairs) & set(pairs)
        assert not refused_or_read_back(lambda: w, formats.witness_to_doc, formats.witness_from_doc)

    @pytest.mark.parametrize(
        "kwargs, refused",
        [
            pytest.param({"side": True}, False, id="side True"),
            pytest.param({"side": 1.0}, False, id="side 1.0"),
            pytest.param({"vertex": (1, True)}, True, id="True in a vertex id"),
            pytest.param({"edge": ("e", True)}, True, id="True in an edge id"),
            pytest.param({"vertex": IntKey(3)}, False, id="int subclass vertex"),
            pytest.param({"edge": IntKey(4)}, False, id="int subclass edge"),
            pytest.param({"vertex": StrKey("v")}, False, id="str subclass vertex"),
            pytest.param({"edge": StrKey("e")}, False, id="str subclass edge"),
            pytest.param({"vertex": (IntKey(1), StrKey("a"))}, False, id="subclasses in a vertex id"),
            pytest.param({"vertex": nested_id(1, formats.MAX_ID_DEPTH)}, False, id="vertex at the depth limit"),
            pytest.param({"edge": nested_id("e", formats.MAX_ID_DEPTH)}, False, id="edge at the depth limit"),
            pytest.param({"vertex": nested_id(1, formats.MAX_ID_DEPTH + 1)}, True, id="vertex past the depth limit"),
        ],
    )
    def test_values_that_only_compare_equal_to_ids(self, kwargs, refused):
        cases = [
            (lambda: one_edge_map(**kwargs), formats.paired_graph_to_doc, formats.paired_graph_from_doc),
            (lambda: as_witness(one_edge_map(**kwargs)), formats.witness_to_doc, formats.witness_from_doc),
        ]
        assert [refused_or_read_back(*case) for case in cases] == [refused] * 2


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

    def test_a_pair_member_that_is_not_an_id_is_not_written(self):
        # 5.0 equals vertex 5 but is not an id: a document holding it
        # would fail to load, so the object's failed checks would never
        # be reported for it
        w = load_shipped_witness()
        floated = tuple((float(a), b) for a, b in w.pairs)
        a, b = w.pairs[0]
        cases = [
            (dataclasses.replace(w, pairs=floated, designated_pairs=floated), "pair"),
            (dataclasses.replace(w, designated_pairs=floated), "designated pair"),
        ]
        for changed, what in cases:
            with pytest.raises(DomainError) as info:
                formats.witness_to_doc(changed)
            assert str(info.value) == f"{what} ({float(a)!r}, {b!r}) holds {float(a)!r}, which is not an id"
        lines = verify_witness(cases[0][0]).lines()
        assert f"FAIL perfect-pairing: unsupported id {float(a)!r}: ids are ints, strings or tuples" in lines

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("designated_pairs", [5], "designated pair 5 must be a pair of ids"),
            ("designated_pairs", [([1], [2])], "designated pair ([1], [2]) holds [1], which is not an id"),
            ("designated_pairs", None, "designated pairs None must be an iterable of pairs"),
            ("designated_pairs", [(1, 2, 3)], "designated pair (1, 2, 3) must be a pair of ids"),
            ("pairs", [5], "pair 5 must be a pair of ids"),
        ],
    )
    def test_an_entry_that_is_not_a_pair_of_ids_is_not_written(self, field, value, message):
        w = dataclasses.replace(load_shipped_witness(), **{field: value})
        with pytest.raises(DomainError) as info:
            formats.witness_to_doc(w)
        assert str(info.value) == message

    def test_provenance_that_is_not_an_object_is_refused(self):
        doc = formats.witness_to_doc(load_shipped_witness())
        doc["provenance"] = 5
        with pytest.raises(SchemaError) as info:
            formats.witness_from_doc(doc)
        assert str(info.value) == "'provenance' must be a JSON object"

    def test_unknown_field_rejected(self):
        doc = formats.witness_to_doc(load_shipped_witness())
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            formats.witness_from_doc(doc)


# Every value json.loads can return: scalars of each kind (ints past 64
# bits, every float json writes, text with non-ASCII and control
# characters), and arrays and objects of them, lists of int lists among
# them.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(["\x00\x1f\x7f", "é", "\U0001f600", "\\\"", "],[", ", "])
)
json_values = st.recursive(
    json_scalars | st.lists(st.lists(st.integers(), max_size=3), max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=40,
)

# Tables, which dumps writes a column at a time: arrays of rows of one
# width, or of objects with one key order, whose cells are scalars or
# arrays nesting arrays and scalars, as array ids do.  Some are broken by
# one row of another width, other keys, a tuple or an empty array.
table_cells = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
table_keys = st.text(max_size=3) | st.sampled_from(["{", "}", "{}", "{0}", "\"", "é", "id"])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        rows = [draw(st.lists(table_cells, min_size=width, max_size=width)) for _ in range(n)]
    else:
        keys = draw(st.lists(table_keys, min_size=1, max_size=3, unique=True))
        rows = [{k: draw(table_cells) for k in keys} for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, n)), draw(st.sampled_from([[], {}, [0, 1, 2, 3], {"x": 0}, (1, 2)])))
    return rows


def indented(value) -> str:
    return json.dumps(value, indent=2) + "\n"


class TestDumps:
    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert formats.dumps(value) == indented(value)

    def test_matches_json_dumps_on_documents(self):
        w = load_shipped_witness()
        docs = [
            formats.witness_to_doc(w),
            formats.paired_graph_to_doc(w.paired_graph),
            formats.complex_to_doc(tetrahedron_complex()),
            formats.colouring_to_doc(2, {"a": 0, ("b", 1): 1}),
            {"provenance": {"seed": -0.0, "big": 2**70, "list": [[1, 2], [], [True]], "empty": {}}},
        ]
        for doc in docs:
            assert formats.dumps(doc) == indented(doc)

    @given(tables() | st.lists(tables(), max_size=3) | st.dictionaries(st.text(max_size=2), tables(), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_on_tables(self, value):
        assert formats.dumps(value) == indented(value)

    def test_matches_json_dumps_on_augmented_maps(self):
        # edge lists and rotation orders whose ids are arrays, nested ones
        # among them: ("dbl", ("dup", 3)), and ("bal", ("t", 5), 0) at a
        # vertex named by a tuple
        from test_colour import mixed_id_map

        from linkchroma.construct import make_degree_faithful, random_planar_paired_graph

        for pg in (random_planar_paired_graph(2, 40), mixed_id_map(random_planar_paired_graph(3, 40))):
            doc = formats.paired_graph_to_doc(make_degree_faithful(pg))
            assert any(type(e["id"]) is list and type(e["id"][1]) is list for e in doc["edges"])
            assert formats.dumps(doc) == indented(doc)

    def test_table_cells_past_the_id_depth_take_the_general_loop(self):
        deep = 0
        for _ in range(40):
            deep = [deep, "x"]
        for rows in ([[deep, 0], [1, 0]], [{"id": deep}, {"id": [1]}]):
            assert formats.dumps({"rows": rows}) == indented({"rows": rows})

    def test_table_cells_nesting_a_dict_in_a_list_take_the_general_loop(self):
        for rows in ([[1, [{"a": 1}]], [2, [3]], [4, [5]]], [{"id": [{"a": [1]}]}, {"id": [1]}, {"id": 2}]):
            assert formats._cell_nesting([row[1] if type(row) is list else row["id"] for row in rows]) is None
            assert formats.dumps({"rows": rows}) == indented({"rows": rows})

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, None], [2, "x"], [3, "y"]],
            [[1, False], [2, True], [3, 0]],
            [[1, []], [2, [3]], [4, [5, 6]]],
        ],
        ids=["null-scalar", "false-scalar", "empty-list-in-a-cell"],
    )
    def test_table_cells_of_every_kind_a_fixed_run_reaches(self, rows):
        # a table column of mixed scalars is texted a value at a time, and
        # a column of lists a cell at a time
        assert formats._table_text(rows, ["\n", "\n  ", "\n    ", "\n      "], 1) is not None
        assert formats.dumps({"rows": rows}) == indented({"rows": rows})

    def test_provenance_nested_500_deep(self):
        doc = formats.witness_to_doc(load_shipped_witness())
        inner = doc["provenance"]
        for _ in range(500):
            inner["nested"] = {"steps": [[1, 2]], "name": "\u00e9"}
            inner = inner["nested"]
        assert formats.dumps(doc) == indented(doc)

    def test_no_depth_limit(self):
        depth = 5000  # past the recursion limit of json's indenting encoder
        doc = 0
        for _ in range(depth):
            doc = {"p": doc}
        lines = [" " * (2 * i) + ('{' if i == 0 else '"p": {') for i in range(depth)]
        lines.append(" " * (2 * depth) + '"p": 0')
        lines += [" " * (2 * i) + "}" for i in reversed(range(depth))]
        assert formats.dumps(doc) == "\n".join(lines) + "\n"

    def test_rejects_what_json_rejects(self):
        loop = []
        loop.append(loop)
        for bad, error in (({"a": object()}, TypeError), ({"a": loop}, ValueError)):
            with pytest.raises(error):
                formats.dumps(bad)

    def test_refuses_keys_that_are_not_strings(self):
        # json.dumps would write the key 1 as "1"; documents never hold one
        with pytest.raises(TypeError):
            formats.dumps({1: 0})


class TestSniffing:
    def test_kinds(self):
        w = formats.witness_to_doc(load_shipped_witness())
        assert formats.sniff_kind(w) == "witness"
        assert formats.sniff_kind(formats.complex_to_doc(triangle_complex())) == "complex"
        pg = link_graph(triangle_complex())
        assert formats.sniff_kind(formats.paired_graph_to_doc(pg)) == "paired"
        assert formats.sniff_kind(formats.graph_to_doc(pg.graph)) == "graph"

    def test_a_document_that_is_not_an_object_is_refused(self):
        with pytest.raises(SchemaError) as info:
            formats.sniff_kind([])
        assert str(info.value) == "top-level document must be a JSON object"


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

    # SHA-256 of the DOT text of the sealed pipeline complex's link graph,
    # with its pairing, recorded before the writer moved onto the dart column
    SEALED_LINK_DOT_SHA256 = "91d396707803e0accf4dc1c2e9bae07dddcc25c04fc1761d49539def458c0443"

    def test_the_sealed_link_graph_matches_its_pinned_digest(self):
        L = link_graph(run_pipeline().sealed)
        dot = formats.to_dot(L.graph, L.pairing)
        assert hashlib.sha256(dot.encode("utf-8")).hexdigest() == self.SEALED_LINK_DOT_SHA256

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

    def test_paths_named_in_the_readme_exist(self):
        import pathlib
        import re

        # a path in the README under one of the repository's directories
        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w./-])((?:data|perfbench|src|tests|tools)/[\w./-]*[\w/])", text))
        assert {"src/linkchroma/data/k12_pire.json", "data/k12_pire.search.json", "tests/test_acceptance.py"} <= named
        assert sorted(p for p in named if not (root / p).exists()) == []
