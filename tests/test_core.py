import hashlib
import itertools
import json

import pytest

from linkchroma import (
    ClosedWalk,
    Colouring,
    DomainError,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    genus_check,
    id_sort_key,
    is_simplicial,
    link_graph,
    paired_quotient,
    simple_quotient,
    third_edges,
    validate_rotation,
    validate_walk,
)
from linkchroma.catalogue import (
    complete_graph,
    tetrahedron_complex,
    triangle_complex,
)
from linkchroma.colour import heawood_colour_12
from linkchroma.construct import (
    inverse_link,
    is_degree_faithful,
    make_degree_faithful,
    pi_trail_decomposition,
    random_planar_paired_graph,
)
from linkchroma.core import MAX_ID_DEPTH
from linkchroma.corpus import enumerate_closed_walks, enumerate_small_complexes, enumerate_small_skeletons
from linkchroma.errors import short_repr

from strategies import (
    WALK_FAULT_SKELETON,
    WALK_FAULTS,
    degree,
    endpoint,
    ends_at,
    flipped,
    k4_with_planar_rotation,
    neighbour_sets,
    one_loop_complex,
    side_by_side,
    with_extras,
)


def edge_pairs(g):
    """Multiset of unordered endpoint pairs, for id-free comparisons."""
    from collections import Counter
    from linkchroma import id_sort_key

    return Counter(tuple(sorted((e.end0, e.end1), key=id_sort_key)) for e in g.edges)


class TestMultigraph:
    def test_degree_counts_loops_twice(self):
        # v's one loop gives it as many edge-ends as u's two edges give u
        g = Multigraph(("u", "v", "w", "x"), (Edge("e", "v", "v"), Edge("f", "u", "w"), Edge("g", "u", "x")))
        assert is_degree_faithful(PairedGraph(g, Pairing((("u", "v"), ("w", "x")))))

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(DomainError):
            Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("e", "v", "u")))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DomainError):
            Multigraph(("u", "u"), ())

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(DomainError):
            Multigraph(("u",), (Edge("e", "u", "v"),))

    def test_tuple_ends_of_plain_members_pass_and_the_first_fault_is_reported(self):
        # link-graph vertices are EdgeEnds; nested and empty tuples are ids too
        verts = (EdgeEnd("a", 0), EdgeEnd("a", 1), (("x", 1), 0), (), 7)
        edges = [Edge(1, EdgeEnd("a", 0), (("x", 1), 0)), Edge(2, (), 7), Edge(3, EdgeEnd("a", 1), ("a", 0))]
        assert len(Multigraph(verts, tuple(edges)).edges) == 3
        for bad in (Edge(9, 7, ("a", True)), Edge(4, ("a", 1.0), 7), Edge(5, (("x", True), 0), 7)):
            with pytest.raises(DomainError) as info:
                Multigraph(verts, tuple(edges) + (bad, Edge(8, 7.0, 7)))
            first = min(bad.id, 8)
            assert str(info.value) == f"edge {first} names a vertex by an id that only compares equal to it"

    def test_parts_in_id_order_get_the_same_checks(self):
        # Parts already in id order get the constructor's checks; the
        # internal constructor builds the same graph from them as columns,
        # and _extended, the internal path that adds ids, reports a
        # repeated one with the constructor's text.
        faults = (
            (("u", "u"), (), "duplicate vertex id"),
            (("u", "v"), (Edge("e", "u", "v"), Edge("e", "v", "u")), "duplicate edge id 'e'"),
            (("u",), (Edge("e", "u", "v"),), "edge 'e' references a missing vertex"),
            # the first faulty edge in stored order is reported
            (("u",), (Edge("a", "u", "u"), Edge("b", "w", "u"), Edge("b", "u", "u")), "edge 'b' references a missing vertex"),
            (("u",), (Edge("a", "u", "u"), Edge("a", "u", "u"), Edge("b", "u", "w")), "duplicate edge id 'a'"),
            (("u",), (Edge("a", "u", "w"), Edge("a", "u", "u")), "edge 'a' references a missing vertex"),
        )
        for verts, edges, message in faults:
            with pytest.raises(DomainError) as info:
                Multigraph(verts, edges)
            assert str(info.value) == message
        g = Multigraph._from_columns((1, 2), ("a", "b"), [0, 1, 1, 1])
        assert g == Multigraph((2, 1), (Edge("b", 2, 2), Edge("a", 1, 2)))
        assert ends_at(g)[2] == (EdgeEnd("a", 1), EdgeEnd("b", 0), EdgeEnd("b", 1))
        for new_ids, message in ((["b"], "duplicate edge id 'b'"), (["c", "a", "c"], "duplicate edge id 'a'")):
            with pytest.raises(DomainError) as info:
                Multigraph._extended(g, new_ids, [0, 0] * len(new_ids))
            assert str(info.value) == message
            with pytest.raises(DomainError) as info:
                Multigraph(g.vertices, g.edges + tuple(Edge(i, 1, 1) for i in new_ids))
            assert str(info.value) == message

    def test_extended_refuses_a_new_id_as_the_constructor_does(self):
        class Int(int):
            pass

        g = Multigraph._from_columns((1, 2), ("a", "b"), [0, 1, 1, 1])
        for new_ids in (
            [True],
            [1.5, True],
            [("c", 1.0)],
            [("c", ("d", [1]))],
            [("dbl", nested_id(MAX_ID_DEPTH))],  # one deeper than an id may be
            [Int(3), ("dbl", nested_id(MAX_ID_DEPTH - 1))],
            ["c", ("c", Int(0))],
        ):
            edges = g.edges + tuple(Edge(i, 1, 1) for i in new_ids)
            try:
                expected = Multigraph(g.vertices, edges)
            except DomainError as exc:
                with pytest.raises(DomainError) as info:
                    Multigraph._extended(g, new_ids, [0, 0] * len(new_ids))
                assert str(info.value) == str(exc)
            else:
                assert Multigraph._extended(g, new_ids, [0, 0] * len(new_ids))[0] == expected

    def test_storage_is_sorted(self):
        g = Multigraph((3, 1, 2), (Edge("b", 1, 2), Edge("a", 2, 3)))
        assert g.vertices == (1, 2, 3)
        assert [e.id for e in g.edges] == ["a", "b"]

    def test_components(self):
        g = Multigraph((1, 2, 3, 4), (Edge("e", 1, 2),))
        rot = RotationSystem({1: [EdgeEnd("e", 0)], 2: [EdgeEnd("e", 1)]})
        assert [c.vertices for c in genus_check(g, rot)] == [(1, 2), (3,), (4,)]

    def test_components_keep_stored_order(self):
        ids = (5, "b", ("t", 1), 2, "a")
        edges = (Edge(0, ("t", 1), 2), Edge(1, 2, 5), Edge(2, "a", "b"))
        g = Multigraph(ids, edges)
        rot = RotationSystem(ends_at(g))
        assert [c.vertices for c in genus_check(g, rot)] == [(2, 5, ("t", 1)), ("a", "b")]

    def test_ids_nested_too_deep_are_a_domain_error(self):
        def nested(depth):
            x = 0
            for _ in range(depth):
                x = (x,)
            return x

        assert id_sort_key(nested(MAX_ID_DEPTH))[0] == 2
        with pytest.raises(DomainError):
            id_sort_key(nested(MAX_ID_DEPTH + 1))
        deep = nested(3000)
        with pytest.raises(DomainError):
            Multigraph((deep,), ())
        with pytest.raises(DomainError):
            Pairing(((deep, 1),))


class TestEndsTable:
    """The vertex and edge lookups, by every way of making a graph, are
    built on first read and are not fields."""

    def graphs(self):
        yield Multigraph((3, "v", ("t", 1)), (Edge("b", "v", "v"), Edge("a", 3, "v"), Edge(("c",), ("t", 1), 3)))
        yield Multigraph._from_columns((1, 2), ("a", "b"), [0, 1, 1, 1])
        yield link_graph(tetrahedron_complex()).graph
        yield make_degree_faithful(random_planar_paired_graph(2, 9)).graph
        yield Multigraph(("iso",), ())

    def test_answers_match_the_edges(self):
        for g in self.graphs():
            assert all(v in g._index for v in g.vertices) and "zz" not in g._index
            # each vertex's darts, in stored order, are its edge-ends in (edge id, side) order
            darts_at = {v: tuple(end for end, p in zip(third_edges(g), g._at) if p == i) for v, i in g._index.items()}
            assert darts_at == ends_at(g)

    def test_unknown_vertex_or_edge_is_a_domain_error(self):
        for g in self.graphs():
            with pytest.raises(DomainError) as info:
                validate_rotation(g, RotationSystem({"zz": ()}))
            assert str(info.value) == "rotation mentions unknown vertex 'zz'"
            with pytest.raises(DomainError) as info:
                validate_walk(g, ClosedWalk((WalkStep("zz", 0),)))
            assert str(info.value) == "walk not contained in skeleton: unknown edge 'zz'"

    def test_dart_positions_match_the_edges_and_are_built_once(self):
        # a graph stores what its constructor computed: every constructor
        # the dart column, the public one also the edges and the vertex
        # positions it resolved the ends with
        for g in self.graphs():
            if "edges" in g.__dict__:
                assert set(g.__dict__) == {"vertices", "edges", "_ids", "_index", "_at"}
            else:
                assert set(g.__dict__) == {"vertices", "_ids", "_at"}
            index, at = g._index, g._at
            assert index == {v: i for i, v in enumerate(g.vertices)}
            assert at == [index[endpoint(e, s)] for e in g.edges for s in (0, 1)]
            assert g._index is index and g._at is at  # built once

    def test_the_heawood_path_and_augmentation_share_one_dart_table(self):
        # both graphs are built on their dart column, which every reader shares
        pg = random_planar_paired_graph(3, 40)
        pg.require_planar()
        table = pg.graph.__dict__["_at"]
        heawood_colour_12(pg)
        augmented = make_degree_faithful(pg)
        assert pg.graph.__dict__["_at"] is table and pg.graph._at is table
        augmented.require_planar()
        table = augmented.graph.__dict__["_at"]
        pi_trail_decomposition(augmented)
        assert augmented.graph.__dict__["_at"] is table and augmented.graph._at is table

    def test_equality_and_hash_ignore_the_table(self):
        for built, fresh in zip(self.graphs(), self.graphs()):
            built._index, built._at, built._position
            assert "_position" in built.__dict__ and "_position" not in fresh.__dict__
            assert {"_index", "_at"} <= built.__dict__.keys()
            # every constructor stores the dart column, only the public one the positions
            assert "_at" in fresh.__dict__ and ("_index" in fresh.__dict__) == ("edges" in fresh.__dict__)
            assert built == fresh
            assert hash(built) == hash(fresh)
            assert len({built, fresh}) == 1


class TestThirdEdges:
    def test_single_edge(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        assert third_edges(g) == [EdgeEnd("e", 0), EdgeEnd("e", 1)]

    def test_loop_still_has_two_ends(self):
        g = Multigraph(("v",), (Edge("e", "v", "v"),))
        assert third_edges(g) == [EdgeEnd("e", 0), EdgeEnd("e", 1)]

    def test_triangle_has_six(self):
        assert len(third_edges(triangle_complex().skeleton)) == 6


class TestWalks:
    def test_validation_rejects_unknown_edge(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        with pytest.raises(DomainError):
            validate_walk(g, ClosedWalk((WalkStep("f", 0),)))

    def test_validation_rejects_incompatible_steps(self):
        g = Multigraph(("u", "v", "w"), (Edge("e", "u", "v"), Edge("f", "w", "w")))
        with pytest.raises(DomainError):
            validate_walk(g, ClosedWalk((WalkStep("e", 0), WalkStep("f", 0))))

    def test_empty_walk_rejected(self):
        with pytest.raises(DomainError):
            ClosedWalk(())

    @pytest.mark.parametrize("entry", [2, -1, 0.5, [0], None])
    def test_invalid_entry_side_rejected(self, entry):
        steps = (WalkStep("e", 0), ("f", entry), ("g", 3))
        with pytest.raises(DomainError) as info:
            ClosedWalk(steps)
        assert str(info.value) == f"walk step {WalkStep('f', entry)!r} has an invalid entry side"

    def test_sides_equal_to_0_or_1_are_kept(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        walk = ClosedWalk((("e", False), ("e", 1.0)))
        assert walk.steps == (WalkStep("e", 0), WalkStep("e", 1))
        validate_walk(g, walk)
        TwoComplex(g, (walk,))

    def test_sides_equal_to_0_or_1_are_stored_as_ints(self):
        walk = ClosedWalk((("e", False), ("e", 1.0), ("e", True), ("e", 0)))
        assert [type(s.entry) for s in walk.steps] == [int] * 4
        assert walk.steps == (WalkStep("e", 0), WalkStep("e", 1), WalkStep("e", 1), WalkStep("e", 0))

    def test_reverse_preserves_validity(self):
        # sealing appends each walk backwards: its steps reversed, each flipped
        c = tetrahedron_complex()
        for cell in c.cells:
            validate_walk(c.skeleton, ClosedWalk(tuple(flipped(s) for s in reversed(cell.steps))))


class TestWalkFaults:
    @pytest.mark.parametrize("case", sorted(WALK_FAULTS))
    def test_every_entry_point_raises_the_same_text(self, case):
        steps, message = WALK_FAULTS[case]
        g = Multigraph(*WALK_FAULT_SKELETON)
        walk = ClosedWalk(tuple(WalkStep(*s) for s in steps))
        good = ClosedWalk((WalkStep("ab", 0), WalkStep("bc", 0), WalkStep("ca", 0)))
        for check in (
            lambda: validate_walk(g, walk),
            lambda: TwoComplex(g, (walk,)),
            lambda: TwoComplex(g, (good, walk), "punctured"),
            lambda: TwoComplex(g, (steps,)),
        ):
            with pytest.raises(DomainError) as info:
                check()
            assert str(info.value) == message

    def test_the_first_faulty_cell_is_reported(self):
        g = Multigraph(*WALK_FAULT_SKELETON)
        cells = [WALK_FAULTS[case][0] for case in ("wrap-around", "unknown-edge")]
        with pytest.raises(DomainError) as info:
            TwoComplex(g, cells)
        assert str(info.value) == WALK_FAULTS["wrap-around"][1]


class TestStepIds:
    """A step names its edge by the edge's own id.  ``True`` and ``1.0``
    compare equal to ``1``, and ``(True,)`` to ``(1,)``, but a document
    written from such a step would not load."""

    SKELETON = Multigraph(("h",), (Edge(1, "h", "h"), Edge((1,), "h", "h")))

    @pytest.mark.parametrize(
        "edge, name", [(True, 1), (1.0, 1), ((True,), (1,)), ((1.0,), (1,)), (("x", 1.0), None)]
    )
    def test_an_equal_id_of_another_kind_is_rejected(self, edge, name):
        g = self.SKELETON
        if name is None:  # a tuple id with a string in it
            g, name = Multigraph(("h",), (Edge(("x", 1), "h", "h"),)), ("x", 1)
        step = WalkStep(edge, 0)
        message = f"walk step {step!r} names edge {name!r} by an id that only compares equal to it"
        for check in (
            lambda: validate_walk(g, ClosedWalk((step,))),
            lambda: TwoComplex(g, ((step,),), "punctured"),
            lambda: TwoComplex(g, ((WalkStep(name, 0), step),)),
        ):
            with pytest.raises(DomainError) as info:
                check()
            assert str(info.value) == message

    def test_an_unknown_edge_is_reported_first(self):
        walk = ClosedWalk((WalkStep(True, 0), WalkStep("zz", 0)))
        with pytest.raises(DomainError) as info:
            validate_walk(self.SKELETON, walk)
        assert str(info.value) == "walk not contained in skeleton: unknown edge 'zz'"

    def test_an_equal_id_of_the_same_kind_is_accepted(self):
        # ints past the small-int cache are separate objects when rebuilt
        big = 10**6
        g = Multigraph(("h",), (Edge(big, "h", "h"), Edge(("a", big), "h", "h")))
        walk = ClosedWalk((WalkStep(int(str(big)), 0), WalkStep(("a", int(str(big))), 1)))
        assert walk.steps[0].edge is not g.edges[0].id
        validate_walk(g, walk)
        TwoComplex(g, (walk,))


# Each builds with ``bad`` in one place, behind or ahead of another fault;
# the expected text names ``bad`` as ``{}``.
UNHASHABLE_CASES = {
    "walk step": (
        lambda bad: TwoComplex(TestStepIds.SKELETON, [[(1, 0), (bad, 0)]]),
        "walk not contained in skeleton: unknown edge {}",
    ),
    "walk step after an equal id": (
        lambda bad: TwoComplex(TestStepIds.SKELETON, [[(True, 0), (bad, 1)]]),
        "walk not contained in skeleton: unknown edge {}",
    ),
    "walk step after an unknown edge": (
        lambda bad: TwoComplex(TestStepIds.SKELETON, [[("zz", 0), (bad, 0)]]),
        "walk not contained in skeleton: unknown edge 'zz'",
    ),
    "rotation vertex": (
        lambda bad: RotationSystem(((bad, (EdgeEnd("e", 0),)), ("w", (EdgeEnd("e", 1),)))),
        "unsupported id {}: ids are ints, strings or tuples",
    ),
    "rotation vertex before a bad side": (
        lambda bad: RotationSystem(((bad, (EdgeEnd("e", 0),)), ("w", (EdgeEnd("e", 2),)))),
        "edge-end EdgeEnd(edge='e', side=2) has an invalid side",
    ),
    "edge end": (
        lambda bad: Multigraph(("v",), (Edge("a", bad, "v"), Edge("b", "v", "v"))),
        "edge 'a' references a missing vertex",
    ),
    "edge end after a missing vertex": (
        lambda bad: Multigraph(("v",), (Edge("a", "v", "w"), Edge("b", "v", bad))),
        "edge 'a' references a missing vertex",
    ),
}


class TestUnhashableIds:
    """An unhashable value is no id, and gets the error that a hashable
    non-id such as ``1.5`` gets in the same place, in the same order."""

    @pytest.mark.parametrize("bad", [1.5, ["a"], {"a": 1}])
    @pytest.mark.parametrize("case", sorted(UNHASHABLE_CASES))
    def test_is_refused_as_a_hashable_non_id_is(self, case, bad):
        build, message = UNHASHABLE_CASES[case]
        with pytest.raises(DomainError) as info:
            build(bad)
        assert str(info.value) == message.format(short_repr(bad))

    @pytest.mark.parametrize("case", sorted(UNHASHABLE_CASES))
    def test_inside_a_tuple(self, case):
        build, _ = UNHASHABLE_CASES[case]
        texts = []
        for bad in (("a", 1.5), ("a", ["b"])):
            with pytest.raises(DomainError) as info:
                build(bad)
            texts.append(str(info.value))
        assert texts[1] == texts[0].replace("1.5", "['b']")


class TestHugeIds:
    def test_an_int_too_long_to_print_is_echoed_by_its_size(self):
        # repr refuses an int of more digits than sys.get_int_max_str_digits()
        assert short_repr(10**5000) == short_repr(-(10**5000)) == "<int of 16610 bits>"
        assert short_repr(("a", 10**5000)) == "('a', <int of 16610 bits>)"
        assert short_repr(10**30) == repr(10**30) and short_repr(-7) == "-7"
        with pytest.raises(DomainError) as info:
            Multigraph((), (Edge(10**5000, 1, 1),))
        assert str(info.value) == "edge <int of 16610 bits> references a missing vertex"


class TestRowsOfTheWrongLength:
    @pytest.mark.parametrize("row", [("a",), ("a", 0, 1), ()])
    def test_a_walk_step_is_refused(self, row):
        g = Multigraph(("h",), (Edge("a", "h", "h"),))
        for build in (lambda: ClosedWalk((("a", 0), row)), lambda: TwoComplex(g, [[("a", 0), row]])):
            with pytest.raises(DomainError) as info:
                build()
            assert str(info.value) == f"walk step {row!r} has an invalid entry side"

    @pytest.mark.parametrize("row", [("a",), ("a", 0, 1), ()])
    def test_an_edge_end_is_refused(self, row):
        for orders in ({"v": [("a", 0), row]}, (("v", [row, ("a", 5)]),)):
            with pytest.raises(DomainError) as info:
                RotationSystem(orders)
            assert str(info.value) == f"edge-end {row!r} has an invalid side"

    def test_the_first_faulty_row_is_named(self):
        with pytest.raises(DomainError) as info:
            ClosedWalk((("a", 0), ("a", 2), ("a",)))
        assert str(info.value) == "walk step WalkStep(edge='a', entry=2) has an invalid entry side"


class TestRowsThatAreNotIterable:
    def test_each_constructor_names_the_row(self):
        g = Multigraph(("h",), (Edge("a", "h", "h"),))
        for build, message in (
            (lambda: TwoComplex(g, [[5]]), "walk step 5 has an invalid entry side"),
            (lambda: RotationSystem({"v": [5]}), "edge-end 5 has an invalid side"),
            (lambda: ClosedWalk((("a", 0), None)), "walk step None has an invalid entry side"),
        ):
            with pytest.raises(DomainError) as info:
                build()
            assert str(info.value) == message

    def test_the_first_faulty_row_is_named(self):
        for steps, bad in (
            ((("a", 0), ("a", 2), None), "WalkStep(edge='a', entry=2)"),
            ((("a", 0), 7, ("a",)), "7"),
            (iter((("a", 1), ("a",), None)), "('a',)"),
        ):
            with pytest.raises(DomainError) as info:
                ClosedWalk(steps)
            assert str(info.value) == f"walk step {bad} has an invalid entry side"


class _Side(int):
    """An int subclass: a side that compares equal to an int but is not one."""


class TestRowsThatAreNotRows:
    CASES = {
        "edge-too-short": (lambda: Multigraph(("u",), [("e", "u")]), "edge ('e', 'u') must be an (id, end0, end1) row"),
        "edge-not-iterable": (lambda: Multigraph(("u",), [5]), "edge 5 must be an (id, end0, end1) row"),
        "edge-first-given": (
            lambda: Multigraph(("u",), iter([("b", "u", "u"), 7, ("a",)])),
            "edge 7 must be an (id, end0, end1) row",
        ),
        "pairing-class": (lambda: Pairing([5]), "pairing class 5 must have exactly two distinct members"),
        "pairing-first-given": (
            lambda: Pairing([("x", "x"), 5]),
            "pairing class ('x', 'x') must have exactly two distinct members",
        ),
        "rotation-entry": (lambda: RotationSystem([("u",)]), "rotation entry ('u',) must be a (vertex, order) pair"),
        "rotation-first-given": (
            lambda: RotationSystem([("v", ()), 5, ("u", (), 3)]),
            "rotation entry 5 must be a (vertex, order) pair",
        ),
        # a pairing that does not name exactly the graph's vertices
        "pairing-one-vertex-too-many": (
            lambda: PairedGraph(Multigraph(("a", "b")), Pairing([("a", "b"), ("c", "d")])),
            "pairing does not cover exactly the vertex set",
        ),
        "pairing-one-vertex-too-few": (
            lambda: PairedGraph(Multigraph(("a", "b", "c", "d", "e")), Pairing([("a", "b"), ("c", "d")])),
            "pairing does not cover exactly the vertex set",
        ),
        "pairing-one-vertex-renamed": (
            lambda: PairedGraph(Multigraph(("a", "b", "c", "d")), Pairing([("a", "b"), ("c", "z")])),
            "pairing does not cover exactly the vertex set",
        ),
    }

    # (id, side) rows, each sent through a closed walk and a rotation order:
    # the fault each names, or the records each stores, every side an int
    SIDE_ROWS = {
        "bad-side-before-not-iterable": (
            lambda: [("a", 2), 5],
            "walk step WalkStep(edge='a', entry=2) has an invalid entry side",
            "edge-end EdgeEnd(edge='a', side=2) has an invalid side",
        ),
        "not-iterable-before-bad-side": (
            lambda: [5, ("a", 2)],
            "walk step 5 has an invalid entry side",
            "edge-end 5 has an invalid side",
        ),
        "string": (
            lambda: ["ab"],
            "walk step WalkStep(edge='a', entry='b') has an invalid entry side",
            "edge-end EdgeEnd(edge='a', side='b') has an invalid side",
        ),
        "one-member": (
            lambda: [("a",)],
            "walk step ('a',) has an invalid entry side",
            "edge-end ('a',) has an invalid side",
        ),
        "three-members": (
            lambda: [("a", 0, 1)],
            "walk step ('a', 0, 1) has an invalid entry side",
            "edge-end ('a', 0, 1) has an invalid side",
        ),
        "generator": (
            lambda: (row for row in [("a", 0), ("b", 3)]),
            "walk step WalkStep(edge='b', entry=3) has an invalid entry side",
            "edge-end EdgeEnd(edge='b', side=3) has an invalid side",
        ),
        "int-subclass-side": (lambda: [("a", _Side(1))], (WalkStep("a", 1),), (EdgeEnd("a", 1),)),
        "bool-side": (lambda: [("a", True)], (WalkStep("a", 1),), (EdgeEnd("a", 1),)),
        "float-side": (lambda: [("b", 1.0)], (WalkStep("b", 1),), (EdgeEnd("b", 1),)),
    }
    for name, (rows, walk, order) in SIDE_ROWS.items():
        CASES[f"walk-{name}"] = (lambda rows=rows: ClosedWalk(rows()).steps, walk)
        CASES[f"order-{name}"] = (lambda rows=rows: RotationSystem({"v": rows()}).orders[0][1], order)
    del name, rows, walk, order

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_first_faulty_row_is_named(self, case):
        build, expected = self.CASES[case]
        if not isinstance(expected, str):  # accepted: the records stored, each side an int
            stored = build()
            assert stored == expected and list(map(type, stored)) == list(map(type, expected))
            assert all(type(side) is int for _, side in stored)
            return
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == expected


class TestContainersAndPartsOfTheWrongType:
    # a container that is not iterable, or a part that is not of its type,
    # is named in a DomainError; the last two keep their place in the
    # first-fault order
    CASES = {
        "graph-edges": (lambda: Multigraph(("u",), 5), "graph edges 5 must be an iterable of (id, end0, end1) rows"),
        "graph-vertices": (lambda: Multigraph(5, ()), "graph vertices 5 must be an iterable of ids"),
        "pairing": (lambda: Pairing(5), "pairing 5 must be an iterable of classes"),
        "rotation": (
            lambda: RotationSystem(5),
            "rotation system 5 must be a mapping or an iterable of (vertex, order) pairs",
        ),
        "rotation-order": (lambda: RotationSystem({"v": 5}), "rotation order 5 at 'v' must be an iterable of edge-ends"),
        "walk": (lambda: ClosedWalk(5), "walk steps 5 must be an iterable of steps"),
        "complex-cells": (
            lambda: TwoComplex(Multigraph(("h",), (Edge("a", "h", "h"),)), 5),
            "complex cells 5 must be an iterable of walks",
        ),
        "complex-cell": (
            lambda: TwoComplex(Multigraph(("h",), (Edge("a", "h", "h"),)), [5]),
            "walk steps 5 must be an iterable of steps",
        ),
        "colouring-assignment": (lambda: Colouring(3, 5), "colouring assignment 5 must be a mapping"),
        "colouring-assignment-rows": (lambda: Colouring(3, [1]), "colouring assignment [1] must be a mapping"),
        "colouring-palette": (lambda: Colouring("3", {"a": 0}), "palette size '3' must be an integer"),
        "colouring-palette-str-nothing-coloured": (lambda: Colouring("3", {}), "palette size '3' must be an integer"),
        "colouring-palette-float": (lambda: Colouring(2.5, {"a": 1}), "palette size 2.5 must be an integer"),
        "colouring-palette-bool": (lambda: Colouring(True, {"a": 0}), "palette size True must be an integer"),
        "colouring-palette-negative": (lambda: Colouring(-1, {}), "palette size -1 must not be negative"),
        "colouring-palette-negative-colour-first": (
            lambda: Colouring(-1, {"a": 0}),
            "colour 0 of 'a' is outside palette of size -1",
        ),
        "validate-rotation-rotation": (lambda: validate_rotation(Multigraph(), 5), "rotation 5 must be a RotationSystem"),
        "validate-rotation-graph": (lambda: validate_rotation(5, RotationSystem({})), "graph 5 must be a Multigraph"),
        "genus-check-rotation": (lambda: genus_check(Multigraph(), 5), "rotation 5 must be a RotationSystem"),
        "genus-check-graph": (lambda: genus_check(5, RotationSystem({})), "graph 5 must be a Multigraph"),
        "complex-skeleton": (lambda: TwoComplex(5), "complex skeleton 5 must be a Multigraph"),
        "complex-skeleton-with-cells": (
            lambda: TwoComplex(5, [[("a", 0)]]),
            "complex skeleton 5 must be a Multigraph",
        ),
        "paired-graph": (lambda: PairedGraph(5, Pairing(())), "paired-graph graph 5 must be a Multigraph"),
        "paired-pairing": (lambda: PairedGraph(Multigraph(), 5), "paired-graph pairing 5 must be a Pairing"),
        "paired-rotation": (
            lambda: PairedGraph(Multigraph(), Pairing(()), 5),
            "paired-graph rotation 5 must be a RotationSystem",
        ),
        "complex-kind-first": (lambda: TwoComplex(5, (), "solid"), "unknown complex kind 'solid'"),
        "rotation-vertex-twice": (
            lambda: RotationSystem((("v", ()), ("v", ()))),
            "vertex 'v' appears twice in rotation system",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_value_is_named(self, case):
        build, message = self.CASES[case]
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message


class TestClosedWalkEnumeration:
    # SHA-256 of the walks of ``enumerate_closed_walks`` over
    # ``enumerate_small_skeletons()``, in order, each walk a list of
    # [edge, entry] steps, as JSON; recorded before the enumeration moved
    # onto darts
    WALKS_SHA256 = "dc2decc545f8d110dc9be74a7aafe6824ff244a049ee43882394568fa8722728"

    def test_the_walks_match_their_pinned_digest(self):
        walks = [[[list(s) for s in w.steps] for w in enumerate_closed_walks(g)] for g in enumerate_small_skeletons()]
        assert sum(map(len, walks)) == 902
        assert hashlib.sha256(json.dumps(walks).encode("utf-8")).hexdigest() == self.WALKS_SHA256

    def test_mixed_edge_ids_are_enumerated(self):
        g = Multigraph(("u", "v"), (Edge(1, "u", "v"), Edge("a", "u", "v"), Edge((0, "x"), "v", "v")))
        walks = enumerate_closed_walks(g)
        assert len(walks) == 33
        table, _ = g._steps
        for w in walks:
            validate_walk(g, w)
            assert all(any(s is t for t in table) for s in w.steps)
        # one walk per class under rotation and reversal
        classes = set()
        for w in walks:
            darts = [table.index(s) for s in w.steps]
            words = (darts, [d ^ 1 for d in reversed(darts)])
            classes.add(min(tuple(x[i:] + x[:i]) for x in words for i in range(len(x))))
        assert len(classes) == len(walks)


class TestEmptyRotationOrders:
    @pytest.mark.parametrize("vertex", [1.5, ["v"], True])
    def test_the_vertex_of_an_empty_order_is_checked(self, vertex):
        with pytest.raises(DomainError) as nonempty:
            RotationSystem(((vertex, [("a", 0)]),))
        assert str(nonempty.value) in ("booleans are not valid ids", f"unsupported id {vertex!r}: ids are ints, strings or tuples")
        for orders in (((vertex, ()),), (("u", [("a", 0)]), (vertex, []))):
            with pytest.raises(DomainError) as info:
                RotationSystem(orders)
            assert str(info.value) == str(nonempty.value)

    def test_an_empty_order_is_dropped_and_its_side_faults_come_first(self):
        assert RotationSystem({"v": (), "u": [("a", 0)]}) == RotationSystem({"u": [("a", 0)]})
        assert RotationSystem({"v": ()}).orders == ()
        with pytest.raises(DomainError) as info:
            RotationSystem(((1.5, ()), ("u", [("a", 3)])))
        assert str(info.value) == "edge-end EdgeEnd(edge='a', side=3) has an invalid side"

    def test_each_constructor_stores_one_listing(self):
        # the constructor's rows keep the empty orders that ``orders`` drops
        rot = RotationSystem({"v": (), "u": [("a", 0)]})
        assert set(rot.__dict__) == {"orders", "_norm"}
        assert rot._norm == (None, (("u", (EdgeEnd("a", 0),)), ("v", ())))
        assert rot.orders[0] is rot._norm[1][0]
        # a rotation built on darts stores its graph and dart records only
        pg = random_planar_paired_graph(0, 3)
        assert set(pg.rotation.__dict__) == {"_norm"} and pg.rotation._norm[0] is pg.graph
        assert not hasattr(RotationSystem, "_norm") and not hasattr(RotationSystem, "_listed")


class TestLinkGraph:
    def test_triangle_link_is_perfect_matching(self):
        L = link_graph(triangle_complex())
        assert len(L.graph.vertices) == 6
        assert edge_pairs(L.graph) == {
            (EdgeEnd("a", 1), EdgeEnd("b", 0)): 1,
            (EdgeEnd("b", 1), EdgeEnd("c", 0)): 1,
            (EdgeEnd("a", 0), EdgeEnd("c", 1)): 1,
        }

    def test_tetrahedron_link_is_four_disjoint_triangles(self):
        L = link_graph(tetrahedron_complex())
        assert len(L.graph.vertices) == 12
        assert len(L.graph.edges) == 12
        comps = bfs_components(L.graph)
        assert len(comps) == 4
        assert all(len(comp) == 3 for comp in comps)
        # each component is a triangle: 3 vertices, 3 edges among them
        for comp in comps:
            members = set(comp)
            count = sum(1 for e in L.graph.edges if e.end0 in members and e.end1 in members)
            assert count == 3

    def test_one_loop_link_is_single_within_pair_edge(self):
        L = link_graph(one_loop_complex())
        assert len(L.graph.vertices) == 2
        assert edge_pairs(L.graph) == {(EdgeEnd("e", 0), EdgeEnd("e", 1)): 1}
        assert L.pairing.pairs == ((EdgeEnd("e", 0), EdgeEnd("e", 1)),)

    def test_invariant_counts(self):
        for c in (triangle_complex(), tetrahedron_complex(), one_loop_complex()):
            L = link_graph(c)
            assert len(L.graph.vertices) == 2 * len(c.skeleton.edges)
            assert len(L.graph.edges) == sum(len(cell) for cell in c.cells)

    def test_puncturing_invariance(self):
        c = triangle_complex()
        punctured = TwoComplex(c.skeleton, c.cells, kind="punctured")
        assert link_graph(c) == link_graph(punctured)

    def test_rejects_walk_not_in_skeleton(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        with pytest.raises(DomainError):
            TwoComplex(g, (ClosedWalk((WalkStep("zzz", 0),)),))


class TestQuotients:
    def test_triangle_quotient_is_triangle(self):
        L = link_graph(triangle_complex())
        q = paired_quotient(L)
        assert q.vertices == (EdgeEnd("a", 0), EdgeEnd("b", 0), EdgeEnd("c", 0))
        assert len(q.edges) == 3
        assert edge_pairs(q) == {
            (EdgeEnd("a", 0), EdgeEnd("b", 0)): 1,
            (EdgeEnd("b", 0), EdgeEnd("c", 0)): 1,
            (EdgeEnd("a", 0), EdgeEnd("c", 0)): 1,
        }

    def test_tetrahedron_quotient_is_octahedron(self):
        L = link_graph(tetrahedron_complex())
        q = simple_quotient(L)
        assert len(q.vertices) == 6
        assert len(q.edges) == 12
        # octahedron: every vertex has degree 4, opposite K4 edges non-adjacent
        assert all(degree(q, v) == 4 for v in q.vertices)

    def test_within_pair_edge_becomes_loop(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        pg = PairedGraph(g, Pairing((("u", "v"),)))
        q = paired_quotient(pg)
        assert q.vertices == ("u",)
        assert q.edges == (Edge("e", "u", "u"),)
        assert simple_quotient(pg).edges == ()

    def test_parallel_quotient_edges_collapse(self):
        g = Multigraph(
            ("a", "b", "c", "d"),
            (Edge(1, "a", "c"), Edge(2, "a", "d"), Edge(3, "b", "c")),
        )
        pg = PairedGraph(g, Pairing((("a", "b"), ("c", "d"))))
        q = paired_quotient(pg)
        assert len(q.edges) == 3
        sq = simple_quotient(pg)
        assert len(sq.edges) == 1
        assert sq.edges[0].id == 1  # smallest id in the parallel class survives

    def test_quotient_preserves_edge_count(self):
        L = link_graph(tetrahedron_complex())
        assert len(paired_quotient(L).edges) == len(L.graph.edges)


def two_step_simple_quotient(pg):
    """Oracle: the full paired quotient, then loops dropped and each class
    of parallel edges kept at its smallest edge id, found by comparing ids
    rather than by relying on the order of the edges."""
    q = paired_quotient(pg)
    keep = {}
    for e in q.edges:
        if e.is_loop:
            continue
        key = tuple(sorted((e.end0, e.end1), key=id_sort_key))
        if key not in keep or id_sort_key(e.id) < id_sort_key(keep[key].id):
            keep[key] = e
    return Multigraph(q.vertices, tuple(keep.values()))


class TestSimpleQuotientOracle:
    def test_random_maps(self):
        for n in list(range(1, 21)) + [50, 100, 150, 200]:
            pg = random_planar_paired_graph(n, n)
            assert simple_quotient(pg) == two_step_simple_quotient(pg)

    def test_link_graphs_of_small_complexes(self):
        complexes = [triangle_complex(), tetrahedron_complex(), one_loop_complex()]
        complexes += itertools.islice(enumerate_small_complexes(), 0, None, 40)
        for c in complexes:
            L = link_graph(c)
            assert simple_quotient(L) == two_step_simple_quotient(L)

    def test_parallel_class_mixing_int_str_and_tuple_ids(self):
        g = Multigraph(
            ("a", "b", "c", "d"),
            (
                Edge(("t", 1), "a", "c"),
                Edge("s", "b", "d"),
                Edge(5, "d", "a"),
                Edge(3, "c", "b"),
                Edge(0, "a", "b"),
                Edge(("t", 0), "c", "d"),
            ),
        )
        pg = PairedGraph(g, Pairing((("a", "b"), ("c", "d"))))
        sq = simple_quotient(pg)
        assert sq == two_step_simple_quotient(pg)
        assert sq.vertices == ("a", "c")
        assert sq.edges == (Edge(3, "c", "a"),)


def successor_map(rot):
    """Each dart's successor in its cyclic order, by index arithmetic."""
    succ = {}
    for _, order in rot.orders:
        for i, end in enumerate(order):
            succ[end] = order[(i + 1) % len(order)]
    return succ


def bfs_components(g):
    """Oracle: components by breadth-first search over edge endpoints, each
    in stored vertex order, ordered by their first vertex."""
    adjacent = {v: [] for v in g.vertices}
    for e in g.edges:
        adjacent[e.end0].append(e.end1)
        adjacent[e.end1].append(e.end0)
    seen = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        for v in queue:
            for w in adjacent[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        members = set(queue)
        out.append(tuple(v for v in g.vertices if v in members))
    return tuple(out)


def sorted_face_genera(g, rot):
    """Oracle: faces traced from every dart in (edge id, side) order;
    returns (component vertices, face count, genus) per component."""
    succ = successor_map(rot)
    faces = []
    visited = set()
    for start in sorted(succ, key=lambda e: (id_sort_key(e.edge), e.side)):
        if start in visited:
            continue
        d = start
        faces.append(start)
        while True:
            visited.add(d)
            d = succ[EdgeEnd(d.edge, 1 - d.side)]
            if d == start:
                break
    out = []
    edge = {e.id: e for e in g.edges}
    for comp in bfs_components(g):
        members = set(comp)
        edges = sum(1 for e in g.edges if e.end0 in members)
        f = sum(1 for d in faces if endpoint(edge[d.edge], d.side) in members) if edges else 1
        out.append((comp, f, (2 - (len(comp) - edges + f)) // 2))
    return out


def oracle_paired_maps():
    """Certified-planar maps of 1-400 pairs and their degree-faithful
    augmentations; then disconnected maps: two or three maps side by side
    with interleaved vertex ids (one of them K5 plus an isolated vertex,
    of positive genus), with a loop component, an isolated vertex and a
    pair joined by parallel edges added, and their augmentations."""
    for n in list(range(1, 21)) + [50, 100, 200, 400]:
        pg = random_planar_paired_graph(n, n)
        yield pg
        yield make_degree_faithful(pg)
    for a, b in ((1, 2), (3, 7), (20, 30), (100, 1)):
        pg = with_extras(side_by_side(random_planar_paired_graph(a, a), random_planar_paired_graph(b, b)))
        yield pg
        yield make_degree_faithful(pg)
    pg = side_by_side(random_planar_paired_graph(4, 4), k5_paired(), random_planar_paired_graph(5, 5))
    yield pg
    yield make_degree_faithful(pg)


def oracle_maps():
    """The graphs and rotations of ``oracle_paired_maps``, then K5 under
    every one of its 6^5 rotation systems."""
    for pg in oracle_paired_maps():
        yield pg.graph, pg.rotation
    k5 = complete_graph(5)
    cyclic_orders = {}
    for v, (first, *rest) in ends_at(k5).items():
        cyclic_orders[v] = [(first,) + p for p in itertools.permutations(rest)]
    for choice in itertools.product(*cyclic_orders.values()):
        yield k5, RotationSystem(dict(zip(k5.vertices, choice)))


class TestFaceTracingOracle:
    def test_face_counts_and_genera_match_sorted_tracer(self):
        for g, rot in oracle_maps():
            got = [(c.vertices, c.face_count, c.genus) for c in genus_check(g, rot)]
            assert got == sorted_face_genera(g, rot)

    def test_components_match_breadth_first_search(self):
        for g, rot in oracle_maps():
            assert tuple(c.vertices for c in genus_check(g, rot)) == bfs_components(g)

    def test_quotient_neighbours_match_the_simple_quotient(self):
        for pg in oracle_paired_maps():
            assert pg._quotient_neighbours == neighbour_sets(simple_quotient(pg))


class TestGenus:
    def test_k4_planar_rotation(self):
        g, rot = k4_with_planar_rotation()
        (comp,) = genus_check(g, rot)
        assert comp.face_count == 4
        assert comp.genus == 0
        assert all(c.genus == 0 for c in genus_check(g, rot))

    def test_k5_any_rotation_has_positive_genus(self):
        g = complete_graph(5)
        rot = RotationSystem(ends_at(g))
        assert all(comp.genus >= 1 for comp in genus_check(g, rot))

    def test_single_vertex_no_edges(self):
        g = Multigraph((0,), ())
        (comp,) = genus_check(g, RotationSystem({}))
        assert comp == ((0,), 0, 1, 0)

    def test_malformed_rotation_rejected(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        with pytest.raises(DomainError):
            genus_check(g, RotationSystem({"u": (EdgeEnd("e", 0),)}))  # missing (e,1)
        with pytest.raises(DomainError):
            genus_check(
                g,
                RotationSystem(
                    {"u": (EdgeEnd("e", 0), EdgeEnd("e", 0)), "v": (EdgeEnd("e", 1),)}
                ),
            )

    def test_rotation_at_wrong_vertex_rejected(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        with pytest.raises(DomainError):
            genus_check(
                g, RotationSystem({"u": (EdgeEnd("e", 1),), "v": (EdgeEnd("e", 0),)})
            )


def end(edge, side):
    return EdgeEnd(edge, side)


# One rotation fault per case on the graph u -e- v with a loop f at v, and
# the exact error it raises (two cases pin which of two faults is reported).
ROTATION_FAULTS = {
    "unknown-vertex": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 1)], "w": [end("e", 0)]},
        "rotation mentions unknown vertex 'w'",
    ),
    "unknown-edge": (
        {"u": [end("e", 0), end("x", 0)], "v": [end("e", 1), end("f", 0), end("f", 1)]},
        "rotation mentions unknown edge 'x'",
    ),
    "wrong-vertex": (
        {"u": [end("e", 1)], "v": [end("e", 0), end("f", 0), end("f", 1)]},
        "edge-end EdgeEnd(edge='e', side=1) is not incident to vertex 'u'",
    ),
    "listed-twice": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 0)]},
        "edge-end EdgeEnd(edge='f', side=0) appears twice in rotation system",
    ),
    "missing": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0)]},
        "rotation system is missing 1 edge-end(s)",
    ),
    "twice-before-unknown-edge": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 0), end("x", 0)]},
        "edge-end EdgeEnd(edge='f', side=0) appears twice in rotation system",
    ),
    "wrong-vertex-before-twice": (
        {"u": [end("e", 0), end("f", 1), end("e", 0)], "v": [end("e", 1), end("f", 0)]},
        "edge-end EdgeEnd(edge='f', side=1) is not incident to vertex 'u'",
    ),
}

# An empty order at a vertex the graph lacks is refused in its place in
# vertex order, as a nonempty order there is.
EMPTY_ORDER_FAULTS = {
    "last": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 1)], "zz": ()},
        "rotation mentions unknown vertex 'zz'",
    ),
    "first": (
        {"a": (), "u": [end("e", 1)], "v": [end("e", 0), end("f", 0), end("f", 1)]},
        "rotation mentions unknown vertex 'a'",
    ),
    "after-a-fault": (
        {"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 0)], "zz": []},
        "edge-end EdgeEnd(edge='f', side=0) appears twice in rotation system",
    ),
}


def fault_graph():
    return Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("f", "v", "v")))


class TestRotationFaults:
    @pytest.mark.parametrize("case", sorted(ROTATION_FAULTS))
    def test_every_entry_point_raises_the_same_text(self, case):
        orders, message = ROTATION_FAULTS[case]
        g, rot = fault_graph(), RotationSystem(orders)
        for check in (
            lambda: PairedGraph(g, Pairing((("u", "v"),)), rot),
            lambda: genus_check(g, rot),
            lambda: validate_rotation(g, rot),
        ):
            with pytest.raises(DomainError) as info:
                check()
            assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(EMPTY_ORDER_FAULTS))
    def test_an_empty_order_at_an_unknown_vertex_is_refused(self, case):
        orders, message = EMPTY_ORDER_FAULTS[case]
        g, rot = fault_graph(), RotationSystem(orders)
        assert rot == RotationSystem({v: order for v, order in orders.items() if order})
        for check in (
            lambda: PairedGraph(g, Pairing((("u", "v"),)), rot),
            lambda: genus_check(g, rot),
            lambda: validate_rotation(g, rot),
        ):
            with pytest.raises(DomainError) as info:
                check()
            assert str(info.value) == message

    def test_an_empty_order_at_a_known_vertex_is_accepted(self):
        g = Multigraph(("u", "v", "zz"), (Edge("e", "u", "v"),))
        rot = RotationSystem({"u": [end("e", 0)], "v": [end("e", 1)], "zz": ()})
        validate_rotation(g, rot)
        assert genus_check(g, rot)[-1].vertices == ("zz",)

    def test_invalid_side(self):
        with pytest.raises(DomainError) as info:
            RotationSystem({"u": [end("e", 2)]})
        assert str(info.value) == "edge-end EdgeEnd(edge='e', side=2) has an invalid side"

    def test_valid_rotation_is_kept_as_a_compact_successor_array(self):
        rot = RotationSystem({"u": [end("e", 0)], "v": [end("e", 1), end("f", 0), end("f", 1)]})
        pg = PairedGraph(fault_graph(), Pairing((("u", "v"),)), rot)
        # darts 2 * edge position + side: e0 = 0, e1 = 1, f0 = 2, f1 = 3
        assert pg._succ.typecode == "i"
        assert list(pg._succ) == [0, 2, 3, 1]

    def test_require_planar_does_not_validate_again(self, monkeypatch):
        import linkchroma.core as core

        pg = random_planar_paired_graph(3, 30)

        def refuse(*args):
            raise AssertionError("rotation validated twice")

        monkeypatch.setattr(core, "validate_rotation", refuse)
        pg.require_planar()


def dart_rotation(g, darts_at):
    """``RotationSystem._from_darts`` and the public constructor on the
    same edge-ends."""
    ends = third_edges(g)
    orders = {v: [ends[d] for d in darts] for v, darts in zip(g.vertices, darts_at)}
    return RotationSystem._from_darts(g, darts_at), RotationSystem(orders)


class TestRotationsOnDarts:
    # darts of fault_graph(): e0 = 0 at u, e1 = 1, f0 = 2 and f1 = 3 at v
    DART_FAULTS = {
        "wrong-vertex": [[1], [0, 2, 3]],
        "listed-twice": [[0], [3, 2, 2, 1]],
        "missing": [[0], [2, 1]],
    }

    @pytest.mark.parametrize("case", sorted(DART_FAULTS))
    def test_a_bad_order_is_rejected_with_the_public_text(self, case):
        g = fault_graph()
        private, public = dart_rotation(g, self.DART_FAULTS[case])
        message = ROTATION_FAULTS[case][1]
        # on its own graph the dart rotation is checked on its darts, on an
        # equal copy through its edge-ends, as the public twin always is
        for on in (g, fault_graph()):
            for rot in (private, public):
                for check in (
                    lambda: PairedGraph(on, Pairing((("u", "v"),)), rot),
                    lambda: genus_check(on, rot),
                    lambda: validate_rotation(on, rot),
                ):
                    with pytest.raises(DomainError) as info:
                        check()
                    assert str(info.value) == message
        assert private == public and private.orders == public.orders

    def test_pivot_is_the_smallest_dart(self):
        # stored as vertices (2, "h") and edges 5, "a", ("b", 0): darts 0-5
        g = Multigraph(("h", 2), (Edge(("b", 0), "h", "h"), Edge(5, "h", 2), Edge("a", "h", "h")))
        private, public = dart_rotation(g, [[1], [5, 4, 3, 0, 2]])
        assert private.orders == public.orders
        b = ("b", 0)
        assert dict(private.orders)["h"] == (EdgeEnd(5, 0), EdgeEnd("a", 0), EdgeEnd(b, 1), EdgeEnd(b, 0), EdgeEnd("a", 1))
        private, public = dart_rotation(g, [[], [4, 3, 0, 5, 2]])
        assert private.orders == public.orders
        assert 2 not in dict(private.orders)

    def test_the_check_on_darts_serves_only_its_own_graph(self):
        pg = random_planar_paired_graph(0, 20)
        # on the map it was built for, the check keys no vertex and makes
        # no edge-end
        assert PairedGraph(pg.graph, pg.pairing, pg.rotation)._succ == pg._succ
        assert "_index" not in pg.graph.__dict__ and "orders" not in pg.rotation.__dict__
        equal = Multigraph(pg.graph.vertices, pg.graph.edges)
        assert PairedGraph(equal, pg.pairing, pg.rotation)._succ == pg._succ
        assert "orders" in pg.rotation.__dict__  # only translation makes them
        smaller = Multigraph(pg.graph.vertices, pg.graph.edges[1:])
        with pytest.raises(DomainError) as info:
            PairedGraph(smaller, pg.pairing, pg.rotation)
        assert str(info.value) == f"rotation mentions unknown edge {pg.graph.edges[0].id!r}"

    def test_constructors_on_darts_still_validate_their_output(self, monkeypatch):
        import linkchroma.core as core

        build = core.RotationSystem._from_darts.__func__

        def drop_one(cls, g, darts_at):
            darts_at = [list(darts) for darts in darts_at]
            next(darts for darts in darts_at if darts).pop()
            return build(cls, g, darts_at)

        monkeypatch.setattr(core.RotationSystem, "_from_darts", classmethod(drop_one))
        g, rot = k4_with_planar_rotation()
        pg = PairedGraph(g, Pairing(((1, 2), (3, 4))), rot)
        for construct in (lambda: make_degree_faithful(pg), lambda: random_planar_paired_graph(0, 5)):
            with pytest.raises(DomainError) as info:
                construct()
            assert str(info.value) == "rotation system is missing 1 edge-end(s)"


def nested_id(depth):
    x = 0
    for _ in range(depth):
        x = (x,)
    return x


class TestPairingFaults:
    FAULTS = (
        ((("u", "u"),), "pairing class ('u', 'u') must have exactly two distinct members"),
        ((("u", "v", "w"),), "pairing class ('u', 'v', 'w') must have exactly two distinct members"),
        ((("u", "v"), ("v", "w")), "vertex 'v' appears in more than one pair"),
        ((("v", "u"), ("w", "u"), ("x", "x")), "vertex 'u' appears in more than one pair"),
        ((("u", True),), "booleans are not valid ids"),
        ((("x", "y"), ("z", 1.5)), "unsupported id 1.5: ids are ints, strings or tuples"),
        (((EdgeEnd(nested_id(MAX_ID_DEPTH), 0), "y"),), f"ids may nest tuples at most {MAX_ID_DEPTH} deep"),
    )

    @pytest.mark.parametrize("pairs, message", FAULTS)
    def test_exact_text(self, pairs, message):
        with pytest.raises(DomainError) as info:
            Pairing(pairs)
        assert str(info.value) == message


class TestPairings:
    def test_classes_must_have_two_distinct_members(self):
        with pytest.raises(DomainError):
            Pairing((("u", "u"),))
        with pytest.raises(DomainError):
            Pairing((("u", "v", "w"),))

    def test_disjointness(self):
        with pytest.raises(DomainError):
            Pairing((("u", "v"), ("v", "w")))

    def test_paired_graph_requires_exact_cover(self):
        g = Multigraph(("u", "v", "w"), ())
        with pytest.raises(DomainError):
            PairedGraph(g, Pairing((("u", "v"),)))
        # as many members as vertices, but not the same ones, on graphs
        # built both ways
        for g in (Multigraph(("u", "v"), ()), Multigraph._from_columns(("u", "v"), (), [])):
            for pairs in ((("u", "w"),), (("u", "v"), ("w", "x"))):
                with pytest.raises(DomainError) as info:
                    PairedGraph(g, Pairing(pairs))
                assert str(info.value) == "pairing does not cover exactly the vertex set"

    def test_classes_are_stored_smaller_member_first(self):
        p = Pairing(((2, 1), (3, 4)))
        assert p.pairs == ((1, 2), (3, 4))


def k5_paired(rotation=True):
    """K5 plus an isolated vertex, paired, with a rotation system (every
    rotation of K5 has positive genus) unless ``rotation`` is false."""
    k5 = complete_graph(5)
    g = Multigraph(k5.vertices + (5,), k5.edges)
    rot = RotationSystem(ends_at(k5)) if rotation else None
    return PairedGraph(g, Pairing(((0, 1), (2, 3), (4, 5))), rot)


class TestPairedGraphCaches:
    def test_positive_genus_raises_on_every_call(self):
        pg = k5_paired()
        for _ in range(2):
            with pytest.raises(DomainError, match="planarity certificate invalid"):
                pg.require_planar()

    def test_missing_rotation_raises(self):
        pg = k5_paired(rotation=False)
        for _ in range(2):
            with pytest.raises(DomainError, match="planarity certificate missing"):
                pg.require_planar()

    def test_quotient_neighbours_and_order_are_built_once(self):
        for pg in (link_graph(tetrahedron_complex()), k5_paired()):
            assert pg._quotient_neighbours == neighbour_sets(simple_quotient(pg))
            assert pg._quotient_neighbours is pg._quotient_neighbours
            assert pg._smallest_last is pg._smallest_last

    def test_filled_caches_leave_equality_and_hash_alone(self):
        filled, fresh = k5_paired(), k5_paired()
        with pytest.raises(DomainError):
            filled.require_planar()
        assert filled._quotient_neighbours == neighbour_sets(simple_quotient(fresh))
        assert filled._smallest_last
        assert filled == fresh
        assert hash(filled) == hash(fresh)
        assert len({filled, fresh}) == 1


class TestSimplicial:
    def test_classics(self):
        assert is_simplicial(tetrahedron_complex())
        assert is_simplicial(triangle_complex())
        assert not is_simplicial(one_loop_complex())

    def test_parallel_edges_break_simpliciality(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("f", "u", "v")))
        assert not is_simplicial(TwoComplex(g, ()))

    def test_non_triangle_walk_breaks_simpliciality(self):
        c = triangle_complex()
        back_and_forth = ClosedWalk((WalkStep("a", 0), WalkStep("a", 1)))
        assert not is_simplicial(TwoComplex(c.skeleton, (back_and_forth,)))

    def test_agrees_with_the_edge_level_reading(self):
        def reference(c):
            g = c.skeleton
            edge = {e.id: e for e in g.edges}
            pairs = [frozenset((e.end0, e.end1)) for e in g.edges]
            if any(e.is_loop for e in g.edges) or len(set(pairs)) != len(pairs):
                return False
            return all(
                len(cell) == 3
                and len({s.edge for s in cell.steps}) == 3
                and len({endpoint(edge[s.edge], s.entry) for s in cell.steps}) == 3
                for cell in c.cells
            )

        # on a simple triangle: its boundary both ways, twice, and a walk
        # of four steps; an edge parallel to another the other way round;
        # and a loop
        g = Multigraph(("u", "v", "w"), (Edge("a", "u", "v"), Edge("b", "v", "w"), Edge("c", "w", "u")))
        around = (WalkStep("a", 0), WalkStep("b", 0), WalkStep("c", 0))
        back = (WalkStep("c", 1), WalkStep("b", 1), WalkStep("a", 1))
        parallel = Multigraph(g.vertices, g.edges + (Edge("d", "v", "u"),))
        odd = [
            TwoComplex(g, (around, back, around)),
            TwoComplex(g, (around, (WalkStep("a", 0), WalkStep("a", 1)) * 2)),
            TwoComplex(parallel, (around,)),
            TwoComplex(Multigraph(g.vertices, g.edges + (Edge("e", "w", "w"),)), (around,)),
        ]
        punctured = inverse_link(make_degree_faithful(random_planar_paired_graph(1, 6)))
        complexes = list(enumerate_small_complexes())[::13] + odd + [tetrahedron_complex(), punctured]
        answers = [is_simplicial(c) for c in complexes]
        assert answers == [reference(c) for c in complexes]
        assert True in answers and False in answers
