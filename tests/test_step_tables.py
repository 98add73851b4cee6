"""The construction chain on darts against the loops it replaced.

Each ``*_reference`` below is the replaced code, kept verbatim: sealing step by
flipped step, the list-comprehension ``validate_walk`` and
``link_graph``, the ``WalkStep(*item)`` parse of ``complex_from_doc`` and
the per-step reader that followed it, the per-step ``complex_to_doc`` and
the id-level rotation check that ``validate_rotation`` replaced.  The tests
check that the library's outputs and error texts are equal to theirs on
random certified maps, on the complexes the chain builds from them, and on
a sample of the small-complex corpus.  Rotations built on darts are checked against the
constructor's.
"""

import random
from array import array
from itertools import islice
from operator import itemgetter

import pytest

from linkchroma import formats
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.construct import inverse_link, make_degree_faithful, random_planar_paired_graph, seal
from linkchroma.core import (
    GENUINE,
    PUNCTURED,
    ClosedWalk,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    id_sort_key,
    link_graph,
    third_edges,
    validate_rotation,
    validate_walk,
)
from linkchroma.corpus import enumerate_small_complexes
from linkchroma.errors import DomainError, SchemaError, short_repr
from linkchroma.formats import _check_fields, _parse_side_entry, graph_from_doc, id_from_json, id_to_json

from strategies import WALK_FAULT_SKELETON, WALK_FAULTS, flipped

# ---------------------------------------------------------------------------
# The replaced loops


def validate_walk_reference(g: Multigraph, walk: ClosedWalk) -> None:
    """Check that ``walk`` lives in ``g`` and is cyclically vertex-compatible:
    every edge is known, then each step exits where the next one enters,
    the first fault in step order reported."""
    steps = walk.steps
    by_id = {e.id: e for e in g.edges}
    edges = [by_id.get(s[0]) for s in steps]
    if None in edges:
        raise DomainError(
            f"walk not contained in skeleton: unknown edge {short_repr(steps[edges.index(None)].edge)}"
        )
    # An Edge is (id, end0, end1): a step with entry side 0 enters at end0.
    ins = [e[2] if s[1] else e[1] for e, s in zip(edges, steps)]
    outs = [e[1] if s[1] else e[2] for e, s in zip(edges, steps)]
    ins.append(ins.pop(0))
    if outs != ins:
        i = next(i for i, (here, there) in enumerate(zip(outs, ins)) if here != there)
        raise DomainError(f"walk is not vertex-compatible between steps {i} and {(i + 1) % len(steps)}")


def link_graph_reference(c: TwoComplex) -> PairedGraph:
    for e in c.skeleton.edges:
        if isinstance(e.id, tuple):
            id_sort_key((e.id,))
    verts = tuple(third_edges(c.skeleton))
    pairing = Pairing._sorted(tuple(zip(verts[::2], verts[1::2])))
    dart = {e.id: 2 * i for i, e in enumerate(c.skeleton.edges)}
    edges = []
    for ci, cell in enumerate(c.cells):
        # the third-edge each step enters by and exits by
        ins = [verts[dart[s.edge] + s.entry] for s in cell.steps]
        outs = [verts[dart[s.edge] + 1 - s.entry] for s in cell.steps]
        edges += (Edge((ci, j), a, b) for j, (a, b) in enumerate(zip(outs, ins[1:] + ins[:1])))
    return PairedGraph(Multigraph(verts, tuple(edges)), pairing)


def seal_reference(c: TwoComplex) -> TwoComplex:
    if c.kind != PUNCTURED:
        raise DomainError("only punctured complexes can be sealed")
    cells = []
    for walk in c.cells:
        steps = walk.steps
        first = steps[0]
        sealed = steps + (first, flipped(first)) + tuple(flipped(s) for s in reversed(steps))
        cells.append(ClosedWalk(sealed))
    return TwoComplex(c.skeleton, tuple(cells), GENUINE)


def complex_to_doc_reference(c: TwoComplex) -> dict:
    return {
        "skeleton": formats.graph_to_doc(c.skeleton),
        "cells": [
            [[e if type(e) in (int, str) else id_to_json(e), entry] for e, entry in cell.steps]
            for cell in c.cells
        ],
        "kind": c.kind,
    }


def complex_from_doc_reference(doc) -> TwoComplex:
    _check_fields(doc, ("skeleton", "cells", "kind"), (), "complex")
    skeleton = graph_from_doc(doc["skeleton"])
    if doc["kind"] not in (GENUINE, PUNCTURED):
        raise SchemaError(f"unknown complex kind {short_repr(doc['kind'])}")
    if not isinstance(doc["cells"], list):
        raise SchemaError("'cells' must be an array")
    cells = []
    for cell in doc["cells"]:
        if not isinstance(cell, list):
            raise SchemaError("each cell must be an array of steps")
        # A step whose id is an int or a string has nothing to parse; any
        # other step gets the full checks.
        steps = tuple(
            [
                WalkStep(*item)
                if type(item) is list
                and len(item) == 2
                and type(item[0]) in (int, str)
                and type(item[1]) is int
                and item[1] in (0, 1)
                else WalkStep(*_parse_side_entry(item, "walk step", "[edge, entry_side]"))
                for item in cell
            ]
        )
        try:
            cells.append(ClosedWalk(steps))
        except DomainError as exc:
            raise SchemaError(str(exc)) from None
    try:
        return TwoComplex(skeleton, tuple(cells), doc["kind"])
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def complex_from_doc_per_step_reference(doc) -> TwoComplex:
    _check_fields(doc, ("skeleton", "cells", "kind"), (), "complex")
    skeleton = graph_from_doc(doc["skeleton"])
    if doc["kind"] not in (GENUINE, PUNCTURED):
        raise SchemaError(f"unknown complex kind {short_repr(doc['kind'])}")
    if not isinstance(doc["cells"], list):
        raise SchemaError("'cells' must be an array")
    table, dart_of = skeleton._steps
    cells = []
    for cell in doc["cells"]:
        if not isinstance(cell, list):
            raise SchemaError("each cell must be an array of steps")
        # A step whose id is an int or a string and whose side is an int is
        # looked up in the skeleton's step table; any other step, and one
        # the table does not hold, gets the full checks.
        steps = tuple(
            [
                table[d]
                if type(item) is list
                and len(item) == 2
                and type(item[0]) in (int, str)
                and type(item[1]) is int
                and (d := dart_of.get(tuple(item))) is not None
                else WalkStep(*_parse_side_entry(item, "walk step", "[edge, entry_side]"))
                for item in cell
            ]
        )
        try:
            cells.append(ClosedWalk(steps))
        except DomainError as exc:
            raise SchemaError(str(exc)) from None
    try:
        return TwoComplex(skeleton, tuple(cells), doc["kind"])
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def graph_from_doc_reference(doc) -> Multigraph:
    _check_fields(doc, ("vertices", "edges"), (), "graph")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise SchemaError("graph fields 'vertices' and 'edges' must be arrays")
    vertices = tuple(id_from_json(v) for v in doc["vertices"])
    edges = []
    for e in doc["edges"]:
        _check_fields(e, ("id", "end0", "end1"), (), "edge")
        edges.append(Edge(id_from_json(e["id"]), id_from_json(e["end0"]), id_from_json(e["end1"])))
    try:
        return Multigraph(vertices, tuple(edges))
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def rotation_successors_reference(g: Multigraph, rot: RotationSystem) -> array:
    """Check that ``rot`` lists every edge-end of ``g`` exactly once, at the
    right vertex, and return its successor array: the dart
    ``2 * edge_position + side`` maps to the next dart around its vertex."""
    edges = g.edges
    position = dict(zip(map(itemgetter(0), edges), range(len(edges))))
    succ = array("i", [-1]) * (2 * len(edges))
    listed = 0
    vertices = set(g.vertices)
    for v, order in rot.orders:
        if v not in vertices:
            raise DomainError(f"rotation mentions unknown vertex {short_repr(v)}")
        first = prev = -1
        for end in order:
            i = position.get(end[0])
            if i is None:
                raise DomainError(f"rotation mentions unknown edge {short_repr(end.edge)}")
            # an Edge is (id, end0, end1)
            d, at = (2 * i, edges[i][1]) if end[1] == 0 else (2 * i + 1, edges[i][2])
            if at != v:
                raise DomainError(f"edge-end {short_repr(end)} is not incident to vertex {short_repr(v)}")
            # every dart listed so far has its successor set, but the last
            if succ[d] >= 0 or d == prev:
                raise DomainError(f"edge-end {short_repr(end)} appears twice in rotation system")
            if prev < 0:
                first = d
            else:
                succ[prev] = d
            prev = d
        succ[prev] = first  # orders are never empty
        listed += len(order)
    missing = len(succ) - listed
    if missing:
        raise DomainError(f"rotation system is missing {missing} edge-end(s)")
    return succ


# ---------------------------------------------------------------------------
# Inputs

MAPS = [(0, 5), (1, 12), (2, 50), (3, 120), (4, 400)]


@pytest.fixture(scope="module")
def chains():
    """(map, augmented map, punctured complex) for each of ``MAPS``."""
    out = []
    for seed, n in MAPS:
        pg = random_planar_paired_graph(seed, n)
        augmented = make_degree_faithful(pg)
        out.append((pg, augmented, inverse_link(augmented)))
    return out


@pytest.fixture(scope="module")
def corpus_sample():
    """Every 97th complex of the corpus, and the two catalogue complexes."""
    return list(islice(enumerate_small_complexes(), 0, None, 97)) + [triangle_complex(), tetrahedron_complex()]


def outcome(check):
    """``check()``'s result, or the type and text of the error it raised."""
    try:
        return "ok", check()
    except (DomainError, SchemaError) as exc:
        return type(exc).__name__, str(exc)


def dump(c: TwoComplex) -> str:
    return formats.dumps(formats.complex_to_doc(c))


# ---------------------------------------------------------------------------
# Equal outputs


def test_sealing_by_table_is_sealing_by_flipped(chains, corpus_sample):
    complexes = [punctured for _, _, punctured in chains]
    complexes += [TwoComplex(c.skeleton, c.cells, PUNCTURED) for c in corpus_sample]
    for c in complexes:
        sealed, reference = seal(c), seal_reference(c)
        assert sealed == reference
        assert dump(sealed) == formats.dumps(complex_to_doc_reference(reference))


def test_link_graph_by_dart_is_the_comprehension(chains, corpus_sample):
    complexes = [c for _, _, punctured in chains for c in (punctured, seal(punctured))] + corpus_sample
    for c in complexes:
        link, reference = link_graph(c), link_graph_reference(c)
        assert link.graph.vertices == reference.graph.vertices
        assert link.graph.edges == reference.graph.edges
        assert link.pairing == reference.pairing
        # built without calling the classes, and still their instances
        assert {type(e) for e in link.graph.edges} <= {Edge}
        assert {type(v) for v in link.graph.vertices} <= {EdgeEnd}


def test_documents_are_written_and_read_as_before(chains, corpus_sample):
    complexes = [c for _, _, punctured in chains for c in (punctured, seal(punctured))] + corpus_sample
    # tuple, string and negative ids take the converting writer
    g = Multigraph(("h", (0, "x")), (Edge(("a", (1,)), "h", (0, "x")), Edge(-4, (0, "x"), "h"), Edge("b", "h", "h")))
    walk = ClosedWalk((WalkStep(("a", (1,)), 0), WalkStep(-4, 0), WalkStep("b", 1)))
    complexes.append(TwoComplex(g, (walk, walk), PUNCTURED))
    for c in complexes:
        doc = formats.complex_to_doc(c)
        assert doc == complex_to_doc_reference(c)
        text = formats.dumps(doc)
        assert text == formats.dumps(complex_to_doc_reference(c))
        loaded = formats.complex_from_doc(formats.loads(text))
        assert loaded == complex_from_doc_reference(formats.loads(text)) == c
        assert dump(loaded) == text


# ---------------------------------------------------------------------------
# Equal error texts


def walk_variants(g: Multigraph, walk: ClosedWalk, rng: random.Random) -> list:
    """``walk`` and faulty versions of it: one step with its side flipped,
    one with an unknown edge, one moved to another edge, two steps swapped."""
    steps = list(walk.steps)
    out = [steps]
    j = rng.randrange(len(steps))
    out.append(steps[:j] + [flipped(steps[j])] + steps[j + 1 :])
    out.append(steps[:j] + [WalkStep("zz", 0)] + steps[j + 1 :])
    out.append(steps[:j] + [WalkStep(rng.choice(g.edges).id, rng.randrange(2))] + steps[j + 1 :])
    if len(steps) > 1:
        i = rng.randrange(len(steps) - 1)
        out.append(steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2 :])
    return [ClosedWalk(tuple(s)) for s in out]


def test_walk_faults_are_reported_as_before(chains, corpus_sample):
    rng = random.Random(20)
    cases = []
    for c in corpus_sample + [punctured for _, _, punctured in chains[:3]]:
        for cell in c.cells:
            cases += [(c.skeleton, walk) for walk in walk_variants(c.skeleton, cell, rng)]
    g = Multigraph(*WALK_FAULT_SKELETON)
    cases += [(g, ClosedWalk(tuple(WalkStep(*s) for s in steps))) for steps, _ in WALK_FAULTS.values()]
    faults = 0
    for g, walk in cases:
        got = outcome(lambda: validate_walk(g, walk))
        assert got == outcome(lambda: validate_walk_reference(g, walk))
        if got[0] != "ok":
            faults += 1
            assert outcome(lambda: TwoComplex(g, (walk,))) == got
    assert faults > len(cases) // 5


def step_variants(doc: dict, rng: random.Random) -> list:
    """Documents with one step of ``doc``'s first cell replaced by a bad or
    an unusual entry."""
    cell = doc["cells"][0]
    j = rng.randrange(len(cell))
    edge, side = cell[j]
    out = []
    for item in (
        [edge, 2], [edge, True], [edge, 1.0], [True, side], [1.0, side], ["zz", side], [[1], side],
        [[True], side], [edge], [edge, side, 0], {}, None, [edge, 1 - side], [str(edge), side],
    ):
        bad = [list(map(list, c)) for c in doc["cells"]]
        bad[0][j] = item
        out.append({**doc, "cells": bad})
    return out


def test_document_faults_are_reported_as_before(chains, corpus_sample):
    rng = random.Random(21)
    docs = []
    for c in [punctured for _, _, punctured in chains[:2]] + corpus_sample[::5]:
        if c.cells:
            docs += step_variants(formats.complex_to_doc(c), rng)
    assert len(docs) > 100
    for doc in docs:
        got = outcome(lambda: formats.complex_from_doc(doc))
        assert got == outcome(lambda: complex_from_doc_reference(doc))


def rotation_variants(pg: PairedGraph, rng: random.Random) -> list:
    """``pg``'s rotation and faulty versions of it: an end dropped, listed
    twice, moved to another vertex, renamed to an unknown edge, and an
    order at an unknown vertex; then two of these faults at once."""
    orders = [(v, list(order)) for v, order in pg.rotation.orders]

    def fault(orders):
        orders = [(v, list(order)) for v, order in orders]
        k = rng.randrange(len(orders))
        order = orders[k][1]
        j = rng.randrange(len(order))
        kind = rng.randrange(6)
        if kind == 0:
            del order[j]
        elif kind == 1:
            order.insert(rng.randrange(len(order) + 1), order[j])
        elif kind == 2:
            orders[rng.randrange(len(orders))][1].append(order.pop(j))
        elif kind == 3:
            order[j] = EdgeEnd("zz", order[j].side)
        elif kind == 4:
            orders.append((("zz", k), [order[j]]))
        else:
            order[j] = EdgeEnd(order[j].edge, 1 - order[j].side)
        return orders

    out = [orders, fault(orders), fault(orders), fault(fault(orders))]
    return [RotationSystem(tuple(o)) for o in out]


def test_rotation_successors_are_the_id_level_loop(chains):
    for pg, augmented, _ in chains:
        for g, rot, succ in ((pg.graph, pg.rotation, pg._succ), (augmented.graph, augmented.rotation, augmented._succ)):
            reference = rotation_successors_reference(g, rot)
            assert succ == reference and validate_rotation(g, rot) == reference
            assert validate_rotation(g, RotationSystem(rot.orders)) == reference


def test_rotation_faults_are_reported_as_before(chains):
    from test_core import ROTATION_FAULTS, fault_graph

    rng = random.Random(22)
    cases = [(fault_graph(), RotationSystem(orders)) for orders, _ in ROTATION_FAULTS.values()]
    for pg, augmented, _ in chains[:3]:
        for _ in range(30):
            cases += [(pg.graph, rot) for rot in rotation_variants(pg, rng)]
            cases += [(augmented.graph, rot) for rot in rotation_variants(augmented, rng)[1:]]
    faults = 0
    for g, rot in cases:
        got = outcome(lambda: list(validate_rotation(g, rot)))
        assert got == outcome(lambda: list(rotation_successors_reference(g, rot)))
        faults += got[0] != "ok"
    assert faults > len(cases) // 2


# ---------------------------------------------------------------------------
# One table per skeleton


def test_the_step_table_is_built_once_and_ignored_by_equality(corpus_sample):
    for c in corpus_sample[:20]:
        fresh = Multigraph(c.skeleton.vertices, c.skeleton.edges)
        assert "_steps" not in fresh.__dict__
        table, dart_of = fresh._steps
        assert table == tuple(WalkStep(e.id, s) for e in fresh.edges for s in (0, 1))
        assert {type(s) for s in table} <= {WalkStep}
        assert dart_of == {s: d for d, s in enumerate(table)}
        assert fresh._steps is fresh.__dict__["_steps"]
        assert fresh == c.skeleton and hash(fresh) == hash(c.skeleton)


def test_the_chain_shares_each_skeletons_steps(chains):
    _, _, punctured = chains[2]
    for c in (punctured, seal(punctured), formats.complex_from_doc(formats.complex_to_doc(punctured))):
        table, dart_of = c.skeleton._steps
        assert all(s is table[dart_of[s]] for cell in c.cells for s in cell.steps)


# ---------------------------------------------------------------------------
# Cells read a column at a time


class Int(int):
    """An int subclass: an id, but not on the column reader's path."""


def crafted_documents() -> list:
    """Complex documents whose cells mix rows the column reader takes with
    each kind of row that makes it parse the cell a row at a time, on a
    one-vertex skeleton, on one with several vertices and on one with an
    array id."""
    one = {
        "vertices": ["h"],
        "edges": [{"id": i, "end0": "h", "end1": "h"} for i in (0, 1, "x")],
    }
    # a triangle 0-1-"x" with a pendant edge "p"
    several = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": 0, "end0": "a", "end1": "b"},
            {"id": 1, "end0": "b", "end1": "c"},
            {"id": "x", "end0": "c", "end1": "a"},
            {"id": "p", "end0": "c", "end1": "d"},
        ],
    }
    good = {
        "one": [[[0, 0], [1, 1], ["x", 0]], [[1, 0]], [["x", 1], [0, 1]]],
        "several": [[[0, 0], [1, 0], ["x", 0]], [["x", 1], [1, 1], [0, 1]], [["p", 0], ["p", 1], [1, 1], [0, 1], ["x", 1]]],
    }
    bad_rows = [
        [True, 0], [1, False], [1.0, 0], [1, 2], [1], [1, 0, 0], [[1], 0], "ab", {},
        ["zz", 0], [Int(1), 0], [1, Int(0)], ["x", 1],
    ]
    docs = []
    for name, skeleton in (("one", one), ("several", several)):
        cells = good[name]
        docs.append({"skeleton": skeleton, "cells": cells, "kind": GENUINE})
        docs.append({"skeleton": skeleton, "cells": [*cells, []], "kind": GENUINE})
        for row in bad_rows:
            for k in range(len(cells)):
                for j in (0, len(cells[k]) - 1):
                    changed = [list(c) for c in cells]
                    changed[k][j] = row
                    docs.append({"skeleton": skeleton, "cells": changed, "kind": PUNCTURED})
            # one cell of only this row, and a fault in a later cell after it
            docs.append({"skeleton": skeleton, "cells": [[row], *cells], "kind": GENUINE})
            docs.append({"skeleton": skeleton, "cells": [*cells, [row], [[1, 2]]], "kind": GENUINE})
            docs.append({"skeleton": skeleton, "cells": [[row], [], *cells], "kind": GENUINE})
    # a walk that breaks at a junction, before and after a row the per-step
    # reader refuses, and before an unknown edge
    broken = [[0, 0], ["x", 0], [1, 0]]
    for later in ([[True, 0]], [["zz", 0]], [[Int(1), 1], [0, 1], ["x", 1]], []):
        docs.append({"skeleton": several, "cells": [broken, later], "kind": GENUINE})
        docs.append({"skeleton": several, "cells": [later, broken], "kind": GENUINE})
    # an Int id on a row the table holds, among plain rows; a plain cell
    # with an unknown edge before a later shape fault or empty cell
    for cells in (
        [[[0, 0], [Int(1), 0], ["x", 0]]],
        [[[0, 0], [1, 0], ["x", 0]], [["x", 1], [Int(1), 1], [0, 1]]],
        [[[0, 0], ["zz", 0], ["x", 0]], [[0, 0], [1]]],
        [[[0, 0], ["zz", 0], ["x", 0]], [[0, 0], [1, 2]]],
        [[[0, 0], ["zz", 0], ["x", 0]], []],
        [[["zz", 0]], [[0, 0], [1, 0], ["x", 0]], []],
    ):
        docs.append({"skeleton": several, "cells": cells, "kind": GENUINE})
    # one cell that mixes array-id rows with plain rows
    arrays = {
        "vertices": ["a", "b"],
        "edges": [{"id": 0, "end0": "a", "end1": "b"}, {"id": [0, "t"], "end0": "b", "end1": "a"}],
    }
    for cell in (
        [[0, 0], [[0, "t"], 0]],
        [[[0, "t"], 1], [0, 1]],
        [[0, 0], [[0, "t"], 0], [0, 0], [[0, "t"], 0]],
        [[0, 0], [[0, "t"], 1]],
        [[0, 0], [[0, "t"], 0], [Int(0), 0], [[0, "t"], 0]],
        [[0, 0], [[0, "u"], 0]],
    ):
        docs.append({"skeleton": arrays, "cells": [cell], "kind": GENUINE})
        docs.append({"skeleton": arrays, "cells": [[[0, 0], [[0, "t"], 0]], cell, [[0, 1], [0, 0]]], "kind": PUNCTURED})
    return docs


def test_graph_reader_by_column_is_the_edge_at_a_time_reader():
    base = {
        "vertices": ["a", 0, "b"],
        "edges": [{"id": 0, "end0": "a", "end1": 0}, {"id": "e", "end0": 0, "end1": "b"}, {"id": 2, "end0": "b", "end1": "b"}],
    }
    docs = [base, {"vertices": [], "edges": []}, {"vertices": [1], "edges": []}]
    for value in (True, 1.0, [1], ["a", [2]], Int(1), None, "zz", 2, 0):
        for field in ("id", "end0", "end1"):
            for k in (0, 2):
                edges = [dict(e) for e in base["edges"]]
                edges[k][field] = value
                docs.append({**base, "edges": edges})
        docs.append({**base, "vertices": [*base["vertices"], value]})
    for odd in ({"id": 5, "end0": 0}, {"id": 5, "end0": 0, "end1": 0, "x": 1}, [5, 0, 0], "e", {"end1": 0, "id": 5, "end0": 0}):
        docs.append({**base, "edges": [*base["edges"], odd]})
    docs.append({**base, "vertices": (0, "a", "b")})
    for doc in docs:
        got = outcome(lambda: graph_from_doc(doc))
        assert got == outcome(lambda: graph_from_doc_reference(doc))
        if got[0] == "ok":
            assert [tuple(map(type, e)) for e in got[1].edges] == [tuple(map(type, e)) for e in graph_from_doc_reference(doc).edges]
            assert {type(e) for e in got[1].edges} == {Edge} or not got[1].edges


def read_outcome(reader, doc):
    """``outcome`` of ``reader(doc)``, with each step's id type beside the
    complex: an ``Int`` id equals the int in the table."""
    got = outcome(lambda: reader(doc))
    if got[0] == "ok":
        return got, [[type(s.edge) for s in w.steps] for w in got[1].cells]
    return got, None


def test_column_reader_faults_match_the_per_step_reader():
    docs = crafted_documents()
    outcomes = [read_outcome(formats.complex_from_doc, doc) for doc in docs]
    assert outcomes == [read_outcome(complex_from_doc_per_step_reference, doc) for doc in docs]
    kinds = {got[0] for got, _ in outcomes}
    texts = {got[1] for got, _ in outcomes if got[0] != "ok"}
    assert kinds == {"ok", "SchemaError"}
    assert "walk is not vertex-compatible between steps 2 and 0" in texts
    assert "walk not contained in skeleton: unknown edge 'zz'" in texts
    assert "a closed walk must be nonempty" in texts
    assert any(types and Int in types[0] for _, types in outcomes)


def test_column_reader_keeps_the_tables_steps_and_the_complex(chains, corpus_sample):
    complexes = [c for _, _, punctured in chains for c in (punctured, seal(punctured))] + corpus_sample
    for c in complexes:
        doc = formats.loads(dump(c))
        read = formats.complex_from_doc(doc)
        assert read == complex_from_doc_per_step_reference(doc) == c
        table, dart_of = read.skeleton._steps
        assert all(s is table[dart_of[s]] for cell in read.cells for s in cell.steps)


def test_chain_walks_pass_the_public_constructor(chains, corpus_sample):
    complexes = [punctured for _, _, punctured in chains]
    complexes += [seal(c) for c in complexes]
    complexes += [seal(TwoComplex(c.skeleton, c.cells, PUNCTURED)) for c in corpus_sample]
    for c in complexes:
        assert all(type(w) is ClosedWalk for w in c.cells)
        assert TwoComplex(c.skeleton, tuple(ClosedWalk(w.steps) for w in c.cells), c.kind) == c


# ---------------------------------------------------------------------------
# Rotations built on darts


def rebuilt_on_darts(g: Multigraph, rot: RotationSystem, rng: random.Random) -> RotationSystem:
    """``rot`` built again by ``_from_darts``, each order started at a
    random end."""
    position = {e.id: i for i, e in enumerate(g.edges)}
    order_at = dict(rot.orders)
    darts_at = []
    for v in g.vertices:
        darts = [2 * position[e] + s for e, s in order_at.get(v, ())]
        k = rng.randrange(len(darts)) if darts else 0
        darts_at.append(darts[k:] + darts[:k])
    return RotationSystem._from_darts(g, darts_at)


def built_on_darts() -> list:
    """Paired graphs whose rotations the library built on darts: random
    maps, their augmentations, and the witness that the search finds from
    seed 34, as a paired graph."""
    from linkchroma.search import search_witness

    out = []
    for seed, n in ((0, 1), (1, 2), (5, 7), (2, 50), (3, 120), (9, 400)):
        pg = random_planar_paired_graph(seed, n)
        out += [pg, make_degree_faithful(pg)]
    w = search_witness(seed=34, budget=6000)
    assert "orders" not in w.rotation.__dict__
    return out + [w.paired_graph]


def test_rotations_built_on_darts_are_the_constructors(monkeypatch):
    from linkchroma import core

    built = []
    counted = core.third_edges
    monkeypatch.setattr(core, "third_edges", lambda g: built.append(g) or counted(g))
    rng = random.Random(23)
    for pg in built_on_darts():
        rot = pg.rotation
        assert "orders" not in rot.__dict__
        built.clear()
        text = formats.dumps(formats.paired_graph_to_doc(pg))
        reference = RotationSystem(rot.orders)
        assert rot == reference and reference == rot
        assert hash(rot) == hash(reference) and repr(rot) == repr(reference)
        assert rot.orders is rot.orders
        assert len(built) == 1  # the orders were made once, for the document
        with_reference = PairedGraph(pg.graph, pg.pairing, reference)
        assert with_reference == pg
        assert formats.dumps(formats.paired_graph_to_doc(with_reference)) == text
        # each comparison on a rotation whose orders are not made yet
        assert rebuilt_on_darts(pg.graph, reference, rng) == reference
        assert hash(rebuilt_on_darts(pg.graph, reference, rng)) == hash(reference)
        assert repr(rebuilt_on_darts(pg.graph, reference, rng)) == repr(reference)
        assert PairedGraph(pg.graph, pg.pairing, rebuilt_on_darts(pg.graph, reference, rng)) == with_reference
