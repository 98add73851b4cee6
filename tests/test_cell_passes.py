"""The one-pass walk-level check, route 1's conflicts and the witness
lifts against the passes they replaced.

Each ``*_reference`` below is the replaced code: the cell junctions by
slicing and ``zip`` with a clash check over them, route 1's conflict ends
gathered into a list for ``_neighbour_sets``, and routes 1 and 2 lifting
their witnesses from a sorted copy.  The tests require the same verdicts
of ``is_valid_complex_colouring`` on route 1's witness and on every
colouring that gives exactly one pair of distinct edges one colour (which
pins the junction set), the same neighbour sets, and the same ``(k,
witness)`` with the same witness order and the same ``SolverLog`` on every
enumerated small complex, the triangle and the tetrahedron, the branching
family, the pipeline's sealed complex, complexes with mixed ids, and walks
on one loop.
"""

import itertools

import pytest
from hypothesis import given, settings

from linkchroma import colour
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.colour import (
    Colouring,
    SolverLog,
    _chromatic,
    edge_chromatic_number_complex,
    is_valid_complex_colouring,
    pair_chromatic_number,
)
from linkchroma.construct import run_pipeline
from linkchroma.core import (
    Edge,
    EdgeEnd,
    Multigraph,
    TwoComplex,
    _neighbour_sets,
    _require_third_edge_ids,
    link_graph,
)
from linkchroma.corpus import _branching_family, _conflict_complex, enumerate_small_complexes
from linkchroma.errors import DomainError

from strategies import mixed_id_complexes

# ---------------------------------------------------------------------------
# The replaced passes


def junctions_reference(c: TwoComplex) -> list:
    out = []
    for cell in c.cells:
        edges = [s.edge for s in cell.steps]
        out += ((a, b) for a, b in zip(edges, edges[1:] + edges[:1]) if a != b)
    return out


def clash_free_reference(junctions: list, colour: dict) -> bool:
    """True iff every junction joins two differently coloured edges."""
    return all(colour[a] != colour[b] for a, b in junctions)


def route_one_neighbours_reference(c: TwoComplex) -> list:
    _, dart_of = c.skeleton._steps
    ends = []  # the link graph's _quotient_neighbours edges, in its order
    for cell in c.cells:
        edges = [d >> 1 for d in map(dart_of.__getitem__, cell.steps)]
        ends += itertools.chain.from_iterable(zip(edges, edges[1:] + edges[:1]))
    return _neighbour_sets(len(c.skeleton._ids), ends)


def lift_from_sorted_copy(names, placed: list) -> dict:
    """Routes 1 and 2: the colours of ``placed`` in index order, keyed by ``names``."""
    return dict(zip(names, [col for _, col in sorted(placed)]))


def route_one_reference(c: TwoComplex, log) -> tuple:
    ids = c.skeleton._ids
    _require_third_edge_ids(c.skeleton)
    names = () if log is None else tuple(EdgeEnd(i, 0) for i in ids)
    k, placed = _chromatic(names, route_one_neighbours_reference(c), log, None)
    witness = Colouring(k, lift_from_sorted_copy(ids, placed))
    assert clash_free_reference(junctions_reference(c), witness.assignment)
    return k, witness


def route_two_reference(pg, log) -> tuple:
    ids = () if log is None else tuple(p[0] for p in pg.pairing.pairs)
    k, witness = _chromatic(ids, pg._quotient_neighbours, log, None)
    return k, Colouring(k, lift_from_sorted_copy(pg.pairing.pairs, witness))


# ---------------------------------------------------------------------------
# Outcomes compared


def outcome(solve, obj) -> tuple:
    """``(k, palette, witness items in order, log)`` of ``solve(obj, log)``,
    or the error text."""
    log = SolverLog([], 0, 0)
    try:
        k, witness = solve(obj, log)
    except DomainError as exc:
        return "DomainError", str(exc)
    return k, witness.palette_size, list(witness.assignment.items()), log.as_dict()


def spy_on_the_solver(monkeypatch) -> list:
    """Route 1's solver calls from now on append the neighbour sets they
    are handed to the list returned."""
    seen = []

    def spy(ids, nbrs, log, budget):
        seen.append([set(s) for s in nbrs])
        return _chromatic(ids, nbrs, log, budget)

    monkeypatch.setattr(colour, "_chromatic", spy)
    return seen


def colourings_to_check(c: TwoComplex) -> list:
    """Route 1's witness, where it gives one, then for each pair of distinct
    edges the colouring that gives just those two one colour: the
    walk-level check refuses such a colouring exactly where a cell walk
    passes between the two."""
    ids = c.skeleton.edge_ids()
    out = []
    try:
        out.append(edge_chromatic_number_complex(c)[1])
    except DomainError:  # third-edges nested too deep
        pass
    for (p, _), (_, b) in itertools.combinations(enumerate(ids), 2):
        out.append(Colouring(len(ids), {e: p if e == b else q for q, e in enumerate(ids)}))
    return out


def assert_same_as_before(c: TwoComplex) -> None:
    junctions = junctions_reference(c)
    for colouring in colourings_to_check(c):
        assert is_valid_complex_colouring(c, colouring) == clash_free_reference(junctions, colouring.assignment)
    assert outcome(edge_chromatic_number_complex, c) == outcome(route_one_reference, c)
    try:
        L = link_graph(c)
    except DomainError:  # third-edges nested too deep, which route 1 refuses too
        return
    assert outcome(pair_chromatic_number, L) == outcome(route_two_reference, L)


def assert_same_conflicts_as_before(c: TwoComplex, monkeypatch) -> None:
    seen = spy_on_the_solver(monkeypatch)
    edge_chromatic_number_complex(c)
    monkeypatch.undo()
    assert seen == [route_one_neighbours_reference(c)]


@pytest.fixture(scope="module")
def corpus():
    return list(enumerate_small_complexes()) + [triangle_complex(), tetrahedron_complex()]


def test_route_one_conflicts_are_the_gathered_ends_on_the_whole_corpus(corpus, monkeypatch):
    seen = spy_on_the_solver(monkeypatch)
    for c in corpus:
        edge_chromatic_number_complex(c)
        assert seen.pop() == route_one_neighbours_reference(c)


def test_the_routes_solve_and_lift_as_before_on_the_whole_corpus(corpus):
    assert len(corpus) == 40_516
    for c in corpus:
        assert_same_as_before(c)


def test_the_branching_family_solves_and_lifts_as_before(monkeypatch):
    nodes = 0
    for _, n, edges, _ in _branching_family():
        c = _conflict_complex(n, edges)
        assert_same_as_before(c)
        assert_same_conflicts_as_before(c, monkeypatch)
        log = SolverLog([], 0, 0)
        edge_chromatic_number_complex(c, log)
        nodes += log.branch_nodes
    assert nodes > 0  # the family does branch


def test_the_pipelines_sealed_complex_solves_and_lifts_as_before(monkeypatch):
    sealed = run_pipeline().sealed
    assert_same_as_before(sealed)
    assert_same_conflicts_as_before(sealed, monkeypatch)
    assert edge_chromatic_number_complex(sealed)[0] == 12


@given(mixed_id_complexes())
@settings(max_examples=150, deadline=None)
def test_mixed_id_complexes_solve_and_lift_as_before(c):
    assert_same_as_before(c)


def loop_walks() -> list:
    """Walks on one vertex whose consecutive steps share an edge."""
    one = Multigraph(("h",), (Edge("e", "h", "h"),))
    two = Multigraph(("h",), (Edge("e", "h", "h"), Edge("f", "h", "h")))
    three = Multigraph(("h",), (Edge("e", "h", "h"), Edge("f", "h", "h"), Edge("g", "h", "h")))
    return [
        TwoComplex(one, ((("e", 0),),)),  # one step
        TwoComplex(one, ((("e", 0), ("e", 1)),)),  # back and forth
        TwoComplex(one, ((("e", 0), ("e", 1), ("e", 0), ("e", 0)),)),
        TwoComplex(two, ((("e", 0), ("e", 1), ("f", 0)), (("f", 1),))),
        TwoComplex(two, ((("f", 0), ("e", 0), ("e", 1)),)),
        TwoComplex(three, ((("e", 0), ("f", 0), ("g", 1)),)),  # g meets e only by wrapping around
    ]


def test_walks_on_one_loop_solve_and_lift_as_before(monkeypatch):
    cases = loop_walks()
    for c in cases:
        assert_same_as_before(c)
        assert_same_conflicts_as_before(c, monkeypatch)
    assert [junctions_reference(c) for c in cases] == [
        [],
        [],
        [],
        [("e", "f"), ("f", "e")],
        [("f", "e"), ("e", "f")],
        [("e", "f"), ("f", "g"), ("g", "e")],
    ]
    assert [edge_chromatic_number_complex(c)[0] for c in cases] == [1, 1, 1, 2, 2, 3]


def test_a_partial_colouring_names_its_first_uncoloured_edge():
    # the uncoloured edges "f" and "g" meet no colour at a junction, so
    # only the coverage test can refuse the colouring
    g = Multigraph(("h",), (Edge("e", "h", "h"), Edge("f", "h", "h"), Edge("g", "h", "h")))
    c = TwoComplex(g, ((("e", 0),), (("f", 0),)))
    with pytest.raises(DomainError) as info:
        is_valid_complex_colouring(c, Colouring(1, {"e": 0}))
    assert str(info.value) == "edge 'f' is uncoloured"
    assert is_valid_complex_colouring(c, Colouring(1, {"e": 0, "f": 0, "g": 0}))
