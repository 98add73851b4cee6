"""Link graphs read their vertices and default pairing from the skeleton's
``_link_frame``, built once per skeleton and shared by every complex on it.

``link_graph_reference`` is the ``link_graph`` that built the third-edges
and the pairing on every call, kept verbatim.  The tests require equal link
graphs on corpus complexes, the catalogue complexes and the complexes of
the pipeline and of a 400-pair chain; the same vertex tuple and pairing
object for complexes on one skeleton; one ``third_edges`` run per distinct
skeleton over the whole corpus; and a skeleton whose third-edges nest too
deep refused on every call, with no frame kept.
"""

from itertools import islice, repeat

import pytest

from linkchroma import core
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.colour import edge_chromatic_number_complex
from linkchroma.construct import inverse_link, make_degree_faithful, random_planar_paired_graph, run_pipeline, seal
from linkchroma.core import (
    ClosedWalk,
    Edge,
    Multigraph,
    PairedGraph,
    Pairing,
    TwoComplex,
    WalkStep,
    _other_end,
    _require_third_edge_ids,
    link_graph,
    third_edges,
)
from linkchroma.corpus import enumerate_small_complexes
from linkchroma.errors import DomainError


def link_graph_reference(c: TwoComplex) -> PairedGraph:
    _require_third_edge_ids(c.skeleton)
    verts = tuple(third_edges(c.skeleton))
    pairing = Pairing._sorted(tuple(zip(verts[::2], verts[1::2])))
    _, dart_of = c.skeleton._steps
    ids, outs, ins = [], [], []
    for ci, cell in enumerate(c.cells):
        darts = list(map(dart_of.__getitem__, cell.steps))
        ids += zip(repeat(ci), range(len(darts)))
        # the dart each step exits by, and the one the next step enters by
        outs += map(_other_end, darts)
        ins += darts[1:] + darts[:1]
    at = outs + ins
    at[::2], at[1::2] = outs, ins
    return PairedGraph(Multigraph._from_columns(verts, tuple(ids), at), pairing)


def complexes() -> list:
    """300 corpus complexes, the catalogue complexes, and the punctured and
    sealed complexes of the pipeline and of the 400-pair chain."""
    out = list(islice(enumerate_small_complexes(), 0, None, 135))[:300]
    assert len(out) == 300
    stages = run_pipeline()
    punctured = inverse_link(make_degree_faithful(random_planar_paired_graph(0, 400)))
    return out + [triangle_complex(), tetrahedron_complex(), stages.punctured, stages.sealed, punctured, seal(punctured)]


def test_link_graphs_are_the_reference():
    for c in complexes():
        link, reference = link_graph(c), link_graph_reference(c)
        assert link == reference
        assert link._pair_at == reference._pair_at
        assert link.graph._ids == reference.graph._ids and link.graph._at == reference.graph._at


def test_complexes_on_one_skeleton_share_the_vertices_and_the_pairing():
    corpus = list(islice(enumerate_small_complexes(), 200))
    first, second = next((a, b) for a, b in zip(corpus, corpus[1:]) if a.skeleton is b.skeleton)
    punctured = inverse_link(make_degree_faithful(random_planar_paired_graph(2, 50)))
    for a, b in ((first, second), (punctured, seal(punctured))):
        assert a.skeleton is b.skeleton and a.cells != b.cells
        la, lb = link_graph(a), link_graph(b)
        assert la.graph.vertices is lb.graph.vertices
        assert la.pairing is lb.pairing
        assert (la.graph.vertices, la.pairing) == a.skeleton._link_frame


def test_third_edges_run_once_per_skeleton_over_the_corpus(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return third_edges(g)

    monkeypatch.setattr(core, "third_edges", counted)
    corpus = list(enumerate_small_complexes())
    for c in corpus:
        link_graph(c)
    skeletons = {id(c.skeleton) for c in corpus}
    assert (len(corpus), len(skeletons)) == (40514, 33)
    assert len(calls) == 33 and {id(g) for g in calls} == skeletons


def test_a_third_edge_too_deep_is_refused_on_every_call_and_no_frame_is_kept():
    deep = 0
    for _ in range(32):  # a valid edge id; its third-edges nest one deeper
        deep = (deep,)
    c = TwoComplex(Multigraph(("h",), (Edge(deep, "h", "h"),)), (ClosedWalk((WalkStep(deep, 0),)),))
    for route in (link_graph, link_graph, edge_chromatic_number_complex, edge_chromatic_number_complex):
        with pytest.raises(DomainError) as info:
            route(c)
        assert str(info.value) == "ids may nest tuples at most 32 deep"
    assert "_link_frame" not in c.skeleton.__dict__
