"""Graphs the library builds on their columns (vertex ids, edge ids and the
dart column) answer exactly as the same graph built by the public
constructor, and make their ``Edge`` records only when ``edges`` is read."""

import dataclasses
import inspect
import random

import pytest
from hypothesis import given, settings

from linkchroma import (
    DomainError,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    heawood_colour_12,
    link_graph,
    paired_quotient,
    simple_quotient,
    third_edges,
)
from linkchroma import formats
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.construct import (
    TwelvePireWitness,
    inverse_link,
    load_shipped_witness,
    make_degree_faithful,
    random_planar_paired_graph,
    run_pipeline,
    seal,
    verify_witness,
)
from linkchroma.core import _BuiltOnRead
from linkchroma.corpus import enumerate_small_complexes, run_check
from linkchroma.triangulate import SphereTriangulation

from strategies import mixed_id_complexes
from test_step_tables import built_on_darts


def assert_column_built_graph_is_the_constructors(g: Multigraph) -> None:
    assert "edges" not in g.__dict__
    # answers read off the columns, before any Edge exists
    index, at = g._index, g._at
    ids = g.edge_ids()
    thirds = third_edges(g)
    assert "edges" not in g.__dict__
    assert g.edges is g.edges  # built once
    public = Multigraph(g.vertices, g.edges)
    assert public == g and g == public
    assert hash(public) == hash(g) and repr(public) == repr(g)
    assert public._index == index and public._at == at
    assert public.edge_ids() == ids
    assert list(public.edges) == list(g.edges)
    assert third_edges(public) == thirds


def maps() -> list:
    out = []
    for seed, n in ((0, 1), (1, 2), (5, 7), (2, 50), (3, 120)):
        pg = random_planar_paired_graph(seed, n)
        out += [pg, make_degree_faithful(random_planar_paired_graph(seed, n))]
    return out


def test_maps_and_their_quotients_are_the_constructors():
    for pg in maps():
        for build in (lambda: pg.graph, lambda: paired_quotient(pg), lambda: simple_quotient(pg)):
            assert_column_built_graph_is_the_constructors(build())


def test_the_search_witness_graph_is_the_constructors():
    *_, witness = built_on_darts()
    assert_column_built_graph_is_the_constructors(witness.graph)


def test_link_graphs_of_corpus_complexes_are_the_constructors():
    corpus = list(enumerate_small_complexes())
    chosen = corpus[::97] + [triangle_complex(), tetrahedron_complex()]
    for seed, n in ((0, 1), (2, 50)):
        punctured = inverse_link(make_degree_faithful(random_planar_paired_graph(seed, n)))
        chosen += [punctured, seal(punctured)]
    for c in chosen:
        L = link_graph(c)
        for build in (lambda: c.skeleton, lambda: L.graph, lambda: paired_quotient(L), lambda: simple_quotient(L)):
            g = build()
            if "_ids" in g.__dict__ and "edges" not in g.__dict__:  # skeletons from documents are public
                assert_column_built_graph_is_the_constructors(g)


@given(mixed_id_complexes())
@settings(max_examples=60, deadline=None)
def test_link_graphs_of_mixed_id_complexes_are_the_constructors(c):
    L = link_graph(c)
    for g in (L.graph, paired_quotient(L), simple_quotient(L)):
        assert_column_built_graph_is_the_constructors(g)


def test_the_construction_chain_makes_no_edges():
    pg = random_planar_paired_graph(4, 200)
    augmented = make_degree_faithful(pg)
    L = link_graph(seal(inverse_link(augmented)))
    heawood_colour_12(pg)
    heawood_colour_12(augmented)
    for g in (pg.graph, augmented.graph, L.graph):
        assert "_ids" in g.__dict__
        for built in ("edges", "_position"):
            assert built not in g.__dict__


def test_writing_a_library_built_graph_makes_no_edges():
    augmented = make_degree_faithful(random_planar_paired_graph(4, 200))
    sealed = seal(inverse_link(augmented))
    L = link_graph(sealed)
    formats.paired_graph_to_doc(augmented), formats.complex_to_doc(sealed), formats.paired_graph_to_doc(L)
    for g in (augmented.graph, sealed.skeleton, L.graph):
        assert "_ids" in g.__dict__ and "edges" not in g.__dict__


def test_the_pipeline_and_its_checks_make_no_edges(monkeypatch):
    # every Edge record of a graph built on its columns is made by the
    # ``edges`` field's build on first read
    built = []
    field = Multigraph.__dict__["edges"]
    build = field.build
    monkeypatch.setattr(field, "build", lambda g: built.append(g) or build(g))
    stages = run_pipeline(load_shipped_witness())
    verify_witness(load_shipped_witness())
    for name in ("inverse-link-round-trip", "sealing-invariants"):
        assert run_check(name).status == "pass"
    L = link_graph(stages.sealed)
    formats.to_dot(L.graph, L.pairing)
    assert built == []
    L.graph.edges
    assert built == [L.graph]


def test_augmenting_a_map_that_has_a_twin_id_reports_the_duplicate():
    # a bigon u-v of the edges 5 and ("dbl", 5): doubling edge 5 makes
    # ("dbl", 5) a second time
    twin = ("dbl", 5)
    g = Multigraph(("u", "v"), (Edge(5, "u", "v"), Edge(twin, "u", "v")))
    rot = RotationSystem({"u": [EdgeEnd(5, 0), EdgeEnd(twin, 0)], "v": [EdgeEnd(5, 1), EdgeEnd(twin, 1)]})
    pg = PairedGraph(g, Pairing((("u", "v"),)), rot)
    pg.require_planar()
    with pytest.raises(DomainError) as info:
        make_degree_faithful(pg)
    assert str(info.value) == "duplicate edge id ('dbl', 5)"


def assert_positions_are_the_edges(g: Multigraph) -> None:
    """``_at``, stored, ``_index``, stored or built on read, and
    ``_position``, built on read, are what the vertices and ``edges`` give."""
    index = {v: i for i, v in enumerate(g.vertices)}
    assert g._at == [index[end] for e in g.edges for end in (e.end0, e.end1)]
    assert g._index == index
    assert g._position == {e.id: i for i, e in enumerate(g.edges)}


def test_each_graph_stores_what_its_constructor_computed():
    # fresh from a constructor, a graph holds what that constructor
    # computed: every constructor the dart column, the public one also the
    # edges and the vertex positions it resolved the ends with; reading the
    # vertex positions of a graph the internal one made builds them, and
    # reading the edge positions of any graph
    def public(g):
        assert set(g.__dict__) == {"vertices", "edges", "_ids", "_index", "_at"}
        graphs.append(g)

    def columns(g):
        assert set(g.__dict__) == {"vertices", "_ids", "_at"}
        graphs.append(g)

    graphs = []
    tetrahedron = tetrahedron_complex().skeleton
    public(Multigraph(tetrahedron.vertices, tetrahedron.edges))
    public(Multigraph((2, "v"), (Edge(0, "v", 2), Edge("a", 2, 2))))
    columns(Multigraph._from_columns((1, 2), ("a", "b"), [0, 1, 1, 1]))
    columns(random_planar_paired_graph(5, 30).graph)
    columns(make_degree_faithful(random_planar_paired_graph(0, 1)).graph)
    columns(link_graph(tetrahedron_complex()).graph)
    augmented = make_degree_faithful(random_planar_paired_graph(5, 30))
    columns(augmented.graph)
    columns(paired_quotient(augmented))
    columns(simple_quotient(augmented))
    public(formats.graph_from_doc(formats.graph_to_doc(augmented.graph)))
    sealed = seal(inverse_link(augmented))
    link = link_graph(sealed)
    columns(link.graph)
    columns(paired_quotient(link))
    columns(simple_quotient(link))
    # and graphs that checks have read already
    graphs += [
        tetrahedron,
        formats.paired_graph_from_doc(formats.paired_graph_to_doc(augmented)).graph,
        formats.complex_from_doc(formats.complex_to_doc(sealed)).skeleton,
    ]
    for g in graphs:
        assert_positions_are_the_edges(g)


def _public_graph() -> Multigraph:
    tetrahedron = tetrahedron_complex().skeleton
    return Multigraph(tetrahedron.vertices, tetrahedron.edges)


def _grown_triangulation() -> SphereTriangulation:
    tri = SphereTriangulation()
    tri.grow(20, random.Random(0))
    return tri


# Every attribute built on first read, with a maker of fresh instances that
# hold none of it: graphs and rotations the library built on darts, a
# public graph for the step table and the link frame, and a witness as loaded.
BUILT_ON_READ = [
    (Multigraph, "edges", lambda: random_planar_paired_graph(1, 12).graph),
    (Multigraph, "_index", lambda: random_planar_paired_graph(1, 12).graph),
    (Multigraph, "_position", lambda: random_planar_paired_graph(1, 12).graph),
    (Multigraph, "_steps", _public_graph),
    (Multigraph, "_link_frame", _public_graph),
    (RotationSystem, "orders", lambda: random_planar_paired_graph(1, 12).rotation),
    (PairedGraph, "_embedding", lambda: random_planar_paired_graph(1, 12)),
    (PairedGraph, "_quotient_neighbours", lambda: random_planar_paired_graph(1, 12)),
    (PairedGraph, "_smallest_last", lambda: random_planar_paired_graph(1, 12)),
    (TwelvePireWitness, "pairing", load_shipped_witness),
    (TwelvePireWitness, "paired_graph", load_shipped_witness),
    (SphereTriangulation, "adj", _grown_triangulation),
]


@pytest.mark.parametrize("cls, name, fresh", BUILT_ON_READ, ids=[f"{c.__name__}.{n}" for c, n, _ in BUILT_ON_READ])
def test_each_derived_attribute_is_built_on_first_read_and_kept(cls, name, fresh):
    # a constructor stores what it computed, and everything else is built
    # on first read by the one descriptor, kept, and ignored by == and hash
    descriptor = cls.__dict__[name]
    assert type(descriptor) is _BuiltOnRead and descriptor.name == name
    assert list(inspect.signature(_BuiltOnRead).parameters) == ["build"]  # named by __set_name__
    obj, twin = fresh(), fresh()
    assert name not in obj.__dict__
    value = getattr(obj, name)
    assert obj.__dict__[name] is value and getattr(obj, name) is value
    if dataclasses.is_dataclass(cls):
        # a twin that has not read it compares, hashes and prints alike;
        # only a field that an internal constructor left unset is built by
        # the read that == makes
        assert obj == twin and twin == obj and hash(obj) == hash(twin)
        assert repr(obj) == repr(twin)
        assert (name in twin.__dict__) == (name in {f.name for f in dataclasses.fields(cls)})


def test_the_pair_position_of_each_vertex_is_its_pairs():
    augmented = make_degree_faithful(random_planar_paired_graph(5, 30))
    for pg in (augmented, link_graph(seal(inverse_link(augmented))), random_planar_paired_graph(1, 2)):
        assert "_pair_at" in pg.__dict__  # stored by the constructor's cover check
        pairs = pg.pairing.pairs
        assert len(pg._pair_at) == len(pg.graph.vertices)
        assert all(v in pairs[k] for v, k in zip(pg.graph.vertices, pg._pair_at))
        assert pg._pair_at == [pg.pairing._pair_of[v] for v in pg.graph.vertices]
