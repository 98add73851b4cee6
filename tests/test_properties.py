import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from linkchroma import (
    BudgetExhausted,
    ClosedWalk,
    DomainError,
    Edge,
    Multigraph,
    Pairing,
    RotationSystem,
    SolverLog,
    TwoComplex,
    WalkStep,
    chromatic_number,
    genus_check,
    link_graph,
    pair_chromatic_number,
    paired_quotient,
    simple_quotient,
    third_edges,
    validate_rotation,
    validate_walk,
)
from linkchroma.catalogue import k5_graph
from linkchroma.corpus import chromatic_number_reference

from linkchroma.construct import random_planar_paired_graph

from strategies import complexes, mixed_id_complexes, mixed_ids, multigraphs, paired_graphs, rotations


@given(complexes())
def test_walk_reverse_is_involution_and_valid(c):
    for cell in c.cells:
        rev = tuple(s.flipped() for s in reversed(cell.steps))
        validate_walk(c.skeleton, ClosedWalk(rev))
        assert tuple(s.flipped() for s in reversed(rev)) == cell.steps


@given(complexes())
def test_link_graph_counts(c):
    L = link_graph(c)
    assert len(L.graph.vertices) == 2 * len(c.skeleton.edges)
    assert len(L.graph.edges) == sum(len(cell) for cell in c.cells)
    assert len(L.pairing.pairs) == len(c.skeleton.edges)


@given(complexes())
def test_link_graph_invariant_under_puncturing(c):
    flipped = "punctured" if c.kind == "genuine" else "genuine"
    assert link_graph(c) == link_graph(TwoComplex(c.skeleton, c.cells, flipped))


@given(complexes())
def test_quotient_preserves_edge_count(c):
    L = link_graph(c)
    q = paired_quotient(L)
    assert len(q.edges) == len(L.graph.edges)
    n = len(L.pairing.pairs)
    assert len(simple_quotient(L).edges) <= min(len(q.edges), n * (n - 1) // 2)


def assert_sorted_as_built(x):
    """``x`` stores exactly what the public constructor, which sorts its
    parts by id, stores for the same parts."""
    again = Multigraph(x.vertices, x.edges)
    assert again == x
    assert type(x.vertices) is tuple and type(x.edges) is tuple
    assert all(type(e) is Edge for e in x.edges)
    assert all(x.ends_at(v) == again.ends_at(v) for v in x.vertices)


@given(mixed_id_complexes())
def test_link_graph_and_quotients_keep_sorted_order(c):
    L = link_graph(c)
    for x in (L.graph, paired_quotient(L), simple_quotient(L)):
        assert_sorted_as_built(x)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_quotients_of_augmented_maps_keep_sorted_order(seed, n_pairs):
    from linkchroma.construct import inverse_link, random_degree_faithful_planar

    # edge ids mix ints with ("dup", k), ("dbl", ...) and ("bal", v, i)
    pg = random_degree_faithful_planar(seed, n_pairs)
    for x in (paired_quotient(pg), simple_quotient(pg), link_graph(inverse_link(pg)).graph):
        assert_sorted_as_built(x)


@given(st.lists(mixed_ids, max_size=10, unique=True), st.lists(mixed_ids, max_size=10))
@settings(max_examples=200, deadline=None)
def test_extended_graph_is_what_the_constructor_stores(old_ids, new_ids):
    # one loop per id at one vertex; a new id may repeat an old one or itself
    g = Multigraph(("h",), tuple(Edge(i, "h", "h") for i in old_ids))
    new = [Edge(i, "h", "h") for i in new_ids]
    try:
        expected = Multigraph(("h",), g.edges + tuple(new))
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            Multigraph._extended(g, new)
        assert str(info.value) == str(exc)
        return
    graph, position = Multigraph._extended(g, new)
    assert graph == expected and graph.edges == expected.edges
    assert [graph.edges[p] for p in position] == list(g.edges + tuple(new))


@given(multigraphs(max_vertices=5, max_edges=7).flatmap(lambda g: st.tuples(st.just(g), rotations(g))))
def test_rotation_from_darts_is_what_the_constructor_stores(g_and_rot):
    g, rot = g_and_rot
    dart = {end: d for d, end in enumerate(third_edges(g))}
    darts_at = []
    for v in g.vertices:
        darts = [dart[end] for end in rot.order_at(v)]
        darts_at.append(darts[len(darts) // 2 :] + darts[: len(darts) // 2])  # not at the pivot
    assert RotationSystem._from_darts(g, darts_at).orders == rot.orders


def test_link_graph_rejects_a_skeleton_edge_id_32_deep():
    deep = 0
    for _ in range(32):
        deep = (deep,)
    c = TwoComplex(Multigraph(("h",), (Edge(deep, "h", "h"),)), (ClosedWalk((WalkStep(deep, 0),)),))
    with pytest.raises(DomainError, match="^ids may nest tuples at most 32 deep$"):
        link_graph(c)


@given(complexes())
def test_third_edges_are_link_vertices(c):
    assert tuple(third_edges(c.skeleton)) == link_graph(c).graph.vertices


@given(multigraphs())
def test_random_rotations_trace_consistently(g):
    rot = _any_rotation(g)
    # faces are the orbits of d -> successor of the flipped d
    succ = validate_rotation(g, rot)
    orbits, seen = 0, set()
    for start in succ:
        if start not in seen:
            orbits += 1
            d = start
            while d not in seen:
                seen.add(d)
                d = succ[d.flipped()]
    comps = genus_check(g, rot)
    assert orbits == sum(comp.face_count for comp in comps if comp.edge_count)
    for comp in comps:
        assert comp.genus >= 0
        assert (len(comp.vertices) - comp.edge_count + comp.face_count) % 2 == 0


def _any_rotation(g):
    from linkchroma import RotationSystem

    return RotationSystem({v: g.ends_at(v) for v in g.vertices})


@given(rotations(k5_graph()))
@settings(max_examples=40)
def test_k5_has_no_planar_rotation(rot):
    g = k5_graph()
    assert any(comp.genus >= 1 for comp in genus_check(g, rot))


@given(multigraphs(max_vertices=7, max_edges=10))
@settings(max_examples=60, deadline=None)
def test_solver_matches_reference(g):
    assert chromatic_number(g)[0] == chromatic_number_reference(g)


@given(multigraphs(max_vertices=7, max_edges=10))
@settings(max_examples=60, deadline=None)
def test_solver_witness_is_proper(g):
    k, witness = chromatic_number(g)
    assert set(witness) == set(g.vertices)
    for e in g.edges:
        if not e.is_loop:
            assert witness[e.end0] != witness[e.end1]
    assert all(0 <= c < k for c in witness.values())


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_random_planar_generator_is_certified(seed, n_pairs):
    from linkchroma.construct import random_planar_paired_graph

    pg = random_planar_paired_graph(seed, n_pairs)
    assert all(comp.genus == 0 for comp in genus_check(pg.graph, pg.rotation))
    assert_sorted_as_built(pg.graph)
    assert pg.rotation.orders == RotationSystem(pg.rotation.as_dict()).orders
    sq = simple_quotient(pg)
    if sq.vertices:
        assert min(sq.degree(v) for v in sq.vertices) <= 11


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed, n_pairs):
    from linkchroma.construct import (
        canonical_link_identification,
        inverse_link,
        link_matches_paired_graph,
        random_degree_faithful_planar,
    )

    pg = random_degree_faithful_planar(seed, n_pairs)
    assert link_matches_paired_graph(
        link_graph(inverse_link(pg)), pg, canonical_link_identification(pg)
    )


@given(complexes(max_vertices=3, max_edges=3, max_cells=2))
@settings(max_examples=40, deadline=None)
def test_three_chromatic_quantities_agree(c):
    from linkchroma import brute_force_edge_chromatic, pair_chromatic_number

    genuine = TwoComplex(c.skeleton, c.cells, "genuine")
    bf = brute_force_edge_chromatic(genuine, k_max=8)
    L = link_graph(genuine)
    assert bf == pair_chromatic_number(L)[0]
    assert bf == chromatic_number(simple_quotient(L))[0]


# Pair colouring on the paired graph's kept quotient neighbour sets is the
# quotient solve, and the quotient merges parallels on pair positions.
any_paired_graphs = st.one_of(
    paired_graphs(),
    mixed_id_complexes().map(link_graph),
    # maps on which the search branches (2-41 nodes), to reach the budget
    st.sampled_from((0, 1, 2, 4)).map(lambda seed: random_planar_paired_graph(seed, 30)),
)


def _solve(solver, graph, budget=None):
    """One solve's result, or its budget error's bounds and text, and the
    log it left."""
    log = SolverLog([], 0, 0)
    try:
        return solver(graph, log, budget=budget), vars(log)
    except BudgetExhausted as exc:
        return (exc.lower, exc.upper, str(exc)), vars(log)


@given(any_paired_graphs)
@settings(max_examples=150, deadline=None)
def test_pair_chromatic_number_is_the_quotient_solve(pg):
    (k, witness), log = _solve(pair_chromatic_number, pg)
    (q_k, q_witness), q_log = _solve(chromatic_number, simple_quotient(pg))
    lifted = [(p, q_witness[p[0]]) for p in pg.pairing.pairs]
    assert (k, list(witness.assignment.items())) == (q_k, lifted)
    assert log == q_log


@given(any_paired_graphs, st.integers(min_value=0, max_value=45))
@settings(max_examples=150, deadline=None)
def test_pair_chromatic_number_exhausts_a_budget_as_the_quotient_solve(pg, budget):
    outcome, log = _solve(pair_chromatic_number, pg, budget)
    q_outcome, q_log = _solve(chromatic_number, simple_quotient(pg), budget)
    assert log == q_log
    assert len(outcome) == len(q_outcome)  # both solved, or both ran out
    if len(outcome) == 3:  # lower, upper and the error text
        assert outcome == q_outcome
    else:
        assert outcome[0] == q_outcome[0]


@given(mixed_id_complexes())
def test_link_graph_pairing_is_what_the_constructor_stores(c):
    pairing = link_graph(c).pairing
    rebuilt = Pairing(pairing.pairs)
    assert pairing.pairs == rebuilt.pairs
    assert list(pairing._pair_of.items()) == list(rebuilt._pair_of.items())


def _frozenset_simple_quotient(pg):
    """The simple quotient with each parallel class found by the frozenset
    of its renamed ends, built through the sorting constructor."""
    rep = {v: p[0] for p in pg.pairing.pairs for v in p}
    keep = {}
    for e in pg.graph.edges:
        a, b = rep[e.end0], rep[e.end1]
        if a != b:
            keep.setdefault(frozenset((a, b)), Edge(e.id, a, b))
    return Multigraph(tuple(p[0] for p in pg.pairing.pairs), tuple(keep.values()))


@given(any_paired_graphs)
@settings(max_examples=150, deadline=None)
def test_position_keyed_simple_quotient_is_the_frozenset_one(pg):
    q, ref = simple_quotient(pg), _frozenset_simple_quotient(pg)
    assert (q.vertices, q.edges) == (ref.vertices, ref.edges)
