import itertools
import random

import pytest

from linkchroma import (
    Colouring,
    DomainError,
    Edge,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    SolverLog,
    TwoComplex,
    brute_force_edge_chromatic,
    chromatic_number,
    edge_chromatic_number_complex,
    heawood_degeneracy_order,
    id_sort_key,
    is_valid_complex_colouring,
    is_valid_pair_colouring,
    link_graph,
    pair_chromatic_number,
    simple_quotient,
)
from linkchroma.catalogue import (
    complete_graph,
    octahedron_graph,
    one_loop_complex,
    petersen_graph,
    tetrahedron_complex,
    triangle_complex,
)
from linkchroma.construct import random_planar_paired_graph


def reference_chromatic(g):
    """Naive exhaustive oracle: plain backtracking in sorted vertex order,
    no saturation ordering, no clique seeding, no bounding."""
    from linkchroma.corpus import chromatic_number_reference

    return chromatic_number_reference(g)


def random_graph(rng, n, p):
    verts = tuple(range(n))
    edges = tuple(
        Edge((u, v), u, v)
        for u, v in itertools.combinations(verts, 2)
        if rng.random() < p
    )
    return Multigraph(verts, edges)


def triangle_pair_colouring(colours):
    L = link_graph(triangle_complex())
    assignment = {pair: colours[pair[0].edge] for pair in L.pairing.pairs}
    return L, Colouring(max(colours.values()) + 1, assignment)


class TestPairColouringValidity:
    def test_triangle_three_colours_valid(self):
        L, col = triangle_pair_colouring({"a": 0, "b": 1, "c": 2})
        assert is_valid_pair_colouring(L, col)

    def test_triangle_reused_colour_invalid(self):
        L, col = triangle_pair_colouring({"a": 0, "b": 0, "c": 1})
        assert not is_valid_pair_colouring(L, col)

    def test_within_pair_edges_impose_nothing(self):
        g = Multigraph((1, 2, 3, 4), (Edge("e", 1, 2), Edge("f", 3, 3)))
        pg = PairedGraph(g, Pairing(((1, 2), (3, 4))))
        col = Colouring(1, {(1, 2): 0, (3, 4): 0})
        assert is_valid_pair_colouring(pg, col)

    def test_uncoloured_pair_raises(self):
        L, _ = triangle_pair_colouring({"a": 0, "b": 1, "c": 2})
        with pytest.raises(DomainError):
            is_valid_pair_colouring(L, Colouring(1, {}))

    def test_colour_outside_palette_rejected(self):
        with pytest.raises(DomainError):
            Colouring(2, {("u", "v"): 2})


class TestComplexColouringValidity:
    def test_triangle_three_colours(self):
        c = triangle_complex()
        assert is_valid_complex_colouring(
            c, Colouring(3, {"a": 0, "b": 1, "c": 2})
        )

    def test_triangle_two_colours_fail(self):
        c = triangle_complex()
        for a, b, cc in itertools.product(range(2), repeat=3):
            assert not is_valid_complex_colouring(
                c, Colouring(2, {"a": a, "b": b, "c": cc})
            )

    def test_one_loop_single_colour(self):
        c = one_loop_complex()
        assert is_valid_complex_colouring(c, Colouring(1, {"e": 0}))

    def test_uncoloured_edge_raises(self):
        with pytest.raises(DomainError):
            is_valid_complex_colouring(triangle_complex(), Colouring(1, {"a": 0}))


class TestChromaticNumber:
    def test_complete_graphs(self):
        for n in (0, 1, 2, 5, 12):
            k, witness = chromatic_number(complete_graph(n))
            assert k == n
            assert len(set(witness.values())) == n

    def test_octahedron(self):
        g = octahedron_graph()
        assert reference_chromatic(g) == 3
        k, witness = chromatic_number(g)
        assert k == 3

    def test_petersen(self):
        g = petersen_graph()
        assert reference_chromatic(g) == 3
        k, witness = chromatic_number(g)
        assert k == 3

    def test_empty_and_edgeless(self):
        assert chromatic_number(Multigraph())[0] == 0
        assert chromatic_number(Multigraph((1, 2, 3), ()))[0] == 1

    def test_loops_and_parallels_are_ignored(self):
        g = Multigraph(
            (1, 2),
            (Edge("e", 1, 2), Edge("f", 1, 2), Edge("l", 1, 1)),
        )
        assert chromatic_number(g)[0] == 2

    def test_witness_is_proper(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 8), rng.choice((0.2, 0.5, 0.8)))
            k, witness = chromatic_number(g)
            for e in g.edges:
                if not e.is_loop:
                    assert witness[e.end0] != witness[e.end1]
            assert all(0 <= c < k for c in witness.values())

    def test_matches_reference_oracle(self):
        rng = random.Random(123)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 8), rng.choice((0.2, 0.5, 0.8)))
            assert chromatic_number(g)[0] == reference_chromatic(g)

    def test_deterministic_witness(self):
        g = petersen_graph()
        assert chromatic_number(g) == chromatic_number(g)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.4)
            non_edges = [
                (u, v)
                for u, v in itertools.combinations(g.vertices, 2)
                if not any({e.end0, e.end1} == {u, v} for e in g.edges)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            bigger = Multigraph(g.vertices, g.edges + (Edge("extra", u, v),))
            assert chromatic_number(bigger)[0] >= chromatic_number(g)[0]

    def test_solver_log(self):
        log = SolverLog([], 0, 0)
        k, _ = chromatic_number(petersen_graph(), log)
        assert k == 3
        assert len(log.clique) >= 2
        assert log.dsatur_upper >= 3


class TestPairChromatic:
    def test_triangle_link(self):
        k, witness = pair_chromatic_number(link_graph(triangle_complex()))
        assert k == 3
        assert is_valid_pair_colouring(link_graph(triangle_complex()), witness)

    def test_tetrahedron_link(self):
        L = link_graph(tetrahedron_complex())
        k, witness = pair_chromatic_number(L)
        assert k == 3
        assert is_valid_pair_colouring(L, witness)

    def test_no_cross_pair_edges(self):
        g = Multigraph((1, 2), (Edge("e", 1, 2),))
        pg = PairedGraph(g, Pairing(((1, 2),)))
        assert pair_chromatic_number(pg)[0] == 1
        empty = PairedGraph(Multigraph(), Pairing(()))
        assert pair_chromatic_number(empty)[0] == 0


class TestEdgeChromatic:
    def test_classics(self):
        for c, expected in ((triangle_complex(), 3), (tetrahedron_complex(), 3)):
            k, witness = edge_chromatic_number_complex(c)
            assert k == expected
            assert is_valid_complex_colouring(c, witness)

    def test_no_cells_one_colour(self):
        c = TwoComplex(triangle_complex().skeleton, ())
        k, witness = edge_chromatic_number_complex(c)
        assert k == 1
        assert set(witness.assignment.values()) == {0}

    def test_no_edges_zero_colours(self):
        c = TwoComplex(Multigraph((1,), ()), ())
        assert edge_chromatic_number_complex(c)[0] == 0


class TestBruteForce:
    def test_triangle(self):
        assert brute_force_edge_chromatic(triangle_complex(), 4) == 3

    def test_tetrahedron(self):
        assert brute_force_edge_chromatic(tetrahedron_complex(), 4) == 3

    def test_no_cells(self):
        c = TwoComplex(triangle_complex().skeleton, ())
        assert brute_force_edge_chromatic(c, 4) == 1

    def test_no_edges(self):
        assert brute_force_edge_chromatic(TwoComplex(Multigraph((1,), ()), ()), 4) == 0

    def test_guard(self):
        g = Multigraph((0, 1), tuple(Edge(i, 0, 1) for i in range(13)))
        with pytest.raises(DomainError):
            brute_force_edge_chromatic(TwoComplex(g, ()), 4)
        assert brute_force_edge_chromatic(TwoComplex(g, ()), 4, force=True) == 1

    def test_k_max_exceeded(self):
        with pytest.raises(DomainError):
            brute_force_edge_chromatic(triangle_complex(), 2)

    def test_agrees_with_link_route_on_classics(self):
        for c in (triangle_complex(), tetrahedron_complex(), one_loop_complex()):
            assert brute_force_edge_chromatic(c, 4) == edge_chromatic_number_complex(c)[0]
            assert brute_force_edge_chromatic(c, 4) == chromatic_number(
                simple_quotient(link_graph(c))
            )[0]


def reference_degeneracy_order(pg):
    """The quadratic elimination loop, kept as the oracle: rescan every
    remaining pair for the least (current degree, id_sort_key)."""
    q = simple_quotient(pg)
    adj = {v: set() for v in q.vertices}
    for e in q.edges:
        adj[e.end0].add(e.end1)
        adj[e.end1].add(e.end0)
    pair_of_rep = {pair[0]: pair for pair in pg.pairing.pairs}
    order = []
    remaining = set(adj)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), id_sort_key(u)))
        order.append((pair_of_rep[v], len(adj[v] & remaining)))
        remaining.discard(v)
    return order


def ring_map(n_pairs):
    """A ring of 2n vertices with mixed int, string and tuple ids, paired
    along the ring: its simple quotient is an n-cycle, so every choice of
    the elimination order is a tie broken by id alone."""
    ids = [(i, f"v{i}", ("t", i))[i % 3] for i in range(2 * n_pairs)]
    ring = [Edge(j, ids[j], ids[(j + 1) % len(ids)]) for j in range(len(ids))]
    g = Multigraph(tuple(ids), tuple(ring))
    rot = RotationSystem({v: g.ends_at(v) for v in g.vertices})
    return PairedGraph(g, Pairing(tuple(zip(ids[::2], ids[1::2]))), rot)


class TestHeawoodOrder:
    def test_matches_quadratic_oracle_on_random_maps(self):
        for n in (1, 2, 3, 7, 25, 100, 400):
            for seed in (0, 1):
                pg = random_planar_paired_graph(seed, n)
                assert heawood_degeneracy_order(pg) == reference_degeneracy_order(pg), (seed, n)

    def test_matches_quadratic_oracle_on_equal_degree_ties(self):
        for n in (3, 10, 60):
            pg = ring_map(n)
            order = heawood_degeneracy_order(pg)
            assert {d for _, d in order} == {0, 1, 2}
            assert order == reference_degeneracy_order(pg)
