"""Route 1 from the cell junctions and the solver's front end, against the
code they replaced.

Each ``*_reference`` below is the replaced code, kept verbatim: the greedy
clique by a ``min`` over a key, the DSATUR front end that read the degrees
afresh and took its colour count over the witness, and route 1 as the pair
solver on the whole link graph.  The branch and bound behind the front end
is the library's.  The tests check that sizes, witnesses, solver logs and
budget bounds are equal to theirs on the small-complex corpus, on the
complexes the construction chain builds, on random graphs and on K12.
"""

import random
from itertools import islice

import pytest

from linkchroma import colour, construct
from linkchroma.catalogue import tetrahedron_complex, triangle_complex
from linkchroma.colour import (
    Colouring,
    SolverLog,
    _branch_and_bound,
    _chromatic,
    _raise_counts,
    edge_chromatic_number_complex,
    pair_chromatic_number,
)
from linkchroma.construct import inverse_link, make_degree_faithful, random_planar_paired_graph, run_pipeline, seal
from linkchroma.core import Edge, Multigraph, link_graph
from linkchroma.corpus import enumerate_small_complexes
from linkchroma.errors import BudgetExhausted, DomainError

from strategies import neighbour_sets

# ---------------------------------------------------------------------------
# The replaced code


def greedy_clique_reference(nbrs: list) -> list:
    """Deterministic greedy clique of vertex indexes: repeatedly add the
    candidate of highest degree within the candidate set, lowest index
    first on ties."""
    clique = []
    candidates = set(range(len(nbrs)))
    while candidates:
        v = min(candidates, key=lambda u: (-len(nbrs[u] & candidates), u))
        clique.append(v)
        candidates &= nbrs[v]
    return clique


def chromatic_reference(ids, nbrs, log, budget):
    """``chromatic_number`` on neighbour-index sets, the vertex at index
    ``i`` named ``ids[i]`` in the log.  Returns the size and the witness as
    (index, colour) items in colouring order."""
    if budget is not None and budget < 0:
        raise DomainError("budget must be non-negative")
    n = len(nbrs)
    clique = greedy_clique_reference(nbrs)
    if log is not None:
        log.clique, log.dsatur_upper, log.branch_nodes = [ids[i] for i in clique], 0, 0
    if n == 0:
        return 0, []

    # Bit r of every vertex set is the vertex of static rank r: the higher, the
    # earlier among equally saturated vertices (higher degree, then lower index).
    order = sorted(range(n), key=lambda i: (len(nbrs[i]), -i))
    bit_of = [0] * n
    for r, i in enumerate(order):
        bit_of[i] = 1 << r
    adj = [sum(map(bit_of.__getitem__, nbrs[i])) for i in order]

    # DSATUR greedy upper bound, also the initial incumbent witness.
    top = len(nbrs[order[-1]])  # no vertex sees more colours than it has neighbours
    forb = [0] * (top + 1)  # forb[c]: the vertices with a neighbour coloured c
    slices = [0] * top.bit_length()  # slices[j]: bit j of every saturation count
    free = (1 << n) - 1
    witness = []  # (index, colour) items in colouring order
    while free:
        v = free  # narrowed to the most saturated, then the highest bit
        for s in reversed(slices):
            v = v & s or v
        v = v.bit_length() - 1
        bit = 1 << v
        free ^= bit
        c = 0
        while forb[c] & bit:
            c += 1
        witness.append((order[v], c))
        touched = adj[v] & ~forb[c]
        forb[c] |= touched
        _raise_counts(slices, touched)
    k = max(c for _, c in witness) + 1

    if log is not None:
        log.dsatur_upper = k
    if k > len(clique):
        clique = [bit_of[i].bit_length() - 1 for i in clique]
        k, witness = _branch_and_bound(adj, order, clique, k, witness, log, budget)
    return k, witness


def pair_colours_reference(pg, log, budget):
    """``pair_chromatic_number``'s size and the colour of each pair, by
    position."""
    ids = tuple(p[0] for p in pg.pairing.pairs)
    k, witness = chromatic_reference(ids, pg._quotient_neighbours, log, budget)
    return k, [c for _, c in sorted(witness)]


def edge_chromatic_reference(c, log=None, *, budget=None):
    # pair i of the link graph is the i-th skeleton edge's pair
    k, colours = pair_colours_reference(link_graph(c), log, budget)
    return k, Colouring(k, dict(zip(c.skeleton.edge_ids(), colours)))


def pair_chromatic_reference(pg, log=None, *, budget=None):
    k, colours = pair_colours_reference(pg, log, budget)
    return k, Colouring(k, dict(zip(pg.pairing.pairs, colours)))


# ---------------------------------------------------------------------------
# Inputs


def outcome(solve, *args, budget=None):
    """One solve's result and log: (size, witness) when it closes, the
    proven bounds and the message when the budget stops it."""
    log = SolverLog([], 0, 0)
    try:
        result = solve(*args, log, budget=budget)
    except BudgetExhausted as stop:
        result = ("stopped", stop.lower, stop.upper, str(stop))
    return result, log.as_dict()


def chain(seed, n):
    """The sealed complex that the construction chain builds from a map."""
    return seal(inverse_link(make_degree_faithful(random_planar_paired_graph(seed, n))))


def gnp(n, seed):
    """G(n, 1/2) on vertices 0..n-1, from its own seeded stream."""
    rng = random.Random(f"gnp/{n}/{seed}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Multigraph(tuple(range(n)), tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs)))


CHAINS = [(s, n) for n in (10, 20, 30, 40) for s in range(3)]


@pytest.fixture(scope="module")
def complexes():
    """Every 20th complex of the corpus, the two catalogue complexes, the
    pipeline's sealed complex and the sealed complexes of ``CHAINS``."""
    out = list(islice(enumerate_small_complexes(), 0, None, 20))
    out += [triangle_complex(), tetrahedron_complex(), run_pipeline().sealed]
    return out + [chain(s, n) for s, n in CHAINS]


# ---------------------------------------------------------------------------
# Equal answers


def test_route_one_is_the_link_graph_route(complexes):
    for c in complexes:
        assert outcome(edge_chromatic_number_complex, c) == outcome(edge_chromatic_reference, c)
        assert edge_chromatic_number_complex(c) == edge_chromatic_reference(c)


def test_route_one_solves_the_link_graphs_quotient_neighbours(complexes, monkeypatch):
    seen = []
    monkeypatch.setattr(colour, "_chromatic", lambda ids, nbrs, log, budget: seen.append(nbrs) or _chromatic(ids, nbrs, log, budget))
    for c in complexes:
        edge_chromatic_number_complex(c)
        assert seen.pop() == link_graph(c)._quotient_neighbours


def test_the_pair_route_is_the_replaced_one():
    maps = [random_planar_paired_graph(s, n) for s, n in CHAINS]
    maps += [link_graph(c) for c in (triangle_complex(), tetrahedron_complex())]
    for pg in maps:
        assert outcome(pair_chromatic_number, pg) == outcome(pair_chromatic_reference, pg)


def test_the_front_end_is_the_replaced_one():
    graphs = [gnp(n, s) for n in range(30, 51, 2) for s in range(2)]
    k12 = Multigraph(tuple(range(12)), tuple(Edge((u, v), u, v) for u in range(12) for v in range(u + 1, 12)))
    for g in graphs + [k12]:
        ids, nbrs = g.vertices, neighbour_sets(g)
        assert greedy_clique_reference(nbrs) == colour._greedy_clique(nbrs, list(map(len, nbrs)))
        assert outcome(_chromatic, ids, nbrs) == outcome(chromatic_reference, ids, nbrs)
    assert outcome(_chromatic, k12.vertices, neighbour_sets(k12))[0][0] == 12


def test_budget_bounds_on_the_sealed_1600_pair_complex():
    sealed = chain(0, 1600)
    got = outcome(edge_chromatic_number_complex, sealed, budget=20_000)
    assert got == outcome(edge_chromatic_reference, sealed, budget=20_000)
    assert got[0][:3] == ("stopped", 5, 6)
    assert got[1]["branch_nodes"] == 20_000


def test_the_pipeline_builds_two_link_graphs(monkeypatch):
    calls = []
    monkeypatch.setattr(construct, "link_graph", lambda c: calls.append(c) or link_graph(c))
    stages = run_pipeline()
    assert [stages.punctured, stages.sealed] == calls
