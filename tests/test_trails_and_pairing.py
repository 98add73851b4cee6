"""The trail decomposition and the exact pairing against the loops they
replaced.

``dart_trails_reference`` is the Euler orientation with a scan index per
pair and the per-pair matching of head and tail lists that
``construct._dart_trails`` replaced; ``exact_pairing_reference`` is the
search whose clash test counted pair indices with a ``Counter``, and
``degree_feasible_reference`` the degree test in front of it, with one
comparison per complementary pair of degrees.  All three are kept
verbatim.  The tests require equal results on random augmented maps,
hand-built maps with isolated vertices and loops inside pairs, the shipped
witness's augmentation, the pairing inputs that ``search_witness`` passes
on seeds 0-99, and relabellings of the shipped witness's triangulation,
which pair, under several node caps.
"""

import random
from itertools import product
from collections import Counter
from typing import Optional

import pytest

import test_construct
from linkchroma import construct, search
from linkchroma.construct import (
    _dart_trails,
    load_shipped_witness,
    make_degree_faithful,
    pi_trail_decomposition,
    random_planar_paired_graph,
)
from linkchroma.core import Edge, Multigraph, PairedGraph, Pairing
from linkchroma.errors import BudgetExhausted, DomainError
from linkchroma.search import _degree_feasible, _NodeCapHit, exact_pairing

# ---------------------------------------------------------------------------
# The replaced loops


def dart_trails_reference(pg: PairedGraph) -> tuple:
    index, at, pair_at = pg.graph._index, pg.graph._at, pg._pair_at
    darts_at = [[] for _ in pg.pairing.pairs]
    for d, i in enumerate(at):
        darts_at[pair_at[i]].append(d)

    # Orient each edge along its Euler circuit: ``entry[i]`` is the side
    # the circuit enters edge i by, 2 until it is traversed.
    entry = bytearray(b"\x02") * (len(at) // 2)
    ptr = [0] * len(darts_at)
    for start in range(len(darts_at)):
        stack = [start]
        while stack:
            p = stack[-1]
            darts, i = darts_at[p], ptr[p]
            while i < len(darts) and entry[darts[i] >> 1] != 2:
                i += 1
            if i == len(darts):
                ptr[p] = i
                stack.pop()
            else:
                ptr[p] = i + 1
                d = darts[i]
                entry[d >> 1] = d & 1
                stack.append(pair_at[at[d ^ 1]])

    # Edges are walked in position order, so each list is in edge order.
    heads_at = [[] for _ in index]
    tails_at = [[] for _ in index]
    for i, side in enumerate(entry):
        d = 2 * i + side
        tails_at[at[d]].append(d)
        heads_at[at[d ^ 1]].append(d ^ 1)
    successor = [0] * len(at)  # head dart -> entry dart of the next step
    for u, v in pg.pairing.pairs:  # the heads at each vertex, the tails at its partner
        i, j = index[u], index[v]
        for heads, tails in ((heads_at[i], tails_at[j]), (heads_at[j], tails_at[i])):
            if len(heads) != len(tails):
                raise DomainError("internal error: oriented end counts must balance across partners")
            for h, t in zip(heads, tails):
                successor[h] = t

    trails = []
    visited = bytearray(len(entry))
    for i, side in enumerate(entry):
        if visited[i]:
            continue
        trail = []
        d = 2 * i + side
        while not visited[d >> 1]:
            visited[d >> 1] = 1
            trail.append(d)
            d = successor[d ^ 1]
        trails.append(trail)
    return at, trails


def degree_feasible_reference(adj: dict) -> bool:
    counts = Counter(len(adj[v]) for v in adj)
    if any(d < 3 or d > 8 for d in counts):
        return False
    return (
        counts[3] == counts[8]
        and counts[4] == counts[7]
        and counts[5] == counts[6]
    )


# The reference reads its cap here; ``capped`` sets it and the library's.
_BACKTRACK_NODE_CAP = search._BACKTRACK_NODE_CAP


def exact_pairing_reference(adj: dict) -> Optional[list]:
    if not degree_feasible_reference(adj):
        return None
    deg = {v: len(adj[v]) for v in adj}

    unpaired = set(adj)
    pair_index = {}
    pairs = []
    nodes = 0

    def candidates(u):
        out = []
        for v in sorted(unpaired):
            if v == u or deg[v] != 11 - deg[u] or v in adj[u]:
                continue
            clash = Counter()
            ok = True
            for x in (u, v):
                for w in adj[x]:
                    j = pair_index.get(w)
                    if j is not None:
                        clash[j] += 1
                        if clash[j] > 1:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                out.append(v)
        return out

    def search():
        nonlocal nodes
        if not unpaired:
            return True
        best_u = best_c = None
        for u in sorted(unpaired):
            c = candidates(u)
            if not c:
                return False
            if best_c is None or len(c) < len(best_c):
                best_u, best_c = u, c
                if len(c) == 1:
                    break
        for v in best_c:
            nodes += 1
            if nodes > _BACKTRACK_NODE_CAP:
                raise _NodeCapHit
            idx = len(pairs)
            pairs.append((best_u, v))
            pair_index[best_u] = pair_index[v] = idx
            unpaired.discard(best_u)
            unpaired.discard(v)
            if search():
                return True
            unpaired.add(best_u)
            unpaired.add(v)
            del pair_index[best_u], pair_index[v]
            pairs.pop()
        return False

    try:
        if search():
            return pairs
    except _NodeCapHit:
        return None
    return None


# ---------------------------------------------------------------------------
# Inputs


def with_isolated_pair(pg: PairedGraph) -> PairedGraph:
    """``pg`` plus a pair of two isolated vertices, with no rotation."""
    g = Multigraph(pg.graph.vertices + ("iso0", "iso1"), pg.graph.edges)
    return PairedGraph(g, Pairing(pg.pairing.pairs + (("iso0", "iso1"),)))


def loops_inside_pairs() -> PairedGraph:
    """A pair whose partners are joined by two parallel edges, a pair with a
    loop at each member, and two edges across; every vertex has degree 3."""
    g = Multigraph(
        (0, 1, 2, 3),
        (
            Edge(("in", 0), 0, 1),
            Edge(("in", 1), 1, 0),
            Edge(("x", 0), 0, 2),
            Edge(("loop", 0), 2, 2),
            Edge(("x", 1), 3, 1),
            Edge(("loop", 1), 3, 3),
        ),
    )
    return PairedGraph(g, Pairing(((0, 1), (2, 3))))


def trail_maps():
    for s in range(6):
        for n in (1, 2, 3, 5, 10, 40, 100, 400):
            yield pytest.param(lambda s=s, n=n: make_degree_faithful(random_planar_paired_graph(s, n)), id=f"{s}-{n}")
    yield pytest.param(test_construct.TestTrailDecomposition.several_components, id="several-components")
    yield pytest.param(
        lambda: with_isolated_pair(make_degree_faithful(random_planar_paired_graph(0, 10))), id="isolated-pair"
    )
    yield pytest.param(loops_inside_pairs, id="loops-inside-pairs")
    yield pytest.param(lambda: make_degree_faithful(load_shipped_witness().paired_graph), id="witness")


def adjacency(g: Multigraph) -> dict:
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.end0].add(e.end1)
        adj[e.end1].add(e.end0)
    return adj


@pytest.fixture(scope="module")
def recorded_pairing_inputs():
    """The adjacencies ``search_witness`` passes to ``exact_pairing`` on
    seeds 0-99 at 6000 proposals, copied as they arrive."""
    inputs = []

    def record(adj):
        inputs.append({v: set(ws) for v, ws in adj.items()})
        return exact_pairing(adj)

    search.exact_pairing = record
    try:
        for seed in range(100):
            try:
                search.search_witness(seed, 6000)
            except BudgetExhausted:
                pass
    finally:
        search.exact_pairing = exact_pairing
    return inputs


def witness_relabellings(count):
    """The shipped witness's triangulation, then ``count`` random
    relabellings of it, each of which pairs."""
    adj = adjacency(load_shipped_witness().graph)
    yield adj
    for seed in range(count):
        perm = list(adj)
        random.Random(seed).shuffle(perm)
        yield {perm[v]: {perm[w] for w in ws} for v, ws in adj.items()}


@pytest.fixture
def capped(monkeypatch):
    def cap(nodes):
        monkeypatch.setattr(search, "_BACKTRACK_NODE_CAP", nodes)
        monkeypatch.setitem(globals(), "_BACKTRACK_NODE_CAP", nodes)

    return cap


# ---------------------------------------------------------------------------
# Equal results


@pytest.mark.parametrize("build", trail_maps())
def test_trails_equal_the_reference(build):
    pg = build()
    assert _dart_trails(pg) == dart_trails_reference(pg)


def test_the_balance_check_raises_on_a_map_that_is_not_degree_faithful(monkeypatch):
    """Two pairs joined by two parallel edges at one vertex each orient into
    a head at a vertex whose partner has no tail, which the degree check in
    front of the decomposition would have refused."""
    g = Multigraph((0, 1, 2, 3), (Edge("a", 0, 2), Edge("b", 0, 2)))
    pg = PairedGraph(g, Pairing(((0, 1), (2, 3))))
    assert not construct.is_degree_faithful(pg)
    text = "internal error: oriented end counts must balance across partners"
    with pytest.raises(DomainError, match=text):
        dart_trails_reference(pg)
    monkeypatch.setattr(construct, "is_degree_faithful", lambda pg: True)
    with pytest.raises(DomainError, match=text):
        pi_trail_decomposition(pg)


def test_degree_feasibility_equals_the_reference():
    """Every multiset of vertex degrees 2 to 9, each taken up to twice."""
    for counts in product(range(3), repeat=8):
        degrees = [d for d, k in zip(range(2, 10), counts) for _ in range(k)]
        adj = {v: set(range(d)) for v, d in enumerate(degrees)}
        assert _degree_feasible(adj) == degree_feasible_reference(adj)


def test_pairings_on_the_recorded_inputs_equal_the_reference(recorded_pairing_inputs, capped):
    assert len(recorded_pairing_inputs) == 54
    for nodes in (None, 1, 5, 50):
        if nodes is not None:
            capped(nodes)
        for adj in recorded_pairing_inputs:
            assert exact_pairing(adj) == exact_pairing_reference(adj)


def test_pairings_of_the_witness_triangulation_equal_the_reference(capped):
    """Each relabelling pairs after 12 to 18 search nodes, so the caps from
    11 to 18 also show that both searches count the same nodes."""
    inputs = list(witness_relabellings(40))
    found = [exact_pairing(adj) for adj in inputs]
    assert None not in found
    assert found == [exact_pairing_reference(adj) for adj in inputs]
    for nodes in (1, 5, 11, 12, 13, 14, 15, 16, 17, 18, 50):
        capped(nodes)
        for adj in inputs:
            assert exact_pairing(adj) == exact_pairing_reference(adj)
