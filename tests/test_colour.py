import heapq
import itertools
import random

import pytest

from linkchroma import (
    BudgetExhausted,
    Colouring,
    DomainError,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    SolverLog,
    TwoComplex,
    brute_force_edge_chromatic,
    chromatic_number,
    edge_chromatic_number_complex,
    heawood_colour_12,
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
    petersen_graph,
    tetrahedron_complex,
    triangle_complex,
)
from linkchroma import colour, corpus
from linkchroma.colour import _chromatic
from linkchroma.construct import load_shipped_witness, random_planar_paired_graph, run_pipeline
from linkchroma.corpus import _conflict_complex, chromatic_number_reference
from linkchroma.errors import short_repr

from strategies import ends_at, neighbour_sets, one_loop_complex
from test_solver_front_end import greedy_clique_reference


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

    def test_a_lost_quotient_neighbour_does_not_hide_a_clash(self):
        # Two pairs joined by one edge.  With that adjacency dropped from
        # the kept quotient neighbour sets, the Heawood colouring, which
        # reads those sets, gives both pairs colour 0; the checker walks the
        # graph's own edges and rejects it.
        g = Multigraph((1, 2, 3, 4), (Edge("e", 1, 3),))
        rot = RotationSystem({1: (EdgeEnd("e", 0),), 3: (EdgeEnd("e", 1),)})
        pg = PairedGraph(g, Pairing(((1, 2), (3, 4))), rot)
        pg._quotient_neighbours[0].remove(1)
        pg._quotient_neighbours[1].remove(0)
        col = heawood_colour_12(pg)
        assert col.assignment == {(1, 2): 0, (3, 4): 0}
        assert not is_valid_pair_colouring(pg, col)

    def test_uncoloured_pair_raises(self):
        L, _ = triangle_pair_colouring({"a": 0, "b": 1, "c": 2})
        with pytest.raises(DomainError):
            is_valid_pair_colouring(L, Colouring(1, {}))

    def test_colour_outside_palette_rejected(self):
        with pytest.raises(DomainError):
            Colouring(2, {("u", "v"): 2})


class TestColouringEchoes:
    """Each colouring message quotes its input through ``short_repr``."""

    LONG = "x" * 100000

    def message(self, build) -> str:
        with pytest.raises(DomainError) as info:
            build()
        return str(info.value)

    def test_colouring_messages(self):
        assert self.message(lambda: Colouring(2, {("u", "v"): 2})) == "colour 2 of ('u', 'v') is outside palette of size 2"
        assert self.message(lambda: Colouring(3, {"a": 10**5000})) == "colour <int of 16610 bits> of 'a' is outside palette of size 3"
        assert self.message(lambda: Colouring(10**5000, {"a": -1})) == "colour -1 of 'a' is outside palette of size <int of 16610 bits>"
        assert self.message(lambda: Colouring(3, {self.LONG: 7})) == f"colour 7 of {short_repr(self.LONG)} is outside palette of size 3"
        assert self.message(lambda: Colouring(3, {self.LONG: "red"})) == f"colour of {short_repr(self.LONG)} must be an integer"

    def test_checker_messages(self):
        pair = (self.LONG + "a", self.LONG + "b")
        pg = PairedGraph(Multigraph(pair, ()), Pairing((pair,)))
        assert self.message(lambda: is_valid_pair_colouring(pg, Colouring(1, {}))) == f"pair {short_repr(pair)} is uncoloured"
        c = TwoComplex(Multigraph(("v",), (Edge(self.LONG, "v", "v"),)), ())
        assert self.message(lambda: is_valid_complex_colouring(c, Colouring(1, {}))) == f"edge {short_repr(self.LONG)} is uncoloured"
        assert len(short_repr(pair)) <= 60


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
        with pytest.raises(DomainError, match="^edge 'b' is uncoloured$"):
            is_valid_complex_colouring(triangle_complex(), Colouring(1, {"a": 0}))


class TestChromaticNumber:
    def test_complete_graphs(self):
        for n in (0, 1, 2, 5, 12):
            k, witness = chromatic_number(complete_graph(n))
            assert k == n
            assert len(set(witness.values())) == n

    def test_octahedron(self):
        g = octahedron_graph()
        assert chromatic_number_reference(g) == 3
        k, witness = chromatic_number(g)
        assert k == 3

    def test_petersen(self):
        g = petersen_graph()
        assert chromatic_number_reference(g) == 3
        k, witness = chromatic_number(g)
        assert k == 3

    def test_empty_and_edgeless(self):
        assert chromatic_number(Multigraph())[0] == 0
        assert chromatic_number(Multigraph((1, 2, 3), ()))[0] == 1

    def test_the_search_is_given_no_loops_or_parallels(self, monkeypatch):
        # checked before the search runs: the sets it is given are those of
        # the simple graph, with no vertex in its own set
        import linkchroma.colour as colour

        given = []
        search = colour._chromatic

        def checked(ids, nbrs, log, budget):
            given.append(nbrs)
            assert not any(i in ws for i, ws in enumerate(nbrs))
            return search(ids, nbrs, log, budget)

        monkeypatch.setattr(colour, "_chromatic", checked)
        g = Multigraph((1, 2, 3), (Edge("e", 1, 2), Edge("f", 2, 1), Edge("l", 1, 1), Edge("m", 3, 3)))
        assert chromatic_number(g)[0] == 2
        assert given == [neighbour_sets(g)] == [[{1}, {0}, set()]]

    def test_a_vertex_in_its_own_neighbour_set_is_chosen_once(self):
        import linkchroma.colour as colour

        assert colour._greedy_clique([{0, 1}, {0, 1}], [2, 2]) == [0, 1]
        assert colour._chromatic((), [{0, 1}, {0, 1}], None, None) == (2, [(0, 0), (1, 1)])

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
            assert chromatic_number(g)[0] == chromatic_number_reference(g)

    @pytest.mark.parametrize("n", [13, 1200])
    def test_the_reference_oracle_refuses_more_than_12_vertices(self, n):
        path = Multigraph(tuple(range(n)), tuple(Edge(i, i, i + 1) for i in range(n - 1)))
        with pytest.raises(DomainError) as info:
            chromatic_number_reference(path)
        assert str(info.value) == "refusing the exhaustive chromatic number on more than 12 vertices"
        assert chromatic_number_reference(Multigraph(path.vertices[:12], path.edges[:11])) == 2

    def test_the_reference_oracle_refuses_k12_past_its_placements(self):
        # about 1e8 placements at 11 colours; refused at 2e5, in about a second
        with pytest.raises(DomainError) as info:
            chromatic_number_reference(complete_graph(12))
        assert str(info.value) == "refusing the exhaustive chromatic number past 200000 placements"

    def test_the_reference_oracle_places_up_to_its_cap(self, monkeypatch):
        # K3: one placement at one colour, four at two, three at three
        monkeypatch.setattr(corpus, "REFERENCE_PLACEMENTS", 8)
        assert chromatic_number_reference(complete_graph(3)) == 3
        monkeypatch.setattr(corpus, "REFERENCE_PLACEMENTS", 7)
        with pytest.raises(DomainError) as info:
            chromatic_number_reference(complete_graph(3))
        assert str(info.value) == "refusing the exhaustive chromatic number past 7 placements"

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


def _reference_adjacency(g):
    """Adjacency sets by id with loops dropped and parallels collapsed."""
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        if not e.is_loop:
            adj[e.end0].add(e.end1)
            adj[e.end1].add(e.end0)
    return adj


def _reference_clique(adj):
    """Greedy clique by id: repeatedly add the candidate of highest degree
    within the candidate set, lowest id first on ties."""
    if not adj:
        return []
    clique = []
    candidates = set(adj)
    while candidates:
        v = min(candidates, key=lambda u: (-len(adj[u] & candidates), id_sort_key(u)))
        clique.append(v)
        candidates &= adj[v]
    return clique


def reference_chromatic_number(g, log=None):
    """The recursive clique-seeded DSATUR branch and bound on id dicts and
    sets, with its own adjacency and clique, kept verbatim as the oracle for
    the explicit-stack search on indexes: same answer, same witness in the
    same insertion order, same solver log."""
    adj = _reference_adjacency(g)
    n = len(adj)
    if n == 0:
        if log is not None:
            log.clique, log.dsatur_upper, log.branch_nodes = [], 0, 0
        return 0, {}

    order_key = {v: id_sort_key(v) for v in adj}
    clique = _reference_clique(adj)

    # DSATUR greedy upper bound, also the initial incumbent witness.
    colours = {}
    saturation = {v: set() for v in adj}
    for _ in range(n):
        v = min(
            (u for u in adj if u not in colours),
            key=lambda u: (-len(saturation[u]), -len(adj[u]), order_key[u]),
        )
        c = 0
        while c in saturation[v]:
            c += 1
        colours[v] = c
        for w in adj[v]:
            saturation[w].add(c)
    best_k = max(colours.values()) + 1
    best_witness = dict(colours)
    dsatur_upper = best_k

    lower = len(clique)
    nodes = 0

    if best_k > lower:
        # Branch and bound; the clique is pre-coloured 0..len(clique)-1 and a
        # fresh colour may only be the next unused one, both exactness-safe
        # symmetry breaks.
        assign = {v: i for i, v in enumerate(clique)}
        sat = {v: {assign[w] for w in adj[v] & set(assign)} for v in adj}

        def extend(used: int):
            nonlocal best_k, best_witness, nodes
            if best_k == lower:
                return
            if len(assign) == n:
                if used < best_k:
                    best_k = used
                    best_witness = dict(assign)
                return
            v = min(
                (u for u in adj if u not in assign),
                key=lambda u: (-len(sat[u]), -len(adj[u]), order_key[u]),
            )
            limit = min(used + 1, best_k - 1)
            for c in range(limit):
                if c in sat[v]:
                    continue
                nodes += 1
                assign[v] = c
                touched = [w for w in adj[v] if w not in assign and c not in sat[w]]
                for w in touched:
                    sat[w].add(c)
                extend(max(used, c + 1))
                for w in touched:
                    sat[w].discard(c)
                del assign[v]
                if best_k == lower:
                    return

        extend(len(clique))

    if log is not None:
        log.clique = clique
        log.dsatur_upper = dsatur_upper
        log.branch_nodes = nodes
    return best_k, best_witness


def circulant(n, offsets):
    """The circulant graph C(n, offsets) on mixed int, string and tuple
    ids: every vertex has the same degree, so each selection among equally
    saturated vertices is a tie broken by id alone."""
    ids = [(i, f"v{i}", ("t", i))[i % 3] for i in range(n)]
    edges = {}
    for j in range(n):
        for d in offsets:
            a, b = sorted((j, (j + d) % n))
            edges[a, b] = Edge(f"e{a}-{b}", ids[a], ids[b])
    return Multigraph(tuple(ids), tuple(edges.values()))


def assert_same_as_reference(g):
    log, ref_log = SolverLog([], 0, 0), SolverLog([], 0, 0)
    k, witness = chromatic_number(g, log)
    ref_k, ref_witness = reference_chromatic_number(g, ref_log)
    assert (k, list(witness.items())) == (ref_k, list(ref_witness.items()))
    assert log.as_dict() == ref_log.as_dict()
    return log.branch_nodes


class TestExplicitStackSearch:
    def test_matches_recursive_oracle_on_gnp(self):
        nodes = 0
        for n in range(1, 31):
            for p in (0.3, 0.5, 0.7):
                rng = random.Random(n * 1000 + int(p * 10))
                for _ in range(6):
                    nodes += assert_same_as_reference(random_graph(rng, n, p))
        assert nodes > 1000  # the instances do branch

    def test_matches_recursive_oracle_on_random_maps(self):
        nodes = 0
        for n in range(10, 41, 5):
            for seed in range(4):
                nodes += assert_same_as_reference(simple_quotient(random_planar_paired_graph(seed, n)))
        assert nodes > 0

    def test_matches_recursive_oracle_on_regular_graphs_with_mixed_ids(self):
        for n in (8, 11, 14, 17, 20):
            assert assert_same_as_reference(circulant(n, (1, 2))) > 0
        for n in (7, 9, 13, 21):
            assert assert_same_as_reference(circulant(n, (1,))) > 0

    def test_budget_allows_exactly_the_nodes_needed(self):
        # The greedy bound is 5; the search finds 4 and then proves it.
        g = circulant(17, (1, 2))
        log = SolverLog([], 0, 0)
        full = chromatic_number(g, log)
        needed = log.branch_nodes
        assert chromatic_number(g, budget=needed) == full
        with pytest.raises(BudgetExhausted) as info:
            chromatic_number(g, log, budget=needed - 1)
        assert (info.value.lower, info.value.upper) == (3, 4)
        assert "at least 3 and at most 4" in str(info.value)
        assert log.branch_nodes == needed - 1

    def test_zero_budget_on_a_graph_closed_at_the_root(self):
        assert chromatic_number(complete_graph(12), budget=0)[0] == 12

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            chromatic_number(complete_graph(3), budget=-1)

    # each exact solver on an instance that opens branch nodes
    BUDGET_SOLVERS = {
        "chromatic_number": lambda budget: chromatic_number(random_graph(random.Random(0), 30, 0.5), budget=budget),
        "pair_chromatic_number": lambda budget: pair_chromatic_number(random_planar_paired_graph(0, 30), budget=budget),
        "edge_chromatic_number_complex": lambda budget: edge_chromatic_number_complex(
            _conflict_complex(17, [(i, (i + o) % 17) for i in range(17) for o in (1, 2)]), budget=budget
        ),
    }

    @pytest.mark.parametrize("budget", [True, False, 1.5, 1e9, "3"], ids=repr)
    @pytest.mark.parametrize("solver", sorted(BUDGET_SOLVERS))
    def test_budget_that_is_not_an_int_rejected(self, solver, budget):
        # a float once ran unbounded, True stopped at one node, "3" raised TypeError
        with pytest.raises(DomainError, match="^budget must be a non-negative integer$"):
            self.BUDGET_SOLVERS[solver](budget)

    @pytest.mark.parametrize("solver", sorted(BUDGET_SOLVERS))
    def test_budget_of_none_or_an_int_is_taken(self, solver):
        full = self.BUDGET_SOLVERS[solver](None)
        assert self.BUDGET_SOLVERS[solver](10**6) == full
        with pytest.raises(BudgetExhausted):
            self.BUDGET_SOLVERS[solver](0)


def reference_dsatur(ids, nbrs, log, budget):
    """``colour._chromatic`` with a saturation mask and a ``score`` per
    vertex, and ``max(free, key=score.__getitem__)`` to pick the next one,
    as it was before the kernel became bit-parallel.  Kept as the oracle:
    same size, same witness items in the same order, same solver log and
    the same budget stops."""
    if budget is not None and budget < 0:
        raise DomainError("budget must be non-negative")
    n = len(nbrs)
    clique = greedy_clique_reference(nbrs)
    if log is not None:
        log.clique, log.dsatur_upper, log.branch_nodes = [ids[i] for i in clique], 0, 0
    if n == 0:
        return 0, []

    # Static rank: the higher, the earlier among equally saturated vertices
    # (higher degree, then lower index).
    rank = [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: (len(nbrs[i]), -i))):
        rank[i] = r

    # DSATUR greedy upper bound, also the initial incumbent witness.
    score = rank[:]
    mask = [0] * n
    free = set(range(n))
    witness = []  # (index, colour) items in colouring order
    while free:
        v = max(free, key=score.__getitem__)
        free.remove(v)
        m = mask[v]
        c = 0
        while m >> c & 1:
            c += 1
        witness.append((v, c))
        bit = 1 << c
        for w in nbrs[v]:
            if not mask[w] & bit:
                mask[w] |= bit
                score[w] += n
    k = max(c for _, c in witness) + 1

    if log is not None:
        log.dsatur_upper = k
    if k > len(clique):
        k, witness = reference_branch_and_bound(nbrs, rank, clique, k, witness, log, budget)
    return k, witness


def reference_branch_and_bound(nbrs, rank, clique, best_k, best_witness, log, budget):
    """DSATUR branch and bound (Brelaz, CACM 1979) below the incumbent
    ``best_k``, run from an explicit stack over vertex indexes.

    The clique is pre-coloured 0..len(clique)-1 and a fresh colour may only
    be the next unused one, both exactness-safe symmetry breaks.  The next
    vertex has the most distinct neighbour colours, then the highest static
    ``rank``; colours are tried lowest first, below a limit fixed when the
    node opens.  Saturation is an int bitmask per vertex (in the spirit of
    San Segundo et al.'s PASS, C&OR 2012), and the selection key
    ``score = saturation * n + rank`` is kept current as colours are placed
    and lifted.

    Returns the best size and its colouring as (index, colour) items: the
    incumbent ``best_witness``, or else the clique then the stack in order.
    """
    n = len(nbrs)
    score = rank[:]
    colour = [-1] * n
    mask = [0] * n
    free = set(range(n))
    for c, i in enumerate(clique):
        colour[i] = c
        free.discard(i)
        bit = 1 << c
        for w in nbrs[i]:
            if not mask[w] & bit:
                mask[w] |= bit
                score[w] += n

    lower = len(clique)
    nodes = 0
    # One frame per open node: [vertex, next colour, limit, used, touched],
    # where ``touched`` lists the neighbours whose saturation the vertex's
    # current colour raised (None while it is uncoloured).
    stack = []
    used = lower
    while True:
        # Open a node with ``used`` colours placed.
        if not free:
            if used < best_k:
                best_k = used
                best_witness = [(v, c) for c, v in enumerate(clique)]
                best_witness += [(f[0], colour[f[0]]) for f in stack]
                if best_k == lower:
                    break
        else:
            v = max(free, key=score.__getitem__)
            stack.append([v, 0, min(used + 1, best_k - 1), used, None])
        # Advance the deepest frame to its next colour, popping exhausted ones.
        while stack:
            frame = stack[-1]
            v, c, limit, used, touched = frame
            if touched is not None:
                bit = 1 << colour[v]
                for w in touched:
                    mask[w] ^= bit
                    score[w] -= n
                colour[v] = -1
                free.add(v)
            m = mask[v]
            while c < limit and m >> c & 1:
                c += 1
            if c < limit:
                break
            stack.pop()
        else:
            break
        if nodes == budget:
            if log is not None:
                log.branch_nodes = nodes
            raise BudgetExhausted(
                f"branch-and-bound budget of {budget} nodes exhausted: the chromatic "
                f"number is at least {lower} and at most {best_k}",
                lower=lower,
                upper=best_k,
            )
        nodes += 1
        colour[v] = c
        free.remove(v)
        bit = 1 << c
        touched = [w for w in nbrs[v] if colour[w] < 0 and not mask[w] & bit]
        for w in touched:
            mask[w] |= bit
            score[w] += n
        frame[1] = c + 1
        frame[4] = touched
        if c + 1 > used:
            used = c + 1

    if log is not None:
        log.branch_nodes = nodes
    return best_k, best_witness


def run_kernel(kernel, ids, nbrs, budget):
    """The outcome of one solve and its log: (size, witness items) when it
    closes, the proven bounds and the message when the budget stops it."""
    log = SolverLog([], 0, 0)
    try:
        outcome = kernel(ids, nbrs, log, budget)
    except BudgetExhausted as stop:
        outcome = ("stopped", stop.lower, stop.upper, str(stop))
    return outcome, log.as_dict()


def assert_same_as_reference_dsatur(ids, nbrs, budget=None):
    """Both kernels give the same outcome and log; returns the branch nodes."""
    got = run_kernel(_chromatic, ids, nbrs, budget)
    assert got == run_kernel(reference_dsatur, ids, nbrs, budget)
    return got[1]["branch_nodes"]


def assert_same_at_every_budget(ids, nbrs, cap):
    """Compare the kernels at ``cap`` and, when the search closes below it,
    unbounded and one node short; then at budgets 0 and 1."""
    nodes = assert_same_as_reference_dsatur(ids, nbrs, cap)
    budgets = [0, 1]
    if nodes < cap:
        budgets += [None, nodes - 1] if nodes else [None]
    for budget in budgets:
        assert_same_as_reference_dsatur(ids, nbrs, budget)
    return nodes


class TestBitParallelDsatur:
    """The bitset kernel against the mask-and-score kernel it replaced, on
    graphs of up to 70 vertices (several 30-bit int digits) and on large
    map quotients, at budgets that stop the search at every stage."""

    def test_matches_mask_kernel_on_gnp(self):
        stopped = closed = 0
        for n in (1, 2, 3, 5, 8, 13, 21, 30, 31, 32, 45, 61, 62, 70):
            for p in (0.1, 0.5, 0.9):
                rng = random.Random(n * 100 + int(p * 10))
                for _ in range(2):
                    g = random_graph(rng, n, p)
                    nodes = assert_same_at_every_budget(g.vertices, neighbour_sets(g), 2000)
                    stopped += nodes == 2000
                    closed += 0 < nodes < 2000
        assert stopped > 0 and closed > 10

    def test_matches_mask_kernel_on_regular_graphs_with_mixed_ids(self):
        cases = ((8, (1, 2)), (17, (1, 2)), (50, (1, 2)), (9, (1,)), (21, (1,)), (37, (1, 2, 5)), (49, (1, 2, 4)))
        for n, offsets in cases:
            g = circulant(n, offsets)
            assert assert_same_at_every_budget(g.vertices, neighbour_sets(g), 20_000) > 0

    def test_matches_mask_kernel_on_complete_graphs(self):
        # every count reaches n - 1, the greedy bound less one
        for n in range(1, 40):
            g = complete_graph(n)
            assert assert_same_as_reference_dsatur(g.vertices, neighbour_sets(g)) == 0

    def test_matches_mask_kernel_on_large_map_quotients(self):
        for seed in (0, 1):
            pg = random_planar_paired_graph(seed, 1600)
            ids = tuple(pair[0] for pair in pg.pairing.pairs)
            assert assert_same_as_reference_dsatur(ids, pg._quotient_neighbours, 20_000) == 20_000


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

    def test_k_max_exceeded(self):
        with pytest.raises(DomainError):
            brute_force_edge_chromatic(triangle_complex(), 2)

    @pytest.mark.parametrize("k_max", ["a", 2.5, 3.0, True, False, None, -1])
    def test_k_max_must_be_a_non_negative_integer(self, k_max):
        # checked first, before the edge-count guard
        many = TwoComplex(Multigraph((0, 1), tuple(Edge(i, 0, 1) for i in range(13))), ())
        for c in (triangle_complex(), many):
            with pytest.raises(DomainError) as info:
                brute_force_edge_chromatic(c, k_max)
            assert str(info.value) == "k_max must be a non-negative integer"

    def test_the_sealed_complex_is_refused_past_the_tuple_cap(self):
        # 12 edges needing 12 colours: about 1.1e10 tuples up to 8 colours
        sealed = run_pipeline(load_shipped_witness()).sealed
        with pytest.raises(DomainError) as info:
            brute_force_edge_chromatic(sealed, k_max=8)
        assert str(info.value) == "refusing brute force past 1000000 colour tuples"
        with pytest.raises(DomainError) as info:
            brute_force_edge_chromatic(sealed, k_max=3)  # 179,196 tuples, all tried
        assert str(info.value) == "no valid colouring with at most 3 colours"

    def test_the_tuples_up_to_the_cap_are_tried(self, monkeypatch):
        # the triangle: 1 tuple at one colour, 4 at two, and (0, 1, 2) is the 6th at three
        monkeypatch.setattr(colour, "BRUTE_FORCE_TUPLES", 11)
        assert brute_force_edge_chromatic(triangle_complex(), 4) == 3
        monkeypatch.setattr(colour, "BRUTE_FORCE_TUPLES", 10)
        with pytest.raises(DomainError) as info:
            brute_force_edge_chromatic(triangle_complex(), 4)
        assert str(info.value) == "refusing brute force past 10 colour tuples"
        with pytest.raises(DomainError) as info:
            brute_force_edge_chromatic(triangle_complex(), 2)  # 5 tuples, all tried
        assert str(info.value) == "no valid colouring with at most 2 colours"

    def test_k_max_zero(self):
        assert brute_force_edge_chromatic(TwoComplex(Multigraph((1,), ()), ()), 0) == 0
        with pytest.raises(DomainError) as info:
            brute_force_edge_chromatic(triangle_complex(), 0)
        assert str(info.value) == "no valid colouring with at most 0 colours"

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
    rot = RotationSystem(ends_at(g))
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


def reference_smallest_last(pg):
    """``PairedGraph._smallest_last`` on a heap of (degree, position)
    tuples, as it was before the entries were packed into ints."""
    nbrs = pg._quotient_neighbours
    degree = [len(ws) for ws in nbrs]  # -1 once removed
    heap = [(d, i) for i, d in enumerate(degree)]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if degree[v] != d:
            continue  # removed, or its degree has dropped since this push
        order.append((v, d))
        degree[v] = -1
        for w in nbrs[v]:
            if degree[w] >= 0:
                degree[w] -= 1
                heapq.heappush(heap, (degree[w], w))
    return order


def reference_drained_smallest_last(pg):
    """``PairedGraph._smallest_last`` as it was before the loop stopped at
    the last removal: the packed-int heap popped until it is empty."""
    nbrs = pg._quotient_neighbours
    n = len(nbrs)
    degree = [len(ws) for ws in nbrs]  # -1 once removed
    heap = [d * n + i for i, d in enumerate(degree)]
    heapq.heapify(heap)
    order = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry % n
        d = degree[v]
        if d * n + v != entry:
            continue  # removed, or its degree has dropped since this push
        order.append((v, d))
        degree[v] = -1
        for w in nbrs[v]:
            dw = degree[w]
            if dw >= 0:
                degree[w] = dw = dw - 1
                heapq.heappush(heap, dw * n + w)
    return order


def mixed_id_map(pg):
    """``pg`` with vertex ``i`` renamed to ``i``, ``"v<i>"`` or ``("t", i)``
    by ``i % 3``: the stored order, and with it every tie, changes."""
    name = {v: (v, f"v{v}", ("t", v))[v % 3] for v in pg.graph.vertices}
    g = Multigraph(tuple(name.values()), tuple(Edge(e.id, name[e.end0], name[e.end1]) for e in pg.graph.edges))
    rot = RotationSystem({name[v]: ends for v, ends in pg.rotation.orders})
    return PairedGraph(g, Pairing(tuple((name[a], name[b]) for a, b in pg.pairing.pairs)), rot)


def reference_heawood_colour_12(pg):
    """``heawood_colour_12`` with a set of used colours per pair, as it was
    before the colours became bits."""
    order = pg._smallest_last
    nbrs = pg._quotient_neighbours
    pairs = pg.pairing.pairs
    colour = [-1] * len(pairs)
    assignment = {}
    for v, _ in reversed(order):
        used = {colour[w] for w in nbrs[v]}
        colour[v] = next(c for c in range(12) if c not in used)
        assignment[pairs[v]] = colour[v]
    palette = max(assignment.values()) + 1 if assignment else 0
    return Colouring(palette, assignment)


class TestHeawoodKernels:
    """The packed heap and the colour bits against the loops they replaced,
    on maps too large for the quadratic oracle and on all-tie rings."""

    def test_packed_heap_pops_in_tuple_order(self):
        maps = [random_planar_paired_graph(s, n) for s in (0, 1) for n in (1600, 3200)]
        maps += [ring_map(n) for n in (3, 10, 60)]
        for pg in maps:
            assert pg._smallest_last == reference_smallest_last(pg)

    def test_stopping_at_the_last_removal_keeps_the_drained_order(self):
        maps = [random_planar_paired_graph(s, n) for s in (0, 1) for n in (1, 2, 3, 7, 25, 100, 400)]
        maps += [random_planar_paired_graph(2, n) for n in (1600, 3200)]
        maps += [ring_map(n) for n in (1, 2, 3, 10, 60)]
        maps += [mixed_id_map(random_planar_paired_graph(s, n)) for s in (0, 3) for n in (5, 60, 400)]
        for pg in maps:
            assert pg._smallest_last == reference_drained_smallest_last(pg)
            assert len(pg._smallest_last) == len(pg.pairing.pairs)

    def test_colour_bits_give_the_set_loop_colouring(self):
        from linkchroma.construct import load_shipped_witness, make_degree_faithful

        maps = [random_planar_paired_graph(s, n) for s in range(3) for n in (1, 2, 3, 5, 17, 60, 100, 400)]
        maps += [ring_map(n) for n in (3, 10, 60)]
        maps.append(make_degree_faithful(load_shipped_witness().paired_graph))
        for pg in maps:
            got, want = heawood_colour_12(pg), reference_heawood_colour_12(pg)
            assert got == want
            assert list(got.assignment.items()) == list(want.assignment.items())

    def test_a_thirteenth_colour_is_a_domain_error(self, monkeypatch):
        # K13 fails the planarity and degree checks, so both are bypassed
        # with a forged order of degree-0 records
        k13 = PairedGraph(
            Multigraph(
                tuple(range(26)),
                tuple(Edge((a, b), 2 * a, 2 * b) for a in range(13) for b in range(a + 1, 13)),
            ),
            Pairing(tuple((2 * i, 2 * i + 1) for i in range(13))),
        )
        monkeypatch.setattr(PairedGraph, "require_planar", lambda self: None)
        k13.__dict__["_smallest_last"] = [(v, 0) for v in range(13)]
        with pytest.raises(DomainError, match="^internal error: a pair needs a 13th colour$"):
            heawood_colour_12(k13)
