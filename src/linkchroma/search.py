"""Search for a planar paired graph whose quotient is K12.

The target is a sphere triangulation on 24 vertices together with a
perfect matching of the vertices into 12 pairs such that the 66 edges
(= 3*24 - 6, which is also C(12,2)) realise each of the 66 cross-pair
adjacencies exactly once.  Tightness forces partners to be non-adjacent
and the two degrees of every pair to sum to 11.

Strategy: simulated annealing over triangulation flips and pairing
transpositions, objective = number of distinct cross-pair adjacencies
realised, with restarts; plus an exact backtracking solver for the
pairing on the current triangulation, used to close the final gap.
Deterministic for a given seed.

The objective is kept in one flat table of edge counts per cross-pair
class, so a proposal costs O(degree) integer updates.  A flip changes the
class of one edge only, so it is scored from the table before it is
applied; a rejected flip leaves the triangulation as it was except for
its edge's two darts, which are exchanged, as two flips would leave
them.  A swap is applied and, if rejected, undone by applying it again.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Optional

from .construct import TwelvePireWitness, _with_twins, verify_witness
from .core import Edge, Multigraph
from .errors import BudgetExhausted, DomainError
from .triangulate import SphereTriangulation

OBJECTIVE_MAX = 66
N_VERTICES = 24
N_PAIRS = 12

_CHAIN_LENGTH = 12_000
_STALL_LIMIT = 4_000
_BACKTRACK_EVERY = 400
_BACKTRACK_TRIGGER = 62
_BACKTRACK_NODE_CAP = 30_000
_T_START = 1.5
_T_END = 0.05
_FLIP_PROB = 0.65


def _degree_feasible(adj: dict) -> bool:
    """Necessary for a perfect pairing: degrees within 3..8 and the counts
    of complementary degrees (summing to 11) balanced."""
    counts = Counter(len(adj[v]) for v in adj)
    if any(d < 3 or d > 8 for d in counts):
        return False
    return (
        counts[3] == counts[8]
        and counts[4] == counts[7]
        and counts[5] == counts[6]
    )


class _NodeCapHit(Exception):
    pass


def exact_pairing(adj: dict) -> Optional[list]:
    """Exact search for a pairing of a fixed triangulation realising all 66
    cross-pair adjacencies, or None.

    Partners must have complementary degrees (summing to 11) and be
    non-adjacent, and any two formed pairs may be joined by at most one
    edge; a complete conflict-free pairing then realises all 66 classes.
    Backtracking with a fewest-candidates-first variable order, capped at
    ``_BACKTRACK_NODE_CAP`` search nodes.
    """
    if not _degree_feasible(adj):
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


# _SLOT[i][j]: the count-table slot of the edges joining pairs i and j
# (symmetric), or -1 when i == j, since an edge inside a pair realises no
# cross-pair adjacency.
_SLOT = [
    [-1 if i == j else min(i, j) * N_PAIRS + max(i, j) for j in range(N_PAIRS)]
    for i in range(N_PAIRS)
]


class _AnnealState:
    """Triangulation + pairing with an incrementally maintained count of
    distinct cross-pair adjacencies.

    ``count`` is one flat table of ``N_PAIRS * N_PAIRS`` ints holding the
    number of edges in each cross-pair class at its ``_SLOT`` index, and
    ``distinct`` the number of nonzero entries.  ``flip`` and
    ``swap_pairs`` each cost O(degree) integer updates and are their own
    inverses (a flip up to the exchange of its edge's darts).
    """

    def __init__(self, tri: SphereTriangulation, pair_of: list):
        self.tri = tri
        self.pair_of = pair_of
        self.count = [0] * (N_PAIRS * N_PAIRS)
        for e in range(tri.num_edges):
            u, v = tri.endpoints(e)
            slot = _SLOT[pair_of[u]][pair_of[v]]
            if slot >= 0:
                self.count[slot] += 1
        self.distinct = len(self.count) - self.count.count(0)

    def flip(self, e: int):
        """Flip the flippable edge ``e`` and move its count from the old
        diagonal's class to the new one's (-1: no class)."""
        (x, y), (z, w) = self.tri.flip(e)
        p, count = self.pair_of, self.count
        old, new = _SLOT[p[x]][p[y]], _SLOT[p[z]][p[w]]
        if old >= 0:
            count[old] -= 1
            if not count[old]:
                self.distinct -= 1
        if new >= 0:
            count[new] += 1
            if count[new] == 1:
                self.distinct += 1

    def swap_pairs(self, a: int, b: int):
        """Exchange the pairs of ``a`` and ``b``, which must differ.  Every
        edge at ``a`` or ``b`` moves one count to its new class, except the
        edge ``ab``, whose class does not change."""
        pair_of, adj, count = self.pair_of, self.tri.adj, self.count
        distinct = self.distinct
        pa, pb = pair_of[a], pair_of[b]
        for v, other, old_row, new_row in ((a, b, _SLOT[pa], _SLOT[pb]), (b, a, _SLOT[pb], _SLOT[pa])):
            for nb in adj[v]:
                if nb != other:
                    old, new = old_row[pair_of[nb]], new_row[pair_of[nb]]
                    if old >= 0:
                        count[old] -= 1
                        if not count[old]:
                            distinct -= 1
                    if new >= 0:
                        count[new] += 1
                        if count[new] == 1:
                            distinct += 1
        pair_of[a], pair_of[b] = pb, pa
        self.distinct = distinct

    def pairs(self) -> list:
        members = [[] for _ in range(N_PAIRS)]
        for v, i in enumerate(self.pair_of):
            members[i].append(v)
        return [tuple(sorted(m)) for m in members]


def _random_state(rng: random.Random) -> _AnnealState:
    tri = SphereTriangulation()
    while tri.num_vertices < N_VERTICES:
        tri.insert_vertex(rng.randrange(tri.num_darts))
    for _ in range(40 * N_VERTICES):
        e = rng.randrange(tri.num_edges)
        if tri.flippable(e):
            tri.flip(e)
    perm = list(range(N_VERTICES))
    rng.shuffle(perm)
    pair_of = [0] * N_VERTICES
    for i in range(N_PAIRS):
        pair_of[perm[2 * i]] = i
        pair_of[perm[2 * i + 1]] = i
    return _AnnealState(tri, pair_of)


def _build_witness(tri: SphereTriangulation, pairs, provenance: dict) -> TwelvePireWitness:
    n, m = tri.num_vertices, tri.num_edges
    edges = tuple([Edge(k, *tri.endpoints(k)) for k in range(m)])
    # dart d's successor around its vertex is fnext[d ^ 1]
    succ = [tri.fnext[d ^ 1] for d in range(2 * m)]
    graph, rotation = _with_twins(Multigraph._sorted(tuple(range(n)), edges), succ, [-1] * m, [], [()] * n)
    witness = TwelvePireWitness(
        graph=graph,
        pairs=tuple(pairs),
        rotation=rotation,
        designated_pairs=tuple(pairs),
        provenance=provenance,
    )
    report = verify_witness(witness)
    if not report.all_passed:
        raise DomainError(
            "internal error: search produced a witness failing verification: "
            + "; ".join(report.lines())
        )
    return witness


def search_witness(seed, budget: int) -> TwelvePireWitness:
    """Search with a total budget of annealing proposals.  Returns a fully
    verified witness or raises BudgetExhausted carrying the best objective
    reached (at most 66)."""
    if budget < 1:
        raise DomainError("budget must be positive")
    rng = random.Random(seed)
    random_, getrandbits, exp = rng.random, rng.getrandbits, math.exp
    vertex_bits = N_VERTICES.bit_length()
    best_overall = 0
    steps_used = 0
    restarts = 0
    cool = math.log(_T_END / _T_START)

    while steps_used < budget:
        restarts += 1
        state = _random_state(rng)
        tri, pair_of, count = state.tri, state.pair_of, state.count
        origin, fnext, adj = tri.origin, tri.fnext, tri.adj
        num_edges = tri.num_edges  # a flip keeps the edge count
        edge_bits = num_edges.bit_length()
        chain = min(_CHAIN_LENGTH, budget - steps_used)
        best_chain = state.distinct
        since_improvement = 0

        for i in range(chain):
            steps_used += 1
            since_improvement += 1
            # each getrandbits loop below draws what rng.randrange(n) draws
            if random_() < _FLIP_PROB:
                e = getrandbits(edge_bits)
                while e >= num_edges:
                    e = getrandbits(edge_bits)
                d = 2 * e
                z = origin[fnext[fnext[d]]]
                w = origin[fnext[fnext[d + 1]]]
                if z != w and z not in adj[w]:
                    old = _SLOT[pair_of[origin[d]]][pair_of[origin[d + 1]]]
                    new = _SLOT[pair_of[z]][pair_of[w]]
                    if old == new:
                        delta = 0
                    else:
                        delta = (new >= 0 and not count[new]) - (old >= 0 and count[old] == 1)
                    if delta < 0 and random_() >= exp(delta / (_T_START * exp(cool * i / chain))):
                        tri.exchange_darts(e)  # what flipping e twice leaves
                    else:
                        state.flip(e)
            else:
                a = getrandbits(vertex_bits)
                while a >= N_VERTICES:
                    a = getrandbits(vertex_bits)
                b = getrandbits(vertex_bits)
                while b >= N_VERTICES:
                    b = getrandbits(vertex_bits)
                if pair_of[a] != pair_of[b]:
                    before = state.distinct
                    state.swap_pairs(a, b)
                    delta = state.distinct - before
                    if delta < 0 and random_() >= exp(delta / (_T_START * exp(cool * i / chain))):
                        state.swap_pairs(a, b)  # a swap is its own inverse

            distinct = state.distinct
            if distinct > best_chain:
                best_chain = distinct
                since_improvement = 0
            if distinct > best_overall:
                best_overall = distinct

            reached_target = distinct == OBJECTIVE_MAX
            periodic = i % _BACKTRACK_EVERY == _BACKTRACK_EVERY - 1
            promising = distinct >= _BACKTRACK_TRIGGER and since_improvement == 0
            if reached_target or ((periodic or promising) and _degree_feasible(adj)):
                pairs = state.pairs() if reached_target else exact_pairing(adj)
                if pairs is not None:
                    provenance = {
                        "method": "annealing+exact-pairing",
                        "seed": seed,
                        "budget": budget,
                        "steps_used": steps_used,
                        "restarts": restarts,
                        "objective": OBJECTIVE_MAX,
                        "closed_by": "annealing" if reached_target else "backtracking",
                    }
                    return _build_witness(tri, pairs, provenance)

            if since_improvement > _STALL_LIMIT:
                break

    raise BudgetExhausted(
        f"no witness within {budget} proposals; best objective {best_overall}/66",
        best_objective=best_overall,
    )
