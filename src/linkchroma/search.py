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
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Optional

from .construct import TwelvePireWitness, verify_witness
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


def exact_pairing(adj: dict, node_cap: int = _BACKTRACK_NODE_CAP) -> Optional[list]:
    """Exact search for a pairing of a fixed triangulation realising all 66
    cross-pair adjacencies, or None.

    Partners must have complementary degrees (summing to 11) and be
    non-adjacent, and any two formed pairs may be joined by at most one
    edge; a complete conflict-free pairing then realises all 66 classes.
    Backtracking with a fewest-candidates-first variable order, capped at
    ``node_cap`` search nodes.
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
            if nodes > node_cap:
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


class _AnnealState:
    """Triangulation + pairing with an incrementally maintained count of
    distinct cross-pair adjacencies."""

    def __init__(self, tri: SphereTriangulation, pair_of: list):
        self.tri = tri
        self.pair_of = pair_of
        self.class_count = Counter()
        self.distinct = 0
        for e in range(tri.num_edges):
            u, v = tri.endpoints(e)
            self._add(u, v)

    def _key(self, u, v):
        i, j = self.pair_of[u], self.pair_of[v]
        if i == j:
            return None
        return (i, j) if i < j else (j, i)

    def _add(self, u, v):
        key = self._key(u, v)
        if key is not None:
            self.class_count[key] += 1
            if self.class_count[key] == 1:
                self.distinct += 1

    def _remove(self, u, v):
        key = self._key(u, v)
        if key is not None:
            self.class_count[key] -= 1
            if self.class_count[key] == 0:
                del self.class_count[key]
                self.distinct -= 1

    def try_flip(self, e: int):
        """Flip edge ``e`` and update counters; returns an undo closure, or
        None when the edge is not flippable."""
        if not self.tri.flippable(e):
            return None
        (x, y), (z, w) = self.tri.flip(e)
        self._remove(x, y)
        self._add(z, w)

        def undo():
            self.tri.flip(e)
            self._remove(z, w)
            self._add(x, y)

        return undo

    def swap_pairs(self, a: int, b: int):
        """Exchange the pair memberships of vertices ``a`` and ``b``;
        returns an undo closure."""
        affected = {tuple(sorted((a, nb))) for nb in self.tri.adj[a]}
        affected |= {tuple(sorted((b, nb))) for nb in self.tri.adj[b]}
        affected = sorted(affected)

        def apply():
            for u, v in affected:
                self._remove(u, v)
            self.pair_of[a], self.pair_of[b] = self.pair_of[b], self.pair_of[a]
            for u, v in affected:
                self._add(u, v)

        apply()
        return apply  # the swap is an involution

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
    graph, rotation = tri.to_graph_and_rotation()
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
    best_overall = 0
    steps_used = 0
    restarts = 0
    cool = math.log(_T_END / _T_START)

    while steps_used < budget:
        restarts += 1
        state = _random_state(rng)
        chain = min(_CHAIN_LENGTH, budget - steps_used)
        best_chain = state.distinct
        since_improvement = 0

        for i in range(chain):
            steps_used += 1
            since_improvement += 1
            temperature = _T_START * math.exp(cool * i / chain)

            if rng.random() < _FLIP_PROB:
                before = state.distinct
                undo = state.try_flip(rng.randrange(state.tri.num_edges))
                if undo is not None:
                    delta = state.distinct - before
                    if delta < 0 and rng.random() >= math.exp(delta / temperature):
                        undo()
            else:
                a = rng.randrange(N_VERTICES)
                b = rng.randrange(N_VERTICES)
                if state.pair_of[a] != state.pair_of[b]:
                    before = state.distinct
                    undo = state.swap_pairs(a, b)
                    delta = state.distinct - before
                    if delta < 0 and rng.random() >= math.exp(delta / temperature):
                        undo()

            if state.distinct > best_chain:
                best_chain = state.distinct
                since_improvement = 0
            best_overall = max(best_overall, state.distinct)

            reached_target = state.distinct == OBJECTIVE_MAX
            periodic = i % _BACKTRACK_EVERY == _BACKTRACK_EVERY - 1
            promising = state.distinct >= _BACKTRACK_TRIGGER and since_improvement == 0
            if reached_target or ((periodic or promising) and _degree_feasible(state.tri.adj)):
                pairs = (
                    state.pairs()
                    if reached_target
                    else exact_pairing(state.tri.adj)
                )
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
                    return _build_witness(state.tri, pairs, provenance)

            if since_improvement > _STALL_LIMIT:
                break

    raise BudgetExhausted(
        f"no witness within {budget} proposals; best objective {best_overall}/66",
        best_objective=best_overall,
    )
