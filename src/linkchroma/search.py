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

The objective is kept in packed ints of edge counts, one 4-bit field per
pair, in plain columns that ``_counts`` builds at each restart and the
proposal loop keeps; every proposal is scored before it touches them.  A
flip's score reads two fields, and a swap's rebuilds the rows of its two
pairs from the counts of four vertices in O(1) big-int operations; an
accepted move adds its score to the one running count, so no move is
scored twice.  A rejected swap
changes nothing.  A rejected flip only toggles a parity bit for its edge:
flipping an edge twice exchanges its two darts, a relabelling that
commutes with every flip and leaves every vertex the loop reads unchanged,
so the pending exchanges are applied just before a witness is built.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Optional

from .construct import TwelvePireWitness, _seeded_rng, _triangulation_map, verify_witness
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
    return all(3 <= d <= 8 and counts[d] == counts[11 - d] for d in counts)


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
            if deg[v] != 11 - deg[u] or v in adj[u]:  # 11 is odd, so u is never its own candidate
                continue
            # the formed pairs that u and v reach: each at most once
            reached = [pair_index[w] for x in (u, v) for w in adj[x] if w in pair_index]
            if len(set(reached)) == len(reached):
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
            pair_index[best_u] = pair_index[v] = len(pairs)
            pairs.append((best_u, v))
            unpaired.difference_update((best_u, v))
            if search():
                return True
            unpaired.update((best_u, v))
            del pair_index[best_u], pair_index[v]
            pairs.pop()
        return False

    try:
        return pairs if search() else None
    except _NodeCapHit:
        return None


# Pair counts are packed ints with one 4-bit field per pair, field q at
# bits 4q..4q+3.  A field never exceeds 4 (two vertices with at most two
# neighbours each in one pair), so adding 7 to every field sets bit 3 of
# exactly the nonzero ones and carries into no neighbouring field.
_FIELD = [1 << 4 * q for q in range(N_PAIRS)]
_SEVENS = 7 * sum(_FIELD)
# _KEEP[p]: bit 3 of every field except field p
_KEEP = [8 * (sum(_FIELD) - f) for f in _FIELD]


def _pairs(pair_of: list) -> list:
    """The members of each pair, in pair order, each pair sorted."""
    members = [[] for _ in range(N_PAIRS)]
    for v, i in enumerate(pair_of):
        members[i].append(v)
    return [tuple(sorted(m)) for m in members]


def _counts(adj: dict, pair_of: list) -> tuple:
    """The annealer's columns for a triangulation's neighbour sets and a
    pairing, from scratch: ``partner[v]`` is the other member of ``v``'s
    pair; ``nbp[v]`` holds, in field q, the number of neighbours of ``v``
    in pair q; ``row[p]`` is the sum of ``nbp`` over the two members of
    pair p, so its field q is the number of edges joining pairs p and q
    (field p counts an edge inside the pair twice and realises no class);
    and ``distinct`` is the number of nonzero cross-pair classes."""
    pairs = _pairs(pair_of)
    partner = [sum(pairs[p]) - v for v, p in enumerate(pair_of)]
    nbp = [sum(_FIELD[pair_of[u]] for u in adj[v]) for v in range(len(pair_of))]
    row = [nbp[u] + nbp[v] for u, v in pairs]
    distinct = sum(((r + _SEVENS) & _KEEP[p]).bit_count() for p, r in enumerate(row)) // 2
    return partner, nbp, row, distinct


def _random_state(rng: random.Random) -> tuple:
    """A random triangulation mixed by flips, and a random ``pair_of``."""
    tri = SphereTriangulation()
    tri.grow(N_VERTICES, rng)
    origin, fnext, adj, getrandbits = tri.origin, tri.fnext, tri.adj, rng.getrandbits
    num_edges, edge_bits = tri.num_edges, tri.num_edges.bit_length()
    for _ in range(40 * N_VERTICES):
        e = getrandbits(edge_bits)  # the loop rng.randrange(num_edges) runs
        while e >= num_edges:
            e = getrandbits(edge_bits)
        d = 2 * e
        a = fnext[d]
        b = fnext[a]
        c = fnext[d + 1]
        f = fnext[c]
        z, w = origin[b], origin[f]
        if z != w and z not in adj[w]:  # the check of tri.flip(e)
            tri._flip_at(d, a, b, c, f, origin[d], origin[d + 1], z, w)
    perm = list(range(N_VERTICES))
    rng.shuffle(perm)
    pair_of = [0] * N_VERTICES
    for i in range(N_PAIRS):
        pair_of[perm[2 * i]] = i
        pair_of[perm[2 * i + 1]] = i
    return tri, pair_of


def _build_witness(tri: SphereTriangulation, pairs, provenance: dict) -> TwelvePireWitness:
    graph, rotation = _triangulation_map(tri.num_vertices, tri.origin, tri.fnext, [-1] * tri.num_edges, [], [])
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
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise DomainError("budget must be a positive integer")
    rng = _seeded_rng(seed)
    random_, getrandbits, exp = rng.random, rng.getrandbits, math.exp
    vertex_bits = N_VERTICES.bit_length()
    best_overall = 0
    steps_used = 0
    restarts = 0
    cool = math.log(_T_END / _T_START)

    while steps_used < budget:
        restarts += 1
        tri, pair_of = _random_state(rng)
        partner, nbp, row, distinct = _counts(tri.adj, pair_of)
        origin, fnext, adj, flip_at = tri.origin, tri.fnext, tri.adj, tri._flip_at
        num_edges = tri.num_edges  # a flip keeps the edge count
        edge_bits = num_edges.bit_length()
        exchanged = [0] * num_edges  # rejected flips per edge, mod 2
        chain = min(_CHAIN_LENGTH, budget - steps_used)
        best_chain = distinct
        last_improved = -1

        for i in range(chain):
            # each getrandbits loop below draws what rng.randrange(n) draws
            if random_() < _FLIP_PROB:
                e = getrandbits(edge_bits)
                while e >= num_edges:
                    e = getrandbits(edge_bits)
                d = 2 * e
                a = fnext[d]
                b = fnext[a]
                c = fnext[d + 1]
                f = fnext[c]
                z, w = origin[b], origin[f]
                # A pending exchange swaps x with y and z with w, and every
                # read below is symmetric under that.
                if z != w and z not in adj[w]:
                    x, y = origin[d], origin[d + 1]
                    px, py, pz, pw = pair_of[x], pair_of[y], pair_of[z], pair_of[w]
                    lost = px != py and (row[px] >> 4 * py) & 15 == 1
                    # the flip loses one class iff the old diagonal is the
                    # last edge of its class and the new one joins no
                    # class, or another class that already has edges
                    if (
                        lost
                        and (pz == pw or (row[pz] >> 4 * pw) & 15 and {pz, pw} != {px, py})
                        and random_() >= exp(-1 / (_T_START * exp(cool * i / chain)))
                    ):
                        exchanged[e] ^= 1  # what flipping e twice leaves
                    else:
                        flip_at(d, a, b, c, f, x, y, z, w)
                        fx, fy, fz, fw = _FIELD[px], _FIELD[py], _FIELD[pz], _FIELD[pw]
                        nbp[x] -= fy
                        nbp[y] -= fx
                        nbp[z] += fw
                        nbp[w] += fz
                        row[px] -= fy  # the pairs need not differ
                        row[py] -= fx
                        row[pz] += fw
                        row[pw] += fz
                        # zw's class holds one edge now iff it was empty or
                        # is xy's (lost)
                        distinct += (pz != pw and (row[pz] >> 4 * pw) & 15 == 1) - lost
            else:
                a = getrandbits(vertex_bits)
                while a >= N_VERTICES:
                    a = getrandbits(vertex_bits)
                b = getrandbits(vertex_bits)
                while b >= N_VERTICES:
                    b = getrandbits(vertex_bits)
                pa, pb = pair_of[a], pair_of[b]
                if pa != pb:
                    # only the rows of the two pairs change, and they follow
                    # from nbp of a, b and their partners; a vertex moving
                    # between pa and pb changes only fields pa and pb, and
                    # row pb is counted without them
                    adj_a = adj[a]
                    a2, b2 = partner[a], partner[b]
                    moved = _FIELD[pb] - _FIELD[pa]  # a vertex moving from pair pa to pb
                    new_a = nbp[b] + nbp[a2] + moved * ((b in adj_a) + (a2 in adj_a) - (a2 in adj[b]))  # {b, a2}
                    new_b = nbp[a] + nbp[b2]  # {a, b2}, but for fields pa and pb
                    # count class {pa, pb} in row pa only
                    keep_a = _KEEP[pa]
                    keep_b = keep_a & _KEEP[pb]
                    delta = (
                        ((new_a + _SEVENS) & keep_a).bit_count()
                        + ((new_b + _SEVENS) & keep_b).bit_count()
                        - ((row[pa] + _SEVENS) & keep_a).bit_count()
                        - ((row[pb] + _SEVENS) & keep_b).bit_count()
                    )
                    if delta >= 0 or random_() < exp(delta / (_T_START * exp(cool * i / chain))):
                        # the neighbours of a see it move to pair pb, those
                        # of b the reverse; new_a is now exact, new_b is not
                        distinct += delta
                        for u in adj_a:
                            nbp[u] += moved
                            row[pair_of[u]] += moved
                        for u in adj[b]:
                            nbp[u] -= moved
                            row[pair_of[u]] -= moved
                        pair_of[a], pair_of[b] = pb, pa
                        partner[a], partner[b2], partner[b], partner[a2] = b2, a, a2, b
                        row[pa], row[pb] = new_a, nbp[a] + nbp[b2]

            # The bookkeeping below decides nothing unless the objective
            # passed one of its two bests, or at the backtracking period.
            if distinct > best_chain or distinct > best_overall or i % _BACKTRACK_EVERY == _BACKTRACK_EVERY - 1:
                if distinct > best_chain:
                    best_chain = distinct
                    last_improved = i
                if distinct > best_overall:
                    best_overall = distinct

                reached_target = distinct == OBJECTIVE_MAX
                periodic = i % _BACKTRACK_EVERY == _BACKTRACK_EVERY - 1
                promising = distinct >= _BACKTRACK_TRIGGER and last_improved == i
                if reached_target or ((periodic or promising) and _degree_feasible(adj)):
                    pairs = _pairs(pair_of) if reached_target else exact_pairing(adj)
                    if pairs is not None:
                        steps_used += i + 1
                        provenance = {
                            "method": "annealing+exact-pairing",
                            "seed": seed,
                            "budget": budget,
                            "steps_used": steps_used,
                            "restarts": restarts,
                            "objective": OBJECTIVE_MAX,
                            "closed_by": "annealing" if reached_target else "backtracking",
                        }
                        for e in range(num_edges):
                            if exchanged[e]:
                                tri.exchange_darts(e)
                        return _build_witness(tri, pairs, provenance)

            if i - last_improved > _STALL_LIMIT:
                break
        steps_used += i + 1

    raise BudgetExhausted(
        f"no witness within {budget} proposals; best objective {best_overall}/66",
        best_objective=best_overall,
    )
