"""Colouring of paired graphs and 2-complexes.

Three independently computable quantities agree for every 2-complex: its
edge-chromatic number, the pair-chromatic number of its link graph, and
the vertex-chromatic number of the link graph's simple quotient.  This
module provides the validity checkers, an exact branch-and-bound solver,
a walk-level brute-force oracle, and the degeneracy-greedy 12-colouring
of planar paired graphs (empire maps with two countries per empire).

Colouring semantics: an edge joining two vertices of the same pair,
including loops, imposes no constraint.  The colourers work on the simple
quotient's neighbour sets: ``chromatic_number`` builds them from a graph,
and the pair colourers read the ones a paired graph keeps.  The checkers
share none of that: the pair checker walks the paired graph's own edges,
and the complex checker the cell walks, independently of link graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import Multigraph, PairedGraph, TwoComplex, link_graph
from .errors import BudgetExhausted, DomainError


@dataclass(frozen=True)
class Colouring:
    """Colours 0..palette_size-1 keyed by what they colour: the canonical
    (smaller, larger) pair tuple on a paired graph, the edge id on a
    2-complex."""

    palette_size: int
    assignment: Mapping

    def __post_init__(self):
        assignment = dict(self.assignment)
        for key, colour in assignment.items():
            if not isinstance(colour, int) or isinstance(colour, bool):
                raise DomainError(f"colour of {key!r} must be an integer")
            if not 0 <= colour < self.palette_size:
                raise DomainError(
                    f"colour {colour} of {key!r} is outside palette of size {self.palette_size}"
                )
        object.__setattr__(self, "assignment", assignment)

    def colours_used(self) -> int:
        return len(set(self.assignment.values()))


def is_valid_pair_colouring(pg: PairedGraph, colouring: Colouring) -> bool:
    """True iff distinct pairs joined by an edge receive distinct colours.

    Within-pair edges are exempt.  The check walks the paired graph's own
    edges, not the quotient neighbour sets the colourers work from.
    """
    colour = {}
    for pair in pg.pairing.pairs:
        if pair not in colouring.assignment:
            raise DomainError(f"pair {pair!r} is uncoloured")
        colour[pair[0]] = colour[pair[1]] = colouring.assignment[pair]
    pair_of = pg.pairing._pair_of
    for e in pg.graph.edges:
        if colour[e.end0] == colour[e.end1] and pair_of[e.end0] != pair_of[e.end1]:
            return False
    return True


def is_valid_complex_colouring(c: TwoComplex, colouring: Colouring) -> bool:
    """True iff no cell boundary enters and leaves a vertex through two
    distinct equal-coloured edges.

    Checked directly on the cell walks, independently of the link graph.
    """
    for e in c.skeleton.edges:
        if e.id not in colouring.assignment:
            raise DomainError(f"edge {e.id!r} is uncoloured")
    return _clash_free(_junctions(c), colouring.assignment)


def _junctions(c: TwoComplex) -> list:
    """The (exit edge, entry edge) id pairs at which a cell walk passes
    between two distinct edges, read off the walks alone."""
    out = []
    for cell in c.cells:
        edges = [s.edge for s in cell.steps]
        out += ((a, b) for a, b in zip(edges, edges[1:] + edges[:1]) if a != b)
    return out


def _clash_free(junctions: list, colour: dict) -> bool:
    """True iff every junction joins two differently coloured edges under
    ``colour``, a plain dict covering every edge of the junctions."""
    for a, b in junctions:
        if colour[a] == colour[b]:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact vertex chromatic number: clique-seeded DSATUR branch and bound


def _neighbours(g: Multigraph) -> list:
    """Neighbour-index sets by position in ``g.vertices``, with loops
    dropped and parallels collapsed."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [set() for _ in g.vertices]
    for e in g.edges:
        if not e.is_loop:
            a, b = index[e.end0], index[e.end1]
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def _greedy_clique(nbrs: list) -> list:
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


@dataclass
class SolverLog:
    """Diagnostics from one exact solve."""

    clique: list
    dsatur_upper: int
    branch_nodes: int

    def as_dict(self) -> dict:
        return {
            "clique_size": len(self.clique),
            "clique": list(self.clique),
            "dsatur_upper": self.dsatur_upper,
            "branch_nodes": self.branch_nodes,
        }


def chromatic_number(
    g: Multigraph, log: Optional[SolverLog] = None, *, budget: Optional[int] = None
):
    """Exact vertex chromatic number with a witness colouring.

    Loops are removed and parallel edges collapsed before colouring.  The
    search is a clique-seeded DSATUR branch and bound with deterministic
    tie-breaking (lowest vertex id, lowest colour first), so the witness is
    reproducible.  The empty graph has chromatic number 0.

    ``budget`` caps the branch nodes; ``None`` leaves the search unbounded.
    When it runs out, BudgetExhausted carries the proven lower bound (the
    clique size) and the best colouring's size as ``lower`` and ``upper``.
    """
    ids = g.vertices  # in id order, so ties broken by index are broken by id
    k, witness = _chromatic(ids, _neighbours(g), log, budget)
    return k, {ids[i]: c for i, c in witness}


def _chromatic(ids: tuple, nbrs: list, log: Optional[SolverLog], budget: Optional[int]):
    """``chromatic_number`` on neighbour-index sets, the vertex at index
    ``i`` named ``ids[i]`` in the log.  Returns the size and the witness as
    (index, colour) items in colouring order."""
    if budget is not None and budget < 0:
        raise DomainError("budget must be non-negative")
    n = len(nbrs)
    clique = _greedy_clique(nbrs)
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
        k, witness = _branch_and_bound(nbrs, rank, clique, k, witness, log, budget)
    return k, witness


def _branch_and_bound(nbrs, rank, clique, best_k, best_witness, log, budget):
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


def pair_chromatic_number(
    pg: PairedGraph, log: Optional[SolverLog] = None, *, budget: Optional[int] = None
):
    """Exact pair-chromatic number: the chromatic number of the simple
    quotient, with the witness lifted back to pairs.

    The route-3 solver runs on the paired graph's kept quotient neighbour
    sets, index ``i`` being pair ``i`` named by its smaller member.  Those
    are the sets ``chromatic_number(simple_quotient(pg))`` builds, in the
    same order, so the size, the witness and the log are the same.
    """
    k, colours = _pair_colours(pg, log, budget)
    return k, Colouring(k, dict(zip(pg.pairing.pairs, colours)))


def _pair_colours(pg: PairedGraph, log: Optional[SolverLog], budget: Optional[int]) -> tuple:
    """``pair_chromatic_number``'s size and the colour of each pair, by
    position."""
    ids = tuple(p[0] for p in pg.pairing.pairs)
    k, witness = _chromatic(ids, pg._quotient_neighbours, log, budget)
    return k, [c for _, c in sorted(witness)]


def edge_chromatic_number_complex(
    c: TwoComplex, log: Optional[SolverLog] = None, *, budget: Optional[int] = None
):
    """Exact edge-chromatic number of a 2-complex via its link graph.

    The witness colours each edge e with the colour of the pair
    {(e,0), (e,1)} and is checked against the walk-level validator before
    being returned.
    """
    # pair i of the link graph is the i-th skeleton edge's pair
    k, colours = _pair_colours(link_graph(c), log, budget)
    witness = Colouring(k, dict(zip(c.skeleton.edge_ids(), colours)))
    if not is_valid_complex_colouring(c, witness):
        raise DomainError("internal error: edge-chromatic witness failed the walk-level check")
    return k, witness


def brute_force_edge_chromatic(c: TwoComplex, k_max: int, force: bool = False) -> int:
    """Smallest palette size admitting a valid edge colouring, by exhaustive
    search over assignments checked with the walk-level validator.

    Independent of the link-graph route.  Guarded to complexes with at most
    12 edges unless ``force`` is given.  The first edge's colour is fixed to
    0 (colour permutations are symmetries).
    """
    edge_ids = [e.id for e in c.skeleton.edges]
    if len(edge_ids) > 12 and not force:
        raise DomainError("refusing brute force on more than 12 edges (use force=True)")
    if not edge_ids:
        return 0
    junctions = _junctions(c)
    for k in range(1, k_max + 1):
        for rest in itertools.product(range(k), repeat=len(edge_ids) - 1):
            if _clash_free(junctions, dict(zip(edge_ids, (0,) + rest))):
                return k
    raise DomainError(f"no valid colouring with at most {k_max} colours")


# ---------------------------------------------------------------------------
# Degeneracy-greedy 12-colouring of certified-planar paired graphs


def _degeneracy(pg: PairedGraph) -> list:
    """The elimination order of ``heawood_degeneracy_order`` as (position,
    degree) records, computed once per object.  Quotient vertex ``i`` is
    ``pg.pairing.pairs[i][0]``."""
    pg.require_planar()
    order = pg._smallest_last
    if any(d > 11 for _, d in order):
        raise DomainError("planar paired graph produced a quotient of minimum degree > 11")
    return order


def heawood_degeneracy_order(pg: PairedGraph) -> list:
    """Elimination order of pairs by repeatedly removing a pair of minimum
    degree in the current simple quotient, the earliest pair in stored
    order (smallest representative id) first on ties.

    This is smallest-last ordering (Matula and Beck, JACM 1983) in
    O(m log n), computed once per paired graph and shared with
    ``heawood_colour_12``.

    Requires a certified planar input.  Returns (pair, degree-at-removal)
    records; Euler's formula for planar graphs guarantees every recorded
    degree is at most 11, and the function raises DomainError otherwise.
    """
    pairs = pg.pairing.pairs
    return [(pairs[v], d) for v, d in _degeneracy(pg)]


def heawood_colour_12(pg: PairedGraph) -> Colouring:
    """12-pair-colouring of a certified-planar paired graph.

    Greedy back-insertion along the reverse elimination order; each pair
    takes the smallest colour in 0..11 unused by its already-coloured
    quotient neighbours.  Always succeeds on certified inputs.
    """
    order = _degeneracy(pg)
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
