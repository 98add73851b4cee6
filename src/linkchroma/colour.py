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
the pair colourer reads the ones a paired graph keeps, and the complex
colourer reads them from the cell junctions, building no link graph.
The checkers share none of that: the pair checker walks the paired
graph's own edges, and the complex checker the cell walks, independently
of link graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import EdgeEnd, Multigraph, PairedGraph, TwoComplex, _neighbour_sets, _require_third_edge_ids
from .errors import BudgetExhausted, DomainError, short_repr


@dataclass(frozen=True)
class Colouring:
    """Colours 0..palette_size-1 keyed by what they colour: the canonical
    (smaller, larger) pair tuple on a paired graph, the edge id on a
    2-complex."""

    palette_size: int
    assignment: Mapping

    def __post_init__(self):
        try:
            assignment = dict(self.assignment)
        except (TypeError, ValueError):  # not a mapping, nor an iterable of pairs
            raise DomainError(f"colouring assignment {short_repr(self.assignment)} must be a mapping") from None
        for key, colour in assignment.items():
            if not isinstance(colour, int) or isinstance(colour, bool):
                raise DomainError(f"colour of {short_repr(key)} must be an integer")
            try:
                inside = 0 <= colour < self.palette_size
            except TypeError:
                raise DomainError(f"palette size {short_repr(self.palette_size)} must be an integer") from None
            if not inside:
                raise DomainError(
                    f"colour {short_repr(colour)} of {short_repr(key)} is outside palette of size {short_repr(self.palette_size)}"
                )
        # checked after the colours, whose faults come first
        if not isinstance(self.palette_size, int) or isinstance(self.palette_size, bool):
            raise DomainError(f"palette size {short_repr(self.palette_size)} must be an integer")
        if self.palette_size < 0:
            raise DomainError(f"palette size {short_repr(self.palette_size)} must not be negative")
        object.__setattr__(self, "assignment", assignment)

    def colours_used(self) -> int:
        return len(set(self.assignment.values()))


def is_valid_pair_colouring(pg: PairedGraph, colouring: Colouring) -> bool:
    """True iff distinct pairs joined by an edge receive distinct colours.

    Within-pair edges are exempt.  The check walks the paired graph's own
    edges, not the quotient neighbour sets the colourers work from.
    """
    index, at = pg.graph._index, pg.graph._at
    colour, pair_at = [0] * len(index), [0] * len(index)  # by vertex position
    for k, pair in enumerate(pg.pairing.pairs):
        if pair not in colouring.assignment:
            raise DomainError(f"pair {short_repr(pair)} is uncoloured")
        for p in map(index.__getitem__, pair):
            colour[p], pair_at[p] = colouring.assignment[pair], k
    ends = iter(at)
    for a, b in zip(ends, ends):  # the two ends of each edge
        if colour[a] == colour[b] and pair_at[a] != pair_at[b]:
            return False
    return True


def is_valid_complex_colouring(c: TwoComplex, colouring: Colouring) -> bool:
    """True iff no cell boundary enters and leaves a vertex through two
    distinct equal-coloured edges.

    Checked directly on the cell walks, independently of the link graph.
    """
    for i in c.skeleton.edge_ids():
        if i not in colouring.assignment:
            raise DomainError(f"edge {short_repr(i)} is uncoloured")
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


def _greedy_clique(nbrs: list, degree: list) -> list:
    """Deterministic greedy clique of vertex indexes of a nonempty graph:
    repeatedly add the candidate of highest degree within the candidate set,
    lowest index first on ties.  ``degree`` holds each ``len(nbrs[i])``, the
    degrees within the first candidate set, every vertex.  A chosen vertex
    leaves the candidates, even if it is in its own set."""
    v = degree.index(max(degree))
    clique = [v]
    candidates = nbrs[v] - {v}
    while candidates:
        best = -1
        for u in sorted(candidates):  # in index order, so ties keep the first
            d = len(nbrs[u] & candidates)
            if d > best:
                best, v = d, u
        clique.append(v)
        candidates = (candidates & nbrs[v]) - {v}
    return clique


# The branch-node budget of the exact solves the CLI and verify_witness run.
DEFAULT_BUDGET = 2_000_000


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
    tie-breaking, so the witness is reproducible: the next vertex is the most
    saturated, then the one of highest degree, then the lowest id; colours
    are tried lowest first.  The empty graph has chromatic number 0.

    ``budget``, a non-negative int, caps the branch nodes; ``None`` leaves
    the search unbounded, and anything else is refused.  When it runs out,
    BudgetExhausted carries the proven lower bound (the clique size) and the
    best colouring's size as ``lower`` and ``upper``.
    """
    ids = g.vertices  # in id order, so ties broken by index are broken by id
    k, witness = _chromatic(ids, _neighbour_sets(len(ids), g._at), log, budget)
    return k, {ids[i]: c for i, c in witness}


def _chromatic(ids: tuple, nbrs: list, log: Optional[SolverLog], budget: Optional[int]):
    """``chromatic_number`` on neighbour-index sets, the vertex at index
    ``i`` named ``ids[i]`` in the log; ``ids`` is read only when a log is
    given.  Returns the size and the witness as (index, colour) items in
    colouring order.  Graphs of at most three vertices, loop-free, are
    answered from ``_SMALL_GRAPHS``, the table this search fills at import:
    the same size, witness and log, with no branch nodes."""
    if budget is not None and (not isinstance(budget, int) or isinstance(budget, bool) or budget < 0):
        raise DomainError("budget must be a non-negative integer")
    n = len(nbrs)
    if n < 4:
        known = _SMALL_GRAPHS.get(tuple(map(frozenset, nbrs)))
        if known is not None:
            k, witness, clique, upper = known
            if log is not None:
                log.clique, log.dsatur_upper, log.branch_nodes = [ids[i] for i in clique], upper, 0
            return k, list(witness)
    degree = list(map(len, nbrs))
    clique = _greedy_clique(nbrs, degree) if n else []
    if log is not None:
        log.clique, log.dsatur_upper, log.branch_nodes = [ids[i] for i in clique], 0, 0
    if n == 0:
        return 0, []

    # Bit r of every vertex set is the vertex of static rank r: the higher, the
    # earlier among equally saturated vertices (higher degree, then lower index).
    order = sorted(range(n - 1, -1, -1), key=degree.__getitem__)  # stable: ties by -i
    bit_of = [0] * n
    for r, i in enumerate(order):
        bit_of[i] = 1 << r
    adj = [sum(map(bit_of.__getitem__, nbrs[i])) for i in order]

    # DSATUR greedy upper bound, also the initial incumbent witness.
    top = degree[order[-1]]  # no vertex sees more colours than it has neighbours
    forb = [0] * (top + 1)  # forb[c]: the vertices with a neighbour coloured c
    slices = [0] * top.bit_length()  # slices[j]: bit j of every saturation count
    free = (1 << n) - 1
    witness = []  # (index, colour) items in colouring order
    k = 0  # colours placed so far; each vertex takes at most the next one
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
        if c == k:
            k += 1
        witness.append((order[v], c))
        touched = adj[v] & ~forb[c]
        forb[c] |= touched
        _raise_counts(slices, touched)

    if log is not None:
        log.dsatur_upper = k
    if k > len(clique):
        clique = [bit_of[i].bit_length() - 1 for i in clique]
        k, witness = _branch_and_bound(adj, order, clique, k, witness, log, budget)
    return k, witness


def _raise_counts(slices: list, touched: int) -> None:
    """Add one to the count of every vertex in ``touched``, one carry step per
    slice; a count that would outgrow the slices raises IndexError."""
    j = 0
    while touched:
        slices[j], touched = slices[j] ^ touched, slices[j] & touched
        j += 1


def _branch_and_bound(adj, order, clique, best_k, best_witness, log, budget):
    """DSATUR branch and bound (Brelaz, CACM 1979) below the incumbent
    ``best_k``, run from an explicit stack over vertex ranks, the vertex of
    rank ``r`` being index ``order[r]``.

    The clique is pre-coloured 0..len(clique)-1 and a fresh colour may only
    be the next unused one, both exactness-safe symmetry breaks.  The next
    vertex has the most distinct neighbour colours, then the highest rank;
    colours are tried lowest first, below a limit fixed when the node opens.
    Vertex sets are int bitsets, in the spirit of San Segundo et al.'s PASS
    (C&OR 2012): ``forb[c]`` holds the vertices with a neighbour coloured
    ``c`` and ``slices[j]`` bit ``j`` of every saturation count, so placing a
    colour raises all the counts it touches in one carry chain.  Lifting it
    XORs ``forb`` back and restores the slices its frame saved.

    Returns the best size and its colouring as (index, colour) items: the
    incumbent ``best_witness``, or else the clique then the stack in order.
    """
    # Colours stay below best_k - 1, so no count exceeds best_k - 1.
    forb = [0] * (best_k - 1)
    slices = [0] * (best_k - 1).bit_length()
    free = (1 << len(adj)) - 1
    for c, v in enumerate(clique):
        forb[c] = adj[v]
        _raise_counts(slices, adj[v])
        free ^= 1 << v

    lower = len(clique)
    nodes = 0
    # One frame per open node: [vertex, next colour, limit, used, touched,
    # slices]: the vertices whose count its current colour raised (None while
    # it is uncoloured), and the counts from before that raise.
    stack = []
    used = lower
    while True:
        # Open a node with ``used`` colours placed.
        if not free:
            if used < best_k:
                best_k = used
                best_witness = [(order[v], c) for c, v in enumerate(clique)]
                best_witness += [(order[f[0]], f[1] - 1) for f in stack]
                if best_k == lower:
                    break
        else:
            v = free
            for s in reversed(slices):
                v = v & s or v
            limit = used + 1 if used + 2 < best_k else best_k - 1
            stack.append([v.bit_length() - 1, 0, limit, used, None, None])
        # Advance the deepest frame to its next colour, popping exhausted ones.
        while stack:
            frame = stack[-1]
            v, c, limit, used, touched, saved = frame
            bit = 1 << v
            if touched is not None:
                forb[c - 1] ^= touched
                slices = saved
                free |= bit
            while c < limit and forb[c] & bit:
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
        free ^= bit
        touched = adj[v] & ~forb[c]
        forb[c] |= touched
        frame[1] = c + 1
        frame[4] = touched
        frame[5] = slices
        if touched:  # _raise_counts on a copy, inlined in this hot loop
            slices = slices[:]
            j = 0
            while touched:
                slices[j], touched = slices[j] ^ touched, slices[j] & touched
                j += 1
        if c + 1 > used:
            used = c + 1

    if log is not None:
        log.branch_nodes = nodes
    return best_k, best_witness


def _small_graph_answers() -> dict:
    """What the search returns on each of the 12 loop-free graphs on at most
    three vertices, keyed by their neighbour sets as a tuple of frozensets:
    (size, witness, clique, DSATUR bound), the clique by index."""
    answers = {}
    for n in range(4):
        pairs = list(itertools.combinations(range(n), 2))
        for joined in itertools.product((0, 1), repeat=len(pairs)):
            nbrs = _neighbour_sets(n, itertools.chain.from_iterable(itertools.compress(pairs, joined)))
            log = SolverLog([], 0, 0)
            k, witness = _chromatic(range(n), nbrs, log, None)
            answers[tuple(map(frozenset, nbrs))] = (k, tuple(witness), tuple(log.clique), log.dsatur_upper)
    return answers


# Filled once, at import, by the search itself while the table is still empty.
_SMALL_GRAPHS: dict = {}
_SMALL_GRAPHS.update(_small_graph_answers())


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
    ids = () if log is None else tuple(p[0] for p in pg.pairing.pairs)  # named only for a log
    k, witness = _chromatic(ids, pg._quotient_neighbours, log, budget)
    return k, Colouring(k, dict(zip(pg.pairing.pairs, [c for _, c in sorted(witness)])))


def edge_chromatic_number_complex(
    c: TwoComplex, log: Optional[SolverLog] = None, *, budget: Optional[int] = None
):
    """Exact edge-chromatic number of a 2-complex, read from its cell
    junctions: two edges conflict where a cell walk passes from one to the
    other, as the link graph joins their pairs {(e,0), (e,1)}.  Edge ``i``
    stands for link pair ``i``, so the size, witness and log are those of
    ``pair_chromatic_number(link_graph(c))``.  The witness is checked
    against the walk-level validator before being returned.
    """
    ids = c.skeleton._ids
    _require_third_edge_ids(c.skeleton)  # link_graph(c) refuses these
    _, dart_of = c.skeleton._steps
    ends = []  # the link graph's _quotient_neighbours edges, in its order
    for cell in c.cells:
        edges = [d >> 1 for d in map(dart_of.__getitem__, cell.steps)]
        ends += itertools.chain.from_iterable(zip(edges, edges[1:] + edges[:1]))
    names = () if log is None else tuple(EdgeEnd(i, 0) for i in ids)
    k, placed = _chromatic(names, _neighbour_sets(len(ids), ends), log, budget)
    witness = Colouring(k, dict(zip(ids, [col for _, col in sorted(placed)])))
    if not is_valid_complex_colouring(c, witness):
        raise DomainError("internal error: edge-chromatic witness failed the walk-level check")
    return k, witness


def brute_force_edge_chromatic(c: TwoComplex, k_max: int) -> int:
    """Smallest palette size admitting a valid edge colouring, by exhaustive
    search over assignments checked with the walk-level validator.

    Independent of the link-graph route.  Guarded to complexes with at most
    12 edges.  The first edge's colour is fixed to 0 (colour permutations
    are symmetries).
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise DomainError("k_max must be a non-negative integer")
    edge_ids = c.skeleton.edge_ids()
    if len(edge_ids) > 12:
        raise DomainError("refusing brute force on more than 12 edges")
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
    bit = [0] * len(pairs)  # 1 << colour, 0 while uncoloured
    assignment = {}
    for v, _ in reversed(order):
        used = 0
        for w in nbrs[v]:
            used |= bit[w]
        free = ~used & (used + 1)  # the lowest clear bit
        if free >> 12:
            raise DomainError("internal error: a pair needs a 13th colour")
        bit[v] = free
        assignment[pairs[v]] = free.bit_length() - 1
    palette = max(assignment.values()) + 1 if assignment else 0
    return Colouring(palette, assignment)
