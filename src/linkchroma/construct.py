"""Constructive machinery for 2-complexes with prescribed link graphs.

The centrepiece is a pipeline that turns a planar paired graph whose
quotient is K12 into a genuine 2-complex with edge-chromatic number
exactly 12:

1. ``make_degree_faithful`` doubles every edge and balances pairs with
   loops, preserving the embedding's genus and all cross-pair adjacencies;
2. ``pi_trail_decomposition`` splits the edge set into cyclic trails whose
   consecutive edges meet at partnered vertices;
3. ``inverse_link`` rebuilds a punctured 2-complex (one vertex, one loop
   per pair) whose link graph is the input, exactly, under the canonical
   naming of loop ends;
4. ``seal`` replaces each punctured cell walk W by W U U~ W~ (U the first
   step, ~ denoting reversal), turning it into a genuine 2-cell without
   changing the colouring constraints.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from typing import Optional

from .colour import (
    DEFAULT_BUDGET,
    Colouring,
    edge_chromatic_number_complex,
    heawood_colour_12,
    is_valid_complex_colouring,
    pair_chromatic_number,
)
from .core import (
    GENUINE,
    PUNCTURED,
    ClosedWalk,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    _BuiltOnRead,
    _other_end,
    genus_check,
    link_graph,
)
from .errors import BudgetExhausted, DomainError, short_repr
from .triangulate import SphereTriangulation


def is_degree_faithful(pg: PairedGraph) -> bool:
    index, at = pg.graph._index, pg.graph._at
    degree = Counter(at)
    return all(degree[index[u]] == degree[index[v]] for u, v in pg.pairing.pairs)


# ---------------------------------------------------------------------------
# Genus-preserving rotation surgery


def _with_twins(g: Multigraph, succ, twin_of, new_ids: list, new_at: list, loops_at: list) -> tuple:
    """``g`` with the edges ``new_ids`` added, their ends given as in ``_at``
    by ``new_at``, and some of its own edges dropped, and its rotation
    system.

    ``succ`` maps each dart ``2 * edge_position + side`` of ``g`` to the
    next dart around its vertex.  Where ``twin_of[i]`` is -2, edge position
    ``i`` is dropped: its darts stand for no dart, and the walk around their
    vertices passes over them.  The twin ``new_ids[twin_of[i]]`` of edge
    position ``i`` (none where ``twin_of[i]`` is -1) has the edge's ends;
    it goes right after the edge's side-0 dart and right before its side-1
    dart, so it bounds a bigon with its edge.  Each loop ``new_ids[k]`` for
    ``k`` in ``loops_at[p]`` goes at vertex position ``p`` as two
    consecutive darts, after the walk from its smallest dart, and adds a
    monogon face.  None of these changes the genus.
    """
    at = g._at
    m = len(at) // 2
    if -2 in twin_of:  # the kept edges' columns
        keep = [k != -2 for k in twin_of]
        ids, ends = tuple(compress(g._ids, keep)), list(compress(at, chain.from_iterable(zip(keep, keep))))
        g = Multigraph._from_columns(g.vertices, ids, ends)
    graph, position = Multigraph._extended(g, new_ids, new_at)
    old = len(g._ids)
    first = [-1] * len(g.vertices)  # the smallest dart of g at each vertex position
    for d in range(2 * m - 1, -1, -1):
        first[at[d]] = d
    stands = []  # the new darts that stand in each dart's place
    slots = iter(position)  # of each kept edge, in order
    for k in twin_of:
        if k == -2:
            stands += ((), ())
            continue
        d, t = 2 * next(slots), 2 * position[old + k]  # t is read only for a twin
        stands += ((d,), (d + 1,)) if k < 0 else ((d, t), (t + 1, d + 1))
    darts_at = []
    for p, start in enumerate(first):
        darts = []
        d = start
        while d >= 0:
            darts += stands[d]
            d = succ[d]
            if d == start:
                break
        for k in loops_at[p]:
            darts += (2 * position[old + k], 2 * position[old + k] + 1)
        darts_at.append(darts)
    return graph, RotationSystem._from_darts(graph, darts_at)


def _triangulation_map(n: int, origin: list, fnext: list, twin_of, new_ids: list, new_at: list) -> tuple:
    """A triangulation's columns as a map, through ``_with_twins`` with
    ``twin_of``, ``new_ids`` and ``new_at``: edge ``k`` of the graph on
    ``0 .. n - 1`` joins ``origin[2 * k]`` to ``origin[2 * k + 1]``, and
    the rotation follows dart ``d`` by ``fnext[d ^ 1]``, so its faces are
    the ones ``fnext`` walks."""
    succ = [0] * len(origin)
    succ[::2], succ[1::2] = fnext[1::2], fnext[::2]
    g = Multigraph._from_columns(tuple(range(n)), tuple(range(len(origin) // 2)), origin)
    return _with_twins(g, succ, twin_of, new_ids, new_at, [()] * n)


def make_degree_faithful(pg: PairedGraph) -> PairedGraph:
    """Double every edge, then balance each pair with loops at its
    smaller-degree vertex.

    The output pairing is degree-faithful, the genus is unchanged, and the
    simple quotient's cross-pair adjacencies are exactly those of the
    input.

    Each edge gets a twin ``("dbl", id)`` and each pair a run of loops
    ``("bal", w, i)``; ``_with_twins`` places both in the rotation, on
    darts, from the input's validated successor array.
    """
    if pg.rotation is None:
        raise DomainError("rotation system required to augment while preserving genus")
    g = pg.graph
    index, at = g._index, g._at
    # after doubling, degrees are twice these, so a pair whose degrees
    # differ by k needs k loops of two ends each
    degree = Counter(at)
    loops = [0] * len(index)  # the number of loops at each vertex position
    for u, v in pg.pairing.pairs:
        du, dv = degree[index[u]], degree[index[v]]
        loops[index[u] if du < dv else index[v]] = abs(du - dv)
    # In id order: the loops by the position of w, then i, and then the
    # twins in edge order; loops_at[p] indexes the loops at position p.
    starts = list(accumulate(loops, initial=0))
    loops_at = list(map(range, starts, starts[1:]))
    new_ids = [("bal", w, i) for w, k in zip(g.vertices, loops) for i in range(k)]
    new_at = [p for p, k in enumerate(loops) for _ in range(2 * k)]
    twins = len(new_ids)
    new_ids += zip(repeat("dbl"), g._ids)
    new_at += at  # each twin has its edge's ends
    graph, rotation = _with_twins(g, pg._succ, range(twins, twins + len(at) // 2), new_ids, new_at, loops_at)
    return PairedGraph(graph, pg.pairing, rotation)


# ---------------------------------------------------------------------------
# Trail decomposition


def _dart_trails(pg: PairedGraph) -> tuple:
    """The trails of ``pi_trail_decomposition`` on darts ``2 * edge_position
    + side``: returns the vertex position of each dart and the trails as
    lists of entry darts.

    The paired quotient stays implicit: its vertex of a pair is the pair's
    position, and its ends at a pair are that pair's darts in edge order.
    Hierholzer's walk starts at each pair in turn: the first pair of a
    component with an edge takes every edge of the component, since all
    quotient degrees are even, and later starts find theirs used.
    """
    index, at, pair_at = pg.graph._index, pg.graph._at, pg._pair_at
    darts_at = [[] for _ in pg.pairing.pairs]
    for d, i in enumerate(at):
        darts_at[pair_at[i]].append(d)

    # Orient each edge along its Euler circuit: ``entry[i]`` is the side
    # the circuit enters edge i by, 2 until it is traversed.  Each pair's
    # iterator resumes where its last step left off.
    entry = bytearray(b"\x02") * (len(at) // 2)
    unread = list(map(iter, darts_at))
    for start in range(len(darts_at)):
        stack = [start]
        while stack:
            for d in unread[stack[-1]]:
                if entry[d >> 1] == 2:
                    entry[d >> 1] = d & 1
                    stack.append(pair_at[at[d ^ 1]])
                    break
            else:
                stack.pop()

    # The k-th head at a vertex, in edge order, steps on to the k-th tail
    # at its partner; every head finding a tail balances every vertex.
    partner = [0] * len(index)
    for u, v in pg.pairing.pairs:
        partner[index[u]], partner[index[v]] = index[v], index[u]
    waiting = [[] for _ in index]  # the tails for the heads at each position
    for i, side in enumerate(entry):
        waiting[partner[at[2 * i + side]]].append(2 * i + side)
    waiting = list(map(iter, waiting))
    successor = [0] * len(at)  # entry dart -> entry dart of the next step
    try:
        for i, side in enumerate(entry):
            successor[2 * i + side] = next(waiting[at[2 * i + 1 - side]])
    except StopIteration:
        raise DomainError("internal error: oriented end counts must balance across partners") from None

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
            d = successor[d]
        trails.append(trail)
    return at, trails


def pi_trail_decomposition(pg: PairedGraph) -> tuple:
    """Decompose all edges of a degree-faithful paired graph into trails.

    Every quotient vertex has even degree, so each quotient component has
    an Euler circuit; orienting each edge along its circuit traversal makes
    the head count at every vertex equal the tail count at its partner.
    The canonical (sorted) bijection between those ends defines a successor
    permutation on directed edges whose cycles are the trails.  Each edge
    is used exactly once across the decomposition.
    """
    if not is_degree_faithful(pg):
        raise DomainError("pairing is not degree-faithful")
    _, trails = _dart_trails(pg)
    ids = pg.graph.edge_ids()
    return tuple(ClosedWalk(tuple(WalkStep(ids[d >> 1], d & 1) for d in trail)) for trail in trails)


# ---------------------------------------------------------------------------
# Inverse link construction and sealing

SKELETON_VERTEX = "h"


def canonical_link_identification(pg: PairedGraph) -> dict:
    """Identify the link vertices of ``inverse_link(pg)`` with the vertices
    of ``pg``: each pair {u, v} (u < v) becomes the loop named u, whose
    side-0 third-edge stands for u and side-1 for v."""
    out = {}
    for u, v in pg.pairing.pairs:
        out[EdgeEnd(u, 0)] = u
        out[EdgeEnd(u, 1)] = v
    return out


def inverse_link(pg: PairedGraph) -> TwoComplex:
    """A punctured 2-complex whose link graph is ``pg``, exactly, under the
    canonical identification of loop ends with paired vertices.

    The skeleton is a single vertex with one loop per pair; each trail of
    the decomposition becomes one punctured-cell walk that enters the loop
    of the pair containing each directed edge's head vertex, through the
    third-edge standing for that head.
    """
    if not is_degree_faithful(pg):
        raise DomainError("pairing is not degree-faithful")
    pg.require_planar()
    at, trails = _dart_trails(pg)
    index = pg.graph._index
    # one loop per pair, named by its smaller member: in id order
    pairs = pg.pairing.pairs
    skeleton = Multigraph._from_columns((SKELETON_VERTEX,), tuple([u for u, _ in pairs]), [0] * (2 * len(pairs)))
    # the step through the third-edge standing for each vertex position:
    # pair k's loop has darts 2k for its smaller member and 2k + 1
    table, _ = skeleton._steps
    enter = [None] * len(index)
    for d, v in enumerate(chain.from_iterable(pairs)):
        enter[index[v]] = table[d]
    # every trail is nonempty, and on one vertex every walk is
    # vertex-compatible
    cells = []
    for trail in trails:
        heads = map(at.__getitem__, map(_other_end, trail))  # the vertex each dart enters
        cells.append(tuple(map(enter.__getitem__, heads)))
    return TwoComplex._from_steps(skeleton, cells, PUNCTURED)


def endpoint_multiset(g: Multigraph, mapping: Optional[dict] = None) -> Counter:
    """The edges of ``g`` as a multiset of unordered endpoint pairs
    (frozensets), with the endpoints renamed through ``mapping`` when one is
    given, read off the dart column with each vertex renamed once."""
    names = g.vertices if mapping is None else tuple(map(mapping.__getitem__, g.vertices))
    ends = map(names.__getitem__, g._at)
    return Counter(map(frozenset, zip(ends, ends)))


def link_matches_paired_graph(link_pg: PairedGraph, pg: PairedGraph, ident: dict) -> bool:
    """Exact comparison of a link graph with a paired graph under a vertex
    identification: equal vertex sets, equal edge multisets (as endpoint
    pairs) and equal pairings."""
    mapped = [ident[v] for v in link_pg.graph.vertices]
    if len(set(mapped)) != len(mapped) or set(mapped) != set(pg.graph.vertices):
        return False
    if endpoint_multiset(link_pg.graph, ident) != endpoint_multiset(pg.graph):
        return False
    mapped_pairs = {frozenset((ident[a], ident[b])) for a, b in link_pg.pairing.pairs}
    return mapped_pairs == set(map(frozenset, pg.pairing.pairs))


def seal(c: TwoComplex) -> TwoComplex:
    """Seal every punctured cell: walk W becomes W U U~ W~ with U its first
    step.  Lengths go from k to 2k + 2; the link graph keeps its vertex set
    and gains only duplicate edges and loops, so colouring constraints are
    unchanged."""
    if c.kind != PUNCTURED:
        raise DomainError("only punctured complexes can be sealed")
    # a step flipped is the step of the other dart of its edge; W U U~ W~
    # is vertex-compatible because W is
    table, dart_of = c.skeleton._steps
    cells = []
    for walk in c.cells:
        steps = walk.steps
        flipped = list(map(table.__getitem__, map(_other_end, map(dart_of.__getitem__, steps))))
        flipped.reverse()
        cells.append(steps + (steps[0], flipped[-1]) + tuple(flipped))
    return TwoComplex._from_steps(c.skeleton, cells, GENUINE)


def check_seal_invariants(punctured_link: PairedGraph, sealed_link: PairedGraph) -> None:
    """Raise DomainError unless sealing kept the link graph's vertex set and
    every one of its edges, and added only loops and parallels of them,
    given the link graphs before and after."""
    if set(sealed_link.graph.vertices) != set(punctured_link.graph.vertices):
        raise DomainError("sealing changed the link graph's vertex set")
    before, after = endpoint_multiset(punctured_link.graph), endpoint_multiset(sealed_link.graph)
    if before - after:
        raise DomainError("sealing lost link edges")
    if any(len(ends) == 2 and ends not in before for ends in after):
        raise DomainError("sealing added a link edge that is neither a loop nor a parallel")


# ---------------------------------------------------------------------------
# Witnesses: a planar paired graph whose quotient is K12


@dataclass(frozen=True)
class TwelvePireWitness:
    """A candidate 12-chromatic planar paired graph, held loosely so that
    verification can report failures instead of refusing to load."""

    graph: Multigraph
    pairs: tuple
    rotation: Optional[RotationSystem]
    designated_pairs: tuple
    provenance: dict = field(default_factory=dict, hash=False)  # compared, not hashed

    @_BuiltOnRead
    def pairing(self) -> Pairing:
        """``pairs`` as a ``Pairing``; a loose witness's pairs that are not
        one raise DomainError on every read."""
        return Pairing(self.pairs)

    @_BuiltOnRead
    def paired_graph(self) -> PairedGraph:
        """The witness as a paired graph, kept so that its rotation is
        validated and its genus traced once."""
        return PairedGraph(self.graph, self.pairing, self.rotation)


@dataclass(frozen=True)
class WitnessCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def verify_witness(w: TwelvePireWitness) -> WitnessReport:
    """Four checks: genus 0 on every component, perfect pairing, K12 on the
    designated pairs in the simple quotient, and pair-chromatic number
    exactly 12 (lower bound from the clique, upper bound from the
    degeneracy 12-colouring).  The last two read the quotient neighbour
    sets the paired graph keeps, which ``heawood_colour_12`` shares."""
    plain = None
    try:
        plain = PairedGraph(w.graph, w.pairing)
        pairing_check = WitnessCheck("perfect-pairing", True, f"{len(w.pairs)} pairs cover all vertices")
    except DomainError as exc:
        pairing_check = WitnessCheck("perfect-pairing", False, str(exc))

    if w.rotation is None:
        checks = [WitnessCheck("planar-embedding", False, "no rotation system")]
    else:
        try:
            # With a valid pairing, the witness's kept paired graph can fail
            # only on the rotation, and the pipeline reuses that paired graph
            # and its validated ``_succ``.
            if plain is None:
                components = genus_check(w.graph, w.rotation)
            else:
                components = w.paired_graph._embedding
            genera = [c.genus for c in components]
            ok = all(g == 0 for g in genera)
            checks = [
                WitnessCheck(
                    "planar-embedding",
                    ok,
                    f"component genera {genera}" if genera else "empty graph",
                )
            ]
        except DomainError as exc:
            checks = [WitnessCheck("planar-embedding", False, str(exc))]
    checks.append(pairing_check)

    if plain is None:
        checks.append(WitnessCheck("designated-k12", False, "pairing invalid"))
        checks.append(WitnessCheck("pair-chromatic-12", False, "pairing invalid"))
        return WitnessReport(tuple(checks))

    # The rotation rides along only if the planar-embedding check passed.
    pg = w.paired_graph if checks[0].passed else plain
    nbrs = pg._quotient_neighbours  # by pair position
    position = {frozenset(p): k for k, p in enumerate(pg.pairing.pairs)}
    try:  # held loosely: an entry may not be a pair of ids
        designated = [position.get(frozenset(p)) for p in w.designated_pairs]
    except TypeError:
        designated = [None]
    if len(designated) != 12 or len(set(designated)) != 12 or None in designated:
        checks.append(
            WitnessCheck("designated-k12", False, "must designate 12 pairs of the pairing")
        )
    else:
        missing = [(a, b) for i, a in enumerate(designated) for b in designated[i + 1 :] if b not in nbrs[a]]
        checks.append(
            WitnessCheck(
                "designated-k12",
                not missing,
                "all 66 pair adjacencies realised" if not missing else f"{len(missing)} adjacencies missing",
            )
        )

    try:
        k, _ = pair_chromatic_number(pg, budget=DEFAULT_BUDGET)
    except BudgetExhausted as exc:
        checks.append(WitnessCheck("pair-chromatic-12", False, str(exc)))
        return WitnessReport(tuple(checks))
    detail = f"exact pair-chromatic number {k}"
    if k == 12 and pg.rotation is not None:
        hw = heawood_colour_12(pg)
        detail += f"; degeneracy colouring uses {hw.colours_used()} colours"
    checks.append(WitnessCheck("pair-chromatic-12", k == 12, detail))
    return WitnessReport(tuple(checks))


def load_shipped_witness() -> TwelvePireWitness:
    """The witness shipped with the package, at
    src/linkchroma/data/k12_pire.json in the source tree."""
    from importlib import resources

    from . import formats

    ref = resources.files("linkchroma").joinpath("data/k12_pire.json")
    if not ref.is_file():
        raise DomainError("no shipped witness: data/k12_pire.json is missing")
    return formats.witness_from_doc(formats.loads(ref.read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Random generators (property-test utilities)


# The share of a random map's triangulation edges deleted, and then of the
# remaining edges duplicated.
_DELETE_PROB = 0.12
_DUPLICATE_PROB = 0.12


def _seeded_rng(seed) -> random.Random:
    """``random.Random(seed)`` for an int or str seed, which replays; any
    other seed, ``None`` (drawn from the OS) included, is refused."""
    if not isinstance(seed, (int, str)) or isinstance(seed, bool):
        raise DomainError(f"seed {short_repr(seed)} must be an int or a str")
    return random.Random(seed)


def random_planar_paired_graph(seed, n_pairs: int) -> PairedGraph:
    """Random certified-planar paired graph on the vertices ``0 .. 2 *
    n_pairs - 1``: grow a triangulation by random vertex insertions (genus 0
    by construction), then hand all of it to ``_triangulation_map``, which
    drops the edges deleted at random and gives some of the rest a twin
    ``("dup", id)`` beside them, and pair the vertices by a random matching."""
    if not isinstance(n_pairs, int) or isinstance(n_pairs, bool):
        raise DomainError(f"the number of pairs {short_repr(n_pairs)} must be an int")
    if n_pairs < 1:
        raise DomainError("need at least one pair")
    rng = _seeded_rng(seed)
    n = 2 * n_pairs
    tri = SphereTriangulation()
    tri.grow(n, rng)  # draws nothing for n = 2, which takes one edge 0-1 and its one face
    origin, fnext = (tri.origin, tri.fnext) if n > 2 else ([0, 1], [1, 0])
    m = len(origin) // 2
    # each edge kept (-1) or deleted (-2), then a twin for some kept ones
    twin_of, new_ids, new_at = [-1 if rng.random() >= _DELETE_PROB else -2 for _ in range(m)], [], []
    for k in range(m):
        if twin_of[k] == -1 and rng.random() < _DUPLICATE_PROB:
            twin_of[k] = len(new_ids)
            new_ids.append(("dup", k))
            new_at += origin[2 * k : 2 * k + 2]
    verts = list(range(n))
    rng.shuffle(verts)
    # canonical by construction: each class as (min, max), classes in order
    pairs = sorted(zip(map(min, verts[::2], verts[1::2]), map(max, verts[::2], verts[1::2])))
    graph, rotation = _triangulation_map(n, origin, fnext, twin_of, new_ids, new_at)
    return PairedGraph(graph, Pairing._sorted(tuple(pairs)), rotation)


def random_degree_faithful_planar(seed, n_pairs: int) -> PairedGraph:
    return make_degree_faithful(random_planar_paired_graph(seed, n_pairs))


# ---------------------------------------------------------------------------
# The full pipeline


@dataclass(frozen=True)
class PipelineStages:
    witness: TwelvePireWitness
    augmented: PairedGraph
    punctured: TwoComplex
    sealed: TwoComplex
    edge_chromatic: int
    exact_colouring: Colouring
    degeneracy_colouring: Colouring


def run_pipeline(witness: Optional[TwelvePireWitness] = None) -> PipelineStages:
    """Witness -> degree-faithful augmentation -> inverse link -> sealing,
    with every stage guarantee checked at build time.

    The sealed complex's edge-chromatic number is exactly 12: the lower
    bound comes from the K12 quotient clique via the exact solver, and the
    12-colour upper bound from the degeneracy colouring of the augmented
    map, whose simple quotient equals the sealed link graph's.
    """
    if witness is None:
        witness = load_shipped_witness()
    report = verify_witness(witness)
    if not report.all_passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise DomainError(f"witness failed verification: {failed}")

    augmented = make_degree_faithful(witness.paired_graph)
    punctured = inverse_link(augmented)
    link_p = link_graph(punctured)
    ident = canonical_link_identification(augmented)
    if not link_matches_paired_graph(link_p, augmented, ident):
        raise DomainError("internal error: inverse link does not reproduce the augmented map")

    sealed = seal(punctured)
    check_seal_invariants(link_p, link_graph(sealed))

    k, exact_colouring = edge_chromatic_number_complex(sealed)
    if k != 12:
        raise DomainError(f"pipeline produced edge-chromatic number {k}, expected 12")

    hw = heawood_colour_12(augmented)
    degeneracy_colouring = Colouring(
        hw.palette_size,
        {pair[0]: hw.assignment[pair] for pair in augmented.pairing.pairs},
    )
    if not is_valid_complex_colouring(sealed, degeneracy_colouring):
        raise DomainError("internal error: degeneracy colouring fails on the sealed complex")

    return PipelineStages(
        witness=witness,
        augmented=augmented,
        punctured=punctured,
        sealed=sealed,
        edge_chromatic=k,
        exact_colouring=exact_colouring,
        degeneracy_colouring=degeneracy_colouring,
    )
