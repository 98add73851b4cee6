"""Verification corpus: reference oracles, exhaustive enumeration of small
2-complexes, and the acceptance checks run by both the test suite and the
``corpus`` CLI subcommand.

The oracles here are deliberately naive and structurally independent of
the production algorithms they vouch for.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import GENUINE, ClosedWalk, Edge, Multigraph, TwoComplex, validate_walk
from .errors import DomainError


# The most vertex colours ``chromatic_number_reference`` places, over all
# palette sizes, before it refuses the graph.
REFERENCE_PLACEMENTS = 200_000


def chromatic_number_reference(g: Multigraph) -> int:
    """Exhaustive chromatic number: plain backtracking in sorted vertex
    order, trying palette sizes 1, 2, ... in turn.  No saturation order, no
    clique seeding, no bounding.  It recurses once per vertex, so graphs of
    more than 12 vertices are refused, and it refuses any graph on which it
    places more than ``REFERENCE_PLACEMENTS`` colours."""
    if len(g.vertices) > 12:
        raise DomainError("refusing the exhaustive chromatic number on more than 12 vertices")
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        if not e.is_loop:
            adj[e.end0].add(e.end1)
            adj[e.end1].add(e.end0)
    verts = list(g.vertices)
    n = len(verts)
    if n == 0:
        return 0
    placements = 0

    def feasible(k: int) -> bool:
        colour = {}

        def place(i: int) -> bool:
            nonlocal placements
            if i == n:
                return True
            v = verts[i]
            for c in range(k):
                if any(colour.get(w) == c for w in adj[v]):
                    continue
                placements += 1
                if placements > REFERENCE_PLACEMENTS:
                    raise DomainError(f"refusing the exhaustive chromatic number past {REFERENCE_PLACEMENTS} placements")
                colour[v] = c
                if place(i + 1):
                    return True
                del colour[v]
            return False

        return place(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small genuine 2-complexes


# The corpus bounds: skeleton edges, cells per complex, steps per cell walk.
_MAX_EDGES = 3
_MAX_CELLS = 2
_MAX_WALK_LEN = 4

# Each generator keeps a candidate only if no relabelling sorts it lower: one per class.
# Candidates come in lexicographic order, so each class is kept by its first member met.


def enumerate_small_skeletons() -> Iterator[Multigraph]:
    """All multigraphs with at most ``_MAX_EDGES`` edges, one per isomorphism
    class, without isolated vertices (plus the single-vertex empty graph).

    Vertices are 0..v-1 and edge ids 0..m-1 in sorted endpoint order, the
    least of the class under relabelling the vertices.
    """
    yield Multigraph((0,), ())
    for m in range(1, _MAX_EDGES + 1):
        for v in range(1, 2 * m + 1):
            slots = list(itertools.combinations_with_replacement(range(v), 2))
            for chosen in itertools.combinations_with_replacement(slots, m):
                if {x for pair in chosen for x in pair} == set(range(v)) and _least_relabelling(chosen, v):
                    yield Multigraph(tuple(range(v)), tuple(Edge(i, u, w) for i, (u, w) in enumerate(chosen)))


def _least_relabelling(chosen, v) -> bool:
    """Whether no relabelling of the vertices sorts ``chosen`` lower."""
    for perm in itertools.permutations(range(v)):
        if tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in chosen)) < chosen:
            return False
    return True


def enumerate_closed_walks(g: Multigraph) -> list:
    """All closed walks in ``g`` of length 1 to ``_MAX_WALK_LEN``, one per
    equivalence class under rotation and reversal.

    Rotations of a cyclic walk describe the same gluing, and a reversed
    walk yields the same (undirected) link edges, so one representative per
    class is enough for colouring questions: the least one is kept.

    Walks are enumerated on the darts ``2 * edge_position + entry``: dart
    ``d`` enters at ``at[d]`` and exits at ``at[d ^ 1]``.  Each kept walk
    is made of the steps of ``g``'s table.
    """
    out = []
    at = g._at
    table, _ = g._steps  # the steps walks on g share

    def extend(prefix):
        if prefix and at[prefix[-1] ^ 1] == at[prefix[0]] and _least_walk(prefix):
            out.append(ClosedWalk(tuple(map(table.__getitem__, prefix))))
        if len(prefix) == _MAX_WALK_LEN:
            return
        here = at[prefix[-1] ^ 1] if prefix else None
        for d in range(len(at)):
            if prefix and at[d] != here:
                continue
            prefix.append(d)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def _least_walk(darts) -> bool:
    """Whether no rotation of a dart walk, nor of its reversal on the
    flipped darts ``d ^ 1``, sorts lower."""
    seq = tuple(darts)
    rev = tuple(d ^ 1 for d in reversed(seq))
    return all(word[i:] + word[:i] >= seq for word in (seq, rev) for i in range(len(seq)))


def enumerate_small_complexes() -> Iterator[TwoComplex]:
    """All genuine 2-complexes over the small skeleton corpus with at most
    ``_MAX_CELLS`` cells of walk length at most ``_MAX_WALK_LEN``.

    Each walk of a skeleton passes ``validate_walk`` once, here, and every
    complex over that skeleton holds the same walk objects as its cells."""
    for g in enumerate_small_skeletons():
        walks = enumerate_closed_walks(g)
        for walk in walks:
            validate_walk(g, walk)
        for r in range(_MAX_CELLS + 1):
            for cells in itertools.combinations_with_replacement(walks, r):
                yield TwoComplex._from_walks(g, cells, GENUINE)

# ---------------------------------------------------------------------------
# Acceptance checks


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    detail: str
    seconds: float
    limit: Optional[float] = None

    def line(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL"}[self.status]
        budget = f", limit {self.limit:.0f}s" if self.limit else ""
        return f"{tag} {self.name} ({self.seconds:.1f}s{budget}): {self.detail}"


class CheckFailure(Exception):
    pass


def _check_pipeline_twelve() -> str:
    from .construct import load_shipped_witness, run_pipeline

    stages = run_pipeline(load_shipped_witness())
    if stages.edge_chromatic != 12:
        raise CheckFailure(f"edge-chromatic number {stages.edge_chromatic} != 12")
    return (
        "sealed complex needs exactly 12 colours "
        "(clique lower bound and degeneracy upper bound both checked at build time)"
    )


def _check_witness_verification() -> str:
    from .construct import load_shipped_witness, verify_witness

    report = verify_witness(load_shipped_witness())
    if not report.all_passed:
        raise CheckFailure("; ".join(report.lines()))
    return "all four witness checks pass"


def _conflict_complex(n: int, edges) -> TwoComplex:
    """The one-vertex complex whose conflict graph is the simple graph on
    ``range(n)`` with ``edges``, so its edge-chromatic number is that graph's
    chromatic number: loop ``a`` per vertex a, cell ``((a, 0), (b, 0))`` per edge ab."""
    loops = tuple(Edge(a, 0, 0) for a in range(n))
    return TwoComplex(Multigraph((0,), loops), tuple(((a, 0), (b, 0)) for a, b in edges))


def _branching_family() -> list:
    """(name, n, edges, whether the brute force runs, where it takes under
    about 1 s) for conflict graphs on which the exact solver must branch.
    Of G(12, p) on seeds 0-299, ``chromatic_number_reference`` found 2 at
    p = 0.3, 10 at 0.5 and 1 at 0.7 needing fewer colours than DSATUR gives."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    mycielski = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)] + [(5 + i, 10) for i in range(5)]
    family = [
        ("C5", 5, c5, True),
        ("C7", 7, [(i, (i + 1) % 7) for i in range(7)], True),
        ("wheel W5", 6, c5 + [(i, 5) for i in range(5)], True),
        ("Groetzsch graph", 11, c5 + mycielski, True),
    ]
    for p, seed in ((0.3, 185), (0.3, 261), (0.5, 21), (0.5, 105), (0.7, 277)):
        rng = random.Random(seed)
        edges = [e for e in itertools.combinations(range(12), 2) if rng.random() < p]
        family.append((f"G(12, {p}) seed {seed}", 12, edges, p == 0.3))
    return family


def _conflicting_edges(c: TwoComplex) -> list:
    """The (earlier, later) edge ids, in id order, of each two distinct
    edges that a cell walk passes between, read from the cell steps."""
    ids = c.skeleton.edge_ids()
    position = {e: p for p, e in enumerate(ids)}
    pairs = set()
    for cell in c.cells:
        walk = [position[step.edge] for step in cell.steps]
        pairs.update((min(a, b), max(a, b)) for a, b in zip(walk, walk[1:] + walk[:1]) if a != b)
    return [(ids[a], ids[b]) for a, b in sorted(pairs)]


def _check_three_quantity_agreement() -> str:
    from .catalogue import tetrahedron_complex, triangle_complex
    from .colour import Colouring, brute_force_edge_chromatic, chromatic_number, edge_chromatic_number_complex
    from .colour import is_valid_complex_colouring, is_valid_pair_colouring, pair_chromatic_number
    from .core import link_graph, simple_quotient

    refused = 0

    def agree(c: TwoComplex, what, oracle: str, expected: int) -> None:
        # ``what``, a name or the complex itself, is formatted only on failure
        nonlocal refused
        ec, witness = edge_chromatic_number_complex(c)
        L = link_graph(c)
        pc = pair_chromatic_number(L)[0]
        qc = chromatic_number(simple_quotient(L))[0]
        if not expected == ec == pc == qc:
            raise CheckFailure(f"disagreement on {what}: {oracle} {expected}, junctions {ec}, link {pc}, quotient {qc}")
        # route 1's witness with one conflicting pair given one colour, on the
        # complex and lifted to its link graph's pairs {(e, 0), (e, 1)}
        for a, b in _conflicting_edges(c):
            clash = Colouring(ec, {**witness.assignment, b: witness.assignment[a]})
            if is_valid_complex_colouring(c, clash):
                raise CheckFailure(f"the walk-level check accepts edges {a!r} and {b!r} in one colour on {what}")
            lifted = Colouring(ec, {pair: clash.assignment[pair[0].edge] for pair in L.pairing.pairs})
            if is_valid_pair_colouring(L, lifted):
                raise CheckFailure(f"the pair check accepts the pairs of edges {a!r} and {b!r} in one colour on {what}")
            refused += 1

    count = 0
    for c in itertools.chain(enumerate_small_complexes(), (triangle_complex(), tetrahedron_complex())):
        agree(c, c, "brute force", brute_force_edge_chromatic(c, k_max=8))
        count += 1
    family = _branching_family()
    for name, n, edges, brute in family:
        c = _conflict_complex(n, edges)
        if brute:
            agree(c, name, "brute force", brute_force_edge_chromatic(c, k_max=8))
        else:
            H = Multigraph(tuple(range(n)), tuple(Edge(i, a, b) for i, (a, b) in enumerate(edges)))
            agree(c, name, "reference", chromatic_number_reference(H))
    branching = f"{len(family)} that make the exact solver branch"
    refusals = f"both checkers refuse all {refused} colourings that give two conflicting edges one colour"
    return f"exhaustive, cell-junction, link-graph and quotient routes agree on {count} complexes and {branching}; {refusals}"


def _check_planar_twelve_colouring() -> str:
    from .colour import Colouring, heawood_colour_12, heawood_degeneracy_order, is_valid_pair_colouring
    from .construct import random_planar_paired_graph

    worst_degree = refused = 0
    for i in range(1000):
        pg = random_planar_paired_graph(seed=i, n_pairs=(i % 100) + 1)
        order = heawood_degeneracy_order(pg)
        top = max((d for _, d in order), default=0)
        worst_degree = max(worst_degree, top)
        if top > 11:
            raise CheckFailure(f"elimination degree {top} > 11 at seed {i}")
        colouring = heawood_colour_12(pg)
        if colouring.palette_size > 12:
            raise CheckFailure(f"palette {colouring.palette_size} > 12 at seed {i}")
        if not is_valid_pair_colouring(pg, colouring):
            raise CheckFailure(f"invalid colouring at seed {i}")
        # the first quotient edge of the map's own edges, its two pairs given one colour
        pair_of = {v: pair for pair in pg.pairing.pairs for v in pair}
        for e in pg.graph.edges:
            a, b = pair_of[e.end0], pair_of[e.end1]
            if a != b:
                clash = Colouring(colouring.palette_size, {**colouring.assignment, b: colouring.assignment[a]})
                if is_valid_pair_colouring(pg, clash):
                    raise CheckFailure(f"pairs {a!r} and {b!r} in one colour pass the pair check at seed {i}")
                refused += 1
                break
    clashes = f"the pair check refuses one clash on each of the {refused} maps with a quotient edge"
    return f"1000 certified-planar maps 12-coloured; worst elimination degree {worst_degree}; {clashes}"


def _round_trip_corpus():
    from .construct import random_degree_faithful_planar

    for i in range(50):
        yield i, random_degree_faithful_planar(seed=i, n_pairs=(i % 12) + 1)


def _check_inverse_link_round_trip() -> str:
    from .construct import canonical_link_identification, inverse_link, link_matches_paired_graph
    from .core import link_graph

    for i, pg in _round_trip_corpus():
        if not link_matches_paired_graph(
            link_graph(inverse_link(pg)), pg, canonical_link_identification(pg)
        ):
            raise CheckFailure(f"round trip failed at seed {i}")
    return "50 exact round trips through the inverse-link construction"


def _check_sealing_invariants() -> str:
    from .construct import check_seal_invariants, inverse_link, seal
    from .core import link_graph

    for i, pg in _round_trip_corpus():
        punctured = inverse_link(pg)
        sealed = seal(punctured)
        try:
            check_seal_invariants(link_graph(punctured), link_graph(sealed))
        except DomainError as exc:
            raise CheckFailure(f"{exc} at seed {i}") from None
        for w, s in zip(punctured.cells, sealed.cells):
            if len(s) != 2 * len(w) + 2:
                raise CheckFailure(f"sealed length {len(s)} != 2*{len(w)}+2 at seed {i}")
    return "50 sealed complexes keep link vertices and edges, add only loops and parallels, and have 2k+2 lengths"


def _check_solver_soundness() -> str:
    from .catalogue import complete_graph, octahedron_graph, petersen_graph
    from .colour import chromatic_number

    if chromatic_number(complete_graph(12))[0] != 12:
        raise CheckFailure("K12 must need 12 colours")
    for g, expected, name in (
        (octahedron_graph(), 3, "octahedron"),
        (petersen_graph(), 3, "Petersen graph"),
    ):
        exact = chromatic_number(g)[0]
        oracle = chromatic_number_reference(g)
        if exact != expected or oracle != expected:
            raise CheckFailure(f"{name}: exact {exact}, oracle {oracle}, expected {expected}")

    rng = random.Random(2024)
    for i in range(500):
        n = rng.randint(0, 8)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = tuple(
            Edge((u, v), u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        )
        g = Multigraph(tuple(range(n)), edges)
        exact = chromatic_number(g)[0]
        oracle = chromatic_number_reference(g)
        if exact != oracle:
            raise CheckFailure(f"sample {i}: solver {exact} != oracle {oracle}")
    return "solver matches the exhaustive oracle on 500 random graphs and the fixed instances"


def _check_classic_complexes() -> str:
    from .catalogue import tetrahedron_complex, triangle_complex
    from .colour import edge_chromatic_number_complex, is_valid_complex_colouring

    for c, name in ((triangle_complex(), "triangle"), (tetrahedron_complex(), "tetrahedron")):
        k, witness = edge_chromatic_number_complex(c)
        if k != 3:
            raise CheckFailure(f"{name}: edge-chromatic number {k} != 3")
        if not is_valid_complex_colouring(c, witness):
            raise CheckFailure(f"{name}: witness fails the walk-level checker")
    return "triangle and tetrahedron complexes both need exactly 3 colours"


ALL_CHECKS = (
    ("pipeline-chromatic-12", _check_pipeline_twelve, 10.0),
    ("witness-verification", _check_witness_verification, 5.0),
    ("three-quantity-agreement", _check_three_quantity_agreement, 60.0),
    ("planar-twelve-colouring", _check_planar_twelve_colouring, 60.0),
    ("inverse-link-round-trip", _check_inverse_link_round_trip, 10.0),
    ("sealing-invariants", _check_sealing_invariants, None),
    ("solver-soundness", _check_solver_soundness, None),
    ("classic-complexes", _check_classic_complexes, 1.0),
)


def run_check(name: str) -> CheckResult:
    for check_name, fn, limit in ALL_CHECKS:
        if check_name == name:
            break
    else:
        raise DomainError(f"unknown check {name!r}")
    start = time.perf_counter()
    try:
        detail = fn()
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed > limit:
            return CheckResult(name, "fail", f"over time limit: {detail}", elapsed, limit)
        return CheckResult(name, "pass", detail, elapsed, limit)
    except (CheckFailure, DomainError) as exc:
        return CheckResult(name, "fail", str(exc), time.perf_counter() - start, limit)


def run_all_checks() -> list:
    return [run_check(name) for name, _, _ in ALL_CHECKS]
