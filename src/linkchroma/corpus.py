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

from .core import (
    ClosedWalk,
    Edge,
    Multigraph,
    TwoComplex,
    WalkStep,
    step_entry_vertex,
    step_exit_vertex,
)
from .errors import DomainError


def chromatic_number_reference(g: Multigraph) -> int:
    """Exhaustive chromatic number: plain backtracking in sorted vertex
    order, trying palette sizes 1, 2, ... in turn.  No saturation order, no
    clique seeding, no bounding.  It recurses once per vertex, so graphs of
    more than 12 vertices are refused."""
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

    def feasible(k: int) -> bool:
        colour = {}

        def place(i: int) -> bool:
            if i == n:
                return True
            v = verts[i]
            for c in range(k):
                if any(colour.get(w) == c for w in adj[v]):
                    continue
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


def enumerate_small_skeletons() -> Iterator[Multigraph]:
    """All multigraphs with at most ``_MAX_EDGES`` edges, one per isomorphism
    class, without isolated vertices (plus the single-vertex empty graph).

    Vertices are 0..v-1 and edge ids 0..m-1 in sorted endpoint order, which
    is also the canonical labelling used for deduplication.
    """
    yield Multigraph((0,), ())
    seen = set()
    for m in range(1, _MAX_EDGES + 1):
        for v in range(1, 2 * m + 1):
            slots = list(itertools.combinations_with_replacement(range(v), 2))
            for chosen in itertools.combinations_with_replacement(slots, m):
                covered = {x for pair in chosen for x in pair}
                if covered != set(range(v)):
                    continue
                canon = _canonical_edge_multiset(chosen, v)
                if canon in seen:
                    continue
                seen.add(canon)
                edges = tuple(Edge(i, u, w) for i, (u, w) in enumerate(sorted(canon)))
                yield Multigraph(tuple(range(v)), edges)


def _canonical_edge_multiset(chosen, v):
    best = None
    for perm in itertools.permutations(range(v)):
        relabelled = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in chosen))
        if best is None or relabelled < best:
            best = relabelled
    return best


def enumerate_closed_walks(g: Multigraph) -> list:
    """All closed walks in ``g`` of length 1 to ``_MAX_WALK_LEN``, one per
    equivalence class under rotation and reversal.

    Rotations of a cyclic walk describe the same gluing, and a reversed
    walk yields the same (undirected) link edges, so one representative per
    class is enough for colouring questions.
    """
    out = []
    seen = set()
    darts, _ = g._steps  # the steps walks on g share

    def extend(prefix):
        if prefix and step_exit_vertex(g, prefix[-1]) == step_entry_vertex(g, prefix[0]):
            canon = _canonical_walk(prefix)
            if canon not in seen:
                seen.add(canon)
                out.append(ClosedWalk(tuple(prefix)))
        if len(prefix) == _MAX_WALK_LEN:
            return
        here = step_exit_vertex(g, prefix[-1]) if prefix else None
        for d in darts:
            if prefix and step_entry_vertex(g, d) != here:
                continue
            prefix.append(d)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def _canonical_walk(steps) -> tuple:
    variants = []
    seq = tuple(steps)
    rev = tuple(s.flipped() for s in reversed(seq))
    for word in (seq, rev):
        n = len(word)
        for i in range(n):
            variants.append(word[i:] + word[:i])
    return min(variants)


def enumerate_small_complexes() -> Iterator[TwoComplex]:
    """All genuine 2-complexes over the small skeleton corpus with at most
    ``_MAX_CELLS`` cells of walk length at most ``_MAX_WALK_LEN``."""
    for g in enumerate_small_skeletons():
        walks = enumerate_closed_walks(g)
        for r in range(_MAX_CELLS + 1):
            for cells in itertools.combinations_with_replacement(walks, r):
                yield TwoComplex(g, cells)

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


def _check_three_quantity_agreement() -> str:
    from .catalogue import tetrahedron_complex, triangle_complex
    from .colour import brute_force_edge_chromatic, chromatic_number, pair_chromatic_number
    from .core import link_graph, simple_quotient

    count = 0
    instances = itertools.chain(
        enumerate_small_complexes(), (triangle_complex(), tetrahedron_complex())
    )
    for c in instances:
        bf = brute_force_edge_chromatic(c, k_max=8)
        L = link_graph(c)
        pc = pair_chromatic_number(L)[0]
        qc = chromatic_number(simple_quotient(L))[0]
        if not bf == pc == qc:
            raise CheckFailure(f"disagreement {bf}/{pc}/{qc} on {c}")
        count += 1
    return f"brute force, link-graph and quotient routes agree on {count} complexes"


def _check_planar_twelve_colouring() -> str:
    from .colour import heawood_colour_12, heawood_degeneracy_order, is_valid_pair_colouring
    from .construct import random_planar_paired_graph

    worst_degree = 0
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
    return f"1000 certified-planar maps 12-coloured; worst elimination degree {worst_degree}"


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
    return "50 sealed complexes keep link vertices, link-edge supersets, and 2k+2 lengths"


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
