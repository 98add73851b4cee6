"""The five benchmark workloads.

Every workload turns the run seed into a list of operations whose mix is
fixed: the seed picks which recorded inputs fill each slot of the mix and
the order they run in, never how many of each size there are.  So two runs
with different seeds do the same amount of work, and a before/after pair
of commits runs exactly the same operations for the same seed.

Each operation's input is built during set-up as its own object, so a
cache kept on an input object can never carry over from one operation to
the next.  Answers are checked after each operation, outside its timing,
against ``expected.json`` (written by ``record.py``) or an independent
oracle.

A workload provides:

* ``unit(rng)``: the operations of one unit of work, about
  ``unit_seconds`` long at the baseline commit; a run repeats it
  ``max(1, round(seconds / unit_seconds))`` times;
* ``trace_unit(rng)``: the smaller list the traced run repeats;
* ``extras()``: operations the traced run does once, traced (the
  scaling tiers, or the seed-0 witness replay);
* ``pool()``: every operation ``expected.json`` must hold an answer for;
* ``build``, ``run`` and ``check``: make the input (set-up), do the
  operation (timed), and check it (untimed).
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class Op:
    """One operation: its kind, its size (pairs or vertices; the proposal
    budget for a search) and the seed of its input."""

    kind: str
    n: int
    seed: int

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.n}/{self.seed}"


@dataclass
class Outcome:
    """What a check saw: the work the operation did (edges or proposals),
    the answer to compare with ``expected.json``, and any problems."""

    work: int
    answer: object
    problems: list


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _take(rng, pool_size: int, count: int) -> list:
    """``count`` pool indices drawn without replacement while the pool
    lasts, then from a fresh shuffle."""
    out = []
    while len(out) < count:
        idx = list(range(pool_size))
        rng.shuffle(idx)
        out.extend(idx[: count - len(out)])
    return out


def _tiered(rng, kind: str, mix: dict, pools: dict) -> list:
    ops = [Op(kind, n, s) for n, count in mix.items() for s in _take(rng, pools[n], count)]
    rng.shuffle(ops)
    return ops


def _pool_ops(kind: str, pools: dict) -> list:
    return [Op(kind, n, s) for n, size in pools.items() for s in range(size)]


SCALING_TIERS = (100, 400, 1600, 3200)


class Workload:
    name = ""
    unit_seconds = 1.0
    # What ``work_per_s`` counts: input edges, or annealing proposals.
    work = "edges"
    # Whether ``expected.json`` holds the answer of every operation; the
    # small-complexes answers come from the brute-force oracle instead.
    recorded = True

    def plan(self, rng, seconds: int) -> list:
        units = max(1, round(seconds / self.unit_seconds))
        return [op for _ in range(units) for op in self.unit(rng)]

    def prepare(self, lib, rng, ops) -> None:
        """Set-up shared by all inputs, before ``build`` is called."""

    def unit(self, rng) -> list:
        raise NotImplementedError

    def trace_unit(self, rng) -> list:
        raise NotImplementedError

    def extras(self) -> list:
        return []

    def pool(self) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Small operations run untimed before measuring."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# 1. empire-maps: what ``linkchroma heawood12 --out`` does


class EmpireMaps(Workload):
    name = "empire-maps"
    # One unit: sixteen maps of 400 pairs (most of the time, much of it in
    # the quadratic elimination order), twenty of 200, where the median
    # falls, and eight of 100, where per-call overhead dominates as in the
    # corpus check.  Maps of 1600 and 3200 pairs run only in the traced
    # run's scaling tiers: a single 1600-pair map was a third of the timed
    # region, and its wall time did not follow the speed probe (rescaled,
    # it still varied by a third between runs), so it alone set the
    # run-to-run spread.  ``complex-build`` keeps a timed 1600-pair map.
    MIX = {400: 16, 200: 20, 100: 8}
    POOLS = {1600: 1, 400: 36, 200: 60, 100: 108, 3200: 1}
    unit_seconds = 15.0

    def unit(self, rng):
        return _tiered(rng, "map", self.MIX, self.POOLS)

    def trace_unit(self, rng):
        return _tiered(rng, "map", {400: 2, 100: 8}, self.POOLS)

    def extras(self):
        return [Op("map", n, 0) for n in SCALING_TIERS]

    def pool(self):
        return _pool_ops("map", self.POOLS)

    def warmup(self):
        return [Op("map", 25, 10**6)]

    def build(self, lib, op):
        return lib.construct.random_planar_paired_graph(op.seed, op.n)

    def run(self, lib, pg, out_dir):
        order = lib.colour.heawood_degeneracy_order(pg)
        colouring = lib.colour.heawood_colour_12(pg)
        valid = lib.colour.is_valid_pair_colouring(pg, colouring)
        path = os.path.join(out_dir, "colouring.json")
        lib.formats.save(path, lib.formats.colouring_to_doc(colouring.palette_size, colouring.assignment))
        return order, colouring, valid, path

    def check(self, lib, op, pg, result):
        order, colouring, valid, path = result
        problems = []
        if colouring.palette_size > 12:
            problems.append(f"palette {colouring.palette_size} > 12")
        if not valid:
            problems.append("colouring is not valid")
        worst = max((d for _, d in order), default=0)
        if worst > 11:
            problems.append(f"elimination degree {worst} > 11")
        if len(order) != len(pg.pairing.pairs):
            problems.append("elimination order misses pairs")
        digest = sha256_file(path)
        os.remove(path)
        return Outcome(len(pg.graph.edges), digest, problems)


# ---------------------------------------------------------------------------
# 2. complex-build: the construction chain


PIPELINE_FILES = (
    "witness.json",
    "augmented.json",
    "punctured.json",
    "sealed.json",
    "colouring-exact.json",
    "colouring-degeneracy.json",
)


class ComplexBuild(Workload):
    name = "complex-build"
    # One unit: two runs of the full pipeline on the shipped witness, and
    # random maps from 50 to 1600 pairs through augment -> inverse link ->
    # seal -> link graph, with both complexes written and read back.
    MIX = {1600: 1, 400: 3, 100: 20, 50: 6}
    PIPELINES = 2
    # The 1600-pair map is always the same one: it is a third of the run,
    # and four such maps took from 4.2 to 5.4 s each, so a draw among them
    # would move the whole run by several percent.
    # The twenty 100-pair maps, where the median falls, are the same twenty
    # in every run: drawn from forty, their median latency spread by a
    # sixth over ten seeds.
    POOLS = {1600: 1, 400: 12, 100: 20, 50: 40, 3200: 1}
    unit_seconds = 15.0

    def unit(self, rng):
        return self._with_pipelines(rng, self.MIX, self.PIPELINES)

    def trace_unit(self, rng):
        return self._with_pipelines(rng, {400: 1, 100: 4, 50: 8}, 2)

    def _with_pipelines(self, rng, mix, pipelines):
        ops = _tiered(rng, "complex", mix, self.POOLS) + [Op("pipeline", 12, 0)] * pipelines
        rng.shuffle(ops)
        return ops

    def extras(self):
        return [Op("complex", n, 0) for n in SCALING_TIERS]

    def pool(self):
        return _pool_ops("complex", self.POOLS) + [Op("pipeline", 12, 0)]

    def warmup(self):
        return [Op("pipeline", 12, 0), Op("complex", 25, 10**6)]

    def build(self, lib, op):
        if op.kind == "pipeline":
            return lib.construct.load_shipped_witness()
        return lib.construct.random_planar_paired_graph(op.seed, op.n)

    def run(self, lib, inp, out_dir):
        formats = lib.formats
        if isinstance(inp, lib.construct.TwelvePireWitness):
            stages = lib.construct.run_pipeline(inp)
            docs = (
                formats.witness_to_doc(stages.witness),
                formats.paired_graph_to_doc(stages.augmented),
                formats.complex_to_doc(stages.punctured),
                formats.complex_to_doc(stages.sealed),
                formats.colouring_to_doc(stages.exact_colouring.palette_size, stages.exact_colouring.assignment),
                formats.colouring_to_doc(
                    stages.degeneracy_colouring.palette_size, stages.degeneracy_colouring.assignment
                ),
            )
            paths = [os.path.join(out_dir, name) for name in PIPELINE_FILES]
            for path, doc in zip(paths, docs):
                formats.save(path, doc)
            return stages, paths
        augmented = lib.construct.make_degree_faithful(inp)
        punctured = lib.construct.inverse_link(augmented)
        sealed = lib.construct.seal(punctured)
        link = lib.core.link_graph(sealed)
        paths = [os.path.join(out_dir, "punctured.json"), os.path.join(out_dir, "sealed.json")]
        formats.save(paths[0], formats.complex_to_doc(punctured))
        formats.save(paths[1], formats.complex_to_doc(sealed))
        read_back = [formats.complex_from_doc(formats.load(p)) for p in paths]
        return augmented, punctured, sealed, link, read_back, paths

    def check(self, lib, op, inp, result):
        problems = []
        if op.kind == "pipeline":
            stages, paths = result
            if stages.edge_chromatic != 12:
                problems.append(f"edge-chromatic number {stages.edge_chromatic} != 12")
            digests = {}
            for name, path in zip(PIPELINE_FILES, paths):
                digests[name] = sha256_file(path)
                os.remove(path)
            return Outcome(len(inp.graph.edges), digests, problems)

        augmented, punctured, sealed, link, read_back, paths = result
        construct = lib.construct
        link_p = lib.core.link_graph(punctured)
        ident = construct.canonical_link_identification(augmented)
        if not construct.link_matches_paired_graph(link_p, augmented, ident):
            problems.append("link graph of the punctured complex differs from the augmented map")
        if any(len(s) != 2 * len(p) + 2 for p, s in zip(punctured.cells, sealed.cells)):
            problems.append("a sealed cell does not have length 2k+2")
        if len(punctured.cells) != len(sealed.cells):
            problems.append("sealing changed the number of cells")
        if _endpoint_pairs(lib, link_p) - _endpoint_pairs(lib, link):
            problems.append("sealed link edges are not a superset of the punctured ones")
        if read_back[0] != punctured or read_back[1] != sealed:
            problems.append("a complex did not survive the write/read round trip")
        digests = {"punctured": sha256_file(paths[0]), "sealed": sha256_file(paths[1])}
        for path in paths:
            os.remove(path)
        return Outcome(len(inp.graph.edges), digests, problems)


def _endpoint_pairs(lib, pg) -> Counter:
    key = lib.core.id_sort_key
    return Counter(tuple(sorted((e.end0, e.end1), key=key)) for e in pg.graph.edges)


# ---------------------------------------------------------------------------
# 3. small-complexes: three routes to one number on tiny complexes


class SmallComplexes(Workload):
    name = "small-complexes"
    recorded = False
    # About 1 ms of CPU time per complex at the baseline commit; a run of
    # 15 s takes 12,000, leaving room for the oracle check and the set-up
    # repeats inside the time a run may take.
    UNIT_COMPLEXES = 1200
    unit_seconds = 1.5

    def __init__(self):
        self._corpus = None
        self._order = None

    def plan(self, rng, seconds):
        # Slots, filled by ``prepare`` with distinct complexes drawn from
        # the enumeration.
        units = max(1, round(seconds / self.unit_seconds))
        return [Op("complex", 0, i) for i in range(units * self.UNIT_COMPLEXES)]

    def trace_unit(self, rng):
        return [Op("complex", 0, i) for i in range(400)]

    def pool(self):
        return []

    def warmup(self):
        return [Op("complex", 0, -1)]

    def prepare(self, lib, rng, ops):
        """Enumerate the corpus once per set-up and deal distinct complexes
        to the operations, the triangle and tetrahedron among the first.
        The previous set-up's corpus is dropped first, so that the peak
        memory holds one corpus, not two."""
        self._corpus = self._order = None
        corpus = list(lib.corpus.enumerate_small_complexes())
        corpus.append(lib.catalogue.triangle_complex())
        corpus.append(lib.catalogue.tetrahedron_complex())
        order = [len(corpus) - 2, len(corpus) - 1] + _take(rng, len(corpus) - 2, max(0, len(ops) - 2))
        self._corpus = corpus
        self._order = order

    def build(self, lib, op):
        if op.seed < 0:
            return lib.catalogue.triangle_complex()
        return self._corpus[self._order[op.seed % len(self._order)]]

    def run(self, lib, c, out_dir):
        colour, core = lib.colour, lib.core
        k_complex = colour.edge_chromatic_number_complex(c)[0]
        link = core.link_graph(c)
        k_link = colour.pair_chromatic_number(link)[0]
        k_quotient = colour.chromatic_number(core.simple_quotient(link))[0]
        return k_complex, k_link, k_quotient

    def check(self, lib, op, c, result):
        oracle = lib.colour.brute_force_edge_chromatic(c, k_max=8)
        problems = []
        if not result[0] == result[1] == result[2] == oracle:
            problems.append(f"routes disagree: {result} vs brute force {oracle}")
        return Outcome(sum(len(cell) for cell in c.cells), oracle, problems)


# ---------------------------------------------------------------------------
# 4. exact-colour: DSATUR branch and bound where it branches


def random_graph(lib, n: int, seed: int):
    """G(n, 1/2) on vertices 0..n-1, from its own seeded stream."""
    rng = random.Random(f"gnp/{n}/{seed}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append(lib.core.Edge(len(edges), u, v))
    return lib.core.Multigraph(tuple(range(n)), tuple(edges))


class ExactColour(Workload):
    name = "exact-colour"
    # The instance set is fixed, because the solver's cost is heavy-tailed
    # (10 branch nodes at the median of 40-pair maps, 57,880 at the
    # worst): sampling it would make every run do a different amount of
    # work.  The seed only sets the order.
    MAP_SIZES = (10, 20, 30, 40)
    MAP_SEEDS = 30
    GRAPH_SIZES = tuple(range(30, 51, 2))
    GRAPH_SEEDS = 12
    unit_seconds = 12.5

    def _instances(self, map_seeds, graph_seeds):
        maps = [Op("map", n, s) for n in self.MAP_SIZES for s in range(map_seeds)]
        graphs = [Op("gnp", n, s) for n in self.GRAPH_SIZES for s in range(graph_seeds)]
        return maps + graphs

    def unit(self, rng):
        ops = self._instances(self.MAP_SEEDS, self.GRAPH_SEEDS)
        rng.shuffle(ops)
        return ops

    def trace_unit(self, rng):
        ops = self._instances(self.MAP_SEEDS, 3)
        rng.shuffle(ops)
        return ops

    def pool(self):
        return self._instances(self.MAP_SEEDS, self.GRAPH_SEEDS)

    def warmup(self):
        return [Op("map", 10, 10**6), Op("gnp", 20, 10**6)]

    def build(self, lib, op):
        if op.kind == "map":
            return lib.construct.random_planar_paired_graph(op.seed, op.n)
        return random_graph(lib, op.n, op.seed)

    def run(self, lib, inp, out_dir):
        log = lib.colour.SolverLog([], 0, 0)
        if isinstance(inp, lib.core.PairedGraph):
            k, witness = lib.colour.pair_chromatic_number(inp, log)
        else:
            k, witness = lib.colour.chromatic_number(inp, log)
        return k, witness, log

    def check(self, lib, op, inp, result):
        k, witness, log = result
        problems = []
        if isinstance(inp, lib.core.PairedGraph):
            graph = lib.core.simple_quotient(inp)
            if not lib.colour.is_valid_pair_colouring(inp, witness):
                problems.append("witness pair colouring is not proper")
            colours = {pair[0]: c for pair, c in witness.assignment.items()}
        else:
            graph = inp
            colours = witness
        if any(colours[e.end0] == colours[e.end1] for e in graph.edges if not e.is_loop):
            problems.append("witness colouring is not proper")
        if len(set(colours.values())) > k:
            problems.append(f"witness uses more than {k} colours")
        adjacent = {(e.end0, e.end1) for e in graph.edges} | {(e.end1, e.end0) for e in graph.edges}
        clique = log.clique
        if any((u, v) not in adjacent for i, u in enumerate(clique) for v in clique[i + 1 :]):
            problems.append("solver clique is not a clique")
        if k < len(clique):
            problems.append(f"k = {k} is below the clique size {len(clique)}")
        return Outcome(len(graph.edges), k, problems)


# ---------------------------------------------------------------------------
# 5. witness-search: the annealer over sphere triangulations


class WitnessSearch(Workload):
    name = "witness-search"
    work = "proposals"
    # A fixed budget of 6000 proposals keeps one search near 0.13 s, so a
    # run holds a hundred of them.  At the baseline commit every seed here
    # ends in BudgetExhausted, with its best objective recorded, except
    # seed 34, which finds a witness after 4334 proposals.  The traced run
    # also replays seed 0 with the CLI's default budget, which must find
    # the shipped witness after 371,115 proposals.
    BUDGET = 6000
    SEEDS = 100
    REPLAY_BUDGET = 2_000_000
    unit_seconds = 15.0

    def unit(self, rng):
        ops = [Op("search", self.BUDGET, s) for s in range(self.SEEDS)]
        rng.shuffle(ops)
        return ops

    def trace_unit(self, rng):
        # Seeds 25-44 include a found witness (seed 34) and calls into the
        # exact pairing search.
        ops = [Op("search", self.BUDGET, s) for s in range(25, 45)]
        rng.shuffle(ops)
        return ops

    def extras(self):
        return [Op("search", self.REPLAY_BUDGET, 0)]

    def pool(self):
        return [Op("search", self.BUDGET, s) for s in range(self.SEEDS)] + self.extras()

    def warmup(self):
        return [Op("search", 500, 10**6)]

    def build(self, lib, op):
        return op

    def run(self, lib, op, out_dir):
        try:
            return lib.search.search_witness(op.seed, op.n)
        except lib.errors.BudgetExhausted as exc:
            return exc

    def check(self, lib, op, inp, result):
        if isinstance(result, lib.errors.BudgetExhausted):
            return Outcome(op.n, {"outcome": "exhausted", "best": result.best_objective}, [])
        steps = result.provenance["steps_used"]
        text = lib.formats.dumps(lib.formats.witness_to_doc(result))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        problems = []
        if op in self.extras() and text != _shipped_witness_text(lib):
            problems.append("the seed-0 replay differs from the shipped data/k12_pire.json")
        return Outcome(steps, {"outcome": "found", "steps": steps, "digest": digest}, problems)


def _shipped_witness_text(lib) -> str:
    """The witness file shipped inside the package, as its bytes decode."""
    ref = resources.files(lib.construct.__package__).joinpath("data/k12_pire.json")
    return ref.read_text(encoding="utf-8")


WORKLOADS = {w.name: w for w in (EmpireMaps(), ComplexBuild(), SmallComplexes(), ExactColour(), WitnessSearch())}
