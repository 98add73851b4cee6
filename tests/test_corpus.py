"""The small-complex corpus: the same complexes in the same order, each
walk checked once where it is made, and the walks shared by every complex
over their skeleton.
"""

import hashlib
import json
from collections import Counter
from itertools import islice

import pytest

from linkchroma import colour, corpus
from linkchroma.colour import SolverLog, edge_chromatic_number_complex
from linkchroma.core import ClosedWalk, EdgeEnd, TwoComplex, WalkStep, link_graph, simple_quotient, validate_walk
from linkchroma.corpus import enumerate_small_complexes, run_check
from linkchroma.errors import DomainError

# SHA-256 over ``enumerate_small_complexes()``, in order, one JSON line a
# complex: [skeleton vertices, edge ids, dart column, cells as lists of
# [edge, entry] steps]; recorded while every complex was still built
# through the public ``TwoComplex`` constructor
CORPUS_SHA256 = "a6030f32c1670e77f8e515f67982b14e904ef015a53de2070a3cd37190bb46bd"
CORPUS_SIZE = 40514
CORPUS_WALKS = 902  # the walks of all skeletons, as ``enumerate_closed_walks`` gives them


def _corpus_digest(complexes):
    """The count of ``complexes`` and one SHA-256 over them, in order, one
    JSON line a complex."""
    h = hashlib.sha256()
    count = 0
    for c in complexes:
        g = c.skeleton
        row = [list(g.vertices), list(g.edge_ids()), list(g._at), [[list(s) for s in w.steps] for w in c.cells]]
        h.update(json.dumps(row).encode("utf-8") + b"\n")
        count += 1
    return count, h.hexdigest()


def test_the_corpus_matches_its_pinned_digest():
    assert _corpus_digest(enumerate_small_complexes()) == (CORPUS_SIZE, CORPUS_SHA256)


def test_every_50th_complex_is_the_constructors():
    for c in islice(enumerate_small_complexes(), 0, None, 50):
        built = TwoComplex(c.skeleton, c.cells)
        assert c == built
        assert c.cells == built.cells
        assert type(c.cells) is tuple


def test_the_complexes_over_one_skeleton_share_their_walks():
    # one walk object for each distinct walk of a skeleton, however many
    # complexes hold it
    skeleton, walks, distinct = None, {}, 0
    for c in enumerate_small_complexes():
        if c.skeleton is not skeleton:
            distinct += len(walks)
            skeleton, walks = c.skeleton, {}
        for w in c.cells:
            assert walks.setdefault(w.steps, w) is w
    assert distinct + len(walks) == CORPUS_WALKS


def test_each_walk_is_checked_once(monkeypatch):
    checked = []

    def counting(g, walk):
        checked.append(walk)
        validate_walk(g, walk)

    monkeypatch.setattr(corpus, "validate_walk", counting)
    assert sum(1 for _ in enumerate_small_complexes()) == CORPUS_SIZE
    assert len(checked) == CORPUS_WALKS


# Skeletons by edge count: multigraphs with loops and no isolated vertex on
# 0, 1, 2, ... edges, the first terms of OEIS A050535
SKELETONS_BY_EDGES = [1, 2, 7, 23, 79]


def test_the_generators_keep_one_member_per_class(monkeypatch):
    counts = Counter(len(g.edge_ids()) for g in corpus.enumerate_small_skeletons())
    assert [counts[m] for m in range(len(counts))] == SKELETONS_BY_EDGES[:4]
    # one edge past the corpus bound: 112 skeletons, and their walks
    monkeypatch.setattr(corpus, "_MAX_EDGES", 4)
    skeletons = list(corpus.enumerate_small_skeletons())
    counts = Counter(len(g.edge_ids()) for g in skeletons)
    assert [counts[m] for m in range(len(counts))] == SKELETONS_BY_EDGES
    assert sum(len(corpus.enumerate_closed_walks(g)) for g in skeletons) == 4954


@pytest.mark.parametrize(
    "fault, message",
    [
        # the first skeleton of two vertices is one edge between them, which
        # a walk of one step leaves at the other vertex
        (lambda g: ClosedWalk((WalkStep(g.edge_ids()[0], 0),)), "walk is not vertex-compatible between steps 0 and 0"),
        (lambda g: ClosedWalk((WalkStep("nowhere", 0),)), "walk not contained in skeleton: unknown edge 'nowhere'"),
    ],
    ids=["not-vertex-compatible", "unknown-edge"],
)
def test_a_faulty_walk_is_refused(monkeypatch, fault, message):
    enumerate_walks = corpus.enumerate_closed_walks

    def with_fault(g):
        walks = enumerate_walks(g)
        return walks + [fault(g)] if len(g.vertices) >= 2 else walks

    monkeypatch.setattr(corpus, "enumerate_closed_walks", with_fault)
    with pytest.raises(DomainError) as info:
        list(enumerate_small_complexes())
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The conflict graphs the agreement check adds so that the exact solver
# must search: each member's chromatic number, found by
# ``chromatic_number_reference`` when the family was chosen
BRANCHING_CHROMATIC = {
    "C5": 3,
    "C7": 3,
    "wheel W5": 4,
    "Groetzsch graph": 4,
    "G(12, 0.3) seed 185": 3,
    "G(12, 0.3) seed 261": 3,
    "G(12, 0.5) seed 21": 4,
    "G(12, 0.5) seed 105": 4,
    "G(12, 0.7) seed 277": 6,
}


def test_each_conflict_complex_has_its_graph_as_conflict_graph():
    for name, n, edges, _ in corpus._branching_family():
        c = corpus._conflict_complex(n, edges)
        assert c.skeleton.vertices == (0,) and c.skeleton.edge_ids() == tuple(range(n))
        q = simple_quotient(link_graph(c))
        # quotient vertex a is the pair of loop a, named by its side-0 end
        assert q.vertices == tuple(EdgeEnd(a, 0) for a in range(n))
        got = sorted(sorted((e.end0.edge, e.end1.edge)) for e in q.edges)
        assert got == sorted(sorted(e) for e in edges), name


def test_every_family_member_makes_the_solver_branch():
    family = corpus._branching_family()
    assert [name for name, *_ in family] == list(BRANCHING_CHROMATIC)
    for name, n, edges, _ in family:
        log = SolverLog([], 0, 0)
        k, _ = edge_chromatic_number_complex(corpus._conflict_complex(n, edges), log)
        assert k == BRANCHING_CHROMATIC[name]
        assert log.branch_nodes >= 1, name
        if name.startswith("G(12"):
            assert k < log.dsatur_upper, name  # the search beats the greedy bound


def test_the_agreement_check_passes_on_the_family(monkeypatch):
    # with the corpus left out, only the triangle, the tetrahedron and the family are checked
    monkeypatch.setattr(corpus, "enumerate_small_complexes", lambda: iter(()))
    result = run_check("three-quantity-agreement")
    assert result.status == "pass"
    assert result.detail == (
        "exhaustive, cell-junction, link-graph and quotient routes agree on 2 complexes "
        "and 9 that make the exact solver branch; "
        "both checkers refuse all 213 colourings that give two conflicting edges one colour"
    )


@pytest.mark.parametrize("member, oracle", [(4, "brute force 3"), (6, "reference 4")])
def test_the_agreement_check_names_a_family_disagreement(monkeypatch, member, oracle):
    # a route one colour off on one member only
    monkeypatch.setattr(corpus, "enumerate_small_complexes", lambda: iter(()))
    name, n, edges, _ = corpus._branching_family()[member]
    target = corpus._conflict_complex(n, edges)
    solve = colour.edge_chromatic_number_complex

    def one_off_on_target(c):
        k, witness = solve(c)
        return k + (c == target), witness

    monkeypatch.setattr(colour, "edge_chromatic_number_complex", one_off_on_target)
    result = run_check("three-quantity-agreement")
    k = BRANCHING_CHROMATIC[name]
    assert result.detail == f"disagreement on {name}: {oracle}, junctions {k + 1}, link {k}, quotient {k}"
