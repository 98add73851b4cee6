"""Each acceptance check fails when the code it checks goes wrong.

Every test plants one fault with ``monkeypatch`` on a name that the check
imports when it runs, and asserts that the check fails with the start of
its detail.  Each faulted check fails at its first seed or instance that
reaches the fault."""

import dataclasses
from types import SimpleNamespace

import pytest

from linkchroma import DomainError, colour, construct, corpus
from linkchroma.catalogue import complete_graph, octahedron_graph, petersen_graph
from linkchroma.colour import Colouring
from linkchroma.corpus import run_check
from linkchroma.core import TwoComplex


def assert_fails(name: str, start: str) -> str:
    result = run_check(name)
    assert (result.status, result.name) == ("fail", name)
    assert result.detail.startswith(start), result.detail
    return result.detail


def test_a_pipeline_that_reports_eleven(monkeypatch):
    monkeypatch.setattr(construct, "run_pipeline", lambda w: SimpleNamespace(edge_chromatic=11))
    assert_fails("pipeline-chromatic-12", "edge-chromatic number 11 != 12")


def test_a_witness_with_eleven_designated_pairs(monkeypatch):
    load = construct.load_shipped_witness

    def eleven():
        w = load()
        return dataclasses.replace(w, designated_pairs=w.designated_pairs[:11])

    monkeypatch.setattr(construct, "load_shipped_witness", eleven)
    detail = assert_fails("witness-verification", "PASS planar-embedding: ")
    assert "; FAIL designated-k12: must designate 12 pairs of the pairing; " in detail


def test_an_elimination_degree_of_twelve(monkeypatch):
    monkeypatch.setattr(colour, "heawood_degeneracy_order", lambda pg: [(pg.pairing.pairs[0], 12)])
    assert_fails("planar-twelve-colouring", "elimination degree 12 > 11 at seed 0")


def test_a_thirteen_colour_palette(monkeypatch):
    colour_12 = colour.heawood_colour_12
    monkeypatch.setattr(colour, "heawood_colour_12", lambda pg: Colouring(13, colour_12(pg).assignment))
    assert_fails("planar-twelve-colouring", "palette 13 > 12 at seed 0")


def test_a_pair_colouring_the_checker_refuses(monkeypatch):
    monkeypatch.setattr(colour, "is_valid_pair_colouring", lambda pg, colouring: False)
    assert_fails("planar-twelve-colouring", "invalid colouring at seed 0")


def test_a_pair_checker_that_accepts_every_colouring(monkeypatch):
    # seed 0's one pair has no quotient edge, so seed 1 is the first clash
    monkeypatch.setattr(colour, "is_valid_pair_colouring", lambda pg, colouring: True)
    detail = assert_fails("planar-twelve-colouring", "pairs ")
    assert detail.endswith(" in one colour pass the pair check at seed 1")


def test_a_link_that_does_not_match_its_paired_graph(monkeypatch):
    monkeypatch.setattr(construct, "link_matches_paired_graph", lambda link_pg, pg, ident: False)
    assert_fails("inverse-link-round-trip", "round trip failed at seed 0")


def test_a_seal_that_drops_its_cells(monkeypatch):
    monkeypatch.setattr(construct, "seal", lambda c: TwoComplex(c.skeleton, (), "genuine"))
    assert_fails("sealing-invariants", "sealing lost link edges at seed 0")


def test_a_seal_that_appends_one_more_u_u_reversed(monkeypatch):
    # W U U~ W~ U U~: only link loops more, so only the length is wrong
    seal = construct.seal

    def longer(c):
        sealed = seal(c)
        cells = tuple(s.steps + s.steps[len(w) : len(w) + 2] for w, s in zip(c.cells, sealed.cells))
        return TwoComplex(c.skeleton, cells, "genuine")

    monkeypatch.setattr(construct, "seal", longer)
    detail = assert_fails("sealing-invariants", "sealed length ")
    length = int(detail.split()[2])
    assert detail == f"sealed length {length} != 2*{(length - 4) // 2}+2 at seed 0"


def wrong_on(monkeypatch, graphs) -> None:
    """``colour.chromatic_number`` one too high on the graphs equal to one
    of ``graphs``, right on the rest."""
    solve = colour.chromatic_number

    def faulty(g, *args, **kwargs):
        k, witness = solve(g, *args, **kwargs)
        return (k + 1, witness) if g in graphs else (k, witness)

    monkeypatch.setattr(colour, "chromatic_number", faulty)


def test_a_wrong_answer_on_k12_only(monkeypatch):
    wrong_on(monkeypatch, [complete_graph(12)])
    assert_fails("solver-soundness", "K12 must need 12 colours")


def test_a_wrong_answer_on_the_octahedron_only(monkeypatch):
    wrong_on(monkeypatch, [octahedron_graph()])
    assert_fails("solver-soundness", "octahedron: exact 4, oracle 3, expected 3")


def test_wrong_answers_on_the_random_samples_only(monkeypatch):
    fixed = [complete_graph(12), octahedron_graph(), petersen_graph()]

    class Samples:
        def __contains__(self, g):
            return g not in fixed

    wrong_on(monkeypatch, Samples())
    assert_fails("solver-soundness", "sample 0: solver ")


def test_a_classic_complex_solved_as_four(monkeypatch):
    solve = colour.edge_chromatic_number_complex
    monkeypatch.setattr(colour, "edge_chromatic_number_complex", lambda c: (4, solve(c)[1]))
    assert_fails("classic-complexes", "triangle: edge-chromatic number 4 != 3")


def test_a_clashing_complex_colouring(monkeypatch):
    def one_colour(c):
        return 3, Colouring(3, {e: 0 for e in c.skeleton.edge_ids()})

    monkeypatch.setattr(colour, "edge_chromatic_number_complex", one_colour)
    assert_fails("classic-complexes", "triangle: witness fails the walk-level checker")


def test_an_unknown_check_is_a_domain_error():
    with pytest.raises(DomainError) as info:
        run_check("no-such-check")
    assert str(info.value) == "unknown check 'no-such-check'"


def test_a_check_over_its_time_limit_fails(monkeypatch):
    clock = iter([0.0, 100.0])
    monkeypatch.setattr(corpus, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = run_check("classic-complexes")
    assert (result.status, result.seconds, result.limit) == ("fail", 100.0, 1.0)
    assert result.detail == "over time limit: triangle and tetrahedron complexes both need exactly 3 colours"


def one_colour_on_one_edge(monkeypatch) -> None:
    """The solver's table answers the one-edge graph with one colour, both
    ends coloured 0."""
    monkeypatch.setitem(colour._SMALL_GRAPHS, (frozenset({1}), frozenset({0})), (1, ((0, 0), (1, 0)), (0,), 1))


def test_a_wrong_small_graph_entry_fails_route_ones_walk_check(monkeypatch):
    one_colour_on_one_edge(monkeypatch)
    with pytest.raises(DomainError, match="^internal error: edge-chromatic witness failed the walk-level check$"):
        colour.edge_chromatic_number_complex(corpus._conflict_complex(2, [(0, 1)]))
    assert_fails("three-quantity-agreement", "internal error: edge-chromatic witness failed the walk-level check")


def test_a_wrong_small_graph_entry_disagrees_with_the_brute_force(monkeypatch):
    # with route 1's witness check silenced too, the agreement check still
    # fails, at the first complex whose conflict graph is one edge
    one_colour_on_one_edge(monkeypatch)
    monkeypatch.setattr(colour, "is_valid_complex_colouring", lambda c, colouring: True)
    detail = assert_fails("three-quantity-agreement", "disagreement on ")
    assert detail.endswith(": brute force 2, junctions 1, link 1, quotient 1")


def test_a_walk_level_check_that_accepts_every_colouring(monkeypatch):
    # route 1's own witness check passes too, so the first clash is what fails
    monkeypatch.setattr(colour, "is_valid_complex_colouring", lambda c, colouring: True)
    assert_fails("three-quantity-agreement", "the walk-level check accepts edges 0 and 1 in one colour on ")


def test_a_pair_check_that_accepts_every_lifted_clash(monkeypatch):
    monkeypatch.setattr(colour, "is_valid_pair_colouring", lambda pg, colouring: True)
    assert_fails("three-quantity-agreement", "the pair check accepts the pairs of edges 0 and 1 in one colour on ")
