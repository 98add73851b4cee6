"""Acceptance suite: one test per criterion, each printing its pass/fail
line.  The same checks back the ``linkchroma corpus`` subcommand."""

from linkchroma.corpus import ALL_CHECKS, run_check


def _run(name):
    result = run_check(name)
    print(result.line())
    assert result.status == "pass", result.detail
    if result.limit is not None:
        assert result.seconds < result.limit, (
            f"{name} took {result.seconds:.1f}s, limit {result.limit:.0f}s"
        )
    return result


def test_criterion_1_pipeline_builds_a_12_chromatic_complex():
    _run("pipeline-chromatic-12")


def test_criterion_2_shipped_witness_verifies():
    _run("witness-verification")


def test_criterion_3_three_chromatic_quantities_agree():
    _run("three-quantity-agreement")


def test_criterion_4_every_planar_paired_graph_12_colours():
    _run("planar-twelve-colouring")


def test_criterion_5_inverse_link_round_trip():
    _run("inverse-link-round-trip")


def test_criterion_6_sealing_invariants():
    _run("sealing-invariants")


def test_criterion_7_solver_soundness():
    _run("solver-soundness")


def test_criterion_8_classic_complexes():
    _run("classic-complexes")


def test_all_criteria_are_covered():
    names = {name for name, _, _ in ALL_CHECKS}
    assert len(names) == 8


def test_a_disagreement_names_all_four_numbers(monkeypatch):
    from linkchroma import colour

    solve = colour.edge_chromatic_number_complex
    monkeypatch.setattr(colour, "edge_chromatic_number_complex", lambda c: (solve(c)[0] + 1, None))
    result = run_check("three-quantity-agreement")
    assert result.status == "fail"
    assert result.detail.startswith("disagreement on ")
    assert result.detail.endswith(": brute force 0, junctions 1, link 0, quotient 0")


def test_a_disagreement_names_the_complex_as_it_prints(monkeypatch):
    from linkchroma import colour, corpus

    first = next(corpus.enumerate_small_complexes())
    solve = colour.edge_chromatic_number_complex
    monkeypatch.setattr(colour, "edge_chromatic_number_complex", lambda c: (solve(c)[0] + 1, None))
    result = run_check("three-quantity-agreement")
    assert result.detail == f"disagreement on {first!r}: brute force 0, junctions 1, link 0, quotient 0"


def test_a_passing_agreement_check_formats_no_complex(monkeypatch):
    # the complexes of a passing run are formatted nowhere: only a
    # disagreement names one
    from itertools import islice

    from linkchroma import corpus
    from linkchroma.core import TwoComplex

    enumerate_all = corpus.enumerate_small_complexes
    monkeypatch.setattr(corpus, "enumerate_small_complexes", lambda: islice(enumerate_all(), 60))
    formatted = []
    as_text = TwoComplex.__repr__

    def counted(c):
        formatted.append(c)
        return as_text(c)

    monkeypatch.setattr(TwoComplex, "__repr__", counted)
    result = run_check("three-quantity-agreement")
    assert result.status == "pass", result.detail
    assert "agree on 62 complexes" in result.detail  # and the triangle and tetrahedron
    assert formatted == []
