"""The solver's table of the 12 loop-free graphs on at most three vertices.

``colour._chromatic`` answers those graphs from ``colour._SMALL_GRAPHS``,
filled at import by the search itself.  These tests check each entry
against the search with the table bypassed and against the reference
kernels the library's search is tested by, that every other input still
reaches the search, and that an answer handed out cannot change the
table."""

import itertools

import pytest

from linkchroma import colour, formats
from linkchroma.cli import main
from linkchroma.colour import SolverLog, _chromatic, chromatic_number
from linkchroma.core import Edge, Multigraph
from linkchroma.errors import DomainError

from test_colour import reference_dsatur
from test_solver_front_end import chromatic_reference


def small_graphs():
    """The neighbour sets of every loop-free graph on 0 to 3 vertices, each
    with a name: its vertex count and edges."""
    for n in range(4):
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, size):
                nbrs = [set() for _ in range(n)]
                for a, b in edges:
                    nbrs[a].add(b)
                    nbrs[b].add(a)
                yield pytest.param(nbrs, id=f"{n}:" + ",".join(f"{a}{b}" for a, b in edges))


def solve(kernel, nbrs):
    """One solve's size, witness and every log field, the vertices named
    "a", "b" and "c"."""
    log = SolverLog([], 0, 0)
    k, witness = kernel(("a", "b", "c")[: len(nbrs)], nbrs, log, None)
    return k, witness, log.as_dict()


def count_cliques(monkeypatch) -> list:
    """Patch ``colour._greedy_clique`` to record each call; the list grows
    by one per search that runs."""
    calls = []
    clique = colour._greedy_clique
    monkeypatch.setattr(colour, "_greedy_clique", lambda nbrs, degree: calls.append(nbrs) or clique(nbrs, degree))
    return calls


def test_the_table_holds_exactly_the_12_small_graphs():
    keys = {tuple(map(frozenset, param.values[0])) for param in small_graphs()}
    assert len(keys) == 12
    assert set(colour._SMALL_GRAPHS) == keys


@pytest.mark.parametrize("nbrs", small_graphs())
def test_each_entry_is_the_searchs_own_answer(nbrs, monkeypatch):
    calls = count_cliques(monkeypatch)
    answer = solve(_chromatic, nbrs)
    assert calls == []  # answered from the table
    assert answer[2]["branch_nodes"] == 0
    assert answer == solve(reference_dsatur, nbrs)
    assert answer == solve(chromatic_reference, nbrs)
    monkeypatch.setattr(colour, "_SMALL_GRAPHS", {})
    assert answer == solve(_chromatic, nbrs)
    assert len(calls) == (1 if nbrs else 0)  # the empty graph has no clique to grow


@pytest.mark.parametrize(
    "nbrs, size",
    [
        pytest.param([{0, 1}, {0, 1}], 2, id="self-neighbour"),
        pytest.param([{1}, {0, 2}, {1, 3}, {2}], 2, id="P4"),
        pytest.param([{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}], 4, id="K4"),
        pytest.param([{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}], 3, id="C5"),
    ],
)
def test_every_other_input_reaches_the_search(nbrs, size, monkeypatch):
    calls = count_cliques(monkeypatch)
    log = SolverLog([], 0, 0)
    assert _chromatic(tuple(range(len(nbrs))), nbrs, log, None)[0] == size
    assert len(calls) == 1
    assert log.branch_nodes > 0 if len(nbrs) == 5 else log.branch_nodes == 0  # C5 branches


def test_a_returned_answer_does_not_change_the_next():
    triangle = [{1, 2}, {0, 2}, {0, 1}]
    first = solve(_chromatic, triangle)
    log = SolverLog([], 0, 0)
    k, witness = _chromatic(("a", "b", "c"), triangle, log, None)
    witness[0] = ("x", 9)
    witness.append((5, 5))
    log.clique[0] = "x"
    log.clique.append("y")
    assert solve(_chromatic, triangle) == first
    assert chromatic_number(Multigraph((1, 2), (Edge("e", 1, 2),)))[1] == {1: 0, 2: 1}


@pytest.mark.parametrize("budget", [True, -1, 1.0, "1"])
def test_a_refused_budget_is_refused_on_a_small_graph(budget):
    with pytest.raises(DomainError, match="^budget must be a non-negative integer$"):
        _chromatic((), [set()], None, budget)
    with pytest.raises(DomainError, match="^budget must be a non-negative integer$"):
        chromatic_number(Multigraph((1, 2), (Edge("e", 1, 2),)), budget=budget)


def test_the_solver_line_of_one_vertex_with_one_loop(capsys, tmp_path):
    path = tmp_path / "loop.json"
    formats.save(path, formats.graph_to_doc(Multigraph(("v",), (Edge("l", "v", "v"),))))
    assert main(["chroma", "--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == '{"solver": {"clique_size": 1, "clique": ["v"], "dsatur_upper": 1, "branch_nodes": 0}}\n'
