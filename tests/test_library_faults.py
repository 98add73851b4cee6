"""Each internal-error raise of the library fires when the code it guards
goes wrong, and the console entry points run in process.

Every fault test plants one fault, with ``monkeypatch`` on a name the
guarded function reads when it runs or on an input no builder makes, and
names the start of the message it must raise."""

import json
import runpy
import sys
from array import array
from importlib import resources

import pytest

from linkchroma import DomainError, Edge, Multigraph, PairedGraph, Pairing, cli, colour, construct, core, formats
from linkchroma.catalogue import triangle_complex
from linkchroma.construct import random_planar_paired_graph, run_pipeline

from strategies import k4_with_planar_rotation


def raises(start: str, call, *args):
    with pytest.raises(DomainError) as info:
        call(*args)
    assert str(info.value).startswith(start), str(info.value)


def test_route_1_refuses_a_witness_the_walk_level_check_refuses(monkeypatch):
    monkeypatch.setattr(colour, "is_valid_complex_colouring", lambda c, colouring: False)
    raises("internal error: edge-chromatic witness failed", colour.edge_chromatic_number_complex, triangle_complex())


def test_the_degeneracy_order_refuses_a_minimum_degree_of_twelve():
    pg = random_planar_paired_graph(0, 5)
    object.__setattr__(pg, "_smallest_last", [(0, 12)])  # the kept order, as if a step saw degree 12
    raises("planar paired graph produced a quotient of minimum degree > 11", colour.heawood_degeneracy_order, pg)


def test_a_missing_shipped_witness(monkeypatch, tmp_path):
    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    raises("no shipped witness: data/k12_pire.json is missing", construct.load_shipped_witness)


@pytest.mark.parametrize(
    "name, fault, start",
    [
        (
            "link_matches_paired_graph",
            lambda link_pg, pg, ident: False,
            "internal error: inverse link does not reproduce the augmented map",
        ),
        ("edge_chromatic_number_complex", lambda c: (11, None), "pipeline produced edge-chromatic number 11, expected 12"),
        (
            "is_valid_complex_colouring",
            lambda c, colouring: False,
            "internal error: degeneracy colouring fails on the sealed complex",
        ),
    ],
    ids=["a link the check refuses", "eleven colours", "a colouring the check refuses"],
)
def test_the_pipeline_refuses_a_stage_that_goes_wrong(monkeypatch, name, fault, start):
    monkeypatch.setattr(construct, name, fault)
    raises(start, run_pipeline)


def test_face_tracing_refuses_an_odd_euler_characteristic():
    # one vertex, one loop, one face: 1 - 1 + 1 = 1
    g = Multigraph(("v",), (Edge("l", "v", "v"),))
    raises("face tracing produced an odd Euler characteristic", core._genus, g, array("i", [0, 1]))


def test_face_tracing_refuses_a_negative_genus():
    # two vertices, two edges, each dart its own face: 2 - 2 + 4 = 4
    g = Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("f", "u", "v")))
    raises("face tracing produced a negative genus", core._genus, g, array("i", [1, 0, 3, 2]))


@pytest.fixture
def genus_argv(monkeypatch, tmp_path):
    g, rot = k4_with_planar_rotation()
    path = tmp_path / "k4.json"
    formats.save(str(path), formats.paired_graph_to_doc(PairedGraph(g, Pairing(((1, 2), (3, 4))), rot)))
    monkeypatch.setattr(sys, "argv", ["linkchroma", "genus", "--in", str(path)])


def test_the_console_script_entry_point(genus_argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.app()
    assert info.value.code == 0
    assert capsys.readouterr().out.endswith("planar embedding: yes\n")


def test_the_module_runs_as_a_script(genus_argv, capsys):
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as info:
        runpy.run_module("linkchroma.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.endswith("planar embedding: yes\n")


class Key(str):
    pass


def test_a_table_keyed_by_a_str_subclass_is_written_as_json_writes_it():
    # the column writer takes keys of type str only; the rest fall back
    doc = {"rows": [{Key("a"): i, Key("b"): [i, "x"]} for i in range(3)]}
    assert formats.dumps(doc) == json.dumps(doc, indent=2) + "\n"
