"""Mutated documents through the command line.

Each example takes a valid document (the shipped witness, a paired graph,
a complex or a graph), applies a few random edits at random places and
runs one command on it.  Whatever the edits did, the command must answer
or fail cleanly: exit 0, 1 or 2 and no Python traceback.  The exact
solvers run with a small ``--budget`` so that no example can hang.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from linkchroma import formats, link_graph
from linkchroma.catalogue import petersen_graph, tetrahedron_complex
from linkchroma.cli import main
from linkchroma.construct import load_shipped_witness

WITNESS = formats.witness_to_doc(load_shipped_witness())
DOCUMENTS = {
    "witness": WITNESS,
    "paired": {k: v for k, v in WITNESS.items() if k not in ("designated_pairs", "provenance")},
    "link": formats.paired_graph_to_doc(link_graph(tetrahedron_complex())),
    "complex": formats.complex_to_doc(tetrahedron_complex()),
    "graph": formats.graph_to_doc(petersen_graph()),
}
BUDGET = ("--budget", "50")
COMMANDS = {
    "witness": [("verify-witness",), ("dot", "--out", "{out}"), ("pipeline", "--out", "{dir}")],
    "paired": [
        ("pair-chroma",) + BUDGET,
        ("heawood12",),
        ("genus",),
        ("augment", "--out", "{out}"),
        ("quotient", "--simple"),
    ],
    "link": [("pair-chroma",) + BUDGET, ("inverse-link", "--out", "{out}"), ("quotient",)],
    "complex": [
        ("colour-complex",) + BUDGET,
        ("link",),
        ("seal", "--out", "{out}"),
        ("dot", "--out", "{out}"),
    ],
    "graph": [("chroma",) + BUDGET, ("dot", "--out", "{out}")],
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=3)
    | st.floats()
    | st.sampled_from(["", "v", "e", "0", "genuine", "punctured", "a:b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def leaves(node):
    """The scalar values in a document, found depth first."""
    if isinstance(node, dict):
        return [leaf for child in node.values() for leaf in leaves(child)]
    if isinstance(node, list):
        return [leaf for child in node for leaf in leaves(child)]
    return [node]


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three edits at random places: a value replaced
    by a random one, by a sibling's or by a scalar found elsewhere in the
    document (another id, side or colour), a member removed, a list
    element duplicated or a field added."""
    scalars = sorted(set(map(json.dumps, leaves(doc))))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, key = None, None
        node = doc
        # Walk down from the root, stopping at each level with chance 1/4.
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 3))):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            continue
        siblings = list(parent.values()) if isinstance(parent, dict) else parent
        edit = draw(st.sampled_from(["random", "sibling", "reuse", "remove", "duplicate", "add"]))
        if edit == "random":
            parent[key] = draw(json_values)
        elif edit == "sibling":
            parent[key] = copy.deepcopy(draw(st.sampled_from(siblings)))
        elif edit == "reuse":
            parent[key] = json.loads(draw(st.sampled_from(scalars)))
        elif edit == "remove":
            del parent[key]
        elif isinstance(parent, list):  # duplicate, or add to a list
            parent.insert(draw(st.integers(min_value=0, max_value=len(parent))), copy.deepcopy(node))
        else:  # add, or duplicate in an object
            parent[draw(st.text(max_size=3))] = draw(json_values)
    return doc


def run_mutated(kind, data):
    doc = data.draw(mutated(DOCUMENTS[kind]), label="document")
    argv = data.draw(st.sampled_from(COMMANDS[kind]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [a.format(out=Path(tmp) / "out.json", dir=Path(tmp) / "out") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--in", str(path), *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1 or argv[0] == "verify-witness"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_witness(data):
    run_mutated("witness", data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_paired_graph(data):
    run_mutated("paired", data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_link_graph(data):
    run_mutated("link", data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_complex(data):
    run_mutated("complex", data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_graph(data):
    run_mutated("graph", data)
