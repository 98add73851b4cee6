"""Static checks over the library's own source files."""

import ast
import importlib
from pathlib import Path

import linkchroma


def test_no_assert_statements():
    """Invariants raise DomainError: ``python -O`` strips assert statements."""
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Every directly self-recursive function in the library, with what bounds
# its depth.  Anything whose depth grows with the input's size must be an
# explicit loop instead: Python's recursion limit would turn a large input
# into a RecursionError.
RECURSION_ALLOWED = {
    "core._tuple_sort_key": "id nesting, stops at core.MAX_ID_DEPTH",
    "formats.id_to_json": "id nesting, at most core.MAX_ID_DEPTH in any constructed object",
    "formats._tuple_from_json": "id nesting, stops at core.MAX_ID_DEPTH",
    "formats.id_text": "id nesting, at most core.MAX_ID_DEPTH in any constructed object",
    "formats._cell_text": "array nesting in a table cell, at most core.MAX_ID_DEPTH by formats._cell_nesting",
    "search.exact_pairing.search": "one level per pair, 12 pairs",
    "corpus.enumerate_closed_walks.extend": "one level per step, corpus._MAX_WALK_LEN (4)",
    "corpus.chromatic_number_reference.feasible.place": "one level per vertex, refuses more than 12 vertices",
}


def _self_recursive(tree, module):
    """Qualified names of the functions in ``tree`` that call themselves by
    name (or, for methods, through ``self``/``cls``)."""
    found = []

    def calls_itself(fn):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                return True
        return False

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if calls_itself(child):
                    found.append(prefix + child.name)
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, module + ".")
    return found


def test_recursion_only_where_depth_is_bounded():
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    found = [
        name
        for path in paths
        for name in _self_recursive(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert sorted(set(found) - set(RECURSION_ALLOWED)) == []
    assert sorted(set(RECURSION_ALLOWED) - set(found)) == []  # no stale entries
    assert not any(name.startswith("colour.") for name in RECURSION_ALLOWED)


# Id order is decided once, by the constructors in ``core``; every other
# module walks their stored order and breaks ties by position.  ``formats``
# validates parsed ids and sorts colouring keys for output, and the package
# ``__init__`` re-exports the function.
ID_ORDER_ALLOWED = {"core", "formats", "__init__"}


def _names(tree, name):
    """True iff ``tree`` refers to ``name`` as a name, attribute or import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.alias) and name in (node.name, node.asname):
            return True
    return False


def test_no_module_uses_cached_property():
    """Derived data is built on first read by ``core._BuiltOnRead`` alone:
    ``cached_property`` writes through ``__dict__``, which slows every
    later attribute read of the instance."""
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    found = [path.name for path in paths if _names(ast.parse(path.read_text(encoding="utf-8")), "cached_property")]
    assert found == []


def test_id_order_decided_only_by_constructors():
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    found = [
        path.stem
        for path in paths
        if _names(ast.parse(path.read_text(encoding="utf-8")), "id_sort_key")
    ]
    assert "core" in found
    assert sorted(set(found) - ID_ORDER_ALLOWED) == []


def test_route_one_reads_no_link_graph():
    """Route 1 solves from the cell junctions: neither
    ``edge_chromatic_number_complex`` nor its module names ``link_graph``,
    which routes 2 and 3 are read from, or the skeleton's ``_link_frame``,
    which ``link_graph`` builds on."""
    tree = ast.parse(Path(linkchroma.__file__).with_name("colour.py").read_text(encoding="utf-8"))
    (route,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "edge_chromatic_number_complex"]
    assert _names(route, "_chromatic")
    assert not _names(tree, "link_graph")
    assert not _names(tree, "_link_frame")


def test_link_graph_reads_its_vertices_and_pairing_from_the_link_frame():
    """Only ``Multigraph._link_frame`` builds the link vertices and the
    default pairing; ``link_graph`` reads them from it and still builds its
    ``PairedGraph`` through the public constructor."""
    tree = ast.parse(Path(linkchroma.__file__).with_name("core.py").read_text(encoding="utf-8"))
    (link,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "link_graph"]
    assert _names(link, "_link_frame")
    assert not _names(link, "third_edges") and not _names(link, "_sorted")
    assert not _names(link, "_require_third_edge_ids")
    calls = [n.func for n in ast.walk(link) if isinstance(n, ast.Call)]
    assert any(isinstance(f, ast.Name) and f.id == "PairedGraph" for f in calls)


# Every name the package exports.  An addition or removal shows in this
# list's diff, and a removed name needs its deprecation line in CHANGES.md.
PUBLIC_NAMES = [
    "BudgetExhausted",
    "ClosedWalk",
    "Colouring",
    "ComponentEmbedding",
    "DomainError",
    "Edge",
    "EdgeEnd",
    "GENUINE",
    "Multigraph",
    "PUNCTURED",
    "PairedGraph",
    "Pairing",
    "RotationSystem",
    "SchemaError",
    "SolverLog",
    "TwoComplex",
    "WalkStep",
    "brute_force_edge_chromatic",
    "chromatic_number",
    "edge_chromatic_number_complex",
    "genus_check",
    "heawood_colour_12",
    "heawood_degeneracy_order",
    "id_sort_key",
    "is_simplicial",
    "is_valid_complex_colouring",
    "is_valid_pair_colouring",
    "link_graph",
    "pair_chromatic_number",
    "paired_quotient",
    "simple_quotient",
    "third_edges",
    "validate_rotation",
    "validate_walk",
]


def test_public_names_are_pinned():
    tree = ast.parse(Path(linkchroma.__file__).read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(exported) == PUBLIC_NAMES
    assert all(hasattr(linkchroma, name) for name in PUBLIC_NAMES)


def _literal(tree, name):
    """The literal assigned to ``name`` at the top of a parsed module."""
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == name]
    return ast.literal_eval(value)


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"linkchroma.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_the_bench_names_only_what_the_library_has():
    """``perfbench`` reads the library by name: its traced ``SPECS``, its
    module list and every ``lib.<module>.<name>`` chain must resolve, and
    the tracer wraps a class entry through the method in the class body
    (``__post_init__`` for a constructor), so deleting or renaming one
    breaks ``--trace 1``."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(bench.glob("*.py"))}
    for module in _literal(trees["run.py"], "LIB_MODULES"):
        importlib.import_module(f"linkchroma.{module}")
    specs = [name for name, _, _ in _literal(trees["tracer.py"], "SPECS")]
    constructors = _literal(trees["tracer.py"], "_CONSTRUCTORS")
    assert specs and constructors <= set(specs)
    for name in specs:
        module, _, attr = name.partition(".")
        if "." in attr or name in constructors:
            cls_name, _, method = attr.partition(".")
            assert (method or "__post_init__") in vars(_resolve(f"{module}.{cls_name}")), name
        else:
            assert callable(_resolve(name)), name
    chains = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            text = ast.unparse(node) if isinstance(node, ast.Attribute) else ""
            if text.startswith("lib.") and text.count(".") >= 2 and all(map(str.isidentifier, text.split("."))):
                chains.add(text)
    assert "lib.core.Multigraph" in chains and "lib.construct.make_degree_faithful" in chains
    for chain in sorted(chains):
        _resolve(chain[len("lib."):])


# Where the library reads a graph's ``Edge`` records: the public constructor
# that makes them and stores the dart column from them, and the exhaustive
# oracle, which stays independent of the dart column.  Everything else reads
# ids and darts.
EDGE_READERS_ALLOWED = {
    "core.Multigraph.__post_init__",
    "corpus.chromatic_number_reference",
}


def test_only_the_allowed_functions_read_edge_records():
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == "edges":
                found.add(name)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "edge":
                found.add(name)
            visit(child, name)

    for path in sorted(Path(linkchroma.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found - EDGE_READERS_ALLOWED) == []
    assert sorted(EDGE_READERS_ALLOWED - found) == []  # no stale entries


def test_no_code_asks_how_an_object_was_built():
    """A constructor stores what it computed and the rest is built on first
    read, so no module reads an object's ``__dict__``, directly or through
    ``vars``, to learn which constructor made it."""
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")
    ]
    assert found == []
