"""JSON-compatible document formats and DOT export.

Document shapes (unknown fields are rejected at every level):

* graph:         ``{"vertices": [...], "edges": [{"id", "end0", "end1"}]}``
* paired graph:  graph plus ``{"pairs": [[u, v], ...]}`` and an optional
                 ``{"rotation": {"<vertex>": [[edge, side], ...]}}``
* complex:       ``{"skeleton": <graph>, "cells": [[[edge, entry_side], ...], ...],
                 "kind": "genuine" | "punctured"}``
* colouring:     ``{"palette_size": k, "assignment": {"<id>": colour}}``
* witness:       paired graph plus ``{"designated_pairs": [...], "provenance": {...}}``

Ids may be ints, strings, or arrays of these nested at most
``MAX_ID_DEPTH`` deep; arrays load as tuples.  JSON object keys must be
strings, so mapping keys (rotation vertices, colouring targets) use an
id's text form and are resolved against the ids of the object they
accompany.  Writing fails if two ids of one object share a text form.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Mapping, Optional

from .core import (
    GENUINE,
    MAX_ID_DEPTH,
    PUNCTURED,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    _check_junctions,
    _is_id,
    _records,
    _rows,
    _unknown_edge,
    id_sort_key,
)
from .errors import DomainError, SchemaError, short_repr

DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#17becf", "#666666", "#1b9e77", "#d95f02", "#7570b3",
)


def id_to_json(value):
    if isinstance(value, tuple):
        return [id_to_json(v) for v in value]
    return value


def _tuple_from_json(value: list, depth: int) -> tuple:
    if depth > MAX_ID_DEPTH:
        raise SchemaError(f"ids may nest arrays at most {MAX_ID_DEPTH} deep")
    return tuple(_tuple_from_json(v, depth + 1) if isinstance(v, list) else v for v in value)


def id_from_json(value):
    """An id from its JSON form: arrays, nested at most ``MAX_ID_DEPTH``
    deep, load as tuples."""
    out = _tuple_from_json(value, 1) if isinstance(value, list) else value
    try:
        id_sort_key(out)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
    return out


def id_text(value) -> str:
    """Human-readable text form of an id, used for JSON mapping keys."""
    if isinstance(value, tuple):
        return ":".join([id_text(v) for v in value])
    return str(value)


def text_key_map(ids, what: str) -> dict:
    """Map text forms back to ids, failing on collisions."""
    out = {}
    for i in ids:
        t = id_text(i)
        if t in out and out[t] != i:
            raise SchemaError(
                f"{what}: ids {short_repr(out[t])} and {short_repr(i)} "
                f"share the text form {short_repr(t)}"
            )
        out[t] = i
    return out


def _check_fields(doc, required, optional, what):
    if type(doc) is not dict and not isinstance(doc, Mapping):  # a dict skips the ABC check
        raise SchemaError(f"{what} document must be a JSON object")
    for name in required:
        if name not in doc:
            raise SchemaError(f"{what} document is missing field {name!r}")
    for name in doc:
        if name not in required and name not in optional:
            raise SchemaError(f"unknown field {short_repr(name)} in {what} document")


def _parse_side_entry(item, what: str, shape: str) -> tuple:
    """An ``[edge, side]`` array as ``(edge id, side)``.  The side must be
    the integer 0 or 1; JSON ``true``/``false`` (and ``1.0``) compare equal
    to those in Python, so the type is checked too."""
    if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int and item[1] in (0, 1)):
        raise SchemaError(f"{what} {short_repr(item)} must be {shape}")
    return id_from_json(item[0]), item[1]


# ---------------------------------------------------------------------------
# Graphs


def graph_to_doc(g: Multigraph) -> dict:
    """The graph as a document, written from its vertex ids, edge ids and
    dart column, so a graph the library built makes no ``Edge`` record.
    Each vertex id is converted once, and each end gets its own copy."""
    vertices = [id_to_json(v) for v in g.vertices]
    # a flat list is copied; any other id is converted again, which copies
    # the inner lists of an id that nests tuples
    flat = [type(n) is list and list not in map(type, n) for n in vertices]
    ends = [vertices[p].copy() if flat[p] else id_to_json(g.vertices[p]) for p in g._at]
    return {
        "vertices": vertices,
        "edges": [
            {"id": id_to_json(i), "end0": a, "end1": b}
            for i, a, b in zip(g._ids, ends[::2], ends[1::2])
        ],
    }


def graph_from_doc(doc) -> Multigraph:
    _check_fields(doc, ("vertices", "edges"), (), "graph")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise SchemaError("graph fields 'vertices' and 'edges' must be arrays")
    raw = doc["edges"]
    # Edge objects that are dicts of the three fields, and ids that are all
    # ints and strings, which parse to themselves, are taken a column at a
    # time; any other graph is read an edge at a time.
    columns = None
    if _DICT.issuperset(map(type, raw)) and _EDGE_FIELDS.issuperset(map(frozenset, raw)):
        columns = [list(map(itemgetter(k), raw)) for k in ("id", "end0", "end1")]
    if columns is not None and _PLAIN.issuperset(map(type, chain(doc["vertices"], *columns))):
        vertices = tuple(doc["vertices"])
        edges = list(_records(Edge, zip(*columns)))
    else:
        vertices = tuple(id_from_json(v) for v in doc["vertices"])
        edges = []
        for e in doc["edges"]:
            _check_fields(e, ("id", "end0", "end1"), (), "edge")
            edges.append(Edge(id_from_json(e["id"]), id_from_json(e["end0"]), id_from_json(e["end1"])))
    try:
        return Multigraph(vertices, tuple(edges))
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


# ---------------------------------------------------------------------------
# Paired graphs


def _rotation_to_doc(g: Multigraph, rot: RotationSystem) -> dict:
    text_key_map(g.vertices, "paired graph")  # reject text-form collisions
    return {
        id_text(v): [[id_to_json(end.edge), end.side] for end in order]
        for v, order in rot.orders
    }


def _rotation_from_doc(doc, vertices) -> RotationSystem:
    if not isinstance(doc, Mapping):
        raise SchemaError("rotation must be a JSON object")
    by_text = text_key_map(vertices, "rotation")
    orders = {}
    for key, order in doc.items():
        if key not in by_text:
            raise SchemaError(f"rotation mentions unknown vertex {short_repr(key)}")
        if not isinstance(order, list):
            raise SchemaError(f"rotation order at {short_repr(key)} must be an array")
        orders[by_text[key]] = tuple(
            EdgeEnd(*_parse_side_entry(item, "rotation entry", "[edge, side]")) for item in order
        )
    return RotationSystem(orders)


def _paired_doc(graph: Multigraph, pairs, rotation: Optional[RotationSystem]) -> dict:
    """The fields shared by paired-graph and witness documents."""
    doc = graph_to_doc(graph)
    doc["pairs"] = [[id_to_json(u), id_to_json(v)] for u, v in pairs]
    if rotation is not None:
        doc["rotation"] = _rotation_to_doc(graph, rotation)
    return doc


def paired_graph_to_doc(pg: PairedGraph) -> dict:
    return _paired_doc(pg.graph, pg.pairing.pairs, pg.rotation)


def _parse_pair_list(raw, what: str) -> tuple:
    if not isinstance(raw, list):
        raise SchemaError(f"{what!r} must be an array")
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"pair {short_repr(item)} must be an array of two vertices")
        pairs.append((id_from_json(item[0]), id_from_json(item[1])))
    return tuple(pairs)


def paired_graph_from_doc(doc) -> PairedGraph:
    _check_fields(doc, ("vertices", "edges", "pairs"), ("rotation",), "paired graph")
    g = graph_from_doc({"vertices": doc["vertices"], "edges": doc["edges"]})
    try:
        pairing = Pairing(_parse_pair_list(doc["pairs"], "pairs"))
        rotation = None
        if "rotation" in doc:
            rotation = _rotation_from_doc(doc["rotation"], g.vertices)
        return PairedGraph(g, pairing, rotation)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


# ---------------------------------------------------------------------------
# Complexes


def complex_to_doc(c: TwoComplex) -> dict:
    # a step names its edge by the edge's id, so only a tuple id needs
    # converting
    if any(map(isinstance, c.skeleton.edge_ids(), repeat(tuple))):
        cells = [
            [[e if type(e) in (int, str) else id_to_json(e), entry] for e, entry in cell.steps]
            for cell in c.cells
        ]
    else:
        cells = [list(map(list, cell.steps)) for cell in c.cells]
    return {"skeleton": graph_to_doc(c.skeleton), "cells": cells, "kind": c.kind}


def complex_from_doc(doc) -> TwoComplex:
    _check_fields(doc, ("skeleton", "cells", "kind"), (), "complex")
    skeleton = graph_from_doc(doc["skeleton"])
    if doc["kind"] not in (GENUINE, PUNCTURED):
        raise SchemaError(f"unknown complex kind {short_repr(doc['kind'])}")
    if not isinstance(doc["cells"], list):
        raise SchemaError("'cells' must be an array")
    table, dart_of = skeleton._steps
    cells = []  # the steps of each cell, and its darts or, if the table lacks a step, the fault
    for cell in doc["cells"]:
        if not isinstance(cell, list):
            raise SchemaError("each cell must be an array of steps")
        # A cell of list rows that the table holds, every member an int or
        # a str, takes the table's steps: a row equal to a step is a pair of
        # an edge id and an int side.  Any other cell is parsed a row at a
        # time and keeps the steps it parsed.
        try:
            darts = list(map(dart_of.get, map(tuple, cell)))
        except TypeError:  # a row that is not iterable, or an unhashable member
            darts = [None]
        if None not in darts and frozenset(map(type, cell)) == _LIST and _PLAIN.issuperset(map(type, chain.from_iterable(cell))):
            steps = tuple(map(table.__getitem__, darts))
        else:
            steps = tuple(WalkStep(*_parse_side_entry(item, "walk step", "[edge, entry_side]")) for item in cell)
            if not steps:
                raise SchemaError("a closed walk must be nonempty")
            darts = list(map(dart_of.get, steps))
            if None in darts:
                darts = _unknown_edge(steps, darts)
        cells.append((steps, darts))
    try:  # each cell checked as the constructor checks it, in cell order
        for steps, darts in cells:
            if isinstance(darts, DomainError):
                raise darts
            _check_junctions(skeleton, darts)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
    return TwoComplex._from_steps(skeleton, [steps for steps, _ in cells], doc["kind"])


# ---------------------------------------------------------------------------
# Colourings


def colouring_to_doc(palette_size: int, assignment: Mapping) -> dict:
    # one text form per key, in id order; text-form collisions are rejected.
    # A column of exact ints, of exact strings or of flat tuples of exact
    # ints sorts natively in id order, and is keyed and texted in one pass.
    keys = list(assignment)
    kinds = frozenset(map(type, keys))
    texts = None
    if kinds == _INT or kinds == _STR:
        keys.sort()
        texts = map(str, keys)
    elif kinds == _TUPLE and _INT.issuperset(map(type, chain.from_iterable(keys))):
        keys.sort()
        texts = map(":".join, map(partial(map, str), keys))
    doc = None if texts is None else dict(zip(texts, map(assignment.__getitem__, keys)))
    if doc is None or len(doc) != len(keys):  # any other column, or a shared text form
        by_text = text_key_map(sorted(assignment, key=id_sort_key), "colouring")
        doc = {t: assignment[k] for t, k in by_text.items()}
    return {"palette_size": palette_size, "assignment": doc}


# ---------------------------------------------------------------------------
# Witnesses


def witness_to_doc(witness) -> dict:
    """The witness as a document.  A witness is held loosely, so a pair
    member that is not an id (``5.0`` for vertex 5) is refused here rather
    than written into a document that cannot be read back."""
    for what, pairs in (("pair", witness.pairs), ("designated pair", witness.designated_pairs)):
        for pair in _rows(pairs, f"{what}s {{}} must be an iterable of pairs"):
            members = tuple(_rows(pair, f"{what} {{}} must be a pair of ids"))
            if len(members) != 2:
                raise DomainError(f"{what} {short_repr(pair)} must be a pair of ids")
            for v in members:
                if not _is_id(v):
                    raise DomainError(f"{what} {short_repr(pair)} holds {short_repr(v)}, which is not an id")
    doc = _paired_doc(witness.graph, witness.pairs, witness.rotation)
    doc["designated_pairs"] = [
        [id_to_json(u), id_to_json(v)] for u, v in witness.designated_pairs
    ]
    doc["provenance"] = dict(witness.provenance)
    return doc


def witness_from_doc(doc):
    """Parse a witness document with only shape-level checks, so domain
    problems (bad rotation, broken pairing) surface as verification
    failures rather than load errors."""
    from .construct import TwelvePireWitness

    _check_fields(
        doc,
        ("vertices", "edges", "pairs", "designated_pairs", "provenance"),
        ("rotation",),
        "witness",
    )
    g = graph_from_doc({"vertices": doc["vertices"], "edges": doc["edges"]})
    rotation = None
    if "rotation" in doc:
        rotation = _rotation_from_doc(doc["rotation"], g.vertices)
    if not isinstance(doc["provenance"], Mapping):
        raise SchemaError("'provenance' must be a JSON object")
    return TwelvePireWitness(
        graph=g,
        pairs=_parse_pair_list(doc["pairs"], "pairs"),
        rotation=rotation,
        designated_pairs=_parse_pair_list(doc["designated_pairs"], "designated_pairs"),
        provenance=dict(doc["provenance"]),
    )


# ---------------------------------------------------------------------------
# Serialisation helpers and document sniffing


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_INT = frozenset((int,))
_STR = frozenset((str,))
_TUPLE = frozenset((tuple,))
_LIST = frozenset((list,))
_DICT = frozenset((dict,))
_CELL_TYPES = _SCALAR_TYPES | _LIST
_PLAIN = frozenset((int, str))
_EDGE_FIELDS = frozenset((frozenset(("id", "end0", "end1")),))


def _scalar_text(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # repr, NaN, Infinity or -Infinity
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _scalar_texts(values):
    """The texts of ``values`` if every one is a scalar, else None."""
    kinds = frozenset(map(type, values))
    if kinds == _INT:
        return map(int.__repr__, values)
    if kinds <= _SCALAR_TYPES:
        return map(_scalar_text, values)
    return None


def _cell_text(newline: list, depth: int, value) -> str:
    """A scalar, or a list at ``depth`` that nests only lists and scalars."""
    if type(value) is not list:
        return _scalar_text(value)
    if not value:
        return "[]"
    inner = newline[depth + 1]
    return "[" + inner + ("," + inner).join([_cell_text(newline, depth + 1, v) for v in value]) + newline[depth] + "]"


def _cell_nesting(column) -> Optional[int]:
    """How deep the lists among ``column`` nest, if they hold only lists
    and scalars and nest at most ``MAX_ID_DEPTH`` deep, as array ids do;
    else None."""
    level = column
    for nesting in range(MAX_ID_DEPTH + 1):
        kinds = frozenset(map(type, level))
        if kinds <= _SCALAR_TYPES:
            return nesting
        if not kinds <= _CELL_TYPES:
            return None
        level = list(chain.from_iterable(filter(list.__instancecheck__, level)))
    return None


def _table_text(rows: list, newline: list, depth: int) -> Optional[str]:
    """The text of ``rows``, a list at ``depth``, if it is a table: every
    item a list of one length, or every item a dict with one key order,
    fewer columns than rows, and every cell a scalar or a list as
    ``_cell_nesting`` allows.  Cell walks, edge lists, pairs and rotation
    orders are tables.  A table of int rows is C-encoded compactly and
    re-indented; any other is typed a column at a time and texted by
    ``map``.  None for any other list."""
    kinds = frozenset(map(type, rows))
    if kinds == _LIST:
        shapes = frozenset(map(len, rows))
    elif kinds == _DICT:
        shapes = frozenset(map(tuple, rows))
    else:
        return None
    if len(shapes) != 1:
        return None
    (shape,) = shapes
    width = shape if kinds == _LIST else len(shape)
    if not 0 < width < len(rows):
        return None  # a list with more columns than rows costs less in the loop
    inner, row_in = newline[depth + 1], newline[depth + 2]
    if kinds == _LIST and frozenset(map(type, chain.from_iterable(rows))) == _INT:
        # "[[1,2],[3,4]]", C-encoded: every comma inside a row, then every
        # "],[" between rows, is a line break
        text = json.dumps(rows, separators=(",", ":"), check_circular=False)[2:-2].replace("],[", "\0")
        text = text.replace(",", "," + row_in).replace("\0", inner + "]," + inner + "[" + row_in)
        return "[" + inner + "[" + row_in + text + inner + "]" + newline[depth] + "]"
    if kinds == _LIST:
        columns = zip(*rows)
        heads = [""] * width
        opening, closing = "[", "]"
    else:
        if frozenset(map(type, shape)) != _STR:
            return None
        columns = zip(*map(dict.values, rows))
        # a key's text may hold braces, which the row template must escape
        heads = [encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}") + ": " for k in shape]
        opening, closing = "{{", "}}"  # escaped for the template
    texts = []
    for column in columns:
        kinds = frozenset(map(type, column))
        if kinds == _INT:
            texts.append(map(int.__repr__, column))
        elif kinds <= _SCALAR_TYPES:
            texts.append(map(_scalar_text, column))
        else:
            nesting = _cell_nesting(column)
            if nesting is None:
                return None
            while len(newline) < depth + nesting + 3:
                newline.append(newline[-1] + "  ")
            texts.append(map(partial(_cell_text, newline, depth + 2), column))
    template = opening + row_in + ("," + row_in).join([h + "{}" for h in heads]) + inner + closing
    return "[" + inner + ("," + inner).join(map(template.format, *texts)) + newline[depth] + "]"


def dumps(doc: dict) -> str:
    """``doc`` as text, byte for byte ``json.dumps(doc, indent=2) + "\n"``,
    for documents whose object keys are strings.

    ``json.dumps`` runs its pure-Python encoder whenever it indents.  This
    writer is a loop over an explicit stack of open containers, so there
    is no depth limit, and it writes in one piece each container that holds
    only scalars and each table of ``_table_text``: cell walks, edge lists,
    pairs and rotation orders.
    """
    out = []
    newline = ["\n"]  # newline[d]: a line break and the indent of depth d
    stack = []  # the open containers around the current one
    open_ids = set()
    items, is_dict, depth, sep = iter((doc,)), False, 0, ""
    while True:
        for item in items:
            if is_dict:
                key, value = item
                head = sep + encode_basestring_ascii(key) + ": "
            else:
                value, head = item, sep
            sep = "," + newline[depth]
            if not isinstance(value, (list, tuple, dict)):
                out.append(head + _scalar_text(value))
                continue
            brackets = "{}" if isinstance(value, dict) else "[]"
            if not value:
                out.append(head + brackets)
                continue
            while len(newline) < depth + 3:
                newline.append(newline[-1] + "  ")
            inner = newline[depth + 1]
            close = newline[depth] + brackets[1]
            if isinstance(value, dict):
                texts = _scalar_texts(value.values())
                if texts is not None:
                    texts = [encode_basestring_ascii(k) + ": " + t for k, t in zip(value, texts)]
            else:
                texts = _scalar_texts(value)
            if texts is not None:
                out.append(head + brackets[0] + inner + ("," + inner).join(texts) + close)
                continue
            if type(value) is list and (text := _table_text(value, newline, depth)) is not None:
                out.append(head + text)
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            out.append(head + brackets[0])
            stack.append((items, is_dict, depth, sep, value, close))
            is_dict = isinstance(value, dict)
            items, depth, sep = iter(value.items() if is_dict else value), depth + 1, inner
            break
        else:
            if not stack:
                return "".join(out) + "\n"
            items, is_dict, depth, sep, value, close = stack.pop()
            open_ids.discard(id(value))
            out.append(close)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers longer than the
        # interpreter's digit limit; RecursionError, arrays nested too deep.
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be a JSON object")
    return doc


def save(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not valid UTF-8: {exc}") from None
    return loads(text)


def sniff_kind(doc: Mapping) -> str:
    """Classify a document as witness, complex, paired graph, or graph."""
    if not isinstance(doc, Mapping):
        raise SchemaError("top-level document must be a JSON object")
    if "designated_pairs" in doc:
        return "witness"
    if "skeleton" in doc:
        return "complex"
    if "pairs" in doc:
        return "paired"
    return "graph"


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Multigraph, pairing: Optional[Pairing] = None) -> str:
    """DOT rendering of a multigraph named ``G``; members of one pair share
    a border colour (the palette repeats after 12 pairs).  Edges are written
    from the edge ids and the dart column, as ``graph_to_doc`` does."""
    lines = ["graph G {"]
    colour_of = {}
    if pairing is not None:
        for i, pair in enumerate(pairing.pairs):
            for v in pair:
                colour_of[v] = DOT_PALETTE[i % len(DOT_PALETTE)]
    names = [_dot_quote(id_text(v)) for v in g.vertices]
    for v, name in zip(g.vertices, names):
        attrs = ""
        if v in colour_of:
            attrs = f' [color="{colour_of[v]}", penwidth=3]'
        lines.append(f"  {name}{attrs};")
    ends = map(names.__getitem__, g._at)
    for i, a, b in zip(g._ids, ends, ends):
        lines.append(f"  {a} -- {b} [label={_dot_quote(id_text(i))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
