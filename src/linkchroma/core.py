"""Combinatorial model of multigraphs, rotation systems, closed walks and
(punctured) 2-complexes, with the operations connecting them: third-edges,
link graphs, paired quotients and face-traced genus.

Conventions used throughout:

* Ids (for vertices and edges) are ints, strings, or tuples of these.
  ``id_sort_key`` gives them a total order, applied only by the
  constructors; every container stores its parts in that order, and
  consumers walk the stored order and break ties by position, so all
  derived objects are reproducible byte-for-byte.
* An edge has two distinguishable ends, side 0 and side 1.  A loop has
  both ends at the same vertex but the sides remain distinct.
* A constructor stores what it computed.  The rest is built on first
  read by a ``_BuiltOnRead`` descriptor and kept, safely, as instances
  are frozen.  It is stored with ``object.__setattr__``, which passes the
  frozen check and, unlike a write through ``__dict__``, keeps CPython's
  fast attribute reads of the instance.  Equality, hashing and ``repr``
  see no difference: only ``edges`` and ``orders`` are fields, and they
  are built as the public constructors store them.
* Ids are keyed at the boundary, positions are used inside.  Every graph
  stores its vertex ids, its edge ids and the dart column, the vertex
  position of each dart ``2 * edge_position + side``; the public
  constructor also stores the ``Edge`` records and the vertex positions
  it checked them with; no edge index is kept.  A skeleton's link-graph
  vertices and default pairing, which every complex on it shares, are
  built on first read.  Every paired graph stores the pair position of
  each vertex position.
* All types are immutable; every operation is a pure function.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_, itemgetter
from typing import Mapping, NamedTuple, Optional, Union

from .errors import DomainError, short_repr

VertexId = Union[int, str, tuple]
EdgeId = Union[int, str, tuple]

GENUINE = "genuine"
PUNCTURED = "punctured"

MAX_ID_DEPTH = 32  # deepest tuple nesting an id may have
_PLAIN_IDS = frozenset((int, str))


def id_sort_key(value):
    """Total order over ids: ints first, then strings, then tuples.

    Doubles as the id validator; raises DomainError for anything else,
    including tuples nested more than ``MAX_ID_DEPTH`` deep.
    """
    t = type(value)
    if t is int:
        return (0, value)
    if t is str:
        return (1, value)
    if t is tuple:
        return _tuple_sort_key(value, 1)
    if isinstance(value, bool):
        raise DomainError("booleans are not valid ids")
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return _tuple_sort_key(value, 1)
    raise DomainError(f"unsupported id {short_repr(value)}: ids are ints, strings or tuples")


def _tuple_sort_key(value: tuple, depth: int) -> tuple:
    if depth > MAX_ID_DEPTH:
        raise DomainError(f"ids may nest tuples at most {MAX_ID_DEPTH} deep")
    # plain ints and strings, the common members, are keyed inline; bools
    # and subclasses take id_sort_key's checks
    return (2, tuple([
        (0, v) if type(v) is int else (1, v) if type(v) is str
        else _tuple_sort_key(v, depth + 1) if isinstance(v, tuple) else id_sort_key(v)
        for v in value
    ]))


def _is_id(value) -> bool:
    """Whether ``value`` is an id under ``id_sort_key``: ``True`` and ``1.0``
    compare equal to the id ``1`` but are not ids."""
    try:
        id_sort_key(value)
    except DomainError:
        return False
    return True


def _rows(value, fault: str):
    """``iter(value)``, or a DomainError naming ``value`` in ``fault`` if
    it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise DomainError(fault.format(short_repr(value))) from None


def _member(value, container) -> bool:
    """``value in container``, false for an unhashable value, which no id is."""
    try:
        return value in container
    except TypeError:
        return False


class EdgeEnd(NamedTuple):
    """One of the two distinguishable ends of an edge.

    A third-edge (an end-third of a topological edge) is canonically named
    by the edge-end it contains, so this type doubles as the vertex type of
    link graphs.
    """

    edge: EdgeId
    side: int


class Edge(NamedTuple):
    id: EdgeId
    end0: VertexId
    end1: VertexId

    @property
    def is_loop(self) -> bool:
        return self.end0 == self.end1


def _edge_records(g: "Multigraph") -> tuple:
    """The ``Edge``s of a graph built on its columns."""
    ends = list(map(g.vertices.__getitem__, g._at))
    return tuple(_records(Edge, zip(g._ids, ends[::2], ends[1::2])))


class _BuiltOnRead:
    """A value built on first read and kept under the name it is bound to:
    a non-data descriptor, so a stored value shadows it.  Written as a
    decorator on ``build``, or as the default, ``()`` through the class, of
    a field that an internal constructor leaves unset."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class Multigraph:
    """Vertices plus edges with two distinguishable ends.

    Loops and parallel edges are allowed.  The degree of a vertex counts
    edge-ends, so a loop contributes 2.
    """

    vertices: tuple = ()
    edges: tuple = _BuiltOnRead(_edge_records)

    def __post_init__(self):
        verts = tuple(sorted(_rows(self.vertices, "graph vertices {} must be an iterable of ids"), key=id_sort_key))
        # outside the try, as ``row`` is unset until a row is read
        rows = _rows(self.edges, "graph edges {} must be an iterable of (id, end0, end1) rows")
        try:  # ``row`` is the row being made an Edge when that fails
            edges = [e if isinstance(e, Edge) else Edge(*(row := e)) for e in rows]
        except TypeError:
            raise DomainError(f"edge {short_repr(row)} must be an (id, end0, end1) row") from None
        edges.sort(key=lambda e: id_sort_key(e.id))
        edges = tuple(edges)
        index = {v: i for i, v in enumerate(verts)}
        if len(index) != len(verts):
            raise DomainError("duplicate vertex id")
        ids = tuple(map(itemgetter(0), edges))
        ends = list(chain.from_iterable(map(itemgetter(1, 2), edges)))
        try:  # the dart column; an unhashable end names no vertex
            at = list(map(index.__getitem__, ends))
        except (KeyError, TypeError):
            at = None
        if len(set(ids)) != len(ids) or at is None:
            seen = set()  # find the first faulty edge in stored order
            for e in edges:
                if e.id in seen:
                    raise DomainError(f"duplicate edge id {short_repr(e.id)}")
                if not (_member(e.end0, index) and _member(e.end1, index)):
                    raise DomainError(f"edge {short_repr(e.id)} references a missing vertex")
                seen.add(e.id)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_at", at)
        if not _plainly_nested(ends):
            # an end such as True or 1.0 is in the vertex set but is not an id
            bad = next((e for e in self.edges if not (_is_id(e.end0) and _is_id(e.end1))), None)
            if bad is not None:
                raise DomainError(f"edge {short_repr(bad.id)} names a vertex by an id that only compares equal to it")

    @classmethod
    def _from_columns(cls, verts: tuple, ids: tuple, at: list) -> "Multigraph":
        """The internal constructor: stores only vertex ids and edge ids in
        id order and the dart column ``at``, and keys or checks nothing."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", verts)
        object.__setattr__(g, "_ids", ids)
        object.__setattr__(g, "_at", at)
        return g

    @classmethod
    def _extended(cls, g: "Multigraph", new_ids: list, new_at: list) -> tuple:
        """``g`` with the edges ``new_ids`` added, their ends in ``new_at``,
        and the stored position of each old then new edge.  ``new_ids`` must
        be in id order, as ``g``'s are: the two runs are merged a block at a
        time by ``_gallop``, which keys only the ids it compares.  New ids
        are keyed, to name the first that is not an id, only if
        ``_plainly_nested`` fails.  A repeated id gets the constructor's
        report: all ids are keyed and stably sorted, ``g``'s first among
        equals, and the later one named."""
        if not _plainly_nested(new_ids):
            for i in new_ids:
                id_sort_key(i)
        ids = g._ids + tuple(new_ids)
        if len(set(ids)) != len(ids):
            keys = list(map(id_sort_key, ids))
            source = sorted(range(len(ids)), key=keys.__getitem__)
            k = next(k for k in range(1, len(ids)) if keys[source[k - 1]] == keys[source[k]])
            raise DomainError(f"duplicate edge id {short_repr(ids[source[k]])}")
        # ``runs``: the rest of each run, the one whose block is next first;
        # ids are distinct, so a block ends where the other run's head goes
        blocks, runs = [], [(0, len(g._ids)), (len(g._ids), len(ids))]
        while runs[0][0] < runs[0][1] and runs[1][0] < runs[1][1]:
            (lo, hi), other = runs
            k = _gallop(ids, id_sort_key(ids[other[0]]), lo, hi)
            blocks.append((lo, k))
            runs = [other, (k, hi)]
        blocks += runs
        pool = g._at + new_at  # of each old then new edge
        order, at, position = [], [], [0] * len(ids)
        for lo, hi in blocks:
            position[lo:hi] = range(len(order), len(order) + hi - lo)
            order += ids[lo:hi]
            at += pool[2 * lo : 2 * hi]
        return cls._from_columns(g.vertices, tuple(order), at), position

    @_BuiltOnRead
    def _index(self) -> dict:
        """The position of each vertex id, stored by the public constructor."""
        return {v: i for i, v in enumerate(self.vertices)}

    @_BuiltOnRead
    def _steps(self) -> tuple:
        """The ``WalkStep`` of each dart ``2 * edge_position + side``, and a
        dict from step to dart.  Walks built by the library share these step
        objects."""
        steps = tuple(_records(WalkStep, _dart_rows(self)))
        return steps, dict(zip(steps, range(len(steps))))

    @_BuiltOnRead
    def _link_frame(self) -> tuple:
        """The link-graph vertices, the third-edges, and their default
        pairing: every complex on this graph shares them."""
        _require_third_edge_ids(self)
        verts = tuple(third_edges(self))
        return verts, Pairing._sorted(tuple(zip(verts[::2], verts[1::2])))

    def edge_ids(self) -> tuple:
        return self._ids


def _plainly_nested(ids: list) -> bool:
    """Whether each of ``ids`` is an exact int or str, or a tuple of such ids
    nested at most ``MAX_ID_DEPTH`` deep: typed a level at a time, with no
    key made.  ``False`` means only that the ids must be keyed to tell."""
    level = ids
    for _ in range(MAX_ID_DEPTH):
        kinds = set(map(type, level)) - _PLAIN_IDS
        if not kinds:
            return True
        if not all(issubclass(k, tuple) for k in kinds):
            return False
        level = list(chain.from_iterable(filter(tuple.__instancecheck__, level)))
    return _PLAIN_IDS.issuperset(map(type, level))


def _gallop(ids: tuple, key, lo: int, end: int) -> int:
    """The first index in ``ids[lo:end]``, a run in id order, whose id sorts
    after ``key``, else ``end``: probed at ``lo``, ``lo + 1``, ``lo + 3``, ...
    then bisected, so a block of b ids costs about 2 log b keys (timsort's)."""
    hi, step = lo, 1
    while hi < end and not key < id_sort_key(ids[hi]):
        lo, hi, step = hi + 1, hi + step, 2 * step
    return bisect_right(ids, key, lo, min(hi, end), key=id_sort_key)


_other_end = (1).__xor__  # a dart to the dart at the other end of its edge


def _components(g: Multigraph) -> tuple:
    """Union-find over vertex positions.  Returns the vertex position of
    each dart ``2 * edge_position + side``, the component number of each
    vertex position, and the number of components.  A union keeps the
    smaller root, so every root is its component's first stored vertex and
    components are numbered in that order."""
    at = g._at
    parent = list(range(len(g.vertices)))
    ends = iter(at)
    for a, b in zip(ends, ends):  # the two ends of each edge
        # the two finds, halving the path on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # Every link points to a smaller position, so a position's parent has
    # its component number already.
    comp = [0] * len(parent)
    count = 0
    for i, p in enumerate(parent):
        if p == i:
            comp[i] = count
            count += 1
        else:
            comp[i] = comp[p]
    return at, comp, count


def third_edges(g: Multigraph) -> list:
    """The 2|E| third-edges of ``g``, sorted by (edge id, side)."""
    return list(_records(EdgeEnd, _dart_rows(g)))


def _dart_rows(g: Multigraph) -> zip:
    """(edge id, side) for each dart ``2 * edge_position + side`` of ``g``."""
    ids = g._ids
    return zip(chain.from_iterable(zip(ids, ids)), (0, 1) * len(ids))


def _records(cls, rows):
    """``cls(*row)`` for each row: a ``NamedTuple`` is a tuple, so
    ``tuple.__new__`` fills one from its row in C, where calling ``cls``
    runs its Python-level ``__new__``."""
    return map(tuple.__new__, repeat(cls), rows)


def _side_records(cls, rows, fault: str) -> tuple:
    """``rows`` as a tuple of ``cls``, (id, side) records, in one pass that
    raises at the first row that is not a pair with side 0 or 1, ``fault``
    naming it; a row that is not iterable is refused too.  A side such as
    ``False`` or ``1.0`` is kept as the int it equals, so that a document
    written from the rows loads again."""
    out = []
    for r in rows:
        if not isinstance(r, cls):
            try:
                r = tuple.__new__(cls, r)
            except TypeError:  # a row that is not iterable
                raise DomainError(fault.format(short_repr(r))) from None
        if len(r) != 2 or r[1] not in (0, 1):
            raise DomainError(fault.format(short_repr(r if len(r) == 2 else tuple(r))))
        if type(r[1]) is not int:
            r = tuple.__new__(cls, (r[0], 1 if r[1] else 0))
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# Closed walks


class WalkStep(NamedTuple):
    """One directed edge traversal: enter ``edge`` at side ``entry`` and
    exit at the other side.  Loops are traversed in two distinguishable
    directions, told apart by the entry side."""

    edge: EdgeId
    entry: int


@dataclass(frozen=True)
class ClosedWalk:
    """Cyclic sequence of directed edge traversals.

    The stored order and starting step are significant (sealing reads the
    first step), so no cyclic normalisation is applied.
    """

    steps: tuple

    def __post_init__(self):
        try:
            steps = _side_records(WalkStep, self.steps, "walk step {} has an invalid entry side")
        except TypeError:  # steps that are not iterable
            raise DomainError(f"walk steps {short_repr(self.steps)} must be an iterable of steps") from None
        if not steps:
            raise DomainError("a closed walk must be nonempty")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def validate_walk(g: Multigraph, walk: ClosedWalk) -> None:
    """Check that ``walk`` lives in ``g`` and is cyclically vertex-compatible:
    every edge is known, then every step names its edge by that edge's id,
    then each step exits where the next one enters, the first fault in step
    order reported."""
    steps = walk.steps
    table, dart_of = g._steps
    try:
        darts = list(map(dart_of.get, steps))
    except TypeError:  # an unhashable id, which names no edge
        darts = [dart_of[s] if _member(s, dart_of) else None for s in steps]
    if None in darts:
        raise _unknown_edge(steps, darts)
    if not all(map(is_, steps, map(table.__getitem__, darts))):
        for s, d in zip(steps, darts):
            if s[0] is not table[d][0] and not _is_id(s[0]):
                raise DomainError(
                    f"walk step {short_repr(s)} names edge {short_repr(table[d][0])} "
                    "by an id that only compares equal to it"
                )
    _check_junctions(g, darts)


def _unknown_edge(steps: tuple, darts: list) -> DomainError:
    """The fault of the first step of ``steps`` whose dart is ``None``."""
    return DomainError(f"walk not contained in skeleton: unknown edge {short_repr(steps[darts.index(None)].edge)}")


def _check_junctions(g: Multigraph, darts: list) -> None:
    """Check that a walk on the darts ``2 * edge_position + entry`` of ``g``
    exits each step where the next one enters, the first fault reported."""
    if len(g.vertices) == 1:
        return  # every step enters and exits at the one vertex
    at = g._at
    ins = list(map(at.__getitem__, darts))
    outs = list(map(at.__getitem__, map(_other_end, darts)))
    ins.append(ins.pop(0))
    if outs != ins:
        i = next(i for i, (here, there) in enumerate(zip(outs, ins)) if here != there)
        raise DomainError(f"walk is not vertex-compatible between steps {i} and {(i + 1) % len(darts)}")


# ---------------------------------------------------------------------------
# Pairings and paired graphs


@dataclass(frozen=True)
class Pairing:
    """Partition of a vertex set into classes of size exactly two."""

    pairs: tuple = ()

    def __post_init__(self):
        canon, firsts = [], []
        seen = set()
        fault = "pairing class {} must have exactly two distinct members"
        for raw in _rows(self.pairs, "pairing {} must be an iterable of classes"):
            try:
                members = tuple(raw)
            except TypeError:  # a class that is not iterable
                raise DomainError(fault.format(short_repr(raw))) from None
            if len(members) != 2 or members[0] == members[1]:
                raise DomainError(fault.format(short_repr(members)))
            keys = (id_sort_key(members[0]), id_sort_key(members[1]))
            if keys[1] < keys[0]:
                members, keys = members[::-1], keys[::-1]
            for m in members:
                if m in seen:
                    raise DomainError(f"vertex {short_repr(m)} appears in more than one pair")
                seen.add(m)
            canon.append(members)
            firsts.append(keys[0])
        # every member is keyed once; classes already in order sort in one pass
        self._store(tuple([canon[i] for i in sorted(range(len(canon)), key=firsts.__getitem__)]))

    @classmethod
    def _sorted(cls, canon: tuple) -> "Pairing":
        """A pairing from classes that are already canonical and in order:
        the constructor without its keys."""
        p = object.__new__(cls)
        p._store(canon)
        return p

    def _store(self, canon: tuple) -> None:
        object.__setattr__(self, "pairs", canon)
        # the position of each member's pair
        object.__setattr__(self, "_pair_of", {m: k for k, p in enumerate(canon) for m in p})


def _orders_from_darts(rot: "RotationSystem") -> tuple:
    """The edge-ends of a rotation built by ``_from_darts``, from its darts."""
    g, norm = rot._norm
    ends = third_edges(g)
    return tuple([(v, tuple(map(ends.__getitem__, darts))) for v, _, darts in norm])


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic orders of the edge-ends at each vertex.

    Certifies a combinatorial embedding; its genus is computable by face
    tracing.  Stored orders are rotated to start at their smallest end so
    equal embeddings compare equal.  ``_norm`` is ``(None, rows)``: the
    ``(vertex, edge-ends)`` rows in vertex order, empty orders included.
    """

    orders: tuple = _BuiltOnRead(_orders_from_darts)

    def __post_init__(self):
        raw = self.orders
        if isinstance(raw, Mapping):
            raw = tuple(raw.items())
        norm = []
        seen_vertices = set()
        for entry in _rows(raw, "rotation system {} must be a mapping or an iterable of (vertex, order) pairs"):
            try:
                v, order = entry
            except (TypeError, ValueError):  # an entry that is not a pair
                raise DomainError(f"rotation entry {short_repr(entry)} must be a (vertex, order) pair") from None
            try:
                if v in seen_vertices:
                    raise DomainError(f"vertex {short_repr(v)} appears twice in rotation system")
                seen_vertices.add(v)
            except TypeError:  # an unhashable vertex is no id, and the sort below says so
                pass
            try:
                ends = _side_records(EdgeEnd, order, "edge-end {} has an invalid side")
            except TypeError:  # an order that is not iterable
                fault = f"rotation order {short_repr(order)} at {short_repr(v)} must be an iterable of edge-ends"
                raise DomainError(fault) from None
            if ends:
                pivot = min(range(len(ends)), key=lambda i: (id_sort_key(ends[i].edge), ends[i].side))
                ends = ends[pivot:] + ends[:pivot]
            norm.append((v, ends))
        # the vertex of an empty order is keyed too, and dropped from
        # ``orders``; the graph a rotation is checked on must still have it
        norm.sort(key=lambda item: id_sort_key(item[0]))
        object.__setattr__(self, "orders", tuple([item for item in norm if item[1]]))
        object.__setattr__(self, "_norm", (None, tuple(norm)))

    @classmethod
    def _from_darts(cls, g: Multigraph, darts_at: list) -> "RotationSystem":
        """A rotation system of ``g`` from the cyclic order of the darts
        ``2 * edge_position + side`` at each vertex, listed in stored vertex
        order: the constructor with each pivot found as the smallest dart,
        which is the smallest end in id order since edges are stored in id
        order.

        Nothing is checked here.  ``_norm`` is ``(g, records)``, one
        ``(vertex id, vertex position, darts)`` record per nonempty order,
        whose darts ``validate_rotation`` checks as they are where the
        rotation meets ``g`` itself; orders that fail are rejected there
        with the constructor's text.  The edge-ends of ``orders`` are made
        only if it is read."""
        norm = []
        for p, (v, darts) in enumerate(zip(g.vertices, darts_at)):
            if darts:
                pivot = darts.index(min(darts))
                norm.append((v, p, darts[pivot:] + darts[:pivot]))
        rot = object.__new__(cls)
        object.__setattr__(rot, "_norm", (g, norm))
        return rot


def validate_rotation(g: Multigraph, rot: RotationSystem) -> array:
    """The one rotation check, run by ``PairedGraph`` and ``genus_check``:
    that ``rot`` lists every edge-end of ``g`` exactly once, at the right
    vertex.  Returns the successor array, each dart ``2 * edge_position +
    side`` to the next dart around its vertex.  A rotation built on the
    darts of ``g`` itself is checked on them; any other is translated to
    darts of ``g`` up to its first unknown vertex or edge, which is raised
    only if the darts listed before it pass."""
    if not isinstance(g, Multigraph):
        raise DomainError(f"graph {short_repr(g)} must be a Multigraph")
    if not isinstance(rot, RotationSystem):
        raise DomainError(f"rotation {short_repr(rot)} must be a RotationSystem")
    built_on, darts_at = rot._norm
    fault = None
    ids = g._ids
    if built_on is not g:
        rows = darts_at if built_on is None else rot.orders
        position, index = dict(zip(ids, range(len(ids)))), g._index
        darts_at = []
        for v, order in rows:
            if v not in index:
                fault = DomainError(f"rotation mentions unknown vertex {short_repr(v)}")
                break
            at = list(map(position.get, map(itemgetter(0), order)))
            if None in at:
                k = at.index(None)
                fault = DomainError(f"rotation mentions unknown edge {short_repr(order[k][0])}")
                at, order = at[:k], order[:k]
            darts_at.append((v, index[v], [2 * i + s for i, s in zip(at, map(itemgetter(1), order))]))
            if fault is not None:
                break
    owner = g._at  # the vertex position of each dart
    succ = array("i", [-1]) * len(owner)
    listed = 0
    for v, p, darts in darts_at:
        for d, after in zip(darts, darts[1:] + darts[:1]):
            if owner[d] != p:
                end = EdgeEnd(ids[d >> 1], d & 1)
                raise DomainError(f"edge-end {short_repr(end)} is not incident to vertex {short_repr(v)}")
            if succ[d] >= 0:  # set for every dart listed so far
                end = EdgeEnd(ids[d >> 1], d & 1)
                raise DomainError(f"edge-end {short_repr(end)} appears twice in rotation system")
            succ[d] = after
        listed += len(darts)
    if fault is not None:
        raise fault
    missing = len(succ) - listed
    if missing:
        raise DomainError(f"rotation system is missing {missing} edge-end(s)")
    return succ


@dataclass(frozen=True)
class PairedGraph:
    """A multigraph with a perfect pairing of its vertices, optionally
    carrying a rotation system as a planarity certificate."""

    graph: Multigraph
    pairing: Pairing
    rotation: Optional[RotationSystem] = None

    def __post_init__(self):
        if not isinstance(self.graph, Multigraph):
            raise DomainError(f"paired-graph graph {short_repr(self.graph)} must be a Multigraph")
        if not isinstance(self.pairing, Pairing):
            raise DomainError(f"paired-graph pairing {short_repr(self.pairing)} must be a Pairing")
        pair_of = self.pairing._pair_of
        pair_at = list(map(pair_of.get, self.graph.vertices))  # None where no pair has the vertex
        if None in pair_at or len(pair_of) != len(pair_at):
            raise DomainError("pairing does not cover exactly the vertex set")
        object.__setattr__(self, "_pair_at", pair_at)
        if self.rotation is not None:
            if not isinstance(self.rotation, RotationSystem):
                raise DomainError(f"paired-graph rotation {short_repr(self.rotation)} must be a RotationSystem")
            # validated once; the successor array is what the faces are traced on
            object.__setattr__(self, "_succ", validate_rotation(self.graph, self.rotation))

    def require_planar(self) -> None:
        """Raise DomainError unless the rotation system certifies genus 0 on
        every component.  The faces are traced once per object."""
        if self.rotation is None:
            raise DomainError("planarity certificate missing: no rotation system")
        if not all(c.genus == 0 for c in self._embedding):
            raise DomainError("planarity certificate invalid: embedding has positive genus")

    @_BuiltOnRead
    def _embedding(self) -> tuple:
        """``genus_check`` of the rotation, from the kept successor array."""
        return _genus(self.graph, self._succ)

    @_BuiltOnRead
    def _quotient_neighbours(self) -> list:
        """Neighbour-position sets of the simple quotient, built straight
        from the pairing and the dart column: position ``i`` is
        ``pairing.pairs[i][0]``, and edges inside a pair are dropped."""
        return _neighbour_sets(len(self.pairing.pairs), map(self._pair_at.__getitem__, self.graph._at))

    @_BuiltOnRead
    def _smallest_last(self) -> list:
        """Smallest-last order of the simple quotient (Matula and Beck, JACM
        1983) as (position, degree at removal) records: repeatedly remove a
        vertex of minimum current degree, the earliest position first on
        ties.  O(m log n): a heap of entries, one pushed whenever a
        neighbour's removal lowers a degree, with outdated entries skipped
        when popped.  The loop stops at the n-th removal: every entry still
        on the heap then is outdated, and on maps most pops were of those.

        An entry is the int ``degree * n + position`` for ``n`` quotient
        vertices.  Since ``0 <= position < n``, these ints order exactly as
        the (degree, position) tuples would, and no tuple is pushed twice
        (a vertex's degree only falls), so the pops and hence the order are
        the tuple heap's."""
        nbrs = self._quotient_neighbours
        n = len(nbrs)
        degree = [len(ws) for ws in nbrs]  # -1 once removed
        heap = [d * n + i for i, d in enumerate(degree)]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        order = []
        while len(order) < n:
            entry = heappop(heap)
            v = entry % n
            d = degree[v]
            if d * n + v != entry:
                continue  # removed, or its degree has dropped since this push
            order.append((v, d))
            degree[v] = -1
            for w in nbrs[v]:
                dw = degree[w]
                if dw >= 0:
                    degree[w] = dw = dw - 1
                    heappush(heap, dw * n + w)
        return order


def _neighbour_sets(n: int, ends) -> list:
    """The neighbour-position sets of ``n`` positions joined by edges whose
    two ends come in turn from ``ends``, with loops dropped."""
    nbrs = [set() for _ in range(n)]
    ends = iter(ends)
    for a, b in zip(ends, ends):
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


# ---------------------------------------------------------------------------
# Face tracing and genus


class ComponentEmbedding(NamedTuple):
    vertices: tuple
    edge_count: int
    face_count: int
    genus: int


def _genus(g: Multigraph, succ: array) -> tuple:
    """Per-component genus from a validated successor array, in one pass
    over the darts: faces are the orbits of ``d -> succ[d ^ 1]``, and each
    is counted in the component of its first dart's vertex."""
    at, comp, count = _components(g)
    groups = [[] for _ in range(count)]
    for v, c in zip(g.vertices, comp):
        groups[c].append(v)
    edge_counts = [0] * count
    for p in at[::2]:  # the vertex position of each edge's side-0 dart
        edge_counts[comp[p]] += 1
    face_counts = [0] * count
    seen = [False] * len(succ)  # a list reads faster than a bytearray
    for start in range(len(succ)):
        if seen[start]:
            continue
        face_counts[comp[at[start]]] += 1
        d = start
        while not seen[d]:
            seen[d] = True
            d = succ[d ^ 1]
    out = []
    for i, members in enumerate(map(tuple, groups)):
        f = face_counts[i] if edge_counts[i] else 1
        euler = len(members) - edge_counts[i] + f
        if euler % 2:
            raise DomainError("face tracing produced an odd Euler characteristic")
        genus = (2 - euler) // 2
        if genus < 0:
            raise DomainError("face tracing produced a negative genus")
        out.append(ComponentEmbedding(members, edge_counts[i], f, genus))
    return tuple(out)


def genus_check(g: Multigraph, rot: RotationSystem) -> tuple:
    """Per-component genus of the embedding certified by ``rot``.

    A component with no edges counts one face.  The genus of a valid
    rotation system is always a non-negative integer.
    """
    return _genus(g, validate_rotation(g, rot))


# ---------------------------------------------------------------------------
# 2-complexes and link graphs


@dataclass(frozen=True)
class TwoComplex:
    """A multigraph skeleton with 2-cells glued along closed walks.

    ``kind`` records whether the cells are genuine discs or punctured
    (half-open annuli).  The combinatorial data is the same either way,
    and so is the link graph.
    """

    skeleton: Multigraph
    cells: tuple = ()
    kind: str = GENUINE

    def __post_init__(self):
        if self.kind not in (GENUINE, PUNCTURED):
            raise DomainError(f"unknown complex kind {short_repr(self.kind)}")
        if not isinstance(self.skeleton, Multigraph):
            raise DomainError(f"complex skeleton {short_repr(self.skeleton)} must be a Multigraph")
        cells = _rows(self.cells, "complex cells {} must be an iterable of walks")
        cells = tuple(c if isinstance(c, ClosedWalk) else ClosedWalk(c) for c in cells)
        for walk in cells:
            validate_walk(self.skeleton, walk)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _from_steps(cls, skeleton: Multigraph, cells, kind: str) -> "TwoComplex":
        """A complex from cells given as tuples of steps that already pass
        ``validate_walk`` on ``skeleton``: the constructor without its
        checks.  ``seal`` and ``inverse_link``
        take the table's steps, which pass by construction.  The steps
        ``complex_from_doc`` parses have keyed ids, so it runs only the two
        checks ``validate_walk`` ends in: unknown edges and junctions."""
        walks = []
        for steps in cells:
            walk = object.__new__(ClosedWalk)
            object.__setattr__(walk, "steps", steps)
            walks.append(walk)
        return cls._from_walks(skeleton, tuple(walks), kind)

    @classmethod
    def _from_walks(cls, skeleton: Multigraph, cells: tuple, kind: str) -> "TwoComplex":
        """A complex from a tuple of ``ClosedWalk`` cells that already pass
        ``validate_walk`` on ``skeleton``, stored as given, so complexes
        built from one set of walks share them.  ``_from_steps`` ends here,
        and ``corpus.enumerate_small_complexes`` builds each complex from
        the walks of its skeleton, each checked once."""
        c = object.__new__(cls)
        object.__setattr__(c, "skeleton", skeleton)
        object.__setattr__(c, "cells", cells)
        object.__setattr__(c, "kind", kind)
        return c


def link_graph(c: TwoComplex) -> PairedGraph:
    """The link graph of a 2-complex, with its default pairing.

    Vertices are the third-edges of the skeleton.  Every cyclically
    consecutive pair of steps in a cell walk contributes one link edge,
    joining the exit third-edge of the first step to the entry third-edge
    of the next; a walk of length k contributes exactly k link edges.
    Parallel link edges and link loops are kept.  The default pairing puts
    (e, 0) with (e, 1) for every skeleton edge e.  The skeleton builds
    its link vertices and that pairing on first read, and every complex on
    it shares them.
    """
    # The third-edges in stored edge order are in id order, (e, 0) before
    # (e, 1), and so are the link edges (ci, j) in walk order.  Link vertex
    # i is skeleton dart i.
    verts, pairing = c.skeleton._link_frame
    _, dart_of = c.skeleton._steps
    ids, outs, ins = [], [], []
    for ci, cell in enumerate(c.cells):
        darts = list(map(dart_of.__getitem__, cell.steps))
        ids += zip(repeat(ci), range(len(darts)))
        # the dart each step exits by, and the one the next step enters by
        outs += map(_other_end, darts)
        darts.append(darts.pop(0))
        ins += darts
    at = outs + ins
    at[::2], at[1::2] = outs, ins
    return PairedGraph(Multigraph._from_columns(verts, tuple(ids), at), pairing)


def _require_third_edge_ids(g: Multigraph) -> None:
    """Raise DomainError unless every third-edge of ``g`` is an id.  A
    third-edge nests one tuple level deeper than its edge id, so only a
    tuple id can make it too deep."""
    for i in g._ids:
        if isinstance(i, tuple):
            id_sort_key((i,))


def paired_quotient(pg: PairedGraph) -> Multigraph:
    """Identify the two vertices of every pair, keeping all edges.

    The quotient vertex of a pair is named by the pair's smaller member.
    An edge inside one pair becomes a loop; parallel edges are preserved.
    Pairs are stored by their smaller members, so the quotient is in id order.
    """
    at = list(map(pg._pair_at.__getitem__, pg.graph._at))
    return Multigraph._from_columns(tuple(p[0] for p in pg.pairing.pairs), pg.graph._ids, at)


def simple_quotient(pg: PairedGraph) -> Multigraph:
    """The paired quotient with loops deleted and parallel classes collapsed
    to their smallest edge id.  This is the graph that carries all colouring
    constraints: within-pair adjacencies impose none."""
    ends = map(pg._pair_at.__getitem__, pg.graph._at)
    keep = {}
    for i, a, b in zip(pg.graph._ids, ends, ends):  # in edge-id order, so the first edge of a class is kept
        if a != b:
            keep.setdefault((a, b) if a < b else (b, a), (i, a, b))
    kept = keep.values()
    at = list(chain.from_iterable(map(itemgetter(1, 2), kept)))
    return Multigraph._from_columns(tuple(p[0] for p in pg.pairing.pairs), tuple(map(itemgetter(0), kept)), at)


def is_simplicial(c: TwoComplex) -> bool:
    """True iff the skeleton is simple and every cell goes once around a
    triangle (3 distinct vertices, 3 distinct edges).  With no loop, each
    step of a closed walk leaves the vertex it enters, so every walk of 3
    steps is such a triangle."""
    at = c.skeleton._at
    ends = iter(at)
    endpoints = set(map(frozenset, zip(ends, ends)))
    # a loop has one endpoint, and parallel edges share theirs
    if len(endpoints) != len(at) // 2 or any(len(e) == 1 for e in endpoints):
        return False
    return all(len(cell) == 3 for cell in c.cells)
