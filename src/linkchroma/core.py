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
* All types are immutable; every operation is a pure function.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Union

from .errors import DomainError, short_repr

VertexId = Union[int, str, tuple]
EdgeId = Union[int, str, tuple]

GENUINE = "genuine"
PUNCTURED = "punctured"

MAX_ID_DEPTH = 32  # deepest tuple nesting an id may have


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
    return (2, tuple([_tuple_sort_key(v, depth + 1) if isinstance(v, tuple) else id_sort_key(v) for v in value]))


class EdgeEnd(NamedTuple):
    """One of the two distinguishable ends of an edge.

    A third-edge (an end-third of a topological edge) is canonically named
    by the edge-end it contains, so this type doubles as the vertex type of
    link graphs.
    """

    edge: EdgeId
    side: int

    def flipped(self) -> "EdgeEnd":
        return EdgeEnd(self.edge, 1 - self.side)


class Edge(NamedTuple):
    id: EdgeId
    end0: VertexId
    end1: VertexId

    @property
    def is_loop(self) -> bool:
        return self.end0 == self.end1

    def endpoint(self, side: int) -> VertexId:
        return self.end0 if side == 0 else self.end1


@dataclass(frozen=True)
class Multigraph:
    """Vertices plus edges with two distinguishable ends.

    Loops and parallel edges are allowed.  The degree of a vertex counts
    edge-ends, so a loop contributes 2.
    """

    vertices: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        verts = tuple(sorted(self.vertices, key=id_sort_key))
        edges = (e if isinstance(e, Edge) else Edge(*e) for e in self.edges)
        self._index(verts, tuple(sorted(edges, key=lambda e: id_sort_key(e.id))))

    @classmethod
    def _sorted(cls, verts: tuple, edges: tuple) -> "Multigraph":
        """A multigraph from parts already in id order, the edges as
        ``Edge``s: the constructor without its sort.  Derived graphs whose
        parts come from an existing container's stored order use it."""
        g = object.__new__(cls)
        g._index(verts, edges)
        return g

    @classmethod
    def _extended(cls, g: "Multigraph", new: list) -> tuple:
        """``g`` with the ``Edge``s ``new`` added, and the stored position
        of each edge of ``g`` followed by each edge of ``new``.

        The constructor's stable sort on positions: every id is keyed once,
        which validates the new ones, and ``g.edges`` is one sorted run for
        timsort to gallop over.  On a tie the edge of ``g`` comes first, so
        a repeated id is still reported as a duplicate."""
        pool = g.edges + tuple(new)
        keys = [id_sort_key(e.id) for e in pool]
        source = sorted(range(len(pool)), key=keys.__getitem__)
        position = [0] * len(pool)
        for p, src in enumerate(source):
            position[src] = p
        return cls._sorted(g.vertices, tuple([pool[src] for src in source])), position

    def _index(self, verts: tuple, edges: tuple) -> None:
        """Check sorted parts and store them with the edge lookup table."""
        vertex_set = set(verts)
        if len(vertex_set) != len(verts):
            raise DomainError("duplicate vertex id")
        by_id = {}
        for e in edges:
            if e.id in by_id:
                raise DomainError(f"duplicate edge id {short_repr(e.id)}")
            if e.end0 not in vertex_set or e.end1 not in vertex_set:
                raise DomainError(f"edge {short_repr(e.id)} references a missing vertex")
            by_id[e.id] = e
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_vertex_set", vertex_set)
        object.__setattr__(self, "_edge_by_id", by_id)

    @cached_property
    def _ends_at(self) -> dict:
        """Each vertex's edge-ends, built on first use and kept: the
        instance is frozen, and it is not a field, so equality and hashing
        ignore it.  Edges are walked in id order, so each tuple is in
        (edge id, side) order."""
        ends_at = {v: [] for v in self.vertices}
        for e in self.edges:
            ends_at[e.end0].append(EdgeEnd(e.id, 0))
            ends_at[e.end1].append(EdgeEnd(e.id, 1))
        return {v: tuple(es) for v, es in ends_at.items()}

    def edge(self, edge_id) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise DomainError(f"unknown edge {short_repr(edge_id)}") from None

    def has_vertex(self, v) -> bool:
        return v in self._vertex_set

    def ends_at(self, v) -> tuple:
        try:
            return self._ends_at[v]
        except KeyError:
            raise DomainError(f"unknown vertex {short_repr(v)}") from None

    def degree(self, v) -> int:
        return len(self.ends_at(v))

    def end_vertex(self, end: EdgeEnd) -> VertexId:
        return self.edge(end.edge).endpoint(end.side)

    def edge_ids(self) -> tuple:
        return tuple(e.id for e in self.edges)


def _root(parent: list, a: int) -> int:
    """Union-find root of ``a``, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _dart_vertices(g: Multigraph) -> tuple:
    """The position of each vertex id, and the vertex position of each dart
    ``2 * edge_position + side``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return index, [index[v] for e in g.edges for v in (e.end0, e.end1)]


def _components(g: Multigraph) -> tuple:
    """Union-find over vertex positions.  Returns the vertex position of
    each dart ``2 * edge_position + side``, the component number of each
    vertex position, and the number of components.  A union keeps the
    smaller root, so every root is its component's first stored vertex and
    components are numbered in that order."""
    index, at = _dart_vertices(g)
    parent = list(range(len(index)))
    for k in range(0, len(at), 2):
        a, b = _root(parent, at[k]), _root(parent, at[k + 1])
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    comp = [0] * len(parent)
    count = 0
    for i in range(len(comp)):
        r = _root(parent, i)
        if r == i:
            comp[i] = count
            count += 1
        else:
            comp[i] = comp[r]
    return at, comp, count


def third_edges(g: Multigraph) -> list:
    """The 2|E| third-edges of ``g``, sorted by (edge id, side)."""
    return [EdgeEnd(e.id, s) for e in g.edges for s in (0, 1)]


# ---------------------------------------------------------------------------
# Closed walks


class WalkStep(NamedTuple):
    """One directed edge traversal: enter ``edge`` at side ``entry`` and
    exit at the other side.  Loops are traversed in two distinguishable
    directions, told apart by the entry side."""

    edge: EdgeId
    entry: int

    def flipped(self) -> "WalkStep":
        return WalkStep(self.edge, 1 - self.entry)


@dataclass(frozen=True)
class ClosedWalk:
    """Cyclic sequence of directed edge traversals.

    The stored order and starting step are significant (sealing reads the
    first step), so no cyclic normalisation is applied.
    """

    steps: tuple

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not tuple or not all(map(isinstance, steps, repeat(WalkStep))):
            steps = tuple(s if isinstance(s, WalkStep) else WalkStep(*s) for s in steps)
        if not steps:
            raise DomainError("a closed walk must be nonempty")
        if not all(map((0, 1).__contains__, map(itemgetter(1), steps))):
            bad = next(s for s in steps if s.entry not in (0, 1))
            raise DomainError(f"walk step {short_repr(bad)} has an invalid entry side")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def step_entry_vertex(g: Multigraph, step: WalkStep) -> VertexId:
    return g.edge(step.edge).endpoint(step.entry)


def step_exit_vertex(g: Multigraph, step: WalkStep) -> VertexId:
    return g.edge(step.edge).endpoint(1 - step.entry)


def validate_walk(g: Multigraph, walk: ClosedWalk) -> None:
    """Check that ``walk`` lives in ``g`` and is cyclically vertex-compatible."""
    _check_steps(g._edge_by_id, walk.steps)


def _check_steps(edge_by_id: dict, steps: tuple) -> None:
    """``validate_walk`` on an edge table: every edge is known, then each
    step exits where the next one enters, the first fault in step order
    reported."""
    edges = [edge_by_id.get(s[0]) for s in steps]
    if None in edges:
        raise DomainError(
            f"walk not contained in skeleton: unknown edge {short_repr(steps[edges.index(None)].edge)}"
        )
    # An Edge is (id, end0, end1): a step with entry side 0 enters at end0.
    ins = [e[2] if s[1] else e[1] for e, s in zip(edges, steps)]
    outs = [e[1] if s[1] else e[2] for e, s in zip(edges, steps)]
    ins.append(ins.pop(0))
    if outs != ins:
        i = next(i for i, (here, there) in enumerate(zip(outs, ins)) if here != there)
        raise DomainError(f"walk is not vertex-compatible between steps {i} and {(i + 1) % len(steps)}")


# ---------------------------------------------------------------------------
# Pairings and paired graphs


@dataclass(frozen=True)
class Pairing:
    """Partition of a vertex set into classes of size exactly two."""

    pairs: tuple = ()

    def __post_init__(self):
        canon, firsts = [], []
        seen = set()
        for raw in self.pairs:
            members = tuple(raw)
            if len(members) != 2 or members[0] == members[1]:
                raise DomainError(
                    f"pairing class {short_repr(members)} must have exactly two distinct members"
                )
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
        the constructor without its keys, as ``Multigraph._sorted``."""
        p = object.__new__(cls)
        p._store(canon)
        return p

    def _store(self, canon: tuple) -> None:
        object.__setattr__(self, "pairs", canon)
        object.__setattr__(self, "_pair_of", {m: p for p in canon for m in p})

    def pair_of(self, v) -> tuple:
        try:
            return self._pair_of[v]
        except KeyError:
            raise DomainError(f"vertex {short_repr(v)} is not paired") from None

    def partner(self, v):
        p = self.pair_of(v)
        return p[1] if p[0] == v else p[0]

    def representative(self, v):
        return self.pair_of(v)[0]

    def members(self) -> tuple:
        return tuple(m for p in self.pairs for m in p)


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic orders of the edge-ends at each vertex.

    Certifies a combinatorial embedding; its genus is computable by face
    tracing.  Stored orders are rotated to start at their smallest end so
    equal embeddings compare equal.
    """

    orders: tuple = ()

    def __post_init__(self):
        raw = self.orders
        if isinstance(raw, Mapping):
            raw = tuple(raw.items())
        norm = []
        seen_vertices = set()
        for v, order in raw:
            if v in seen_vertices:
                raise DomainError(f"vertex {short_repr(v)} appears twice in rotation system")
            seen_vertices.add(v)
            ends = tuple(e if isinstance(e, EdgeEnd) else EdgeEnd(*e) for e in order)
            for e in ends:
                if e.side not in (0, 1):
                    raise DomainError(f"edge-end {short_repr(e)} has an invalid side")
            if not ends:
                continue
            pivot = min(range(len(ends)), key=lambda i: (id_sort_key(ends[i].edge), ends[i].side))
            ends = ends[pivot:] + ends[:pivot]
            norm.append((v, ends))
        norm.sort(key=lambda item: id_sort_key(item[0]))
        self._store(tuple(norm))

    @classmethod
    def _from_darts(cls, g: Multigraph, darts_at: list) -> "RotationSystem":
        """A rotation system of ``g`` from the cyclic order of the darts
        ``2 * edge_position + side`` at each vertex, listed in stored vertex
        order: the constructor with each pivot found as the smallest dart,
        which is the smallest end in id order since edges are stored in id
        order.  As with the constructor, the orders are checked against
        ``g`` where a ``PairedGraph`` is built on them."""
        ends = third_edges(g)
        norm = []
        for v, darts in zip(g.vertices, darts_at):
            if darts:
                pivot = darts.index(min(darts))
                norm.append((v, tuple(map(ends.__getitem__, darts[pivot:] + darts[:pivot]))))
        rot = object.__new__(cls)
        rot._store(tuple(norm))
        return rot

    def _store(self, norm: tuple) -> None:
        object.__setattr__(self, "orders", norm)
        object.__setattr__(self, "_order_at", dict(norm))

    def order_at(self, v) -> tuple:
        return self._order_at.get(v, ())

    def as_dict(self) -> dict:
        return {v: list(order) for v, order in self.orders}


def _rotation_successors(g: Multigraph, rot: RotationSystem) -> array:
    """Check that ``rot`` lists every edge-end of ``g`` exactly once, at the
    right vertex, and return its successor array: the dart
    ``2 * edge_position + side`` maps to the next dart around its vertex."""
    edges = g.edges
    position = dict(zip(map(itemgetter(0), edges), range(len(edges))))
    succ = array("i", [-1]) * (2 * len(edges))
    listed = 0
    for v, order in rot.orders:
        if not g.has_vertex(v):
            raise DomainError(f"rotation mentions unknown vertex {short_repr(v)}")
        first = prev = -1
        for end in order:
            i = position.get(end[0])
            if i is None:
                raise DomainError(f"rotation mentions unknown edge {short_repr(end.edge)}")
            # an Edge is (id, end0, end1)
            d, at = (2 * i, edges[i][1]) if end[1] == 0 else (2 * i + 1, edges[i][2])
            if at != v:
                raise DomainError(f"edge-end {short_repr(end)} is not incident to vertex {short_repr(v)}")
            # every dart listed so far has its successor set, but the last
            if succ[d] >= 0 or d == prev:
                raise DomainError(f"edge-end {short_repr(end)} appears twice in rotation system")
            if prev < 0:
                first = d
            else:
                succ[prev] = d
            prev = d
        succ[prev] = first  # orders are never empty
        listed += len(order)
    missing = len(succ) - listed
    if missing:
        raise DomainError(f"rotation system is missing {missing} edge-end(s)")
    return succ


def validate_rotation(g: Multigraph, rot: RotationSystem) -> dict:
    """Check that ``rot`` lists every edge-end of ``g`` exactly once, at the
    right vertex.  Returns the dart successor map it checked: each edge-end
    to the next end around its vertex, in stored rotation order."""
    _rotation_successors(g, rot)
    return {end: nxt for _, order in rot.orders for end, nxt in zip(order, order[1:] + order[:1])}


@dataclass(frozen=True)
class PairedGraph:
    """A multigraph with a perfect pairing of its vertices, optionally
    carrying a rotation system as a planarity certificate."""

    graph: Multigraph
    pairing: Pairing
    rotation: Optional[RotationSystem] = None

    def __post_init__(self):
        if set(self.pairing.members()) != set(self.graph.vertices):
            raise DomainError("pairing does not cover exactly the vertex set")
        if self.rotation is not None:
            # Validated once; the successor array is what the faces are
            # traced on.  Not a field, so equality and hashing ignore it.
            object.__setattr__(self, "_succ", _rotation_successors(self.graph, self.rotation))

    def pair_of(self, v) -> tuple:
        return self.pairing.pair_of(v)

    def require_planar(self) -> None:
        """Raise DomainError unless the rotation system certifies genus 0 on
        every component.  The faces are traced once per object."""
        if self.rotation is None:
            raise DomainError("planarity certificate missing: no rotation system")
        if not all(c.genus == 0 for c in self._embedding):
            raise DomainError("planarity certificate invalid: embedding has positive genus")

    # Derived data, computed on first use and kept on the object.  The
    # instance is frozen, so none of it can go stale, and none of it is a
    # field, so equality and hashing ignore it.  It is not filled in
    # ``__post_init__``, so building a paired graph that never needs it
    # costs nothing extra.

    @cached_property
    def _embedding(self) -> tuple:
        """``genus_check`` of the rotation, from the kept successor array."""
        return _genus(self.graph, self._succ)

    @cached_property
    def _quotient_neighbours(self) -> list:
        """Neighbour-position sets of the simple quotient, built straight
        from the pairing and the edges: position ``i`` is
        ``pairing.pairs[i][0]``, and edges inside a pair are dropped."""
        position = {m: i for i, p in enumerate(self.pairing.pairs) for m in p}
        nbrs = [set() for _ in self.pairing.pairs]
        for e in self.graph.edges:
            a, b = position[e.end0], position[e.end1]
            if a != b:
                nbrs[a].add(b)
                nbrs[b].add(a)
        return nbrs

    @cached_property
    def _smallest_last(self) -> list:
        """Smallest-last order of the simple quotient (Matula and Beck, JACM
        1983) as (position, degree at removal) records: repeatedly remove a
        vertex of minimum current degree, the earliest position first on
        ties.  O(m log n): a heap of (degree, position) entries, one pushed
        whenever a neighbour's removal lowers a degree, with outdated
        entries skipped when popped."""
        nbrs = self._quotient_neighbours
        degree = [len(ws) for ws in nbrs]  # -1 once removed
        heap = [(d, i) for i, d in enumerate(degree)]
        heapq.heapify(heap)
        order = []
        while heap:
            d, v = heapq.heappop(heap)
            if degree[v] != d:
                continue  # removed, or its degree has dropped since this push
            order.append((v, d))
            degree[v] = -1
            for w in nbrs[v]:
                if degree[w] >= 0:
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], w))
        return order


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
    for k in range(0, len(at), 2):
        edge_counts[comp[at[k]]] += 1
    face_counts = [0] * count
    seen = bytearray(len(succ))
    for start in range(len(succ)):
        if seen[start]:
            continue
        face_counts[comp[at[start]]] += 1
        d = start
        while not seen[d]:
            seen[d] = 1
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
    return _genus(g, _rotation_successors(g, rot))


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
        cells = tuple(c if isinstance(c, ClosedWalk) else ClosedWalk(tuple(c)) for c in self.cells)
        edge_by_id = self.skeleton._edge_by_id
        for walk in cells:
            _check_steps(edge_by_id, walk.steps)
        object.__setattr__(self, "cells", cells)


def link_graph(c: TwoComplex) -> PairedGraph:
    """The link graph of a 2-complex, with its default pairing.

    Vertices are the third-edges of the skeleton.  Every cyclically
    consecutive pair of steps in a cell walk contributes one link edge,
    joining the exit third-edge of the first step to the entry third-edge
    of the next; a walk of length k contributes exactly k link edges.
    Parallel link edges and link loops are kept.  The default pairing puts
    (e, 0) with (e, 1) for every skeleton edge e.
    """
    # The third-edges in stored edge order are in id order, (e, 0) before
    # (e, 1), and so are the link edges (ci, j) in walk order.  A third-edge
    # nests one tuple level deeper than its edge id, so only a tuple id can
    # make it too deep.
    for e in c.skeleton.edges:
        if isinstance(e.id, tuple):
            id_sort_key((e.id,))
    verts = tuple(third_edges(c.skeleton))
    pairing = Pairing._sorted(tuple(zip(verts[::2], verts[1::2])))
    dart = {e.id: 2 * i for i, e in enumerate(c.skeleton.edges)}
    edges = []
    for ci, cell in enumerate(c.cells):
        # the third-edge each step enters by and exits by
        ins = [verts[dart[s.edge] + s.entry] for s in cell.steps]
        outs = [verts[dart[s.edge] + 1 - s.entry] for s in cell.steps]
        edges += (Edge((ci, j), a, b) for j, (a, b) in enumerate(zip(outs, ins[1:] + ins[:1])))
    return PairedGraph(Multigraph._sorted(verts, tuple(edges)), pairing)


def paired_quotient(pg: PairedGraph) -> Multigraph:
    """Identify the two vertices of every pair, keeping all edges.

    The quotient vertex of a pair is named by the pair's smaller member.
    An edge inside one pair becomes a loop; parallel edges are preserved.
    Pairs are stored by their smaller members, so the quotient is in id order.
    """
    rep = {v: p[0] for p in pg.pairing.pairs for v in p}
    edges = tuple([Edge(e.id, rep[e.end0], rep[e.end1]) for e in pg.graph.edges])
    return Multigraph._sorted(tuple(p[0] for p in pg.pairing.pairs), edges)


def simple_quotient(pg: PairedGraph) -> Multigraph:
    """The paired quotient with loops deleted and parallel classes collapsed
    to their smallest edge id.  This is the graph that carries all colouring
    constraints: within-pair adjacencies impose none."""
    pairs = pg.pairing.pairs
    position = {m: i for i, p in enumerate(pairs) for m in p}
    keep = {}
    for e in pg.graph.edges:  # in edge-id order, so the first edge of a class is kept
        a, b = position[e.end0], position[e.end1]
        if a != b:
            keep.setdefault((a, b) if a < b else (b, a), (e.id, a, b))
    edges = tuple([Edge(i, pairs[a][0], pairs[b][0]) for i, a, b in keep.values()])
    return Multigraph._sorted(tuple(p[0] for p in pairs), edges)


def is_simplicial(c: TwoComplex) -> bool:
    """True iff the skeleton is simple and every cell goes once around a
    triangle (3 distinct vertices, 3 distinct edges)."""
    seen_endpoints = set()
    for e in c.skeleton.edges:
        if e.is_loop:
            return False
        key = frozenset((e.end0, e.end1))
        if key in seen_endpoints:
            return False
        seen_endpoints.add(key)
    for cell in c.cells:
        if len(cell.steps) != 3:
            return False
        edges = {s.edge for s in cell.steps}
        corners = {step_entry_vertex(c.skeleton, s) for s in cell.steps}
        if len(edges) != 3 or len(corners) != 3:
            return False
    return True
