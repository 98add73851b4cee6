"""Hypothesis strategies for small multigraphs, walks and complexes."""

import hypothesis.strategies as st

from linkchroma import ClosedWalk, Edge, Multigraph, RotationSystem, TwoComplex, WalkStep


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=8, allow_loops=True):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for i in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        if allow_loops:
            v = draw(st.integers(min_value=0, max_value=n - 1))
        else:
            v = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        edges.append(Edge(i, u, v))
    return Multigraph(tuple(range(n)), tuple(edges))


@st.composite
def closed_walks(draw, g, max_len=6):
    """A random closed walk in ``g``, built by walking and requiring return
    to the start; the caller must pass a graph with at least one edge."""
    from hypothesis import assume

    darts = [WalkStep(e.id, s) for e in g.edges for s in (0, 1)]
    assume(darts)
    first = draw(st.sampled_from(darts))
    steps = [first]
    start = g.edge(first.edge).endpoint(first.entry)
    here = g.edge(first.edge).endpoint(1 - first.entry)
    length = draw(st.integers(min_value=1, max_value=max_len))
    while len(steps) < length:
        options = [d for d in darts if g.edge(d.edge).endpoint(d.entry) == here]
        step = draw(st.sampled_from(options))
        steps.append(step)
        here = g.edge(step.edge).endpoint(1 - step.entry)
    assume(here == start)
    return ClosedWalk(tuple(steps))


@st.composite
def complexes(draw, max_vertices=4, max_edges=5, max_cells=3):
    from hypothesis import assume

    g = draw(multigraphs(max_vertices=max_vertices, max_edges=max_edges))
    assume(g.edges)
    n_cells = draw(st.integers(min_value=0, max_value=max_cells))
    cells = tuple(draw(closed_walks(g)) for _ in range(n_cells))
    kind = draw(st.sampled_from(("genuine", "punctured")))
    return TwoComplex(g, cells, kind)


# Ids of every kind: ints, strings, and tuples of these nested up to three deep.
mixed_ids = st.recursive(
    st.integers(min_value=-3, max_value=3) | st.text(alphabet="ab", max_size=2),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=4,
)


@st.composite
def mixed_id_complexes(draw, **kwargs):
    """A complex from ``complexes(**kwargs)`` with its vertices and edges
    renamed to distinct ids drawn from ``mixed_ids``."""
    c = draw(complexes(**kwargs))
    g = c.skeleton
    vid = dict(zip(g.vertices, draw(st.lists(mixed_ids, min_size=len(g.vertices), max_size=len(g.vertices), unique=True))))
    eid = dict(zip(g.edge_ids(), draw(st.lists(mixed_ids, min_size=len(g.edges), max_size=len(g.edges), unique=True))))
    skeleton = Multigraph(tuple(vid.values()), tuple(Edge(eid[e.id], vid[e.end0], vid[e.end1]) for e in g.edges))
    cells = tuple(ClosedWalk(tuple(WalkStep(eid[s.edge], s.entry) for s in cell.steps)) for cell in c.cells)
    return TwoComplex(skeleton, cells, c.kind)


@st.composite
def paired_graphs(draw, max_pairs=5, max_edges=10):
    """A multigraph on ``2n`` distinct ``mixed_ids`` vertices, loops and
    parallel edges allowed, with distinct ``mixed_ids`` edge ids and a
    random perfect pairing."""
    from linkchroma import PairedGraph, Pairing

    n = draw(st.integers(min_value=0, max_value=max_pairs))
    verts = draw(st.lists(mixed_ids, min_size=2 * n, max_size=2 * n, unique=True))
    edge_ids = draw(st.lists(mixed_ids, max_size=max_edges if n else 0, unique=True))
    ends = st.sampled_from(verts) if verts else st.nothing()
    edges = tuple(Edge(i, draw(ends), draw(ends)) for i in edge_ids)
    order = draw(st.permutations(verts))
    pairing = Pairing(tuple(zip(order[::2], order[1::2])))
    return PairedGraph(Multigraph(tuple(verts), edges), pairing)


@st.composite
def rotations(draw, g):
    """A uniformly shuffled rotation system for ``g``."""
    orders = {}
    for v in g.vertices:
        ends = list(g.ends_at(v))
        orders[v] = tuple(draw(st.permutations(ends)))
    return RotationSystem(orders)


def side_by_side(*pgs):
    """The disjoint union of certified maps with int vertex ids: vertex v of
    the k-th map becomes ``len(pgs) * v + k``, so the maps' vertices
    interleave in stored order, and edge ``e`` becomes ``(k, e)``.  Each
    map keeps its pairing and rotation."""
    from linkchroma import Edge, EdgeEnd, Multigraph, PairedGraph, Pairing

    step = len(pgs)
    verts, edges, pairs, orders = [], [], [], {}
    for k, pg in enumerate(pgs):
        verts += [step * v + k for v in pg.graph.vertices]
        edges += [Edge((k, e.id), step * e.end0 + k, step * e.end1 + k) for e in pg.graph.edges]
        pairs += [(step * u + k, step * v + k) for u, v in pg.pairing.pairs]
        for v, order in pg.rotation.orders:
            orders[step * v + k] = tuple(EdgeEnd((k, end.edge), end.side) for end in order)
    return PairedGraph(Multigraph(tuple(verts), tuple(edges)), Pairing(tuple(pairs)), RotationSystem(orders))


def with_extras(pg):
    """``pg`` plus three small components: a vertex with a loop paired with
    an isolated vertex, and a pair joined by two parallel edges."""
    from linkchroma import Edge, EdgeEnd, Multigraph, PairedGraph, Pairing

    g = Multigraph(
        pg.graph.vertices + ("loop", "iso", "p", "q"),
        pg.graph.edges + (Edge("l", "loop", "loop"), Edge("a", "p", "q"), Edge("b", "p", "q")),
    )
    orders = dict(pg.rotation.orders)
    orders["loop"] = (EdgeEnd("l", 0), EdgeEnd("l", 1))
    orders["p"] = (EdgeEnd("a", 0), EdgeEnd("b", 0))
    orders["q"] = (EdgeEnd("b", 1), EdgeEnd("a", 1))
    pairs = pg.pairing.pairs + (("loop", "iso"), ("p", "q"))
    return PairedGraph(g, Pairing(pairs), RotationSystem(orders))


# One walk fault per case on the skeleton a -ab- b -bc- c -ca- a plus c -cd- d,
# and the exact error every entry point raises: the first unknown edge wins
# over any junction, then the first bad junction in step order.
WALK_FAULT_SKELETON = (
    ("a", "b", "c", "d"),
    (Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a"), Edge("cd", "c", "d")),
)
WALK_FAULTS = {
    "unknown-edge": (
        [("ab", 0), ("zz", 0)],
        "walk not contained in skeleton: unknown edge 'zz'",
    ),
    "unknown-tuple-edge": (
        [("ab", 0), (("z", 1), 1)],
        "walk not contained in skeleton: unknown edge ('z', 1)",
    ),
    "unknown-edge-after-a-bad-junction": (
        [("ab", 1), ("bc", 0), ("zz", 0)],
        "walk not contained in skeleton: unknown edge 'zz'",
    ),
    "first-junction": (
        [("ab", 1), ("bc", 0), ("ca", 0)],
        "walk is not vertex-compatible between steps 0 and 1",
    ),
    "middle-junction": (
        [("ab", 0), ("bc", 0), ("ca", 1)],
        "walk is not vertex-compatible between steps 1 and 2",
    ),
    "wrap-around": (
        [("ab", 0), ("bc", 0), ("cd", 0)],
        "walk is not vertex-compatible between steps 2 and 0",
    ),
    "one-step": (
        [("cd", 1)],
        "walk is not vertex-compatible between steps 0 and 0",
    ),
}
