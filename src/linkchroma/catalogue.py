"""Small named instances shared by the test corpus, the verification
runner and the documentation examples."""

from __future__ import annotations

from itertools import combinations

from .core import (
    ClosedWalk,
    Edge,
    Multigraph,
    TwoComplex,
    WalkStep,
)


def triangle_complex() -> TwoComplex:
    """3-cycle skeleton with one disc glued once around it."""
    g = Multigraph(
        vertices=("u", "v", "w"),
        edges=(Edge("a", "u", "v"), Edge("b", "v", "w"), Edge("c", "w", "u")),
    )
    walk = ClosedWalk((WalkStep("a", 0), WalkStep("b", 0), WalkStep("c", 0)))
    return TwoComplex(g, (walk,))


def tetrahedron_complex() -> TwoComplex:
    """Boundary of the tetrahedron: K4 skeleton, four triangular cells."""
    g = Multigraph(
        vertices=(1, 2, 3, 4),
        edges=(
            Edge("12", 1, 2),
            Edge("13", 1, 3),
            Edge("14", 1, 4),
            Edge("23", 2, 3),
            Edge("24", 2, 4),
            Edge("34", 3, 4),
        ),
    )
    cells = (
        # 1 -> 2 -> 3 -> 1
        ClosedWalk((WalkStep("12", 0), WalkStep("23", 0), WalkStep("13", 1))),
        # 1 -> 2 -> 4 -> 1
        ClosedWalk((WalkStep("12", 0), WalkStep("24", 0), WalkStep("14", 1))),
        # 1 -> 3 -> 4 -> 1
        ClosedWalk((WalkStep("13", 0), WalkStep("34", 0), WalkStep("14", 1))),
        # 2 -> 3 -> 4 -> 2
        ClosedWalk((WalkStep("23", 0), WalkStep("34", 0), WalkStep("24", 1))),
    )
    return TwoComplex(g, cells)


def complete_graph(n: int) -> Multigraph:
    verts = tuple(range(n))
    edges = tuple(Edge((u, v), u, v) for u, v in combinations(verts, 2))
    return Multigraph(verts, edges)


def octahedron_graph() -> Multigraph:
    """K_{2,2,2}: vertices 0..5 with opposite pairs (0,5), (1,4), (2,3)."""
    opposite = {0: 5, 5: 0, 1: 4, 4: 1, 2: 3, 3: 2}
    verts = tuple(range(6))
    edges = tuple(
        Edge((u, v), u, v) for u, v in combinations(verts, 2) if opposite[u] != v
    )
    return Multigraph(verts, edges)


def petersen_graph() -> Multigraph:
    """Outer 5-cycle, inner pentagram, five spokes."""
    edges = []
    for i in range(5):
        edges.append(Edge(("outer", i), i, (i + 1) % 5))
        edges.append(Edge(("inner", i), 5 + i, 5 + (i + 2) % 5))
        edges.append(Edge(("spoke", i), i, 5 + i))
    return Multigraph(tuple(range(10)), tuple(edges))
