"""Mutable sphere triangulations, dart-based, grown by random vertex
insertions and changed by edge flips.

Darts are ints; edge ``k`` owns darts ``2k`` and ``2k + 1`` (its side-0 and
side-1 ends), ``twin(d) = d ^ 1``.  ``fnext`` walks each triangular face
counterclockwise, and the rotation successor of a dart around its vertex
is ``fnext(twin(d))``, so the rotation system that
``construct._triangulation_map`` reads off ``fnext`` traces the
triangulation's faces and has genus 0 by construction.

The neighbour sets ``adj`` are built from ``origin`` on first read, then
kept by flips.  The graph is kept simple: a flip is refused when it would
create a loop or a parallel edge, which also keeps every degree at least 3.
"""

from __future__ import annotations

from .core import _BuiltOnRead
from .errors import DomainError


class SphereTriangulation:
    """Triangulation of the sphere grown from a triangle by vertex
    insertions into faces."""

    def __init__(self):
        # triangle 0,1,2: inner face (0->1, 1->2, 2->0), outer face reversed
        self.origin = [0, 1, 1, 2, 2, 0]
        self.fnext = [2, 5, 4, 1, 0, 3]

    @_BuiltOnRead
    def adj(self) -> dict:
        """Each vertex's neighbour set, from ``origin``."""
        origin = self.origin
        adj = {v: set() for v in range(self.num_vertices)}
        for u, v in zip(origin[::2], origin[1::2]):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def num_vertices(self) -> int:
        return len(self.origin) // 6 + 2  # V = E - F + 2 with 3F = 2E

    @property
    def num_edges(self) -> int:
        return len(self.origin) // 2

    def grow(self, n: int, rng) -> None:
        """Insert vertices until there are ``n``, each into the face of a
        dart drawn as ``rng.randrange`` draws it: vertex ``v`` joins the
        face's corners by new darts ``D``, ``D + 2`` and ``D + 4`` to it."""
        origin, fnext, getrandbits = self.origin, self.fnext, rng.getrandbits
        darts = len(origin)
        for v in range(self.num_vertices, n):
            bits = darts.bit_length()
            d = getrandbits(bits)  # the loop rng.randrange(darts) runs
            while d >= darts:
                d = getrandbits(bits)
            a = fnext[d]
            b = fnext[a]
            origin += (origin[d], v, origin[a], v, origin[b], v)
            fnext += (darts + 5, d, darts + 1, a, darts + 3, b)
            fnext[d], fnext[a], fnext[b] = darts + 2, darts + 4, darts
            darts += 6

    def flip(self, e: int):
        """Replace edge xy by the other diagonal zw of its two faces.

        Returns ((x, y), (z, w)).  Flipping the same edge again restores
        the original triangulation, with the two darts of ``e`` exchanged
        (see ``exchange_darts``).  Raises ``DomainError`` if ``e`` is not
        flippable.
        """
        origin, fnext = self.origin, self.fnext
        d = 2 * e
        a = fnext[d]
        b = fnext[a]
        c = fnext[d + 1]
        f = fnext[c]
        x, y, z, w = origin[d], origin[d + 1], origin[b], origin[f]
        if z == w or z in self.adj[w]:
            raise DomainError(f"edge {e} is not flippable")
        self._flip_at(d, a, b, c, f, x, y, z, w)
        return (x, y), (z, w)

    def _flip_at(self, d, a, b, c, f, x, y, z, w):
        """The surgery of ``flip`` on corners the caller has read and
        checked: ``d`` a dart of the edge, ``a = fnext[d]``, ``b =
        fnext[a]``, ``c = fnext[d ^ 1]``, ``f = fnext[c]``, and the origins
        ``x, y, z, w`` of ``d``, ``d ^ 1``, ``b`` and ``f``."""
        t = d ^ 1
        adj, fnext = self.adj, self.fnext
        adj[x].discard(y)
        adj[y].discard(x)
        adj[z].add(w)
        adj[w].add(z)
        self.origin[d], self.origin[t] = w, z
        fnext[b], fnext[c], fnext[d] = c, d, b
        fnext[f], fnext[a], fnext[t] = a, t, f

    def exchange_darts(self, e: int):
        """Exchange the two darts of edge ``e`` and nothing else: the state
        that ``flip(e); flip(e)`` leaves, without touching ``adj``.  Its own
        inverse.  A relabelling of two darts, it commutes with every flip,
        of ``e`` or of any other edge, so exchanges may be left pending and
        applied later in any order."""
        fnext = self.fnext
        d, t = 2 * e, 2 * e + 1
        a = fnext[d]
        c = fnext[t]
        b = fnext[a]
        f = fnext[c]
        self.origin[d], self.origin[t] = self.origin[t], self.origin[d]
        fnext[d], fnext[f], fnext[t], fnext[b] = c, d, a, t
