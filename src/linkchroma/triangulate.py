"""Mutable sphere triangulations, dart-based, supporting vertex insertion
and edge flips.

Darts are ints; edge ``k`` owns darts ``2k`` and ``2k + 1`` (its side-0 and
side-1 ends), ``twin(d) = d ^ 1``.  ``fnext`` walks each triangular face
counterclockwise, and the rotation successor of a dart around its vertex
is ``fnext(twin(d))``, so a rotation system read off ``fnext`` traces the
triangulation's faces and has genus 0 by construction.

The graph is kept simple: a flip is refused when it would create a loop or
a parallel edge, which also keeps every degree at least 3.
"""

from __future__ import annotations

from .errors import DomainError


class SphereTriangulation:
    """Triangulation of the sphere grown from a triangle by vertex
    insertions into faces."""

    def __init__(self):
        # triangle 0,1,2: inner face (0->1, 1->2, 2->0), outer face reversed
        self.origin = [0, 1, 1, 2, 2, 0]
        self.fnext = [2, 5, 4, 1, 0, 3]
        self.adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return len(self.origin) // 2

    @property
    def num_darts(self) -> int:
        return len(self.origin)

    def endpoints(self, e: int):
        return self.origin[2 * e], self.origin[2 * e + 1]

    def _new_edge(self, u: int, v: int) -> int:
        """Allocate darts 2k (origin u) and 2k+1 (origin v); faces are wired
        up by the caller."""
        k = self.num_edges
        self.origin.extend((u, v))
        self.fnext.extend((-1, -1))
        self.adj[u].add(v)
        self.adj[v].add(u)
        return k

    def insert_vertex(self, dart: int) -> int:
        """Subdivide the face containing ``dart`` into three by a new vertex."""
        d = dart
        a = self.fnext[d]
        b = self.fnext[a]
        x, y, z = self.origin[d], self.origin[a], self.origin[b]
        v = self.num_vertices
        self.adj[v] = set()
        ex = self._new_edge(x, v)
        ey = self._new_edge(y, v)
        ez = self._new_edge(z, v)
        xv, vx = 2 * ex, 2 * ex + 1
        yv, vy = 2 * ey, 2 * ey + 1
        zv, vz = 2 * ez, 2 * ez + 1
        self.fnext[d], self.fnext[yv], self.fnext[vx] = yv, vx, d
        self.fnext[a], self.fnext[zv], self.fnext[vy] = zv, vy, a
        self.fnext[b], self.fnext[xv], self.fnext[vz] = xv, vz, b
        return v

    def flippable(self, e: int) -> bool:
        """True iff the opposite vertices z, w of the faces at edge ``e``
        are distinct and not yet adjacent."""
        fnext = self.fnext
        z = self.origin[fnext[fnext[2 * e]]]
        w = self.origin[fnext[fnext[2 * e + 1]]]
        return z != w and z not in self.adj[w]

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
