"""Brute-force ground truth: explicit adjacency plus breadth-first search.

Deliberately knows nothing about path classes or closed forms; it walks
the graph edge by edge.  Every fast result in this package is tested
against it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diameter import DiameterResult
from .params import CirculantParams, OutOfRangeError, VertexOutOfRangeError

# largest n the oracle accepts: its distance list and queue take about
# 36 bytes per vertex, so 2**24 vertices are ~600 MiB
_MAX_N = 1 << 24


@dataclass(frozen=True)
class ExplicitGraph:
    """Adjacency of C_n(1, s) as the four neighbor offsets, applied lazily.

    Offsets are stored normalized to [1, n); they are pairwise distinct for
    every valid (n, s), so the graph is 4-regular.
    """

    n: int
    offsets: tuple[int, int, int, int]

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of v."""
        n = self.n
        out = []
        for off in self.offsets:
            w = v + off
            out.append(w - n if w >= n else w)
        out.sort()
        return out


def build_adjacency(p: CirculantParams) -> ExplicitGraph:
    """The explicit graph for p; connected since step 1 generates the ring."""
    return ExplicitGraph(n=p.n, offsets=(1, p.s, p.n - p.s, p.n - 1))


def bfs_distances(g: ExplicitGraph, source: int) -> list[int]:
    """Hop distance from source to every vertex, by plain queue BFS; n <= 2**24."""
    n = g.n
    if n > _MAX_N:
        raise OutOfRangeError(f"n={n} exceeds 2**24, the BFS oracle's memory limit")
    if not 0 <= source < n:
        raise VertexOutOfRangeError(f"vertex {source} outside [0, {n})")
    offsets = g.offsets
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for off in offsets:
            w = v + off
            if w >= n:
                w -= n
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
    return dist


def oracle_diameter(p: CirculantParams, all_sources: bool = False) -> DiameterResult:
    """Diameter by BFS from vertex 0; vertex-transitivity covers the rest.

    all_sources=True additionally runs BFS from every vertex and checks
    that each eccentricity matches; quadratic, for paranoia tests only.
    """
    g = build_adjacency(p)
    dist = bfs_distances(g, 0)
    value = max(dist)
    if all_sources:
        for src in range(1, p.n):
            ecc = max(bfs_distances(g, src))
            if ecc != value:
                raise AssertionError(
                    f"eccentricity {ecc} from {src} != {value} from 0; "
                    "graph should be vertex-transitive"
                )
    witnesses = tuple(i for i in range(2, p.half + 1) if dist[i] == value)
    return DiameterResult(value=value, witnesses=witnesses, method="oracle")
