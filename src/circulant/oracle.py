"""Brute-force ground truth: explicit adjacency plus breadth-first search.

Deliberately knows nothing about path classes, the lattice or closed forms;
it reads only n and the four neighbor offsets of the explicit graph.  Every
fast result in this package is tested against it.

Two BFS routes, chosen by n alone:

- `bfs_distances` is a plain queue BFS that walks the graph edge by edge.
  It is the only route that returns per-vertex distances, and
  `oracle_diameter` uses it above n = 2**11.
- For n <= 2**11, `oracle_diameter` runs a level-synchronous BFS on n-bit
  integers: one level is the frontier shifted by each offset, ORed, folded
  back once into n bits (every bit lands below 2n) and stripped of the
  vertices already seen, 9 bigint operations instead of one Python step
  per vertex.  Above 2**11 it can lose to the queue (see `_BITSET_MAX_N`).
"""
from __future__ import annotations

from collections import deque
from functools import partial
from typing import NamedTuple

from .diameter import DiameterResult, Witnesses
from .params import CirculantParams, check_limit, check_vertex

# the oracle's n ceiling: its distance list and queue take about 36 bytes
# per vertex, so 2**24 vertices are ~600 MiB
check_oracle_n = partial(check_limit, 1 << 24, "2**24, the BFS oracle's memory limit")

# largest n for the bitmask BFS.  It costs about D * ceil(n/30) bigint digit
# operations against about n Python steps for the queue, and D <= ceil(n/4)
# for every chord, so the bitmask's lead shrinks as n grows.  Its time over
# the queue's at s = 2, isqrt(n) and (n-1)//2 (median of 4 runs of 7-9
# repeats, 2-vCPU Xeon, Python 3.11) was 0.32/0.07/0.33 at n = 300,
# 0.51/0.05/0.55 at n = 2048 and 0.85/0.07/0.96 at n = 4096, where single
# runs at s = (n-1)//2 read 0.66-1.69; so 2**11 is the largest power of
# two at which it wins every chord with a margin
_BITSET_MAX_N = 1 << 11


class ExplicitGraph(NamedTuple):
    """Adjacency of C_n(1, s) as the four neighbor offsets, applied lazily.

    Offsets are stored normalized to [1, n); they are pairwise distinct for
    every valid (n, s), so the graph is 4-regular.
    """

    n: int
    offsets: tuple[int, int, int, int]


def build_adjacency(p: CirculantParams) -> ExplicitGraph:
    """The explicit graph for p; connected since step 1 generates the ring."""
    return ExplicitGraph(n=p.n, offsets=(1, p.s, p.n - p.s, p.n - 1))


def bfs_distances(g: ExplicitGraph, source: int) -> list[int]:
    """Hop distance from source to every vertex, by plain queue BFS; n <= 2**24.

    source is checked as distance_from_zero checks its vertex (check_vertex).
    """
    n = g.n
    check_oracle_n(n)
    source = check_vertex(g, source)
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


def oracle_diameter(p: CirculantParams) -> DiameterResult:
    """Diameter by BFS from vertex 0; vertex-transitivity covers the rest.

    Vertex 0 goes through the bitmask BFS for n <= 2**11 and through
    `bfs_distances` above.
    """
    g = build_adjacency(p)
    if p.n <= _BITSET_MAX_N:
        value, last = _bitset_eccentricity(g)
        witnesses = _set_bits(last, 2, p.half)
    else:
        dist = bfs_distances(g, 0)
        value = max(dist)
        witnesses = tuple(i for i in range(2, p.half + 1) if dist[i] == value)
    return DiameterResult(value, Witnesses(witnesses))


def _bitset_eccentricity(g: ExplicitGraph) -> tuple[int, int]:
    """Level-synchronous BFS from vertex 0 with vertex sets as n-bit ints.

    The offsets 1, s, n - s, n - 1 are {1, n - s} + {0, s - 1}, so the
    four left shifts of the frontier f are h << 1 | h << (n - s) with
    h = f | f << (s - 1): 5 operations, not 7.  Each offset lies in [1, n)
    and f below bit n, so the union lands below bit 2n: one fold,
    x | x >> n, turns it into the union of the four rotations (bits at n
    and above are then cut by the unseen mask).  Returns the eccentricity
    of vertex 0 and the bitmask of the vertices at that distance (the last
    frontier).
    """
    n = g.n
    _, s, n_minus_s, _ = g.offsets
    s_minus_1 = s - 1
    unseen = (1 << n) - 2  # every vertex but 0; also masks the fold to n bits
    f = 1  # the frontier
    depth = 0
    while unseen:
        h = f | f << s_minus_1
        x = h << 1 | h << n_minus_s
        f = (x | x >> n) & unseen
        unseen ^= f
        depth += 1
    return depth, f


def _set_bits(mask: int, lo: int, hi: int) -> tuple[int, ...]:
    """Indices in [lo, hi] of the set bits of mask, ascending."""
    m = mask & ((2 << hi) - (1 << lo))  # bits lo..hi
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)
