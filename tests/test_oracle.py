"""Explicit adjacency and breadth-first search ground truth."""
import math

import numpy as np
import pytest

from circulant import (
    CirculantParams,
    VertexOutOfRangeError,
    bfs_distances,
    build_adjacency,
    diameter_exact,
    oracle,
    oracle_diameter,
)

P10 = CirculantParams(10, 4)


def test_neighbors_of_zero():
    assert sorted(build_adjacency(P10).offsets) == [1, 4, 6, 9]


def test_four_regular():
    for n, s in [(10, 4), (5, 2), (13, 6), (30, 7)]:
        assert len(set(build_adjacency(CirculantParams(n, s)).offsets)) == 4


def test_neighbors_translate():
    # vertex i's neighbors are i + offsets, so BFS from i is BFS from 0 shifted
    g = build_adjacency(P10)
    base = bfs_distances(g, 0)
    for i in range(10):
        dist = bfs_distances(g, i)
        assert all(dist[(v + i) % 10] == base[v] for v in range(10))


def test_adjacency_is_symmetric():
    offsets = build_adjacency(CirculantParams(17, 6)).offsets
    assert {(17 - off) % 17 for off in offsets} == set(offsets)


def test_bfs_chord_neighbor():
    assert bfs_distances(build_adjacency(P10), 0)[6] == 1


def test_bfs_source_is_zero():
    dist = bfs_distances(build_adjacency(P10), 3)
    assert dist[3] == 0
    assert all(d >= 0 for d in dist)


def test_bfs_two_step_reach():
    # two steps of {+-1, +-5} already cover all of Z_13
    dist = bfs_distances(build_adjacency(CirculantParams(13, 5)), 0)
    assert max(dist) == 2


def test_bfs_rejects_bad_source():
    # the source is checked as distance_from_zero checks its vertex
    g = build_adjacency(P10)
    with pytest.raises(VertexOutOfRangeError):
        bfs_distances(g, 10)
    for source in (6.0, "1"):
        with pytest.raises(TypeError, match="need an integer"):
            bfs_distances(g, source)
    assert bfs_distances(g, np.int64(3)) == bfs_distances(g, 3)


def test_bfs_ring_symmetry():
    for n, s in [(10, 4), (21, 8), (48, 13)]:
        dist = bfs_distances(build_adjacency(CirculantParams(n, s)), 0)
        for i in range(1, n):
            assert dist[i] == dist[n - i]


def test_diameter_values():
    assert oracle_diameter(CirculantParams(12, 3)).value == 3
    assert oracle_diameter(CirculantParams(14, 5)).value == 3
    assert oracle_diameter(CirculantParams(5, 2)).value == 1


def test_diameter_result_shape():
    res = oracle_diameter(P10)
    assert res.witnesses == (2, 3, 5)
    # the BFS and kernel records carry no provenance, so they compare equal
    assert res == diameter_exact(P10) == (2, (2, 3, 5))
    value, witnesses = diameter_exact(P10)
    assert (value, witnesses) == (2, (2, 3, 5))


def test_all_sources_agree_on_small_graphs():
    # vertex-transitivity: every source's eccentricity is the oracle's diameter
    for n, s in [(10, 4), (13, 5), (20, 7), (31, 9)]:
        p = CirculantParams(n, s)
        g, value = build_adjacency(p), oracle_diameter(p).value
        for src in range(n):
            assert max(bfs_distances(g, src)) == value, (n, s, src)


def _queue_diameter(p):
    """Diameter and witnesses read off the queue BFS's distance list."""
    dist = bfs_distances(build_adjacency(p), 0)
    value = max(dist)
    return value, tuple(i for i in range(2, p.half + 1) if dist[i] == value)


_ROUTE_BOUNDARY = [
    (n, s) for n in (2047, 2048, 2049) for s in sorted({2, 3, math.isqrt(n), (n - 1) // 2})
]


@pytest.mark.parametrize("n, s", _ROUTE_BOUNDARY)
def test_diameter_matches_queue_bfs_at_route_boundary(n, s):
    p = CirculantParams(n, s)
    res = oracle_diameter(p)
    assert (res.value, res.witnesses) == _queue_diameter(p)


def test_diameter_matches_queue_bfs_on_small_cells():
    for n in range(5, 41):
        for s in range(2, (n - 1) // 2 + 1):
            p = CirculantParams(n, s)
            res = oracle_diameter(p)
            assert (res.value, res.witnesses) == _queue_diameter(p), (n, s)


def test_diameter_route_is_chosen_by_n(monkeypatch):
    calls = []
    queue_bfs = oracle.bfs_distances

    def counted(g, source):
        calls.append(g.n)
        return queue_bfs(g, source)

    monkeypatch.setattr(oracle, "bfs_distances", counted)
    oracle_diameter(CirculantParams(2048, 45))
    assert calls == []  # bitmask route
    oracle_diameter(CirculantParams(2049, 45))
    assert calls == [2049]
