"""Property suites: random parameters against structural invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant import (
    WalkSpec,
    bfs_distances,
    build_adjacency,
    canonical_classes,
    distance,
    distance_from_zero,
    distance_range,
    realize_path,
    reduce_walk,
)

from _strategies import params_and_vertex, valid_params


@settings(max_examples=200, deadline=None)
@given(params_and_vertex(max_n=300))
def test_realize_consistency_for_all_canonical_classes(pi):
    p, i = pi
    for pc, length in canonical_classes(p, i):
        assert length == pc.length
        seq, _ = realize_path(p, pc, i)  # raises if the class misses i
        assert len(seq) - 1 == length
        assert seq[0] == 0
        assert seq[-1] == i % p.n


@settings(max_examples=200, deadline=None)
@given(
    valid_params(max_n=500),
    st.tuples(*[st.integers(min_value=0, max_value=30)] * 4),
)
def test_reduce_walk_shortens_and_keeps_endpoint(p, counts):
    walk = WalkSpec(*counts)
    reduced = reduce_walk(p, walk)
    assert reduced.length <= walk.length
    endpoint = (
        walk.plus_outer - walk.minus_outer + p.s * (walk.plus_inner - walk.minus_inner)
    ) % p.n
    # realization must land exactly on the walk's endpoint
    seq, _ = realize_path(p, reduced, endpoint)
    assert seq[-1] == endpoint


@settings(max_examples=150, deadline=None)
@given(params_and_vertex())
def test_ring_symmetry(pi):
    p, i = pi
    assert (
        distance_from_zero(p, i).value == distance_from_zero(p, (p.n - i) % p.n).value
    )


@settings(max_examples=150, deadline=None)
@given(params_and_vertex())
def test_distance_one_iff_step_offset(pi):
    p, i = pi
    circular = min(i, p.n - i)
    assert (distance_from_zero(p, i).value == 1) == (circular in (1, p.s))


@settings(max_examples=100, deadline=None)
@given(params_and_vertex(max_n=400))
def test_no_class_beats_the_distance(pi):
    # the pruned scan must equal the minimum over the full class list
    p, i = pi
    full_min = min(length for _, length in canonical_classes(p, i))
    assert distance_from_zero(p, i).value == full_min


@settings(max_examples=60, deadline=None)
@given(valid_params(max_n=300))
def test_range_kernel_matches_bfs(p):
    dist = bfs_distances(build_adjacency(p), 0)
    vec = distance_range(p, 0, p.half)
    assert np.array_equal(vec, np.asarray(dist[: p.half + 1]))


@settings(max_examples=100, deadline=None)
@given(params_and_vertex(), st.integers(min_value=0, max_value=10**9))
def test_pair_symmetry(pi, j_seed):
    p, i = pi
    j = j_seed % p.n
    assert distance(p, i, j).value == distance(p, j, i).value


@settings(max_examples=100, deadline=None)
@given(params_and_vertex(max_n=600), st.integers(min_value=0, max_value=10**9))
def test_triangle_inequality(pi, seed):
    p, i = pi
    j = seed % p.n
    k = (seed // p.n) % p.n
    assert (
        distance(p, i, k).value
        <= distance(p, i, j).value + distance(p, j, k).value
    )
