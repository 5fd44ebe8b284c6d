"""Exact diameter scan and eccentricity profile."""
import importlib
import tracemalloc

import pytest

from circulant import (
    CirculantParams,
    diameter_exact,
    distance_from_zero,
    eccentricity_profile,
    oracle_diameter,
)
from circulant.diameter import diameters_exact

# circulant/__init__ rebinds the attribute circulant.distance to a function
distance_mod = importlib.import_module("circulant.distance")


def test_figure_graph():
    res = diameter_exact(CirculantParams(10, 4))
    assert res.value == 2
    assert res.witnesses == (2, 3, 5)


def test_gamma_zero_graph():
    assert diameter_exact(CirculantParams(12, 3)).value == 3


def test_witness_includes_constructed_vertex():
    res = diameter_exact(CirculantParams(16, 5))
    assert res.value == 4
    assert 8 in res.witnesses


def test_profile_figure_graph():
    assert eccentricity_profile(CirculantParams(10, 4)) == [
        (0, 0),
        (1, 1),
        (2, 2),
        (3, 2),
        (4, 1),
        (5, 2),
    ]


def test_profile_fixed_prefix():
    for n, s in [(11, 4), (30, 7), (101, 13)]:
        profile = eccentricity_profile(CirculantParams(n, s))
        assert profile[0] == (0, 0)
        assert profile[1] == (1, 1)
        assert len(profile) == n // 2 + 1


def test_witnesses_attain_value_and_stay_in_range():
    for n, s in [(10, 4), (23, 7), (64, 9), (150, 61)]:
        p = CirculantParams(n, s)
        res = diameter_exact(p)
        assert res.witnesses
        assert all(2 <= w <= p.half for w in res.witnesses)
        assert list(res.witnesses) == sorted(res.witnesses)
        for w in res.witnesses:
            assert distance_from_zero(p, w).value == res.value


def test_value_is_profile_max_over_interior():
    for n, s in [(10, 4), (33, 8)]:
        p = CirculantParams(n, s)
        profile = dict(eccentricity_profile(p))
        expected = max(profile[i] for i in range(2, p.half + 1))
        assert diameter_exact(p).value == expected


def test_at_least_two_for_n_six_and_up():
    for n in range(6, 40):
        for s in range(2, (n - 1) // 2 + 1):
            assert diameter_exact(CirculantParams(n, s)).value >= 2


def test_complete_graph_diameter_one():
    # n = 5, s = 2 is the one valid parameter pair giving a complete graph
    res = diameter_exact(CirculantParams(5, 2))
    assert res.value == 1
    assert res.witnesses == (2,)
    assert oracle_diameter(CirculantParams(5, 2)).value == 1


def test_block_combination_is_seamless(monkeypatch):
    # force tiny kernel passes; the result must not depend on pass size
    p = CirculantParams(97, 13)
    want = diameter_exact(p)
    monkeypatch.setattr(distance_mod, "_CHUNK", 5)
    got = diameter_exact(p)
    assert (got.value, got.witnesses) == (want.value, want.witnesses)


def test_one_chord_group_equals_diameter_exact():
    # diameter_exact is this one-chord group, so both are held to BFS
    for n, s in [(5, 2), (10, 4), (97, 13), (150, 61), (100_003, 317), (100_000, 49_999)]:
        p = CirculantParams(n, s)
        (got,) = diameters_exact([p])
        want = oracle_diameter(p)
        assert (got.value, got.witnesses) == (want.value, want.witnesses), (n, s)


@pytest.mark.parametrize("block", [1, 5, 47, 200, 1 << 20])
@pytest.mark.parametrize("kernel_pass", [3, 100, 1 << 13])
def test_batched_blocks_are_seamless(monkeypatch, block, kernel_pass):
    # the kernel's passes are the only tiling, and block caps them as the
    # old scan blocks did: passes of 200 pairs hold 4 chords of 47
    # vertices, and passes under 47 run single chords in vertex ranges;
    # every result must equal diameter_exact at full-size passes
    ps = [CirculantParams(97, s) for s in range(2, 49)]
    want = [diameter_exact(p) for p in ps]
    monkeypatch.setattr(distance_mod, "_CHUNK", min(block, kernel_pass))
    assert diameters_exact(ps) == want
    assert diameters_exact(ps[::-1]) == want[::-1]


def test_batched_entry_takes_one_n():
    assert diameters_exact([]) == []
    with pytest.raises(ValueError):
        diameters_exact([CirculantParams(10, 3), CirculantParams(11, 3)])


@pytest.mark.parametrize(
    "s, value, witnesses", [(3163, 2459, 704), (4_999_999, 2_500_000, 1)]
)
def test_diameter_holds_one_kernel_pass(s, value, witnesses):
    # the kernel's buffers are one pass of at most 2**13 (chord, vertex)
    # pairs, about 0.75 MiB, at any n; a whole-range block at n = 10**7
    # would take 16.7 MiB.  numpy's own import traces about 5.9 MiB
    diameter_exact(CirculantParams(13, 5))
    tracemalloc.start()
    try:
        res = diameter_exact(CirculantParams(10**7, s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.value, len(res.witnesses)) == (value, witnesses)
    assert peak < 2 * 2**20
