"""Exact diameter scan, eccentricity profile and the witness sequence."""
import importlib
import json
import pickle
import tracemalloc

import pytest

from circulant import (
    CirculantParams,
    diameter_exact,
    diameter_formula,
    distance_from_zero,
    eccentricity_profile,
    oracle_diameter,
)
from circulant.diameter import DiameterResult, Witnesses, diameters_exact
from circulant.distance import closest_point

from _strategies import DTYPE_BOUNDARY_NS, dtype_boundary_chords

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
    "s, value, witnesses",
    [(3163, 2459, 704), (4_999_999, 2_500_000, 1), (2_718_281, 2825, 358)],
)
def test_diameter_holds_one_kernel_pass(s, value, witnesses):
    # the kernel's buffers are one pass of at most 2**13 (chord, vertex)
    # pairs, about 0.6 MiB in int64, plus period tables of under 2**14
    # entries, at any n; a whole-range block at n = 10**7
    # would take 16.7 MiB.  numpy's own import traces about 5.9 MiB.  The
    # first two cells have |uy| <= 2, so their passes keep constant rows;
    # u = (108, 2932) for s = 2718281 makes its passes cross rows, and its
    # image s' = 4351879 (u = (2932, -108)) also reads (2825, 358)
    diameter_exact(CirculantParams(13, 5))
    tracemalloc.start()
    try:
        res = diameter_exact(CirculantParams(10**7, s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.value, len(res.witnesses)) == (value, witnesses)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n, s", [(10**6, 997), (2**20 - 1, 1024), (10**6, 271_828)])
def test_int32_pass_takes_half_the_bytes(n, s):
    # below n = 2**20 a pass computes in int32: about 0.3 MiB, where the
    # int64 pass of the test above takes about 0.6 MiB.  The first two
    # cells keep constant rows on every pass, and their period tables
    # (uh <= 2**13) take 0.1 MiB more; C_10^6(1, 271828), with
    # u = (404, 607), crosses rows; it has no closed form, and its diameter
    # is 909
    p = CirculantParams(n, s)
    diameter_exact(CirculantParams(13, 5))
    tracemalloc.start()
    try:
        res = diameter_exact(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == (909 if s == 271_828 else diameter_formula(p).value)
    assert peak < 2**19


def test_witnesses_keep_8_bytes_each():
    # 704 witnesses, which a tuple of Python ints keeps at 41 B each.  The
    # warm-up runs an int64 pass too, so numpy's first-use caches are not
    # counted
    diameter_exact(CirculantParams(2**20 + 1, 3))
    tracemalloc.start()
    try:
        res = diameter_exact(CirculantParams(10**7, 3163))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.value, len(res.witnesses)) == (2459, 704)
    assert kept / len(res.witnesses) < 20


def test_witnesses_take_4_bytes_below_2_pow_32():
    # every vertex of an n < 2**32 fits a C int; one that does not keeps
    # all of its result's vertices at 8 bytes, exactly.  The vertices are
    # the bytes of the one object that holds them
    res = diameter_exact(CirculantParams(10**7, 3163))
    assert isinstance(res.witnesses, bytes) and bytes.__len__(res.witnesses) == 4 * len(res.witnesses)
    for items, size in (((2, 2**31 - 1), 4), ((2, 2**31, 2**40 - 1), 8), ((3, -(2**31) - 1), 8)):
        w = Witnesses(items)
        assert bytes.__len__(w) == size * len(items) and w != bytes(w) and bytes(w) != w
        assert w == items and list(w) == list(items) and w[-1] == items[-1]
        assert pickle.loads(pickle.dumps(w)) == items
        for k in (len(items), 2**62, -(2**70)):
            with pytest.raises(IndexError):
                w[k]


@pytest.mark.parametrize("n", DTYPE_BOUNDARY_NS)
def test_diameters_at_the_dtype_boundary(n):
    # one many-chord call on each side of the int32/int64 switch
    ps = [CirculantParams(n, s) for s in dtype_boundary_chords(n)]
    for p, res in zip(ps, diameters_exact(ps)):
        formula = diameter_formula(p)
        if formula:
            assert res.value == formula.value, (n, p.s)
        assert 0 < len(res.witnesses) and 2 <= res.witnesses[0] and res.witnesses[-1] <= p.half
        for w in res.witnesses[:3] + res.witnesses[-3:]:
            assert sum(map(abs, closest_point(p, w))) == res.value, (n, p.s, w)


@pytest.mark.parametrize("n, s", [(100, 13), (3000, 31)])
def test_witnesses_stand_in_for_their_tuple(n, s):
    # (100, 13) goes through the bitmask BFS, (3000, 31) through the queue
    res, orac = diameter_exact(CirculantParams(n, s)), oracle_diameter(CirculantParams(n, s))
    w, t = res.witnesses, tuple(res.witnesses)
    assert len(t) > 1
    assert w == t and t == w and w != list(t) and w != t[:-1] and w != t[:-1] + (t[-1] + 1,)
    assert hash(w) == hash(t) and repr(w) == repr(t) and str(w) == str(t)
    assert w[1:] == t[1:] and type(w[1:]) is tuple and w[::-1] == t[::-1] and w[-1] == t[-1]
    for k in (len(t), -len(t) - 1):
        with pytest.raises(IndexError):
            w[k]
    assert Witnesses(t) == w and Witnesses(t[:-1]) != w and Witnesses(t[::-1]) != w
    assert res == orac and orac == res and hash(res) == hash(orac) and res == (res.value, t)
    assert repr(res) == f"DiameterResult(value={res.value}, witnesses={t!r})"
    assert DiameterResult(res.value, t) == res and {res: 1}[DiameterResult(res.value, t)] == 1
    assert list(w) == list(t) and json.dumps({"witnesses": list(w)}) == json.dumps({"witnesses": list(t)})
    assert all(type(v) is int for v in w)
    for record in (res, orac):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert clone == record and type(clone.witnesses) is type(w), protocol
    with pytest.raises(TypeError):
        w[0] = 0
    with pytest.raises(AttributeError):
        w.extra = 0


def test_witnesses_keep_one_object_of_4_bytes_a_vertex():
    # 15 vertices below 2**31: 60 bytes of ints in one bytes object, about
    # 110 B with its header; an array behind a wrapper kept about 180 B
    items = [2 + k * (2**31 - 3) // 14 for k in range(15)]
    Witnesses(items)
    tracemalloc.start()
    try:
        w = Witnesses(items)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w == tuple(items) and w[-1] == 2**31 - 1
    assert kept <= 120, kept
