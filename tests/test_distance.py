"""Distance values, argmin classes, the closest-point rule and the range kernel."""
import importlib
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from circulant import (
    CirculantParams,
    Family,
    VertexOutOfRangeError,
    bfs_distances,
    bounds_report,
    build_adjacency,
    canonical_classes,
    diameter_exact,
    distance,
    distance_from_zero,
    distance_range,
    oracle_diameter,
    realize_path,
)
from circulant.diameter import diameters_exact
from circulant.distance import (
    _CHUNK,
    DistanceResult,
    _lattice_passes,
    _shared_row,
    closest_point,
    wrap_limit,
)
from circulant.paths import InconsistentClassError, PathClass, class_lengths, t_range

from _strategies import DTYPE_BOUNDARY_NS, dtype_boundary_chords, multiplier_image

# circulant/__init__ rebinds the attribute circulant.distance to a function
distance_mod = importlib.import_module("circulant.distance")

P10 = CirculantParams(10, 4)


def test_chord_back_step():
    res = distance_from_zero(P10, 6)
    assert res.value == 1
    assert res.argmin_class.family is Family.P3T
    assert res.argmin_class.t == 1
    assert (res.argmin_class.x, res.argmin_class.y) == (0, -1)
    assert str(res.argmin_class) == "(0, 1c-)"
    assert res.realized == (0, 6)


def test_self_distance():
    res = distance_from_zero(P10, 0)
    assert res.value == 0
    assert res.realized == (0,)
    assert res.argmin_class.length == 0


def test_unit_step():
    res = distance_from_zero(P10, 1)
    assert res.value == 1
    assert res.realized == (0, 1)


def test_two_step_vertex():
    assert distance_from_zero(P10, 5).value == 2


def test_pair_queries_translate():
    assert distance(P10, 6, 9).value == 2
    assert distance(P10, 6, 6).value == 0
    assert distance(P10, 6, 2).value == 1


def test_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        distance_from_zero(P10, 10)
    with pytest.raises(VertexOutOfRangeError):
        distance(P10, 0, -1)


_PC6 = PathClass(0, -1, Family.P3T, 1)  # the shortest class from 0 to 6 in C_10(1, 4)


@pytest.mark.parametrize("vertex", [6.5, 6.0, np.float64(6), "6"], ids=repr)
@pytest.mark.parametrize(
    "query",
    [
        lambda v: distance(P10, 0, v),
        lambda v: distance(P10, v, 0),
        lambda v: distance_from_zero(P10, v),
        lambda v: canonical_classes(P10, v),
        lambda v: realize_path(P10, _PC6, v),
        lambda v: closest_point(P10, v),
    ],
    ids=[
        "distance_to",
        "distance_from",
        "distance_from_zero",
        "canonical_classes",
        "realize_path",
        "closest_point",
    ],
)
def test_non_integer_vertex_raises_type_error(query, vertex):
    # a float used to give a float "distance": d(0, 6.5) = 1.5
    with pytest.raises(TypeError, match="need an integer"):
        query(vertex)


def test_numpy_int_vertex_is_a_python_int():
    res = distance(P10, np.int64(0), np.int64(6))
    assert res == distance(P10, 0, 6) == distance_from_zero(P10, np.int64(6))
    assert type(res.value) is int and res.value == 1
    assert realize_path(P10, _PC6, np.int64(6)) == ([0, 6], True)
    assert canonical_classes(P10, np.int64(6)) == canonical_classes(P10, 6)
    assert closest_point(P10, np.int64(6)) == closest_point(P10, 6) == (0, -1)


def test_value_is_min_over_all_canonical_classes():
    # the scalar scan prunes large wrap counts; the full list must agree on
    # the value and, under the (length, family, t) tie-break, on the class
    for n, s in [(10, 4), (13, 5), (31, 7), (47, 23), (60, 29), (101, 50)]:
        p = CirculantParams(n, s)
        for i in range(p.n):
            first, full_min = min(
                canonical_classes(p, i),
                key=lambda entry: (entry[1], entry[0].family, entry[0].t or 0),
            )
            res = distance_from_zero(p, i)
            assert res.value == full_min, (n, s, i)
            assert res.argmin_class == first, (n, s, i)


def test_matches_bfs_on_sample_cells():
    for n, s in [(10, 4), (12, 3), (16, 5), (29, 8), (64, 21), (121, 34)]:
        p = CirculantParams(n, s)
        dist = bfs_distances(build_adjacency(p), 0)
        for i in range(n):
            assert distance_from_zero(p, i).value == dist[i], (n, s, i)


def test_ring_symmetry():
    for n, s in [(10, 4), (17, 5), (40, 7)]:
        p = CirculantParams(n, s)
        for i in range(1, n // 2 + 1):
            assert distance_from_zero(p, i).value == distance_from_zero(p, n - i).value


def test_distance_one_iff_neighbor():
    for n, s in [(10, 4), (19, 6), (24, 11)]:
        p = CirculantParams(n, s)
        for i in range(n):
            circ = min(i, n - i)
            expected = circ in (1, s)
            assert (distance_from_zero(p, i).value == 1) == expected


def test_argmin_prefers_earlier_family_on_ties():
    # C_12(1,3), i = 6: P1 = (0a, 2c+) and P3T(t=1) = (0a, 2c-) both have
    # length 2; the tie must resolve to P1
    p = CirculantParams(12, 3)
    res = distance_from_zero(p, 6)
    assert res.value == 2
    assert res.argmin_class.family is Family.P1


def test_range_kernel_matches_scalar():
    for n, s in [(10, 4), (13, 5), (50, 11), (97, 13), (200, 83)]:
        p = CirculantParams(n, s)
        vec = distance_range(p, 0, p.half)
        for i in range(p.half + 1):
            assert vec[i] == distance_from_zero(p, i).value, (n, s, i)


def test_range_kernel_partial_window():
    # the second cell spans three kernel chunks; its windows straddle edges
    cells = [
        (100, 7, [(10, 30)]),
        (40_000, 137, [(1, _CHUNK + 2), (_CHUNK - 7, 2 * _CHUNK + 9), (3, 20_000)]),
    ]
    for n, s, windows in cells:
        p = CirculantParams(n, s)
        whole = distance_range(p, 0, p.half)
        for lo, hi in windows:
            assert np.array_equal(whole[lo : hi + 1], distance_range(p, lo, hi)), (n, s, lo, hi)


def test_range_kernel_rejects_bad_window():
    # each end is checked as distance_from_zero checks its vertex; an end
    # outside [0, n) is a VertexOutOfRangeError, which is a ValueError
    for lo, hi in ((-1, 4), (0, 10)):
        with pytest.raises(VertexOutOfRangeError):
            distance_range(P10, lo, hi)
    for lo, hi in ((0, 5.5), (np.float64(2), 5)):
        with pytest.raises(TypeError, match="need an integer"):
            distance_range(P10, lo, hi)
    with pytest.raises(ValueError) as excinfo:
        distance_range(P10, 3, 2)
    assert "outside" not in str(excinfo.value)
    assert np.array_equal(distance_range(P10, np.int64(2), 5), distance_range(P10, 2, 5))


@pytest.mark.parametrize(
    "n, s", [(10_000, 3), (100_000, 33_333), (10_007, 2_000), (99_991, 316)]
)
def test_scalar_route_is_multiplier_invariant(n, s):
    # the scalar counterpart of the range-kernel check below: the two class
    # scans run with different chords and wrap limits (1 against thousands)
    u = pow(s, -1, n)
    p, image = CirculantParams(n, s), CirculantParams(n, min(u, n - u))
    for i in random.Random(n + s).sample(range(1, n), 8):
        expected = distance_from_zero(image, u * i % n).value
        assert distance_from_zero(p, i).value == expected, (n, s, i)


def test_range_kernel_int64_domain():
    # at n = 2**40 a Fibonacci-like chord balances the reduced basis, so
    # i*uy near i = n is at its largest; d(i) = d(n - i) would break on overflow
    n = 2**40
    p = CirculantParams(n, 419_976_070_784)
    top = distance_range(p, n - 2000, n - 1)
    assert np.array_equal(top[::-1], distance_range(p, 1, 2000))
    # the kernel used to overflow here silently (vertex 5 came out negative)
    p = CirculantParams(2**62 - 1, 2**31 + 11)
    with pytest.raises(ValueError, match=r"2\*\*40"):
        distance_range(p, 0, 10)
    assert distance_from_zero(p, 5).value == 5


def test_range_kernel_matches_closest_point_at_largest_dividends():
    # n near the kernel's 2**40 limit gives the one-chord division its
    # largest dividends, including negative ones, at both ends of [0, n)
    rng = random.Random(39)
    for _ in range(10):
        n = rng.randrange(2**39, 2**40 + 1)
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        p = CirculantParams(n, s)
        start = rng.randrange(64, n - 128)
        for lo in (0, start, n - 64):
            got = distance_range(p, lo, lo + 63).tolist()
            want = [sum(map(abs, closest_point(p, i))) for i in range(lo, lo + 64)]
            assert got == want, (n, s, lo)


@pytest.mark.parametrize("n, dtype", [(2**20 - 1, np.int32), (2**20, np.int64)])
def test_kernel_dtype_switches_at_2_pow_20(n, dtype):
    # one-chord and many-chord passes alike; the window stays int64
    ps = [CirculantParams(n, s) for s in (3, 1024, (n - 1) // 2)]
    for chords in (ps[:1], ps):
        blocks = [block.copy() for _, _, block in _lattice_passes(chords, n - 10, n - 1)]
        assert {b.dtype for b in blocks} == {np.dtype(dtype)}
        assert sum(len(b) for b in blocks) == len(chords)
    assert distance_range(ps[0], n - 10, n - 1).dtype == np.int64


@pytest.mark.parametrize("n", DTYPE_BOUNDARY_NS)
def test_range_kernel_matches_closest_point_at_the_dtype_boundary(n):
    # windows at both ends of [0, n), where i*uy is largest near i = n, and
    # one seeded; many-chord passes over the top window read a column table
    rng = random.Random(n)
    ps = [CirculantParams(n, s) for s in dtype_boundary_chords(n)]
    start = rng.randrange(64, n - 128)
    for p in ps:
        for lo in (0, start, n - 64):
            got = distance_range(p, lo, lo + 63).tolist()
            want = [sum(map(abs, closest_point(p, i))) for i in range(lo, lo + 64)]
            assert got == want, (n, p.s, lo)
    top = [distance_range(p, n - 64, n - 1).tolist() for p in ps]
    for chords, lo, block in _lattice_passes(ps, n - 64, n - 1):
        at = lo - (n - 64)
        for k, row in zip(chords, block.tolist()):
            assert row == top[k][at : at + len(row)], (n, ps[k].s, lo)


def _seeded_coprime_cells(count, rng):
    cells = []
    while len(cells) < count:
        n = round(math.exp(rng.uniform(math.log(10**3), math.log(10**6))))
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        if math.gcd(n, s) == 1:
            cells.append((n, s))
    return cells


SEEDED_COPRIME_CELLS = _seeded_coprime_cells(4, random.Random(997))


# (n, s, heavy coordinate of u, |uy|) on both sides of n = 2**20: |uy| = 1, 2
# and 3 with u heavy in x, and 2 and 3 with u heavy in y (|uy| = 1 would need
# u = (0, 1)).  b0 = floor(-i*uy/n) steps at most |uy| times over [0, n), so
# most one-chord passes keep their two rows; C_10^6(1, 271828), with
# u = (404, 607), steps 607 times
ROW_STEP_CELLS = [
    (2**20 - 1, 2, "x", 1), (2**20 - 1, 524_247, "x", 2), (2**20 - 1, 349_485, "x", 3),
    (2**20 - 1, 524_287, "y", 2), (2**20 - 1, 349_525, "y", 3),
    (2**20 + 7, 2, "x", 1), (2**20 + 7, 524_251, "x", 2), (2**20 + 7, 349_487, "x", 3),
    (2**20 + 7, 524_291, "y", 2), (2**20 + 7, 349_527, "y", 3),
    (10**6, 271_828, "y", 607),
]


def _row_steps(p):
    """Every i in [1, n) whose b0 = floor(-i*uy/n) differs from that of i - 1."""
    n, neg_uy = p.n, -p.basis[1]
    k = abs(neg_uy)
    near = {j * n // k + e for j in range(k + 1) for e in (-1, 0, 1, 2)}
    return sorted(t for t in near if 1 <= t < n and t * neg_uy // n != (t - 1) * neg_uy // n)


@pytest.mark.parametrize("n, s, heavy, uy", ROW_STEP_CELLS)
def test_range_kernel_is_exact_at_row_breakpoints(monkeypatch, n, s, heavy, uy):
    # passes of 5 vertices at every alignment around each step of b0 (passes
    # that end just before it, start on it or straddle it) and at the top of
    # [0, n).  Each pass must ask _shared_row about its own first and last
    # vertex, and take constant rows (one or both, held to closest_point's
    # row-dominance rule by the test below) exactly when all its vertices
    # share b0
    p = CirculantParams(n, s)
    ux, basis_uy = p.basis[:2]
    assert (abs(basis_uy), "x" if abs(ux) >= abs(basis_uy) else "y") == (uy, heavy)
    chunk, calls, shared_row = 5, [], distance_mod._shared_row

    def spy(neg_uy, uh, ul, n, first, last):
        calls.append((first, last, shared_row(neg_uy, uh, ul, n, first, last)))
        return calls[-1][-1]

    monkeypatch.setattr(distance_mod, "_CHUNK", chunk)
    monkeypatch.setattr(distance_mod, "_shared_row", spy)
    steps = _row_steps(p)
    assert len(steps) <= uy
    if len(steps) > 4:
        steps = [steps[0], *random.Random(n + s).sample(steps[1:-1], 2), steps[-1]]
    kept = crossed = 0
    for t in [*steps, n - 2 * chunk]:
        for lo in range(max(0, t - 2 * chunk), min(t + 1, n - 3 * chunk + 1)):
            hi = lo + 3 * chunk - 1
            calls.clear()
            got = distance_range(p, lo, hi).tolist()
            assert got == [sum(map(abs, closest_point(p, i))) for i in range(lo, hi + 1)], (s, lo)
            assert [c[:2] for c in calls] == [(a, a + chunk - 1) for a in range(lo, hi + 1, chunk)]
            for first, last, live in calls:
                rows = {i * -basis_uy // n for i in range(first, last + 1)}
                b0 = min(rows) if len(rows) == 1 else None
                assert (live is None) == (b0 is None), (s, first, last)
                if b0 is not None:
                    assert live in ((b0,), (b0 + 1,), (b0, b0 + 1)), (s, first, last)
                kept += b0 is not None
                crossed += b0 is None
    assert kept and bool(crossed) == bool(steps)


# (n, s, heavy coordinate of u, |uy|) on both sides of n = 2**20 whose
# passes meet the edges of closest_point's row-dominance rule,
# 2*(n - 2*rem) >= P and 2*(2*rem - n) >= P with P = |u|_1*|u|_inf.  The
# left side minus P is congruent to 2*n - P mod 4 in both, so the cells
# with 2*n - P = 0 (mod 4) reach equality and those with 3 (mod 4), where
# P is odd, reach a left side of P - 1.  s = 1022 and 1021 are `large`-like: u = (s, -1) and
# P ~ n, so the edge sits near n/4 and half of [2, n/2] needs both rows.
# Their multiplier images have u = (1, 1022) and (-1, 1021)
DOMINANCE_EDGE_CELLS = [
    (2**20 - 1, 1022, "x", 1), (2**20 - 1, 523_747, "x", 2),
    (2**20 - 1, 349_867, "y", 1022), (2**20 - 1, 524_287, "y", 2),
    (2**20 + 7, 1021, "x", 1), (2**20 + 7, 523_751, "x", 2),
    (2**20 + 7, 327_618, "y", 1021), (2**20 + 7, 349_527, "y", 3),
]


def _lone_row(p, i):
    """The row that Hoelder's bound leaves alone for vertex i, or None.

    Row B with offset e = |beta - B| from beta = -i*uy/n holds a point of
    length at most e*g + |u|_1/2 and the other row none shorter than
    (1 - e)*g, with g = n/|u|_inf: B is alone when (1 - 2e)*g >= |u|_1/2.
    """
    ux, uy = p.basis[:2]
    g = Fraction(p.n, max(abs(ux), abs(uy)))
    beta = Fraction(-i * uy, p.n)
    b0 = math.floor(beta)
    for row, e in ((b0, beta - b0), (b0 + 1, b0 + 1 - beta)):
        if (1 - 2 * e) * g >= Fraction(abs(ux) + abs(uy), 2):
            return row
    return None


def _dominance_flips(p):
    """Every i in [1, n) that shares b0 with i - 1 but not its lone row."""
    n, (ux, uy) = p.n, p.basis[:2]
    reach = (abs(ux) + abs(uy)) * max(abs(ux), abs(uy))
    near = set()
    for j in range(min(0, -uy), max(0, -uy) + 1):  # every b0 over [0, n)
        for rem in (Fraction(2 * n - reach, 4), Fraction(2 * n + reach, 4)):
            at = math.floor((j * n + rem) / -uy)
            near.update(range(at - 1, at + 3))
    shared = [t for t in sorted(near) if 1 <= t < n and t * -uy // n == (t - 1) * -uy // n]
    return [t for t in shared if _lone_row(p, t) != _lone_row(p, t - 1)]


@pytest.mark.parametrize("n, s, heavy, uy", DOMINANCE_EDGE_CELLS)
def test_range_kernel_is_exact_at_the_dominance_edge(monkeypatch, n, s, heavy, uy):
    # passes of 5 vertices at every alignment around each vertex where a
    # row starts or stops being alone (all of them when |uy| <= 3), held to
    # closest_point.  A pass that shares b0 must run one row exactly when
    # _lone_row gives that row at both of its ends
    p = CirculantParams(n, s)
    ux, basis_uy = p.basis[:2]
    assert (abs(basis_uy), "x" if abs(ux) >= abs(basis_uy) else "y") == (uy, heavy)
    chunk, calls, shared_row = 5, [], distance_mod._shared_row

    def spy(neg_uy, uh, ul, n, first, last):
        calls.append((first, last, shared_row(neg_uy, uh, ul, n, first, last)))
        return calls[-1][-1]

    monkeypatch.setattr(distance_mod, "_CHUNK", chunk)
    monkeypatch.setattr(distance_mod, "_shared_row", spy)
    flips = _dominance_flips(p)
    assert 2 * uy - 2 <= len(flips) <= 2 * uy + 2
    if uy == 1:  # the `large`-like edge, near n/4
        assert abs(flips[0] - n // 4) < n // 100
    if len(flips) > 6:
        flips = [flips[0], *random.Random(n + s).sample(flips[1:-1], 2), flips[-1]]
    lone = both = 0
    for t in flips:
        for lo in range(max(0, t - 2 * chunk), min(t + 1, n - 3 * chunk + 1)):
            hi = lo + 3 * chunk - 1
            calls.clear()
            got = distance_range(p, lo, hi).tolist()
            assert got == [sum(map(abs, closest_point(p, i))) for i in range(lo, hi + 1)], (s, lo)
            assert [c[:2] for c in calls] == [(a, a + chunk - 1) for a in range(lo, hi + 1, chunk)]
            for first, last, live in calls:
                b0 = first * -basis_uy // n
                if last * -basis_uy // n != b0:
                    assert live is None, (s, first, last)
                    continue
                row = _lone_row(p, first)
                want = (row,) if row is not None and row == _lone_row(p, last) else (b0, b0 + 1)
                assert live == want, (s, first, last)
                lone += len(live) == 1
                both += len(live) == 2
    assert lone and both


# (n, s) with u = (s, -1), heavy in x, on both sides of n = 2**20: uh = s
# runs on both sides of the kernel's uh <= width switch at width 64
PERIOD_EDGE_CELLS = [(n, s) for n in (2**20 - 1, 2**20 + 7) for s in (2, 3, 63, 64, 65)]


@pytest.mark.parametrize("n, s", PERIOD_EDGE_CELLS)
def test_range_kernel_is_exact_at_period_edges(monkeypatch, n, s):
    # passes of 64 vertices around both dominance edges, so that they run
    # row 0 alone, both rows and row 1 alone.  A pass with constant rows
    # reads r = (i - B*wh) mod uh, A*ul and uh - r off tables of 64 + uh - 1
    # entries, which one call builds once and only when uh <= 64.  Windows
    # start at r0 = 0, 1 and uh - 1 on row b0 = 0 (uh - 1 reads the last
    # entry) and end where a period closes; each is held to closest_point
    p = CirculantParams(n, s)
    assert p.basis[:2] == (s, -1)
    chunk, built, lives = 64, [], set()
    period_tables, shared_row = distance_mod._period_tables, distance_mod._shared_row

    def tables_spy(uh, ul, size, dtype):
        built.append((uh, ul, size, dtype))
        return period_tables(uh, ul, size, dtype)

    def rows_spy(*args):
        lives.add(live := shared_row(*args))
        return live

    monkeypatch.setattr(distance_mod, "_CHUNK", chunk)
    monkeypatch.setattr(distance_mod, "_period_tables", tables_spy)
    monkeypatch.setattr(distance_mod, "_shared_row", rows_spy)
    reach, dtype = (s + 1) * s, np.int32 if n < 2**20 else np.int64
    for edge in ((2 * n - reach) // 4, (2 * n + reach) // 4):
        for r0 in (0, 1, s - 1):
            lo = edge - 100 - (edge - 100) % s + r0
            hi = lo + 3 * chunk + (-(lo + 3 * chunk)) % s - 1
            assert lo % s == r0 and (hi + 1) % s == 0
            built.clear()
            got = distance_range(p, lo, hi).tolist()
            assert got == [sum(map(abs, closest_point(p, i))) for i in range(lo, hi + 1)], (lo, hi)
            assert built == ([(s, -1, chunk + s - 1, dtype)] if s <= chunk else []), built
    assert lives == {(0,), (0, 1), (1,)}


@pytest.mark.parametrize("chunk", [3, 5, 200])
def test_small_passes_keep_diameters_exact(monkeypatch, chunk):
    # passes of 3 and 5 vertices run one chord at a time, so most keep their
    # rows and some cross one; passes of 200 pairs hold several chords
    monkeypatch.setattr(distance_mod, "_CHUNK", chunk)
    for n in (41, 97, 128):
        ps = [CirculantParams(n, s) for s in range(2, (n - 1) // 2 + 1)]
        want = [oracle_diameter(p) for p in ps]
        assert diameters_exact(ps) == want, n
        assert [diameter_exact(p) for p in ps] == want, n


def test_closest_point_is_multiplier_invariant_at_any_n():
    # seeded coprime cells with n log-uniform up to 2**62: the two graphs'
    # bases are each other's with the coordinates swapped, so each vertex
    # pair runs closest_point's heavy-x branch against its heavy-y one
    rng = random.Random(26)
    cells = 0
    while cells < 300:
        n = round(math.exp(rng.uniform(math.log(5), math.log(2**62))))
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        if math.gcd(n, s) > 1:
            continue
        p = CirculantParams(n, s)
        image = multiplier_image(p)
        for i in (rng.randrange(n) for _ in range(4)):
            x, y = closest_point(p, i)
            xi, yi = closest_point(image, image.s * i % n)
            assert abs(x) + abs(y) == abs(xi) + abs(yi), (n, s, i)
        cells += 1


@pytest.mark.parametrize(
    "n, s",
    [
        (100_000, 33_333), (1_000_000, 499_999), (100_000, 49_999), (40_000, 19_999),
        (1_000_000, 997), *SEEDED_COPRIME_CELLS,
    ],
)
def test_range_kernel_is_multiplier_invariant(n, s):
    # i -> u*i with u = s^-1 mod n maps C_n(1, s) onto C_n(1, u) = C_n(1, n - u)
    u = pow(s, -1, n)
    whole = distance_range(CirculantParams(n, s), 0, n - 1)
    image = distance_range(CirculantParams(n, min(u, n - u)), 0, n - 1)
    assert np.array_equal(whole, image[np.arange(n, dtype=np.int64) * u % n])


def test_multiplier_pair_runs_both_row_paths():
    # C_10^6(1, 997) has u = (997, -1), so b0 never steps and every pass
    # keeps its rows; its image C_10^6(1, 444333) has u = (-1, 997), so
    # every full pass crosses a row.  The test above holds the two paths equal
    n = 10**6
    assert multiplier_image(CirculantParams(n, 997)).s == 444_333
    for s, kept in ((997, True), (444_333, False)):
        ux, uy = CirculantParams(n, s).basis[:2]
        uh, ul = (ux, uy) if abs(ux) >= abs(uy) else (uy, ux)
        ends = [(lo, lo + _CHUNK - 1) for lo in range(0, n - _CHUNK + 1, _CHUNK)]
        assert all((_shared_row(-uy, uh, ul, n, *e) is not None) == kept for e in ends), s


def test_multiplier_pair_shares_diameter():
    assert diameter_exact(CirculantParams(100_000, 33_333)).value == 16_668
    assert diameter_exact(CirculantParams(100_000, 3)).value == 16_668


def test_range_kernel_matches_scalar_on_cliff_cells():
    # s ~ n/2, where the scan needs thousands of wrap counts per vertex;
    # 10 vertices per cell keep the scan under half a second
    rng = random.Random(2)
    for n, s in [(100_000, 49_999), (40_000, 19_999)]:
        p = CirculantParams(n, s)
        vec = distance_range(p, 0, n - 1)
        for i in rng.sample(range(n), 10):
            assert vec[i] == distance_from_zero(p, i).value, (n, s, i)


def test_wrap_limit_never_exceeds_full_range():
    for n, s in [(10, 4), (12, 3), (210, 13), (1000, 499)]:
        p = CirculantParams(n, s)
        assert 1 <= wrap_limit(p) <= t_range(p)


def test_wrap_limit_collapses_for_large_n():
    p = CirculantParams(1_000_000, 997)
    assert t_range(p) == 997
    assert wrap_limit(p) <= 2


def _check_closest_point(p, i, value):
    x, y = closest_point(p, i)
    assert (x + p.s * y - i) % p.n == 0, (p, i)
    assert abs(x) + abs(y) == value, (p, i)


def test_closest_point_matches_kernel_on_small_cells():
    for n in range(5, 201):
        for s in range(2, (n - 1) // 2 + 1):
            p = CirculantParams(n, s)
            for i, value in enumerate(distance_range(p, 0, p.half).tolist()):
                _check_closest_point(p, i, value)


def test_closest_point_matches_kernel_on_seeded_vertices():
    rng = random.Random(400)
    for n in range(201, 401):
        for s in range(2, (n - 1) // 2 + 1):
            p = CirculantParams(n, s)
            dist = distance_range(p, 0, p.half).tolist()
            for i in rng.sample(range(p.half + 1), 16):
                _check_closest_point(p, i, dist[i])


def test_closest_point_matches_class_scan_at_huge_n():
    # past the kernel's 2**40 and BFS: with s <= isqrt(n) the scan needs at
    # most 2 wrap counts, so it is cheap there
    rng = random.Random(62)
    for _ in range(300):
        n = rng.randrange(2**40, 2**62 + 1)
        s = round(math.exp(rng.uniform(math.log(2), math.log(math.isqrt(n)))))
        p = CirculantParams(n, s)
        limit = wrap_limit(p)
        assert limit <= 2, p
        for i in (rng.randrange(n) for _ in range(4)):
            _check_closest_point(p, i, min(class_lengths(p, i, limit))[0])


def test_lazy_path_is_the_realized_list_on_small_cells():
    for n in range(5, 61):
        for s in range(2, (n - 1) // 2 + 1):
            p = CirculantParams(n, s)
            for i in range(n):
                res = distance_from_zero(p, i)
                seq, _ = realize_path(p, res.argmin_class, i)
                path = res.realized
                assert path == tuple(seq) and len(path) == res.value + 1, (n, s, i)
                assert [path[k] for k in range(-len(path), 0)] == seq, (n, s, i)


def test_distance_result_equality_hash_and_pickle():
    res = distance_from_zero(P10, 6)
    again = distance_from_zero(P10, 6)
    assert res == again and hash(res) == hash(again)
    # a result holding the plain tuple of its path is the same value
    plain = DistanceResult(res.value, res.argmin_class, (0, 6))
    assert plain == res and res == plain and hash(plain) == hash(res)
    assert pickle.loads(pickle.dumps(res)) == res
    assert res != distance_from_zero(P10, 2)


def test_graph_computes_its_wrap_limit_once(monkeypatch):
    module = importlib.import_module("circulant.distance")
    calls = []
    monkeypatch.setattr(module, "bounds_report", lambda p: calls.append(p) or bounds_report(p))
    p = CirculantParams(10_007, 2_000)
    rng = random.Random(100)
    for _ in range(100):
        distance(p, rng.randrange(p.n), rng.randrange(p.n))
    assert calls == [p]


def test_scan_divides_each_dividend_once(monkeypatch):
    # one divmod per dividend t*n + sign*i, 1 + 2*T of them, and one more to
    # build the winning class
    module = importlib.import_module("circulant.paths")
    calls = []
    monkeypatch.setattr(module, "divmod", lambda a, b: calls.append(a) or divmod(a, b), raising=False)
    p = CirculantParams(100_001, 50_000)
    limit = p.wrap_limit
    res = distance_from_zero(p, 33_334)
    assert (res.value, str(res.argmin_class)) == (16_667, "(16666a-, 1c+)")
    assert len(calls) == 2 + 2 * limit


def test_scan_winner_that_misses_the_target_raises(monkeypatch):
    module = importlib.import_module("circulant.distance")
    monkeypatch.setattr(module, "build_class", lambda p, i, family, t: PathClass(1, 0))
    with pytest.raises(InconsistentClassError):
        distance_from_zero(P10, 6)


def test_path_at_huge_n_takes_constant_memory():
    # the path holds 166,666,669 vertices; built as a list it took over
    # 1.5 GB and seconds
    start = time.perf_counter()
    res = distance_from_zero(CirculantParams(10**9, 3), 5 * 10**8)
    assert (res.value, len(res.realized), res.realized[-1]) == (166_666_668, 166_666_669, 5 * 10**8)
    assert time.perf_counter() - start < 1.0


def test_lazy_path_follows_the_step_rule_at_huge_n():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randrange(2**40, 2**62 + 1)
        s = rng.randrange(2, math.isqrt(n) + 1)
        p = CirculantParams(n, s)
        i = rng.randrange(n)
        res = distance_from_zero(p, i)
        x, y = res.argmin_class.x, res.argmin_class.y
        path = res.realized
        assert len(path) == res.value + 1 == abs(x) + abs(y) + 1, (n, s, i)
        assert path[0] == 0 and path[-1] == i, (n, s, i)
        # |x| ring steps first, then |y| chords, each the way of its sign
        k = rng.randrange(len(path) - 1)
        ring = min(k, abs(x)) * (1 if x > 0 else -1)
        chords = max(0, k - abs(x)) * (1 if y > 0 else -1)
        assert path[k] == (ring + chords * s) % n, (n, s, i, k)
        assert (path[k + 1] - path[k]) % n in (1, s, n - s, n - 1), (n, s, i, k)
        _check_closest_point(p, i, res.value)
