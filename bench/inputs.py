"""Seeded inputs for the three workloads; imports nothing from circulant.

Pools are drawn on a jittered grid over the unit square (one uniform point
in each cell) and mapped to (n, s) through log-uniform or uniform scales.
Every point is still distributed exactly as the workload describes, but
each seed covers the expensive corner (large n with s near n/2) with the
same number of graphs, so the heavy tail that sets throughput and the top
percentiles does not hinge on how many lucky draws one seed makes.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are; FULL is the benchmark, TINY the smoke test."""

    name: str
    # point-queries: pool of rows x cols graphs, n log-uniform in query_n
    query_grid: tuple[int, int]
    query_n: tuple[int, int]
    # diameter-scan: the two strata, each a rows x cols grid
    large_grid: tuple[int, int]
    large_n: tuple[int, int]
    wide_grid: tuple[int, int]
    wide_n: tuple[int, int]
    # grid-sweep: every valid (n, s) with 5 <= n <= sweep_n_max
    sweep_n_max: int
    # passes over the point-query pool that the traced run replays
    trace_query_passes: int
    # fresh interpreters timed for setup_s
    setup_probes: int


FULL = Sizes(
    name="full",
    query_grid=(32, 64),
    query_n=(10**3, 10**5),
    large_grid=(32, 8),
    large_n=(10**5, 10**6),
    wide_grid=(8, 32),
    wide_n=(10**3, 2 * 10**4),
    sweep_n_max=300,
    trace_query_passes=4,
    setup_probes=9,
)

TINY = Sizes(
    name="tiny",
    query_grid=(2, 3),
    query_n=(50, 400),
    large_grid=(2, 2),
    large_n=(2000, 6000),
    wide_grid=(2, 2),
    wide_n=(40, 300),
    sweep_n_max=16,
    trace_query_passes=2,
    setup_probes=1,
)

SIZES = {s.name: s for s in (FULL, TINY)}


def log_uniform(lo: int, hi: int, u: float) -> int:
    """The integer floor of lo * (hi/lo)**u, kept inside [lo, hi]."""
    value = int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return min(hi, max(lo, value))


def uniform_int(lo: int, hi: int, u: float) -> int:
    """An integer in [lo, hi] with every value equally likely when u is uniform."""
    return min(hi, lo + int(u * (hi - lo + 1)))


def jittered_grid(grid: tuple[int, int], rng: random.Random) -> list[tuple[float, float]]:
    """One uniform point in each cell of a rows x cols grid on [0, 1)^2."""
    rows, cols = grid
    return [
        ((r + rng.random()) / rows, (c + rng.random()) / cols)
        for r in range(rows)
        for c in range(cols)
    ]


def point_pool(seed: int, sizes: Sizes) -> list[tuple[int, int]]:
    """(n, s) pairs: n log-uniform in query_n, s log-uniform in [2, (n-1)//2]."""
    rng = random.Random(f"point-queries/{seed}")
    lo, hi = sizes.query_n
    pool = []
    for u_n, u_s in jittered_grid(sizes.query_grid, rng):
        n = log_uniform(lo, hi, u_n)
        pool.append((n, log_uniform(2, (n - 1) // 2, u_s)))
    rng.shuffle(pool)
    return pool


def query_stream(seed: int, pool: list[tuple[int, int]]):
    """Endless passes over the pool; each pass asks every graph one (i, j).

    Yields lists of (graph index, i, j), one list per pass, with i and j
    uniform over the vertices of that graph.
    """
    rng = random.Random(f"point-queries/ij/{seed}")
    while True:
        yield [(k, rng.randrange(n), rng.randrange(n)) for k, (n, _) in enumerate(pool)]


def diameter_pool(seed: int, sizes: Sizes) -> list[tuple[str, int, int]]:
    """(stratum, n, s) triples for the two strata, interleaved by a seeded shuffle.

    large: n log-uniform in large_n, s log-uniform in [2, isqrt(n)], so the
    wrap scan is at most two wraps deep and the closed form always applies.
    wide: n log-uniform in wide_n, s uniform over the whole valid range.
    """
    rng = random.Random(f"diameter-scan/{seed}")
    pool = []
    lo, hi = sizes.large_n
    for u_n, u_s in jittered_grid(sizes.large_grid, rng):
        n = log_uniform(lo, hi, u_n)
        pool.append(("large", n, log_uniform(2, math.isqrt(n), u_s)))
    lo, hi = sizes.wide_n
    for u_n, u_s in jittered_grid(sizes.wide_grid, rng):
        n = log_uniform(lo, hi, u_n)
        pool.append(("wide", n, uniform_int(2, (n - 1) // 2, u_s)))
    rng.shuffle(pool)
    return pool


def sweep_cells(n_max: int) -> list[tuple[int, int]]:
    """Every valid (n, s) with 5 <= n <= n_max, in the sweep's own row order."""
    return [(n, s) for n in range(5, n_max + 1) for s in range(2, (n - 1) // 2 + 1)]


def generate(workload: str, seed: int, sizes: Sizes) -> list:
    """The inputs of one workload; grid-sweep's grid does not depend on the seed."""
    if workload == "point-queries":
        return point_pool(seed, sizes)
    if workload == "diameter-scan":
        return diameter_pool(seed, sizes)
    return sweep_cells(sizes.sweep_n_max)
