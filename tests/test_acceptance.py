"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[criterion N] PASS/FAIL`` line per criterion.  The heavy criteria share a
single session-scoped audit of the full parameter grid (n in [5, 400], every
valid s), so the whole gate completes in a few minutes on one core.

The distance audit uses two independent routes against the BFS oracle: the
vectorized kernel is checked for every vertex of every cell, and the scalar
entry point is checked exhaustively for n <= 200 and on stratified samples
above that.  Running the scalar entry point literally on every vertex of
every cell was measured at ~150 s on one core, which would exceed the gate's
own runtime budget; the split keeps full-vertex coverage (via the kernel and
the oracle's symmetry) while still exercising the scalar path along the whole
grid.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from circulant import (
    CirculantParams,
    Family,
    WalkSpec,
    bfs_distances,
    bounds_report,
    build_adjacency,
    canonical_classes,
    cli,
    diameter_exact,
    diameter_formula,
    distance_from_zero,
    distance_range,
    formula_witness,
    oracle_diameter,
    realize_path,
    reduce_walk,
)
from circulant.diameter import diameters_exact
from circulant.formulas import FormulaCase

GRID_N_MAX = 400
SCALAR_DENSE_N_MAX = 200
SCALAR_SAMPLES = 16


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _grid_cells():
    for n in range(5, GRID_N_MAX + 1):
        for s in range(2, (n - 1) // 2 + 1):
            yield n, s


def _scalar_indices(p: CirculantParams) -> range | list[int]:
    if p.n <= SCALAR_DENSE_N_MAX:
        return range(p.n)
    rng = random.Random(10007 * p.n + p.s)
    picks = {0, 1, 2, p.s, p.s + 1, p.half, p.half + 1, p.n - p.s, p.n - 1}
    while len(picks) < SCALAR_SAMPLES:
        picks.add(rng.randrange(p.n))
    return sorted(picks)


@pytest.fixture(scope="session")
def grid_audit():
    """Walk the full grid once; collect every mismatch for criteria 1/2/4/5."""
    report = {
        "cells": 0,
        "scalar_calls": 0,
        "kernel_mismatch": [],
        "symmetry_mismatch": [],
        "scalar_mismatch": [],
        "diameter_mismatch": [],
        "oracle_route_mismatch": [],
        "formula_mismatch": [],
        "covered": 0,
        "uncovered": 0,
        "witness_cells": 0,
        "witness_bad": [],
        "bound_violation": [],
        "combined_not_min": [],
    }
    start = time.perf_counter()
    for n, s in _grid_cells():
        p = CirculantParams(n, s)
        report["cells"] += 1
        if s == 2:
            # the sweep's route: every chord of n from one batched call
            batch = diameters_exact([CirculantParams(n, c) for c in range(2, (n - 1) // 2 + 1)])

        dist = bfs_distances(build_adjacency(p), 0)
        arr = np.asarray(dist, dtype=np.int64)
        half = p.half

        if not np.array_equal(distance_range(p, 0, half), arr[: half + 1]):
            report["kernel_mismatch"].append((n, s))
        if not np.array_equal(arr[1:], arr[:0:-1]):
            report["symmetry_mismatch"].append((n, s))

        for i in _scalar_indices(p):
            res = distance_from_zero(p, i)
            report["scalar_calls"] += 1
            if res.value != dist[i] or len(res.realized) - 1 != res.value:
                report["scalar_mismatch"].append((n, s, i))

        exact = diameter_exact(p)
        orac = oracle_diameter(p)
        if (exact.value, exact.witnesses) != (orac.value, orac.witnesses):
            report["diameter_mismatch"].append((n, s, exact.value, orac.value))
        if batch[s - 2] != exact:
            report["diameter_mismatch"].append((n, s, batch[s - 2].value, exact.value))
        # oracle_diameter takes its own BFS route at these n; hold it to dist
        ecc = max(dist)
        if (orac.value, orac.witnesses) != (
            ecc,
            tuple(i for i in range(2, half + 1) if dist[i] == ecc),
        ):
            report["oracle_route_mismatch"].append((n, s, orac.value, ecc))

        formula = diameter_formula(p)
        if formula is None:
            report["uncovered"] += 1
        else:
            report["covered"] += 1
            if formula.value != exact.value:
                report["formula_mismatch"].append((n, s, formula.value, exact.value))

        witness = formula_witness(p)
        if witness is not None:
            report["witness_cells"] += 1
            if not (0 <= witness < n) or dist[witness] != exact.value:
                report["witness_bad"].append((n, s, witness, exact.value))

        rep = bounds_report(p)
        if not (exact.value <= rep.du and exact.value <= rep.gobel_neutel and exact.value <= rep.new_bound):
            report["bound_violation"].append((n, s, exact.value, rep))
        if rep.combined != min(rep.du, rep.gobel_neutel, rep.new_bound):
            report["combined_not_min"].append((n, s, rep))

    report["elapsed"] = time.perf_counter() - start
    return report


def test_criterion_1_oracle_equivalence(grid_audit):
    bad = (
        grid_audit["kernel_mismatch"]
        + grid_audit["symmetry_mismatch"]
        + grid_audit["scalar_mismatch"]
        + grid_audit["diameter_mismatch"]
        + grid_audit["oracle_route_mismatch"]
    )
    within_budget = grid_audit["elapsed"] < 120.0
    detail = (
        f"distances and diameters equal the BFS oracle on {grid_audit['cells']} cells "
        f"(kernel checked for every vertex; scalar checked on {grid_audit['scalar_calls']} calls, "
        f"exhaustive for n <= {SCALAR_DENSE_N_MAX}; diameter witnesses compared exactly, "
        f"the batched per-n diameters held to diameter_exact, "
        f"and oracle_diameter held to the queue BFS's distances) "
        f"in {grid_audit['elapsed']:.1f}s"
    )
    _report(1, not bad and within_budget, detail)
    assert not bad, f"oracle mismatches: {bad[:10]}"
    assert within_budget, f"grid audit took {grid_audit['elapsed']:.1f}s (budget 120s)"


def test_criterion_2_formula_equivalence(grid_audit):
    frac = grid_audit["uncovered"] / grid_audit["cells"]
    detail = (
        f"closed form equals algorithm on all {grid_audit['covered']} covered cells; "
        f"uncovered fraction {grid_audit['uncovered']}/{grid_audit['cells']} = {frac:.1%}"
    )
    _report(2, not grid_audit["formula_mismatch"], detail)
    assert not grid_audit["formula_mismatch"], grid_audit["formula_mismatch"][:10]
    assert grid_audit["covered"] + grid_audit["uncovered"] == grid_audit["cells"]


def test_criterion_3_worked_example_class_table():
    p = CirculantParams(10, 4)
    entries = {(pc.family, pc.t): (pc, length) for pc, length in canonical_classes(p, 6)}
    expected = {
        (Family.P1, None): (3, [0, 1, 2, 6]),
        (Family.P2, None): (4, [0, 9, 8, 2, 6]),
        (Family.P1T, 1): (4, [0, 4, 8, 2, 6]),
        (Family.P3T, 1): (1, [0, 6]),
    }
    ok = True
    for key, (length, path) in expected.items():
        entry = entries.get(key)
        if entry is None or entry[1] != length or entry[0].length != length:
            ok = False
            continue
        seq, _ = realize_path(p, entry[0], 6)
        if seq != path:
            ok = False
    d6 = distance_from_zero(p, 6).value
    ok = ok and d6 == 1
    _report(3, ok, "four tabulated path classes for C10(1,4), i=6 realize with lengths 3/4/4/1 and d(6)=1")
    assert ok


def test_criterion_4_witness_validity(grid_audit):
    detail = (
        f"constructed witness attains the diameter on all {grid_audit['witness_cells']} "
        f"witness-bearing cells"
    )
    _report(4, not grid_audit["witness_bad"], detail)
    assert not grid_audit["witness_bad"], grid_audit["witness_bad"][:10]
    assert grid_audit["witness_cells"] > 0


def test_criterion_5_bound_domination(grid_audit):
    ok = not grid_audit["bound_violation"] and not grid_audit["combined_not_min"]
    detail = (
        f"du, gobel_neutel and new_bound each dominate the diameter on all "
        f"{grid_audit['cells']} cells; combined is their minimum"
    )
    _report(5, ok, detail)
    assert not grid_audit["bound_violation"], grid_audit["bound_violation"][:10]
    assert not grid_audit["combined_not_min"], grid_audit["combined_not_min"][:10]


def test_criterion_6_frozen_spot_values():
    golden = {
        (12, 3): 3,
        (10, 4): 2,
        (13, 5): 2,
        (14, 5): 3,
        (16, 5): 4,
        (13, 4): 3,
        (14, 4): 3,
    }
    mismatches = []
    for (n, s), want in golden.items():
        got = diameter_exact(CirculantParams(n, s)).value
        if got != want:
            mismatches.append((n, s, got, want))
    # The two C(1,5) cells must route through the two decomposition subcases.
    thirteen = diameter_formula(CirculantParams(13, 5))
    fourteen = diameter_formula(CirculantParams(14, 5))
    subcases_ok = (
        thirteen is not None
        and (thirteen.case, thirteen.subcase) == (FormulaCase.LAMBDA_LE_GAMMA, "p1_minus_1")
        and fourteen is not None
        and (fourteen.case, fourteen.subcase) == (FormulaCase.LAMBDA_LE_GAMMA, "e1")
    )
    ok = not mismatches and subcases_ok
    _report(6, ok, "seven frozen spot diameters match, exercising both decomposition subcases")
    assert not mismatches, mismatches
    assert subcases_ok


def test_criterion_7_property_suite():
    rng = random.Random(20260819)
    failures = []
    for _ in range(200):
        n = rng.randrange(5, GRID_N_MAX + 1)
        s = rng.randrange(2, (n - 1) // 2 + 1)
        i = rng.randrange(n)
        p = CirculantParams(n, s)

        d_i = distance_from_zero(p, i).value
        if d_i != distance_from_zero(p, (n - i) % n).value:
            failures.append(("symmetry", n, s, i))
        offset = min(i % n, (n - i) % n)
        if (d_i == 1) != (offset in (1, s)):
            failures.append(("unit-distance", n, s, i))

        walk = WalkSpec(*(rng.randrange(0, 8) for _ in range(4)))
        endpoint = (walk.plus_outer - walk.minus_outer + s * (walk.plus_inner - walk.minus_inner)) % n
        reduced = reduce_walk(p, walk)
        if reduced.length > walk.length:
            failures.append(("reduce-length", n, s, walk))
        red_seq, _ = realize_path(p, reduced, endpoint)
        if red_seq[-1] != endpoint:
            failures.append(("reduce-endpoint", n, s, walk))

        for pc, length in canonical_classes(p, i):
            seq, _ = realize_path(p, pc, i)
            if len(seq) - 1 != length or pc.length != length or seq[0] != 0 or seq[-1] != i % n:
                failures.append(("realize", n, s, i, pc))
    _report(7, not failures, "200 seeded triples: symmetry, unit-distance, walk reduction, class realization")
    assert not failures, failures[:10]


def test_criterion_8_performance(tmp_path):
    big = CirculantParams(1_000_000, 997)
    t0 = time.perf_counter()
    res = diameter_exact(big)
    big_elapsed = time.perf_counter() - t0

    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = cli.main(
        ["sweep", "--n-min", "5", "--n-max", str(GRID_N_MAX), "--verify-oracle", "--out", str(out)]
    )
    sweep_elapsed = time.perf_counter() - t0
    rows = out.read_text().count("\n") - 1

    ok = big_elapsed < 5.0 and code == 0 and sweep_elapsed < 120.0
    detail = (
        f"diameter of C(10^6; 1, 997) = {res.value} in {big_elapsed:.2f}s (< 5s); "
        f"verified sweep of {rows} cells in {sweep_elapsed:.1f}s (< 120s, exit {code})"
    )
    _report(8, ok, detail)
    assert big_elapsed < 5.0, f"large-n diameter took {big_elapsed:.2f}s"
    assert code == 0
    assert sweep_elapsed < 120.0, f"sweep took {sweep_elapsed:.1f}s"
    assert rows == sum(1 for _ in _grid_cells())
