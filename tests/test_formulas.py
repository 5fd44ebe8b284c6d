"""Closed-form diameters, case classification, constructed witnesses."""
import math
import random

import pytest

from circulant import (
    CirculantParams,
    diameter_exact,
    diameter_formula,
    distance_from_zero,
    formula_witness,
)
from circulant.distance import closest_point
from circulant.formulas import FormulaCase, classify_case
from circulant.params import decompose


def _case(n, s):
    p = CirculantParams(n, s)
    return classify_case(decompose(p), p)


def test_classification_examples():
    assert _case(12, 3) is FormulaCase.GAMMA_ZERO
    assert _case(16, 5) is FormulaCase.EVEN_ODD
    assert _case(14, 4) is FormulaCase.EVEN_EVEN
    assert _case(13, 3) is FormulaCase.ODD_ODD
    assert _case(13, 4) is FormulaCase.ODD_EVEN
    assert _case(14, 5) is FormulaCase.LAMBDA_LE_GAMMA
    assert _case(10, 4) is FormulaCase.UNCOVERED


def test_lambda_equals_gamma_routes_by_b():
    # lam = gamma = 2 in both; b decides coverage
    assert _case(10, 4) is FormulaCase.UNCOVERED  # b = 0
    assert _case(12, 5) is FormulaCase.LAMBDA_LE_GAMMA  # b = 1 <= a*lam + 1


def test_case_labels_are_stable_strings():
    assert FormulaCase.GAMMA_ZERO.value == "gamma_zero"
    assert FormulaCase.EVEN_ODD.value == "even_odd"
    assert FormulaCase.EVEN_EVEN.value == "even_even"
    assert FormulaCase.ODD_ODD.value == "odd_odd"
    assert FormulaCase.ODD_EVEN.value == "odd_even"
    assert FormulaCase.LAMBDA_LE_GAMMA.value == "lambda_le_gamma"
    assert FormulaCase.UNCOVERED.value == "uncovered"


def test_formula_values_on_known_cells():
    expected = {
        (12, 3): (3, FormulaCase.GAMMA_ZERO, None),
        (14, 5): (3, FormulaCase.LAMBDA_LE_GAMMA, "e1"),
        (13, 5): (2, FormulaCase.LAMBDA_LE_GAMMA, "p1_minus_1"),
        (16, 5): (4, FormulaCase.EVEN_ODD, None),
        (13, 4): (3, FormulaCase.ODD_EVEN, "gamma_edge"),
        (14, 4): (3, FormulaCase.EVEN_EVEN, "small_gamma"),
    }
    for (n, s), (value, case, subcase) in expected.items():
        res = diameter_formula(CirculantParams(n, s))
        assert res is not None
        assert (res.value, res.case, res.subcase) == (value, case, subcase), (n, s)


def test_uncovered_returns_none():
    assert diameter_formula(CirculantParams(10, 4)) is None


def test_witness_examples():
    assert formula_witness(CirculantParams(16, 5)) == 8
    assert formula_witness(CirculantParams(13, 4)) == 6
    assert formula_witness(CirculantParams(14, 4)) == 7


def test_witness_absent_outside_parity_cases():
    assert formula_witness(CirculantParams(12, 3)) is None  # gamma zero
    assert formula_witness(CirculantParams(14, 5)) is None  # lam <= gamma
    assert formula_witness(CirculantParams(10, 4)) is None  # uncovered


@pytest.mark.parametrize("n", range(5, 121))
def test_formula_and_witness_against_exact_scan(n):
    for s in range(2, (n - 1) // 2 + 1):
        p = CirculantParams(n, s)
        exact = diameter_exact(p).value
        res = diameter_formula(p)
        case = classify_case(decompose(p), p)
        assert (res is None) == (case is FormulaCase.UNCOVERED)
        if res is not None:
            assert res.value == exact, (n, s, res)
        w = formula_witness(p)
        parity_cases = {
            FormulaCase.EVEN_ODD,
            FormulaCase.EVEN_EVEN,
            FormulaCase.ODD_ODD,
            FormulaCase.ODD_EVEN,
        }
        assert (w is not None) == (case in parity_cases)
        if w is not None:
            assert 0 <= w < n
            assert distance_from_zero(p, w).value == exact, (n, s, w)


def test_every_branch_fires_somewhere():
    # each (case, subcase) pair should appear in a modest grid
    seen = set()
    for n in range(5, 121):
        for s in range(2, (n - 1) // 2 + 1):
            res = diameter_formula(CirculantParams(n, s))
            if res is not None:
                seen.add((res.case, res.subcase))
    assert seen == {
        (FormulaCase.GAMMA_ZERO, None),
        (FormulaCase.EVEN_ODD, None),
        (FormulaCase.EVEN_EVEN, "small_gamma"),
        (FormulaCase.EVEN_EVEN, "large_gamma"),
        (FormulaCase.ODD_ODD, None),
        (FormulaCase.ODD_EVEN, "gamma_edge"),
        (FormulaCase.ODD_EVEN, "small_gamma"),
        (FormulaCase.ODD_EVEN, "large_gamma"),
        (FormulaCase.LAMBDA_LE_GAMMA, "e1"),
        (FormulaCase.LAMBDA_LE_GAMMA, "p1_minus_1"),
    }


def test_closed_forms_hold_beyond_the_audit_grid():
    # 200 covered cells with n and s log-uniform, n in [10^4, 10^6]; each
    # witness is measured by the closest-point rule, not by the kernel
    rng = random.Random(6)
    cases, covered = set(), 0
    while covered < 200:
        n = round(10 ** rng.uniform(4, 6))
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        p = CirculantParams(n, s)
        res = diameter_formula(p)
        if res is None:
            continue
        covered += 1
        cases.add(res.case)
        assert res.value == diameter_exact(p).value, (n, s)
        witness = formula_witness(p)
        if witness is not None:
            x, y = closest_point(p, witness)
            assert abs(x) + abs(y) == res.value, (n, s, witness)
    assert cases == set(FormulaCase) - {FormulaCase.UNCOVERED}


def test_lambda_le_gamma_subcases_hold_at_large_n():
    # a seeded scan for three cells of each lam <= gamma subcase with n in
    # [10^4, 10^6]; p1_minus_1 needs b close to lam, so about 1 in 4,000
    # uniform cells has it
    rng = random.Random(12)
    found = {"p1_minus_1": [], "e1": []}
    for _ in range(200_000):
        n = rng.randint(10**4, 10**6)
        p = CirculantParams(n, rng.randint(2, (n - 1) // 2))
        res = diameter_formula(p)
        if res is not None and res.case is FormulaCase.LAMBDA_LE_GAMMA:
            if len(found[res.subcase]) < 3:
                found[res.subcase].append((p, res.value))
            if all(len(cells) == 3 for cells in found.values()):
                break
    assert all(len(cells) == 3 for cells in found.values()), found
    for subcase, cells in found.items():
        for p, value in cells:
            assert value == diameter_exact(p).value, (subcase, p)
