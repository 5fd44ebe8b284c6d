"""Closed-form diameters, case classification, constructed witnesses."""
import math
import random

import pytest

from circulant import (
    CirculantParams,
    bounds_report,
    diameter_exact,
    diameter_formula,
    distance_from_zero,
    formula_witness,
)
from circulant.diameter import diameters_exact
from circulant.distance import closest_point
from circulant.formulas import FormulaCase

from _strategies import multiplier_image


def _case(n, s):
    res = diameter_formula(CirculantParams(n, s))
    return res.case if res else FormulaCase.UNCOVERED


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
        case = res.case if res else FormulaCase.UNCOVERED
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


# every (case, subcase) pair of a covered cell
_BRANCHES = {
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


def test_every_branch_fires_somewhere():
    # each (case, subcase) pair should appear in a modest grid
    seen = set()
    for n in range(5, 121):
        for s in range(2, (n - 1) // 2 + 1):
            res = diameter_formula(CirculantParams(n, s))
            if res is not None:
                seen.add((res.case, res.subcase))
    assert seen == _BRANCHES


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


def _golomb_welch(k):
    # Lee spheres of radius k tile Z^2 (Golomb & Welch, SIAM J. Appl. Math.
    # 18 (1970)); with n = 2k^2 + 2k + 1 and s = 2k + 1 the lattice of
    # C_n(1, s) is that tiling, so D = k and n meets the lower bound below
    return CirculantParams(2 * k * k + 2 * k + 1, 2 * k + 1)


def _meets_lower_bound(n, d):
    # the L1 ball of radius d holds 2d^2 + 2d + 1 integer points and each
    # vertex is one coset of the lattice, so every n <= 2D^2 + 2D + 1
    return n <= 2 * d * d + 2 * d + 1


def test_golomb_welch_cells_have_diameter_k():
    for k in range(2, 300):
        assert diameter_exact(_golomb_welch(k)).value == k, k
    rng = random.Random(1970)
    for k in (rng.randint(2, 2**30) for _ in range(300)):
        p = _golomb_welch(k)
        res = diameter_formula(p)
        assert res == (k, FormulaCase.LAMBDA_LE_GAMMA, "p1_minus_1", None), (k, res)
        x, y = closest_point(p, k)
        assert abs(x) + abs(y) == k, k


def test_lower_bound_holds_on_the_grid():
    tight = 0
    for n in range(5, 401):
        ps = [CirculantParams(n, s) for s in range(2, (n - 1) // 2 + 1)]
        for p, res in zip(ps, diameters_exact(ps)):
            assert _meets_lower_bound(n, res.value), (p, res.value)
            # cells whose D is the smallest the bound allows
            tight += not _meets_lower_bound(n, res.value - 1)
    assert tight == 1750


def test_closed_forms_hold_past_the_kernel_range():
    # 2,000 covered cells with n uniform in [2^40, 2^62] and s log-uniform,
    # where diameter_exact raises, plus Golomb-Welch cells, the only source
    # of p1_minus_1 here: the value sits between the bounds, and each
    # witness is measured by the closest-point rule
    rng = random.Random(62)
    cells = [_golomb_welch(rng.randint(2**20, 2**30)) for _ in range(20)]
    while len(cells) < 2020:
        n = rng.randint(2**40, 2**62)
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        p = CirculantParams(n, min(s, (n - 1) // 2))
        if diameter_formula(p) is not None:
            cells.append(p)
    # constructed n = lam*s + gamma for the rare small-gamma witness rules:
    # s = 3 and 5 plus log-uniform s, gamma in {1, 2, 3} and (s + 3)/2, and
    # lam > gamma of both parities; 20 rounds give each rule 20 cells or more
    for _ in range(20):
        for s in (3, 5, *(round(2 ** rng.uniform(2, 30)) for _ in range(4))):
            halves = [(s + 3) // 2] if s % 2 else []
            for gamma in [g for g in (1, 2, 3, *halves) if g < s]:
                lo = max(gamma + 1, -(-(2**40 - gamma) // s))
                for parity in (0, 1):
                    lam = rng.randint(lo, (2**62 - gamma) // s - 1)
                    cells.append(CirculantParams((lam + (lam - parity) % 2) * s + gamma, s))
    seen = set()
    for p in cells:
        res = diameter_formula(p)
        seen.add((res.case, res.subcase))
        assert bounds_report(p).combined >= res.value, (p, res)
        assert _meets_lower_bound(p.n, res.value), (p, res)
        if res.witness is not None:
            x, y = closest_point(p, res.witness)
            assert abs(x) + abs(y) == res.value, (p, res)
    assert seen == _BRANCHES


def test_multiplier_pairs_share_closed_forms_past_the_kernel_range():
    # C_n(1, s) and its multiplier image C_n(1, s') are isomorphic, so where
    # closed forms cover both they agree, and v -> s*v maps a witness of s'
    # to one of s (v -> s'*v the other way).  Drawn until 200 coprime pairs
    # with n in [2^40, 2^62] and s log-uniform are covered on both sides
    rng = random.Random(26)
    pairs = mapped = 0
    while pairs < 200:
        n = rng.randint(2**40, 2**62)
        s = round(math.exp(rng.uniform(math.log(2), math.log((n - 1) // 2))))
        p = CirculantParams(n, min(s, (n - 1) // 2))
        if math.gcd(n, p.s) > 1:
            continue
        image = multiplier_image(p)
        res, image_res = diameter_formula(p), diameter_formula(image)
        if res is None or image_res is None:
            continue
        pairs += 1
        assert res.value == image_res.value, (p, image, res, image_res)
        for q, witness in ((p, image_res.witness), (image, res.witness)):
            if witness is not None:
                x, y = closest_point(q, q.s * witness % n)
                assert abs(x) + abs(y) == res.value, (q, witness)
                mapped += 1
    assert mapped > 100
