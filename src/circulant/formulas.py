"""Closed-form diameter values and constructed peripheral vertices.

Write n = lam*s + gamma (params.decompose).  diameter_formula decides the
regime once, on one ladder.  When gamma = 0 the diameter is a single floor
expression.  When lam <= gamma the chord splits as s = a*gamma + b; if
0 < b <= a*lam + 1 the diameter comes from four route midpoints p0..p3,
and otherwise there is no known closed form and callers fall back to
diameter_exact.  When lam > gamma there is one formula per parity pair of
(n, s), each a small piecewise function of gamma.

Each parity branch also constructs a witness: an explicit vertex whose
distance attains the diameter, placed a prescribed number of chord blocks
plus a prescribed residue away from 0, chosen so no shorter class exists.
The gamma = 0 and lam <= gamma proofs are not constructive in the same
way, so those results carry no witness.  Tier-1 tests hold the values and
witnesses to breadth-first search up to n = 400 and to the closest-point
rule past n = 2^40; CI holds the values to BFS up to n = 1000 and every
witness to the closest-point rule up to n = 2000.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .params import CirculantParams, decompose


class FormulaCase(str, Enum):
    """Which closed-form regime (n, s) falls in; stable strings for CSV."""

    GAMMA_ZERO = "gamma_zero"
    EVEN_ODD = "even_odd"
    EVEN_EVEN = "even_even"
    ODD_ODD = "odd_odd"
    ODD_EVEN = "odd_even"
    LAMBDA_LE_GAMMA = "lambda_le_gamma"
    UNCOVERED = "uncovered"


class FormulaResult(NamedTuple):
    """A closed-form diameter value, the case and branch that fired, and a
    vertex attaining the value (None outside the four parity regimes)."""

    value: int
    case: FormulaCase
    subcase: str | None = None
    witness: int | None = None


def diameter_formula(p: CirculantParams) -> FormulaResult | None:
    """Evaluate the closed form for p, or None when no case applies.

    Exactly one regime per (n, s): gamma = 0 first; then lam <= gamma,
    covered only when 0 < b <= a*lam + 1; then, with strict lam > gamma,
    the parity pair (n % 2, s % 2).  Each parity branch computes its value,
    subcase and witness together.  The witness is q*s + r for a quotient q
    near lam/2 and a residue r near s/2, shifted by gamma-dependent offsets
    so that every canonical class needs the full budget of steps.
    """
    (lam, gamma, a, b), n, s = decompose(p), p.n, p.s
    if gamma == 0:
        return FormulaResult((lam + s - 1) // 2, FormulaCase.GAMMA_ZERO)
    if lam <= gamma:
        if not 0 < b <= a * lam + 1:
            return None
        case = FormulaCase.LAMBDA_LE_GAMMA
        p1 = (gamma - b + (a + 1) * lam + 1) // 2
        p2 = (gamma + b + (a - 1) * lam + 1) // 2
        # when the two long-route midpoints coincide and the parity product
        # is odd, both routes overshoot by exactly one step
        if p1 == p2 and ((gamma + b) * (a * lam - lam + 1)) % 2 == 1:
            return FormulaResult(p1 - 1, case, "p1_minus_1")
        p0 = (lam + gamma) // 2
        p3 = (b + a * lam + 1) // 2
        return FormulaResult(min(max(p1, p3), max(p0, p2)), case, "e1")
    half_up = (lam + 1) // 2
    # every regime but even_even; 2*gamma = s + 3 is small only for even gamma
    small = gamma <= 2 * ((s + 3) // 4)
    subcase = None
    if n % 2 == 0 and s % 2 == 1:
        case = FormulaCase.EVEN_ODD
        # lam and gamma share parity here; the min picks whichever of the
        # two residue walks (forward past gamma, backward past s - gamma)
        # saves more steps
        saved = min((gamma + 1) // 2, (s - gamma + 2) // 2) - 1
        value = half_up + (s - 1) // 2 - saved
        if small and 2 * gamma == s + 3:
            i = (lam // 2) * s + gamma // 2
        elif small and (gamma % 2 == 0 or gamma == 1):  # gamma = 1: lam odd
            i = (lam // 2) * s + (s + 1) // 2 + gamma // 2
        elif small:
            i = half_up * s + (gamma + 1) // 2 + (s + 1) // 2
        elif gamma % 2 == 1:
            i = (half_up - (s - gamma + 2) // 2) * s + (s + 1) // 2
        else:
            i = (lam // 2 - (s - gamma + 1) // 2 + 1) * s + (s - 1) // 2
    elif n % 2 == 0:
        case = FormulaCase.EVEN_EVEN
        if gamma <= 2 * ((s + 1) // 4):
            subcase, value = "small_gamma", half_up + (s - gamma) // 2
            if lam % 2 == 0:
                i = (lam // 2 - gamma // 2) * s + s // 2
            elif gamma == 2:
                i = ((lam - 1) // 2) * s + s // 2 + 1
            else:
                i = half_up * s + gamma // 2 + s // 2 + 1
        else:
            subcase, value = "large_gamma", lam // 2 + gamma // 2
            i = (lam // 2) * s + gamma // 2
    elif s % 2 == 1:
        case = FormulaCase.ODD_ODD
        saved = min((gamma + 2) // 2, (s - gamma + 3) // 2) - 1
        value = half_up + (s - 1) // 2 - saved
        if small and 2 * gamma == s + 3:
            i = half_up * s + (s - 1) // 4
        elif small:
            i = ((lam - 1) // 2) * s + (s - 1) // 2 + (gamma + 2) // 2
        elif gamma % 2 == 1:  # lam is even
            i = (lam // 2 - (s - gamma + 2) // 2) * s + (s + 1) // 2
        else:
            # large even gamma: back off just enough chord blocks to leave
            # the landing residue (s - 1) / 2 out of reach of shortcuts
            i = (half_up - (s - gamma + 1) // 2) * s + (s - 1) // 2
    else:
        case = FormulaCase.ODD_EVEN  # gamma is odd
        if gamma == 1 or gamma == s - 1:
            subcase, value = "gamma_edge", half_up + (s - 2) // 2
            i = (half_up - 1) * s + s // 2
        elif small:
            subcase, value = "small_gamma", lam // 2 + (s - gamma + 1) // 2
            if lam % 2 == 0:
                i = (lam // 2 - (gamma - 1) // 2) * s + s // 2 + 1
            else:
                i = ((lam - 1) // 2) * s + (gamma - 1) // 2 + s // 2 + 1
        else:
            subcase, value = "large_gamma", half_up + (gamma - 1) // 2
            i = half_up * s + (gamma - 1) // 2
    return FormulaResult(value, case, subcase, i % n)


def formula_witness(p: CirculantParams) -> int | None:
    """A vertex attaining the diameter: diameter_formula's witness.

    None outside the four parity regimes, and for uncovered cells.
    """
    res = diameter_formula(p)
    return res.witness if res else None
