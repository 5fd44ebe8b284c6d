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
way, so those results carry no witness.  All formulas and witnesses here
are verified against breadth-first search on the full test grid (n up to
400, every valid s).
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
    subcase = None
    if n % 2 == 0 and s % 2 == 1:
        case = FormulaCase.EVEN_ODD
        # lam and gamma share parity here; the min picks whichever of the
        # two residue walks (forward past gamma, backward past s - gamma)
        # saves more steps
        saved = min((gamma + 1) // 2, (s - gamma + 2) // 2) - 1
        value = half_up + (s - 1) // 2 - saved
        if gamma % 2 == 1:
            if gamma == 1:
                i = ((lam - 1) // 2) * s + (s + 1) // 2
            elif gamma <= 2 * ((s + 3) // 4) - 1:
                # small odd gamma; s = 5 leaves no room after the residue
                # shift and moves one full chord block up instead
                if s == 5:
                    i = (half_up + 1) * s
                else:
                    i = half_up * s + (gamma + 1) // 2 + (s + 1) // 2
            else:
                i = (half_up - (s - gamma + 2) // 2) * s + (s + 1) // 2
        elif gamma <= 2 * ((s + 3) // 4):
            if 2 * gamma == s + 3:
                i = (lam // 2) * s + gamma // 2
            elif s == 3:
                i = (lam // 2 + 1) * s
            else:
                i = (lam // 2) * s + (s + 1) // 2 + gamma // 2
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
            i = n // 2 if lam % 2 == 0 else ((lam - 1) // 2) * s + gamma // 2
    elif s % 2 == 1:
        case = FormulaCase.ODD_ODD
        saved = min((gamma + 2) // 2, (s - gamma + 3) // 2) - 1
        value = half_up + (s - 1) // 2 - saved
        if gamma % 2 == 1:  # lam is even in this sub-regime
            if gamma <= 2 * ((s + 3) // 4) - 1:
                i = (lam // 2 - 1) * s + (s - 1) // 2 + (gamma + 1) // 2
            else:
                i = (lam // 2 - (s - gamma + 2) // 2) * s + (s + 1) // 2
        elif gamma <= 2 * ((s + 8) // 4) - 2:
            if 2 * gamma == s + 3:
                i = half_up * s + (s - 1) // 4
            elif s == 3:
                i = half_up * s
            else:
                i = ((lam - 1) // 2) * s + (s - 1) // 2 + (gamma + 2) // 2
        else:
            # large even gamma: back off just enough chord blocks to leave
            # the landing residue (s - 1) / 2 out of reach of shortcuts
            i = (half_up - (s - gamma + 1) // 2) * s + (s - 1) // 2
    else:
        case = FormulaCase.ODD_EVEN
        if gamma == 1 or gamma == s - 1:
            subcase, value = "gamma_edge", half_up + (s - 2) // 2
            i = (half_up - 1) * s + s // 2
        elif 3 <= gamma <= 2 * ((s + 3) // 4) - 1:
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
