"""Closed-form diameter values and constructed peripheral vertices.

Write n = lam*s + gamma (params.decompose).  When gamma = 0 the diameter
is a single floor expression.  When lam > gamma > 0 there is one formula
per parity pair of (n, s), each a small piecewise function of gamma.  When
lam <= gamma and the secondary split s = a*gamma + b has
0 < b <= a*lam + 1, the diameter comes from four route midpoints p0..p3,
computed in that branch alone.  Everything else has no known closed form
and callers fall back to diameter_exact.

The four parity families also admit constructed witnesses: explicit
vertices whose distance attains the diameter, built by formula_witness on
diameter_formula's regime and subcase.  Each construction places the
target a prescribed number of chord blocks plus a prescribed residue away
from 0, chosen so no shorter class exists.  All formulas and witnesses
here are verified against breadth-first search on the full test grid (n
up to 400, every valid s).
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .params import CirculantParams, DecompositionContext, decompose


class FormulaCase(str, Enum):
    """Which closed-form regime (n, s) falls in; stable strings for CSV."""

    GAMMA_ZERO = "gamma_zero"
    EVEN_ODD = "even_odd"
    EVEN_EVEN = "even_even"
    ODD_ODD = "odd_odd"
    ODD_EVEN = "odd_even"
    LAMBDA_LE_GAMMA = "lambda_le_gamma"
    UNCOVERED = "uncovered"


# the four parity regimes, keyed by (n % 2, s % 2)
_PARITY_CASES = {
    (0, 1): FormulaCase.EVEN_ODD,
    (0, 0): FormulaCase.EVEN_EVEN,
    (1, 1): FormulaCase.ODD_ODD,
    (1, 0): FormulaCase.ODD_EVEN,
}


class FormulaResult(NamedTuple):
    """A closed-form diameter value plus the case and branch that fired."""

    value: int
    case: FormulaCase
    subcase: str | None = None


def classify_case(ctx: DecompositionContext, p: CirculantParams) -> FormulaCase:
    """Exactly one regime per (n, s).

    gamma = 0 first; then the parity families require strict lam > gamma;
    the lam <= gamma family takes the boundary lam = gamma and needs
    0 < b <= a*lam + 1.  Whatever remains is uncovered.
    """
    if ctx.gamma == 0:
        return FormulaCase.GAMMA_ZERO
    if ctx.lam > ctx.gamma:
        return _PARITY_CASES[(p.n % 2, p.s % 2)]
    assert ctx.a is not None and ctx.b is not None
    if 0 < ctx.b <= ctx.a * ctx.lam + 1:
        return FormulaCase.LAMBDA_LE_GAMMA
    return FormulaCase.UNCOVERED


def diameter_formula(p: CirculantParams) -> FormulaResult | None:
    """Evaluate the closed form for p, or None when no case applies."""
    ctx = decompose(p)
    case = classify_case(ctx, p)
    lam, gamma, s = ctx.lam, ctx.gamma, p.s
    if case is FormulaCase.GAMMA_ZERO:
        return FormulaResult((lam + s - 1) // 2, case)
    if case is FormulaCase.EVEN_ODD:
        # lam and gamma share parity here; the min picks whichever of the
        # two residue walks (forward past gamma, backward past s - gamma)
        # saves more steps
        saved = min((gamma + 1) // 2, (s - gamma + 2) // 2) - 1
        return FormulaResult((lam + 1) // 2 + (s - 1) // 2 - saved, case)
    if case is FormulaCase.EVEN_EVEN:
        if gamma <= 2 * ((s + 1) // 4):
            return FormulaResult((lam + 1) // 2 + (s - gamma) // 2, case, "small_gamma")
        return FormulaResult(lam // 2 + gamma // 2, case, "large_gamma")
    if case is FormulaCase.ODD_ODD:
        saved = min((gamma + 2) // 2, (s - gamma + 3) // 2) - 1
        return FormulaResult((lam + 1) // 2 + (s - 1) // 2 - saved, case)
    if case is FormulaCase.ODD_EVEN:
        if gamma == 1 or gamma == s - 1:
            return FormulaResult((lam + 1) // 2 + (s - 2) // 2, case, "gamma_edge")
        if 3 <= gamma <= 2 * ((s + 3) // 4) - 1:
            return FormulaResult(lam // 2 + (s - gamma + 1) // 2, case, "small_gamma")
        return FormulaResult((lam + 1) // 2 + (gamma - 1) // 2, case, "large_gamma")
    if case is FormulaCase.LAMBDA_LE_GAMMA:
        a, b = ctx.a, ctx.b
        p1 = (gamma - b + (a + 1) * lam + 1) // 2
        p2 = (gamma + b + (a - 1) * lam + 1) // 2
        # when the two long-route midpoints coincide and the parity product
        # is odd, both routes overshoot by exactly one step
        if p1 == p2 and ((gamma + b) * (a * lam - lam + 1)) % 2 == 1:
            return FormulaResult(p1 - 1, case, "p1_minus_1")
        p0 = (lam + gamma) // 2
        p3 = (b + a * lam + 1) // 2
        return FormulaResult(min(max(p1, p3), max(p0, p2)), case, "e1")
    return None


def formula_witness(p: CirculantParams) -> int | None:
    """A vertex attaining the diameter, for the four parity regimes only.

    Each branch lands the target q*s + r for a quotient q near lam/2 and a
    residue r near s/2, shifted by gamma-dependent offsets so that every
    canonical class needs the full budget of steps, in diameter_formula's
    regime and subcase.  None outside the parity regimes (their proofs are
    not constructive in the same way).
    """
    res = diameter_formula(p)
    case, subcase = (res.case, res.subcase) if res else (None, None)
    ctx = decompose(p)
    lam, gamma, s = ctx.lam, ctx.gamma, p.s
    half_up = (lam + 1) // 2
    if case is FormulaCase.EVEN_ODD:
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
    elif case is FormulaCase.EVEN_EVEN:
        if subcase == "small_gamma":
            if lam % 2 == 0:
                i = (lam // 2 - gamma // 2) * s + s // 2
            elif gamma == 2:
                i = ((lam - 1) // 2) * s + s // 2 + 1
            else:
                i = half_up * s + gamma // 2 + s // 2 + 1
        elif lam % 2 == 0:
            i = p.n // 2
        else:
            i = ((lam - 1) // 2) * s + gamma // 2
    elif case is FormulaCase.ODD_ODD:
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
    elif case is FormulaCase.ODD_EVEN:
        if subcase == "gamma_edge":
            i = (half_up - 1) * s + s // 2
        elif subcase == "small_gamma":
            if lam % 2 == 0:
                i = (lam // 2 - (gamma - 1) // 2) * s + s // 2 + 1
            else:
                i = ((lam - 1) // 2) * s + (gamma - 1) // 2 + s // 2 + 1
        else:
            i = half_up * s + (gamma - 1) // 2
    else:
        return None
    return i % p.n
