"""Closed-form upper bounds on the diameter of C_n(1, s).

Three bounds with different strengths across the (n, s) plane: a max of
three division terms (du), the classic s = 2 value extended as a cap
(gobel_neutel), and a two-term bound from splitting the half-ring into
chord blocks (new_bound).  Their minimum is the working cap used both for
reporting and for pruning the class enumeration.
"""
from __future__ import annotations

from typing import NamedTuple

from .params import CirculantParams


class BoundsReport(NamedTuple):
    """The three upper bounds and their pointwise minimum."""

    du: int
    gobel_neutel: int
    new_bound: int
    combined: int


def bounds_report(p: CirculantParams) -> BoundsReport:
    """Evaluate all three bounds for p.

    du's inner terms may go negative individually; the max is taken in
    signed arithmetic and is always >= floor(n/s) + 1 >= 3, so only the
    max is reported.
    """
    n, s = p.n, p.s
    lam = n // s
    du = max(lam + 1, n - lam * s - 2, (lam + 1) * s - n - 1)
    gobel_neutel = (n + 2) // 4
    new_bound = (n // 2) // s + (s + 1) // 2
    return BoundsReport(
        du=du,
        gobel_neutel=gobel_neutel,
        new_bound=new_bound,
        combined=min(du, gobel_neutel, new_bound),
    )
