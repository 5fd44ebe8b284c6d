"""Validated parameters of C_n(1, s) and the divisions its closed forms use.

A circulant graph C_n(1, s) has vertex set Z_n with i ~ j iff the circular
distance |i - j|_n is 1 or s.  All questions about its metric reduce to
integer arithmetic: the closed forms start from n = lam*s + gamma and
s = a*gamma + b (decompose), and the lattice routes from
CirculantParams.basis, the reduced basis of {(x, y) : x + s*y = 0 mod n}.
Each CirculantParams caches its basis and wrap limit (cached_property).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class OutOfRangeError(ValueError):
    """Raised when (n, s) violates n >= 5 or 2 <= s <= (n-1)//2, or when n
    exceeds what a bounded routine supports (distance.check_kernel_n: the
    bulk lattice kernel behind distance_range, diameter_exact and
    eccentricity_profile, n <= 2**40; oracle.check_oracle_n: the BFS
    oracle, n <= 2**24)."""


def check_limit(limit: int, what: str, n: int, last: int | None = None) -> None:
    """Raise OutOfRangeError, "n=<first> exceeds <what>", if n or any n up
    to last is above limit; first is the least such n."""
    first = max(n, limit + 1)
    if first <= (n if last is None else last):
        raise OutOfRangeError(f"n={first} exceeds {what}")


class VertexOutOfRangeError(ValueError):
    """Raised when a vertex id falls outside [0, n)."""


@dataclass(frozen=True)
class CirculantParams:
    """Validated parameters of C_n(1, s).

    Invariants: n and s are Python ints, n >= 5 and 2 <= s <= (n-1)//2.
    Construction fails on anything else (TypeError for a non-integral
    value such as 10.5, OutOfRangeError for a bad range), so holding an
    instance certifies the constraints.  Integer types such as numpy ints
    are converted with operator.index.
    """

    n: int
    s: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.s) is not int:
            object.__setattr__(self, "n", _integer("n", self.n))
            object.__setattr__(self, "s", _integer("s", self.s))
        if self.n < 5:
            raise OutOfRangeError(f"n={self.n}: need n >= 5")
        if self.s < 2 or self.s > (self.n - 1) // 2:
            raise OutOfRangeError(
                f"s={self.s}: need 2 <= s <= (n-1)//2 = {(self.n - 1) // 2}"
            )

    @property
    def half(self) -> int:
        """Largest index that must be inspected explicitly: floor(n/2)."""
        return self.n // 2

    @cached_property
    def basis(self) -> tuple[int, int, int, int]:
        """Gauss-Lagrange reduced basis (u, w) of {(x, y) : x + s*y = 0 mod n}.

        (ux, uy, wx, wy) with |u| <= |w|, |u.w| <= |u|^2 / 2, the heavier
        coordinate of u positive and ux*wy - uy*wx = n, from O(log n) steps
        on {(n, 0), (-s, 1)}.  cached_property keeps it in the instance
        __dict__, so the dataclass stays frozen, equal, hashable, picklable.
        """
        n, s = self.n, self.s
        ux, uy, wx, wy = -s, 1, n, 0
        while True:
            uu = ux * ux + uy * uy
            m = (2 * (ux * wx + uy * wy) + uu) // (2 * uu)  # round(u.w / u.u)
            wx, wy = wx - m * ux, wy - m * uy
            if wx * wx + wy * wy >= uu:
                break
            ux, uy, wx, wy = wx, wy, ux, uy
        if (ux if abs(ux) >= abs(uy) else uy) < 0:
            ux, uy = -ux, -uy
        if ux * wy - uy * wx < 0:
            wx, wy = -wx, -wy
        return ux, uy, wx, wy

    @cached_property
    def wrap_limit(self) -> int:
        """distance.wrap_limit of this graph, cached on the first read as
        basis is.  It saves work only when one CirculantParams answers
        several scalar queries; a new object computes it again.  Imported
        here because distance imports this module."""
        from .distance import wrap_limit

        return wrap_limit(self)


def _integer(name: str, value) -> int:
    """value as a Python int; TypeError, never truncation, for a float."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name}={value!r}: need an integer, not {type(value).__name__}"
        ) from None


class DecompositionContext(NamedTuple):
    """n divided by s, then s by the remainder: where the closed forms start.

    lam and gamma are quotient and remainder of n by s (n = lam*s + gamma,
    0 <= gamma < s).  When gamma > 0 the chord length splits in turn as
    s = a*gamma + b with 0 <= b < gamma; a and b are None when gamma = 0.
    Applicability of any particular closed form is decided elsewhere; this
    record is pure arithmetic.
    """

    lam: int
    gamma: int
    a: int | None = None
    b: int | None = None


def decompose(p: CirculantParams) -> DecompositionContext:
    """n = lam*s + gamma, then s = a*gamma + b when gamma > 0.

    The arithmetic uses Python ints, so it has no range limit.
    """
    lam, gamma = divmod(p.n, p.s)
    if gamma == 0:
        return DecompositionContext(lam, gamma)
    return DecompositionContext(lam, gamma, *divmod(p.s, gamma))


def check_vertex(p: CirculantParams, i: int) -> int:
    """Validate a vertex id against [0, n); returns it as a Python int.

    As for n and s, a non-integral value such as 6.5 raises TypeError.
    Every entry point that takes a vertex id checks it here: the kernel's
    distance_range and the oracle's bfs_distances as distance_from_zero.
    Reads only p.n, so an oracle.ExplicitGraph serves as p too.
    """
    if type(i) is not int:
        i = _integer("vertex", i)
    if not 0 <= i < p.n:
        raise VertexOutOfRangeError(f"vertex {i} outside [0, {p.n})")
    return i
