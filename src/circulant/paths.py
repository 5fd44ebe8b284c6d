"""Canonical path classes between vertex 0 and a target vertex.

Every walk in C_n(1, s) mixes unit steps along the ring (outer edges, +-1)
with chord steps (inner edges, +-s).  Up to reordering and cancellation,
a walk from 0 to i is summarized by a *class*: the lattice point (x, y)
with x + s*y = i (mod n), x its net ring steps and y its net chord steps,
each positive clockwise, so it takes |x| + |y| edges.  Six families of
classes, read off from integer divisions of i, t*n + i and t*n - i by s,
are guaranteed to contain a shortest path; distance computation is then a
minimum over their lengths.

The families are defined once, as the rules of FAMILY_RULES.  The scalar
scan of distance_from_zero and canonical_classes both read that table,
through class_lengths (lengths only) and build_class (one class).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import gcd
from typing import Iterator

from .params import CirculantParams, check_vertex


class InconsistentClassError(ValueError):
    """Raised when a class is realized against a vertex it does not reach."""


class Family(IntEnum):
    """The six canonical families, defined by FAMILY_RULES; numeric order is
    the argmin tie-break order."""

    P1 = 0
    P2 = 1
    P1T = 2
    P2T = 3
    P3T = 4
    P4T = 5


@dataclass(frozen=True)
class PathClass:
    """One canonical class: the signed ring and chord steps (x, y) of a walk.

    Positive counts step clockwise (increasing ids), negative ones
    counterclockwise.  family/t record which construction produced the
    class; they are None for classes recovered from raw walks.
    """

    x: int
    y: int
    family: Family | None = None
    t: int | None = None

    @property
    def length(self) -> int:
        return abs(self.x) + abs(self.y)

    def __str__(self) -> str:
        outer = f"{abs(self.x)}{_label(self.x, 'a')}" if self.x else "0"
        inner = f"{abs(self.y)}{_label(self.y, 'c')}" if self.y else "0"
        return f"({outer}, {inner})"


def _label(count: int, kind: str) -> str:
    """'a+' for a clockwise ring step, 'c-' for a counterclockwise chord."""
    return kind + ("+" if count > 0 else "-")


@dataclass(frozen=True)
class WalkSpec:
    """Step counts of an arbitrary 0 -> i walk, one field per edge kind."""

    plus_outer: int
    minus_outer: int
    plus_inner: int
    minus_inner: int

    @property
    def length(self) -> int:
        return self.plus_outer + self.minus_outer + self.plus_inner + self.minus_inner


def t_range(p: CirculantParams) -> int:
    """Number of wrap counts to enumerate: floor(s / gcd(n, s)).

    Beyond this many wraps the residue pattern repeats, so no new classes
    arise.  When s divides n the range collapses to {1}.
    """
    return p.s // gcd(p.n, p.s)


# One rule per family, in Family order: the sign of i in the dividend
# t*n + sign*i, and whether the class overshoots by one chord.  With
# (q, r) = divmod(dividend, s) a class takes q chords and r ring steps, both
# in the sign's direction, or, when it overshoots, q + 1 chords and s - r
# ring steps back.  P1 and P2 are the forward pair at t = 0; the T variants
# wrap the ring t >= 1 times, P3T and P4T with backward chords.
FAMILY_RULES = (
    (Family.P1, 1, False),
    (Family.P2, 1, True),
    (Family.P1T, 1, False),
    (Family.P2T, 1, True),
    (Family.P3T, -1, False),
    (Family.P4T, -1, True),
)


def class_lengths(
    p: CirculantParams, i: int, t_limit: int
) -> Iterator[tuple[int, Family, int]]:
    """(length, family, t) of each canonical class for i with t <= t_limit.

    P1 and P2 come first with t = 0, then P1T..P4T for t = 1..t_limit.  The
    tuples order by the argmin tie-break of distance_from_zero, so min() of
    them is its winner; no PathClass is built.
    """
    n, s = p.n, p.s
    unwrapped, wrapped = FAMILY_RULES[:2], FAMILY_RULES[2:]
    for t in range(t_limit + 1):
        for family, sign, overshoot in wrapped if t else unwrapped:
            q, r = divmod(t * n + sign * i, s)
            outer, inner = (s - r, q + 1) if overshoot else (r, q)
            yield outer + inner, family, t


def build_class(p: CirculantParams, i: int, family: Family, t: int = 0) -> PathClass:
    """The class of i that family yields at wrap count t (t = 0 for P1, P2)."""
    _, sign, overshoot = FAMILY_RULES[family]
    q, r = divmod(t * p.n + sign * i, p.s)
    x, y = (r - p.s, q + 1) if overshoot else (r, q)
    return PathClass(sign * x, sign * y, family, t or None)


def canonical_classes(p: CirculantParams, i: int) -> list[tuple[PathClass, int]]:
    """All 2 + 4*t_range(p) canonical classes from 0 to i, with lengths.

    Contains a shortest path for every i; some entries may realize as
    walks that revisit a vertex, but such entries are never strict minima.
    """
    check_vertex(p, i)
    return [
        (build_class(p, i, family, t), length)
        for length, family, t in class_lengths(p, i, t_range(p))
    ]


def realize_path(p: CirculantParams, pc: PathClass, i: int) -> tuple[list[int], bool]:
    """Expand a class into its vertex sequence, outer steps first.

    Returns (sequence, is_genuine_path) where the flag is False when some
    vertex repeats (the class realizes as a walk, not a path).  Raises
    InconsistentClassError if the expansion does not end at i mod n.
    """
    check_vertex(p, i)
    n = p.n
    seq = [0]
    v = 0
    for count, unit in ((pc.x, 1), (pc.y, p.s)):
        step = unit if count > 0 else -unit
        for _ in range(abs(count)):
            v = (v + step) % n
            seq.append(v)
    if v != i % n:
        raise InconsistentClassError(f"class {pc} ends at {v}, not {i}")
    return seq, len(set(seq)) == len(seq)


def reduce_walk(p: CirculantParams, w: WalkSpec) -> PathClass:
    """Cancel opposing steps of a walk, leaving its net (x, y).

    The result has the same endpoint as the walk and length at most the
    walk's length.  family/t are None: the reduction forgets provenance.
    """
    return PathClass(w.plus_outer - w.minus_outer, w.plus_inner - w.minus_inner)


def translate_endpoints(p: CirculantParams, i: int, j: int) -> int:
    """Shift a path between i and j to start at 0: returns (j - i) mod n."""
    check_vertex(p, i)
    check_vertex(p, j)
    return (j - i) % p.n


def render_path(seq: list[int], pc: PathClass) -> str:
    """Debug/CLI rendering: '0 ->a+ 1 ->a+ 2 ->c+ 6'."""
    if len(seq) == 1:
        return str(seq[0])
    labels = [_label(pc.x, "a")] * abs(pc.x) + [_label(pc.y, "c")] * abs(pc.y)
    parts = [str(seq[0])]
    for label, v in zip(labels, seq[1:]):
        parts.append(f"->{label}")
        parts.append(str(v))
    return " ".join(parts)
