"""Canonical path classes between vertex 0 and a target vertex.

Every walk in C_n(1, s) mixes unit steps along the ring (outer edges, +-1)
with chord steps (inner edges, +-s).  Up to reordering and cancellation,
a walk from 0 to i is summarized by a *class*: the lattice point (x, y)
with x + s*y = i (mod n), x its net ring steps and y its net chord steps,
each positive clockwise, so it takes |x| + |y| edges.  Six families of
classes, read off from integer divisions of i, t*n + i and t*n - i by s,
are guaranteed to contain a shortest path; distance computation is then a
minimum over their lengths.

The families are defined once, in FAMILY_RULES: one rule per dividend, each
giving a direct and an overshooting family.  The scalar scan of
distance_from_zero and canonical_classes both read that table, through
class_lengths (one division per dividend) and build_class (one class).

A class walks from 0 ring steps first, then chords.  RealizedPath is that
walk as a lazy, read-only vertex sequence: vertex k is O(1) arithmetic, so a
path of d + 1 vertices takes constant memory at any n.  lazy_path checks in
O(1) that a class ends at its target and returns it; realize_path lists it.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from enum import IntEnum
from math import gcd
from typing import Iterator, NamedTuple

from .params import CirculantParams, check_vertex


class InconsistentClassError(ValueError):
    """Raised when a class is realized against a vertex it does not reach."""


class Family(IntEnum):
    """The six canonical families: family f is rule f // 2 of FAMILY_RULES,
    overshooting iff f is odd.  Numeric order is the argmin tie-break."""

    P1 = 0
    P2 = 1
    P1T = 2
    P2T = 3
    P3T = 4
    P4T = 5


class PathClass(NamedTuple):
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


class WalkSpec(NamedTuple):
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


# One rule per dividend t*n + sign*i: the sign of i, then the direct and the
# overshooting family.  With (q, r) = divmod(dividend, s) the direct class
# takes q chords and r ring steps, both in the sign's direction, and the
# overshooting one q + 1 chords and s - r ring steps back.  P1 and P2 are
# the forward pair at t = 0; the T variants wrap the ring t >= 1 times,
# P3T and P4T with backward chords.
FAMILY_RULES = (
    (1, Family.P1, Family.P2),
    (1, Family.P1T, Family.P2T),
    (-1, Family.P3T, Family.P4T),
)


def class_lengths(
    p: CirculantParams, i: int, t_limit: int
) -> Iterator[tuple[int, Family, int]]:
    """(length, family, t) of each canonical class for i with t <= t_limit.

    P1 and P2 come first with t = 0, then P1T..P4T for t = 1..t_limit; each
    dividend is divided once, for its direct class and then its overshooting
    one.  The tuples order by the argmin tie-break of distance_from_zero, so
    min() of them is its winner; no PathClass is built.
    """
    n, s = p.n, p.s
    unwrapped, wrapped = FAMILY_RULES[:1], FAMILY_RULES[1:]
    for t in range(t_limit + 1):
        for sign, direct, overshoot in wrapped if t else unwrapped:
            q, r = divmod(t * n + sign * i, s)
            yield r + q, direct, t
            yield s - r + q + 1, overshoot, t


def build_class(p: CirculantParams, i: int, family: Family, t: int = 0) -> PathClass:
    """The class of i that family yields at wrap count t (t = 0 for P1, P2)."""
    sign = FAMILY_RULES[family // 2][0]
    q, r = divmod(t * p.n + sign * i, p.s)
    x, y = (r - p.s, q + 1) if family % 2 else (r, q)
    return PathClass(sign * x, sign * y, family, t or None)


def canonical_classes(p: CirculantParams, i: int) -> list[tuple[PathClass, int]]:
    """All 2 + 4*t_range(p) canonical classes from 0 to i, with lengths.

    Contains a shortest path for every i; some entries may realize as
    walks that revisit a vertex, but such entries are never strict minima.
    """
    i = check_vertex(p, i)
    return [
        (build_class(p, i, family, t), length)
        for length, family, t in class_lengths(p, i, t_range(p))
    ]


class TupleLike(Sequence):
    """A read-only sequence that stands in for the tuple of its items.

    It compares equal to, and hashes like, that tuple (hashing builds the
    tuple once), and like a tuple it is unequal to a list.  A subclass
    gives _key(), or its own __eq__: two of its instances with equal keys
    are equal without reading their items.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if type(other) is type(self) and self._key() == other._key():
            return True
        if not isinstance(other, (tuple, TupleLike)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class RealizedPath(TupleLike):
    """The vertices of the walk of pc from 0 in C_n(1, s), computed on demand.

    The walk takes |x| ring steps, then |y| chords, each in the direction of
    its sign, so vertex k is k*sign(x) mod n for k <= |x| and
    x + (k - |x|)*sign(y)*s mod n after.  Holds only (n, s, pc) at any
    length, and stands in for the tuple of its vertices (TupleLike); a
    slice is a tuple.
    """

    __slots__ = ("n", "s", "pc")

    def __init__(self, n: int, s: int, pc: PathClass) -> None:
        self.n, self.s, self.pc = n, s, pc

    def __len__(self) -> int:
        return abs(self.pc.x) + abs(self.pc.y) + 1

    def __getitem__(self, k):
        k = range(len(self))[k]  # range checks bounds, wraps negatives, slices
        return tuple(map(self._vertex, k)) if isinstance(k, range) else self._vertex(k)

    def _vertex(self, k: int) -> int:
        x, y = self.pc.x, self.pc.y
        if k <= abs(x):
            return (k if x > 0 else -k) % self.n
        k -= abs(x)
        return (x + (k if y > 0 else -k) * self.s) % self.n

    def __iter__(self) -> Iterator[int]:
        return map(self._vertex, range(len(self)))

    def _key(self) -> tuple[int, int, int, int]:
        return self.n, self.s, self.pc.x, self.pc.y

    def __repr__(self) -> str:
        return f"RealizedPath({self.n}, {self.s}, {self.pc!r})"


def lazy_path(p: CirculantParams, pc: PathClass, i: int) -> RealizedPath:
    """The walk of pc from 0 as a RealizedPath, checked in O(1) to end at i.

    Raises InconsistentClassError unless x + s*y = i (mod n).
    """
    end = (pc.x + p.s * pc.y) % p.n
    if end != i % p.n:
        raise InconsistentClassError(f"class {pc} ends at {end}, not {i}")
    return RealizedPath(p.n, p.s, pc)


def realize_path(p: CirculantParams, pc: PathClass, i: int) -> tuple[list[int], bool]:
    """Expand a class into its vertex list, outer steps first.

    Returns (sequence, is_genuine_path) where the flag is False when some
    vertex repeats (the class realizes as a walk, not a path).  Raises
    InconsistentClassError if the walk does not end at i mod n.  The list
    is that of lazy_path, built in full: O(d) memory.
    """
    i = check_vertex(p, i)
    seq = list(lazy_path(p, pc, i))
    return seq, len(set(seq)) == len(seq)


def reduce_walk(p: CirculantParams, w: WalkSpec) -> PathClass:
    """Cancel opposing steps of a walk, leaving its net (x, y).

    The result has the same endpoint as the walk and length at most the
    walk's length.  family/t are None: the reduction forgets provenance.
    """
    return PathClass(w.plus_outer - w.minus_outer, w.plus_inner - w.minus_inner)


def translate_endpoints(p: CirculantParams, i: int, j: int) -> int:
    """Shift a path between i and j to start at 0: returns (j - i) mod n."""
    i, j = check_vertex(p, i), check_vertex(p, j)
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
