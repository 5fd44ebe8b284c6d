"""Exact diameter with witnesses.

By vertex-transitivity the diameter equals the eccentricity of vertex 0,
and the ring symmetry d(i) = d(n - i) confines the search to
i in [2, floor(n/2)] (i = 0 and i = 1 never attain the maximum of a graph
that is not complete).  diameters_exact folds the passes of the lattice
kernel of distance.py, which costs the same per vertex for every chord,
into running maxima as they come, so memory is one pass at any n.  It
takes every chord of one n together, which spares the per-call numpy cost
that dominates small graphs; diameter_exact is its one-chord case.  numpy
loads with the first kernel call, not with this module.

A result keeps its witnesses at 4 bytes each below n = 2**32 and 8 above
(Witnesses), where a tuple of Python ints takes 40: one result can hold
tens of thousands.
"""
from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .distance import _lattice_passes, distance_range
from .params import CirculantParams
from .paths import TupleLike


class Witnesses(TupleLike):
    """The vertices of items in an array, standing in for their tuple.

    Read-only; a slice is a tuple, and the repr is the tuple's.  The array
    takes 4 bytes a vertex when every one fits a C int, as every vertex of
    an n < 2**32 does, and 8 bytes otherwise.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Sequence[int]) -> None:
        try:
            self._items = array("i", items)
        except OverflowError:  # a Sequence, so it reads from the start again
            self._items = array("q", items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        got = self._items[k]
        return tuple(got) if isinstance(k, slice) else got

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def _key(self) -> array:
        return self._items

    def __repr__(self) -> str:
        return repr(tuple(self))


class DiameterResult(NamedTuple):
    """The diameter and every vertex in [2, n//2] that attains it, ascending.

    diameter_exact (the lattice kernel) and oracle.oracle_diameter (BFS)
    both return one, so the two routes cross-check by record equality.
    """

    value: int
    witnesses: Witnesses


def diameter_exact(p: CirculantParams) -> DiameterResult:
    """max d(i) over i in [2, floor(n/2)] with every attaining i."""
    return diameters_exact([p])[0]


def diameters_exact(ps: Sequence[CirculantParams]) -> list[DiameterResult]:
    """diameter_exact of every graph of ps, which must share one n.

    Folds each kernel pass into running maxima as it arrives, so memory is
    one pass at any n.  A chord's passes come in ascending vertex order, so
    its witnesses stay sorted.
    """
    if len({p.n for p in ps}) > 1:
        raise ValueError("diameters_exact needs graphs that share one n")
    if not ps:
        return []
    values, witnesses = [-1] * len(ps), [[] for _ in ps]
    for chords, lo, block in _lattice_passes(ps, 2, ps[0].half):
        maxima = block.max(axis=1, keepdims=True)
        best = maxima[:, 0].tolist()
        for k, value in zip(chords, best):
            if value > values[k]:
                values[k] = value
                witnesses[k].clear()
        # flat indices: a 2-D nonzero costs about ten times as much
        for at in (block == maxima).ravel().nonzero()[0].tolist():
            row, i = divmod(at, block.shape[1])
            if best[row] == values[chords[row]]:
                witnesses[chords[row]].append(lo + i)
    return [DiameterResult(v, Witnesses(w)) for v, w in zip(values, witnesses)]


def eccentricity_profile(p: CirculantParams) -> list[tuple[int, int]]:
    """(i, d(i)) for i in 0..floor(n/2), the whole distance profile."""
    dist = distance_range(p, 0, p.half)
    return list(enumerate(dist.tolist()))
