"""Exact diameter with witnesses.

By vertex-transitivity the diameter equals the eccentricity of vertex 0,
and the ring symmetry d(i) = d(n - i) confines the search to
i in [2, floor(n/2)] (i = 0 and i = 1 never attain the maximum of a graph
that is not complete).  diameters_exact folds the passes of the lattice
kernel of distance.py into running maxima as they come, so memory is one
pass at any n.  The kernel's cost per vertex depends on the chord: passes
whose vertices share their lattice rows, as most do when u is short, cost
less than passes that cross a row.  It takes every chord of one n
together, which spares the per-call numpy cost that dominates small
graphs; diameter_exact is its one-chord case.  numpy loads with the first
kernel call, not with this module.

A result keeps its witnesses packed in one bytes object, at 4 bytes each
below n = 2**32 and 8 above (Witnesses), where a tuple of Python ints
takes 40: one result can hold tens of thousands.
"""
from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from struct import Struct, error as StructError
from typing import NamedTuple

from .distance import _lattice_passes, distance_range
from .params import CirculantParams
from .paths import TupleLike

_bytes_new, _bytes_eq = bytes.__new__, bytes.__eq__


class Witnesses(TupleLike, bytes):
    """The vertices of items packed in one bytes object, standing in for their tuple.

    Read-only; a slice is a tuple, and the repr and str are the tuple's.
    A vertex takes 4 bytes when every one fits a C int, as every vertex of
    an n < 2**32 does; otherwise the result is a _WideWitnesses, at 8
    bytes a vertex.  One object, with no array or wrapper behind it, so a
    result of 15 witnesses keeps about 110 bytes.
    """

    __slots__ = ()
    _unpack = Struct("i").unpack_from
    _code, _size = "i", 4

    def __new__(cls, items: Sequence[int]) -> Witnesses:
        try:
            return _bytes_new(Witnesses, array("i", items))
        except OverflowError:  # a Sequence, so it reads from the start again
            return _bytes_new(_WideWitnesses, array("q", items))

    def __len__(self) -> int:
        return bytes.__len__(self) // self._size

    def __getitem__(self, k):
        try:  # unpack_from counts a negative offset from the end, as k does
            return self._unpack(self, k * self._size)[0]
        except (StructError, OverflowError):
            raise IndexError("Witnesses index out of range") from None
        except TypeError:  # a slice, or no index at all: the tuple's answer
            return tuple(self)[k]

    def __iter__(self) -> Iterator[int]:
        return iter(memoryview(self).cast(self._code))

    def __eq__(self, other) -> bool:
        # a tuple packs one way, so two Witnesses are equal when their bytes
        # are, and no plain bytes object stands in for a tuple
        if type(other) is type(self):
            return _bytes_eq(self, other)
        if isinstance(other, bytes):
            return False
        return TupleLike.__eq__(self, other)

    # bytes would answer != and order two Witnesses by their bytes: !=
    # follows __eq__ here, and, as for any Sequence, there is no order
    __ne__ = object.__ne__
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__
    __hash__ = TupleLike.__hash__

    def __getnewargs__(self) -> tuple[tuple[int, ...]]:  # bytes' own gives raw bytes
        return (tuple(self),)

    def __repr__(self) -> str:
        return repr(tuple(self))

    __str__ = __repr__


class _WideWitnesses(Witnesses):
    """Witnesses at 8 bytes a vertex, for a set with one past a C int."""

    __slots__ = ()
    _unpack = Struct("q").unpack_from
    _code, _size = "q", 8


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
