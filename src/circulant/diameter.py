"""Exact diameter with witnesses.

By vertex-transitivity the diameter equals the eccentricity of vertex 0,
and the ring symmetry d(i) = d(n - i) confines the search to
i in [2, floor(n/2)] (i = 0 and i = 1 never attain the maximum of a graph
that is not complete).  The scan runs the lattice kernel of distance.py,
which costs the same per vertex for every chord, over independent blocks,
so memory stays flat for large n.  diameter_exact scans one chord through
distance_range; diameters_exact scans every chord of one n together, as
(chord x vertex) blocks, which spares the per-call numpy cost that
dominates small graphs.  Both read the kernel's arrays through their own
methods, so numpy loads with the first kernel call, not with this module.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .distance import _lattice_block, distance_range
from .params import CirculantParams

# (chord, vertex) pairs per kernel block; bounds peak memory, not results
_CHUNK = 1 << 20


@dataclass(frozen=True)
class DiameterResult:
    """Diameter value, the attaining vertices in [2, n//2], and provenance.

    method is "algorithm" (the lattice kernel), "formula" (closed form) or
    "oracle" (breadth-first search); equal values from any two methods are
    the cross-checks the test suite leans on.
    """

    value: int
    witnesses: tuple[int, ...]
    method: str


def _scan(half: int, chords: int, block_of) -> list[DiameterResult]:
    """Max-combine the kernel's blocks of [2, half] for chords chords.

    block_of(first, last, lo, hi) returns d(0, i) for i in [lo, hi] on
    chords [first, last) as a (chords x vertices) array.  Blocks hold at
    most _CHUNK (chord, vertex) pairs, whole chord groups while a row fits
    and vertex ranges of one chord after that, and are evaluated
    independently, so the result is identical for any block size or order.
    """
    group = max(1, _CHUNK // (half - 1))
    width = min(half - 1, _CHUNK // group)
    values, witnesses = [-1] * chords, [[] for _ in range(chords)]
    for first in range(0, chords, group):
        last = min(chords, first + group)
        for lo in range(2, half + 1, width):
            hi = min(half, lo + width - 1)
            block = block_of(first, last, lo, hi)
            maxima = block.max(axis=1, keepdims=True)
            best = maxima[:, 0].tolist()
            for k, value in enumerate(best, first):
                if value > values[k]:
                    values[k] = value
                    witnesses[k].clear()
            # flat indices: a 2-D nonzero costs about ten times as much
            for at in (block == maxima).ravel().nonzero()[0].tolist():
                k, i = divmod(at, hi - lo + 1)
                if best[k] == values[first + k]:
                    witnesses[first + k].append(lo + i)
    return [DiameterResult(v, tuple(w), "algorithm") for v, w in zip(values, witnesses)]


def diameter_exact(p: CirculantParams) -> DiameterResult:
    """max d(i) over i in [2, floor(n/2)] with every attaining i."""
    return _scan(p.half, 1, lambda first, last, lo, hi: distance_range(p, lo, hi)[None])[0]


def diameters_exact(ps: Sequence[CirculantParams]) -> list[DiameterResult]:
    """diameter_exact of every graph of ps, which must share one n.

    Each block covers many chords at once, which spares the per-call numpy
    cost that dominates small graphs; the results equal diameter_exact's.
    """
    if len({p.n for p in ps}) > 1:
        raise ValueError("diameters_exact needs graphs that share one n")
    if not ps:
        return []
    return _scan(
        ps[0].half, len(ps), lambda first, last, lo, hi: _lattice_block(ps[first:last], lo, hi)
    )


def eccentricity_profile(p: CirculantParams) -> list[tuple[int, int]]:
    """(i, d(i)) for i in 0..floor(n/2), the whole distance profile."""
    dist = distance_range(p, 0, p.half)
    return list(enumerate(dist.tolist()))
