"""Exact diameter with witnesses.

By vertex-transitivity the diameter equals the eccentricity of vertex 0,
and the ring symmetry d(i) = d(n - i) confines the search to
i in [2, floor(n/2)] (i = 0 and i = 1 never attain the maximum of a graph
that is not complete).  The scan runs the lattice kernel distance_range,
which costs the same per vertex for every chord, over independent index
blocks, so memory stays flat for large n.  It reads the kernel's arrays
through their own methods, so numpy loads with the first distance_range
call, not with this module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .distance import distance_range
from .params import CirculantParams

# vertices per distance_range call; bounds peak memory, not results
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


def diameter_exact(p: CirculantParams) -> DiameterResult:
    """max d(i) over i in [2, floor(n/2)] with every attaining i.

    Blocks of the index range are evaluated independently and max-combined,
    so the result is identical for any block size or evaluation order.
    """
    value = -1
    witnesses: list[int] = []
    for start in range(2, p.half + 1, _CHUNK):
        stop = min(p.half, start + _CHUNK - 1)
        block = distance_range(p, start, stop)
        block_max = int(block.max())
        if block_max < value:
            continue
        if block_max > value:
            value = block_max
            witnesses.clear()
        witnesses.extend(((block == block_max).nonzero()[0] + start).tolist())
    return DiameterResult(value=value, witnesses=tuple(witnesses), method="algorithm")


def eccentricity_profile(p: CirculantParams) -> list[tuple[int, int]]:
    """(i, d(i)) for i in 0..floor(n/2), the whole distance profile."""
    dist = distance_range(p, 0, p.half)
    return list(enumerate(dist.tolist()))
