"""Exact vertex distances, by routes that agree on every vertex.

d(0, i) is the least |x| + |y| over all x + s*y = i (mod n): x ring steps
and y chord steps.  The scalar route, distance_from_zero, scans the
canonical path classes (2 + 4*T class lengths from 1 + 2*T divisions, T
pruned by wrap_limit, which each graph computes once as
CirculantParams.wrap_limit) and reports the minimizing class and its path as
a lazy paths.RealizedPath, so a result takes constant memory however long
the path; it uses Python integers, so it has no range limit.  It reads
paths.FAMILY_RULES, one rule per dividend, as canonical_classes does, and
does no family arithmetic itself.  The lattice routes treat the minimum as
an L1 closest-vector problem in the 2-D lattice of the graph: its reduced
basis, CirculantParams.basis, leaves 4 candidate points per vertex for every
chord.  closest_point applies that rule to one vertex with Python integers,
with no range limit, and proves it; the bulk kernel _lattice_passes applies
it with numpy to (chord x vertex) passes of one n, in int32 below n = 2**20
and int64 up to 2**40, yielding each pass from one reused buffer.
distance_range copies its one chord's passes into an int64 window;
diameter.diameters_exact folds the passes of every chord of an n as they
come.  The tests hold the lattice routes to the scan and to BFS.

numpy is imported by the first kernel call, not with this module, so a
process that only asks scalar queries never loads it.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .bounds import bounds_report
from .params import CirculantParams, check_limit, check_vertex
from .paths import (
    PathClass,
    RealizedPath,
    build_class,
    class_lengths,
    lazy_path,
    realize_path,  # noqa: F401 -- not called; bench/spans.py wraps this global
    t_range,
    translate_endpoints,
)

if TYPE_CHECKING:
    import numpy as np

# (chord, vertex) pairs per numpy pass of the lattice kernel: keeps its
# arrays in cache
_CHUNK = 1 << 13
# the kernel's n ceiling: its intermediates fit in int64 (see _lattice_passes)
check_kernel_n = partial(check_limit, 1 << 40, "2**40, the int64 limit of the bulk lattice kernel")


class DistanceResult(NamedTuple):
    """A distance value with the class that attains it and its lazy path."""

    value: int
    argmin_class: PathClass
    realized: RealizedPath


def wrap_limit(p: CirculantParams) -> int:
    """Largest wrap count t whose classes can still attain a distance.

    A class with wrap count t has length at least floor(((t-1)*n + 1)/s),
    while every distance is at most the combined diameter bound.  A class
    longer than that bound can never be a minimum (the minimum itself is a
    distance), so wraps past the crossover are dropped.  This cuts the
    per-vertex scan from 2 + 4*s/gcd(n, s) lengths to a handful once n is
    large relative to s.
    """
    cap = bounds_report(p).combined
    # floor(((t-1)*n + 1)/s) <= cap  iff  t <= 1 + (s*cap + s - 2)/n; both
    # terms of the min are at least 1, as s >= 2
    keep = 1 + (p.s * cap + p.s - 2) // p.n
    return min(t_range(p), keep)


def distance_from_zero(p: CirculantParams, i: int) -> DistanceResult:
    """d(0, i) plus a minimizing class and its vertex sequence.

    Ties break on (length, family order P1 < P2 < P1T < P2T < P3T < P4T,
    then smallest t) so outputs are reproducible.  Takes the least (length,
    family, t) tuple of the pruned scan and builds only the winner, whose
    endpoint lazy_path checks in O(1) (InconsistentClassError if it misses
    i); no vertex of the path is computed until it is read.
    """
    i = check_vertex(p, i)
    value, family, t = min(class_lengths(p, i, p.wrap_limit))
    pc = build_class(p, i, family, t)
    return DistanceResult(value, pc, lazy_path(p, pc, i))


def distance(p: CirculantParams, i: int, j: int) -> DistanceResult:
    """d(i, j) by translating the pair to start at vertex 0."""
    return distance_from_zero(p, translate_endpoints(p, i, j))


def closest_point(p: CirculantParams, i: int) -> tuple[int, int]:
    """A lattice point (x, y) with x + s*y = i (mod n) and |x| + |y| = d(0, i).

    d(0, i) is the L1 distance from P = (i, 0) to the lattice
    L = {x + s*y = 0 (mod n)}, whose determinant is n, and (x, y) is P
    minus a closest point of L.  With the reduced basis (u, w) of
    p.basis, write P = alpha*u + beta*w; then beta = -i*uy/n.  Row B is
    the line {P - B*w - A*u : A real}.  On a row, f(A) = |X - A*u|_1 is
    convex with breakpoints where either coordinate vanishes, and its real
    minimum is at the breakpoint of the heavier coordinate h of u
    (|uh| = |u|_inf), so the best lattice point of the row is at A = floor
    or ceil of Xh/uh.  Only rows b0 = floor(beta) and b0 + 1 can hold the
    minimum:

    - Every point x of row B has |(-uy, ux) . x| = |beta - B|*n, and
      Hoelder gives |x|_1 >= |beta - B|*g with g = n/|u|_inf.  The
      breakpoint of h attains it.
    - Let e <= 1/2 be the smaller offset |beta - B| of rows b0 and b0 + 1.
      f is |u|_1-Lipschitz, so that row holds a lattice point with
      |x|_1 <= e*g + |u|_1/2.
    - Reduction gives |u|^2 <= (2/sqrt 3)*n (the angle of u and w lies in
      [60, 120] degrees and |u| <= |w|), so
      |u|_1*|u|_inf <= (3/2)*|u|^2 <= sqrt(3)*n and |u|_1/2 < g.
    - Every other row has offset at least e + 1, so all its points have
      |x|_1 >= e*g + g, more than the bound above.

    Row dominance, in integers: with rem = -i*uy - b0*n (so beta - b0 =
    rem/n) and P = |u|_1*|u|_inf, row b0 + 1 cannot beat row b0 when its
    bound (1 - rem/n)*g reaches row b0's (rem/n)*g + |u|_1/2, that is
    (times 2*|u|_inf) when 2*(n - 2*rem) >= P.  Likewise row b0 cannot beat
    row b0 + 1 when 2*(2*rem - n) >= P.  The two never hold together
    (their sum would read 0 >= 2*P), so at least one row is left.

    Plain Python integers, so it has no range limit.  Ties go to the first
    candidate.  Raises TypeError for a non-integral i and
    VertexOutOfRangeError outside [0, n), as distance_from_zero does.
    """
    i = check_vertex(p, i)
    ux, uy, wx, wy = p.basis
    b0 = -i * uy // p.n
    candidates = []
    for b in (b0, b0 + 1):
        x, y = i - b * wx, -b * wy  # X = P - b*w
        a = x // ux if abs(ux) >= abs(uy) else y // uy
        candidates += [(x - a * ux, y - a * uy), (x - (a + 1) * ux, y - (a + 1) * uy)]
    return min(candidates, key=lambda c: abs(c[0]) + abs(c[1]))


def _shared_row(
    neg_uy: int, uh: int, ul: int, n: int, first: int, last: int
) -> tuple[int, ...] | None:
    """The rows of closest_point that can hold d(0, i) for all i in [first, last].

    None unless every i in the range has the same b0 = floor(-i*uy/n) (b0
    is monotone in i, so equal ends suffice).  Otherwise (b0,), (b0 + 1,)
    or (b0, b0 + 1), by closest_point's row-dominance rule with
    P = |u|_1*|u|_inf = (uh + |ul|)*uh; its rem is linear in i, so a row
    dead at both ends is dead on the whole range.
    """
    b0 = first * neg_uy // n
    if last * neg_uy // n != b0:
        return None
    reach = (uh + abs(ul)) * uh
    low, high = sorted(2 * (i * neg_uy - b0 * n) - n for i in (first, last))  # 2*rem - n
    if -2 * high >= reach:
        return (b0,)
    if 2 * low >= reach:
        return (b0 + 1,)
    return (b0, b0 + 1)


def _period_tables(uh: int, ul: int, size: int, dtype) -> tuple[np.ndarray, ...]:
    """k mod uh, floor(k/uh)*ul and uh - k mod uh for k in [0, size)."""
    import numpy as np

    a, r = np.divmod(np.arange(size, dtype=dtype), uh)
    a *= ul
    return r, a, uh - r


def _lattice_passes(
    ps: Sequence[CirculantParams], lo: int, hi: int
) -> Iterator[tuple[list[int], int, np.ndarray]]:
    """d(0, i) on each graph of ps, which share one n, for i in [lo, hi], by passes.

    Each pass yields (chords, start, block): chords indexes ps, block is a
    (len(chords) x vertices) integer array with row k for ps[chords[k]] and
    column j for vertex start + j, by the rule of closest_point (proved
    there) on that graph's basis.  block is a view of a buffer that the
    next pass overwrites, so the caller reads it before asking for the
    next pass.  Each chord's passes come in ascending vertex order.

    Each pass evaluates at most 2 rows x 2 candidates of at most _CHUNK
    (chord, vertex) pairs with numpy, with the pass's chords as a column.
    Intermediates stay below 12*n except i*uy, which stays below
    1.08*n**1.5 (|uy| <= |u| <= 1.08*sqrt(n) by reduction, i < n).  So the
    pass computes in int32 for n < 2**20, where 1.08*n**1.5 < 1.08*2**30
    < 2**31, which halves the bytes it moves, and in int64 up to n = 2**40;
    larger n raises OutOfRangeError (distance_from_zero has no such limit).

    A pass that divides takes A = floor(xh/uh) with floor_divide and the
    heavy residual as xh - A*uh, which equals divmod's because uh > 0.  A
    one-chord pass (every pass of distance_range and of one graph's
    diameter, and every pass once hi - lo >= _CHUNK/2) divides by one plain
    int, which numpy does by multiply and shift, about 4x faster than
    divmod.  A many-chord pass divides by a column of uh, which has no such
    path; divmod there made the n <= 300 sweep no faster end to end.

    b0 = floor(-i*uy/n) steps only |uy| times over [0, n), so most passes
    of a graph with a short or nearly horizontal u stay between two rows.
    A one-chord pass whose first and last vertex share b0 (b0 is monotone
    in i, so every vertex between them shares it too) takes its rows as
    plain ints, and only those that _shared_row leaves live.  B*w is then
    one constant per row, so the coordinate that carries i is a ramp 0, 1,
    ... plus start plus that constant: one array op in place of seven (the
    arange of i, i*uy, the floor division, the rows, two products by w and
    the add of i).  When u is heavy in y, that coordinate is the light one
    and the heavy one, B*(-wh), is constant; so are A and the heavy
    residual, and a row takes 8 array ops in place of 13.

    When u is heavy in x, A and the heavy residual repeat with period uh
    along such a row: with (q, r0) = divmod(start - B*wh, uh) and
    k = r0 + j for the pass's j in [0, c), row B has A = q + floor(k/uh),
    heavy residual r = k mod uh, and light coordinate
    (-B*wl - q*ul) - floor(k/uh)*ul.  So tables of k mod uh,
    floor(k/uh)*ul and uh - k mod uh over the k in [0, width + uh - 1) a
    pass can reach hand it r, the light term and candidate A + 1's heavy
    residual as slices at r0: 7 array ops a row in place of 13 (the ramp,
    the division, the residual and the light coordinate take one subtract;
    candidate A + 1's -r, +uh take one add).  Every entry is below
    width + uh in absolute value (|ul| <= uh), so the tables would fit int32
    at any n, and the light constant is within width + uh of a vertex's
    light coordinate, inside the dtype bound above; the tables take the
    pass's dtype, as numpy casts a mixed-dtype operand on every op.  A
    chord builds them on its first pass that reads them, so a call whose
    passes all cross a row builds none, and only when uh <= width, so they
    hold under 2*width entries.  At width = _CHUNK, uh > width needs
    n > _CHUNK**2*sqrt(3)/2 ~ 5.8e7 (uh <= |u|); such passes divide.

    Such a pass runs one row when closest_point's row-dominance rule rules
    the other out at both of its ends (the rule is linear in i, so it then
    holds between them), and then also skips the minimum of the two rows.
    Every s with s*s < n has u = (s, -1), so b0 = 0, and its passes that
    end at or below n/2 - s*(s + 1)/4 run row 0 alone.  The constants are
    the per-vertex path's integers at i = start, so the pass's values and
    dtype bound are unchanged.  Passes that cross a row, and every
    many-chord pass, compute both rows per vertex.
    """
    n = ps[0].n
    check_kernel_n(n)
    import numpy as np

    dtype = np.int32 if n < 1 << 20 else np.int64

    bases = [p.basis for p in ps]
    # per chord: -uy, then uh, ul, -wh, -wl in the heavy/light coordinates
    # of u.  Chords whose u is heavy in x come first, and no pass mixes the
    # two kinds, so a pass adds i to one coordinate of all its rows
    order = sorted(range(len(bases)), key=lambda k: abs(bases[k][0]) < abs(bases[k][1]))
    heavy_x = sum(abs(ux) >= abs(uy) for ux, uy, _, _ in bases)
    table = []
    for k in order:
        ux, uy, wx, wy = bases[k]
        table.append((-uy, ux, uy, -wx, -wy) if abs(ux) >= abs(uy) else (-uy, uy, ux, -wy, -wx))
    count, m = len(ps), hi - lo + 1
    group = max(1, min(count, _CHUNK // m))
    width = min(m, _CHUNK // group)
    rows = np.arange(2, dtype=dtype)[:, None, None]
    ramp = np.arange(width, dtype=dtype)  # i - start over a pass
    # one allocation, not four: freeing a block this large raises glibc's
    # trim threshold past it, so later calls reuse its pages, not fresh ones
    xh_buf, xl_buf, a_buf, r_buf = np.empty((4, 2, group, width), dtype=dtype)
    for on_h, kind_start, kind_stop in ((True, 0, heavy_x), (False, heavy_x, count)):
        for first in range(kind_start, kind_stop, group):
            g = min(group, kind_stop - first)
            if g == 1:  # plain ints keep numpy on its fast scalar path
                neg_uy, uh, ul, neg_wh, neg_wl = table[first]
            else:
                cols = np.array(table[first : first + g], dtype=dtype)
                neg_uy, uh, ul, neg_wh, neg_wl = cols.T[:, :, None]
            tables = None  # built by this chord's first pass that reads them
            for start in range(lo, hi + 1, width):
                c = min(width, hi + 1 - start)
                live = None if g > 1 else _shared_row(neg_uy, uh, ul, n, start, start + c - 1)
                k = 2 if live is None else len(live)
                xh, xl = xh_buf[:k, :g, :c], xl_buf[:k, :g, :c]
                a, r = a_buf[:k, :g, :c], r_buf[:k, :g, :c]
                if live is not None and on_h and uh <= width:
                    # xh = start - B*wh + j = q*uh + r0 + j, so A = q + (r0 + j)//uh
                    # and each row reads r, A*ul and uh - r off the tables at r0 + j
                    if tables is None:
                        tables = _period_tables(uh, ul, width + uh - 1, dtype)
                    rs, aul, urs = tables
                    for row, b in enumerate(live):
                        q, r0 = divmod(start + b * neg_wh, uh)
                        ar, xr = a[row], xh[row]
                        np.subtract(b * neg_wl - q * ul, aul[r0 : r0 + c], out=ar)
                        np.abs(ar, out=xr)
                        xr += rs[r0 : r0 + c]
                        ar -= ul
                        np.abs(ar, out=ar)
                        ar += urs[r0 : r0 + c]
                        np.minimum(xr, ar, out=xr)
                else:
                    if live is None or on_h:
                        # X = (i, 0) - B*w in the heavy/light coordinates of u,
                        # on rows B = b0 + {0, 1} with b0 = floor(-i*uy/n)
                        if live is None:
                            i = np.arange(start, start + c, dtype=dtype)
                            b = i * neg_uy
                            b //= n
                            np.add(b, rows, out=r)
                            np.multiply(r, neg_wh, out=xh)
                            np.multiply(r, neg_wl, out=xl)
                            if on_h:
                                xh += i
                            else:
                                xl += i
                        else:  # one B per live row: xh is ramp plus a constant
                            bw = [(start + b * neg_wh, b * neg_wl) for b in live]
                            xh0, xl = np.array(bw, dtype=dtype).T[:, :, None, None]
                            np.add(ramp[:c], xh0, out=xh)
                        # A = floor(xh/uh) leaves heavy residual r, light xl - A*ul
                        np.floor_divide(xh, uh, out=a)
                        np.multiply(a, uh, out=r)
                        np.subtract(xh, r, out=r)
                        a *= ul
                        np.subtract(xl, a, out=a)
                    else:  # u heavy in y, one B per live row: xh = B*(-wh) is
                        # constant, so A and r are ints and xl - A*ul is a ramp
                        consts = []
                        for b in live:
                            q, rest = divmod(b * neg_wh, uh)
                            consts.append((start + b * neg_wl - q * ul, rest))
                        light, r = np.array(consts, dtype=dtype).T[:, :, None, None]
                        np.add(ramp[:c], light, out=a)
                    np.abs(a, out=xh)
                    xh += r
                    # A + 1 leaves heavy residual uh - r, light shifted by ul
                    a -= ul
                    np.abs(a, out=a)
                    a -= r
                    a += uh
                    np.minimum(xh, a, out=xh)
                if k == 2:
                    np.minimum(xh[0], xh[1], out=xh[0])
                yield order[first : first + g], start, xh[0]


def distance_range(p: CirculantParams, lo: int, hi: int) -> np.ndarray:
    """d(0, i) for every i in [lo, hi] as an int64 array.

    The one-chord case of the lattice kernel _lattice_passes, copied pass
    by pass into one window.  lo and hi are checked as distance_from_zero
    checks its vertex (check_vertex), and lo > hi raises ValueError.
    Accepts n <= 2**40 and raises OutOfRangeError above, before it
    allocates (distance_from_zero and closest_point have no such limit).
    """
    lo, hi = check_vertex(p, lo), check_vertex(p, hi)
    if lo > hi:
        raise ValueError(f"index range [{lo}, {hi}] is empty: need lo <= hi")
    check_kernel_n(p.n)
    import numpy as np

    out = np.empty(hi - lo + 1, dtype=np.int64)
    for _, start, block in _lattice_passes([p], lo, hi):
        out[start - lo : start - lo + block.shape[1]] = block[0]
    return out
