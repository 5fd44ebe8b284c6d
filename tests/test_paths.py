"""Canonical class construction, realization, reduction."""
import math
import pickle
import random

import pytest

from circulant import (
    CirculantParams,
    Family,
    VertexOutOfRangeError,
    WalkSpec,
    canonical_classes,
    realize_path,
    reduce_walk,
)
from circulant.paths import (
    InconsistentClassError,
    PathClass,
    RealizedPath,
    build_class,
    class_lengths,
    lazy_path,
    render_path,
    t_range,
    translate_endpoints,
)

P10 = CirculantParams(10, 4)


def _by_family(entries, family, t=None):
    for pc, length in entries:
        if pc.family is family and pc.t == t:
            return pc, length
    raise AssertionError(f"no {family} t={t}")


def test_known_class_table_for_vertex_six():
    entries = canonical_classes(P10, 6)
    assert len(entries) == 2 + 4 * t_range(P10)

    pc, length = _by_family(entries, Family.P1)
    assert (pc.x, pc.y) == (2, 1)
    assert length == 3

    pc, length = _by_family(entries, Family.P2)
    assert (pc.x, pc.y) == (-2, 2)
    assert length == 4

    pc, length = _by_family(entries, Family.P1T, t=1)
    assert (pc.x, pc.y) == (0, 4)
    assert length == 4

    pc, length = _by_family(entries, Family.P3T, t=1)
    assert (pc.x, pc.y) == (0, -1)
    assert length == 1


# The paper's six families, one rule each and written out apart from
# paths.FAMILY_RULES: the family, the sign of i in the dividend t*n + sign*i,
# and whether the class overshoots by one chord.  P1 and P2 take t = 0, the
# others t >= 1.
_PAPER_RULES = (
    (Family.P1, 1, False),
    (Family.P2, 1, True),
    (Family.P1T, 1, False),
    (Family.P2T, 1, True),
    (Family.P3T, -1, False),
    (Family.P4T, -1, True),
)


def _reference_classes(p, i):
    """(length, family, t, x, y) of every canonical class of i, in tie-break
    order, with (x, y) its signed ring and chord steps."""
    n, s = p.n, p.s
    out = []
    for t in range(t_range(p) + 1):
        for family, sign, overshoot in _PAPER_RULES[2:] if t else _PAPER_RULES[:2]:
            dividend = t * n + sign * i
            q, r = dividend // s, dividend % s
            # direct: r ring steps and q chords, both in the sign's direction;
            # overshoot: q + 1 chords that way and s - r ring steps back
            outer, inner = (s - r, q + 1) if overshoot else (r, q)
            x = -sign * outer if overshoot else sign * outer
            out.append((outer + inner, family, t, x, sign * inner))
    return out


def _check_class_stream(p, i):
    expected = _reference_classes(p, i)
    assert list(class_lengths(p, i, t_range(p))) == [c[:3] for c in expected], (p, i)
    for length, family, t, x, y in expected:
        pc = build_class(p, i, family, t)
        assert pc == (x, y, family, t or None) and pc.length == length, (p, i, pc)
        assert (pc.x + p.s * pc.y) % p.n == i, (p, i, pc)


def test_class_stream_matches_the_paper_rules_on_small_cells():
    for n in range(5, 81):
        for s in range(2, (n - 1) // 2 + 1):
            p = CirculantParams(n, s)
            for i in range(n):
                _check_class_stream(p, i)


def test_class_stream_matches_the_paper_rules_at_huge_n():
    # s stays small so that all t_range(p) wrap counts can be listed
    rng = random.Random(2262)
    for _ in range(300):
        n = rng.randrange(2**40, 2**62 + 1)
        p = CirculantParams(n, round(math.exp(rng.uniform(math.log(2), math.log(256)))))
        for i in (0, n - 1, *(rng.randrange(n) for _ in range(4))):
            _check_class_stream(p, i)


def test_class_count_when_s_divides_n():
    p = CirculantParams(12, 3)
    assert t_range(p) == 1
    assert len(canonical_classes(p, 5)) == 6


def test_canonical_classes_rejects_bad_vertex():
    with pytest.raises(VertexOutOfRangeError):
        canonical_classes(P10, 10)
    with pytest.raises(VertexOutOfRangeError):
        canonical_classes(P10, -1)


def test_realize_direct_class():
    pc = _by_family(canonical_classes(P10, 6), Family.P1)[0]
    seq, genuine = realize_path(P10, pc, 6)
    assert seq == [0, 1, 2, 6]
    assert genuine


def test_realize_wrapped_class():
    pc = _by_family(canonical_classes(P10, 6), Family.P1T, t=1)[0]
    seq, genuine = realize_path(P10, pc, 6)
    assert seq == [0, 4, 8, 2, 6]
    assert genuine


def test_realize_empty_class_at_zero():
    seq, genuine = realize_path(P10, PathClass(0, 0), 0)
    assert seq == [0]
    assert genuine


def test_realize_rejects_wrong_target():
    pc = _by_family(canonical_classes(P10, 6), Family.P1)[0]
    with pytest.raises(InconsistentClassError):
        realize_path(P10, pc, 7)


def test_realized_path_indexes_like_its_tuple():
    # P2 at t = 0 for vertex 6: two counterclockwise ring steps, then two
    # clockwise chords
    path = RealizedPath(10, 4, PathClass(-2, 2))
    expected = (0, 9, 8, 2, 6)
    assert len(path) == 5
    assert [path[k] for k in range(5)] == [path[k - 5] for k in range(5)] == list(expected)
    for k in (5, -6, 10**30):
        with pytest.raises(IndexError):
            path[k]
    assert path[1:4] == (9, 8, 2) and type(path[1:4]) is tuple
    assert path[::-2] == expected[::-2] and path[7:] == ()
    assert tuple(path) == expected and list(reversed(path)) == list(expected)[::-1]
    assert path.index(2) == 3 and 8 in path and 7 not in path
    assert path == expected and expected == path and hash(path) == hash(expected)
    assert path != list(expected) and path != expected[:-1] and path != (0, 9, 8, 2, 7)
    assert RealizedPath(10, 4, PathClass(-2, 2, Family.P2, None)) == path
    assert RealizedPath(10, 3, PathClass(-2, 2)) != path != RealizedPath(10, 4, PathClass(-2, -2))
    # without chords s plays no part, and sequences equal as tuples are equal
    assert RealizedPath(10, 4, PathClass(2, 0)) == RealizedPath(10, 3, PathClass(2, 0))
    clone = pickle.loads(pickle.dumps(path))
    assert type(clone) is RealizedPath and clone == path and (clone.n, clone.s) == (10, 4)
    assert len(repr(RealizedPath(10**18, 10**9 - 3, PathClass(-(10**9), 10**9)))) < 120
    empty = RealizedPath(10, 4, PathClass(0, 0))
    assert len(empty) == 1 and empty == (0,) and empty[-1] == 0 and empty[1:] == ()


def test_lazy_path_checks_the_endpoint():
    pc = _by_family(canonical_classes(P10, 6), Family.P1)[0]
    assert lazy_path(P10, pc, 6) == (0, 1, 2, 6)
    with pytest.raises(InconsistentClassError, match="ends at 6, not 7"):
        lazy_path(P10, pc, 7)


def test_reduce_cancelling_walk():
    pc = reduce_walk(P10, WalkSpec(1, 1, 2, 3))
    assert (pc.x, pc.y) == (0, -1)
    assert pc.family is None and pc.t is None


def test_reduce_canonical_walk_is_identity():
    pc = reduce_walk(P10, WalkSpec(3, 0, 2, 0))
    assert (pc.x, pc.y) == (3, 2)
    assert pc.length == 5


def test_reduce_fully_cancelling_walk():
    pc = reduce_walk(P10, WalkSpec(2, 2, 3, 3))
    assert pc.length == 0
    assert (pc.x, pc.y) == (0, 0)


def test_translate_examples():
    assert translate_endpoints(P10, 6, 9) == 3
    assert translate_endpoints(P10, 6, 6) == 0
    assert translate_endpoints(P10, 6, 2) == 6


def test_distinct_t_entries_are_inequivalent_within_family():
    p = CirculantParams(31, 7)
    entries = canonical_classes(p, 5)
    for family in (Family.P1T, Family.P2T, Family.P3T, Family.P4T):
        shapes = [(pc.x, pc.y) for pc, _ in entries if pc.family is family]
        assert len(shapes) == t_range(p)
        assert len(set(shapes)) == len(shapes)


def test_render_format():
    pc = _by_family(canonical_classes(P10, 6), Family.P1)[0]
    seq, _ = realize_path(P10, pc, 6)
    assert render_path(seq, pc) == "0 ->a+ 1 ->a+ 2 ->c+ 6"
    assert render_path([0], PathClass(0, 0)) == "0"
