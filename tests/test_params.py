"""Parameter validation, integer decomposition and the reduced basis."""
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given

from circulant import (
    CirculantParams,
    OutOfRangeError,
    WalkSpec,
    bounds_report,
    build_adjacency,
    diameter_exact,
    diameter_formula,
    distance_from_zero,
)
from circulant.params import DecompositionContext, decompose

from _strategies import valid_params


def test_accepts_figure_graph():
    p = CirculantParams(10, 4)
    assert (p.n, p.s) == (10, 4)


def test_rejects_s_above_half():
    with pytest.raises(OutOfRangeError):
        CirculantParams(10, 5)  # floor(9/2) = 4


def test_rejects_small_n():
    with pytest.raises(OutOfRangeError):
        CirculantParams(4, 2)


def test_rejects_s_below_two():
    with pytest.raises(OutOfRangeError):
        CirculantParams(12, 1)


def test_boundary_s_is_accepted():
    CirculantParams(11, 5)
    CirculantParams(12, 5)
    with pytest.raises(OutOfRangeError):
        CirculantParams(11, 6)


@pytest.mark.parametrize("n, s", [(10.9, 4), (10.5, 4), ("10", 4), (10, 4.0), (10, None)])
def test_rejects_non_integral_values(n, s):
    # CirculantParams(10.9, 4) must not truncate to n = 10, and (10.5, 4) must
    # not be accepted only to fail later inside distance
    with pytest.raises(TypeError, match="need an integer"):
        CirculantParams(n, s)


def test_accepts_numpy_integers_as_python_ints():
    for p in (CirculantParams(np.int64(10), np.int32(4)), CirculantParams(np.int64(10), np.int64(4))):
        assert p == CirculantParams(10, 4)
        assert type(p.n) is int and type(p.s) is int


def test_decompose_gamma_zero():
    assert decompose(CirculantParams(12, 3)) == (4, 0, None, None)


def test_decompose_full_example():
    # 14 = 2*5 + 4 and 5 = 1*4 + 1
    assert decompose(CirculantParams(14, 5)) == DecompositionContext(lam=2, gamma=4, a=1, b=1)


def test_decompose_b_zero_drops_midpoints():
    # 10 = 2*4 + 2 and 4 = 2*2 + 0; the lam <= gamma midpoints are not fields
    assert decompose(CirculantParams(10, 4)) == (2, 2, 2, 0)
    assert DecompositionContext._fields == ("lam", "gamma", "a", "b")


@given(valid_params())
def test_decompose_reconstructs_n_and_s(p):
    ctx = decompose(p)
    assert p.n == ctx.lam * p.s + ctx.gamma
    assert 0 <= ctx.gamma < p.s
    if ctx.gamma:
        assert p.s == ctx.a * ctx.gamma + ctx.b
        assert 0 <= ctx.b < ctx.gamma


@given(valid_params())
def test_decompose_is_deterministic(p):
    assert decompose(p) == decompose(p)


@pytest.mark.parametrize(
    "make, field",
    [
        (decompose, "lam"),
        (bounds_report, "combined"),
        (build_adjacency, "offsets"),
        (diameter_formula, "value"),
        (lambda p: distance_from_zero(p, 6).argmin_class, "x"),
        (lambda p: WalkSpec(1, 0, 2, 0), "plus_outer"),
        (lambda p: distance_from_zero(p, 6), "value"),
        (diameter_exact, "witnesses"),
    ],
    ids=[
        "DecompositionContext",
        "BoundsReport",
        "ExplicitGraph",
        "FormulaResult",
        "PathClass",
        "WalkSpec",
        "DistanceResult",
        "DiameterResult",
    ],
)
def test_per_cell_records_are_immutable(make, field):
    record = make(CirculantParams(13, 5))
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def _check_reduced_basis(p):
    ux, uy, wx, wy = p.basis
    uu, ww, uw = ux * ux + uy * uy, wx * wx + wy * wy, ux * wx + uy * wy
    assert (ux + p.s * uy) % p.n == 0 and (wx + p.s * wy) % p.n == 0, p
    assert ux * wy - uy * wx == p.n, p
    assert uu <= ww and 2 * abs(uw) <= uu, p
    assert (ux if abs(ux) >= abs(uy) else uy) > 0, p


def test_basis_is_reduced_on_the_audit_grid():
    for n in range(5, 401):
        for s in range(2, (n - 1) // 2 + 1):
            _check_reduced_basis(CirculantParams(n, s))


def test_basis_is_reduced_at_huge_n():
    rng = random.Random(40)
    for _ in range(300):
        n = rng.randrange(2**40, 2**62 + 1)
        _check_reduced_basis(CirculantParams(n, rng.randint(2, (n - 1) // 2)))


def test_cached_basis_keeps_params_frozen_equal_and_picklable():
    for name in ("basis", "wrap_limit"):
        p = CirculantParams(1000, 37)
        value = getattr(p, name)
        assert getattr(p, name) is value, name
        assert p == CirculantParams(1000, 37) and hash(p) == hash(CirculantParams(1000, 37))
        again = pickle.loads(pickle.dumps(p))
        assert again == p and getattr(again, name) == value, name
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n = 1001
