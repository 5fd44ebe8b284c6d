"""Shared hypothesis strategies for valid graph parameters, and seeded cells."""
import math
import random

from hypothesis import strategies as st

from circulant import CirculantParams


@st.composite
def valid_params(draw, max_n=2000):
    n = draw(st.integers(min_value=5, max_value=max_n))
    s = draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    return CirculantParams(n, s)


@st.composite
def params_and_vertex(draw, max_n=2000):
    p = draw(valid_params(max_n=max_n))
    i = draw(st.integers(min_value=0, max_value=p.n - 1))
    return p, i


# n on both sides of 2**20, where the lattice kernel switches from int32 to
# int64: the two neighbours of the switch and seeded n within 3000 of it
DTYPE_BOUNDARY_NS = [
    2**20 - 1,
    2**20,
    *random.Random(20).sample(range(2**20 - 3000, 2**20 + 3001), 4),
]


def dtype_boundary_chords(n):
    """Chords of C_n near (n - 1)/2 and near sqrt(n), and two seeded ones."""
    half, root = (n - 1) // 2, math.isqrt(n)
    seeded = random.Random(n).sample(range(2, half), 2)
    return sorted({half, half - 1, root - 1, root, root + 1, *seeded})


def multiplier_image(p):
    """C_n(1, s') with s' = +-s^-1 mod n in [2, (n-1)/2], for gcd(n, s) = 1.

    i -> s'*i maps C_n(1, s) onto it: the ring steps go to chords and the
    chords to ring steps, so d_s(0, i) = d_s'(0, s'*i mod n).
    """
    u = pow(p.s, -1, p.n)
    return CirculantParams(p.n, min(u, p.n - u))
