"""Independent oracles for the exact linear-algebra layer: sympy for the
determinant, the characteristic polynomial and rational elimination, and
brute-force enumeration for kernels over the chain rings Z/q^n."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaikit.exactalg import charpoly, det, kernel_gens, rref_rational


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _matrices(kind, width=None):
    """Seeded random n x n (or n x width(n)) matrices, n = 1..8; every third
    one is a product through a narrower middle dimension, so not of full rank."""
    rng = random.Random(f"{kind}-{width is not None}")
    out = []
    for n in range(1, 9):
        cols = n if width is None else width(n)
        for trial in range(6):
            if trial % 3 == 2:
                k = rng.randint(0, min(n, cols) - 1)
                a = [[_entry(rng, kind) for _ in range(k)] for _ in range(n)]
                b = [[_entry(rng, kind) for _ in range(cols)] for _ in range(k)]
                m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
                     for i in range(n)]
            else:
                m = [[_entry(rng, kind) for _ in range(cols)] for _ in range(n)]
            out.append(m)
    return out


def _to_sympy(sympy, m):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in r] for r in m])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_det_matches_sympy(sympy, kind):
    singular = 0
    for m in _matrices(kind):
        got = det(m)
        if kind == "int":
            assert isinstance(got, int)
        assert Fraction(got) == _fraction(_to_sympy(sympy, m).det())
        singular += got == 0
    assert singular >= 16


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_charpoly_matches_sympy(sympy, kind):
    x = sympy.Symbol("x")
    for m in _matrices(kind):
        want = [_fraction(c) for c in _to_sympy(sympy, m).charpoly(x).all_coeffs()]
        assert [Fraction(c) for c in charpoly(m)] == want


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_rational_elimination_matches_sympy(sympy, kind):
    for m in _matrices(kind) + _matrices(kind, width=lambda n: 9 - n):
        reduced, pivots = rref_rational(m)
        want, want_pivots = _to_sympy(sympy, m).rref()
        assert pivots == list(want_pivots)
        assert len(pivots) == _to_sympy(sympy, m).rank()
        assert reduced == [[_fraction(want[i, j]) for j in range(want.cols)]
                           for i in range(want.rows)]


@st.composite
def chain_ring_systems(draw):
    mod = draw(st.sampled_from([9, 25, 27]))
    r = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, mod - 1), min_size=r * c, max_size=r * c))
    return np.array(entries, dtype=np.int64).reshape(r, c), mod


def _encode(vecs, mod):
    return (vecs * mod ** np.arange(vecs.shape[1])).sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(chain_ring_systems())
def test_kernel_gens_span_the_brute_force_kernel(system):
    a, mod = system
    c = a.shape[1]
    every = np.array(list(itertools.product(range(mod), repeat=c)), dtype=np.int64)
    kernel_size = int(np.count_nonzero(~np.any(every @ a.T % mod, axis=1)))
    span = np.zeros((1, c), dtype=np.int64)
    for v, ann in kernel_gens(a, mod):
        assert not np.any(a @ v % mod)
        order = next(t for t in range(1, mod + 1) if not np.any(t * v % mod))
        assert ann == order
        steps = np.arange(ann)[:, None] * v[None, :]
        span = (span[:, None, :] + steps[None, :, :]).reshape(-1, c) % mod
        _, keep = np.unique(_encode(span, mod), return_index=True)
        span = span[keep]
    assert len(span) == kernel_size
