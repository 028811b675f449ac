"""Independent oracles for the exact linear-algebra layer: sympy for the
determinant, the characteristic polynomial, rational elimination and
elimination over F_p, and brute-force enumeration for kernels over the chain
rings Z/q^n."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaikit.exactalg import charpoly, det, extend_basis, kernel_gens, rref_mod, rref_rational


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


def _prime_field_matrices(sympy, p):
    """Seeded matrices mod p: dense ones of every shape up to 8 x 8, products
    through a narrower middle dimension (rank-deficient), and stacked sparse
    intertwiner systems kron(I, A^T) - kron(B, I) with B conjugate to A, so
    that the kernel is nonzero."""
    rng = np.random.default_rng(p)
    out = []
    for r in range(1, 9):
        for c in range(1, 9):
            out.append(rng.integers(0, p, size=(r, c)))
            k = int(rng.integers(0, min(r, c)))
            out.append(rng.integers(0, p, size=(r, k)) @ rng.integers(0, p, size=(k, c)) % p)
    for d in (2, 3, 4):
        while True:
            conj = rng.integers(0, p, size=(d, d))
            if det(conj.tolist()) % p:
                break
        inv = np.array(sympy.Matrix(conj.tolist()).inv_mod(p).tolist(), dtype=np.int64)
        eye = np.eye(d, dtype=np.int64)
        blocks = []
        for _ in range(3):
            a = rng.integers(0, p, size=(d, d)) * (rng.random((d, d)) < 0.4)
            b = conj @ a @ inv % p
            blocks.append((np.kron(eye, a.T) - np.kron(b, eye)) % p)
        out.append(np.vstack(blocks))
    return out


@pytest.mark.parametrize("p", [7, 11, 53])
def test_prime_field_elimination_matches_sympy(sympy, p):
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(p)
    deficient = 0
    for m in _prime_field_matrices(sympy, p):
        reduced, pivots = rref_mod(m, p)
        dm = DomainMatrix([[field(int(x)) for x in row] for row in m], m.shape, field)
        want, want_pivots = dm.rref()
        assert pivots == list(want_pivots)
        assert reduced.tolist() == [[int(x) % p for x in row] for row in want.to_list()]
        deficient += len(pivots) < min(m.shape)
    assert deficient >= 30


def test_extend_basis_is_the_greedy_extension(sympy):
    from sympy.polys.matrices import DomainMatrix

    p = 7
    field = sympy.GF(p)

    def rank(rows):
        if not len(rows):
            return 0
        return DomainMatrix([[field(int(x)) for x in r] for r in rows], rows.shape, field).rank()

    rng = np.random.default_rng(21)
    for _ in range(40):
        base = rng.integers(0, p, size=(4, 6))
        inner = rng.integers(0, 3, size=(int(rng.integers(0, 4)), 4)) @ base % p
        vectors = rng.integers(0, 3, size=(6, 4)) @ base % p
        chosen, span = [], inner
        for i, v in enumerate(vectors):
            grown = np.vstack([span, v])
            if rank(grown) > rank(span):
                chosen.append(i)
                span = grown
        assert extend_basis(inner, vectors, p) == chosen


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
    gens = kernel_gens(a, mod)
    # the cyclic spans of the generators form a direct sum
    assert np.prod([ann for _, ann in gens], dtype=object) == kernel_size
    span = np.zeros((1, c), dtype=np.int64)
    for v, ann in gens:
        assert not np.any(a @ v % mod)
        order = next(t for t in range(1, mod + 1) if not np.any(t * v % mod))
        assert ann == order
        steps = np.arange(ann)[:, None] * v[None, :]
        span = (span[:, None, :] + steps[None, :, :]).reshape(-1, c) % mod
        _, keep = np.unique(_encode(span, mod), return_index=True)
        span = span[keep]
    assert len(span) == kernel_size
