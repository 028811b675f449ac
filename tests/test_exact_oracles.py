"""Independent oracles for the exact linear-algebra layer: sympy for the
determinant, the characteristic polynomial and elimination over F_p, brute-force enumeration for kernels over the chain
rings Z/q^n, the per-matrix Berkowitz `charpoly` for the batched
`charpoly_stack` and its certified lift to Z, `charpoly_int_stack`, and a
fresh `solve_mod`, or Gauss-Jordan on Python ints at 2^31 - 1, for the
replayed elimination of `solver_mod`."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from asaikit import exactalg
from asaikit.exactalg import (
    Mat,
    PolyX,
    _CRT_PRIMES,
    charpoly,
    charpoly_int_stack,
    charpoly_stack,
    check_int64_products,
    det,
    extend_basis,
    kernel_gens,
    polymul_stack,
    rref_mod,
    solve_mod,
    solver_mod,
    wedge_square,
)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _matrices(kind):
    """Seeded random n x n matrices, n = 1..8; every third one is a product
    through a narrower middle dimension, so not of full rank."""
    rng = random.Random(f"{kind}-False")
    out = []
    for n in range(1, 9):
        for trial in range(6):
            if trial % 3 == 2:
                k = rng.randint(0, n - 1)
                a = [[_entry(rng, kind) for _ in range(k)] for _ in range(n)]
                b = [[_entry(rng, kind) for _ in range(n)] for _ in range(k)]
                m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                     for i in range(n)]
            else:
                m = [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]
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


def _structured_matrices(kind):
    """Seeded sparse matrices of every size n = 0..8: zero, identity,
    block-diagonal, signed-permutation, strictly triangular (nilpotent),
    Kronecker products kron(a, I) and wedge squares (of singular matrices
    too).  Their characteristic polynomials have many zero coefficients, and
    their Krylov vectors A^k c vanish early."""
    rng = random.Random(f"{kind}-structured")
    unit = 1 if kind == "int" else Fraction(1)

    def dense(n):
        return [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]

    out = []
    for n in range(9):
        out += [[[0 * unit] * n for _ in range(n)],
                [[unit * (i == j) for j in range(n)] for i in range(n)]]
        for _ in range(2):
            k = rng.randint(0, n)
            a, b = dense(k), dense(n - k)
            out.append([r + [0] * (n - k) for r in a] + [[0] * k + r for r in b])
            perm = rng.sample(range(n), n)
            out.append([[rng.choice((-unit, unit)) if j == perm[i] else 0 for j in range(n)]
                        for i in range(n)])
            tri = [[_entry(rng, kind) if j > i else 0 for j in range(n)] for i in range(n)]
            out += [tri, [list(r) for r in zip(*tri)]]
    for d, k in ((1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)):
        a = dense(d)
        out.append([[a[i][j] * (s == t) for j in range(d) for t in range(k)]
                    for i in range(d) for s in range(k)])
    for d in (2, 3, 4):
        out += [wedge_square(dense(d)), wedge_square(dense(d)[:-1] + [[0] * d])]
    return out


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_charpoly_matches_sympy_on_structured_matrices(sympy, kind):
    x = sympy.Symbol("x")
    sizes = set()
    for m in _structured_matrices(kind):
        want = [_fraction(c) for c in _to_sympy(sympy, m).charpoly(x).all_coeffs()]
        got = charpoly(m)
        assert [Fraction(c) for c in got] == want
        if kind == "int":
            assert all(type(c) is int for c in got)
        sizes.add(len(m))
    assert sizes == set(range(9))


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


# ---------------------------------------------------------------------------
# one elimination replayed against a fresh solve
# ---------------------------------------------------------------------------


@st.composite
def replayed_systems(draw):
    """(a, rhs list, mod): an r x c system over Z/7, Z/9, Z/25, Z/27 or
    Z/49, r and c from 0 to 4, rank-deficient when drawn as a product
    through a narrower middle dimension, with vector and matrix right-hand
    sides in its image or drawn at random (often inconsistent, and not
    reduced)."""
    mod = draw(st.sampled_from([7, 9, 25, 27, 49]))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def block(rows, cols, lo=0, hi=mod - 1):
        entries = draw(st.lists(st.integers(lo, hi), min_size=rows * cols,
                                max_size=rows * cols))
        return np.array(entries, dtype=np.int64).reshape(rows, cols)

    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        a = block(r, k) @ block(k, c) % mod
    else:
        a = block(r, c)
    rhss = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.sampled_from([None, 0, 1, 2]))  # None: a vector
        w = 1 if width is None else width
        b = a @ block(c, w) % mod if draw(st.booleans()) else block(r, w, -mod, 2 * mod)
        rhss.append(b.reshape(-1) if width is None else b)
    return a, rhss, mod


def _same_answer(got, want):
    if want is None:
        return got is None
    return (got is not None and got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want))


@settings(max_examples=200, deadline=None)
@given(replayed_systems())
@example((np.zeros((0, 3), dtype=np.int64),
          [np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)], 9))
@example((np.zeros((3, 0), dtype=np.int64),
          [np.zeros(3, dtype=np.int64), np.array([0, 1, 0]), np.zeros((3, 2), dtype=np.int64)], 25))
@example((np.array([[3]]), [np.array([1]), np.array([6]), np.array([[6, 4]])], 9))
@example((np.array([[3, 6], [1, 2]]), [np.array([[3], [1]]), np.array([[1], [3]])], 27))
@example((np.array([[7, 14], [0, 49], [7, 0]]), [np.array([14, 0, 7]), np.array([1, 0, 0])], 49))
def test_solver_mod_answers_as_solve_mod(system):
    a, rhss, mod = system
    solve = solver_mod(a, mod)
    for rhs in rhss:
        assert _same_answer(solve(rhs), solve_mod(a, rhs, mod)), (a, rhs, mod)


def test_solver_mod_examples_cover_each_kind_of_answer():
    # the inconsistent, torsion and empty systems of the examples above
    assert solver_mod(np.array([[3]]), 9)([1]) is None
    assert solver_mod(np.array([[3]]), 9)([6]).tolist() == [2]
    assert solver_mod(np.zeros((3, 0), dtype=np.int64), 25)([0, 1, 0]) is None
    assert solver_mod(np.zeros((3, 0), dtype=np.int64), 25)([0, 0, 0]).shape == (0,)
    assert solver_mod(np.zeros((0, 3), dtype=np.int64), 9)(np.zeros((0, 2))).shape == (3, 2)
    with pytest.raises(ValueError, match="wrong number of rows"):
        solver_mod(np.eye(2, dtype=np.int64), 7)([1, 2, 3])
    with pytest.raises(ValueError, match="dtype float64 is not an integer array"):
        solver_mod(np.eye(2, dtype=np.int64), 7)([1.5, 2.0])


M31 = 2**31 - 1  # a prime: (M31 - 1)^2 < 2^63, but four such products are not


def _prime_field_solution(a, b, p):
    """The x with a x = b mod the prime p for an invertible square a, by
    Gauss-Jordan on Python ints."""
    n = len(a)
    rows = [[int(x) % p for x in row] + [int(v) % p] for row, v in zip(a, b)]
    for j in range(n):
        i = next(i for i in range(j, n) if rows[i][j])
        rows[j], rows[i] = rows[i], rows[j]
        inv = pow(rows[j][j], -1, p)
        rows[j] = [x * inv % p for x in rows[j]]
        for i in range(n):
            if i != j and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[j])]
    return [row[n] for row in rows]


def test_solver_mod_is_exact_where_an_unreduced_replay_leaves_int64():
    rng = np.random.default_rng(31)
    n = 6
    a = rng.integers(0, M31, size=(n, n))
    rhs = np.column_stack([np.full(n, M31 - 1), rng.integers(0, M31, size=n),
                           rng.integers(M31 - 8, M31, size=n)])
    want = [_prime_field_solution(a, col, M31) for col in rhs.T]
    # the replay's matrix is a^-1 here: its unreduced row sums against rhs
    # pass 2^63, so only a replay that reduces each product stays exact
    inv = [_prime_field_solution(a, col, M31) for col in np.eye(n, dtype=np.int64)]
    assert max(sum(inv[j][i] * int(col[j]) for j in range(n))
               for i in range(n) for col in rhs.T) >= 2**63
    solve = solver_mod(a, M31)
    got = solve(rhs)
    assert got.T.tolist() == want
    assert np.array_equal(got, solve_mod(a, rhs, M31))
    assert solve(rhs[:, 0]).tolist() == want[0]
    # rank 3: rows 3..5 are twice rows 0..2
    low = np.vstack([a[:3], 2 * a[:3] % M31])
    consistent = np.concatenate([rhs[:3, 1], 2 * rhs[:3, 1] % M31])
    solve = solver_mod(low, M31)
    x = solve(consistent)
    assert np.array_equal(x, solve_mod(low, consistent, M31))
    assert [sum(int(c) * int(v) for c, v in zip(row, x)) % M31 for row in low] == \
        consistent.tolist()
    assert solve(rhs[:, 1]) is None and solve_mod(low, rhs[:, 1], M31) is None


# ---------------------------------------------------------------------------
# the batched Berkowitz against the per-matrix one
# ---------------------------------------------------------------------------


def _charpoly_oracle(stack, mod):
    """charpoly of each matrix over Z, reduced mod m: the per-element loop."""
    return [[c % mod for c in charpoly(m.tolist())] for m in stack]


def _invertible(rng, n, mod):
    """A random invertible matrix mod m (unit lower times unit upper) and
    its inverse."""
    eye = np.eye(n, dtype=np.int64)
    lower = np.tril(rng.integers(0, mod, size=(n, n)), -1) + eye
    upper = np.triu(rng.integers(0, mod, size=(n, n)), 1) + eye
    g = Mat(lower @ upper, mod)
    return g.a, g.inverse().a


def _seeded_stack(rng, n, mod):
    """Dense random matrices plus zero, scalar and nilpotent ones (the
    nilpotents conjugated away from triangular form), and rank-deficient
    products through a narrower middle dimension."""
    mats = list(rng.integers(0, mod, size=(8, n, n)))
    mats.append(np.zeros((n, n), dtype=np.int64))
    for c in (1, mod - 1, int(rng.integers(2, mod))):
        mats.append(c * np.eye(n, dtype=np.int64) % mod)
    for _ in range(3):
        g, ginv = _invertible(rng, n, mod)
        nil = np.triu(rng.integers(0, mod, size=(n, n)), 1)
        mats.append(g @ nil % mod @ ginv % mod)
    if n > 1:
        k = int(rng.integers(1, n))
        mats.append(rng.integers(0, mod, size=(n, k)) @ rng.integers(0, mod, size=(k, n)) % mod)
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("mod", [7, 121, 13**3, 101**3])
def test_charpoly_stack_matches_the_per_matrix_berkowitz(mod):
    rng = np.random.default_rng(mod)
    for n in range(1, 7):
        stack = _seeded_stack(rng, n, mod)
        got = charpoly_stack(stack, mod)
        assert got.shape == (len(stack), n + 1) and got.dtype == np.int64
        assert got.tolist() == _charpoly_oracle(stack, mod)
        # zero and nilpotent matrices have det(I - aX) = 1
        one = [1] + [0] * n
        assert got[8].tolist() == one
        assert all(row == one for row in got[12:15].tolist())
        # a scalar c gives the binomial expansion of (1 - cX)^n
        c = int(stack[11, 0, 0])
        assert got[11].tolist() == [math.comb(n, k) * (-c) ** k % mod for k in range(n + 1)]


def test_charpoly_stack_edge_shapes_and_bounds():
    assert charpoly_stack(np.zeros((3, 0, 0), dtype=np.int64), 7).tolist() == [[1]] * 3
    assert charpoly_stack(np.zeros((0, 4, 4), dtype=np.int64), 7).shape == (0, 5)
    with pytest.raises(ValueError, match="square"):
        charpoly_stack(np.zeros((2, 2, 3), dtype=np.int64), 7)
    # the dot products sum n residue products: refused where that leaves int64
    big = 2**31 + 11
    with pytest.raises(ValueError, match="overflow"):
        charpoly_stack(np.zeros((1, 3, 3), dtype=np.int64), big)


@st.composite
def residue_stacks(draw):
    mod = draw(st.sampled_from([3, 7, 9, 25, 121, 343]))
    n = draw(st.integers(0, 4))
    count = draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(-2 * mod, 2 * mod),
                            min_size=count * n * n, max_size=count * n * n))
    return np.array(entries, dtype=np.int64).reshape(count, n, n), mod


@settings(max_examples=120, deadline=None)
@given(residue_stacks())
def test_charpoly_stack_property(system):
    stack, mod = system
    got = charpoly_stack(stack, mod)
    assert got.shape == (stack.shape[0], stack.shape[1] + 1)
    assert got.tolist() == _charpoly_oracle(stack, mod)


_INT64 = (-2**63, 2**63 - 1)


def _int_stacks(rng, n):
    """Seeded (N, n, n) stacks: small entries of both signs, entries at the
    ends of int64, and a product through a narrower middle dimension."""
    small = rng.integers(-40, 41, size=(5, n, n))
    ends = rng.choice(np.array([*_INT64, 2**62, -2**62 + 7, 0], dtype=np.int64), size=(3, n, n))
    k = int(rng.integers(0, n))
    low = rng.integers(-9, 10, size=(2, n, k)) @ rng.integers(-9, 10, size=(2, k, n))
    return np.concatenate([small, ends, low])


def test_charpoly_int_stack_matches_charpoly_and_sympy(sympy):
    rng = np.random.default_rng(17)
    x = sympy.Symbol("x")
    for n in range(1, 9):
        stack = _int_stacks(rng, n)
        got = charpoly_int_stack(stack)
        assert got == [charpoly(m) for m in stack.tolist()], n
        assert all(type(c) is int for row in got for c in row)
        for m, row in zip(stack.tolist()[::3], got[::3]):
            assert [int(c) for c in sympy.Matrix(m).charpoly(x).all_coeffs()] == row
    assert charpoly_int_stack(np.zeros((0, 4, 4), dtype=np.int64)) == []
    assert charpoly_int_stack(np.zeros((3, 0, 0), dtype=np.int64)) == [[1]] * 3
    assert charpoly_int_stack([[[2**63 - 1]], [[-2**63]]]) == [[1, 1 - 2**63], [1, 2**63]]


def _iroot_ceil(x, n):
    """The least c >= 1 with c^n >= x."""
    lo, hi = 1, 1
    while hi**n < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**n < x else (lo, mid)
    return lo


def test_scalar_matrices_attain_the_bound_at_every_prime_count():
    # c I has row sum c and coefficients C(n, k) (-c)^k, so for c >= n its
    # largest coefficient is the bound c^n: at the least c needing k primes
    # it is at least half the product of k - 1 of them, and a lift that
    # stopped one prime short would reduce it wrongly
    for n in (1, 2, 3, 6, 8, 12):
        product = 1
        for k, p in enumerate(_CRT_PRIMES, 1):
            c = max(_iroot_ceil((product + 1) // 2, n), n)
            product *= p
            if c >= 2**63:
                break
            want = [[math.comb(n, j) * (-s * c) ** j for j in range(n + 1)] for s in (1, -1)]
            stack = np.array([np.eye(n, dtype=np.int64) * c, -np.eye(n, dtype=np.int64) * c])
            assert charpoly_int_stack(stack) == want, (n, k, c)


def test_charpoly_int_stack_refuses_what_it_cannot_certify():
    product = math.prod(_CRT_PRIMES)
    # 2 c^12 < product for the largest c accepted, and the next is refused
    c = _iroot_ceil((product + 1) // 2, 12) - 1
    for ok, entry in ((True, c), (False, c + 1)):
        stack = np.eye(12, dtype=np.int64)[None] * entry
        if ok:
            assert charpoly_int_stack(stack)[0][12] == c**12
        else:
            with pytest.raises(ValueError, match="more than the 24 primes"):
                charpoly_int_stack(stack)
    with pytest.raises(ValueError, match="more than the 24 primes"):
        charpoly_int_stack(np.full((1, 20, 20), 2**40))
    # a dimension at which the primes' residue products leave int64
    with pytest.raises(ValueError, match="overflow int64"):
        charpoly_int_stack(np.zeros((1, 33, 33), dtype=np.int64))
    for bad in (np.full((1, 2, 2), 1.5), [[[2**70]]], [[[True, 0], [0, 1]]]):
        with pytest.raises(ValueError, match="not an integer array"):
            charpoly_int_stack(bad)
    with pytest.raises(ValueError, match="square"):
        charpoly_int_stack(np.zeros((2, 2, 3), dtype=np.int64))


def test_the_crt_primes_are_a_literal_of_checked_primes(sympy):
    # a literal tuple: no prime search runs when exactalg is imported
    tree = ast.parse(Path(exactalg.__file__).read_text())
    (node,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
               and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["_CRT_PRIMES"]]
    assert isinstance(node, ast.Tuple)
    assert tuple(e.value for e in node.elts if isinstance(e, ast.Constant)) == _CRT_PRIMES
    assert len(set(_CRT_PRIMES)) == len(_CRT_PRIMES) == 24
    for p in _CRT_PRIMES:
        assert sympy.isprime(p)
        check_int64_products(32, p)  # every dimension up to 32


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 49, 13**3]), st.integers(1, 4), st.integers(1, 4), st.data())
def test_polymul_stack_matches_polyx(mod, k, l, data):
    rows = data.draw(st.integers(0, 3))
    a = np.array(data.draw(st.lists(st.integers(0, mod - 1), min_size=rows * k,
                                    max_size=rows * k)), dtype=np.int64).reshape(rows, k)
    b = np.array(data.draw(st.lists(st.integers(0, mod - 1), min_size=rows * l,
                                    max_size=rows * l)), dtype=np.int64).reshape(rows, l)
    got = polymul_stack(a, b, mod)
    assert got.shape == (rows, k + l - 1)
    for x, y, row in zip(a, b, got):
        want = [c % mod for c in (PolyX(x) * PolyX(y)).coeffs]
        assert row.tolist() == want + [0] * (k + l - 1 - len(want))
