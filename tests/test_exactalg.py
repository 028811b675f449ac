from fractions import Fraction

import numpy as np
import pytest

from asaikit.exactalg import (
    Mat,
    PolyX,
    echelon_mod,
    exterior_square,
    factor_prime_power,
    kernel_gens,
    kernel_mod,
    solve_mod,
    split_prime_power,
    validate_modulus,
    wedge_square,
)
from asaikit.grouprep import kron_stack
from asaikit.lfunc import is_prime


def rand_mat(rng, r, c, mod):
    return Mat(rng.integers(0, mod, size=(r, c)), mod)


def kron_oracle(a, b, mod):
    """Independent Kronecker product of two arrays by direct index expansion."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.int64)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = (int(a[i, j]) * int(b[k, l])) % mod
    return out


def kron(a, b, mod):
    """kron_stack on a single pair of matrices."""
    return kron_stack(a[None], b[None], mod)[0]


def det_oracle(m, mod) -> int:
    """Determinant by Leibniz expansion (permutations), exact mod m."""
    from itertools import permutations

    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # cycle-count parity
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= int(m[i][perm[i]])
        total += term
    return total % mod


def test_modulus_validation():
    assert validate_modulus(7) == (7, 1)
    assert validate_modulus(121) == (11, 2)
    assert validate_modulus(27) == (3, 3)
    for bad in (2, 4, 8, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            validate_modulus(bad)


def test_modulus_rejects_int64_overflow_before_factoring():
    # (10^9 + 7)^2 is an odd prime power, but a product of two residues
    # leaves int64; it is refused before any trial division
    with pytest.raises(ValueError, match="int64"):
        validate_modulus((10**9 + 7) ** 2)
    assert validate_modulus(101**3) == (101, 3)


def test_mat_rejects_int64_overflowing_products():
    p = 3037000493  # prime, (p-1)^2 < 2^63 <= 2 (p-1)^2
    assert validate_modulus(p) == (p, 1)
    one = Mat([[p - 1]], p)
    assert (one.a @ one.a % p)[0, 0] == 1  # a 1x1 product still fits
    with pytest.raises(ValueError, match="int64"):
        Mat([[p - 1] * 2] * 2, p)


def test_tensor_identity_and_diagonal():
    i2 = np.eye(2, dtype=np.int64)
    assert np.array_equal(kron(i2, i2, 7), np.eye(4, dtype=np.int64))
    a = np.diag([2, 3])
    b = np.diag([4, 5])
    t = kron(a, b, 7)
    assert [int(t[i, i]) for i in range(4)] == [(2 * 4) % 7, (2 * 5) % 7, (3 * 4) % 7, (3 * 5) % 7]


def test_tensor_mixed_product_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c, d = (rand_mat(rng, 2, 2, 11).a for _ in range(4))
        lhs = kron(a, b, 11) @ kron(c, d, 11) % 11
        rhs = kron(a @ c % 11, b @ d % 11, 11)
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(kron(a, b, 11), kron_oracle(a, b, 11))


def test_exterior_square_basics():
    assert np.array_equal(exterior_square(np.eye(2, dtype=np.int64)[None], 7), [[[1]]])
    assert np.array_equal(exterior_square([[[2, 0], [0, 3]]], 7), [[[6]]])
    with pytest.raises(ValueError):
        exterior_square(np.eye(1, dtype=np.int64)[None], 7)
    with pytest.raises(ValueError):
        exterior_square(np.zeros((1, 2, 3), dtype=np.int64), 7)


def test_exterior_square_det_and_functoriality():
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        m = rand_mat(rng, 4, 4, 11)
        if not m.is_invertible():
            continue
        (w,) = exterior_square(m.a[None], 11)
        # det(Lambda^2 M) = det(M)^3 for 4x4, via the independent Leibniz det
        assert det_oracle(w, 11) == pow(det_oracle(m.a, 11), 3, 11)
        n = rand_mat(rng, 4, 4, 11).a
        wm, wn, wmn = exterior_square(np.stack([m.a, n, m.a @ n % 11]), 11)
        assert np.array_equal(wmn, wm @ wn % 11)
        done += 1


@pytest.mark.parametrize("mod", [7, 121, 13**3, 3037000493])
def test_exterior_square_stack_matches_wedge_square(mod):
    rng = np.random.default_rng(mod % 1000)
    for d in range(2, 6):
        stack = rng.integers(0, mod, size=(5, d, d))
        want = [[[x % mod for x in row] for row in wedge_square(m.tolist())] for m in stack]
        got = exterior_square(stack, mod)
        assert got.shape == (5, d * (d - 1) // 2, d * (d - 1) // 2)
        assert got.tolist() == want
        # negative representatives reduce to the same stack
        assert np.array_equal(exterior_square(stack - mod, mod), got)
        if d <= 4:  # det(Lambda^2 M) = det(M)^(d-1), by the Leibniz det
            for m, w in zip(stack, got):
                assert det_oracle(w, mod) == pow(det_oracle(m, mod), d - 1, mod)


def test_solve_smallest_chain_ring():
    # 2x = 2 mod 4: particular x = 1, kernel generated by 2
    sol = solve_mod(np.array([[2]]), np.array([2]), 4)
    assert sol is not None
    assert int(sol[0]) % 2 == 1 % 2  # any odd particular works; check exactly
    assert (2 * int(sol[0])) % 4 == 2
    gens = [int(v[0]) for v, _ in kernel_gens(np.array([[2]]), 4)]
    assert gens == [2]


def test_solve_invertible_field():
    rng = np.random.default_rng(3)
    while True:
        a = rand_mat(rng, 3, 3, 7)
        if a.is_invertible():
            break
    b = rng.integers(0, 7, size=3)
    sol = solve_mod(a.a, b, a.mod)
    assert sol is not None
    assert not kernel_gens(a.a, a.mod)
    assert np.array_equal(np.mod(a.a @ sol, 7), np.mod(b, 7))


def test_solve_random_chain_ring_substitution():
    rng = np.random.default_rng(5)
    mod = 121
    for _ in range(25):
        a = rng.integers(0, mod, size=(6, 4))
        x0 = rng.integers(0, mod, size=4)
        b = np.mod(a @ x0, mod)
        sol = solve_mod(a, b, mod)
        assert sol is not None
        assert np.array_equal(np.mod(a @ sol, mod), b)
        for v, ann in kernel_gens(a, mod):
            assert not np.any(np.mod(a @ v, mod))
            assert np.any(v)  # generators are nonzero
            assert not np.any(np.mod(v * ann, mod))


def test_solve_reports_inconsistent():
    sol = solve_mod(np.array([[11]]), np.array([1]), 121)
    assert sol is None


def test_solve_depth_three_chain_ring():
    rng = np.random.default_rng(17)
    mod = 27
    for _ in range(20):
        a = rng.integers(0, mod, size=(4, 5))
        x0 = rng.integers(0, mod, size=5)
        b = np.mod(a @ x0, mod)
        sol = solve_mod(a, b, mod)
        kernel = kernel_gens(a, mod)
        assert np.array_equal(np.mod(a @ sol, mod), b)
        for v, ann in kernel:
            assert not np.any(np.mod(a @ v, mod))
            assert ann in (3, 9, 27)
    # full kernel sanity: x0 - particular must lie in the generated kernel
    diffs = np.mod(x0 - sol, mod)
    gens = np.array([v for v, _ in kernel])
    span = solve_mod(gens.T, diffs, mod)
    assert span is not None


def test_echelon_form_generates_the_row_module():
    rng = np.random.default_rng(9)
    deep = np.random.default_rng(10)
    for mod in (7, 121, 27):
        q, _ = validate_modulus(mod)
        cases = [rng.integers(0, mod, size=(5, 3))] + [
            deep.integers(0, mod, size=(5, 3)) * q ** deep.integers(0, 3, size=(5, 3)) % mod
            for _ in range(8)
        ]
        for a in cases:
            e, pivots, _ = echelon_mod(a, mod)
            # each row module lies in the other: e = P a and a = Q e
            assert solve_mod(a.T, e.T, mod) is not None
            assert solve_mod(e.T, a.T, mod) is not None
            vals = [v for _, v in pivots]
            assert vals == sorted(vals)
            for i, (j, v) in enumerate(pivots):
                assert e[i, j] == q**v
                assert not np.any(e[i] % q**v)
                assert not np.any(e[i + 1:, j])
            assert not np.any(e[len(pivots):])


def test_inverse_roundtrip():
    rng = np.random.default_rng(13)
    for mod in (7, 121):
        while True:
            a = rand_mat(rng, 3, 3, mod)
            if a.is_invertible():
                break
        inv = a.inverse()
        eye = np.eye(3, dtype=np.int64)
        assert np.array_equal(a.a @ inv.a % mod, eye)
        assert np.array_equal(inv.a @ a.a % mod, eye)


def test_kernel_mod_field():
    a = np.array([[1, 2, 3], [2, 4, 6]])
    k = kernel_mod(a, 7)
    assert k.shape[0] == 2
    for v in k:
        assert not np.any(np.mod(a @ v, 7))


def test_polyx():
    p = PolyX([1, -1]) * PolyX([1, 1])
    assert p == PolyX([1, 0, -1, 0, 0]) and p.coeffs == (1, 0, -1)
    assert hash(p) == hash(PolyX([1, 0, -1]))
    assert p.degree() == 2 and PolyX([0, 0]).degree() == -1
    assert repr(p) == "1 + -1*X^2"
    assert repr(PolyX([0, 1, 3])) == "X + 3*X^2" and repr(PolyX([])) == "0"
    assert PolyX(np.array([2, 0, 0])).coeffs == (2,)


@pytest.mark.parametrize("coeffs", [[1, Fraction(1, 2)], [2.7], [Fraction(4, 2)]])
def test_polyx_refuses_a_non_integer_coefficient(coeffs):
    with pytest.raises(TypeError):
        PolyX(coeffs)


def factorization_oracle(n):
    """{p: k} for n > 1, dividing out every d = 2, 3, ... in turn, with no
    square-root bound."""
    out, d = {}, 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def test_trial_division_matches_brute_force_factorization():
    for n in range(2, 3001):
        f = factorization_oracle(n)
        p = min(f)
        assert split_prime_power(n) == (p, f[p], n // p ** f[p])
        if len(f) == 1:
            assert factor_prime_power(n) == (p, f[p])
        else:
            with pytest.raises(ValueError, match=f"modulus {n} is not a prime power"):
                factor_prime_power(n)
        assert is_prime(n) == (f == {n: 1})
    for n in (-7, -1, 0, 1):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(n)
        assert not is_prime(n)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert ([n for n in range(-5, 3001) if is_prime(n)]
            == [n for n in range(-5, 3001) if sympy.isprime(n)])
