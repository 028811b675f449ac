import numpy as np
import pytest

from asaikit.exactalg import (
    Mat,
    PolyX,
    echelon_mod,
    exterior_square,
    kernel_mod,
    solve_mod,
    tensor_product,
    validate_modulus,
)


def rand_mat(rng, r, c, mod):
    return Mat(rng.integers(0, mod, size=(r, c)), mod)


def kron_oracle(a: Mat, b: Mat) -> Mat:
    """Independent Kronecker product by direct index expansion."""
    out = np.zeros((a.rows * b.rows, a.cols * b.cols), dtype=np.int64)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k, j * b.cols + l] = (
                        int(a.a[i, j]) * int(b.a[k, l])
                    ) % a.mod
    return Mat(out, a.mod)


def det_oracle(m: Mat) -> int:
    """Determinant by Leibniz expansion (permutations), exact mod m."""
    from itertools import permutations

    n = m.rows
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
            term *= int(m.a[i, perm[i]])
        total += term
    return total % m.mod


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
    assert (one @ one).a[0, 0] == 1  # a 1x1 product still fits
    with pytest.raises(ValueError, match="int64"):
        Mat([[p - 1] * 2] * 2, p)


def test_tensor_identity_and_diagonal():
    i2 = Mat.identity(2, 7)
    assert tensor_product(i2, i2) == Mat.identity(4, 7)
    a = Mat([[2, 0], [0, 3]], 7)
    b = Mat([[4, 0], [0, 5]], 7)
    t = tensor_product(a, b)
    assert [int(t.a[i, i]) for i in range(4)] == [(2 * 4) % 7, (2 * 5) % 7, (3 * 4) % 7, (3 * 5) % 7]


def test_tensor_mixed_product_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c, d = (rand_mat(rng, 2, 2, 11) for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert lhs == rhs
        assert tensor_product(a, b) == kron_oracle(a, b)


def test_exterior_square_basics():
    assert exterior_square(Mat.identity(2, 7)) == Mat.identity(1, 7)
    m = Mat([[2, 0], [0, 3]], 7)
    assert exterior_square(m) == Mat([[6]], 7)
    with pytest.raises(ValueError):
        exterior_square(Mat.identity(1, 7))


def test_exterior_square_det_and_functoriality():
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        m = rand_mat(rng, 4, 4, 11)
        if not m.is_invertible():
            continue
        w = exterior_square(m)
        # det(Lambda^2 M) = det(M)^3 for 4x4, via the independent Leibniz det
        assert det_oracle(w) == pow(det_oracle(m), 3, 11)
        n = rand_mat(rng, 4, 4, 11)
        assert exterior_square(m @ n) == exterior_square(m) @ exterior_square(n)
        done += 1


def test_solve_smallest_chain_ring():
    # 2x = 2 mod 4: particular x = 1, kernel generated by 2
    sol = solve_mod(np.array([[2]]), np.array([2]), 4)
    assert sol.particular is not None
    assert int(sol.particular[0]) % 2 == 1 % 2  # any odd particular works; check exactly
    assert (2 * int(sol.particular[0])) % 4 == 2
    gens = [int(v[0]) for v, _ in sol.kernel]
    assert gens == [2]


def test_solve_invertible_field():
    rng = np.random.default_rng(3)
    while True:
        a = rand_mat(rng, 3, 3, 7)
        if a.is_invertible():
            break
    b = rng.integers(0, 7, size=3)
    sol = solve_mod(a.a, b, a.mod)
    assert sol.particular is not None
    assert not sol.kernel
    assert np.array_equal(np.mod(a.a @ sol.particular, 7), np.mod(b, 7))


def test_solve_random_chain_ring_substitution():
    rng = np.random.default_rng(5)
    mod = 121
    for _ in range(25):
        a = rng.integers(0, mod, size=(6, 4))
        x0 = rng.integers(0, mod, size=4)
        b = np.mod(a @ x0, mod)
        sol = solve_mod(a, b, mod)
        assert sol.particular is not None
        assert np.array_equal(np.mod(a @ sol.particular, mod), b)
        for v, ann in sol.kernel:
            assert not np.any(np.mod(a @ v, mod))
            assert np.any(v)  # generators are nonzero
            assert not np.any(np.mod(v * ann, mod))


def test_solve_reports_inconsistent():
    sol = solve_mod(np.array([[11]]), np.array([1]), 121)
    assert sol.particular is None


def test_solve_depth_three_chain_ring():
    rng = np.random.default_rng(17)
    mod = 27
    for _ in range(20):
        a = rng.integers(0, mod, size=(4, 5))
        x0 = rng.integers(0, mod, size=5)
        b = np.mod(a @ x0, mod)
        sol = solve_mod(a, b, mod)
        assert np.array_equal(np.mod(a @ sol.particular, mod), b)
        for v, ann in sol.kernel:
            assert not np.any(np.mod(a @ v, mod))
            assert ann in (3, 9, 27)
    # full kernel sanity: x0 - particular must lie in the generated kernel
    diffs = np.mod(x0 - sol.particular, mod)
    gens = np.array([v for v, _ in sol.kernel])
    span = solve_mod(gens.T, diffs, mod)
    assert span.particular is not None


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
            assert solve_mod(a.T, e.T, mod).particular is not None
            assert solve_mod(e.T, a.T, mod).particular is not None
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
        assert a @ inv == Mat.identity(3, mod)
        assert inv @ a == Mat.identity(3, mod)


def test_kernel_mod_field():
    a = np.array([[1, 2, 3], [2, 4, 6]])
    k = kernel_mod(a, 7)
    assert k.shape[0] == 2
    for v in k:
        assert not np.any(np.mod(a @ v, 7))


def test_matrix_json_roundtrip():
    m = Mat([[1, 2], [3, 4]], 7)
    assert Mat.from_json(m.to_json()) == m
    obj = m.to_json()
    assert obj == {"modulus": 7, "rows": 2, "cols": 2, "entries": [1, 2, 3, 4]}


def test_polyx():
    x = PolyX.x()
    p = (PolyX.one() - x) * (PolyX.one() + x)
    assert p == PolyX([1, 0, -1])
    assert p.degree() == 2
    assert p(2) == -3
    q = PolyX([1, 1], 7) * PolyX([1, 6], 7)
    assert q == PolyX([1, 0, 6], 7)
