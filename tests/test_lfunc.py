import io
import json
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import asaikit.lfunc as lfunc
from asaikit import batteries, cli
from asaikit.exactalg import PolyX, charpoly, det, wedge_pairs, wedge_square
from asaikit.lfunc import (
    J4,
    _STD_GRAM,
    REP_TAGS,
    CoeffTable,
    EulerFactor,
    SatakeParam,
    _twist,
    asai_dirichlet,
    charpoly_reciprocal,
    euler_factor,
    euler_product_coefficients,
    eye,
    frobenius_matrix,
    ingest_coeffs,
    mat,
    mmul,
    random_satake,
    random_satakes,
    random_sl2,
    similitude_of,
    std_in_so5,
    std_map,
    synthetic_table,
    verify_lambda2,
    verify_std_decomposition,
)


def poly(*coeffs):
    return PolyX(list(coeffs))


def blockdiag(a, b):
    """Oracle: diag(a, b) of two 2x2 blocks, as a tuple of rows."""
    return tuple((*r, 0, 0) for r in a) + tuple((0, 0, *r) for r in b)


def trivial_split(p=5):
    return SatakeParam(p, True, eye(2), eye(2))


def trivial_inert(p=7):
    return SatakeParam(p, False, eye(2))


def test_satake_validation():
    with pytest.raises(ValueError):
        SatakeParam(5, True, eye(2))  # missing b
    with pytest.raises(ValueError):
        SatakeParam(5, False, eye(2), eye(2))  # inert uses only a
    with pytest.raises(ValueError):
        SatakeParam(5, True, mat([[1, 1], [1, 1]]), eye(2))  # singular


@pytest.mark.parametrize("a", [
    eye(3),                                  # 3x3
    ((1, 0, 0), (0, 1, 0)),                  # non-square
    ((1.5, 0), (0, 2)),                      # float, once truncated to ((1, 0), (0, 2))
    ((Fraction(1, 2), 0), (0, 2)),
    ((Fraction(2), 0), (0, 1)),
    (1, 2),
])
def test_satake_refuses_a_non_2x2_or_non_integer_matrix(a):
    with pytest.raises(ValueError, match="a must be a 2x2 matrix with integer entries"):
        SatakeParam(7, False, a)
    with pytest.raises(ValueError, match="a must be a 2x2 matrix with integer entries"):
        SatakeParam(5, True, a, eye(2))
    with pytest.raises(ValueError, match="b must be a 2x2 matrix with integer entries"):
        SatakeParam(5, True, eye(2), a)


def test_satake_normalizes_integer_entries():
    sp = SatakeParam(5, True, np.array([[2, 1], [1, 1]]), [[True, 0], [0, 1]])
    assert sp.a == ((2, 1), (1, 1)) and sp.b == ((1, 0), (0, 1))
    assert all(type(x) is int for m in (sp.a, sp.b) for r in m for x in r)


@pytest.mark.parametrize("p", [1, 0, -7, 4, 9, 25, 91, 7.0, True, "7"])
def test_satake_refuses_a_p_that_is_not_a_prime(p):
    with pytest.raises(ValueError, match="p must be a prime"):
        SatakeParam(p, False, eye(2))
    with pytest.raises(ValueError, match="p must be a prime"):
        SatakeParam(p, True, eye(2), eye(2))


def test_satake_stores_p_as_int():
    sp = SatakeParam(np.int64(97), False, eye(2))
    assert sp.p == 97 and type(sp.p) is int


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="tag"):
        frobenius_matrix(trivial_split(), "spin4")
    with pytest.raises(ValueError, match="tag"):
        euler_factor(trivial_split(), "spin4")


def test_trivial_asai_factors():
    f = euler_factor(trivial_split(), "asai+")
    assert f.poly == (poly(1, -1)) * poly(1, -1) * poly(1, -1) * poly(1, -1)
    g = euler_factor(trivial_inert(), "asai+")
    assert g.poly == poly(1, -1) * poly(1, -1) * poly(1, -1) * poly(1, 1)
    h = euler_factor(trivial_inert(), "asai-")
    assert h.poly == poly(1, 1) * poly(1, 1) * poly(1, 1) * poly(1, -1)


def test_split_ind_factor():
    f = euler_factor(trivial_split(), "ind")
    assert f.poly == poly(1, -1) * poly(1, -1) * poly(1, -1) * poly(1, -1)


def test_asai_diagonal_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alphas = [int(x) for x in rng.integers(1, 9, size=2)]
        betas = [int(x) for x in rng.integers(1, 9, size=2)]
        sp = SatakeParam(
            5, True, mat([[alphas[0], 0], [0, alphas[1]]]),
            mat([[betas[0], 0], [0, betas[1]]]),
        )
        f = euler_factor(sp, "asai+")
        expect = poly(1)
        for a in alphas:
            for b in betas:
                expect = expect * poly(1, -a * b)
        assert f.poly == expect


def test_euler_factor_multiplicative_under_block_sums():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sp = random_satake(rng, split=True)
        f_ind = euler_factor(sp, "ind").poly
        fa = charpoly_reciprocal(sp.a)
        fb = charpoly_reciprocal(sp.b)
        assert f_ind == fa * fb
        assert f_ind.degree() == 4


def test_sim_tag():
    sp = SatakeParam(5, True, mat([[2, 0], [0, 3]]), mat([[1, 1], [1, 7]]))
    assert euler_factor(sp, "sim").poly == poly(1, -6)
    bad = SatakeParam(5, True, mat([[2, 0], [0, 3]]), mat([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        euler_factor(bad, "sim")


def test_lambda2_trivial_closed_form():
    ok, rep = verify_lambda2(trivial_split(), 1)
    assert ok
    assert rep["lhs"] == list((poly(1, -1) * poly(1, -1) * euler_factor(
        trivial_split(), "asai-").poly).coeffs)


def test_lambda2_random_split_and_inert():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sp = random_satake(rng, split=True)
        ok, _ = verify_lambda2(sp, 1)
        assert ok
        sp = random_satake(rng, split=False)
        ok, rep = verify_lambda2(sp, 1)
        assert ok
        # the quadratic-character factor enters with local sign -1
        assert rep["rhs"] != list((poly(1, -1) * poly(1, -1)).coeffs)


def test_lambda2_twisted_split():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sp = random_satake(rng, split=True, twist=-1)
        ok, _ = verify_lambda2(sp, -1)
        assert ok


def test_lambda2_reports_mismatch():
    # a wrong twist just reports failure, no exception
    rng = np.random.default_rng(11)
    sp = random_satake(rng, split=True, twist=-1)
    ok, rep = verify_lambda2(sp, 1)
    assert not ok and rep["lhs"] != rep["rhs"]


def test_lambda2_refuses_a_non_unit_chi():
    sp = trivial_split()
    for chi in (0, 2, -3):
        with pytest.raises(ValueError, match="chi must be a local value"):
            verify_lambda2(sp, chi)


def test_std_identity_and_scalar():
    assert std_map(eye(4)) == eye(5)
    z = mat([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert std_map(z) == eye(5)


def test_std_rejects_non_gsp4():
    bad = mat([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 1, 1]])
    with pytest.raises(ValueError):
        std_map(bad)


# columns e02, e03, e12, e13, e01 - e23 | e01 + e23 in lex pair order
_P6 = [
    [0, 0, 0, 0, 1, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, -1, 1],
]


def _inverse(rows):
    """Gauss-Jordan inverse over Q of an invertible square matrix."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def std_map_by_change_of_basis(m):
    """Oracle: conjugate Lambda^2(m) / mu by the 6x6 change of basis
    [complement | J-line], check the line splits off with eigenvalue 1 and
    read off the 5x5 block."""
    mu = similitude_of(m)
    if not mu:
        raise ValueError("matrix does not preserve J up to similitude")
    w = [[Fraction(x, mu) for x in r] for r in wedge_square(m)]
    conj = mmul(mmul(_inverse(_P6), w), _P6)
    assert all(conj[i][5] == 0 and conj[5][i] == 0 for i in range(5))
    assert conj[5][5] == 1
    return mat([r[:5] for r in conj[:5]])


def random_transvection(rng):
    """x -> x + l (x^T J4 v) v, a symplectic matrix mixing the two blocks."""
    v = [int(x) for x in rng.integers(-1, 2, size=4)]
    jv = [sum(J4[i][k] * v[k] for k in range(4)) for i in range(4)]
    lam = int(rng.integers(-2, 3))
    return mat([[int(i == j) + lam * v[i] * jv[j] for j in range(4)] for i in range(4)])


def test_std_map_matches_change_of_basis_oracle():
    rng = np.random.default_rng(29)
    unit = [frobenius_matrix(random_satake(rng), "ind") for _ in range(200)]
    unit += [frobenius_matrix(random_satake(rng, twist=-1), "ind") for _ in range(50)]
    unit += [mmul(mmul(random_transvection(rng), m), random_transvection(rng))
             for m in unit[:100]]
    scaled = [mat([[3 * int(i == j) for j in range(4)] for i in range(4)])]
    for k in range(90):
        p = (3, 5, 7)[k % 3]
        a = mmul(random_sl2(rng), mat([[p, 0], [0, 1]]))
        b = mmul(mat([[1, 0], [0, p]]), random_sl2(rng))
        m = blockdiag(a, b)
        if k % 3 == 1:  # mix the two blocks with an inert Frobenius
            m = mmul(frobenius_matrix(random_satake(rng, split=False), "ind"), m)
        elif k % 3 == 2:
            m = mmul(random_transvection(rng), m)
        scaled.append(m)
    refused = sum(not std_map_matches_oracle(m) for m in unit + scaled)
    # integral results come back as ints, so charpolys stay over the integers
    assert all(type(x) is int for m in unit + scaled[:1] for r in std_map(m) for x in r)
    assert 0 < refused < len(scaled)


def std_map_matches_oracle(m):
    """std_map(m) equals the change-of-basis oracle where that is integral
    (True) and refuses exactly where it is not (False)."""
    want = std_map_by_change_of_basis(m)
    if all(x.denominator == 1 for r in want for x in r):
        assert std_map(m) == want
        return True
    with pytest.raises(ValueError, match="std matrix is not integral"):
        std_map(m)
    return False


def similitude_by_definition(m):
    """Oracle: mu with m^T J4 m = mu J4 from the full 4x4 product, else None."""
    w = mmul(mmul(tuple(zip(*m)), J4), m)
    mu = w[0][1]
    return mu if w == tuple(tuple(mu * x for x in r) for r in J4) else None


def test_similitude_of_matches_the_definition():
    rng = np.random.default_rng(31)
    # random integer matrices: almost never similitudes
    rand = [mat(rng.integers(-3, 4, size=(4, 4)).tolist()) for _ in range(300)]
    got = [similitude_of(m) for m in rand]
    assert got == [similitude_by_definition(m) for m in rand]
    assert got.count(None) >= 290
    # block sums diag(a, b) scale the two planes by det a and det b
    for _ in range(100):
        a, b = (mat(x) for x in rng.integers(-2, 3, size=(2, 2, 2)).tolist())
        m = blockdiag(a, b)
        want = det(a) if det(a) == det(b) else None
        assert similitude_of(m) == similitude_by_definition(m) == want
    # J-similitudes: the scaling diag(mu, 1, mu, 1) between transvections
    for k in range(120):
        mu = (-3, -1, 1, 2)[k % 4]
        m = mat([[mu * (i == j) if i % 2 == 0 else int(i == j) for j in range(4)]
                 for i in range(4)])
        for _ in range(2):
            m = mmul(mmul(random_transvection(rng), m), random_transvection(rng))
        assert similitude_of(m) == similitude_by_definition(m) == mu
        std_map_matches_oracle(m)
    # singular matrices with m^T J4 m = 0: rank one, or image in the
    # Lagrangian span of e0 and e2, mixed by transvections
    for k in range(60):
        if k % 2:
            u, v = rng.integers(-3, 4, size=(2, 4)).tolist()
            m = mat([[x * y for y in v] for x in u])
        else:
            m = mat([r if i % 2 == 0 else [0] * 4
                     for i, r in enumerate(rng.integers(-3, 4, size=(4, 4)).tolist())])
        m = mmul(mmul(random_transvection(rng), m), random_transvection(rng))
        assert similitude_of(m) == similitude_by_definition(m) == 0
        with pytest.raises(ValueError, match="similitude"):
            std_map(m)


def test_std_decomposition_split_and_inert():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ok, _ = verify_std_decomposition(random_satake(rng, split=True))
        assert ok
        ok, _ = verify_std_decomposition(random_satake(rng, split=False))
        assert ok
    # similitude -1: the asai factor is twisted by chi_K(p) / mu = -1
    for _ in range(10):
        ok, _ = verify_std_decomposition(random_satake(rng, split=True, twist=-1))
        assert ok


def test_std_decomposition_raises_at_similitude_p():
    # split parameters of similitude p: the std factor is not integral
    rng = np.random.default_rng(1)
    for k in range(60):
        p = (3, 5, 7)[k % 3]
        a = mmul(random_sl2(rng), mat([[p, 0], [0, 1]]))
        b = mmul(mat([[1, 0], [0, p]]), random_sl2(rng))
        with pytest.raises(ValueError, match="non-integral Euler factor coefficient"):
            verify_std_decomposition(SatakeParam(p, True, a, b))


def charpoly_over_q(m):
    """Oracle: det(I - m X) of a matrix of Fraction entries by `charpoly`,
    refused where a coefficient is not an integer."""
    coeffs = [Fraction(c) for c in charpoly(m)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("non-integral Euler factor coefficient")
    return PolyX([int(c) for c in coeffs])


def test_twist_matches_the_scaled_matrix():
    """det(I - (num/den) M X) from det(I - M X) equals the charpoly of the
    scaled matrix where that is integral, and raises exactly where not."""
    rng = np.random.default_rng(37)
    equal = raised = 0
    for _ in range(20):
        m = mat(rng.integers(-4, 5, size=(4, 4)).tolist())
        f = charpoly_reciprocal(m)
        for num in (-3, -1, 1, 2, 5):
            for den in (-2, -1, 1, 3):
                scaled = mat([[Fraction(num, den) * x for x in r] for r in m])
                try:
                    want = charpoly_over_q(scaled)
                except ValueError:
                    with pytest.raises(ValueError, match="non-integral"):
                        _twist(f, num, den)
                    raised += 1
                else:
                    assert _twist(f, num, den) == want
                    equal += 1
    assert (equal, raised) == (240, 160)


def _perm_sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def test_std_gram_is_the_wedge_pairing():
    """Oracle: (x, y) -> x ^ y / vol on e02, e03, e12, e13, e01 - e23 (the
    first five columns of _P6), summed over pairs of disjoint wedges."""
    basis = list(zip(*_P6))[:5]
    pairs = wedge_pairs(4)

    def pair(u, v):
        return sum(u[i] * v[j] * _perm_sign((a, b, c, d))
                   for i, (a, b) in enumerate(pairs)
                   for j, (c, d) in enumerate(pairs) if not {a, b} & {c, d})

    assert [[pair(u, v) for v in basis] for u in basis] == [list(r) for r in _STD_GRAM]


def test_std_lands_in_so5():
    rng = np.random.default_rng(15)
    for _ in range(5):
        sp = random_satake(rng, split=True)
        assert std_in_so5(frobenius_matrix(sp, "ind"))
        sp = random_satake(rng, split=False)
        assert std_in_so5(frobenius_matrix(sp, "ind"))
    # similitudes -1 and p: the check runs on the integer block mu std,
    # also where std itself is not integral
    refused = 0
    for k in range(30):
        p = (3, 5, 7)[k % 3]
        a = mmul(random_sl2(rng), mat([[p, 0], [0, 1]]))
        b = mmul(mat([[1, 0], [0, p]]), random_sl2(rng))
        scaled = mmul(random_transvection(rng), blockdiag(a, b))
        flipped = frobenius_matrix(random_satake(rng, split=True, twist=-1), "ind")
        assert similitude_of(scaled) == p and similitude_of(flipped) == -1
        assert std_in_so5(scaled) and std_in_so5(flipped)
        refused += outcome(std_map, scaled) == (ValueError, "std matrix is not integral")
    assert refused > 0


def test_asai_minus_is_plus_at_split_twisted_at_inert():
    rng = np.random.default_rng(17)
    sp = random_satake(rng, split=True)
    assert euler_factor(sp, "asai+").poly == euler_factor(sp, "asai-").poly
    sp = random_satake(rng, split=False)
    plus = euler_factor(sp, "asai+").poly
    minus = euler_factor(sp, "asai-").poly
    flipped = PolyX([c * (-1) ** i for i, c in enumerate(minus.coeffs)])
    assert plus == flipped


# ---------------------------------------------------------------------------
# the draw contract of random_sl2 / random_satake
# ---------------------------------------------------------------------------


def oracle_sl2(rng):
    """random_sl2 as a product of six elementary tuple matrices."""
    m = eye(2)
    for _ in range(6):
        r = int(rng.integers(-3, 4))
        if int(rng.integers(2)):
            e = mat([[1, r], [0, 1]])
        else:
            e = mat([[1, 0], [r, 1]])
        m = mmul(m, e)
    return m


def oracle_satake(rng, p=None, split=None, twist=1):
    """random_satake with the twist applied as a product by diag(1, -1)."""
    if p is None:
        p = int(rng.choice([3, 5, 7, 11, 13, 17, 19, 23]))
    if split is None:
        split = bool(rng.integers(2))
    if not split:
        return SatakeParam(p, False, oracle_sl2(rng))
    a = oracle_sl2(rng)
    b = oracle_sl2(rng)
    if twist == -1:
        flip = mat([[1, 0], [0, -1]])
        a = mmul(a, flip)
        b = mmul(b, flip)
    return SatakeParam(p, True, a, b)


def test_random_sl2_is_the_product_of_its_factors():
    for seed in range(50):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            m = random_sl2(new)
            assert m == oracle_sl2(old) and det(m) == 1
            assert all(type(x) is int for r in m for x in r)
        assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("split", [True, False, None])
@pytest.mark.parametrize("twist", [1, -1])
@pytest.mark.parametrize("p", [7, None])
def test_random_satake_keeps_the_draw_stream(split, twist, p):
    for seed in range(50):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert random_satake(new, p=p, split=split, twist=twist) == oracle_satake(
                old, p=p, split=split, twist=twist)
        assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("split_seed", range(3))
@pytest.mark.parametrize("twist", [1, -1])
@pytest.mark.parametrize("p", [7, None])
def test_random_satakes_is_the_sequence_of_scalar_draws(split_seed, twist, p):
    splits = np.random.default_rng([split_seed, 99]).integers(2, size=12).astype(bool).tolist()
    for seed in range(50):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_satakes(new, splits, p=p, twist=twist) == [
            oracle_satake(old, p=p, split=split, twist=twist) for split in splits]
        assert new.bit_generator.state == old.bit_generator.state
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert random_satakes(rng, [], p=p, twist=twist) == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [0, 7])
def test_euler_battery_draws_the_oracle_sequence(monkeypatch, seed):
    drawn, sizes = [], []

    def recording(*args, **kwargs):
        sizes.append(len(args[1]))
        drawn.extend(random_satakes(*args, **kwargs))
        return drawn[-sizes[-1]:]

    monkeypatch.setattr(batteries, "random_satakes", recording)
    assert all(r["passed"] for r in batteries.euler_battery(seed))
    assert sizes == [200, 100]
    rng = np.random.default_rng(seed)
    want = [oracle_satake(rng, split=i % 2 == 0) for i in range(200)]
    want += [oracle_satake(rng, split=i % 2 == 0) for i in range(100)]
    assert drawn == want


class IntegersOnly:
    """A Generator that exposes only `integers`, counting its calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


def test_each_draw_is_one_generator_call_per_matrix():
    # 12 scalar calls per SL2 matrix and a `choice` for p were the cost of
    # the Euler battery's draws; a whole list of parameters with given
    # splits is one array-bounded call now
    rng = IntegersOnly(0)
    random_sl2(rng)
    assert rng.calls == 1
    rng = IntegersOnly(0)
    random_satake(rng, split=True)
    assert rng.calls == 1  # p, a and b together
    rng = IntegersOnly(0)
    random_satake(rng, p=7, split=False)
    assert rng.calls == 1
    rng = IntegersOnly(0)
    random_satakes(rng, [i % 2 == 0 for i in range(200)])
    assert rng.calls == 1
    rng = IntegersOnly(0)
    random_satake(rng)
    assert rng.calls == 3  # p, the coin, then the matrices
    with pytest.raises(AttributeError):
        rng.choice([3, 5])


@pytest.mark.parametrize("twist", [0, 2, -2, None])
def test_random_satake_refuses_a_twist_other_than_plus_minus_one(twist):
    for split in (True, False, None):
        with pytest.raises(ValueError, match="twist must be"):
            random_satake(np.random.default_rng(0), split=split, twist=twist)


# ---------------------------------------------------------------------------
# closed-form Euler factors against the Frobenius matrices
# ---------------------------------------------------------------------------


def sweep_params():
    """Every kind of parameter the closed forms distinguish: random ones
    (split and inert, twist +-1), split ones of similitude p, inert ones with
    det a != 1 and split ones with det a != det b."""
    rng = np.random.default_rng(41)
    out = [random_satake(rng, split=i % 2 == 0, twist=(1, -1)[i % 4 // 2])
           for i in range(120)]
    for k in range(60):
        p = (3, 5, 7)[k % 3]
        out.append(SatakeParam(p, True, mmul(random_sl2(rng), mat([[p, 0], [0, 1]])),
                               mmul(mat([[1, 0], [0, p]]), random_sl2(rng))))
    for k in range(20):
        scale = mat([[(-1, 2, 3, -5)[k % 4], 0], [0, 1]])
        out.append(SatakeParam(11, False, mmul(random_sl2(rng), scale)))
    for k in range(20):
        out.append(SatakeParam(13, True, mmul(random_sl2(rng), mat([[2, 0], [0, 1]])),
                               random_sl2(rng)))
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def matrix_factor(sp, tag):
    """det(I - frobenius_matrix(sp, tag) X); std's matrix comes from the
    change-of-basis oracle over Q, since `std_map` refuses a non-integral
    matrix whose factor may still be integral."""
    if tag == "std":
        return charpoly_over_q(std_map_by_change_of_basis(frobenius_matrix(sp, "ind")))
    return charpoly_reciprocal(frobenius_matrix(sp, tag))


def test_closed_forms_match_the_frobenius_matrices():
    refusals = Counter()
    integral_factor_of_a_refused_std = 0
    for sp in sweep_params():
        for tag in REP_TAGS:
            closed = outcome(lambda: euler_factor(sp, tag).poly)
            matrix = outcome(lambda: matrix_factor(sp, tag))
            assert closed == matrix, (sp, tag)
            if isinstance(closed, tuple):
                refusals[tag, closed[1]] += 1
        std = outcome(lambda: frobenius_matrix(sp, "std"))
        if std == (ValueError, "std matrix is not integral"):
            factor = outcome(lambda: matrix_factor(sp, "std"))
            integral_factor_of_a_refused_std += isinstance(factor, PolyX)
    # std at similitude p (59 of the 60 std factors are not integral), std
    # at det a != 1 (inert) or det a != det b (split), and sim at both
    assert refusals == {
        ("std", "non-integral Euler factor coefficient"): 59,
        ("std", "matrix does not preserve J up to similitude"): 40,
        ("sim", "inert similitude needs det a = 1"): 20,
        ("sim", "split similitude needs det a = det b"): 20,
    }
    # the 60th: an integral std factor of a std matrix that is not integral
    assert integral_factor_of_a_refused_std == 1


def test_euler_factor_builds_no_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("euler_factor built a matrix")

    for name in ("charpoly", "charpoly_reciprocal", "frobenius_matrix", "std_map",
                 "wedge_square", "kron"):
        monkeypatch.setattr(lfunc, name, forbidden)
    rng = np.random.default_rng(43)
    for split in (True, False):
        sp = random_satake(rng, split=split)
        assert all(euler_factor(sp, tag).poly.coeffs[0] == 1 for tag in REP_TAGS)


def plant_wrong(monkeypatch, wrong_tag):
    """Make euler_factor's closed form for wrong_tag off by one in its top
    coefficient."""
    honest = lfunc.euler_factor

    def planted(sp, tag):
        f = honest(sp, tag)
        if tag != wrong_tag:
            return f
        coeffs = list(f.poly.coeffs)
        coeffs[-1] += 1
        return EulerFactor(PolyX(coeffs), tag)

    monkeypatch.setattr(lfunc, "euler_factor", planted)


def lfunc_cli_lambda2(tmp_path):
    report = tmp_path / "l.json"
    code = cli.main(["lfunc", "--primes", "3..50", "--verify-lambda2",
                     "--report", str(report)])
    rows = json.loads(report.read_text())["primes"]
    return code, [row["lambda2_ok"] for row in rows]


def test_a_wrong_closed_lambda2_fails_the_lfunc_check(monkeypatch, tmp_path):
    assert lfunc_cli_lambda2(tmp_path) == (0, [True] * 14)
    plant_wrong(monkeypatch, "lambda2")
    assert lfunc_cli_lambda2(tmp_path) == (1, [False] * 14)


@pytest.mark.parametrize("wrong_tag", ["asai+", "asai-"])
def test_a_wrong_closed_asai_fails_its_identity(monkeypatch, tmp_path, wrong_tag):
    plant_wrong(monkeypatch, wrong_tag)
    rng = np.random.default_rng(47)
    params = [random_satake(rng, split=split) for split in (True, False) * 5]
    lam = [verify_lambda2(sp, 1)[0] for sp in params]
    std = [verify_std_decomposition(sp)[0] for sp in params]
    code, cli_ok = lfunc_cli_lambda2(tmp_path)
    if wrong_tag == "asai-":
        assert not any(lam) and all(std) and code == 1 and not any(cli_ok)
    else:
        assert all(lam) and not any(std) and code == 0 and all(cli_ok)


# ---------------------------------------------------------------------------
# Dirichlet series
# ---------------------------------------------------------------------------


def test_asai_dirichlet_normalization():
    tbl = CoeffTable([])
    with pytest.raises(KeyError):
        asai_dirichlet(tbl, 2)
    assert asai_dirichlet(tbl, 1) == [1]


@pytest.mark.parametrize("N", [0, -1])
def test_euler_product_coefficients_refuses_N_below_1(N):
    params = {2: random_satake(np.random.default_rng(3), p=2)}
    with pytest.raises(ValueError, match=f"^N must be >= 1, got {N}$"):
        euler_product_coefficients(params, N)
    assert euler_product_coefficients(params, 1) == [1]


@pytest.mark.parametrize("N", [0, -1])
def test_synthetic_table_refuses_N_below_1(N):
    params = {2: random_satake(np.random.default_rng(3), p=2)}
    with pytest.raises(ValueError, match=f"^N must be >= 1, got {N}$"):
        synthetic_table(params, N)
    assert synthetic_table(params, 1).to_rows() == []


def test_asai_dirichlet_pure_zeta():
    rows = [(m * m, f"({m})", 0) for m in range(2, 26)]
    tbl = CoeffTable(rows)
    coeffs = asai_dirichlet(tbl, 25)
    squares = {1, 4, 9, 16, 25}
    assert coeffs == [1 if m in squares else 0 for m in range(1, 26)]


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p)) or p == 2]


def test_synthetic_table_matches_euler_product():
    rng = np.random.default_rng(19)
    params = {}
    for p in primes_upto(100):
        params[p] = random_satake(rng, p=p)
    tbl = synthetic_table(params, 100)
    lhs = asai_dirichlet(tbl, 100)
    rhs = euler_product_coefficients(params, 100)
    assert lhs == rhs


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("key, p", [(1, 3), (5, 7)])
def test_a_parameter_under_another_key_is_refused(key, p):
    rng = np.random.default_rng(5)
    params = {q: random_satake(rng, p=q) for q in primes_upto(20)}
    params[key] = random_satake(rng, p=p)
    with time_limit(5):  # a prime-power loop over key 1 would never end
        for build in (euler_product_coefficients, synthetic_table):
            with pytest.raises(ValueError, match=f"p={p} filed under key {key}"):
                build(params, 20)


def test_ingest_roundtrip_and_partial_sums():
    rng = np.random.default_rng(21)
    params = {p: random_satake(rng, p=p) for p in primes_upto(30)}
    tbl = synthetic_table(params, 30)
    text = "norm,label,coefficient\n" + "\n".join(
        f"{n},{l},{c}" for n, l, c in tbl.to_rows()
    )
    parsed = ingest_coeffs(io.StringIO(text))
    assert parsed.to_rows() == tbl.to_rows()
    sums = asai_dirichlet(parsed, 30)
    assert len(sums) == 30 and all(isinstance(x, int) for x in sums)


def test_ingest_empty_body():
    tbl = ingest_coeffs(io.StringIO("norm,label,coefficient\n"))
    assert tbl.diagonal(1) == 1
    assert not tbl.rows


def test_ingest_rejects_duplicates():
    text = "norm,label,coefficient\n4,(2),-1\n4,(2),-1\n"
    with pytest.raises(ValueError, match="duplicate"):
        ingest_coeffs(io.StringIO(text))


def test_ingest_rejects_non_integer():
    text = "norm,label,coefficient\n4,(2),1.5\n"
    with pytest.raises(ValueError, match="non-integer"):
        ingest_coeffs(io.StringIO(text))


@pytest.mark.parametrize("row", ["4,(2),²", "²,(2),1"],
                         ids=["superscript-coefficient", "superscript-norm"])
def test_ingest_names_the_row_of_a_digit_int_does_not_parse(row):
    # "²" is a digit to str.isdigit, and int() refuses it
    text = "norm,label,coefficient\n" + row + "\n"
    with pytest.raises(ValueError) as exc:
        ingest_coeffs(io.StringIO(text))
    assert str(exc.value) == f"non-integer entry in row {row.split(',')!r}"


def test_ingest_rejects_multiplicativity_violation():
    text = "norm,label,coefficient\n4,(2),1\n9,(3),1\n36,(6),5\n"
    with pytest.raises(ValueError, match="multiplicativity"):
        ingest_coeffs(io.StringIO(text))


def test_multiplicativity_violation_at_a_large_index_is_rejected():
    rng = np.random.default_rng(37)
    params = {p: random_satake(rng, p=p) for p in primes_upto(2000)}
    rows = synthetic_table(params, 2000).to_rows()
    # 1994 = 2 * 997 is the only coprime factorization of the planted index
    bad = [(n, l, c + 1 if l == "(1994)" else c) for n, l, c in rows]
    with pytest.raises(ValueError, match=r"c\(2\)c\(997\) != c\(1994\)"):
        CoeffTable(bad)


@pytest.mark.parametrize("label", ["(02)", "(²)"], ids=["leading-zero", "superscript"])
def test_a_label_that_is_not_exactly_m_is_not_a_diagonal_row(label, tmp_path):
    # c(2 O_K) lives at label "(2)" and norm 4 only; any other label at norm
    # 4 is an ordinary row, kept, and the diagonal entry stays missing
    rows = [(4, label, 1), (9, "(3)", 1), (36, "(6)", 1)]
    tbl = CoeffTable(rows)
    assert tbl.to_rows() == sorted(rows)
    assert not tbl.has_diagonal(2) and tbl.diagonal(6) == 1
    with pytest.raises(KeyError, match=r"missing diagonal coefficient c\(2 O_K\)"):
        tbl.diagonal(2)
    csv = tmp_path / "c.csv"
    csv.write_text("norm,label,coefficient\n" + "".join(f"{n},{l},{c}\n" for n, l, c in rows))
    report = tmp_path / "l.json"
    assert cli.main(["lfunc", "--coeffs", str(csv), "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {
        "command": "lfunc", "ok": False,
        "error": "missing diagonal coefficient c(2 O_K) below N=50"}


@pytest.mark.parametrize("row, error", [
    ("0,(0),5", "coefficient row (0, '(0)', 5) has norm below 1"),
    ("-4,(2),3", "coefficient row (-4, '(2)', 3) has norm below 1"),
    ("1,(1),5", "coefficient row (1, '(1)', 5) sets c(O_K) = 5, not 1"),
], ids=["norm-0", "negative-norm", "c(O_K)-not-1"])
def test_a_row_below_norm_1_or_off_c_of_O_K_is_refused(row, error, tmp_path):
    # once read as c(0 O_K) = 5, a kept row, and c(O_K) = 1 in silence
    with pytest.raises(ValueError) as exc:
        ingest_coeffs(io.StringIO("norm,label,coefficient\n" + row + "\n"))
    assert str(exc.value) == error
    csv = tmp_path / "c.csv"
    csv.write_text("norm,label,coefficient\n4,(2),1\n" + row + "\n")
    report = tmp_path / "l.json"
    assert cli.main(["lfunc", "--coeffs", str(csv), "--N", "4",
                     "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {"command": "lfunc", "ok": False,
                                              "error": error}


def test_the_unit_row_with_coefficient_1_is_accepted():
    tbl = CoeffTable([(1, "(1)", 1), (4, "(2)", 3)])
    assert tbl.diagonal(1) == 1 and tbl.to_rows() == [(1, "(1)", 1), (4, "(2)", 3)]


def test_rows_are_read_only_so_the_diagonal_cannot_drift():
    tbl = CoeffTable([(4, "(2)", 3)])
    with pytest.raises(TypeError):
        tbl.rows[(4, "(2)")] = 5
    assert tbl.diagonal(2) == 3 and tbl.to_rows() == [(4, "(2)", 3)]


def test_ingest_requires_header():
    with pytest.raises(ValueError, match="header"):
        ingest_coeffs(io.StringIO("a,b,c\n1,x,1\n"))


def test_asai_dirichlet_names_first_gap():
    rows = [(4, "(2)", -1)]
    tbl = CoeffTable(rows)
    with pytest.raises(KeyError, match=r"c\(3 O_K\)"):
        asai_dirichlet(tbl, 4)


def test_dirichlet_multiplicativity_of_output():
    # local-global consistency: the output coefficients are multiplicative
    rng = np.random.default_rng(23)
    params = {p: random_satake(rng, p=p) for p in primes_upto(60)}
    tbl = synthetic_table(params, 60)
    b = asai_dirichlet(tbl, 60)

    def coeff(m):
        return b[m - 1]

    import math

    for m in range(2, 61):
        for n in range(2, 61):
            if m * n <= 60 and math.gcd(m, n) == 1:
                assert coeff(m) * coeff(n) == coeff(m * n)
