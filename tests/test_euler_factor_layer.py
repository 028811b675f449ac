"""The exact Euler-factor layer: `_twist` against its definition in
Fractions, every factor and both identities' sides as Python ints equal to
an independent charpoly of the Frobenius matrix, and the +-1 and split
arguments checked where they enter."""

import json
from fractions import Fraction

import numpy as np
import pytest

from asaikit.exactalg import PolyX
from asaikit.lfunc import (
    REP_TAGS,
    SatakeParam,
    _twist,
    euler_factor,
    eye,
    frobenius_matrix,
    random_satake,
    verify_lambda2,
    verify_std_decomposition,
)


def twist_by_definition(coeffs, num, den):
    """Oracle: the X^k coefficient times Fraction(num, den)^k, refused where
    one is not an integer."""
    out = [c * Fraction(num, den) ** k for k, c in enumerate(coeffs)]
    if any(c.denominator != 1 for c in out):
        raise ValueError("non-integral Euler factor coefficient")
    return tuple(int(c) for c in out)


def test_twist_equals_its_definition():
    rng = np.random.default_rng(47)
    equal = raised = 0
    for trial in range(60):
        size = int(rng.integers(1, 8))
        # every third polynomial has its X^k coefficient divisible by 6^k,
        # so that each twist below is integral
        scale = 6 if trial % 3 == 0 else 1
        coeffs = [int(x) * scale**k for k, x in enumerate(rng.integers(-9, 10, size=size))]
        coeffs[-1] = coeffs[-1] or scale ** (size - 1)
        f = PolyX(coeffs)
        for num in (-4, -1, 1, 3):
            for den in (-3, -1, 1, 2, 6):
                try:
                    want = twist_by_definition(f.coeffs, num, den)
                except ValueError:
                    with pytest.raises(ValueError, match="non-integral Euler factor"):
                        _twist(f, num, den)
                    raised += 1
                else:
                    got = _twist(f, num, den)
                    assert got.coeffs == want
                    assert all(type(c) is int for c in got.coeffs)
                    equal += 1
    assert equal > 400 and raised > 200


def test_the_identity_twist_is_the_polynomial_itself():
    f = PolyX([1, -3, 2])
    assert _twist(f, 1, 1) is f
    assert _twist(f, -1, -1) == f and _twist(f, -1, -1) is not f
    assert _twist(f, 1, -1).coeffs == (1, 3, 2)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def reciprocal_charpoly_by_traces(m):
    """Oracle: det(I - m X) from the power sums p_k = tr(m^k) by Newton's
    identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i, in Fractions,
    with its trailing zeros stripped."""
    n = len(m)
    sums, power = [], m
    for _ in range(n):
        sums.append(sum(power[i][i] for i in range(n)))
        power = matmul(power, m)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    out = [(-1) ** k * c for k, c in enumerate(e)]
    assert all(c.denominator == 1 for c in out)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return [int(c) for c in out]


def seeded_params():
    rng = np.random.default_rng(53)
    return ([(random_satake(rng, split=True), 1) for _ in range(8)]
            + [(random_satake(rng, split=False), 1) for _ in range(8)]
            + [(random_satake(rng, split=True, twist=-1), -1) for _ in range(8)])


@pytest.mark.parametrize("sp, chi", seeded_params())
def test_factors_and_identity_sides_are_ints_equal_to_the_charpoly(sp, chi):
    for tag in REP_TAGS:
        coeffs = euler_factor(sp, tag).coefficients()
        assert all(type(c) is int for c in coeffs), tag
        assert coeffs == reciprocal_charpoly_by_traces(frobenius_matrix(sp, tag)), tag
    ok, lam = verify_lambda2(sp, chi)
    # chi = +-1 is its own inverse: the left side is Lambda^2(ind) twisted by chi
    want = reciprocal_charpoly_by_traces(
        [[chi * x for x in r] for r in frobenius_matrix(sp, "lambda2")])
    assert ok and lam["lhs"] == lam["rhs"] == want
    ok, std = verify_std_decomposition(sp)
    assert ok and std["lhs"] == std["rhs"] == reciprocal_charpoly_by_traces(
        frobenius_matrix(sp, "std"))
    for side in (lam["lhs"], lam["rhs"], std["lhs"], std["rhs"]):
        assert all(type(c) is int for c in side)
    assert type(lam["chi"]) is int and type(lam["split"]) is bool


@pytest.mark.parametrize("chi", [True, False, np.True_, 1.0, -1.0, np.float64(1.0),
                                 Fraction(1), "1", None, 0, 2, -3])
def test_chi_is_refused_unless_an_integer_plus_or_minus_one(chi):
    sp = SatakeParam(5, True, eye(2), eye(2))
    with pytest.raises(ValueError, match="chi must be a local value"):
        verify_lambda2(sp, chi)


def test_a_numpy_chi_is_reported_as_a_plain_int():
    sp = SatakeParam(5, True, eye(2), eye(2))
    ok, rep = verify_lambda2(sp, np.int64(1))
    assert ok and rep == verify_lambda2(sp, 1)[1]
    assert type(rep["chi"]) is int
    flipped = random_satake(np.random.default_rng(2), split=True, twist=-1)
    ok, rep = verify_lambda2(flipped, np.int32(-1))
    assert ok and type(rep["chi"]) is int and rep["chi"] == -1
    json.dumps(rep)


@pytest.mark.parametrize("twist", [True, False, np.True_, 1.0, -1.0, "1", 0, 2])
def test_twist_is_refused_unless_an_integer_plus_or_minus_one(twist):
    with pytest.raises(ValueError, match="twist must be \\+1 or -1"):
        random_satake(np.random.default_rng(0), twist=twist)


def test_a_numpy_twist_draws_as_the_int():
    for twist in (1, -1):
        want = random_satake(np.random.default_rng(4), split=True, twist=twist)
        got = random_satake(np.random.default_rng(4), split=True, twist=np.int64(twist))
        assert got == want


@pytest.mark.parametrize("split", [1, 0, "no", "", None, 1.0, np.int64(1), [True]])
def test_split_is_refused_unless_a_bool(split):
    with pytest.raises(ValueError, match="split must be a bool"):
        SatakeParam(7, split, eye(2), eye(2))
    with pytest.raises(ValueError, match="split must be a bool"):
        SatakeParam(7, split, eye(2))


@pytest.mark.parametrize("split", [1, 0, "no", 1.0])
def test_random_satake_refuses_a_split_that_is_not_a_bool(split):
    with pytest.raises(ValueError, match="split must be a bool"):
        random_satake(np.random.default_rng(0), p=7, split=split)


def test_a_numpy_split_is_stored_as_a_bool():
    split = SatakeParam(7, np.True_, eye(2), eye(2))
    inert = SatakeParam(7, np.False_, eye(2))
    assert split.split is True and inert.split is False
    assert split == SatakeParam(7, True, eye(2), eye(2))
    assert verify_lambda2(split, 1)[1]["split"] is True


def test_polyx_checks_a_callers_coefficients_once_at_entry():
    f = PolyX(np.array([1, -2, 0], dtype=np.int32))
    assert f.coeffs == (1, -2) and all(type(c) is int for c in f.coeffs)
    for bad in ([1, 0.5], [Fraction(2, 1)], np.array([1.0, 2.0])):
        with pytest.raises(TypeError):
            PolyX(bad)
    # a product of checked polynomials stays in Python ints
    g = f * PolyX([1, np.int64(3)])
    assert g.coeffs == (1, 1, -6) and all(type(c) is int for c in g.coeffs)
