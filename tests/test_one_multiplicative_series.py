"""Both coefficient tables of `lfunc` against an oracle that shares no code
with their one multiplicative assembly: c(p^k) from the three-term Hecke
recursion, the Asai^+ series from a power-series inverse written here, and
n factored by sympy."""

import numpy as np
import pytest
from sympy import factorint, primerange

from asaikit.lfunc import (
    euler_factor,
    euler_product_coefficients,
    random_satake,
    synthetic_table,
)


def hecke_powers(m2, kmax):
    """s_k = t s_{k-1} - d s_{k-2}, s_0 = 1, s_1 = t: trace Sym^k of m2."""
    (w, x), (y, z) = m2
    t, d = w + z, w * z - x * y
    s = [1, t]
    while len(s) <= kmax:
        s.append(t * s[-1] - d * s[-2])
    return s


def inverse_series(poly, kmax):
    """1/poly up to X^kmax, poly[0] = 1: the coefficient of X^k in
    poly * inv vanishes for 0 < k <= kmax."""
    inv = []
    for k in range(kmax + 1):
        conv = sum(poly[j] * inv[k - j] for j in range(1, min(k, len(poly) - 1) + 1))
        inv.append(1 if k == 0 else -conv)
    return inv


def multiplicative(local, N):
    """[f(1), ..., f(N)] for f(n) = prod over p^k || n of local(p, k)."""
    out = []
    for n in range(1, N + 1):
        value = 1
        for p, k in factorint(n).items():
            value *= local(p, k)
        out.append(value)
    return out


def seeded_params(N, seed):
    # a parameter for every prime up to N, and some past it, which the
    # tables must ignore
    rng = np.random.default_rng(seed)
    return {p: random_satake(rng, p=p) for p in primerange(2, N + 50)}


@pytest.mark.parametrize("N", [1, 2, 30, 300])
@pytest.mark.parametrize("seed", [0, 1])
def test_both_tables_match_the_independent_oracle(N, seed):
    params = seeded_params(N, seed)
    kmax = N.bit_length()

    def hecke(p, k):
        sp = params[p]
        c = hecke_powers(sp.a, k)[k]
        return c * hecke_powers(sp.b, k)[k] if sp.split else c

    asai = {p: inverse_series(euler_factor(sp, "asai+").poly.coeffs, kmax)
            for p, sp in params.items()}
    diagonal = multiplicative(hecke, N)
    assert synthetic_table(params, N).to_rows() == [
        (m * m, f"({m})", diagonal[m - 1]) for m in range(2, N + 1)]
    assert euler_product_coefficients(params, N) == multiplicative(
        lambda p, k: asai[p][k], N)

