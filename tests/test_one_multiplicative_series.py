"""Both coefficient tables of `lfunc` against an oracle that shares no code
with their one multiplicative assembly: c(p^k) from the three-term Hecke
recursion, the Asai^+ series from a power-series inverse written here, and
n factored by sympy or by `split_prime_power`, one n at a time.  The
zeta(2s) convolution, the diagonal of a table and its multiplicativity
check are held to the direct definitions: a divisor sum over d^2 | n, the
label "(m)" at norm m^2, and the scan over all coprime pairs."""

import io
import math

import numpy as np
import pytest
from sympy import factorint, primerange

from asaikit.exactalg import split_prime_power
from asaikit.lfunc import (
    CoeffTable,
    asai_dirichlet,
    euler_factor,
    euler_product_coefficients,
    ingest_coeffs,
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


# -- the O(N sqrt N) and one-n-at-a-time oracles, up to N = 3000 --------------


def walk(local, N):
    """[f(1), ..., f(N)], each n = p^k m split by trial division in turn."""
    out = [0, 1]
    for n in range(2, N + 1):
        p, k, m = split_prime_power(n)
        out.append(local(p, k) * out[m])
    return out[1:]


def divisor_sum(diagonal, N):
    """sum over d^2 | n of c(n / d^2), for each n <= N."""
    return [sum(diagonal[n // (d * d)] for d in range(1, math.isqrt(n) + 1)
                if n % (d * d) == 0) for n in range(1, N + 1)]


def diagonal_of(rows):
    """{m: c} over the rows labelled exactly "(m)" at norm m^2, m >= 2."""
    return {m: c for n, label, c in rows
            for m in [math.isqrt(max(n, 0))] if m >= 2 and m * m == n and label == f"({m})"}


@pytest.mark.parametrize("N, seed", [(3000, 2), (1000, 3), (97, 4)])
def test_complete_tables_match_the_walk_and_the_divisor_sum(N, seed):
    params = seeded_params(N, seed)
    kmax = N.bit_length()
    hecke = {p: [math.prod(c) for c in zip(*(hecke_powers(m2, kmax)
                                                for m2 in ((sp.a, sp.b) if sp.split else (sp.a,))))]
             for p, sp in params.items()}
    asai = {p: inverse_series(euler_factor(sp, "asai+").poly.coeffs, kmax)
            for p, sp in params.items()}
    diagonal = walk(lambda p, k: hecke[p][k], N)
    tbl = synthetic_table(params, N)
    assert tbl.to_rows() == [(m * m, f"({m})", diagonal[m - 1]) for m in range(2, N + 1)]
    euler = walk(lambda p, k: asai[p][k], N)
    assert euler_product_coefficients(params, N) == euler
    want = divisor_sum([None] + diagonal, N)
    assert asai_dirichlet(tbl, N) == want == euler


def sparse_csv(seed, N):
    """A table with a random third of its diagonal rows dropped (all below
    some gap kept), decoys at norm m^2 under labels that are not "(m)", and
    rows off the diagonal.  A norm below 1 is refused, not a decoy."""
    rng = np.random.default_rng(seed)
    params = seeded_params(N, seed)
    rows = synthetic_table(params, N).to_rows()
    gap = int(rng.integers(2, N))
    kept = [r for r in rows if math.isqrt(r[0]) < gap or rng.random() < 2 / 3]
    m = int(rng.integers(2, N))
    decoys = [(m * m, f"(0{m})", 7), (m * m, f"( {m})", 7), (m * m + 1, f"({m})", 7),
              (5, "(2+i)", -3), (25, "(2+i)^2", 4), (4, "(-2)", 1)]
    text = "norm,label,coefficient\n" + "".join(
        f"{n},{label},{c}\n" for n, label, c in kept + decoys)
    return text, kept, decoys, gap


@pytest.mark.parametrize("seed", range(5))
def test_sparse_csv_tables_match_the_direct_definitions(seed):
    N = 400
    text, kept, decoys, gap = sparse_csv(seed, N)
    tbl = ingest_coeffs(io.StringIO(text))
    assert tbl.to_rows() == sorted(kept + decoys)
    with pytest.raises(ValueError, match=r"row \(-4, '\(-2\)', 1\) has norm below 1"):
        ingest_coeffs(io.StringIO(text + "-4,(-2),1\n"))
    diagonal = {1: 1, **diagonal_of(kept + decoys)}
    assert diagonal_of(decoys) == {}
    for m in range(1, N + 2):
        assert tbl.has_diagonal(m) == (m in diagonal)
        if m in diagonal:
            assert tbl.diagonal(m) == diagonal[m]
    first_gap = next(m for m in range(1, N + 2) if m not in diagonal)
    assert first_gap >= gap
    top = first_gap - 1
    assert asai_dirichlet(tbl, top) == divisor_sum([None] + [diagonal[m] for m in range(1, top + 1)], top)
    with pytest.raises(KeyError, match=rf"^'missing diagonal coefficient c\({first_gap} O_K\) below N={N}'$"):
        asai_dirichlet(tbl, N)


# -- the least missing prime --------------------------------------------------


@pytest.mark.parametrize("missing", [(2,), (7, 3), (997,), (1999, 1997), (43, 41, 1009)])
def test_the_least_missing_prime_is_named(missing):
    N = 2000
    params = seeded_params(N, 6)
    for p in missing:
        del params[p]
    # the one-n-at-a-time walk stops at the first n whose least prime is missing
    least = next(split_prime_power(n)[0] for n in range(2, N + 1)
                 if split_prime_power(n)[0] not in params)
    assert least == min(missing)
    for build in (synthetic_table, euler_product_coefficients):
        with pytest.raises(KeyError, match=rf"^'no Satake parameter for prime {least} <= {N}'$"):
            build(params, N)
    # a prime past N is not needed
    assert euler_product_coefficients(params, min(missing) - 1) == euler_product_coefficients(
        seeded_params(N, 6), min(missing) - 1)


# -- a planted violation names the least failing pair -------------------------


def first_failing_pair(diagonal):
    """The least (m, n), m first, with 2 <= m < n coprime, m, n, mn all in
    the table and c(m) c(n) != c(mn): every pair scanned."""
    ms = sorted(diagonal)
    for m in ms:
        for n in ms:
            if 2 <= m < n and math.gcd(m, n) == 1 and m * n in diagonal \
                    and diagonal[m] * diagonal[n] != diagonal[m * n]:
                return m, n
    return None


@pytest.mark.parametrize("at, pair", [(12, (3, 4)), (60, (3, 20)), (1994, (2, 997)),
                                      (2000, (16, 125)), (1155, (3, 385))])
def test_a_planted_violation_names_the_same_pair(at, pair):
    rng = np.random.default_rng(37)
    params = {p: random_satake(rng, p=p) for p in primerange(2, 2001)}
    rows = [(n, label, c + 1 if label == f"({at})" else c)
            for n, label, c in synthetic_table(params, 2000).to_rows()]
    assert first_failing_pair(diagonal_of(rows)) == pair
    m, n = pair
    with pytest.raises(ValueError, match=rf"^multiplicativity fails: c\({m}\)c\({n}\) != c\({at}\)$"):
        CoeffTable(rows)
