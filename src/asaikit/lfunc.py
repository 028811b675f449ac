"""Satake-parameter arithmetic: the matrix-level maps sending a Frobenius
datum into the induced, tensor-induced (plus/minus), wedge-square, standard
and similitude representations; their Euler factors; the wedge-square and
standard factorization identities; and Dirichlet series assembly for the
diagonal coefficient table.

All arithmetic is exact: integer matrices, integer Euler factors and
integer Dirichlet coefficients.  `euler_factor` returns each factor in
closed form from the trace and determinant of each 2x2 block, with no
matrix built; the identities check those closed forms against the
Frobenius matrices, each identity taking one side from
`charpoly_reciprocal` of a matrix.  They are checked on the integer
factors themselves: twisting a matrix by a scalar c multiplies the X^k
coefficient of det(I - M X) by c^k, so no scaled matrix is built: the std
identity takes the charpoly of the integer block mu std and twists it by
1/mu, and `std_map` refuses a matrix that is not integral.  One
division-free Berkowitz over Z gives every charpoly and det.

Conventions: a split prime carries a pair (a, b) of 2x2 matrices; an inert
prime carries only a, the Frobenius acting through the nontrivial coset as
x + y -> a y + x on the induced space and x (x) y -> +- a y (x) x on the
tensor-induced one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import index, mul
from pathlib import Path

from .exactalg import PolyX, as_index, charpoly, det, split_prime_power, wedge_square

REP_TAGS = ("ind", "asai+", "asai-", "lambda2", "std", "sim", "zeta", "quadratic-char")


# ---------------------------------------------------------------------------
# small exact matrix helpers (tuples of tuples of ints)
# ---------------------------------------------------------------------------


def mat(rows):
    return tuple(map(tuple, rows))


def eye(n):
    return mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)


def kron(a, b):
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    return mat(
        [
            [a[i][j] * b[k][l] for j in range(ma) for l in range(mb)]
            for i in range(na)
            for k in range(nb)
        ]
    )


def blockdiag(a, b):
    na, ma = len(a), len(a[0])
    nb, mb = len(b), len(b[0])
    out = [[0] * (ma + mb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(ma):
            out[i][j] = a[i][j]
    for i in range(nb):
        for j in range(mb):
            out[na + i][ma + j] = b[i][j]
    return mat(out)


def charpoly_reciprocal(m) -> PolyX:
    """det(I - m X) of an integer matrix."""
    return PolyX(charpoly(m))


def _twist(poly, num, den):
    """det(I - (num/den) M X) from poly = det(I - M X): the X^k coefficient
    times (num/den)^k, which must stay integral."""
    out = [divmod(c * num**k, den**k) for k, c in enumerate(poly.coeffs)]
    if any(r for _, r in out):
        raise ValueError("non-integral Euler factor coefficient")
    return PolyX([q for q, _ in out])


# ---------------------------------------------------------------------------
# Satake parameters and Frobenius matrices
# ---------------------------------------------------------------------------


def _trace_det(m):
    """(tr m, det m) of a 2x2 matrix."""
    (w, x), (y, z) = m
    return w + z, w * z - x * y


def is_prime(n):
    """Exact trial division up to isqrt(n): n is its own least prime factor."""
    return n >= 2 and split_prime_power(n)[0] == n


def _int_2x2(m, name):
    try:
        rows = tuple(tuple(index(x) for x in r) for r in m)
    except TypeError:
        rows = None
    if rows is None or len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError(f"{name} must be a 2x2 matrix with integer entries")
    return rows


@dataclass(frozen=True)
class SatakeParam:
    """A Frobenius conjugacy-class datum at a rational prime p.

    p must be a prime (checked by trial division).  split: a and b are the
    two 2x2 components; inert: only a is used.  Matrices must be invertible
    2x2 with integer entries (anything `operator.index` accepts, stored as
    int)."""

    p: int
    split: bool
    a: tuple
    b: tuple | None = None

    def __post_init__(self):
        try:
            p = index(self.p)
        except TypeError:
            p = 0
        if not is_prime(p):
            raise ValueError(f"p must be a prime, got {self.p!r}")
        object.__setattr__(self, "p", p)
        a = _int_2x2(self.a, "a")
        object.__setattr__(self, "a", a)
        if _trace_det(a)[1] == 0:
            raise ValueError("a must be invertible")
        if self.split:
            if self.b is None:
                raise ValueError("a split parameter needs both matrices")
            b = _int_2x2(self.b, "b")
            if _trace_det(b)[1] == 0:
                raise ValueError("b must be invertible")
            object.__setattr__(self, "b", b)
        else:
            if self.b is not None:
                raise ValueError("an inert parameter uses only a")

    @property
    def chi_quadratic(self):
        """Local value of the quadratic character: +1 split, -1 inert."""
        return 1 if self.split else -1

    def similitude(self):
        da = _trace_det(self.a)[1]
        if self.split:
            if da != _trace_det(self.b)[1]:
                raise ValueError("split similitude needs det a = det b")
            return da
        if da != 1:
            raise ValueError("inert similitude needs det a = 1")
        return 1


def frobenius_matrix(sp: SatakeParam, tag: str):
    """The image of the Frobenius datum in the chosen representation."""
    if tag not in REP_TAGS:
        raise ValueError(f"unknown representation tag {tag!r}")
    a = sp.a
    if tag == "zeta":
        return mat([[1]])
    if tag == "quadratic-char":
        return mat([[sp.chi_quadratic]])
    if tag == "sim":
        return mat([[sp.similitude()]])
    if tag == "lambda2":
        return wedge_square(frobenius_matrix(sp, "ind"))
    if tag == "std":
        return std_map(frobenius_matrix(sp, "ind"))
    if sp.split:
        if tag == "ind":
            return blockdiag(a, sp.b)
        return kron(a, sp.b)  # asai+ and asai-
    if tag == "ind":
        return ((0, 0, *a[0]), (0, 0, *a[1]), (1, 0, 0, 0), (0, 1, 0, 0))
    # x (x) y -> +- a y (x) x: kron(a, I) with its columns (i, j) and (j, i)
    # swapped, times the sign
    sign = 1 if tag == "asai+" else -1
    return tuple(tuple(sign * r[c] for c in (0, 2, 1, 3)) for r in kron(a, eye(2)))


@dataclass(frozen=True)
class EulerFactor:
    """Reciprocal characteristic polynomial det(I - M X) with its tag."""

    poly: PolyX
    tag: str

    def __post_init__(self):
        if self.poly.coeffs[0] != 1:
            raise ValueError("Euler factors have constant coefficient 1")

    def coefficients(self):
        return list(self.poly.coeffs)


_NOT_GSP4 = "matrix does not preserve J up to similitude"


def euler_factor(sp: SatakeParam, tag: str) -> EulerFactor:
    """det(I - frobenius_matrix(sp, tag) X) in closed form from t = tr a,
    d = det a (and t' = tr b, d' = det b at a split prime), with no matrix.

    With P = 1 - t X + d X^2, P' = 1 - t' X + d' X^2 and the Rankin-Selberg
    factor RS = 1 - t t' X + (t^2 d' + t'^2 d - 2 d d') X^2 - t t' d d' X^3
    + d^2 d'^2 X^4 of a (x) b (Jacquet, *Automorphic forms on GL(2) II*,
    LNM 278, 1972):

    - split: ind = P P'; asai+- = RS; lambda2 = (1 - d X)(1 - d' X) RS;
      std = (1 - X) RS(X / d), defined only when d = d' (the similitude);
    - inert: ind = 1 - t X^2 + d X^4; asai+- = (1 -+ t X + d X^2)(1 - d X^2)
      (Asai, Math. Ann. 226, 1977); lambda2 = (1 + t X + d X^2)(1 - d X^2)^2;
      std = (1 + X)(1 - X^2)(1 + t X + X^2), defined only when d = 1;
    - sim, zeta, quadratic-char: 1 - mu X, 1 - X and 1 - chi_K(p) X.

    std refuses, as `std_map` does, a parameter whose ind matrix is not a
    similitude of J, and a twist RS(X / d) that is not integral.  The
    identities (`verify_lambda2`, `verify_std_decomposition`) check these
    forms against the Frobenius matrices.
    """
    if tag not in REP_TAGS:
        raise ValueError(f"unknown representation tag {tag!r}")
    if tag == "zeta":
        return EulerFactor(PolyX([1, -1]), tag)
    if tag == "quadratic-char":
        return EulerFactor(PolyX([1, -sp.chi_quadratic]), tag)
    if tag == "sim":
        return EulerFactor(PolyX([1, -sp.similitude()]), tag)
    t, d = _trace_det(sp.a)
    if sp.split:
        t2, d2 = _trace_det(sp.b)
        if tag == "ind":
            return EulerFactor(PolyX([1, -t, d]) * PolyX([1, -t2, d2]), tag)
        rs = PolyX([1, -t * t2, t * t * d2 + t2 * t2 * d - 2 * d * d2,
                    -t * t2 * d * d2, d * d * d2 * d2])
        if tag in ("asai+", "asai-"):
            return EulerFactor(rs, tag)
        if tag == "lambda2":
            return EulerFactor(PolyX([1, -d]) * PolyX([1, -d2]) * rs, tag)
        if d != d2:
            raise ValueError(_NOT_GSP4)
        return EulerFactor(PolyX([1, -1]) * _twist(rs, 1, d), tag)
    if tag == "ind":
        return EulerFactor(PolyX([1, 0, -t, 0, d]), tag)
    line = PolyX([1, 0, -d])
    if tag in ("asai+", "asai-"):
        sign = 1 if tag == "asai+" else -1
        return EulerFactor(PolyX([1, -sign * t, d]) * line, tag)
    if tag == "lambda2":
        return EulerFactor(PolyX([1, t, d]) * line * line, tag)
    if d != 1:
        raise ValueError(_NOT_GSP4)
    return EulerFactor(PolyX([1, 1]) * PolyX([1, 0, -1]) * PolyX([1, t, 1]), tag)


# ---------------------------------------------------------------------------
# the wedge-square identity and the standard-representation map
# ---------------------------------------------------------------------------


def verify_lambda2(sp: SatakeParam, chi: int = 1):
    """Exact polynomial identity
        det(I - chi^{-1} Lambda^2(ind) X)
          = (1 - X)(1 - chi_K(p) X) det(I - chi^{-1} asai^- X).

    chi is the local value (+-1) of the twisting character at p; it must
    match the similitude of the parameter for the identity to hold.  The
    left side comes from the Lambda^2(ind) matrix, the asai^- factor from
    `euler_factor`'s closed form.  Returns (ok, report); never raises on
    mismatch.
    """
    return lambda2_identity(sp, charpoly_reciprocal(frobenius_matrix(sp, "lambda2")),
                            euler_factor(sp, "asai-").poly, chi)


def lambda2_identity(sp: SatakeParam, lam: PolyX, asai_minus: PolyX, chi: int = 1):
    """`verify_lambda2` on the untwisted factors lam = det(I - Lambda^2(ind) X)
    and asai_minus = det(I - asai^- X) of sp, each twisted by chi^{-1}."""
    if chi not in (1, -1):
        raise ValueError("chi must be a local value +1 or -1")
    lhs = _twist(lam, 1, chi)
    rhs = PolyX([1, -1]) * PolyX([1, -sp.chi_quadratic]) * _twist(asai_minus, 1, chi)
    ok = lhs == rhs
    report = {
        "p": sp.p,
        "split": sp.split,
        "chi": chi,
        "lhs": list(lhs.coeffs),
        "rhs": list(rhs.coeffs),
        "ok": ok,
    }
    return ok, report


J4 = mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])

# Lambda^2 positions in lex pair order (01, 02, 03, 12, 13, 23).  The
# invariant wedge line of J4 is e01 + e23; its complement has the basis
# e02, e03, e12, e13, e01 - e23, in which std_map writes its matrix.
_E01, _E23 = 0, 5
_COMPLEMENT = (1, 2, 3, 4)
# the Gram matrix of (x, y) -> x ^ y / vol on that basis: e02 ^ e13 = -vol,
# e03 ^ e12 = vol, (e01 - e23) ^ (e01 - e23) = -2 vol; other pairs share an index
_STD_GRAM = ((0, 0, 0, -1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (-1, 0, 0, 0, 0),
             (0, 0, 0, 0, -2))


def similitude_of(m):
    """mu with m^T J m = mu J, or None if m is not in the similitude group."""
    return _similitude(wedge_square(m))


def _similitude(w):
    # on e_k ^ e_l (k < l), m^T J m is row e01 plus row e23 of w = Lambda^2(m)
    r = [x + y for x, y in zip(w[_E01], w[_E23])]
    mu = r[_E01]
    return mu if r[_E23] == mu and not any(r[i] for i in _COMPLEMENT) else None


def _std_block(m):
    """(B, mu): the similitude mu of m and the integer 5x5 block B of
    Lambda^2(m) on the complement of the J-line, so B = mu std(m)."""
    w = wedge_square(m)
    mu = _similitude(w)
    if not mu:
        raise ValueError(_NOT_GSP4)
    # m^T J m = mu J with mu != 0 also gives m J m^T = mu J: Lambda^2(m) maps
    # e01 + e23 to mu (e01 + e23), so the line splits off with eigenvalue mu
    r01 = w[_E01]
    rows = [[w[i][j] for j in _COMPLEMENT] + [w[i][_E01] - w[i][_E23]]
            for i in _COMPLEMENT]
    rows.append([r01[j] for j in _COMPLEMENT] + [r01[_E01] - r01[_E23]])
    return mat(rows), mu


def std_map(m):
    """The 5-dim factor of Lambda^2(m) mu^{-1} after splitting the invariant
    line of the symplectic form; requires m in the similitude group of J and
    an integral result."""
    block, mu = _std_block(m)
    if any(x % mu for r in block for x in r):
        raise ValueError("std matrix is not integral")
    return mat([[x // mu for x in r] for r in block])


def verify_std_decomposition(sp: SatakeParam):
    """char poly of std(ind-Frobenius) equals
       (1 - chi_K(p) X) * det(I - asai^+ sim^{-1} chi_K(p) X): the
    standard-representation factorization, exactly, with the left side from
    the charpoly of the integer block mu std twisted by 1/mu, and the asai^+
    factor from `euler_factor`."""
    block, mu = _std_block(frobenius_matrix(sp, "ind"))
    lhs = _twist(charpoly_reciprocal(block), 1, mu)  # mu = sp.similitude()
    cq = sp.chi_quadratic
    asai = euler_factor(sp, "asai+").poly
    rhs = PolyX([1, -cq]) * _twist(asai, cq, mu)
    ok = lhs == rhs
    return ok, {"p": sp.p, "split": sp.split, "lhs": list(lhs.coeffs),
                "rhs": list(rhs.coeffs), "ok": ok}


def std_in_so5(m):
    """Check std(m) preserves the induced symmetric form with determinant 1,
    in integers: B^T G B = mu^2 G and det B = mu^5 for B = mu std(m)."""
    b, mu = _std_block(m)
    gram = mat([[mu * mu * x for x in r] for r in _STD_GRAM])
    return mmul(mmul(tuple(zip(*b)), _STD_GRAM), b) == gram and det(b) == mu**5


# ---------------------------------------------------------------------------
# Dirichlet series and coefficient tables
# ---------------------------------------------------------------------------


class CoeffTable:
    """Hecke coefficients indexed by (ideal norm, label); the diagonal
    entries c(m O_K) live at label "(m)" with norm m^2 (class number 1)."""

    def __init__(self, rows):
        self.rows = {}
        for norm, label, coeff in rows:
            key = (as_index(norm), str(label))
            if key in self.rows:
                raise ValueError(f"duplicate coefficient row {key}")
            self.rows[key] = as_index(coeff)
        self._check_diagonal_multiplicativity()

    def diagonal(self, m) -> int:
        if m == 1:
            return 1
        key = (m * m, f"({m})")
        if key not in self.rows:
            raise KeyError(f"missing diagonal coefficient c({m} O_K)")
        return self.rows[key]

    def has_diagonal(self, m):
        return m == 1 or (m * m, f"({m})") in self.rows

    def _check_diagonal_multiplicativity(self):
        ms = sorted(
            int(label[1:-1])
            for (norm, label) in self.rows
            if label.startswith("(") and label[1:-1].isdigit()
            and norm == int(label[1:-1]) ** 2
        )
        mset = set(ms)
        top = max(ms, default=0)
        for m in ms:
            for n in ms:  # sorted: past top, no product is in the table
                if m * n > top:
                    break
                if m < 2 or n < m or math.gcd(m, n) != 1 or m * n not in mset:
                    continue
                if self.diagonal(m) * self.diagonal(n) != self.diagonal(m * n):
                    raise ValueError(
                        f"multiplicativity fails: c({m})c({n}) != c({m*n})"
                    )

    def to_rows(self):
        return sorted((n, l, c) for (n, l), c in self.rows.items())


def ingest_coeffs(source) -> CoeffTable:
    """Parse a coefficient CSV with header norm,label,coefficient."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != [
        "norm", "label", "coefficient",
    ]:
        raise ValueError("expected header 'norm,label,coefficient'")
    rows = []
    for ln in csv.reader(lines[1:]):
        if not ln:
            continue
        if len(ln) != 3:
            raise ValueError(f"malformed row {ln!r}")
        norm_s, label, coeff_s = (x.strip() for x in ln)
        if not _is_int(norm_s) or not _is_int(coeff_s):
            raise ValueError(f"non-integer entry in row {ln!r}")
        rows.append((int(norm_s), label, int(coeff_s)))
    return CoeffTable(rows)


def _is_int(s):
    s = s.strip()
    if s.startswith(("-", "+")):
        s = s[1:]
    return s.isdecimal()  # exactly the digits int() parses ("²" is a digit)


def asai_dirichlet(tbl: CoeffTable, N: int) -> list[int]:
    """Coefficients (index 1..N) of zeta(2s) * sum_m c(m O_K) m^{-s}."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    for m in range(1, N + 1):
        if not tbl.has_diagonal(m):
            raise KeyError(f"missing diagonal coefficient c({m} O_K) below N={N}")
    out = [0] * (N + 1)
    for n in range(1, N + 1):
        total = 0
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                total += tbl.diagonal(n // (d * d))
            d += 1
        out[n] = total
    return out[1:]


def synthetic_table(params: dict[int, SatakeParam], N: int) -> CoeffTable:
    """Multiplicative diagonal table c(m O_K), m <= N, with c(p^k) the X^k
    coefficient of 1/det(I - aX), times that of 1/det(I - bX) at a split
    prime: the Hecke recursion (all primes <= N must appear in `params`)."""
    def hecke(sp, kmax):
        blocks = (sp.a, sp.b) if sp.split else (sp.a,)
        series = [_series_inverse((1, -t, d), kmax) for t, d in map(_trace_det, blocks)]
        return [math.prod(c) for c in zip(*series)]

    coeffs = _multiplicative(params, N, hecke)
    return CoeffTable([(m * m, f"({m})", coeffs[m - 1]) for m in range(2, N + 1)])


def _check_keys(params):
    """Refuse a parameter filed under a key other than its own prime."""
    for key, sp in params.items():
        if key != sp.p:
            raise ValueError(f"parameter for p={sp.p} filed under key {key!r}")


def euler_product_coefficients(params: dict[int, SatakeParam], N: int) -> list[int]:
    """Dirichlet coefficients of prod_p det(I - asai^+(Frob_p) p^{-s})^{-1}
    up to N: the local-factor power series assembled multiplicatively."""
    return _multiplicative(params, N, lambda sp, kmax: _series_inverse(
        euler_factor(sp, "asai+").poly.coeffs, kmax))


def _multiplicative(params, N, local):
    """Coefficients (index 1..N) of the multiplicative series whose p^k-th
    coefficient is local(sp, kmax)[k], kmax the largest k with p^k <= N;
    every prime <= N must have a parameter in `params`."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_keys(params)
    series = {}
    for p, sp in params.items():
        kmax, pk = 0, p
        while pk <= N:
            kmax += 1
            pk *= p
        if kmax:
            series[p] = local(sp, kmax)
    out = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        p, k, m = split_prime_power(n)
        if p not in series:
            raise KeyError(f"no Satake parameter for prime {p} <= {N}")
        out[n] = series[p][k] * out[m]
    return out[1:]


def _series_inverse(coeffs, kmax):
    """Power-series inverse of a polynomial with constant term 1."""
    inv = [1] + [0] * kmax
    for k in range(1, kmax + 1):
        s = 0
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            s += coeffs[j] * inv[k - j]
        inv[k] = -s
    return inv


# ---------------------------------------------------------------------------
# seeded random parameters for the batteries
# ---------------------------------------------------------------------------


def random_sl2(rng):
    """A random element of SL2(Z): the product, left to right, of six
    elementary factors [[1, r], [0, 1]] (upper) or [[1, 0], [r, 1]] (lower).

    The draw contract: per factor, first r = rng.integers(-3, 4) (uniform on
    [-3, 3]), then the coin rng.integers(2), 1 for upper and 0 for lower;
    12 scalar calls in this fixed order.  Every seeded battery and
    `lfunc --primes` depends on that order.  The product is kept as four
    ints: an upper factor is a column operation on the second column, a
    lower one on the first."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(6):
        r = int(rng.integers(-3, 4))
        if int(rng.integers(2)):
            b, d = b + a * r, d + c * r
        else:
            a, c = a + b * r, c + d * r
    return (a, b), (c, d)


def random_satake(rng, p=None, split=None, twist=1):
    """A random parameter with the central-character normalization: split
    parameters have det a = det b = twist (+-1, anything else is refused);
    inert ones det a = 1, and a twist of -1 leaves them as they are."""
    if twist not in (1, -1):
        raise ValueError(f"twist must be +1 or -1, got {twist!r}")
    if p is None:
        p = int(rng.choice([3, 5, 7, 11, 13, 17, 19, 23]))
    if split is None:
        split = bool(rng.integers(2))
    if not split:
        return SatakeParam(p, False, random_sl2(rng))
    a = random_sl2(rng)
    b = random_sl2(rng)
    if twist == -1:
        # times diag(1, -1): the second column negated
        a, b = (((w, -x), (y, -z)) for (w, x), (y, z) in (a, b))
    return SatakeParam(p, True, a, b)
