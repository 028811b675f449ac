"""Satake-parameter arithmetic: the matrix-level maps sending a Frobenius
datum into the induced, tensor-induced (plus/minus), wedge-square, standard
and similitude representations; their Euler factors; the wedge-square and
standard factorization identities; and Dirichlet series assembly for the
diagonal coefficient table.

Every series is linear in N: a `CoeffTable` reads its diagonal into one
dict once, `asai_dirichlet` sieves over the squares d^2 <= N, and the
multiplicative assembly marks each n <= N with its least listed prime in
one sieve, so no n is factored by trial division.

All arithmetic is exact: integer matrices, integer Euler factors and
integer Dirichlet coefficients.  `euler_factor` returns each factor in
closed form from the trace and determinant of each 2x2 block, with no
matrix built; the identities check those closed forms against the
Frobenius matrices, each identity taking one side from
`charpoly_reciprocal` of a matrix.  They are checked on the integer
factors themselves: twisting a matrix by a scalar c multiplies the X^k
coefficient of det(I - M X) by c^k, so no scaled matrix is built: the std
identity takes the charpoly of the integer block mu std and twists it by
1/mu, and `std_map` refuses a matrix that is not integral.  Each identity
writes its comparison and report once, for one parameter and for a batch:
`verify_lambda2` and `verify_std_decomposition` take the left side from
the division-free Berkowitz `charpoly` of one matrix, the fastest route for
a single matrix, and `verify_lambda2_batch` and
`verify_std_decomposition_batch` build one Lambda^2(ind) stack and take
every charpoly from the certified multi-modular `charpoly_int_stack`.
`random_satakes` draws a list of parameters in one generator call.

Conventions: a split prime carries a pair (a, b) of 2x2 matrices; an inert
prime carries only a, the Frobenius acting through the nontrivial coset as
x + y -> a y + x on the induced space and x (x) y -> +- a y (x) x on the
tensor-induced one.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from operator import add, index, mul
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .exactalg import (
    PolyX,
    as_index,
    as_sign,
    charpoly,
    charpoly_int_stack,
    det,
    split_prime_power,
    wedge_square,
    wedge_square_stack,
)

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


def charpoly_reciprocal(m) -> PolyX:
    """det(I - m X) of a matrix of ints, such as a Frobenius matrix: the
    Berkowitz output is taken as it is, not checked again."""
    return PolyX._of_ints(charpoly(m))


def _twist(poly, num, den):
    """det(I - (num/den) M X) from poly = det(I - M X), for ints num and
    den: the X^k coefficient times (num/den)^k, which must stay integral,
    with num^k and den^k kept as running powers.  num = den = 1 returns
    poly itself."""
    if num == den == 1:
        return poly
    out = []
    nk = dk = 1
    for c in poly.coeffs:
        q, r = divmod(c * nk, dk)
        if r:
            raise ValueError("non-integral Euler factor coefficient")
        out.append(q)
        nk *= num
        dk *= den
    return PolyX._of_ints(out)


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

    p must be a prime (checked by trial division).  split must be a bool
    (Python or numpy, stored as a Python bool): a and b are the two 2x2
    components when it is true; inert: only a is used.  Matrices must be
    invertible 2x2 with integer entries (anything `operator.index` accepts,
    stored as int)."""

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
        if not isinstance(self.split, (bool, np.bool_)):
            raise ValueError(f"split must be a bool, got {self.split!r}")
        object.__setattr__(self, "split", bool(self.split))
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
            b = sp.b
            return ((*a[0], 0, 0), (*a[1], 0, 0), (0, 0, *b[0]), (0, 0, *b[1]))
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
    poly = PolyX._of_ints  # every coefficient below is an int of sp
    if tag == "zeta":
        return EulerFactor(poly([1, -1]), tag)
    if tag == "quadratic-char":
        return EulerFactor(poly([1, -sp.chi_quadratic]), tag)
    if tag == "sim":
        return EulerFactor(poly([1, -sp.similitude()]), tag)
    t, d = _trace_det(sp.a)
    if sp.split:
        t2, d2 = _trace_det(sp.b)
        if tag == "ind":
            return EulerFactor(poly([1, -t, d]) * poly([1, -t2, d2]), tag)
        rs = poly([1, -t * t2, t * t * d2 + t2 * t2 * d - 2 * d * d2,
                   -t * t2 * d * d2, d * d * d2 * d2])
        if tag in ("asai+", "asai-"):
            return EulerFactor(rs, tag)
        if tag == "lambda2":
            return EulerFactor(poly([1, -d]) * poly([1, -d2]) * rs, tag)
        if d != d2:
            raise ValueError(_NOT_GSP4)
        return EulerFactor(poly([1, -1]) * _twist(rs, 1, d), tag)
    if tag == "ind":
        return EulerFactor(poly([1, 0, -t, 0, d]), tag)
    line = poly([1, 0, -d])
    if tag in ("asai+", "asai-"):
        sign = 1 if tag == "asai+" else -1
        return EulerFactor(poly([1, -sign * t, d]) * line, tag)
    if tag == "lambda2":
        return EulerFactor(poly([1, t, d]) * line * line, tag)
    if d != 1:
        raise ValueError(_NOT_GSP4)
    return EulerFactor(poly([1, 1]) * poly([1, 0, -1]) * poly([1, t, 1]), tag)


# ---------------------------------------------------------------------------
# the wedge-square identity and the standard-representation map
# ---------------------------------------------------------------------------


# (1 - chi_K(p) X) and (1 - X)(1 - chi_K(p) X), by chi_K(p)
_CHI_LINE = {1: PolyX([1, -1]), -1: PolyX([1, 1])}
_ZETA_QUADRATIC = {1: PolyX([1, -2, 1]), -1: PolyX([1, 0, -1])}


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
    chi = _local_chi(chi)
    return _lambda2_outcome(sp, chi, charpoly_reciprocal(frobenius_matrix(sp, "lambda2")))


def verify_lambda2_batch(params, chi: int = 1):
    """[verify_lambda2(sp, chi) for sp in params], with the Lambda^2(ind)
    matrices built as one stack and their charpolys from one
    `charpoly_int_stack`."""
    chi = _local_chi(chi)
    polys = charpoly_int_stack(_wedge_ind_stack(params))
    return [_lambda2_outcome(sp, chi, PolyX._of_ints(c)) for sp, c in zip(params, polys)]


def _local_chi(chi):
    chi = as_sign(chi)
    if chi is None:
        raise ValueError("chi must be a local value +1 or -1")
    return chi


def _lambda2_outcome(sp, chi, wedge_poly):
    """(ok, report) of the wedge-square identity at sp, given wedge_poly =
    det(I - Lambda^2(ind) X)."""
    lhs = _twist(wedge_poly, 1, chi)
    rhs = _ZETA_QUADRATIC[sp.chi_quadratic] * _twist(euler_factor(sp, "asai-").poly, 1, chi)
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


# the Frobenius entries the stacks take: |x| <= 2^30 keeps each Lambda^2
# entry within 2^61 and each entry of the std block, a sum of two, in int64
_STACK_ENTRY_MAX = 2**30


def _wedge_ind_stack(params):
    """Lambda^2(ind) of each parameter, the (N, 6, 6) int64 stack of
    `frobenius_matrix(sp, "lambda2")`; a ValueError refuses a parameter
    with an entry beyond `_STACK_ENTRY_MAX`."""
    split = np.array([sp.split for sp in params], dtype=bool)
    try:
        a = np.array([sp.a for sp in params], dtype=np.int64).reshape(-1, 2, 2)
        b = np.array([sp.b for sp in params if sp.split], dtype=np.int64).reshape(-1, 2, 2)
        small = not any(np.any((x < -_STACK_ENTRY_MAX) | (x > _STACK_ENTRY_MAX)) for x in (a, b))
    except OverflowError:  # an entry beyond int64
        small = False
    if not small:
        raise ValueError("a batched identity takes Frobenius entries up to 2^30 in "
                         "absolute value; check larger ones one parameter at a time")
    ind = np.zeros((len(params), 4, 4), dtype=np.int64)
    ind[split, :2, :2] = a[split]
    ind[split, 2:, 2:] = b
    inert = ~split
    ind[inert, :2, 2:] = a[inert]
    ind[inert, 2, 0] = ind[inert, 3, 1] = 1
    return wedge_square_stack(ind)


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
# the rows of `_std_block` in Lambda^2(m): the complement, then e01
_BLOCK_ROWS = np.array((*_COMPLEMENT, _E01))


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
    return _std_outcome(sp, charpoly_reciprocal(block), mu)


def verify_std_decomposition_batch(params):
    """[verify_std_decomposition(sp) for sp in params], refusing the first
    parameter that one refuses: the mu std blocks are cut from one
    Lambda^2(ind) stack and their charpolys come from one
    `charpoly_int_stack`."""
    w = _wedge_ind_stack(params)
    # `_similitude` and `_std_block` over the stack
    r = w[:, _E01] + w[:, _E23]
    mu = r[:, _E01]
    gsp4 = (mu != 0) & (r[:, _E23] == mu) & ~r[:, _COMPLEMENT].any(axis=1)
    block = np.empty((len(params), 5, 5), dtype=np.int64)
    block[:, :, :4] = w[:, _BLOCK_ROWS[:, None], _BLOCK_ROWS[:4]]
    block[:, :, 4] = w[:, _BLOCK_ROWS, _E01] - w[:, _BLOCK_ROWS, _E23]
    polys = charpoly_int_stack(block[gsp4])
    out = []
    for sp, ok, m in zip(params, gsp4.tolist(), mu.tolist()):
        if not ok:
            raise ValueError(_NOT_GSP4)
        out.append(_std_outcome(sp, PolyX._of_ints(polys[len(out)]), m))
    return out


def _std_outcome(sp, block_poly, mu):
    """(ok, report) of the standard factorization at sp of similitude mu,
    given block_poly = det(I - mu std(ind) X)."""
    lhs = _twist(block_poly, 1, mu)  # mu = sp.similitude()
    cq = sp.chi_quadratic
    asai = euler_factor(sp, "asai+").poly
    rhs = _CHI_LINE[cq] * _twist(asai, cq, mu)
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
    entries c(m O_K) live at label "(m)" with norm m^2 (class number 1).

    A row is diagonal when its label is exactly f"({m})" and its norm m^2
    for some m >= 1 ("(02)" or "(\u00b2)" at norm 4 is an ordinary row).
    The diagonal is read once, at construction, into one dict {m: c(m O_K)}
    with c(O_K) = 1, which `diagonal`, `has_diagonal`, the multiplicativity
    check and `asai_dirichlet` all read; `rows` is a read-only view, so the
    two cannot drift apart.  A norm below 1, or a "(1)" row at norm 1 whose
    coefficient is not 1, is a ValueError naming the row."""

    def __init__(self, rows):
        table = {}
        self._diagonal = {1: 1}
        for norm, label, coeff in rows:
            key = (as_index(norm), str(label))
            if key in table:
                raise ValueError(f"duplicate coefficient row {key}")
            table[key] = c = as_index(coeff)
            if key[0] < 1:
                raise ValueError(f"coefficient row {(*key, c)} has norm below 1")
            m = math.isqrt(key[0])
            if m * m == key[0] and key[1] == f"({m})":
                if m == 1 and c != 1:
                    raise ValueError(f"coefficient row {(*key, c)} sets c(O_K) = {c}, not 1")
                self._diagonal[m] = c
        self.rows = MappingProxyType(table)
        self._check_diagonal_multiplicativity()

    def diagonal(self, m) -> int:
        if m not in self._diagonal:
            raise KeyError(f"missing diagonal coefficient c({m} O_K)")
        return self._diagonal[m]

    def has_diagonal(self, m):
        return m in self._diagonal

    def _check_diagonal_multiplicativity(self):
        """c(m) c(n) = c(mn) for coprime 2 <= m < n with m, n, mn all
        diagonal; a failure names the least such (m, n), m first."""
        c = self._diagonal
        ms = sorted(c)
        top = ms[-1]
        for i, m in enumerate(ms):
            if m * m >= top:  # n > m: no product mn is in the table
                break
            if m < 2:
                continue
            cm = c[m]
            for n in ms[i + 1:bisect.bisect_right(ms, top // m)]:
                if math.gcd(m, n) == 1 and m * n in c and cm * c[n] != c[m * n]:
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
    """Coefficients (index 1..N) of zeta(2s) * sum_m c(m O_K) m^{-s}: c(m)
    added at m d^2 for every d^2 <= N, a sieve of about 1.64 N steps."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    diag = tbl._diagonal
    for m in range(1, N + 1):
        if m not in diag:
            raise KeyError(f"missing diagonal coefficient c({m} O_K) below N={N}")
    c = [diag[m] for m in range(1, N + 1)]
    out = c[:]
    for d in range(2, math.isqrt(N) + 1):
        dd = d * d
        out[dd - 1::dd] = map(add, out[dd - 1::dd], c[:N // dd])
    return out


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
    every prime <= N must have a parameter in `params`.

    One sieve marks each n <= N with its least listed prime p, so that
    n = p^k m with p not dividing m and out[n] = c(p^k) out[m]; an n <= N
    left unmarked has no listed prime factor, and the least one is the
    least missing prime."""
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
    least = [0] * (N + 1)
    for p in sorted(series, reverse=True):  # a smaller prime overwrites
        least[p::p] = [p] * (N // p)
    if 0 in least[2:]:
        raise KeyError(f"no Satake parameter for prime {least.index(0, 2)} <= {N}")
    out = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        p = least[n]
        m, k = n // p, 1
        while m % p == 0:
            m //= p
            k += 1
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


# the bounds of one SL2 draw, interleaved: per factor, r in [-3, 3], then the coin
_SL2_LOW = np.array([-3, 0] * 6, dtype=np.int64)
_SL2_HIGH = np.array([4, 2] * 6, dtype=np.int64)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# the bounds of one parameter's draws, by (prime drawn, split): the index
# into _PRIMES when the prime is drawn, then one SL2 draw per matrix
_SATAKE_BOUNDS = {
    (drawn, split): tuple(np.array([bound] * drawn + sl2.tolist() * (1 + split), dtype=np.int64)
                          for bound, sl2 in ((0, _SL2_LOW), (len(_PRIMES), _SL2_HIGH)))
    for drawn in (False, True) for split in (False, True)
}


def _sl2_of(draws):
    """The SL2 element of 12 draws, in `random_sl2`'s order."""
    a, b, c, d = 1, 0, 0, 1
    for r, upper in zip(draws[::2], draws[1::2]):
        if upper:
            b, d = b + a * r, d + c * r
        else:
            a, c = a + b * r, c + d * r
    return (a, b), (c, d)


def random_sl2(rng):
    """A random element of SL2(Z): the product, left to right, of six
    elementary factors [[1, r], [0, 1]] (upper) or [[1, 0], [r, 1]] (lower).

    The draw contract: per factor, first r = rng.integers(-3, 4) (uniform on
    [-3, 3]), then the coin rng.integers(2), 1 for upper and 0 for lower;
    12 draws in this fixed order, taken in one call `rng.integers(_SL2_LOW,
    _SL2_HIGH)`.  That call leaves the stream of 12 scalar calls unchanged:
    numpy draws each bounded int64 of a range below 2^32 from one 32-bit
    word by Lemire's method, for scalar and array bounds alike.  Every
    seeded battery and `lfunc --primes` depends on that order.  The product
    is kept as four ints: an upper factor is a column operation on the
    second column, a lower one on the first."""
    return _sl2_of(rng.integers(_SL2_LOW, _SL2_HIGH).tolist())


def random_satake(rng, p=None, split=None, twist=1):
    """A random parameter with the central-character normalization: split
    parameters have det a = det b = twist (the int +1 or -1; anything else,
    a bool or a float included, is refused);
    inert ones det a = 1, and a twist of -1 leaves them as they are.

    The draw contract: p (when not given) as `_PRIMES[rng.integers(8)]`,
    the stream of `rng.choice(_PRIMES)`; then the coin split (when not
    given); then one `random_sl2` per matrix.  With split given, that is
    `random_satakes(rng, [split], p, twist)[0]`."""
    if split is None:
        _check_twist(twist)
        if p is None:
            p = _PRIMES[int(rng.integers(len(_PRIMES)))]
        split = bool(rng.integers(2))
    return random_satakes(rng, [split], p, twist)[0]


def random_satakes(rng, splits, p=None, twist=1):
    """[random_satake(rng, p, split, twist) for split in splits], from one
    `rng.integers` call whose interleaved bounds take each parameter's
    draws in `random_satake`'s order (its prime, when p is None, then 12
    draws per matrix), so the stream is that of the scalar calls.  A split
    reaches `SatakeParam` as it is, which refuses a non-bool."""
    _check_twist(twist)
    splits = list(splits)
    drawn = p is None
    bounds = [_SATAKE_BOUNDS[drawn, bool(split)] for split in splits]
    if not bounds:
        return []
    low, high = map(np.concatenate, zip(*bounds))
    draws = rng.integers(low, high).tolist()
    out = []
    at = 0
    for split in splits:
        if drawn:
            p = _PRIMES[draws[at]]
            at += 1
        a = _sl2_of(draws[at:at + 12])
        at += 12
        if not split:
            out.append(SatakeParam(p, split, a))
            continue
        b = _sl2_of(draws[at:at + 12])
        at += 12
        if twist == -1:
            # times diag(1, -1): the second column negated
            a, b = (((w, -x), (y, -z)) for (w, x), (y, z) in (a, b))
        out.append(SatakeParam(p, split, a, b))
    return out


def _check_twist(twist):
    if as_sign(twist) is None:
        raise ValueError(f"twist must be +1 or -1, got {twist!r}")
