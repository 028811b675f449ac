"""Exact linear algebra over Z/m for m an odd prime power, and over Z and Q.

Matrices over Z/m are numpy int64 arrays reduced mod m; there is no
floating point anywhere.  Over a prime modulus the solver is plain Gaussian
elimination; over q^n (n >= 2) it uses a diagonal normal form valid for
chain rings (pivoting on entries of minimal q-valuation), which yields a
particular solution plus kernel generators with annihilator exponents.
The package's one determinant (Bareiss), characteristic polynomial
(Berkowitz) and rational elimination (Fraction Gauss-Jordan) work on
nested sequences of int or Fraction entries.

Conventions fixed once for the whole package:
  * Kronecker products order pairs row-major: (i, j) -> i*cols(b) + j.
  * Exterior squares act on e_i ^ e_j, i < j, in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import json
import operator

import numpy as np


@functools.lru_cache(maxsize=None)
def factor_prime_power(m):
    """Return (q, n) with m = q**n for a prime q, or raise ValueError."""
    if m < 2:
        raise ValueError(f"modulus {m} is not a prime power")
    for q in range(2, m + 1):
        if q * q > m and m > 1:
            q = m  # remaining m is prime
        if m % q == 0:
            n = 0
            mm = m
            while mm % q == 0:
                mm //= q
                n += 1
            if mm != 1:
                raise ValueError(f"modulus {m} is not a prime power")
            return q, n
    raise ValueError(f"modulus {m} is not a prime power")


def validate_modulus(m):
    """Check m = q**n with q an odd prime, 3 <= m and (m-1)^2 < 2^63, so
    that a product of two residues fits in int64; return (q, n)."""
    check_int64_products(1, m)
    q, n = factor_prime_power(int(m))
    if q == 2:
        raise ValueError("even moduli are rejected: the modulus must be a power of an odd prime")
    if m < 3:
        raise ValueError("modulus must be >= 3")
    return q, n


def check_int64_products(d, m):
    """Reject modulus m when a length-d dot product of residues mod m can
    leave int64, where numpy would wrap around silently."""
    if d * (int(m) - 1) ** 2 >= 2**63:
        raise ValueError(f"modulus {m} is too large: products of {d} residues "
                         "would overflow int64")


def inverse_mod(a, m):
    a = int(a) % m
    g, x = _ext_gcd(a, m)
    if g != 1:
        raise ZeroDivisionError(f"{a} is not invertible mod {m}")
    return x % m


def _ext_gcd(a, b):
    # returns (g, x) with a*x = g mod b
    x0, x1, r0, r1 = 1, 0, a, b
    while r1:
        s, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - s * x1
    return r0, x0


class Mat:
    """Immutable matrix over Z/m backed by an int64 numpy array."""

    __slots__ = ("a", "mod")

    def __init__(self, entries, mod):
        validate_modulus(mod)
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")
        check_int64_products(a.shape[1], mod)
        a = np.mod(a, mod)
        a.flags.writeable = False
        self.a = a
        self.mod = int(mod)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n, mod):
        return Mat(np.eye(n, dtype=np.int64), mod)

    @staticmethod
    def zeros(r, c, mod):
        return Mat(np.zeros((r, c), dtype=np.int64), mod)

    @staticmethod
    def from_flat(entries, rows, cols, mod):
        a = np.asarray(entries, dtype=np.int64).reshape(rows, cols)
        return Mat(a, mod)

    # -- basic structure ---------------------------------------------------

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.mod == other.mod
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.mod, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat(mod={self.mod},\n{self.a})"

    def _check(self, other):
        if self.mod != other.mod:
            raise ValueError("modulus mismatch")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Mat(self.a + other.a, self.mod)

    def __sub__(self, other):
        self._check(other)
        return Mat(self.a - other.a, self.mod)

    def __neg__(self):
        return Mat(-self.a, self.mod)

    def scale(self, k):
        return Mat(self.a * (int(k) % self.mod), self.mod)

    def __matmul__(self, other):
        self._check(other)
        return Mat(np.mod(self.a @ other.a, self.mod), self.mod)

    @property
    def T(self):
        return Mat(self.a.T, self.mod)

    def pow(self, k):
        if k < 0:
            return self.inverse().pow(-k)
        out = Mat.identity(self.rows, self.mod)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def det(self):
        """Determinant, computed fraction-free over Z then reduced."""
        return det(self.a.tolist()) % self.mod

    def is_invertible(self):
        q, _ = factor_prime_power(self.mod)
        return det(self.a.tolist()) % q != 0

    def inverse(self):
        sol = solve_mod(self.a, np.eye(self.rows, dtype=np.int64), self.mod)
        if sol.particular is None:
            raise ZeroDivisionError("matrix is not invertible")
        inv = Mat(sol.particular, self.mod)
        if (inv @ self) != Mat.identity(self.rows, self.mod):
            raise ZeroDivisionError("matrix is not invertible")
        return inv

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "modulus": self.mod,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [int(x) for x in self.a.reshape(-1)],
        }

    @staticmethod
    def from_json(obj):
        return Mat.from_flat(obj["entries"], obj["rows"], obj["cols"], obj["modulus"])

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


def det(rows):
    """Exact determinant of an int or Fraction matrix (Bareiss, O(n^3)).

    Every division in Bareiss elimination is exact, so int matrices stay in
    Z; a matrix with any Fraction entry is computed over Q throughout.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in rows]
    if any(isinstance(x, Fraction) for r in m for x in r):
        m = [[Fraction(x) for x in r] for r in m]
        div = operator.truediv
    else:
        div = operator.floordiv
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def charpoly(rows):
    """Coefficients [1, c_1, ..., c_n] of det(X I - a) = X^n + c_1 X^(n-1)
    + ... + c_n, for an int or Fraction matrix (Berkowitz, division-free).

    Read lowest degree first, the same list is det(I - a X).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [1]
    poly = [1, -rows[0][0]]
    for r in range(1, n):
        # bordering the leading r x r block A by column c, row s, corner a:
        # the Toeplitz column is 1, -a, -s c, -s A c, ..., -s A^(r-1) c
        s = rows[r][:r]
        v = [rows[i][r] for i in range(r)]
        toeplitz = [1, -rows[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(s, v)))
            v = [sum(rows[i][j] * v[j] for j in range(r)) for i in range(r)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly


def rref_rational(rows):
    """Reduced row echelon form over Q (Fraction Gauss-Jordan).

    Returns (R, pivot_columns) with R a list of Fraction rows.
    """
    R = [[Fraction(x) for x in r] for r in rows]
    nr = len(R)
    nc = len(R[0]) if nr else 0
    pivots = []
    for col in range(nc):
        rank = len(pivots)
        if rank == nr:
            break
        piv = next((i for i in range(rank, nr) if R[i][col] != 0), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        pv = R[rank][col]
        R[rank] = [x / pv for x in R[rank]]
        for i in range(nr):
            if i != rank and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[rank])]
        pivots.append(col)
    return R, pivots


def tensor_product(a: Mat, b: Mat) -> Mat:
    """Kronecker product with row-major pair ordering (i,j) -> i*cols(b)+j."""
    a._check(b)
    return Mat(np.mod(np.kron(a.a, b.a), a.mod), a.mod)


_WEDGE_CACHE: dict[int, list[tuple[int, int]]] = {}


def wedge_pairs(d):
    """Lexicographic list of index pairs (i, j), i < j, for dimension d."""
    if d not in _WEDGE_CACHE:
        _WEDGE_CACHE[d] = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return _WEDGE_CACHE[d]


def wedge_square(m):
    """Lambda^2 of a square matrix of exact entries, as a tuple of rows,
    on e_i ^ e_j (i < j, lex order)."""
    pairs = wedge_pairs(len(m))
    return tuple(
        tuple(m[i][k] * m[j][l] - m[i][l] * m[j][k] for (k, l) in pairs)
        for (i, j) in pairs
    )


def exterior_square(m: Mat) -> Mat:
    """Action induced on e_i ^ e_j (i < j, lex order); size d(d-1)/2."""
    if m.rows != m.cols:
        raise ValueError("exterior square of a non-square matrix")
    if m.rows < 2:
        raise ValueError("exterior square needs dimension >= 2")
    return Mat(wedge_square(m.a.tolist()), m.mod)


@dataclass
class LinearSolution:
    """Result of solve_mod.

    particular  -- one solution (same shape as rhs), or None if inconsistent
    kernel      -- list of (vector, annihilator) pairs: vector generates
                   solutions of A x = 0 and has additive order `annihilator`
                   (a power of q; equal to the modulus for free generators)
    """

    particular: np.ndarray | None
    kernel: list[tuple[np.ndarray, int]]
    modulus: int


def smith_form_mod(a, mod):
    """U A V = D over Z/mod (mod = q^n), D diagonal with q-power pivots.

    Returns (U, D, V, pivots) as int64 arrays, U and V invertible mod `mod`,
    pivots the list of q-valuations of the diagonal entries.
    """
    q, n = factor_prime_power(mod)
    A = np.mod(np.asarray(a, dtype=np.int64), mod).copy()
    r, c = A.shape
    U = np.eye(r, dtype=np.int64)
    V = np.eye(c, dtype=np.int64)
    pivots = []
    k = 0
    while k < min(r, c):
        sub = A[k:, k:]
        if not sub.any():
            break
        # pivot of minimal q-valuation in the remaining block
        if n == 1:
            idx = int(np.argmax(sub.reshape(-1) != 0))
            v = 0
        else:
            val = np.zeros(sub.shape, dtype=np.int64)
            for w in range(1, n):
                val += np.mod(sub, q**w) == 0
            val[sub == 0] = 1 << 30
            idx = int(np.argmin(val.reshape(-1)))
            v = int(val.reshape(-1)[idx])
        i, j = divmod(idx, c - k)
        i += k
        j += k
        if i != k:
            A[[k, i]] = A[[i, k]]
            U[[k, i]] = U[[i, k]]
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            V[:, [k, j]] = V[:, [j, k]]
        piv = int(A[k, k])
        unit = piv // q**v
        uinv = inverse_mod(unit, mod)
        A[k] = (A[k] * uinv) % mod
        U[k] = (U[k] * uinv) % mod
        d = q**v
        # clear the rest of column k (every entry has valuation >= v)
        col = A[:, k].copy()
        col[k] = 0
        if col.any():
            f = col // d
            A -= np.outer(f, A[k])
            U -= np.outer(f, U[k])
            A %= mod
            U %= mod
        # clear the rest of row k
        row = A[k].copy()
        row[k] = 0
        if row.any():
            f = row // d
            A -= np.outer(A[:, k], f)
            V -= np.outer(V[:, k], f)
            A %= mod
            V %= mod
        pivots.append(v)
        k += 1
    D = np.zeros_like(A)
    for i, v in enumerate(pivots):
        D[i, i] = q**v % mod
    return U % mod, D, V % mod, pivots


def solve_mod(a, rhs, mod):
    """Solve A x = rhs over Z/mod for mod any prime power (chain ring core).

    rhs may be a vector or a matrix (each column solved simultaneously).
    Inconsistent systems come back with particular=None, never an exception.
    """
    q, n = factor_prime_power(mod)
    A = np.mod(np.asarray(a, dtype=np.int64), mod)
    b = np.mod(np.asarray(rhs, dtype=np.int64), mod)
    vec = b.ndim == 1
    B = b.reshape(-1, 1) if vec else b
    if A.shape[0] != B.shape[0]:
        raise ValueError("rhs has wrong number of rows")
    r, c = A.shape
    U, D, V, pivots = smith_form_mod(A, mod)
    C = (U @ B) % mod
    Y = np.zeros((c, B.shape[1]), dtype=np.int64)
    ok = True
    for i in range(r):
        if i < len(pivots):
            dv = q ** pivots[i]
            if np.any(C[i] % dv):
                ok = False
                break
            Y[i] = (C[i] // dv) % mod
        else:
            if np.any(C[i]):
                ok = False
                break
    particular = None
    if ok:
        X = (V @ Y) % mod
        particular = X.reshape(-1) if vec else X
    kernel = []
    for i in range(c):
        if i < len(pivots):
            v = pivots[i]
            if v == 0:
                continue
            gen = (V[:, i] * (q ** (n - v))) % mod
            kernel.append((gen, q**v))
        else:
            kernel.append((V[:, i].copy() % mod, mod))
    return LinearSolution(particular, kernel, mod)


def kernel_gens(a, mod):
    """Generators (vector, annihilator) of the right kernel of `a` over Z/mod.

    Over a prime q these are the kernel_mod basis rows, each of annihilator
    q; over q^n (n >= 2) the chain-ring kernel generators of solve_mod.
    """
    q, n = factor_prime_power(mod)
    if n == 1:
        return [(v, q) for v in kernel_mod(a, q)]
    a = np.asarray(a, dtype=np.int64)
    return solve_mod(a, np.zeros(a.shape[0], dtype=np.int64), mod).kernel


# -- fast paths over a prime field ----------------------------------------


def rref_mod(a, p):
    """Reduced row echelon form mod prime p; returns (R, pivot_columns)."""
    A = np.mod(np.asarray(a, dtype=np.int64), p).copy()
    r, c = A.shape
    pivots = []
    row = 0
    for col in range(c):
        if row >= r:
            break
        nz = np.nonzero(A[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            A[[row, i]] = A[[i, row]]
        A[row] = (A[row] * inverse_mod(int(A[row, col]), p)) % p
        other = np.nonzero(A[:, col])[0]
        other = other[other != row]
        if other.size:
            A[other] = (A[other] - np.outer(A[other, col], A[row])) % p
        pivots.append(col)
        row += 1
    return A, pivots


def kernel_mod(a, p):
    """Basis (rows) of the right kernel of `a` mod prime p."""
    A = np.asarray(a, dtype=np.int64)
    c = A.shape[1]
    R, pivots = rref_mod(A, p)
    free = [j for j in range(c) if j not in pivots]
    basis = np.zeros((len(free), c), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, col in enumerate(pivots):
            basis[k, col] = (-R[i, j]) % p
    return basis


def row_space_mod(a, p):
    """Row-space basis (nonzero rows of the rref) mod prime p."""
    R, pivots = rref_mod(a, p)
    return R[: len(pivots)].copy()


def extend_basis(inner, vectors, p):
    """Indices of `vectors` rows extending row-space `inner` to inner+vectors."""
    chosen = []
    cur = inner.copy() if inner.size else inner.reshape(0, vectors.shape[1])
    rank = len(rref_mod(cur, p)[1]) if cur.size else 0
    for i, v in enumerate(vectors):
        cand = np.vstack([cur, v.reshape(1, -1)]) if cur.size else v.reshape(1, -1)
        rk = len(rref_mod(cand, p)[1])
        if rk > rank:
            chosen.append(i)
            cur = cand
            rank = rk
    return chosen


class PolyX:
    """Univariate polynomial in X over exact integers (optionally mod m)."""

    __slots__ = ("coeffs", "mod")

    def __init__(self, coeffs, mod=None):
        cs = [int(x) for x in coeffs]
        if mod is not None:
            cs = [x % mod for x in cs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.mod = mod

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs != (0,) else -1

    def __eq__(self, other):
        return isinstance(other, PolyX) and self.coeffs == other.coeffs and self.mod == other.mod

    def __hash__(self):
        return hash((self.coeffs, self.mod))

    def _wrap(self, cs):
        return PolyX(cs, self.mod)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return self._wrap([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return self._wrap([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap([other * x for x in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return self._wrap(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.mod is not None:
            acc %= self.mod
        return acc

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree() >= 0 and len(self.coeffs) > 1:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*X" if c != 1 else "X")
            else:
                terms.append(f"{c}*X^{i}" if c != 1 else f"X^{i}")
        return " + ".join(terms) if terms else "0"

    @staticmethod
    def x(mod=None):
        return PolyX([0, 1], mod)

    @staticmethod
    def one(mod=None):
        return PolyX([1], mod)
