"""Exact linear algebra over Z/m for m an odd prime power, and over Z and Q.

Matrices over Z/m are numpy int64 arrays reduced mod m; there is no
floating point anywhere.  `Mat` wraps one such array with a checked modulus
for the three decisions that need it: `det`, `is_invertible` and
`inverse`.  One routine, `echelon_mod`, eliminates over the chain ring
Z/q^n by row operations only: it takes the q-valuations v = 0, 1, ..., n-1
in turn and pivots on the leftmost column holding an entry of valuation v,
topmost row first.  Over a prime field that is
Gauss-Jordan elimination.  `rref_mod`, `row_space_mod`, `kernel_mod`,
`extend_basis`, `solve_mod` and `kernel_gens` all read its output; kernel
generators come with their annihilators (one of annihilator q^n per
non-pivot column, one of annihilator q^v per pivot of valuation v > 0) and
their cyclic spans form a direct sum.
One division-free Berkowitz recurrence over Z gives the characteristic
polynomial `charpoly` of a nested sequence of integers and, read off its
constant term, the determinant `det`; `charpoly_stack` runs the same
recurrence over a stack of matrices mod m at once.

Conventions fixed once for the whole package:
  * Kronecker products order pairs row-major: (i, j) -> i*cols(b) + j.
  * Exterior squares act on e_i ^ e_j, i < j, in lexicographic order.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


def split_prime_power(n):
    """(p, k, m) with n = p^k m for an integer n > 1, p the least prime
    factor of n and p not dividing m: the package's one trial division."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return p, k, n


@functools.lru_cache(maxsize=None)
def factor_prime_power(m):
    """Return (q, n) with m = q**n for a prime q, or raise ValueError."""
    if m < 2:
        raise ValueError(f"modulus {m} is not a prime power")
    q, n, rest = split_prime_power(m)
    if rest != 1:
        raise ValueError(f"modulus {m} is not a prime power")
    return q, n


def as_index(x) -> int:
    """x as an int; ValueError unless a Python or numpy integer, not a bool:
    the package's one integer test."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def as_index_array(x) -> np.ndarray:
    """x as an int64 array; ValueError unless its dtype is a signed or
    unsigned integer that casts to int64 safely, so a float, bool, object
    or str array is refused, never truncated: the array twin of `as_index`.
    An empty input (float64 to `np.asarray([])`) converts as int64."""
    a = np.asarray(x)
    if a.size and (a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64)):
        raise ValueError(f"an array of dtype {a.dtype} is not an integer array")
    return a.astype(np.int64, copy=False)


def validate_modulus(m):
    """Check m = q**n with q an odd prime, 3 <= m and (m-1)^2 < 2^63, so
    that a product of two residues fits in int64; return (q, n).  A
    non-integer modulus (7.5, 7.0, "7") is refused, not truncated."""
    m = as_index(m)
    check_int64_products(1, m)
    q, n = factor_prime_power(m)
    if q == 2:
        raise ValueError("even moduli are rejected: the modulus must be a power of an odd prime")
    return q, n


def check_int64_products(d, m):
    """Reject modulus m when a length-d dot product of residues mod m can
    leave int64, where numpy would wrap around silently."""
    if d * (int(m) - 1) ** 2 >= 2**63:
        raise ValueError(f"modulus {m} is too large: products of {d} residues "
                         "would overflow int64")


def inverse_mod(a, m):
    try:
        return pow(int(a), -1, m)
    except ValueError:
        raise ZeroDivisionError(f"{int(a) % m} is not invertible mod {m}") from None


class Mat:
    """Immutable matrix over Z/m, m = q^n, backed by a reduced, read-only
    int64 array.  Arithmetic is done on the arrays."""

    __slots__ = ("a", "mod", "q")

    def __init__(self, entries, mod):
        self.q, _ = validate_modulus(mod)
        a = as_index_array(entries)
        if a.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")
        check_int64_products(a.shape[1], mod)
        a = np.mod(a, mod)
        a.flags.writeable = False
        self.a = a
        self.mod = int(mod)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.mod == other.mod
                and np.array_equal(self.a, other.a))

    def __repr__(self):
        return f"Mat(mod={self.mod},\n{self.a})"

    def det(self):
        """Determinant, computed division-free over Z then reduced."""
        return det(self.a.tolist()) % self.mod

    def is_invertible(self):
        return det(self.a.tolist()) % self.q != 0

    def inverse(self):
        eye = np.eye(self.a.shape[0], dtype=np.int64)
        inv = solve_mod(self.a, eye, self.mod)
        if inv is None or not np.array_equal(inv @ self.a % self.mod, eye):
            raise ZeroDivisionError("matrix is not invertible")
        return Mat(inv, self.mod)


def det(rows):
    """Exact determinant: (-1)^n times the constant term of `charpoly`,
    so division-free like it."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return (-1) ** n * charpoly(rows)[n]


def charpoly(rows):
    """Coefficients [1, c_1, ..., c_n] of det(X I - a) = X^n + c_1 X^(n-1)
    + ... + c_n, for an integer matrix (Berkowitz: division-free, so any
    exact entries work).

    Read lowest degree first, the same list is det(I - a X).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [1]
    mul = operator.mul
    poly = [1, -rows[0][0]]
    for r in range(1, n):
        # bordering the leading r x r block A by column c, row s, corner a:
        # the Toeplitz column is 1, -a, -s c, -s A c, ..., -s A^(r-1) c.
        # map stops at the end of v, so full rows act as A's rows and as s.
        block, s = rows[:r], rows[r]
        v = [row[r] for row in block]
        toeplitz = [1, -s[r], -sum(map(mul, v, s))]
        for _ in range(r - 1):
            v = [sum(map(mul, v, row)) for row in block]
            toeplitz.append(-sum(map(mul, v, s)))
        # the product with poly, truncated to degree r + 1 (poly[0] is 1)
        new = toeplitz[:]
        for j in range(1, r + 1):
            c = poly[j]
            if c:
                for i in range(j, r + 2):
                    new[i] += c * toeplitz[i - j]
        poly = new
    return poly


def polymul_stack(a, b, mod):
    """Products mod m of two stacks of polynomials, row by row: (N, k) and
    (N, l) coefficients, lowest degree first, give (N, k + l - 1).

    Each coefficient sums at most min(k, l) residue products before it is
    reduced, so check_int64_products(min(k, l), mod) keeps it exact.
    """
    a = np.mod(np.asarray(a, dtype=np.int64), mod)
    b = np.mod(np.asarray(b, dtype=np.int64), mod)
    k, l = a.shape[1], b.shape[1]
    out = np.zeros((a.shape[0], k + l - 1), dtype=np.int64)
    for j in range(l):
        out[:, j:j + k] += a * b[:, j:j + 1]
    return out % mod


def charpoly_stack(a, mod):
    """Coefficients of det(I - a X) mod m for each matrix of an (N, n, n)
    stack, as an (N, n + 1) array, lowest degree first: row i is
    `charpoly(a[i])` reduced mod m.

    The same Berkowitz recurrence as `charpoly`, division-free and so valid
    over Z/m, with every dot product, matvec and Toeplitz product taken once
    over the whole stack.  Each sums at most n residue products before it is
    reduced mod m, so check_int64_products(n, mod) keeps it exact.
    """
    a = np.mod(np.asarray(a, dtype=np.int64), mod)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("characteristic polynomials of a stack of square matrices")
    n = a.shape[1]
    check_int64_products(n, mod)
    poly = np.ones((a.shape[0], 1), dtype=np.int64)
    for r in range(n):
        # bordering the leading r x r block A by column c, row s, corner a:
        # the Toeplitz column is 1, -a, -s c, -s A c, ..., -s A^(r-1) c
        s = a[:, r, :r]
        v = a[:, :r, r]
        toeplitz = np.empty((a.shape[0], r + 2), dtype=np.int64)
        toeplitz[:, 0] = 1
        toeplitz[:, 1] = -a[:, r, r] % mod
        for k in range(r):
            toeplitz[:, k + 2] = -(s * v).sum(axis=1) % mod
            v = (a[:, :r, :r] @ v[:, :, None])[:, :, 0] % mod
        poly = polymul_stack(toeplitz, poly, mod)[:, :r + 2]
    return poly


@functools.lru_cache(maxsize=None)
def wedge_pairs(d):
    """Lexicographic tuple of index pairs (i, j), i < j, for dimension d."""
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


def wedge_square(m):
    """Lambda^2 of a square matrix of exact entries, as a tuple of rows,
    on e_i ^ e_j (i < j, lex order)."""
    pairs = wedge_pairs(len(m))
    return tuple(
        tuple(m[i][k] * m[j][l] - m[i][l] * m[j][k] for (k, l) in pairs)
        for (i, j) in pairs
    )


def exterior_square(a, mod):
    """Exterior squares mod m of an (N, d, d) stack, as the (N, D, D) stack
    of their actions on e_i ^ e_j (i < j, lex order), D = d(d-1)/2.

    Each is `wedge_square` of the reduced matrix; its entries xy - zw lie
    within +-(m-1)^2, which fits int64 for every valid modulus.
    """
    validate_modulus(mod)
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("exterior square of a non-square matrix")
    d = a.shape[1]
    if d < 2:
        raise ValueError("exterior square needs dimension >= 2")
    D = d * (d - 1) // 2
    wedges = [wedge_square(m) for m in np.mod(a, mod).tolist()]
    return np.array(wedges, dtype=np.int64).reshape(len(a), D, D) % mod


def echelon_mod(a, mod, rhs=None):
    """Row echelon form of `a` over Z/mod, mod = q^n, by row operations only.

    Valuation levels v = 0, 1, ..., n-1 are taken in turn.  Within a level
    the pivot is the leftmost unused column holding an entry of valuation v
    in the rows not yet pivoted, at the topmost such row; the pivot row is
    scaled so that its pivot is q^v, and every other entry of the pivot
    column that q^v divides is cleared.  That is every entry below, so a
    column left of the pivot never regains a valuation-v entry and one scan
    per level suffices.  Over a prime field (n = 1) this is Gauss-Jordan
    elimination and E is the reduced row echelon form.

    Returns (E, pivots, B).  Row i of E holds the pivot pivots[i] =
    (column, v), is zero in the columns of the earlier pivots, and has every
    entry divisible by q^v; the rows past the last pivot are zero.  B is
    `rhs` (a matrix with the rows of `a`, or None) under the same row
    operations.
    """
    q, n = factor_prime_power(mod)
    A = np.mod(np.asarray(a, dtype=np.int64), mod)
    B = None if rhs is None else np.mod(np.asarray(rhs, dtype=np.int64), mod)
    r, c = A.shape
    used = [False] * c
    pivots = []
    row = 0
    for v in range(n):
        d = q**v
        for col in range(c):
            if row == r:
                return A, pivots, B
            if used[col]:
                continue
            # rows not yet pivoted hold entries of valuation >= v here
            below = A[row:, col]
            if v < n - 1:
                below = below % (d * q)
            hit = np.nonzero(below)[0]
            if hit.size == 0:
                continue
            i = row + int(hit[0])
            if i != row:
                A[[row, i]] = A[[i, row]]
                if B is not None:
                    B[[row, i]] = B[[i, row]]
            unit = int(A[row, col]) // d
            if unit != 1:
                uinv = inverse_mod(unit, mod)
                A[row] = A[row] * uinv % mod
                if B is not None:
                    B[row] = B[row] * uinv % mod
            column = A[:, col]
            other = np.nonzero((column % d == 0) & (column != 0) if v else column)[0]
            other = other[other != row]
            if other.size:
                f = column[other] // d if v else column[other]
                A[other] = (A[other] - np.outer(f, A[row])) % mod
                if B is not None:
                    B[other] = (B[other] - np.outer(f, B[row])) % mod
            used[col] = True
            pivots.append((col, v))
            row += 1
    return A, pivots, B


def _solve_echelon(a, rhs, mod):
    """Solve A X = rhs for a matrix rhs, or find the kernel when rhs is None.

    Returns (X, anns).  For a right-hand side X is one solution, or None
    when the system is inconsistent, and anns is empty.  For the kernel the
    rows of X generate it, row t with additive order anns[t], and their
    cyclic spans form a direct sum: a pivot (column, v) with v > 0 gives a
    generator of order q^v, seeded with q^(n-v) in its column, and each
    non-pivot column gives one of order mod, seeded with 1.  Entries in the
    other pivot columns come from one back-substitution for all columns.
    """
    q, n = factor_prime_power(mod)
    E, pivots, B = echelon_mod(a, mod, rhs)
    c = E.shape[1]
    k = len(pivots)
    cols = [j for j, _ in pivots]
    scale = np.array([q**v for _, v in pivots], dtype=np.int64).reshape(k, 1)
    free = np.ones(c, dtype=bool)
    free[cols] = False
    torsion = [i for i, (_, v) in enumerate(pivots) if v]
    if B is not None:
        if B[k:].any() or (B[:k] % scale).any():
            return None, []
        anns = []
        X = np.zeros((c, B.shape[1]), dtype=np.int64)
        X[cols] = B[:k] // scale  # free variables are 0
    else:
        anns = [q ** pivots[i][1] for i in torsion] + [mod] * int(free.sum())
        X = np.zeros((c, len(anns)), dtype=np.int64)
        for t, i in enumerate(torsion):
            X[cols[i], t] = q ** (n - pivots[i][1])
        X[free, len(torsion):] = np.eye(len(anns) - len(torsion), dtype=np.int64)
        if not torsion:
            # unit pivots: E is reduced, so each pivot variable reads off directly
            X[cols] = -E[:k][:, free] % mod
    if torsion:
        # row i of E / q^v pins column j given the free and later pivot columns
        for i in range(k - 1, -1, -1):
            j = cols[i]
            row = E[i] // scale[i]
            row[j] = 0
            X[j] = (X[j] - row @ X) % mod
    return (X, anns) if B is not None else (np.ascontiguousarray(X.T), anns)


def solve_mod(a, rhs, mod):
    """One solution x of A x = rhs over Z/mod, mod any prime power, shaped
    like rhs, or None when the system is inconsistent (never an exception).

    rhs may be a vector or a matrix (each column solved simultaneously).
    Kernels come from `kernel_gens` or `kernel_mod`.
    """
    b = np.asarray(rhs, dtype=np.int64)
    vec = b.ndim == 1
    B = b.reshape(-1, 1) if vec else b
    if np.shape(a)[0] != B.shape[0]:
        raise ValueError("rhs has wrong number of rows")
    x = _solve_echelon(a, B, mod)[0]
    return x.reshape(-1) if x is not None and vec else x


def kernel_gens(a, mod):
    """Generators (vector, annihilator) of the right kernel of `a` over
    Z/mod whose cyclic spans form a direct sum (the generators of
    annihilator mod span the free part)."""
    gens, anns = _solve_echelon(a, None, mod)
    return list(zip(gens, anns))


def rref_mod(a, p):
    """Reduced row echelon form mod prime p; returns (R, pivot_columns)."""
    R, pivots, _ = echelon_mod(a, p)
    return R, [j for j, _ in pivots]


def kernel_mod(a, p):
    """Basis (rows) of the right kernel of `a` mod prime p."""
    return _solve_echelon(a, None, p)[0]


def row_space_mod(a, p):
    """Row-space basis (nonzero rows of the rref) mod prime p."""
    R, pivots = rref_mod(a, p)
    return R[: len(pivots)].copy()


def extend_basis(inner, vectors, p):
    """Indices of `vectors` rows extending row-space `inner` to inner+vectors:
    the pivot columns past `inner` of one rref of [inner; vectors]^T."""
    k = len(inner)
    stacked = np.vstack([np.reshape(inner, (k, vectors.shape[1])), vectors])
    return [j - k for j in rref_mod(stacked.T, p)[1] if j >= k]


class PolyX:
    """Univariate polynomial in X with integer coefficients, constant term
    first: the Euler factors of `lfunc`.  The package's one modular
    polynomial product is `polymul_stack`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [operator.index(x) for x in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs != (0,) else -1

    def __eq__(self, other):
        return isinstance(other, PolyX) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return PolyX(out)

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
