"""Exact linear algebra over Z/m for m an odd prime power, and over Z and Q.

Matrices over Z/m are numpy int64 arrays reduced mod m; there is no
floating point anywhere.  `Mat` wraps one such array with a checked modulus
for the three decisions that need it: `det`, `is_invertible` and
`inverse`.  One routine, `echelon_mod`, eliminates over the chain ring
Z/q^n by row operations only: it takes the q-valuations v = 0, 1, ..., n-1
in turn and pivots on the leftmost column holding an entry of valuation v,
topmost row first.  Over a prime field that is
Gauss-Jordan elimination.  `rref_mod`, `row_space_mod`, `kernel_mod`,
`extend_basis`, `solve_mod` and `kernel_gens` all read its output, and
`solver_mod` replays one elimination for many right-hand sides; kernel
generators come with their annihilators (one of annihilator q^n per
non-pivot column, one of annihilator q^v per pivot of valuation v > 0) and
their cyclic spans form a direct sum.
One division-free Berkowitz recurrence over Z gives the characteristic
polynomial `charpoly` of a nested sequence of integers and, read off its
constant term, the determinant `det`; `charpoly_stack` runs the same
recurrence over a stack of matrices mod m at once, and `charpoly_int_stack`
lifts it to a stack over Z by the small-primes modular method: a coefficient
bound picks how many primes of `_CRT_PRIMES` to run, and the Chinese
remainder theorem combines their residues, so the result is certified, not
probabilistic.

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


def as_sign(x):
    """x as the int +1 or -1, or None for anything else: a bool, a float or
    another integer.  The package's one +-1 test; each caller writes its
    own refusal."""
    try:
        x = as_index(x)
    except ValueError:
        return None
    return x if x in (1, -1) else None


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only in place: an answer that is shared cannot be
    written into by one of its readers."""
    a.flags.writeable = False
    return a


def as_index_array(x) -> np.ndarray:
    """x as an int64 array; ValueError unless its dtype is a signed or
    unsigned integer that casts to int64 safely, so a float, bool, object
    or str array is refused, never truncated: the array twin of `as_index`.
    A Python sequence holding a bool is refused too, since numpy reads a
    bool among ints as 0 or 1.  An empty input (float64 to `np.asarray([])`)
    converts as int64."""
    a = np.asarray(x)
    if a.dtype != np.int64:
        if a.size and (a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64)):
            raise ValueError(f"an array of dtype {a.dtype} is not an integer array")
        a = a.astype(np.int64)
    if not isinstance(x, np.ndarray) and _holds_bool(x):
        raise ValueError(f"{x!r} holds a bool, so it is not an integer array")
    return a


def _holds_bool(x):
    if isinstance(x, (list, tuple)):
        return any(map(_holds_bool, x))
    return isinstance(x, (bool, np.bool_)) or (isinstance(x, np.ndarray) and x.dtype == bool)


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
        self.a = read_only(np.mod(a, mod))
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
    a = np.mod(as_index_array(a), mod)
    b = np.mod(as_index_array(b), mod)
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
    a = np.mod(as_index_array(a), mod)
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


# primes just below 2^29, largest first: n (p - 1)^2 < 2^63 for every n <= 32,
# so `charpoly_stack` stays exact mod each of them up to dimension 32; their
# product (696 bits) caps the coefficient bound `charpoly_int_stack` accepts
_CRT_PRIMES = (
    536870909, 536870879, 536870869, 536870849, 536870839, 536870837,
    536870819, 536870813, 536870791, 536870779, 536870767, 536870743,
    536870729, 536870723, 536870717, 536870701, 536870683, 536870657,
    536870641, 536870627, 536870611, 536870603, 536870599, 536870573,
)


def charpoly_int_stack(a):
    """Coefficients [1, c_1, ..., c_n] of det(I - a X) for each matrix of an
    (N, n, n) integer stack, as N lists of Python ints: row i is
    `charpoly(a[i])`, exactly.

    Every eigenvalue has modulus at most B, the largest absolute row sum of
    the stack, so |c_k| <= C(n, k) B^k.  `charpoly_stack` runs mod the
    primes of `_CRT_PRIMES` in turn until their product P exceeds twice
    that bound; Garner's mixed-radix form of the Chinese remainder theorem
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5) combines
    the residues, and the residue in (-P/2, P/2] is the coefficient.

    A ValueError, never a wrap, refuses entries that `as_index_array`
    refuses, a bound beyond the product of all the primes, and a dimension
    n at which `check_int64_products(n, p)` refuses a prime it needs."""
    a = as_index_array(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("characteristic polynomials of a stack of square matrices")
    n = a.shape[2]
    mags = np.abs(a).view(np.uint64)  # |x| exactly, -2^63 included
    if n * int(mags.max(initial=0)) < 2**64:
        B = int(mags.sum(axis=2).max(initial=0))
    else:
        B = max(sum(map(abs, row)) for row in a.reshape(-1, n).tolist())
    bound = 2 * max(math.comb(n, k) * B**k for k in range(n + 1))
    primes, P = [], 1
    for p in _CRT_PRIMES:
        if P > bound:
            break
        check_int64_products(n, p)
        primes.append(p)
        P *= p
    if P <= bound:
        raise ValueError(f"charpoly coefficients bounded by {bound.bit_length() - 1} "
                         f"bits need more than the {len(_CRT_PRIMES)} primes "
                         f"({P.bit_length()} bits)")
    # Garner: x = v_0 + p_0 (v_1 + p_1 (v_2 + ...)), each digit v_i in [0, p_i)
    digits = []
    for p in primes:
        v = charpoly_stack(a, p).reshape(-1)
        for q, d in zip(primes, digits):
            v = (v - d) * pow(q, -1, p) % p
        digits.append(v)
    # the top digits in int64 while their partial product fits, then Python ints
    acc, span = digits[-1], primes[-1]
    j = len(primes) - 2
    while j >= 0 and span * primes[j] < 2**63:
        acc = acc * primes[j] + digits[j]
        span *= primes[j]
        j -= 1
    if j < 0:
        coeffs = (acc - P * (acc > P // 2)).tolist()
    else:
        acc = acc.tolist()
        for p, d in zip(primes[j::-1], digits[j::-1]):
            acc = [x * p + y for x, y in zip(acc, d.tolist())]
        half = P // 2
        coeffs = [x - P if x > half else x for x in acc]
    return [coeffs[i:i + n + 1] for i in range(0, len(coeffs), n + 1)]


@functools.lru_cache(maxsize=None)
def wedge_pairs(d):
    """Lexicographic tuple of index pairs (i, j), i < j, for dimension d."""
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


def wedge_square(m):
    """Lambda^2 of a square matrix of exact entries, as a tuple of rows,
    on e_i ^ e_j (i < j, lex order)."""
    pairs = wedge_pairs(len(m))
    out = []
    for i, j in pairs:
        mi, mj = m[i], m[j]
        out.append(tuple([mi[k] * mj[l] - mi[l] * mj[k] for k, l in pairs]))
    return tuple(out)


def wedge_square_stack(a):
    """`wedge_square` of each matrix of an (N, d, d) integer stack, as the
    (N, D, D) int64 stack, D = d(d-1)/2, in one gather per factor.

    Its entries xy - zw must fit int64: with M the largest absolute entry,
    M^2 < 2^63 for a stack of entries >= 0 and 2 M^2 < 2^63 otherwise, or
    it is a ValueError, never a wrap."""
    a = as_index_array(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("exterior square of a non-square matrix")
    top = int(np.abs(a).view(np.uint64).max(initial=0))
    if (1 if a.min(initial=0) >= 0 else 2) * top * top >= 2**63:
        raise ValueError(f"exterior square of entries up to {top} in absolute "
                         "value would overflow int64")
    i, j = (np.array(ix, dtype=np.intp).reshape(-1, 1)
            for ix in zip(*wedge_pairs(a.shape[1])))
    # row pair (i, j), column pair (k, l) = (i.T, j.T): a_ik a_jl - a_il a_jk
    return a[:, i, i.T] * a[:, j, j.T] - a[:, i, j.T] * a[:, j, i.T]


def exterior_square(a, mod):
    """Exterior squares mod m of an (N, d, d) stack, as the (N, D, D) stack
    of their actions on e_i ^ e_j (i < j, lex order), D = d(d-1)/2.

    Each is `wedge_square` of the reduced matrix; its entries xy - zw lie
    within +-(m-1)^2, which fits int64 for every valid modulus.
    """
    validate_modulus(mod)
    a = as_index_array(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("exterior square of a non-square matrix")
    if a.shape[1] < 2:
        raise ValueError("exterior square needs dimension >= 2")
    return wedge_square_stack(np.mod(a, mod)) % mod


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
    operations: it rides along as extra columns of one matrix, which the
    pivot search never enters.
    """
    q, n = factor_prime_power(mod)
    A = np.mod(as_index_array(a), mod)
    r, c = A.shape
    if rhs is not None:
        A = np.hstack([A, np.mod(as_index_array(rhs), mod)])
    used = [False] * c
    pivots = []
    row = 0
    for v in range(n):
        d = q**v
        for col in range(c):
            if row == r:
                break
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
            unit = int(A[row, col]) // d
            if unit != 1:
                A[row] = A[row] * inverse_mod(unit, mod) % mod
            column = A[:, col]
            other = np.nonzero((column % d == 0) & (column != 0) if v else column)[0]
            other = other[other != row]
            if other.size:
                f = column[other] // d if v else column[other]
                A[other] = (A[other] - np.outer(f, A[row])) % mod
            used[col] = True
            pivots.append((col, v))
            row += 1
    return A[:, :c], pivots, None if rhs is None else A[:, c:]


def _pivot_scales(pivots, mod):
    """(the pivot columns, their scales q^v as a (k, 1) array, the indices
    of the torsion pivots, those with v > 0)."""
    q, _ = factor_prime_power(mod)
    cols = np.array([j for j, _ in pivots], dtype=np.intp)
    scale = np.array([q**v for _, v in pivots], dtype=np.int64).reshape(len(pivots), 1)
    return cols, scale, [i for i, (_, v) in enumerate(pivots) if v]


def _back_substitute(E, cols, scale, X, mod):
    """Fill the pivot rows of X from its other rows, in place, for an
    echelon form E with torsion pivots: one pass for all columns of X."""
    for i in range(len(cols) - 1, -1, -1):
        # row i of E / q^v pins column j given the free and later pivot columns
        j = cols[i]
        row = E[i] // scale[i]
        row[j] = 0
        X[j] = (X[j] - row @ X) % mod


def _solution_reader(E, pivots, mod):
    """`B -> X`, one solution of A X = B with its free variables 0, or None
    when the system is inconsistent, from the echelon form E of A, its
    pivots and B under the same row operations.  What depends on E alone is
    read once, here: `solve_mod` reads one B, a `solver_mod` many."""
    cols, scale, torsion = _pivot_scales(pivots, mod)
    k, c = len(cols), E.shape[1]

    def read(B):
        if B[k:].any() or torsion and (B[:k] % scale).any():
            return None
        X = np.zeros((c, B.shape[1]), dtype=np.int64)
        if torsion:
            X[cols] = B[:k] // scale
            _back_substitute(E, cols, scale, X, mod)
        else:
            X[cols] = B[:k]
        return X

    return read


def _kernel_echelon(E, pivots, mod):
    """Generators of the right kernel of A, as rows, and their additive
    orders, from the echelon form E of A and its pivots.  Their cyclic spans
    form a direct sum: a pivot (column, v) with v > 0 gives a generator of
    order q^v, seeded with q^(n-v) in its column, and each non-pivot column
    gives one of order mod, seeded with 1.  Entries in the other pivot
    columns come from one back-substitution for all generators."""
    q, n = factor_prime_power(mod)
    cols, scale, torsion = _pivot_scales(pivots, mod)
    free = np.ones(E.shape[1], dtype=bool)
    free[cols] = False
    anns = [q ** pivots[i][1] for i in torsion] + [mod] * int(free.sum())
    X = np.zeros((E.shape[1], len(anns)), dtype=np.int64)
    for t, i in enumerate(torsion):
        X[cols[i], t] = q ** (n - pivots[i][1])
    X[free, len(torsion):] = np.eye(len(anns) - len(torsion), dtype=np.int64)
    if torsion:
        _back_substitute(E, cols, scale, X, mod)
    else:
        # unit pivots: E is reduced, so each pivot variable reads off directly
        X[cols] = -E[:len(cols)][:, free] % mod
    return np.ascontiguousarray(X.T), anns


def solve_mod(a, rhs, mod):
    """One solution x of A x = rhs over Z/mod, mod any prime power, shaped
    like rhs, or None when the system is inconsistent (never an exception).

    rhs may be a vector or a matrix (each column solved simultaneously); it
    rides through `echelon_mod` as extra columns.  Kernels come from
    `kernel_gens` or `kernel_mod`.  For many right-hand sides against one
    A, `solver_mod` eliminates once.
    """
    B, vec = _as_rhs(rhs, np.shape(a)[0])
    E, pivots, B = echelon_mod(a, mod, B)
    x = _solution_reader(E, pivots, mod)(B)
    return x.reshape(-1) if x is not None and vec else x


def solver_mod(a, mod):
    """`rhs -> solve_mod(a, rhs, mod)`, with one elimination of `a` for
    every call.

    `echelon_mod` runs once, carrying the identity, so it also yields P,
    the product of its row operations.  A call replays them as P rhs, each
    product of two residues (below mod^2 < 2^63) reduced before the row
    sum (below rows * mod), and reads the answer with `solve_mod`'s
    `_solution_reader`, built once.  The row operations are linear mod m
    and the pivot search never enters the carried columns, so P rhs is the
    rhs that `solve_mod` carries, entry for entry: the answer is the same,
    None for an inconsistent system included.
    """
    rows = np.shape(a)[0]
    E, pivots, P = echelon_mod(a, mod, np.eye(rows, dtype=np.int64))
    read = _solution_reader(read_only(E), pivots, mod)
    P = read_only(P)

    def solve(rhs):
        B, vec = _as_rhs(rhs, rows)
        x = read((P[:, :, None] * (B % mod) % mod).sum(axis=1) % mod)
        return x.reshape(-1) if x is not None and vec else x

    return solve


def _as_rhs(rhs, rows):
    """(rhs as an int64 matrix of `rows` rows, whether rhs was a vector)."""
    b = as_index_array(rhs)
    vec = b.ndim == 1
    B = b.reshape(-1, 1) if vec else b
    if rows != B.shape[0]:
        raise ValueError("rhs has wrong number of rows")
    return B, vec


def kernel_gens(a, mod):
    """Generators (vector, annihilator) of the right kernel of `a` over
    Z/mod whose cyclic spans form a direct sum (the generators of
    annihilator mod span the free part)."""
    gens, anns = _kernel_echelon(*echelon_mod(a, mod)[:2], mod)
    return list(zip(gens, anns))


def rref_mod(a, p):
    """Reduced row echelon form mod prime p; returns (R, pivot_columns)."""
    R, pivots, _ = echelon_mod(a, p)
    return R, [j for j, _ in pivots]


def kernel_mod(a, p):
    """Basis (rows) of the right kernel of `a` mod prime p."""
    return _kernel_echelon(*echelon_mod(a, p)[:2], p)[0]


def row_space_mod(a, p):
    """Row-space basis (nonzero rows of the rref) mod prime p."""
    R, pivots = rref_mod(a, p)
    return R[: len(pivots)].copy()


def extend_basis(inner, vectors, p):
    """Indices of `vectors` rows extending row-space `inner` to inner+vectors:
    the pivot columns past `inner` of one rref of [inner; vectors]^T."""
    k = len(inner)
    stacked = np.vstack([as_index_array(inner).reshape(k, vectors.shape[1]), vectors])
    return [j - k for j in rref_mod(stacked.T, p)[1] if j >= k]


class PolyX:
    """Univariate polynomial in X with integer coefficients, constant term
    first: the Euler factors of `lfunc`.  The package's one modular
    polynomial product is `polymul_stack`.

    Coefficients are checked once, where they enter: `PolyX(coeffs)` runs
    `operator.index` on each, so a float or a Fraction is a TypeError.  The
    package's own integer results (products, `lfunc`'s twists, charpolys
    and closed forms) are built by `PolyX._of_ints`, which only strips the
    trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _stripped(list(map(operator.index, coeffs)))

    @classmethod
    def _of_ints(cls, cs):
        """The polynomial of a list cs of Python ints, taken unchecked and
        consumed: only `exactalg` and `lfunc` call it, on their own results."""
        poly = object.__new__(cls)
        poly.coeffs = _stripped(cs)
        return poly

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs != (0,) else -1

    def __eq__(self, other):
        return isinstance(other, PolyX) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return PolyX._of_ints(out)

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


def _stripped(cs):
    """The list cs without its trailing zeros (one 0 is kept), as a tuple."""
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)
