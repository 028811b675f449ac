"""Computations made apart from asaikit, used to check its answers.

Nothing here calls into the package: the oracles take plain integers,
Fractions and numpy arrays and recompute a result by a different method.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def reciprocal_charpoly(m) -> list:
    """Coefficients of det(I - m X) by Faddeev-LeVerrier over Fractions.

    With det(x I - m) = x^n + c_1 x^(n-1) + ... + c_n, the reciprocal
    polynomial is 1 + c_1 X + ... + c_n X^n.  Trailing zeros are dropped.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    mk = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        c_prev = coeffs[-1]
        # M_k = A M_{k-1} + c_{k-1} I
        prod = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            prod[i][i] += c_prev
        mk = prod
        tr = sum(sum(a[i][t] * mk[t][i] for t in range(n)) for i in range(n))
        coeffs.append(-tr / k)
    out = [int(c) if c.denominator == 1 else c for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _closure(mul, gens, one):
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = int(mul[a, s])
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def h1_dim_brute_force(mul, elements, images, q) -> int:
    """dim H^1 of a module over F_q by counting cocycles and coboundaries.

    `mul` is the ambient multiplication table, `elements` the subgroup the
    module lives on (in the order of `images`), `images[i]` the d x d action
    of `elements[i]`.  Every assignment of values on a generating set is
    extended along words and kept when phi(gh) = phi(g) + g.phi(h) holds for
    all pairs; |H^1| = |Z^1| / |B^1| is then a power of q.
    """
    els = [int(e) for e in elements]
    pos = {e: i for i, e in enumerate(els)}
    k = len(els)
    d = images.shape[1]
    eye = np.eye(d, dtype=np.int64)
    one = next(e for e in els if np.array_equal(images[pos[e]], eye)
               and all(int(mul[e, x]) == x for x in els))
    gens: list[int] = []
    span = {one}
    for e in els:
        if e not in span:
            gens.append(e)
            span = _closure(mul, gens, one)
    if len(span) != k:
        raise ValueError("elements do not form a subgroup")
    # breadth-first words: each element as (parent element, generator)
    order = [one]
    step = {one: None}
    for a in order:
        for s in gens:
            b = int(mul[a, s])
            if b not in step:
                step[b] = (a, s)
                order.append(b)
    idx = np.array(els)
    prod_pos = np.vectorize(pos.get)(mul[np.ix_(idx, idx)])
    z1 = 0
    for values in itertools.product(range(q), repeat=d * len(gens)):
        on_gen = {s: np.array(values[i * d:(i + 1) * d], dtype=np.int64)
                  for i, s in enumerate(gens)}
        phi = np.zeros((k, d), dtype=np.int64)
        for b in order[1:]:
            a, s = step[b]
            phi[pos[b]] = (phi[pos[a]] + images[pos[a]] @ on_gen[s]) % q
        rhs = (phi[:, None, :] + np.einsum("aij,bj->abi", images, phi)) % q
        if np.array_equal(phi[prod_pos], rhs):
            z1 += 1
    b1 = {tuple(((images @ np.array(x)) - np.array(x)).reshape(-1) % q)
          for x in itertools.product(range(q), repeat=d)}
    ratio = z1 // len(b1)
    if ratio * len(b1) != z1:
        raise AssertionError("coboundaries do not divide cocycles")
    dim = 0
    while ratio > 1:
        if ratio % q:
            raise AssertionError("|H^1| is not a power of q")
        ratio //= q
        dim += 1
    return dim


def invert_2x2_mod(u, mod):
    """Inverse of a 2x2 matrix of Python ints mod `mod`, or None if singular."""
    (a, b), (c, d) = u
    try:
        dinv = pow((a * d - b * c) % mod, -1, mod)
    except ValueError:
        return None
    return np.array([[d * dinv % mod, -b * dinv % mod],
                     [-c * dinv % mod, a * dinv % mod]], dtype=np.int64)


def scalar_multiple_mod(got, ref, q) -> bool:
    """got = c * ref mod q for one nonzero scalar c (both nonzero)."""
    got = [int(x) % q for x in got]
    ref = [int(x) % q for x in ref]
    if len(got) != len(ref) or not any(ref) or not any(got):
        return False
    i = next(i for i, r in enumerate(ref) if r)
    c = got[i] * pow(ref[i], -1, q) % q
    return all((g - c * r) % q == 0 for g, r in zip(got, ref))
