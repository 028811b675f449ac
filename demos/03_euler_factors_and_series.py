"""Euler factors from Frobenius data, the wedge-square factorization, the
standard-representation map, and the Dirichlet-series identity.

Everything is an exact polynomial or integer computation.  Euler factors
are the reciprocal characteristic polynomials det(I - M X) of explicit
Frobenius matrices M, computed in closed form from the trace and
determinant of each 2x2 block; the factorization identities check them
against the matrices' own characteristic polynomials, and the Dirichlet
series identity is checked coefficient by coefficient.

Run:  python3 demos/03_euler_factors_and_series.py
"""

import numpy as np

from asaikit.lfunc import (
    SatakeParam,
    asai_dirichlet,
    euler_factor,
    euler_product_coefficients,
    eye,
    frobenius_matrix,
    mat,
    random_satake,
    std_map,
    synthetic_table,
    verify_lambda2,
    verify_std_decomposition,
)

print("=" * 72)
print("1. Trivial parameters: the closed-form factors")
print("=" * 72)
sp_split = SatakeParam(5, True, eye(2), eye(2))
sp_inert = SatakeParam(7, False, eye(2))
for sp, which in ((sp_split, "split"), (sp_inert, "inert")):
    for tag in ("ind", "asai+", "asai-"):
        print(f"  {which:5s} {tag:6s} ->", euler_factor(sp, tag).poly)

print()
print("=" * 72)
print("2. The wedge-square factorization at a random parameter")
print("=" * 72)
rng = np.random.default_rng(42)
sp = random_satake(rng, split=False)
print("  inert a =", sp.a)
ok, rep = verify_lambda2(sp, 1)
print("  det(I - L^2(ind) X) =", rep["lhs"])
print("  (1-X)(1+X) det(I - asai^- X) =", rep["rhs"])
print("  identity holds:", ok)

print()
print("=" * 72)
print("3. The standard 5-dimensional representation")
print("=" * 72)
f = frobenius_matrix(sp, "ind")
s = std_map(f)
print("  std(ind Frobenius) is 5 x 5; factorization check:",
      verify_std_decomposition(sp)[0])
z = mat([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
print("  std kills scalars: std(3 I) = I5:", std_map(z) == eye(5))

print()
print("=" * 72)
print("4. The Dirichlet series: zeta(2s) times the diagonal coefficients")
print("=" * 72)
primes = [p for p in range(2, 40) if all(p % d for d in range(2, p))]
params = {p: random_satake(rng, p=p) for p in primes}
tbl = synthetic_table(params, 39)
series = asai_dirichlet(tbl, 39)
product = euler_product_coefficients(params, 39)
print("  first 12 series coefficients: ", series[:12])
print("  first 12 Euler-product coeffs:", product[:12])
print("  all 39 agree:", series == product)
