"""A tour of tensor induction at desk scale.

We take a finite group G with an index-2 subgroup H and a chosen coset
representative, build the two canonical extensions of rho (x) rho^c to G,
and watch the identities that make the construction tick: transfer on
characters, multiplicativity, duality, the sign twist, and the wedge-square
decomposition of the induced representation -- including the arithmetic
obstruction that decides whether the two invariant lines exist at all.

Run:  python3 demos/01_tensor_induction_tour.py
"""

from asaikit.exactalg import exterior_square
from asaikit.fixtures import f20_fixture, m40_fixture, s3_fixture
from asaikit.grouprep import (
    Rep,
    classify_pairing,
    coset_sign_character,
    dual_twist,
    induce,
    intertwiner_space,
    is_isomorphic,
    isotypic_lines,
    tensor_induce,
    transfer_character,
    trivial_character,
)

print("=" * 72)
print("1. The smallest example: S3 over C3, a cubic character mod 7")
print("=" * 72)
s3 = s3_fixture()
chi = s3.rep("chi3")
asp = tensor_induce(chi, +1)
print("As+(chi_3) values on S3:", [asp.value(g) for g in range(6)])
print("transfer character:     ", [transfer_character(chi).value(g) for g in range(6)])
print("As+(character) = transfer of the character:", asp == transfer_character(chi))

print()
print("=" * 72)
print("2. The order-20 Frobenius group: a 2-dimensional representation")
print("=" * 72)
f20 = f20_fixture(11)
rho = f20.rep("rho")
ind = induce(rho)
print("dim End(ind rho) =", len(intertwiner_space(ind, ind)),
      " (1 = absolutely irreducible)")
sgn = coset_sign_character(f20.group, 11)
ok, witness = is_isomorphic(tensor_induce(rho, -1), tensor_induce(rho, +1).twist(sgn))
print("As-(rho) = As+(rho) (x) sign:", ok)
ok, _ = is_isomorphic(
    tensor_induce(dual_twist(rho, None), +1), dual_twist(tensor_induce(rho, +1), None)
)
print("As+(rho dual) = As+(rho) dual:", ok)

print()
print("=" * 72)
print("3. The wedge square of the induced rep: where do the lines live?")
print("=" * 72)


def wedge_rep(ind_rep):
    imgs = exterior_square(ind_rep.images, ind_rep.mod)
    return Rep(ind_rep.group, "G", imgs, ind_rep.mod, validate=False)


# Over F_11 the order-20 group admits NO invariant lines in the wedge
# square: the coset representative squares to a reflection, so a line's
# coset eigenvalue would be a 4th root of unity, and X^2 + 1 is
# irreducible mod 11.
w11 = wedge_rep(induce(f20.rep("rho")))
one = trivial_character(f20.group, "G", 11)
print("order-20 group, q = 11: lines at the trivial character:",
      len(isotypic_lines(w11, one)),
      "| at the sign character:", len(isotypic_lines(w11, coset_sign_character(f20.group, 11))))
pair = classify_pairing(induce(f20.rep("rho")), one)
print("   invariant pairings found:", [(s) for _, s in pair.basis],
      "(orthogonal, not symplectic)")

# Over F_41 (which contains i) the lines appear, but at the order-4
# character: the similitude values at the coset representative are +-i.
f41 = f20_fixture(41)
w41 = wedge_rep(induce(f41.rep("rho")))
eps4 = f41.rep("eps4")
print("order-20 group, q = 41: lines at the order-4 character:",
      len(isotypic_lines(w41, eps4)))
p41 = classify_pairing(induce(f41.rep("rho")), eps4)
print("   pairing symmetry:", [s for _, s in p41.basis],
      "| mu(ctilde):", p41.mu_at_ctilde, "(a primitive 4th root of unity)")

# The order-40 metacyclic cover carries a trivial-determinant rho, and
# there everything looks exactly like the classical picture: two lines
# with coset values +1 and -1, and one even plus one odd symplectic
# pairing on the induced representation.
m40 = m40_fixture()
w40 = wedge_rep(induce(m40.rep("rho")))
one40 = trivial_character(m40.group, "G", 11)
sgn40 = coset_sign_character(m40.group, 11)
print("order-40 cover, q = 11: line(mu):", len(isotypic_lines(w40, one40)),
      "| line(mu sgn):", len(isotypic_lines(w40, sgn40)))
for mu, name in ((one40, "even"), (sgn40, "odd")):
    found = classify_pairing(induce(m40.rep("rho")), mu)
    b, sym = found.basis[0]
    print(f"   {name} pairing: {sym}, mu(ctilde) = {found.mu_at_ctilde}, "
          f"non-degenerate: {b.is_invertible()}")
