import itertools

import numpy as np
import pytest

from asaikit.cohomology import coboundary
from asaikit.exactalg import Mat, exterior_square
from asaikit.grouprep import (
    _LIGHT_BLOCK,
    FiniteGroup,
    Rep,
    classify_pairing,
    conjugate_rep,
    contains_invertible,
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
from asaikit.fixtures import (
    c15_fixture,
    f20_fixture,
    m40_fixture,
    ribet_fixture,
    s3_fixture,
)


@pytest.fixture(scope="module")
def s3():
    return s3_fixture()


@pytest.fixture(scope="module")
def f20():
    return f20_fixture(11)


@pytest.fixture(scope="module")
def f20_41():
    return f20_fixture(41)


@pytest.fixture(scope="module")
def m40():
    return m40_fixture()


def test_s3_fixture_valid(s3):
    g = s3.group
    assert g.n == 6 and len(g.H) == 3
    assert g.ctilde != g.one == g.op(g.ctilde, g.ctilde)


def test_conjugate_character_inverts(s3):
    chi = s3.rep("chi3")
    chic = conjugate_rep(chi)
    assert chic == s3.rep("chi3_inv")
    triv = trivial_character(s3.group, "H", 7)
    assert conjugate_rep(triv) == triv


def test_double_conjugation_isomorphic(f20):
    rho = f20.rep("rho")
    rcc = conjugate_rep(conjugate_rep(rho))
    ok, w = is_isomorphic(rho, rcc)
    assert ok


def test_conjugate_whole_group_flagged(s3):
    triv = trivial_character(s3.group, "G", 7)
    with pytest.warns(UserWarning):
        conjugate_rep(triv)


def test_dual_twist(s3, f20):
    triv = trivial_character(s3.group, "H", 7)
    assert dual_twist(triv, None) == triv
    chi = s3.rep("chi3")
    assert dual_twist(chi, None) == s3.rep("chi3_inv")
    # dual_twist(rho, det rho) is isomorphic to rho for 2-dim rho
    rho = f20.rep("rho")
    det = rho.det_character()
    ok, _ = is_isomorphic(dual_twist(rho, det), rho)
    assert ok


def test_induce_trivial_is_regular_of_c2(s3):
    triv = trivial_character(s3.group, "H", 7)
    ind = induce(triv)
    sgn = coset_sign_character(s3.group, 7)
    one = trivial_character(s3.group, "G", 7)
    assert len(isotypic_lines(ind, one)) == 1
    assert len(isotypic_lines(ind, sgn)) == 1


def test_induce_restricts_to_rho_plus_conjugate(f20):
    rho = f20.rep("rho")
    ind = induce(rho)
    res = ind.restrict_to_H()
    direct = np.zeros((len(f20.group.H), 4, 4), dtype=np.int64)
    rc = conjugate_rep(rho)
    for i, h in enumerate(f20.group.H):
        direct[i, :2, :2] = rho.arr(h)
        direct[i, 2:, 2:] = rc.arr(h)
    from asaikit.grouprep import Rep

    ok, _ = is_isomorphic(res, Rep(f20.group, "H", direct, 11, validate=False))
    assert ok


def test_induce_absolutely_irreducible(f20):
    ind = induce(f20.rep("rho"))
    assert len(intertwiner_space(ind, ind)) == 1


def test_tensor_induce_of_character_is_transfer(s3):
    chi = s3.rep("chi3")
    asp = tensor_induce(chi, +1)
    tr = transfer_character(chi)
    assert asp == tr
    one = trivial_character(s3.group, "G", 7)
    assert asp == one  # ctilde^2 = 1 and chi * chi^c = 1 on C_3


def test_tensor_induce_swap_at_involution(s3):
    # at an involutive coset representative the +1 coset action is the swap
    chi = s3.rep("chi3")
    g = s3.group
    assert g.op(g.ctilde, g.ctilde) == g.one
    rho2 = induce(chi).restrict_to_H()  # 2-dim rep of H... use a 2-dim H-rep
    # build directly on F20 instead: this needs rho on H with ctilde^2 = e
    # (S3: chi is 1-dim so the swap is [1]; check the F20 4-dim case below)
    asp = tensor_induce(chi, +1)
    assert asp.arr(g.ctilde)[0, 0] == 1


def test_tensor_induce_minus_is_plus_twist_sgn(f20):
    rho = f20.rep("rho")
    asm = tensor_induce(rho, -1)
    asp = tensor_induce(rho, +1)
    sgn = coset_sign_character(f20.group, 11)
    ok, w = is_isomorphic(asm, asp.twist(sgn))
    assert ok and w is not None


@pytest.mark.parametrize("sign", [True, np.True_, 1.0, -1.0, 0, 2, "1", None])
def test_tensor_induce_refuses_a_sign_other_than_plus_or_minus_one(m40, sign):
    with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign!r}"):
        tensor_induce(m40.rep("rho"), sign)


def test_tensor_induce_ctilde_choices_isomorphic(f20, m40):
    """Every choice of coset representative yields an isomorphic tensor
    induction, for both signs."""
    for fx in (f20, m40):
        rho = fx.rep("rho")
        g = fx.group
        a_plus = tensor_induce(rho, +1)
        a_minus = tensor_induce(rho, -1)
        for alt in np.flatnonzero(~g.h_mask).tolist():
            # the same rep on the same table, with alt as the coset representative
            g_alt = FiniteGroup(g.elements, g.mul, g.H, alt)
            rho_alt = Rep(g_alt, "H", rho.images, rho.mod)
            for a_rep, sign in ((a_plus, +1), (a_minus, -1)):
                ok, _ = is_isomorphic(Rep(g_alt, "G", a_rep.images, rho.mod),
                                      tensor_induce(rho_alt, sign))
                assert ok


def test_restriction_of_tensor_induce(f20):
    rho = f20.rep("rho")
    asp = tensor_induce(rho, +1)
    res = asp.restrict_to_H()
    ok, _ = is_isomorphic(res, rho.tensor(conjugate_rep(rho)))
    assert ok


def test_prasad_tensor_identity(f20):
    rho = f20.rep("rho")
    prod = rho.tensor(rho)
    lhs = tensor_induce(prod, +1)
    rhs = tensor_induce(rho, +1).tensor(tensor_induce(rho, +1))
    ok, _ = is_isomorphic(lhs, rhs)
    assert ok


def test_prasad_dual_identity(f20):
    rho = f20.rep("rho")
    for s in (+1, -1):
        lhs = tensor_induce(dual_twist(rho, None), s)
        rhs = dual_twist(tensor_induce(rho, s), None)
        ok, _ = is_isomorphic(lhs, rhs)
        assert ok


def test_intertwiner_schur(s3, f20):
    chi = s3.rep("chi3")
    assert len(intertwiner_space(chi, chi)) == 1
    assert len(intertwiner_space(chi, s3.rep("chi3_inv"))) == 0
    ind = induce(f20.rep("rho"))
    assert len(intertwiner_space(ind, ind)) == 1


def test_isotypic_lines_trivial_cases(s3):
    one_h = trivial_character(s3.group, "H", 7)
    lines = isotypic_lines(one_h, one_h)
    assert len(lines) == 1
    # trivial rho of dim 2: the whole space is isotypic
    from asaikit.grouprep import Rep

    g = s3.group
    triv2 = Rep(
        g, "H",
        np.broadcast_to(np.eye(2, dtype=np.int64), (len(g.H), 2, 2)).copy(),
        7, validate=False,
    )
    assert len(isotypic_lines(triv2, one_h)) == 2
    # absolutely irreducible rep of dim >= 2 has no isotypic lines
    rho = f20_fixture(11).rep("rho")
    one = trivial_character(rho.group, "H", 11)
    assert isotypic_lines(rho, one) == []


def test_wedge_lines_m40(m40):
    """Wedge square of the induced rep: two invariant lines, values +-1."""
    rho = m40.rep("rho")
    g = m40.group
    ind = induce(rho)
    wedge_imgs = exterior_square(ind.images, 11)
    from asaikit.grouprep import Rep

    wedge = Rep(g, "G", wedge_imgs, 11, validate=False)
    one = trivial_character(g, "G", 11)
    sgn = coset_sign_character(g, 11)
    assert len(isotypic_lines(wedge, one)) == 1
    assert len(isotypic_lines(wedge, sgn)) == 1
    # and the complement is the minus tensor induction
    asm = tensor_induce(rho, -1)
    # character check: trace comparison on all elements after removing lines
    tr_wedge = np.array([int(np.trace(m)) % 11 for m in wedge.images])
    tr_asm = np.array([int(np.trace(asm.arr(x))) % 11 for x in range(g.n)])
    tr_lines = np.array(
        [(one.value(x) + sgn.value(x)) % 11 for x in range(g.n)]
    )
    assert np.array_equal(tr_wedge, (tr_asm + tr_lines) % 11)


def test_wedge_lines_absent_f20_q11(f20):
    """Over F_11 the same construction has no invariant lines at all."""
    rho = f20.rep("rho")
    g = f20.group
    ind = induce(rho)
    wedge_imgs = exterior_square(ind.images, 11)
    from asaikit.grouprep import Rep

    wedge = Rep(g, "G", wedge_imgs, 11, validate=False)
    one = trivial_character(g, "G", 11)
    sgn = coset_sign_character(g, 11)
    assert isotypic_lines(wedge, one) == []
    assert isotypic_lines(wedge, sgn) == []


def test_wedge_lines_f20_q41(f20_41):
    """Over F_41 the lines exist, with 4th-root-of-unity coset values."""
    rho = f20_41.rep("rho")
    g = f20_41.group
    eps = f20_41.rep("eps4")
    ind = induce(rho)
    wedge_imgs = exterior_square(ind.images, 41)
    from asaikit.grouprep import Rep

    wedge = Rep(g, "G", wedge_imgs, 41, validate=False)
    sgn = coset_sign_character(g, 41)
    assert len(isotypic_lines(wedge, eps)) == 1
    assert len(isotypic_lines(wedge, eps.twist(sgn))) == 1


def test_classify_pairing_m40(m40):
    """The induced rep carries one even and one odd antisymmetric pairing."""
    rho = m40.rep("rho")
    g = m40.group
    ind = induce(rho)
    one = trivial_character(g, "G", 11)
    sgn = coset_sign_character(g, 11)
    even = classify_pairing(ind, one)
    odd = classify_pairing(ind, sgn)
    assert len(even) == 1 and even.basis[0][1] == "antisymmetric"
    assert len(odd) == 1 and odd.basis[0][1] == "antisymmetric"
    assert even.mu_at_ctilde == 1 and not even.parity_odd
    assert odd.mu_at_ctilde == 10 and odd.parity_odd
    # the pairing matrices are invertible (non-degenerate symplectic forms)
    assert even.basis[0][0].is_invertible()
    assert odd.basis[0][0].is_invertible()


def test_classify_pairing_sp4_recovery(m40):
    """A rep constructed inside Sp_4 returns its J, tagged antisymmetric."""
    rho = m40.rep("rho")
    ind = induce(rho)
    one = trivial_character(m40.group, "G", 11)
    found = classify_pairing(ind, one)
    b = found.basis[0][0].a
    for x in range(m40.group.n):
        m = ind.arr(x)
        lhs = m.T @ b % 11 @ m % 11
        assert np.array_equal(lhs, b * one.value(x) % 11)


def test_no_symplectic_pairing_on_f20_q11(f20):
    """The order-20 fixture is orthogonally, not symplectically, paired.

    With mu = 1 or sgn the only invariant pairings of the induced rep are
    symmetric; antisymmetric ones would need a 4th root of unity at ctilde,
    which F_11 lacks.
    """
    rho = f20.rep("rho")
    ind = induce(rho)
    one = trivial_character(f20.group, "G", 11)
    sgn = coset_sign_character(f20.group, 11)
    for mu in (one, sgn):
        found = classify_pairing(ind, mu)
        assert [sym for _, sym in found.basis] == ["symmetric"]


def test_symplectic_pairing_f20_q41_has_order4_similitude(f20_41):
    """Over F_41 the symplectic pairings appear, but their coset values are
    primitive 4th roots of unity rather than +-1."""
    rho = f20_41.rep("rho")
    ind = induce(rho)
    g = f20_41.group
    eps = f20_41.rep("eps4")
    sgn = coset_sign_character(g, 41)
    for mu in (eps, eps.twist(sgn)):
        found = classify_pairing(ind, mu)
        assert [sym for _, sym in found.basis] == ["antisymmetric"]
        v = found.mu_at_ctilde
        assert pow(v, 2, 41) == 40  # a square root of -1


def test_classify_pairing_schur_empty(s3):
    # 1-dim chi3 against the wrong character: no pairing
    chi = s3.rep("chi3")
    pair = classify_pairing(chi, s3.rep("chi3"))
    # B with chi(g)^T B chi(g) = chi(g) B means chi^2 = chi, i.e. chi = 1: empty
    assert len(pair) == 0


def test_c15_induction(s3):
    fx = c15_fixture()
    chi = fx.rep("chi")
    ind = induce(chi)
    assert len(intertwiner_space(ind, ind)) == 1
    g = fx.group
    assert g.op(g.ctilde, g.ctilde) == g.one


def test_tensor_induce_minus_sign_past_int64_products():
    """Over Z/11^7 the signed swap holds 11^7 - 1, and multiplying an
    unreduced Kronecker product by it overflowed int64.  As a column
    permutation times -1, As^- is As^+ twisted by the coset sign."""
    from asaikit.fixtures import _metacyclic_2dim_rep, semidirect_group

    group = semidirect_group(5, 1, (8,), (2,))
    mod = 11**7
    rho = _metacyclic_2dim_rep(group, 5, 11, antisym_u=True, mod=mod)
    plus_twisted = tensor_induce(rho, +1).twist(coset_sign_character(group, mod))
    assert tensor_induce(rho, -1) == plus_twisted


def test_tensor_induce_plain_swap_at_involution_2dim():
    """At an involutive coset representative, the plus coset action is the
    bare swap permutation on the n^2 basis vectors."""
    from asaikit.fixtures import element_of_order, group_from_labels
    from asaikit.grouprep import Rep, swap_matrix

    labels = [((b, e), z) for z in range(2) for e in range(2) for b in range(5)]

    def mult(x, y):
        (b, e), z = x
        (b2, e2), z2 = y
        return (((b + (-1) ** e * b2) % 5, (e + e2) % 2), (z + z2) % 2)

    group, index = group_from_labels(labels, mult, lambda l: l[1] == 0, ((0, 0), 1))
    assert group.op(group.ctilde, group.ctilde) == group.one
    q = 11
    z5 = element_of_order(5, q)
    zi = pow(z5, -1, q)
    imgs = np.zeros((len(group.H), 2, 2), dtype=np.int64)
    for b in range(5):
        for e in range(2):
            m = np.diag([pow(z5, b, q), pow(zi, b, q)]).astype(np.int64)
            if e:
                m = m @ np.array([[0, 1], [1, 0]], dtype=np.int64) % q
            imgs[group.H.tolist().index(index[((b, e), 0)])] = m
    rho = Rep(group, "H", imgs, q)
    asp = tensor_induce(rho, +1)
    swap = swap_matrix(2, q)
    assert np.array_equal(asp.arr(group.ctilde), swap)
    asm = tensor_induce(rho, -1)
    assert np.array_equal(asm.arr(group.ctilde), (q - 1) * swap % q)


def test_rep_on_explicit_H_list_is_the_H_rep(s3):
    chi = s3.rep("chi3")
    again = Rep(s3.group, list(s3.group.H), chi.images, chi.mod)
    assert again.domain == "H" and np.array_equal(again.elements, s3.group.H)
    assert again == chi


def test_restrict_rejects_non_subgroups_and_foreign_elements(s3):
    g = s3.group
    chi = s3.rep("chi3")
    ind = induce(chi)
    rot = next(h for h in g.H if h != g.one)  # order 3: {1, r} is not closed
    with pytest.raises(ValueError, match="closed"):
        ind.restrict([g.one, rot])
    with pytest.raises(ValueError, match="inside the domain"):
        ind.restrict([g.one, g.n])  # not an element of G
    with pytest.raises(ValueError, match="inside the domain"):
        chi.restrict([g.one, g.ctilde])  # an element of G outside H
    dec = ind.restrict([g.one, g.ctilde])  # the order-2 subgroup of ctilde
    assert dec.domain == (g.one, g.ctilde) and dec.elements.tolist() == list(dec.domain)
    with pytest.raises(ValueError, match="inside the domain"):
        dec.restrict_to_H()  # H is not inside the decomposition subgroup


def test_rep_rejects_images_that_do_not_match_the_domain(s3):
    g = s3.group
    with pytest.raises(ValueError, match="per domain element"):
        Rep(g, [g.one, g.ctilde], np.ones((len(g.H), 1, 1), dtype=np.int64), 7,
            validate=False)


def test_index_refuses_wrong_element_indices():
    # arr(-1) read element 83's image, index(-84) read 0, arr(84) raised
    # numpy's IndexError and arr(True) returned the whole stack
    fx = ribet_fixture()
    g, lattice = fx.group, fx.rep("lattice")
    assert g.n == 84
    chi = fx.rep("chi")  # a character of H
    outside = next(x for x in range(g.n) if x not in g.H)
    for rep, bad in ((lattice, -1), (lattice, -84), (lattice, -85), (lattice, 84),
                     (lattice, 10**6), (chi, outside), (chi, -1)):
        for arg in (bad, np.int32(bad), np.array([0, bad]), [bad]):
            with pytest.raises(KeyError, match="not in domain"):
                rep.index(arg)
        with pytest.raises(KeyError):
            rep.arr(bad)
    for bad in (True, np.True_, 1.5, 3.0, np.array([0.0]), np.ones(g.n, dtype=bool),
                [True, 1], "3"):
        with pytest.raises(ValueError, match="integer"):
            lattice.index(bad)
        with pytest.raises(ValueError, match="integer"):
            lattice.arr(bad)
    phi = coboundary(chi, [1])  # Cocycle.value reads its module's index too
    for reader in (chi.value, phi.value):
        with pytest.raises(KeyError):
            reader(-1)
        with pytest.raises(ValueError, match="integer"):
            reader(True)
    assert lattice.index(5) == 5 and lattice.index(np.uint8(5)) == 5
    assert lattice.index(np.array([3, 1], dtype=np.int32)).tolist() == [3, 1]
    assert lattice.index([]).shape == (0,)
    assert chi.value(g.H[-1]) == int(chi.images[-1, 0, 0])


def test_element_maps_refuse_wrong_element_indices():
    # inverse(-1) returned 54, conj_ctilde(-1) 78 and op(-1, 1) 79;
    # inverse(84) and inverse(1.5) raised numpy's IndexError, op(True, 1) a TypeError
    g = ribet_fixture().group
    assert g.n == 84
    maps = (g.inverse, g.conj_ctilde, lambda x: g.op(x, 1), lambda x: g.op(1, x),
            lambda x: g.conj(x, 1), lambda x: g.conj(1, x))
    for f in maps:
        for bad in (-1, -84, 84, 10**6, np.int32(-1)):
            with pytest.raises(KeyError, match="not in the group"):
                f(bad)
        for bad in (True, np.True_, 1.5, 3.0, np.float64(2.0), "3"):
            with pytest.raises(ValueError, match="integer"):
                f(bad)
    for f in (g.conj_ctilde, lambda x: g.conj(g.ctilde, x)):
        for bad in (np.array([0, 84]), [3, -1], np.array([[1], [-2]])):
            with pytest.raises(KeyError, match="not in the group"):
                f(bad)
        for bad in (np.array([0.0, 1.0]), np.ones(3, dtype=bool), [True, 1]):
            with pytest.raises(ValueError, match="integer"):
                f(bad)
    xs = np.arange(g.n)
    # in range, every map still reads the law and the inverse table
    assert [g.inverse(x) for x in range(g.n)] == g.inv.tolist()
    assert g.conj_ctilde(xs).tolist() == g.ctilde_maps[2].tolist()
    assert g.conj(g.ctilde, xs).tolist() == g.ctilde_maps[2].tolist()
    assert g.op(np.uint8(3), np.int32(5)) == int(g.prod(3, 5))
    assert g.conj_ctilde(np.array([], dtype=np.int64)).shape == (0,)


def test_twist_refuses_a_character_over_another_modulus():
    # the mod-49 lattice twisted by the coset sign over F_7 read the sign's
    # residue 6 as 6 mod 49
    fx = ribet_fixture()
    lattice = fx.rep("lattice")
    assert lattice.mod == 49
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        lattice.twist(coset_sign_character(fx.group, 7))
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        fx.rep("chi").twist(coset_sign_character(fx.group, 49))
    sgn = coset_sign_character(fx.group, 49)
    assert np.array_equal(lattice.twist(sgn).images,
                          lattice.images * sgn.images % 49)


@pytest.mark.parametrize("op", ["twist", "tensor", "dual_twist"])
def test_rep_operations_refuse_a_rep_of_another_group(s3, op):
    # another S3 of the same order, whose index arrays fit this one's
    other = s3_fixture().group
    assert other is not s3.group and other.n == s3.group.n
    chi = s3.rep("chi3")
    foreign = trivial_character(other, "H", 7)
    apply = {"twist": chi.twist, "tensor": chi.tensor,
             "dual_twist": lambda psi: dual_twist(chi, psi)}[op]
    with pytest.raises(ValueError, match="^group mismatch$"):
        apply(foreign)


def test_rep_rejects_int64_overflow_even_unvalidated(s3):
    p = 3037000493  # prime, (p-1)^2 < 2^63 <= 2 (p-1)^2
    eye = np.broadcast_to(np.eye(2, dtype=np.int64), (s3.group.n, 2, 2))
    with pytest.raises(ValueError, match="int64"):
        Rep(s3.group, "G", eye, p, validate=False)
    assert Rep(s3.group, "G", eye[:, :1, :1], p, validate=False).dim == 1


# -- checks on generators (Light's test) against the full-table checks --------


def full_table_group_validate(g):
    """The former FiniteGroup.validate: associativity over all n^3 triples."""
    n = g.n
    if g.mul.min() < 0 or g.mul.max() >= n:
        raise ValueError("multiplication table has entries outside the group")
    if not np.array_equal(g.mul[g.mul, :], g.mul[:, g.mul]):
        raise ValueError("multiplication table is not associative")
    if 2 * len(g.H) != n:
        raise ValueError("H does not have index 2")
    if g.H[0] < 0 or g.H[-1] >= n:
        raise ValueError("H has elements outside the group")
    if g.one not in g.H_set:
        raise ValueError("H does not contain the identity")
    if not set(np.unique(g.mul[np.ix_(g.H, g.H)])) <= g.H_set:
        raise ValueError("H is not closed under multiplication")
    if any(int(g.inv[h]) not in g.H_set for h in g.H):
        raise ValueError("H is not closed under inverses")
    if g.ctilde in g.H_set or not (0 <= g.ctilde < n):
        raise ValueError("ctilde must lie outside H")


def full_table_rep_validate(r):
    """The former Rep.validate: rho(x y) = rho(x) rho(y) for all pairs."""
    g, els = r.group, list(r.elements)
    if r.pos[g.one] < 0:
        raise ValueError("domain does not contain the identity")
    if not np.array_equal(r.arr(g.one), np.eye(r.dim, dtype=np.int64)):
        raise ValueError("identity does not map to the identity matrix")
    prod_pos = r.pos[g.mul[np.ix_(els, els)]]
    if prod_pos.min() < 0:
        raise ValueError("domain is not closed under multiplication")
    lhs = np.einsum("aij,bjk->abik", r.images, r.images) % r.mod
    if not np.array_equal(lhs, r.images[prod_pos]):
        raise ValueError("images do not respect the multiplication table")


def verdict(check, obj):
    try:
        check(obj)
    except ValueError as exc:
        return str(exc)
    return "ok"


# Non-associative loops: identity 0 and two-sided inverses, so building the
# group succeeds and only the associativity check can reject them.  In the
# order-5 loop every element is its own inverse; the order-6 loop is
# generated by 1 alone and has the index-2 subloop {0, 2, 5}, so with
# H = {0, 2, 5} and ctilde = 1 every other check passes.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 3, 0, 5, 4],
    [2, 4, 5, 1, 3, 0],
    [3, 0, 4, 5, 2, 1],
    [4, 5, 1, 2, 0, 3],
    [5, 3, 0, 4, 1, 2],
]


@pytest.mark.parametrize("table, H", [(LOOP5, [0]), (LOOP6, [0, 2, 5])])
def test_nonassociative_loop_is_rejected(table, H):
    n = len(table)
    loop = FiniteGroup(range(n), table, H, 1, validate=False)
    assert loop.one == 0 and sorted(loop.inv) == list(range(n))
    assert verdict(full_table_group_validate, loop) == "multiplication table is not associative"
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(range(n), table, H, 1)


def test_an_element_with_two_right_inverses_is_rejected():
    # identity 0, but 1 * 1 = 1 * 2 = 0
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(ValueError, match="^element 1 has no two-sided inverse$"):
        FiniteGroup(range(3), table, [0], 1, validate=False)


@pytest.mark.parametrize("entry", [-1, 6])
def test_unvalidated_table_with_an_entry_outside_the_group_has_no_generators(s3, entry):
    # S_3's table with 1 * 1 = 2 replaced by -1 or n = 6, an index outside
    # the group: construction scans the range, even unvalidated, so no
    # closure ever reads the entry
    s = s3.group
    mul = s.mul.copy()
    assert (s.n, s.one, s.inverse(1), mul[1, 1]) == (6, 0, 2, 2)
    mul[1, 1] = entry
    for validate in (False, True):
        with pytest.raises(ValueError,
                           match="^multiplication table has entries outside the group$"):
            FiniteGroup(s.elements, mul, s.H, s.ctilde, validate=validate)


def test_closed_form_group_rejects_a_wrong_identity_or_inverse():
    # validate checks a supplied identity and inverse array on the left
    # only: with the law associative, that makes them two-sided
    g = ribet_fixture().group

    def rebuild(one, inv):
        return FiniteGroup(g.elements, None, g.H, g.ctilde, closed_form=(one, inv, g.prod))

    assert rebuild(g.one, g.inv).generators() == g.generators()
    for one in (1, g.ctilde, g.n, -1):
        with pytest.raises(ValueError, match="^multiplication table has no identity$"):
            rebuild(one, g.inv)
    rng = np.random.default_rng(3)
    for x in rng.choice(g.n, size=20, replace=False).tolist():
        inv = g.inv.copy()
        inv[x] = (inv[x] + int(rng.integers(1, g.n))) % g.n
        with pytest.raises(ValueError, match=f"^element {x} has no two-sided inverse$"):
            rebuild(g.one, inv)
        inv[x] = g.n
        with pytest.raises(ValueError, match="^inverses lie outside the group$"):
            rebuild(g.one, inv)


def test_h_and_ctilde_outside_the_group_are_refused_as_such():
    # -1 would read the last element of the H mask, n would read past it;
    # H is range-checked on construction, even unvalidated
    g = ribet_fixture().group
    for bad in (-1, g.n):
        with pytest.raises(ValueError, match="^ctilde lies outside the group$"):
            FiniteGroup(g.elements, g.mul, g.H, bad)
        for validate in (False, True):
            with pytest.raises(ValueError, match="^H has elements outside the group$"):
                FiniteGroup(g.elements, g.mul, [*g.H.tolist()[1:], bad], g.ctilde,
                            validate=validate)
    with pytest.raises(ValueError, match="is not a list of integers"):
        FiniteGroup(g.elements, g.mul, [g.H.tolist()], g.ctilde)


def test_ctilde_outside_the_group_is_refused_unvalidated():
    # ctilde_maps and induce read ctilde as an index: -1 would be element
    # n - 1, so the range check runs on construction, next to H's
    g = ribet_fixture().group
    for bad in (-1, g.n):
        with pytest.raises(ValueError, match="^ctilde lies outside the group$"):
            FiniteGroup(g.elements, g.mul, g.H, bad, validate=False)
    assert FiniteGroup(g.elements, g.mul, g.H, g.ctilde, validate=False).ctilde == g.ctilde


def test_light_test_rejects_a_wrong_entry_past_its_first_block():
    # ribet_q7_d6's table taken as a dense table, wrong at one entry (x, y)
    # of its last row.  y is no generator, so the generators stay the same
    # and the first block of rows reads neither row x nor column y: only a
    # later block can see the wrong entry.
    g = ribet_fixture().group
    x = g.n - 1
    assert x >= _LIGHT_BLOCK
    y = next(y for y in range(g.n)
             if y != g.one and y not in g.generators() and g.mul[x, y] != g.one)
    mul = g.mul.copy()
    mul[x, y] = next(z for z in range(g.n) if z not in (g.one, mul[x, y]))
    cand = FiniteGroup(g.elements, mul, g.H, g.ctilde, validate=False)
    assert cand.generators() == g.generators()
    assert verdict(full_table_group_validate, cand) == "multiplication table is not associative"
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(g.elements, mul, g.H, g.ctilde)


def scalar_closure(g, gens):
    """The former FiniteGroup.closure: a breadth-first search, one scalar
    product at a time."""
    seen = set(gens) | {g.one}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = g.op(a, b)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def test_layered_closure_matches_the_scalar_search(s3, f20, m40):
    rng = np.random.default_rng(5)
    groups = [fx.group for fx in (s3, f20, m40)] + [ribet_fixture().group]
    groups += [FiniteGroup(range(len(t)), t, H, 1, validate=False)
               for t, H in ((LOOP5, [0]), (LOOP6, [0, 2, 5]))]
    for g in groups:
        cases = [[], [g.one], [g.ctilde], list(g.generators()), list(g.generators(g.H))]
        cases += [rng.choice(g.n, size=k, replace=False).tolist()
                  for k in (1, 2, 3) for _ in range(5)]
        for gens in cases:
            assert set(np.flatnonzero(g.closure(gens)).tolist()) == scalar_closure(g, gens)


def _wrong_at_a_non_generator(r, rng):
    """Copy of r's images, changed at one element outside 1 and the
    domain's generators."""
    g = r.group
    x = int(rng.choice([e for e in r.elements if e != g.one and e not in r.gens]))
    imgs = r.images.copy()
    i, j = rng.integers(0, r.dim, size=2)
    imgs[r.pos[x], i, j] = (imgs[r.pos[x], i, j] + rng.integers(1, r.mod)) % r.mod
    return imgs


def test_rep_wrong_at_one_non_generator_element_is_rejected(s3, f20):
    rng = np.random.default_rng(11)
    for r in (s3.rep("chi3"), induce(s3.rep("chi3")), f20.rep("rho")):
        imgs = _wrong_at_a_non_generator(r, rng)
        with pytest.raises(ValueError, match="respect the multiplication table"):
            Rep(r.group, r.domain, imgs, r.mod)


def _single_entry_mutations(a, rng, count, low, high):
    """`count` copies of the int array a, each with one entry replaced by a
    different value in [low, high)."""
    out = []
    while len(out) < count:
        b = a.copy()
        idx = tuple(int(rng.integers(0, k)) for k in a.shape)
        v = int(rng.integers(low, high))
        if v != b[idx]:
            b[idx] = v
            out.append(b)
    return out


def test_generator_checks_agree_with_full_table_checks(s3, f20, m40):
    rng = np.random.default_rng(2024)
    reached = rejected = 0
    for fx in (s3, f20, m40):
        g = fx.group
        tables = [g.mul.copy()] + _single_entry_mutations(g.mul, rng, 60, -1, g.n + 1)
        for mul in tables:
            try:
                cand = FiniteGroup(g.elements, mul, g.H, g.ctilde, validate=False)
            except ValueError:
                continue  # no identity or inverses: validate is never reached
            reached += 1
            old = verdict(full_table_group_validate, cand)
            assert verdict(FiniteGroup.validate, cand) == old
            rejected += old != "ok"
        reps = list(fx.reps.values())
        reps += [induce(r) for r in reps if r.domain == "H"]
        for r in reps:
            mutants = [r.images] + _single_entry_mutations(r.images, rng, 10, 0, r.mod)
            # and a domain that is not closed: the last element dropped
            cands = [Rep(g, r.domain, imgs, r.mod, validate=False) for imgs in mutants]
            cands.append(Rep(g, r.elements[:-1], r.images[:-1], r.mod, validate=False))
            for cand in cands:
                old = verdict(full_table_rep_validate, cand)
                assert verdict(Rep.validate, cand) == old
                reached += 1
                rejected += old != "ok"
    # a single-entry change of a group table breaks associativity at every
    # generator, so the loops stand in for tables that one generator exposes
    for table, H in ((LOOP5, [0]), (LOOP6, [0, 2, 5])):
        loop = FiniteGroup(range(len(table)), table, H, 1, validate=False)
        assert verdict(FiniteGroup.validate, loop) == verdict(full_table_group_validate, loop)
    assert reached > 200 and rejected > 150


def test_ribet_ladder_top_rung_builds_and_validates():
    fx = ribet_fixture(101, d=4, alpha=100, chi_val=10, precision=3)
    g = fx.group
    assert g.n == 808
    g.validate()
    for r in fx.reps.values():
        r.validate()
        r.restrict_to_H().validate()


# -- the invertible-witness search against the full grid and brute force ------


def grid_contains_invertible(basis, rng=None):
    """The former contains_invertible: the basis, then for two generators
    the grid a b0 + b b1 over [0, q)^2 in lexicographic order, else 200
    seeded tries summed term by term."""
    if not basis:
        return None
    mod = basis[0].mod
    q = next(p for p in range(2, mod + 1) if mod % p == 0)
    for b in basis:
        if b.is_invertible():
            return b
    if len(basis) == 1:
        return None
    if len(basis) == 2:
        for a in range(q):
            for b in range(q):
                if a or b:
                    cand = Mat(a * basis[0].a + b * basis[1].a, mod)
                    if cand.is_invertible():
                        return cand
        return None
    rng = rng or np.random.default_rng(0)
    for _ in range(200):
        coeffs = rng.integers(0, mod, size=len(basis))
        cand = np.zeros_like(basis[0].a)
        for c, b in zip(coeffs, basis):
            cand = (cand + b.a * int(c) % mod) % mod
        cand = Mat(cand, mod)
        if cand.is_invertible():
            return cand
    return None


def _det(a):
    """Leibniz determinant of a small integer matrix."""
    d = len(a)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = (-1) ** inversions
        for i in range(d):
            term *= int(a[i][perm[i]])
        total += term
    return total


def _singular(rng, d, q, n):
    """A d x d matrix over Z/q^n whose reduction mod q has rank < d."""
    m = q**n
    low = rng.integers(0, q, size=(d, d - 1)) @ rng.integers(0, q, size=(d - 1, d))
    return Mat(low + q * rng.integers(0, m, size=(d, d)), m)


def _generator(rng, d, q, n):
    """Mostly a singular matrix, sometimes a uniformly random one."""
    if rng.random() < 0.9:
        return _singular(rng, d, q, n)
    return Mat(rng.integers(0, q**n, size=(d, d)), q**n)


def _two_generator_spans(rng, q, n, d, count):
    """Random k = 2 spans, mostly of singular generators, and planted ones
    P (b0, b1) Q whose pencil b0 + c b1 is singular only at c = 0, -2."""
    m = q**n
    spans = [[_generator(rng, d, q, n), _generator(rng, d, q, n)] for _ in range(count)]
    if d >= 2:
        for _ in range(count // 4):
            left, right = (rng.integers(0, m, size=(d, d)) for _ in range(2))
            if _det(left) % q == 0 or _det(right) % q == 0:
                continue
            b0 = np.zeros((d, d), dtype=np.int64)
            b1 = np.zeros((d, d), dtype=np.int64)
            b0[:2, :2] = [[1, 1], [1, 1]]
            b1[:2, :2] = [[0, 1], [1, 0]]
            b1[2:, 2:] = np.eye(d - 2, dtype=np.int64)
            spans.append([Mat(left @ b0 @ right, m), Mat(left @ b1 @ right, m)])
    return spans


@pytest.mark.parametrize("q, n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_pencil_search_matches_the_grid_and_brute_force(q, n):
    rng = np.random.default_rng(100 * q + n)
    found = missed = 0
    for d in (1, 2, 3):
        for basis in _two_generator_spans(rng, q, n, d, 24):
            got = contains_invertible(basis)
            assert got == grid_contains_invertible(basis)
            exists = any(
                _det(a * basis[0].a + b * basis[1].a) % q
                for a in range(q) for b in range(q)
            )
            assert (got is not None) == exists
            if got is not None:
                assert _det(got.a) % q
            found += got is not None
            missed += got is None
    assert found >= 10 and missed >= 10


def _count_is_invertible(monkeypatch):
    calls = []
    original = Mat.is_invertible

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Mat, "is_invertible", counted)
    return calls


@pytest.mark.parametrize("d", [2, 4])
def test_singular_pencil_is_decided_in_q_plus_one_tests(d, monkeypatch):
    q = 101
    e11, e12 = (np.zeros((d, d), dtype=np.int64) for _ in range(2))
    e11[0, 0] = e12[0, 1] = 1
    calls = _count_is_invertible(monkeypatch)
    assert contains_invertible([Mat(e11, q), Mat(e12, q)]) is None
    assert len(calls) <= q + 1


def test_seeded_tries_keep_the_witness_and_the_draws():
    """k >= 3: over Z/9 the span of E11, .., E44 holds diag(c0, .., c3),
    invertible only when 3 divides no c_i.  With a seed whose first two
    tries miss, the witness and the draws match the former loop; without
    E44 every try misses and all 200 draws are made."""
    mod, d = 9, 4
    basis = [Mat(np.diag(np.eye(d, dtype=np.int64)[i]), mod) for i in range(d)]

    def first_hit(seed):
        rng = np.random.default_rng(seed)
        return next(t for t in itertools.count()
                    if np.all(rng.integers(0, mod, size=d) % 3))

    seed = next(s for s in itertools.count() if first_hit(s) >= 2)
    for span in (basis, basis[:3]):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        witness = contains_invertible(span, rng=ours)
        assert witness == grid_contains_invertible(span, rng=theirs)
        assert (witness is None) == (span is not basis)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_seeded_tries_reduce_each_term_past_int64():
    """Over the prime 2^31 - 1 a 2 x 2 matrix passes the int64 product
    check, but a sum of three scaled terms in one entry can pass 2^63: the
    witness must be the span element reduced term by term."""
    mod = 2**31 - 1
    top = mod - 1
    basis = [Mat(b, mod) for b in ([[top, top], [0, 0]], [[top, 0], [top, 0]],
                                     [[top, 0], [0, 0]])]

    def first_draw(seed):
        return np.random.default_rng(seed).integers(0, mod, size=3)

    seed = next(s for s in itertools.count()
                if top * int(first_draw(s).sum()) >= 2**63 and first_draw(s)[:2].all())
    witness = contains_invertible(basis, rng=np.random.default_rng(seed))
    want = sum(int(c) * b.a.astype(object) for c, b in zip(first_draw(seed), basis)) % mod
    assert witness is not None and witness.a.tolist() == want.tolist()


def test_empty_and_single_generator_spans():
    assert contains_invertible([]) is None
    assert contains_invertible([Mat([[3, 0], [0, 1]], 9)]) is None
    assert contains_invertible([Mat([[2, 0], [0, 1]], 9)]) == Mat([[2, 0], [0, 1]], 9)
