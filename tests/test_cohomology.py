import itertools

import numpy as np
import pytest

from asaikit.cohomology import (
    Cocycle,
    H1Data,
    SelmerStructure,
    as_twisted_module,
    coboundary,
    conj_action,
    conj_action_matrix,
    conjugate_hom_module,
    eigenspace_split,
    h1,
    hom_module,
    hom_to_as_matrix,
    polarization_involution,
    polarization_involution_matrix,
    restriction_matrix,
    selmer_subgroup,
    shapiro,
)
from asaikit.exactalg import Mat, row_space_mod, rref_mod
from asaikit.fixtures import (
    c15_fixture,
    coh294_fixture,
    f20_fixture,
    m40_fixture,
    ribet_fixture,
    s3_fixture,
    semidirect_group,
)
from asaikit.grouprep import Rep, coset_sign_character, induce, power_character


@pytest.fixture(scope="module")
def rib():
    return ribet_fixture()


@pytest.fixture(scope="module")
def coh294():
    return coh294_fixture()


def trivial_module(group, elements, dim, mod):
    imgs = np.broadcast_to(
        np.eye(dim, dtype=np.int64), (len(list(elements)), dim, dim)
    ).copy()
    return Rep(group, elements, imgs, mod, validate=False)


def test_h1_cyclic_q_torsion():
    # H^1(C_7, trivial F_7) = Hom(C_7, F_7) is one-dimensional
    group = semidirect_group(7, 1, (2,), (6,))
    mod = trivial_module(group, group.H, 1, 7)
    assert h1(mod).dim == 1


def test_h1_of_the_trivial_subgroup_is_zero():
    # B^1 = Z^1 = 0: the coboundaries are zero rows
    group = semidirect_group(7, 1, (2,), (6,))
    mod = trivial_module(group, [group.one], 2, 7)
    data = H1Data(mod)
    assert data.dim == 0 and row_space_mod(data.coboundaries, 7).shape == (0, 2)
    zero = Cocycle(mod, np.zeros((1, 2), dtype=np.int64))
    assert data.class_coords(zero).shape == (0,) and data.is_coboundary(zero)
    with pytest.raises(ValueError, match="not in the computed Z\\^1"):
        data.class_coords(Cocycle(mod, [[1, 0]], validate=False))


def test_h1_coprime_order_vanishes():
    # H^1(C_5, trivial F_7) = 0
    group = semidirect_group(5, 1, (2,), (4,))
    mod = trivial_module(group, group.H, 1, 7)
    assert h1(mod).dim == 0


def brute_force_z1_dim(module: Rep) -> int:
    """Enumerate all generator-value assignments and count consistent ones."""
    g = module.group
    gens = g.generators(set(module.elements))
    d = module.dim
    q = module.mod
    count = 0
    for assignment in itertools.product(range(q), repeat=len(gens) * d):
        vals = {g.one: np.zeros(d, dtype=np.int64)}
        for i, s in enumerate(gens):
            vals[s] = np.array(assignment[i * d : (i + 1) * d], dtype=np.int64)
        ok = True
        # propagate over the whole subgroup, checking consistency
        changed = True
        while changed and ok:
            changed = False
            for a in list(vals):
                for s in gens:
                    b = g.op(a, s)
                    want = (vals[a] + module.arr(a) @ vals[s]) % q
                    if b in vals:
                        if not np.array_equal(vals[b], want):
                            ok = False
                            break
                    else:
                        vals[b] = want
                        changed = True
                if not ok:
                    break
        count += ok
    # count = q^{dim Z^1}
    z1_dim = 0
    while count > 1:
        count //= q
        z1_dim += 1
    return z1_dim


def test_h1_s3_matches_brute_force():
    fx = s3_fixture()
    g = fx.group
    rho = induce(fx.rep("chi3"))  # 2-dim module chi + chi^{-1} over S_3
    data = h1(rho)
    z1_dim = brute_force_z1_dim(rho)
    assert len(data.z1) == z1_dim
    assert data.dim == len(data.z1) - len(row_space_mod(data.coboundaries, data.q))


def test_h1_requires_prime_field(rib):
    lat = rib.rep("lattice")  # Z/49 module: H^1 wants F_q coefficients
    with pytest.raises(ValueError, match="prime field"):
        h1(lat.restrict_to_H())


def test_h1_on_a_decomposition_subgroup_rep(rib):
    # chi^2 is trivial on V = F_7, so H^1(V, chi^2) = Hom(C_7, F_7)
    m = hom_module(rib.rep("chi"), rib.rep("chi_inv"))
    g = rib.group
    v_sub = tuple(h for h in g.H if g.elements[h][1] == 0)
    direct = Rep(g, v_sub, np.ones((len(v_sub), 1, 1), dtype=np.int64), 7)
    assert direct.domain == v_sub
    assert direct == m.restrict(v_sub)
    assert h1(direct).dim == h1(m.restrict(v_sub)).dim == 1


def test_h1_walk_depth_is_logarithmic_in_the_group_order():
    # H = V x| C_4 with V = Z/101, generated by t = (1, 0, 0) of order 101
    # and c = (0, 1, 0) of order 4: t^a c^b is a word in at most 6 jumps
    # t^(2^i) (a <= 100 has at most 6 binary digits 1) and 2 jumps c^(2^j).
    # A walk over the generators themselves needs 53 layers on H and 100 on V.
    fx = ribet_fixture(101, d=4, alpha=100, chi_val=10, precision=3)
    g = fx.group
    m = hom_module(fx.rep("chi"), fx.rep("chi_inv"))
    v_sub = tuple(h for h in g.H if g.elements[h][1] == 0)
    data_h, data_v = h1(m), h1(m.restrict(v_sub))
    assert len(m.elements) == 404 and len(v_sub) == 101
    assert data_h.depth <= 9
    assert data_v.depth <= 7
    assert data_h.dim == data_v.dim == 1


def test_cocycle_restrict_rejects_a_foreign_subgroup():
    fx = s3_fixture()
    g = fx.group
    z = coboundary(fx.rep("chi3"), np.array([1]))  # a cocycle on H
    dec = coset_sign_character(g, 7).restrict([g.one, g.ctilde])
    with pytest.raises(ValueError, match="inside the cocycle's domain"):
        z.restrict(dec)


def test_cocycle_restrict_refuses_a_module_that_is_not_the_restriction(rib):
    chi = rib.rep("chi")
    ambient = as_twisted_module(chi, coset_sign_character(rib.group, 7))
    z = h1(ambient).representative(0)
    on_h = ambient.restrict("H")
    z.restrict(on_h).validate()
    # the same elements with other matrices: phi's values are no cocycle there
    twisted = on_h.twist(power_character(chi, 2))
    with pytest.raises(ValueError, match="cocycle identity fails"):
        Cocycle(twisted, z.value(twisted.elements))
    with pytest.raises(ValueError, match="not the restriction of the cocycle's module"):
        z.restrict(twisted)
    for foreign in (ribet_fixture().rep("chi"), coset_sign_character(rib.group, 49)):
        with pytest.raises(ValueError, match="same group and modulus"):
            z.restrict(foreign)


def test_cocycle_arithmetic_refuses_a_cocycle_on_another_module(rib):
    chi = rib.rep("chi")
    on_h = as_twisted_module(chi, coset_sign_character(rib.group, 7)).restrict("H")
    z = h1(on_h).representative(0)
    # the same group, domain and modulus with other images
    twisted = on_h.twist(power_character(chi, 2))
    dz = coboundary(twisted, np.arange(twisted.dim))
    for combine in (Cocycle.__add__, Cocycle.__sub__):
        for a, b in ((z, dz), (dz, z)):
            with pytest.raises(ValueError, match="cocycles on different modules"):
                combine(a, b)
    with pytest.raises(ValueError, match="cocycles on different modules"):
        z + coboundary(coset_sign_character(rib.group, 7), [1])
    # an equal module that is another object is the same module
    same = Rep(on_h.group, on_h.domain, on_h.images.copy(), on_h.mod)
    w = coboundary(same, np.arange(same.dim))
    (z + w).validate()
    assert (z - w).module is on_h and np.array_equal((z + w - w).values, z.values)


def test_h1_class_coords_refuse_a_cocycle_on_another_module(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    # the same group, domain and modulus with other images
    other = coboundary(m.twist(power_character(chi, 2)), [1])
    for ask in (data.class_coords, data.is_coboundary):
        with pytest.raises(ValueError, match="cocycles on different modules"):
            ask(other)
    with pytest.raises(ValueError, match="cocycles on different modules"):
        data.classes_equal(coboundary(m, [1]), other)
    same = Rep(m.group, m.domain, m.images.copy(), m.mod)
    assert data.is_coboundary(coboundary(m, [1])) and data.is_coboundary(coboundary(same, [1]))


def test_cocycle_identity_enforced(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    bad = np.zeros((len(m.elements), 1), dtype=np.int64)
    bad[3, 0] = 1
    with pytest.raises(ValueError):
        Cocycle(m, bad)


def full_table_cocycle_validate(z):
    """The former Cocycle.validate: phi(x y) = phi(x) + x.phi(y) for all pairs."""
    m = z.module
    prod_pos = m.pos[m.group.mul[np.ix_(m.elements, m.elements)]]
    rhs = z.values[:, None, :] + np.einsum("aij,bj->abi", m.images, z.values)
    if not np.array_equal(z.values[prod_pos], rhs % m.mod):
        raise ValueError("cocycle identity fails")


def test_cocycle_wrong_at_one_non_generator_element_is_rejected(rib):
    s3 = s3_fixture()
    modules = [s3.rep("chi3"), induce(s3.rep("chi3")),
               hom_module(rib.rep("chi"), rib.rep("chi_inv"))]
    rng = np.random.default_rng(5)
    for m in modules:
        vals = coboundary(m, rng.integers(0, m.mod, size=m.dim)).values.copy()
        g = m.group
        x = int(rng.choice([e for e in m.elements if e != g.one and e not in m.gens]))
        vals[m.pos[x], 0] = (vals[m.pos[x], 0] + 1) % m.mod
        with pytest.raises(ValueError, match="cocycle identity fails"):
            Cocycle(m, vals)


def test_cocycle_generator_check_agrees_with_full_table_check(rib):
    rng = np.random.default_rng(2025)
    reached = rejected = 0
    for fx in (s3_fixture(), f20_fixture(11), m40_fixture()):
        modules = list(fx.reps.values())
        modules += [induce(r) for r in modules if r.domain == "H"]
        for m in modules:
            z = coboundary(m, rng.integers(0, m.mod, size=m.dim))
            for _ in range(12):
                vals = z.values.copy()
                idx = (int(rng.integers(0, vals.shape[0])), int(rng.integers(0, m.dim)))
                vals[idx] = (vals[idx] + rng.integers(0, m.mod)) % m.mod
                cand = Cocycle(m, vals, validate=False)
                try:
                    full_table_cocycle_validate(cand)
                    old = True
                except ValueError:
                    old = False
                try:
                    cand.validate()
                    new = True
                except ValueError:
                    new = False
                assert new == old
                reached += 1
                rejected += not old
    assert reached > 100 and 50 < rejected < reached


def test_h1_ribet_module_dimension(rib):
    # Hom(chi^{-1}, chi) = chi^2; H^1(H, chi^2) = Hom_Delta(V, chi^2) is 1-dim
    m = hom_module(rib.rep("chi"), rib.rep("chi_inv"))
    data = h1(m)
    assert data.dim == 1


def test_conj_action_preserves_coboundaries(rib):
    """Also for ctilde of order 4 (f20, q = 11 and 41) and 8 (m40): c.phi is
    a cocycle, a coboundary goes to a coboundary, and the action squares to
    one on H^1."""
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    psi = coset_sign_character(rib.group, 7)
    ambient = as_twisted_module(chi, psi)
    cb = coboundary(m, np.array([3]))
    out = conj_action(cb, ambient)
    assert data.is_coboundary(out)
    for fix in (f20_fixture(11), f20_fixture(41), m40_fixture()):
        g = fix.group
        assert g.closure([g.ctilde]).sum() in (4, 8)  # the order of ctilde
        rho = fix.rep("rho")
        ambient = as_twisted_module(rho, coset_sign_character(g, rho.mod))
        m = ambient.restrict_to_H()
        data = h1(m)
        out = conj_action(coboundary(m, np.arange(1, m.dim + 1)), ambient)
        assert data.is_coboundary(out), fix.name
        conj_action_matrix(data, ambient)  # raises unless it squares to one


def test_conj_action_squares_to_identity(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    psi = coset_sign_character(rib.group, 7)
    ambient = as_twisted_module(chi, psi)
    mat = conj_action_matrix(data, ambient)  # raises if mat^2 != 1
    assert mat.shape == (1, 1)


def test_conj_action_requires_matching_module(rib):
    """An ambient with other images on H, another modulus or another group
    is refused."""
    g = rib.group
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    triv = trivial_module(g, range(g.n), 1, 7)
    other = ribet_fixture()
    cases = [
        (coboundary(m, np.array([1])), triv),
        (coboundary(trivial_module(g, g.H, 1, 7), np.array([1])),
         trivial_module(g, range(g.n), 1, 49)),
        (coboundary(m, np.array([1])),
         as_twisted_module(other.rep("chi"), coset_sign_character(other.group, 7))),
    ]
    for cb, ambient in cases:
        with pytest.raises(ValueError, match="does not restrict to the cocycle's module"):
            conj_action(cb, ambient)


def test_polarization_involution_g294(coh294):
    rho = coh294.rep("rho")
    m = conjugate_hom_module(rho)
    data = h1(m)
    assert data.dim >= 1
    # coboundary goes to coboundary, double application is the identity
    cb = coboundary(m, np.arange(4))
    assert data.is_coboundary(polarization_involution(cb, rho))
    z = data.representative(0)
    zz = polarization_involution(polarization_involution(z, rho), rho)
    assert data.classes_equal(z, zz)
    # the two formulas' agreement is asserted by test_element_maps.polarization_oracle
    mat = polarization_involution_matrix(data, rho)
    assert mat.shape == (data.dim, data.dim)


def test_polarization_involution_rejects_order4_coset(monkeypatch=None):
    # on the order-40 cover ctilde^2 acts by a non-scalar, so the involution
    # would leave the module: the fixture is rejected
    fx = m40_fixture()
    rho = fx.rep("rho")
    m = conjugate_hom_module(rho)
    data = h1(m)
    assert data.dim == 0  # group order prime to q: only coboundaries
    cb = coboundary(m, np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="scalar"):
        polarization_involution(cb, rho)


def test_polarization_involution_rejects_a_rho_without_a_polarization():
    # rho = diag(chi, 1) on H has det rho = chi != chi^c, so no
    # P rho_perp P^{-1} equals rho^c
    fx = c15_fixture()
    chi = fx.rep("chi")
    imgs = np.zeros((len(chi.elements), 2, 2), dtype=np.int64)
    imgs[:, 0, 0], imgs[:, 1, 1] = chi.images[:, 0, 0], 1
    rho = Rep(fx.group, "H", imgs, chi.mod)
    m = conjugate_hom_module(rho)
    zero = Cocycle(m, np.zeros((len(m.elements), 4), dtype=np.int64))
    with pytest.raises(ValueError, match="invalid fixture"):
        polarization_involution(zero, rho)


def conj_matrix_on_hom(data, rho, ambient):
    """Conjugation on H^1(H, Hom(rho^c, rho)) through the canonical
    identification with the restricted tensor-induced module."""
    q = rho.mod
    theta = hom_to_as_matrix(rho.dim, q)
    theta_inv = Mat(theta, q).inverse().a

    def conj_on_hom(z):
        as_coc = Cocycle(ambient.restrict(z.module.elements), (z.values @ theta.T) % q)
        out = conj_action(as_coc, ambient)
        return Cocycle(z.module, (out.values @ theta_inv.T) % q)

    return data.map_matrix(conj_on_hom, data)


def test_lemma_explicit_identity(coh294):
    """Conjugation against the polarization involution on H^1.

    With both of the concrete formulas implemented verbatim, the exact
    matrix identity on this model is conj = (-1)^(k-1) * perp: the
    transpose-transport between shoulder matrices and the tensor module
    contributes one extra sign, and the involution's eigenvalue absorbs a
    matching sign, so the headline consequence -- the class lies in the
    (-1)^k eigenspace of conjugation -- comes out exactly as stated.  The
    eigenspace statement is re-derived below from restriction images, which
    involves no sign conventions at all.
    """
    rho = coh294.rep("rho")
    eps = coh294.rep("eps")
    m = conjugate_hom_module(rho)
    data = h1(m)
    assert data.dim >= 1
    q = rho.mod
    perp = polarization_involution_matrix(data, rho)
    for k in coh294.meta["k_values"]:
        ambient = as_twisted_module(rho, power_character(eps, 1 - k))
        cmat = conj_matrix_on_hom(data, rho, ambient)
        assert np.array_equal(cmat % q, (pow(-1, k - 1) * perp) % q)
        # consequence (convention-free): every class is in the (-1)^k
        # eigenspace of conjugation iff its perp eigenvalue is -1, and for
        # this fixture's classes conj acts exactly by (-1)^k
        want = pow(-1, k, q) * np.eye(data.dim, dtype=np.int64) % q
        assert np.array_equal(cmat % q, want)


def test_conjugation_eigenvalue_matches_restriction_origin(coh294):
    """Ground truth for the parity: the +1 eigenspace of conjugation is the
    image of restriction from the whole group, the -1 eigenspace the image
    from the sign-twisted module."""
    rho = coh294.rep("rho")
    eps = coh294.rep("eps")
    q = rho.mod
    m = conjugate_hom_module(rho)
    data = h1(m)
    theta = hom_to_as_matrix(2, q)
    for k in coh294.meta["k_values"]:
        ambient = as_twisted_module(rho, power_character(eps, 1 - k))
        res_amb = ambient.restrict(m.elements)
        data_as = h1(res_amb)
        z = data.representative(0)
        as_coc = Cocycle(res_amb, (z.values @ theta.T) % q)
        coords = data_as.class_coords(as_coc)
        data_G = h1(ambient)
        data_G_tw = h1(ambient.twist(coset_sign_character(ambient.group, q)))
        res = restriction_matrix(data_G, data_as)
        res_tw = restriction_matrix(data_G_tw, data_as)

        def in_image(mat, dim_src):
            if dim_src == 0:
                return not coords.any()
            im = row_space_mod(mat.T, q)
            return len(rref_mod(np.vstack([im, coords]), q)[1]) == len(im)

        if k % 2 == 0:
            assert in_image(res, data_G.dim) and not in_image(res_tw, data_G_tw.dim)
        else:
            assert in_image(res_tw, data_G_tw.dim) and not in_image(res, data_G.dim)


def test_eigenspace_split_trivial_cases(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    eye = np.eye(data.dim, dtype=np.int64)
    plus, minus = eigenspace_split(data, eye)
    assert len(plus) == data.dim and len(minus) == 0
    plus, minus = eigenspace_split(data, (-eye) % data.q)
    assert len(plus) == 0 and len(minus) == data.dim


def test_eigenspace_split_dims_add(coh294):
    rho = coh294.rep("rho")
    eps = coh294.rep("eps")
    m = conjugate_hom_module(rho)
    data = h1(m)
    q = rho.mod
    theta = hom_to_as_matrix(2, q)
    theta_inv = Mat(theta, q).inverse().a
    ambient = as_twisted_module(rho, power_character(eps, -1))

    def conj_on_hom(z):
        as_coc = Cocycle(ambient.restrict(z.module.elements), (z.values @ theta.T) % q)
        out = conj_action(as_coc, ambient)
        return Cocycle(z.module, (out.values @ theta_inv.T) % q)

    mat = data.map_matrix(conj_on_hom, data)
    plus, minus = eigenspace_split(data, mat)
    assert len(plus) + len(minus) == data.dim


def test_shapiro_zero_module(rib):
    g = rib.group
    zero = Rep(
        g, g.H, np.zeros((len(g.H), 0, 0), dtype=np.int64), 7, validate=False
    )
    res = shapiro(zero)
    assert res.h1_H.dim == 0 and res.h1_G_ind.dim == 0


def test_shapiro_dims_and_bijectivity(rib, coh294):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    res = shapiro(m)
    assert res.h1_H.dim == res.h1_G_ind.dim
    rho = coh294.rep("rho")
    m2 = conjugate_hom_module(rho)
    res2 = shapiro(m2)
    assert res2.h1_H.dim == res2.h1_G_ind.dim


def _restriction_eigenspace_check(ambient, data_H, q):
    """Restriction lands isomorphically on the +-eigenspace; with the sign
    twist, on the minus part."""
    data_G = h1(ambient)
    res = restriction_matrix(data_G, data_H)
    cmat = conj_action_matrix(data_H, ambient)
    plus, minus = eigenspace_split(data_H, cmat)
    # injectivity
    if data_G.dim:
        assert len(rref_mod(res.T, q)[1]) == data_G.dim
    im = row_space_mod(res.T, q) if data_G.dim else np.zeros((0, data_H.dim))
    pl = row_space_mod(plus, q) if len(plus) else np.zeros((0, data_H.dim))
    assert im.shape == pl.shape and np.array_equal(im, pl)
    # sign-twisted side
    tw = ambient.twist(coset_sign_character(ambient.group, q))
    data_G2 = h1(tw)
    res2 = restriction_matrix(data_G2, data_H)
    if data_G2.dim:
        assert len(rref_mod(res2.T, q)[1]) == data_G2.dim
    im2 = row_space_mod(res2.T, q) if data_G2.dim else np.zeros((0, data_H.dim))
    mi = row_space_mod(minus, q) if len(minus) else np.zeros((0, data_H.dim))
    assert im2.shape == mi.shape and np.array_equal(im2, mi)
    return data_G.dim, data_G2.dim


def test_selmerres_decomposition_rib(rib):
    chi = rib.rep("chi")
    psi = coset_sign_character(rib.group, 7)
    ambient = as_twisted_module(chi, psi)
    m = hom_module(chi, rib.rep("chi_inv"))
    data_H = h1(m)
    # identify M with the ambient restricted to H (they are equal here)
    assert ambient.restrict(m.elements) == m
    dplus, dminus = _restriction_eigenspace_check(ambient, data_H, 7)
    assert dplus + dminus == data_H.dim
    assert data_H.dim == 1


def test_selmerres_decomposition_coh294(coh294):
    rho = coh294.rep("rho")
    eps = coh294.rep("eps")
    q = rho.mod
    ambient = as_twisted_module(rho, power_character(eps, -1))
    m = conjugate_hom_module(rho)
    data_raw = h1(m)
    # transport classes through the canonical Hom -> As identification
    theta = hom_to_as_matrix(2, q)
    res_ambient = ambient.restrict(m.elements)
    imgs = (theta @ m.images @ Mat(theta, q).inverse().a) % q
    assert np.array_equal(imgs, res_ambient.images)  # equivariance, exactly
    data_H = h1(res_ambient)
    dplus, dminus = _restriction_eigenspace_check(ambient, data_H, q)
    assert dplus + dminus == data_H.dim == data_raw.dim


def test_eigenspace_split_rejects_q2():
    class FakeH1:
        q = 2
        dim = 1

    with pytest.raises(ValueError):
        eigenspace_split(FakeH1(), np.eye(1, dtype=np.int64))


def test_selmer_subgroup_trivial_structures(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    full = selmer_subgroup(data, SelmerStructure([]))
    assert len(full) == data.dim
    g = rib.group
    delta = [h for h in g.H if g.elements[h][0] == 0]  # the C_d part
    all_cond = SelmerStructure([(tuple(delta), "full")])
    assert len(selmer_subgroup(data, all_cond)) == data.dim


def test_selmer_subgroup_zero_condition_matches_brute_force(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    g = rib.group
    v_sub = tuple(h for h in g.H if g.elements[h][1] == 0)  # V = F_q
    struct = SelmerStructure([(v_sub, "zero")])
    sel = selmer_subgroup(data, struct)
    # brute force: which classes restrict to a coboundary on V?
    sub = m.restrict(v_sub)
    data_sub = h1(sub)
    count = []
    for coeffs in itertools.product(range(7), repeat=data.dim):
        z = None
        for c, i in zip(coeffs, range(data.dim)):
            zi = data.representative(i).scale(c)
            z = zi if z is None else z + zi
        if data_sub.is_coboundary(z.restrict(sub)):
            count.append(coeffs)
    assert len(count) == 7 ** len(sel)


def test_conj_action_direct_evaluation(rib):
    """The conjugation output agrees with direct cocycle arithmetic:
    value at g equals ambient(ctilde) applied to the value at ctilde g
    ctilde^{-1}, entry for entry."""
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    psi = coset_sign_character(rib.group, 7)
    ambient = as_twisted_module(chi, psi)
    z = data.representative(0)
    out = conj_action(z, ambient)
    g = rib.group
    act_c = ambient.arr(g.ctilde)
    for x in m.elements:
        expect = act_c @ z.value(g.conj_ctilde(x)) % 7
        assert np.array_equal(out.value(x), expect)
    # on this fixture ctilde negates the q-part and the twist is odd, so
    # the class is fixed: the direct arithmetic confirms the +1 eigenvalue
    assert data.classes_equal(out, z)


def test_class_equality_is_an_equivalence(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    z = data.representative(0)
    shifted = z + coboundary(m, np.array([4]))
    other = z.scale(2)
    # reflexive, symmetric (via coset test both ways), transitive
    assert data.classes_equal(z, z)
    assert data.classes_equal(z, shifted) and data.classes_equal(shifted, z)
    shifted2 = shifted + coboundary(m, np.array([6]))
    assert data.classes_equal(z, shifted2)
    assert not data.classes_equal(z, other)


def test_selmer_structure_json_roundtrip():
    s = SelmerStructure([((0, 1, 2), "zero"), ((0, 3), [[1, 0], [0, 1]])])
    again = SelmerStructure.from_json(s.to_json())
    assert again.to_json() == s.to_json()


def test_selmer_subgroup_monotone(rib):
    chi = rib.rep("chi")
    m = hom_module(chi, rib.rep("chi_inv"))
    data = h1(m)
    g = rib.group
    v_sub = tuple(h for h in g.H if g.elements[h][1] == 0)
    s_full = SelmerStructure([(v_sub, "full")])
    s_zero = SelmerStructure([(v_sub, "zero")])
    big = selmer_subgroup(data, s_full)
    small = selmer_subgroup(data, s_zero)
    assert len(small) <= len(big)
