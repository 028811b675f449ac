"""Per-element and per-generator oracles for the batched builders.

Every map over group elements in grouprep, cohomology and polarization is
one gather through the group's index arrays plus a batched product over
the image stack, and every Hom space is the kernel of one
`grouprep.hom_system`.  The functions below keep the element-by-element
loops and the per-generator Hom blocks those builders replaced, and each
test compares the two, exactly, on the shipped fixtures.
"""

import numpy as np
import pytest

from asaikit import cohomology
from asaikit.cohomology import (
    H1Data,
    as_twisted_module,
    coboundary,
    conj_action,
    conjugate_hom_module,
    h1,
    hom_module,
    polarization_involution,
)
from asaikit.exactalg import Mat, factor_prime_power, kernel_gens, kernel_mod, row_space_mod
from asaikit.fixtures import ribet_fixture, semidirect_group, shipped_fixture_builders
from asaikit.grouprep import (
    FiniteGroup,
    Rep,
    classify_pairing,
    conjugate_rep,
    coset_sign_character,
    dual_twist,
    hom_kernel,
    hom_system,
    induce,
    intertwiner_space,
    isotypic_lines,
    make_character,
    power_character,
    swap_matrix,
    symmetry_rows,
    tensor_induce,
    transfer_character,
    trivial_character,
)
from asaikit.polarization import _witness_pair, endomorphism_free_rank


@pytest.fixture(scope="module")
def shipped():
    return {name: build() for name, build in shipped_fixture_builders().items()}


def h_reps(shipped):
    """(label, rep) for every shipped representation of H."""
    return [(f"{f}/{r}", rep) for f, fix in shipped.items()
            for r, rep in fix.reps.items() if rep.domain == "H"]


# ---------------------------------------------------------------------------
# the per-element formulas
# ---------------------------------------------------------------------------


def conjugate_rep_oracle(rho):
    g = rho.group
    return np.stack([rho.arr(g.conj_ctilde(x)) for x in rho.elements])


def dual_twist_oracle(rho, psi):
    g = rho.group
    imgs = np.empty_like(rho.images)
    for x in rho.elements:
        m = rho.arr(g.inverse(x)).T
        if psi is not None:
            m = m * psi.value(x)
        imgs[rho.pos[x]] = np.mod(m, rho.mod)
    return imgs


def induce_oracle(rho):
    g = rho.group
    d = rho.dim
    cinv = g.inverse(g.ctilde)
    imgs = np.zeros((g.n, 2 * d, 2 * d), dtype=np.int64)
    for x in range(g.n):
        if g.h_mask[x]:
            imgs[x, :d, :d] = rho.arr(x)
            imgs[x, d:, d:] = rho.arr(g.conj_ctilde(x))
        else:
            imgs[x, :d, d:] = rho.arr(g.op(x, cinv))
            imgs[x, d:, :d] = rho.arr(g.op(g.ctilde, x))
    return imgs


def tensor_induce_oracle(rho, sign, ct):
    g = rho.group
    d = rho.dim
    cinv = g.inverse(ct)
    s = swap_matrix(d, rho.mod)
    if sign == -1:
        s = (-s) % rho.mod
    imgs = np.zeros((g.n, d * d, d * d), dtype=np.int64)
    for x in range(g.n):
        if g.h_mask[x]:
            imgs[x] = np.kron(rho.arr(x), rho.arr(g.conj(ct, x))) % rho.mod
        else:
            a = rho.arr(g.op(x, cinv))
            b = rho.arr(g.op(ct, x))
            imgs[x] = (np.kron(a, b) @ s) % rho.mod
    return imgs


def transfer_oracle(chi):
    g = chi.group
    vals = np.zeros((g.n, 1, 1), dtype=np.int64)
    for x in range(g.n):
        if g.h_mask[x]:
            vals[x, 0, 0] = chi.value(x) * chi.value(g.conj_ctilde(x)) % chi.mod
        else:
            vals[x, 0, 0] = chi.value(g.op(x, x))
    return vals


def hom_module_oracle(rho, sigma):
    g = rho.group
    d = rho.dim * sigma.dim
    imgs = np.zeros((len(rho.elements), d, d), dtype=np.int64)
    for x in rho.elements:
        s_inv_t = sigma.arr(g.inverse(x)).T
        imgs[rho.pos[x]] = np.kron(rho.arr(x), s_inv_t) % rho.mod
    return imgs


def conj_action_oracle(cocycle, ambient):
    m = cocycle.module
    g = m.group
    act_c = ambient.arr(g.ctilde)
    c_inv = g.inverse(g.ctilde)
    vals = np.zeros_like(cocycle.values)
    for x in m.elements:
        vals[m.pos[x]] = act_c @ cocycle.value(g.op(g.op(c_inv, x), g.ctilde)) % m.mod
    return vals


def polarization_oracle(cocycle, rho):
    m = cocycle.module
    g = rho.group
    mod = rho.mod
    P = np.array([[0, 1], [mod - 1, 0]], dtype=np.int64)
    P_inv = Mat(P, mod).inverse().a
    rc = conjugate_rep(rho)
    vals = np.zeros_like(cocycle.values)
    for x in m.elements:
        eps = Mat(rho.arr(x), mod).det()
        perp = (eps * rho.arr(g.inverse(g.conj_ctilde(x))).T) % mod
        assert np.array_equal((P @ perp @ P_inv) % mod, rc.arr(x))
        cgc = g.conj_ctilde(x)
        cginvc = g.conj_ctilde(g.inverse(x))
        phi_cgc = cocycle.value(cgc).reshape(2, 2)
        phi_cginvc = cocycle.value(cginvc).reshape(2, 2)
        b = phi_cginvc @ rc.arr(cginvc) % mod
        defn = (eps * (P @ b.T @ P_inv @ rc.arr(g.inverse(x)))) % mod
        simp = (P @ ((-phi_cgc) % mod).T @ P_inv) % mod
        assert np.array_equal(defn, simp)
        vals[m.pos[x]] = defn.reshape(-1)
    return vals


def expand_oracle(m, gens):
    """phi(g) = expand[g] @ x by a dict-based breadth-first closure, and
    the consistency rows phi(g s) - phi(g) - g.phi(s) over all (g, s)."""
    g = m.group
    q = m.mod
    d = m.dim
    D = len(gens) * d

    def block(i):
        out = np.zeros((d, D), dtype=np.int64)
        out[:, i * d:(i + 1) * d] = np.eye(d, dtype=np.int64)
        return out

    expand = {g.one: np.zeros((d, D), dtype=np.int64)}
    frontier = [g.one]
    while frontier:
        nxt = []
        for a in frontier:
            for i, s in enumerate(gens):
                b = g.op(a, s)
                if b not in expand:
                    expand[b] = (m.arr(a) @ block(i) + expand[a]) % q
                    nxt.append(b)
        frontier = nxt
    rows = [(expand[g.op(a, s)] - expand[a] - m.arr(a) @ block(i)) % q
            for a in m.elements for i, s in enumerate(gens)]
    sys = np.vstack(rows) if rows else np.zeros((0, D), dtype=np.int64)
    return expand, sys


def jump_walk_oracle(m, gens):
    """phi(g) = expand[g] @ x by a scalar dict walk over the jumps s^(2^j)
    (2^j < |domain|, s^(2^j) != 1, generator-major), with phi(t^2) =
    phi(t) + t.phi(t) and phi(a t) = phi(a) + a.phi(t) for the first
    (frontier element, jump) pair that reaches each element; also the
    number of layers."""
    g = m.group
    q = m.mod
    d = m.dim
    D = len(gens) * d
    jumps = []
    for i, s in enumerate(gens):
        t = s
        v = np.zeros((d, D), dtype=np.int64)
        v[:, i * d:(i + 1) * d] = np.eye(d, dtype=np.int64)
        j = 0
        while t != g.one and 2**j < len(m.elements):
            jumps.append((t, v))
            t, v = g.op(t, t), (v + m.arr(t) @ v) % q
            j += 1
    expand = {g.one: np.zeros((d, D), dtype=np.int64)}
    frontier = [g.one]
    depth = 0
    while True:
        nxt = []
        for a in frontier:
            for t, v in jumps:
                b = g.op(a, t)
                if b not in expand:
                    expand[b] = (expand[a] + m.arr(a) @ v) % q
                    nxt.append(b)
        if not nxt:
            return expand, depth
        frontier = nxt
        depth += 1


# ---------------------------------------------------------------------------
# representation builders
# ---------------------------------------------------------------------------


def test_conjugate_rep_and_dual_twist_match_the_loops(shipped):
    for label, rho in h_reps(shipped):
        assert np.array_equal(conjugate_rep(rho).images, conjugate_rep_oracle(rho)), label
    for f, fix in shipped.items():
        for r, rho in fix.reps.items():
            psi = rho.det_character()
            assert np.array_equal(dual_twist(rho, None).images,
                                  dual_twist_oracle(rho, None)), (f, r)
            assert np.array_equal(dual_twist(rho, psi).images,
                                  dual_twist_oracle(rho, psi)), (f, r)


def test_power_character_matches_the_loop(shipped):
    checked = 0
    for f, fix in shipped.items():
        for r, chi in fix.reps.items():
            if chi.dim != 1:
                continue
            for k in (-1, 0, 2, 5):
                want = [pow(int(m[0, 0]), k, chi.mod) for m in chi.images]
                got = power_character(chi, k)
                assert got.domain == chi.domain, (f, r)
                assert got.images[:, 0, 0].tolist() == want, (f, r, k)
            checked += 1
    assert checked >= 4


def test_induce_and_transfer_match_the_loops(shipped):
    checked = 0
    for label, rho in h_reps(shipped):
        assert np.array_equal(induce(rho).images, induce_oracle(rho)), label
        if rho.dim == 1:
            assert np.array_equal(transfer_character(rho).images,
                                  transfer_oracle(rho)), label
            checked += 1
    assert checked >= 4


def test_tensor_induce_matches_the_loop(shipped):
    for label, rho in h_reps(shipped):
        g = rho.group
        alt = next(c for c in np.flatnonzero(~g.h_mask).tolist() if c != g.ctilde)
        for sign in (1, -1):
            assert np.array_equal(tensor_induce(rho, sign).images,
                                  tensor_induce_oracle(rho, sign, g.ctilde)), label
        # the same rep on the same table, with alt as the coset representative
        g_alt = FiniteGroup(g.elements, g.mul, g.H, alt)
        rho_alt = Rep(g_alt, "H", rho.images, rho.mod)
        assert np.array_equal(tensor_induce(rho_alt, -1).images,
                              tensor_induce_oracle(rho, -1, alt)), label


def test_hom_module_matches_the_loop(shipped):
    for label, rho in h_reps(shipped):
        rc = conjugate_rep(rho)
        assert np.array_equal(hom_module(rho, rc).images,
                              hom_module_oracle(rho, rc)), label
    rib = shipped["ribet_q7_d6"]
    lat = rib.rep("lattice")
    assert np.array_equal(hom_module(lat, lat).images, hom_module_oracle(lat, lat))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def prime_field_h_reps(shipped):
    return [(label, rho) for label, rho in h_reps(shipped)
            if factor_prime_power(rho.mod)[1] == 1]


def test_h1_expand_and_consistency_system_match_the_dict_bfs(shipped):
    modules = []
    for label, rho in prime_field_h_reps(shipped):
        modules += [(label, rho), (label + " hom", conjugate_hom_module(rho))]
    rho = shipped["coh294_q7"].rep("rho")
    modules.append(("coh294 induced", induce(rho)))
    g = rho.group
    modules.append(("coh294 decomposition", induce(rho).restrict([g.one, g.ctilde])))
    modules.append(("zero", Rep(g, g.H, np.zeros((len(g.H), 0, 0), dtype=np.int64),
                                7, validate=False)))
    modules.append(("coh294 induced hom", induce(conjugate_hom_module(rho))))
    rib = shipped["ribet_q7_d6"]
    modules.append(("ribet-q7 tensor module", as_twisted_module(
        rib.rep("chi"), coset_sign_character(rib.group, 7))))
    for label, m in modules:
        data = h1(m)
        expand, sys = expand_oracle(m, data.gens)
        assert data.expand.shape == (len(m.elements), m.dim, len(data.gens) * m.dim)
        assert sorted(expand) == list(m.elements), label
        # Z^1 does not depend on the spanning tree, and on Z^1 both trees
        # expand to the cocycle itself
        assert np.array_equal(data.z1, kernel_mod(sys, m.mod)), label
        bfs = np.stack([expand[x] for x in m.elements])
        for z in data.z1:
            assert np.array_equal(data.expand @ z % m.mod, bfs @ z % m.mod), label
        jumped, depth = jump_walk_oracle(m, data.gens)
        assert sorted(jumped) == list(m.elements), label
        for x in m.elements:
            assert np.array_equal(data.expand[m.pos[x]], jumped[x]), (label, x)
        assert data.depth == depth, label


@pytest.fixture
def kernel_shapes(monkeypatch):
    """The shapes of the matrices H1Data hands to kernel_mod."""
    shapes = []

    def counted(a, p):
        shapes.append(np.shape(a))
        return kernel_mod(a, p)

    monkeypatch.setattr(cohomology, "kernel_mod", counted)
    return shapes


def test_h1_probe_check_is_exact_at_the_largest_prime(kernel_shapes):
    q = 3037000493  # prime, (q-1)^2 < 2^63 <= 2 (q-1)^2: one product per sum
    j = q - pow(2, (q - 1) // 4, q)  # 2 is not a square mod q = 5 mod 8
    assert j * j % q == q - 1
    # C_4^3 with x = 16 a1 + 4 a0 + v, and chi = j^(v + a0) (-1)^a1 on it
    g = semidirect_group(4, 1, (4, 4), (1, 1))
    chi = make_character(g, "G", [pow(j, x % 4 + x // 4 % 4, q) * (-1) ** (x // 16) % q
                                  for x in range(g.n)], q)
    data = h1(chi)
    _, sys = expand_oracle(chi, data.gens)
    assert len(data.gens) * chi.dim == 3
    # Z^1 = B^1, phi(s) = (chi(s) - 1) x: one basis row, (c, c, 1) with
    # c = (j - 1) / -2, and at four elements expand @ z1.T leaves int64
    assert np.array_equal(data.z1, kernel_mod(sys, q)) and len(data.z1) == 1
    assert data.z1[0, 0] > 2**30
    assert len(kernel_shapes) == 1  # one probe round: no true cocycle failed the check
    assert data.is_coboundary(data.cocycle_from_gen_vector(data.z1[0]))


def test_h1_probe_miss_takes_another_round(kernel_shapes):
    # C_80 acting trivially on F_7^8: the walk gives phi(s^j) = j phi(s), j < 80,
    # so the one nonzero consistency row block, -80 phi(s), is at s^79, the
    # last element, which the first probe skips
    g = semidirect_group(80, 1, (2,), (1,))
    m = Rep(g, "H", np.broadcast_to(np.eye(8, dtype=np.int64), (80, 8, 8)), 7)
    data = h1(m)
    assert len(kernel_shapes) == 2 and kernel_shapes[0][0] < kernel_shapes[1][0]
    _, sys = expand_oracle(m, data.gens)
    assert data.z1.shape == (0, 8) and np.array_equal(data.z1, kernel_mod(sys, 7))


def test_h1_does_not_build_the_full_consistency_system(shipped, kernel_shapes):
    m = induce(conjugate_hom_module(shipped["coh294_q7"].rep("rho")))
    data = H1Data(m)  # uncached: the session's memo may hold h1(m) already
    N, kd = len(m.elements), len(data.gens) * m.dim
    assert (N, kd) == (294, 32)
    # the full system has N k d = 9408 rows
    assert kernel_shapes and max(rows for rows, _ in kernel_shapes) <= 8 * kd


def test_conj_action_matches_the_loop(shipped):
    rng = np.random.default_rng(7)
    for label, rho in prime_field_h_reps(shipped):
        g = rho.group
        # a unipotent change of basis, so that ambient(ctilde) is not symmetric
        mod = rho.mod
        u = np.triu(np.ones((rho.dim**2, rho.dim**2), dtype=np.int64))
        u_inv = Mat(u, mod).inverse().a
        swapped = tensor_induce(rho, -1)
        ambient = Rep(g, "G", u_inv @ swapped.images % mod @ u % mod, mod)
        m = ambient.restrict_to_H()
        data = h1(m)
        cocycles = data.representatives() + [
            coboundary(m, rng.integers(0, mod, size=m.dim))
        ]
        for z in cocycles:
            assert np.array_equal(conj_action(z, ambient).values,
                                  conj_action_oracle(z, ambient)), label


def test_polarization_involution_matches_the_loop(shipped):
    rho = shipped["coh294_q7"].rep("rho")
    m = conjugate_hom_module(rho)
    data = h1(m)
    assert data.dim >= 1
    cocycles = data.representatives() + [coboundary(m, np.array([1, 5, 2, 3]))]
    for z in cocycles:
        assert np.array_equal(polarization_involution(z, rho).values,
                              polarization_oracle(z, rho))


# ---------------------------------------------------------------------------
# Hom systems: the per-generator blocks that hom_system replaced
# ---------------------------------------------------------------------------


def fixed_space_oracle(rep, block):
    return kernel_gens(np.vstack([block(x) for x in rep.gens]) % rep.mod, rep.mod)


def intertwiner_block(r1, r2):
    i1 = np.eye(r1.dim, dtype=np.int64)
    i2 = np.eye(r2.dim, dtype=np.int64)
    return lambda x: np.kron(i2, r1.arr(x).T) - np.kron(r2.arr(x), i1)


def endomorphism_block(rep):
    eye = np.eye(rep.dim, dtype=np.int64)
    return lambda x: np.kron(rep.arr(x), eye) - np.kron(eye, rep.arr(x).T)


def isotypic_block(rho, chi):
    eye = np.eye(rho.dim, dtype=np.int64)
    return lambda x: rho.arr(x) - chi.value(x) * eye


def pairing_block(rho, mu):
    eye = np.eye(rho.dim**2, dtype=np.int64)
    return lambda x: np.kron(rho.arr(x).T, rho.arr(x).T) - mu.value(x) * eye


def witness_rows_oracle(rep, psi, conjugate):
    g = rep.group
    eye = np.eye(rep.dim, dtype=np.int64)
    rows = []
    for x in rep.gens:
        rv = rep.arr(g.inverse(x)).T
        target = rep.arr(g.conj_ctilde(x)) if conjugate else rep.arr(x)
        rows.append((np.kron(rv, eye) - psi.value(x) * np.kron(eye, target.T)) % rep.mod)
    return np.vstack(rows)


def symmetry_rows_oracle(d, mod, antisymmetric):
    rows = []
    for i in range(d):
        for j in range(i, d):
            if i == j and not antisymmetric:
                continue
            r = np.zeros(d * d, dtype=np.int64)
            r[i * d + j] = 1
            if i != j:
                r[j * d + i] = 1 if antisymmetric else mod - 1
            rows.append(r)
    return np.array(rows, dtype=np.int64).reshape(len(rows), d * d)


def classify_pairing_oracle(rho, mu):
    """The (b +- b^T)/2 projections of the raw pairing space, each part in
    reduced row echelon form."""
    q, d = rho.mod, rho.dim
    raw = [v.reshape(d, d) for v, _ in fixed_space_oracle(rho, pairing_block(rho, mu))]
    inv2 = pow(2, -1, q)
    basis = []
    for label, sign in (("symmetric", 1), ("antisymmetric", -1)):
        rows = [r for r in ((b + sign * b.T) * inv2 % q for b in raw) if r.any()]
        if rows:
            basis += [(v.reshape(d, d), label)
                      for v in row_space_mod(np.array([r.reshape(-1) for r in rows]), q)]
    assert len(basis) == len(raw)
    return basis


def assert_same_kernel(new, old, label):
    assert len(new) == len(old), label
    for (u, a), (v, b) in zip(new, old):
        assert a == b and np.array_equal(u, v), label


@pytest.fixture(scope="module")
def hom_reps(shipped):
    """(label, rep): every shipped rep, and for each rep of H its induction
    and its As^-; m40's Z/121 rho_lift and the Z/49 lattice are among them."""
    out = []
    for f, fix in shipped.items():
        for r, rho in fix.reps.items():
            out.append((f"{f}/{r}", rho))
            if rho.domain == "H":
                out += [(f"{f}/{r} ind", induce(rho)), (f"{f}/{r} As-", tensor_induce(rho, -1))]
    return out


def test_end_and_intertwiner_systems_match_the_blocks(hom_reps):
    for label, rep in hom_reps:
        new = kernel_gens(hom_system(rep, rep), rep.mod)
        assert_same_kernel(new, fixed_space_oracle(rep, intertwiner_block(rep, rep)), label)
        assert_same_kernel(new, fixed_space_oracle(rep, endomorphism_block(rep)), label)
        assert endomorphism_free_rank(rep) == sum(ann == rep.mod for _, ann in new)
        dual = dual_twist(rep, rep.det_character())
        old = fixed_space_oracle(rep, intertwiner_block(rep, dual))
        assert_same_kernel(kernel_gens(hom_system(rep, dual), rep.mod), old, label)
        mats = intertwiner_space(rep, dual)
        assert len(mats) == len(old), label
        assert all(np.array_equal(m.a, v.reshape(rep.dim, rep.dim))
                   for m, (v, _) in zip(mats, old)), label


def test_isotypic_systems_match_the_blocks(hom_reps):
    for label, rep in hom_reps:
        w = rep.tensor(rep) if rep.dim <= 2 else rep
        chi = rep.det_character()
        old = fixed_space_oracle(w, isotypic_block(w, chi))
        assert_same_kernel(kernel_gens(hom_system(chi, w), w.mod), old, label)
        lines = isotypic_lines(w, chi)
        free = [v for v, ann in old if ann == w.mod]
        assert len(lines) == len(free), label
        assert all(np.array_equal(u, v) for u, v in zip(lines, free)), label


def test_classify_pairing_matches_the_projection_basis(hom_reps):
    nonempty = 0
    for label, rep in hom_reps:
        if factor_prime_power(rep.mod)[1] > 1:
            continue
        chars = [rep.det_character()]
        if rep.domain in ("G", "H"):
            chars.append(trivial_character(rep.group, rep.domain, rep.mod))
        for mu in chars:
            new = classify_pairing(rep, mu).basis
            old = classify_pairing_oracle(rep, mu)
            assert [s for _, s in new] == [s for _, s in old], label
            assert all(np.array_equal(m.a, b) for (m, _), (b, _) in zip(new, old)), label
            nonempty += bool(new)
    assert nonempty >= 5


def test_det_character_matches_the_per_image_det(hom_reps):
    """det_character reads det off one charpoly_stack; the oracle is one
    Bareiss Mat.det per image."""
    dims = set()
    for label, rep in hom_reps:
        want = [Mat(m, rep.mod).det() for m in rep.images]
        det = rep.det_character()
        assert det.dim == 1 and det.domain == rep.domain, label
        assert det.images[:, 0, 0].tolist() == want, label
        dims.add(rep.dim)
    assert {1, 2, 4}.issubset(dims)


def test_symmetry_rows_match_the_loop():
    for d in range(1, 6):
        for anti in (False, True):
            assert np.array_equal(symmetry_rows(d, 49, anti), symmetry_rows_oracle(d, 49, anti))


def test_witness_systems_match_the_witness_rows(shipped, hom_reps):
    rib, rib13 = ribet_fixture(), ribet_fixture(13, d=4, alpha=12, chi_val=5, precision=3)
    cases = [(rib.rep("lattice").restrict_to_H(), True),
             (rib13.rep("lattice").restrict_to_H(), True),
             (induce(shipped["m40_q11"].rep("rho_lift")), True)]
    cases += [(rep, rep.domain == "H") for _, rep in hom_reps]
    for rep, conjugate in cases:
        g = rep.group
        for psi in (coset_sign_character(g, rep.mod), trivial_character(g, "G", rep.mod)):
            pair = _witness_pair(rep, psi, conjugate)
            old_rows = witness_rows_oracle(rep, psi, conjugate)
            # the oracle writes R^vee(s) A - psi(s) A R^?(s): the same rows, negated
            assert np.array_equal(hom_system(*pair), -old_rows % rep.mod), repr(rep)
            for sign, anti in ((1, False), (-1, True)):
                label = (repr(rep), conjugate, anti)
                old = kernel_gens(
                    np.vstack([old_rows, symmetry_rows_oracle(rep.dim, rep.mod, anti)]),
                    rep.mod)
                new = kernel_gens(
                    np.vstack([hom_system(*pair), symmetry_rows(rep.dim, rep.mod, anti)]),
                    rep.mod)
                assert_same_kernel(new, old, label)
                assert_same_kernel(hom_kernel(*pair, sign), old, label)
