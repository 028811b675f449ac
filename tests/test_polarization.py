import numpy as np
import pytest

from asaikit import exactalg, grouprep, polarization
from asaikit.cohomology import SelmerStructure
from asaikit.exactalg import Mat, charpoly, kernel_gens
from asaikit.fixtures import (
    c15_fixture,
    element_of_order,
    load_shipped,
    m40_fixture,
    ribet_fixture,
    ribet_v0_fixture,
)
from asaikit.grouprep import (
    Rep,
    coset_sign_character,
    induce,
    make_character,
    trivial_character,
)
from asaikit.polarization import (
    LatticeRep,
    PipelineError,
    PolarizedRep,
    bc_sign,
    criticality_dimensions,
    endomorphism_free_rank,
    polarize,
    ribet_lattice,
    sign_congruence,
    theorem_main_pipeline,
)


@pytest.fixture(scope="module")
def rib():
    return ribet_fixture()


@pytest.fixture(scope="module")
def rib_split():
    return ribet_fixture(deform=0)


@pytest.fixture(scope="module")
def rib_v0():
    return ribet_v0_fixture()


@pytest.fixture(scope="module")
def m40():
    return m40_fixture()


def make_lattice(fix):
    return LatticeRep(fix.rep("lattice"), fix.rep("chi"), fix.rep("chi_inv"))


def rand_gl2(rng, mod):
    while True:
        u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
        if u.is_invertible():
            return u


def conjugated_lattice(fix, rng):
    mod = fix.rep("lattice").mod
    u = rand_gl2(rng, mod)
    uinv = u.inverse()
    imgs = np.stack(
        [(uinv.a @ m @ u.a) % mod for m in fix.rep("lattice").images]
    )
    rep = Rep(fix.group, "G", imgs, mod, validate=False)
    return LatticeRep(rep, fix.rep("chi"), fix.rep("chi_inv"))


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------


def test_bc_sign_on_pipeline_rep(rib):
    """A 2-dim lattice rep extending to G with det R = psi^{-1}|_H and
    psi(ctilde) = -1 has sign +1."""
    g = rib.group
    psi = coset_sign_character(g, 49)
    r = rib.rep("lattice").restrict_to_H()
    p = polarize(r, psi, conjugate=True)
    assert bc_sign(p) == 1
    assert np.array_equal(p.witness.a.T, p.witness.a)


def test_bc_sign_scalar_rescaling_invariant(rib):
    g = rib.group
    psi = coset_sign_character(g, 49)
    r = rib.rep("lattice").restrict_to_H()
    p = polarize(r, psi)
    scaled = PolarizedRep(r, psi, Mat(p.witness.a * 3, 49), p.symmetry, True)
    assert bc_sign(scaled) == bc_sign(p)


def test_polarized_rep_refuses_a_witness_over_another_modulus(rib):
    latt = make_lattice(rib)
    psi = coset_sign_character(rib.group, 49)
    w = polarize(latt.restricted, psi).witness
    with pytest.raises(ValueError, match="witness modulus"):
        PolarizedRep(latt.restricted, psi, Mat(w.a % 7, 7), 1)


def witness_identity_holds_everywhere(rep, psi, a, conjugate):
    """Oracle: R^vee(x) = psi(x) A R^?(x) A^{-1} at every domain element."""
    g, mod = rep.group, rep.mod
    ainv = a.inverse().a
    for x in rep.elements:
        rv = rep.arr(g.inverse(x)).T
        tgt = rep.arr(g.conj_ctilde(x)) if conjugate else rep.arr(x)
        if not np.array_equal(rv, a.a @ tgt % mod @ ainv % mod * psi.value(x) % mod):
            return False
    return True


def partial_witnesses(rep, psi, conjugate, sym, skip):
    """Kernel generators of the witness system of the given symmetry over
    every domain generator except gens[skip]."""
    g, d, mod = rep.group, rep.dim, rep.mod
    eye = np.eye(d, dtype=np.int64)
    rows = []
    for k, x in enumerate(rep.gens):
        if k != skip:
            rv = rep.arr(g.inverse(x)).T
            tgt = rep.arr(g.conj_ctilde(x)) if conjugate else rep.arr(x)
            rows += list((np.kron(rv, eye) - psi.value(x) * np.kron(eye, tgt.T)) % mod)
    for i in range(d):
        for j in range(i, d):
            r = np.zeros(d * d, dtype=np.int64)
            r[i * d + j] += 1
            r[j * d + i] += -sym
            rows.append(r % mod)
    return [v for v, _ in kernel_gens(np.array(rows), mod)]


def test_witness_generator_check_agrees_with_full_check(rib, m40):
    rng = np.random.default_rng(41)
    g40 = m40.group
    cases = [
        (rib.rep("lattice").restrict_to_H(), coset_sign_character(rib.group, 49), True),
        (induce(m40.rep("rho_lift")), coset_sign_character(g40, 121), False),
        (induce(m40.rep("rho_lift")), trivial_character(g40, "G", 121), False),
    ]
    verdicts = set()
    for rep, psi, conjugate in cases:
        base = polarize(rep, coset_sign_character(rep.group, rep.mod), conjugate)
        d, mod, sym = rep.dim, rep.mod, base.symmetry
        witnesses = []
        for _ in range(40):  # symmetry-preserving single-entry changes, rescaled
            a = base.witness.a.copy()
            if rng.integers(3):
                i, j = (int(k) for k in rng.choice(d, size=2, replace=sym == 1))
                t = int(rng.integers(1, mod))
                a[i, j] += t
                if i != j:
                    a[j, i] += t * sym
            witnesses.append(a * int(rng.choice([1, 2, 3, mod - 1])))
        for skip in range(len(rep.gens)):  # right on all generators but one
            kernel = partial_witnesses(rep, psi, conjugate, sym, skip)
            for _ in range(20):
                coeffs = rng.integers(0, mod, size=len(kernel))
                witnesses.append(sum(int(c) * v for c, v in zip(coeffs, kernel)).reshape(d, d))
        for a in witnesses:
            a = Mat(a % mod, mod)
            if not a.is_invertible():
                continue
            expected = witness_identity_holds_everywhere(rep, psi, a, conjugate)
            try:
                PolarizedRep(rep, psi, a, sym, conjugate)
                ok = True
            except ValueError as exc:
                assert str(exc) == "polarization witness identity fails"
                ok = False
            assert ok == expected
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_witness_check_rejects_a_rep_or_psi_off_at_one_non_generator(rib):
    g = rib.group
    r = rib.rep("lattice").restrict_to_H()
    psi = coset_sign_character(g, 49)
    a = polarize(r, psi).witness
    x = next(h for h in r.elements
             if h not in r.gens and g.conj_ctilde(g.inverse(h)) != h)
    bad_r = r.images.copy()
    bad_r[r.pos[x]] = bad_r[r.pos[x]] * 2 % 49
    bad_psi = psi.images.copy()
    bad_psi[psi.pos[x]] = 48
    for rep, chi in ((Rep(g, "H", bad_r, 49, validate=False), psi),
                     (r, Rep(g, "G", bad_psi, 49, validate=False))):
        assert not witness_identity_holds_everywhere(rep, chi, a, True)
        with pytest.raises(ValueError, match="multiplication table"):
            PolarizedRep(rep, chi, a, 1, True)


def test_bc_sign_conjugation_invariant(rib):
    rng = np.random.default_rng(11)
    g = rib.group
    psi = coset_sign_character(g, 49)
    latt = conjugated_lattice(rib, rng)
    p = polarize(latt.rep.restrict_to_H(), psi)
    assert bc_sign(p) == 1


def test_bc_sign_rejects_reducible(rib):
    g = rib.group
    r = rib.rep("lattice").restrict_to_H()
    imgs = np.zeros((len(g.H), 4, 4), dtype=np.int64)
    for i in range(len(g.H)):
        imgs[i, :2, :2] = r.images[i]
        imgs[i, 2:, 2:] = r.images[i]
    rr = Rep(g, "H", imgs, 49, validate=False)
    psi = coset_sign_character(g, 49)
    with pytest.raises(ValueError, match="dimension"):
        polarize(rr, psi)


def plain_polarized_m40(deform=True):
    fx = m40_fixture()
    g = fx.group
    mod = 121
    ind = induce(fx.rep("rho_lift"))
    psi = coset_sign_character(g, mod)
    p = polarize(ind, psi, conjugate=False)
    return fx, ind, psi, p


def test_plain_polarization_m40_is_symplectic():
    fx, ind, psi, p = plain_polarized_m40()
    assert bc_sign(p) == -1  # the induced rep is symplectic


def test_sign_congruence_trivial_and_conjugate():
    rng = np.random.default_rng(5)
    fx, ind, psi, p1 = plain_polarized_m40()
    rep = sign_congruence(p1, p1)
    assert rep["signs_agree"] and rep["schur_scalar"] != 0
    # basis-conjugate partner over Z/q^2
    mod = 121
    while True:
        u = Mat(rng.integers(0, mod, size=(4, 4)), mod)
        if u.is_invertible():
            break
    uinv = u.inverse()
    imgs = np.stack([(uinv.a @ m @ u.a) % mod for m in ind.images])
    ind2 = Rep(fx.group, "G", imgs, mod, validate=False)
    p2 = polarize(ind2, psi, conjugate=False)
    rep2 = sign_congruence(p1, p2)
    assert rep2["signs_agree"]


def test_sign_congruence_deformed_pair():
    """p2 = p1 + q * (deformation respecting psi): equal signs."""
    rng = np.random.default_rng(17)
    fx, ind, psi, p1 = plain_polarized_m40()
    mod, q = 121, 11
    b = p1.witness.a
    # a pairing-respecting first-order deformation is I + qW with
    # W^T B + B W = 0; solve for a random such W and conjugate
    from asaikit.exactalg import kernel_mod

    d = 4
    rows = (np.kron(np.eye(d, dtype=np.int64), b.T % q).reshape(d * d, d * d)
            @ _transpose_op(d)
            + np.kron((b.T % q).T, np.eye(d, dtype=np.int64))) % q
    basis = kernel_mod(rows % q, q)
    w = sum(int(rng.integers(0, q)) * v for v in basis) % q
    u = Mat((np.eye(d, dtype=np.int64) + q * w.reshape(d, d)) % mod, mod)
    uinv = u.inverse()
    imgs = np.stack([(uinv.a @ m @ u.a) % mod for m in ind.images])
    ind2 = Rep(fx.group, "G", imgs, mod, validate=False)
    p2 = polarize(ind2, psi, conjugate=False)
    rep = sign_congruence(p1, p2)
    assert rep["signs_agree"] and p2.symmetry == -1


def _transpose_op(d):
    t = np.zeros((d * d, d * d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            t[i * d + j, j * d + i] = 1
    return t


def test_sign_congruence_c15_family():
    rng = np.random.default_rng(23)
    fx = c15_fixture()
    g = fx.group
    q, mod = 31, 961
    z = element_of_order(15, q)
    # lift the character to Z/q^2 and induce
    from asaikit.fixtures import _lift_root_of_unity

    zl = _lift_root_of_unity(z, 15, q, mod)
    # H is the labels (b, 0), b = 0..14; chi_l(b, 0) = zl^b
    chi_l = make_character(
        g, "H", [pow(zl, g.elements[h][0], mod) for h in g.H], mod
    )
    ind = induce(chi_l)
    det_inv = Rep(
        g, "G",
        np.array([[[pow(int(Mat(m, mod).det()), -1, mod)]] for m in ind.images],
                 dtype=np.int64),
        mod, validate=False,
    )
    p1 = polarize(ind, det_inv, conjugate=False)
    assert bc_sign(p1) == -1
    while True:
        u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
        if u.is_invertible():
            break
    uinv = u.inverse()
    imgs = np.stack([(uinv.a @ m @ u.a) % mod for m in ind.images])
    p2 = polarize(Rep(g, "G", imgs, mod, validate=False), det_inv,
                  conjugate=False)
    assert sign_congruence(p1, p2)["signs_agree"]


# ---------------------------------------------------------------------------
# Ribet descent
# ---------------------------------------------------------------------------


def test_ribet_roundtrip_planted_classes():
    rng = np.random.default_rng(31)
    base = ribet_fixture(deform=1)
    latt0 = make_lattice(base)
    r0 = ribet_lattice(latt0)
    assert not r0.split and r0.level == 1
    ref = r0.h1data.class_coords(r0.cocycle)
    for s in (2, 3, 6):
        fx = ribet_fixture(deform=s)
        latt = conjugated_lattice(fx, rng)
        rr = ribet_lattice(latt)
        assert not rr.split and rr.level == 1
        got = rr.h1data.class_coords(rr.cocycle)
        # proportional to the planted class
        assert got.shape == ref.shape and np.any(got)
        ratios = {(int(a) * pow(int(b), -1, 7)) % 7
                  for a, b in zip(got, ref) if int(b)}
        assert len(ratios) == 1


def test_ribet_conjugated_rep_is_triangular(rib):
    # ribet_q7_d6 and the ribet-ladder rungs (d = 4, precision 3), each
    # conjugated by several random bases
    ladder = [ribet_fixture(q, d=4, alpha=q - 1, chi_val=c, precision=3)
              for q, c in ((13, 5), (37, 6), (101, 10))]
    for fix in [rib] + ladder:
        chi, chi_inv = fix.rep("chi"), fix.rep("chi_inv")
        q = chi.mod
        for seed in (59, 3, 17, 71):
            latt = conjugated_lattice(fix, np.random.default_rng(seed))
            rr = ribet_lattice(latt)
            els = latt.rep.restrict_to_H().elements
            m = rr.conjugated.arr(els) % q
            assert not np.any(m[:, 1:, :1]), (q, seed)  # lower-left block vanishes mod q
            assert np.array_equal(m[:, 0, 0], chi.value(els)), (q, seed)
            assert np.array_equal(m[:, 1, 1], chi_inv.value(els)), (q, seed)


def test_ribet_split_input(rib_split):
    latt = make_lattice(rib_split)
    rr = ribet_lattice(latt)
    assert rr.split and rr.cocycle is None


def test_ribet_split_conjugated(rib_split):
    rng = np.random.default_rng(41)
    latt = conjugated_lattice(rib_split, rng)
    assert ribet_lattice(latt).split


def test_ribet_level0_input(rib_v0):
    latt = make_lattice(rib_v0)
    rr = ribet_lattice(latt)
    assert not rr.split and rr.level == 0
    # conjugating does not change the class (up to scalar)
    rng = np.random.default_rng(43)
    latt2 = conjugated_lattice(rib_v0, rng)
    rr2 = ribet_lattice(latt2)
    a = rr.h1data.class_coords(rr.cocycle)
    b = rr2.h1data.class_coords(rr2.cocycle)
    assert np.any(a) and np.any(b)


def test_ribet_wrong_block_order_rejected(rib_v0):
    lat = rib_v0.rep("lattice")
    with pytest.raises(PipelineError, match="block order"):
        ribet_lattice(LatticeRep(lat, rib_v0.rep("chi_inv"), rib_v0.rep("chi")))


def test_lattice_rep_invariants(rib):
    lat = rib.rep("lattice")
    with pytest.raises(ValueError, match="non-isomorphic"):
        LatticeRep(lat, rib.rep("chi"), rib.rep("chi"))


def test_lattice_rep_rejects_a_mismatched_semisimplification(rib):
    """chi^2 and chi_inv are distinct, non-isomorphic and absolutely
    irreducible (chi has order 6), so every other check passes; but the
    lattice reduces to chi + chi_inv on H, so it triangularizes with these
    blocks in neither order, and the constructor must refuse the pair."""
    chi, chi_inv = rib.rep("chi"), rib.rep("chi_inv")
    chi2 = chi.twist(chi)
    assert chi2 != chi_inv and endomorphism_free_rank(chi2) == 1
    with pytest.raises(ValueError, match="semisimplification does not match"):
        LatticeRep(rib.rep("lattice"), chi2, chi_inv)
    with pytest.raises(ValueError, match="semisimplification does not match"):
        LatticeRep(rib.rep("lattice"), chi_inv, chi2)
    # the same lattice with the matching pair is accepted, in either order
    LatticeRep(rib.rep("lattice"), chi, chi_inv)
    LatticeRep(rib.rep("lattice"), chi_inv, chi)


def test_ribet_precision3_descent():
    """At precision q^3 with the class planted two lattice steps down, the
    descent absorbs two coboundary levels before finding it."""
    rng = np.random.default_rng(53)
    fix3 = ribet_fixture(precision=3)
    assert fix3.rep("lattice").mod == 343
    latt = make_lattice(fix3)
    rr = ribet_lattice(latt)
    assert not rr.split and rr.level == 2
    ref = rr.h1data.class_coords(rr.cocycle)
    assert np.any(ref)
    # a random conjugate scrambles the lower levels into nonzero coboundary
    # cocycles, exercising the absorption solves
    latt2 = conjugated_lattice(fix3, rng)
    rr2 = ribet_lattice(latt2)
    assert not rr2.split and rr2.level == 2
    got = rr2.h1data.class_coords(rr2.cocycle)
    ratios = {(int(a) * pow(int(b), -1, 7)) % 7 for a, b in zip(got, ref) if int(b)}
    assert len(ratios) == 1
    # split input at precision 3
    fix3s = ribet_fixture(precision=3, deform=0)
    assert ribet_lattice(conjugated_lattice(fix3s, rng)).split


def test_pipeline_precision3():
    fix3 = ribet_fixture(precision=3)
    g = fix3.group
    psi = coset_sign_character(g, 343)
    rep = theorem_main_pipeline(make_lattice(fix3), psi)
    assert rep.eigenvalue == 1 and rep.sign == 1 and rep.level == 2
    assert rep.eigenvalue_law_holds


def test_ribet_descent_reduces_between_factors_past_int64():
    """Over Z/13^7 (accepted by the int64 product check) a product of three
    residues overflows int64.  Conjugating the lattice by [[1, 2], [3, 7]]
    scrambles all six levels below the class, and the descent still finds
    it at level 6 with the eigenvalue law holding."""
    fix = ribet_fixture(13, d=4, alpha=12, chi_val=5, precision=7)
    lat = fix.rep("lattice")
    mod = lat.mod
    u = Mat([[1, 2], [3, 7]], mod)
    imgs = u.inverse().a @ lat.images % mod @ u.a % mod
    latt = LatticeRep(Rep(fix.group, "G", imgs, mod), fix.rep("chi"), fix.rep("chi_inv"))
    rr = ribet_lattice(latt)
    assert not rr.split and rr.level == 6
    report = theorem_main_pipeline(latt, coset_sign_character(fix.group, mod))
    assert report.level == 6 and report.eigenvalue_law_holds


# ---------------------------------------------------------------------------
# one certificate per lattice
# ---------------------------------------------------------------------------

LADDER = ((13, 5), (37, 6), (101, 10))  # the ribet-ladder rungs (q, chi value)


def ladder_fixture(q, c):
    return ribet_fixture(q, d=4, alpha=q - 1, chi_val=c, precision=3)


def brauer_nesbitt(rep, rb1, rb2):
    """Oracle, apart from `charpoly_stack`: at every element of the blocks'
    domain the charpoly of rep mod q is the product of the blocks'
    charpolys, each from the scalar `charpoly` over Z, then reduced."""
    q = rb1.mod
    els = rb1.elements
    for m, m1, m2 in zip(rep.arr(els).tolist(), rb1.arr(els).tolist(),
                         rb2.arr(els).tolist()):
        prod = np.convolve(charpoly(m1), charpoly(m2)) % q
        if not np.array_equal(np.array(charpoly(m)) % q, prod):
            return False
    return True


@pytest.fixture(scope="module")
def accepted_lattices(rib_v0):
    """Every shipped ribet fixture, ribet_v0 and the ladder rungs at
    precision 3, each as given and under two seeded conjugations."""
    fixes = [load_shipped(n) for n in ("ribet_q7_d6", "ribet_q7_d6_split")]
    fixes += [rib_v0] + [ladder_fixture(q, c) for q, c in LADDER]
    out = []
    for fix in fixes:
        out.append(make_lattice(fix))
        out += [conjugated_lattice(fix, np.random.default_rng(s)) for s in (7, 61)]
    return out


def test_every_accepted_lattice_passes_brauer_nesbitt(accepted_lattices):
    assert len(accepted_lattices) == 18
    for latt in accepted_lattices:
        assert brauer_nesbitt(latt.rep, latt.rhobar1, latt.rhobar2)


def test_brauer_nesbitt_refuses_the_mismatched_pairs(rib):
    chi, chi_inv = rib.rep("chi"), rib.rep("chi_inv")
    chi2 = chi.twist(chi)
    lattice = rib.rep("lattice")
    assert brauer_nesbitt(lattice, chi, chi_inv) and brauer_nesbitt(lattice, chi_inv, chi)
    assert not brauer_nesbitt(lattice, chi2, chi_inv)
    assert not brauer_nesbitt(lattice, chi_inv, chi2)


def counting(monkeypatch, modules, names):
    """Wrap each of `names` wherever one of `modules` binds it; the calls
    land in the returned list."""
    calls = []
    for mod in modules:
        for name in names:
            if hasattr(mod, name):
                real = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real, **k:
                                    calls.append(_n) or _f(*a, **k))
    return calls


def test_a_lattice_rep_computes_no_charpoly(rib, monkeypatch):
    calls = counting(monkeypatch, (exactalg, grouprep, polarization),
                     ("charpoly_stack", "polymul_stack"))
    make_lattice(rib)
    conjugated_lattice(ladder_fixture(13, 5), np.random.default_rng(3))
    assert calls == []


def test_ribet_lattice_does_not_triangularize_again(rib, rib_v0, monkeypatch):
    lattices = [make_lattice(rib), make_lattice(rib_v0),
                conjugated_lattice(ladder_fixture(37, 6), np.random.default_rng(5))]
    calls = counting(monkeypatch, (grouprep, polarization),
                     ("intertwiner_space", "is_isomorphic"))
    for latt in lattices:
        ribet_lattice(latt)
    assert calls == []


@pytest.mark.parametrize("build", [lambda: load_shipped("ribet_q7_d6"),
                                   lambda: ladder_fixture(13, 5)], ids=["q7_d6", "q13"])
def test_a_lattice_given_on_h_descends_as_the_lattice_on_g(build):
    fix = build()
    chi, chi_inv = fix.rep("chi"), fix.rep("chi_inv")
    on_g = LatticeRep(fix.rep("lattice"), chi, chi_inv)
    lattice_h = fix.rep("lattice").restrict_to_H()
    on_h = LatticeRep(lattice_h, chi, chi_inv)
    assert on_h.restricted is lattice_h and on_g.restricted.domain == "H"
    rg, rh = ribet_lattice(on_g), ribet_lattice(on_h)
    assert not rh.split and rh.level == rg.level
    assert rh.conjugated.domain == "H"
    assert np.array_equal(rh.h1data.class_coords(rh.cocycle),
                          rg.h1data.class_coords(rg.cocycle))
    psi = coset_sign_character(fix.group, fix.rep("lattice").mod)
    assert (theorem_main_pipeline(on_h, psi).to_json()
            == theorem_main_pipeline(on_g, psi).to_json())


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def test_pipeline_parity_law(rib):
    g = rib.group
    psi = coset_sign_character(g, 49)
    latt = make_lattice(rib)
    rep = theorem_main_pipeline(latt, psi)
    assert rep.sign == 1
    assert rep.eigenvalue == 1  # -psi(ct) * sign = -(-1)(+1)
    assert rep.eigenvalue_law_holds
    assert rep.details["h1_dim"] == 1


def test_pipeline_restricts_the_lattice_rep_once(rib, monkeypatch):
    lattice = rib.rep("lattice")
    calls = []
    restrict = Rep.restrict

    def counting_restrict(self, elements):
        if self is lattice:
            calls.append(elements)
        return restrict(self, elements)

    monkeypatch.setattr(Rep, "restrict", counting_restrict)
    theorem_main_pipeline(make_lattice(rib), coset_sign_character(rib.group, 49))
    assert len(calls) == 1


def test_pipeline_parity_flip(rib):
    """Replacing psi by psi*sgn flips the eigenvalue."""
    g = rib.group
    triv = trivial_character(g, "G", 49)  # = sgn * sgn
    latt = make_lattice(rib)
    rep = theorem_main_pipeline(latt, triv, require_odd_psi=False)
    assert rep.eigenvalue == -1
    assert rep.eigenvalue_law_holds  # -(+1)(+1) = -1


def test_pipeline_rejects_even_psi_by_default(rib):
    g = rib.group
    triv = trivial_character(g, "G", 49)
    with pytest.raises(PipelineError, match="-1"):
        theorem_main_pipeline(make_lattice(rib), triv)


def test_pipeline_rejects_psi_that_is_not_a_character_of_g_over_the_lattice_modulus(
        rib, rib_split):
    # a psi over F_7 for the mod-49 lattice, a psi on H only and a psi of
    # another group object: none is refused later for the right reason (the
    # F_7 one ran to a report, its residues read mod 49)
    g = rib.group
    latt = make_lattice(rib)
    for psi in (coset_sign_character(g, 7), coset_sign_character(g, 49).restrict_to_H(),
                coset_sign_character(rib_split.group, 49)):
        with pytest.raises(PipelineError, match="^psi must be a character of G over the "
                                                "lattice's modulus$"):
            theorem_main_pipeline(latt, psi)


def test_pipeline_split_input(rib_split):
    g = rib_split.group
    psi = coset_sign_character(g, 49)
    with pytest.raises(PipelineError, match="split"):
        theorem_main_pipeline(make_lattice(rib_split), psi)


def test_pipeline_selmer_membership(rib):
    g = rib.group
    psi = coset_sign_character(g, 49)
    latt = make_lattice(rib)
    v_sub = tuple(h for h in g.H if g.elements[h][1] == 0)
    in_full = theorem_main_pipeline(
        latt, psi, selmer=SelmerStructure([(v_sub, "full")])
    )
    assert in_full.in_selmer is True
    out_zero = theorem_main_pipeline(
        latt, psi, selmer=SelmerStructure([(v_sub, "zero")])
    )
    assert out_zero.in_selmer is False


def test_pipeline_level0_fixture(rib_v0):
    g = rib_v0.group
    psi = coset_sign_character(g, 49)
    rep = theorem_main_pipeline(make_lattice(rib_v0), psi)
    assert rep.eigenvalue == 1 and rep.sign == 1 and rep.level == 0


def test_pipeline_report_json(rib):
    g = rib.group
    psi = coset_sign_character(g, 49)
    rep = theorem_main_pipeline(make_lattice(rib), psi)
    obj = rep.to_json()
    assert set(obj) >= {"sign", "eigenvalue", "selmer_membership",
                        "class_representative"}


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


def test_criticality_small_ranks():
    assert criticality_dimensions(1) == {
        "betti_plus": 0, "dr_quotient": 0, "critical": True, "weight": 1, "twist": 0,
    }
    out = criticality_dimensions(2)
    assert out["betti_plus"] == 1 and out["critical"]


def test_criticality_n4_trace_oracle():
    # for an involution, dim(+1 eigenspace) = (dim + trace)/2
    out = criticality_dimensions(4)
    iota_trace = -4  # signed swap: trace(-S) = -n
    assert out["betti_plus"] == (16 + iota_trace) // 2 == 6


def test_criticality_through_rank8():
    for n in range(1, 9):
        out = criticality_dimensions(n, w=3, i=1)
        assert out["betti_plus"] == n * (n - 1) // 2
        assert out["critical"]


def test_endomorphism_free_rank(rib):
    r = rib.rep("lattice").restrict_to_H()
    assert endomorphism_free_rank(r) == 1


def test_reduce_is_the_residual_representation(rib):
    lat = rib.rep("lattice")  # over Z/49
    red = lat.reduce(7)
    assert red.mod == 7 and red.domain == "G"
    assert np.array_equal(red.images, lat.images % 7)
    red.validate()  # the reduction is again a representation
    with pytest.raises(ValueError, match="divide"):
        lat.reduce(5)


@pytest.mark.parametrize("symmetry", [2, 0, -2, True, 1.0])
def test_polarized_rep_refuses_a_symmetry_other_than_plus_or_minus_one(rib, symmetry):
    psi = coset_sign_character(rib.group, 49)
    r = rib.rep("lattice").restrict_to_H()
    w = polarize(r, psi).witness  # a valid symmetric witness
    with pytest.raises(ValueError, match=f"symmetry must be \\+1 or -1, got {symmetry!r}"):
        PolarizedRep(r, psi, w, symmetry)


def test_polarized_rep_stores_a_numpy_symmetry_as_an_int(rib):
    psi = coset_sign_character(rib.group, 49)
    r = rib.rep("lattice").restrict_to_H()
    w = polarize(r, psi).witness  # a valid symmetric witness
    pol = PolarizedRep(r, psi, w, np.int64(1))
    assert type(pol.symmetry) is int and pol.symmetry == 1
