"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 2 and 3 are stated on configurations where the literal assertion
is provably unattainable (see the repository notes); they are implemented
verbatim and marked strict xfail, with green twin tests asserting the
corrected statement and the convention-free consequence.
"""

import time

import numpy as np
import pytest

from asaikit.batteries import (
    explicit_battery,
    lambda_battery,
    prasad_battery,
    selmerres_battery,
    shapiro_battery,
)
from asaikit import cli
from asaikit.cohomology import (
    Cocycle,
    as_twisted_module,
    conj_action,
    conjugate_hom_module,
    eigenspace_split,
    h1,
    hom_to_as_matrix,
    polarization_involution_matrix,
    shapiro,
)
from asaikit.exactalg import Mat, exterior_square
from asaikit.fixtures import (
    coh294_fixture,
    f20_fixture,
    m40_fixture,
    ribet_fixture,
)
from asaikit.grouprep import (
    Rep,
    classify_pairing,
    coset_sign_character,
    induce,
    isotypic_lines,
    power_character,
    tensor_induce,
    trivial_character,
    is_isomorphic,
)
from asaikit.lfunc import (
    SatakeParam,
    asai_dirichlet,
    euler_factor,
    eye,
    random_satake,
    synthetic_table,
    euler_product_coefficients,
    verify_lambda2,
    verify_std_decomposition,
)
from asaikit.polarization import (
    LatticeRep,
    criticality_dimensions,
    polarize,
    ribet_lattice,
    sign_congruence,
    theorem_main_pipeline,
)

PRINTED = []


def report(num, ok, text):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    PRINTED.append(line)
    assert ok, line


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_prasad_battery():
    t0 = time.monotonic()
    records = prasad_battery(seed=0, count=20)
    elapsed = time.monotonic() - t0
    fails = [r for r in records if not r["passed"]]
    report(
        1,
        not fails and elapsed < 10.0,
        f"tensor-induction identities on {len(records)} randomized cases, "
        f"0 failures, {elapsed:.2f}s",
    )


# -- 2 -----------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="provably unattainable on the order-20 fixture over F_11: the two "
    "invariant wedge lines would need a 4th root of unity (X^2+1 is "
    "irreducible mod 11) and the symplectic similitudes at ctilde are "
    "forced to square to -1; see the repository decision notes",
)
def test_criterion_02_lambda_decomposition_literal_f20_q11():
    fx = f20_fixture(11)
    g = fx.group
    rho = fx.rep("rho")
    ind = induce(rho)
    wedge_imgs = exterior_square(ind.images, 11)
    wedge = Rep(g, "G", wedge_imgs, 11, validate=False)
    one = trivial_character(g, "G", 11)
    sgn = coset_sign_character(g, 11)
    # literal criterion: one line each, and both carrying antisymmetric pairings
    assert len(isotypic_lines(wedge, one)) == 1
    assert len(isotypic_lines(wedge, sgn)) == 1
    even = classify_pairing(ind, one)
    odd = classify_pairing(ind, sgn)
    assert [s for _, s in even.basis] == ["antisymmetric"]
    assert [s for _, s in odd.basis] == ["antisymmetric"]


def test_criterion_02_lambda_decomposition_realized():
    """The identical assertions hold exactly on the order-40 cover (values
    +-1 at ctilde) and on the order-20 group over F_41 (order-4 values)."""
    records = lambda_battery()
    fails = [r for r in records if not r["passed"]]
    fx = m40_fixture()
    ind = induce(fx.rep("rho"))
    asm = tensor_induce(fx.rep("rho"), -1)
    # exact isomorphism As^- + line + line inside the wedge square
    wedge_imgs = exterior_square(ind.images, 11)
    wedge = Rep(fx.group, "G", wedge_imgs, 11, validate=False)
    one = trivial_character(fx.group, "G", 11)
    sgn = coset_sign_character(fx.group, 11)
    lines = isotypic_lines(wedge, one) + isotypic_lines(wedge, sgn)
    basis = np.array(lines)
    # complement of the two lines is isomorphic to the minus induction
    from asaikit.exactalg import kernel_mod

    comp = kernel_mod(basis, 11)
    proj = np.stack([comp @ wedge.arr(x) @ _right_inverse(comp, 11) for x in range(fx.group.n)]) % 11
    comp_rep = Rep(fx.group, "G", proj, 11, validate=False)
    ok_iso, _ = is_isomorphic(comp_rep, asm)
    report(
        2,
        not fails and ok_iso,
        "wedge square = minus-induction + line(mu) + line(mu sgn), both lines "
        "with antisymmetric pairings (order-40 cover, q=11; order-20 group, "
        "q=41); order-20/q=11 obstruction documented (strict xfail)",
    )


def _right_inverse(rows, q):
    # rows: k x n with independent rows; return n x k right inverse mod q
    from asaikit.exactalg import solve_mod

    sol = solve_mod(rows, np.eye(rows.shape[0], dtype=np.int64), q)
    assert sol is not None
    return sol


# -- 3 -----------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="with both displayed formulas implemented verbatim the exact "
    "identity is conj = (-1)^(k-1) perp: the transpose transport between "
    "shoulder matrices and the tensor module carries a sign the stated "
    "formula drops; the involution eigenvalue flips compensatingly, so "
    "the (-1)^k eigenspace conclusion is unaffected (see twin test)",
)
def test_criterion_03_lemma_explicit_literal():
    fx = coh294_fixture()
    rho = fx.rep("rho")
    eps = fx.rep("eps")
    q = rho.mod
    m = conjugate_hom_module(rho)
    data = h1(m)
    theta = hom_to_as_matrix(2, q)
    theta_inv = Mat(theta, q).inverse().a
    perp = polarization_involution_matrix(data, rho)
    for k in fx.meta["k_values"]:
        ambient = as_twisted_module(rho, power_character(eps, 1 - k))

        def conj_on_hom(z):
            as_coc = Cocycle(ambient.restrict(z.module.elements),
                             (z.values @ theta.T) % q)
            out = conj_action(as_coc, ambient)
            return Cocycle(z.module, (out.values @ theta_inv.T) % q)

        cmat = data.map_matrix(conj_on_hom, data)
        assert np.array_equal(cmat % q, (pow(-1, k) * perp) % q)


def test_criterion_03_lemma_explicit_exact_relation():
    records = explicit_battery()
    fails = [r for r in records if not r["passed"]]
    report(
        3,
        not fails,
        "conjugation = (-1)^(k-1) x involution as exact matrices on H^1 for "
        "k = 2 and k = 5, and every class lies in the (-1)^k eigenspace "
        "(literal (-1)^k factor strict-xfailed with analysis)",
    )


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_selmerres():
    records = selmerres_battery()
    fails = [r for r in records if not r["passed"]]
    with pytest.raises(ValueError):
        class _H:
            q = 2
            dim = 0

        eigenspace_split(_H(), np.zeros((0, 0), dtype=np.int64))
    report(
        4,
        not fails,
        "dim H^1(H,M) = dim H^1(G,M) + dim H^1(G,M x sgn) with restriction "
        "landing on the eigenspaces; q = 2 rejected",
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_shapiro():
    records = shapiro_battery()
    fails = [r for r in records if not r["passed"]]
    # bijectivity is asserted inside shapiro(); run it once more directly
    from asaikit.cohomology import hom_module

    rib = ribet_fixture()
    res = shapiro(hom_module(rib.rep("chi"), rib.rep("chi_inv")))
    square = res.matrix.shape == (res.h1_H.dim, res.h1_G_ind.dim)
    report(5, not fails and square,
           "dim H^1(H, M) = dim H^1(G, ind M); explicit map bijective")


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_euler_identity_battery():
    rng = np.random.default_rng(606)
    fails = 0
    for i in range(1000):
        sp = random_satake(rng, split=i % 2 == 0)
        ok, _ = verify_lambda2(sp, 1)
        fails += not ok
    triv_split = SatakeParam(5, True, eye(2), eye(2))
    triv_inert = SatakeParam(7, False, eye(2))
    from asaikit.exactalg import PolyX

    forms = (
        euler_factor(triv_split, "asai+").poly == PolyX([1, -4, 6, -4, 1]),
        euler_factor(triv_inert, "asai+").poly == PolyX([1, -2, 0, 2, -1]),
        euler_factor(triv_inert, "asai-").poly == PolyX([1, 2, 0, -2, -1]),
    )
    report(
        6,
        fails == 0 and all(forms),
        "wedge-square factorization on 1000 seeded parameters, 0 failures; "
        "closed forms (1-X)^4, (1-X)^3(1+X), (1+X)^3(1-X) match",
    )


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_std_decomposition():
    rng = np.random.default_rng(707)
    fails = 0
    for i in range(200):
        sp = random_satake(rng, split=i % 2 == 0)
        ok, _ = verify_std_decomposition(sp)
        fails += not ok
    report(
        7,
        fails == 0,
        "std of the induced Frobenius = quadratic character + twisted "
        "tensor-induction factor on 200 seeded parameters, exact",
    )


# -- 8 -----------------------------------------------------------------------

RIBET_FAMILIES = [
    dict(q=7, d=6, alpha=2, chi_val=3),
    dict(q=11, d=5, alpha=9, chi_val=3),
    dict(q=13, d=3, alpha=9, chi_val=3),
]


def _conjugate_lattice(fix, rng):
    mod = fix.rep("lattice").mod
    while True:
        u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
        if u.is_invertible():
            break
    uinv = u.inverse()
    imgs = np.stack([(uinv.a @ m @ u.a) % mod for m in fix.rep("lattice").images])
    rep = Rep(fix.group, "G", imgs, mod, validate=False)
    return LatticeRep(rep, fix.rep("chi"), fix.rep("chi_inv"))


def test_criterion_08_ribet_roundtrip():
    rng = np.random.default_rng(808)
    runs = 0
    recovered = 0
    refs = {}
    base_fixtures = {}
    for fam in RIBET_FAMILIES:
        base_fixtures[fam["q"]] = ribet_fixture(**fam)
        rr = ribet_lattice(
            LatticeRep(
                base_fixtures[fam["q"]].rep("lattice"),
                base_fixtures[fam["q"]].rep("chi"),
                base_fixtures[fam["q"]].rep("chi_inv"),
            )
        )
        refs[fam["q"]] = rr.h1data.class_coords(rr.cocycle)
    while runs < 50:
        for fam in RIBET_FAMILIES:
            if runs >= 50:
                break
            q = fam["q"]
            s = 1 + runs % (q - 1)
            fix = ribet_fixture(**fam, deform=s)
            latt = _conjugate_lattice(fix, rng)
            rr = ribet_lattice(latt)
            got = rr.h1data.class_coords(rr.cocycle) if not rr.split else None
            ok = (
                not rr.split
                and got is not None
                and np.any(got)
                and len(
                    {
                        (int(a) * pow(int(b), -1, q)) % q
                        for a, b in zip(got, refs[q])
                        if int(b)
                    }
                ) == 1
            )
            recovered += ok
            runs += 1
    splits_ok = True
    for fam in RIBET_FAMILIES:
        fix = ribet_fixture(**fam, deform=0)
        latt = _conjugate_lattice(fix, rng)
        splits_ok = splits_ok and ribet_lattice(latt).split
    report(
        8,
        recovered == 50 and splits_ok,
        f"planted classes recovered up to scalar in {recovered}/50 conjugated "
        "lattices over Z/q^2; planted split inputs report split",
    )


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_parity_law_and_criticality():
    ok_all = True
    for fam in RIBET_FAMILIES:
        fix = ribet_fixture(**fam)
        mod2 = fix.rep("lattice").mod
        psi = coset_sign_character(fix.group, mod2)
        latt = LatticeRep(fix.rep("lattice"), fix.rep("chi"), fix.rep("chi_inv"))
        rep = theorem_main_pipeline(latt, psi)
        ok_all = ok_all and rep.eigenvalue_law_holds and rep.eigenvalue == 1
        flip = theorem_main_pipeline(
            latt, trivial_character(fix.group, "G", mod2), require_odd_psi=False
        )
        ok_all = ok_all and flip.eigenvalue == -1 and flip.eigenvalue_law_holds
    crit_ok = all(
        criticality_dimensions(n)["betti_plus"] == n * (n - 1) // 2
        and criticality_dimensions(n)["critical"]
        for n in range(1, 9)
    )
    report(
        9,
        ok_all and crit_ok,
        "eigenvalue = -psi(ctilde) x sign(R) = +1 on all odd-psi pipeline "
        "fixtures, flips with psi's parity; betti_plus = n(n-1)/2 for n <= 8",
    )


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_sign_congruences():
    rng = np.random.default_rng(1010)
    from asaikit.fixtures import c15_fixture, element_of_order, _lift_root_of_unity
    from asaikit.grouprep import make_character, induce as _induce

    pairs_ok = 0
    total = 0

    def random_conjugate(rep, rng):
        mod = rep.mod
        d = rep.dim
        while True:
            u = Mat(rng.integers(0, mod, size=(d, d)), mod)
            if u.is_invertible():
                break
        uinv = u.inverse()
        imgs = np.stack([(uinv.a @ m @ u.a) % mod for m in rep.images])
        return Rep(rep.group, rep.domain, imgs, mod, validate=False)

    m40 = m40_fixture()
    ind40 = _induce(m40.rep("rho_lift"))
    psi40 = coset_sign_character(m40.group, 121)
    p40 = polarize(ind40, psi40, conjugate=False)
    for _ in range(10):
        p2 = polarize(random_conjugate(ind40, rng), psi40, conjugate=False)
        repd = sign_congruence(p40, p2)
        pairs_ok += repd["signs_agree"] and repd["schur_scalar"] != 0
        total += 1
    c15 = c15_fixture()
    q, mod = 31, 961
    zl = _lift_root_of_unity(element_of_order(15, q), 15, q, mod)
    # H is the labels (b, 0), b = 0..14; chi_l(b, 0) = zl^b
    chi_l = make_character(
        c15.group, "H", [pow(zl, c15.group.elements[h][0], mod) for h in c15.group.H], mod
    )
    ind15 = _induce(chi_l)
    det_inv = Rep(
        c15.group, "G",
        np.array([[[pow(int(Mat(m, mod).det()), -1, mod)]] for m in ind15.images],
                 dtype=np.int64),
        mod, validate=False,
    )
    p15 = polarize(ind15, det_inv, conjugate=False)
    for _ in range(10):
        p2 = polarize(random_conjugate(ind15, rng), det_inv, conjugate=False)
        repd = sign_congruence(p15, p2)
        pairs_ok += repd["signs_agree"] and repd["schur_scalar"] != 0
        total += 1
    report(
        10,
        pairs_ok == total == 20,
        f"signs agree with Schur-scalar verification on {pairs_ok}/20 "
        "congruent pairs over Z/q^2",
    )


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_dirichlet_euler_consistency():
    rng = np.random.default_rng(1111)
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    params = {p: random_satake(rng, p=p) for p in primes}
    tbl = synthetic_table(params, 100)
    lhs = asai_dirichlet(tbl, 100)
    rhs = euler_product_coefficients(params, 100)
    report(
        11,
        lhs == rhs and all(isinstance(x, int) for x in lhs),
        "zeta(2s)-convolved diagonal table matches the tensor-induction "
        "Euler product for all m <= 100, exact integers",
    )


# -- 12 ----------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1 = cli.main(["verify-identities", "--seed", "12", "--report", str(a)])
    code2 = cli.main(["verify-identities", "--seed", "12", "--report", str(b)])
    report(
        12,
        code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes(),
        "two identity-battery runs with identical config produce "
        "byte-identical reports",
    )
