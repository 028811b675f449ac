import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from asaikit.fixtures import (
    METACYCLIC_TABLE,
    _lift_root_of_unity,
    _metacyclic_2dim_rep,
    element_of_order,
    group_from_labels,
    m40_fixture,
    ribet_fixture,
    ribet_v0_fixture,
    semidirect_group,
    shipped_fixture_builders,
)
from asaikit.grouprep import FiniteGroup, Rep, coset_sign_character
from asaikit.polarization import LatticeRep, ribet_lattice, theorem_main_pipeline

# sha256 of json.dumps(fixture.to_json(), sort_keys=True): elements, table, H,
# ctilde, every rep image and the metadata.  A builder change that alters any
# fixture content shows up here.
FIXTURE_SHA256 = {
    "s3_c3_chi3_q7": "b6284d14bcbe957e37a9fd9a8e1a8e238161a3c230aac517eea06ba62169fa56",
    "f20_d5_rho_q11": "21d3198bd0a5c99c7b051e05a17d97070927e1db16268c3e5939b8ace67639a5",
    "f20_d5_rho_q41": "af62644b64d342f54abd2e159c3329720c0816b6ecf4a449c1ce3d3b32b581eb",
    "m40_q11": "bf2cd45bb0e1abb80149284f4d732369ed220169b0a02a4bd071aa7c278d201e",
    "c15_q31": "72651d80e70e2308ff70b3fe9eacbca4bb4970cab4c071eff03cf0645f26b64b",
    "ribet_q7_d6": "4e05e94308f58ed1004e20ac962b9ff19f5e6ab1a062906396545b9d596ddadc",
    "ribet_q7_d6_split": "14a16a15daf51f2680b2357e1a16f4ae639d231240a3c53b8b6e987a8ae5cc5a",
    "coh294_q7": "24690f27fe6be852e8a3bd2407b7093d8038703169eeef9ffc3f056cb54c74aa",
    "ribet_v0_q7": "1c7f3792b9f2608fc8f2715cc7e61bf20c803b0c91d40e23413db815b19246e7",
    "ribet_q13_d4_prec3": "02bce0fc01872d724a1bf672a55f908bfcfcc73983248ce0265ffae97617ea0f",
}

BUILDERS = {
    **shipped_fixture_builders(),
    "ribet_v0_q7": ribet_v0_fixture,
    "ribet_q13_d4_prec3": lambda: ribet_fixture(13, d=4, alpha=12, chi_val=5, precision=3),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SHA256))
def test_fixture_content_is_pinned(name):
    fix = BUILDERS[name]()
    assert fix.name == name
    text = json.dumps(fix.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_SHA256[name]


def test_every_shipped_fixture_is_pinned():
    assert set(shipped_fixture_builders()) <= set(FIXTURE_SHA256)


@pytest.mark.parametrize("precision, level", [(3, 1), (4, 2)])
def test_ribet_fixture_plants_a_class_below_the_default_level(precision, level):
    # V = Z/7^2 carries the corner 7^level v over Z/7^precision
    fix = ribet_fixture(7, precision=precision, level=level)
    assert fix.name == f"ribet_q7_d6_prec{precision}_level{level}"
    assert fix.group.n == 588
    lattice = fix.rep("lattice")
    latt = LatticeRep(lattice, fix.rep("chi"), fix.rep("chi_inv"))
    report = theorem_main_pipeline(latt, coset_sign_character(fix.group, lattice.mod))
    assert report.level == level
    assert report.eigenvalue_law_holds


# The label-closure constructors that `semidirect_group` replaced, kept as
# the oracle: each multiplies labels in Python through `group_from_labels`.
def metacyclic_oracle(p, d, a):
    labels = [(b, j) for j in range(d) for b in range(p)]

    def mult(x, y):
        b, j = x
        b2, j2 = y
        return ((b + pow(a, j, p) * b2) % p, (j + j2) % d)

    return group_from_labels(labels, mult, lambda x: x[1] % 2 == 0, (0, 1))


def affine_oracle(q, d, alpha):
    labels = [(v, j, e) for e in range(2) for j in range(d) for v in range(q)]

    def mult(x, y):
        v, j, e = x
        v2, j2, e2 = y
        return ((v + pow(alpha, j, q) * (-1) ** e * v2) % q, (j + j2) % d, (e + e2) % 2)

    return group_from_labels(labels, mult, lambda x: x[2] == 0, (0, 0, 1))


def plane_oracle(q, d, alpha):
    labels = [((v1, v2), j, e) for e in range(2) for j in range(d)
              for v1 in range(q) for v2 in range(q)]

    def mult(x, y):
        (v1, v2), j, e = x
        (w1, w2), j2, e2 = y
        s = pow(alpha, j, q) * (-1) ** e
        return (((v1 + s * w1) % q, (v2 + s * w2) % q), (j + j2) % d, (e + e2) % 2)

    return group_from_labels(labels, mult, lambda x: x[2] == 0, ((0, 0), 0, 1))


EQUIVALENT_GROUPS = (
    [("metacyclic", args, args[0], 1, (args[1],), (args[2],))
     for args in [(3, 2, 2), (5, 4, 2), (5, 8, 2), (15, 2, 4), (21, 2, 8), (13, 4, 5),
                  (5, 2, 4), (7, 2, 6)]]
    + [("affine", args, args[0], 1, (args[1], 2), (args[2], -1))
       for args in [(7, 6, 2), (49, 6, 30), (101, 4, 100)]]
    + [("plane", (7, 3, 2), 7, 2, (3, 2), (2, -1))]
)
ORACLES = {"metacyclic": metacyclic_oracle, "affine": affine_oracle, "plane": plane_oracle}


@pytest.mark.parametrize("family, args, m, k, orders, scalars", EQUIVALENT_GROUPS,
                         ids=[f"{c[0]}{c[1]}" for c in EQUIVALENT_GROUPS])
def test_semidirect_group_matches_the_label_closure(family, args, m, k, orders, scalars):
    want, _ = ORACLES[family](*args)
    got = semidirect_group(m, k, orders, scalars)
    # repr also tells a Python int label from a numpy one
    assert [repr(e) for e in got.elements] == [repr(e) for e in want.elements]
    assert np.array_equal(got.mul, want.mul)
    assert got.H == want.H and got.ctilde == want.ctilde
    # the closed-form identity and inverses are the dense table's scans
    assert got.one == want.one == 0
    assert np.array_equal(got.inv, want.inv)


BAD_SEMIDIRECT_ARGUMENTS = [  # (m, k, orders, scalars, match)
    (7, 1, (3,), (2,), "last order must be even"),
    (7, 1, (4,), (3,), "order dividing"),  # 3 has order 6 mod 7
    (7, 2, (6, 2), (3, 2), "order dividing"),  # 2 has order 3 mod 7
    (7, 1, (6, 2), (3,), None),  # one scalar per factor
    (7, 1, (0,), (1,), "positive"),
    (7, 1, (-2,), (1,), "positive"),
    (7, 1, (), (), "nonempty"),
    (7, 1, 2, (1,), "lists of integers"),
    (7, 1, (2.0,), (1,), "integers"),
    (7, 1, (2,), (1.0,), "integers"),
    (7, 1, (True, 2), (1, 1), "integers"),
    (7.0, 1, (2,), (1,), "integers"),
    (0, 1, (2,), (1,), "m >= 2"),
    (1, 1, (2,), (1,), "m >= 2"),
    (-7, 1, (2,), (1,), "m >= 2"),
    (7, 0, (2,), (1,), "k >= 1"),
]


# the first four ids are the ones these cases had before m became a parameter
@pytest.mark.parametrize(
    "m, k, orders, scalars, match", BAD_SEMIDIRECT_ARGUMENTS,
    ids=["1-orders0-scalars0-last order must be even", "1-orders1-scalars1-order dividing",
         "2-orders2-scalars2-order dividing", "1-orders3-scalars3-None",
         *(f"m={c[0]!r}-k={c[1]}-orders={c[2]!r}-scalars={c[3]!r}"
           for c in BAD_SEMIDIRECT_ARGUMENTS[4:])])
def test_semidirect_group_rejects_bad_arguments(m, k, orders, scalars, match):
    with pytest.raises(ValueError, match=match):
        semidirect_group(m, k, orders, scalars)


def test_prod_matches_the_label_closure_table():
    # the closed-form product against the oracle's dense table, on scalars,
    # on 1-d arrays and on an (n, 1) x (1, k) broadcast
    rng = np.random.default_rng(19)
    for family, args, m, k, orders, scalars in EQUIVALENT_GROUPS:
        want = ORACLES[family](*args)[0].mul
        got = semidirect_group(m, k, orders, scalars)
        n = got.n
        for x, y in rng.integers(0, n, size=(20, 2)):
            assert got.prod(int(x), int(y)) == want[x, y]
        x, y = rng.integers(0, n, size=(2, 3 * n))
        assert np.array_equal(got.prod(x, y), want[x, y])
        cols = rng.integers(0, n, size=5)
        xs = np.arange(n)[:, None]
        assert np.array_equal(got.prod(xs, cols[None, :]), want[xs, cols[None, :]])


def label_metacyclic_images(group, p, d, q, j_char, antisym_u, mod):
    """The label-by-label build that `_metacyclic_2dim_rep` replaced:
    (b, a) -> diag(z^(j b), z^(-j b)) u^(a/2) looked up by label, u^(a/2)
    by repeated products."""
    index = {lab: i for i, lab in enumerate(group.elements)}
    z = _lift_root_of_unity(element_of_order(p, q), p, q, mod)
    zi = pow(z, -1, mod)
    u = np.array([[0, 1], [mod - 1 if antisym_u else 1, 0]], dtype=np.int64)
    imgs = np.zeros((len(group.H), 2, 2), dtype=np.int64)
    for b in range(p):
        k = b * j_char % p
        r = np.diag([pow(z, k, mod), pow(zi, k, mod)])
        for a in range(0, d, 2):
            imgs[group.H.index(index[(b, a)])] = r
            r = r @ u % mod
    return imgs


def test_metacyclic_rep_matches_the_label_build():
    # every METACYCLIC_TABLE group, every character exponent j and both
    # signs of u^2; where the images are no representation (u^2 = -1 on a
    # u of order 2) both refuse
    cases = [(p, d, a, q, j, anti, q) for p, d, a, q in METACYCLIC_TABLE
             for j in range(p) for anti in (False, True)]
    cases.append((5, 8, 2, 11, 1, True, 121))  # m40's rho_lift over Z/q^2
    for p, d, a, q, j, anti, mod in cases:
        group = semidirect_group(p, 1, (d,), (a,))
        want = label_metacyclic_images(group, p, d, q, j, anti, mod)
        try:
            Rep(group, "H", want, mod)
        except ValueError:
            with pytest.raises(ValueError, match="respect the multiplication table"):
                _metacyclic_2dim_rep(group, p, q, j_char=j, antisym_u=anti, mod=mod)
            assert d == 4 and anti
            continue
        got = _metacyclic_2dim_rep(group, p, q, j_char=j, antisym_u=anti, mod=mod)
        assert np.array_equal(got.images, want)
    lift = m40_fixture().rep("rho_lift")
    assert np.array_equal(lift.images,
                          label_metacyclic_images(lift.group, 5, 8, 11, 1, True, 121))


def _build_peak(build):
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a table of the group would take n^2 8 bytes; a quarter of it bounds every build
@pytest.mark.parametrize("q", [101, 401])
def test_semidirect_group_allocates_no_table(q):
    group, peak = _build_peak(lambda: semidirect_group(q, 1, (4, 2), (q - 1, -1)))
    assert group.n == 8 * q
    assert peak < 0.25 * group.n**2 * 8


@pytest.mark.parametrize("q, c", [(101, 10), (401, 20)])
def test_ladder_rung_build_allocates_no_table(q, c):
    # group, checks and reps of the ribet-ladder rungs of order 808 and 3208
    fix, peak = _build_peak(lambda: ribet_fixture(q, d=4, alpha=q - 1, chi_val=c,
                                                  precision=3))
    assert fix.group.n == 8 * q
    assert peak < 0.25 * fix.group.n**2 * 8


def test_pipeline_and_descents_build_no_table(monkeypatch):
    # the top ribet-ladder rung end to end -- build, pipeline and 4
    # conjugated descents -- with the dense-table builder disabled
    def no_table(self):
        raise AssertionError("a dense table was built")

    monkeypatch.setattr(FiniteGroup, "_dense_table", no_table)
    with pytest.raises(AssertionError, match="dense table"):
        semidirect_group(7, 1, (2,), (6,)).mul
    fix = ribet_fixture(101, d=4, alpha=100, chi_val=10, precision=3)
    lattice = fix.rep("lattice")
    mod = lattice.mod
    latt = LatticeRep(lattice, fix.rep("chi"), fix.rep("chi_inv"))
    report = theorem_main_pipeline(latt, coset_sign_character(fix.group, mod))
    assert report.eigenvalue_law_holds and report.level == 2
    rng = np.random.default_rng(4)
    for _ in range(4):
        a, b = (int(x) for x in rng.integers(0, mod, size=2))
        u = np.array([[1 + a * b, a], [b, 1]], dtype=np.int64) % mod  # det 1
        u_inv = np.array([[1, -a], [-b, 1 + a * b]], dtype=np.int64) % mod
        imgs = u_inv @ lattice.images % mod @ u % mod
        conj = Rep(fix.group, "G", imgs, mod, validate=False)
        descent = ribet_lattice(LatticeRep(conj, fix.rep("chi"), fix.rep("chi_inv")))
        assert not descent.split and descent.level == 2


# generators() as it has always chosen them, for G and H: every H^1
# coordinate and every pin depends on these tuples
GENERATORS = {
    "s3_c3_chi3_q7": ((1, 3), (1,)),
    "f20_d5_rho_q11": ((1, 5), (1, 10)),
    "f20_d5_rho_q41": ((1, 5), (1, 10)),
    "m40_q11": ((1, 5), (1, 10)),
    "c15_q31": ((1, 15), (1,)),
    "ribet_q7_d6": ((1, 7, 42), (1, 7)),
    "ribet_q7_d6_split": ((1, 7, 42), (1, 7)),
    "coh294_q7": ((1, 7, 49, 147), (1, 7, 49)),
    "ribet_v0_q7": ((1, 49, 294), (1, 49)),
    "ribet_q13_d4_prec3": ((1, 13, 52), (1, 13)),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_unchanged(name):
    g = BUILDERS[name]().group
    assert (g.generators(), g.generators(g.H)) == GENERATORS[name]


def test_generator_runs_share_closures():
    # G's and H's greedy runs on the 3208-element rung: H's generators are a
    # prefix of G's, so H's run reuses G's closures and makes no product
    g = ribet_fixture(401, d=4, alpha=400, chi_val=20, precision=3).group
    calls = []

    def law(x, y):
        calls.append(1)
        return g.prod(x, y)

    fresh = FiniteGroup(g.elements, None, g.H, g.ctilde, validate=False,
                        closed_form=(g.one, g.inv, law))
    assert fresh.generators() == g.generators() == (1, 401, 1604)
    runs_g = len(calls)
    assert fresh.generators(g.H) == g.generators(g.H) == (1, 401)
    assert len(calls) == runs_g
    # every Rep on the same subgroup shares one Domain
    assert fresh.domain("H") is Rep(fresh, g.H, np.ones((len(g.H), 1, 1), dtype=np.int64), 7,
                                    validate=False).dom


def test_scale_rung_of_order_3208_runs_the_pipeline():
    fix = ribet_fixture(401, d=4, alpha=400, chi_val=20, precision=3)
    g = fix.group
    assert g.n == 3208
    g.validate()
    for r in fix.reps.values():
        r.validate()
    lattice = fix.rep("lattice")
    latt = LatticeRep(lattice, fix.rep("chi"), fix.rep("chi_inv"))
    # psi is the coset sign, odd: -1 at ctilde
    report = theorem_main_pipeline(latt, coset_sign_character(g, lattice.mod))
    assert report.eigenvalue_law_holds


def test_scale_rung_of_order_119904_runs_the_pipeline():
    # 585^2 = -1 mod 1249: the rung of ROADMAP's scale ladder past 10^5
    def run():
        fix = ribet_fixture(1249, d=48, alpha=1248, chi_val=585, precision=3)
        g = fix.group
        assert g.n == 119904
        g.validate()
        for r in fix.reps.values():
            r.validate()
        lattice = fix.rep("lattice")
        latt = LatticeRep(lattice, fix.rep("chi"), fix.rep("chi_inv"))
        return theorem_main_pipeline(latt, coset_sign_character(g, lattice.mod)).to_json()

    report, peak = _build_peak(run)
    assert report["eigenvalue_law_holds"]
    assert report["lattice_level"] == 2 and report["h1_dim"] == 1
    assert peak < 300e6
