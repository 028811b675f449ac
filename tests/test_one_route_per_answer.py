"""Each answer has one route: the criticality count by its trace formula
(the swap's rank is its oracle here), Lambda^2 and std read off the induced
Frobenius, the dual twist as dual then twist, the witness symmetry as one
transpose comparison, and one integer test, `exactalg.as_index`, for
moduli, element indices, coefficient tables and group arguments, with its
array twin `as_index_array` for a caller's arrays."""

import re
from pathlib import Path

import numpy as np
import pytest

import asaikit
from asaikit.batteries import euler_battery
from asaikit.cohomology import Cocycle, coboundary, h1, hom_module
from asaikit.exactalg import Mat, as_index, as_index_array, kernel_mod, wedge_square
from asaikit.fixtures import m40_fixture, ribet_fixture, s3_fixture
from asaikit.grouprep import (
    FiniteGroup,
    Rep,
    coset_sign_character,
    dual_twist,
    induce,
    make_character,
    swap_matrix,
    trivial_character,
)
from asaikit.lfunc import CoeffTable, blockdiag, frobenius_matrix, random_satake, std_map
from asaikit.polarization import PolarizedRep, criticality_dimensions, polarize

SRC = Path(asaikit.__file__).parent


@pytest.fixture(scope="module")
def rib():
    return ribet_fixture()


# -- the criticality count against the rank of the signed swap ---------------


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", range(1, 9))
def test_criticality_count_is_the_plus_eigenspace_of_the_signed_swap(n, p):
    iota = -swap_matrix(n, p) % p  # e_a x e_b -> -e_b x e_a
    plus = kernel_mod((iota - np.eye(n * n, dtype=np.int64)) % p, p)
    assert criticality_dimensions(n)["betti_plus"] == len(plus)


# -- Lambda^2 and std at split primes: the former blockdiag route ------------


def test_split_lambda2_and_std_match_the_blockdiag_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sp = random_satake(rng, split=True)
        ind = blockdiag(sp.a, sp.b)
        assert frobenius_matrix(sp, "ind") == ind
        assert frobenius_matrix(sp, "lambda2") == wedge_square(ind)
        assert frobenius_matrix(sp, "std") == std_map(ind)


def test_euler_battery_runs_each_check_over_its_own_draws():
    records = euler_battery(seed=3, count=5)
    assert [r["case"] for r in records] == ["lambda2 battery (5 params)",
                                            "std battery (2 params)"]
    assert all(r["passed"] for r in records)


# -- the dual twist is the dual, then the twist ------------------------------


def test_dual_twist_is_the_gather_of_the_inverse_transpose_times_psi(rib):
    g = rib.group
    lat = rib.rep("lattice").reduce(7).restrict_to_H()
    psi = rib.rep("chi")
    els = lat.dom.array
    want = lat.images[lat.pos[g.inv[els]]].transpose(0, 2, 1) * psi.value(els)[:, None, None]
    got = dual_twist(lat, psi)
    assert np.array_equal(got.images, want % lat.mod)
    got.validate()
    assert dual_twist(lat, None) == lat.dual()


# -- one witness-symmetry check ----------------------------------------------


def test_a_witness_of_the_other_symmetry_is_refused_with_its_message(rib):
    m40 = m40_fixture()
    cases = [(rib.rep("lattice").restrict_to_H(), coset_sign_character(rib.group, 49), True),
             (induce(m40.rep("rho_lift")), coset_sign_character(m40.group, 121), False)]
    for rep, psi, conjugate in cases:
        p = polarize(rep, psi, conjugate)
        PolarizedRep(rep, psi, p.witness, p.symmetry, conjugate)
        word = "antisymmetric" if p.symmetry == 1 else "symmetric"
        with pytest.raises(ValueError, match=f"^witness is not {word}$"):
            PolarizedRep(rep, psi, p.witness, -p.symmetry, conjugate)


# -- refusals: one integer test ------------------------------------------------


NON_INTEGER_MODULI = [7.5, 7.0, 7.9, "7", np.float64(49.0), True]


@pytest.mark.parametrize("mod", NON_INTEGER_MODULI, ids=repr)
def test_a_non_integer_modulus_is_refused_not_truncated(rib, mod):
    g = rib.group
    ones = np.ones((g.n, 1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="is not an integer"):
        Rep(g, "G", ones, mod)
    with pytest.raises(ValueError, match="is not an integer"):
        make_character(g, "G", [1] * g.n, mod)
    with pytest.raises(ValueError, match="is not an integer"):
        Mat([[1]], mod)


def test_a_numpy_integer_modulus_is_still_accepted(rib):
    g = rib.group
    rep = Rep(g, "G", np.ones((g.n, 1, 1), dtype=np.int64), np.int64(7))
    assert type(rep.mod) is int and rep.mod == 7 and (rep.q, rep.precision) == (7, 1)
    assert Mat([[1]], np.int64(49)).mod == 49


def test_trivial_character_refuses_a_subset_that_is_not_a_subgroup(rib):
    with pytest.raises(ValueError, match="domain is not closed under multiplication"):
        trivial_character(rib.group, [0, 1], 7)


@pytest.mark.parametrize("row", [(4.7, "(2)", 3), (4, "(2)", 3.9), (4.0, "(2)", 3),
                                 (True, "(1)", 1), (4, "(2)", True)], ids=repr)
def test_coeff_table_refuses_a_non_integer_norm_or_coefficient(row):
    with pytest.raises(ValueError, match="is not an integer"):
        CoeffTable([row])


def test_coeff_table_accepts_numpy_integers():
    tbl = CoeffTable([(np.int64(4), "(2)", np.int64(3))])
    assert tbl.rows == {(4, "(2)"): 3}
    assert all(type(x) is int for k, v in tbl.rows.items() for x in (k[0], v))


def test_as_index_is_the_one_integer_test():
    pattern = re.compile(r"isinstance\([^)]*np\.integer")
    users = sorted(p.name for p in SRC.glob("*.py") if pattern.search(p.read_text()))
    assert users == ["exactalg.py"]
    assert as_index(np.int64(7)) == 7 and type(as_index(np.int64(7))) is int
    for bad in (7.0, "7", True, None):
        with pytest.raises(ValueError):
            as_index(bad)


# -- refusals: the array twin, FiniteGroup's arguments, Cocycle.scale ----------


@pytest.mark.parametrize("H, ctilde", [([0.0, 1.9, 2.2], 3), ([0, 1, 2], 3.7),
                                       (["0", "1", "2"], 3), ([0, 1, 2], "3")], ids=repr)
def test_finite_group_refuses_a_non_integer_subgroup_or_ctilde(H, ctilde):
    g = s3_fixture().group
    assert (g.H, g.ctilde) == ((0, 1, 2), 3)
    with pytest.raises(ValueError, match="is not an integer"):
        FiniteGroup(g.elements, g.mul, H, ctilde)


def test_finite_group_refuses_a_float_table_and_float_generators():
    g = s3_fixture().group
    with pytest.raises(ValueError, match="is not an integer array"):
        FiniteGroup(g.elements, g.mul + 0.5, g.H, g.ctilde)
    with pytest.raises(ValueError, match="is not an integer array"):
        g.closure([1.9])
    assert np.array_equal(g.closure(np.array([1], dtype=np.uint8)), g.closure([1]))


FLOAT_ARRAY_ENTRIES = {
    "Rep": lambda g, triv: Rep(g, "G", np.full((g.n, 1, 1), 1.7), 7),
    "make_character": lambda g, triv: make_character(g, "G", [1.0] * g.n, 7),
    "Mat": lambda g, triv: Mat([[1.9, 0], [0, 1]], 7),
    "Cocycle": lambda g, triv: Cocycle(triv, np.full((g.n, 1), 0.4)),
    "coboundary": lambda g, triv: coboundary(triv, [2.9]),
    "cocycle_from_gen_vector": lambda g, triv: h1(triv).cocycle_from_gen_vector(
        [0.0] * len(h1(triv).gens)),
}


@pytest.mark.parametrize("entry", FLOAT_ARRAY_ENTRIES)
def test_a_float_array_is_refused_not_truncated(entry):
    g = s3_fixture().group
    triv = trivial_character(g, "G", 7)
    with pytest.raises(ValueError, match="dtype float64 is not an integer array"):
        FLOAT_ARRAY_ENTRIES[entry](g, triv)


@pytest.mark.parametrize("bad", [[1.0], [True], [2**64], ["1"], np.array([1], dtype=np.uint64)],
                         ids=["float", "bool", "past-int64", "str", "uint64"])
def test_as_index_array_refuses_a_dtype_that_is_not_int64_safe(bad):
    with pytest.raises(ValueError, match="is not an integer array"):
        as_index_array(bad)


@pytest.mark.parametrize("good", [[3, -1], np.array([3, 255], dtype=np.uint8),
                                  np.array([3, -1], dtype=np.int32), [], np.zeros((0, 2))],
                         ids=["list", "uint8", "int32", "empty", "empty-float"])
def test_as_index_array_converts_integers_and_empty_input_to_int64(good):
    a = as_index_array(good)
    assert a.dtype == np.int64 and np.array_equal(a, np.asarray(good))


def test_an_empty_input_still_meets_the_shape_checks():
    g = s3_fixture().group
    with pytest.raises(ValueError, match="must be 2-dimensional"):
        Mat([], 7)
    with pytest.raises(ValueError, match="one square matrix per domain element"):
        Rep(g, "G", [], 7)


def test_cocycle_scale_refuses_a_non_integer_and_reduces_k_first(rib):
    z = h1(hom_module(rib.rep("chi"), rib.rep("chi_inv"))).representative(0)
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        z.scale(2.5)
    big = z.module.mod * 2**59 + 2  # fits int64, but a value times it would wrap
    assert np.array_equal(z.scale(np.int64(big)).values, z.scale(2).values)


def test_only_exactalg_converts_a_callers_array_to_int64():
    pattern = re.compile(r"np\.asarray\([^\n]*dtype=np\.int64")
    for name in ("grouprep.py", "cohomology.py"):
        assert not pattern.search((SRC / name).read_text()), name
