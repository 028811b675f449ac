"""Each answer has one route: the criticality count by its trace formula
(the swap's rank is its oracle here), Lambda^2 and std read off the induced
Frobenius, the dual twist as dual then twist, the witness symmetry as one
transpose comparison, and one integer test, `exactalg.as_index`, for
moduli, element indices, coefficient tables and group arguments, with its
array twin `as_index_array` for a caller's arrays."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import asaikit
from asaikit.batteries import euler_battery
from asaikit.cohomology import Cocycle, coboundary, h1, hom_module
from asaikit.exactalg import (
    Mat,
    as_index,
    as_index_array,
    charpoly_stack,
    echelon_mod,
    exterior_square,
    extend_basis,
    kernel_mod,
    polymul_stack,
    rref_mod,
    solve_mod,
    wedge_square,
)
from asaikit.fixtures import m40_fixture, ribet_fixture, s3_fixture
from asaikit.grouprep import (
    FiniteGroup,
    Rep,
    coset_sign_character,
    dual_twist,
    induce,
    make_character,
    power_character,
    swap_matrix,
    trivial_character,
)
from asaikit.lfunc import CoeffTable, frobenius_matrix, random_satake, std_map
from asaikit.polarization import PolarizedRep, criticality_dimensions, polarize
from test_one_routine_per_job import name_uses, node_uses

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


def blockdiag(a, b):
    """Oracle: diag(a, b) of two 2x2 blocks, as a tuple of rows."""
    return tuple((*r, 0, 0) for r in a) + tuple((0, 0, *r) for r in b)


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
    els = lat.elements
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
    assert (g.H.tolist(), g.ctilde) == ([0, 1, 2], 3)
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


@pytest.mark.parametrize("bad", [True, 2.0, 1.5, "2"], ids=repr)
def test_power_character_refuses_a_non_integer_exponent(rib, bad):
    with pytest.raises(ValueError, match="is not an integer"):
        power_character(rib.rep("chi"), bad)


def test_power_character_takes_a_numpy_integer_exponent(rib):
    chi = rib.rep("chi")
    for k in (np.int64(2), np.int32(-1), np.uint8(5)):
        assert np.array_equal(power_character(chi, k).images,
                              power_character(chi, int(k)).images)


@pytest.mark.parametrize("args", [(2.5,), (True,), (3, 1.0), (3, 1, False), ("4",)],
                         ids=repr)
def test_criticality_dimensions_refuses_a_non_integer(args):
    with pytest.raises(ValueError, match="is not an integer"):
        criticality_dimensions(*args)


def test_criticality_dimensions_of_numpy_integers_is_json():
    out = criticality_dimensions(np.int64(4), np.int32(3), np.uint8(1))
    assert out == criticality_dimensions(4, 3, 1)
    assert all(type(v) in (int, bool) for v in out.values())
    assert json.loads(json.dumps(out)) == out


def test_only_exactalg_converts_a_callers_array_to_int64():
    pattern = re.compile(r"np\.asarray\([^\n]*dtype=np\.int64")
    for name in ("grouprep.py", "cohomology.py", "exactalg.py"):
        assert not pattern.search((SRC / name).read_text()), name


EYE2 = np.eye(2, dtype=np.int64)
FLOAT_MODULAR_READERS = {
    "rref_mod": lambda: rref_mod([[1.9, 0], [0, 1]], 7),
    "kernel_mod": lambda: kernel_mod([[1.9, 1.0]], 7),
    "echelon_mod-rhs": lambda: echelon_mod(EYE2, 7, [[0.5], [1]]),
    "solve_mod-rhs": lambda: solve_mod(EYE2, [1.5, 2.0], 7),
    "extend_basis": lambda: extend_basis(EYE2[:1], np.array([[0.0, 1.9]]), 7),
    "polymul_stack": lambda: polymul_stack([[1.9, 1]], [[1, 1]], 7),
    "charpoly_stack": lambda: charpoly_stack(np.full((1, 2, 2), 1.9), 7),
    "exterior_square": lambda: exterior_square(np.full((1, 2, 2), 1.9), 7),
}


@pytest.mark.parametrize("reader", FLOAT_MODULAR_READERS)
def test_the_modular_readers_refuse_a_float_array(reader):
    with pytest.raises(ValueError, match="dtype float64 is not an integer array"):
        FLOAT_MODULAR_READERS[reader]()


def test_the_modular_readers_still_take_python_integers():
    R, piv = rref_mod([[2, 0], [0, 1]], 7)
    assert np.array_equal(R, EYE2) and piv == [0, 1]
    assert np.array_equal(solve_mod(EYE2, [3, 9], 7), [3, 2])
    assert extend_basis([], EYE2, 7) == [0, 1]


@pytest.mark.parametrize("bad", [[True, 2], [[1, 2], [3, False]], (2, np.True_),
                                 [np.array([1]), np.array([True])]],
                         ids=["flat", "nested", "numpy-bool", "bool-array-in-list"])
def test_as_index_array_refuses_a_bool_inside_a_sequence(bad):
    with pytest.raises(ValueError, match="holds a bool, so it is not an integer array"):
        as_index_array(bad)
    with pytest.raises(ValueError):
        Mat(bad if np.ndim(bad) == 2 else [bad], 7)


def test_finite_group_leaves_the_callers_table_writeable():
    g = s3_fixture().group
    table = np.array(g.mul, dtype=np.int64)
    h = FiniteGroup(g.elements, table, g.H, g.ctilde)
    assert table.flags.writeable and not h.mul.flags.writeable
    table[0, 0] = 5  # the group holds its own copy
    assert np.array_equal(h.mul, g.mul)


def test_only_mat_inverse_calls_solve_mod():
    # a system asked again and again is eliminated once, by `solver_mod`
    # (H1Data's one reader): cohomology and polarization do not call solve_mod
    hits = [(p.name, f) for p in sorted(SRC.glob("*.py")) for f, _ in name_uses(p, "solve_mod")]
    assert hits == [("exactalg.py", "Mat.inverse")]


def test_the_triangularization_inverts_no_basis():
    # the complement coordinates are read off the reduced rref of m1^T
    hits = [f for f, _ in name_uses(SRC / "polarization.py", "inverse")]
    assert "_mod_q_triangularization" not in hits
    assert "ribet_lattice" in hits  # the guard sees the descent's `v.inverse()`


def solver_mod_uses(path):
    """(top-level function, Class.method, class or <module>, line) of each
    use of `solver_mod` in one source file: a call by name or attribute,
    nested or not, or a reference that binds it to be called later."""
    return name_uses(path, "solver_mod")


def imports_and_uses(path, name):
    """Each import of `name`, renamed or not, and each use of it by name or
    attribute, in one source file."""
    return node_uses(path, lambda n: isinstance(n, ast.ImportFrom)
                     and any(a.name == name for a in n.names)
                     or isinstance(n, ast.Name) and n.id == name
                     or isinstance(n, ast.Attribute) and n.attr == name)


def test_each_h1_module_has_one_system():
    # H1Data eliminates [coboundaries; z1]^T once, at construction, and
    # every class question replays it; neither a basis of B^1 nor a second
    # elimination for the representatives is built beside it
    hits = [(p.name, f) for p in sorted(SRC.glob("*.py")) for f, _ in solver_mod_uses(p)]
    assert hits == [("cohomology.py", "H1Data.__init__")]
    for name in ("row_space_mod", "extend_basis"):
        assert imports_and_uses(SRC / "cohomology.py", name) == [], name


def test_the_one_system_guards_see_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from exactalg import row_space_mod, solver_mod\n"
        "SOLVE = solver_mod(A, 7)\n"
        "def a(x):\n    return exactalg.solver_mod(x, 7)(x)\n"
        "class B:\n    def c(self, x):\n        def inner():\n"
        "            return solver_mod(x, 7)\n        return inner()\n"
        "def e(x):\n    f = solver_mod\n    return f(x, 7), solve_mod(x, x, 7)\n"
        "def g(x):\n    from exactalg import row_space_mod as rs\n    return rs(x, 7)\n"
        "def h(x):\n    return exactalg.row_space_mod(x, 7), row_space_mod(x, 7)\n")
    assert solver_mod_uses(path) == [("<module>", 2), ("a", 4), ("B.c", 8), ("e", 11)]
    assert imports_and_uses(path, "row_space_mod") == [("<module>", 1), ("g", 14), ("h", 17),
                                                       ("h", 17)]
