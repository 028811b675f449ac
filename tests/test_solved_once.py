"""Each module is solved once: `cohomology.h1` and `grouprep.hom_kernel`
keep their answers in the memo of the module's `Domain`, keyed by the
exact content (modulus, image shape, image bytes), and for a Hom kernel
its transpose symmetry.  These tests check the memoized answers against
fresh builds and against the full consistency system on every module the
identity batteries and the ribet-ladder pipelines ask for, that an equal
module built elsewhere is a hit and a module differing in one entry, its
modulus, its domain or the symmetry asked for a miss, that a shared
answer cannot be written into, and that an `H1Data`'s one system,
[coboundaries; z1]^T, is eliminated once, at construction, picks the
representatives the greedy extension of B^1 picks and is replayed for
every question, answering as fresh `solve_mod`s of the two systems it
replaced would."""

import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from asaikit import cli, cohomology, exactalg, grouprep
from asaikit.cohomology import Cocycle, H1Data, SelmerStructure, coboundary, h1, hom_module
from asaikit.exactalg import (
    Mat,
    extend_basis,
    kernel_gens,
    kernel_mod,
    row_space_mod,
    solve_mod,
)
from asaikit.fixtures import DATA_DIR, ribet_fixture, semidirect_group
from asaikit.grouprep import (
    Rep,
    coset_sign_character,
    hom_kernel,
    hom_system,
    intertwiner_space,
    make_character,
    symmetry_rows,
    trivial_character,
)
from asaikit.polarization import (
    LatticeRep,
    _witness_pair,
    polarize,
    ribet_lattice,
    theorem_main_pipeline,
)
from test_element_maps import expand_oracle
from test_exact_oracles import _same_answer

# the ribet-ladder rungs: (q, chi(delta)) with chi(delta)^2 = -1 mod q, d = 4
RUNGS = [(13, 5), (37, 6), (101, 10)]
PRECISION = 3


@contextmanager
def recording(func):
    """The argument tuples of every call to `func` inside the block, made
    under any name an asaikit module binds it to, memo hit or not."""
    calls = []

    def recorder(*args):
        calls.append(args)
        return func(*args)

    bound = [(mod, name) for key, mod in sys.modules.items()
             if key == "asaikit" or key.startswith("asaikit.")
             for name, val in vars(mod).items() if val is func]
    for mod, name in bound:
        setattr(mod, name, recorder)
    try:
        yield calls
    finally:
        for mod, name in bound:
            setattr(mod, name, func)


def distinct(items, same):
    out = []
    for x in items:
        if not any(same(x, y) for y in out):
            out.append(x)
    return out


@pytest.fixture(scope="module")
def asked(tmp_path_factory):
    """(modules h1 was asked for, (r1, r2, symmetry) triples hom_kernel was
    asked for) by `verify-identities` and the ribet-ladder pipelines and
    descents, each distinct by content; symmetry None is the plain kernel."""
    report = tmp_path_factory.mktemp("solved") / "identities.json"
    sel = SelmerStructure.from_json(
        json.loads((DATA_DIR / "ribet_q7_d6.selmer.json").read_text()))
    rng = np.random.default_rng(5)
    with recording(h1) as modules, recording(hom_kernel) as pairs:
        assert cli.main(["verify-identities", "--seed", "5", "--report", str(report)]) == 0
        rib = ribet_fixture()
        latt = LatticeRep(rib.rep("lattice"), rib.rep("chi"), rib.rep("chi_inv"))
        theorem_main_pipeline(latt, coset_sign_character(rib.group, latt.rep.mod),
                              selmer=sel)
        for q, c in RUNGS:
            fix = ribet_fixture(q, d=4, alpha=q - 1, chi_val=c, precision=PRECISION)
            rep, chi, chi_inv = fix.rep("lattice"), fix.rep("chi"), fix.rep("chi_inv")
            mod = rep.mod
            theorem_main_pipeline(LatticeRep(rep, chi, chi_inv),
                                  coset_sign_character(fix.group, mod))
            u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
            while not u.is_invertible():
                u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
            conj = u.inverse().a @ rep.images % mod @ u.a % mod
            ribet_lattice(LatticeRep(Rep(fix.group, "G", conj, mod), chi, chi_inv))
    modules = distinct((m for (m,) in modules), lambda a, b: a == b)
    pairs = [(r1, r2, sym[0] if sym else None) for r1, r2, *sym in pairs]
    pairs = distinct(pairs, lambda a, b: a[0] == b[0] and a[1] == b[1] and a[2] == b[2])
    return modules, pairs


def test_the_runs_cover_many_modules(asked):
    modules, pairs = asked
    assert len(modules) >= 10 and len(pairs) >= 20
    # polarize's witness kernels of both signs, and classify_pairing's
    assert {sym for _, _, sym in pairs} == {None, 1, -1}
    # ribet_q7_d6's H, every ladder rung's H and coh294
    assert {len(m.elements) for m in modules} >= {42, 52, 148, 294, 404}


def test_memoized_h1_equals_a_fresh_build(asked):
    for m in asked[0]:
        memo, fresh = h1(m), H1Data(m)
        assert h1(m) is memo and memo is not fresh
        for field in ("z1", "h1_reps", "expand", "coboundaries", "_gen_pos", "_rep_cols"):
            assert np.array_equal(getattr(memo, field), getattr(fresh, field)), (m, field)
        assert memo.dim == fresh.dim and memo.gens == fresh.gens
        for z in fresh.representatives() + memo.representatives():
            assert np.array_equal(memo.class_coords(z), fresh.class_coords(z)), m


def test_h1_z1_is_the_kernel_of_the_full_consistency_system(asked):
    # the probe never builds the full system: the test-local oracle does
    for m in asked[0]:
        data = h1(m)
        _, sys = expand_oracle(m, data.gens)
        assert np.array_equal(data.z1, kernel_mod(sys, m.mod)), m


def test_memoized_hom_kernel_equals_kernel_gens(asked):
    for r1, r2, sym in asked[1]:
        memo = hom_kernel(r1, r2, sym)
        sys = hom_system(r1, r2)
        if sym is not None:
            sys = np.vstack([sys, symmetry_rows(r2.dim, r2.mod, sym == -1)])
        fresh = kernel_gens(sys, r2.mod)
        assert hom_kernel(r1, r2, sym) is memo
        assert len(memo) == len(fresh), (r1, r2, sym)
        for (v, ann), (w, bnn) in zip(memo, fresh):
            assert ann == bnn and np.array_equal(v, w), (r1, r2, sym)


@pytest.fixture
def builds(monkeypatch):
    """Counts of H1Data builds and of Hom kernels solved."""
    counts = {"h1": 0, "hom": 0}
    init, solve = H1Data.__init__, grouprep.kernel_gens

    def counted_init(self, module):
        counts["h1"] += 1
        init(self, module)

    def counted_solve(a, mod):
        counts["hom"] += 1
        return solve(a, mod)

    monkeypatch.setattr(H1Data, "__init__", counted_init)
    monkeypatch.setattr(grouprep, "kernel_gens", counted_solve)
    return counts


def test_an_equal_module_built_elsewhere_is_a_hit(builds):
    rib = ribet_fixture()  # a fresh group, so an empty memo
    m = hom_module(rib.rep("chi"), rib.rep("chi_inv"))
    twin = Rep(rib.group, list(rib.group.H), m.images.copy(), m.mod)
    assert twin is not m and twin == m
    assert h1(twin) is h1(m) and builds["h1"] == 1
    rho = rib.rep("lattice")
    twin = Rep(rib.group, "G", rho.images.copy(), rho.mod)
    assert hom_kernel(rho, rho) is hom_kernel(twin, twin)
    assert intertwiner_space(twin, rho) == intertwiner_space(rho, twin)
    assert builds["hom"] == 1


def test_each_symmetry_is_its_own_entry_and_polarize_solves_once(builds):
    rib = ribet_fixture()  # a fresh group, so an empty memo
    r = rib.rep("lattice").restrict_to_H()
    psi = coset_sign_character(rib.group, r.mod)
    pair = _witness_pair(r, psi, True)
    kernels = [hom_kernel(*pair, sym) for sym in (None, 1, -1)]
    assert builds["hom"] == 3 and len({id(k) for k in kernels}) == 3
    assert all(hom_kernel(*pair, sym) is k for sym, k in zip((None, 1, -1), kernels))
    assert builds["hom"] == 3
    # over Z/49 the symmetric part is free, the antisymmetric part torsion
    assert [[ann for _, ann in k] for k in kernels] == [[7, 49], [49], [7]]
    for bad, why in ((True, "not an integer"), (1.0, "not an integer"), (2, "symmetry")):
        with pytest.raises(ValueError, match=why):
            hom_kernel(*pair, bad)
    with pytest.raises(ValueError, match="square"):
        hom_kernel(coset_sign_character(rib.group, r.mod), rib.rep("lattice"), 1)
    first = polarize(r, psi)
    solved = builds["hom"]  # End(r) for Schur, and the +-1 kernels are hits
    assert solved == 4
    twin = Rep(rib.group, "H", r.images.copy(), r.mod)
    twin_psi = Rep(rib.group, "G", psi.images.copy(), psi.mod)
    again = polarize(twin, twin_psi)
    assert builds["hom"] == solved
    assert again.symmetry == first.symmetry and again.witness == first.witness


def _cyclic_subgroups(g):
    """{order: [element list, ...]}: the distinct cyclic subgroups of g."""
    out = {}
    for x in range(g.n):
        els = np.flatnonzero(g.closure([x])).tolist()
        if els not in out.setdefault(len(els), []):
            out[len(els)].append(els)
    return out


def test_a_module_that_differs_in_content_or_domain_is_a_miss(builds):
    g = ribet_fixture().group  # a fresh group, so an empty memo
    cyclic = _cyclic_subgroups(g)
    # one entry: the trivial and the sign character of a subgroup of order 2
    two = cyclic[2][0]
    triv = trivial_character(g, two, 7)
    sgn = make_character(g, two, [1 if x == g.one else 6 for x in two], 7)
    assert (triv.images != sgn.images).sum() == 1
    assert h1(triv) is not h1(sgn) and builds["h1"] == 2
    assert len(hom_kernel(triv, triv)) == 1 and hom_kernel(sgn, triv) == ()
    assert builds["hom"] == 2
    # only the modulus: the same image bytes mod 7 and mod 13
    t7, t13 = trivial_character(g, "H", 7), trivial_character(g, "H", 13)
    assert t7.images.tobytes() == t13.images.tobytes()
    assert h1(t7).q == 7 and h1(t13).q == 13 and builds["h1"] == 4
    assert hom_kernel(t7, t7)[0][1] == 7 and hom_kernel(t13, t13)[0][1] == 13
    assert builds["hom"] == 4
    # only the domain: the trivial character on two subgroups of one order,
    # and as r1 of a Hom pair into the trivial subgroup's trivial character
    a, b = next(subs for subs in cyclic.values() if len(subs) > 1)[:2]
    ta, tb = trivial_character(g, a, 7), trivial_character(g, b, 7)
    assert ta.content_key == tb.content_key and ta.domain != tb.domain
    assert h1(ta).module == ta and h1(tb).module == tb and builds["h1"] == 6
    one = trivial_character(g, [g.one], 7)
    assert hom_kernel(ta, one) is not hom_kernel(tb, one) and builds["hom"] == 6


def test_shared_answers_are_read_only():
    rib = ribet_fixture()
    data = h1(hom_module(rib.rep("chi"), rib.rep("chi_inv")))
    assert data.dim == 1
    for field in ("expand", "z1", "h1_reps", "coboundaries", "_gen_pos", "_rep_cols"):
        arr = getattr(data, field)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(arr, 1, out=arr)
    rho = rib.rep("lattice")
    kernel = hom_kernel(rho, rho)
    assert [ann for _, ann in kernel] == [7, 49]
    for v, _ in kernel:
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 5
    assert hom_kernel(rho, rho) is kernel and kernel[1][0].tolist() == [43, 0, 0, 1]
    assert data.class_coords(data.representative(0)).tolist() == [1]


def former_systems(data):
    """The two systems `H1Data` once solved, as test-local oracles: the
    coordinate stack [B^1 basis; h1_reps]^T, whose solution's tail was the
    class coordinates, and coboundaries^T, whose solution was the Ribet
    descent's coboundary preimage.  Returns (stack, cob, dim B^1)."""
    b1 = row_space_mod(data.coboundaries, data.q)
    return np.vstack([b1, data.h1_reps]).T, data.coboundaries.T, len(b1)


def sample_cocycles(data, rng):
    """(the representatives, a random cocycle z, a coboundary b and z + b;
    an unchecked cocycle of random generator values, mostly off Z^1)."""
    m, q = data.module, data.q
    z = data.cocycle_from_gen_vector(rng.integers(0, q, len(data.z1)) @ data.z1 % q)
    b = coboundary(m, rng.integers(0, q, m.dim))
    off = Cocycle(m, data._values(rng.integers(0, q, (1, data.z1.shape[1])))[:, :, 0],
                  validate=False)
    return data.representatives() + [z, b, z + b], off


def test_the_readers_answer_as_a_fresh_solve(asked):
    rng = np.random.default_rng(11)
    refused = 0
    for m in asked[0]:
        data, q = h1(m), m.q
        stack, _, nb = former_systems(data)
        cocycles, off = sample_cocycles(data, rng)
        for c in cocycles:
            want = solve_mod(stack, data.gen_vector(c), q)
            assert want is not None, m
            assert np.array_equal(data.class_coords(c), want[nb:]), m
            assert data.is_coboundary(c) == (not want[nb:].any()), m
        assert data.is_coboundary(cocycles[-2])
        want = solve_mod(stack, data.gen_vector(off), q)
        if want is None:
            refused += 1
            for ask in (data.class_coords, data.is_coboundary):
                with pytest.raises(ValueError, match="not in the computed Z"):
                    ask(off)
        else:
            assert np.array_equal(data.class_coords(off), want[nb:])
    assert refused >= len(asked[0]) // 2


def test_decompose_splits_x_into_a_coboundary_and_a_class(asked):
    rng = np.random.default_rng(11)
    refused = vanished = 0
    for m in asked[0]:
        data, q = h1(m), m.q
        stack, cob, nb = former_systems(data)
        cocycles, off = sample_cocycles(data, rng)
        xs = np.column_stack([data.gen_vector(c) for c in cocycles])
        for x in list(xs.T) + [xs]:
            y, c = data.decompose(x)
            assert np.array_equal(x, (data.coboundaries.T @ y + data.h1_reps.T @ c) % q), m
            # c is unique: the tail of the coordinate stack's solution
            assert _same_answer(c, solve_mod(stack, x, q)[nb:]), m
            if x.ndim == 1 and not c.any():
                # free variables 0: the coboundary solve, entry for entry
                assert _same_answer(y, solve_mod(cob, x, q)), m
                vanished += 1
        x = data.gen_vector(off)
        if solve_mod(stack, x, q) is None:
            refused += 1
            assert solve_mod(cob, x, q) is None
            for rhs in (x, np.column_stack([xs, x])):
                with pytest.raises(ValueError, match="not in the computed Z"):
                    data.decompose(rhs)
    assert refused >= len(asked[0]) // 2 and vanished >= len(asked[0])


def test_repeated_class_coords_eliminate_once(monkeypatch):
    rib = ribet_fixture()  # a fresh group, so an empty memo
    m = hom_module(rib.rep("chi"), rib.rep("chi_inv"))
    calls, rounds = [], []
    echelon, kernel = exactalg.echelon_mod, cohomology.kernel_mod

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    def counted_round(*args):
        rounds.append(args)
        return kernel(*args)

    monkeypatch.setattr(exactalg, "echelon_mod", counted)
    monkeypatch.setattr(cohomology, "kernel_mod", counted_round)
    # the build: Z^1's kernel rounds, then the one system
    data = h1(m)
    assert rounds and len(calls) == len(rounds) + 1
    calls.clear()
    zs = data.representatives() + [coboundary(m, [3])]
    twin = Rep(rib.group, list(rib.group.H), m.images.copy(), m.mod)
    for _ in range(3):
        for z in zs:
            data.class_coords(z)
            assert h1(twin).is_coboundary(z) == (z is zs[-1])
            assert h1(twin).classes_equal(z, z)
            assert data.decompose(data.gen_vector(z))[1].any() == (z is not zs[-1])
        assert data.map_matrix(lambda z: z, data).tolist() == [[1]]
    assert calls == []


def past_a_coboundary_row():
    """chi + 1 on C_2 x C_7 x C_2 over F_7, chi the sign of the first
    factor: the first row of Z^1 is a coboundary, so the one representative
    is the second row, not the first."""
    g = semidirect_group(2, 1, (7, 2), (1, 1))
    sign = [6 if g.elements[x][0] else 1 for x in range(g.n)]
    images = np.zeros((g.n, 2, 2), dtype=np.int64)
    images[:, 0, 0], images[:, 1, 1] = sign, 1
    return Rep(g, "G", images, 7)


def test_the_representatives_are_the_greedy_extension_of_b1(asked):
    # the route of extend_basis: a second elimination, of [coboundaries; z1]^T
    skipping = past_a_coboundary_row()
    for m in asked[0] + [skipping]:
        data = h1(m)
        want = data.z1[extend_basis(data.coboundaries, data.z1, data.q)]
        assert data.h1_reps.shape == want.shape and np.array_equal(data.h1_reps, want), m
        # each representative's class coordinates are a unit vector
        eye = np.eye(data.dim, dtype=np.int64)
        assert np.array_equal(data.decompose(data.h1_reps.T)[1], eye), m
        b = coboundary(m, np.arange(1, m.dim + 1))
        for i, z in enumerate(data.representatives()):
            assert np.array_equal(data.class_coords(z + b), eye[i]), m
    data = h1(skipping)
    assert data.dim == 1 and np.array_equal(data.h1_reps, data.z1[1:2])


def test_class_questions_leave_an_h1data_as_built(asked):
    rng = np.random.default_rng(17)
    for m in asked[0]:
        data = H1Data(m)
        built = dict(vars(data))
        cocycles, _ = sample_cocycles(data, rng)
        for c in cocycles:
            data.class_coords(c)
            data.is_coboundary(c)
            data.classes_equal(c, cocycles[0])
        data.decompose(np.column_stack([data.gen_vector(c) for c in cocycles]))
        data.map_matrix(lambda z: z, data)
        assert vars(data).keys() == built.keys(), m
        assert all(vars(data)[k] is v for k, v in built.items()), m
