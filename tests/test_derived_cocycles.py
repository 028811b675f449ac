"""The H^1 representatives, the conjugation action, the polarization
involution, Shapiro's projection, the Ribet class phi and the pipeline's
transported class are built unchecked: from checked input each is a
cocycle by construction.  These tests run Light's test on every such
output instead, over every module the identity batteries and the
`ribet_q7_d6` pipeline build and on every ribet-ladder rung, and pin that
the six derivations make no `Cocycle.validate` call at run time, while a
cocycle that enters from outside is still checked."""

import functools
import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from asaikit.batteries import explicit_battery, selmerres_battery, shapiro_battery
from asaikit.cohomology import (
    Cocycle,
    H1Data,
    SelmerStructure,
    as_twisted_module,
    coboundary,
    conj_action,
    conjugate_hom_module,
    h1,
    hom_module,
    polarization_involution,
    shapiro,
)
from asaikit.exactalg import Mat, extend_basis
from asaikit.fixtures import DATA_DIR, coh294_fixture, ribet_fixture
from asaikit.grouprep import Rep, coset_sign_character, power_character, trivial_character
from asaikit.polarization import LatticeRep, ribet_lattice, theorem_main_pipeline

# the ribet-ladder rungs: (q, chi(delta)) with chi(delta)^2 = -1 mod q, d = 4
RUNGS = [(13, 5), (37, 6), (101, 10)]
PRECISION = 3


@contextmanager
def class_arguments():
    """The (caller, cocycle) pairs whose classes `H1Data` is asked for
    inside the block: the cocycles handed to `class_coords`, such as the
    classes the pipeline places, and, as ("map_matrix", image), the images
    of the maps whose matrices `map_matrix` takes in one solve."""
    seen = []
    coords, matrix = H1Data.class_coords, H1Data.map_matrix

    def recording(self, cocycle):
        seen.append((sys._getframe(1).f_code.co_name, cocycle))
        return coords(self, cocycle)

    def recording_images(self, func, target):
        def image(z):
            seen.append(("map_matrix", func(z)))
            return seen[-1][1]
        return matrix(self, image, target)

    H1Data.class_coords, H1Data.map_matrix = recording, recording_images
    try:
        yield seen
    finally:
        H1Data.class_coords, H1Data.map_matrix = coords, matrix


@functools.lru_cache(maxsize=None)
def coh294():
    return coh294_fixture()


@functools.lru_cache(maxsize=None)
def ribet_fixtures():
    """ribet_q7_d6 and the ladder rungs, by label."""
    fixes = {"ribet_q7_d6": ribet_fixture()}
    for q, c in RUNGS:
        fixes[f"ladder q={q}"] = ribet_fixture(q, d=4, alpha=q - 1, chi_val=c,
                                               precision=PRECISION)
    return fixes


@functools.lru_cache(maxsize=None)
def lattices():
    """(label, LatticeRep): each fixture's lattice and a seeded conjugate."""
    rng = np.random.default_rng(0)
    out = []
    for label, fix in ribet_fixtures().items():
        rep, chi, chi_inv = fix.rep("lattice"), fix.rep("chi"), fix.rep("chi_inv")
        mod = rep.mod
        u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
        while not u.is_invertible():
            u = Mat(rng.integers(0, mod, size=(2, 2)), mod)
        conj = Rep(rep.group, "G", u.inverse().a @ rep.images % mod @ u.a % mod, mod)
        out += [(label, LatticeRep(rep, chi, chi_inv)),
                (f"{label} conjugated", LatticeRep(conj, chi, chi_inv))]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def pipeline_inputs():
    """(label, lattice, psi, selmer, require_odd_psi) as `asai-kit pipeline`
    builds them for ribet_q7_d6, plain and with --flip-psi, and for each
    ladder rung with its odd psi."""
    out = []
    sel = SelmerStructure.from_json(
        json.loads((DATA_DIR / "ribet_q7_d6.selmer.json").read_text()))
    for label, fix in ribet_fixtures().items():
        rep = fix.rep("lattice")
        latt = LatticeRep(rep, fix.rep("chi"), fix.rep("chi_inv"))
        odd = coset_sign_character(fix.group, rep.mod)
        if label == "ribet_q7_d6":
            out.append((label, latt, odd, sel, True))
            out.append((f"{label} --flip-psi", latt,
                        trivial_character(fix.group, "G", rep.mod), sel, False))
        else:
            out.append((label, latt, odd, None, True))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def ambients():
    """(label, module on G): every ambient whose conjugation action the
    batteries and the pipelines take."""
    fx = coh294()
    rho, eps = fx.rep("rho"), fx.rep("eps")
    out = [(f"coh294 k={k}", as_twisted_module(rho, power_character(eps, 1 - k)))
           for k in fx.meta["k_values"]]
    for label, latt, psi, _, _ in pipeline_inputs():
        q = latt.rep.q
        out.append((label, as_twisted_module(latt.rhobar1, psi.reduce(q))))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def shapiro_modules():
    rib = ribet_fixture()
    return (("ribet-q7 hom module", hom_module(rib.rep("chi"), rib.rep("chi_inv"))),
            ("coh294 hom module", conjugate_hom_module(coh294().rep("rho"))))


@functools.lru_cache(maxsize=None)
def built_modules():
    """Every coefficient module whose H^1 the explicit, selmerres and
    shapiro batteries and the pipelines ask `h1` for, whether the memo
    already holds it or not: `h1` is replaced under every name an asaikit
    module binds it to."""
    modules = []

    def recording(module):
        modules.append(module)
        return h1(module)

    bound = [(mod, name) for key, mod in sys.modules.items()
             if key == "asaikit" or key.startswith("asaikit.")
             for name, val in vars(mod).items() if val is h1]
    for mod, name in bound:
        setattr(mod, name, recording)
    try:
        explicit_battery()
        selmerres_battery()
        shapiro_battery()
        for _, latt, psi, sel, odd in pipeline_inputs():
            theorem_main_pipeline(latt, psi, selmer=sel, require_odd_psi=odd)
    finally:
        for mod, name in bound:
            setattr(mod, name, h1)
    distinct = []
    for m in modules:
        if not any(m == d for d in distinct):
            distinct.append(m)
    return tuple(distinct)


def representatives():
    return [(f"{m!r} #{i} representative {j}", z)
            for i, m in enumerate(built_modules())
            for j, z in enumerate(h1(m).representatives())]


def conjugations():
    out = []
    for label, ambient in ambients():
        on_h = ambient.restrict_to_H()
        zs = h1(on_h).representatives() + [coboundary(on_h, np.arange(1, on_h.dim + 1))]
        out += [(f"{label} cocycle {i}", conj_action(z, ambient)) for i, z in enumerate(zs)]
    return out


def polarizations():
    rho = coh294().rep("rho")
    m = conjugate_hom_module(rho)
    zs = h1(m).representatives() + [coboundary(m, [1, 5, 2, 3])]
    return [(f"coh294 cocycle {i}", polarization_involution(z, rho))
            for i, z in enumerate(zs)]


def shapiro_projections():
    out = []
    for label, module in shapiro_modules():
        with class_arguments() as seen:
            shapiro(module)
        out += [(f"{label} image {i}", z) for i, (_, z) in enumerate(seen)]
    return out


def ribet_classes():
    out = []
    for label, latt in lattices():
        with class_arguments() as seen:
            rr = ribet_lattice(latt)
        assert not rr.split and rr.cocycle is seen[-1][1], label
        out += [(f"{label} level {i}", z) for i, (_, z) in enumerate(seen)]
    return out


def pipeline_classes():
    out = []
    for label, latt, psi, sel, odd in pipeline_inputs():
        with class_arguments() as seen:
            theorem_main_pipeline(latt, psi, selmer=sel, require_odd_psi=odd)
        # the transported class and its conjugate are placed by the pipeline
        assert sum(c == "theorem_main_pipeline" for c, _ in seen) == 2, label
        out += [(f"{label} {caller} {i}", z) for i, (caller, z) in enumerate(seen)]
    return out


DERIVATIONS = {
    "representative": representatives,
    "conj_action": conjugations,
    "polarization_involution": polarizations,
    "shapiro": shapiro_projections,
    "ribet_lattice": ribet_classes,
    "theorem_main_pipeline": pipeline_classes,
}


@pytest.mark.parametrize("derivation", DERIVATIONS)
def test_every_derived_cocycle_passes_lights_test(derivation):
    outputs = DERIVATIONS[derivation]()
    assert outputs
    for label, z in outputs:
        try:
            z.validate()
        except ValueError as exc:
            pytest.fail(f"{derivation}: {label}: {exc}")


def test_the_derivations_cover_the_batteries_and_the_ladder():
    assert len(built_modules()) >= 10
    assert len(lattices()) == 2 * (1 + len(RUNGS))
    assert len(representatives()) >= len(built_modules()) // 2


def test_derivations_make_no_validate_call(monkeypatch):
    # inputs first: building them runs the batteries, whose explicit
    # comparison checks its own cocycles
    built_modules(), lattices(), ambients(), shapiro_modules()
    calls = []
    check = Cocycle.validate

    def counting_validate(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(Cocycle, "validate", counting_validate)
    outputs = [z for derive in DERIVATIONS.values() for _, z in derive()]
    assert len(outputs) > 50
    assert not calls
    # the counter sees a check where one is made
    z = outputs[0]
    Cocycle(z.module, z.values)
    h1(z.module).cocycle_from_gen_vector(np.zeros(len(z.module.gens) * z.module.dim, dtype=np.int64))
    assert len(calls) == 2


def test_a_cocycle_that_enters_is_still_checked():
    m = conjugate_hom_module(coh294().rep("rho"))
    data = h1(m)
    bad = np.zeros((len(m.elements), m.dim), dtype=np.int64)
    bad[3] = 1
    with pytest.raises(ValueError, match="cocycle identity fails"):
        Cocycle(m, bad)
    units = np.eye(len(data.gens) * m.dim, dtype=np.int64)
    off = [x for x in units if extend_basis(data.z1, x.reshape(1, -1), data.q)]
    assert off
    for x in off:
        with pytest.raises(ValueError, match="cocycle identity fails"):
            data.cocycle_from_gen_vector(x)


def test_polarization_involution_refuses_a_cocycle_off_hom_rho_c_rho():
    # End(rho) = Hom(rho, rho) is not Hom(rho^c, rho): its H^1
    # representative used to pass and its coboundaries to fail with a bare
    # AssertionError, since the formula assumes the conjugate module
    rho = coh294().rep("rho")
    m = hom_module(rho, rho)
    assert m != conjugate_hom_module(rho)
    for z in h1(m).representatives() + [coboundary(m, [1, 5, 2, 3])]:
        with pytest.raises(ValueError, match=r"cocycles in Hom\(rho\^c, rho\)"):
            polarization_involution(z, rho)
