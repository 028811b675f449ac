"""Restriction, induction, tensor induction and the transfer build their
output unchecked: from a checked rep each is a representation by
construction.  These tests run Light's test on every such output instead,
over every shipped fixture and the battery sampler's draws, and pin that
the four operations make no `Rep.validate` call at run time."""

import numpy as np
import pytest

from asaikit.fixtures import random_battery_case, shipped_fixture_builders
from asaikit.grouprep import Rep, induce, tensor_induce, transfer_character


def battery_reps():
    for seed in range(20):
        _, r1, r2, _, label = random_battery_case(np.random.default_rng(seed))
        yield f"seed {seed} {label} rho1", r1
        yield f"seed {seed} {label} rho2", r2


def source_reps(source):
    if source == "battery":
        return list(battery_reps())
    return list(shipped_fixture_builders()[source]().reps.items())


def restrictions(rep):
    """The restrictions of rep to H (from G) and to the cyclic subgroup of
    the last element of its domain."""
    out = []
    if rep.domain == "G":
        out.append(("restrict_to_H", rep.restrict_to_H()))
    cyclic = np.flatnonzero(rep.group.closure([rep.elements[-1]]))
    out.append(("restrict", rep.restrict(cyclic)))
    return out


def derived(rep):
    """(operation, output) for every unchecked derivation of rep, and the
    restrictions of the reps on G among them."""
    out = restrictions(rep)
    if rep.domain == "H":
        on_g = [(f"tensor_induce {s:+d}", tensor_induce(rep, s)) for s in (1, -1)]
        on_g.append(("induce", induce(rep)))
        if rep.dim == 1:
            on_g.append(("transfer_character", transfer_character(rep)))
        for name, r in on_g:
            out += [(name, r)] + [(f"{name} {sub}", s) for sub, s in restrictions(r)]
    return out


@pytest.mark.parametrize("source", [*shipped_fixture_builders(), "battery"])
def test_every_unchecked_derivation_passes_lights_test(source):
    ops = set()
    for label, rep in source_reps(source):
        for op, out in derived(rep):
            try:
                out.validate()
            except ValueError as exc:
                pytest.fail(f"{label}: {op}: {exc}")
            ops.add(op.split()[0])
    assert {"induce", "tensor_induce", "restrict"} <= ops


def test_derivations_make_no_validate_call(monkeypatch):
    inputs = [rep for source in ("ribet_q7_d6", "f20_d5_rho_q41", "coh294_q7")
              for _, rep in source_reps(source)] + [r for _, r in battery_reps()]
    calls = []
    check = Rep.validate

    def counting_validate(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(Rep, "validate", counting_validate)
    outputs = [out for rep in inputs for _, out in derived(rep)]
    assert len(outputs) > 100 and not calls
    # the counter sees a check where one is made
    rep = inputs[0]
    Rep(rep.group, rep.domain, rep.images, rep.mod)
    assert len(calls) == 1
