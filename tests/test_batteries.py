"""The Prasad battery checks each tensor-induction identity on its canonical
map.  `is_isomorphic` (a Hom-space kernel plus a witness search) is the
oracle here; the battery itself never searches.  The batteries share their
fixtures, built once per process."""

import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

import asaikit.batteries as batteries
from asaikit import cli, fixtures, grouprep
from asaikit.batteries import prasad_battery, prasad_identities
from asaikit.fixtures import f20_fixture, random_battery_case
from asaikit.grouprep import coset_sign_character, is_isomorphic, tensor_induce

ORACLE_SEEDS = (0, 1, 2, 3, 7)


def test_canonical_checks_agree_with_is_isomorphic():
    pairs = 0
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            group, r1, r2, q, label = random_battery_case(rng)
            sgn = coset_sign_character(group, q)
            for name, lhs, rhs in prasad_identities(r1, r2, sgn):
                iso, _ = is_isomorphic(lhs, rhs)
                assert (lhs == rhs) == iso, (seed, label, name)
                pairs += 1
    assert pairs >= 5 * 20 * 4


@pytest.mark.parametrize("seed", [0, 7])
def test_battery_draws_only_the_cases(seed):
    rng = np.random.default_rng(seed)
    want = [random_battery_case(rng)[4] for _ in range(20)]
    got = [r["case"][: -len(" multiplicative")] for r in prasad_battery(seed)
           if r["case"].endswith(" multiplicative")]
    assert got == want


def count_calls(monkeypatch, name):
    """Count the calls of grouprep.<name> through every asaikit module that
    bound it."""
    orig = getattr(grouprep, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("asaikit") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_verify_identities_searches_no_hom_space(monkeypatch, tmp_path):
    spaces = count_calls(monkeypatch, "intertwiner_space")
    tries = count_calls(monkeypatch, "contains_invertible")
    report = tmp_path / "r.json"
    assert cli.main(["verify-identities", "--seed", "0", "--report", str(report)]) == 0
    assert (len(spaces), len(tries)) == (0, 0)
    # the counters do count: one search makes one call of each
    rho = f20_fixture(11).rep("rho")
    assert grouprep.is_isomorphic(tensor_induce(rho, +1), tensor_induce(rho, +1))[0]
    assert (len(spaces), len(tries)) == (1, 1)


@pytest.mark.parametrize("seed", [0, 7])
def test_prasad_battery_builds_six_tensor_inductions_per_case(monkeypatch, seed):
    # r1 (+ and -), r2 (+), r1 (x) r2 (+) and dual(r1) (+ and -): each once
    calls = count_calls(monkeypatch, "tensor_induce")
    prasad_battery(seed)
    assert len(calls) == 6 * 20


def failing(records):
    return [r["case"] for r in records if not r["passed"]]


def test_sign_blind_tensor_induce_fails_minus_is_plus_sign(monkeypatch):
    honest = batteries.tensor_induce
    monkeypatch.setattr(batteries, "tensor_induce", lambda rho, sign: honest(rho, +1))
    records = prasad_battery(0)
    minus = [r["case"] for r in records if r["case"].endswith("minus = plus x sign")]
    assert len(minus) == 20 and failing(records) == minus


def test_transposed_pair_permutation_fails_multiplicative(monkeypatch):
    honest = batteries._pair_perm

    def transposed(d1, d2):
        return honest(d1, d2).reshape(d1 * d2, d1 * d2).T.reshape(-1)

    monkeypatch.setattr(batteries, "_pair_perm", transposed)
    bad = failing(prasad_battery(0))
    assert bad and all(" dim2 " in c and c.endswith(" multiplicative") for c in bad)


# the shipped fixtures the batteries read, by name and builder call
SHIPPED_BUILDS = {
    "coh294_q7": ("coh294_fixture", ()),
    "ribet_q7_d6": ("ribet_fixture", ()),
    "m40_q11": ("m40_fixture", ()),
    "f20_d5_rho_q41": ("f20_fixture", (41,)),
    "f20_d5_rho_q11": ("f20_fixture", (11,)),
}


def test_verify_identities_builds_each_fixture_once(monkeypatch, tmp_path):
    builds = Counter()
    for name in {name for name, _ in SHIPPED_BUILDS.values()}:
        real = getattr(fixtures, name)
        monkeypatch.setattr(fixtures, name, lambda *args, name=name, real=real:
                            builds.update([(name, args)]) or real(*args))
    batteries._shipped.cache_clear()
    report = tmp_path / "r.json"
    for seed in ("0", "7"):
        assert cli.main(["verify-identities", "--seed", seed, "--report", str(report)]) == 0
    assert builds == Counter(SHIPPED_BUILDS.values())


def test_shared_fixtures_survive_a_full_run():
    batteries.run_batteries(seed=0)
    for name, (builder, args) in SHIPPED_BUILDS.items():
        fresh = getattr(fixtures, builder)(*args)
        assert batteries._shipped(name).to_json() == fresh.to_json(), name


def test_repeated_runs_write_the_pinned_report(tmp_path):
    # the sha256 that tests/test_cli.py pins for `verify-identities --seed 0`:
    # the second run reads every fixture from the cache the first one filled,
    # so a battery that mutates a shared fixture changes its bytes
    digest = "3de466c22dafb24091ba2f14ad879f884269f207ac7e8e0edcc66b99dee699fb"
    batteries._shipped.cache_clear()
    reports = []
    for i in range(2):
        report = tmp_path / f"r{i}.json"
        assert cli.main(["verify-identities", "--seed", "0", "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0]).hexdigest() == digest
