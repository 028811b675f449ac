"""The batched Euler identities against the per-parameter entries: equal
(ok, report) pairs on split, inert and twisted parameters, the same failure
record for a planted closed form, the same refusals, and the battery's
certified stack charpolys equal to the scalar Berkowitz and to Newton's
identities on every draw."""

import numpy as np
import pytest

import asaikit.lfunc as lfunc
from asaikit import batteries
from asaikit.exactalg import PolyX, charpoly
from asaikit.lfunc import (
    EulerFactor,
    SatakeParam,
    _std_block,
    frobenius_matrix,
    mat,
    mmul,
    random_satakes,
    random_sl2,
    verify_lambda2,
    verify_lambda2_batch,
    verify_std_decomposition,
    verify_std_decomposition_batch,
)

from test_euler_factor_layer import reciprocal_charpoly_by_traces


def _mixed(seed, count=24):
    """Alternately split and inert draws, then split ones of twist -1."""
    rng = np.random.default_rng(seed)
    return (random_satakes(rng, [i % 2 == 0 for i in range(count)]),
            random_satakes(rng, [True] * (count // 2), twist=-1))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [3, 11])
def test_batches_equal_the_per_parameter_entries(seed):
    plain, flipped = _mixed(seed)
    for params, chi in ((plain, 1), (flipped, -1), (flipped, 1), (plain + flipped, -1)):
        got = verify_lambda2_batch(params, chi)
        assert got == [verify_lambda2(sp, chi) for sp in params]
        # a chi that does not match the similitude fails both paths alike
        assert all(ok for ok, _ in got) == (chi == 1 and params is plain
                                            or chi == -1 and params is flipped)
    for params in (plain, flipped, plain + flipped, []):
        got = verify_std_decomposition_batch(params)
        assert got == [verify_std_decomposition(sp) for sp in params]
        assert all(ok for ok, _ in got)
    assert verify_lambda2_batch([], 1) == []


def plant(monkeypatch, target, wrong_tag):
    """euler_factor off by one in the top coefficient of wrong_tag, for the
    parameter equal to target only."""
    honest = lfunc.euler_factor

    def planted(sp, tag):
        f = honest(sp, tag)
        if tag != wrong_tag or sp != target:
            return f
        coeffs = list(f.poly.coeffs)
        coeffs[-1] += 1
        return EulerFactor(PolyX(coeffs), tag)

    monkeypatch.setattr(lfunc, "euler_factor", planted)


@pytest.mark.parametrize("wrong_tag", ["asai-", "asai+"])
def test_a_planted_closed_form_fails_as_in_the_scalar_path(monkeypatch, wrong_tag):
    params, _ = _mixed(5)
    target = params[7]
    plant(monkeypatch, target, wrong_tag)
    lam = verify_lambda2_batch(params, 1)
    std = verify_std_decomposition_batch(params)
    assert lam == [verify_lambda2(sp, 1) for sp in params]
    assert std == [verify_std_decomposition(sp) for sp in params]
    failed = [i for i, (ok, _) in enumerate(lam if wrong_tag == "asai-" else std) if not ok]
    assert failed == [7]
    assert all(ok for ok, _ in (std if wrong_tag == "asai-" else lam))


@pytest.mark.parametrize("wrong_tag, name, index", [("asai-", "lambda2", 5), ("asai+", "std", 3)])
def test_a_planted_closed_form_gives_the_battery_the_scalar_record(monkeypatch, wrong_tag,
                                                                   name, index):
    rng = np.random.default_rng(0)
    lam = random_satakes(rng, [i % 2 == 0 for i in range(200)])
    std = random_satakes(rng, [i % 2 == 0 for i in range(100)])
    target = (lam if name == "lambda2" else std)[index]
    plant(monkeypatch, target, wrong_tag)
    check = verify_lambda2(target, 1) if name == "lambda2" else verify_std_decomposition(target)
    assert not check[0]
    want = {"battery": "euler", "case": f"{name} #{index}", "passed": False, **check[1]}
    records = batteries.euler_battery(0)
    assert [r for r in records if not r["passed"]] == [
        want, {"battery": "euler", "case": f"{name} battery "
               f"({200 if name == 'lambda2' else 100} params)", "passed": False}]


def test_the_batches_refuse_as_the_per_parameter_entries_do():
    rng = np.random.default_rng(29)
    good = random_satakes(rng, [True, False])
    p = 5
    # similitude p: a std factor whose twist by 1/p is not integral
    scaled = SatakeParam(p, True, mmul(random_sl2(rng), mat([[p, 0], [0, 1]])),
                         mmul(mat([[1, 0], [0, p]]), random_sl2(rng)))
    # det a != det b: not a similitude of J
    skew = SatakeParam(13, True, mmul(random_sl2(rng), mat([[2, 0], [0, 1]])),
                       random_sl2(rng))
    for params in ([*good, scaled, skew], [*good, skew, scaled], [skew]):
        want = next(o for o in map(lambda sp: _outcome(verify_std_decomposition, sp), params)
                    if o[0] is ValueError)
        assert _outcome(verify_std_decomposition_batch, params) == want
    # entries beyond 2^30 are refused by the stacks, not wrapped
    big = SatakeParam(7, True, ((2**31, 1), (2**31 - 1, 1)), ((1, 0), (0, 1)))
    assert verify_lambda2(big, 1)[0]
    for batch in (lambda ps: verify_lambda2_batch(ps, 1), verify_std_decomposition_batch):
        with pytest.raises(ValueError, match="entries up to 2\\^30"):
            batch([*good, big])
    huge = SatakeParam(7, False, ((2**70, 1), (-1, 0)))
    with pytest.raises(ValueError, match="entries up to 2\\^30"):
        verify_lambda2_batch([huge], 1)
    with pytest.raises(ValueError, match="chi must be a local value"):
        verify_lambda2_batch(good, 2)


@pytest.mark.parametrize("seed", [0, 7])
def test_every_battery_stack_charpoly_equals_the_scalar_one(monkeypatch, seed):
    real, seen = lfunc.charpoly_int_stack, []

    def recording(stack):
        seen.append((stack.tolist(), real(stack)))
        return seen[-1][1]

    monkeypatch.setattr(lfunc, "charpoly_int_stack", recording)
    assert all(r["passed"] for r in batteries.euler_battery(seed))
    rng = np.random.default_rng(seed)
    lam = random_satakes(rng, [i % 2 == 0 for i in range(200)])
    std = random_satakes(rng, [i % 2 == 0 for i in range(100)])
    (lam_stack, lam_polys), (std_stack, std_polys) = seen
    assert lam_stack == [list(map(list, frobenius_matrix(sp, "lambda2"))) for sp in lam]
    assert std_stack == [list(map(list, _std_block(frobenius_matrix(sp, "ind"))[0]))
                         for sp in std]
    for stack, polys in ((lam_stack, lam_polys), (std_stack, std_polys)):
        assert polys == [charpoly(m) for m in stack]
        assert [list(PolyX(c).coeffs) for c in polys] == [
            reciprocal_charpoly_by_traces(m) for m in stack]
