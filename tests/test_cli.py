import hashlib
import json
import os

import pytest

from asaikit import cli
from asaikit.fixtures import DATA_DIR, ribet_fixture, s3_fixture


def run(argv):
    return cli.main(argv)


def test_verify_identities_prasad_only(tmp_path):
    report = tmp_path / "r.json"
    code = run(["verify-identities", "--only", "prasad", "--seed", "3",
                "--report", str(report)])
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["ok"] and obj["failed"] == 0
    assert all(r["battery"] == "prasad" for r in obj["records"])


def test_verify_identities_unknown_battery():
    assert run(["verify-identities", "--only", "nope"]) == 2


def test_verify_identities_determinism(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run(["verify-identities", "--only", "euler", "--seed", "5",
                "--report", str(r1)]) == 0
    assert run(["verify-identities", "--only", "euler", "--seed", "5",
                "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_identities_failure_exit(monkeypatch, tmp_path):
    import asaikit.batteries as batteries

    def forced_failure():
        return [{"battery": "shapiro", "case": "forced", "passed": False,
                 "witness": [1, 2, 3]}]

    monkeypatch.setitem(batteries.BATTERIES, "shapiro", forced_failure)
    report = tmp_path / "r.json"
    code = run(["verify-identities", "--only", "shapiro", "--report", str(report)])
    assert code == 1
    obj = json.loads(report.read_text())
    assert obj["failed"] == 1 and not obj["ok"]
    assert obj["records"][0]["witness"] == [1, 2, 3]  # counterexample dump


def test_corrupted_fixture_rejected(tmp_path):
    bad_dir = tmp_path / "fixtures"
    bad_dir.mkdir()
    path = bad_dir / "s3_c3_chi3_q7.json"
    s3_fixture().save(path)
    obj = json.loads(path.read_text())
    obj["mul"][0][1] = 5  # break the multiplication table
    path.write_text(json.dumps(obj))
    report = tmp_path / "r.json"
    code = run(["pipeline", "s3_c3_chi3_q7", "--fixtures", str(bad_dir),
                "--report", str(report)])
    assert code == 1
    obj = json.loads(report.read_text())
    assert obj == {"command": "pipeline", "fixture": "s3_c3_chi3_q7", "class": None,
                   "ok": False, "error": obj["error"]}
    assert obj["error"].startswith("fixture load failed")


@pytest.mark.parametrize("with_dir", [False, True])
def test_unknown_fixture_ends_in_refusal_report(with_dir, tmp_path, capsys):
    argv = ["pipeline", "no_such_fixture", "--report", str(tmp_path / "r.json")]
    if with_dir:
        argv += ["--fixtures", str(tmp_path)]
    assert run(argv) == 1
    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj == {"command": "pipeline", "fixture": "no_such_fixture", "class": None,
                   "ok": False, "error": obj["error"]}
    assert "no_such_fixture" in obj["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_selmer_file_beside_the_fixtures_and_its_override(tmp_path, monkeypatch):
    """NAME.selmer.json in a --fixtures directory replaces the shipped one
    (full local condition, class inside), and --selmer overrides both."""
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    ribet_fixture().save(tmp_path / "ribet_q7_d6.json")
    _zero_selmer_condition(tmp_path / "ribet_q7_d6.selmer.json")
    report = tmp_path / "p.json"
    assert run(["pipeline", "--fixtures", str(tmp_path), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["selmer_membership"] is False
    assert run(["pipeline", "--fixtures", str(tmp_path), "--report", str(report),
                "--selmer", str(DATA_DIR / "ribet_q7_d6.selmer.json")]) == 0
    assert json.loads(report.read_text())["selmer_membership"] is True


def _zero_selmer_condition(path):
    """A Selmer file with a zero local condition on V for ribet_q7_d6."""
    g = ribet_fixture().group
    v_sub = sorted(h for h in g.H.tolist() if g.elements[h][1] == 0)
    path.write_text(json.dumps([{"subgroup": v_sub, "local_condition": "zero"}]))


def test_empty_fixtures_env_counts_as_unset(tmp_path, monkeypatch):
    """An empty ASAI_KIT_FIXTURES neither names a fixture directory nor
    makes the current directory one for the Selmer file."""
    _zero_selmer_condition(tmp_path / "ribet_q7_d6.selmer.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.FIXTURES_ENV, "")
    report = tmp_path / "p.json"
    assert run(["pipeline", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["selmer_membership"] is True


def test_fixtures_env_default(tmp_path, monkeypatch):
    good = tmp_path / "fixtures"
    good.mkdir()
    ribet_fixture().save(good / "ribet_q7_d6.json")
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    default = tmp_path / "default.json"
    assert run(["pipeline", "--report", str(default)]) == 0
    monkeypatch.setenv(cli.FIXTURES_ENV, str(good))
    from_env = tmp_path / "env.json"
    assert run(["pipeline", "--report", str(from_env)]) == 0
    assert from_env.read_bytes() == default.read_bytes()


def test_verify_identities_has_no_fixtures_option():
    with pytest.raises(SystemExit) as exc:
        run(["verify-identities", "--fixtures", "somewhere"])
    assert exc.value.code == 2  # an argparse usage error


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--only", "prasad"],
    ["pipeline"],
    ["lfunc", "--primes", "3..7"],
])
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_pipeline_report(tmp_path):
    report = tmp_path / "p.json"
    assert run(["pipeline", "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["sign"] == 1 and obj["eigenvalue"] == 1
    assert obj["selmer_membership"] is True
    assert obj["ok"] is True


def test_pipeline_flip_psi(tmp_path):
    report = tmp_path / "p.json"
    assert run(["pipeline", "--flip-psi", "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["eigenvalue"] == -1 and obj["eigenvalue_law_holds"]


def test_pipeline_split_fixture_fails(tmp_path):
    report = tmp_path / "p.json"
    assert run(["pipeline", "ribet_q7_d6_split", "--report", str(report)]) == 1
    obj = json.loads(report.read_text())
    assert obj["ok"] is False and "split" in obj["error"]


def test_pipeline_custom_selmer(tmp_path):
    from asaikit.fixtures import ribet_fixture

    fix = ribet_fixture()
    g = fix.group
    v_sub = sorted(h for h in g.H.tolist() if g.elements[h][1] == 0)
    struct = [{"subgroup": v_sub, "local_condition": "zero"}]
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(struct))
    report = tmp_path / "p.json"
    assert run(["pipeline", "--selmer", str(sfile), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["selmer_membership"] is False


def test_pipeline_on_a_conjugated_seventh_power_lattice(tmp_path):
    """A saved Z/13^7 lattice fixture, conjugated so that every level below
    the class is scrambled, gives a report instead of a traceback."""
    from asaikit.exactalg import Mat
    from asaikit.fixtures import Fixture
    from asaikit.grouprep import Rep

    fix = ribet_fixture(13, d=4, alpha=12, chi_val=5, precision=7)
    lat = fix.rep("lattice")
    mod = lat.mod
    u = Mat([[1, 2], [3, 7]], mod)
    imgs = u.inverse().a @ lat.images % mod @ u.a % mod
    reps = {"lattice": Rep(fix.group, "G", imgs, mod),
            "chi": fix.rep("chi"), "chi_inv": fix.rep("chi_inv")}
    Fixture("ribet_q13_conj", fix.group, reps, fix.meta).save(tmp_path / "ribet_q13_conj.json")
    report = tmp_path / "p.json"
    code = run(["pipeline", "ribet_q13_conj", "--fixtures", str(tmp_path),
                "--report", str(report)])
    obj = json.loads(report.read_text())
    assert code == 0 and obj["ok"] is True
    assert obj["lattice_level"] == 6 and obj["eigenvalue_law_holds"] is True


@pytest.mark.parametrize("kind, error", [
    ("swapped", "no conjugate achieves a triangular reduction with the prescribed "
                "block order (rhobar1 does not embed)"),
    ("mismatched", "mod-q semisimplification does not match"),
])
def test_pipeline_refuses_a_lattice_its_blocks_do_not_triangularize(
        kind, error, tmp_path, capsys):
    """ribet_v0's lattice with chi and chi_inv swapped (it triangularizes
    only in the other order), and ribet_q7_d6's with chi^2 for chi (in
    neither order): `LatticeRep` refuses each, and the report says why."""
    from asaikit.fixtures import Fixture, ribet_v0_fixture

    if kind == "swapped":
        fix = ribet_v0_fixture()
        chi, chi_inv = fix.rep("chi_inv"), fix.rep("chi")
    else:
        fix = ribet_fixture()
        chi, chi_inv = fix.rep("chi").twist(fix.rep("chi")), fix.rep("chi_inv")
    name = f"ribet_{kind}"
    reps = {"lattice": fix.rep("lattice"), "chi": chi, "chi_inv": chi_inv}
    Fixture(name, fix.group, reps, fix.meta).save(tmp_path / f"{name}.json")
    report = tmp_path / "p.json"
    assert run(["pipeline", name, "--fixtures", str(tmp_path),
                "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {
        "command": "pipeline", "fixture": name, "class": None, "ok": False, "error": error}
    assert "Traceback" not in capsys.readouterr().err


def test_lfunc_primes(tmp_path):
    report = tmp_path / "l.json"
    assert run(["lfunc", "--primes", "3..20", "--verify-lambda2", "--seed", "2",
                "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["lambda2_all_ok"]
    ps = [row["p"] for row in obj["primes"]]
    assert ps == [3, 5, 7, 11, 13, 17, 19]
    for row in obj["primes"]:
        assert row["factors"]["ind"][0] == 1


def test_lfunc_verifies_lambda2_on_the_reported_factors(tmp_path, monkeypatch):
    # 14 primes: the six Euler factors come in closed form, and the identity
    # takes one matrix side per prime, its Lambda^2 factor
    import asaikit.lfunc as lfunc

    real, calls = lfunc.charpoly_reciprocal, []
    monkeypatch.setattr(lfunc, "charpoly_reciprocal", lambda m: calls.append(m) or real(m))
    assert run(["lfunc", "--primes", "3..50", "--verify-lambda2",
                "--report", str(tmp_path / "l.json")]) == 0
    assert len(calls) == 14


def test_lfunc_coeffs(tmp_path):
    report = tmp_path / "l.json"
    csv = DATA_DIR / "sample_coefficients.csv"
    assert run(["lfunc", "--coeffs", str(csv), "--N", "100",
                "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["dirichlet"]["coefficients"][0] == 1


def test_lfunc_missing_coefficient(tmp_path):
    csv = tmp_path / "c.csv"
    csv.write_text("norm,label,coefficient\n4,(2),-1\n")
    report = tmp_path / "l.json"
    assert run(["lfunc", "--coeffs", str(csv), "--N", "10",
                "--report", str(report)]) == 1
    obj = json.loads(report.read_text())
    assert obj == {"command": "lfunc", "ok": False,
                   "error": "missing diagonal coefficient c(3 O_K) below N=10"}


def test_lfunc_refuses_a_superscript_digit_by_its_row(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    csv.write_text("norm,label,coefficient\n4,(2),\u00b2\n")
    report = tmp_path / "l.json"
    assert run(["lfunc", "--coeffs", str(csv), "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {
        "command": "lfunc", "ok": False,
        "error": "non-integer entry in row ['4', '(2)', '\u00b2']"}
    assert "Traceback" not in capsys.readouterr().err


def test_lfunc_needs_input():
    with pytest.raises(SystemExit) as exc:
        run(["lfunc"])
    assert exc.value.code == 2


def test_lfunc_primes_and_coeffs_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["lfunc", "--primes", "3..7",
             "--coeffs", str(DATA_DIR / "sample_coefficients.csv")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--primes", "3..7", "--N", "7"], "argument --N: not allowed with"),
    (["--coeffs", str(DATA_DIR / "sample_coefficients.csv"), "--verify-lambda2"],
     "argument --verify-lambda2: not allowed with"),
    (["--primes", "5..3"], "empty range '5..3'"),
    (["--primes", "3"], "expected a range A..B"),
    (["--primes", "a..7"], "expected a range A..B"),
    (["--primes", "3..5..7"], "expected a range A..B"),
], ids=["N-with-primes", "verify-lambda2-with-coeffs", "reversed-range",
        "no-dots", "non-integer", "three-parts"])
def test_lfunc_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["lfunc", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_lfunc_prime_free_range_ends_in_refusal_report(tmp_path, capsys):
    report = tmp_path / "l.json"
    assert run(["lfunc", "--primes", "24..28", "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {
        "command": "lfunc", "ok": False, "error": "no prime in the range 24..28"}
    assert capsys.readouterr().err == "lfunc: no prime in the range 24..28\n"


def test_report_through_a_symlink_writes_its_target(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run(["lfunc", "--primes", "3..5", "--report", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["command"] == "lfunc"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_report_mode_follows_the_umask(umask, tmp_path):
    old = os.umask(umask)
    try:
        report = tmp_path / "r.json"
        for _ in range(2):  # created, then replaced
            assert run(["lfunc", "--primes", "3..5", "--report", str(report)]) == 0
            assert report.stat().st_mode & 0o777 == 0o666 & ~umask
    finally:
        os.umask(old)


def test_report_under_a_regular_file_is_exit_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    with pytest.raises(SystemExit) as exc:
        run(["lfunc", "--primes", "3..5", "--report", str(tmp_path / "afile" / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write the report" in err
    assert "Traceback" not in err


def test_pipeline_fixture_without_lattice(tmp_path):
    report = tmp_path / "p.json"
    assert run(["pipeline", "c15_q31", "--report", str(report)]) == 1
    obj = json.loads(report.read_text())
    assert obj == {"command": "pipeline", "fixture": "c15_q31", "class": None,
                   "ok": False, "error": obj["error"]}
    assert "lattice" in obj["error"] and "chi_inv" in obj["error"]


@pytest.mark.parametrize("case", [
    "selmer-missing-file", "selmer-not-a-list", "selmer-element-outside-group",
    "selmer-condition-not-a-list", "selmer-condition-wrong-length",
    "coeffs-missing-file", "coeffs-nonpositive-N",
])
def test_bad_input_ends_in_refusal_report(case, tmp_path, capsys):
    sfile = tmp_path / "s.json"
    argv = {
        "selmer-missing-file": ["pipeline", "--selmer", str(tmp_path / "none.json")],
        "selmer-not-a-list": ["pipeline", "--selmer", str(sfile)],
        "selmer-element-outside-group": ["pipeline", "--selmer", str(sfile)],
        "selmer-condition-not-a-list": ["pipeline", "--selmer", str(sfile)],
        "selmer-condition-wrong-length": ["pipeline", "--selmer", str(sfile)],
        "coeffs-missing-file": ["lfunc", "--coeffs", str(tmp_path / "none.csv")],
        "coeffs-nonpositive-N": ["lfunc", "--coeffs",
                                 str(DATA_DIR / "sample_coefficients.csv"), "--N", "-5"],
    }[case]
    if case == "selmer-not-a-list":
        sfile.write_text(json.dumps({"subgroup": [0], "local_condition": "zero"}))
    elif case == "selmer-element-outside-group":
        # ribet_q7_d6 has |G| = 84, so element 84 does not exist
        sfile.write_text(json.dumps([{"subgroup": [0, 84], "local_condition": "zero"}]))
    elif case == "selmer-condition-not-a-list":
        sfile.write_text(json.dumps([{"subgroup": list(range(7)), "local_condition": 5}]))
    elif case == "selmer-condition-wrong-length":
        # H^1 of the order-7 subgroup {0..6} is 1-dimensional here
        sfile.write_text(json.dumps(
            [{"subgroup": list(range(7)), "local_condition": [[1, 0, 0]]}]))
    report = tmp_path / "r.json"
    assert run(argv + ["--report", str(report)]) == 1
    obj = json.loads(report.read_text())
    assert obj["ok"] is False
    if case.startswith("coeffs-"):
        assert obj["command"] == "lfunc"
    assert "Traceback" not in capsys.readouterr().err


# The canonical report of each command, pinned by exit code and sha256: a
# change that keeps the behaviour keeps these bytes.
PINNED_REPORTS = {
    "verify-seed0": (["verify-identities", "--seed", "0"], 0,
                     "3de466c22dafb24091ba2f14ad879f884269f207ac7e8e0edcc66b99dee699fb"),
    "verify-seed7": (["verify-identities", "--seed", "7"], 0,
                     "53581c8e3bbf66213217704e397fb0d975d78274979eb97b6e846c8f63b094ee"),
    "pipeline": (["pipeline"], 0,
                 "357b4959c96221d612063f72b75bf35d448ce859d722c941efedd7cfc323f2ea"),
    "pipeline-flip-psi": (["pipeline", "--flip-psi"], 0,
                          "786eb9231ba3470ffac6ea956ab076a9b38c37ce8ce4a3caa62e08275963ab52"),
    "pipeline-split": (["pipeline", "ribet_q7_d6_split"], 1,
                       "ed1d01e2c8a27390e453c5582c7bd875fdf5ba4c923ef50167596153de09011a"),
    "pipeline-c15": (["pipeline", "c15_q31"], 1,
                     "f1873af3c59fad77205377a0f7b53a566766e3a2b4bdb2a95dc04415be9f15e8"),
    "lfunc-primes": (["lfunc", "--primes", "3..50", "--verify-lambda2"], 0,
                     "71cdafa5f9009abe9a9f14d9255a3b078caabcef5ed188fb626c3da3061cf4b6"),
    "lfunc-coeffs": (["lfunc", "--coeffs", str(DATA_DIR / "sample_coefficients.csv"),
                      "--N", "100"], 0,
                     "822b603e02b40ae8dc9d033fc122d679518de414ee6e4aa77b736c7456e9498e"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(case, tmp_path, monkeypatch):
    argv, code, digest = PINNED_REPORTS[case]
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    report = tmp_path / "r.json"
    assert run(argv + ["--report", str(report)]) == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_selmer_subgroup_that_is_not_a_subgroup_ends_in_refusal_report(tmp_path, capsys):
    # {0, 1} holds the identity of ribet_q7_d6 but not the powers of 1
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps([{"subgroup": [0, 1], "local_condition": "zero"}]))
    report = tmp_path / "r.json"
    assert run(["pipeline", "--selmer", str(sfile), "--report", str(report)]) == 1
    assert report.read_text() == (
        '{"class":null,"command":"pipeline",'
        '"error":"domain is not closed under multiplication",'
        '"fixture":"ribet_q7_d6","ok":false}\n')
    err = capsys.readouterr().err
    assert "pipeline: domain is not closed under multiplication" in err
    assert "Traceback" not in err
