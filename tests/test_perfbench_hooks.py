"""The benchmark harness wraps asaikit functions by name (perfbench/spans.py)
and its span hooks read attributes of what they return.  Installing and
removing its tracer here, and toy runs of all three workloads with tracing off
and on, make a rename that would break benchmark runs fail the test suite."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import asaikit.cohomology as cohomology
import asaikit.grouprep as grouprep
from asaikit.fixtures import s3_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = (grouprep.tensor_induce, cohomology.tensor_induce,
              cohomology.H1Data.__dict__["__init__"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cohomology.tensor_induce is not before[1]
        fix = s3_fixture()
        cohomology.h1(cohomology.as_twisted_module(
            fix.rep("chi3"), grouprep.trivial_character(fix.group, "G", 7)))
    finally:
        tracer.uninstall()
    after = (grouprep.tensor_induce, cohomology.tensor_induce,
             cohomology.H1Data.__dict__["__init__"])
    assert after == before
    names = {s.name for s in tracer.spans}
    assert {"grouprep.tensor_induce", "grouprep.rep_validate", "cohomology.h1"} <= names


def _toy_run(workload, trace, tmp_path):
    """One toy run of a workload: exit 0, every check passed, none failed."""
    # a copy of the harness beside a link to the sources, so that its
    # scratch files and span dumps stay out of the checkout
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in PERFBENCH.glob("*.py"):
        shutil.copy(f, bench)
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src", target_is_directory=True)
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload,
           "--size", "toy", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("trace", [0, 1])
def test_toy_ribet_ladder_run_is_correct(trace, tmp_path):
    _toy_run("ribet-ladder", trace, tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
def test_toy_identity_batteries_run_is_correct(trace, tmp_path):
    _toy_run("identity-batteries", trace, tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
def test_toy_euler_dirichlet_run_is_correct(trace, tmp_path):
    # its checks recompute every sampled Euler factor with perfbench's own
    # charpoly oracle and both factorization identities
    _toy_run("euler-dirichlet", trace, tmp_path)
