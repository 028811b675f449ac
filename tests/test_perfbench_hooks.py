"""The benchmark harness wraps asaikit functions by name (perfbench/spans.py).
Installing and removing its tracer here makes a rename that would break
traced benchmark runs fail the test suite."""

import importlib
from pathlib import Path

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
