"""Every demo script runs to completion against the in-tree package, and
prints exactly what it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the demos are deterministic and print no paths
STDOUT_SHA256 = {
    "01_tensor_induction_tour.py":
        "22a8f57f2c8814b959b9eaeb2fba4948caa56d5316d293d33bc8e6ccbfd6ecd1",
    "02_selmer_pipeline_walkthrough.py":
        "19e6b646a2402c3ac1f329d1457e80406ba50fa408ba22a51f618ba587d55d4b",
    "03_euler_factors_and_series.py":
        "f33d3e3253399566e3ae2ad788f9d14009bbabb757571cbb91a777a4d1bf6922",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
