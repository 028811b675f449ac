"""Fast self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every workload at toy size it
checks that

  * an untraced run is correct and emits every end_to_end metric of
    BENCHMARK.json with its unit, and attempted/failed counts in whole
    rounds (ribet-ladder fails exactly its one known-bad operation per
    round, the others none);
  * a traced run emits every per_layer metric with its unit (run.py
    refuses to report a span with negative self time, which a child span
    overrunning its parent produces);
  * a run told to expect one wrong answer (--plant-wrong) reports
    correct=false and exits non-zero;

that the speed gauge subtracts its own time from a section and rescales
the rest by the speed it sampled,

that BENCHMARK.json lists exactly the per-layer metrics spans.py computes,
and that run.py exits non-zero without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gauge
from spans import LAYER_METRICS, Span, Tracer
from suite import HERE, ROOT, SPEC, run

# operations per toy round, and how many of them fail on every round
TOY_ROUND = {"ribet-ladder": (6, 1), "identity-batteries": (1, 0), "euler-dirichlet": (31, 0)}


def main():
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    expect(SPEC["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in LAYER_METRICS],
           "BENCHMARK.json per_layer matches the metrics spans.py computes")
    tracer = Tracer()
    parent, child = Span("p", 0.0, -1, "setup"), Span("c", 0.5, 0, "setup")
    parent.end, child.end = 2.0, 3.0  # the child overran its parent
    tracer.spans = [parent, child]
    expect(tracer.self_times()[0] < 0, "a child overrunning its parent gives negative self time")
    g = gauge.Gauge()
    # a 1 s section, 0.2 s of it the kernel's, sampled at half the reference
    # speed, then a sample far outside it that must be ignored
    g.starts = [-0.1, 0.3, 0.7, 1.05, 9.0]
    g.durations = [2 * gauge.REFERENCE_S] * 4 + [gauge.REFERENCE_S / 100]
    expect(abs(g.seconds((0.0, 0.0), (1.0, 0.2)) - 0.4) < 1e-12,
           "the gauge rescales a section's own time by the speed sampled in it")
    for w in (x["name"] for x in SPEC["workloads"]):
        toy = ("--size", "toy")
        code, res, out = run(w, 7, 1, 0, toy)
        expect(code == 0 and res is not None and res["correct"], f"{w}: toy run correct")
        if res is None:
            print(out)
            continue
        got = res["metrics"]
        for m in SPEC["end_to_end"]:
            expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                   and got[m["name"]]["value"] > 0, f"{w}: emits {m['name']} [{m['unit']}]")
        per_round, bad = TOY_ROUND[w]
        rounds = res["attempted"] // per_round
        expect(res["attempted"] == rounds * per_round and rounds >= 1
               and res["failed"] == rounds * bad,
               f"{w}: {res['attempted']} attempted, {res['failed']} failed, in whole rounds")

        code, res, out = run(w, 7, 1, 1, toy)
        ok = code == 0 and res is not None and res["correct"]
        expect(ok, f"{w}: traced toy run correct")
        if ok:
            got = res["metrics"]
            missing = [m["name"] for m in SPEC["per_layer"]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, f"{w}: emits all {len(SPEC['per_layer'])} per-layer metrics"
                   + (f" (missing {missing})" if missing else ""))
        else:
            print(out)

        code, res, out = run(w, 7, 1, 0, toy + ("--plant-wrong",))
        expect(code != 0 and res is not None and res["correct"] is False,
               f"{w}: a planted wrong expectation is reported as incorrect")

    (HERE / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "ribet-ladder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources run.py exits non-zero with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
