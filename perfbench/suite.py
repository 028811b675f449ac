"""Run the benchmark's workloads, each in its own fresh process.

    python3 perfbench/suite.py                 # every workload once, tracing off
    python3 perfbench/suite.py --trace 1       # every workload once, per-layer figures
    python3 perfbench/suite.py --steady 10     # steadiness: two sets of 10 runs

Run from the root of a source checkout.  The first form prints setup_s,
solve_s and peak_rss_mb with their units, and the attempted and failed
operation counts, for each workload.

Every run measures for BENCHMARK.json's run_seconds.  `--steady N` makes
two sets of N runs of every workload, each run with its own seed, and
reports per end-to-end metric and set the median and the spread
(q3 - q1) / median, with the quartiles as `statistics.quantiles(values, n=4)`
gives them, and how far the second set's median moved from the first's.  A
metric passes when both spreads are under a third of its bound in
BENCHMARK.json (setup_s is held to its median shift alone, since a run
times its set-up only a few times) and its median got worse by no more
than the bound; both sets must fail the same share of operations.  The
summary also goes to perfbench/_out/steady.json, and the exit code is 0
only when everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, seconds, trace=0, extra=()):
    """One run of run.py in a fresh process: (exit code, result, stdout)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def _show(workload, code, result):
    if result is None:
        print(f"{workload}: no result (exit {code})")
        return
    print(f"{workload}: exit {code}, correct {result['correct']}, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")


def steady(runs, seed_base):
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    ok = True
    for w in WORKLOADS:
        sets = []
        for k in range(2):
            values: dict[str, list[float]] = {}
            shares = set()
            for i in range(runs):
                seed = seed_base + 1000 * k + i
                code, result, out = run(w, seed, seconds)
                if code != 0 or result is None or not result["correct"]:
                    print(out)
                    raise SystemExit(f"{w} seed {seed}: run failed (exit {code})")
                shares.add(result["failed"] / result["attempted"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{w} set {k} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
            sets.append((values, shares))
        rows = {}
        for name, bound in bounds.items():
            row = {"bound": bound}
            for k, (values, _) in enumerate(sets):
                v = values[name]
                q1, _, q3 = statistics.quantiles(v, n=4)
                row[f"set{k}"] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / statistics.median(v), "values": v}
            row["shift"] = row["set1"]["median"] / row["set0"]["median"] - 1
            # set-up time is only held to its median, never to a spread
            spread_ok = name == "setup_s" or all(
                row[f"set{k}"]["spread"] < bound / 3 for k in range(2))
            row["ok"] = spread_ok and row["shift"] <= bound
            ok = ok and row["ok"]
            rows[name] = row
        share_equal = sets[0][1] == sets[1][1] and len(sets[0][1]) == 1
        ok = ok and share_equal
        summary[w] = {"metrics": rows, "failed_shares": [sorted(s[1]) for s in sets],
                      "failed_share_equal": share_equal}
        print(f"\n{w}: failed share per set {summary[w]['failed_shares']}")
        print(f"  {'metric':12s} {'bound':>6s} {'median0':>10s} {'spread0':>8s} "
              f"{'median1':>10s} {'spread1':>8s} {'shift':>7s}")
        for name, row in rows.items():
            print(f"  {name:12s} {row['bound']:6.2f} {row['set0']['median']:10.4g} "
                  f"{row['set0']['spread']:8.2%} {row['set1']['median']:10.4g} "
                  f"{row['set1']['spread']:8.2%} {row['shift']:7.2%} "
                  f"{'ok' if row['ok'] else 'NOT STEADY'}")
        print(flush=True)
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"runs": runs, "seconds": seconds, "seed_base": seed_base, "ok": ok,
         "workloads": summary}, indent=1) + "\n")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of a single run; first seed of --steady")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N", default=0,
                    help="make two sets of N runs per workload and report spreads")
    args = ap.parse_args(argv)
    if args.steady:
        return 0 if steady(args.steady, args.seed) else 1
    worst = 0
    for w in WORKLOADS:
        code, result, out = run(w, args.seed, SPEC["run_seconds"], args.trace)
        if result is None:
            print(out)
        _show(w, code, result)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
