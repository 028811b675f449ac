"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload ribet-ladder --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: asaikit is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics:

  setup_s      importing asaikit, plus the median of three set-ups of the
               workload's fixtures (build or load, and validate)
  solve_s      median time of one round of the workload's operations
  peak_rss_mb  peak resident memory of this process

Both times are seconds of program work at the speed gauge's reference
speed (see gauge.py): the host is shared and its speed drifts by up to
2x, so each section's wall time is rescaled by the speed the gauge
sampled while it ran.  The summary line before the result also gives the
raw wall times.

With `--trace 1` it reports the per-layer metrics instead, from spans
recorded around asaikit's public functions (see spans.py); traced and
untraced rounds alternate, and `trace.overhead_s` is the difference of
their medians.  Every round's outputs are checked after the round, outside
the timed section.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3


def _import_asaikit(clock):
    """Import the package from the checkout; returns the marks around it."""
    src = ROOT / "src"
    if not (src / "asaikit" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no asaikit sources under {src}")
    a = clock()
    sys.path.insert(0, str(src))
    import asaikit  # noqa: F401
    import asaikit.batteries  # noqa: F401
    import asaikit.cli  # noqa: F401
    import asaikit.polarization  # noqa: F401

    b = clock()
    if Path(asaikit.__file__).resolve().parent != (src / "asaikit").resolve():
        raise SystemExit(f"run.py: imported asaikit from {asaikit.__file__}, not {src}")
    return a, b


def _run_round(ops, counts):
    """Run every op once; returns {name: output}."""
    results = {}
    for op in ops:
        counts["attempted"] += 1
        try:
            results[op.name] = op.fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            counts["failed"] += 1
            counts["errors"].setdefault(op.name, f"{type(exc).__name__}: {exc}")
    return results


def _check(workload, st, results, errors):
    # outputs of failed operations are absent; the checks see the rest
    try:
        found = workload.check(st, results)
    except Exception as exc:  # an output the checks cannot read is wrong
        found = [f"check raised {type(exc).__name__}: {exc}"]
    for e in found:
        if e not in errors and len(errors) < 20:
            errors.append(e)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy inputs, for the self-test")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="expect one wrong answer, to show the checks catch it")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from gauge import Gauge

    # the traced run reports raw span times and runs no gauge
    gauge = None if args.trace else Gauge()
    if gauge:
        gauge.start()
    try:
        imported = _import_asaikit(gauge.mark if gauge else time.perf_counter)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        (HERE / "_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
        try:
            return _run(args, gauge, imported, work, WORKLOADS[args.workload])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        if gauge:
            gauge.stop()


def _run(args, gauge, imported, work, cls):
    workload = cls(args.seed, args.size, work, args.plant_wrong)
    counts = {"attempted": 0, "failed": 0, "errors": {}}
    errors: list[str] = []
    rounds: list = []  # untraced: (start, end) gauge marks; traced: seconds

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            st = workload.setup()
        finally:
            tracer.uninstall()
        ops = workload.ops(st)
        traced: list[float] = []
        t_end = time.perf_counter() + args.seconds
        while not rounds or not traced or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            if len(rounds) <= len(traced):
                results = _run_round(ops, counts)
                rounds.append(time.perf_counter() - t0)
            else:
                tracer.phase = f"round{len(traced)}"
                tracer.install()
                try:
                    results = _run_round(ops, counts)
                finally:
                    tracer.uninstall()
                traced.append(time.perf_counter() - t0)
            _check(workload, st, results, errors)
        overhead = statistics.median(traced) - statistics.median(rounds)
        metrics = tracer.layer_metrics(len(traced), overhead)
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{cls.name}.trace.jsonl")
        summary = (f"{cls.name}: {len(rounds)} untraced + {len(traced)} traced rounds, "
                   f"{len(tracer.spans)} spans")
    else:
        setups = []  # (start, end) marks
        for _ in range(SETUPS):
            st = None  # let the previous set-up's fixtures go first
            gc.collect()
            a = gauge.mark()
            st = workload.setup()
            setups.append((a, gauge.mark()))
        ops = workload.ops(st)
        t_end = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < t_end:
            a = gauge.mark()
            results = _run_round(ops, counts)
            rounds.append((a, gauge.mark()))
            _check(workload, st, results, errors)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the sample after the last section has been taken by now
        time.sleep(2 * gauge.interval)

        def med(sections, measure):
            return statistics.median(measure(a, b) for a, b in sections)

        setup_s = gauge.seconds(*imported) + med(setups, gauge.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": med(rounds, gauge.seconds), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        summary = (f"{cls.name}: {len(rounds)} rounds of {len(ops)} operations; "
                   f"{len(gauge.durations)} gauge samples, host slowdown "
                   f"{gauge.slowdown():.3f}; wall set-up "
                   f"{gauge.wall(*imported) + med(setups, gauge.wall):.4g} s, "
                   f"wall round {med(rounds, gauge.wall):.4g} s")

    print(summary)
    for name, err in counts["errors"].items():
        print(f"failed operation {name}: {err}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
