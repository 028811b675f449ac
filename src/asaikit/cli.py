"""Command-line entry point: reproducible identity batteries, the Selmer
pipeline, and Euler/Dirichlet computations.

Reports are canonical JSON, so a fixed configuration produces
byte-identical output across runs; the exit code reflects the verification
status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

FIXTURES_ENV = "ASAI_KIT_FIXTURES"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_report(path, obj):
    """Write the canonical JSON of `obj` to `path`, or to stdout for None.

    Symlinks are followed.  An existing target that is not a regular file
    (a FIFO or a device) is written in place; a regular file or a new path
    is replaced atomically by a temp file of mode 0o666 & ~umask.  Failing
    to write ends the run with one stderr line and exit code 2.
    """
    text = canonical_json(obj)
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "w") as fh:
                fh.write(text)
            return
        parent = os.path.dirname(target)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=".report-")
        try:
            with os.fdopen(fd, "w") as fh:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        sys.stderr.write(f"cannot write the report {path}: {exc}\n")
        raise SystemExit(2) from None


def refuse(path, head, error) -> int:
    """Write the refusal report, `head` (the command and its own fields)
    with the error and "ok": false, and one stderr line; exit code 1."""
    write_report(path, {**head, "error": error, "ok": False})
    sys.stderr.write(f"{head['command']}: {error}\n")
    return 1


def cmd_verify_identities(args) -> int:
    from .batteries import BATTERIES, run_batteries

    if args.only and args.only not in BATTERIES:
        sys.stderr.write(f"unknown battery {args.only!r}; "
                         f"choose from {sorted(BATTERIES)}\n")
        return 2
    records = run_batteries(seed=args.seed, only=args.only)
    failures = [r for r in records if not r["passed"]]
    for r in records:
        status = "pass" if r["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {r['battery']}: {r['case']}\n")
    report = {
        "command": "verify-identities",
        "seed": args.seed,
        "only": args.only,
        "total": len(records),
        "failed": len(failures),
        "records": records,
        "ok": not failures,
    }
    write_report(args.report, report)
    return 0 if not failures else 1


def cmd_pipeline(args) -> int:
    from .cohomology import SelmerStructure
    from .fixtures import DATA_DIR, load_shipped
    from .grouprep import coset_sign_character, trivial_character
    from .polarization import LatticeRep, PipelineError, theorem_main_pipeline

    name = args.fixture_name or "ribet_q7_d6"
    base = args.fixtures or os.environ.get(FIXTURES_ENV) or None
    head = {"command": "pipeline", "fixture": name, "class": None}

    try:
        fix = load_shipped(name, base)
    except Exception as exc:
        return refuse(args.report, head, f"fixture load failed: {exc}")
    missing = [r for r in ("lattice", "chi", "chi_inv") if r not in fix.reps]
    if missing:
        return refuse(args.report, head,
                      f"fixture {name!r} lacks the representations {', '.join(missing)}")
    mod2 = fix.rep("lattice").mod
    if args.flip_psi:
        psi = trivial_character(fix.group, "G", mod2)
    else:
        psi = coset_sign_character(fix.group, mod2)
    selmer = None
    selmer_path = args.selmer
    if selmer_path is None:  # NAME.selmer.json beside the fixtures, else shipped
        cands = [Path(d) / f"{name}.selmer.json" for d in (base, DATA_DIR) if d is not None]
        selmer_path = next((str(c) for c in cands if c.exists()), None)
    try:
        if selmer_path:
            selmer = SelmerStructure.from_json(json.loads(Path(selmer_path).read_text()))
        latt = LatticeRep(fix.rep("lattice"), fix.rep("chi"), fix.rep("chi_inv"))
        rep = theorem_main_pipeline(
            latt, psi, selmer=selmer, require_odd_psi=not args.flip_psi
        )
    except (OSError, ValueError, PipelineError) as exc:
        return refuse(args.report, head, str(exc))
    obj = {"command": "pipeline", "fixture": name, "ok": rep.eigenvalue_law_holds}
    obj.update(rep.to_json())
    write_report(args.report, obj)
    return 0 if rep.eigenvalue_law_holds else 1


def cmd_lfunc(args) -> int:
    from .lfunc import (
        asai_dirichlet,
        euler_factor,
        ingest_coeffs,
        is_prime,
        random_satake,
        verify_lambda2,
    )

    report = {"command": "lfunc", "seed": args.seed}
    if args.coeffs:
        N = 50 if args.N is None else args.N
        try:
            tbl = ingest_coeffs(args.coeffs)
            coeffs = asai_dirichlet(tbl, N)
        except (OSError, ValueError, KeyError) as exc:
            return refuse(args.report, {"command": "lfunc"},
                          exc.args[0] if isinstance(exc, KeyError) else str(exc))
        report["dirichlet"] = {"N": N, "coefficients": coeffs}
        report["ok"] = True
        write_report(args.report, report)
        return 0
    lo, hi = args.primes
    primes = [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]
    if not primes:
        return refuse(args.report, {"command": "lfunc"},
                      f"no prime in the range {lo}..{hi}")
    entries = []
    all_ok = True
    for p in primes:
        rng = np.random.default_rng((args.seed, p))
        sp = random_satake(rng, p=p)
        row = {"p": p, "split": sp.split,
               "factors": {tag: list(euler_factor(sp, tag).poly.coeffs)
                           for tag in ("ind", "asai+", "asai-", "lambda2", "std", "sim")}}
        if args.verify_lambda2:
            # at chi = 1 the identity's Lambda^2 side is the matrix factor,
            # which the reported closed form must equal
            ok, check = verify_lambda2(sp)
            ok = ok and check["lhs"] == row["factors"]["lambda2"]
            row["lambda2_ok"] = ok
            all_ok = all_ok and ok
        entries.append(row)
    report["primes"] = entries
    if args.verify_lambda2:
        report["lambda2_all_ok"] = all_ok
    report["ok"] = all_ok
    write_report(args.report, report)
    return 0 if all_ok else 1


def parse_primes(text):
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range A..B of integers, not {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: A > B")
    return lo, hi


def parse_seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, not {seed}")
    return seed


def build_parser():
    ap = argparse.ArgumentParser(
        prog="asai-kit",
        description="exact identity batteries for tensor-induced representations, "
        "Selmer-class pipelines, and Euler factors",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=parse_seed, default=0)
    common.add_argument("--report", help="write the JSON report to this path")

    v = sub.add_parser("verify-identities", parents=[common],
                       help="run the exact identity batteries")
    v.add_argument("--only", help="run a single battery by name")

    p = sub.add_parser("pipeline", parents=[common],
                       help="run the lattice-to-Selmer-class pipeline")
    p.add_argument("fixture_name", nargs="?", default=None)
    p.add_argument("--fixtures", help="read NAME.json from this fixture directory "
                   f"(default: ${FIXTURES_ENV}, else build the named fixture)")
    p.add_argument("--selmer", help="SelmerStructure JSON file")
    p.add_argument("--flip-psi", action="store_true",
                   help="rerun with the parity-flipped character")

    l = sub.add_parser("lfunc", parents=[common],
                       help="Euler factors and Dirichlet coefficients")
    source = l.add_mutually_exclusive_group(required=True)
    source.add_argument("--primes", type=parse_primes, metavar="A..B")
    source.add_argument("--coeffs", help="coefficient CSV (norm,label,coefficient)")
    l.add_argument("--N", type=int, help="with --coeffs: coefficients 1..N (default 50)")
    l.add_argument("--verify-lambda2", action="store_true",
                   help="with --primes: check the wedge-square identity")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "lfunc":
        # each source's own flag is a usage error with the other source
        if args.primes and args.N is not None:
            ap.error("lfunc: argument --N: not allowed with argument --primes")
        if args.coeffs and args.verify_lambda2:
            ap.error("lfunc: argument --verify-lambda2: not allowed with argument --coeffs")
    if args.command == "verify-identities":
        return cmd_verify_identities(args)
    if args.command == "pipeline":
        return cmd_pipeline(args)
    if args.command == "lfunc":
        return cmd_lfunc(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
