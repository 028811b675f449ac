"""The benchmark's three workloads.

A workload has a repeatable `setup` that builds its inputs from the seed,
`ops`, the operations of one round (the unit that is timed), and a
`check` that tests one round's outputs against properties the method must
have and against the oracles.  Checks run outside the timed section.

Operations run through asaikit's public functions (and its CLI entry
point, in process) exactly as a user of the package calls them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os

import numpy as np

# Names are looked up on their modules at call time, so that a traced run,
# which replaces them there, sees every call the benchmark makes.
from asaikit import cli, cohomology, fixtures, grouprep, lfunc, polarization

import oracles


class Op:
    """One attempted operation: `fn()` either returns an output or raises,
    and a raise counts the operation as failed."""

    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


def _cli(argv):
    """Run the CLI entry point; its per-record log lines go to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        return cli.main(argv)


def pipeline(*args, **kwargs):
    return polarization.theorem_main_pipeline(*args, **kwargs)


def _lattice(fix, rep=None):
    if rep is None:
        rep = fix.rep("lattice")
    return polarization.LatticeRep(rep, fix.rep("chi"), fix.rep("chi_inv"))


# ---------------------------------------------------------------------------
# ribet-ladder
# ---------------------------------------------------------------------------

# (q, chi(delta)) with chi_val^2 = -1 = alpha mod q, d = 4, precision 3:
# |G| = 8q.  At precision 3 the largest modulus is 101^3 ~ 1.03e6, so a 2x2
# product of residues stays below 2 * (1.03e6)^2 ~ 2.1e12 << 2^63.
RUNGS = {"full": [(13, 5), (37, 6), (101, 10)], "toy": [(13, 5)]}
DESCENTS = {"full": 4, "toy": 1}
PRECISION = 3


class RibetLadder:
    name = "ribet-ladder"

    def __init__(self, seed, size, work, plant):
        self.seed = seed
        self.rungs = RUNGS[size]
        self.descents = DESCENTS[size]
        self.work = work
        self.plant = plant
        self._refs = {}

    def setup(self):
        st = {"shipped": fixtures.load_shipped("ribet_q7_d6"),
              "split": fixtures.load_shipped("ribet_q7_d6_split"),
              "selmer": cohomology.SelmerStructure.from_json(json.loads(
                  (fixtures.DATA_DIR / "ribet_q7_d6.selmer.json").read_text())),
              "rungs": []}
        rng = np.random.default_rng(self.seed)
        for q, c in self.rungs:
            fix = fixtures.ribet_fixture(q, d=4, alpha=q - 1, chi_val=c, precision=PRECISION)
            g = fix.group
            mod = fix.rep("lattice").mod
            delta = tuple(h for h in g.H if g.elements[h][0] == 0)
            vsub = tuple(h for h in g.H if g.elements[h][1] == 0)
            conj = []
            while len(conj) < self.descents:
                u = [[int(x) for x in row] for row in rng.integers(0, mod, size=(2, 2))]
                uinv = oracles.invert_2x2_mod(u, mod)
                if uinv is None:
                    continue
                u = np.array(u, dtype=np.int64)
                imgs = np.stack([uinv @ m % mod @ u % mod
                                 for m in fix.rep("lattice").images])
                conj.append(grouprep.Rep(g, "G", imgs, mod, validate=False))
            st["rungs"].append({
                "q": q, "fix": fix, "mod": mod,
                "odd": grouprep.coset_sign_character(g, mod),
                "trivial": grouprep.trivial_character(g, "G", mod),
                "sel_delta": cohomology.SelmerStructure([(delta, "zero")]),
                "sel_v": cohomology.SelmerStructure([(vsub, "zero")]),
                "conj": conj,
            })
        return st

    def ops(self, st):
        ops = []
        shipped, split = st["shipped"], st["split"]
        mod7 = shipped.rep("lattice").mod
        ops.append(Op("shipped", lambda: pipeline(
            _lattice(shipped), grouprep.coset_sign_character(shipped.group, mod7),
            selmer=st["selmer"])))

        def refused_split():
            try:
                pipeline(_lattice(split), grouprep.coset_sign_character(split.group, mod7))
            except polarization.PipelineError as exc:
                return str(exc)
            return None

        ops.append(Op("split", refused_split))
        for r in st["rungs"]:
            fix = r["fix"]
            ops.append(Op(f"q{r['q']}-odd", lambda fix=fix, r=r: pipeline(
                _lattice(fix), r["odd"], selmer=r["sel_delta"])))
            ops.append(Op(f"q{r['q']}-trivial", lambda fix=fix, r=r: pipeline(
                _lattice(fix), r["trivial"], selmer=r["sel_v"], require_odd_psi=False)))
            for i, rep in enumerate(r["conj"]):
                ops.append(Op(f"q{r['q']}-descent{i}", lambda fix=fix, rep=rep:
                              polarization.ribet_lattice(_lattice(fix, rep))))
        report = self.work / "pipeline-c15.json"

        def c15():
            # expected: a canonical refusal report and exit code 1
            report.unlink(missing_ok=True)
            code = _cli(["pipeline", "c15_q31", "--report", str(report)])
            return code, json.loads(report.read_text())

        ops.append(Op("cli-pipeline-c15_q31", c15))
        return ops

    def _ref_class(self, r):
        if r["q"] not in self._refs:
            rr = polarization.ribet_lattice(_lattice(r["fix"]))
            self._refs[r["q"]] = rr.h1data.class_coords(rr.cocycle)
        return self._refs[r["q"]]

    def check(self, st, results):
        errs = []
        want_odd_eig = -1 if self.plant else 1

        def pipeline_ok(name, rep, eig, psi_ct, level, in_selmer):
            j = rep.to_json()
            if not (j["eigenvalue"] == eig == -psi_ct * j["sign"]
                    and j["eigenvalue_law_holds"] and j["lattice_level"] == level
                    and j["h1_dim"] == 1 and j["selmer_membership"] is in_selmer
                    and any(j["class_representative"])):
                errs.append(f"{name}: {j}")

        rungs = {f"q{r['q']}": r for r in st["rungs"]}
        for name, out in results.items():
            if name == "shipped":
                # precision 2 plants the class one step down; the shipped
                # Selmer file imposes "full" at V, which every class meets
                pipeline_ok(name, out, want_odd_eig, -1, 1, True)
            elif name == "split":
                if out is None or "split" not in out:
                    errs.append(f"split fixture not refused as split: {out!r}")
            elif name.startswith("cli-pipeline"):
                code, rep = out
                if code != 1 or rep.get("ok") is not False:
                    errs.append(f"{name}: exit {code}, report {rep}")
            else:
                tag, kind = name.split("-", 1)
                r = rungs[tag]
                if kind == "odd":
                    # H^1(C_d, -) = 0 for d prime to q: the class is Selmer at <delta>
                    pipeline_ok(name, out, want_odd_eig, -1, PRECISION - 1, True)
                elif kind == "trivial":
                    pipeline_ok(name, out, -1, 1, PRECISION - 1, False)
                else:
                    got = None if out.split else out.h1data.class_coords(out.cocycle)
                    if (got is None or out.level != PRECISION - 1
                            or not oracles.scalar_multiple_mod(got, self._ref_class(r), r["q"])):
                        errs.append(f"{name}: split={out.split} level={out.level} class={got}")
        return errs


# ---------------------------------------------------------------------------
# identity-batteries
# ---------------------------------------------------------------------------

# Records per battery that do not depend on the seed (all passing):
# lambda 7, explicit 2 per k in {2, 5}, selmerres 2, shapiro 2, euler 2.
FIXED_RECORDS = {"lambda": 7, "explicit": 4, "selmerres": 2, "shapiro": 2, "euler": 2}
PRASAD_CASES = 20


class IdentityBatteries:
    name = "identity-batteries"

    def __init__(self, seed, size, work, plant):
        self.seed = seed
        self.only = "selmerres" if size == "toy" else None
        self.work = work
        self.plant = plant
        self._brute = None

    def setup(self):
        # `verify-identities` without `--fixtures` builds every fixture it
        # uses inside the timed command, so set-up is the import alone
        return {}

    def ops(self, st):
        report = self.work / "verify-identities.json"
        rounds = itertools.count()

        def run():
            # round i runs CLI seed 1000 * seed + i, so that a run's median
            # spans several battery mixes rather than one
            argv = ["verify-identities", "--seed", str(1000 * self.seed + next(rounds)),
                    "--report", str(report)]
            if self.only:
                argv += ["--only", self.only]
            report.unlink(missing_ok=True)
            code = _cli(argv)
            return code, json.loads(report.read_text())

        return [Op("cli-verify-identities", run)]

    def _brute_dims(self, st):
        """[dim H^1(H), dim H^1(G), dim H^1(G, - x sgn)] of the ribet-q7
        tensor module, counted by brute force."""
        if self._brute is None:
            # the oracle's input, loaded outside every timed section
            rib = fixtures.load_shipped("ribet_q7_d6")
            amb = cohomology.as_twisted_module(
                rib.rep("chi"), grouprep.coset_sign_character(rib.group, 7))
            g = rib.group
            h_pos = [amb.pos[h] for h in g.H]
            signs = np.array([1 if e in g.H_set else -1 for e in amb.elements])
            self._brute = [
                oracles.h1_dim_brute_force(g.mul, g.H, amb.images[h_pos], 7),
                oracles.h1_dim_brute_force(g.mul, amb.elements, amb.images, 7),
                oracles.h1_dim_brute_force(
                    g.mul, amb.elements, amb.images * signs[:, None, None] % 7, 7),
            ]
        return self._brute

    def _expected_total(self, cli_seed, records):
        if self.only:
            return FIXED_RECORDS[self.only]
        prasad = [r for r in records if r["battery"] == "prasad"]
        cases = [r["case"][: -len(" multiplicative")] for r in prasad
                 if r["case"].endswith(" multiplicative")]
        # character cases add the transfer record, dim-2 cases do not
        per_case = sum(3 if " dim2 " in c else 4 for c in cases)
        if len(cases) != PRASAD_CASES:
            return None
        # the first case is drawn before any other use of the seeded rng
        first = fixtures.random_battery_case(np.random.default_rng(cli_seed))[4]
        if cases[0] != first:
            return None
        return per_case + sum(FIXED_RECORDS.values())

    def check(self, st, results):
        errs = []
        if "cli-verify-identities" not in results:
            return errs  # the operation failed and is counted as such
        code, rep = results["cli-verify-identities"]
        records = rep.get("records", [])
        if code != 0 or not rep.get("ok") or rep.get("failed") != 0:
            errs.append(f"verify-identities exit {code}, failed={rep.get('failed')}")
        bad = [r["case"] for r in records if not r["passed"]]
        if bad:
            errs.append(f"failing records: {bad}")
        want = self._expected_total(rep.get("seed"), records)
        if self.plant and want is not None:
            want += 1
        if want is None or rep.get("total") != want or len(records) != want:
            errs.append(f"total {rep.get('total')} != expected {want}")
        dims = [r.get("dims") for r in records
                if r["battery"] == "selmerres" and r["case"] == "ribet-q7 tensor module"]
        if dims != [self._brute_dims(st)]:
            errs.append(f"selmerres ribet-q7 dims {dims} != brute force {self._brute_dims(st)}")
        return errs


# ---------------------------------------------------------------------------
# euler-dirichlet
# ---------------------------------------------------------------------------

TAGS = ("ind", "asai+", "asai-", "lambda2", "std", "sim")
PARAMS = {"full": 400, "toy": 30}
N_COEFFS = {"full": 2000, "toy": 100}
SAMPLE = 32


def first_primes(count):
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


class EulerDirichlet:
    name = "euler-dirichlet"

    def __init__(self, seed, size, work, plant):
        self.seed = seed
        self.count = PARAMS[size]
        self.N = N_COEFFS[size]
        self.work = work
        self.plant = plant

    def setup(self):
        # one parameter at each of the first `count` primes, alternately
        # split and inert; those at p <= N define the coefficient table
        rng = np.random.default_rng(self.seed)
        params = [lfunc.random_satake(rng, p=p, split=i % 2 == 0)
                  for i, p in enumerate(first_primes(self.count))]
        by_prime = {sp.p: sp for sp in params if sp.p <= self.N}
        tbl = lfunc.synthetic_table(by_prime, self.N)
        csv = self.work / "coefficients.csv"
        csv.write_text("norm,label,coefficient\n" + "".join(
            f"{n},{label},{c}\n" for n, label, c in tbl.to_rows()))
        sample = sorted(np.random.default_rng([self.seed, 1]).choice(
            len(params), size=min(SAMPLE, len(params)), replace=False).tolist())
        return {"params": params, "by_prime": by_prime, "csv": csv, "sample": sample}

    def ops(self, st):
        def factors(sp):
            facs = {tag: lfunc.euler_factor(sp, tag).coefficients() for tag in TAGS}
            return (facs, lfunc.verify_lambda2(sp, 1)[0],
                    lfunc.verify_std_decomposition(sp)[0])

        def series():
            tbl = lfunc.ingest_coeffs(st["csv"])
            return (lfunc.asai_dirichlet(tbl, self.N),
                    lfunc.euler_product_coefficients(st["by_prime"], self.N))

        ops = [Op(f"param{i}", lambda sp=sp: factors(sp))
               for i, sp in enumerate(st["params"])]
        ops.append(Op("series", series))
        return ops

    def check(self, st, results):
        # outputs of failed operations are absent and counted as failed
        errs = []
        for i, sp in enumerate(st["params"]):
            if f"param{i}" not in results:
                continue
            _, lam_ok, std_ok = results[f"param{i}"]
            if not (lam_ok and std_ok):
                errs.append(f"param{i} (p={sp.p}): lambda2 {lam_ok}, std {std_ok}")
        for i in st["sample"]:
            sp = st["params"][i]
            if f"param{i}" not in results:
                continue
            facs = results[f"param{i}"][0]
            ind = None
            for tag in TAGS:
                m = lfunc.frobenius_matrix(sp, tag)
                want = oracles.reciprocal_charpoly(m)
                if self.plant and i == st["sample"][0] and tag == "std":
                    want = want[:-1] + [want[-1] + 1]
                if list(facs[tag]) != want:
                    errs.append(f"param{i} {tag}: {facs[tag]} != {want}")
                if tag == "ind":
                    ind = want
            # det(I - ind X) factors through the two blocks at a split prime
            if sp.split and ind != oracles.poly_mul(
                    oracles.reciprocal_charpoly(sp.a), oracles.reciprocal_charpoly(sp.b)):
                errs.append(f"param{i}: ind factor is not the product of its blocks")
            # the wedge-square identity, recomputed from the oracle
            lhs = oracles.reciprocal_charpoly(lfunc.frobenius_matrix(sp, "lambda2"))
            rhs = oracles.poly_mul(
                oracles.poly_mul([1, -1], [1, -1 if sp.split else 1]),
                oracles.reciprocal_charpoly(lfunc.frobenius_matrix(sp, "asai-")))
            if lhs != rhs:
                errs.append(f"param{i}: oracle lambda2 identity fails")
        if "series" not in results:
            return errs
        dirichlet, euler = results["series"]
        if len(dirichlet) != self.N or dirichlet != euler or dirichlet[0] != 1:
            first = next((m + 1 for m, (a, b) in enumerate(zip(dirichlet, euler)) if a != b),
                         None)
            errs.append(f"Dirichlet and Euler-product coefficients differ (first at m={first})")
        return errs


WORKLOADS = {w.name: w for w in (RibetLadder, IdentityBatteries, EulerDirichlet)}
