"""Span tracing of asaikit's public functions from outside the package.

`Tracer.install()` wraps each function or method named in `SPECS` in a
span and `Tracer.uninstall()` puts the originals back, so an untraced
round runs the unmodified program.  asaikit imports names with
`from .x import y`, so a module-level function is replaced under every
name any asaikit module (or a registry dict in one, such as
`batteries.BATTERIES`) binds it to.

A span records its name, start, end and parent.  Spans stay in memory;
`layer_metrics` reduces them to the per-layer figures and `dump` writes
them out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "info")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.info = None


def _module_hash(module):
    h = hashlib.sha1()
    h.update(repr((module.elements, module.mod, module.images.shape)).encode())
    h.update(module.images.tobytes())
    return h.hexdigest()


def _fixture_key(fixture):
    return json.dumps([fixture.name, fixture.meta], sort_keys=True, default=str)


# Extra facts recorded on a span from (args, result).  Each returns a dict.
def _h1_info(args, result):
    data = args[0]  # H1Data.__init__(self, module)
    m = data.module
    return {"rows": len(m.elements) * len(data.gens) * m.dim, "key": _module_hash(m)}


def _cells_info(args, result):
    shape = np.shape(args[0])
    return {"cells": int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0}


def _found_info(args, result):
    return {"found": result is not None}


def _level_info(args, result):
    return {"levels": int(result.level)}


def _fixture_info(args, result):
    return {"key": _fixture_key(result)}


# (span name, module, attribute, info function).  An attribute written
# "Class.method" wraps the method on the class itself.
SPECS = [
    ("grouprep.group_validate", "asaikit.grouprep", "FiniteGroup.validate", None),
    ("grouprep.rep_validate", "asaikit.grouprep", "Rep.validate", None),
    ("grouprep.generators", "asaikit.grouprep", "FiniteGroup.generators", None),
    ("grouprep.intertwiner_space", "asaikit.grouprep", "intertwiner_space", None),
    ("grouprep.tensor_induce", "asaikit.grouprep", "tensor_induce", None),
    ("grouprep.contains_invertible", "asaikit.grouprep", "contains_invertible", _found_info),
    ("fixtures.table_build", "asaikit.fixtures", "group_from_labels", None),
    ("fixtures.load", "asaikit.fixtures", "Fixture.load", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "s3_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "f20_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "m40_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "c15_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "ribet_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "ribet_v0_fixture", _fixture_info),
    ("fixtures.build", "asaikit.fixtures", "coh294_fixture", _fixture_info),
    ("cohomology.h1", "asaikit.cohomology", "H1Data.__init__", _h1_info),
    ("cohomology.cocycle_validate", "asaikit.cohomology", "Cocycle.validate", None),
    ("cohomology.class_coords", "asaikit.cohomology", "H1Data.class_coords", None),
    ("cohomology.conj_action", "asaikit.cohomology", "conj_action", None),
    ("cohomology.selmer_subgroup", "asaikit.cohomology", "selmer_subgroup", None),
    ("cohomology.shapiro", "asaikit.cohomology", "shapiro", None),
    ("polarization.lattice_init", "asaikit.polarization", "LatticeRep.__init__", None),
    ("polarization.ribet_lattice", "asaikit.polarization", "ribet_lattice", _level_info),
    ("polarization.polarize", "asaikit.polarization", "polarize", None),
    ("polarization.pipeline", "asaikit.polarization", "theorem_main_pipeline", None),
    ("exactalg.solve_mod", "asaikit.exactalg", "solve_mod", _cells_info),
    ("exactalg.rref_mod", "asaikit.exactalg", "rref_mod", _cells_info),
    ("exactalg.factor_prime_power", "asaikit.exactalg", "factor_prime_power", None),
    ("exactalg.mat_det", "asaikit.exactalg", "Mat.det", None),
    ("exactalg.mat_det", "asaikit.exactalg", "Mat.is_invertible", None),
    ("exactalg.mat_inverse", "asaikit.exactalg", "Mat.inverse", None),
    ("lfunc.charpoly", "asaikit.lfunc", "charpoly_reciprocal", None),
    ("lfunc.frobenius_matrix", "asaikit.lfunc", "frobenius_matrix", None),
    ("lfunc.std_map", "asaikit.lfunc", "std_map", None),
    ("lfunc.verify_lambda2", "asaikit.lfunc", "verify_lambda2", None),
    ("lfunc.verify_std", "asaikit.lfunc", "verify_std_decomposition", None),
    ("lfunc.ingest_coeffs", "asaikit.lfunc", "ingest_coeffs", None),
    ("lfunc.dirichlet", "asaikit.lfunc", "asai_dirichlet", None),
    ("batteries.prasad", "asaikit.batteries", "prasad_battery", None),
    ("batteries.lambda", "asaikit.batteries", "lambda_battery", None),
    ("batteries.explicit", "asaikit.batteries", "explicit_battery", None),
    ("batteries.selmerres", "asaikit.batteries", "selmerres_battery", None),
    ("batteries.shapiro", "asaikit.batteries", "shapiro_battery", None),
    ("batteries.euler", "asaikit.batteries", "euler_battery", None),
    ("cli.report", "asaikit.cli", "write_report", None),
]

# The per-layer metrics, in the order BENCHMARK.json lists them:
# (metric name, unit, better).
_SELF = [
    "grouprep.group_validate", "grouprep.rep_validate", "grouprep.generators",
    "grouprep.intertwiner_space", "grouprep.tensor_induce",
    "grouprep.contains_invertible",
]
LAYER_METRICS = []
for _n in _SELF:
    LAYER_METRICS += [(f"{_n}.self_s", "s", "lower"), (f"{_n}.calls", "count", "lower")]
LAYER_METRICS += [
    ("grouprep.contains_invertible.found_ratio", "ratio", "higher"),
    ("fixtures.table_build.self_s", "s", "lower"),
    ("fixtures.load.self_s", "s", "lower"),
    ("fixtures.builds", "count", "lower"),
    ("fixtures.distinct_ratio", "ratio", "higher"),
    ("cohomology.h1.self_s", "s", "lower"),
    ("cohomology.h1.calls", "count", "lower"),
    ("cohomology.h1.rows", "count", "lower"),
    ("cohomology.h1.distinct_ratio", "ratio", "higher"),
    ("cohomology.cocycle_validate.self_s", "s", "lower"),
    ("cohomology.class_coords.self_s", "s", "lower"),
    ("cohomology.conj_action.self_s", "s", "lower"),
    ("cohomology.selmer_subgroup.self_s", "s", "lower"),
    ("cohomology.shapiro.self_s", "s", "lower"),
    ("polarization.lattice_init.self_s", "s", "lower"),
    ("polarization.ribet_lattice.self_s", "s", "lower"),
    ("polarization.ribet_lattice.calls", "count", "lower"),
    ("polarization.descent_levels", "count", "lower"),
    ("polarization.polarize.self_s", "s", "lower"),
    ("polarization.pipeline.self_s", "s", "lower"),
    ("polarization.pipeline.calls", "count", "lower"),
    ("exactalg.solve_mod.self_s", "s", "lower"),
    ("exactalg.solve_mod.calls", "count", "lower"),
    ("exactalg.solve_mod.cells", "count", "lower"),
    ("exactalg.rref_mod.self_s", "s", "lower"),
    ("exactalg.rref_mod.calls", "count", "lower"),
    ("exactalg.rref_mod.cells", "count", "lower"),
    ("exactalg.factor_prime_power.self_s", "s", "lower"),
    ("exactalg.factor_prime_power.calls", "count", "lower"),
    ("exactalg.mat_det.self_s", "s", "lower"),
    ("exactalg.mat_inverse.self_s", "s", "lower"),
    ("lfunc.charpoly.self_s", "s", "lower"),
    ("lfunc.charpoly.calls", "count", "lower"),
    ("lfunc.frobenius_matrix.self_s", "s", "lower"),
    ("lfunc.std_map.self_s", "s", "lower"),
    ("lfunc.verify_lambda2.self_s", "s", "lower"),
    ("lfunc.verify_std.self_s", "s", "lower"),
    ("lfunc.ingest_coeffs.self_s", "s", "lower"),
    ("lfunc.dirichlet.self_s", "s", "lower"),
    ("batteries.prasad.s", "s", "lower"),
    ("batteries.lambda.s", "s", "lower"),
    ("batteries.explicit.s", "s", "lower"),
    ("batteries.selmerres.s", "s", "lower"),
    ("batteries.shapiro.s", "s", "lower"),
    ("batteries.euler.s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


_FIXTURE_SPANS = ("fixtures.build", "fixtures.load")


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, func, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.phase)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        packages = [m for k, m in sys.modules.items()
                    if k == "asaikit" or k.startswith("asaikit.")]
        for name, modname, attr, info in SPECS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, info))
                else:
                    new = self._wrap(name, raw, info)
                self._saved.append((cls, meth, raw, False))
                setattr(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig, info)
            for mod in packages:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig, False))
                        setattr(mod, key, new)
                    elif isinstance(val, dict):
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                self._saved.append((val, dk, orig, True))
                                val[dk] = new

    def uninstall(self):
        for owner, key, orig, is_dict in reversed(self._saved):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._saved.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the union of its children's intervals.

        Children are not clipped to their parent, so a child that overran
        its parent (a tracer fault) makes the parent's self time negative."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(i, ())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((s.end - s.start) - covered)
        return out

    def _inside(self, span, names):
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer figures: the traced setup once plus the mean of one
        traced round.  Spans of traced round k carry phase "round<k>", of
        the setup "setup"; `rounds` traced rounds were run.  A ratio of
        distinct items is taken within each phase, since rounds repeat the
        same work on purpose."""
        selfs = self.self_times()
        if any(t < 0 for t in selfs):
            raise AssertionError("a span has negative self time")
        for s in self.spans:
            p = self.spans[s.parent] if s.parent >= 0 else s
            if s.start < p.start or s.end > p.end:
                raise AssertionError(f"span {s.name} lies outside its parent {p.name}")
        setup: dict[str, float] = {}
        solve: dict[str, float] = {}
        distinct: dict[tuple[str, str], set] = {}

        def add(acc, key, v):
            acc[key] = acc.get(key, 0) + v

        for i, s in enumerate(self.spans):
            acc = setup if s.phase == "setup" else solve
            name = s.name
            # a call that raised carries no info and adds only its time
            info = s.info or {}
            if "key" in info and name in _FIXTURE_SPANS \
                    and not self._inside(s, _FIXTURE_SPANS):
                # a fixture counts once, at the outermost span that made it
                add(acc, "fixtures.builds", 1)
                distinct.setdefault(("fixtures", s.phase), set()).add(info["key"])
            add(acc, f"{name}.self_s", selfs[i])
            add(acc, f"{name}.s", s.end - s.start)
            add(acc, f"{name}.calls", 1)
            if "cells" in info:
                add(acc, f"{name}.cells", info["cells"])
            if "found" in info:
                add(acc, "found", int(info["found"]))
            if "rows" in info:
                add(acc, "cohomology.h1.rows", info["rows"])
                distinct.setdefault(("h1", s.phase), set()).add(info["key"])
            if "levels" in info:
                add(acc, "polarization.descent_levels", info["levels"])
        for (kind, phase), keys in distinct.items():
            acc = setup if phase == "setup" else solve
            add(acc, f"distinct.{kind}", len(keys))

        def value(key):
            return setup.get(key, 0) + solve.get(key, 0) / max(1, rounds)

        def ratio(useful, attempts):
            # a ratio with no attempts wasted nothing: it reads 1
            return value(useful) / value(attempts) if value(attempts) else 1.0

        out = {name: value(name) for name, _, _ in LAYER_METRICS}
        out["cli.report_s"] = value("cli.report.s")
        out["grouprep.contains_invertible.found_ratio"] = ratio(
            "found", "grouprep.contains_invertible.calls")
        out["fixtures.distinct_ratio"] = ratio("distinct.fixtures", "fixtures.builds")
        out["cohomology.h1.distinct_ratio"] = ratio("distinct.h1", "cohomology.h1.calls")
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": out[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    def dump(self, path):
        """Write every span as one JSON line (times in seconds)."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "phase": s.phase,
                    "start": s.start, "end": s.end, "self_s": selfs[i],
                    "info": {k: v for k, v in (s.info or {}).items() if k != "key"},
                }) + "\n")


if __name__ == "__main__":
    # the "per_layer" list of BENCHMARK.json
    print(json.dumps([{"name": n, "unit": u, "better": b} for n, u, b in LAYER_METRICS],
                     indent=2))
