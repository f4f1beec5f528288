"""One measured pass of a perfbench workload, run in a fresh Python process.

    python3 perfbench/probe.py SPEC_JSON OUT_JSON

SPEC_JSON holds ``root`` (the checkout root), ``argv`` (ellipcenter-bench
arguments), ``mode`` (``plain`` or ``span``), ``epsilon`` and
``f_tolerance``.  The pass calls ``ellipcenter.cli.main(argv)`` once,
in this process, and writes what it measured to OUT_JSON.

Both modes count operator matvecs with a counting wrapper (an integer
increment, no clock), so the determinism gate can compare matvec counts per
cell.  The plain mode times only the top-level calls: ``cli.main`` itself,
instance construction (``generate``, ``load_problem``), each solver call and
``emit_report``.  The span mode also records spans around ``run_benchmark``,
``me_iterate``, ``wolfe_search``, ``write_trace_csv`` and every matvec; it
feeds the per-layer metrics only.

Names are patched where the calling module looks them up: ``bench`` imported
the solvers, ``generate``, ``load_problem`` and ``write_trace_csv`` into its
own namespace, ``cli`` imported ``run_benchmark`` and ``emit_report``,
``me_solve`` finds ``me_iterate`` in ``solver`` and ``bb_solve`` finds
``wolfe_search`` in ``baselines``.  Operators are patched on their classes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import weakref
from array import array

import numpy as np

# Solver functions as ellipcenter.bench names them, with the method they run.
SOLVER_NAMES = {
    "me_solve": "me",
    "gradient_optimal_step_solve": "grad",
    "fast_gradient_solve": "fast",
    "cg_solve": "cg",
    "gradient_wolfe_solve": "grad-wolfe",
}

# Bytes one matvec reads and writes at least, by operator class: a diagonal
# product reads d and v and writes the result; the rank-one form reads v and x
# for the dot product, then v and x again and writes the result.
MATVEC_BYTES = {
    "DiagonalOperator": lambda n: 24 * n,
    "RankOneOperator": lambda n: 40 * n,
    "DenseOperator": lambda n: 8 * n * n + 16 * n,
}


class Recorder:
    """Spans kept in flat arrays: name id, parent index, start and end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def spanned(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return spanned

    def duration(self, idx):
        return self.end[idx] - self.start[idx]

    def totals(self):
        """Per span name: call count, total seconds and self seconds (the
        span's time minus the time of its child spans)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }


def minimum(problem):
    """Closed-form minimum value f* = c - b.x*/2 with A x* = b.

    Diagonal: x* = b/diag.  Rank one, v v^T + sigma I: Sherman-Morrison.
    Anything else: theory.reference_minimum.
    """
    from ellipcenter.quadratic import DiagonalOperator, RankOneOperator
    from ellipcenter.theory import reference_minimum

    op = problem.A
    b = problem.b
    if isinstance(op, DiagonalOperator):
        x_star = b / op.diag
    elif isinstance(op, RankOneOperator):
        v, sigma = op.v, op.sigma
        x_star = b / sigma - (float(v @ b) / (sigma * (sigma + float(v @ v)))) * v
    else:
        x_star = reference_minimum(problem)[0]
    return problem.c - 0.5 * float(np.dot(b, x_star))


class Probe:
    """Patches ellipcenter for one pass and collects what the pass did."""

    def __init__(self, mode):
        import ellipcenter.baselines as baselines
        import ellipcenter.bench as bench
        import ellipcenter.cli as cli
        import ellipcenter.quadratic as quadratic
        import ellipcenter.solver as solver

        self.mode = mode
        self.rec = Recorder()
        self.matvecs = 0
        self.matvec_bytes = 0
        self.midpoint_steps = 0
        self.trace_rows = 0
        self.trace_bytes = 0
        self.instances = []
        self.cells = []
        self._saved = []
        self._midpoint = solver.Branch.MIDPOINT

        self._patch(bench, "generate", self._build(bench.generate, "generators.generate", "spec"))
        self._patch(
            bench, "load_problem",
            self._build(bench.load_problem, "generators.load_problem", "path"),
        )
        for fname, method in SOLVER_NAMES.items():
            self._patch(bench, fname, self._solve(getattr(bench, fname), lambda a, k, m=method: m))
        self._patch(bench, "bb_solve", self._solve(bench.bb_solve, _bb_method))
        self._patch(cli, "emit_report", self.rec.wrap("bench.emit_report", cli.emit_report))
        for cls in (quadratic.DiagonalOperator, quadratic.RankOneOperator, quadratic.DenseOperator):
            self._patch(cls, "matvec", self._matvec(cls.matvec, MATVEC_BYTES[cls.__name__]))
        if mode == "span":
            self._patch(cli, "run_benchmark", self.rec.wrap("bench.run_benchmark", cli.run_benchmark))
            self._patch(bench, "write_trace_csv", self._write_trace(bench.write_trace_csv))
            self._patch(solver, "me_iterate", self._me_iterate(solver.me_iterate))
            self._patch(
                baselines, "wolfe_search",
                self.rec.wrap("baselines.wolfe_search", baselines.wolfe_search),
            )

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def instance_of(self, problem):
        return next(i for i, inst in enumerate(self.instances) if inst["ref"]() is problem)

    def _build(self, fn, span, kind):
        def build(arg):
            idx = self.rec.open(span)
            try:
                problem = fn(arg)
            finally:
                self.rec.close(idx)
            # Keep the recipe, the oracle's value and a weak reference only,
            # so no instance outlives its use in run_benchmark.
            self.instances.append(
                {"kind": kind, "arg": arg, "f_star": minimum(problem),
                 "ref": weakref.ref(problem), "span": idx}
            )
            return problem

        return build

    def _solve(self, fn, method_of):
        def solve(problem, x1, *args, **kwargs):
            cell = {
                "method": method_of(args, kwargs),
                "instance": self.instance_of(problem),
                "n": problem.dim,
                "call": (fn, args, kwargs),
                "iterations": None,
                "f_final": None,
                "terminated_by": "error",
            }
            before = self.matvecs
            cell["span"] = self.rec.open("solve." + cell["method"])
            try:
                result = fn(problem, x1, *args, **kwargs)
            finally:
                self.rec.close(cell["span"])
                cell["matvecs"] = self.matvecs - before
                self.cells.append(cell)
            cell.update(
                iterations=result.iterations,
                f_final=result.f_final,
                terminated_by=result.terminated_by.value,
            )
            return result

        return solve

    def _matvec(self, fn, nbytes):
        if self.mode == "plain":
            def matvec(op, v):
                self.matvecs += 1
                return fn(op, v)

            return matvec

        rec = self.rec

        def matvec(op, v):
            self.matvecs += 1
            self.matvec_bytes += nbytes(op.dim)
            idx = rec.open("quadratic.matvec")
            try:
                return fn(op, v)
            finally:
                rec.close(idx)

        return matvec

    def _me_iterate(self, fn):
        rec = self.rec

        def me_iterate(*args, **kwargs):
            idx = rec.open("solver.me_iterate")
            try:
                record = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if record.branch is self._midpoint:
                self.midpoint_steps += 1
            return record

        return me_iterate

    def _write_trace(self, fn):
        def write_trace_csv(path, trace):
            idx = self.rec.open("bench.write_trace_csv")
            try:
                fn(path, trace)
            finally:
                self.rec.close(idx)
            self.trace_rows += len(trace)
            self.trace_bytes += os.path.getsize(path)

        return write_trace_csv


def _bb_method(args, kwargs):
    variant = kwargs["variant"] if "variant" in kwargs else args[0]
    return "bb-short" if variant.short_steps else "bb-long"


def _rebuild(inst):
    from ellipcenter.generators import generate, load_problem

    return generate(inst["arg"]) if inst["kind"] == "spec" else load_problem(inst["arg"])


def _check_cells(probe, f_tolerance):
    """Mark each cell ok or give the reasons it failed.  A failed cell is run
    once more through its public solver function, outside timing, to record
    the exception text or the outcome."""
    out = []
    for cell in probe.cells:
        f_star = probe.instances[cell["instance"]]["f_star"]
        row = {k: cell[k] for k in ("method", "instance", "n", "iterations", "f_final",
                                     "terminated_by", "matvecs")}
        row["wall_s"] = probe.rec.duration(cell["span"])
        reasons = []
        if cell["terminated_by"] != "gradient_tolerance":
            reasons.append(f"terminated by {cell['terminated_by']}")
        elif not abs(cell["f_final"] - f_star) <= f_tolerance * abs(f_star):
            reasons.append(f"f_final {cell['f_final']!r} vs closed-form minimum {f_star!r}")
        if reasons:
            fn, args, kwargs = cell["call"]
            problem = _rebuild(probe.instances[cell["instance"]])
            try:
                again = fn(problem, np.zeros(problem.dim), *args, **kwargs)
                reasons.append(f"re-run: {again.terminated_by.value}, f_final {again.f_final!r}")
            except Exception as exc:  # the text run_benchmark drops
                reasons.append(f"re-run raised {type(exc).__name__}: {exc}")
        row["reason"] = "; ".join(reasons)
        out.append(row)
    return out


def _me_iterate_us(probe, epsilon):
    """One unwrapped me_iterate call on the first instance at x = 0: the
    minimum over repeats, in microseconds."""
    from ellipcenter.solver import SolveOptions, me_iterate

    problem = _rebuild(probe.instances[0])
    x = np.zeros(problem.dim)
    options = SolveOptions(epsilon=epsilon)
    threshold = options.gradient_threshold(float(np.linalg.norm(problem.gradient(x))))
    best = math.inf
    spent = 0.0
    reps = 0
    while reps < 5 or (spent < 0.3 and reps < 2000):
        t0 = time.perf_counter()
        me_iterate(problem, x, options, grad_tolerance=threshold)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        reps += 1
    return best * 1e6


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import ellipcenter.cli as cli

    probe = Probe(spec["mode"])
    try:
        cpu0 = time.process_time()
        top = probe.rec.open("cli.main")
        try:
            code = cli.main(spec["argv"])
        finally:
            probe.rec.close(top)
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.restore()

    setup_s = sum(probe.rec.duration(inst["span"]) for inst in probe.instances)
    out = {
        "exit_code": code,
        "wall_s": probe.rec.duration(top),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "solve_s": sum(probe.rec.duration(c["span"]) for c in probe.cells),
        "cells": _check_cells(probe, spec["f_tolerance"]),
    }
    if spec["mode"] == "span":
        out.update(
            spans=probe.rec.totals(),
            matvec_bytes=probe.matvec_bytes,
            midpoint_steps=probe.midpoint_steps,
            trace_rows=probe.trace_rows,
            trace_bytes=probe.trace_bytes,
            load_bytes=sum(
                os.path.getsize(i["arg"]) for i in probe.instances if i["kind"] == "path"
            ),
            draws=sum(
                2 * i["arg"].n - (2 if i["arg"].family.value == "diag" else 0)
                for i in probe.instances if i["kind"] == "spec"
            ),
            me_iterate_us=_me_iterate_us(probe, spec["epsilon"]),
        )
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
