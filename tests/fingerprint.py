"""Every solver's results on a fixed grid, as pinned in ``data/fingerprint.json``.

    PYTHONPATH=src python tests/fingerprint.py

rewrites that file from the package on the path; ``test_fingerprint.py``
compares a fresh run with it.  A change that means to change results
regenerates the file and names the cells that changed.

The grid is every ``bench.METHODS`` entry on nine instances: the diag family
at n = 64, seeds 1-3, at n = 500 and 10^4, seed 1, and the rank-one
``dense`` family at n = 40, 100 and 400, seed 7, and at n = 1,000, seed 1.
Each cell starts from x1 = 0 with the default options, capped at 2,000
steps, once without an observer and once with one.  A cell records its
iterations, ``terminated_by``, the bits of ``f_final`` and
``grad_norm_final``, SHA-256 digests of ``x_final``'s bytes and, when
observed, of every ``StepRecord`` field in order, and the matvecs it made;
a cell that raises records the exception's text and its matvecs instead.

Three CLI runs, each in its own scratch directory and under ``--max-iters
2000``, record their exit code and the digests of every trace CSV, of the
``.instances.jsonl`` sidecar and of the report without its ``cpu_s`` column:

    --instance diag --n 64 --seed 1 --methods me,fast,bb-long,bb-short,cg
    --instance dense --n 40,100,400 --seed 7
    --instance file:P

P is the rank-one instance at n = 1,000, seed 1, with c = 2.5, written by
``save_problem``.  The file also records the environment that sets the
rounding of a BLAS kernel (numpy, its BLAS and the CPU features numpy found)
and the commit it was written at.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import io
import json
import os
import subprocess
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

from conftest import CountingOperator, scratch

from ellipcenter.bench import METHODS
from ellipcenter.cli import main as cli_main
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate, save_problem
from ellipcenter.quadratic import QuadraticProblem
from ellipcenter.solver import SolveOptions

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tests" / "data" / "fingerprint.json"
MAX_ITERATIONS = 2_000
# (family, n, seed)
INSTANCES = [
    ("diag", 64, 1), ("diag", 64, 2), ("diag", 64, 3), ("diag", 500, 1), ("diag", 10_000, 1),
    ("dense", 40, 7), ("dense", 100, 7), ("dense", 400, 7), ("dense", 1_000, 1),
]
# Grid name -> CLI arguments; "{problem}" is the file grid's problem file.
CLI_GRIDS = {
    "diag": ["--instance", "diag", "--n", "64", "--seed", "1",
             "--methods", "me,fast,bb-long,bb-short,cg"],
    "dense": ["--instance", "dense", "--n", "40,100,400", "--seed", "7"],
    "file": ["--instance", "file:{problem}"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _field_text(value) -> str:
    if value is None:
        return ""
    return value.value if hasattr(value, "value") else float(value).hex()


def cell(problem, method, traced):
    """One solve of ``method`` on ``problem`` from x1 = 0, as the grid records it."""
    op = CountingOperator(problem.A)
    stream = hashlib.sha256()
    observer = None
    if traced:
        def observer(x, g, record):
            stream.update((",".join(map(_field_text, record)) + "\n").encode())
    options = SolveOptions(max_iterations=MAX_ITERATIONS, observer=observer)
    try:
        r = METHODS[method](QuadraticProblem(op, problem.b, problem.c), np.zeros(problem.dim),
                            options)
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}", "matvecs": op.calls}
    out = {
        "iterations": r.iterations,
        "terminated_by": r.terminated_by.value,
        "f_final": float(r.f_final).hex(),
        "grad_norm_final": float(r.grad_norm_final).hex(),
        "x_final": _digest(np.ascontiguousarray(r.x_final).tobytes()),
        "matvecs": op.calls,
    }
    if traced:
        out["records"] = stream.hexdigest()
    return out


def cells():
    out = {}
    for family, n, seed in INSTANCES:
        problem = generate(InstanceSpec(InstanceFamily(family), n, seed))
        for method in METHODS:
            for traced in (False, True):
                key = f"{method} {family} n={n} seed={seed} {'traced' if traced else 'untraced'}"
                out[key] = cell(problem, method, traced)
    return out


def cli_grid(args):
    """Run the CLI on ``args`` in a new scratch directory: its exit code and
    the digest of each file it wrote, the report without its cpu_s column."""
    with scratch() as work:
        problem = work / "rank1_1000.txt"
        if any("{problem}" in a for a in args):
            p = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 1_000, 1))
            save_problem(QuadraticProblem(p.A, p.b, 2.5), problem)
        traces, report = work / "traces", work / "report.csv"
        argv = [a.format(problem=problem) for a in args]
        argv += ["--max-iters", str(MAX_ITERATIONS), "--trace-dir", str(traces),
                 "--out", str(report)]
        with redirect_stderr(io.StringIO()):  # capped cells are not errors worth showing
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        out = {"exit_code": code}
        for trace in sorted(traces.iterdir()):
            out[trace.name] = _digest(trace.read_bytes())
        out["report.csv.instances.jsonl"] = _digest(
            Path(f"{report}.instances.jsonl").read_bytes())
        rows = [line.split(",") for line in report.read_text().splitlines()]
        drop = rows[0].index("cpu_s")
        out["report.csv without cpu_s"] = _digest(
            "\n".join(",".join(row[:drop] + row[drop + 1:]) for row in rows).encode())
    return out


def _blas():
    # Found as perfbench/run.py finds its BLAS: name and version from numpy's
    # build configuration, the core OpenBLAS chose from the library itself.
    info = {"name": None, "version": None, "core": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                info["core"] = fn().decode()
                return info
    return info


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, found in __cpu_features__.items() if found)


def environment():
    return {"numpy": np.__version__, "blas": _blas(), "cpu_features": _cpu_features()}


def fingerprint():
    """The environment, the grid's cells and the CLI grids, as the file holds them."""
    return {
        "environment": environment(),
        "cells": cells(),
        "cli": {name: cli_grid(args) for name, args in CLI_GRIDS.items()},
    }


def _git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance():
    """``git rev-parse HEAD`` and whether ``git status --porcelain`` listed
    anything; both null when the repository is not a git checkout of its own."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return {"head": None, "dirty": None}
    return {"head": _git("rev-parse", "HEAD"), "dirty": _git("status", "--porcelain") != ""}


if __name__ == "__main__":
    # Provenance is read before the file is opened, which would make the tree dirty.
    document = {**fingerprint(), "provenance": provenance()}
    PATH.parent.mkdir(exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
