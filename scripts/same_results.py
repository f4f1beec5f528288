"""Check that two checkouts give the same results, bit for bit.

    python3 scripts/same_results.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Each tree runs the whole grid
in one fresh Python process that imports the package from its ``src/`` (see
``pairing.py``).

The grid is seven methods (me, grad, cg, bb-long, bb-short, fast,
grad-wolfe) from x1 = 0 with the default options on nine instances: the diag
family at n = 64, seeds 1-3, at n = 500, seed 1, and at n = 10^4, seed 1,
capped at 5,000 steps; the rank-one ``dense`` family at n = 40, 100 and 400,
seed 7, and at n = 1,000, seed 1.  grad-wolfe, the one solver that runs the
Wolfe search on every step, is capped at 2,000 steps on every instance.
Every cell runs once without an observer and once with one, 126 cells in
all.  A cell's result is its iterations, ``terminated_by``,
the bits of ``f_final`` and ``grad_norm_final``, a hash of the bytes of
``x_final``, the matvecs it made and, when observed, a hash of every
``StepRecord`` field in order.  A cell that raises records the exception's
type and text instead.

Each tree also runs the CLI on three grids, each in a fresh process::

    ellipcenter-bench --instance diag --n 64 --seed 1 \
        --methods me,fast,bb-long,bb-short,cg --trace-dir D --out R
    ellipcenter-bench --instance dense --n 40,100,400 --seed 7 \
        --trace-dir D --out R
    ellipcenter-bench --instance file:P --trace-dir D --out R

the last two with the default methods, the second as the acceptance dense
grid runs.  P is the rank-one instance at n = 1,000, seed 1, with c = 2.5,
written once by this checkout's ``save_problem``, so both trees' problem
file reading is compared on the same bytes.
Every trace CSV in D, and R's ``.instances.jsonl``, must be the same bytes in
both trees, the report R the same apart from its ``cpu_s`` column, and the
exit codes equal.

Prints one JSON line: the number of cells, how many are identical, the keys
of those that differ, and the CLI's files with those that differ.  Exits 1 on
any difference.  Takes about four minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from pairing import python_probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (family, n, seed, max_iterations or None for the default)
INSTANCES = [
    ("diag", 64, 1, None),
    ("diag", 64, 2, None),
    ("diag", 64, 3, None),
    ("diag", 500, 1, None),
    ("diag", 10_000, 1, 5_000),
    ("dense", 40, 7, None),
    ("dense", 100, 7, None),
    ("dense", 400, 7, None),
    ("dense", 1_000, 1, None),
]
# method -> its own step cap, or None
METHODS = {"me": None, "grad": None, "cg": None, "bb-long": None, "bb-short": None,
           "fast": None, "grad-wolfe": 2_000}

# Runs in the fresh process: every cell of the grid, as a dict keyed by cell.
GRID_PROBE = r"""
import hashlib, json, sys
import numpy as np
from ellipcenter.baselines import (
    BBVariant, bb_solve, cg_solve, fast_gradient_solve, gradient_optimal_step_solve,
    gradient_wolfe_solve,
)
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.quadratic import QuadraticProblem
from ellipcenter.solver import SolveOptions, me_solve

SOLVERS = {
    "me": me_solve,
    "grad": gradient_optimal_step_solve,
    "cg": cg_solve,
    "bb-long": lambda p, x, o: bb_solve(p, x, BBVariant(short_steps=False), o),
    "bb-short": lambda p, x, o: bb_solve(p, x, BBVariant(short_steps=True), o),
    "fast": fast_gradient_solve,
    "grad-wolfe": gradient_wolfe_solve,
}


class Counting:
    def __init__(self, op):
        self.op, self.calls, self.dim = op, 0, op.dim

    def matvec(self, v):
        self.calls += 1
        return self.op.matvec(v)

    def eigen_bounds(self):
        return self.op.eigen_bounds()


def cell_text(v):
    if v is None:
        return ""
    return v.value if hasattr(v, "value") else float(v).hex()


def run(problem, method, cap, traced):
    op = Counting(problem.A)
    counted = QuadraticProblem(op, problem.b, problem.c)
    stream = hashlib.sha256()
    observer = None
    if traced:
        def observer(x, g, record):
            stream.update((",".join(map(cell_text, record)) + "\n").encode())
    options = SolveOptions(observer=observer)
    if cap is not None:
        options = SolveOptions(max_iterations=cap, observer=observer)
    try:
        r = SOLVERS[method](counted, np.zeros(problem.dim), options)
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}", "matvecs": op.calls}
    out = {
        "iterations": r.iterations,
        "terminated_by": r.terminated_by.value,
        "f_final": float(r.f_final).hex(),
        "grad_norm_final": float(r.grad_norm_final).hex(),
        "x_final": hashlib.sha256(np.ascontiguousarray(r.x_final).tobytes()).hexdigest(),
        "matvecs": op.calls,
    }
    if traced:
        out["records"] = stream.hexdigest()
    return out


cells = {}
for family, n, seed, cap in json.loads(sys.argv[1]):
    problem = generate(InstanceSpec(InstanceFamily(family), n, seed))
    for method, method_cap in json.loads(sys.argv[2]).items():
        caps = [c for c in (cap, method_cap) if c is not None]
        for traced in (False, True):
            key = f"{method} {family} n={n} seed={seed} {'traced' if traced else 'untraced'}"
            cells[key] = run(problem, method, min(caps, default=None), traced)
print(json.dumps(cells))
"""


# Grid name -> the CLI arguments that run it; main adds the file grid.
CLI_GRIDS = {
    "diag": ["--instance", "diag", "--n", "64", "--seed", "1",
             "--methods", "me,fast,bb-long,bb-short,cg"],
    "dense": ["--instance", "dense", "--n", "40,100,400", "--seed", "7"],
}
CLI_MAIN = "import sys; from ellipcenter.cli import main; sys.exit(main(sys.argv[1:]))"
# Writes the problem file of the CLI's file grid to the path in argv[1].
SAVE_PROBE = r"""
import sys
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate, save_problem
from ellipcenter.quadratic import QuadraticProblem
p = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 1_000, 1))
save_problem(QuadraticProblem(p.A, p.b, 2.5), sys.argv[1])
print("null")  # python_probe reads one JSON value
"""


def cli_files(tree, work, args):
    """Run the CLI with ``args`` on ``tree`` into ``work``: its exit code, and
    its output files by name, the report without its cpu_s column."""
    os.makedirs(work)
    traces = os.path.join(work, "traces")
    report = os.path.join(work, "report.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    code = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *args, "--trace-dir", traces, "--out", report],
        env=env, stdout=subprocess.DEVNULL,
    ).returncode
    files = {}
    for name in sorted(os.listdir(traces)):
        with open(os.path.join(traces, name), "rb") as fh:
            files[name] = fh.read()
    with open(report + ".instances.jsonl", "rb") as fh:
        files["report.csv.instances.jsonl"] = fh.read()
    with open(report) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    drop = rows[0].index("cpu_s")
    files["report.csv without cpu_s"] = [row[:drop] + row[drop + 1:] for row in rows]
    return code, files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    args = parser.parse_args(argv)
    parent_tree = os.path.abspath(args.parent)
    grid = (json.dumps(INSTANCES), json.dumps(METHODS))
    parent = python_probe(parent_tree, GRID_PROBE, *grid)
    change = python_probe(ROOT, GRID_PROBE, *grid)
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    cli_count, cli_differ = 0, []
    with tempfile.TemporaryDirectory() as work:
        problem_file = os.path.join(work, "rank1_1000.txt")
        python_probe(ROOT, SAVE_PROBE, problem_file)
        grids = {**CLI_GRIDS, "file": ["--instance", f"file:{problem_file}"]}
        for grid_name, cli_args in grids.items():
            (parent_code, parent_files), (change_code, change_files) = (
                cli_files(tree, os.path.join(work, grid_name, side), cli_args)
                for side, tree in (("parent", parent_tree), ("change", ROOT))
            )
            cli_count += len(change_files)
            cli_differ += sorted(f"{grid_name}: {name}"
                                 for name in parent_files.keys() | change_files.keys()
                                 if parent_files.get(name) != change_files.get(name))
            if parent_code != change_code:
                cli_differ.append(f"{grid_name}: exit code {parent_code} vs {change_code}")
    print(json.dumps({
        "cells": len(change),
        "identical": len(change) - len(differ),
        "differ": differ,
        "cli_files": cli_count,
        "cli_differ": cli_differ,
    }))
    return 1 if differ or cli_differ else 0


if __name__ == "__main__":
    sys.exit(main())
