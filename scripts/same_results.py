"""Check that two checkouts give the same results, bit for bit.

    python3 scripts/same_results.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Each tree runs the whole grid
in one fresh Python process that imports the package from its ``src/`` (see
``pairing.py``).

The grid is six methods (me, grad, cg, bb-long, bb-short, fast) from x1 = 0
with the default options on nine instances: the diag family at n = 64,
seeds 1-3, at n = 500, seed 1, and at n = 10^4, seed 1, capped at 5,000
steps; the rank-one ``dense`` family at n = 40, 100 and 400, seed 7, and at
n = 1,000, seed 1.  Every cell runs once without an observer and once with
one, 108 cells in all.  A cell's result is its iterations, ``terminated_by``,
the bits of ``f_final`` and ``grad_norm_final``, a hash of the bytes of
``x_final``, the matvecs it made and, when observed, a hash of every
``StepRecord`` field in order.  A cell that raises records the exception's
type and text instead.

Prints one JSON line: the number of cells, how many are identical, and the
keys of those that differ.  Exits 1 on any difference.  Takes about
three and a half minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
METHODS = ["me", "grad", "cg", "bb-long", "bb-short", "fast"]

# Runs in the fresh process: every cell of the grid, as a dict keyed by cell.
GRID_PROBE = r"""
import hashlib, json, sys
import numpy as np
from ellipcenter.baselines import (
    BBVariant, bb_solve, cg_solve, fast_gradient_solve, gradient_optimal_step_solve,
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
    for method in json.loads(sys.argv[2]):
        for traced in (False, True):
            key = f"{method} {family} n={n} seed={seed} {'traced' if traced else 'untraced'}"
            cells[key] = run(problem, method, cap, traced)
print(json.dumps(cells))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    args = parser.parse_args(argv)
    grid = (json.dumps(INSTANCES), json.dumps(METHODS))
    parent = python_probe(os.path.abspath(args.parent), GRID_PROBE, *grid)
    change = python_probe(ROOT, GRID_PROBE, *grid)
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    print(json.dumps({
        "cells": len(change),
        "identical": len(change) - len(differ),
        "differ": differ,
    }))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
