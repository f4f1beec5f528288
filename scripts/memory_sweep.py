"""Live n-vectors, page faults and perfbench pairs of two checkouts, as one JSON file.

    python3 scripts/memory_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  The report gets three
parts:

* ``live_vectors``: per tree, the tracemalloc peak of each solve divided by
  the bytes of one n-vector, x1 not counted: six methods (me, grad, cg,
  bb-long, bb-short, fast) from x1 = 0, capped at 60 steps, on the diag and
  rank-one (``dense``) families at n = 2*10^5, seed 1, with the iterations;
* ``faults``: per tree, 3 runs of a process that runs the ``rank1-1m``
  workload's CLI grid once through ``ellipcenter.cli.main`` (the generated
  rank-one instance at n = 10^6, seed 1, then the same instance loaded from
  its file; me, cg, bb-long and bb-short), with each cell's minor page
  faults (``ru_minflt``), solve seconds and iterations, and their medians;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 10 of ``rank1-1m`` at seed 1, 5 at seed 2,
  and 5 each of ``diag-10k`` and ``diag-64-tracedir`` at seed 1.  Cell
  lines must match across every run of both trees.  ``setup_s_pairs`` lists each pair's
  ``setup_s`` medians, parent first.

The whole sweep takes about 25 minutes on two cores.
"""

from __future__ import annotations

import statistics
import tempfile

from pairing import alternate, python_probe, rank1_1m_argv, sweep_perfbench, trees, write_report

FAULT_RUNS = 3
PLAN = [("rank1-1m", 1, 10), ("rank1-1m", 2, 5), ("diag-10k", 1, 5),
        ("diag-64-tracedir", 1, 5)]

# Runs in the fresh process: the peak n-vectors of every cell.
LIVE_PROBE = r"""
import json, tracemalloc
import numpy as np
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.solver import SolveOptions

n = 200_000
out = {}
for family in (InstanceFamily.DIAGONAL_ILL_CONDITIONED, InstanceFamily.DENSE_RANK_ONE):
    problem = generate(InstanceSpec(family, n, 1))
    for method in ("me", "grad", "cg", "bb-long", "bb-short", "fast"):
        x1 = np.zeros(n)
        tracemalloc.start()
        r = METHODS[method](problem, x1, SolveOptions(max_iterations=60))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[f"{family.value} {method}"] = {"vectors": round(peak / x1.nbytes, 3),
                                           "iterations": r.iterations}
print(json.dumps(out))
"""

# Runs in the fresh process: the CLI grid once, with every solve wrapped in
# the METHODS table, which run_benchmark looks each cell's solve up in.
FAULT_PROBE = r"""
import contextlib, io, json, resource, sys, time
from ellipcenter.bench import METHODS
from ellipcenter.cli import main

cells = []

def counted(solve, method):
    def run(problem, x1, options):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = solve(problem, x1, options)
        cells.append({"method": method, "solve_s": time.perf_counter() - t0,
                      "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
                      "iterations": result.iterations})
        return result
    return run

for method in list(METHODS):
    METHODS[method] = counted(METHODS[method], method)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"exit": code, "cells": cells}))
"""


def live_vectors(trees):
    return {name: python_probe(tree, LIVE_PROBE) for name, tree in trees.items()}


def faults(trees, work):
    runs = alternate(trees, FAULT_RUNS, FAULT_PROBE, rank1_1m_argv(trees, work))
    out = {}
    for name, rs in runs.items():
        cells = [[r["cells"][i] for r in rs] for i in range(len(rs[0]["cells"]))]
        out[name] = {"runs": rs, "median_cells": [
            {"method": c[0]["method"], "iterations": c[0]["iterations"],
             "minor_faults": statistics.median(x["minor_faults"] for x in c),
             "solve_s": statistics.median(x["solve_s"] for x in c)} for c in cells]}
    return out


def main(argv=None):
    sides, out = trees(__doc__, argv)
    live = live_vectors(sides)
    with tempfile.TemporaryDirectory() as work:
        fault_counts = faults(sides, work)
    perfbench = sweep_perfbench(sides, PLAN)
    for e in perfbench:
        e["setup_s_pairs"] = [[p["metrics"]["setup_s"]["value"], c["metrics"]["setup_s"]["value"]]
                              for p, c in zip(e["runs"]["parent"], e["runs"]["change"])]

    for key in live["parent"]:
        print(f"{key}: {live['parent'][key]['vectors']} -> {live['change'][key]['vectors']} "
              f"n-vectors")
    for name, f in fault_counts.items():
        print(f"{name}: rank1-1m minor faults per cell "
              f"{[(c['method'], c['minor_faults']) for c in f['median_cells']]}")
    write_report(out, "Peak live n-vectors per solve, minor page faults per rank1-1m cell and "
                      "perfbench --trace 0 pairs, for the parent and this change on one machine.",
                 {"live_vectors": live, "faults": fault_counts}, perfbench)


if __name__ == "__main__":
    main()
