"""Results and CPU time against the thread count in two checkouts, as one JSON file.

    python3 scripts/thread_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  The report gets three
parts:

* ``bits``: per tree, the same grid run once under ``OPENBLAS_NUM_THREADS=1``
  and once under ``=2``: six methods (me, grad, cg, bb-long, bb-short, fast)
  on the diag family at n = 2*10^4 and 2*10^5, seed 1, capped at 3,000
  steps, and me, cg, bb-long and bb-short to tolerance on the rank-one
  family at n = 10^6, seed 1.  A cell is its iterations, the bits of
  ``f_final``, a digest of ``x_final``'s bytes and its solve seconds; the
  entry counts the cells whose first three agree between the two runs;
* ``thread_cpu``: the CPU seconds of the main thread and of all other
  threads (``/proc/self/task/*/stat``) of a process that runs the
  ``rank1-1m`` workload's CLI grid once through ``ellipcenter.cli.main``,
  with the thread count left to numpy, 3 runs per tree;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 10 of ``rank1-1m`` at seed 1, 3 at seed 2,
  and 3 each of ``diag-10k`` and ``diag-64-tracedir`` at seed 1.  Cells
  must match across runs in all but ``f_final``; ``f_final_repeats`` says,
  per tree, whether every run printed the same cell lines.

The whole sweep takes about 20 minutes on two cores.
"""

from __future__ import annotations

import statistics
import tempfile

from pairing import alternate, python_probe, rank1_1m_argv, sweep_perfbench, trees, write_report

THREADS = ("1", "2")
CPU_RUNS = 3
PLAN = [("rank1-1m", 1, 10), ("rank1-1m", 2, 3), ("diag-10k", 1, 3),
        ("diag-64-tracedir", 1, 3)]

# Runs in the fresh process: every cell of the grid, keyed "family n method".
BITS_PROBE = r"""
import hashlib, json, time
import numpy as np
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.solver import SolveOptions

SIX = ["me", "grad", "cg", "bb-long", "bb-short", "fast"]
grid = [(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 20_000, SIX, 3_000),
        (InstanceFamily.DIAGONAL_ILL_CONDITIONED, 200_000, SIX, 3_000),
        (InstanceFamily.DENSE_RANK_ONE, 1_000_000, ["me", "cg", "bb-long", "bb-short"], None)]
out = {}
for family, n, methods, cap in grid:
    problem = generate(InstanceSpec(family, n, 1))
    options = SolveOptions() if cap is None else SolveOptions(max_iterations=cap)
    for method in methods:
        t0 = time.perf_counter()
        r = METHODS[method](problem, np.zeros(n), options)
        out[f"{family.value} {n} {method}"] = {
            "iterations": r.iterations, "f_final": r.f_final.hex(),
            "x_final_sha256": hashlib.sha256(r.x_final.tobytes()).hexdigest()[:16],
            "solve_s": time.perf_counter() - t0}
print(json.dumps(out))
"""

# Runs in the fresh process: the CLI grid once, then the CPU time of each
# thread.  Fields 14 and 15 of a task's stat are its user and system ticks.
CPU_PROBE = r"""
import contextlib, io, json, os, sys, time
from ellipcenter.cli import main

t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
wall = time.perf_counter() - t0
ticks = {}
for tid in os.listdir("/proc/self/task"):
    with open(f"/proc/self/task/{tid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks[int(tid)] = int(fields[11]) + int(fields[12])
hz = os.sysconf("SC_CLK_TCK")
main_s = ticks.pop(os.getpid()) / hz
print(json.dumps({"exit": code, "wall_s": wall, "threads": 1 + len(ticks),
                  "main_thread_cpu_s": main_s, "other_threads_cpu_s": sum(ticks.values()) / hz,
                  "process_cpu_s": time.process_time()}))
"""


def _same_cell(cell):
    # Everything a perfbench cell line prints but f_final, whose last bits
    # differ between the trees wherever a dot is longer than 10^4.
    return cell.rsplit(" f_final ", 1)[0]


def bits(trees):
    out = {}
    for name, tree in trees.items():
        runs = {k: python_probe(tree, BITS_PROBE, env={"OPENBLAS_NUM_THREADS": k})
                for k in THREADS}
        first, second = (runs[k] for k in THREADS)
        same = [key for key in first
                if {**first[key], "solve_s": 0} == {**second[key], "solve_s": 0}]
        out[name] = {"threads": runs, "cells": len(first), "same_on_1_and_2": len(same),
                     "differ": [key for key in first if key not in same]}
    return out


def thread_cpu(trees, work):
    runs = alternate(trees, CPU_RUNS, CPU_PROBE, rank1_1m_argv(trees, work))
    return {name: {"runs": rs, **{f"median_{key}": statistics.median(r[key] for r in rs)
                                  for key in ("wall_s", "main_thread_cpu_s",
                                              "other_threads_cpu_s", "process_cpu_s")}}
            for name, rs in runs.items()}


def main(argv=None):
    sides, out = trees(__doc__, argv)
    bit_check = bits(sides)
    with tempfile.TemporaryDirectory() as work:
        cpu = thread_cpu(sides, work)
    perfbench = sweep_perfbench(sides, PLAN, same=_same_cell)
    for e in perfbench:
        e["f_final_repeats"] = {name: all(r["cells"] == runs[0]["cells"] for r in runs)
                                for name, runs in e["runs"].items()}

    for name, b in bit_check.items():
        print(f"{name}: {b['same_on_1_and_2']} of {b['cells']} cells the same on 1 and 2 "
              f"threads; differ: {b['differ']}")
    for name, c in cpu.items():
        print(f"{name}: rank1-1m CLI main thread {c['median_main_thread_cpu_s']:.2f} s, "
              f"other threads {c['median_other_threads_cpu_s']:.2f} s, "
              f"wall {c['median_wall_s']:.2f} s")
    for e in perfbench:
        print(f"{e['workload']} seed {e['seed']}: f_final repeats: {e['f_final_repeats']}")
    write_report(out, "Solver results under 1 and 2 OpenBLAS threads, CPU seconds per thread of "
                      "the rank1-1m CLI grid, and perfbench --trace 0 pairs, for the parent and "
                      "this change on one machine.",
                 {"bits": bit_check, "thread_cpu": cpu}, perfbench)


if __name__ == "__main__":
    main()
