"""Peak memory of the rank1-1m CLI grid, and perfbench pairs, of two checkouts, as one JSON file.

    python3 scripts/grid_memory_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  The report gets two
parts:

* ``grid_hwm``: per tree, ``ROUNDS`` fresh processes, alternating, that each
  run the ``rank1-1m`` workload's CLI grid once through
  ``ellipcenter.cli.main``: the generated rank-one instance at n = 10^6,
  seed 1, then the same instance loaded from its file (written once by this
  checkout's ``save_problem``); me, cg, bb-long and bb-short.  Each process
  reports its ``VmHWM`` (the peak resident set of its own address space,
  from ``/proc/self/status``) before and after the grid, the exit code and
  the report's rows without ``cpu_s``; the tree gets the median and
  quartiles of the peak;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 10 of ``rank1-1m`` at seed 1, 5 at seed 2,
  and 5 each of ``diag-10k`` and ``diag-64-tracedir`` at seed 1.  Cell
  lines must match across every run of both trees.

The whole sweep takes about 30 minutes on two cores.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile

from pairing import alternate, python_probe, sweep_perfbench, trees, write_report

ROUNDS = 5  # grid processes per tree
PLAN = [("rank1-1m", 1, 10), ("rank1-1m", 2, 5), ("diag-10k", 1, 5),
        ("diag-64-tracedir", 1, 5)]
# perfbench's rank1-1m grid, with the problem file and report paths to add.
RANK1_1M = ["--instance", "dense", "--n", "1000000", "--seed", "1", "--eps", "1e-08",
            "--eps-mode", "rel", "--methods", "me,cg,bb-long,bb-short"]

# Runs in the fresh process: writes the rank-one n = 10^6 problem file.
SAVE_PROBE = r"""
import json, sys
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate, save_problem

save_problem(generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 1_000_000, 1)), sys.argv[1])
print(json.dumps({}))
"""

# Runs in the fresh process: the CLI grid once, between two readings of VmHWM.
HWM_PROBE = r"""
import contextlib, io, json, sys
from ellipcenter.cli import main

def hwm_mb():
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024

argv = json.loads(sys.argv[1])
before = hwm_mb()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
peak = hwm_mb()
with open(argv[argv.index("--out") + 1]) as fh:
    rows = [line.split(",") for line in fh.read().splitlines()]
drop = rows[0].index("cpu_s")
print(json.dumps({"before_mb": before, "peak_mb": peak, "exit": code,
                  "rows": [row[:drop] + row[drop + 1:] for row in rows]}))
"""


def grid_hwm(sides, work):
    problem = os.path.join(work, "problem.txt")
    python_probe(sides["change"], SAVE_PROBE, problem)
    argv = [*RANK1_1M, "--instance", f"file:{problem}", "--out", os.path.join(work, "report.csv")]
    runs = alternate(sides, ROUNDS, HWM_PROBE, json.dumps(argv))
    out = {"argv": argv[:-2]}
    for name, rs in runs.items():
        q1, q2, q3 = statistics.quantiles([r["peak_mb"] for r in rs], n=4, method="inclusive")
        out[name] = {"peak_mb": {"median": q2, "q1": q1, "q3": q3}, "runs": rs}
    first = runs["parent"][0]["rows"]
    out["rows_match"] = all(r["rows"] == first and r["exit"] == 0
                            for rs in runs.values() for r in rs)
    return out


def main(argv=None):
    sides, out = trees(__doc__, argv)
    with tempfile.TemporaryDirectory() as work:
        hwm = grid_hwm(sides, work)
    perfbench = sweep_perfbench(sides, PLAN)
    for name in sides:
        peak = hwm[name]["peak_mb"]
        print(f"rank1-1m CLI grid VmHWM {name}: median {peak['median']:.1f} MB "
              f"(quartiles {peak['q1']:.1f}-{peak['q3']:.1f}) over {ROUNDS} processes")
    print(f"grid rows match and every grid exited 0: {hwm['rows_match']}")
    write_report(out, __file__, sides,
                 "Peak resident memory (VmHWM) of the rank1-1m CLI grid in fresh processes, "
                 "and perfbench --trace 0 pairs of all three workloads, for the parent and "
                 "this change on one machine.",
                 {"grid_hwm": hwm}, perfbench)


if __name__ == "__main__":
    main()
