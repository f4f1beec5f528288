"""Traced benchmark cells of two checkouts, side by side, as one JSON file.

    python3 scripts/trace_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  The grid is the
``diag-64-tracedir`` workload's: the diag instance at n = 64, seed 1, with
me, fast, bb-long, bb-short and cg, through ``run_benchmark``.  The report
gets three parts:

* ``vmhwm``: the peak resident set (``VmHWM`` in ``/proc/self/status``) of a
  process that runs the grid with a trace directory, and of one that runs it
  without, 5 runs of each per tree;
* ``write``: per method, the seconds ``write_trace_csv`` takes for the trace
  the cell hands it, the minimum of 3 writes, in 3 processes per tree, with
  the SHA-256 of every file written, so that equal digests show byte-identical
  traces;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 10 of ``diag-64-tracedir`` at seed 1, 3 at
  seed 2, and 3 each of ``diag-10k`` and ``rank1-1m`` at seed 1.

The whole sweep takes about 20 minutes on two cores.
"""

from __future__ import annotations

import json
import statistics

from pairing import alternate, sweep_perfbench, trees, write_report

METHODS = ["me", "fast", "bb-long", "bb-short", "cg"]
VMHWM_RUNS = 5
WRITE_RUNS = 3
PLAN = [("diag-64-tracedir", 1, 10), ("diag-64-tracedir", 2, 3),
        ("diag-10k", 1, 3), ("rank1-1m", 1, 3)]

GRID = r"""
from ellipcenter.bench import BenchConfig
from ellipcenter.generators import InstanceFamily, InstanceSpec

def grid(methods, trace_dir):
    spec = InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 64, 1)
    return BenchConfig(instances=(spec,), methods=tuple(methods), trace_dir=trace_dir)
"""

# Runs in the fresh process: the grid once, then the process's peak RSS.
VMHWM_PROBE = GRID + r"""
import json, sys, tempfile
from ellipcenter.bench import run_benchmark

with tempfile.TemporaryDirectory() as work:
    traced = sys.argv[2] == "traced"
    run_benchmark(grid(json.loads(sys.argv[1]), work if traced else None))
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"vmhwm_mb": kb / 1024}))
"""

# Runs in the fresh process: per method, the best of 3 writes of the trace
# the cell hands to the writer, and the digest of the file.
WRITE_PROBE = GRID + r"""
import hashlib, json, sys, tempfile, time
import ellipcenter.bench as bench

real = bench.write_trace_csv
out = {}

def write_trace_csv(path, trace):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        real(path, trace)
        best = min(best, time.perf_counter() - t0)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    out[path.rsplit("/", 1)[1].split("_")[0]] = {"rows": len(trace), "write_s": best,
                                               "sha256": digest}

bench.write_trace_csv = write_trace_csv
with tempfile.TemporaryDirectory() as work:
    bench.run_benchmark(grid(json.loads(sys.argv[1]), work))
print(json.dumps(out))
"""


def main(argv=None):
    sides, out = trees(__doc__, argv)
    methods = json.dumps(METHODS)

    vmhwm = {}
    for mode in ("traced", "untraced"):
        runs = alternate(sides, VMHWM_RUNS, VMHWM_PROBE, methods, mode)
        vmhwm[mode] = {name: {"median_mb": statistics.median(r["vmhwm_mb"] for r in rs),
                              "runs_mb": [r["vmhwm_mb"] for r in rs]}
                       for name, rs in runs.items()}
    writes = alternate(sides, WRITE_RUNS, WRITE_PROBE, methods)
    write = {
        name: {m: {"rows": rs[0][m]["rows"], "sha256": rs[0][m]["sha256"],
                   "write_s": min(r[m]["write_s"] for r in rs)} for m in METHODS}
        for name, rs in writes.items()
    }
    same_traces = all(write["parent"][m]["sha256"] == write["change"][m]["sha256"]
                      for m in METHODS)
    perfbench = sweep_perfbench(sides, PLAN)

    for mode, by_tree in vmhwm.items():
        print(f"VmHWM {mode}: parent {by_tree['parent']['median_mb']:.1f} MB, "
              f"change {by_tree['change']['median_mb']:.1f} MB")
    for m in METHODS:
        print(f"{m:8} {write['change'][m]['rows']:>7} rows  write "
              f"{write['parent'][m]['write_s']:.3f} -> {write['change'][m]['write_s']:.3f} s")
    print(f"same trace bytes: {same_traces}")
    write_report(out, __file__, sides,
                 "Traced benchmark cells of the parent and this change on one machine: peak "
                 "RSS of the traced diag n=64 grid, seconds of write_trace_csv, and "
                 "perfbench --trace 0 pairs of all three workloads.",
                 {"grid": {"instance": "diag n=64 seed 1", "methods": METHODS}, "vmhwm": vmhwm,
                  "write": {**write, "same_traces": same_traces}},
                 perfbench)


if __name__ == "__main__":
    main()
