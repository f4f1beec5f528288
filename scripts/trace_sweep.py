"""Traced benchmark cells of two checkouts, side by side: writes BENCH_14.json.

    python3 scripts/trace_sweep.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Every measurement runs in a
fresh Python process that imports the package from the tree's ``src/``, and
the two trees alternate, so both see the same machine at about the same time
(see ``pairing.py``).

The grid is the ``diag-64-tracedir`` workload's: the diag instance at n = 64,
seed 1, with me, fast, bb-long, bb-short and cg, through ``run_benchmark``.
The file gets four parts:

* ``vmhwm``: the peak resident set (``VmHWM`` in ``/proc/self/status``) of a
  process that runs the grid with a trace directory, and of one that runs it
  without, 5 runs of each per tree;
* ``held``: per method, the bytes a traced cell holds per step when it hands
  its trace to ``write_trace_csv``, above what it held before the cell
  (``tracemalloc``, one process per tree);
* ``write``: per method, the seconds ``write_trace_csv`` takes for the trace
  the cell hands it, the minimum of 3 writes, in 3 processes per tree, with
  the SHA-256 of every file written, so that equal digests show byte-identical
  traces;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 10 of ``diag-64-tracedir`` at seed 1, 3 at
  seed 2, and 3 each of ``diag-10k`` and ``rank1-1m`` at seed 1.

The whole sweep takes about half an hour on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics

from pairing import python_probe, sweep_perfbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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

# Runs in the fresh process: per method, the traced bytes held per step at
# the moment the cell hands its trace to the writer.
HELD_PROBE = GRID + r"""
import json, sys, tempfile, tracemalloc
import ellipcenter.bench as bench

real = bench.write_trace_csv
seen = {}

def write_trace_csv(path, trace):
    seen["held"] = tracemalloc.get_traced_memory()[0] - seen["before"]
    seen["steps"] = len(trace)
    real(path, trace)

bench.write_trace_csv = write_trace_csv
out = {}
with tempfile.TemporaryDirectory() as work:
    for method in json.loads(sys.argv[1]):
        tracemalloc.start()
        seen["before"] = tracemalloc.get_traced_memory()[0]
        bench.run_benchmark(grid([method], work))
        tracemalloc.stop()
        out[method] = {"steps": seen["steps"], "held_bytes": seen["held"],
                       "bytes_per_step": seen["held"] / seen["steps"]}
print(json.dumps(out))
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


def alternate(trees, runs, probe, *args):
    """``runs`` results of ``probe`` per tree, the trees taking turns first."""
    out = {name: [] for name in trees}
    for k in range(runs):
        for name in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            out[name].append(python_probe(trees[name], probe, *args))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    methods = json.dumps(METHODS)

    vmhwm = {}
    for mode in ("traced", "untraced"):
        runs = alternate(trees, VMHWM_RUNS, VMHWM_PROBE, methods, mode)
        vmhwm[mode] = {name: {"median_mb": statistics.median(r["vmhwm_mb"] for r in rs),
                              "runs_mb": [r["vmhwm_mb"] for r in rs]}
                       for name, rs in runs.items()}
    held = {name: python_probe(tree, HELD_PROBE, methods) for name, tree in trees.items()}
    writes = alternate(trees, WRITE_RUNS, WRITE_PROBE, methods)
    write = {
        name: {m: {"rows": rs[0][m]["rows"], "sha256": rs[0][m]["sha256"],
                   "write_s": min(r[m]["write_s"] for r in rs)} for m in METHODS}
        for name, rs in writes.items()
    }
    same_traces = all(write["parent"][m]["sha256"] == write["change"][m]["sha256"]
                      for m in METHODS)
    perfbench = sweep_perfbench(trees, PLAN)

    report = {
        "what": "Traced benchmark cells of the parent and this change on one machine: peak "
                "RSS of the traced diag n=64 grid, bytes held per traced step, seconds of "
                "write_trace_csv, and perfbench --trace 0 pairs of all three workloads.",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "machine": platform.machine()},
        "grid": {"instance": "diag n=64 seed 1", "methods": METHODS},
        "vmhwm": vmhwm,
        "held": held,
        "write": {**write, "same_traces": same_traces},
        "perfbench": perfbench,
    }
    with open(os.path.join(ROOT, "BENCH_14.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for mode, sides in vmhwm.items():
        print(f"VmHWM {mode}: parent {sides['parent']['median_mb']:.1f} MB, "
              f"change {sides['change']['median_mb']:.1f} MB")
    for m in METHODS:
        p, c = held["parent"][m], held["change"][m]
        print(f"{m:8} {c['steps']:>7} steps  held {p['bytes_per_step']:.1f} -> "
              f"{c['bytes_per_step']:.1f} B/step  write {write['parent'][m]['write_s']:.3f} -> "
              f"{write['change'][m]['write_s']:.3f} s")
    print(f"same trace bytes: {same_traces}")
    for e in perfbench:
        line = ", ".join(f"{k} {e['parent'][k]['median']:.4g} -> {e['change'][k]['median']:.4g} "
                         f"({e['change_won'][k]}/{e['pairs']})" for k in e["parent"])
        print(f"{e['workload']} seed {e['seed']}: {line}; correct: {e['all_correct']}, "
              f"cells match: {e['cells_match']}")


if __name__ == "__main__":
    main()
