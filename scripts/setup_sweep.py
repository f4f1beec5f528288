"""Instance set-up of two checkouts, side by side: writes BENCH_7.json.

    python3 scripts/setup_sweep.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Every measurement runs in a
fresh Python process that imports the package from the tree's ``src/``, and
the two trees alternate, so both see the same machine at about the same time.

The file gets three parts:

* ``setup``: min-of-3 seconds of ``generate`` and ``load_problem`` (of
  the file ``save_problem`` wrote) for the diag and dense (rank-one) families
  at n = 10^2 ... 10^6, with a digest of every generated and loaded array,
  so that bit-identical instances show as equal digests;
* ``load_rss``: the peak RSS of a fresh process that loads the rank-one
  n = 10^6 file, next to its RSS just before the load;
* ``perfbench``: ``perfbench/run.py --seed 1 --seconds 20 --trace 0`` result
  lines of all three workloads, three runs of each tree in alternating
  order, with the medians of every end-to-end metric and each run's cell
  lines (iterations, matvecs and f_final, which must match between the
  trees).  The whole sweep takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile

from pairing import python_probe, run_perfbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = [10**k for k in range(2, 7)]
FAMILIES = ["diag", "dense"]
WORKLOADS = ["diag-10k", "diag-64-tracedir", "rank1-1m"]
REPEATS = 3  # set-up timings per step; the minimum is kept
PAIRS = 3  # perfbench runs of each tree per workload

# Runs in the fresh process: times one family over all sizes.
SETUP_PROBE = r"""
import hashlib, json, os, sys, time
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate, load_problem, save_problem

family, sizes, repeats, work = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]), sys.argv[4]

def digest(problem):
    a = problem.A
    entries = a.diag if hasattr(a, "diag") else a.v
    return hashlib.sha256(entries.tobytes() + problem.b.tobytes()).hexdigest()[:16]

def best(fn):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out

rows = []
for n in sizes:
    spec = InstanceSpec(InstanceFamily(family), n, 1)
    generate_s, problem = best(lambda: generate(spec))
    path = os.path.join(work, f"{family}_{n}.txt")
    save_problem(problem, path)
    load_s, loaded = best(lambda: load_problem(path))
    with open(path, "rb") as fh:
        file_digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    rows.append({"n": n, "generate_s": generate_s, "load_problem_s": load_s,
                 "generated": digest(problem), "loaded": digest(loaded), "file": file_digest})
print(json.dumps(rows))
"""

# Runs in the fresh process: peak RSS of one load.
RSS_PROBE = r"""
import json, resource, sys
from ellipcenter.generators import load_problem

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
load_problem(sys.argv[1])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"before_load_mb": before, "peak_mb": after}))
"""


def _medians(runs):
    keys = runs[0]["metrics"]
    return {k: statistics.median(r["metrics"][k]["value"] for r in runs) for k in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}

    setup = {}
    with tempfile.TemporaryDirectory() as work:
        for family in FAMILIES:
            for name, tree in trees.items():
                rows = python_probe(tree, SETUP_PROBE, family, json.dumps(SIZES), REPEATS, work)
                for row in rows:
                    setup.setdefault((family, row.pop("n")), {})[name] = row
        rank1_file = os.path.join(work, "dense_1000000.txt")
        load_rss = {name: python_probe(tree, RSS_PROBE, rank1_file) for name, tree in trees.items()}

    perfbench = {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for name in order:
                runs[name].append(run_perfbench(trees[name], workload, 1))
        perfbench[workload] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed 1 "
                       "--seconds 20 --trace 0",
            **{f"{name}_median": _medians(r) for name, r in runs.items()},
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for r in runs["parent"] + runs["change"]),
            "cells_match": all(r["cells"] == runs["parent"][0]["cells"]
                               for r in runs["parent"] + runs["change"]),
            "runs": runs,
        }

    report = {
        "what": "Instance set-up (generate, load_problem) of the parent and this change on "
                "one machine, with the perfbench --trace 0 results of all three workloads.",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "machine": platform.machine()},
        "setup": [{"family": f, "n": n, **sides} for (f, n), sides in setup.items()],
        "load_rss": {"file": "rank1 n=1000000 seed 1, written by save_problem", **load_rss},
        "perfbench": perfbench,
    }
    with open(os.path.join(ROOT, "BENCH_7.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for row in report["setup"]:
        p, c = row["parent"], row["change"]
        print(f"{row['family']:5} n={row['n']:>7}  generate {p['generate_s']:.4f} -> "
              f"{c['generate_s']:.4f} s  load {p['load_problem_s']:.4f} -> {c['load_problem_s']:.4f} s"
              f"  same arrays: {p['generated'] == c['generated'] and p['loaded'] == c['loaded']}")
    for name, rss in load_rss.items():
        print(f"load peak RSS {name}: {rss['peak_mb']:.0f} MB ({rss['before_load_mb']:.0f} MB before)")
    for workload, w in perfbench.items():
        print(f"{workload}: parent {w['parent_median']} change {w['change_median']} "
              f"correct: {w['all_correct']} cells match: {w['cells_match']}")


if __name__ == "__main__":
    main()
