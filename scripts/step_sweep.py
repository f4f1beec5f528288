"""Per-step solver cost of two checkouts, side by side: writes BENCH_9.json.

    python3 scripts/step_sweep.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Every measurement runs in a
fresh Python process that imports the package from the tree's ``src/``, and
the two trees alternate, so both see the same machine at about the same time.

The file gets three parts:

* ``steps``: microseconds per step of ``me_solve`` and
  ``fast_gradient_solve`` on the diag family, seed 1, at n = 64 (20,000-step
  runs) and n = 10^4 (3,000-step runs), untraced and traced (an observer
  that keeps every ``StepRecord``, as a traced benchmark cell does); the
  minimum of 3 runs in each of four processes per tree, with the bits of
  ``f_final`` and a digest of ``x_final``, which must match between the
  trees;
* ``trace_write``: microseconds per row of ``write_trace_csv`` on the
  records of the two traced n = 64 runs (the same minimum), with a digest
  of the files written;
* ``perfbench``: ``perfbench/run.py --seconds 20 --trace 0`` result lines,
  the two trees alternating in pairs: ten pairs of each workload at seed 1
  and four of ``diag-64-tracedir`` at seed 5.  Each entry has the medians
  and quartiles of every end-to-end metric, the pairs the change won on
  each, and each run's cell lines (iterations, matvecs and f_final, which
  must match between the trees).  The whole sweep takes about 40 minutes
  on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

from pairing import python_probe, sweep_perfbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEP_CASES = [(64, 20_000), (10_000, 3_000)]  # (n, steps per run)
REPEATS = 3  # runs per timing in one process
PROBE_ROUNDS = 4  # processes per tree, alternating; the fastest of all is kept
# (workload, seed, pairs); seed 5 of diag-64-tracedir is a seed the change
# was not tuned on.
PERFBENCH = [
    ("diag-10k", 1, 10),
    ("diag-64-tracedir", 1, 10),
    ("diag-64-tracedir", 5, 4),
    ("rank1-1m", 1, 10),
]

# Runs in the fresh process: times capped solves, then writes their traces.
STEP_PROBE = r"""
import hashlib, json, math, os, sys, tempfile, time
import numpy as np
from ellipcenter.baselines import fast_gradient_solve
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter import write_trace_csv
from ellipcenter.solver import SolveOptions, me_solve

cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
solvers = {"me": me_solve, "fast": fast_gradient_solve}
steps, traces = [], []
for n, cap in cases:
    problem = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, n, 1))
    x1 = np.zeros(n)
    for method, solve in solvers.items():
        for traced in (False, True):
            best = math.inf
            for _ in range(repeats):
                records = []
                observer = (lambda x, g, r: records.append(r)) if traced else None
                options = SolveOptions(max_iterations=cap, observer=observer)
                t0 = time.perf_counter()
                result = solve(problem, x1, options)
                best = min(best, time.perf_counter() - t0)
            steps.append({"method": method, "n": n, "traced": traced,
                          "steps": result.iterations,
                          "us_per_step": 1e6 * best / result.iterations,
                          "f_final": float(result.f_final).hex(),
                          "x_final": hashlib.sha256(result.x_final.tobytes()).hexdigest()[:16]})
            if traced and n == 64:
                traces.append(records)
            del records

rows = sum(len(r) for r in traces)
best = math.inf
with tempfile.TemporaryDirectory() as work:
    paths = [os.path.join(work, f"trace{k}.csv") for k in range(len(traces))]
    for _ in range(repeats):
        t0 = time.perf_counter()
        for path, records in zip(paths, traces):
            write_trace_csv(path, records)
        best = min(best, time.perf_counter() - t0)
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
write = {"rows": rows, "s": best, "us_per_row": 1e6 * best / rows,
         "files": digest.hexdigest()[:16]}
print(json.dumps({"steps": steps, "trace_write": write}))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}

    probes = {name: [] for name in trees}
    for k in range(PROBE_ROUNDS):
        order = list(trees) if k % 2 == 0 else list(reversed(trees))
        for name in order:
            probes[name].append(python_probe(trees[name], STEP_PROBE, json.dumps(STEP_CASES), REPEATS))
    # The host's speed drifts for seconds at a time: keep each timing's
    # fastest run over all of a tree's probe processes.
    best = {name: {} for name in trees}
    for name in trees:
        for probe in probes[name]:
            for row in probe["steps"]:
                key = (row["method"], row["n"], row["traced"])
                if key not in best[name] or row["us_per_step"] < best[name][key]["us_per_step"]:
                    best[name][key] = row
    steps = []
    for key, parent in best["parent"].items():
        change = best["change"][key]
        steps.append({
            "method": key[0], "n": key[1], "traced": key[2], "steps": parent["steps"],
            "parent_us": parent["us_per_step"], "change_us": change["us_per_step"],
            "same_result": all(parent[k] == change[k] for k in ("steps", "f_final", "x_final")),
        })
    writes = {name: min((p["trace_write"] for p in probes[name]), key=lambda w: w["s"])
              for name in trees}

    perfbench = sweep_perfbench(trees, PERFBENCH)
    report = {
        "what": "Per-step cost of me and fast, trace CSV writing, and the perfbench "
                "--trace 0 results of all three workloads, for the parent and this change "
                "on one machine.",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "machine": platform.machine()},
        "steps": steps,
        "trace_write": {**writes, "same_files": writes["parent"]["files"] == writes["change"]["files"]},
        "perfbench": perfbench,
    }
    with open(os.path.join(ROOT, "BENCH_9.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for row in steps:
        print(f"{row['method']:4} n={row['n']:>6} traced={row['traced']!s:5}  "
              f"{row['parent_us']:7.1f} -> {row['change_us']:7.1f} us/step  "
              f"same result: {row['same_result']}")
    p, c = writes["parent"], writes["change"]
    print(f"write_trace_csv {p['rows']} rows: {p['us_per_row']:.2f} -> {c['us_per_row']:.2f} "
          f"us/row  same files: {report['trace_write']['same_files']}")
    for e in perfbench:
        wall = f"{e['parent']['wall_s']['median']:.2f} -> {e['change']['wall_s']['median']:.2f}"
        print(f"{e['workload']} seed {e['seed']}: wall_s median {wall} s, change won "
              f"{e['change_won']['wall_s']}/{e['pairs']}, correct: {e['all_correct']}, "
              f"cells match: {e['cells_match']}")


if __name__ == "__main__":
    main()
