"""Cost of Barzilai-Borwein's Wolfe search in two checkouts: writes BENCH_10.json.

    python3 scripts/wolfe_sweep.py --parent PATH

PATH is a checkout of the commit to compare against, for instance one made
with ``git clone . /tmp/parent && git -C /tmp/parent checkout REV``; the
checkout this script lives in is the change.  Every measurement runs in a
fresh Python process that imports the package from the tree's ``src/``, and
the two trees alternate (see ``pairing.py``).

The file gets two parts:

* ``first_search``: the Wolfe search that makes bb's first step from
  x1 = 0, on the rank-one family at n = 10^6 and the diag family at
  n = 10^4, seed 1.  Each tree makes it as its own bb does (through the
  line model where the tree has ``_wolfe_step``, else through the point
  oracle ``_line_oracle``).  Seconds are the minimum of 3 fresh processes
  per tree, one search each; each process also counts the search's matvecs
  and returns its t, which must be the same bits in both trees;
* ``perfbench``: ``perfbench/run.py --seconds 20 --trace 0`` result lines,
  the two trees alternating in pairs: ten pairs of ``rank1-1m`` at seed 1
  and four at seed 5, and four each of ``diag-10k`` and
  ``diag-64-tracedir`` at seed 1.  Each entry has the medians and quartiles
  of every end-to-end metric, the pairs the change won on each, and each
  run's cell lines.  Cells must match between the trees in everything but
  bb's matvec count, which the entry's ``bb_matvecs`` reports per tree.
  The whole sweep takes about 25 minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

from pairing import python_probe, sweep_perfbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_CASES = [("dense", 1_000_000), ("diag", 10_000)]  # (family, n), seed 1
SEARCH_ROUNDS = 3  # processes per tree, alternating; the fastest is kept
# (workload, seed, pairs); seed 5 of rank1-1m is a seed the change was not
# tuned on.
PERFBENCH = [
    ("rank1-1m", 1, 10),
    ("rank1-1m", 5, 4),
    ("diag-10k", 1, 4),
    ("diag-64-tracedir", 1, 4),
]

# Runs in the fresh process: times one first search, then counts its matvecs.
SEARCH_PROBE = r"""
import json, sys, time
import numpy as np
import ellipcenter.baselines as baselines
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.quadratic import QuadraticProblem

family, n = sys.argv[1], int(sys.argv[2])
problem = generate(InstanceSpec(InstanceFamily(family), n, 1))
x = np.zeros(n)
g = problem.gradient(x)


class Counting:
    def __init__(self, op):
        self.op, self.calls, self.dim = op, 0, op.dim

    def matvec(self, v):
        self.calls += 1
        return self.op.matvec(v)

    def eigen_bounds(self):
        return self.op.eigen_bounds()


def first_search(p):
    if hasattr(baselines, "_wolfe_step"):
        return baselines._wolfe_step(p, g)
    return baselines.wolfe_search(baselines._line_oracle(p, x, g), x, -g)


t0 = time.perf_counter()
t = first_search(problem)
seconds = time.perf_counter() - t0
counting = Counting(problem.A)
first_search(QuadraticProblem(counting, problem.b, problem.c))
print(json.dumps({"s": seconds, "matvecs": counting.calls, "t": float(t).hex()}))
"""


def _same(cell):
    # A cell line reads "cell METHOD instance I n N iterations K matvecs M
    # TERMINATION f_final F"; bb's cells may differ only in M.
    words = cell.split()
    if words[1].startswith("bb"):
        del words[8:10]
    return " ".join(words)


def _bb_matvecs(cells):
    return {f"{w[1]} instance {w[3]}": int(w[9])
            for w in map(str.split, cells) if w[1].startswith("bb")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}

    searches = []
    for family, n in SEARCH_CASES:
        probes = {name: [] for name in trees}
        for k in range(SEARCH_ROUNDS):
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            for name in order:
                probes[name].append(python_probe(trees[name], SEARCH_PROBE, family, n))
        entry = {"family": family, "n": n, "seed": 1}
        for name, runs in probes.items():
            entry[name] = {"s": min(r["s"] for r in runs), "runs_s": [r["s"] for r in runs],
                           "matvecs": runs[0]["matvecs"], "t": runs[0]["t"]}
        every = [r for runs in probes.values() for r in runs]
        entry["same_t"] = all(r["t"] == every[0]["t"] for r in every)
        searches.append(entry)

    perfbench = sweep_perfbench(trees, PERFBENCH, same=_same)
    for entry in perfbench:
        entry["bb_matvecs"] = {name: _bb_matvecs(runs[0]["cells"])
                               for name, runs in entry["runs"].items()}
    report = {
        "what": "Cost of bb's first Wolfe search, and the perfbench --trace 0 results of "
                "all three workloads, for the parent and this change on one machine.",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "machine": platform.machine()},
        "first_search": searches,
        "perfbench": perfbench,
    }
    with open(os.path.join(ROOT, "BENCH_10.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for e in searches:
        p, c = e["parent"], e["change"]
        print(f"first search {e['family']} n={e['n']}: {p['s']:.4f} -> {c['s']:.4f} s, "
              f"matvecs {p['matvecs']} -> {c['matvecs']}, t {c['t']}, same t: {e['same_t']}")
    for e in perfbench:
        solve = f"{e['parent']['solve_s']['median']:.2f} -> {e['change']['solve_s']['median']:.2f}"
        print(f"{e['workload']} seed {e['seed']}: solve_s median {solve} s, change won "
              f"{e['change_won']['solve_s']}/{e['pairs']}, correct: {e['all_correct']}, "
              f"cells match: {e['cells_match']}, bb matvecs {e['bb_matvecs']}")


if __name__ == "__main__":
    main()
