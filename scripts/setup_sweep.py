"""Instance set-up of two checkouts, side by side, as one JSON file.

    python3 scripts/setup_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  (``BENCH_7.json`` and
``BENCH_13.json`` are earlier runs of this script, when it also read the
peak RSS of a load and of a save; both hold perfbench medians per workload
rather than ``sweep_perfbench`` entries.)  The report gets two parts:

* ``setup``: seconds of ``generate`` and ``load_problem`` (of the file
  ``save_problem`` wrote) for the diag and dense (rank-one) families at
  n = 10^2 ... 10^6, the minimum of 3 runs in each of four alternating
  processes per tree, with a digest of every generated and loaded array,
  and of every file written, so that bit-identical instances show as equal
  digests;
* ``perfbench``: ``scripts/pairing.py``'s ``sweep_perfbench`` pairs
  (``--seconds 20 --trace 0``): 3 of each workload at seed 1.  Cell lines
  must match across every run of both trees.

The whole sweep takes about eight minutes on two cores.
"""

from __future__ import annotations

import json
import tempfile

from pairing import alternate, sweep_perfbench, trees, write_report

SIZES = [10**k for k in range(2, 7)]
FAMILIES = ["diag", "dense"]
REPEATS = 3  # set-up timings per step in one process
ROUNDS = 4  # processes per tree, alternating; the fastest timing of all is kept
PLAN = [("diag-10k", 1, 3), ("diag-64-tracedir", 1, 3), ("rank1-1m", 1, 3)]

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


def main(argv=None):
    sides, out = trees(__doc__, argv)
    setup = {}
    with tempfile.TemporaryDirectory() as work:
        for family in FAMILIES:
            runs = alternate(sides, ROUNDS, SETUP_PROBE, family, json.dumps(SIZES), REPEATS, work)
            for name, probes in runs.items():
                for rows in zip(*probes):  # one size over all rounds
                    row = dict(rows[0], **{key: min(r[key] for r in rows)
                                           for key in ("generate_s", "load_problem_s")})
                    setup.setdefault((family, row.pop("n")), {})[name] = row
    perfbench = sweep_perfbench(sides, PLAN)

    setup = [{"family": f, "n": n, **by_tree} for (f, n), by_tree in setup.items()]
    for row in setup:
        p, c = row["parent"], row["change"]
        print(f"{row['family']:5} n={row['n']:>7}  generate {p['generate_s']:.4f} -> "
              f"{c['generate_s']:.4f} s  load {p['load_problem_s']:.4f} -> {c['load_problem_s']:.4f} s"
              f"  same arrays: {p['generated'] == c['generated'] and p['loaded'] == c['loaded']}")
    write_report(out, __file__, sides,
                 "Instance set-up (generate, save_problem, load_problem) of the parent and "
                 "this change on one machine, with the perfbench --trace 0 results of all "
                 "three workloads.",
                 {"setup": setup}, perfbench)


if __name__ == "__main__":
    main()
