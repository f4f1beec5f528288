"""Per-step solver cost of two checkouts, side by side, as one JSON file.

    python3 scripts/step_sweep.py --parent PATH --out BENCH_N.json

``pairing.py`` says how the two trees are compared.  The report gets two
parts:

* ``steps``: microseconds per step of ``me_solve`` and
  ``fast_gradient_solve`` on the diag family, seed 1, at n = 64 (20,000-step
  runs) and n = 10^4 (3,000-step runs), untraced and traced (an observer
  that appends each ``StepRecord`` to a list; a traced benchmark cell packs
  its records instead, so this is the cost of the observer call and the
  record, not of a benchmark trace); the minimum of 3 runs in each of four
  processes per tree, with the bits of ``f_final`` and a digest of
  ``x_final``, which must match between the trees;
* ``perfbench``: the pairs of ``pairing.PLAN`` (``--seconds 20 --trace
  0``), about 26 minutes.

The whole sweep takes about half an hour on two cores.
"""

from __future__ import annotations

import json

from pairing import alternate, sweep_perfbench, trees, write_report

STEP_CASES = [(64, 20_000), (10_000, 3_000)]  # (n, steps per run)
REPEATS = 3  # runs per timing in one process
PROBE_ROUNDS = 4  # processes per tree, alternating; the fastest of all is kept

# Runs in the fresh process: times capped solves.
STEP_PROBE = r"""
import hashlib, json, math, sys, time
import numpy as np
from ellipcenter.baselines import fast_gradient_solve
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.solver import SolveOptions, me_solve

cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
solvers = {"me": me_solve, "fast": fast_gradient_solve}
steps = []
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
            del records
print(json.dumps({"steps": steps}))
"""


def main(argv=None):
    sides, out = trees(__doc__, argv)
    probes = alternate(sides, PROBE_ROUNDS, STEP_PROBE, json.dumps(STEP_CASES), REPEATS)
    # The host's speed drifts for seconds at a time: keep each timing's
    # fastest run over all of a tree's probe processes.
    best = {name: {} for name in sides}
    for name in sides:
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
    perfbench = sweep_perfbench(sides)

    for row in steps:
        print(f"{row['method']:4} n={row['n']:>6} traced={row['traced']!s:5}  "
              f"{row['parent_us']:7.1f} -> {row['change_us']:7.1f} us/step  "
              f"same result: {row['same_result']}")
    write_report(out, __file__, sides,
                 "Per-step cost of me and fast, and the perfbench --trace 0 results of all "
                 "three workloads, for the parent and this change on one machine.",
                 {"steps": steps}, perfbench)


if __name__ == "__main__":
    main()
