"""Helpers the sweep scripts share to compare two checkouts side by side.

Every measurement runs in a fresh Python process that imports the package
from one tree's ``src/``, and the two trees ("parent" and "change")
alternate, so both see the same machine at about the same time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys


def python_probe(tree, code, *args):
    """Run ``code`` in a fresh process on ``tree``'s package and return the
    JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def run_perfbench(tree, workload, seed):
    """One ``perfbench/run.py --seconds 20 --trace 0`` run in ``tree``: its
    result line, with the run's cell lines under ``"cells"``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench {workload} in {tree} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["cells"] = [line for line in lines if line.startswith("cell ")]
    return result


def summary(runs):
    """Median and quartiles of every end-to-end metric over one tree's runs."""
    out = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[key] = {"median": q2, "q1": q1, "q3": q3}
    return out


def sweep_perfbench(trees, plan, same=lambda cell: cell):
    """Run perfbench pairs for each ``(workload, seed, pairs)`` of ``plan``,
    alternating which tree goes first.  ``same(cell)`` is the part of a cell
    line that must match across every run of both trees."""
    entries = []
    for workload, seed, pairs in plan:
        runs = {"parent": [], "change": []}
        for k in range(pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for name in order:
                runs[name].append(run_perfbench(trees[name], workload, seed))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        first = [same(cell) for cell in runs["parent"][0]["cells"]]
        entries.append({
            "workload": workload,
            "seed": seed,
            "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                       "--seconds 20 --trace 0",
            "pairs": pairs,
            "parent": parent,
            "change": change,
            # Pairs in which the change's value was the lower (all five
            # metrics are better lower).
            "change_won": {
                key: sum(c["metrics"][key]["value"] < p["metrics"][key]["value"]
                         for p, c in zip(runs["parent"], runs["change"]))
                for key in parent
            },
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for r in runs["parent"] + runs["change"]),
            "cells_match": all([same(cell) for cell in r["cells"]] == first
                               for r in runs["parent"] + runs["change"]),
            "runs": runs,
        })
    return entries
