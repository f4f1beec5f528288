"""How the sweep scripts compare two checkouts side by side.

A sweep takes ``--parent PATH --out PATH``: PATH is a checkout of the commit
to compare against, for instance one made with ``git clone . /tmp/parent &&
git -C /tmp/parent checkout REV``, and the checkout the script lives in is
the change.  Every measurement runs in a fresh Python process that imports
the package from one tree's ``src/``, and the two trees ("parent" and
"change") alternate, so both see the same machine at about the same time.
The report is one JSON file: ``what`` it measures, the ``environment``, the
sweep's own parts, and its ``perfbench`` entries, the pairs of ``PLAN`` that
every sweep runs.  The environment holds the cores, Python version and
machine, the sweep script's file name, and per tree its path, ``git rev-parse
HEAD``, whether ``git status --porcelain`` listed anything (both null off a
git checkout) and the numpy it imports: check out each HEAD and run the script
to rerun the report.  An entry holds, per tree, the medians and quartiles of
every end-to-end metric over its runs, the pairs the change won on each, and
each run's result, cell lines and perfbench's own ``environment`` line (numpy,
BLAS and caches).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (workload, seed, pairs) of every sweep's perfbench entries; seed 5 of
# diag-64-tracedir is a seed no change was tuned on.
PLAN = [("diag-10k", 1, 10), ("diag-64-tracedir", 1, 10), ("diag-64-tracedir", 5, 4),
        ("rank1-1m", 1, 10)]

# Runs in the fresh process: the numpy a tree's measurements import.
NUMPY_PROBE = r"""
import json, numpy
print(json.dumps({"numpy": numpy.__version__}))
"""


def trees(doc, argv=None):
    """Parse a sweep's required ``--parent`` and ``--out`` (``doc``'s first
    line describes it) and return the two checkouts by name, and the report
    path."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    parser.add_argument("--out", required=True, help="path of the JSON report to write")
    args = parser.parse_args(argv)
    existed = os.path.exists(args.out)
    try:
        open(args.out, "a").close()  # an unwritable report stops the sweep before it runs
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    if not existed:
        os.remove(args.out)  # so that the report does not show in its own tree's git status
    parent = os.path.abspath(args.parent)
    if len(parent) != len(ROOT):
        print(f"warning: the parent's path has {len(parent)} characters and this checkout's "
              f"{len(ROOT)}; perfbench's diag-10k setup_s follows a checkout's path length, so "
              "clone the parent to a path of the same length", file=sys.stderr)
    return {"parent": parent, "change": ROOT}, args.out


def python_probe(tree, code, *args):
    """Run ``code`` in a fresh process on ``tree``'s package and return the
    JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def alternate(trees, rounds, code, *args):
    """``rounds`` results of ``python_probe(tree, code, *args)`` per tree, the
    trees taking turns to go first."""
    out = {name: [] for name in trees}
    for k in range(rounds):
        for name in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            out[name].append(python_probe(trees[name], code, *args))
    return out


def run_perfbench(tree, workload, seed):
    """One ``perfbench/run.py --seconds 20 --trace 0`` run in ``tree``: its
    result line, with the run's cell lines under ``"cells"`` and its
    environment line under ``"environment"``."""
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
    result["environment"] = next((json.loads(line.split(" ", 1)[1]) for line in lines
                                  if line.startswith("environment ")), None)
    return result


def summary(runs):
    """Median and quartiles of every end-to-end metric over one tree's runs."""
    out = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[key] = {"median": q2, "q1": q1, "q3": q3}
    return out


def sweep_perfbench(trees):
    """Run perfbench pairs for each ``(workload, seed, pairs)`` of ``PLAN``,
    alternating which tree goes first.  Cell lines must match across every
    run of both trees."""
    entries = []
    for workload, seed, pairs in PLAN:
        runs = {"parent": [], "change": []}
        for k in range(pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for name in order:
                runs[name].append(run_perfbench(trees[name], workload, seed))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        first = runs["parent"][0]["cells"]
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
            "cells_match": all(r["cells"] == first for r in runs["parent"] + runs["change"]),
            "runs": runs,
        })
    return entries


def _git(tree, *args):
    proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _checkout(tree):
    # A directory inside some other checkout is not a checkout of its own.
    top = _git(tree, "rev-parse", "--show-toplevel")
    git = top is not None and os.path.realpath(top) == os.path.realpath(tree)
    status = _git(tree, "status", "--porcelain") if git else None
    return {"path": tree, "head": _git(tree, "rev-parse", "HEAD") if git else None,
            "dirty": None if status is None else status != "", **python_probe(tree, NUMPY_PROBE)}


def write_report(path, script, trees, what, parts, perfbench):
    """Write the report to ``path``: ``what``, the environment of ``script``
    (the sweep's file) and of ``trees``, each of ``parts`` and the
    ``perfbench`` entries; then print one line per entry."""
    report = {
        "what": what,
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "machine": platform.machine(), "script": os.path.basename(script),
                        "trees": {name: _checkout(tree) for name, tree in trees.items()}},
        **parts,
        "perfbench": perfbench,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for e in perfbench:
        line = ", ".join(f"{k} {e['parent'][k]['median']:.4g} -> {e['change'][k]['median']:.4g} "
                         f"({e['change_won'][k]}/{e['pairs']})" for k in e["parent"])
        print(f"{e['workload']} seed {e['seed']}: {line}; correct: {e['all_correct']}, "
              f"cells match: {e['cells_match']}")
