"""Benchmark of the ellipcenter-bench CLI: three workloads, end-to-end and
per-layer metrics, a correctness oracle and a determinism gate.

    python3 perfbench/run.py --workload diag-10k --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each pass runs the workload once, in a fresh process (``probe.py``), through
``ellipcenter.cli.main(argv)``.  ``--trace 0`` makes plain passes until
``--seconds`` have passed, at least two, and reports the medians of the
end-to-end metrics.  ``--trace 1`` makes one plain pass and one span pass and
reports the per-layer metrics of the span pass.  Either way every pass must
agree cell by cell (iterations, matvecs, termination, f_final to 1e-10
relative) and every cell must reach the closed-form minimum to 1e-8
relative; otherwise the run prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and record the environment.  See README.md
in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EPSILON = 1e-8  # gradient tolerance, relative to the initial gradient
F_TOLERANCE = 1e-8  # |f_final - f*| / |f*| a correct cell stays within
F_REPEAT = 1e-10  # relative f_final agreement between passes
DEADLINE_S = 170.0  # the whole run ends within this
SETUP_BUDGET_S = 0.2  # set-up samples taken between two passes fit in this

# README.md says why each workload exists and why the method lists leave out
# grad everywhere and fast on diag-10k: the run-time budget.
WORKLOADS = {
    "diag-10k": {
        "n": 10_000,
        "instances": ["diag"],
        "methods": "me,bb-long,bb-short,cg",
    },
    "diag-64-tracedir": {
        "n": 64,
        "instances": ["diag"],
        "methods": "me,fast,bb-long,bb-short,cg",
        "trace_dir": True,
    },
    "rank1-1m": {
        "n": 1_000_000,
        "instances": ["dense", "file"],
        "methods": "me,cg,bb-long,bb-short",
    },
}

# Methods the workloads run, with the layer prefix of their metrics.
LAYERS = {"me": "solver.me", "fast": "baselines.fast", "bb-long": "baselines.bb-long",
          "bb-short": "baselines.bb-short", "cg": "baselines.cg"}


class BenchError(Exception):
    """The run cannot produce a result line."""


def _problem_file(work):
    return os.path.join(work, "problem.txt")


def _argv(name, seed, work):
    w = WORKLOADS[name]
    argv = []
    for kind in w["instances"]:
        source = f"file:{_problem_file(work)}" if kind == "file" else kind
        argv += ["--instance", source]
    argv += [
        "--n", str(w["n"]), "--seed", str(seed),
        "--eps", repr(EPSILON), "--eps-mode", "rel",
        "--methods", w["methods"],
        "--out", os.path.join(work, "report.csv"),
    ]
    if w.get("trace_dir"):
        argv += ["--trace-dir", os.path.join(work, "traces")]
    return argv


def _setup(name, seed, work):
    """Build every instance of the workload once, through the same public
    calls the CLI makes; return the seconds it took."""
    from ellipcenter.generators import InstanceFamily, InstanceSpec, generate, load_problem

    n = WORKLOADS[name]["n"]
    t0 = time.perf_counter()
    for kind in WORKLOADS[name]["instances"]:
        if kind == "file":
            load_problem(_problem_file(work))
        else:
            generate(InstanceSpec(InstanceFamily(kind), n, seed))
    return time.perf_counter() - t0


def _setup_samples(name, seed, work, expected_s):
    """Set-up samples taken between passes, so that they fall at several
    moments of the run, while the next one is expected to fit the budget."""
    samples = []
    spent = 0.0
    while len(samples) < 20 and spent + expected_s <= SETUP_BUDGET_S:
        expected_s = _setup(name, seed, work)
        samples.append(expected_s)
        spent += expected_s
    return samples


def _prepare(name, seed, work):
    """Write the problem file a workload loads, before anything is timed.

    Generating the instance for the file and loading the file back (which
    checks it) make one set-up sample; the list is empty otherwise.
    """
    if "file" not in WORKLOADS[name]["instances"]:
        return []
    from ellipcenter.generators import (
        InstanceFamily, InstanceSpec, generate, load_problem, save_problem,
    )

    path = _problem_file(work)
    t0 = time.perf_counter()
    problem = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, WORKLOADS[name]["n"], seed))
    generate_s = time.perf_counter() - t0
    save_problem(problem, path)
    t0 = time.perf_counter()
    loaded = load_problem(path)
    load_s = time.perf_counter() - t0
    if not (np.array_equal(loaded.b, problem.b) and np.array_equal(loaded.A.v, problem.A.v)):
        raise BenchError(f"{path} does not load back to the instance saved in it")
    return [generate_s + load_s]


def _pass(mode, argv, work, deadline):
    """Run one pass in a fresh process and return what it measured."""
    spec_path = os.path.join(work, "pass.json")
    out_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({
            "root": ROOT, "argv": argv, "mode": mode, "epsilon": EPSILON,
            "f_tolerance": F_TOLERANCE,
        }, fh)
    if os.path.exists(out_path):
        os.remove(out_path)
    shutil.rmtree(os.path.join(work, "traces"), ignore_errors=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), spec_path, out_path],
            stdout=sys.stderr, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(out_path):
        raise BenchError(f"{mode} pass failed with exit code {proc.returncode}")
    with open(out_path) as fh:
        return json.load(fh)


def _gate(passes):
    """Differences between passes in anything that must repeat exactly."""
    keys = ("method", "instance", "n", "iterations", "terminated_by", "matvecs")
    first = passes[0]["cells"]
    problems = []
    for k, other in enumerate(passes[1:], start=2):
        cells = other["cells"]
        if len(cells) != len(first):
            problems.append(f"pass {k} ran {len(cells)} cells, pass 1 ran {len(first)}")
            continue
        for a, b in zip(first, cells):
            diff = [key for key in keys if a[key] != b[key]]
            fa, fb = a["f_final"], b["f_final"]
            if fa is not None and fb is not None:
                if not abs(fa - fb) <= F_REPEAT * max(abs(fa), abs(fb)):
                    diff.append("f_final")
            elif fa != fb:
                diff.append("f_final")
            if diff:
                problems.append(
                    f"{a['method']} on instance {a['instance']}: pass {k} differs in "
                    f"{', '.join(diff)} ({[a[d] for d in diff]} vs {[b[d] for d in diff]})"
                )
    return problems


def _cell_failures(name, passes):
    w = WORKLOADS[name]
    expected = len(w["instances"]) * len(w["methods"].split(","))
    failures = []
    for k, p in enumerate(passes, start=1):
        if len(p["cells"]) != expected:
            failures.append(f"pass {k}: {len(p['cells'])} cells, expected {expected}")
        if p["exit_code"] != 0:
            failures.append(f"pass {k}: ellipcenter-bench exit code {p['exit_code']}")
        for c in p["cells"]:
            if c["reason"]:
                failures.append(f"pass {k}: {c['method']} on instance {c['instance']}: {c['reason']}")
    return failures


def _end_to_end(passes, setup_samples):
    metrics = {
        key: statistics.median(p[key] for p in passes)
        for key in ("wall_s", "solve_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup_samples + [p["setup_s"] for p in passes])
    return metrics


def _per_layer(plain, span):
    spans = span["spans"]

    def total(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    calls = total("quadratic.matvec", "calls")
    matvec_self = total("quadratic.matvec", "self_s")
    m["quadratic.matvec.calls"] = calls
    m["quadratic.matvec.self_s"] = matvec_self
    m["quadratic.matvec.us_per_call"] = ratio(matvec_self * 1e6, calls)
    m["quadratic.matvec.gb_computed"] = span["matvec_bytes"] / 1e9
    for method, prefix in LAYERS.items():
        cells = [c for c in span["cells"] if c["method"] == method]
        iters = sum(c["iterations"] or 0 for c in cells)  # an error cell has None
        solve_s = sum(c["wall_s"] for c in cells)
        m[f"{prefix}.iterations"] = iters
        m[f"{prefix}.solve_s"] = solve_s
        m[f"{prefix}.us_per_iter"] = ratio(solve_s * 1e6, iters)
        m[f"{prefix}.matvecs_per_iter"] = ratio(sum(c["matvecs"] for c in cells), iters)
    m["solver.me.midpoint_steps"] = span["midpoint_steps"]
    m["solver.me_iterate.us"] = span["me_iterate_us"]
    m["baselines.wolfe_search.calls"] = total("baselines.wolfe_search", "calls")
    gen_s = total("generators.generate")
    m["generators.generate.s"] = gen_s
    m["generators.generate.draws_per_s"] = ratio(span["draws"], gen_s)
    m["generators.load_problem.s"] = total("generators.load_problem")
    m["generators.load_problem.bytes"] = span["load_bytes"]
    m["bench.run_benchmark.self_s"] = total("bench.run_benchmark", "self_s")
    m["bench.write_trace_csv.s"] = total("bench.write_trace_csv")
    m["bench.write_trace_csv.rows"] = span["trace_rows"]
    m["bench.write_trace_csv.bytes"] = span["trace_bytes"]
    m["bench.emit_report.s"] = total("bench.emit_report")
    m["cli.main.self_s"] = total("cli.main", "self_s")
    m["trace.overhead"] = span["wall_s"] / plain["wall_s"]
    return m


def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        sizes[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    return sizes


def _blas():
    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _environment(name, seed):
    n = WORKLOADS[name]["n"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches": _cache_sizes(),
        "workload": name,
        "seed": seed,
        "largest_array_bytes": 8 * n,
    }


def _declared(trace):
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run(name, seed, seconds, trace, work):
    deadline = time.monotonic() + DEADLINE_S
    units = _declared(trace)
    setup_samples = _prepare(name, seed, work)
    argv = _argv(name, seed, work)
    if trace:
        passes = [_pass("plain", argv, work, deadline), _pass("span", argv, work, deadline)]
    else:
        start = time.monotonic()
        passes = []
        while len(passes) < 2 or time.monotonic() - start < seconds:
            expected = passes[-1]["setup_s"] if passes else max(setup_samples, default=0.0)
            setup_samples += _setup_samples(name, seed, work, expected)
            passes.append(_pass("plain", argv, work, deadline))
        setup_samples += _setup_samples(name, seed, work, passes[-1]["setup_s"])
    failures = _cell_failures(name, passes) + _gate(passes)
    metrics = _per_layer(passes[0], passes[1]) if trace else _end_to_end(passes, setup_samples)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are not as BENCHMARK.json declares")
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(1 for p in passes for c in p["cells"] if c["reason"])
    ordered = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    return failures, ordered, attempted, failed, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ellipcenter", "cli.py")):
        print(f"perfbench: no ellipcenter sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        failures, metrics, attempted, failed, passes = run(
            args.workload, args.seed, args.seconds, args.trace, work
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for c in passes[0]["cells"]:
        print(f"cell {c['method']} instance {c['instance']} n {c['n']} iterations {c['iterations']} "
              f"matvecs {c['matvecs']} {c['terminated_by']} f_final {c['f_final']!r}")
    env = _environment(args.workload, args.seed)
    env["passes"] = len(passes)
    print("environment " + json.dumps(env))
    for key, metric in metrics.items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
