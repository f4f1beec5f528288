"""Benchmark harness: solve a method-by-instance grid and report the results.

Each cell runs one solver on one instance from the shared start x1 = 0 under
the shared stopping rule; the reported time is the CPU time of the solve call,
instance construction excluded.
Cells run sequentially so that two runs of the same configuration produce
identical iteration counts and objective values row for row.
"""

from __future__ import annotations

import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (
    BBVariant,
    bb_solve,
    cg_solve,
    fast_gradient_solve,
    gradient_optimal_step_solve,
    gradient_wolfe_solve,
)
from .generators import InstanceSpec, generate, instance_metadata, load_problem
from .solver import EpsilonMode, SolveOptions, Termination, me_solve
from .trace import _PackedTrace, write_trace_csv

__all__ = [
    "METHODS",
    "DEFAULT_METHODS",
    "BenchConfig",
    "BenchRow",
    "BenchReport",
    "run_benchmark",
    "emit_report",
]

# Method name -> solve call (problem, x1, options).  Each call looks its
# solver up in this module's namespace when it runs, so a wrapper installed
# there (a profiler or a test) sees every solve.
METHODS = {
    "me": lambda p, x1, o: me_solve(p, x1, o),
    "grad": lambda p, x1, o: gradient_optimal_step_solve(p, x1, o),
    "fast": lambda p, x1, o: fast_gradient_solve(p, x1, o),
    "bb-long": lambda p, x1, o: bb_solve(p, x1, BBVariant(short_steps=False), o),
    "bb-short": lambda p, x1, o: bb_solve(p, x1, BBVariant(short_steps=True), o),
    "cg": lambda p, x1, o: cg_solve(p, x1, o),
    "grad-wolfe": lambda p, x1, o: gradient_wolfe_solve(p, x1, o),
}
# grad-wolfe is opt-in; it is far too slow to be worth reporting by default.
DEFAULT_METHODS = tuple(m for m in METHODS if m != "grad-wolfe")


@dataclass(frozen=True)
class BenchConfig:
    """Grid definition: instances (specs or file paths) times methods."""

    instances: tuple
    methods: tuple = DEFAULT_METHODS
    epsilon: float = SolveOptions.epsilon
    epsilon_mode: EpsilonMode = SolveOptions.epsilon_mode
    max_iterations: int = SolveOptions.max_iterations
    trace_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.instances:
            raise ValueError("config needs at least one instance")
        if not self.methods:
            raise ValueError("config needs at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; known: {list(METHODS)}")
        # Settings every solve would reject stop the run before any instance
        # is built.
        SolveOptions(self.epsilon, self.epsilon_mode, self.max_iterations)


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    condition_number: float
    cpu_time_seconds: float
    iterations: int
    optimal_value: float
    terminated_by: str
    seed: int | None
    # "ExceptionType: message" of a cell that raised; the reports omit it.
    error: str | None = None


@dataclass(frozen=True)
class BenchReport:
    """One row per cell, and the metadata dict of each instance in grid order."""

    rows: tuple
    instances: tuple = ()


def _materialize(instance):
    spec = instance if isinstance(instance, InstanceSpec) else None
    problem = generate(spec) if spec else load_problem(instance)
    return problem, instance_metadata(spec, problem)


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Solve every (instance, method) cell and collect one row per cell.

    Each cell is solved once, and its CPU time is that of the solve call;
    instance construction happens outside it.  A failing cell is recorded
    with terminated_by = "error" and its exception text in ``error``, and
    the harness moves on.  With ``trace_dir``, the directory is made before
    the first instance is built, and every cell writes its trace, a failing
    one the steps it reached.
    """
    options = SolveOptions(cfg.epsilon, cfg.epsilon_mode, cfg.max_iterations)
    traced = cfg.trace_dir is not None
    if traced:
        os.makedirs(cfg.trace_dir, exist_ok=True)
    rows = []
    instances = []
    for position, instance in enumerate(cfg.instances):
        problem, meta = _materialize(instance)
        instances.append(meta)
        x1 = np.zeros(problem.dim)
        for method in cfg.methods:
            # A traced cell's packed records, dropped once written.
            trace = _PackedTrace() if traced else None
            cell_options = replace(options, observer=trace)
            start = time.process_time()
            try:
                result = METHODS[method](problem, x1, cell_options)
            except Exception as exc:  # record the cell, keep the grid going
                error = f"{type(exc).__name__}: {exc}"
                cpu_time, iterations, f_final, term = math.nan, 0, math.nan, "error"
            else:
                cpu_time = time.process_time() - start
                error = None
                iterations, f_final = result.iterations, result.f_final
                term = result.terminated_by.value
            if traced:
                # The grid position keeps names apart when two instances
                # share a family and size, such as two problem files.
                name = f"{method}_{meta['family']}_{problem.dim}_{position}.csv"
                write_trace_csv(os.path.join(cfg.trace_dir, name), trace)
            rows.append(
                BenchRow(
                    method=method,
                    n=problem.dim,
                    condition_number=meta["condition_number"],
                    cpu_time_seconds=cpu_time,
                    iterations=iterations,
                    optimal_value=f_final,
                    terminated_by=term,
                    seed=meta["seed"],
                    error=error,
                )
            )
    return BenchReport(rows=tuple(rows), instances=tuple(instances))


_COLUMNS = ("method", "n", "cond", "cpu_s", "iters", "fval", "term", "seed")


def _cell(value, fmt="{:.6g}"):
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt.format(value)
    return str(value)


def _row_cells(row: BenchRow):
    return [
        row.method,
        str(row.n),
        _cell(row.condition_number),
        _cell(row.cpu_time_seconds),
        str(row.iterations),
        _cell(row.optimal_value),
        row.terminated_by,
        _cell(row.seed),
    ]


def emit_report(report: BenchReport, format: str = "csv", path=None) -> str:
    """Render the report as CSV or a markdown pipe table; optionally write it.

    Objective values are printed with six significant digits.
    """
    if not report.rows:
        raise ValueError("report has no rows")
    buf = io.StringIO()
    if format == "csv":
        buf.write(",".join(_COLUMNS) + "\n")
        for row in report.rows:
            buf.write(",".join(_row_cells(row)) + "\n")
    elif format == "markdown":
        buf.write("| " + " | ".join(_COLUMNS) + " |\n")
        buf.write("|" + "|".join(["---"] * len(_COLUMNS)) + "|\n")
        for row in report.rows:
            buf.write("| " + " | ".join(_row_cells(row)) + " |\n")
    else:
        raise ValueError(f"unknown format {format!r}; use csv or markdown")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def all_converged(report: BenchReport) -> bool:
    return all(
        row.terminated_by == Termination.GRADIENT_TOLERANCE.value
        for row in report.rows
    )
