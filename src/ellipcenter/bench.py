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
from dataclasses import dataclass

import numpy as np

from .baselines import (
    BBVariant,
    bb_solve,
    cg_solve,
    fast_gradient_solve,
    gradient_optimal_step_solve,
    gradient_wolfe_solve,
)
from .generators import (
    InstanceFamily,
    InstanceSpec,
    generate,
    instance_metadata,
    load_problem,
)
from .solver import (
    EpsilonMode,
    SolveOptions,
    Termination,
    _PackedTrace,
    me_solve,
    write_trace_csv,
)

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

# Dense-family runs cap the fast-gradient method here unless overridden.
FAST_GRADIENT_DENSE_CAP = 1000


@dataclass(frozen=True)
class BenchConfig:
    """Grid definition: instances (specs or file paths) times methods."""

    instances: tuple
    methods: tuple = DEFAULT_METHODS
    epsilon: float = 1e-8
    epsilon_mode: EpsilonMode = EpsilonMode.RELATIVE_TO_INITIAL
    max_iterations: int = 1_000_000
    fast_cap: int | None = None
    repetitions: int = 1
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
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        # Settings every solve would reject stop the run before any instance
        # is built.
        SolveOptions(self.epsilon, self.epsilon_mode, self.max_iterations)
        if self.fast_cap is not None and self.fast_cap < 1:
            raise ValueError("fast_cap must be at least 1")


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


def _method_options(cfg: BenchConfig, method: str, family, observer) -> SolveOptions:
    max_iter = cfg.max_iterations
    if method == "fast":
        if cfg.fast_cap is not None:
            max_iter = min(max_iter, cfg.fast_cap)
        elif family == InstanceFamily.DENSE_RANK_ONE.value:
            max_iter = min(max_iter, FAST_GRADIENT_DENSE_CAP)
    return SolveOptions(
        epsilon=cfg.epsilon,
        epsilon_mode=cfg.epsilon_mode,
        max_iterations=max_iter,
        observer=observer,
    )


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Solve every (instance, method) cell and collect one row per cell.

    Instance construction happens outside the timed region; with
    ``repetitions`` > 1 each cell is re-solved and the minimum CPU time is
    reported.  A failing cell is recorded with terminated_by = "error" and
    its exception text in ``error``, and the harness moves on.
    """
    rows = []
    instances = []
    for position, instance in enumerate(cfg.instances):
        problem, meta = _materialize(instance)
        instances.append(meta)
        x1 = np.zeros(problem.dim)
        for method in cfg.methods:
            solve = METHODS[method]
            # The packed records of a traced cell's last repetition, dropped
            # once written.
            trace = _PackedTrace()
            observer = None if cfg.trace_dir is None else trace
            options = _method_options(cfg, method, meta["family"], observer)
            error = None
            cpu_time = math.inf
            for _ in range(cfg.repetitions):
                trace.clear()
                start = time.process_time()
                try:
                    result = solve(problem, x1, options)
                except Exception as exc:  # record the cell, keep the grid going
                    error = f"{type(exc).__name__}: {exc}"
                    break
                cpu_time = min(cpu_time, time.process_time() - start)
            if error is not None:
                cpu_time, iterations, f_final, term = math.nan, 0, math.nan, "error"
            else:
                iterations, f_final = result.iterations, result.f_final
                term = result.terminated_by.value
                if cfg.trace_dir is not None:
                    os.makedirs(cfg.trace_dir, exist_ok=True)
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
