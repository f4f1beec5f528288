"""Benchmark harness: solve a method-by-instance grid and report the results.

Each cell runs one solver on one instance from the shared start x1 = 0 under
the shared stopping rule; the reported time covers the solve loop only.
Cells run sequentially so that two runs of the same configuration produce
identical iteration counts and objective values row for row.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    BBVariant,
    WolfeParams,
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
    write_instance_metadata,
)
from .solver import EpsilonMode, SolveOptions, Termination, me_solve, write_trace_csv

__all__ = [
    "METHODS",
    "DEFAULT_METHODS",
    "BenchConfig",
    "BenchRow",
    "BenchReport",
    "run_benchmark",
    "emit_report",
]

METHODS = ("me", "grad", "fast", "bb-long", "bb-short", "cg", "grad-wolfe")
# grad-wolfe is opt-in; it is far too slow to be worth reporting by default.
DEFAULT_METHODS = ("me", "grad", "fast", "bb-long", "bb-short", "cg")

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
    record_trace: bool = False
    trace_dir: str | None = None
    wolfe: WolfeParams = field(default_factory=WolfeParams)

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


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    condition_number: float | None
    cpu_time_seconds: float
    iterations: int
    optimal_value: float
    terminated_by: str
    seed: int | None
    # "ExceptionType: message" of a cell that raised; the reports omit it.
    error: str | None = None


@dataclass(frozen=True)
class BenchReport:
    rows: tuple


def _materialize(instance):
    if isinstance(instance, InstanceSpec):
        problem = generate(instance)
        return problem, instance_metadata(instance, problem)
    problem = load_problem(instance)
    bounds = problem.A.eigen_bounds()
    meta = {
        "family": "file",
        "n": problem.dim,
        "seed": None,
        "condition_number": bounds.condition_number if bounds.exact else None,
        "b_scale": None,
    }
    return problem, meta


def _solver_call(method, problem, x1, options, wolfe):
    if method == "me":
        return me_solve(problem, x1, options)
    if method == "grad":
        return gradient_optimal_step_solve(problem, x1, options)
    if method == "fast":
        return fast_gradient_solve(problem, x1, options)
    if method == "bb-long":
        return bb_solve(problem, x1, BBVariant(short_steps=False), wolfe, options)
    if method == "bb-short":
        return bb_solve(problem, x1, BBVariant(short_steps=True), wolfe, options)
    if method == "cg":
        return cg_solve(problem, x1, options)
    if method == "grad-wolfe":
        return gradient_wolfe_solve(problem, x1, wolfe, options)
    raise ValueError(f"unknown method {method!r}")


def _method_options(cfg: BenchConfig, method: str, family) -> SolveOptions:
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
        record_trace=cfg.record_trace or cfg.trace_dir is not None,
    )


def run_benchmark(cfg: BenchConfig, metadata_sink: list | None = None) -> BenchReport:
    """Solve every (instance, method) cell and collect one row per cell.

    Instance construction happens outside the timed region; with
    ``repetitions`` > 1 each cell is re-solved and the minimum wall time is
    reported.  A failing cell is recorded with terminated_by = "error" and
    its exception text in ``error``, and the harness moves on.  ``metadata_sink``, when given, receives the
    per-instance metadata dicts.
    """
    rows = []
    for instance in cfg.instances:
        problem, meta = _materialize(instance)
        if metadata_sink is not None:
            metadata_sink.append(meta)
        x1 = np.zeros(problem.dim)
        for method in cfg.methods:
            options = _method_options(cfg, method, meta["family"])
            result = None
            error = None
            best_time = None
            for _ in range(cfg.repetitions):
                try:
                    candidate = _solver_call(method, problem, x1, options, cfg.wolfe)
                except Exception as exc:  # record the cell, keep the grid going
                    error = f"{type(exc).__name__}: {exc}"
                    break
                if best_time is None or candidate.wall_time_seconds < best_time:
                    best_time = candidate.wall_time_seconds
                result = candidate
            if error is not None:
                rows.append(
                    BenchRow(
                        method=method,
                        n=problem.dim,
                        condition_number=meta["condition_number"],
                        cpu_time_seconds=float("nan"),
                        iterations=0,
                        optimal_value=float("nan"),
                        terminated_by="error",
                        seed=meta["seed"],
                        error=error,
                    )
                )
                continue
            if cfg.trace_dir is not None and result.trace is not None:
                os.makedirs(cfg.trace_dir, exist_ok=True)
                seed_part = meta["seed"] if meta["seed"] is not None else "file"
                name = f"{method}_{problem.dim}_{seed_part}.csv"
                write_trace_csv(os.path.join(cfg.trace_dir, name), result.trace)
            rows.append(
                BenchRow(
                    method=method,
                    n=problem.dim,
                    condition_number=meta["condition_number"],
                    cpu_time_seconds=best_time,
                    iterations=result.iterations,
                    optimal_value=result.f_final,
                    terminated_by=result.terminated_by.value,
                    seed=meta["seed"],
                )
            )
    return BenchReport(rows=tuple(rows))


_CSV_HEADER = "method,n,cond,cpu_s,iters,fval,term,seed"
_MD_HEADER = ("method", "n", "cond", "cpu_s", "iters", "fval", "term", "seed")


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
        buf.write(_CSV_HEADER + "\n")
        for row in report.rows:
            buf.write(",".join(_row_cells(row)) + "\n")
    elif format == "markdown":
        buf.write("| " + " | ".join(_MD_HEADER) + " |\n")
        buf.write("|" + "|".join(["---"] * len(_MD_HEADER)) + "|\n")
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
