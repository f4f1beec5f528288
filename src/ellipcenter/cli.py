"""Command-line benchmark harness.

Example::

    ellipcenter-bench --instance diag --n 1000 --seed 7 --eps 1e-8 \
        --eps-mode rel --out report.csv

Exit code 0 means every cell stopped at the gradient tolerance.  When --out
is given, per-instance metadata is written next to it as JSON lines
(<out>.instances.jsonl).  A run that stops before its report is written
leaves no new file behind.  Each cell that raised is named on stderr with
its exception text.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    DEFAULT_METHODS,
    METHODS,
    BenchConfig,
    all_converged,
    emit_report,
    run_benchmark,
)
from .generators import (
    InstanceFamily,
    InstanceSpec,
    ProblemFormatError,
    write_instance_metadata,
)
from .solver import EpsilonMode


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="ellipcenter-bench",
        description="Run quadratic-minimization solvers over generated or "
        "file-based instances and emit a report.",
    )
    parser.add_argument(
        "--instance",
        action="append",
        required=True,
        metavar="{diag,dense,file:PATH}",
        help="instance family to generate, or file:PATH to load; repeatable",
    )
    parser.add_argument(
        "--n",
        default="100",
        help="comma-separated sizes for generated instances (default 100)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument(
        "--b-scale", type=float, default=InstanceSpec.b_scale,
        help="b entries are uniform on [0, B_SCALE] (default %(default)g)",
    )
    parser.add_argument(
        "--methods",
        default=",".join(DEFAULT_METHODS),
        help=f"comma-separated subset of {','.join(METHODS)} "
        "(default: all but grad-wolfe)",
    )
    parser.add_argument(
        "--eps", type=float, default=BenchConfig.epsilon, help="gradient tolerance"
    )
    parser.add_argument(
        "--eps-mode", choices=[m.value for m in EpsilonMode],
        default=BenchConfig.epsilon_mode.value,
        help="absolute threshold, or relative to the initial gradient norm",
    )
    parser.add_argument(
        "--max-iters", type=int, default=BenchConfig.max_iterations,
        help="iteration cap for every solve",
    )
    parser.add_argument("--out", default=None, help="report file (default: stdout)")
    parser.add_argument(
        "--format", choices=["csv", "markdown"], default="csv", help="report format"
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="write per-cell iteration traces as CSV into this directory",
    )
    return parser.parse_args(argv)


def _build_instances(args):
    try:
        sizes = [int(part) for part in str(args.n).split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--n must be a comma-separated list of integers, got {args.n!r}")
    instances = []
    for item in args.instance:
        if item.startswith("file:"):
            path = item[len("file:"):]
            try:
                open(path).close()  # a missing file stops the run before any solve
            except OSError as exc:
                raise SystemExit(f"problem file {path}: {exc.strerror}")
            instances.append(path)
            continue
        try:
            family = InstanceFamily(item)
        except ValueError:
            raise SystemExit(
                f"unknown --instance {item!r}; expected diag, dense or file:PATH"
            )
        for n in sizes:
            instances.append(
                InstanceSpec(family=family, n=n, seed=args.seed, b_scale=args.b_scale)
            )
    return instances


def _check_report_files(out):
    # Opened for appending, so no existing report is truncated before the run;
    # a file the check made is removed again, so a run that stops before its
    # report leaves none behind.
    for path in (out, f"{out}.instances.jsonl"):
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise SystemExit(f"report file {path}: {exc.strerror}")
        if not existed:
            os.remove(path)


def _print_errors(report, methods):
    # The reports omit BenchRow.error, so stderr is where a failed cell's
    # reason shows.  Rows come in grid order, one per method of each instance.
    for k, row in enumerate(report.rows):
        if row.error is not None:
            position = k // len(methods)
            family = report.instances[position]["family"]
            print(f"error: {row.method} on {family} n={row.n} (instance {position}): "
                  f"{row.error}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.out is not None:
        _check_report_files(args.out)
    methods = tuple(m for m in args.methods.split(",") if m)
    try:
        cfg = BenchConfig(
            instances=tuple(_build_instances(args)),
            methods=methods,
            epsilon=args.eps,
            epsilon_mode=EpsilonMode(args.eps_mode),
            max_iterations=args.max_iters,
            trace_dir=args.trace_dir,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}")

    try:
        report = run_benchmark(cfg)
    except ProblemFormatError as exc:
        raise SystemExit(f"problem file {exc.filename}: {exc}")
    except OSError as exc:
        # Every problem file was opened above, so the error is the trace
        # directory's or one of its files'.
        if cfg.trace_dir is None:
            raise
        raise SystemExit(f"trace directory {cfg.trace_dir}: {exc.strerror}")
    text = emit_report(report, format=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_instance_metadata(f"{args.out}.instances.jsonl", report.instances)
    _print_errors(report, cfg.methods)
    return 0 if all_converged(report) else 1


if __name__ == "__main__":
    sys.exit(main())
