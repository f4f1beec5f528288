import csv
import io
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import CountingOperator, SplitMix64

import ellipcenter.bench as bench
from ellipcenter.baselines import BBVariant
from ellipcenter.bench import (
    BenchConfig,
    DEFAULT_METHODS,
    METHODS,
    all_converged,
    emit_report,
    run_benchmark,
)
from ellipcenter.generators import InstanceFamily, InstanceSpec, save_problem
from ellipcenter.quadratic import DiagonalOperator, QuadraticProblem
from ellipcenter.solver import EpsilonMode, SolveOptions
from ellipcenter.trace import _BATCH_ROWS


def diag_spec(n, seed=1, **kw):
    return InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, n, seed, **kw)


def mild_diag_file(tmp_path, n, seed=1):
    # Condition number 100 instead of 50000 keeps harness tests quick; the
    # rate of every solver here is conditioning-bound, not size-bound.  Drawn
    # as the diag family is, with entries 1 and 100 at the ends and interior
    # integers on [2, 90]; written as a problem file.
    rng = SplitMix64(seed)
    diag = np.empty(n)
    diag[0], diag[-1] = 1.0, 100.0
    diag[1:-1] = rng.ints(2, 90, n - 2).astype(float)
    path = tmp_path / f"mild_diag_{n}_{seed}.txt"
    save_problem(QuadraticProblem(DiagonalOperator(diag), 1000.0 * rng.floats(n)), path)
    return path


def dense_spec(n, seed=1, **kw):
    return InstanceSpec(InstanceFamily.DENSE_RANK_ONE, n, seed, **kw)


class TestConfigValidation:
    def test_needs_instances(self):
        with pytest.raises(ValueError, match="instance"):
            BenchConfig(instances=(), methods=("me",))

    def test_needs_methods(self):
        with pytest.raises(ValueError, match="method"):
            BenchConfig(instances=(dense_spec(4),), methods=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            BenchConfig(instances=(dense_spec(4),), methods=("me", "newton"))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"epsilon": 0.0}, "epsilon must be positive"),
            ({"epsilon": -1.0}, "epsilon must be positive"),
            ({"max_iterations": 0}, "max_iterations must be at least 1"),
            ({"epsilon": math.inf}, "epsilon must be finite"),
        ],
    )
    def test_bad_solve_settings(self, settings, message):
        # Settings every solve would reject fail with the config, before
        # run_benchmark builds an instance.
        with pytest.raises(ValueError) as info:
            BenchConfig(instances=(dense_spec(4),), **settings)
        assert str(info.value) == message

    def test_default_methods_exclude_grad_wolfe(self):
        assert "grad-wolfe" not in DEFAULT_METHODS
        assert len(DEFAULT_METHODS) == 6


class TestRunBenchmark:
    def test_grid_shape_and_agreement(self, tmp_path):
        cfg = BenchConfig(
            instances=(dense_spec(30, seed=2), mild_diag_file(tmp_path, 20, seed=3)),
            methods=("me", "cg", "grad", "bb-short"),
        )
        report = run_benchmark(cfg)
        assert len(report.rows) == 8
        for instance_rows in (report.rows[:4], report.rows[4:]):
            values = [r.optimal_value for r in instance_rows]
            spread = max(values) - min(values)
            assert spread <= 1e-6 * max(1.0, abs(min(values)))
            assert all(r.terminated_by == "gradient_tolerance" for r in instance_rows)
        assert all_converged(report)

    def test_row_fields(self):
        cfg = BenchConfig(instances=(dense_spec(25, seed=9),), methods=("me",))
        report = run_benchmark(cfg)
        row = report.rows[0]
        assert row.method == "me"
        assert row.n == 25
        assert row.seed == 9
        assert row.condition_number == pytest.approx(
            1.0 + np.asarray(_problem_v(25, 9)) @ np.asarray(_problem_v(25, 9)) / 10.0,
            rel=1e-12,
        )
        assert row.cpu_time_seconds >= 0.0

    def test_determinism(self, tmp_path):
        cfg = BenchConfig(
            instances=(mild_diag_file(tmp_path, 50, seed=4), dense_spec(40, seed=5)),
            methods=("me", "cg", "bb-long", "fast"),
        )
        first = run_benchmark(cfg)
        second = run_benchmark(cfg)
        for a, b in zip(first.rows, second.rows):
            assert a.iterations == b.iterations
            assert a.optimal_value == b.optimal_value
            assert a.terminated_by == b.terminated_by

    def test_max_iterations_caps_fast_on_dense(self):
        # An unreachable absolute tolerance runs fast into the one cap every
        # method shares, on the dense family as on any other.
        cfg = BenchConfig(
            instances=(dense_spec(15, seed=7),),
            methods=("fast",),
            epsilon=1e-300,
            epsilon_mode=EpsilonMode.ABSOLUTE,
            max_iterations=1500,
        )
        report = run_benchmark(cfg)
        assert report.rows[0].iterations == 1500
        assert report.rows[0].terminated_by == "max_iterations"
        assert not all_converged(report)

    def test_error_cell_recorded_and_grid_continues(self, tmp_path):
        # A file instance whose gradient overflows at x1 = 0 loads but breaks
        # every solver; the row records the failure and the next cells still
        # run.
        bad = tmp_path / "overflow.txt"
        bad.write_text("diag 2\n1 2\nb\n1e200 1e200\n")
        cfg = BenchConfig(
            instances=(str(bad), dense_spec(10, seed=8)),
            methods=("cg", "me"),
        )
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            report = run_benchmark(cfg)
        assert len(report.rows) == 4
        assert report.rows[0].terminated_by == "error"
        assert report.rows[0].error == "RuntimeError: cg: gradient norm is inf; aborting"
        assert report.rows[1].error == "RuntimeError: me: gradient norm is inf; aborting"
        assert math.isnan(report.rows[0].optimal_value)
        assert report.rows[0].seed is None
        assert report.rows[2].terminated_by == "gradient_tolerance"
        assert report.rows[2].error is None
        assert not all_converged(report)

    def test_trace_files_written(self, tmp_path):
        trace_dir = tmp_path / "traces"
        cfg = BenchConfig(
            instances=(dense_spec(12, seed=3),),
            methods=("me", "cg"),
            trace_dir=str(trace_dir),
        )
        run_benchmark(cfg)
        me_trace = trace_dir / "me_dense_12_0.csv"
        cg_trace = trace_dir / "cg_dense_12_0.csv"
        assert me_trace.exists() and cg_trace.exists()
        with open(me_trace) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["branch"] in ("ellipse_center", "midpoint")
        with open(cg_trace) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["branch"] == ""
        assert rows[0]["t"] == rows[0]["delta"] == rows[0]["alpha"] == ""

    def test_trace_dir_made_before_any_instance(self, tmp_path, monkeypatch):
        def no_build(spec):
            raise AssertionError("an instance was built before the trace directory")

        monkeypatch.setattr(bench, "generate", no_build)
        not_a_dir = tmp_path / "traces"
        not_a_dir.write_text("")
        cfg = BenchConfig(instances=(dense_spec(8),), methods=("me",),
                          trace_dir=str(not_a_dir))
        with pytest.raises(FileExistsError):
            run_benchmark(cfg)
        made = tmp_path / "a" / "b"
        cfg = BenchConfig(instances=(dense_spec(8),), methods=("me",), trace_dir=str(made))
        with pytest.raises(AssertionError, match="an instance was built"):
            run_benchmark(cfg)
        assert made.is_dir()

    @pytest.mark.parametrize("steps", [0, 3, _BATCH_ROWS + 5])
    def test_error_cell_keeps_its_trace(self, tmp_path, monkeypatch, steps):
        # A solve that raises after `steps` observed steps leaves a trace of
        # those rows, the header alone when it raised before its first step.
        real_fast = bench.fast_gradient_solve

        def failing_fast(problem, x1, options):
            seen = []

            def observer(x, g, record):
                if len(seen) == steps:
                    raise RuntimeError("injected")
                seen.append(record)
                options.observer(x, g, record)

            return real_fast(problem, x1, replace(options, observer=observer))

        monkeypatch.setattr(bench, "fast_gradient_solve", failing_fast)
        cfg = BenchConfig(instances=(diag_spec(20),), methods=("fast", "cg"),
                          max_iterations=1000, trace_dir=str(tmp_path))
        report = run_benchmark(cfg)
        assert report.rows[0].error == "RuntimeError: injected"
        with open(tmp_path / "fast_diag_20_0.csv", newline="") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iter,branch,f,grad_norm,t,delta,alpha,beta"
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(i) for i in range(1, steps + 1)
        ]
        assert report.rows[1].terminated_by == "gradient_tolerance"

    def test_trace_longer_than_a_batch_is_complete(self, tmp_path):
        # The capped diag cells of me and fast run past two packed batches;
        # each trace holds the header and every step, numbered in order.
        cfg = BenchConfig(instances=(diag_spec(20),), methods=("me", "fast"),
                          max_iterations=600, trace_dir=str(tmp_path))
        assert [row.iterations for row in run_benchmark(cfg).rows] == [600, 600]
        for name in ("me_diag_20_0.csv", "fast_diag_20_0.csv"):
            lines = (tmp_path / name).read_bytes().splitlines()
            assert len(lines) == 601 > 2 * _BATCH_ROWS
            assert [line.split(b",")[0] for line in lines[1:]] == [
                str(i).encode() for i in range(1, 601)
            ]

    def test_traced_cell_holds_packed_steps(self, tmp_path):
        # A traced cell keeps its steps until it writes them.  Packed, a
        # center step holds 49 bytes of numbers and code; a StepRecord of
        # Python floats held about 250.
        def peak(trace_dir):
            cfg = BenchConfig(instances=(diag_spec(64),), methods=("me",),
                              max_iterations=20_000, trace_dir=trace_dir)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                row = run_benchmark(cfg).rows[0]
                return tracemalloc.get_traced_memory()[1] - base, row.iterations
            finally:
                tracemalloc.stop()

        untraced, steps = peak(None)
        traced, traced_steps = peak(str(tmp_path))
        assert steps == traced_steps == 20_000
        assert traced - untraced < 64 * steps

    def test_trace_names_unique_per_cell(self, tmp_path):
        # Two files of one size, and a diag and a dense instance of one size
        # and seed, each get their own trace file, holding their own run.
        small = tmp_path / "small.txt"
        small.write_text("diag 3\n1 5 25\nb\n1 2 3\n")
        trace_dir = tmp_path / "traces"
        cfg = BenchConfig(
            instances=(
                str(mild_diag_file(tmp_path, 3)), str(small),
                diag_spec(20, seed=0), dense_spec(20, seed=0),
            ),
            methods=("me",),
            trace_dir=str(trace_dir),
        )
        report = run_benchmark(cfg)
        names = ["me_file_3_0.csv", "me_file_3_1.csv", "me_diag_20_2.csv",
                 "me_dense_20_3.csv"]
        assert sorted(p.name for p in trace_dir.iterdir()) == sorted(names)
        for name, row in zip(names, report.rows):
            with open(trace_dir / name) as fh:
                assert len(list(csv.DictReader(fh))) == row.iterations

    def test_metadata_sink(self, tmp_path):
        cfg = BenchConfig(instances=(diag_spec(10, seed=2),), methods=("cg",))
        assert list(run_benchmark(cfg).instances) == [
            {
                "family": "diag",
                "n": 10,
                "seed": 2,
                "condition_number": 50000.0,
                "b_scale": 1000.0,
            }
        ]
        # A file instance reports its family as "file", with no seed or
        # b_scale.
        dense = tmp_path / "dense.txt"
        dense.write_text("dense 2\n2 0\n0 1\nb\n1 1\n")
        cfg = BenchConfig(
            instances=(mild_diag_file(tmp_path, 5), str(dense)), methods=("cg",)
        )
        assert list(run_benchmark(cfg).instances) == [
            {"family": "file", "n": 5, "seed": None, "condition_number": 100.0,
             "b_scale": None},
            {"family": "file", "n": 2, "seed": None, "condition_number": 2.0,
             "b_scale": None},
        ]

    def test_cpu_s_is_cpu_time(self, monkeypatch):
        # The cg solve sleeps 0.2 s inside its loop: wall time the process
        # does not spend on the CPU, so cpu_s leaves it out.
        real_cg = bench.cg_solve
        walls = []

        class SleepingOperator(CountingOperator):
            def matvec(self, v):
                if self.calls == 1:  # the first matvec after x1's gradient
                    time.sleep(0.2)
                return super().matvec(v)

        def sleeping_cg(problem, x1, options):
            slow = QuadraticProblem(SleepingOperator(problem.A), problem.b, problem.c)
            result = real_cg(slow, x1, options)
            walls.append(result.wall_time_seconds)
            return result

        monkeypatch.setattr(bench, "cg_solve", sleeping_cg)
        cfg = BenchConfig(instances=(dense_spec(10, seed=4),), methods=("cg",))
        row = run_benchmark(cfg).rows[0]
        assert walls[0] >= 0.2
        assert row.terminated_by == "gradient_tolerance"
        assert 0.0 <= row.cpu_time_seconds < 0.1


def test_every_solve_goes_through_module_names(monkeypatch):
    # A profiler that replaces a solver name in ellipcenter.bench must see
    # every solve, and can read the BB variant from the first positional
    # argument after x1.
    calls = []
    names = ("me_solve", "gradient_optimal_step_solve", "fast_gradient_solve",
             "bb_solve", "cg_solve", "gradient_wolfe_solve")
    for name in names:
        def recording(problem, x1, *args, _name=name, _real=getattr(bench, name)):
            calls.append((_name, args))
            return _real(problem, x1, *args)

        monkeypatch.setattr(bench, name, recording)
    cfg = BenchConfig(instances=(dense_spec(8, seed=3),), methods=tuple(METHODS))
    report = run_benchmark(cfg)
    assert len(report.rows) == len(METHODS) == 7
    assert [name for name, _ in calls] == [
        "me_solve", "gradient_optimal_step_solve", "fast_gradient_solve",
        "bb_solve", "bb_solve", "cg_solve", "gradient_wolfe_solve",
    ]
    bb_args = [args for name, args in calls if name == "bb_solve"]
    assert [args[0] for args in bb_args] == [
        BBVariant(short_steps=False), BBVariant(short_steps=True)
    ]
    assert all(isinstance(args[-1], SolveOptions) for _, args in calls)


def _problem_v(n, seed):
    from ellipcenter.generators import generate

    return generate(dense_spec(n, seed)).A.v


class TestEmitReport:
    @pytest.fixture()
    def report(self):
        cfg = BenchConfig(
            instances=(dense_spec(18, seed=2),), methods=("me", "cg")
        )
        return run_benchmark(cfg)

    def test_csv_layout(self, report):
        text = emit_report(report, format="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "method,n,cond,cpu_s,iters,fval,term,seed"
        assert len(lines) == 3
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["method"] == "me"
        assert parsed[0]["n"] == "18"

    def test_fval_six_significant_digits(self, report):
        text = emit_report(report, format="csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        for row, bench_row in zip(parsed, report.rows):
            assert row["fval"] == f"{bench_row.optimal_value:.6g}"

    def test_markdown_round_trips_csv_values(self, report):
        csv_rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
        md_lines = emit_report(report, format="markdown").strip().splitlines()
        header = [h.strip() for h in md_lines[0].strip("|").split("|")]
        assert header == ["method", "n", "cond", "cpu_s", "iters", "fval", "term", "seed"]
        for csv_row, line in zip(csv_rows, md_lines[2:]):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            assert cells == [csv_row[key] for key in header]

    def test_single_row_csv(self):
        cfg = BenchConfig(instances=(dense_spec(10, seed=4),), methods=("cg",))
        text = emit_report(run_benchmark(cfg), format="csv")
        assert len(text.strip().splitlines()) == 2

    def test_write_to_file(self, report, tmp_path):
        out = tmp_path / "report.csv"
        emit_report(report, format="csv", path=out)
        assert out.read_text() == emit_report(report, format="csv")

    def test_empty_report_rejected(self):
        from ellipcenter.bench import BenchReport

        with pytest.raises(ValueError, match="no rows"):
            emit_report(BenchReport(rows=()), "csv")

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError, match="format"):
            emit_report(report, format="tsv")
