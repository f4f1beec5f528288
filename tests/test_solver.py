import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingOperator, IndefiniteOperator, Steps, reference_trace_csv

from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)
import ellipcenter
import ellipcenter.solver as solver_module
import ellipcenter.trace as trace_module
from ellipcenter.baselines import cg_solve
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.solver import (
    _REFRESH_STEPS,
    Branch,
    EpsilonMode,
    SolveOptions,
    StepRecord,
    Termination,
    _coeffs_from_gram,
    me_iterate,
    me_solve,
)
from ellipcenter.trace import _BATCH_ROWS, _PackedTrace, write_trace_csv

# Worst relative drift ||g - (A x - b)|| / ||A x - b|| the refreshed
# recurrence may show between a carried gradient and the true one.
DRIFT_BOUND = 1e-7


def diag_problem(entries, b=None, c=0.0):
    entries = np.asarray(entries, dtype=float)
    if b is None:
        b = np.zeros(len(entries))
    return QuadraticProblem(DiagonalOperator(entries), b, c)


def random_problem(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        op = DiagonalOperator(rng.uniform(0.5, 10.0, n))
    elif kind == 1:
        op = RankOneOperator(rng.uniform(0.0, 1.0, n), rng.uniform(1.0, 10.0))
    else:
        r = rng.standard_normal((n, n))
        op = DenseOperator(r @ r.T + n * np.eye(n))
    return QuadraticProblem(op, rng.standard_normal(n))


def gram_solve(p, g_x, g_y):
    # Independent oracle: numpy's solve of the Gram system M [alpha, beta] = q.
    a = p.A.dense()
    m = np.array([[g_x @ a @ g_x, g_x @ a @ g_y], [g_x @ a @ g_y, g_y @ a @ g_y]])
    q = np.array([-(g_x @ g_x), -(g_x @ g_y)])
    return np.linalg.det(m), np.linalg.solve(m, q)


class TestLevelStep:
    # The level step is the t and y of a me_iterate record.
    def test_hand_example(self):
        p = diag_problem([1.0, 4.0])
        rec = me_iterate(p, [2.0, 1.0])
        assert rec.t == pytest.approx(10.0 / 17.0, rel=1e-15)
        np.testing.assert_allclose(rec.y, [14.0 / 17.0, -23.0 / 17.0], rtol=1e-14)
        assert p.value(rec.y) == pytest.approx(p.value(rec.x), rel=1e-12)

    def test_identity_reflects(self):
        p = diag_problem([1.0, 1.0, 1.0])
        x = np.array([0.3, -2.0, 1.0])
        rec = me_iterate(p, x)
        assert rec.t == pytest.approx(2.0)
        np.testing.assert_allclose(rec.y, -x, rtol=1e-14)

    def test_one_dimensional_reflection(self):
        p = diag_problem([2.0])
        rec = me_iterate(p, [3.0])
        assert rec.t == pytest.approx(1.0)
        assert rec.y[0] == pytest.approx(-3.0)

    def test_indefinite_operator_rejected(self):
        # x = (0, 1) has the gradient (0, -1), whose energy is -1.
        p = QuadraticProblem(IndefiniteOperator([1.0, -1.0]), [0.0, 0.0])
        with pytest.raises(ValueError, match="positive definite"):
            me_iterate(p, [0.0, 1.0])

    def test_level_set_equality_sweep(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 101))
            p = random_problem(rng, n)
            x = rng.standard_normal(n) * 3.0
            if np.linalg.norm(p.gradient(x)) == 0.0:
                continue
            rec = me_iterate(p, x, grad_tolerance=0.0)
            fx = p.value(x)
            assert abs(p.value(rec.y) - fx) <= 1e-9 * max(1.0, abs(fx))


class TestEllipseCenterCoeffs:
    # The center coefficients are the delta, alpha and beta of a me_iterate
    # record; x = (2, 1) under diag(1, 4) gives g_x = (2, 4) and
    # g_y = (14, -92) / 17.
    def setup_method(self):
        self.p = diag_problem([1.0, 4.0])
        self.rec = me_iterate(self.p, [2.0, 1.0])

    def test_hand_example(self):
        rec = self.rec
        np.testing.assert_allclose(rec.g_y, [14.0 / 17.0, -92.0 / 17.0], rtol=1e-14)
        assert rec.delta == pytest.approx(230400.0 / 289.0, rel=1e-12)
        assert rec.alpha == pytest.approx(-0.825, rel=1e-12)
        assert rec.beta == pytest.approx(-0.425, rel=1e-12)

    def test_matches_two_by_two_solve(self):
        delta, expected = gram_solve(self.p, self.rec.g_x, self.rec.g_y)
        np.testing.assert_allclose([self.rec.alpha, self.rec.beta], expected, rtol=1e-12)
        assert self.rec.delta == pytest.approx(delta, rel=1e-12)

    def test_problem_rescaling_keeps_center(self):
        # Scaling A and b by the same factor rescales both gradients but
        # leaves the level sets, and hence the center, unchanged.
        s = 2.0
        p2 = QuadraticProblem(DiagonalOperator(s * np.array([1.0, 4.0])), np.zeros(2))
        rec2 = me_iterate(p2, [2.0, 1.0])
        np.testing.assert_allclose(rec2.g_x, s * self.rec.g_x, rtol=1e-15)
        np.testing.assert_allclose(rec2.x_next, self.rec.x_next, atol=1e-12)
        assert rec2.alpha == pytest.approx(self.rec.alpha / s, rel=1e-12)

    def test_orthogonal_pair_under_identity(self):
        # g_x = (1, 0), g_y = (0, 1) under the identity: the Gram matrix is I.
        alpha, beta = _coeffs_from_gram(1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
        assert alpha == pytest.approx(-1.0)
        assert beta == pytest.approx(0.0, abs=1e-15)

    def test_dependent_gradients_rejected(self):
        # Under the identity g_y = -g_x: the dependence test rejects the
        # Gram system and the step takes the midpoint branch.
        rec = me_iterate(diag_problem([3.0, 3.0]), [1.0, 2.0])
        assert rec.branch is Branch.MIDPOINT
        assert rec.delta is None and rec.alpha is None and rec.beta is None
        np.testing.assert_allclose(rec.g_y, -rec.g_x, rtol=1e-15)

    def test_cross_check_routes_agree(self):
        # The kernel's Cramer solve against numpy's solve of the same system.
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 30))
            p = random_problem(rng, n)
            rec = me_iterate(p, rng.standard_normal(n), grad_tolerance=0.0)
            if rec.branch is not Branch.ELLIPSE_CENTER:
                continue
            delta, expected = gram_solve(p, rec.g_x, rec.g_y)
            scale = max(abs(rec.alpha), abs(rec.beta))
            np.testing.assert_allclose([rec.alpha, rec.beta], expected, atol=1e-10 * scale)
            assert rec.delta == pytest.approx(delta, rel=1e-10)
            checked += 1
        assert checked > 150


class TestMeIterate:
    def test_two_dimensional_newton_step(self):
        p = diag_problem([1.0, 4.0])
        rec = me_iterate(p, [2.0, 1.0])
        assert rec.branch is Branch.ELLIPSE_CENTER
        assert rec.delta > 0.0
        np.testing.assert_allclose(rec.x_next, np.zeros(2), atol=1e-12)

    def test_identity_takes_midpoint(self):
        p = diag_problem([1.0, 1.0])
        rec = me_iterate(p, [1.0, 0.0])
        assert rec.branch is Branch.MIDPOINT
        assert rec.delta is None and rec.alpha is None and rec.beta is None
        np.testing.assert_allclose(rec.x_next, np.zeros(2), atol=1e-15)

    def test_converged_input(self):
        rng = np.random.default_rng(22)
        p = diag_problem([2.0, 5.0], b=rng.standard_normal(2))
        x_star = np.asarray(p.b) / np.array([2.0, 5.0])
        rec = me_iterate(p, x_star)
        assert rec.branch is Branch.CONVERGED
        np.testing.assert_array_equal(rec.x_next, rec.x)

    def test_descent_and_level_equality(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            p = random_problem(rng, n)
            x = rng.standard_normal(n)
            rec = me_iterate(p, x, grad_tolerance=0.0)
            fx = p.value(x)
            assert p.value(rec.x_next) <= fx + 1e-10 * max(1.0, abs(fx))
            assert abs(p.value(rec.y) - fx) <= 1e-9 * max(1.0, abs(fx))

    def test_center_is_plane_minimizer(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            p = random_problem(rng, n)
            x = rng.standard_normal(n)
            rec = me_iterate(p, x, grad_tolerance=0.0)
            if rec.branch is not Branch.ELLIPSE_CENTER:
                continue
            f_center = p.value(rec.x_next)
            for _ in range(50):
                a, b = rng.standard_normal(2) * 2.0
                trial = rec.x + a * rec.g_x + b * rec.g_y
                assert f_center <= p.value(trial) + 1e-9 * max(1.0, abs(f_center))

    def test_orthogonality_at_center(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            p = random_problem(rng, n)
            x = rng.standard_normal(n)
            rec = me_iterate(p, x, grad_tolerance=0.0)
            if rec.branch is not Branch.ELLIPSE_CENTER:
                continue
            g_next = p.gradient(rec.x_next)
            scale = np.linalg.norm(rec.g_x) * max(
                np.linalg.norm(rec.g_x), np.linalg.norm(rec.g_y)
            )
            assert abs(rec.g_x @ g_next) <= 1e-8 * scale
            assert abs(rec.g_y @ g_next) <= 1e-8 * scale


class TestMeSolve:
    def test_two_by_two_single_iteration(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            r = rng.standard_normal((2, 2))
            p = QuadraticProblem(DenseOperator(r @ r.T + np.eye(2)), rng.standard_normal(2))
            first = me_iterate(p, np.zeros(2), grad_tolerance=0.0)
            if first.branch is not Branch.ELLIPSE_CENTER:
                continue
            result = me_solve(p, np.zeros(2))
            assert result.iterations == 1
            assert result.terminated_by is Termination.GRADIENT_TOLERANCE
            x_star = np.linalg.solve(p.A.dense(), np.asarray(p.b))
            err = np.linalg.norm(result.x_final - x_star)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(x_star))

    def test_start_at_minimizer(self):
        p = diag_problem([1.0, 3.0], b=np.array([2.0, 6.0]))
        result = me_solve(p, [2.0, 2.0])
        assert result.iterations == 0
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE

    def test_hundred_dimensional_diagonal(self):
        rng = np.random.default_rng(27)
        entries = np.arange(1.0, 101.0)
        b = rng.uniform(0.0, 10.0, 100)
        p = QuadraticProblem(DiagonalOperator(entries), b)
        result = me_solve(p, np.zeros(100), SolveOptions(epsilon=1e-8))
        f_star = -0.5 * float(b @ (b / entries))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        g0_norm = np.linalg.norm(b)
        assert result.grad_norm_final <= 1e-8 * g0_norm
        assert result.f_final == pytest.approx(f_star, rel=1e-8)

    def test_monotone_descent_in_trace(self):
        rng = np.random.default_rng(28)
        p = random_problem(rng, 30)
        steps = Steps()
        result = me_solve(p, rng.standard_normal(30), SolveOptions(observer=steps))
        values = [rec.f_value for rec in steps.records] + [result.f_final]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-10 * max(1.0, abs(before))

    def test_delta_positive_on_ellipse_branch(self):
        rng = np.random.default_rng(29)
        p = random_problem(rng, 25)
        steps = Steps()
        me_solve(p, rng.standard_normal(25), SolveOptions(observer=steps))
        assert any(rec.branch is Branch.ELLIPSE_CENTER for rec in steps.records)
        for rec in steps.records:
            if rec.branch is Branch.ELLIPSE_CENTER:
                assert rec.delta > 0.0

    def test_observer_sees_the_step_me_iterate_makes(self):
        # Each record holds the scalars of the center step from the observed
        # x and carried gradient g, bit for bit.
        p = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 64, 1))
        steps = Steps()
        me_solve(p, np.zeros(64), SolveOptions(max_iterations=120, observer=steps))
        assert len(steps) == 120
        for x, g, rec in steps:
            s = me_iterate(p, x, grad_tolerance=0.0, g_x=g)
            assert rec == StepRecord(
                s.f_value, s.grad_norm, s.branch, s.t, s.delta, s.alpha, s.beta
            )

    def test_max_iterations_termination(self):
        p = diag_problem(np.linspace(1.0, 1000.0, 50), b=np.ones(50))
        result = me_solve(p, np.zeros(50), SolveOptions(max_iterations=2))
        assert result.iterations == 2
        assert result.terminated_by is Termination.MAX_ITERATIONS

    def test_absolute_mode(self):
        p = diag_problem([1.0, 2.0], b=np.array([5.0, 5.0]))
        opts = SolveOptions(epsilon=1e-3, epsilon_mode=EpsilonMode.ABSOLUTE)
        result = me_solve(p, np.zeros(2), opts)
        assert result.grad_norm_final <= 1e-3

    def test_dimension_mismatch(self):
        p = diag_problem([1.0, 2.0])
        with pytest.raises(ValueError):
            me_solve(p, [1.0, 2.0, 3.0])


class TestCarriedGradient:
    def test_g_x_argument_matches_computed_gradient(self):
        rng = np.random.default_rng(31)
        p = random_problem(rng, 12)
        x = rng.standard_normal(12)
        own = me_iterate(p, x, grad_tolerance=0.0)
        given = me_iterate(p, x, grad_tolerance=0.0, g_x=p.gradient(x))
        np.testing.assert_array_equal(own.x_next, given.x_next)
        np.testing.assert_array_equal(own.g_next, given.g_next)

    def test_g_next_is_gradient_at_next_iterate(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            p = random_problem(rng, n)
            rec = me_iterate(p, rng.standard_normal(n), grad_tolerance=0.0)
            if rec.branch is Branch.CONVERGED:
                continue
            true = p.gradient(rec.x_next)
            scale = np.linalg.norm(rec.g_x)
            assert np.linalg.norm(rec.g_next - true) <= 1e-10 * scale
            np.testing.assert_allclose(rec.g_y, p.gradient(rec.y), atol=1e-10 * scale)

    def test_midpoint_branch_halves_level_step(self):
        p = diag_problem([1.0, 1.0])
        rec = me_iterate(p, [1.0, 0.0])
        assert rec.branch is Branch.MIDPOINT
        np.testing.assert_array_equal(rec.x_next, rec.x - (rec.t / 2.0) * rec.g_x)
        np.testing.assert_allclose(rec.g_next, p.gradient(rec.x_next), atol=1e-15)

    def test_y_is_derived_not_stored(self):
        p = diag_problem([1.0, 4.0])
        rec = me_iterate(p, [2.0, 1.0])
        np.testing.assert_array_equal(rec.y, rec.x - rec.t * rec.g_x)
        assert "y" not in rec._fields
        converged = me_iterate(p, [0.0, 0.0])
        assert converged.y is None

    def test_matvec_count_two_per_step(self):
        rng = np.random.default_rng(33)
        op = CountingOperator(DiagonalOperator(np.linspace(1.0, 2000.0, 200)))
        p = QuadraticProblem(op, rng.uniform(0.0, 10.0, 200))
        result = me_solve(p, np.zeros(200))
        k = result.iterations
        assert k > 2 * _REFRESH_STEPS
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        # One at the start, two a step, one a refresh, one final check
        # unless the last step already refreshed.
        assert op.calls == 1 + 2 * k + k // _REFRESH_STEPS + (k % _REFRESH_STEPS != 0)

    def test_matvec_count_single_step(self):
        op = CountingOperator(DiagonalOperator([1.0, 4.0]))
        result = me_solve(QuadraticProblem(op, [1.0, 1.0]), np.zeros(2))
        assert result.iterations == 1
        assert op.calls == 4

    def test_drift_bounded_and_no_subnormals(self):
        # Without refresh the recurred gradient of this kappa = 5e4 instance
        # has subnormal entries from about step 170 on.
        p = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 500, 1))
        steps = Steps()
        me_solve(p, np.zeros(500), SolveOptions(max_iterations=2000, observer=steps))
        assert len(steps) == 2000
        tiny = np.finfo(float).tiny
        for x, g, _ in steps:
            true = p.gradient(x)
            assert np.linalg.norm(g - true) <= DRIFT_BOUND * np.linalg.norm(true)
            assert not np.any((g != 0.0) & (np.abs(g) < tiny))

    @pytest.mark.parametrize("max_iterations", [3, _REFRESH_STEPS, 1_000_000])
    def test_final_gradient_is_true_gradient(self, max_iterations):
        rng = np.random.default_rng(34)
        p = diag_problem(np.linspace(1.0, 500.0, 60), b=rng.uniform(0.0, 5.0, 60))
        result = me_solve(p, np.zeros(60), SolveOptions(max_iterations=max_iterations))
        g = p.gradient(result.x_final)
        assert result.grad_norm_final == np.linalg.norm(g)
        assert result.f_final == pytest.approx(p.value(result.x_final), rel=1e-12)

    def test_recurred_convergence_is_confirmed(self, monkeypatch):
        # A carried gradient that claims convergence does not end the solve
        # unless the true gradient agrees.
        rng = np.random.default_rng(35)
        p = diag_problem(np.linspace(1.0, 100.0, 40), b=rng.uniform(0.0, 5.0, 40))
        reference = me_solve(p, np.zeros(40))
        real = solver_module._center_step
        lies = 0

        def lying(problem, x, g, gg):
            nonlocal lies
            x_next, g_next, g_y, fields = real(problem, x, g, gg)
            lies += 1
            return x_next, np.zeros_like(g_next), g_y, fields

        monkeypatch.setattr(solver_module, "_center_step", lying)
        result = me_solve(p, np.zeros(40))
        assert lies > 0
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        assert result.iterations == reference.iterations
        assert result.grad_norm_final == np.linalg.norm(p.gradient(result.x_final))

    @pytest.mark.parametrize("max_iterations", [3, 1_000_000])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_iterate_aborts_the_solve(self, monkeypatch, bad, max_iterations):
        # One step that produces a non-finite x_next with a finite carried
        # gradient: the next true gradient is not finite, and the driver
        # raises rather than report the solve as converged or capped.
        p = diag_problem(np.linspace(1.0, 100.0, 40), b=np.ones(40))
        real = solver_module._center_step
        calls = 0

        def faulty(problem, x, g, gg):
            nonlocal calls
            x_next, g_next, g_y, fields = real(problem, x, g, gg)
            calls += 1
            if calls == 3:
                x_next = x_next.copy()
                x_next[0] = bad
            return x_next, g_next, g_y, fields

        monkeypatch.setattr(solver_module, "_center_step", faulty)
        with pytest.raises(RuntimeError, match=r"^me: gradient norm is (nan|inf); aborting$"):
            me_solve(p, np.zeros(40), SolveOptions(max_iterations=max_iterations))
        assert calls >= 3


# Runs in a fresh process: each cell's iterations, the bits of f_final and a
# digest of x_final's bytes.  Every dot of these solves is longer than 10,000
# elements, where numpy's bundled OpenBLAS splits a ddot between threads.
THREAD_PROBE = r"""
import hashlib, json
import numpy as np
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.solver import SolveOptions

grid = [(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 20_000, list(METHODS), 300),
        (InstanceFamily.DENSE_RANK_ONE, 200_000, ["me", "cg", "bb-long", "bb-short"], None)]
out = {}
for family, n, methods, cap in grid:
    problem = generate(InstanceSpec(family, n, 1))
    options = SolveOptions() if cap is None else SolveOptions(max_iterations=cap)
    for method in methods:
        r = METHODS[method](problem, np.zeros(n), options)
        out[f"{family.value} {method}"] = [
            r.iterations, r.f_final.hex(), hashlib.sha256(r.x_final.tobytes()).hexdigest()]
print(json.dumps(out))
"""


def test_results_do_not_depend_on_thread_count():
    src = os.path.dirname(os.path.dirname(ellipcenter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == len(METHODS) + 4
    assert runs[0] == runs[1]


class TestSolveOptionsValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            SolveOptions(epsilon=0.0)

    @pytest.mark.parametrize("mode", list(EpsilonMode))
    def test_infinite_epsilon(self, mode):
        # Every gradient norm is below an infinite threshold, so each solve
        # would stop at once and report success.
        with pytest.raises(ValueError, match="epsilon must be finite"):
            SolveOptions(epsilon=math.inf, epsilon_mode=mode)

    def test_bad_max_iterations(self):
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    p = random_problem(rng, 10)
    steps = Steps()
    result = me_solve(p, rng.standard_normal(10), SolveOptions(observer=steps))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, steps.records)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == result.iterations
    for i, (row, rec) in enumerate(zip(rows, steps.records), start=1):
        assert int(row["iter"]) == i
        assert row["branch"] == rec.branch.value
        # 17 significant digits round-trip doubles exactly.
        assert float(row["f"]) == rec.f_value
        assert float(row["grad_norm"]) == rec.grad_norm
        assert float(row["t"]) == rec.t


# Values whose text a row format could get wrong.
AWKWARD = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1.0 / 3.0, -2.5)


def assert_trace_matches_reference(directory, records, written=None):
    # The library's CSV of ``written`` (by default the records themselves)
    # against csv.writer's of the records.
    write_trace_csv(directory / "lib.csv", records if written is None else written)
    reference_trace_csv(directory / "ref.csv", records)
    assert (directory / "lib.csv").read_bytes() == (directory / "ref.csv").read_bytes()


def test_trace_csv_matches_csv_writer(tmp_path):
    records = []
    for v in AWKWARD:
        records += [
            StepRecord(v, 1.0),
            StepRecord(1.0, v),
            StepRecord(v, v, Branch.ELLIPSE_CENTER, v, v, v, v),
            StepRecord(v, 2.0, Branch.MIDPOINT, t=v),
        ]
    # Rows of real solves: center steps, a midpoint step (n = 1) and a baseline.
    p64 = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 64, 1))
    for solve, p in ((me_solve, p64), (me_solve, diag_problem([5.0], b=[5.0])),
                     (cg_solve, p64)):
        steps = Steps()
        solve(p, np.zeros(p.dim), SolveOptions(max_iterations=200, observer=steps))
        records += steps.records
    kinds = {(r.branch, r.delta is None) for r in records}
    assert {(None, True), (Branch.ELLIPSE_CENTER, False), (Branch.MIDPOINT, True)} <= kinds
    assert_trace_matches_reference(tmp_path, records)
    assert_trace_matches_reference(tmp_path, [])


def maybe(strategy):
    return st.one_of(st.none(), strategy)


# Baseline rows, full center rows, and rows with any cells None.
_number = st.one_of(st.sampled_from(AWKWARD), st.floats())
_cells = (_number, _number, st.sampled_from(Branch), *[_number] * 4)
step_records = st.one_of(
    st.builds(StepRecord, *_cells[:2]),
    st.builds(StepRecord, *_cells),
    st.builds(StepRecord, *map(maybe, _cells)),
)


@given(st.lists(step_records, max_size=8))
def test_any_trace_rows_match_csv_writer(tmp_path_factory, records):
    assert_trace_matches_reference(tmp_path_factory.getbasetemp(), records)


@contextmanager
def packed_trace(records):
    # A _PackedTrace that has observed the records, closed on leaving.
    with _PackedTrace() as trace:
        for record in records:
            trace(None, None, record)
        yield trace


def assert_packed_round_trip(directory, records):
    with packed_trace(records) as trace:
        assert len(trace) == len(records)
        assert_trace_matches_reference(directory, records, trace)
        # The spilled batches read back again: a trace can be written twice.
        write_trace_csv(directory / "again.csv", trace)
        assert (directory / "again.csv").read_bytes() == (directory / "ref.csv").read_bytes()
    # Any other iterable is packed batch by batch as it is read.
    write_trace_csv(directory / "iter.csv", iter(records))
    assert (directory / "iter.csv").read_bytes() == (directory / "ref.csv").read_bytes()


@pytest.mark.parametrize("batch_rows", [1, 3, _BATCH_ROWS])
@given(records=st.lists(step_records, max_size=12))
def test_packed_trace_round_trip(tmp_path_factory, batch_rows, records):
    with mock.patch.object(trace_module, "_BATCH_ROWS", batch_rows):
        assert_packed_round_trip(tmp_path_factory.getbasetemp(), records)


def test_packed_trace_batch_edges(tmp_path):
    kinds = {
        "center": lambda i: StepRecord(i / 7, 2.0 ** -i, Branch.ELLIPSE_CENTER, 3.0 * i,
                                       -0.0, math.nan, -i / 3),
        "baseline": lambda i: StepRecord(i / 7, math.inf if i % 2 else 5e-324),
        "midpoint": lambda i: StepRecord(i / 7, 1.0, Branch.MIDPOINT, t=2.0 * i),
        "center with a None": lambda i: StepRecord(i / 7, 1.0, Branch.ELLIPSE_CENTER, t=1.0),
        "no numbers": lambda i: StepRecord(None, None, Branch.CONVERGED),
    }
    for length in (0, 1, _BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1):
        for make in kinds.values():
            run = [make(i) for i in range(length)]
            assert_packed_round_trip(tmp_path, run)
            # Runs of this length behind and between runs of other kinds.
            others = [record for other in kinds.values() if other is not make
                      for record in (other(-1), other(-2))]
            assert_packed_round_trip(tmp_path, others[:3] + run + others[3:] + run)
    makers = list(kinds.values())
    changing = [makers[i % len(makers)](i) for i in range(2 * _BATCH_ROWS + 3)]
    assert_packed_round_trip(tmp_path, changing)


def test_packed_midpoint_rows_are_small():
    # A midpoint row spills its code byte and f, grad_norm and t: 25 bytes a
    # row, where its StepRecord held about 186.  Memory keeps the rows of
    # the batch not yet full, whatever the row count.
    for rows in (20_000, 40_000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with packed_trace(StepRecord(i / 7, 1.0 + i, Branch.MIDPOINT, t=2.0 * i)
                              for i in range(rows)) as trace:
                held = tracemalloc.get_traced_memory()[0] - base
                assert len(trace) == rows
                assert trace._spill.seek(0, os.SEEK_END) == 25 * (rows - rows % _BATCH_ROWS)
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024
