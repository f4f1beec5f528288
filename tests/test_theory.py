import json
import math

import numpy as np
import pytest

from conftest import Steps, diag_problem, two_step_chebyshev_rate

from ellipcenter.baselines import gradient_optimal_step_solve
from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)
from ellipcenter.solver import SolveOptions, me_solve
from ellipcenter.theory import (
    dominance_check,
    kantorovich_check,
    level_point_bisection,
    linear_rate_check,
    reference_minimum,
    write_check_results,
)


class TestKantorovich:
    def test_equality_witness(self):
        lhs, bound = kantorovich_check(DiagonalOperator([1.0, 4.0]), [1.0, 1.0])
        assert bound == pytest.approx(0.64, abs=1e-15)
        assert abs(lhs - bound) <= 1e-12

    def test_eigenvector_attains_one(self):
        lhs, bound = kantorovich_check(DiagonalOperator([1.0, 4.0]), [1.0, 0.0])
        assert lhs == pytest.approx(1.0)
        assert lhs >= bound

    def test_random_sweep_diagonal(self):
        rng = np.random.default_rng(60)
        op = DiagonalOperator(np.linspace(1.0, 50000.0, 200))
        for _ in range(1000):
            y = rng.standard_normal(200)
            lhs, bound = kantorovich_check(op, y)
            assert lhs >= bound - 1e-12

    def test_random_sweep_rank_one(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            op = RankOneOperator(rng.uniform(0, 1, n), 10.0)
            y = rng.standard_normal(n)
            lhs, bound = kantorovich_check(op, y)
            assert lhs >= bound - 1e-12

    def test_dense_rejected(self):
        with pytest.raises(TypeError, match="closed-form"):
            kantorovich_check(DenseOperator(np.eye(2)), [1.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            kantorovich_check(DiagonalOperator([1.0, 2.0]), [0.0, 0.0])

    def test_inverse_identity_rank_one(self):
        # Sherman-Morrison closed form really inverts the operator.
        rng = np.random.default_rng(62)
        op = RankOneOperator(rng.uniform(0, 1, 15), 10.0)
        y = rng.standard_normal(15)
        np.testing.assert_allclose(op.matvec(op.solve(y)), y, rtol=1e-12)


def energy_errors(p, x_star, steps, result):
    # f(x) - f* = 1/2 ||x - x*||_A^2 at each observed iterate and the final one.
    return [0.5 * p.a_inner(x - x_star, x - x_star) for x in steps.xs + [result.x_final]]


class TestLinearRate:
    def test_identity_single_step(self):
        rng = np.random.default_rng(63)
        p = diag_problem(np.ones(5), b=rng.standard_normal(5))
        steps = Steps()
        result = me_solve(p, np.zeros(5), SolveOptions(observer=steps))
        x_star, _ = reference_minimum(p)
        report = linear_rate_check(
            energy_errors(p, x_star, steps, result), p.A.eigen_bounds()
        )
        assert report.eta_bound == 0.0
        assert report.satisfied
        assert report.anorm_satisfied
        assert report.max_ratio <= 1e-10

    def test_two_eigenvalues_ratio_bound(self):
        rng = np.random.default_rng(64)
        p = diag_problem([1.0, 2.0], b=rng.uniform(1.0, 3.0, 2))
        steps = Steps()
        result = me_solve(p, np.zeros(2), SolveOptions(observer=steps))
        x_star, _ = reference_minimum(p)
        report = linear_rate_check(
            energy_errors(p, x_star, steps, result), p.A.eigen_bounds()
        )
        assert report.eta_bound == pytest.approx(0.5)
        assert report.satisfied
        assert all(r <= 0.5 + 1e-10 for r in report.per_step_ratios)

    def test_stable_route_agrees_with_f_route(self):
        # A short run keeps the errors far above the floating-point floor,
        # where differencing objective values is still accurate.
        rng = np.random.default_rng(65)
        p = diag_problem(np.linspace(1.0, 60.0, 20), b=rng.uniform(0, 4, 20))
        steps = Steps()
        result = me_solve(
            p, np.zeros(20), SolveOptions(max_iterations=8, observer=steps)
        )
        x_star, f_star = reference_minimum(p)
        stable = linear_rate_check(
            energy_errors(p, x_star, steps, result), p.A.eigen_bounds()
        )
        f_values = [rec.f_value for rec in steps.records] + [result.f_final]
        plain = linear_rate_check([f - f_star for f in f_values], p.A.eigen_bounds())
        assert stable.satisfied and plain.satisfied
        assert len(plain.per_step_ratios) == len(stable.per_step_ratios) == 8
        for a, b in zip(stable.per_step_ratios, plain.per_step_ratios):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9)

    def test_f_route_hits_floor_on_long_runs(self):
        # Run to full convergence: differencing f values bottoms out in
        # rounding noise, which the energy-norm route avoids.
        rng = np.random.default_rng(65)
        p = diag_problem(np.linspace(1.0, 60.0, 20), b=rng.uniform(0, 4, 20))
        steps = Steps()
        result = me_solve(p, np.zeros(20), SolveOptions(observer=steps))
        x_star, _ = reference_minimum(p)
        stable = linear_rate_check(
            energy_errors(p, x_star, steps, result), p.A.eigen_bounds()
        )
        assert stable.satisfied and stable.anorm_satisfied

    def test_sharp_bound_recorded(self):
        p = diag_problem([1.0, 2.0])
        report = linear_rate_check([], p.A.eigen_bounds())
        assert report.sharp_bound == pytest.approx((1.0 / 3.0) ** 2)
        assert report.eta_bound == pytest.approx(0.5)
        assert report.sharp_bound < report.eta_bound

    def test_floor_steps_skipped(self):
        p = diag_problem([1.0, 2.0])
        report = linear_rate_check([1.0, -0.5, 0.25, 0.1], p.A.eigen_bounds())
        assert report.skipped_steps == 1
        assert len(report.per_step_ratios) == 2


class TestDominance:
    def test_hand_example(self):
        p = diag_problem([1.0, 4.0])
        f_me, f_grad = dominance_check(p, [2.0, 1.0])
        assert f_me == pytest.approx(0.0, abs=1e-14)
        assert f_grad == pytest.approx(306.0 / 289.0, rel=1e-12)
        assert f_me <= f_grad

    def test_dependent_case_exact_equality(self):
        p = diag_problem(np.ones(3))
        f_me, f_grad = dominance_check(p, [1.0, -2.0, 0.5])
        assert f_me == f_grad

    def test_random_sweep(self):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            kind = rng.integers(0, 2)
            if kind == 0:
                op = DiagonalOperator(rng.uniform(0.5, 20.0, n))
            else:
                op = RankOneOperator(rng.uniform(0, 1, n), rng.uniform(1.0, 10.0))
            p = QuadraticProblem(op, rng.standard_normal(n))
            x = rng.standard_normal(n)
            if np.linalg.norm(p.gradient(x)) == 0.0:
                continue
            f_me, f_grad = dominance_check(p, x)
            assert f_me <= f_grad + 1e-10 * max(1.0, abs(f_grad))

    def test_stationary_point_rejected(self):
        p = diag_problem([1.0, 2.0])
        with pytest.raises(ValueError, match="stationary"):
            dominance_check(p, [0.0, 0.0])


class TestLevelPointBisection:
    @staticmethod
    def quadratic_oracle(p):
        return lambda z: (p.value(z), p.gradient(z))

    def test_matches_closed_form_on_quadratics(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            p = diag_problem(rng.uniform(0.5, 30.0, n), b=rng.standard_normal(n))
            x = rng.standard_normal(n)
            g = p.gradient(x)
            if np.linalg.norm(g) < 1e-9:
                continue
            t_closed = 2.0 * float(g @ g) / p.a_inner(g, g)
            t_bisect = level_point_bisection(self.quadratic_oracle(p), x, 1e-12)
            assert t_bisect == pytest.approx(t_closed, rel=1e-8)

    def test_quartic_oracle_against_grid_scan(self):
        # f(x) = 1/2 ||x||^2 + 1/4 x_0^4 is strongly convex.
        def oracle(z):
            value = 0.5 * float(z @ z) + 0.25 * z[0] ** 4
            grad = z + np.array([z[0] ** 3, 0.0])
            return value, grad

        x = np.array([1.0, 0.0])
        t = level_point_bisection(oracle, x, 1e-12)
        f0, g0 = oracle(x)
        # Grid scan around the bisection answer brackets the true crossing.
        grid = np.arange(max(t - 1e-3, 1e-9), t + 1e-3, 1e-6)
        values = np.array([oracle(x - s * g0)[0] - f0 for s in grid])
        signs = np.sign(values)
        crossings = np.nonzero(np.diff(signs) > 0)[0]
        assert len(crossings) == 1
        t_grid = grid[crossings[0]]
        assert abs(t - t_grid) <= 2e-6

    def test_single_sign_change_over_wide_scan(self):
        def oracle(z):
            value = 0.5 * float(z @ z) + 0.25 * z[0] ** 4
            grad = z + np.array([z[0] ** 3, 0.0])
            return value, grad

        x = np.array([1.0, 0.0])
        t = level_point_bisection(oracle, x, 1e-12)
        f0, g0 = oracle(x)
        grid = np.linspace(1e-12, 2.0 * t, 10_000)
        diffs = np.array([oracle(x - s * g0)[0] - f0 for s in grid])
        flips = np.count_nonzero(np.diff(np.sign(diffs)) != 0)
        assert flips == 1

    def test_stationary_start_rejected(self):
        p = diag_problem([1.0, 2.0])
        with pytest.raises(ValueError, match="stationary"):
            level_point_bisection(self.quadratic_oracle(p), [0.0, 0.0], 1e-10)

    def test_non_coercive_oracle_detected(self):
        def linear_oracle(z):
            return -float(np.sum(z)), -np.ones_like(z)

        with pytest.raises(RuntimeError, match="coercive"):
            level_point_bisection(linear_oracle, np.array([0.0, 0.0]), 1e-10)


class TestReferenceMinimum:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(68)
        ops = [
            DiagonalOperator(rng.uniform(0.5, 50.0, 12)),
            RankOneOperator(rng.uniform(0, 1, 12), 10.0),
        ]
        r = rng.standard_normal((12, 12))
        ops.append(DenseOperator(r @ r.T + 12 * np.eye(12)))
        for op in ops:
            p = QuadraticProblem(op, rng.standard_normal(12), c=0.3)
            x_star, f_star = reference_minimum(p)
            expected = np.linalg.solve(op.dense(), np.asarray(p.b))
            np.testing.assert_allclose(x_star, expected, rtol=1e-9, atol=1e-12)
            assert f_star == pytest.approx(p.value(expected), rel=1e-12)

    def test_large_dense_rejected(self):
        n = 2100
        p = QuadraticProblem(DenseOperator(np.eye(n)), np.ones(n))
        with pytest.raises(ValueError, match="n <= 2000"):
            reference_minimum(p)


def settled_rate(solve, problem, kappa):
    """The mean per-step energy ratio E_k+1 / E_k of a solve from x1 = 0 over
    the steps with E / E_1 in [1e-10, 1e-3], where f - f* has digits to
    spare.  The solve runs until E < 1e-14 E_1: at the gradient tolerance
    epsilon relative, E / E_1 <= kappa epsilon^2."""
    f_values = []
    solve(problem, np.zeros(problem.dim),
          SolveOptions(epsilon=math.sqrt(1e-14 / kappa),
                       observer=lambda x, g, record: f_values.append(record.f_value)))
    _, f_star = reference_minimum(problem)
    energy = np.array(f_values) - f_star  # falls every step, so the window is one run
    settled = energy[(energy >= 1e-10 * energy[0]) & (energy <= 1e-3 * energy[0])]
    return float(np.mean(settled[1:] / settled[:-1]))


def test_settled_rates_are_the_worst_case_rates():
    # On a spread spectrum me runs at the two-step Chebyshev rate sigma, as
    # grad runs at its Kantorovich rate rho (Akaike 1959), so grad/me steps
    # approach ln(sigma) / ln(rho), about 4.  Measured here: me 1.0087 and
    # grad 1.0006 in (1 - r) / (1 - worst-case rate).  Over rng seeds 0-19 me
    # read 1.0015-1.080; grad read 1.0001-1.0094 on 18 and 1.030 and 1.039
    # on seeds 1 and 15, which have not settled at E / E_1 = 1e-3 (from 1e-6
    # down they read 1.0003 and 1.0024).
    kappa, n = 1e3, 200
    rng = np.random.default_rng(0)
    p = diag_problem(np.concatenate(([1.0], rng.uniform(1.0, kappa, n - 2), [kappa])),
                     b=rng.standard_normal(n))
    sigma = two_step_chebyshev_rate(kappa)
    rho = ((kappa - 1.0) / (kappa + 1.0)) ** 2
    me = (1.0 - settled_rate(me_solve, p, kappa)) / (1.0 - sigma)
    grad = (1.0 - settled_rate(gradient_optimal_step_solve, p, kappa)) / (1.0 - rho)
    print(f"settled (1 - r) / (1 - worst case): me {me:.4f}, grad {grad:.4f}")
    assert abs(me - 1.0) <= 0.10, me
    assert abs(grad - 1.0) <= 0.01, grad


def test_write_check_results(tmp_path):
    rows = [
        {"check": "kantorovich", "instance_id": "diag-8-1", "satisfied": True,
         "worst_margin": 0.12},
        {"check": "linear_rate", "instance_id": "dense-40-2", "satisfied": True,
         "worst_margin": 0.5},
    ]
    path = tmp_path / "checks.jsonl"
    write_check_results(path, rows)
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed == rows
    with pytest.raises(ValueError, match="missing"):
        write_check_results(path, [{"check": "x"}])
