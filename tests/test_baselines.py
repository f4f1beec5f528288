import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (LIVE_N, LIVE_VECTORS, CountingOperator, IndefiniteOperator, Steps,
                      diag_problem, steps_to_tolerance, two_step_chebyshev_rate)

import ellipcenter.baselines as baselines
from ellipcenter.baselines import (
    BBVariant,
    bb_solve,
    bb_step_length,
    cg_solve,
    fast_gradient_solve,
    gradient_optimal_step_solve,
    gradient_wolfe_solve,
    wolfe_search,
)
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)
from ellipcenter.solver import (
    _REFRESH_STEPS,
    Branch,
    SolveOptions,
    StepRecord,
    Termination,
    me_solve,
)


def bb_long_solve(problem, x1, options=SolveOptions()):
    return bb_solve(problem, x1, BBVariant(short_steps=False), options=options)


def grad_wolfe_solve(problem, x1, options=SolveOptions()):
    return gradient_wolfe_solve(problem, x1, options=options)


SOLVERS = {
    "me": me_solve,
    "grad": gradient_optimal_step_solve,
    "cg": cg_solve,
    "bb": bb_long_solve,
    "fast": fast_gradient_solve,
    "grad-wolfe": grad_wolfe_solve,
}


def counted_problem(entries, b):
    op = CountingOperator(DiagonalOperator(entries))
    return op, QuadraticProblem(op, b)


def random_spd_problem(rng, n):
    r = rng.standard_normal((n, n))
    op = DenseOperator(r @ r.T + n * np.eye(n))
    return QuadraticProblem(op, rng.standard_normal(n))


class TestGradientOptimalStep:
    def test_identity_converges_in_one_iteration(self):
        rng = np.random.default_rng(40)
        p = diag_problem(np.ones(5), b=rng.standard_normal(5))
        result = gradient_optimal_step_solve(p, rng.standard_normal(5))
        assert result.iterations == 1
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE

    def test_first_step_hand_example(self):
        p = diag_problem([1.0, 4.0])
        result = gradient_optimal_step_solve(
            p, [2.0, 1.0], SolveOptions(max_iterations=1)
        )
        np.testing.assert_allclose(
            result.x_final, [24.0 / 17.0, -3.0 / 17.0], rtol=1e-14
        )

    def test_start_at_minimizer(self):
        p = diag_problem([1.0, 4.0], b=np.array([2.0, 8.0]))
        result = gradient_optimal_step_solve(p, [2.0, 2.0])
        assert result.iterations == 0

    def test_converges_on_moderate_conditioning(self):
        rng = np.random.default_rng(41)
        p = diag_problem(np.linspace(1.0, 50.0, 30), b=rng.uniform(0, 5, 30))
        result = gradient_optimal_step_solve(p, np.zeros(30))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        x_star = np.asarray(p.b) / np.linspace(1.0, 50.0, 30)
        assert p.value(result.x_final) == pytest.approx(p.value(x_star), rel=1e-10)


class TestConjugateGradient:
    def test_two_dimensional_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = random_spd_problem(rng, 2)
            result = cg_solve(p, rng.standard_normal(2))
            assert result.iterations <= 2
            x_star = np.linalg.solve(p.A.dense(), np.asarray(p.b))
            assert np.linalg.norm(result.x_final - x_star) <= 1e-8 * (
                1.0 + np.linalg.norm(x_star)
            )

    def test_identity_one_iteration(self):
        rng = np.random.default_rng(43)
        p = diag_problem(np.ones(7), b=rng.standard_normal(7))
        result = cg_solve(p, rng.standard_normal(7))
        assert result.iterations == 1

    def test_successive_directions_conjugate(self):
        # Steps are parallel to the directions, so conjugacy of successive
        # steps certifies conjugacy of the directions themselves.
        rng = np.random.default_rng(44)
        p = diag_problem(np.linspace(1.0, 400.0, 25), b=rng.uniform(0, 3, 25))
        steps = Steps()
        result = cg_solve(p, np.zeros(25), SolveOptions(observer=steps))
        points = steps.xs + [result.x_final]
        steps = [b - a for a, b in zip(points, points[1:])]
        for s_prev, s_next in zip(steps, steps[1:]):
            inner = p.a_inner(s_next, s_prev)
            scale = math.sqrt(
                p.a_inner(s_next, s_next) * p.a_inner(s_prev, s_prev)
            )
            assert abs(inner) <= 1e-8 * scale

    def test_finite_termination_within_dimension(self):
        rng = np.random.default_rng(45)
        for n in (5, 17, 33, 50):
            p = random_spd_problem(rng, n)
            result = cg_solve(p, rng.standard_normal(n))
            assert result.terminated_by is Termination.GRADIENT_TOLERANCE
            assert result.iterations <= n + 2

    def test_breakdown_on_indefinite_operator(self):
        p = QuadraticProblem(IndefiniteOperator([1.0, -1.0]), [1.0, 1.0])
        with pytest.raises(RuntimeError, match="breakdown"):
            cg_solve(p, np.zeros(2))


class TestWolfeSearch:
    @staticmethod
    def _half_square_line(x, d):
        # phi(t) - phi(0) and phi'(t) for f(z) = z^2 / 2 along x + t d.
        return lambda t: (t * x * d + 0.5 * t * t * d * d, (x + t * d) * d), x * d

    def test_unit_step_accepted_immediately(self):
        line, slope0 = self._half_square_line(1.0, -1.0)
        t = wolfe_search(line, slope0)
        assert t == 1.0

    def test_conditions_hold_on_random_quadratics(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            p = random_spd_problem(rng, n)
            oracle = lambda z: (p.value(z), p.gradient(z))
            x = rng.standard_normal(n)
            g = p.gradient(x)
            if np.linalg.norm(g) == 0.0:
                continue
            d = -g
            f0, g0 = oracle(x)
            slope0 = d @ g0

            def line(t):
                ft, gt = oracle(x + t * d)
                return ft - f0, d @ gt

            t = wolfe_search(line, slope0)
            ft, gt = oracle(x + t * d)
            assert ft <= f0 + baselines._WOLFE_M1 * t * slope0 + 1e-12 * max(1.0, abs(f0))
            assert d @ gt >= baselines._WOLFE_M2 * slope0

    def test_non_descent_direction_rejected(self):
        line, slope0 = self._half_square_line(1.0, 1.0)
        with pytest.raises(ValueError, match="descent"):
            wolfe_search(line, slope0)

    def test_max_trials_warns_and_returns_decrease_step(self, monkeypatch):
        # With m2 = 0.1 the curvature condition needs t >= 9 here, which the
        # doubling reaches only at the fourth trial; three trials exhaust the
        # budget after accepting sufficient decrease at t = 1, 2, 4.
        monkeypatch.setattr(baselines, "_WOLFE_M2", 0.1)
        monkeypatch.setattr(baselines, "_WOLFE_MAX_TRIALS", 3)
        line, slope0 = self._half_square_line(10.0, -1.0)
        with pytest.warns(RuntimeWarning, match="Wolfe"):
            t = wolfe_search(line, slope0)
        assert t == 4.0

    def test_one_matvec_a_search(self, monkeypatch):
        # The line model costs one matvec, so a bb solve with one search
        # makes the initial gradient, that matvec and one gradient a step,
        # and a grad-wolfe step makes two.
        search = baselines.wolfe_search
        ts = []

        def counted(line, slope0):
            ts.append(search(line, slope0))
            return ts[-1]

        monkeypatch.setattr(baselines, "wolfe_search", counted)
        base = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 64, 1))
        for short in (False, True):
            op = CountingOperator(base.A)
            p = QuadraticProblem(op, base.b)
            ts.clear()
            result = bb_solve(p, np.zeros(64), BBVariant(short_steps=short))
            assert result.terminated_by is Termination.GRADIENT_TOLERANCE
            assert len(ts) == 1 and ts[0] < 1.0
            assert op.calls == result.iterations + 2
        op = CountingOperator(base.A)
        p = QuadraticProblem(op, base.b)
        result = gradient_wolfe_solve(p, np.zeros(64), SolveOptions(max_iterations=1))
        assert result.iterations == 1 and op.calls == 1 + 2

    @pytest.mark.parametrize("diag", [[1.0, -1.0], [-1.0, -2.0]])
    @pytest.mark.parametrize("method", ["bb", "grad-wolfe"])
    def test_non_positive_curvature_raises(self, method, diag):
        # g = (-1, -1) has d^T A d = 0 or -3: no Wolfe step exists, and the
        # search fails at once, before any trial overflows.
        p = QuadraticProblem(IndefiniteOperator(diag), [1.0, 1.0])
        with pytest.raises(RuntimeError, match="not positive definite"):
            SOLVERS[method](p, np.zeros(2))

    @pytest.mark.parametrize("method", ["bb", "grad-wolfe"])
    def test_gradient_in_positive_eigenspace_converges(self, method):
        p = QuadraticProblem(IndefiniteOperator([1.0, -1.0]), [1.0, 0.0])
        result = SOLVERS[method](p, np.zeros(2))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        assert result.iterations == 1


class TestBarzilaiBorwein:
    def test_step_length_hand_values(self):
        s = np.array([1.0, 1.0])
        y = np.array([2.0, 4.0])
        assert bb_step_length(s, y, BBVariant(short_steps=False)) == pytest.approx(1 / 3)
        assert bb_step_length(s, y, BBVariant(short_steps=True)) == pytest.approx(0.3)

    def test_step_length_degenerate(self):
        s = np.array([1.0, 0.0])
        assert math.isnan(bb_step_length(s, -s, BBVariant(short_steps=False)))
        assert math.isnan(bb_step_length(s, np.zeros(2), BBVariant(short_steps=True)))

    @pytest.mark.parametrize("short", [False, True])
    def test_identity_lands_after_two_updates(self, short):
        # After the first step s and y are parallel, so t = 1 hits the
        # minimizer on the next update.
        rng = np.random.default_rng(47)
        p = diag_problem(np.ones(6), b=rng.standard_normal(6))
        result = bb_solve(p, rng.standard_normal(6), BBVariant(short_steps=short))
        assert result.iterations <= 2
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE

    @pytest.mark.parametrize("short", [False, True])
    def test_converges_fast_on_two_eigenvalues(self, short):
        rng = np.random.default_rng(48)
        p = diag_problem([1.0, 2.0], b=rng.standard_normal(2))
        result = bb_solve(p, rng.standard_normal(2), BBVariant(short_steps=short))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        assert result.iterations < 50


class TestFastGradient:
    def test_identity_single_iteration(self):
        p = diag_problem(np.ones(2))
        result = fast_gradient_solve(p, [2.0, 0.0])
        assert result.iterations == 1
        np.testing.assert_allclose(result.x_final, np.zeros(2), atol=1e-15)

    def test_matches_reference_recurrence(self):
        # Re-run the recurrence independently and compare iterates; also
        # check the auxiliary sequence never exceeds the starting value.
        rng = np.random.default_rng(49)
        p = diag_problem(np.linspace(1.0, 9.0, 12), b=rng.uniform(0, 2, 12))
        opts = SolveOptions(max_iterations=100)
        result = fast_gradient_solve(p, np.zeros(12), opts)

        d = np.linspace(1.0, 9.0, 12)
        b = np.asarray(p.b)
        L = d.max()
        x = np.zeros(12)
        y = x
        C = 0.0
        f_start = p.value(x)
        threshold = 1e-8 * np.linalg.norm(d * x - b)
        iters = 0
        while np.linalg.norm(d * x - b) > threshold and iters < 100:
            a = (1.0 + math.sqrt(1.0 + 4.0 * L * C)) / (2.0 * L)
            C_next = C + a
            x_tilde = (C * y + a * x) / C_next
            y_next = x_tilde + (b - d * x_tilde) / L
            x = (C_next / a) * y_next - (C / a) * y
            y = y_next
            C = C_next
            iters += 1
            assert C > 0.0 and a > 0.0
            assert p.value(y) <= f_start + 1e-8 * max(1.0, abs(f_start))
        assert result.iterations == iters
        np.testing.assert_allclose(result.x_final, x, rtol=1e-12, atol=1e-12)

    def test_uses_exact_operator_norm_for_rank_one(self):
        rng = np.random.default_rng(50)
        v = rng.uniform(0.0, 1.0, 20)
        p = QuadraticProblem(RankOneOperator(v, 10.0), rng.uniform(0, 5, 20))
        result = fast_gradient_solve(p, np.zeros(20), SolveOptions(max_iterations=2000))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE


class TestGradientWolfe:
    def test_converges_on_identity(self):
        rng = np.random.default_rng(51)
        p = diag_problem(np.ones(4), b=rng.standard_normal(4))
        result = gradient_wolfe_solve(p, rng.standard_normal(4))
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE

    def test_monotone_decrease(self):
        rng = np.random.default_rng(52)
        p = diag_problem(np.linspace(1.0, 30.0, 10), b=rng.uniform(0, 2, 10))
        steps = Steps()
        result = gradient_wolfe_solve(
            p, np.zeros(10), options=SolveOptions(epsilon=1e-6, observer=steps)
        )
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        values = [rec.f_value for rec in steps.records] + [result.f_final]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-12 * max(1.0, abs(before))

    def test_slower_than_center_method_when_ill_conditioned(self):
        rng = np.random.default_rng(53)
        p = diag_problem([1.0, 100.0], b=rng.uniform(1.0, 5.0, 2))
        opts = SolveOptions(epsilon=1e-6)
        slow = gradient_wolfe_solve(p, np.zeros(2), options=opts)
        fast = me_solve(p, np.zeros(2), opts)
        assert slow.iterations > fast.iterations


def test_default_solvers_agree_on_final_value():
    # The six default solvers reach the same value once each meets the
    # 1e-8 relative gradient tolerance.
    rng = np.random.default_rng(54)
    problems = [
        diag_problem(np.linspace(1.0, 200.0, 40), b=rng.uniform(0, 10, 40)),
        QuadraticProblem(
            RankOneOperator(rng.uniform(0, 1, 30), 10.0), rng.uniform(0, 10, 30)
        ),
    ]
    for p in problems:
        x1 = np.zeros(p.dim)
        opts = SolveOptions(epsilon=1e-8, max_iterations=100_000)
        results = [
            me_solve(p, x1, opts),
            gradient_optimal_step_solve(p, x1, opts),
            cg_solve(p, x1, opts),
            bb_solve(p, x1, BBVariant(short_steps=False), options=opts),
            bb_solve(p, x1, BBVariant(short_steps=True), options=opts),
            fast_gradient_solve(p, x1, opts),
        ]
        values = [r.f_final for r in results]
        for r in results:
            assert r.terminated_by is Termination.GRADIENT_TOLERANCE
        lo, hi = min(values), max(values)
        assert hi - lo <= 1e-6 * max(1.0, abs(lo))


def test_iteration_counts_are_update_counts():
    # One update on an identity problem, checked across every solver.
    rng = np.random.default_rng(55)
    p = diag_problem(np.ones(3), b=rng.standard_normal(3))
    x1 = rng.standard_normal(3)
    assert me_solve(p, x1).iterations == 1
    assert gradient_optimal_step_solve(p, x1).iterations == 1
    assert cg_solve(p, x1).iterations == 1
    assert fast_gradient_solve(p, x1).iterations == 1


class TestCarriedGradient:
    @pytest.mark.parametrize("solve", [gradient_optimal_step_solve, cg_solve])
    def test_one_matvec_per_step(self, solve):
        rng = np.random.default_rng(54)
        op, p = counted_problem(np.linspace(1.0, 2000.0, 200), rng.uniform(0, 10, 200))
        result = solve(p, np.zeros(200))
        k = result.iterations
        assert k > _REFRESH_STEPS
        assert result.terminated_by is Termination.GRADIENT_TOLERANCE
        # One at the start, one a step, one a refresh, one final check
        # unless the last step already refreshed.
        assert op.calls == 1 + k + k // _REFRESH_STEPS + (k % _REFRESH_STEPS != 0)

    @pytest.mark.parametrize(
        "solve",
        [gradient_optimal_step_solve, cg_solve, bb_long_solve, fast_gradient_solve,
         grad_wolfe_solve],
    )
    @pytest.mark.parametrize("max_iterations", [3, _REFRESH_STEPS, 1_000_000])
    def test_final_gradient_is_true_gradient(self, solve, max_iterations):
        rng = np.random.default_rng(55)
        p = diag_problem(np.linspace(1.0, 500.0, 60), b=rng.uniform(0.0, 5.0, 60))
        result = solve(p, np.zeros(60), SolveOptions(max_iterations=max_iterations))
        assert result.grad_norm_final == np.linalg.norm(p.gradient(result.x_final))
        assert result.f_final == pytest.approx(p.value(result.x_final), rel=1e-12)

    @pytest.mark.parametrize("solve", [gradient_optimal_step_solve, cg_solve])
    def test_traced_norms_track_true_gradient(self, solve):
        rng = np.random.default_rng(56)
        p = diag_problem(np.linspace(1.0, 300.0, 80), b=rng.uniform(0.0, 5.0, 80))
        steps = Steps()
        solve(p, np.zeros(80), SolveOptions(observer=steps))
        for x, _, rec in steps:
            assert rec.grad_norm == pytest.approx(np.linalg.norm(p.gradient(x)), rel=1e-7)


def _run(method, p, options):
    return SOLVERS[method](p, np.zeros(p.dim), options)


@pytest.mark.parametrize("method", ["grad", "cg", "bb", "fast", "grad-wolfe", "me"])
def test_trace_adds_no_matvec(method):
    # Step records take f from the gradient in hand, not from a matvec.  Every
    # solver reports one StepRecord per update; only me fills the ellipse fields.
    rng = np.random.default_rng(57)
    entries = np.linspace(1.0, 20.0, 30)
    b = rng.uniform(0.0, 5.0, 30)
    counts = []
    for steps in (None, Steps()):
        op, p = counted_problem(entries, b)
        options = SolveOptions(epsilon=1e-6, max_iterations=500, observer=steps)
        result = _run(method, p, options)
        counts.append(op.calls)
    assert counts[0] == counts[1]
    assert len(steps) == result.iterations > 0
    for x, _, rec in steps:
        assert type(rec) is StepRecord
        assert rec.f_value == pytest.approx(p.value(x), rel=1e-12, abs=1e-12)
        if method == "me":
            assert rec.branch is not None
        else:
            assert (rec.branch, rec.t, rec.delta, rec.alpha, rec.beta) == (None,) * 5


@pytest.mark.parametrize("method", SOLVERS)
def test_overflowing_initial_gradient_raises(method):
    # ||g|| = ||b|| overflows at x1 = 0; no threshold can be derived from it.
    p = QuadraticProblem(DiagonalOperator([1.0, 2.0]), [1e200, 1e200])
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        with pytest.raises(RuntimeError, match="gradient norm is inf; aborting"):
            _run(method, p, SolveOptions())


@pytest.mark.parametrize("diag", [[1.0, -1.0], [-1.0, -2.0]])
@pytest.mark.parametrize("method", ["me", "grad"])
def test_non_positive_energy_rejected(method, diag):
    # The exact line-search step is half the center step's level step, so
    # grad rejects g^T A g = 0 or -3 at once, as me does, rather than divide
    # by zero or climb to the maximizer.
    p = QuadraticProblem(IndefiniteOperator(diag), [1.0, 1.0])
    with pytest.raises(ValueError, match="not positive definite"):
        SOLVERS[method](p, np.zeros(2))


@pytest.mark.parametrize("d, b", [(5.0, 5.0), (0.5, 3.0)])
@pytest.mark.parametrize("method", [*SOLVERS, "bb-short"])
def test_one_dimensional_problem(method, d, b):
    # With n = 1 the gradient spans the space, so one exact step lands on b/d,
    # and g_y is parallel to g_x, so the center step is the midpoint.  bb's
    # first step is a Wolfe step from t = 1, which the search accepts away
    # from b/d; its first two-point step, 1/d, lands.
    p = diag_problem([d], b=[b])
    steps = Steps()
    options = SolveOptions(observer=steps)
    if method == "bb-short":
        result = bb_solve(p, np.zeros(1), BBVariant(short_steps=True), options)
    else:
        result = _run(method, p, options)
    assert result.terminated_by is Termination.GRADIENT_TOLERANCE
    if method != "grad-wolfe":
        assert result.iterations == (2 if method.startswith("bb") else 1)
        assert result.x_final[0] == b / d
    if method == "me":
        assert steps.records[0].branch is Branch.MIDPOINT


def _wolfe_stall_instance(name):
    if name == "rank1-1000":
        return generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 1000, 1))
    return random_spd_problem(np.random.default_rng(74), 5)


@pytest.mark.parametrize("instance", ["rank1-1000", "spd5-seed74"])
def test_gradient_wolfe_reaches_tolerance(instance):
    # Near the minimizer the decrease the Wolfe test compares falls below the
    # rounding of f.  With f = 1/2 x^T A x - b^T x + c the search stalls on
    # the rank-one instance at ||g|| / ||g1|| of about 3.5e-8; with
    # f = 1/2 (x^T g - b^T x) + c it stalls on the n = 5 one at about 1.9e-8.
    p = _wolfe_stall_instance(instance)
    result = grad_wolfe_solve(p, np.zeros(p.dim), SolveOptions(max_iterations=1000))
    assert result.terminated_by is Termination.GRADIENT_TOLERANCE


def matvecs_to_tolerance(solve, problem, options=SolveOptions()):
    # Matvecs a solve from x1 = 0 makes to reach the default 1e-8 relative
    # tolerance: the paper's cost model.
    op = CountingOperator(problem.A)
    result = solve(QuadraticProblem(op, problem.b, problem.c), np.zeros(problem.dim), options)
    assert result.terminated_by is Termination.GRADIENT_TOLERANCE
    return op.calls


def test_me_costs_no_more_matvecs_than_grad():
    # me makes two matvecs a step to grad's one, and takes about a quarter
    # of its steps: 202,779 matvecs against 405,835.
    #
    # The same me run meets the whole-run two-step Chebyshev bound.  As two
    # cg steps, a center step shrinks f - f* by sigma = 1/T2(z)^2 at least,
    # so K2 = steps_to_tolerance(kappa, epsilon, sigma) center steps reach
    # the tolerance: 148,948 at kappa = 5e4, against me's 100,385 steps.
    # A midpoint step is one exact-line-search step and promises only
    # ((kappa-1)/(kappa+1))^2, so the bound needs every step on the center
    # branch; this instance takes 0 midpoint steps.
    p = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 500, 1))
    branches = Counter()

    def count(x, g, record):
        branches[record.branch] += 1

    me_matvecs = matvecs_to_tolerance(me_solve, p, SolveOptions(observer=count))
    assert me_matvecs <= matvecs_to_tolerance(gradient_optimal_step_solve, p)
    bounds = p.A.eigen_bounds()
    kappa = bounds.lambda_max / bounds.lambda_min
    k2 = steps_to_tolerance(kappa, SolveOptions.epsilon, two_step_chebyshev_rate(kappa))
    assert branches[Branch.MIDPOINT] == 0
    assert sum(branches.values()) <= k2


def test_me_matvecs_between_cg_and_grad_on_uniform_spectrum():
    # A spectrum spread evenly over [1, 100]: cg 73, me 420, grad 826.
    p = diag_problem(np.linspace(1.0, 100.0, 200), b=np.random.default_rng(0).uniform(0, 1, 200))
    cg, me, grad = (
        matvecs_to_tolerance(solve, p)
        for solve in (cg_solve, me_solve, gradient_optimal_step_solve)
    )
    assert cg <= me <= grad


def _contract_problem(kind):
    rng = np.random.default_rng(81)
    if kind == "dense":
        return random_spd_problem(rng, 30)
    return diag_problem(np.geomspace(1.0, 1e3, 40), b=rng.uniform(0.0, 5.0, 40))


@pytest.mark.parametrize("kind", ["diag", "dense"])
@pytest.mark.parametrize("method", [*SOLVERS, "bb-short"])
def test_steps_leave_what_they_hand_out_intact(method, kind):
    # A step writes only into arrays it made itself, so every x and g an
    # observer is shown, x1 included, keeps its values for the whole solve:
    # an observer may keep them without copying.  The diag problem runs
    # past the carried gradients' refresh.
    p = _contract_problem(kind)
    x1 = np.zeros(p.dim)
    shown = []

    def keep(x, g, record):
        shown.append((x, g, x.copy(), g.copy()))

    options = SolveOptions(epsilon=1e-300, max_iterations=2 * _REFRESH_STEPS, observer=keep)
    if method == "bb-short":
        result = bb_solve(p, x1, BBVariant(short_steps=True), options)
    else:
        result = SOLVERS[method](p, x1, options)
    assert len(shown) == result.iterations >= 2
    assert shown[0][0] is x1 and not x1.any()
    for x, g, x_copy, g_copy in shown:
        assert x.tobytes() == x_copy.tobytes()
        assert g.tobytes() == g_copy.tobytes()


def test_midpoint_step_leaves_its_inputs_intact():
    # g at x1 is an eigenvector, so g_y is parallel to it and the step takes
    # the midpoint branch, which builds g_next in A g.
    p = diag_problem([1.0, 4.0])
    x1 = np.array([1.0, 0.0])
    steps = Steps()
    result = me_solve(p, x1, SolveOptions(observer=steps))
    assert steps.records[0].branch is Branch.MIDPOINT
    (x, g, _), = steps
    assert x is x1 and x1.tolist() == [1.0, 0.0] and g.tolist() == [1.0, 0.0]
    assert result.x_final.tolist() == [0.0, 0.0]


@pytest.fixture(scope="module")
def live_problems():
    return [generate(InstanceSpec(family, LIVE_N, 1))
            for family in (InstanceFamily.DIAGONAL_ILL_CONDITIONED,
                           InstanceFamily.DENSE_RANK_ONE)]


@pytest.mark.parametrize("method", LIVE_VECTORS)
def test_live_vectors_per_solve(method, live_problems):
    for problem, bound in zip(live_problems, LIVE_VECTORS[method]):
        x1 = np.zeros(LIVE_N)
        tracemalloc.start()
        try:
            METHODS[method](problem, x1, SolveOptions(max_iterations=60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beside the vectors, a solve holds a few kilobytes of Python objects.
        assert peak / x1.nbytes < bound + 0.1
