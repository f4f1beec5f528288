"""Classic first-order solvers sharing the quadratic problem and result types.

Five methods: exact-line-search gradient descent, conjugate gradient,
Barzilai-Borwein (long or short steps, first step by Wolfe search),
Nesterov-style fast gradient, and gradient descent with Wolfe search.
All of them count iterations as the number of x-updates, check convergence
before each update, and fix the gradient threshold from the initial iterate.
Gradient descent and conjugate gradient carry the gradient by recurrence, one
matvec a step, and replace it with the true gradient as ``me_solve`` does:
every ``_REFRESH_STEPS`` steps and before the solve reports its termination.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .quadratic import QuadraticProblem, _as_vector
from .solver import (
    _REFRESH_STEPS,
    SolveOptions,
    SolverResult,
    StepRecord,
    Termination,
    _value_from_gradient,
)

__all__ = [
    "WolfeParams",
    "BBVariant",
    "wolfe_search",
    "bb_step_length",
    "gradient_optimal_step_solve",
    "cg_solve",
    "bb_solve",
    "fast_gradient_solve",
    "gradient_wolfe_solve",
]

# Slack over the dimension for conjugate gradient, which terminates within
# n steps in exact arithmetic but may need a few more under rounding.
_CG_EXTRA_ITERATIONS = 50


@dataclass(frozen=True)
class WolfeParams:
    """Wolfe line-search parameters: extrapolation factor a > 1 and
    sufficient-decrease / curvature constants 0 < m1 < m2 < 1."""

    a: float = 2.0
    m1: float = 1e-4
    m2: float = 0.9
    max_trials: int = 100

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError("extrapolation factor a must exceed 1")
        if not 0.0 < self.m1 < self.m2 < 1.0:
            raise ValueError("need 0 < m1 < m2 < 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")


@dataclass(frozen=True)
class BBVariant:
    """Barzilai-Borwein step choice: short steps (s^T y / y^T y) when True,
    long steps (s^T s / s^T y) otherwise."""

    short_steps: bool


def wolfe_search(oracle, x, d, params: WolfeParams = WolfeParams()) -> float:
    """Step length along descent direction ``d`` satisfying both Wolfe conditions.

    ``oracle(x)`` returns ``(value, gradient)``.  A bracket [t_L, t_R] is
    maintained: while no upper bound exists the trial step is extrapolated by
    the factor ``a``, afterwards it bisects.  Accepts t once
    f(x + t d) <= f(x) + m1 t d.g(x) and d.g(x + t d) >= m2 d.g(x).
    If ``max_trials`` is exhausted, the best sufficient-decrease step found
    so far is returned with a warning.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    f0, g0 = oracle(x)
    slope0 = float(d @ g0)
    if slope0 >= 0.0:
        raise ValueError(f"d is not a descent direction (directional slope {slope0:g})")
    t, t_left, t_right = 1.0, 0.0, math.inf
    best = None
    for _ in range(params.max_trials):
        ft, gt = oracle(x + t * d)
        slope_t = float(d @ gt)
        if ft <= f0 + params.m1 * t * slope0:
            if slope_t >= params.m2 * slope0:
                return t
            t_left = t
            best = t
        else:
            t_right = t
        t = params.a * t if math.isinf(t_right) else 0.5 * (t_left + t_right)
    warnings.warn(
        f"Wolfe search did not satisfy the curvature condition within "
        f"{params.max_trials} trials; returning the best sufficient-decrease step",
        RuntimeWarning,
        stacklevel=2,
    )
    return best if best is not None else t


def _blackbox(problem: QuadraticProblem):
    return lambda z: (problem.value(z), problem.gradient(z))


def bb_step_length(s, y, variant: BBVariant) -> float:
    """Two-point step from the displacement s and gradient difference y.

    Returns NaN on a degenerate denominator (s^T y <= 0 for long steps,
    y^T y = 0 for short ones); bb_solve falls back to a Wolfe step then.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if variant.short_steps:
        yy = float(y @ y)
        return float(s @ y) / yy if yy > 0.0 else math.nan
    sy = float(s @ y)
    return float(s @ s) / sy if sy > 0.0 else math.nan


def _check_finite(grad_norm: float, method: str) -> None:
    if not np.isfinite(grad_norm):
        raise RuntimeError(f"{method}: gradient norm became {grad_norm}; aborting")


def _termination(grad_norm, threshold):
    if grad_norm <= threshold:
        return Termination.GRADIENT_TOLERANCE
    return Termination.MAX_ITERATIONS


def _result(problem, x, g, iterations, grad_norm, terminated, start, trace):
    """The result at ``x``, whose true gradient ``g`` is in hand."""
    return SolverResult(
        x_final=x,
        iterations=iterations,
        f_final=_value_from_gradient(problem, x, g),
        grad_norm_final=grad_norm,
        wall_time_seconds=time.perf_counter() - start,
        terminated_by=terminated,
        trace=trace,
    )


def gradient_optimal_step_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Gradient descent with the exact line-search step t = ||r||^2 / (r^T A r).

    The gradient is carried as r <- r - t A r, one matvec a step.
    """
    x = _as_vector(x1, problem.dim, name="x1")
    r = problem.gradient(x)
    grad_norm = float(np.linalg.norm(r))
    threshold = options.gradient_threshold(grad_norm)
    trace = [] if options.record_trace else None
    iterations = 0
    since_refresh = 0  # steps since r was last the true gradient
    start = time.perf_counter()
    while iterations < options.max_iterations:
        if grad_norm <= threshold:
            if since_refresh == 0:
                break
            r = problem.gradient(x)
            grad_norm = float(np.linalg.norm(r))
            since_refresh = 0
            continue
        _check_finite(grad_norm, "gradient_optimal_step")
        if trace is not None:
            trace.append(StepRecord(_value_from_gradient(problem, x, r), grad_norm, x))
        ar = problem.A.matvec(r)
        t = (r @ r) / (r @ ar)
        if not np.isfinite(t):
            raise RuntimeError(f"gradient_optimal_step: non-finite step {t!r}")
        x = x - t * r
        since_refresh += 1
        if since_refresh < _REFRESH_STEPS:
            r = r - t * ar
        else:
            r = problem.gradient(x)
            since_refresh = 0
        grad_norm = float(np.linalg.norm(r))
        iterations += 1
    if since_refresh:
        r = problem.gradient(x)
        grad_norm = float(np.linalg.norm(r))
    terminated = _termination(grad_norm, threshold)
    return _result(problem, x, r, iterations, grad_norm, terminated, start, trace)


def cg_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Conjugate gradient with directions d_k = g_k + theta_{k-1} d_{k-1}.

    theta makes successive directions conjugate with respect to A; the step
    is t_k = -<d_k, g_k> / <d_k, A d_k>.  Exact arithmetic terminates within
    n iterations, so the loop is capped at n plus a small rounding slack.
    The gradient is carried as g <- g + t A d, one matvec a step.
    """
    x = _as_vector(x1, problem.dim, name="x1")
    g = problem.gradient(x)
    grad_norm = float(np.linalg.norm(g))
    threshold = options.gradient_threshold(grad_norm)
    cap = min(options.max_iterations, problem.dim + _CG_EXTRA_ITERATIONS)
    trace = [] if options.record_trace else None
    iterations = 0
    since_refresh = 0  # steps since g was last the true gradient
    d = None
    ad = None
    start = time.perf_counter()
    while iterations < cap:
        if grad_norm <= threshold:
            if since_refresh == 0:
                break
            g = problem.gradient(x)
            grad_norm = float(np.linalg.norm(g))
            since_refresh = 0
            continue
        _check_finite(grad_norm, "cg")
        if trace is not None:
            trace.append(StepRecord(_value_from_gradient(problem, x, g), grad_norm, x))
        if d is None:
            d = g
        else:
            theta = -(g @ ad) / (d @ ad)
            d = g + theta * d
        ad = problem.A.matvec(d)
        dad = float(d @ ad)
        if dad <= 0.0 or not np.isfinite(dad):
            raise RuntimeError(
                f"cg: breakdown <d, A d> = {dad!r}; operator is not positive "
                "definite or rounding destroyed conjugacy"
            )
        t = -(d @ g) / dad
        x = x + t * d
        since_refresh += 1
        if since_refresh < _REFRESH_STEPS:
            g = g + t * ad
        else:
            g = problem.gradient(x)
            since_refresh = 0
        grad_norm = float(np.linalg.norm(g))
        iterations += 1
    if since_refresh:
        g = problem.gradient(x)
        grad_norm = float(np.linalg.norm(g))
    terminated = _termination(grad_norm, threshold)
    return _result(problem, x, g, iterations, grad_norm, terminated, start, trace)


def bb_solve(
    problem: QuadraticProblem,
    x1,
    variant: BBVariant,
    wolfe: WolfeParams = WolfeParams(),
    options: SolveOptions = SolveOptions(),
) -> SolverResult:
    """Barzilai-Borwein steps along d = b - A x after a first Wolfe-search step.

    With s = x - x_prev and y = d_prev - d (d being the negative gradient,
    y equals the usual gradient difference), the long step is s^T s / s^T y
    and the short step s^T y / y^T y.  Degenerate denominators (s^T y <= 0 or
    y^T y = 0, possible only through rounding) fall back to a Wolfe step for
    that iteration.
    """
    x = _as_vector(x1, problem.dim, name="x1")
    oracle = _blackbox(problem)
    d = problem.b - problem.A.matvec(x)
    grad_norm = float(np.linalg.norm(d))
    threshold = options.gradient_threshold(grad_norm)
    trace = [] if options.record_trace else None
    iterations = 0
    x_prev = None
    d_prev = None
    start = time.perf_counter()
    while grad_norm > threshold and iterations < options.max_iterations:
        _check_finite(grad_norm, "bb")
        if trace is not None:
            trace.append(StepRecord(_value_from_gradient(problem, x, -d), grad_norm, x))
        if iterations == 0:
            t = wolfe_search(oracle, x, d, wolfe)
        else:
            t = bb_step_length(x - x_prev, d_prev - d, variant)
            if not np.isfinite(t) or t <= 0.0:
                t = wolfe_search(oracle, x, d, wolfe)
        x_prev = x
        d_prev = d
        x = x + t * d
        d = problem.b - problem.A.matvec(x)
        grad_norm = float(np.linalg.norm(d))
        iterations += 1
    terminated = _termination(grad_norm, threshold)
    return _result(problem, x, -d, iterations, grad_norm, terminated, start, trace)


def fast_gradient_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Accelerated gradient method with the estimate-sequence weights.

    Uses L equal to the largest eigenvalue of A.  State (x, y, C) follows
    a = (1 + sqrt(1 + 4 L C)) / (2 L), C+ = C + a, the convex combination
    x~ = (C y + a x) / C+, the gradient step y+ = x~ + (b - A x~) / L, and
    x = (C+/a) y+ - (C/a) y.  Convergence is checked on the x-sequence.
    """
    x = _as_vector(x1, problem.dim, name="x1")
    L = problem.A.eigen_bounds().lambda_max
    y = x
    C = 0.0
    g = problem.gradient(x)
    grad_norm = float(np.linalg.norm(g))
    threshold = options.gradient_threshold(grad_norm)
    trace = [] if options.record_trace else None
    iterations = 0
    start = time.perf_counter()
    while grad_norm > threshold and iterations < options.max_iterations:
        _check_finite(grad_norm, "fast_gradient")
        if trace is not None:
            trace.append(StepRecord(_value_from_gradient(problem, x, g), grad_norm, x))
        a = (1.0 + math.sqrt(1.0 + 4.0 * L * C)) / (2.0 * L)
        C_next = C + a
        x_tilde = (C * y + a * x) / C_next
        y_next = x_tilde + (problem.b - problem.A.matvec(x_tilde)) / L
        x = (C_next / a) * y_next - (C / a) * y
        y = y_next
        C = C_next
        g = problem.gradient(x)
        grad_norm = float(np.linalg.norm(g))
        iterations += 1
    terminated = _termination(grad_norm, threshold)
    return _result(problem, x, g, iterations, grad_norm, terminated, start, trace)


def gradient_wolfe_solve(
    problem: QuadraticProblem,
    x1,
    wolfe: WolfeParams = WolfeParams(),
    options: SolveOptions = SolveOptions(),
) -> SolverResult:
    """Gradient descent with Wolfe search along d = -grad f(x)."""
    x = _as_vector(x1, problem.dim, name="x1")
    oracle = _blackbox(problem)
    g = problem.gradient(x)
    grad_norm = float(np.linalg.norm(g))
    threshold = options.gradient_threshold(grad_norm)
    trace = [] if options.record_trace else None
    iterations = 0
    start = time.perf_counter()
    while grad_norm > threshold and iterations < options.max_iterations:
        _check_finite(grad_norm, "gradient_wolfe")
        if trace is not None:
            trace.append(StepRecord(_value_from_gradient(problem, x, g), grad_norm, x))
        t = wolfe_search(oracle, x, -g, wolfe)
        x = x - t * g
        g = problem.gradient(x)
        grad_norm = float(np.linalg.norm(g))
        iterations += 1
    terminated = _termination(grad_norm, threshold)
    return _result(problem, x, g, iterations, grad_norm, terminated, start, trace)
