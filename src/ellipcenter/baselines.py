"""Classic first-order solvers sharing the quadratic problem and result types.

Five methods: exact-line-search gradient descent, conjugate gradient,
Barzilai-Borwein (long or short steps, first step by Wolfe search),
Nesterov-style fast gradient, and gradient descent with Wolfe search.
Each is a step kernel under the contract of ``solver._drive``, the loop
``me_solve`` uses, and reports no ``StepRecord`` fields of its own.
Iterations count x-updates, convergence is checked before each update, and
the gradient threshold is fixed from the initial iterate.  Gradient descent
and conjugate gradient carry the gradient by recurrence, one matvec a step,
and the driver replaces it with the true gradient as it does for
``me_solve``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .quadratic import QuadraticProblem, _dot
from .solver import SolveOptions, SolverResult, _axpy, _drive, _level_length

__all__ = [
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
class BBVariant:
    """Barzilai-Borwein step choice: short steps (s^T y / y^T y) when True,
    long steps (s^T s / s^T y) otherwise."""

    short_steps: bool


# wolfe_search's constants: the extrapolation factor a > 1, the
# sufficient-decrease and curvature constants 0 < m1 < m2 < 1, and the
# number of trials before it gives up.
_WOLFE_A = 2.0
_WOLFE_M1 = 1e-4
_WOLFE_M2 = 0.9
_WOLFE_MAX_TRIALS = 100


def wolfe_search(line, slope0: float) -> float:
    """Step length along a descent line satisfying both Wolfe conditions.

    ``line(t)`` returns ``(phi(t) - phi(0), phi'(t))`` for phi(t) = f(x + t d),
    and ``slope0`` is phi'(0).  A bracket [t_L, t_R] is maintained: while no
    upper bound exists the trial step is extrapolated by the factor
    ``_WOLFE_A``, afterwards it bisects.  Accepts t once phi(t) - phi(0) <=
    m1 t slope0 and phi'(t) >= m2 slope0, with m1 = ``_WOLFE_M1`` and m2 =
    ``_WOLFE_M2``.  If ``_WOLFE_MAX_TRIALS`` trials pass without that, the
    best sufficient-decrease step found so far is returned with a warning.
    """
    if slope0 >= 0.0:
        raise ValueError(f"not a descent direction (slope0 = {slope0:g})")
    t, t_left, t_right = 1.0, 0.0, math.inf
    best = None
    for _ in range(_WOLFE_MAX_TRIALS):
        decrease, slope_t = line(t)
        if decrease <= _WOLFE_M1 * t * slope0:
            if slope_t >= _WOLFE_M2 * slope0:
                return t
            t_left = t
            best = t
        else:
            t_right = t
        t = _WOLFE_A * t if math.isinf(t_right) else 0.5 * (t_left + t_right)
    warnings.warn(
        f"Wolfe search did not satisfy the curvature condition within "
        f"{_WOLFE_MAX_TRIALS} trials; returning the best sufficient-decrease step",
        RuntimeWarning,
        stacklevel=2,
    )
    return best if best is not None else t


def _wolfe_step(problem: QuadraticProblem, g) -> float:
    # Wolfe step along d = -g at one matvec a search.  On a quadratic the
    # line is the exact parabola f(x + t d) - f(x) = t s + t^2 q / 2 with
    # s = d.g and q = d.(A d), so every trial's value and slope come from
    # two scalars.  The value is a decrease anchored at x: near the
    # minimizer the decrease the Wolfe test compares falls below the
    # rounding of f itself.
    d = -g
    s = float(_dot(d, g))
    q = float(_dot(d, problem.A.matvec(d)))
    if not math.isfinite(q) or q <= 0.0:
        raise RuntimeError(
            f"Wolfe search: curvature d^T A d = {q!r}; operator is not positive "
            "definite or the iterate overflowed"
        )
    return wolfe_search(lambda t: (t * s + 0.5 * t * t * q, s + t * q), s)


def bb_step_length(s, y, variant: BBVariant) -> float:
    """Two-point step from the displacement s and gradient difference y.

    Returns NaN on a degenerate denominator (s^T y <= 0 for long steps,
    y^T y = 0 for short ones); bb_solve falls back to a Wolfe step then.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if variant.short_steps:
        yy = float(_dot(y, y))
        return float(_dot(s, y)) / yy if yy > 0.0 else math.nan
    sy = float(_dot(s, y))
    return float(_dot(s, s)) / sy if sy > 0.0 else math.nan


def gradient_optimal_step_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Gradient descent with the exact line-search step t = ||r||^2 / (r^T A r).

    The gradient is carried as r <- r - t A r, one matvec a step, formed in
    A r.  t is half the center step's level step and, like it, rejects
    r^T A r <= 0.
    """

    def step(x, r, gg):
        ar = problem.A.matvec(r)
        t = 0.5 * _level_length(gg, float(_dot(r, ar)))
        ar *= -t
        ar += r
        return _axpy(-t, r, x), ar, ()

    return _drive(problem, x1, options, step, "gradient_optimal_step", carried=True)


def cg_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Conjugate gradient with directions d_k = g_k + theta_{k-1} d_{k-1}.

    theta makes successive directions conjugate with respect to A; the step
    is t_k = -<d_k, g_k> / <d_k, A d_k>.  Exact arithmetic terminates within
    n iterations, so the loop is capped at n plus a small rounding slack.
    The gradient is carried as g <- g + t A d, one matvec a step.
    """
    d = ad = dad = None

    def step(x, g, gg):
        nonlocal d, ad, dad
        if d is None:
            d = g
        else:
            theta = -_dot(g, ad) / dad  # dad is the last step's <d, A d>
            ad = None  # the last A d goes before the next matvec
            d = _axpy(theta, d, g)
        ad = problem.A.matvec(d)
        dad = float(_dot(d, ad))
        if dad <= 0.0 or not np.isfinite(dad):
            raise RuntimeError(
                f"cg: breakdown <d, A d> = {dad!r}; operator is not positive "
                "definite or rounding destroyed conjugacy"
            )
        t = -_dot(d, g) / dad
        return _axpy(t, d, x), _axpy(t, ad, g), ()

    cap = min(options.max_iterations, problem.dim + _CG_EXTRA_ITERATIONS)
    options = replace(options, max_iterations=cap)
    return _drive(problem, x1, options, step, "cg", carried=True)


def bb_solve(
    problem: QuadraticProblem,
    x1,
    variant: BBVariant,
    options: SolveOptions = SolveOptions(),
) -> SolverResult:
    """Barzilai-Borwein steps along d = -grad f(x) after a first Wolfe-search step.

    With s = x - x_prev and y = g - g_prev, the long step is s^T s / s^T y
    and the short step s^T y / y^T y.  Degenerate denominators (s^T y <= 0 or
    y^T y = 0, possible only through rounding) fall back to a Wolfe step for
    that iteration.
    """
    x_prev = g_prev = None

    def step(x, g, gg):
        nonlocal x_prev, g_prev
        t = math.nan
        if x_prev is not None:
            # Each old vector goes once its difference is formed, and the
            # differences before the next iterate is made.
            s, x_prev = x - x_prev, None
            y, g_prev = g - g_prev, None
            t = bb_step_length(s, y, variant)
            del s, y
        if not np.isfinite(t) or t <= 0.0:
            t = _wolfe_step(problem, g)
        x_prev, g_prev = x, g
        x_next = _axpy(-t, g, x)
        return x_next, problem.gradient(x_next), ()

    return _drive(problem, x1, options, step, "bb")


def fast_gradient_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Accelerated gradient method with the estimate-sequence weights.

    Uses L equal to the largest eigenvalue of A.  State (x, y, C) follows
    a = (1 + sqrt(1 + 4 L C)) / (2 L), C+ = C + a, the convex combination
    x~ = (C y + a x) / C+, the gradient step y+ = x~ + (b - A x~) / L, and
    x = (C+/a) y+ - (C/a) y.  Convergence is checked on the x-sequence.
    """
    L = problem.A.eigen_bounds().lambda_max
    y = None
    C = 0.0

    def step(x, g, gg):
        nonlocal y, C
        if y is None:
            y = x
        a = (1.0 + math.sqrt(1.0 + 4.0 * L * C)) / (2.0 * L)
        C_next = C + a
        x_tilde = (C * y + a * x) / C_next
        y_next = x_tilde + (problem.b - problem.A.matvec(x_tilde)) / L
        x_next = (C_next / a) * y_next - (C / a) * y
        y = y_next
        C = C_next
        return x_next, problem.gradient(x_next), ()

    return _drive(problem, x1, options, step, "fast_gradient")


def gradient_wolfe_solve(
    problem: QuadraticProblem, x1, options: SolveOptions = SolveOptions()
) -> SolverResult:
    """Gradient descent with Wolfe search along d = -grad f(x)."""

    def step(x, g, gg):
        x_next = _axpy(-_wolfe_step(problem, g), g, x)
        return x_next, problem.gradient(x_next), ()

    return _drive(problem, x1, options, step, "gradient_wolfe")
