"""Executable checks of the convergence guarantees of the ellipse-center method.

Four checks: the Kantorovich inequality that drives the rate proof, the
per-step linear rate bound 1 - lambda_min/lambda_max together with its
energy-norm counterpart, single-step dominance over the exact-line-search
gradient step, and a bisection construction of the equal-value level point
for general strongly convex oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quadratic import (
    DenseOperator,
    DiagonalOperator,
    EigenBounds,
    QuadraticProblem,
    RankOneOperator,
)
from .solver import Branch, SolveOptions, me_iterate

__all__ = [
    "RateReport",
    "kantorovich_check",
    "linear_rate_check",
    "dominance_check",
    "level_point_bisection",
    "reference_minimum",
    "write_check_results",
]

_RATE_TOLERANCE = 1e-10
# Direct dense solves for the reference minimum stay affordable up to here.
_DENSE_SOLVE_LIMIT = 2000
# Doublings of level_point_bisection's trial step before the oracle counts
# as not coercive.
_MAX_EXPANSIONS = 200


@dataclass(frozen=True)
class RateReport:
    """Per-step contraction ratios of an error sequence against the rate bound.

    ``eta_bound`` is 1 - lambda_min/lambda_max; ``satisfied`` holds when
    every ratio (f(x_{k+1}) - f*) / (f(x_k) - f*) stays at most eta_bound
    plus a 1e-10 slack.  ``sharp_bound`` is the stronger ratio
    ((lambda_max - lambda_min) / (lambda_max + lambda_min))^2 that the same
    argument actually yields; its satisfaction is recorded separately.
    ``anorm_satisfied`` reports the cumulative energy-norm inequality
    ||x_{k+1} - x*||_A <= sqrt(eta)^k ||x_1 - x*||_A.  Steps whose error is
    already at or below zero (numerical floor) are skipped and counted.
    """

    eta_bound: float
    per_step_ratios: list[float] = field(default_factory=list)
    max_ratio: float = 0.0
    satisfied: bool = True
    sharp_bound: float = 0.0
    sharp_satisfied: bool = True
    anorm_satisfied: bool = True
    skipped_steps: int = 0


def kantorovich_check(A, y):
    """Both sides of the Kantorovich inequality for the operator A at y.

    Returns ``(lhs, bound)`` with lhs = (y^T y)^2 / ((y^T A y)(y^T A^{-1} y))
    and bound = 4 l1 ln / (l1 + ln)^2 for the extreme eigenvalues l1, ln.
    Restricted to operators whose inverse has a closed form (diagonal and
    rank-one-plus-identity), so no general solver pollutes the check.
    """
    if not isinstance(A, (DiagonalOperator, RankOneOperator)):
        raise TypeError(
            "kantorovich_check needs a closed-form inverse; use DiagonalOperator "
            f"or RankOneOperator, not {type(A).__name__}"
        )
    y = np.asarray(y, dtype=float)
    yy = float(y @ y)
    if yy == 0.0:
        raise ValueError("y must be nonzero")
    y_a_y = float(y @ A.matvec(y))
    y_ainv_y = float(y @ A.solve(y))
    lhs = yy * yy / (y_a_y * y_ainv_y)
    bounds = A.eigen_bounds()
    lam1, lamn = bounds.lambda_min, bounds.lambda_max
    bound = 4.0 * lam1 * lamn / (lam1 + lamn) ** 2
    return lhs, bound


def linear_rate_check(errors, bounds: EigenBounds) -> RateReport:
    """Check the errors f(x_k) - f* of a solve against the rate bound 1 - l1/ln.

    ``errors`` holds one error per iterate of a solve, in order, the final
    iterate's included.  The energy-norm form 1/2 ||x - x*||_A^2 gives the
    same quantity without the cancellation of differencing two nearly equal
    objective values; an observer collects it per step (see ``SolveOptions``).
    """
    errors = list(errors)
    eta = 1.0 - bounds.lambda_min / bounds.lambda_max
    sharp = (
        (bounds.lambda_max - bounds.lambda_min)
        / (bounds.lambda_max + bounds.lambda_min)
    ) ** 2

    ratios = []
    skipped = 0
    for e_now, e_next in zip(errors, errors[1:]):
        if e_now <= 0.0:
            skipped += 1
            continue
        ratios.append(e_next / e_now)
    max_ratio = max(ratios) if ratios else 0.0

    anorm_ok = True
    if errors and errors[0] > 0.0:
        e0 = errors[0]
        floor = 1e-12 * max(1.0, e0)
        for k, e in enumerate(errors[1:], start=1):
            if e > (eta + _RATE_TOLERANCE) ** k * e0 + floor:
                anorm_ok = False
                break

    return RateReport(
        eta_bound=eta,
        per_step_ratios=ratios,
        max_ratio=max_ratio,
        satisfied=max_ratio <= eta + _RATE_TOLERANCE,
        sharp_bound=sharp,
        sharp_satisfied=max_ratio <= sharp + _RATE_TOLERANCE,
        anorm_satisfied=anorm_ok,
        skipped_steps=skipped,
    )


def dominance_check(problem: QuadraticProblem, x):
    """Objective values after one ellipse-center step and one exact-line-search
    gradient step from the same point.

    Returns ``(f_me, f_grad)``; the center step never does worse.  When the
    two gradients are dependent both methods produce the same iterate, so the
    two values are computed at the shared point and are exactly equal.
    """
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x)
    if float(np.linalg.norm(g)) == 0.0:
        raise ValueError("x is already stationary")
    record = me_iterate(problem, x, SolveOptions(), grad_tolerance=0.0, g_x=g)
    f_me = problem.value(record.x_next)
    if record.branch is Branch.MIDPOINT:
        return f_me, f_me
    # The exact-line-search gradient step is half the level step.
    x_grad = x - (record.t / 2.0) * g
    return f_me, problem.value(x_grad)


def level_point_bisection(oracle, x, tol):
    """Find t > 0 with f(x - t g) = f(x) for a strongly convex oracle.

    ``oracle(x)`` returns ``(value, gradient)``.  The trial step doubles from
    t = 1 until the value exceeds f(x), which must happen for a coercive
    objective; the unique crossing beyond the one-dimensional minimum is then
    bisected until |f(x - t g) - f(x)| <= tol * max(1, |f(x)|), or until the
    bracket is resolved to machine precision.
    """
    x = np.asarray(x, dtype=float)
    f0, g0 = oracle(x)
    if float(np.linalg.norm(g0)) == 0.0:
        raise ValueError("x is already stationary")

    def phi(t):
        return oracle(x - t * g0)[0]

    hi = 1.0
    expansions = 0
    while phi(hi) <= f0:
        hi *= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise RuntimeError(
                "objective never exceeded its starting value along the ray; "
                "the oracle is not coercive (not strongly convex)"
            )
    lo = 0.0
    target = tol * max(1.0, abs(f0))
    t = 0.5 * (lo + hi)
    for _ in range(200):
        value = phi(t)
        if abs(value - f0) <= target:
            return t
        if value > f0:
            hi = t
        else:
            lo = t
        t = 0.5 * (lo + hi)
        if (hi - lo) <= 4.0 * np.finfo(float).eps * hi:
            return t
    return t


def reference_minimum(problem: QuadraticProblem):
    """The exact minimizer and minimum value, via the structure of A.

    Diagonal and rank-one operators use their closed-form inverse; dense
    matrices use a direct solve, limited to moderate sizes.
    """
    op = problem.A
    if isinstance(op, (DiagonalOperator, RankOneOperator)):
        x_star = op.solve(problem.b)
    elif isinstance(op, DenseOperator):
        if problem.dim > _DENSE_SOLVE_LIMIT:
            raise ValueError(
                f"direct dense solve limited to n <= {_DENSE_SOLVE_LIMIT}, "
                f"got n = {problem.dim}"
            )
        x_star = np.linalg.solve(op.matrix, problem.b)
    else:
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    return x_star, problem.value(x_star)


def write_check_results(path, rows) -> None:
    """Write check outcomes as JSON lines.

    Each row is a dict with the keys check, instance_id, satisfied and
    worst_margin.
    """
    required = {"check", "instance_id", "satisfied", "worst_margin"}
    with open(path, "w") as fh:
        for row in rows:
            missing = required - row.keys()
            if missing:
                raise ValueError(f"check row is missing keys {sorted(missing)}")
            fh.write(json.dumps(row) + "\n")
