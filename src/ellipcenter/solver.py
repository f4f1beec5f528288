"""Ellipse-center iteration for strongly convex quadratics.

One step works on the current level set of the objective.  From the iterate
x, a step of length t = 2 ||g||^2 / (g^T A g) along the negative gradient
lands on a point y with the same objective value.  The two gradients at x
and y span a plane; intersecting that plane with the level set gives an
ellipse whose center is also the minimizer of the objective on the plane.
The center solves a 2x2 Gram system and becomes the next iterate.  When the
two gradients are (numerically) parallel the step falls back to the midpoint
of x and y, which coincides with an exact-line-search gradient step.

Solvers here run over immutable inputs; concurrent solves on the same
problem are safe.  They are single-threaded: every 1-D dot goes through
``quadratic._dot``, which keeps a dot that OpenBLAS would split between
threads out of BLAS, so a solve gives the same bits for any thread count.
The one exception is the dense operator's matrix-vector product, a BLAS gemv
that may share its rows out between threads; it gave the same bits on 1 and
2 threads at n = 500 and 3,000.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .quadratic import QuadraticProblem, _as_vector, _dot

__all__ = [
    "Branch",
    "EpsilonMode",
    "Termination",
    "SolveOptions",
    "IterationRecord",
    "StepRecord",
    "SolverResult",
    "me_iterate",
    "me_solve",
]


class Branch(Enum):
    ELLIPSE_CENTER = "ellipse_center"
    MIDPOINT = "midpoint"
    CONVERGED = "converged"


class EpsilonMode(Enum):
    ABSOLUTE = "abs"
    RELATIVE_TO_INITIAL = "rel"


class Termination(Enum):
    GRADIENT_TOLERANCE = "gradient_tolerance"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule and iteration controls shared by all solvers.

    ``epsilon`` bounds the gradient norm; in RELATIVE_TO_INITIAL mode the
    effective threshold is epsilon * ||grad f(x1)||.  ``observer(x, g,
    record)``, when set, sees each update's start iterate, the gradient the
    step used and its ``StepRecord``; the driver builds records only then.
    """

    epsilon: float = 1e-8
    epsilon_mode: EpsilonMode = EpsilonMode.RELATIVE_TO_INITIAL
    max_iterations: int = 1_000_000
    observer: Callable | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.epsilon == math.inf:
            raise ValueError("epsilon must be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def gradient_threshold(self, initial_grad_norm: float) -> float:
        if self.epsilon_mode is EpsilonMode.ABSOLUTE:
            return self.epsilon
        return self.epsilon * initial_grad_norm


class IterationRecord(NamedTuple):
    """Artifacts of one ellipse-center step starting at ``x``.

    ``f_value`` and ``grad_norm`` describe the starting iterate; ``x_next``
    is the produced iterate (equal to ``x`` on the CONVERGED branch) and
    ``g_next`` the gradient there, carried by recurrence from ``g_x``.  The
    level point ``y`` is not stored; the property recomputes x - t g_x.  The
    ellipse coefficients ``delta``, ``alpha``, ``beta`` are present only on
    the ELLIPSE_CENTER branch.  Records are immutable; ``_replace`` makes a
    changed copy.
    """

    x: np.ndarray
    g_x: np.ndarray
    f_value: float
    grad_norm: float
    branch: Branch
    x_next: np.ndarray
    t: float | None = None
    g_y: np.ndarray | None = None
    g_next: np.ndarray | None = None
    delta: float | None = None
    alpha: float | None = None
    beta: float | None = None

    @property
    def y(self) -> np.ndarray | None:
        """The point x - t g_x on the level set of x (None without a step)."""
        if self.t is None:
            return None
        return self.x - self.t * self.g_x


class StepRecord(NamedTuple):
    """The scalars of one update, the same type for every solver.

    ``f_value`` and ``grad_norm`` describe the iterate the step starts from.
    The center step's ``branch``, ``t``, ``delta``, ``alpha`` and ``beta``
    are None for the baselines (the last three also off ELLIPSE_CENTER).
    """

    f_value: float
    grad_norm: float
    branch: Branch | None = None
    t: float | None = None
    delta: float | None = None
    alpha: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class SolverResult:
    x_final: np.ndarray
    iterations: int
    f_final: float
    grad_norm_final: float
    wall_time_seconds: float
    terminated_by: Termination


# me_solve, gradient_optimal_step_solve and cg_solve carry the gradient by
# recurrence, and _drive replaces it with the true gradient A x - b after
# this many steps (residual replacement, van der Vorst & Ye 2000).  Without
# it the recurred gradient drifts from the true one, and on ill-conditioned
# diagonals its entries for large eigenvalues decay into subnormals, which
# slow every later multiply.  Measured for the center method on the diag
# family, epsilon 1e-8 relative, as the worst relative drift
# ||g - (A x - b)|| / ||A x - b|| and the most subnormal entries of g:
#   n = 10^4, seeds 1-3, 50 steps:  <= 2.9e-8, none
#   n = 10^4, seed 1, 200 steps:    4.1e-8, 15 subnormal
#   n = 500, seed 1, 50 steps:      2.6e-8, none
#   n = 500, seed 1, no refresh:    4.2e-7, 251 subnormal (the first by step 170)
# The drift floor of about 2e-8 is the rounding of A x - b itself near the
# stopping point.  50 steps keeps the drift below 1e-7 and g free of
# subnormals for one extra matvec per 50 steps.
_REFRESH_STEPS = 50


def _value_from_gradient(problem: QuadraticProblem, x, g) -> float:
    # f(x) = 1/2 x^T g - 1/2 b^T x + c from a gradient g = A x - b in hand.
    return 0.5 * float(_dot(x, g) - _dot(problem.b, x)) + problem.c


def _level_length(gg: float, m11: float) -> float:
    # t = 2 ||g||^2 / (g^T A g), the step to the other point of the level set.
    if not math.isfinite(m11) or m11 <= 0.0:
        raise ValueError(
            f"gradient energy norm is {m11!r}; operator is not positive definite "
            "or the iterate overflowed"
        )
    t = 2.0 * gg / m11
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"level step t={t!r} is not a positive finite number")
    return t


# The two gradients g_x and g_y count as parallel when their Gram determinant
# in the energy product is at most this times ||g_x||_A^2 ||g_y||_A^2, a test
# invariant under rescaling of either gradient.
_DEPENDENCE_TOLERANCE = 1e-12


def _gram_delta(m11: float, m12: float, m22: float):
    # Gram determinant of (g_x, g_y) in the energy product, or None when the
    # two gradients count as dependent and the midpoint branch applies.
    delta = m11 * m22 - m12 * m12
    return delta if delta > _DEPENDENCE_TOLERANCE * m11 * m22 else None


def _axpy(a, u, v):
    # a u + v in one new array, rounded as the expression; x - t g is
    # _axpy(-t, g, x), the same bits, since negation rounds nothing.
    out = np.multiply(u, a)
    out += v
    return out


def _coeffs_from_gram(gg, gxgy, m11, m12, m22, delta):
    # Cramer solve of M [alpha, beta] = q with q = (-||g_x||^2, -<g_x, g_y>).
    q1 = -gg
    q2 = -gxgy
    alpha = (q1 * m22 - q2 * m12) / delta
    beta = (m11 * q2 - m12 * q1) / delta
    return alpha, beta


def _center_step(problem: QuadraticProblem, x, g, gg: float):
    # me_iterate's step from x, g and gg = g.g: (x_next, g_next, g_y, fields),
    # with fields the StepRecord's (branch, t, delta, alpha, beta).  It makes
    # x_next, g_y and the two matvec outputs and writes only into those:
    # g_next is built in A g, and A g_y is scratch once it is added in.
    ag_x = problem.A.matvec(g)
    m11 = float(_dot(g, ag_x))
    t = _level_length(gg, m11)
    g_y = np.multiply(ag_x, -t)  # g - t A g
    g_y += g
    ag_y = problem.A.matvec(g_y)
    m12 = float(_dot(g, ag_y))
    m22 = float(_dot(g_y, ag_y))
    delta = _gram_delta(m11, m12, m22)
    if delta is None:
        half = 0.5 * t
        ag_x *= -half  # g - (t/2) A g
        ag_x += g
        return _axpy(-half, g, x), ag_x, g_y, (Branch.MIDPOINT, t, None, None, None)
    alpha, beta = _coeffs_from_gram(gg, float(_dot(g, g_y)), m11, m12, m22, delta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise RuntimeError(
            f"non-finite center coefficients (t={t}, delta={delta}, "
            f"alpha={alpha}, beta={beta})"
        )
    # x + alpha g + beta g_y and g + alpha A g + beta A g_y, each rounded in
    # that order: the same bits as the expressions.
    x_next = _axpy(alpha, g, x)
    ag_x *= alpha
    ag_x += g
    ag_y *= beta
    ag_x += ag_y
    np.multiply(g_y, beta, out=ag_y)
    x_next += ag_y
    return x_next, ag_x, g_y, (Branch.ELLIPSE_CENTER, t, delta, alpha, beta)


def me_iterate(
    problem: QuadraticProblem,
    x,
    options: SolveOptions = SolveOptions(),
    grad_tolerance: float | None = None,
    g_x=None,
) -> IterationRecord:
    """One ellipse-center step from ``x``, as a record of everything it made.

    ``g_x`` is the gradient at ``x``; when omitted it is computed as A x - b.
    The step makes two matvecs, A g_x and A g_y.  The gradient is affine in
    x, so g_y = g_x - t A g_x, and the gradient at the produced iterate is
    ``g_next`` = g_x + alpha A g_x + beta A g_y (g_x - (t/2) A g_x on the
    midpoint branch).  ``me_solve`` runs the same step kernel without this
    call's input checks and record.

    ``grad_tolerance`` is the effective stopping threshold; when omitted it
    is derived from ``options`` using the gradient at ``x`` itself, so in
    relative mode a standalone call only reports CONVERGED at an exact
    stationary point.
    """
    x = _as_vector(x, problem.dim)
    if g_x is None:
        g_x = problem.gradient(x)
    else:
        g_x = _as_vector(g_x, problem.dim, name="g_x")
    gg = float(_dot(g_x, g_x))
    grad_norm = math.sqrt(gg)
    if not math.isfinite(grad_norm):
        raise RuntimeError(f"gradient norm is {grad_norm}; aborting")
    f_value = _value_from_gradient(problem, x, g_x)
    if not math.isfinite(f_value):
        raise RuntimeError(f"objective value is {f_value}; the iterate is not finite")
    if grad_tolerance is None:
        grad_tolerance = options.gradient_threshold(grad_norm)
    if grad_norm <= grad_tolerance:
        return IterationRecord(
            x=x, g_x=g_x, f_value=f_value, grad_norm=grad_norm,
            branch=Branch.CONVERGED, x_next=x, g_next=g_x,
        )
    x_next, g_next, g_y, (branch, t, delta, alpha, beta) = _center_step(problem, x, g_x, gg)
    return IterationRecord(
        x=x, g_x=g_x, f_value=f_value, grad_norm=grad_norm, branch=branch,
        x_next=x_next, t=t, g_y=g_y, g_next=g_next, delta=delta, alpha=alpha,
        beta=beta,
    )


def _drive(problem, x1, options, step, method, carried=False):
    """Run ``step`` from ``x1`` under the stopping rule shared by all solvers.

    Every solver's step has one contract: ``step(x, g, gg)`` makes one
    update from ``x`` with gradient ``g`` and ``gg`` = g.g, and returns
    ``(x_next, g_next, fields)``, where ``fields`` are the step's own
    ``StepRecord`` fields after f and the gradient norm: the center step's
    ``(branch, t, delta, alpha, beta)``, ``()`` for the baselines.  A step
    writes only into arrays it made itself: x, g and every array it returned
    before stay intact, so an observer may keep them.  With an
    observer in ``options``, each update's record is built here, with f from
    the gradient in hand, and handed to it before x moves.  The gradient
    threshold is fixed from the initial iterate, a gradient norm that is not
    finite raises, the convergence check runs before each update, and
    ``iterations`` counts updates actually performed, at most
    ``options.max_iterations``, the one cap.  With ``carried`` the step's
    ``g_next`` is a recurrence: the true gradient replaces it every
    ``_REFRESH_STEPS`` steps, and the solve stops only on a true gradient,
    so ``terminated_by``, ``f_final`` and ``grad_norm_final`` describe the
    returned iterate.
    """
    x = _as_vector(x1, problem.dim, name="x1")
    g = problem.gradient(x)
    gg = float(_dot(g, g))
    grad_norm = math.sqrt(gg)
    threshold = options.gradient_threshold(grad_norm)
    cap = options.max_iterations
    observer = options.observer
    iterations = 0
    since_refresh = 0  # steps since g was last the true gradient
    start = time.perf_counter()
    while True:
        if not math.isfinite(grad_norm):
            raise RuntimeError(f"{method}: gradient norm is {grad_norm}; aborting")
        if grad_norm <= threshold or iterations >= cap:
            if not since_refresh:
                break
            g = problem.gradient(x)
            since_refresh = 0
        else:
            x_next, g_next, fields = step(x, g, gg)
            if observer is not None:
                f = _value_from_gradient(problem, x, g)
                observer(x, g, StepRecord(f, grad_norm, *fields))
            x, g = x_next, g_next
            iterations += 1
            if carried:
                since_refresh += 1
                if since_refresh == _REFRESH_STEPS:
                    g = problem.gradient(x)
                    since_refresh = 0
        gg = float(_dot(g, g))
        grad_norm = math.sqrt(gg)
    return SolverResult(
        x_final=x,
        iterations=iterations,
        f_final=_value_from_gradient(problem, x, g),
        grad_norm_final=grad_norm,
        wall_time_seconds=time.perf_counter() - start,
        terminated_by=(
            Termination.GRADIENT_TOLERANCE
            if grad_norm <= threshold
            else Termination.MAX_ITERATIONS
        ),
    )


def me_solve(
    problem: QuadraticProblem,
    x1,
    options: SolveOptions = SolveOptions(),
) -> SolverResult:
    """Run the ellipse-center method from ``x1`` until the stopping rule fires.

    Each step hands its ``g_next`` to the next one as a carried gradient;
    the shared driver replaces it with the true gradient every
    ``_REFRESH_STEPS`` steps and stops only on a true gradient, so
    ``terminated_by``, ``f_final`` and ``grad_norm_final`` describe the
    returned iterate.
    """

    def step(x, g, gg):
        x_next, g_next, _, fields = _center_step(problem, x, g, gg)
        return x_next, g_next, fields

    return _drive(problem, x1, options, step, "me", carried=True)
