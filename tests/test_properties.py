"""Property sweeps over small problems from all three operators, and over
the seeds and sizes of the generated families."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    WOLFE_A,
    WOLFE_M1,
    WOLFE_M2,
    WOLFE_MAX_TRIALS,
    Steps,
    bits,
    reference_line_oracle,
    reference_wolfe_search,
    splitmix_instance,
)

import ellipcenter.baselines as baselines
from ellipcenter.baselines import (
    _WOLFE_A,
    _WOLFE_M1,
    _WOLFE_M2,
    _WOLFE_MAX_TRIALS,
    _wolfe_step,
)
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)
from ellipcenter.solver import Branch, SolveOptions, Termination, me_iterate, me_solve
from ellipcenter.theory import dominance_check, reference_minimum


def vectors(n, lo, hi):
    return arrays(np.float64, n, elements=st.floats(lo, hi))


@st.composite
def operators(draw, kinds=("diag", "rank1", "dense"), min_n=1):
    n = draw(st.integers(min_n, 8))
    kind = draw(st.sampled_from(kinds))
    if kind == "diag":
        return DiagonalOperator(draw(vectors(n, 0.1, 100.0)))
    if kind == "rank1":
        return RankOneOperator(draw(vectors(n, -10.0, 10.0)), draw(st.floats(0.1, 100.0)))
    r = draw(arrays(np.float64, (n, n), elements=st.floats(-10.0, 10.0)))
    return DenseOperator(r @ r.T + draw(st.floats(0.1, 100.0)) * np.eye(n))


@st.composite
def problems(draw, **kwargs):
    op = draw(operators(**kwargs))
    b = draw(vectors(op.dim, -10.0, 10.0))
    x = draw(vectors(op.dim, -10.0, 10.0))
    return QuadraticProblem(op, b), x


def value_scale(p, z):
    # The sum of the magnitudes of the terms of f(z), which bounds the
    # rounding of a computed value.
    return 0.5 * abs(p.a_inner(z, z)) + abs(p.b @ z) + abs(p.c)


def cg_two_steps(p, x):
    """Two conjugate-gradient steps from x, written out as the textbook has them."""
    g = p.gradient(x)
    d = -g
    for _ in range(2):
        ad = p.A.matvec(d)
        step = (g @ g) / (d @ ad)
        x = x + step * d
        g_next = g + step * ad
        d = -g_next + (g_next @ g_next) / (g @ g) * d
        g = g_next
    return x


@given(operators())
def test_eigen_bounds_are_extreme_eigenvalues(op):
    w = np.linalg.eigvalsh(op.dense())
    bounds = op.eigen_bounds()
    assert bounds.lambda_min == pytest.approx(w[0], rel=0.0, abs=1e-12 * w[-1])
    assert bounds.lambda_max == pytest.approx(w[-1], rel=1e-12)


@given(
    arrays(np.float64, st.integers(1, 8).map(lambda n: (n, n)),
           elements=st.floats(-10.0, 10.0)),
    st.floats(0.0, 10.0),
)
def test_dense_accepts_exactly_positive_definite(r, shift):
    # Shifting a symmetric matrix by its smallest eigenvalue plus `shift`
    # puts that eigenvalue at about -shift: on the boundary, or below it.
    sym = r + r.T
    m = sym - (np.linalg.eigvalsh(sym)[0] + shift) * np.eye(len(sym))
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest <= 0.0:
        with pytest.raises(ValueError, match=f"smallest eigenvalue is {smallest!r}$"):
            DenseOperator(m)
    else:
        assert DenseOperator(m).eigen_bounds().lambda_min == smallest


@given(problems())
def test_level_point_on_level_set(case):
    p, x = case
    assume(np.any(p.gradient(x) != 0.0))
    y = me_iterate(p, x, grad_tolerance=0.0).y
    tol = 1e-12 * (value_scale(p, x) + value_scale(p, y))
    assert abs(p.value(y) - p.value(x)) <= tol


@given(problems(kinds=("diag", "dense"), min_n=3))
def test_center_is_two_cg_steps(case):
    # Both points minimize f over x + span{g, Ag}.  A rank-one operator has
    # two distinct eigenvalues, so there both land on x* itself and the
    # relative comparison below measures rounding only.
    p, x = case
    assume(np.any(p.gradient(x) != 0.0))
    rec = me_iterate(p, x, grad_tolerance=0.0)
    assume(rec.branch is Branch.ELLIPSE_CENTER)
    # Robustly independent: the energy-angle between g_x and g_y is far from
    # zero, and the center is far from x*, so the plane is well determined.
    m11, m22 = p.a_inner(rec.g_x, rec.g_x), p.a_inner(rec.g_y, rec.g_y)
    assume(rec.delta >= 1e-2 * m11 * m22)
    x_star, _ = reference_minimum(p)
    err = np.linalg.norm(rec.x_next - x_star)
    assume(err >= 1e-2 * np.linalg.norm(x - x_star))
    assert np.linalg.norm(rec.x_next - cg_two_steps(p, x)) <= 1e-10 * err


@given(problems(min_n=2))
def test_center_step_meets_two_step_chebyshev_bound(case):
    # As two cg steps, the center minimizes the energy error
    # E(w) = 1/2 (w - x*)^T A (w - x*) over x + span{g, Ag}, so it is no
    # worse than the shifted Chebyshev polynomial of degree 2 on
    # [lambda_min, lambda_max]: E(x_next) <= E(x) / T2(z)^2, with
    # z = (kappa + 1) / (kappa - 1) and T2(z) = 2 z^2 - 1 (Saad 2003, 6.11).
    # This rate is why me needs far fewer steps than grad.
    p, x = case
    assume(np.any(p.gradient(x) != 0.0))
    rec = me_iterate(p, x, grad_tolerance=0.0)
    assume(rec.branch is Branch.ELLIPSE_CENTER)
    x_star, _ = reference_minimum(p)

    def energy(w):
        return 0.5 * p.a_inner(w - x_star, w - x_star)

    bounds = p.A.eigen_bounds()
    kappa = bounds.lambda_max / bounds.lambda_min
    if kappa == 1.0:
        rate = 0.0  # T2(z) is infinite: one step lands on x*
    else:
        z = (kappa + 1.0) / (kappa - 1.0)
        rate = 1.0 / (2.0 * z * z - 1.0) ** 2
    # The center solves the Gram system of g_x and g_y to about
    # u = eps m11 m22 / delta of its size, so the ratio may pass the rate by
    # about u^2: by up to 1.4e-9 where g_y is near parallel to g_x.  Of
    # 20,000 drawn problems, the worst with a normal (not subnormal) delta
    # passed it by 2.9 u^2.
    m11, m22 = p.a_inner(rec.g_x, rec.g_x), p.a_inner(rec.g_y, rec.g_y)
    u = np.finfo(float).eps * m11 * m22 / rec.delta
    assert energy(rec.x_next) / energy(x) <= rate + 16.0 * u * u


# b keeps at least this share of its norm in each eigenspace below.  With
# less, g_y comes close to parallel with g_x, the Gram test may take the
# midpoint branch, and one step no longer reaches x*.
MIN_EIGENSPACE_SHARE = 0.1


@st.composite
def two_eigenvalue_problems(draw):
    """A problem whose operator has exactly two distinct eigenvalues: a
    diagonal of lam and r lam, or v v^T + sigma I with ||v||^2 / sigma >= 1.
    b = c u + s w for unit vectors u and w, one in each eigenspace, with c
    and s = sqrt(1 - c^2) both at least MIN_EIGENSPACE_SHARE."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(("diag", "rank1"))) == "diag":
        lam = draw(st.floats(1e-3, 1e3))
        r = draw(st.floats(2.0, 1e6))
        high = rng.permutation(n) < draw(st.integers(1, n - 1))
        op = DiagonalOperator(np.where(high, r * lam, lam))
        u = np.where(high, rng.standard_normal(n), 0.0)
        w = np.where(high, 0.0, rng.standard_normal(n))
    else:
        sigma = draw(st.floats(1e-3, 1e3))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        op = RankOneOperator(np.sqrt(draw(st.floats(1.0, 1e6)) * sigma) * u, sigma)
        w = rng.standard_normal(n)
        w -= (w @ u) * u
    c = draw(st.floats(MIN_EIGENSPACE_SHARE, np.sqrt(1.0 - MIN_EIGENSPACE_SHARE**2)))
    b = c * u / np.linalg.norm(u) + np.sqrt(1.0 - c * c) * w / np.linalg.norm(w)
    return QuadraticProblem(op, b)


@given(two_eigenvalue_problems())
def test_two_eigenvalues_take_one_step(p):
    # The abstract's one-step claim.  The center minimizes f over
    # x + span{g, Ag}, and with two distinct eigenvalues that plane holds x*.
    result = me_solve(p, np.zeros(p.dim))
    assert result.terminated_by is Termination.GRADIENT_TOLERANCE
    assert result.iterations == 1


@given(problems())
def test_center_step_dominates_exact_line_search(case):
    # The center minimizes f over a plane that holds the exact-line-search
    # step, so it is never higher beyond the rounding of the values compared.
    p, x = case
    assume(np.linalg.norm(p.gradient(x)) > 0.0)
    rec = me_iterate(p, x, grad_tolerance=0.0)
    f_me, f_grad = dominance_check(p, x)
    x_grad = x - (rec.t / 2.0) * rec.g_x
    slack = 1e-12 * (value_scale(p, rec.x_next) + value_scale(p, x_grad))
    assert f_me <= f_grad + slack


@given(st.integers(-(2**64), 2**65 - 1), st.integers(2, 300), st.sampled_from(InstanceFamily))
def test_generated_instances_match_scalar_draws(seed, n, family):
    # The closed-form draws reproduce the one-at-a-time recurrence bit for
    # bit, for seeds beyond 64 bits and negative ones (both masked to 64 bits).
    spec = InstanceSpec(family, n, seed)
    p = generate(spec)
    entries, b = splitmix_instance(spec)
    got = p.A.diag if family is InstanceFamily.DIAGONAL_ILL_CONDITIONED else p.A.v
    assert got.tobytes() == entries.tobytes()
    assert p.b.tobytes() == b.tobytes()


@given(problems())
def test_observed_f_never_rises(case):
    # The center minimizes f over a plane through x, so no step raises f
    # beyond the rounding of the values compared.
    p, x1 = case
    steps = Steps()
    result = me_solve(p, x1, SolveOptions(observer=steps))
    points = steps.xs + [result.x_final]
    values = [rec.f_value for rec in steps.records] + [result.f_final]
    for k in range(len(values) - 1):
        slack = 1e-12 * (value_scale(p, points[k]) + value_scale(p, points[k + 1]))
        assert values[k + 1] <= values[k] + slack


def gradient_rounding(p, g, z):
    # A bound on the rounding of g . g(z) from a computed gradient at z.
    return 1e-12 * np.linalg.norm(g) * (
        np.linalg.norm(p.A.matvec(z)) + np.linalg.norm(p.b) + np.linalg.norm(g)
    )


@given(problems())
@example((QuadraticProblem(DiagonalOperator(np.full(7, 0.1)), np.ones(7)), np.zeros(7)))
def test_line_model_search_matches_point_search(case):
    # Every trial t is dyadic, so a search that makes each accept/reject
    # decision as the point-by-point search did returns the same bits.  The
    # two round differently, so a trial that sits on the boundary of a Wolfe
    # test in exact arithmetic (phi'(1) = m2 phi'(0) when g is an
    # eigenvector with eigenvalue 1 - m2) may be decided either way.
    p, x = case
    g = p.gradient(x)
    assume(g.dot(g) > 0.0)
    assert (WOLFE_A, WOLFE_M1, WOLFE_M2, WOLFE_MAX_TRIALS) == (
        _WOLFE_A, _WOLFE_M1, _WOLFE_M2, _WOLFE_MAX_TRIALS
    )
    with mock.patch.object(baselines, "wolfe_search", wraps=baselines.wolfe_search) as search:
        t = _wolfe_step(p, g)
    line, slope0 = search.call_args.args
    trials = []
    baselines.wolfe_search(lambda u: trials.append(u) or line(u), slope0)
    oracle = reference_line_oracle(p, x, g)
    for u in trials:
        decrease, slope = line(u)
        point_decrease, g_z = oracle(x - u * g)
        decrease_margin = point_decrease - _WOLFE_M1 * u * slope0
        slope_margin = float(-g @ g_z) - _WOLFE_M2 * slope0
        tie = gradient_rounding(p, g, x - u * g)
        if (decrease <= _WOLFE_M1 * u * slope0) != (decrease_margin <= 0.0):
            assert abs(decrease_margin) <= u * tie
            break
        if decrease_margin <= 0.0 and (slope >= _WOLFE_M2 * slope0) != (slope_margin >= 0.0):
            assert abs(slope_margin) <= tie
            break
    else:
        assert t == reference_wolfe_search(oracle, x, -g)
    z = x - t * g
    slack = 1e-12 * (value_scale(p, x) + value_scale(p, z))
    assert p.value(z) <= p.value(x) + _WOLFE_M1 * t * slope0 + slack
    assert -g.dot(p.gradient(z)) >= _WOLFE_M2 * slope0 - gradient_rounding(p, g, z)


def record_bits(record):
    return tuple(bits(v) if isinstance(v, float) else v for v in record)


@given(problems(), st.sampled_from(sorted(METHODS)))
def test_observing_changes_nothing(case, method):
    p, x1 = case
    plain = METHODS[method](p, x1, SolveOptions(max_iterations=200))
    steps = Steps()
    observed = METHODS[method](p, x1, SolveOptions(max_iterations=200, observer=steps))
    assert len(steps) == observed.iterations == plain.iterations
    assert observed.terminated_by is plain.terminated_by
    assert bits(observed.f_final) == bits(plain.f_final)
    assert bits(observed.grad_norm_final) == bits(plain.grad_norm_final)
    assert observed.x_final.tobytes() == plain.x_final.tobytes()


@given(problems(), st.sampled_from(sorted(METHODS)))
def test_zero_view_start_changes_nothing(case, method):
    # run_benchmark starts every cell from a read-only view of one zero.
    p, _ = case
    runs = []
    for x1 in (np.zeros(p.dim), np.broadcast_to(0.0, p.dim)):
        steps = Steps()
        runs.append((METHODS[method](p, x1, SolveOptions(max_iterations=200, observer=steps)),
                     steps))
    (owned, owned_steps), (view, view_steps) = runs
    assert view.iterations == owned.iterations
    assert view.terminated_by is owned.terminated_by
    assert bits(view.f_final) == bits(owned.f_final)
    assert bits(view.grad_norm_final) == bits(owned.grad_norm_final)
    assert view.x_final.tobytes() == owned.x_final.tobytes()
    assert [record_bits(r) for r in view_steps.records] == [
        record_bits(r) for r in owned_steps.records
    ]


@given(problems(), st.sampled_from(sorted(METHODS)))
def test_solves_are_deterministic(case, method):
    p, x1 = case
    first, second = (METHODS[method](p, x1, SolveOptions(max_iterations=200)) for _ in range(2))
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if field.name == "wall_time_seconds":
            continue
        if field.name == "x_final":
            assert a.tobytes() == b.tobytes()
        elif isinstance(a, float):
            assert bits(a) == bits(b)
        else:
            assert a == b


# The carried gradient stays within this many units of
# eps (||A|| X + ||b||) of A x - b, X the reach below.  The true gradient
# replaces it every 50 steps (_REFRESH_STEPS).  Each update in between rounds
# its terms to within a few eps of their size, and A x - b itself rounds
# within (n + 1) eps of the same scale, so 64 leaves room for 50 updates.
# The worst of 2,000 drawn problems read 3.1 units.
DRIFT_UNITS = 64


@given(problems(), st.sampled_from(["me", "grad", "cg"]))
def test_carried_gradient_drift_is_rounding(case, method):
    # A bound relative to ||A x - b|| alone fails near the rounding floor:
    # grad drifts 1.1e-6 of it on small rank-one problems.  One in ||A|| ||x||
    # fails as x nears a small x*, since the drift is the rounding of terms
    # formed at earlier, larger points.  So X is the reach of the path so far:
    # the largest ||x|| + ||step||, and for a center step ||x|| plus the sizes
    # of its terms alpha g and beta g_y, which can cancel to a far shorter step.
    p, x1 = case
    eps, norm_a, norm_b = np.finfo(float).eps, p.A.eigen_bounds().lambda_max, np.linalg.norm(p.b)
    reach, prev = 0.0, x1

    def observer(x, g, record):
        nonlocal reach, prev
        reach = max(reach, np.linalg.norm(prev) + np.linalg.norm(x - prev))
        drift = np.linalg.norm(g - p.gradient(x))
        assert drift <= DRIFT_UNITS * eps * (norm_a * reach + norm_b)
        if record.branch is Branch.ELLIPSE_CENTER:
            g_y = g - record.t * p.A.matvec(g)
            terms = abs(record.alpha) * np.linalg.norm(g) + abs(record.beta) * np.linalg.norm(g_y)
            reach = max(reach, np.linalg.norm(x) + terms)
        prev = x

    METHODS[method](p, x1, SolveOptions(max_iterations=200, observer=observer))
