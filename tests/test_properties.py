"""Property sweeps over small problems from all three operators, and over
the seeds and sizes of the generated families."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import Steps, reference_line_oracle, reference_wolfe_search, splitmix_instance

import ellipcenter.baselines as baselines
from ellipcenter.baselines import WolfeParams, _wolfe_step
from ellipcenter.bench import METHODS
from ellipcenter.generators import InstanceFamily, InstanceSpec, generate
from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)
from ellipcenter.solver import Branch, SolveOptions, me_iterate, me_solve
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
    params = WolfeParams()
    with mock.patch.object(baselines, "wolfe_search", wraps=baselines.wolfe_search) as search:
        t = _wolfe_step(p, g)
    line, slope0 = search.call_args.args
    trials = []
    baselines.wolfe_search(lambda u: trials.append(u) or line(u), slope0, params)
    oracle = reference_line_oracle(p, x, g)
    for u in trials:
        decrease, slope = line(u)
        point_decrease, g_z = oracle(x - u * g)
        decrease_margin = point_decrease - params.m1 * u * slope0
        slope_margin = float(-g @ g_z) - params.m2 * slope0
        tie = gradient_rounding(p, g, x - u * g)
        if (decrease <= params.m1 * u * slope0) != (decrease_margin <= 0.0):
            assert abs(decrease_margin) <= u * tie
            break
        if decrease_margin <= 0.0 and (slope >= params.m2 * slope0) != (slope_margin >= 0.0):
            assert abs(slope_margin) <= tie
            break
    else:
        assert t == reference_wolfe_search(oracle, x, -g, params)
    z = x - t * g
    slack = 1e-12 * (value_scale(p, x) + value_scale(p, z))
    assert p.value(z) <= p.value(x) + params.m1 * t * slope0 + slack
    assert -g.dot(p.gradient(z)) >= params.m2 * slope0 - gradient_rounding(p, g, z)


def bits(value):
    return np.float64(value).tobytes()


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
