import numpy as np
import pytest

from ellipcenter.quadratic import (
    _BLAS_DOT_MAX,
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
    _dot,
    _is_symmetric,
)


def random_operator(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return DiagonalOperator(rng.uniform(0.5, 10.0, n))
    if kind == 1:
        return RankOneOperator(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 5.0))
    r = rng.standard_normal((n, n))
    return DenseOperator(r @ r.T + n * np.eye(n))


class TestApply:
    def test_diagonal_elementwise(self):
        op = DiagonalOperator([1.0, 4.0])
        np.testing.assert_allclose(op.matvec([2.0, 1.0]), [2.0, 4.0])

    def test_rank_one_expansion(self):
        op = RankOneOperator([1.0, 1.0], 10.0)
        np.testing.assert_allclose(op.matvec([1.0, 0.0]), [11.0, 1.0])

    def test_dense_product(self):
        op = DenseOperator([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(op.matvec([1.0, 1.0]), [3.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DiagonalOperator([1.0, 2.0]).matvec([1.0, 2.0, 3.0])

    def test_rank_one_matches_dense_materialization(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 25, 50):
            v = rng.uniform(0.0, 1.0, n)
            op = RankOneOperator(v, 10.0)
            dense = op.dense()
            for _ in range(5):
                x = rng.standard_normal(n)
                np.testing.assert_allclose(op.matvec(x), dense @ x, rtol=1e-12)

    def test_symmetry_on_basis_vectors(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            op = random_operator(rng, n)
            eye = np.eye(n)
            for i in range(n):
                for j in range(n):
                    lhs = op.matvec(eye[i]) @ eye[j]
                    rhs = op.matvec(eye[j]) @ eye[i]
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_positive_definite_spot_check(self):
        rng = np.random.default_rng(4)
        for n in (2, 6, 12):
            op = random_operator(rng, n)
            for _ in range(20):
                v = rng.standard_normal(n)
                assert v @ op.matvec(v) > 0.0


class TestValidation:
    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            DiagonalOperator([1.0, 0.0])
        with pytest.raises(ValueError):
            DiagonalOperator([1.0, -2.0])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            RankOneOperator([1.0], 0.0)

    def test_asymmetric_dense_rejected(self):
        with pytest.raises(ValueError):
            DenseOperator([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "matrix, smallest",
        [([[1.0, 0.0], [0.0, -1.0]], "-1.0"), ([[1.0, 0.0], [0.0, 0.0]], "0.0")],
    )
    def test_indefinite_dense_rejected(self, matrix, smallest):
        with pytest.raises(
            ValueError, match=f"positive definite, smallest eigenvalue is {smallest}"
        ):
            DenseOperator(matrix)

    def test_nonsquare_dense_rejected(self):
        with pytest.raises(ValueError):
            DenseOperator([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_problem_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticProblem(DiagonalOperator([1.0, 2.0]), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_rejected(self, bad):
        with pytest.raises(ValueError, match="b must be finite, entry 0"):
            QuadraticProblem(DiagonalOperator([1.0, 2.0]), [bad, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_rejected(self, bad):
        with pytest.raises(ValueError, match="c must be finite"):
            QuadraticProblem(DiagonalOperator([1.0, 2.0]), [1.0, 1.0], bad)


class TestValueGradient:
    def test_value_examples(self):
        p = QuadraticProblem(DiagonalOperator([1.0, 4.0]), [0.0, 0.0])
        assert p.value([2.0, 1.0]) == pytest.approx(4.0)
        p = QuadraticProblem(DiagonalOperator([1.0, 1.0]), [1.0, 1.0])
        assert p.value([1.0, 1.0]) == pytest.approx(-1.0)
        p = QuadraticProblem(DenseOperator([[2.0, 1.0], [1.0, 3.0]]), [1.0, 0.0], c=5.0)
        assert p.value([1.0, 1.0]) == pytest.approx(7.5)

    def test_gradient_examples(self):
        p = QuadraticProblem(DiagonalOperator([1.0, 4.0]), [0.0, 0.0])
        np.testing.assert_allclose(p.gradient([2.0, 1.0]), [2.0, 4.0])
        p = QuadraticProblem(DiagonalOperator([1.0, 1.0]), [3.0, 3.0])
        np.testing.assert_allclose(p.gradient([1.0, 1.0]), [-2.0, -2.0])

    @pytest.mark.parametrize(
        "op",
        [DiagonalOperator([1.0, 2.0]), RankOneOperator([1.0, 1.0], 1.0),
         DenseOperator([[2.0, 0.0], [0.0, 3.0]])],
        ids=["diag", "rank1", "dense"],
    )
    def test_gradient_rejects_wrong_length(self, op):
        p = QuadraticProblem(op, [1.0, 1.0])
        with pytest.raises(ValueError, match="^vector has length 3, expected 2$"):
            p.gradient([1.0, 2.0, 3.0])

    def test_gradient_vanishes_at_direct_solve(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((4, 4))
        op = DenseOperator(r @ r.T + 4.0 * np.eye(4))
        b = rng.standard_normal(4)
        p = QuadraticProblem(op, b)
        x_star = np.linalg.solve(op.dense(), b)
        np.testing.assert_allclose(p.gradient(x_star), np.zeros(4), atol=1e-10)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 8):
            p = QuadraticProblem(random_operator(rng, n), rng.standard_normal(n), c=0.7)
            x = rng.standard_normal(n)
            g = p.gradient(x)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (p.value(x + e) - p.value(x - e)) / (2.0 * h)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)

    def test_energy_identity(self):
        # f(x) - f(x*) = 1/2 ||x - x*||_A^2 at the direct-solve minimizer.
        rng = np.random.default_rng(7)
        for n in (2, 5, 10):
            p = QuadraticProblem(random_operator(rng, n), rng.standard_normal(n), c=1.3)
            x_star = np.linalg.solve(p.A.dense(), np.asarray(p.b))
            for _ in range(5):
                x = rng.standard_normal(n)
                lhs = p.value(x) - p.value(x_star)
                rhs = 0.5 * p.a_inner(x - x_star, x - x_star)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestAInner:
    def test_examples(self):
        p = QuadraticProblem(DiagonalOperator([1.0, 4.0]), [0.0, 0.0])
        assert p.a_inner([2.0, 4.0], [2.0, 4.0]) == pytest.approx(68.0)
        assert p.a_inner([0.0, 0.0], [3.0, -1.0]) == 0.0
        p_eye = QuadraticProblem(DiagonalOperator([1.0, 1.0]), [0.0, 0.0])
        assert p_eye.a_inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        p = QuadraticProblem(random_operator(rng, 6), np.zeros(6))
        for _ in range(10):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            assert p.a_inner(u, v) == pytest.approx(p.a_inner(v, u), rel=1e-12)


class TestEigenBounds:
    def test_diagonal_exact(self):
        bounds = DiagonalOperator([1.0, 17.0, 50000.0]).eigen_bounds()
        assert bounds.lambda_min == 1.0
        assert bounds.lambda_max == 50000.0
        assert bounds.condition_number == pytest.approx(50000.0)

    def test_rank_one_exact(self):
        bounds = RankOneOperator([3.0, 4.0], 10.0).eigen_bounds()
        assert bounds.lambda_min == pytest.approx(10.0)
        assert bounds.lambda_max == pytest.approx(35.0)

    def test_rank_one_one_dimensional(self):
        bounds = RankOneOperator([2.0], 10.0).eigen_bounds()
        assert bounds.lambda_min == bounds.lambda_max == pytest.approx(14.0)

    def test_dense_exact_vs_eigvalsh(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal((12, 12))
        m = r @ r.T + np.eye(12)
        bounds = DenseOperator(m).eigen_bounds()
        w = np.linalg.eigvalsh(m)
        assert (bounds.lambda_min, bounds.lambda_max) == (w[0], w[-1])
        assert bounds.condition_number == w[-1] / w[0]


def test_immutability():
    op = DiagonalOperator([1.0, 2.0])
    with pytest.raises(ValueError):
        op.diag[0] = 5.0
    p = QuadraticProblem(op, [1.0, 1.0])
    with pytest.raises(ValueError):
        p.b[0] = 2.0


def test_kept_arrays_are_copied_unless_owned_and_read_only():
    # A writable array, or a read-only view, stays the caller's: the
    # operator and problem keep copies.  An owned, read-only float64 array
    # is kept as it is.
    writable = np.array([1.0, 2.0])
    view = np.array([1.0, 2.0, 3.0])[:2]
    view.setflags(write=False)
    frozen = np.array([3.0, 4.0])
    frozen.setflags(write=False)
    for given, shared in ((writable, False), (view, False), (frozen, True)):
        op = RankOneOperator(given, 1.0)
        p = QuadraticProblem(DiagonalOperator(given), given)
        for kept in (op.v, p.A.diag, p.b):
            assert not kept.flags.writeable
            assert np.shares_memory(kept, given) is shared
            assert kept.tobytes() == given.tobytes()


@pytest.mark.parametrize("n", [1, 7])
def test_matvec_returns_a_new_array_the_caller_owns(n):
    # The solvers build their results in place in matvec outputs, so each
    # must be a fresh, writable array sharing nothing with v or the operator.
    rng = np.random.default_rng(9)
    r = rng.standard_normal((n, n))
    for op in (DiagonalOperator(rng.uniform(0.5, 10.0, n)),
               RankOneOperator(rng.uniform(-1.0, 1.0, n), 2.0),
               DenseOperator(r @ r.T + n * np.eye(n))):
        v = rng.standard_normal(n)
        v.setflags(write=False)
        p = QuadraticProblem(op, rng.standard_normal(n))
        for out in (op.matvec(v), p.gradient(v)):
            assert out.flags.owndata and out.flags.writeable
            for kept in (v, p.b, *(a for a in vars(op).values() if isinstance(a, np.ndarray))):
                assert not np.shares_memory(out, kept)


def test_block_symmetry_check_agrees_with_allclose():
    # DenseOperator's check, a block of rows at a time, makes the decision
    # np.allclose(m, m.T, rtol=1e-10, atol=0) makes, on matrices whose
    # asymmetry sits below, at and just past the relative tolerance.
    rng = np.random.default_rng(12)
    verdicts = set()
    for _ in range(300):
        n = int(rng.integers(1, 12))
        m = rng.standard_normal((n, n))
        m = m + m.T
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, n, 2)
            edge = m[j, i] + 1e-10 * abs(m[j, i]) * rng.choice([-1.0, 1.0])
            m[i, j] = edge
            for _ in range(int(rng.integers(0, 3))):
                m[i, j] = np.nextafter(m[i, j], rng.choice([-np.inf, np.inf]))
        expected = np.allclose(m, m.T, rtol=1e-10, atol=0.0)
        verdicts.add(expected)
        for rows in (1, 3, 64):
            assert _is_symmetric(m, rows) is expected
    assert verdicts == {True, False}


def bits(value):
    return np.float64(value).tobytes()


class TestDot:
    @pytest.mark.parametrize("n", [1, 64, _BLAS_DOT_MAX])
    def test_blas_length_keeps_ddot_bits(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert bits(_dot(a, b)) == bits(a.dot(b))

    def test_longer_dot_is_plain_einsum(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, _BLAS_DOT_MAX + 1))
        assert bits(_dot(a, b)) == bits(np.einsum("i,i->", a, b))

    def test_bits_do_not_depend_on_offset(self):
        # The same data at every 8-byte offset modulo a 64-byte cache line,
        # for each operand independently.
        n = 2 * _BLAS_DOT_MAX + 11
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, n))
        buf_a, buf_b = np.empty(n + 8), np.empty(n + 8)
        seen = set()
        for i in range(8):
            for j in range(8):
                u, v = buf_a[i:i + n], buf_b[j:j + n]
                u[:], v[:] = a, b
                seen.add(bits(_dot(u, v)))
        assert seen == {bits(_dot(a, b))}
