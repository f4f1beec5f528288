import json

import numpy as np
import pytest

from ellipcenter.generators import (
    InstanceFamily,
    InstanceSpec,
    ProblemFormatError,
    SplitMix64,
    gen_dense_rank_one,
    gen_diagonal,
    generate,
    instance_metadata,
    load_problem,
    save_problem,
    write_instance_metadata,
)
from ellipcenter.quadratic import DenseOperator, DiagonalOperator, RankOneOperator


def reference_splitmix(seed, count):
    # Straightforward reimplementation of the documented recurrence,
    # kept independent of the package code.
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_matches_reference_sequence(self):
        for seed in (0, 1, 42, 2**64 - 1):
            rng = SplitMix64(seed)
            got = [rng.next_uint64() for _ in range(16)]
            assert got == reference_splitmix(seed, 16)

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        values = rng.floats(2000)
        assert np.all(values >= 0.0) and np.all(values < 1.0)
        assert abs(values.mean() - 0.5) < 0.05

    def test_ints_cover_inclusive_range(self):
        rng = SplitMix64(9)
        values = rng.ints(3, 5, 5000)
        assert set(values.tolist()) == {3, 4, 5}

    def test_int_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_int(5, 4)


class TestDiagonalFamily:
    def spec(self, n, seed=0, **kw):
        return InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, n, seed, **kw)

    def test_two_dimensional_extremes(self):
        p = gen_diagonal(self.spec(2, seed=123))
        np.testing.assert_array_equal(p.A.diag, [1.0, 50000.0])
        assert p.A.eigen_bounds().condition_number == pytest.approx(50000.0)

    def test_condition_number_fixed_for_all_sizes(self):
        for n, seed in ((2, 0), (10, 5), (100, 9)):
            p = gen_diagonal(self.spec(n, seed))
            bounds = p.A.eigen_bounds()
            assert bounds.lambda_min == 1.0
            assert bounds.lambda_max == 50000.0

    def test_interior_entries_are_integers_in_range(self):
        p = gen_diagonal(self.spec(100, seed=42))
        interior = np.asarray(p.A.diag)[1:-1]
        assert np.all(interior == np.round(interior))
        assert interior.min() >= 10.0
        assert interior.max() <= 49900.0

    def test_b_range(self):
        p = gen_diagonal(self.spec(200, seed=3, b_scale=50.0))
        b = np.asarray(p.b)
        assert np.all(b >= 0.0) and np.all(b <= 50.0)

    def test_deterministic(self):
        a = gen_diagonal(self.spec(64, seed=11))
        b = gen_diagonal(self.spec(64, seed=11))
        np.testing.assert_array_equal(a.A.diag, b.A.diag)
        np.testing.assert_array_equal(a.b, b.b)
        c = gen_diagonal(self.spec(64, seed=12))
        assert not np.array_equal(a.b, c.b)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            self.spec(1)


class TestDenseRankOneFamily:
    def spec(self, n, seed=0, **kw):
        return InstanceSpec(InstanceFamily.DENSE_RANK_ONE, n, seed, **kw)

    def test_structure_and_bounds(self):
        p = gen_dense_rank_one(self.spec(50, seed=7))
        assert isinstance(p.A, RankOneOperator)
        assert p.A.sigma == 10.0
        v = np.asarray(p.A.v)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        bounds = p.A.eigen_bounds()
        assert bounds.lambda_min == pytest.approx(10.0)
        assert bounds.lambda_max == pytest.approx(10.0 + float(v @ v))

    def test_forced_ones_vector_spectrum(self):
        # Direct construction stands in for the generated v.
        op = RankOneOperator(np.ones(4), 10.0)
        eigs = np.linalg.eigvalsh(op.dense())
        np.testing.assert_allclose(eigs, [10.0, 10.0, 10.0, 14.0], rtol=1e-12)
        assert op.eigen_bounds().condition_number == pytest.approx(1.4)

    def test_deterministic(self):
        a = gen_dense_rank_one(self.spec(40, seed=5))
        b = gen_dense_rank_one(self.spec(40, seed=5))
        np.testing.assert_array_equal(a.A.v, b.A.v)
        np.testing.assert_array_equal(a.b, b.b)

    def test_apply_matches_dense_materialization(self):
        rng = np.random.default_rng(13)
        for n in (2, 17, 50):
            p = gen_dense_rank_one(self.spec(n, seed=n))
            dense = p.A.dense()
            for _ in range(5):
                x = rng.standard_normal(n)
                np.testing.assert_allclose(p.A.matvec(x), dense @ x, rtol=1e-12)

    def test_measured_condition_in_metadata(self):
        spec = self.spec(400, seed=7)
        p = gen_dense_rank_one(spec)
        meta = instance_metadata(spec, p)
        v = np.asarray(p.A.v)
        assert meta["condition_number"] == pytest.approx((10.0 + v @ v) / 10.0)


def test_generate_dispatch():
    diag = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 4, 0))
    dense = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 4, 0))
    assert isinstance(diag.A, DiagonalOperator)
    assert isinstance(dense.A, RankOneOperator)


def test_metadata_jsonl_round_trip(tmp_path):
    spec = InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 8, 21)
    meta = instance_metadata(spec, gen_diagonal(spec))
    path = tmp_path / "instances.jsonl"
    write_instance_metadata(path, [meta, meta])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    parsed = json.loads(lines[0])
    assert parsed == {
        "family": "diag",
        "n": 8,
        "seed": 21,
        "condition_number": 50000.0,
        "b_scale": 1000.0,
    }


class TestLoadProblem:
    def write(self, tmp_path, text):
        path = tmp_path / "problem.txt"
        path.write_text(text)
        return path

    def test_diag_example(self, tmp_path):
        path = self.write(tmp_path, "diag 2\n1 4\nb\n0 0\n")
        p = load_problem(path)
        assert isinstance(p.A, DiagonalOperator)
        np.testing.assert_array_equal(p.A.diag, [1.0, 4.0])
        np.testing.assert_array_equal(p.b, [0.0, 0.0])
        assert p.c == 0.0

    def test_rank_one_example(self, tmp_path):
        path = self.write(tmp_path, "rank1 3 10\n1 1 1\nb\n1 2 3\n")
        p = load_problem(path)
        assert isinstance(p.A, RankOneOperator)
        assert p.A.sigma == 10.0
        np.testing.assert_array_equal(p.A.v, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(p.b, [1.0, 2.0, 3.0])

    def test_dense_with_constant(self, tmp_path):
        path = self.write(tmp_path, "dense 2\n2 1\n1 3\nb\n1 0\nc 5\n")
        p = load_problem(path)
        assert isinstance(p.A, DenseOperator)
        assert p.c == 5.0
        assert p.value([1.0, 1.0]) == pytest.approx(7.5)

    def test_entries_may_wrap_lines(self, tmp_path):
        path = self.write(tmp_path, "diag 3\n1\n2\n3\nb\n1\n1\n1\n")
        p = load_problem(path)
        np.testing.assert_array_equal(p.A.diag, [1.0, 2.0, 3.0])

    def test_missing_b_section(self, tmp_path):
        path = self.write(tmp_path, "diag 2\n1 4\n")
        with pytest.raises(ProblemFormatError, match="b section"):
            load_problem(path)

    def test_wrong_entry_count(self, tmp_path):
        path = self.write(tmp_path, "diag 3\n1 4\nb\n0 0 0\n")
        with pytest.raises(ProblemFormatError, match="diagonal"):
            load_problem(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "sparse 2\n1 4\nb\n0 0\n")
        with pytest.raises(ProblemFormatError, match="line 1"):
            load_problem(path)

    def test_nonpositive_diagonal(self, tmp_path):
        path = self.write(tmp_path, "diag 2\n1 -4\nb\n0 0\n")
        with pytest.raises(ProblemFormatError, match="positive"):
            load_problem(path)

    def test_error_carries_line_number(self, tmp_path):
        path = self.write(tmp_path, "diag 2\n1 oops\nb\n0 0\n")
        with pytest.raises(ProblemFormatError, match="line 2"):
            load_problem(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dense 2\n1 0\n0 -1\nb\n1 1\n",
             "line 3: matrix must be positive definite, smallest eigenvalue is -1.0"),
            ("rank1 2 -1\n1 1\nb\n1 1\n",
             "line 2: sigma must be finite and strictly positive"),
            ("diag 2\n1 2\nb\n1\ninf\nc 3\n", "line 5: b must be finite, entry 1 is inf"),
            ("diag 2\n1 2\nb\n1 1\nc nan\n", "line 5: c must be finite, got nan"),
        ],
    )
    def test_rejected_values_fail_at_load(self, tmp_path, text, message):
        # Values the operator or the problem rejects fail at load, at the
        # last line of their section, and the error names the file.
        path = self.write(tmp_path, text)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert str(info.value) == message
        assert info.value.filename == str(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.write(tmp_path, "diag 2\n1 4\nb\n0 0\nextra\n")
        with pytest.raises(ProblemFormatError, match="trailing"):
            load_problem(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ProblemFormatError, match="empty"):
            load_problem(path)

    @pytest.mark.parametrize("family", ["diag", "dense", "rank1"])
    def test_save_load_round_trip(self, tmp_path, family):
        rng = np.random.default_rng(17)
        if family == "diag":
            p = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 6, 2))
        elif family == "rank1":
            p = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 6, 2))
        else:
            r = rng.standard_normal((4, 4))
            from ellipcenter.quadratic import QuadraticProblem

            p = QuadraticProblem(
                DenseOperator(r @ r.T + 4 * np.eye(4)), rng.standard_normal(4), c=1.5
            )
        path = tmp_path / "round.txt"
        save_problem(p, path)
        q = load_problem(path)
        assert type(q.A) is type(p.A)
        x = rng.standard_normal(p.dim)
        assert q.value(x) == p.value(x)
        np.testing.assert_array_equal(q.b, p.b)
