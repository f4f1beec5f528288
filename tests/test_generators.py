import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SplitMix64, reference_save_problem, splitmix_instance

import ellipcenter.generators as generators
from ellipcenter.generators import (
    InstanceFamily,
    InstanceSpec,
    ProblemFormatError,
    _draws,
    generate,
    instance_metadata,
    load_problem,
    save_problem,
    write_instance_metadata,
)
from ellipcenter.quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)


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


SEEDS = (0, 1, 42, 2**63 + 7, 2**64 - 1, -5)


class TestSplitMix64:
    """The closed-form draws against the documented recurrence, written out
    here and as the scalar oracle in conftest."""

    def test_matches_reference_sequence(self):
        for seed in SEEDS:
            for start, count in ((0, 16), (5, 11), (998, 4)):
                got = _draws(seed, start, count).tolist()
                words = reference_splitmix(seed, start + count)[start:]
                assert got == [(z >> 11) * 2.0**-53 for z in words]
                assert got == SplitMix64(seed).floats(start + count)[start:].tolist()

    def test_floats_in_unit_interval(self):
        values = _draws(7, 0, 2000)
        assert np.all(values >= 0.0) and np.all(values < 1.0)
        assert abs(values.mean() - 0.5) < 0.05

    @pytest.mark.parametrize("family", list(InstanceFamily))
    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    def test_instances_match_scalar_draws(self, family, n):
        # b's draws start after the operator's: at n-2 for diag, at n for dense.
        for seed in SEEDS:
            spec = InstanceSpec(family, n, seed, b_scale=50.0 if seed == 42 else 1000.0)
            p = generate(spec)
            got = p.A.diag if family is InstanceFamily.DIAGONAL_ILL_CONDITIONED else p.A.v
            entries, b = splitmix_instance(spec)
            assert got.tobytes() == entries.tobytes()
            assert p.b.tobytes() == b.tobytes()


class TestDiagonalFamily:
    def spec(self, n, seed=0, **kw):
        return InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, n, seed, **kw)

    def test_two_dimensional_extremes(self):
        p = generate(self.spec(2, seed=123))
        np.testing.assert_array_equal(p.A.diag, [1.0, 50000.0])
        assert p.A.eigen_bounds().condition_number == pytest.approx(50000.0)

    def test_condition_number_fixed_for_all_sizes(self):
        for n, seed in ((2, 0), (10, 5), (100, 9)):
            p = generate(self.spec(n, seed))
            bounds = p.A.eigen_bounds()
            assert bounds.lambda_min == 1.0
            assert bounds.lambda_max == 50000.0

    def test_interior_entries_are_integers_in_range(self):
        p = generate(self.spec(100, seed=42))
        interior = np.asarray(p.A.diag)[1:-1]
        assert np.all(interior == np.round(interior))
        assert interior.min() >= 10.0
        assert interior.max() <= 49900.0

    def test_b_range(self):
        p = generate(self.spec(200, seed=3, b_scale=50.0))
        b = np.asarray(p.b)
        assert np.all(b >= 0.0) and np.all(b <= 50.0)

    def test_deterministic(self):
        a = generate(self.spec(64, seed=11))
        b = generate(self.spec(64, seed=11))
        np.testing.assert_array_equal(a.A.diag, b.A.diag)
        np.testing.assert_array_equal(a.b, b.b)
        c = generate(self.spec(64, seed=12))
        assert not np.array_equal(a.b, c.b)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            self.spec(1)


@pytest.mark.parametrize("family", list(InstanceFamily))
@pytest.mark.parametrize("b_scale", [math.inf, math.nan, 0.0, -1.0])
def test_b_scale_must_be_positive_and_finite(family, b_scale):
    # An infinite b_scale would make b infinite, which generate rejects only
    # once the instance is drawn.
    with pytest.raises(ValueError, match="b_scale must be positive and finite"):
        InstanceSpec(family, 4, 0, b_scale=b_scale)


class TestDenseRankOneFamily:
    def spec(self, n, seed=0, **kw):
        return InstanceSpec(InstanceFamily.DENSE_RANK_ONE, n, seed, **kw)

    def test_structure_and_bounds(self):
        p = generate(self.spec(50, seed=7))
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
        a = generate(self.spec(40, seed=5))
        b = generate(self.spec(40, seed=5))
        np.testing.assert_array_equal(a.A.v, b.A.v)
        np.testing.assert_array_equal(a.b, b.b)

    def test_apply_matches_dense_materialization(self):
        rng = np.random.default_rng(13)
        for n in (2, 17, 50):
            p = generate(self.spec(n, seed=n))
            dense = p.A.dense()
            for _ in range(5):
                x = rng.standard_normal(n)
                np.testing.assert_allclose(p.A.matvec(x), dense @ x, rtol=1e-12)

    def test_measured_condition_in_metadata(self):
        spec = self.spec(400, seed=7)
        p = generate(spec)
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
    meta = instance_metadata(spec, generate(spec))
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
        path.write_bytes(text.encode())
        return path

    def error(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert info.value.filename == str(path)
        return str(info.value)

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
        assert self.error(tmp_path, "diag 2\n1 4\n") == (
            "line 2: expected the b section, found 'end of file'"
        )

    def test_wrong_entry_count(self, tmp_path):
        assert self.error(tmp_path, "diag 3\n1 4\nb\n0 0 0\n") == (
            "line 3: expected a number in the diagonal section, got 'b'"
        )

    def test_bad_header(self, tmp_path):
        assert self.error(tmp_path, "sparse 2\n1 4\nb\n0 0\n") == (
            "line 1: unknown header 'sparse', expected diag, dense or rank1"
        )

    def test_nonpositive_diagonal(self, tmp_path):
        assert self.error(tmp_path, "diag 2\n1 -4\nb\n0 0\n") == (
            "line 2: diagonal entries must be finite and strictly positive"
        )

    def test_error_carries_line_number(self, tmp_path):
        assert self.error(tmp_path, "diag 2\n1 oops\nb\n0 0\n") == (
            "line 2: expected a number in the diagonal section, got 'oops'"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            # a bad token on a later line of a multi-line section
            ("dense 2\n1 0\n0 zz\nb\n1 1\n",
             "line 3: expected a number in the matrix section, got 'zz'"),
            ("diag 3\n1\n2\nx\nb\n1 1 1\n",
             "line 4: expected a number in the diagonal section, got 'x'"),
            ("diag 2\r\n1 4\r\nb\r\n0\r\n", "line 4: expected 2 entries in the b section, found 1"),
            ("diag 2\r\n1 4\r\nb\r\n0 q\r\n", "line 4: expected a number in the b section, got 'q'"),
            ("rank1 2\n10\n1 1\nb\n1 1\n", "line 1: header is missing sigma"),
            ("diag\n2\n1 4\nb\n0 0\n", "line 1: header is missing problem size"),
            ("diag 2.0\n1 4\nb\n0 0\n", "line 1: bad problem size '2.0' in header"),
            ("rank1 2 ten\n1 1\nb\n1 1\n", "line 1: bad sigma 'ten' in header"),
            ("diag 0\nb\n", "line 1: problem size must be positive"),
            ("diag 2\n1 4 b 0\n", "line 2: expected 2 entries in the b section, found 1"),
            ("diag 2\n1 4\nq 0 0\n", "line 3: expected the b section, found 'q'"),
            ("diag 2\n1 2\nb\n1 1\nc\n", "line 5: expected 1 entries in the c section, found 0"),
            ("diag 2\n1 2\nb\n1 1\nc x\n", "line 5: expected a number in the c section, got 'x'"),
            ("diag 2\n1 2\nb\n1 1\nc 3 4\n", "line 5: unexpected trailing token '4'"),
            # sections cut short at the end of the file, after blank lines
            ("diag 3\n1 2\n\n\n", "line 2: expected 3 entries in the diagonal section, found 2"),
            ("diag 2\n1 2\nb\n1\n\n", "line 4: expected 2 entries in the b section, found 1"),
            ("diag 2\n1 2\n\n\n", "line 2: expected the b section, found 'end of file'"),
            ("\n  \n", "line 1: empty problem file"),
            # headers that ask for more entries than the file can hold are
            # refused before their arrays are made
            ("diag 10000000000000\n1 2\nb\n1 1\n",
             "line 1: expected 10000000000000 entries in the diagonal section, "
             "more than a file of 30 bytes holds"),
            ("dense 4000000\n1 2\nb\n1 1\n",
             "line 1: expected 16000000000000 entries in the matrix section, "
             "more than a file of 24 bytes holds"),
        ],
    )
    def test_error_messages(self, tmp_path, text, message):
        assert self.error(tmp_path, text) == message

    @pytest.mark.parametrize(
        "text",
        [
            "diag 2\r\n1 4\r\nb\r\n0 5\r\nc 3\r\n",  # CRLF line endings
            "diag 2\n1 4 b 0 5\nc 3",  # b mid-line right after the last entry
            "diag 2 1\n4\nb 0\n5 c\n3\n",  # entries start on the header line
            "diag 2\n1_0 40e-1\nb\n0 5\nc 3\n",  # what Python's float() reads
        ],
    )
    def test_layouts_read_alike(self, tmp_path, text):
        p = load_problem(self.write(tmp_path, text))
        expected = [10.0, 4.0] if "1_0" in text else [1.0, 4.0]
        np.testing.assert_array_equal(p.A.diag, expected)
        np.testing.assert_array_equal(p.b, [0.0, 5.0])
        assert p.c == 3.0

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"diag 2\n1 \xff\nb\n0 0\n", "line 2: byte 0xff is not valid UTF-8"),
            (b"diag 2\n1 4\nb\n0 0\nc \xe9\n", "line 5: byte 0xe9 is not valid UTF-8"),
            # past the first 8 KiB, which a text reader decodes in one piece
            (b"diag 2\n1 4\n" + b" " * 10_000 + b"\nb\n0 \x80\n",
             "line 5: byte 0x80 is not valid UTF-8"),
            # valid UTF-8 that is not ASCII still reaches the parser
            ("diag 2\n1 4\nb\n0 0\n\u00e9\n".encode(),
             "line 5: unexpected trailing token '\u00e9'"),
        ],
        ids=["entry", "c", "later-block", "valid-utf8"],
    )
    def test_undecodable_bytes(self, tmp_path, data, message):
        path = tmp_path / "problem.txt"
        path.write_bytes(data)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert str(info.value) == message
        assert info.value.filename == str(path)

    def test_trailing_garbage(self, tmp_path):
        assert self.error(tmp_path, "diag 2\n1 4\nb\n0 0\nextra\n") == (
            "line 5: unexpected trailing token 'extra'"
        )

    def test_empty_file(self, tmp_path):
        assert self.error(tmp_path, "") == "line 1: empty problem file"

    @pytest.mark.parametrize(
        "problem, text",
        [
            (QuadraticProblem(DiagonalOperator([1.0, 2.5, 1e22]), [0.1, -3.0, 1 / 3], c=0.7),
             "diag 3\n1 2.5 1e+22\nb\n0.10000000000000001 -3 0.33333333333333331\n"
             "c 0.69999999999999996\n"),
            (QuadraticProblem(RankOneOperator([0.5, 0.1], 10.0), [1.0, 2.0], c=-0.25),
             "rank1 2 10\n0.5 0.10000000000000001\nb\n1 2\nc -0.25\n"),
            (QuadraticProblem(RankOneOperator([0.5, 0.1], 10.0), [1.0, 2.0]),
             "rank1 2 10\n0.5 0.10000000000000001\nb\n1 2\n"),
            (QuadraticProblem(DenseOperator([[2.0, 0.1], [0.1, 3.0]]), [1e-300, -2.5], c=-1.5),
             "dense 2\n2 0.10000000000000001\n0.10000000000000001 3\nb\n1e-300 -2.5\nc -1.5\n"),
        ],
        ids=["diag", "rank1", "rank1-no-c", "dense"],
    )
    def test_saved_text(self, tmp_path, problem, text):
        path = tmp_path / "saved.txt"
        save_problem(problem, path)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("family", ["diag", "dense", "rank1"])
    def test_save_load_round_trip(self, tmp_path, family):
        rng = np.random.default_rng(17)
        if family == "diag":
            p = generate(InstanceSpec(InstanceFamily.DIAGONAL_ILL_CONDITIONED, 6, 2))
        elif family == "rank1":
            p = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 6, 2))
        else:
            r = rng.standard_normal((4, 4))
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


class TestLoadProblemFromPipe:
    """A pipe has no size, so a header's count is checked only against what
    memory holds."""

    def test_good_file_loads(self, pipe_file):
        p = load_problem(pipe_file("diag 2\n1 4\nb\n0 5\n"))
        np.testing.assert_array_equal(p.A.diag, [1.0, 4.0])
        np.testing.assert_array_equal(p.b, [0.0, 5.0])

    def test_short_file_reports_its_line(self, pipe_file):
        path = pipe_file("diag 3\n1 4 5\nb\n0 5\n")
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert info.value.filename == path
        assert str(info.value) == "line 4: expected 3 entries in the b section, found 2"

    @pytest.mark.parametrize(
        "n, match",
        [
            # Where memory is overcommitted this array is made and the
            # section runs short instead; either error names the section.
            (10**11, "diagonal section"),
            # past numpy's largest array on any machine
            (10**20, "^line 1: expected 100000000000000000000 entries in the diagonal "
                     "section, more than memory holds$"),
        ],
    )
    def test_huge_header_is_a_format_error(self, pipe_file, n, match):
        with pytest.raises(ProblemFormatError, match=match):
            load_problem(pipe_file(f"diag {n}\n1\n"))


PIECE_SIZES = (1, 2, 7)


class TestLoadProblemInPieces(TestLoadProblem):
    """Every fixture of TestLoadProblem again, read a few characters a piece
    and saved a few values a slice, so that tokens and line ends straddle
    pieces; arrays, saved bytes, error texts and line numbers stay the same."""

    @pytest.fixture(autouse=True, params=PIECE_SIZES)
    def small_pieces(self, request, monkeypatch):
        monkeypatch.setattr(generators, "_PIECE_CHARS", request.param)
        monkeypatch.setattr(generators, "_SLICE_VALUES", request.param)


@pytest.mark.parametrize(
    "token, message",
    [
        # read whole, and the long line counts as one line
        ("1234", "line 4: expected a number in the b section, got 'q'"),
        ("12x4", "line 2: expected a number in the diagonal section, got '12x4'"),
    ],
)
def test_token_straddling_a_piece(tmp_path, token, message):
    # The diagonal line's first piece ends inside its last-but-one token.
    ones = generators._PIECE_CHARS // 2 - 1
    n = ones + 2
    path = tmp_path / "long.txt"
    path.write_text(f"diag {n}\n" + "1 " * ones + f"{token} 1\nb\n" + "0 " * (n - 1) + "q\n")
    with pytest.raises(ProblemFormatError) as info:
        load_problem(path)
    assert str(info.value) == message


@st.composite
def problems(draw):
    """Small problems of all three operators, with any finite b and c."""
    kind = draw(st.sampled_from(["diag", "rank1", "dense"]))
    n = draw(st.integers(1, 12))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if kind == "diag":
        op = DiagonalOperator(draw(arrays(np.float64, n, elements=positive)))
    elif kind == "rank1":
        v = draw(arrays(np.float64, n, elements=st.floats(-1e150, 1e150)))
        op = RankOneOperator(v, draw(positive))
    else:
        s = draw(arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3)))
        m = s + s.T
        np.fill_diagonal(m, np.abs(m).sum(axis=1) + 1.0)  # diagonally dominant
        op = DenseOperator(m)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return QuadraticProblem(op, draw(arrays(np.float64, n, elements=finite)), draw(finite))


def _entries(problem):
    op = problem.A
    return op.diag if hasattr(op, "diag") else op.v if hasattr(op, "v") else op.matrix


@pytest.mark.parametrize("size", [*PIECE_SIZES, None], ids=[*map(str, PIECE_SIZES), "default"])
@given(problem=problems())
def test_sliced_file_round_trip(tmp_path_factory, size, problem):
    # The sliced writer gives the whole-line writer's bytes, and the pieced
    # reader gives back the very bits.
    work = tmp_path_factory.getbasetemp() / f"round-{size}"
    work.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(generators, "_PIECE_CHARS", size)
            mp.setattr(generators, "_SLICE_VALUES", size)
        save_problem(problem, work / "saved.txt")
        loaded = load_problem(work / "saved.txt")
    reference_save_problem(problem, work / "reference.txt")
    assert (work / "saved.txt").read_bytes() == (work / "reference.txt").read_bytes()
    assert type(loaded.A) is type(problem.A)
    assert _entries(loaded).tobytes() == _entries(problem).tobytes()
    assert loaded.b.tobytes() == problem.b.tobytes()
    assert loaded.c == problem.c
    assert getattr(loaded.A, "sigma", None) == getattr(problem.A, "sigma", None)


@pytest.mark.parametrize("family", list(InstanceFamily))
def test_files_in_bounded_memory(tmp_path, family):
    # n = 2e5: the two arrays hold 3.05 MiB.  A whole line held as Python
    # floats and strings would take several times that on either side.
    problem = generate(InstanceSpec(family, 200_000, 1))
    arrays_bytes = _entries(problem).nbytes + problem.b.nbytes
    path = tmp_path / "big.txt"
    tracemalloc.start()
    try:
        save_problem(problem, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_problem(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= arrays_bytes
    assert load_peak <= 3 * arrays_bytes
    assert _entries(loaded).tobytes() == _entries(problem).tobytes()
    assert loaded.b.tobytes() == problem.b.tobytes()


def test_loaded_arrays_are_held_once(tmp_path):
    # The parsed v and b become the operator's and the problem's arrays, not
    # copies of them, the b of the c line's second problem included: beside
    # the two arrays, loading holds one piece of text and its tokens.
    generated = generate(InstanceSpec(InstanceFamily.DENSE_RANK_ONE, 200_000, 1))
    problem = QuadraticProblem(generated.A, generated.b, 2.5)
    arrays_bytes = problem.A.v.nbytes + problem.b.nbytes
    path = tmp_path / "rank1.txt"
    save_problem(problem, path)
    tracemalloc.start()
    try:
        loaded = load_problem(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.5 * arrays_bytes
    assert loaded.c == 2.5
    assert loaded.A.v.tobytes() == problem.A.v.tobytes()
    assert loaded.b.tobytes() == problem.b.tobytes()


def test_dense_file_loads_at_about_its_arrays(tmp_path):
    # The matrix is parsed straight into the array DenseOperator keeps, and
    # its symmetry check makes no n x n temporaries: beside the arrays,
    # loading holds one piece of text, its tokens and a row block's scratch.
    n = 700
    rng = np.random.default_rng(70)
    r = rng.standard_normal((n, n))
    problem = QuadraticProblem(DenseOperator(r @ r.T + n * np.eye(n)), rng.standard_normal(n))
    arrays_bytes = problem.A.matrix.nbytes + problem.b.nbytes
    path = tmp_path / "dense.txt"
    save_problem(problem, path)
    tracemalloc.start()
    try:
        loaded = load_problem(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.5 * arrays_bytes
    assert loaded.A.matrix.tobytes() == problem.A.matrix.tobytes()
    assert loaded.b.tobytes() == problem.b.tobytes()
