import csv
import json

import pytest

import ellipcenter.bench as bench
import ellipcenter.cli as cli
from ellipcenter.cli import main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_generated_instance_to_file(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "--instance", "dense",
            "--n", "20,30",
            "--seed", "5",
            "--methods", "me,cg",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert [(r["method"], r["n"]) for r in rows] == [
        ("me", "20"), ("cg", "20"), ("me", "30"), ("cg", "30"),
    ]
    sidecar = tmp_path / "report.csv.instances.jsonl"
    metas = [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert [m["n"] for m in metas] == [20, 30]
    assert all(m["family"] == "dense" for m in metas)


def test_instance_metadata_is_strict_json(tmp_path):
    # The eigenvalue ratio 1e10 / 1e-300 overflows to inf, which strict
    # JSON cannot hold.
    problem = tmp_path / "wide.txt"
    problem.write_text("diag 2\n1e-300 1e10\nb\n0 0\n")
    out = tmp_path / "report.csv"
    assert main(["--instance", f"file:{problem}", "--methods", "cg", "--out", str(out)]) == 0
    assert read_csv(out)[0]["cond"] == "inf"

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    sidecar = tmp_path / "report.csv.instances.jsonl"
    (meta,) = [json.loads(line, parse_constant=reject) for line in sidecar.read_text().splitlines()]
    assert meta["condition_number"] is None


def test_stdout_csv(capsys):
    code = main(["--instance", "dense", "--n", "15", "--methods", "cg"])
    assert code == 0
    captured = capsys.readouterr().out
    lines = captured.strip().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 2


def test_markdown_format(tmp_path):
    out = tmp_path / "report.md"
    code = main(
        ["--instance", "dense", "--n", "12", "--methods", "me", "--format",
         "markdown", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("| method |")


def test_file_instance(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    problem.write_text("diag 3\n1 5 25\nb\n1 2 3\n")
    code = main(["--instance", f"file:{problem}", "--methods", "me,cg"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["method"] for r in rows] == ["me", "cg"]
    assert all(r["seed"] == "" for r in rows)
    assert all(r["n"] == "3" for r in rows)


def test_exit_code_on_unconverged(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["--instance", "diag", "--n", "50", "--methods", "grad",
         "--max-iters", "5", "--out", str(out)]
    )
    assert code == 1
    assert read_csv(out)[0]["term"] == "max_iterations"


def test_abs_eps_mode(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["--instance", "dense", "--n", "10", "--methods", "cg",
         "--eps", "1e-4", "--eps-mode", "abs", "--out", str(out)]
    )
    assert code == 0


def test_trace_dir(tmp_path):
    out = tmp_path / "r.csv"
    traces = tmp_path / "traces"
    main(
        ["--instance", "dense", "--n", "10", "--seed", "2", "--methods", "me",
         "--out", str(out), "--trace-dir", str(traces)]
    )
    assert (traces / "me_dense_10_0.csv").exists()


def test_deterministic_rows_across_runs(tmp_path):
    args = [
        "--instance", "diag", "--n", "30", "--seed", "8",
        "--methods", "me,cg,bb-long", "--max-iters", "2000", "--out",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(args + [str(out1)])
    main(args + [str(out2)])
    rows1 = read_csv(out1)
    rows2 = read_csv(out2)
    for a, b in zip(rows1, rows2):
        assert a["iters"] == b["iters"]
        assert a["fval"] == b["fval"]
        assert a["term"] == b["term"]


def test_bad_instance_rejected():
    with pytest.raises(SystemExit):
        main(["--instance", "sparse"])


def test_bad_problem_file_names_file(tmp_path):
    bad = tmp_path / "indefinite.txt"
    bad.write_text("dense 2\n1 0\n0 -1\nb\n1 1\n")
    with pytest.raises(SystemExit) as info:
        main(["--instance", f"file:{bad}", "--methods", "me"])
    assert str(info.value) == (
        f"problem file {bad}: line 3: matrix must be positive definite, "
        "smallest eigenvalue is -1.0"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("diag 10000000000000\n1 2\nb\n1 1\n",
         "line 1: expected 10000000000000 entries in the diagonal section, "
         "more than a file of 30 bytes holds"),
        ("dense 4000000\n1 2\nb\n1 1\n",
         "line 1: expected 16000000000000 entries in the matrix section, "
         "more than a file of 24 bytes holds"),
    ],
)
def test_oversized_header_names_file(tmp_path, text, message):
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["--instance", f"file:{bad}", "--methods", "me"])
    assert str(info.value) == f"problem file {bad}: {message}"


def test_huge_header_from_a_pipe_names_file(pipe_file):
    path = pipe_file("diag 100000000000\n1\n")
    with pytest.raises(SystemExit) as info:
        main(["--instance", f"file:{path}", "--methods", "me"])
    section = "expected 100000000000 entries in the diagonal section"
    # The second where memory is overcommitted, so the array is made.
    assert str(info.value) in (f"problem file {path}: line 1: {section}, more than memory holds",
                               f"problem file {path}: line 2: {section}, found 1")


def test_undecodable_problem_file_names_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"diag 2\n1 \xff\nb\n0 0\n")
    with pytest.raises(SystemExit) as info:
        main(["--instance", f"file:{bad}", "--methods", "cg"])
    assert str(info.value) == f"problem file {bad}: line 2: byte 0xff is not valid UTF-8"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "0", "epsilon must be positive"),
        ("--eps", "-1", "epsilon must be positive"),
        ("--eps", "inf", "epsilon must be finite"),
        ("--max-iters", "0", "max_iterations must be at least 1"),
    ],
)
def test_bad_solve_settings_stop_before_any_instance(flag, value, message, monkeypatch):
    def no_build(spec):
        raise AssertionError("an instance was built before the settings were checked")

    monkeypatch.setattr(bench, "generate", no_build)
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "8", flag, value])
    assert str(info.value) == f"invalid configuration: {message}"


@pytest.mark.parametrize("value", ["inf", "0"])
def test_bad_b_scale_stops_before_any_instance(value, monkeypatch):
    def no_build(spec):
        raise AssertionError("an instance was built before b_scale was checked")

    monkeypatch.setattr(bench, "generate", no_build)
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "8", "--b-scale", value])
    assert str(info.value) == "invalid configuration: b_scale must be positive and finite"


def test_repeated_method_stops_before_any_instance(tmp_path, monkeypatch):
    def no_build(spec):
        raise AssertionError("an instance was built before the methods were checked")

    monkeypatch.setattr(bench, "generate", no_build)
    traces = tmp_path / "traces"
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "8", "--methods", "me,cg,me",
              "--trace-dir", str(traces)])
    assert str(info.value) == "invalid configuration: methods listed more than once: ['me']"
    assert not traces.exists()


def test_missing_problem_file_stops_before_any_solve(tmp_path, monkeypatch):
    def no_run(cfg):
        raise AssertionError("the grid ran before the missing file was found")

    monkeypatch.setattr(cli, "run_benchmark", no_run)
    missing = tmp_path / "nope.txt"
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "8", "--instance", f"file:{missing}"])
    assert str(info.value) == f"problem file {missing}: No such file or directory"


def test_bad_trace_dir_stops_before_any_solve(tmp_path, monkeypatch):
    # The harness records a raising solve as an error cell, so the solves
    # are counted rather than made to raise.
    solved = []
    for name in ("me_solve", "cg_solve"):
        monkeypatch.setattr(bench, name, lambda *args, _name=name: solved.append(_name))
    not_a_dir = tmp_path / "traces"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "64", "--methods", "me,cg",
              "--trace-dir", str(not_a_dir)])
    assert str(info.value) == f"trace directory {not_a_dir}: File exists"
    assert solved == []


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_bad_report_file_stops_before_any_instance(tmp_path, monkeypatch, where):
    def no_build(spec):
        raise AssertionError("an instance was built before the report file was checked")

    monkeypatch.setattr(bench, "generate", no_build)
    out = tmp_path / "nope" / "r.csv" if where == "missing directory" else tmp_path
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    with pytest.raises(SystemExit) as info:
        main(["--instance", "diag", "--n", "50", "--methods", "me,cg", "--out", str(out)])
    assert str(info.value) == f"report file {out}: {reason}"


def test_report_file_check_keeps_an_existing_report(tmp_path, monkeypatch):
    def no_build(spec):
        raise AssertionError("an instance was built")

    report = tmp_path / "r.csv"
    report.write_text("earlier report\n")
    monkeypatch.setattr(bench, "generate", no_build)
    with pytest.raises(SystemExit):
        main(["--instance", "diag", "--n", "8", "--eps", "0", "--out", str(report)])
    assert report.read_text() == "earlier report\n"
    assert not (tmp_path / "r.csv.instances.jsonl").exists()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("argv, message", [
    (["--instance", "diag", "--methods", "bogus"], "invalid configuration: unknown methods"),
    (["--instance", "file:{tmp}/nope.txt"], "problem file"),
], ids=["unknown method", "missing problem file"])
def test_rejected_run_leaves_no_new_report_files(tmp_path, argv, message, existing):
    report, sidecar = tmp_path / "r.csv", tmp_path / "r.csv.instances.jsonl"
    if existing:
        report.write_bytes(b"earlier report\n")
        sidecar.write_bytes(b'{"earlier": 1}\n')
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit, match=message):
        main([*argv, "--n", "8", "--out", str(report)])
    if existing:
        assert report.read_bytes() == b"earlier report\n"
        assert sidecar.read_bytes() == b'{"earlier": 1}\n'
    else:
        assert not report.exists() and not sidecar.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_failed_cells_are_named_on_stderr(capsys):
    code = main(["--instance", "diag", "--instance", "dense", "--n", "3", "--b-scale", "1e308",
                 "--methods", "me,cg"])
    assert code == 1
    captured = capsys.readouterr()
    assert [row["term"] for row in csv.DictReader(captured.out.splitlines())] == ["error"] * 4
    assert "RuntimeError" not in captured.out
    assert captured.err.splitlines() == [
        f"error: {method} on {family} n=3 (instance {k}): "
        f"RuntimeError: {method}: gradient norm is inf; aborting"
        for k, family in enumerate(["diag", "dense"]) for method in ["me", "cg"]
    ]


def test_bad_n_rejected():
    with pytest.raises(SystemExit):
        main(["--instance", "diag", "--n", "ten"])


def test_unknown_method_rejected():
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["--instance", "diag", "--n", "10", "--methods", "newton"])
