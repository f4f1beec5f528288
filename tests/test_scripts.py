"""The measurement scripts import, answer --help, and their probes name only
what the package has; a report records each tree; every public helper of
``pairing.py`` has a user; the grid-memory probe reads a small grid's peak.
No sweep is run."""

import ast
import importlib
import json
import pathlib
import subprocess

import numpy
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
NAMES = sorted(p.stem for p in SCRIPTS.glob("*.py"))


@pytest.fixture
def script(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module


def probes(module):
    # The code a script runs in a fresh process: its module-level strings
    # that import something.
    return {name: value for name, value in vars(module).items()
            if name.isupper() and isinstance(value, str) and "import " in value}


@pytest.mark.parametrize("name", [n for n in NAMES if n != "pairing"])
def test_script_answers_help(script, name, capsys):
    with pytest.raises(SystemExit) as info:
        script(name).main(["--help"])
    assert info.value.code == 0
    assert "--parent" in capsys.readouterr().out


@pytest.mark.parametrize("name", NAMES)
def test_probes_compile_and_import_what_the_package_has(script, name):
    found = probes(script(name))
    assert found
    for probe, code in found.items():
        compile(code, f"{name}.{probe}", "exec")
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("ellipcenter"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}.{probe}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("ellipcenter"):
                        importlib.import_module(alias.name)


def test_report_records_each_tree(script, tmp_path):
    root = str(SCRIPTS.parent)
    git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    head = git.stdout.strip() if git.returncode == 0 else None
    plain = tmp_path / "plain"
    plain.mkdir()
    report = tmp_path / "report.json"
    sides = {"parent": root, "change": root, "plain": str(plain)}
    script("pairing").write_report(str(report), "some_sweep.py", sides, "what", {"part": 1}, [])
    env = json.loads(report.read_text())["environment"]
    assert env["script"] == "some_sweep.py"
    assert set(env["trees"]) == set(sides)
    for name, path in sides.items():
        tree = env["trees"][name]
        assert tree["path"] == path
        assert tree["numpy"] == numpy.__version__
        if name == "plain":
            assert tree["head"] is None and tree["dirty"] is None
        else:
            assert tree["head"] == head
            assert tree["dirty"] in ((None,) if head is None else (True, False))


def test_every_public_helper_has_a_user():
    pairing = ast.parse((SCRIPTS / "pairing.py").read_text())
    functions = {node.name: node for node in pairing.body if isinstance(node, ast.FunctionDef)}
    used = set()
    for name in NAMES:
        for node in ast.walk(ast.parse((SCRIPTS / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "pairing":
                used.update(alias.name for alias in node.names)
    for name, function in functions.items():
        used.update(node.func.id for node in ast.walk(function)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id != name)
    assert {"run_perfbench", "summary"} <= used
    assert [name for name in functions if not name.startswith("_") and name not in used] == []


def test_grid_memory_probe_reads_the_peak(script, tmp_path):
    sweep = script("grid_memory_sweep")
    argv = ["--instance", "dense", "--n", "1000", "--methods", "me,cg",
            "--out", str(tmp_path / "report.csv")]
    run = script("pairing").python_probe(str(SCRIPTS.parent), sweep.HWM_PROBE, json.dumps(argv))
    assert run["exit"] == 0
    assert 0 < run["before_mb"] <= run["peak_mb"]
    assert [row[0] for row in run["rows"]] == ["method", "me", "cg"]
