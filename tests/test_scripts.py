"""The measurement scripts import, answer --help, and their probes name only
what the package has.  No sweep is run."""

import ast
import importlib
import pathlib

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
