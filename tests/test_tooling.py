"""The names that tooling looks up in the package all exist, the commands
the README shows run, and no module imports a name it never reads."""

import ast
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import markoff
from helpers import readme_commands
from markoff import cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_tracing_targets_and_exports_resolve():
    # the benchmark's tracer reports a renamed or deleted target as absent
    # rather than failing, so check its table here
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = [target for target, *_ in tracing.TARGETS if tracing._resolve(target) is None]
    assert absent == []
    assert [name for name in markoff.__all__ if not hasattr(markoff, name)] == []


def test_bare_pytest_finds_the_package():
    # pytest from the repository root, with no PYTHONPATH and no install
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         str(Path(__file__).resolve())],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_traced_census_grid_smoke_run():
    # one short traced benchmark run, checked as CI checks it: every output
    # correct, and no target absent, counter failing or exact work count
    # differing between the two traced passes of the process
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "census_grid",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
    for pattern in ("trace target absent", "trace counter failed", "exact count"):
        assert pattern not in result.stderr


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = shlex.split(line.split(" > ", 1)[0])[1:]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)


def _unused_imports(path):
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "markoff").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {path.name: names for path in paths if (names := _unused_imports(path))}
    assert unused == {}


def test_cli_import_loads_no_slow_stdlib_module():
    # records are plain slotted classes and Fraction is imported where it is
    # used, so starting a command loads none of these
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import markoff.cli; print(sorted(sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    modules = set(ast.literal_eval(result.stdout))
    assert "markoff.cli" in modules
    assert modules & {"dataclasses", "fractions", "decimal", "inspect"} == set()


def test_cli_import_loads_no_typing():
    # TreeId and EuclidTriple are collections.namedtuple classes; -S keeps
    # out `site`, which on some hosts loads typing itself
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import markoff.cli; print('typing' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def _fresh_process(body):
    """stdout of `body` run under python -I -S after importing markoff.cli,
    with `run(argv)` calling main with stdout captured."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import contextlib, io\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert markoff.cli.main(argv) == 0, argv\n"
        f"{body}\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout


VERIFY = ["verify", "--p", "13", "--A", "1", "--triple", "(t; t+2*i; t^2+2*i*t-2)"]


def test_commands_load_no_json():
    # the writer quotes strings with _json's encoder and writes true, false
    # and null itself, so no command of this list imports json; the library
    # modules that bench/workloads.execute finds in sys.modules stay loaded
    out = _fresh_process(
        "import markoff.cli\n"
        f"run({VERIFY!r})\n"
        "run(['descend', '--p', '13', '--A', '1', '--triple', '(t; t+2*i; t^2+2*i*t-2)'])\n"
        "run(['tree', '--p', '13', '--A', '1', '--root', '(t; t+2*i; t^2+2*i*t-2)',"
        " '--depth', '2', '--format', 'json'])\n"
        "run(['euclid', '--alpha', '1', '--beta', '0', '--depth', '3'])\n"
        "run(['count', 'signatures', '--beta', '1', '--n', '5'])\n"
        "run(['count', 'solutions', '--q', '5', '--A', 't', '--n', '2'])\n"
        "print(sorted(sys.modules))"
    )
    modules = set(ast.literal_eval(out))
    assert "json" not in modules
    assert {"markoff.oracle", "markoff.euclid", "markoff.counting"} <= modules


def test_well_formed_command_builds_one_parser():
    out = _fresh_process(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import markoff.cli\n"
        f"run({VERIFY!r})\n"
        "print(built)"
    )
    assert ast.literal_eval(out) == ["markoff verify"]
