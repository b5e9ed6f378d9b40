"""The names that tooling looks up in the package all exist."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import markoff

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
