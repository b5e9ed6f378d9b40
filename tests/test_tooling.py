"""The names that tooling looks up in the package all exist."""

import importlib.util
from pathlib import Path

import markoff

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracing_targets_and_exports_resolve():
    # the benchmark's tracer reports a renamed or deleted target as absent
    # rather than failing, so check its table here
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = [target for target, *_ in tracing.TARGETS if tracing._resolve(target) is None]
    assert absent == []
    assert [name for name in markoff.__all__ if not hasattr(markoff, name)] == []
