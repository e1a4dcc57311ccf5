"""The names the benchmark's traced run wraps still resolve in src.

The traced run looks every ``(module, name)`` of ``bench_trace.TRACED`` up
with ``getattr``; a src move that drops one fails that run only.  This
checks the list without running the benchmark.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"


def test_traced_names_resolve(monkeypatch):
    import permtree.montecarlo  # noqa: F401  (the traced runs import it too)

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ untouched
    spec = importlib.util.spec_from_file_location("bench_trace_names", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = []
    for short, names in bench_trace.TRACED.items():
        module = importlib.import_module(f"permtree.{short}")
        missing += [f"{short}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert missing == []
