"""The benchmark's span tracer must find every function it traces, so that a
rename in ``src/`` fails here instead of silently zeroing a per-layer
metric."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as t:
        assert t.missing == []


def test_counters_count_provoked_events(monkeypatch):
    # One clamp and one dyadic-tie fallback, provoked on purpose: a change to
    # ABSCISSA_BITS or to the beta clamped_family returns fails here.
    # selftest.py puts src/ and bench/ on sys.path and imports the bench
    # modules under top-level names (run, gate, ...); undo both afterwards.
    monkeypatch.setattr(sys, "path", [str(TRACING.parent)] + sys.path)
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_selftest", TRACING.parent / "selftest.py")
        selftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(selftest)
        problems = []
        selftest.check_events(problems)
    finally:
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if Path(path).resolve().parent == TRACING.parent:
                del sys.modules[name]
    assert problems == []
