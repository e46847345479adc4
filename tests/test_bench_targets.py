"""The benchmark's span tracer must find every function it traces, so that a
rename in ``src/`` fails here instead of silently zeroing a per-layer
metric."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as t:
        assert t.missing == []
