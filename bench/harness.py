"""Runs one workload in the current process through ``sylvester.cli.main``.

``run.py`` starts this file in a fresh process per workload run:

    python3 bench/harness.py --workload W --seed S --seconds T --trace 0|1 \
        --result FILE

With ``--trace 0`` it repeats passes over the workload's ops while the
next pass still fits in ``--seconds`` (at least one pass), with the speed
probe (``speed.py``) running, so each op also gets a reference time.  With
``--trace 1`` it runs each op once untraced and once traced, so the
difference of the two passes is the tracing overhead.  Every op's stdout is
captured and gated (``gate.py``); repeated passes with the same seed, and
the traced pass, must print byte-identical output.  The raw records go to
``--result`` as JSON; spans go next to it as ``.npz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from gate import Gate, closed_form_reference
from speed import SpeedProbe
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "schemas"
METHODS = ("monomial-certificate", "endpoint-linear", "sampled-only")


def src_digest():
    """sha256 over the package sources, so results can name the code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(op):
    """One ``cli.main`` call with stdout and stderr captured."""
    from sylvester import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    code = exception = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # an op that raises is counted as failed
            exception = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return {"op": op.name, "code": code, "exception": exception,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "t0": t0, "t1": t1, "wall_s": t1 - t0}


def _std_errors(op, stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return []
    if op.command == "theorem1":
        return [row.get("std_error") for row in doc.get("rows", [])]
    if op.command == "estimate":
        return [doc.get("std_error")]
    return []


def _report_counters(stdout):
    """Positivity-method histogram and identity grid points of a verify
    report; zero counts when there is no readable report."""
    try:
        doc = json.loads(stdout) if stdout else {}
    except json.JSONDecodeError:
        doc = {}
    counters = {f"certificates.positivity.method.{m}": 0 for m in METHODS}
    for check in doc.get("positivity_checks", []):
        key = f"certificates.positivity.method.{check.get('method')}"
        counters[key] = counters.get(key, 0) + 1
    grid = {c.get("name"): c.get("grid_points")
            for c in doc.get("identity_checks", [])}
    counters["certificates.identity.checks"] = len(grid)
    counters["certificates.identity.grid_points"] = sum(
        v for v in grid.values() if isinstance(v, int))
    return counters, grid


class DigestStore:
    """Output digests per (program sources, op arguments), kept in the
    output directory, so that runs of the same code with the same seed must
    print byte-identical output."""

    def __init__(self, path, prefix):
        self.path = Path(path)
        self.prefix = prefix
        try:
            self.digests = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            self.digests = {}

    def check(self, op, stdout):
        key = f"{self.prefix}:{' '.join(op.argv)}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        earlier = self.digests.setdefault(key, digest)
        if earlier != digest:
            return ["stdout differs from an earlier run with the same "
                    "seed and sources"]
        return []

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True))
        os.replace(tmp, self.path)


def run_workload(workload, seed, seconds, trace, scale="full", gate=None,
                 digests=None, spans_path=None):
    """Run the workload's passes; returns the raw result document."""
    import sylvester.cli  # noqa: F401  (import before the first op)

    ops = workloads.ops(workload, seed, scale)
    gate = gate or Gate(SCHEMAS, closed_form_reference)
    tracer = traced = None
    if trace:
        # One untraced and one traced run of each op, adjacent and in
        # alternating order, so that drift and warm-up cancel in the
        # overhead.
        tracer = Tracer()
        untraced, traced = [], []
        for j, op in enumerate(ops):
            tracer.op = j
            order = (False, True) if j % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    with tracer:
                        traced.append(run_op(op))
                else:
                    untraced.append(run_op(op))
        passes = [untraced]
    else:
        passes = []
        t0 = time.perf_counter()
        with SpeedProbe() as probe:
            while True:
                started = time.perf_counter()
                passes.append([run_op(op) for op in ops])
                now = time.perf_counter()
                if (now - t0) + (now - started) > seconds:
                    break
        for rec in (rec for records in passes for rec in records):
            rec["ref_s"], rec["probe_s"] = probe.reference_time(rec["t0"],
                                                                rec["t1"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = {rec["op"]: rec["stdout"] for rec in passes[0]}
    for records in passes + ([traced] if traced else []):
        for op, rec in zip(ops, records):
            rec["errors"] = gate.errors(op, rec)
            if rec["stdout"] != first[op.name]:
                rec["errors"].append("stdout differs from the first pass "
                                     "with the same seed")
            rec["std_errors"] = _std_errors(op, rec["stdout"])
            rec["stdout_sha256"] = hashlib.sha256(
                rec["stdout"].encode()).hexdigest()
    if digests is not None:
        for op, rec in zip(ops, passes[0]):
            rec["errors"] += digests.check(op, rec["stdout"])

    verify = [rec["stdout"] for op, rec in zip(ops, passes[0])
              if op.command == "verify"]
    counters, grid = _report_counters(verify[0] if verify else None)
    layers = None
    missing = []
    if tracer is not None:
        op_names = [op.name for op in ops]
        layers = layer_metrics(tracer, op_names)
        layers.update(counters)
        wall = sum(r["wall_s"] for r in passes[0])
        layers["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - wall
        missing = tracer.missing
        if spans_path is not None:
            tracer.write(spans_path, op_names)
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(bool(trace)),
        "src_sha256": src_digest(),
        "ops": [{"name": op.name, "argv": list(op.argv),
                 "samples": op.samples} for op in ops],
        "passes": [[_strip(r) for r in records] for records in passes],
        "traced": [_strip(r) for r in traced] if traced else None,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "identity_grid_points": grid,
        "missing_targets": missing,
    }


def _strip(rec):
    return {k: v for k, v in rec.items() if k not in ("stdout", "stderr")} | {
        "stderr_tail": rec["stderr"][-500:]}


#: Span statistics reported per layer: (span name, statistic).
SPAN_METRICS = (
    ("poly.mul", "calls"), ("poly.mul", "self_s"),
    ("poly.add", "calls"), ("poly.add", "self_s"),
    ("poly.with_variables", "calls"), ("poly.with_variables", "self_s"),
    ("poly.substitute", "calls"), ("poly.substitute", "self_s"),
    ("poly.integrate_box", "calls"), ("poly.integrate_box", "self_s"),
    ("poly.grid_identity_check", "calls"),
    ("poly.grid_identity_check", "self_s"),
    ("combs.comb_poly", "calls"), ("combs.comb_poly", "self_s"),
    ("segments.convexity_integrand", "calls"),
    ("segments.convexity_integrand", "self_s"),
    ("segments.symmetrized_integrand", "calls"),
    ("segments.symmetrized_integrand", "self_s"),
    ("segments.family_probability", "calls"),
    ("segments.family_probability", "self_s"),
    ("segments.normalize", "self_s"),
    ("segments.clamped_family", "calls"),
    ("bodies.sample_points", "calls"), ("bodies.sample_points", "self_s"),
    ("bodies.y_bounds", "calls"), ("bodies.y_bounds", "self_s"),
    ("montecarlo.convex_position_mask", "calls"),
    ("montecarlo.convex_position_mask", "self_s"),
    ("montecarlo.rb_conditional", "calls"),
    ("montecarlo.rb_conditional", "self_s"),
    ("certificates.verify_n4", "s"),
    ("certificates.verify_n5_cone", "s"),
    ("certificates.verify_n5_quadratic", "s"),
    ("certificates.symbolic_difference", "calls"),
    ("certificates.symbolic_difference", "self_s"),
    ("certificates.to_slope_variables", "self_s"),
    ("certificates.positivity_check", "calls"),
    ("certificates.positivity_check", "self_s"),
    ("cli.main", "self_s"),
)

COUNTERS = (
    "poly.mul.terms_out",
    "segments.clamp_events",
    "bodies.sample_points.points",
    "montecarlo.convex_position_mask.samples",
    "montecarlo.dyadic_tie_fallbacks",
)


def layer_metrics(tracer, op_names):
    """Per-layer metrics of a traced pass, zero where a layer did no work."""
    stats, per_op = tracer.span_stats(op_names)
    out = {}
    for name, stat in SPAN_METRICS:
        out[f"{name}.{stat}"] = stats.get(name, {}).get(stat, 0)
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    for key, op in (("w1_s", "disk-n5-w1"), ("w2_s", "disk-n5-w2")):
        out[f"montecarlo.estimate_Q.{key}"] = per_op.get(op, {}).get(
            "montecarlo.estimate_Q", 0.0)
    out["trace.spans"] = len(tracer.start)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result_path = Path(args.result)
    digests = DigestStore(result_path.parent / "digests.json", src_digest())
    spans = result_path.with_suffix(".spans.npz") if args.trace else None
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       digests=digests, spans_path=spans)
    digests.save()
    result_path.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
