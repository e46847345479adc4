"""Self-test of the benchmark itself, on tiny sizes (a few seconds).

    python3 bench/selftest.py

It runs every workload traced, in this process, with tiny sample counts
and a one-point certificate grid, and checks that

1. every per-layer metric is nonzero on the workload meant to exercise it,
   so that a rename in ``src/`` cannot silently turn a layer's numbers
   into zeros;
2. every ``poly.*`` metric is zero on ``mc-plain``;
3. every end-to-end metric is positive on every workload, and a
   deliberately wrong reference value makes ``failed_ratio`` nonzero,
   while the right one leaves it at zero;
4. the clamp and dyadic-tie counters count their events when those occur
   (neither occurs on the benchmark's inputs).

Exit code 0 when all hold; otherwise each problem is printed.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from gate import Gate, closed_form_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Metric-name prefixes that must be nonzero on the given workload.
EXERCISED = {
    "certify": (
        "poly.mul.", "poly.add.", "poly.with_variables.", "poly.substitute.",
        "poly.grid_identity_check.", "combs.comb_poly.",
        "segments.convexity_integrand.", "segments.symmetrized_integrand.",
        "certificates.verify_", "certificates.symbolic_difference.",
        "certificates.to_slope_variables.", "certificates.positivity_check.",
        "certificates.positivity.method.monomial-certificate",
        "certificates.identity.", "cli.main.", "setup.", "trace.spans",
    ),
    "mc-plain": (
        "bodies.sample_points.", "montecarlo.convex_position_mask.",
        "montecarlo.estimate_Q.", "cli.main.", "setup.", "trace.spans",
    ),
    "mc-rb": (
        "poly.integrate_box.", "segments.family_probability.",
        "segments.normalize.", "segments.clamped_family.", "bodies.y_bounds.",
        "montecarlo.rb_conditional.", "cli.main.", "setup.", "trace.spans",
    ),
}
#: Zero on the benchmark's inputs: events provoked in check 4, and the
#: positivity methods the baseline report never uses (invariants read off the
#: report).  The overhead is a difference of two timings, of either sign.
MAY_BE_ZERO = (
    "segments.clamp_events", "montecarlo.dyadic_tie_fallbacks",
    "certificates.positivity.method.endpoint-linear",
    "certificates.positivity.method.sampled-only", "trace.overhead_s",
)


@contextmanager
def tiny_certificates():
    """Certificate checks on one abscissa pair and one triple."""
    from sylvester import certificates

    pairs, triples = (certificates.default_x_pairs,
                      certificates.default_x_triples)
    certificates.default_x_pairs = lambda *a, **k: pairs(*a, **k)[:1]
    certificates.default_x_triples = lambda *a, **k: triples(*a, **k)[:1]
    try:
        yield
    finally:
        certificates.default_x_pairs = pairs
        certificates.default_x_triples = triples


def _failed(result):
    return [(r["op"], r["errors"]) for records in
            result["passes"] + [result["traced"] or []]
            for r in records if r["errors"]]


def check_layers(problems):
    declared = [m["name"] for m in json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]]
    for name in declared:
        rules = [w for w, prefixes in EXERCISED.items()
                 if name.startswith(prefixes)]
        if not rules and name not in MAY_BE_ZERO:
            problems.append(f"{name}: no self-test expectation")
    imports = run.measure_imports(time.monotonic() + 60)
    for workload, prefixes in EXERCISED.items():
        tiny = tiny_certificates() if workload == "certify" else nullcontext()
        with tiny:
            result = harness.run_workload(workload, 1, 0, trace=1,
                                          scale="tiny")
        layers = dict(result["layers"], **imports)
        for op, errors in _failed(result):
            problems.append(f"{workload} {op} failed: {errors}")
        if result["missing_targets"]:
            problems.append(f"trace targets missing: "
                            f"{result['missing_targets']}")
        for name in declared:
            if name not in layers:
                problems.append(f"{workload}: {name} not reported")
            elif name.startswith(prefixes) and not layers[name] > 0:
                problems.append(f"{workload}: {name} is {layers[name]}")
            elif (workload == "mc-plain" and name.startswith("poly.")
                  and layers[name] != 0):
                problems.append(f"mc-plain: {name} is {layers[name]}")
        print(f"{workload}: traced {len(result['traced'])} ops")


def check_end_to_end(problems):
    declared = [m["name"] for m in json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    setup = run.measure_setup(time.monotonic() + 60)
    for workload in EXERCISED:
        tiny = tiny_certificates() if workload == "certify" else nullcontext()
        with tiny:
            result = harness.run_workload(workload, 1, 0, trace=0,
                                          scale="tiny")
        e2e = run.end_to_end(result, setup)
        for op, errors in _failed(result):
            problems.append(f"{workload} {op} failed: {errors}")
        for name in declared:
            if not e2e.get(name, (0,))[0] > 0:
                problems.append(f"{workload}: end-to-end {name} is "
                                f"{e2e.get(name)}")
        print(f"{workload}: e2e {sorted(e2e)}")


def check_wrong_reference(problems):
    def wrong(shape, n):
        return closed_form_reference(shape, n) + 0.5

    gate = Gate(harness.SCHEMAS, wrong)
    result = harness.run_workload("mc-plain", 1, 0, trace=0, scale="tiny",
                                  gate=gate)
    attempted, failed = run.op_counts(result)
    ratio = failed / attempted
    print(f"failed_ratio with a wrong reference: {ratio}")
    if not ratio > 0:
        problems.append("a wrong reference value left failed_ratio at 0")


def check_events(problems):
    from sylvester import bodies, montecarlo, segments

    family = segments.NormalizedFamily(
        (0, Fraction(1, 2), 1), 1, 1, (0, Fraction(1, 4), 0),
        (0, Fraction(1, 4) + Fraction(1, 10**12), 0))
    body = bodies.body_from_json({"type": "polygon", "vertices": [
        ["0", "0"], ["1", "0"], ["0", "1"]]})
    dyadic = [Fraction(k, 8) for k in (1, 3, 4, 6)]
    tracer = Tracer()
    with tracer:
        try:
            segments.clamped_family(family)
            segments.clamped_family(family.with_beta((0, 0, 0)))
            montecarlo.rb_conditional(body, dyadic)
            # A full-precision float abscissa, as the tie fallback passes.
            montecarlo.rb_conditional(body, dyadic[:3] + [Fraction(2 / 3)])
        except AttributeError as exc:
            problems.append(f"counter boundary gone: {exc}")
    for name in ("segments.clamp_events", "montecarlo.dyadic_tie_fallbacks"):
        if tracer.counters.get(name) != 1:
            problems.append(f"{name} counted {tracer.counters.get(name)} "
                            f"of 1 provoked events")


def main():
    problems = []
    check_layers(problems)
    check_end_to_end(problems)
    check_wrong_reference(problems)
    check_events(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
