"""The sylvester benchmark.

    python3 bench/run.py --workload certify|mc-plain|mc-rb --seed N \
        --seconds T --trace 0|1

Run from the root of a checkout.  Set-up time is measured in several
fresh processes that only import ``sylvester.cli``.  The workload then
runs in one more fresh process (``harness.py``), which drives every op
through ``sylvester.cli.main(argv)`` with stdout captured and checks each
output (``gate.py``).  The readable report goes to stdout, followed by one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  Raw results, run metadata
and the spans of traced runs are written under ``.bench_out/``.

End-to-end times are in reference seconds: wall time scaled to a fixed
machine speed measured in the same process by ``speed.py``, because the
speed of a shared host drifts by up to 2x between runs.  The raw wall
times are printed next to them (``raw_wall_s``, ``raw_setup_s``).

Exit code 0 when the benchmark ran (failed ops are reported in the
result); 2, with no result line, when it could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import KERNEL_REF_S
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
SETUP_MODULES = ("poly", "combs", "segments", "bodies", "montecarlo",
                 "certificates", "cli")
SE_TARGET = 1e-3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[1:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def measure_setup(deadline):
    """Time to import ``sylvester.cli`` (its module-level tables included)
    in a fresh process: median over several processes, after one warm-up,
    as (reference seconds, raw seconds)."""
    probe = [sys.executable, str(BENCH_DIR / "speed.py")]
    _run(probe, deadline)
    runs = [[float(v) for v in _run(probe, deadline).stdout.split()]
            for _ in range(SETUP_REPEATS)]
    return (statistics.median(t * KERNEL_REF_S / k for t, k in runs),
            statistics.median(t for t, _ in runs))


def measure_imports(deadline):
    """Per-module self import time, from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c",
                     "import sylvester.cli"], deadline)
        self_us, cumulative_us = {}, {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if fields[0].isdigit():
                self_us[fields[2]] = int(fields[0])
                cumulative_us[fields[2]] = int(fields[1])
        row = {f"setup.{m}_import_s": self_us.get(f"sylvester.{m}", 0) / 1e6
               for m in SETUP_MODULES}
        row["setup.numpy_import_s"] = cumulative_us.get("numpy", 0) / 1e6
        runs.append(row)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def op_times(result):
    """Each op's median reference time over the run's passes."""
    return {op["name"]: statistics.median(p[i]["ref_s"]
                                          for p in result["passes"])
            for i, op in enumerate(result["ops"])}


def end_to_end(result, setup):
    """All end-to-end metrics of an untraced run: (value, unit) by name.
    Metrics that do not apply to the workload are left out.  Times are in
    reference seconds (``speed.py``), each op's the median over the passes;
    the raw ones are given for comparison."""
    times = op_times(result)
    metrics = {
        "wall_s": (sum(times.values()), "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    # Outputs repeat exactly across passes, so the first pass's standard
    # errors stand for all.
    ses = {r["op"]: r["std_errors"] for r in result["passes"][0]
           if r["std_errors"]}
    if ses:
        samples = sum(op["samples"] * len(ses[op["name"]])
                      for op in result["ops"] if op["name"] in ses)
        metrics["samples_per_s"] = (
            samples / sum(times[name] for name in ses), "1/s")
        if all(isinstance(s, float) for v in ses.values() for s in v):
            # theorem1 rows share their op's time equally.
            metrics["time_to_se1e-3_s"] = (sum(
                times[name] * statistics.fmean((s / SE_TARGET) ** 2 for s in v)
                for name, v in ses.items()), "s")
    if {"disk-n5-w1", "disk-n5-w2"} <= times.keys():
        metrics["scaling_eff_w2"] = (
            times["disk-n5-w1"] / (2 * times["disk-n5-w2"]), "ratio")
    attempted, failed = op_counts(result)
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    metrics["raw_wall_s"] = (sum(
        statistics.median(p[i]["wall_s"] for p in result["passes"])
        for i in range(len(result["ops"]))), "s")
    metrics["raw_setup_s"] = (setup[1], "s")
    return metrics


def op_counts(result):
    records = [r for p in result["passes"] for r in p]
    records += result["traced"] or []
    return len(records), sum(1 for r in records if r["errors"])


def _declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="sylvester benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "sylvester" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"

    setup = None if args.trace else measure_setup(deadline)
    imports = measure_imports(deadline) if args.trace else {}
    _run([sys.executable, str(BENCH_DIR / "harness.py"),
          "--workload", args.workload, "--seed", str(args.seed),
          "--seconds", str(args.seconds), "--trace", str(args.trace),
          "--result", str(result_path)], deadline)
    result = json.loads(result_path.read_text())

    attempted, failed = op_counts(result)
    e2e = {} if args.trace else end_to_end(result, setup)
    layers = dict(result["layers"] or {}, **imports)
    meta = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_sha256": result["src_sha256"],
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(result["passes"]),
        "op_samples": {op["name"]: op["samples"] for op in result["ops"]},
        "tracing_overhead_s": layers.get("trace.overhead_s"),
        "missing_trace_targets": result["missing_targets"],
    }
    result.update(meta=meta, end_to_end={k: v for k, (v, _) in e2e.items()},
                  per_layer=layers or None)
    result_path.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {meta['passes']}  attempted {attempted}  failed {failed}")
    for key in ("python", "numpy", "nproc", "git_revision", "src_sha256"):
        print(f"meta {key} {json.dumps(meta[key])}")
    times = {} if args.trace else op_times(result)
    for i, op in enumerate(result["ops"]):
        raw = statistics.median(p[i]["wall_s"] for p in result["passes"])
        line = f"op {op['name']}  samples {op['samples']}  raw {raw:.3f} s"
        if args.trace:
            line += f"  traced {result['traced'][i]['wall_s']:.3f} s"
        else:
            ref = times[op["name"]]
            estimates = len(result["passes"][0][i]["std_errors"])
            line += f"  ref {ref:.3f} s"
            if estimates:
                line += f"  {op['samples'] * estimates / ref:.1f} samples/s"
        print(line)
    for records in result["passes"] + [result["traced"] or []]:
        for rec in records:
            for err in rec["errors"]:
                print(f"FAILED {rec['op']}: {err}")
    for name, (value, unit) in e2e.items():
        print(f"e2e {name} {value} {unit}")
    if args.trace:
        if result["missing_targets"]:
            print(f"trace missing targets {result['missing_targets']}")
        for name in sorted(layers):
            print(f"layer {name} {layers[name]}")
        for name, points in result["identity_grid_points"].items():
            print(f"layer identity grid points [{name}] {points}")

    declared = _declared("per_layer" if args.trace else "end_to_end")
    values = layers if args.trace else {k: v for k, (v, _) in e2e.items()}
    missing = set(declared) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
