"""Command-line front end.

Every subcommand emits a machine-readable document (JSON by default, CSV
or pretty text behind --output) that echoes the full run configuration,
so identical configurations produce byte-identical output.

Exit codes: 0 success/pass, 1 usage error, 2 precondition failure,
3 certificate or reproduction failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import bodies, certificates, closed_forms, combs, montecarlo, segments
from .poly import MultiPoly
from .rationals import DocumentError, format_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_CERTIFICATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(minimum):
    """argparse type: an int no smaller than ``minimum``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


def build_parser():
    parser = _Parser(
        prog="sylvester",
        description="Exact and Monte Carlo convex-position probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, body=False, mc=False, n=False):
        p.add_argument("--output", choices=("json", "csv", "pretty"),
                       default="json")
        if body:
            p.add_argument(
                "--body", default="square",
                help="named body (triangle|square|disk), file path, "
                     "or inline body JSON",
            )
        if n:
            p.add_argument("--n", type=_int_at_least(3), default=4)
        if mc:
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument("--samples", type=_int_at_least(1), default=10_000)
            p.add_argument("--workers", type=_int_at_least(1), default=1,
                           help="most threads, at most one per CPU; the "
                                "output does not depend on it")

    p = sub.add_parser("comb", help="exact comb probability")
    p.add_argument("--comb", required=True,
                   help="file path or inline JSON {x:[...], l:[...]}")
    common(p)

    p = sub.add_parser("kpoly", help="comb polynomial K, symbolic or numeric")
    p.add_argument("--x", required=True,
                   help="comma-separated interior abscissas, e.g. 1/3,2/3")
    p.add_argument("--lengths",
                   help="comma-separated tooth lengths; omit for symbolic K")
    common(p)

    p = sub.add_parser("cond", help="exact conditional probability of a family")
    p.add_argument("--family", required=True,
                   help="file path or inline NormalizedFamily JSON")
    common(p)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of Q^n")
    p.add_argument("--rb", action="store_true",
                   help="Rao-Blackwellized conditional estimator")
    common(p, body=True, mc=True, n=True)

    p = sub.add_parser("transform", help="Steiner symmetrization or shaking")
    p.add_argument("--op", choices=("sym", "sha"), required=True)
    common(p, body=True)

    p = sub.add_parser("closed-forms", help="table of reference constants")
    common(p)

    p = sub.add_parser("verify", help="re-check the n=4/n=5 certificates")
    p.add_argument("--case", choices=("n4", "n5", "all"), default="all")
    common(p)

    p = sub.add_parser("theorem1", help="Monte Carlo reproduction table")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero unless every row is within 4 sigma")
    common(p, mc=True)

    return parser


# -- helpers ---------------------------------------------------------------


def _load_doc(source):
    """File path or inline JSON."""
    if os.path.exists(source):
        with open(source) as fh:
            return json.load(fh)
    try:
        return json.loads(source)
    except json.JSONDecodeError:
        raise UsageError(f"not a file and not valid JSON: {source!r}")


_NAMED_BODIES = {
    "square": {
        "type": "polygon",
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    },
    "triangle": {
        "type": "polygon",
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
    },
    "disk": {"type": "disk", "center": ["0", "0"], "r": "1"},
}


def _load_body(source):
    """The body ``source`` names: a named body, a file path or inline body
    JSON.

    A named body is built once per process, and every later call returns
    the same object; bodies are immutable, so sharing one is safe.
    Only a process that calls `main` repeatedly gains: a one-shot CLI
    process builds the body once either way.  A file or inline JSON is
    parsed on every call.
    """
    if source in _NAMED_BODIES:
        return _named_body(source)
    return bodies.body_from_json(_load_doc(source))


@functools.cache
def _named_body(name):
    """The named body ``name``, built on the first call; it is immutable, so
    every caller may share it."""
    return bodies.body_from_json(_NAMED_BODIES[name])


def _rational_list(text, option):
    values = []
    for part in filter(None, text.split(",")):
        try:
            values.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{option}: invalid rational {part!r}") from None
    return values


def _value_doc(value):
    return {"value": format_rational(value), "value_float": float(value)}


def _run_config(args):
    return {k: v for k, v in vars(args).items() if v is not None}


def _emit(doc, args, rows=None):
    """Serialize a result document.

    For csv output, ``rows`` (list of flat dicts) is rendered as a CSV
    table preceded by a run-config comment, quoted by the csv module (None
    is an empty cell, a list its JSON text); pretty output is a readable
    key: value rendering.  JSON is canonical: sorted keys, no whitespace
    variation.
    """
    doc = dict(doc)
    doc["run_config"] = _run_config(args)
    if args.output == "json":
        return json.dumps(doc, sort_keys=True)
    if args.output == "csv":
        # Imported here: the other outputs need neither module.
        import csv
        import io

        rows = rows or [_flatten(doc)]
        out = io.StringIO()
        writer = csv.DictWriter(out, list(rows[0]), extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return ("# run_config: " + json.dumps(doc["run_config"],
                                              sort_keys=True)
                + "\n" + out.getvalue()[:-1])
    lines = []
    if "text" in doc:
        lines.append(doc["text"])
    else:
        for key in sorted(doc):
            if key == "run_config":
                continue
            lines.append(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    lines.append("run_config: " + json.dumps(doc["run_config"],
                                             sort_keys=True))
    return "\n".join(lines)


def _flatten(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        if key == "run_config":
            continue
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


# -- subcommands -----------------------------------------------------------


def _cmd_comb(args):
    comb = combs.Comb.from_json(_load_doc(args.comb))
    value = combs.comb_probability(comb)
    return _value_doc(value), EXIT_OK


def _cmd_kpoly(args):
    x = _rational_list(args.x, "--x")
    if args.lengths is not None:
        lengths = _rational_list(args.lengths, "--lengths")
        if len(lengths) != len(x):
            raise UsageError("need one length per abscissa")
        value = combs.comb_poly(x, lengths)
        return _value_doc(value), EXIT_OK
    if not x:
        raise UsageError("need at least one abscissa")
    names = [f"l{j + 1}" for j in range(len(x))]
    poly = combs.comb_poly(x, [MultiPoly.variable(v) for v in names])
    poly = poly.with_variables(tuple(names))
    return {"variables": names, "terms": poly.to_json()}, EXIT_OK


def _cmd_cond(args):
    family = segments.NormalizedFamily.from_json(_load_doc(args.family))
    value = segments.family_probability(family)
    return _value_doc(value), EXIT_OK


def _cmd_estimate(args):
    body = _load_body(args.body)
    estimate = montecarlo.estimate_Q_rb if args.rb else montecarlo.estimate_Q
    result = estimate(body, args.n, args.samples, seed=args.seed,
                      workers=args.workers)
    return result.to_json(), EXIT_OK


def _cmd_transform(args):
    body = _load_body(args.body)
    op = bodies.steiner_symmetrize if args.op == "sym" else bodies.shake
    return {"body": bodies.body_to_json(op(body))}, EXIT_OK


def _cmd_closed_forms(args):
    rows = closed_forms.constants_table()
    return {"constants": rows}, EXIT_OK, rows


def _cmd_verify(args):
    try:
        if args.case == "n4":
            report = certificates.verify_n4()
        elif args.case == "n5":
            report = certificates.verify_n5()
        else:
            report = certificates.verify_all()
    except ValueError as exc:
        # verify reads no input, so a ValueError is an internal fault (an
        # inconclusive identity check, an inexact division), not bad input.
        raise certificates.StructureError(str(exc)) from exc
    doc = report.to_json()
    if args.output == "pretty":
        lines = []
        for check in report.identity_checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(f"[{status}] identity: {check.name} "
                         f"({check.grid_points} points)")
        for check in report.positivity_checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(f"[{status}] positivity: {check.name} "
                         f"[{check.method}]")
        lines.append(f"summary: {'pass' if report.summary else 'FAIL'}")
        doc = {"report": doc, "text": "\n".join(lines)}
    code = EXIT_OK if report.summary else EXIT_CERTIFICATE
    return doc, code


_THEOREM1_CASES = (
    ("triangle", 5),
    ("square", 5),
    ("disk", 4),
    ("disk", 5),
)


def _cmd_theorem1(args):
    rows = []
    all_ok = True
    for shape, n in _THEOREM1_CASES:
        body = _load_body(shape)
        if shape == "disk":
            reference = float(closed_forms.disk_constant(n))
            exact = None
        else:
            value = closed_forms.closed_form(shape, n)
            reference = float(value)
            exact = format_rational(value)
        result = montecarlo.estimate_Q(
            body, n, args.samples, seed=args.seed, workers=args.workers
        )
        # At zero or all hits the sample error is 0: take the reference's
        # binomial error instead, so z stays a finite number.
        sigma = result.std_error or (
            reference * (1 - reference) / args.samples
        ) ** 0.5
        z = (result.estimate - reference) / sigma
        ok = abs(z) <= 4
        all_ok = all_ok and ok
        rows.append({
            "shape": shape,
            "n": n,
            "reference": reference,
            "exact": exact,
            "estimate": result.estimate,
            "std_error": result.std_error,
            "z": z,
            "pass": ok,
        })
    doc = {"rows": rows, "pass": all_ok}
    code = EXIT_OK
    if args.check and not all_ok:
        code = EXIT_CERTIFICATE
    return doc, code, rows


_HANDLERS = {
    "comb": _cmd_comb,
    "kpoly": _cmd_kpoly,
    "cond": _cmd_cond,
    "estimate": _cmd_estimate,
    "transform": _cmd_transform,
    "closed-forms": _cmd_closed_forms,
    "verify": _cmd_verify,
    "theorem1": _cmd_theorem1,
}

_PRECONDITION_ERRORS = (ValueError, OSError)


#: The parser ``main`` reuses; built by its first call, not at import.
_PARSER = None


def main(argv=None) -> int:
    """Run one command; return its exit code.

    ``main`` may be called repeatedly in one process.  The first call
    builds the parser and later calls reuse it.  Each named body
    (``--body square`` ...) is likewise built once and shared, which is
    safe because bodies are immutable.  A one-shot CLI process builds each
    once either way, so it gains nothing from the reuse.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        doc, code, *rows = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except certificates.StructureError as exc:
        print(f"certificate structure error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    try:
        print(_emit(doc, args, *rows), flush=True)
    except BrokenPipeError:
        # The reader is gone; send what is left, and the exit flush, nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
