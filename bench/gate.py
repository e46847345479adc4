"""Correctness gate: decides whether one op's output counts as failed.

An op fails, without aborting the run, if it raised, returned a nonzero
exit code, or printed JSON that does not match its schema in ``schemas/``.
On top of that:

* ``verify``: every check passes, the summary is ``"pass"``, and the check
  names include every name of the baseline report
  (``verify_seed_checks.json``).  Extra checks and fields are allowed.
* estimates (``estimate``, ``estimate --rb``, ``theorem1``): each estimate
  is within 4 standard errors of the reference value for its body and n,
  and ``theorem1`` reports at least the baseline's four rows.

Byte-identity of repeated outputs is checked by the harness, which sees
all passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
from referencing import Registry, Resource

BENCH_DIR = Path(__file__).resolve().parent
SEED_CHECKS = json.loads((BENCH_DIR / "verify_seed_checks.json").read_text())
Z_LIMIT = 4.0
THEOREM1_SEED_ROWS = {("triangle", 5), ("square", 5), ("disk", 4), ("disk", 5)}

_SCHEMAS = {"verify": "verify.json", "estimate": "estimate.json",
            "theorem1": "theorem1.json"}


class Gate:
    """Validates op outputs against the schemas and reference values.

    ``reference(shape, n)`` returns the float reference of the
    convex-position probability; the self-test passes a wrong one to prove
    that the gate can fail.
    """

    def __init__(self, schema_dir, reference):
        schema_dir = Path(schema_dir)
        defs = json.loads((schema_dir / "defs.json").read_text())
        registry = Registry().with_resource(
            "defs.json", Resource.from_contents(defs))
        self._validators = {
            command: jsonschema.Draft7Validator(
                json.loads((schema_dir / name).read_text()),
                registry=registry)
            for command, name in _SCHEMAS.items()
        }
        self.reference = reference

    def errors(self, op, record):
        """List of reasons the op failed; empty when it passed."""
        if record["exception"] is not None:
            return [f"raised {record['exception']}"]
        out = []
        if record["code"] != 0:
            out.append(f"exit code {record['code']}")
        try:
            doc = json.loads(record["stdout"])
        except json.JSONDecodeError as exc:
            return out + [f"stdout is not JSON: {exc}"]
        problems = list(self._validators[op.command].iter_errors(doc))
        if problems:
            return out + [f"schema: {p.message}" for p in problems[:3]]
        if op.command == "verify":
            out += _verify_errors(doc)
        else:
            out += self._estimate_errors(op, doc)
        return out

    def _estimate_errors(self, op, doc):
        out = []
        if op.command == "theorem1":
            rows = [((r["shape"], r["n"]), r) for r in doc["rows"]]
            missing = THEOREM1_SEED_ROWS - {case for case, _ in rows}
            if missing:
                out.append(f"theorem1 rows missing: {sorted(missing)}")
        else:
            rows = [((doc["run_config"]["body"], doc["n"]), doc)]
        for (shape, n), row in rows:
            se = row["std_error"]
            if not se > 0:
                out.append(f"{shape} n={n}: std_error {se} is not positive")
                continue
            try:
                reference = self.reference(shape, n)
            except ValueError as exc:
                out.append(f"{shape} n={n}: no reference value ({exc})")
                continue
            z = (row["estimate"] - reference) / se
            if abs(z) > Z_LIMIT:
                out.append(f"{shape} n={n}: |z| = {abs(z):.2f} > {Z_LIMIT}")
        return out


def _verify_errors(doc):
    out = []
    if doc["summary"] != "pass":
        out.append(f"summary is {doc['summary']!r}")
    for kind in ("identity_checks", "positivity_checks"):
        failed = [c["name"] for c in doc[kind] if not c["pass"]]
        if failed:
            out.append(f"{kind} failed: {failed}")
        missing = set(SEED_CHECKS[kind]) - {c["name"] for c in doc[kind]}
        if missing:
            out.append(f"{kind} missing: {sorted(missing)}")
    return out


def closed_form_reference(shape, n):
    """Reference values from the package's own closed forms: Valtr's exact
    values for polygons, the pi^2-linear constants for the disk."""
    from sylvester import closed_forms

    if shape == "disk":
        return float(closed_forms.disk_constant(n))
    return float(closed_forms.closed_form(shape, n))
