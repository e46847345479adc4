"""Span tracing of the ``sylvester`` modules from outside the package.

``Tracer.install`` wraps the public functions of each module and records a
span per call: name, start, end, parent span and op id.  Spans stay in
memory (compact arrays) and are written out once, at the end of the run.
Several names are bound again by ``from ... import`` (for example
``montecarlo.family_probability`` or ``certificates.grid_identity_check``),
so a wrapper replaces the original in *every* namespace of the package
that holds it, not only in the defining module; otherwise those calls would
silently go unrecorded.

A few counters are read at the same public boundaries, with no change to
the package:

* ``poly.mul.terms_out``: terms of each product.
* ``bodies.sample_points.points`` and
  ``montecarlo.convex_position_mask.samples``: work done.
* ``segments.clamp_events``: ``clamped_family`` calls whose returned
  ``beta`` differs from the input's.
* ``montecarlo.dyadic_tie_fallbacks``: ``rb_conditional`` calls with an
  abscissa whose denominator exceeds ``2**montecarlo.ABSCISSA_BITS``, i.e.
  the full-precision fallback taken after a dyadic rounding tie.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction

import numpy as np


def _terms_out(tracer, args, kwargs, result):
    tracer.count("poly.mul.terms_out", len(getattr(result, "terms", ())))


def _points(tracer, args, kwargs, result):
    tracer.count("bodies.sample_points.points", len(result))


def _samples(tracer, args, kwargs, result):
    tracer.count("montecarlo.convex_position_mask.samples", len(result))


def _clamp_event(tracer, args, kwargs, result):
    family = args[0] if args else kwargs["family"]
    tracer.count("segments.clamp_events",
                 tuple(result.beta) != tuple(family.beta))


def _tie_fallback(tracer, args, kwargs, result):
    bits = getattr(sys.modules["sylvester.montecarlo"], "ABSCISSA_BITS", None)
    abscissas = args[1] if len(args) > 1 else kwargs["abscissas"]
    if bits is not None:
        tracer.count(
            "montecarlo.dyadic_tie_fallbacks",
            any(Fraction(v).denominator > 1 << bits for v in abscissas),
        )


#: (module, attribute, span name, hook run on the result).  Class methods
#: are given as ``Class.method``; the operator family of MultiPoly shares
#: one span name per operation.
TARGETS = (
    ("poly", "MultiPoly.__mul__", "poly.mul", _terms_out),
    ("poly", "MultiPoly.__rmul__", "poly.mul", _terms_out),
    ("poly", "MultiPoly.__add__", "poly.add", None),
    ("poly", "MultiPoly.__radd__", "poly.add", None),
    ("poly", "MultiPoly.__sub__", "poly.add", None),
    ("poly", "MultiPoly.__rsub__", "poly.add", None),
    ("poly", "MultiPoly.__neg__", "poly.add", None),
    ("poly", "MultiPoly.with_variables", "poly.with_variables", None),
    ("poly", "MultiPoly.substitute", "poly.substitute", None),
    ("poly", "MultiPoly.integrate_box", "poly.integrate_box", None),
    ("poly", "grid_identity_check", "poly.grid_identity_check", None),
    ("combs", "comb_poly", "combs.comb_poly", None),
    ("segments", "convexity_integrand", "segments.convexity_integrand", None),
    ("segments", "symmetrized_integrand", "segments.symmetrized_integrand",
     None),
    ("segments", "family_probability", "segments.family_probability", None),
    ("segments", "normalize", "segments.normalize", None),
    ("segments", "clamped_family", "segments.clamped_family", _clamp_event),
    ("bodies", "sample_points", "bodies.sample_points", _points),
    ("bodies", "y_bounds", "bodies.y_bounds", None),
    ("montecarlo", "convex_position_mask", "montecarlo.convex_position_mask",
     _samples),
    ("montecarlo", "rb_conditional", "montecarlo.rb_conditional",
     _tie_fallback),
    ("montecarlo", "estimate_Q", "montecarlo.estimate_Q", None),
    ("montecarlo", "estimate_Q_rb", "montecarlo.estimate_Q_rb", None),
    ("certificates", "verify_n4", "certificates.verify_n4", None),
    ("certificates", "verify_n5_cone", "certificates.verify_n5_cone", None),
    ("certificates", "verify_n5_quadratic", "certificates.verify_n5_quadratic",
     None),
    ("certificates", "symbolic_difference", "certificates.symbolic_difference",
     None),
    ("certificates", "to_slope_variables", "certificates.to_slope_variables",
     None),
    ("certificates", "positivity_check", "certificates.positivity_check",
     None),
    ("cli", "main", "cli.main", None),
)


def _namespaces():
    """Every module of the package and every class defined in it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sylvester" or name.startswith("sylvester.")]
    classes = {}
    for module in modules:
        for value in vars(module).values():
            if (isinstance(value, type)
                    and value.__module__.startswith("sylvester")):
                classes[id(value)] = value
    return modules + list(classes.values())


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.op_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op = 0
        self.counters = {}
        self.missing = []
        self._patches = []
        self._wrappers = set()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def _wrap(self, name, fn, hook):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        starts, ends, parents = self.start, self.end, self.parent
        name_ids, op_ids, stack = self.name_id, self.op_id, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        self._wrappers.add(wrapper)
        return wrapper

    def install(self):
        """Wrap every target at every binding site; idempotent per target.

        Targets that no longer exist are listed in ``missing``; their
        metrics then read zero, which the self-test reports.
        """
        importlib.import_module("sylvester.cli")
        self.missing = []
        namespaces = _namespaces()
        for module, path, name, hook in TARGETS:
            owner = importlib.import_module(f"sylvester.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            if original in self._wrappers:
                continue  # an alias of a target already wrapped
            wrapper = self._wrap(name, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.uint16),
            np.frombuffer(self.op_id, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def span_stats(self, op_names):
        """Per span name: calls, self seconds (span time minus the time
        covered by its child spans) and inclusive seconds, overall and per
        op name."""
        name_id, op_id, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        stats = {}
        for i, name in enumerate(self.names):
            stats[name] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                           "s": float(incl[i])}
        per_op = {}
        for j, op in enumerate(op_names):
            mask = op_id == j
            incl_op = np.bincount(name_id[mask], weights=dur[mask],
                                  minlength=k)
            per_op[op] = {name: float(incl_op[i])
                          for i, name in enumerate(self.names)}
        return stats, per_op

    def write(self, path, op_names):
        """Write every span to ``path`` (numpy ``.npz``)."""
        name_id, op_id, parent, start, end = self._arrays()
        np.savez(path, name_id=name_id, op_id=op_id, parent=parent,
                 start=start, end=end, names=np.array(self.names),
                 ops=np.array(op_names))
