"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent tuples (one entry per variable,
in the order of ``variables``) to nonzero Fraction coefficients.  Values are
immutable after construction; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from .rationals import Rational, to_fraction


class MissingVariableError(ValueError):
    """An evaluation assignment does not cover all variables."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"unbound symbols: {', '.join(self.missing)}")


class DegreeBoundError(ValueError):
    """Declared degree bounds are below the true degrees: check inconclusive."""


class MultiPoly:
    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables, terms):
        # Dict keys are already distinct, so terms are kept, not summed.
        self.variables = tuple(variables)
        arity = len(self.variables)
        self.terms = {}
        for exps, coeff in terms.items():
            coeff = to_fraction(coeff)
            if coeff:
                if len(exps) != arity:
                    raise ValueError("exponent vector arity mismatch")
                self.terms[tuple(exps)] = coeff
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, variables=()):
        value = to_fraction(value)
        if value == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, name, variables=None):
        variables = (name,) if variables is None else tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def degree(self, var) -> int:
        """Degree in one variable; -1 kept at 0 for the zero polynomial."""
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((exps[i] for exps in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(exps) for exps in self.terms), default=0)

    def used_variables(self):
        used = set()
        for exps in self.terms:
            for name, e in zip(self.variables, exps):
                if e:
                    used.add(name)
        return used

    # -- variable alignment ------------------------------------------------

    def with_variables(self, variables):
        """Re-express over a superset (or reordering) of the variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        missing = self.used_variables() - set(variables)
        if missing:
            raise ValueError(f"cannot drop used variables {sorted(missing)}")
        index = {name: i for i, name in enumerate(variables)}
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(variables)
            for name, e in zip(self.variables, exps):
                if e:
                    new[index[name]] = e
            terms[tuple(new)] = coeff
        return MultiPoly(variables, terms)

    @staticmethod
    def _align(a, b):
        if not isinstance(b, MultiPoly):
            b = MultiPoly.constant(to_fraction(b), a.variables)
        if a.variables == b.variables:
            return a, b
        # An operand whose variables cover the other's is kept as it is.
        if set(a.variables) <= set(b.variables):
            merged = b.variables
        else:
            merged = tuple(dict.fromkeys(a.variables + b.variables))
        return a.with_variables(merged), b.with_variables(merged)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._align(self, other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -to_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = to_fraction(other)
            if other == 0:
                return MultiPoly(self.variables, {})
            return MultiPoly(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        a, b = self._align(self, other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(a.variables, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise TypeError("use divide_exact for non-constant divisors")
            other = other.constant_value()
        return self * (1 / to_fraction(other))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        if self._hash is None:
            reduced = self.with_variables(tuple(sorted(self.used_variables())))
            self._hash = hash(frozenset(reduced.terms.items()))
        return self._hash

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a point covering every variable of the polynomial."""
        missing = self.used_variables() - set(assignment)
        if missing:
            raise MissingVariableError(missing)
        values = [to_fraction(assignment.get(v, 0)) for v in self.variables]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, mapping):
        """Replace some variables by rationals or polynomials."""
        mapping = {
            k: (v if isinstance(v, MultiPoly) else to_fraction(v))
            for k, v in mapping.items()
        }
        keep = [v for v in self.variables if v not in mapping]
        out = MultiPoly.constant(0, tuple(keep))
        powers = {k: {0: MultiPoly.constant(1)} for k in mapping}
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(coeff, tuple(keep))
            kept = [0] * len(keep)
            ki = 0
            for name, e in zip(self.variables, exps):
                if name in mapping:
                    if e:
                        cache = powers[name]
                        if e not in cache:
                            base = mapping[name]
                            if not isinstance(base, MultiPoly):
                                base = MultiPoly.constant(base)
                            p = cache[max(cache)]
                            for _ in range(max(cache), e):
                                p = p * base
                                cache[len(cache)] = p
                        val = cache[e]
                        term = term * val
                else:
                    kept[ki] = e
                    ki += 1
            shift = MultiPoly(tuple(keep), {tuple(kept): Fraction(1)})
            out = out + term * shift
        return out

    def coefficient_poly(self, var, power):
        """Coefficient of var**power, as a polynomial in the other variables."""
        if var not in self.variables:
            return self if power == 0 else MultiPoly.constant(0, self.variables)
        i = self.variables.index(var)
        rest = tuple(v for j, v in enumerate(self.variables) if j != i)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                key = exps[:i] + exps[i + 1 :]
                terms[key] = terms.get(key, Fraction(0)) + coeff
        return MultiPoly(rest, terms)

    # -- calculus ----------------------------------------------------------

    def integrate_box(self, var, lo, hi):
        """Definite integral in one variable over [lo, hi], exactly.

        If ``var`` does not occur the result is (hi - lo) * self.
        """
        lo, hi = to_fraction(lo), to_fraction(hi)
        if var not in self.variables:
            return self * (hi - lo)
        i = self.variables.index(var)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            anti = coeff / (e + 1)
            value = anti * (hi ** (e + 1) - lo ** (e + 1))
            key = exps[:i] + (0,) + exps[i + 1 :]
            terms[key] = terms.get(key, Fraction(0)) + value
        return MultiPoly(self.variables, terms)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = [str(coeff)]
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return "MultiPoly(" + " + ".join(parts) + ")"

    def to_json(self):
        from .rationals import format_rational

        return [
            {"coeff": format_rational(c), "exps": list(e)}
            for e, c in sorted(self.terms.items())
        ]


def as_poly(value, variables=()) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(to_fraction(value), variables)


def _grid_values(count):
    # Distinct rationals avoiding 0 and 1, so that substituting them into
    # expressions with (x, 1-x, ...) style denominators stays safe.
    return [Fraction(2 * k + 3, 2 * k + 4) for k in range(count)]


def grid_identity_check(lhs: MultiPoly, rhs: MultiPoly, degree_bounds) -> bool:
    """Deterministic polynomial identity test on an evaluation grid.

    Two polynomials of per-variable degree <= d_i agree iff they agree on a
    tensor grid of (d_i + 1) distinct points per variable.  Declared bounds
    below the true degrees of lhs - rhs raise DegreeBoundError (the check is
    then inconclusive, never reported as equality).
    """
    diff = lhs - rhs
    names = sorted(diff.used_variables())
    for name in names:
        if name not in degree_bounds:
            raise DegreeBoundError(f"no degree bound declared for {name}")
        if diff.degree(name) > degree_bounds[name]:
            raise DegreeBoundError(
                f"true degree in {name} exceeds declared bound "
                f"{degree_bounds[name]}"
            )
    if not names:
        return diff.is_zero()
    axes = [_grid_values(degree_bounds[name] + 1) for name in names]
    equal = True
    for point in iter_product(*axes):
        if diff.evaluate(dict(zip(names, point))) != 0:
            equal = False
            break
    return equal


def divide_exact(p: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Exact division p / divisor; raises if the division leaves a remainder.

    Single-divisor reduction in lexicographic order; enough for the linear
    and monomial divisors used by the certificate reconstructions.
    """
    if not isinstance(divisor, MultiPoly):
        return p / divisor
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if divisor.is_constant():
        return p / divisor.constant_value()
    p, divisor = MultiPoly._align(p, divisor)
    lead = max(divisor.terms)
    lead_c = divisor.terms[lead]
    quotient = MultiPoly.constant(0, p.variables)
    remainder = p
    while not remainder.is_zero():
        e = max(remainder.terms)
        if any(a < b for a, b in zip(e, lead)):
            raise ValueError("inexact polynomial division")
        q_exps = tuple(a - b for a, b in zip(e, lead))
        q_term = MultiPoly(p.variables, {q_exps: remainder.terms[e] / lead_c})
        quotient = quotient + q_term
        remainder = remainder - q_term * divisor
    return quotient
