"""Sparse multivariate polynomials over exact rationals.

``_nums`` maps exponent tuples (one entry per variable, in the order of
``variables``) to nonzero int numerators over one positive int ``_den``, with
gcd(_den, *_nums.values()) == 1.  The form is canonical, so equality and
hashing compare it directly; arithmetic runs on ints and reduces each result
once, with a single gcd.  ``terms`` is a read-only {exponent tuple: Fraction}
view of the same polynomial.  Values are immutable; all arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter

from .rationals import to_fraction


class MissingVariableError(ValueError):
    """An evaluation assignment does not cover all variables."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"unbound symbols: {', '.join(self.missing)}")


class DegreeBoundError(ValueError):
    """Declared degree bounds are below the true degrees: check inconclusive."""


def _ratio(value):
    """(numerator, positive denominator) of a rational scalar."""
    if type(value) is int:
        return value, 1
    value = to_fraction(value)
    return value.numerator, value.denominator


def _picker(indices):
    """Function taking an exponent tuple to its entries at ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda e: (e[i],)
    if not indices:
        return lambda e: ()
    return itemgetter(*indices)


def _mul_into(out, a, b):
    """Add the product of two numerator dicts into ``out``."""
    get = out.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return out


def _make(variables, nums, den, reduce=True):
    """MultiPoly over ``nums / den`` (den > 0), brought to canonical form
    unless the caller passes one with ``reduce=False``."""
    if reduce:
        for e in [e for e, c in nums.items() if not c]:
            del nums[e]
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    p = object.__new__(MultiPoly)
    p.variables = variables
    p._nums = nums
    p._den = den
    p._hash = None
    return p


class _TermsView(Mapping):
    """Read-only {exponent tuple: Fraction} view of a MultiPoly."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den):
        self._nums = nums
        self._den = den

    def __getitem__(self, exps):
        return Fraction(self._nums[exps], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)


class MultiPoly:
    __slots__ = ("variables", "_nums", "_den", "_hash")

    def __init__(self, variables, terms):
        """``terms`` maps exponent tuples to rationals; zeros are dropped."""
        self.variables = tuple(variables)
        coeffs = {tuple(e): to_fraction(c) for e, c in terms.items()}
        if any(len(e) != len(self.variables) for e in coeffs):
            raise ValueError("exponent vector arity mismatch")
        # Over the lcm of reduced denominators the form is already canonical.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._nums = {
            e: c.numerator * (den // c.denominator)
            for e, c in coeffs.items() if c
        }
        self._den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, variables=()):
        variables = tuple(variables)
        num, den = _ratio(value)
        return _make(variables, {(0,) * len(variables): num}, den)

    @classmethod
    def variable(cls, name, variables=None):
        variables = (name,) if variables is None else tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return _make(variables, {exps: 1}, 1, reduce=False)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        return _TermsView(self._nums, self._den)

    def is_zero(self):
        return not self._nums

    def is_constant(self):
        return not any(any(exps) for exps in self._nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero = (0,) * len(self.variables)
        return Fraction(self._nums.get(zero, 0), self._den)

    def degree(self, var) -> int:
        """Degree in one variable; -1 kept at 0 for the zero polynomial."""
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((exps[i] for exps in self._nums), default=0)

    def total_degree(self) -> int:
        return max((sum(exps) for exps in self._nums), default=0)

    def used_variables(self):
        names = self.variables
        return {names[i] for exps in self._nums for i, e in enumerate(exps) if e}

    def even_part(self, names):
        """The terms of even degree in every named variable."""
        idx = [self.variables.index(v) for v in names if v in self.variables]
        nums = {
            e: c for e, c in self._nums.items()
            if not any(e[i] % 2 for i in idx)
        }
        return _make(self.variables, nums, self._den)

    # -- variable alignment ------------------------------------------------

    def with_variables(self, variables):
        """Re-express over a superset (or reordering) of the variables."""
        variables = tuple(variables)
        old = self.variables
        if variables == old:
            return self
        pad = len(variables) - len(old)
        if pad >= 0 and variables[: len(old)] == old:
            zeros = (0,) * pad
            nums = {e + zeros: c for e, c in self._nums.items()}
            return _make(variables, nums, self._den, reduce=False)
        position = {name: i for i, name in enumerate(old)}
        if not position.keys() <= set(variables):
            missing = self.used_variables() - set(variables)
            if missing:
                raise ValueError(f"cannot drop used variables {sorted(missing)}")
        # Index len(old) picks the 0 appended to each key.
        pick = _picker([position.get(name, len(old)) for name in variables])
        nums = {pick(e + (0,)): c for e, c in self._nums.items()}
        return _make(variables, nums, self._den, reduce=False)

    @staticmethod
    def _align(a, b):
        if not isinstance(b, MultiPoly):
            b = MultiPoly.constant(b, a.variables)
        av, bv = a.variables, b.variables
        if av == bv:
            return a, b
        # An operand whose variables cover the other's is kept as it is.
        if set(av) <= set(bv):
            return a.with_variables(bv), b
        if set(bv) <= set(av):
            return a, b.with_variables(av)
        merged = tuple(dict.fromkeys(av + bv))
        return a.with_variables(merged), b.with_variables(merged)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, for sign in (1, -1)."""
        a, b = self._align(self, other)
        g = gcd(a._den, b._den)
        scale_a, scale_b = b._den // g, sign * (a._den // g)
        nums = {e: c * scale_a for e, c in a._nums.items()}
        get = nums.get
        for e, c in b._nums.items():
            nums[e] = get(e, 0) + c * scale_b
        return _make(a.variables, nums, a._den * scale_a)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        nums = {e: -c for e, c in self._nums.items()}
        return _make(self.variables, nums, self._den, reduce=False)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            num, den = _ratio(other)
            nums = {e: c * num for e, c in self._nums.items()}
            return _make(self.variables, nums, self._den * den)
        a, b = self._align(self, other)
        nums = _mul_into({}, a._nums, b._nums)
        return _make(a.variables, nums, a._den * b._den)

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
        return a._den == b._den and a._nums == b._nums

    def __hash__(self):
        if self._hash is None:
            reduced = self.with_variables(tuple(sorted(self.used_variables())))
            # A constant equals its scalar value, so it hashes like one.
            self._hash = hash((frozenset(reduced._nums.items()), reduced._den)
                              if reduced.variables else reduced.constant_value())
        return self._hash

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a point covering every variable of the polynomial."""
        if not all(v in assignment for v in self.variables):
            missing = self.used_variables() - set(assignment)
            if missing:
                raise MissingVariableError(missing)
        # Over the common denominator prod q_i^d_i of the point p_i / q_i,
        # where d_i is the degree in variable i, every term is an integer.
        den, active, tables = self._den, [], []
        for i, name in enumerate(self.variables):
            d = self.degree(name)
            if d:
                p, q = _ratio(assignment[name])
                active.append(i)
                tables.append([p**e * q ** (d - e) for e in range(d + 1)])
                den *= q**d
        total = 0
        for exps, c in self._nums.items():
            for i, table in zip(active, tables):
                c *= table[exps[i]]
            total += c
        return Fraction(total, den)

    def substitute(self, mapping):
        """Replace some variables, simultaneously, by rationals or polynomials."""
        old = self.variables
        subs = [i for i, name in enumerate(old) if name in mapping]
        if not subs:
            return self
        keep = [i for i, name in enumerate(old) if name not in mapping]
        values = [as_poly(mapping[old[i]]) for i in subs]
        out = tuple(dict.fromkeys(
            tuple(old[i] for i in keep) + sum((v.variables for v in values), ())
        ))
        one = {(0,) * len(out): 1}
        # Over prod d_s^K_s, for values N_s / d_s raised to at most K_s, the
        # power N_s^k / d_s^k has the integer numerator N_s^k * d_s^(K_s - k).
        den, powers = self._den, []
        for i, value in zip(subs, values):
            value = value.with_variables(out)
            top = max((e[i] for e in self._nums), default=0)
            den *= value._den**top
            table = [one]
            for _ in range(top):
                table.append(_mul_into({}, table[-1], value._nums))
            powers.append([{e: c * value._den ** (top - k) for e, c in t.items()}
                           for k, t in enumerate(table)])
        # Products of powers, each built from the product of its prefix.
        products, nums = {(): one}, {}
        pick_subs, pick_keep = _picker(subs), _picker(keep)
        pad = (0,) * (len(out) - len(keep))
        for e, c in self._nums.items():
            key = pick_subs(e)
            for j, k in enumerate(key):
                if key[: j + 1] not in products:
                    products[key[: j + 1]] = _mul_into(
                        {}, products[key[:j]], powers[j][k]
                    )
            _mul_into(nums, {pick_keep(e) + pad: c}, products[key])
        return _make(out, nums, den)

    def coefficient_poly(self, var, power):
        """Coefficient of var**power, as a polynomial in the other variables."""
        if var not in self.variables:
            return self if power == 0 else MultiPoly.constant(0, self.variables)
        i = self.variables.index(var)
        others = [j for j in range(len(self.variables)) if j != i]
        rest = tuple(self.variables[j] for j in others)
        pick = _picker(others)
        nums = {pick(e): c for e, c in self._nums.items() if e[i] == power}
        return _make(rest, nums, self._den)

    # -- calculus ----------------------------------------------------------

    def integrate_box(self, var, lo, hi):
        """Definite integral in one variable over [lo, hi], exactly.

        If ``var`` does not occur the result is (hi - lo) * self.
        """
        lo, hi = to_fraction(lo), to_fraction(hi)
        if var not in self.variables:
            return self * (hi - lo)
        i = self.variables.index(var)
        # Term x^e integrates to (hi^k - lo^k) / k, k = e + 1: an integer
        # over the common denominator lcm(1..top) * (qh * ql)^top.
        top = self.degree(var) + 1
        ph, qh, pl, ql = hi.numerator, hi.denominator, lo.numerator, lo.denominator
        whole = lcm(*range(1, top + 1))
        weight = [
            whole // k * (ph**k * ql**k - pl**k * qh**k) * (qh * ql) ** (top - k)
            for k in range(1, top + 1)
        ]
        nums = {}
        get = nums.get
        for e, c in self._nums.items():
            key = e[:i] + (0,) + e[i + 1 :]
            nums[key] = get(key, 0) + c * weight[e[i]]
        return _make(self.variables, nums, self._den * whole * (qh * ql) ** top)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        parts = [
            "*".join([str(coeff)] + [name if e == 1 else f"{name}^{e}"
                                     for name, e in zip(self.variables, exps) if e])
            for exps, coeff in sorted(self.terms.items())
        ]
        return "MultiPoly(" + (" + ".join(parts) or "0") + ")"

    def to_json(self):
        from .rationals import format_rational

        return [
            {"coeff": format_rational(c), "exps": list(e)}
            for e, c in sorted(self.terms.items())
        ]


def as_poly(value, variables=()) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(value, variables)


def grid_identity_check(lhs: MultiPoly, rhs: MultiPoly, degree_bounds) -> bool:
    """Polynomial identity test under declared per-variable degree bounds.

    Bounds below the true degrees of lhs - rhs raise DegreeBoundError (the
    check is then inconclusive, never reported as equality).  Within them,
    a tensor grid of (d_i + 1) distinct points per variable would accept
    exactly when lhs - rhs is the zero polynomial (Alon's grid lemma), which
    the canonical MultiPoly form decides directly."""
    diff = lhs - rhs
    for name in sorted(diff.used_variables()):
        if name not in degree_bounds:
            raise DegreeBoundError(f"no degree bound declared for {name}")
        if diff.degree(name) > degree_bounds[name]:
            raise DegreeBoundError(
                f"true degree in {name} exceeds declared bound "
                f"{degree_bounds[name]}"
            )
    return diff.is_zero()


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
    lead = max(divisor._nums)
    quotient = MultiPoly.constant(0, p.variables)
    remainder = p
    while not remainder.is_zero():
        e = max(remainder._nums)
        if any(a < b for a, b in zip(e, lead)):
            raise ValueError("inexact polynomial division")
        q_exps = tuple(a - b for a, b in zip(e, lead))
        num = remainder._nums[e] * divisor._den
        den = remainder._den * divisor._nums[lead]
        q_term = _make(p.variables, {q_exps: num if den > 0 else -num}, abs(den))
        quotient = quotient + q_term
        remainder = remainder - q_term * divisor
    return quotient
