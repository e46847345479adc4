"""Sparse multivariate polynomials over exact rationals.

A monomial is one packed int: each variable name owns a ``_WIDTH``-bit field,
placed once per process on first use, so a product of monomials is one int
addition and any two polynomials' keys compare as they are.  The top bit of
each field is a guard, so an exponent above ``MAX_EXPONENT`` raises
``OverflowError`` instead of carrying.  ``_nums`` maps monomials to nonzero
int numerators over one positive int ``_den``, with gcd(_den, *_nums) == 1:
canonical, so equality and hashing compare it directly.  A label is for
display only: ``variables`` is the one the constructor or ``with_variables``
set on that object, else the sorted names in use, as arithmetic results
carry none.  ``terms`` is a read-only {exponent tuple over ``variables``:
Fraction} view, so no output depends on the field layout or operand order;
``numerators`` and ``from_numerators`` give and take the same terms as
integers over the common denominator, with no Fraction per term.

A field is one byte, and its guard bit is 0 in every key, so a key's
bytes are its exponents: a term's total degree is its key's byte sum, and
the parity of its degree sum in some variables is that of the key's set
bits among their fields' lowest bits.

The exact kernel does each term's work once.  ``substitute`` groups the
terms by their exponents in the replaced variables: a variable replaced by
zero drops the terms it divides, and each distinct group multiplies one
product of powers into the result.  ``sum_of_products`` adds each row's
product straight into one numerator dict, so a long sum copies no partial
sum.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm, prod
from operator import lshift, mul, or_
from threading import Lock

from .rationals import format_rational, to_fraction

_WIDTH = 8
MAX_EXPONENT = (1 << _WIDTH - 1) - 1
_FIELD = (1 << _WIDTH) - 1
_OFFSETS = {}  # variable name -> bit offset of its field
_NAMES = []  # the names in _OFFSETS by field; append-only, under _LOCK
_GUARD = 0  # the guard bits of all fields in _OFFSETS
_LOCK = Lock()


class MissingVariableError(ValueError):
    """An evaluation assignment does not cover all variables."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"unbound symbols: {', '.join(self.missing)}")


class DegreeBoundError(ValueError):
    """Declared degree bounds are below the true degrees: check inconclusive."""


def _offset(name):
    """Bit offset of the field of ``name``, assigned on first use, under _LOCK."""
    global _GUARD
    with _LOCK:
        if name not in _OFFSETS:
            _OFFSETS[name] = len(_NAMES) * _WIDTH
            _NAMES.append(name)
            _GUARD |= 1 << _OFFSETS[name] + _WIDTH - 1
        return _OFFSETS[name]


def _pack(offsets, exps):
    """The packed monomial of an exponent tuple over fields at ``offsets``."""
    if len(exps) != len(offsets):
        raise ValueError("exponent vector arity mismatch")
    if exps and (min(exps) < 0 or max(exps) > MAX_EXPONENT):
        raise OverflowError(f"exponents {exps} outside 0..{MAX_EXPONENT}")
    return sum(map(lshift, exps, offsets))


def _low_bits(names):
    """The lowest bit of the field of each named variable in use so far; a
    name no key has used owns no field and adds nothing."""
    return sum(1 << _OFFSETS[v] for v in set(names) if v in _OFFSETS)


def _checked(nums):
    """``nums``, unless a key, a sum of two in range, reached a guard bit."""
    if reduce(or_, nums, 0) & _GUARD:
        raise OverflowError(f"an exponent exceeds {MAX_EXPONENT}")
    return nums


def _ratio(value):
    """(numerator, positive denominator) of a rational scalar."""
    if type(value) is int:
        return value, 1
    value = to_fraction(value)
    return value.numerator, value.denominator


def _mul_into(out, a, b):
    """Add the product of two numerator dicts into ``out``, unchecked.  The
    inner loop runs over a list of the larger operand's items."""
    if len(a) < len(b):
        a, b = b, a
    items = list(a.items())
    get = out.get
    for e2, c2 in b.items():
        for e1, c1 in items:
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
    return out


def _make(nums, den, reduce=True):
    """Unlabelled MultiPoly over ``nums / den`` (den > 0), brought to
    canonical form unless the caller passes one with ``reduce=False``."""
    if reduce:
        if 0 in nums.values():
            nums = {e: c for e, c in nums.items() if c}
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    p = object.__new__(MultiPoly)
    p._labels = None
    p._nums = nums
    p._den = den
    p._hash = None
    return p


class _TermsView(Mapping):
    """Read-only {exponent tuple over ``variables``: Fraction} view."""

    def __init__(self, poly):
        self._poly = poly

    @cached_property
    def _offsets(self):
        return [_offset(name) for name in self._poly.variables]

    def __getitem__(self, exps):
        try:
            key = _pack(self._offsets, exps)
        except (ValueError, OverflowError):
            raise KeyError(exps) from None
        return Fraction(self._poly._nums[key], self._poly._den)

    def __iter__(self):
        offsets = self._offsets
        return (tuple(e >> s & _FIELD for s in offsets) for e in self._poly._nums)

    def __len__(self):
        return len(self._poly._nums)


class MultiPoly:
    __slots__ = ("_labels", "_nums", "_den", "_hash")

    def __init__(self, variables, terms):
        """``terms`` maps exponent tuples over the label ``variables`` to
        rationals; zeros are dropped."""
        self._labels = tuple(variables)
        offsets = [_offset(name) for name in self._labels]
        coeffs = {_pack(offsets, e): to_fraction(c) for e, c in terms.items()}
        # Over the lcm of reduced denominators the form is already canonical.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._nums = {
            e: c.numerator * (den // c.denominator)
            for e, c in coeffs.items() if c
        }
        self._den = den
        self._hash = None

    @classmethod
    def from_numerators(cls, variables, nums, den=1):
        """The polynomial labelled ``variables`` whose terms are ``nums``
        over ``den``: ``nums`` maps exponent tuples over ``variables`` to
        ints, ``den`` is a positive int; zeros are dropped."""
        labels = tuple(variables)
        offsets = [_offset(name) for name in labels]
        p = _make({_pack(offsets, e): c for e, c in nums.items()}, den)
        p._labels = labels
        return p

    def __reduce__(self):
        # Field offsets differ between processes; pickle exponent tuples.
        return MultiPoly, (self.variables, dict(self.terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        num, den = _ratio(value)
        return _make({0: num}, den)

    @classmethod
    def variable(cls, name):
        return _make({1 << _offset(name): 1}, 1, reduce=False)

    # -- basic queries -----------------------------------------------------

    @property
    def variables(self):
        """The label, else the sorted names of the variables in use."""
        return self._labels or tuple(sorted(self.used_variables()))

    @property
    def terms(self):
        return _TermsView(self)

    def is_zero(self):
        return not self._nums

    def is_constant(self):
        return not any(self._nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._nums.get(0, 0), self._den)

    def degree(self, var) -> int:
        """Degree in one variable; -1 kept at 0 for the zero polynomial."""
        s = _OFFSETS.get(var)
        if s is None:
            return 0
        return max((e >> s & _FIELD for e in self._nums), default=0)

    def total_degree(self) -> int:
        """The largest total degree of a term: a key's byte sum, 0 for the
        zero polynomial."""
        return max((sum(e.to_bytes(e.bit_length() + 7 >> 3, "little"))
                    for e in self._nums), default=0)

    def numerators(self):
        """(the {exponent tuple over ``variables``: int} numerators, their
        positive common denominator), so that ``from_numerators`` rebuilds
        the polynomial."""
        return dict(zip(self.terms, self._nums.values())), self._den

    def has_nonnegative_coefficients(self) -> bool:
        return all(c >= 0 for c in self._nums.values())

    def used_variables(self):
        present = reduce(or_, self._nums, 0)
        fields = range(0, present.bit_length(), _WIDTH)
        return {name for s, name in zip(fields, _NAMES) if present >> s & _FIELD}

    def even_part(self, names):
        """The terms of even degree in every named variable."""
        odd = _low_bits(names)
        nums = {e: c for e, c in self._nums.items() if not e & odd}
        return _make(nums, self._den)

    def has_odd_total(self, names):
        """Whether the degrees of some term in the named variables add up
        to an odd number: the parity of the key's set low bits there."""
        low = _low_bits(names)
        return any((e & low).bit_count() & 1 for e in self._nums)

    def even_total_part(self, names):
        """The terms whose degrees in the named variables add up to an even
        number: the part that `reflect` fixes."""
        low = _low_bits(names)
        nums = {e: c for e, c in self._nums.items()
                if not (e & low).bit_count() & 1}
        return _make(nums, self._den)

    def reflect(self, names):
        """The image under negating every named variable: the terms of odd
        total degree in them change sign.  A ring automorphism fixing the
        rationals, and its own inverse."""
        low = _low_bits(names)
        nums = {e: -c if (e & low).bit_count() & 1 else c
                for e, c in self._nums.items()}
        return _make(nums, self._den, reduce=False)

    # -- variable labels ---------------------------------------------------

    def with_variables(self, variables):
        """The same polynomial labelled by ``variables``, which keep all it uses."""
        variables = tuple(variables)
        missing = self.used_variables() - set(variables)
        if missing:
            raise ValueError(f"cannot drop used variables {sorted(missing)}")
        p = _make(self._nums, self._den, reduce=False)
        p._labels = variables
        return p

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, for sign in (1, -1)."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other)
        g = gcd(self._den, other._den)
        scale_a, scale_b = other._den // g, sign * (self._den // g)
        if scale_a == 1:
            nums = dict(self._nums)
        else:
            nums = {e: c * scale_a for e, c in self._nums.items()}
        get = nums.get
        if scale_b == 1:
            for e, c in other._nums.items():
                nums[e] = get(e, 0) + c
        else:
            for e, c in other._nums.items():
                nums[e] = get(e, 0) + c * scale_b
        return _make(nums, self._den * scale_a)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        nums = {e: -c for e, c in self._nums.items()}
        return _make(nums, self._den, reduce=False)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            num, den = _ratio(other)
            nums = {e: c * num for e, c in self._nums.items()}
            return _make(nums, self._den * den)
        nums = _checked(_mul_into({}, self._nums, other._nums))
        return _make(nums, self._den * other._den)

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
        # One factor at a time, so that no power above the n-th is formed.
        return prod([self] * n, start=MultiPoly.constant(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        if self._hash is None:
            # A constant equals its scalar value, so it hashes like one.
            self._hash = hash(self.constant_value() if self.is_constant()
                              else (frozenset(self._nums.items()), self._den))
        return self._hash

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a point covering every variable the polynomial uses."""
        used = self.used_variables()
        if not used.issubset(assignment):
            raise MissingVariableError(used.difference(assignment))
        # Over the common denominator prod q_i^d_i of the point p_i / q_i,
        # where d_i is the degree in variable i, every term is an integer.
        den, offsets, tables = self._den, [], []
        for name in used:
            d = self.degree(name)
            p, q = _ratio(assignment[name])
            offsets.append(_OFFSETS[name])
            tables.append([p**e * q ** (d - e) for e in range(d + 1)])
            den *= q**d
        total = 0
        for e, c in self._nums.items():
            for s, table in zip(offsets, tables):
                c *= table[e >> s & _FIELD]
            total += c
        return Fraction(total, den)

    def substitute(self, mapping):
        """Replace some variables, simultaneously, by rationals or polynomials.

        The terms are grouped by their exponents in the replaced variables.
        A variable replaced by zero drops every term it divides.  Each
        distinct exponent key's product of powers is built once, from the
        product of its prefix, and multiplied into the result once per
        group; a zero exponent adds no product step, only a scalar.
        """
        subs = [name for name in self.variables if name in mapping]
        if not subs:
            return self
        values = [as_poly(mapping[name]) for name in subs]
        offsets = [_offset(name) for name in subs]
        fields = sum(_FIELD << s for s in offsets)
        zero = sum(_FIELD << s for s, p in zip(offsets, values) if p.is_zero())
        groups = {}
        for e, c in self._nums.items():
            if not e & zero:
                key = e & fields
                groups.setdefault(key, {})[e - key] = c
        # Over prod d_s^K_s, for values N_s / d_s raised to at most K_s, the
        # power N_s^k / d_s^k has the integer numerator N_s^k * d_s^(K_s - k),
        # which at k = 0 is the scalar d_s^K_s.
        den, powers = self._den, []
        for s, value in zip(offsets, values):
            if value.is_zero():
                continue
            top = max((key >> s & _FIELD for key in groups), default=0)
            den *= value._den**top
            table = [{0: 1}]
            for _ in range(top):
                table.append(_checked(_mul_into({}, table[-1], value._nums)))
            powers.append((s, value._den**top, [
                {e: c * value._den ** (top - k) for e, c in t.items()}
                for k, t in enumerate(table)]))
        products, nums = {(): {0: 1}}, {}
        for key, group in groups.items():
            exps, scale = (), 1
            for s, whole, table in powers:
                k = key >> s & _FIELD
                prefix, exps = exps, exps + (k,)
                if not k:
                    scale *= whole
                    products.setdefault(exps, products[prefix])
                elif exps not in products:
                    products[exps] = _checked(
                        _mul_into({}, products[prefix], table[k]))
            product = products[exps]
            if scale != 1:
                if len(group) <= len(product):
                    group = {e: c * scale for e, c in group.items()}
                else:
                    product = {e: c * scale for e, c in product.items()}
            _mul_into(nums, group, product)
        return _make(_checked(nums), den)

    def coefficient_poly(self, var, power):
        """Coefficient of var**power, as a polynomial in the other variables."""
        s = _OFFSETS.get(var)
        if s is None:
            return self if power == 0 else MultiPoly.constant(0)
        nums = {e - (power << s): c for e, c in self._nums.items()
                if e >> s & _FIELD == power}
        return _make(nums, self._den)

    # -- calculus ----------------------------------------------------------

    def integrate_box(self, var, lo, hi):
        """Definite integral in one variable over [lo, hi], exactly.

        If ``var`` does not occur the result is (hi - lo) * self.
        """
        lo, hi = to_fraction(lo), to_fraction(hi)
        s = _OFFSETS.get(var)
        if s is None:
            return self * (hi - lo)
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
            k = e >> s & _FIELD
            key = e - (k << s)
            nums[key] = get(key, 0) + c * weight[k]
        return _make(nums, self._den * whole * (qh * ql) ** top)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        names = self.variables
        parts = [
            "*".join([str(coeff)] + [name if e == 1 else f"{name}^{e}"
                                     for name, e in zip(names, exps) if e])
            for exps, coeff in sorted(self.terms.items())
        ]
        return "MultiPoly(" + (" + ".join(parts) or "0") + ")"

    def to_json(self):
        return [
            {"coeff": format_rational(c), "exps": list(e)}
            for e, c in sorted(self.terms.items())
        ]


def as_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(value)


def sum_of_products(rows, divisor=1):
    """sum(a * b * ... for (a, b, ...) in rows) / divisor, where a divisor
    of 1 divides nothing.

    Factors are MultiPoly, int or Fraction values, or any other number type
    (floats, numpy arrays, traced values) with ``divisor`` a positive int.
    Without a MultiPoly factor the rows are consumed one at a time, in that
    order of operations, so other number types see exactly that program.
    From the first row with a MultiPoly factor on, each row's factors but
    the last are multiplied with ``*``, and the product times the last is
    added straight into one numerator dict over the lcm of the rows'
    denominators: no partial sum is copied or rescaled.
    """
    total, rows = 0, iter(rows)
    for row in rows:
        if any(isinstance(f, MultiPoly) for f in row):
            return _poly_sum_of_products([(total,), row, *rows], divisor)
        total = total + reduce(mul, row)
    return total if divisor == 1 else total / divisor


def _poly_sum_of_products(rows, divisor):
    forms = []
    for *head, last in rows:
        a, da = _form(reduce(mul, head) if head else 1)
        b, db = _form(last)
        forms.append((a, b, da * db))
    den = lcm(*(d for *_, d in forms))
    nums = {}
    for a, b, d in forms:
        scale = den // d
        if scale != 1:
            if len(a) > len(b):
                a, b = b, a
            a = {e: c * scale for e, c in a.items()}
        _mul_into(nums, a, b)
    return _make(_checked(nums), den * divisor)


def _form(value):
    """(numerator dict, denominator) of a MultiPoly or scalar."""
    if isinstance(value, MultiPoly):
        return value._nums, value._den
    num, den = _ratio(value)
    return {0: num}, den


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
    Leading terms are reduced in packed-int order, which is a monomial order."""
    if not isinstance(divisor, MultiPoly):
        return p / divisor
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if divisor.is_constant():
        return p / divisor.constant_value()
    lead = max(divisor._nums)
    quotient = MultiPoly.constant(0)
    remainder = p
    while not remainder.is_zero():
        e = max(remainder._nums)
        # A field of e below lead's borrows, which sets that field's guard
        # bit, or makes the difference negative if it is the top field.
        q_exps = e - lead
        if q_exps < 0 or q_exps & _GUARD:
            raise ValueError("inexact polynomial division")
        num = remainder._nums[e] * divisor._den
        den = remainder._den * divisor._nums[lead]
        q_term = _make({q_exps: num if den > 0 else -num}, abs(den))
        quotient = quotient + q_term
        remainder = remainder - q_term * divisor
    return quotient
