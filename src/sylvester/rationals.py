"""Exact rational scalars and "p/q" serialization helpers.

All exact quantities in the package are `fractions.Fraction` values; this
module fixes the wire format (``"p/q"`` strings) and provides the few
numeric helpers (rational square roots, pi) that cannot stay in ``Q``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

#: Precision (bits after the binary point) of rational approximations of
#: irrational quantities (disk/ellipse slice bounds).
SQRT_PRECISION_BITS = 80

#: pi to well over 50 bits, as a rational.  Used by closed-form constants.
PI_RATIONAL = Fraction(
    3141592653589793238462643383279502884197,
    10**39,
)


def to_fraction(value) -> Fraction:
    """Coerce anything Fraction takes: rationals, floats, "p/q" strings."""
    return value if isinstance(value, Fraction) else Fraction(value)


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q" (always with the slash, even for integers)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class Record:
    """Base of the package's value classes.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets them in its ``__init__``.  Two records are equal when they are of
    one class and their fields are equal; the repr is ``Name(field=value,
    ...)``.  A mutable record has no hash.
    """

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Unpickling calls the constructor, whose normalisation leaves
        # normalised fields as they are.
        return type(self), self._values()


class FrozenRecord(Record):
    """A `Record` with a hash, whose fields are set once, by ``__init__``:
    assigning a field that is set, or any other name, raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        if name not in self._fields or hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DocumentError(ValueError):
    """A malformed input document; the message names the offending field."""


def read_field(doc, name, shape=()):
    """Field ``name`` of a JSON object as rationals nested to ``shape``:
    () is one rational, (None,) a list of any length, (None, 2) a list of
    pairs, (2, 2) a 2x2 matrix.  Raises DocumentError naming the field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object with field {name!r}")
    if name not in doc:
        raise DocumentError(f"missing field {name!r}")
    try:
        return _read_rationals(doc[name], shape)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DocumentError(
            f"field {name!r} must be {_template(shape)}"
        ) from None


def _read_rationals(value, shape):
    if not shape:
        if type(value) not in (int, float, str):
            raise TypeError(value)
        return Fraction(value)
    if type(value) is not list or shape[0] not in (None, len(value)):
        raise TypeError(value)
    return tuple(_read_rationals(v, shape[1:]) for v in value)


def _template(shape):
    if not shape:
        return '"p/q"'
    items = [_template(shape[1:])] * (shape[0] or 1)
    return "[" + ", ".join(items + ["..."] * (shape[0] is None)) + "]"


def rational_sqrt(value: Fraction) -> Fraction:
    """Rational approximation of sqrt(value), accurate to ~2^-b.

    With b = SQRT_PRECISION_BITS, |r - sqrt(value)| <= 2^(1-b) *
    max(1, sqrt(value)), and r is exact when value is a rational square.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative rational")
    a, b = isqrt(value.numerator), isqrt(value.denominator)
    if (a * a, b * b) == (value.numerator, value.denominator):
        return Fraction(a, b)
    scale = 1 << SQRT_PRECISION_BITS
    n = value.numerator * scale * scale
    return Fraction(isqrt(n // value.denominator), scale)


def round_to_dyadic(x: float, bits: int) -> Fraction:
    """Round a float to a rational with denominator 2^bits.

    Keeps integer sizes small in downstream exact arithmetic; the
    perturbation is at most 2^-(bits + 1).
    """
    scale = 1 << bits
    return Fraction(round(x * scale), scale)
