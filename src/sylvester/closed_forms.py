"""Exact reference constants for convex-position probabilities.

Valtr's closed forms for the square and the triangle, and the disk
constants for n = 4 (Blaschke) and n = 5.  The disk constants are affine
in 1/pi^2, with denominators 12*pi^2 and 48*pi^2; Monte Carlo refutes the
alternative (12*pi)^2 / (48*pi)^2 reading of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rationals import PI_RATIONAL, format_rational


@dataclass(frozen=True)
class PiConstant:
    """Value rational_part + pi2_coefficient / pi^2."""

    rational_part: Fraction
    pi2_coefficient: Fraction

    def value(self) -> float:
        return float(self.rational_part) + float(self.pi2_coefficient) / (
            math.pi**2
        )

    def rational_approximation(self) -> Fraction:
        # PI_RATIONAL carries far more than the 50 bits the contract asks.
        return self.rational_part + self.pi2_coefficient / PI_RATIONAL**2

    def __float__(self):
        return self.value()

    def to_json(self):
        return {
            "rational_part": format_rational(self.rational_part),
            "pi2_coefficient": format_rational(self.pi2_coefficient),
            "value": self.value(),
        }


def closed_form(shape: str, n: int) -> Fraction:
    """Exact convex-position probability for the square or the triangle."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if shape == "square":
        return Fraction(math.comb(2 * n - 2, n - 1), math.factorial(n)) ** 2
    if shape == "triangle":
        return Fraction(
            2**n * math.factorial(3 * n - 3),
            math.factorial(n - 1) ** 3 * math.factorial(2 * n),
        )
    raise ValueError(f"unknown shape {shape!r}")


def disk_constant(n: int) -> PiConstant:
    """Disk constant for n in {4, 5}."""
    if n == 4:
        denom = Fraction(12)
        numer = Fraction(35)
    elif n == 5:
        denom = Fraction(48)
        numer = Fraction(305)
    else:
        raise ValueError("disk constants are available for n in {4, 5}")
    return PiConstant(Fraction(1), -numer / denom)


def constants_table():
    """All reference constants, serialization-ready."""
    rows = []
    for shape in ("triangle", "square"):
        for n in (4, 5):
            value = closed_form(shape, n)
            rows.append(
                {
                    "shape": shape,
                    "n": n,
                    "exact": format_rational(value),
                    "value": float(value),
                }
            )
    for n in (4, 5):
        c = disk_constant(n)
        rows.append(
            {
                "shape": "disk",
                "n": n,
                "exact": f"1 - {format_rational(-c.pi2_coefficient)}/pi^2",
                "value": c.value(),
            }
        )
    return rows
