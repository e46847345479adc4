from fractions import Fraction

import pytest

from sylvester.closed_forms import (
    PiConstant,
    closed_form,
    constants_table,
    disk_constant,
)


def test_reference_values():
    assert closed_form("triangle", 4) == Fraction(2, 3)
    assert closed_form("triangle", 5) == Fraction(11, 36)
    assert closed_form("square", 4) == Fraction(25, 36)
    assert closed_form("square", 5) == Fraction(49, 144)


def test_small_n_are_certain():
    for shape in ("triangle", "square"):
        assert closed_form(shape, 1) == 1
        assert closed_form(shape, 2) == 1
        assert closed_form(shape, 3) == 1


def test_monotone_decreasing_in_n():
    for shape in ("triangle", "square"):
        values = [closed_form(shape, n) for n in range(3, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_validation():
    with pytest.raises(ValueError):
        closed_form("hexagon", 4)
    with pytest.raises(ValueError):
        closed_form("square", 0)
    with pytest.raises(ValueError):
        disk_constant(6)


def test_disk_constants():
    d4 = disk_constant(4)
    d5 = disk_constant(5)
    assert d4.rational_part == 1 and d4.pi2_coefficient == Fraction(-35, 12)
    assert d5.pi2_coefficient == Fraction(-305, 48)
    assert abs(d4.value() - 0.704480) < 1e-6
    assert abs(d5.value() - 0.356190) < 1e-5
    # rational approximation uses far more than 50 bits of pi
    assert abs(d5.rational_approximation() - Fraction(d5.value())) < Fraction(1, 2**50)


def test_constant_level_ordering():
    # triangle < square < disk at both n
    assert closed_form("triangle", 5) < closed_form("square", 5) < disk_constant(5).value()
    assert closed_form("square", 4) < disk_constant(4).value() < 1


def test_constants_table():
    rows = constants_table()
    exacts = {(r["shape"], r["n"]): r["exact"] for r in rows}
    assert exacts[("triangle", 5)] == "11/36"
    assert len(rows) == 6


def test_pi_constant_json():
    doc = disk_constant(4).to_json()
    assert doc["rational_part"] == "1/1"
    assert doc["pi2_coefficient"] == "-35/12"
