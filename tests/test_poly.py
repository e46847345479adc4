from fractions import Fraction

import pytest

from sylvester.poly import (
    DegreeBoundError,
    MissingVariableError,
    MultiPoly,
    divide_exact,
    grid_identity_check,
)


def v(name):
    return MultiPoly.variable(name)


def test_arithmetic_round_trip():
    x, y = v("x"), v("y")
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (p - p).is_zero()
    assert p.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)}) == Fraction(25, 36)
    # cancellation leaves no zero coefficient behind
    assert ((x + 1) * (x - 1)).terms == {(2,): 1, (0,): -1}


def test_scalar_mixing():
    x = v("x")
    p = 2 * x + 1 - x / 2
    assert p.evaluate({"x": 2}) == 4
    assert (x * 0).is_zero()


def test_variable_alignment_and_equality():
    p = v("a") + v("b")
    q = v("b") + v("a")
    assert p == q
    assert hash(p) == hash(q)
    assert p == MultiPoly.variable("a", ("a", "b", "c")) + v("b")
    # an operand whose variables cover the other's keeps its order
    wide = MultiPoly.variable("a", ("c", "b", "a"))
    assert (wide + v("b")).variables == ("c", "b", "a")
    assert (v("b") + wide).variables == ("c", "b", "a")


def test_missing_variable_error():
    p = v("x") * v("y")
    with pytest.raises(MissingVariableError):
        p.evaluate({"x": 1})
    # unused variables need no binding
    assert (v("x") * 0 + 1).evaluate({}) == 1


def test_substitute_polynomial():
    x, t = v("x"), v("t")
    p = x**2 + 1
    q = p.substitute({"x": t + 1})
    assert q == t * t + 2 * t + 2
    assert p.substitute({"x": Fraction(1, 2)}) == Fraction(5, 4)


def test_coefficient_poly():
    x, y = v("x"), v("y")
    p = 3 * x * x * y + x * y + 5
    assert p.coefficient_poly("x", 2) == 3 * y
    assert p.coefficient_poly("x", 1) == y
    assert p.coefficient_poly("x", 0) == 5


def test_integrate_box():
    x = v("x")
    assert (x * x).integrate_box("x", 0, 1) == Fraction(1, 3)
    assert (x * v("y")).integrate_box("x", -1, 1).is_zero()
    # absent variable integrates as a constant
    assert v("y").integrate_box("x", 0, 2) == 2 * v("y")


def test_grid_identity_check():
    x, y = v("x"), v("y")
    lhs = (x + y) * (x - y)
    rhs = x * x - y * y
    assert grid_identity_check(lhs, rhs, {"x": 2, "y": 2})
    assert not grid_identity_check(lhs, rhs + 1, {"x": 2, "y": 2})


def test_grid_identity_check_degree_audit():
    x = v("x")
    with pytest.raises(DegreeBoundError):
        grid_identity_check(x**3, x, {"x": 2})
    with pytest.raises(DegreeBoundError):
        grid_identity_check(x, v("y"), {"x": 1})


def test_divide_exact():
    x, y = v("x"), v("y")
    p = x * x - y * y
    assert divide_exact(p, x - y) == x + y
    with pytest.raises(ValueError):
        divide_exact(x * x + 1, x)


def test_to_json():
    p = v("x") * 2 + Fraction(1, 3)
    doc = p.to_json()
    assert {"coeff": "2/1", "exps": [1]} in doc
    assert {"coeff": "1/3", "exps": [0]} in doc
    # zero coefficients are dropped; keys of the wrong arity are rejected
    assert MultiPoly(("x",), {(1,): 0, (0,): "1/3"}).to_json() == [
        {"coeff": "1/3", "exps": [0]}
    ]
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(1, 0): 1})
