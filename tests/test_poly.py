import json
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sylvester import poly
from sylvester.poly import (
    MAX_EXPONENT,
    DegreeBoundError,
    MissingVariableError,
    MultiPoly,
    as_poly,
    divide_exact,
    grid_identity_check,
    sum_of_products,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
    assert p == v("a").with_variables(("a", "b", "c")) + v("b")
    # a result carries no label, whatever the operands' labels and order
    wide = v("a").with_variables(("c", "b", "a"))
    assert (wide + v("b")).variables == ("a", "b")
    assert (v("b") + wide).variables == ("a", "b")


def test_operand_order_does_not_show():
    # A result carries no label, so equal results show equal variables,
    # terms and repr whichever operand came first.
    a, b = v("a"), v("b")
    pairs = [(a + b, b + a), (a * b, b * a), (a - b, -b + a),
             (sum_of_products([(a, b), (b,)]),
              sum_of_products([(b,), (b, a)]))]
    for left, right in pairs:
        assert left.variables == right.variables == ("a", "b")
        assert left.terms == right.terms
        assert repr(left) == repr(right)


def test_labels_stay_on_their_object():
    p = MultiPoly(("y", "x", "w"), {(1, 2, 0): 3, (0, 0, 0): 1})
    q = v("x").with_variables(("z", "x"))
    assert p.variables == ("y", "x", "w") and q.variables == ("z", "x")
    assert p.terms == {(1, 2, 0): 3, (0, 0, 0): 1}
    assert (MultiPoly.variable("x").variables, MultiPoly.constant(3).variables
            ) == (("x",), ())
    results = [p + q, q - p, p * q, -q, 2 * q, q / 2, q**1,
               q.substitute({"x": v("y")}), sum_of_products([(q, p)], 2),
               p.integrate_box("y", 0, 1), p.coefficient_poly("y", 1),
               q.even_part(("y",)), divide_exact(p * q, q)]
    for r in results:
        assert r.variables == tuple(sorted(r.used_variables()))
    assert p.variables == ("y", "x", "w") and q.variables == ("z", "x")


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
    # Whichever of x and y the layout puts first, one leading term lacks a
    # divisor field below its highest and one above it: both are refused.
    for p, q in ((x**3, x * y), (y**3, x * y), (x * y**2, x**2)):
        with pytest.raises(ValueError):
            divide_exact(p, q)


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


def test_terms_view_is_read_only():
    p = v("x") / 2 + 1
    assert p.terms == {(1,): Fraction(1, 2), (0,): 1}
    assert isinstance(p.terms[(1,)], Fraction)
    with pytest.raises(TypeError):
        p.terms[(1,)] = 3


# -- properties of the ring, checked against evaluation ----------------------

NAMES = ("x", "y", "z")
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nonzero = rationals.filter(bool)
points = st.fixed_dictionaries({name: rationals for name in NAMES})


@st.composite
def polys(draw):
    """Up to four terms of degree <= 2 per variable, over an ordered subset
    of NAMES, so that operands overlap in differently ordered variables."""
    variables = draw(st.permutations(NAMES))[: draw(st.integers(0, 3))]
    exps = st.tuples(*[st.integers(0, 2)] * len(variables))
    return MultiPoly(variables, draw(st.dictionaries(exps, rationals, max_size=4)))


def canonical(r):
    nums = list(r._nums.values())
    return r._den > 0 and 0 not in nums and gcd(r._den, *nums) == 1


@PROPERTY
@given(polys(), polys(), points, nonzero)
def test_ring_operations_match_evaluation(p, q, point, c):
    at = lambda r: r.evaluate(point)
    assert at(p + q) == at(p) + at(q)
    assert at(p - q) == at(p) - at(q)
    assert at(c - p) == c - at(p)
    assert at(-p) == -at(p)
    assert at(p * q) == at(p) * at(q)
    assert at(c * p) == c * at(p)
    assert at(p / c) == at(p) / c
    for k in range(4):
        assert at(p**k) == at(p) ** k


@PROPERTY
@given(polys(), points, st.sampled_from(NAMES), rationals, rationals)
def test_integrate_box_matches_simpson(p, point, var, lo, hi):
    # Simpson's rule is exact up to degree 3; p has degree <= 2 in var.
    def f(t):
        return p.evaluate({**point, var: t})

    expected = (hi - lo) / 6 * (f(lo) + 4 * f((lo + hi) / 2) + f(hi))
    result = p.integrate_box(var, lo, hi)
    assert var not in result.used_variables()
    assert result.evaluate(point) == expected


@PROPERTY
@given(polys(), polys(), polys(), points, rationals)
def test_substitute_matches_evaluation(p, q, r, point, c):
    # Simultaneous substitution: q and r are evaluated at the original point.
    inner = {**point, "x": q.evaluate(point), "y": r.evaluate(point)}
    assert p.substitute({"x": q, "y": r}).evaluate(point) == p.evaluate(inner)
    assert (p.substitute({"z": c}).evaluate(point)
            == p.evaluate({**point, "z": c}))


def expansion_oracle(p, mapping):
    """``p.substitute(mapping)`` term by term, with ring operations only."""
    total = MultiPoly.constant(0)
    for exps, coeff in p.terms.items():
        term = MultiPoly.constant(coeff)
        for name, e in zip(p.variables, exps):
            base = as_poly(mapping[name]) if name in mapping else v(name)
            term = term * base**e
        total = total + term
    return total


#: Substituted values: rationals, the int and the polynomial zero,
#: constants, and polynomials in any of NAMES, kept ones included.
values = st.one_of(rationals, st.just(0),
                   st.just(MultiPoly.constant(0).with_variables(("y",))),
                   rationals.map(MultiPoly.constant), polys())


@PROPERTY
@given(polys(), st.dictionaries(st.sampled_from(NAMES), values, max_size=3),
       points)
def test_substitute_matches_expansion_and_evaluation(p, mapping, point):
    result = p.substitute(mapping)
    assert result == expansion_oracle(p, mapping)
    assert canonical(result)
    inner = {**point, **{name: as_poly(value).evaluate(point)
                         for name, value in mapping.items()}}
    assert result.evaluate(point) == p.evaluate(inner)


@PROPERTY
@given(polys(), st.permutations(NAMES), points)
def test_substitute_permuting_variables_is_simultaneous(p, order, point):
    # {x: y, y: x} and three-cycles: every value is read before any is set.
    mapping = {name: v(other) for name, other in zip(NAMES, order)}
    result = p.substitute(mapping)
    assert result == expansion_oracle(p, mapping)
    moved = {name: point[other] for name, other in zip(NAMES, order)}
    assert result.evaluate(point) == p.evaluate(moved)
    back = {other: v(name) for name, other in zip(NAMES, order)}
    assert result.substitute(back) == p


@PROPERTY
@given(st.integers(1, MAX_EXPONENT), st.integers(0, MAX_EXPONENT),
       st.integers(1, 3), nonzero)
def test_substitute_raises_past_max_exponent(a, b, k, c):
    # x^a y^b at x := c y^k has degree a k + b in y; the term with x^0 is
    # kept as it is.
    x, y = v("x"), v("y")
    p = c * x**a * y**b + y
    mapping = {"x": c * y**k}
    if a * k + b > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            p.substitute(mapping)
    else:
        assert p.substitute(mapping) == c ** (a + 1) * y ** (a * k + b) + y
    # A variable replaced by zero drops its terms before any power forms.
    assert p.substitute({"x": 0}) == y


#: Factors of `sum_of_products` rows: polynomials, Fractions with distinct
#: denominators, and ints.
factors = st.one_of(polys(), st.fractions(-3, 3, max_denominator=30),
                    st.integers(-3, 3))


@PROPERTY
@given(st.lists(st.lists(factors, min_size=1, max_size=3), max_size=5),
       st.integers(1, 4))
def test_sum_of_products_matches_plain_sum(rows, divisor):
    expected = sum(reduce(mul, row) for row in rows)
    if divisor != 1:
        expected /= divisor
    result = sum_of_products(rows, divisor)
    assert type(result) is type(expected) and result == expected
    if isinstance(result, MultiPoly):
        # Same labels as the chained operators, so the same output.
        assert result.variables == expected.variables
        assert canonical(result)
    # A generator of rows is read once, in order.
    assert sum_of_products(iter(rows), divisor) == expected


def test_sum_of_products_edge_cases():
    assert sum_of_products([]) == 0 and type(sum_of_products([])) is int
    rows = [(Fraction(1, 2), 3), (2,), (Fraction(2, 3), Fraction(3, 5), 5)]
    assert sum_of_products(rows, 3) == Fraction(11, 6)
    # Floats see sum(a * b * ...) / divisor in that order, to the bit.
    floats = [(0.1, 0.7, 3.0), (1e-17,), (0.3, 0.2)]
    assert (sum_of_products(floats, 3).hex()
            == (sum(reduce(mul, row) for row in floats) / 3).hex())
    # A polynomial in a later row takes in the scalar rows before it.
    mixed = sum_of_products([(Fraction(1, 2),), (v("x"), 2)])
    assert mixed == 2 * v("x") + Fraction(1, 2)
    # The last factor is accumulated in place, still under the guard bits.
    half = v("x") ** 64
    with pytest.raises(OverflowError):
        sum_of_products([(v("y"),), (half, half)])


@PROPERTY
@given(polys(), points, st.sampled_from(NAMES))
def test_coefficient_poly_reassembles(p, point, var):
    parts = [p.coefficient_poly(var, k) for k in range(3)]
    assert all(var not in part.used_variables() for part in parts)
    total = sum(part.evaluate(point) * point[var] ** k
                for k, part in enumerate(parts))
    assert total == p.evaluate(point)


@PROPERTY
@given(polys(), polys())
def test_divide_exact_inverts_multiplication(p, q):
    assume(not q.is_zero())
    assert divide_exact(p * q, q) == p


@PROPERTY
@given(polys(), polys(), nonzero)
def test_results_are_canonical(p, q, c):
    results = [p + q, p - q, p * q, p / c, c - p, p**2,
               p.integrate_box("x", 0, c), p.substitute({"y": q}),
               sum_of_products([(p, q), (c, q, p), (q,)], 3),
               p.coefficient_poly("z", 1), p.even_part(("x", "y"))]
    assert all(canonical(r) for r in results)
    # cancellation leaves no zero term behind
    assert (p + q) - q == p
    assert 0 not in ((p + q) - q).terms.values()
    assert (p - p).is_zero() and (p - p)._den == 1


@PROPERTY
@given(polys(), points, st.sets(st.sampled_from(NAMES)))
def test_even_part_is_sign_flip_average(p, point, names):
    # Averaging over every sign choice of the named variables cancels the
    # terms of odd degree in any of them; absent names change nothing.
    flips = [{}]
    for name in names:
        flips = [{**f, name: s * point[name]} for f in flips for s in (1, -1)]
    average = sum(p.evaluate({**point, **f}) for f in flips) / len(flips)
    assert p.even_part(tuple(names)).evaluate(point) == average


@PROPERTY
@given(polys(), st.permutations(NAMES))
def test_equality_and_hash_ignore_variable_order(p, order):
    terms = {}
    for exps, coeff in p.terms.items():
        powers = dict(zip(p.variables, exps))
        terms[tuple(powers.get(name, 0) for name in order)] = coeff
    q = MultiPoly(order, terms)
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert p + 1 != q


def grid_oracle(lhs, rhs, degree_bounds):
    """The former evaluation of grid_identity_check, kept as an oracle: the
    difference vanishes on a tensor grid of (d + 1) distinct points per
    variable, d its declared degree bound."""
    diff = lhs - rhs
    names = sorted(diff.used_variables())
    if not names:
        return diff.is_zero()
    axes = [[Fraction(2 * k + 3, 2 * k + 4)
             for k in range(degree_bounds[name] + 1)] for name in names]
    return all(diff.evaluate(dict(zip(names, point))) == 0
               for point in product(*axes))


@PROPERTY
@given(polys(), polys(), polys(), st.permutations(NAMES), st.integers(0, 1))
def test_grid_identity_check_matches_grid(p, q, delta, order, slack):
    # lhs and rhs build the same polynomial in different variable orders;
    # a zero delta keeps them equal, any other makes them differ.  Bounds
    # are the true degrees of the difference, raised by ``slack``.
    lhs = p * q + delta
    rhs = q.with_variables(order) * p.with_variables(order[::-1])
    bounds = {name: (lhs - rhs).degree(name) + slack for name in NAMES}
    verdict = grid_identity_check(lhs, rhs, bounds)
    assert verdict == grid_oracle(lhs, rhs, bounds)
    assert verdict == delta.is_zero()


def test_constant_hashes_like_its_value():
    for value in (0, 5, Fraction(-1, 2)):
        c = MultiPoly.constant(value).with_variables(("x", "y"))
        assert c == value and hash(c) == hash(value)
        assert len({value, c}) == 1


# -- packed monomials ---------------------------------------------------------


def test_exponent_overflow_raises():
    x, y = v("x"), v("y")
    top = x**MAX_EXPONENT
    assert top == x**64 * x**63 and top.degree("x") == MAX_EXPONENT
    for overflow in (lambda: top * x, lambda: x**64 * x**64,
                     lambda: x ** (MAX_EXPONENT + 1),
                     lambda: top.substitute({"x": y**2}),
                     lambda: MultiPoly(("x", "y"), {(1, MAX_EXPONENT + 1): 1})):
        with pytest.raises(OverflowError):
            overflow()
    assert (MultiPoly(("x", "y"), {(1, MAX_EXPONENT): 2})
            == 2 * x * top.substitute({"x": y}))


# -- the packed-key helpers against their tuple and Fraction definitions -------

#: "w" is a label no term need use.
PACKED_NAMES = (*NAMES, "w")
exponents = st.one_of(st.integers(0, 3),
                      st.integers(MAX_EXPONENT - 1, MAX_EXPONENT))


@st.composite
def labelled_terms(draw):
    """(variables, {exponent tuple: Fraction}): zero, constant or not, with
    zero and negative coefficients and exponents up to MAX_EXPONENT."""
    variables = draw(st.permutations(PACKED_NAMES))[: draw(st.integers(0, 4))]
    exps = st.tuples(*[exponents] * len(variables))
    return tuple(variables), draw(st.dictionaries(exps, rationals, max_size=5))


@PROPERTY
@given(labelled_terms(), st.integers(1, 6))
def test_from_numerators_matches_the_fraction_constructor(labelled, scale):
    variables, terms = labelled
    p = MultiPoly(variables, terms)
    den = scale * lcm(*(c.denominator for c in terms.values()))
    q = MultiPoly.from_numerators(
        variables, {e: int(c * den) for e, c in terms.items()}, den)
    assert q == p and canonical(q)
    assert q.variables == p.variables == variables
    assert q.terms == p.terms
    nums, den = p.numerators()
    assert den > 0 and all(type(c) is int and c for c in nums.values())
    assert {e: Fraction(c, den) for e, c in nums.items()} == p.terms
    r = MultiPoly.from_numerators(p.variables, nums, den)
    assert r == p and r.variables == variables


@PROPERTY
@given(labelled_terms())
def test_packed_total_degree_and_sign(labelled):
    p = MultiPoly(*labelled)
    assert p.total_degree() == max(map(sum, p.terms), default=0)
    assert p.has_nonnegative_coefficients() == all(
        c >= 0 for c in p.terms.values())


@PROPERTY
@given(labelled_terms(),
       st.sets(st.sampled_from((*PACKED_NAMES, "never placed"))))
def test_has_odd_total_is_the_parity_of_the_exponent_sum(labelled, names):
    p = MultiPoly(*labelled)
    positions = [n for n, name in enumerate(p.variables) if name in names]
    assert p.has_odd_total(names) == any(
        sum(exps[n] for n in positions) % 2 for exps in p.terms)


def test_packed_helpers_at_the_edges():
    x, y, z = v("x"), v("y"), v("z")
    top = (x * y * z) ** MAX_EXPONENT  # 3 * 127 does not fit in one byte
    assert top.total_degree() == 3 * MAX_EXPONENT
    assert top.has_odd_total(("x", "y", "z")) and not top.has_odd_total(("x", "y"))
    zero = MultiPoly.constant(0).with_variables(("x", "w"))
    assert zero.total_degree() == 0 and not zero.has_odd_total(("x", "w"))
    assert zero.has_nonnegative_coefficients()
    assert zero.numerators() == ({}, 1)
    assert MultiPoly.constant(Fraction(-3, 4)).numerators() == ({(): -3}, 4)
    assert not (x - Fraction(1, 2) * y).has_nonnegative_coefficients()
    with pytest.raises(OverflowError):
        MultiPoly.from_numerators(("x",), {(MAX_EXPONENT + 1,): 1})
    with pytest.raises(ValueError):
        MultiPoly.from_numerators(("x", "y"), {(1,): 1})


def test_pack_range_check():
    # A negative exponent fits no field, and the empty key is the monomial 1.
    with pytest.raises(OverflowError):
        poly._pack([0], (-1,))
    with pytest.raises(OverflowError):
        MultiPoly(("x",), {(-1,): 1})
    assert v("x").terms.get((-1,)) is None
    assert poly._pack([], ()) == 0
    assert MultiPoly((), {(): 3}) == 3


@PROPERTY
@given(polys(), polys(), polys())
def test_mul_into_does_not_depend_on_operand_order(p, q, r):
    # Either order adds every pair of terms into what ``out`` holds, here
    # r's numerators, whichever operand is the larger.
    start = r._nums
    expected = dict(start)
    for (e1, c1), (e2, c2) in product(p._nums.items(), q._nums.items()):
        expected[e1 + e2] = expected.get(e1 + e2, 0) + c1 * c2
    for a, b in ((p, q), (q, p)):
        assert poly._mul_into(dict(start), a._nums, b._nums) == expected


#: Loads ``sylvester.poly`` alone, so that no import-time table of the
#: package takes a field first, registers the names given, then runs the
#: command; prints its exit code and stdout, the field layout, and the repr
#: of a polynomial unpickled from the bytes given.
LAYOUT_SCRIPT = """
import contextlib, importlib.util, io, json, pickle, sys, types
argv, order, pickled = json.loads(sys.argv[1])
stub = types.ModuleType("sylvester")
stub.__path__ = importlib.util.find_spec("sylvester").submodule_search_locations
sys.modules["sylvester"] = stub
from sylvester import poly
for name in order:
    poly.MultiPoly.variable(name)
del sys.modules["sylvester"]
from sylvester import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(argv)
print(json.dumps([code, out.getvalue(), list(poly._OFFSETS),
                  repr(pickle.loads(bytes.fromhex(pickled)))]))
"""


@pytest.mark.parametrize("argv", [["kpoly", "--x", "1/5,2/5,3/5,4/5"],
                                  ["verify", "--case", "n4"]])
def test_outputs_do_not_depend_on_field_layout(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    p = MultiPoly(("l2", "l1"), {(2, 0): Fraction(1, 3), (1, 5): -2})
    pickled = pickle.dumps(p).hex()

    def run(order):
        proc = subprocess.run(
            [sys.executable, "-c", LAYOUT_SCRIPT,
             json.dumps([argv, order, pickled])],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(proc.stdout)

    code, fresh, layout, fresh_p = run([])
    assert code == 0 and fresh
    again, reversed_out, reversed_layout, reversed_p = run(layout[::-1])
    assert reversed_layout == layout[::-1] != layout
    assert (again, reversed_out) == (code, fresh)
    assert fresh_p == reversed_p == repr(p)


def test_concurrent_registration_gets_distinct_fields():
    names = [[f"reg{t}_{i}" for i in range(200)] for t in range(4)]
    polys = {}

    def register(batch):
        for name in batch:
            polys[name] = MultiPoly.variable(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=register, args=(batch,))
                   for batch in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    every = [name for batch in names for name in batch]
    assert len({poly._OFFSETS[name] for name in every}) == len(every)
    assert all(poly._NAMES[poly._OFFSETS[name] // poly._WIDTH] == name
               for name in every)
    assert all(polys[name].variables == (name,) for name in every)
    assert len({next(iter(polys[name]._nums)) for name in every}) == len(every)
