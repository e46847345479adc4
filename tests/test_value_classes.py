"""The value classes' common behaviour: construction by position, keyword
and default; field-wise equality and hash, never across classes;
immutability; pickling; and the ``Name(field=value, ...)`` repr."""

import pickle
from fractions import Fraction

import pytest

from sylvester.bodies import AreaValue, Disk, Ellipse, Polygon
from sylvester.certificates import (
    CertificateReport,
    IdentityCheck,
    LinHelper,
    PositivityCheck,
)
from sylvester.closed_forms import PiConstant
from sylvester.combs import Comb
from sylvester.montecarlo import EstimateResult
from sylvester.poly import MultiPoly
from sylvester.segments import NormalizedFamily, VerticalSegment

X = MultiPoly.variable("x")
HALF = Fraction(1, 2)

#: (class, field names, constructor arguments, frozen)
CASES = [
    (Polygon, ("vertices",), (((0, 0), (1, 0), (0, 1)),), True),
    (Disk, ("center", "radius"), ((0, HALF), 2), True),
    (Ellipse, ("m", "t"), (((2, 1), (0, 1)), (1, -1)), True),
    (AreaValue, ("coefficient", "pi_power"), (Fraction(3, 4), 1), True),
    (VerticalSegment, ("x", "y_low", "y_high"), (HALF, -1, 1), True),
    (NormalizedFamily, ("xbar", "L0", "L1", "lam", "beta"),
     ((0, HALF, 1), 1, 2, (0, HALF, 0), (0, Fraction(1, 4), 0)), True),
    (Comb, ("x", "lengths"), ((Fraction(1, 3), HALF), (1, 2)), True),
    (PiConstant, ("rational_part", "pi2_coefficient"),
     (Fraction(1), Fraction(-35, 12)), True),
    (EstimateResult,
     ("n", "samples", "hits", "estimate", "std_error", "ci95", "seed",
      "workers"),
     (5, 100, 70, 0.7, 0.05, (0.6, 0.8), 1, 2), True),
    (LinHelper, ("var", "end_a", "value_a", "end_b", "value_b"),
     ("x", 0, X * X, 1, X + 1), True),
    (IdentityCheck, ("name", "grid_points", "passed", "detail"),
     ("n4 symmetrization difference", 9, False, "mismatch"), False),
    (PositivityCheck, ("name", "passed"), ("P0 on the simplex", True), False),
    (CertificateReport, ("identity_checks", "positivity_checks"),
     ([IdentityCheck("a", 1, True)], [PositivityCheck("b", False)]), False),
]
IDS = [case[0].__name__ for case in CASES]


def _build(case):
    cls, _, args, _ = case
    return cls(*args)


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, fields, args, frozen = case
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert _values(by_position, fields) == _values(by_keyword, fields)
    if frozen:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)


def test_normalised_inputs_give_equal_objects_with_equal_hashes():
    assert Disk((0, HALF), 2) == Disk(("0", 0.5), Fraction(2))
    assert hash(Disk((0, HALF), 2)) == hash(Disk(("0", 0.5), Fraction(2)))
    # a repeated vertex is dropped
    plain = Polygon(((0, 0), (1, 0), (0, 1)))
    repeated = Polygon(((0, 0), ("1", 0.0), (1, 0), (0, 1)))
    assert repeated == plain and hash(repeated) == hash(plain)
    assert repeated.vertices == ((0, 0), (1, 0), (0, 1))
    assert all(type(c) is Fraction for v in repeated.vertices for c in v)
    segment = VerticalSegment(0.5, "-1", 1)
    assert segment == VerticalSegment(HALF, -1, 1)
    assert (type(segment.x), type(segment.y_low)) == (Fraction, Fraction)
    assert Comb([Fraction(1, 3)], [2]).x == (Fraction(1, 3),)
    assert Ellipse([[2, 1], [0, 1]], [1, -1]).m == ((2, 1), (0, 1))


def test_unequal_fields_give_unequal_objects():
    assert Disk((0, 0), 1) != Disk((0, 0), 2)
    assert AreaValue(1, 1) != AreaValue(1, 2)
    assert IdentityCheck("a", 1, True) != IdentityCheck("a", 1, True, "why")


def test_defaults():
    assert IdentityCheck("a", 3, True).detail is None
    assert IdentityCheck("a", 3, True) == IdentityCheck("a", 3, True, None)
    first, second = CertificateReport(), CertificateReport()
    assert first.identity_checks == first.positivity_checks == []
    first.identity_checks.append(IdentityCheck("a", 1, True))
    assert second.identity_checks == [], "each report has its own lists"
    assert PositivityCheck("p", True).method == "monomial-certificate"


def test_no_object_equals_one_of_another_class():
    objects = [_build(case) for case in CASES]
    for i, left in enumerate(objects):
        for j, right in enumerate(objects):
            assert (left == right) is (i == j)
        cls, fields = CASES[i][:2]
        values = _values(left, fields)
        assert left != values and values != left
        sub = type("Sub", (cls,), {})(*CASES[i][2])
        assert left != sub and sub != left
    # two classes with the same field values
    assert AreaValue(1, 2) != PiConstant(1, 2)


@pytest.mark.parametrize("case", [c for c in CASES if c[3]],
                         ids=[i for i, c in zip(IDS, CASES) if c[3]])
def test_frozen_classes_refuse_assignment(case):
    obj = _build(case)
    fields = case[1]
    before = _values(obj, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert _values(obj, fields) == before


@pytest.mark.parametrize("case", [c for c in CASES if not c[3]],
                         ids=[i for i, c in zip(IDS, CASES) if not c[3]])
def test_mutable_classes_take_assignment(case):
    obj = _build(case)
    name = case[1][0]
    setattr(obj, name, "changed")
    assert getattr(obj, name) == "changed"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_pickle_round_trip(case):
    obj = _build(case)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(obj, protocol))
        assert type(copy) is type(obj)
        assert copy == obj
        assert _values(copy, case[1]) == _values(obj, case[1])
        if case[3]:
            assert hash(copy) == hash(obj)
            with pytest.raises(AttributeError):
                setattr(copy, case[1][0], 1)


def test_lin_helper_pickles_after_its_polynomial_is_cached():
    helper = LinHelper("x", 0, X * X, 1, X + 1)
    symbolic = helper.symbolic
    assert symbolic == X * X + X * (X + 1 - X * X)
    copy = pickle.loads(pickle.dumps(helper))
    assert copy == helper
    assert copy.symbolic == symbolic
    assert helper.symbolic is symbolic


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_names_the_class_and_each_field(case):
    obj = _build(case)
    cls, fields = case[:2]
    inner = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields)
    assert repr(obj) == f"{cls.__qualname__}({inner})"


def test_estimate_result_to_json():
    result = EstimateResult(5, 100, None, 0.7, 0.05, (0.6, 0.8), 1, 2)
    doc = result.to_json()
    assert doc == {"n": 5, "samples": 100, "hits": None, "estimate": 0.7,
                   "std_error": 0.05, "ci95": [0.6, 0.8], "seed": 1,
                   "workers": 2}
    assert list(doc) == ["n", "samples", "hits", "estimate", "std_error",
                         "ci95", "seed", "workers"]
    doc["ci95"].append(1.0)
    assert result.ci95 == (0.6, 0.8)
