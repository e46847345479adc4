import gc
import math
import random
from fractions import Fraction

import pytest

import sylvester.certificates as certs
from sylvester.certificates import (
    HELPERS,
    compa_violation_witness,
    default_x_pairs,
    default_x_triples,
    linear_reconstruct,
    mirror_x,
    positivity_check,
    symbolic_difference,
    verify_n4,
    verify_n5,
    verify_n5_cone,
    verify_n5_quadratic,
)
from sylvester.poly import MultiPoly, grid_identity_check
from sylvester.segments import profile_to_offsets, symmetrized_integrand

POINTS = default_x_triples()[:4]
#: The order of the pair symbolic_difference returns.
KINDS = ("majoration", "minoration")


def v(name):
    return MultiPoly.variable(name)


def test_symbolic_difference_reference():
    d = symbolic_difference((Fraction(1, 3), Fraction(2, 3)))[0]
    b1, b2 = v("beta1"), v("beta2")
    assert d == 2 * (b1 * b1 + b2 * b2)


def test_symbolic_difference_structure():
    d = symbolic_difference(POINTS[0])[0]
    assert d.degree("l0") == 1 and d.degree("l1") == 1
    assert not d.used_variables() & {"u0", "u1"}
    assert d.total_degree() <= 5


def test_vanishing_at_extremes():
    x = POINTS[0]
    d_maj, d_min = symbolic_difference(x)
    at_shaken = d_min.substitute(
        {f"beta{j}": v(f"lam{j}") for j in (1, 2, 3)}
    )
    assert at_shaken.is_zero()
    assert d_maj.substitute({f"beta{j}": 0 for j in (1, 2, 3)}).is_zero()


def two_family_difference(x, kind):
    """The difference built from two symmetrized integrands, one per
    family: (top, top) - (plus, minus) or (plus, minus) - (shaken, base)."""
    N = len(x)
    xbar = [Fraction(0), *x, Fraction(1)]
    l0, l1 = v("l0"), v("l1")
    lam = [v(f"lam{j}") for j in range(1, N + 1)]
    beta = [v(f"beta{j}") for j in range(1, N + 1)]
    L = [l0 + (l1 - l0) * xj for xj in x]
    top = [L[j] + lam[j] for j in range(N)]
    plus = [top[j] + beta[j] for j in range(N)]
    minus = [top[j] - beta[j] for j in range(N)]
    general = symmetrized_integrand(xbar, plus, minus)
    if kind == "majoration":
        return symmetrized_integrand(xbar, top, top) - general
    shaken = [L[j] + 2 * lam[j] for j in range(N)]
    return general - symmetrized_integrand(xbar, shaken, L)


@pytest.mark.parametrize("x", [
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 5), Fraction(4, 7)),
    (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    POINTS[1],
])
@pytest.mark.parametrize("kind", KINDS)
def test_difference_matches_two_family_oracle(x, kind):
    difference = symbolic_difference(x)[KINDS.index(kind)]
    assert difference == two_family_difference(x, kind)


class CallLog:
    """Counts the calls of certificates functions in every process: each
    call appends one line to a file, so the calls that forked children of
    `fork_map` make count too."""

    def __init__(self, monkeypatch, path, names):
        self.path = path
        self.clear()
        for name in names:
            original = getattr(certs, name)

            def counted(*args, _name=name, _original=original):
                with open(self.path, "a") as log:
                    log.write(_name + "\n")
                return _original(*args)

            monkeypatch.setattr(certs, name, counted)

    def clear(self):
        self.path.write_text("")

    def __getitem__(self, name):
        return self.path.read_text().split().count(name)


def count_integrands(monkeypatch, tmp_path):
    """Record every symmetrized_integrand call that certificates makes."""
    return CallLog(monkeypatch, tmp_path / "calls", ["symmetrized_integrand"])


@pytest.mark.parametrize("kind", KINDS)
def test_one_integrand_per_difference(monkeypatch, tmp_path, kind):
    calls = count_integrands(monkeypatch, tmp_path)
    for x in ((Fraction(1, 3), Fraction(2, 3)), POINTS[0]):
        calls.clear()
        difference = symbolic_difference(x)[KINDS.index(kind)]
        assert calls["symmetrized_integrand"] == 1
        assert difference == two_family_difference(x, kind)


def test_one_integrand_per_x_point(monkeypatch, tmp_path):
    calls = count_integrands(monkeypatch, tmp_path)
    verify_n5(points=POINTS)
    assert calls["symmetrized_integrand"] == len(POINTS)
    calls.clear()
    certs.verify_all()
    # 21 x pairs and 30 x triples, over all processes
    assert calls["symmetrized_integrand"] == 51


def test_nonnegativity_spot_checks():
    rnd = random.Random(1)
    for x in POINTS:
        xbar = [Fraction(0), *x, Fraction(1)]
        diffs = symbolic_difference(x)
        for _ in range(25):
            p = [Fraction(rnd.randrange(0, 9), 8) for _ in range(3)]
            q = [Fraction(rnd.randrange(-8, 9), 8) * pj for pj in p]
            lam = profile_to_offsets(p, xbar)[1:-1]
            beta = profile_to_offsets(q, xbar)[1:-1]
            point = {"l0": Fraction(1, 2), "l1": Fraction(1, 3)}
            for j in range(3):
                point[f"lam{j + 1}"] = lam[j]
                point[f"beta{j + 1}"] = beta[j]
            for diff in diffs:
                assert diff.evaluate(point) >= 0


def test_invalid_x_rejected():
    with pytest.raises(ValueError):
        symbolic_difference((Fraction(2, 3), Fraction(1, 3)))
    with pytest.raises(ValueError):
        symbolic_difference((Fraction(1, 2),))


def test_linear_reconstruct():
    x = v("x")
    assert linear_reconstruct("x", 0, 3, 1, 7) == 3 + 4 * x
    assert linear_reconstruct("x", 0, 5, 1, 5) == MultiPoly.constant(5)
    with pytest.raises(ValueError):
        linear_reconstruct("x", 1, 2, 1, 3)


def test_helper_symbolic_matches_endpoints():
    p0 = HELPERS["P0"].symbolic
    assert p0.degree("x1") == 1
    x2 = Fraction(1, 2)
    x3 = Fraction(3, 4)
    low = p0.evaluate({"x1": 0, "x2": x2, "x3": x3})
    assert low == x2**2 + x2 * x3 - 2 * x2**2 * x3


def test_verify_n4_passes():
    report = verify_n4(points=default_x_pairs()[:10])
    assert report.summary
    assert all(c.passed for c in report.identity_checks)


def test_verify_n4_mutated_rhs_fails():
    # coefficient 4 -> 5 breaks the identity on every grid point
    x1, x2 = Fraction(1, 3), Fraction(2, 3)
    d = symbolic_difference((x1, x2))[0]
    b1, b2 = v("beta1"), v("beta2")
    wrong = 5 * b2 * b2 * Fraction(x1, 1) / x2 + 4 * b1 * b1 * Fraction(
        1 - x2, 1
    ) / (1 - x1)
    bounds = {"beta1": 2, "beta2": 2}
    assert not grid_identity_check(d, wrong, bounds)


def test_verify_n5_cone_passes():
    report = verify_n5_cone({x: symbolic_difference(x) for x in POINTS})
    assert report.summary


def test_verify_n5_cone_perturbed_coefficient(monkeypatch):
    original = certs.cone_coefficients_d2

    def perturbed(x):
        table = original(x)
        table[(1, 1, 1)] = table[(1, 1, 1)] + 1
        return table

    differences = {x: symbolic_difference(x) for x in POINTS[:2]}
    monkeypatch.setattr(certs, "cone_coefficients_d2", perturbed)
    report = certs.verify_n5_cone(differences)
    failed = [c for c in report.identity_checks if not c.passed]
    assert failed
    assert "(1, 1, 1)" in failed[0].detail

    def failed_checks():
        report = certs.verify_n5_cone(differences)
        return {c.name: c.detail for c in report.identity_checks
                if not c.passed}

    # The detail comes from the first failing point.
    def perturbed_per_point(x):
        table = original(x)
        key = (1, 1, 1) if tuple(x) == POINTS[0] else (2, 2, 2)
        table[key] = table[key] + 1
        return table

    monkeypatch.setattr(certs, "cone_coefficients_d2", perturbed_per_point)
    assert failed_checks()["n5 cone: constant part (18 coefficients)"] == (
        "mismatched coefficients: (1, 1, 1)"
    )

    # Row 3 of the constant part also gives the l1 table, and through the
    # mirror point the l0 part.
    def perturbed_row3(x):
        table = original(x)
        table[(3, 1, 2)] = table[(3, 1, 2)] + Fraction(1, 3)
        return table

    monkeypatch.setattr(certs, "cone_coefficients_d2", perturbed_row3)
    assert failed_checks() == {
        "n5 cone: constant part (18 coefficients)":
            "mismatched coefficients: (3, 1, 2)",
        "n5 cone: l1 part (6 coefficients)": "mismatched coefficients: (1, 2)",
        "n5 cone: l0 part (mirror of l1)": None,
    }

    # p1^3 alone, without its -p1 q1^2 partner, lies outside the span of
    # the p_k (p_i p_j - q_i q_j).
    monkeypatch.setattr(certs, "cone_coefficients_d2", original)
    slopes = certs.to_slope_variables
    monkeypatch.setattr(certs, "to_slope_variables",
                        lambda diff, x: slopes(diff, x) + v("p1") ** 3)
    assert failed_checks() == {
        "n5 cone: constant part (18 coefficients)":
            "residual outside the decomposition basis",
    }


def test_no_points_is_an_error():
    with pytest.raises(ValueError):
        verify_n5(points=[])
    with pytest.raises(ValueError):
        verify_n5_cone({})
    with pytest.raises(ValueError):
        verify_n5_quadratic({})
    with pytest.raises(ValueError):
        verify_n4(points=[])


def test_verify_n5_quadratic_passes():
    report = verify_n5_quadratic({x: symbolic_difference(x) for x in POINTS})
    assert report.summary
    names = [c.name for c in report.identity_checks]
    assert any("f2 mirror" in n for n in names)
    assert any("minor factorization: M2[3]" in n for n in names)


def test_positivity_check_methods():
    x1, x2, x3 = v("x1"), v("x2"), v("x3")
    assert positivity_check(x2 * (1 - x3)) is True
    assert positivity_check(HELPERS["P0"].value_a) is True
    assert positivity_check(x1 - x2) is False
    assert positivity_check(MultiPoly.constant(0)) is False
    with pytest.raises(ValueError):
        positivity_check(v("y"))


# Power-to-Bernstein conversion and degree elevation in Fraction arithmetic:
# the oracle for the MultiPoly test in certificates.
def _power_to_bernstein(coeffs, degrees):
    bern = coeffs
    for axis, d in enumerate(degrees):
        new = {}
        for key, c in bern.items():
            k = key[axis]
            for i in range(k, d + 1):
                w = Fraction(math.comb(i, k), math.comb(d, k))
                nk = key[:axis] + (i,) + key[axis + 1 :]
                new[nk] = new.get(nk, Fraction(0)) + w * c
        bern = new
    return bern


def _elevate(bern, degrees):
    for axis, d in enumerate(degrees):
        new = {}
        for key, c in bern.items():
            k = key[axis]
            for i in (k, k + 1):
                w = Fraction(
                    math.comb(d, k) * math.comb(1, i - k), math.comb(d + 1, i)
                )
                nk = key[:axis] + (i,) + key[axis + 1 :]
                new[nk] = new.get(nk, Fraction(0)) + w * c
        bern = new
    degrees = [d + 1 for d in degrees]
    return bern, degrees


def first_bernstein_elevation(cube, limit=4):
    """The fewest degree elevations after which every Bernstein coefficient
    of ``cube`` is >= 0 and one is > 0, or None beyond ``limit``."""
    names = sorted(cube.used_variables())
    degrees = [cube.degree(name) for name in names]
    coeffs = dict(cube.with_variables(names).terms.items())
    bern = _power_to_bernstein(coeffs, degrees)
    for elevation in range(limit + 1):
        values = bern.values()
        if all(c >= 0 for c in values) and any(c > 0 for c in values):
            return elevation
        bern, degrees = _elevate(bern, degrees)
    return None


def random_cube_poly(rng):
    # Products of v, 1 - v and v^2 - v + s with s near 1/4, shifted down a
    # little: positive ones that need 0 to 4 elevations, and others.
    names = ("a", "b", "c")[: rng.randint(1, 3)]
    p = MultiPoly.constant(0)
    for _ in range(rng.randint(1, 3)):
        term = MultiPoly.constant(rng.randint(1, 4))
        for name in names:
            a = v(name)
            term = term * rng.choice(
                [a, 1 - a, a * a - a + Fraction(rng.randint(8, 16), 32)]
            )
        p = p + term
    return p - Fraction(rng.randint(0, 2), 64)


def test_bernstein_test_matches_fraction_oracle(monkeypatch):
    rng = random.Random(0)
    cubes = [random_cube_poly(rng) for _ in range(60)]
    firsts = [first_bernstein_elevation(cube) for cube in cubes]
    assert set(firsts) == {0, 1, 2, 3, 4, None}
    for elevations in range(5):
        monkeypatch.setattr(certs, "_ELEVATIONS", elevations)
        for cube, first in zip(cubes, firsts):
            expected = first is not None and first <= elevations
            assert certs._bernstein_nonnegative(cube) == expected


def test_bernstein_elevation_cases(monkeypatch):
    a = v("a")
    needs_one = a * a - a + Fraction(1, 3)  # minimum 1/12 at a = 1/2
    touches_zero = (a - Fraction(1, 2)) ** 2
    monkeypatch.setattr(certs, "_ELEVATIONS", 0)
    assert not certs._bernstein_nonnegative(needs_one)
    monkeypatch.setattr(certs, "_ELEVATIONS", 1)
    assert certs._bernstein_nonnegative(needs_one)
    monkeypatch.setattr(certs, "_ELEVATIONS", 4)
    assert not certs._bernstein_nonnegative(touches_zero)
    assert first_bernstein_elevation(needs_one) == 1
    assert first_bernstein_elevation(touches_zero) is None


def test_negative_second_minor_detected():
    # sanity for the minor logic: an indefinite matrix has a negative
    # second leading principal minor
    m = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
    assert certs.leading_minor(m, 2) < 0


def test_mirror_x():
    x = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    assert mirror_x(x) == (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    y = (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
    assert mirror_x(y) == (Fraction(4, 7), Fraction(5, 7), Fraction(6, 7))


def test_compa_violation_witness_exists():
    found = compa_violation_witness(tries=3000)
    assert found is not None
    lam, beta, value = found
    assert value < 0
    assert all(abs(b) <= l for b, l in zip(beta, lam))


def test_sub_verifiers_check_identities_only():
    differences = {x: symbolic_difference(x) for x in POINTS[:2]}
    for verify in (verify_n5_cone, verify_n5_quadratic):
        with pytest.raises(TypeError):
            verify(differences, positivity=False)
        report = verify(differences)
        assert report.summary and report.identity_checks
        assert report.positivity_checks == []


def test_verify_n5_builds_each_point_once_per_call(monkeypatch, tmp_path):
    names = ("symbolic_difference", "to_slope_variables",
             "cone_coefficients_d2", "positivity_check")
    counts = CallLog(monkeypatch, tmp_path / "calls", names)
    for _ in range(2):  # a second call recomputes: no cache outlives a call
        counts.clear()
        report = verify_n5()
        assert report.summary
        assert counts["symbolic_difference"] == 30
        # one substitution per difference: the minoration and the majoration
        assert counts["to_slope_variables"] == 60
        # at each triple and at its mirror point
        assert counts["cone_coefficients_d2"] <= 60
        assert counts["positivity_check"] < len(report.positivity_checks)
        gc.collect()
        assert not any(isinstance(o, certs._Point) for o in gc.get_objects())


def generic_form(m, u, w):
    """The oracle: the bilinear form sum m_ij u_i w_j, term by term."""
    return sum(ui * sum(mij * wj for mij, wj in zip(row, w))
               for ui, row in zip(u, m))


def generic_matrix(table, *k):
    return [[4 * table[(*k, min(i, j), max(i, j))] for j in (1, 2, 3)]
            for i in (1, 2, 3)]


def random_table(rng, rows):
    return {
        (*row, i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for row in rows for i in (1, 2, 3) for j in range(i, 4)
    }


@pytest.mark.parametrize("seed", range(5))
def test_forms_from_coefficients_match_generic_expansion(seed):
    rng = random.Random(seed)
    p = [v(name) for name in certs.P_NAMES]
    q = [v(name) for name in certs.Q_NAMES]
    s = [a + b for a, b in zip(p, q)]
    t = [a - b for a, b in zip(p, q)]
    # (i, j) keys: the l1 table, also with index-reversed symbols
    table = random_table(rng, [()])
    assert len(table) == 6
    m = generic_matrix(table)
    assert certs._cone_poly(table) == generic_form(m, s, t)
    assert certs._cone_poly(
        table, certs.P_NAMES[::-1], certs.Q_NAMES[::-1]
    ) == generic_form(m, s[::-1], t[::-1])
    assert certs._table_form(table, ((1, certs.Q_NAMES),)) == (
        generic_form(m, q, q)
    )
    # (k, i, j) keys: the constant-part table
    table = random_table(rng, [(1,), (2,), (3,)])
    assert len(table) == 18
    ms = [generic_matrix(table, k) for k in (1, 2, 3)]
    assert certs._cone_poly(table) == sum(
        pk * generic_form(mk, s, t) for pk, mk in zip(p, ms)
    )
    assert certs._table_form(
        table, ((1, certs.Q_NAMES),), certs.P_NAMES
    ) == sum(pk * generic_form(mk, q, q) for pk, mk in zip(p, ms))


def list_scan_triples(count):
    """The reference search: membership tested by scanning the list."""
    out, k = [], 0
    denoms = (7, 11, 13, 17, 19, 23)
    while len(out) < count:
        d = denoms[k % len(denoms)]
        vals = sorted(random.Random(k).sample(range(1, d), 3))
        triple = tuple(Fraction(val, d) for val in vals)
        if triple not in out:
            out.append(triple)
        k += 1
    return out


def test_default_x_triples():
    assert default_x_triples() == list_scan_triples(30)
