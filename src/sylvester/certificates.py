"""Symbolic recomputation and verification of the optimization certificates
behind the n = 4 and n = 5 convex-position inequalities.

The two optimization differences (symmetrized-versus-general and
general-versus-shaken) are recomputed from the comb calculus at exact
rational abscissa points, both from one integrand of the general family per
point by beta := 0 (the symmetral) and beta := lam (the shaken family), and
matched against their published closed forms:
the two n = 4 displays, the n = 5 cone decomposition (18 + 6 coefficients
with the Lin-interpolated helper polynomials P0..P8), and the n = 5
quadratic forms with their leading-principal-minor factorizations.  The
18 constant-part coefficients are the only transcribed table; the rest is
read off it: the 6 l1 coefficients are row 3 divided by (1 - x3), the cubic
form's matrix M^(k) is four times row k, and the first quadratic form's
matrix N is M^(1) / (4 x1^2 (1 - x3)(x3 - x1) / x3).  The minors N[2],
M1[2] and M2[2] share one Lin factor.  Every check is an exact MultiPoly
expression: the decompositions and forms are the bilinear forms of the
M^(k), and a failing cone check names its wrong coefficients by reading
them off the monomials they alone own.

Each abscissa point of a verify call is a `_Point`: a tuple of its
abscissas that also carries what the checks derive from x alone, built on
first use and kept as long as the point.  Those are the Lin helper values
at x, each evaluated on first read, the slope maps lam -> p and beta -> q,
and the cone table, built row by row.  The points are independent, so
`parallel.fork_map` shares them out among the usable CPUs: all the work of
one point runs in one process, and only the check outcomes, not
polynomials, come back.  `verify_n5` builds a triple's `_Point` and both
its differences in the process that checks it, and runs the cone and
quadratic checks there on them, so they share its tables, which are freed
when that triple is done.  What one check alone reads, the l1 tables and
the mirror point's row 3, the only row the l0 check reads, is not kept.
The positivity claims do not depend on x, so `verify_n5`, not its two
sub-verifiers, certifies them: each distinct polynomial among them once
per call, in the one `fork_map` round that also checks the triples.

Every "> 0" claim is certified on the ordered simplex
0 < x1 < x2 < x3 < 1, mapped onto the open unit cube, by a Bernstein
certificate: the power coefficients of p(t/(1+t)) (1+t)^d are the
Bernstein coefficients of p on [0, 1]^d up to positive binomial factors, so
when they are all nonnegative p is a sum of nonnegative monomials in the
v and 1 - v.  That certificate is the only method: a claim it does not
certify fails.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .poly import MultiPoly, as_poly, divide_exact, grid_identity_check
from .rationals import FrozenRecord, Record, to_fraction
from .segments import (
    U0,
    U1,
    in_compa,
    profile_to_offsets,
    symmetrized_integrand,
)

X1, X2, X3 = "x1", "x2", "x3"
XVARS = (X1, X2, X3)


def _var(name):
    return MultiPoly.variable(name)


class StructureError(Exception):
    """A recomputed difference lacks a structural property the certificates
    rest on (degree cap, beta parity, absent symbols).  An internal fault,
    not bad input, hence not a ValueError."""


# -- reports ---------------------------------------------------------------


class IdentityCheck(Record):
    __slots__ = _fields = ("name", "grid_points", "passed", "detail")

    def __init__(self, name, grid_points, passed, detail=None):
        self.name = name
        self.grid_points = grid_points
        self.passed = passed
        self.detail = detail

    def to_json(self):
        doc = {
            "name": self.name,
            "grid_points": self.grid_points,
            "pass": self.passed,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


class PositivityCheck(Record):
    __slots__ = _fields = ("name", "passed")
    method = "monomial-certificate"

    def __init__(self, name, passed):
        self.name = name
        self.passed = passed

    def to_json(self):
        return {"name": self.name, "method": self.method, "pass": self.passed}


class CertificateReport(Record):
    __slots__ = _fields = ("identity_checks", "positivity_checks")

    def __init__(self, identity_checks=None, positivity_checks=None):
        self.identity_checks = (
            [] if identity_checks is None else identity_checks)
        self.positivity_checks = (
            [] if positivity_checks is None else positivity_checks)

    @property
    def summary(self) -> bool:
        return all(
            c.passed for c in self.identity_checks + self.positivity_checks
        )

    def merge(self, other):
        self.identity_checks.extend(other.identity_checks)
        self.positivity_checks.extend(other.positivity_checks)
        return self

    def to_json(self):
        return {
            "identity_checks": [c.to_json() for c in self.identity_checks],
            "positivity_checks": [c.to_json() for c in self.positivity_checks],
            "summary": "pass" if self.summary else "fail",
        }


# -- the optimization differences -----------------------------------------


def symbolic_difference(x):
    """The pair (majoration, minoration) of differences of symmetrized
    integrands at one abscissa point: symmetric family minus general family,
    and general family minus shaken family.

    ``x`` holds the N = 2 or 3 interior abscissas (`comb_poly` rejects
    unsorted ones or ones outside (0, 1)); each difference is a polynomial in
    l0, l1 and the per-slice lam_j / beta_j symbols.

    Both come from one integrand of the general family, with slice parts
    L + lam +- beta: beta := 0 gives the symmetral (both parts L + lam) and
    beta := lam the shaken family (parts L + 2 lam and L).  Substitution is
    a ring homomorphism, so this is exact.
    """
    x = [to_fraction(v) for v in x]
    N = len(x)
    if N not in (2, 3):
        raise ValueError("N must be 2 or 3")
    xbar = [Fraction(0)] + x + [Fraction(1)]
    l0, l1 = _var("l0"), _var("l1")
    lam = [_var(f"lam{j}") for j in range(1, N + 1)]
    names = [f"beta{j}" for j in range(1, N + 1)]
    beta = [_var(name) for name in names]
    top = [l0 + (l1 - l0) * xb + lj for xb, lj in zip(x, lam)]
    general = symmetrized_integrand(
        xbar, [t + b for t, b in zip(top, beta)],
        [t - b for t, b in zip(top, beta)],
    )
    pair = (general.substitute(dict.fromkeys(names, 0)) - general,
            general - general.substitute(dict(zip(names, lam))))
    for diff, kind in zip(pair, ("majoration", "minoration")):
        _check_structure(diff, N, kind)
    return pair


def _check_structure(diff, N, kind):
    if diff.total_degree() > N + 2:
        raise StructureError("degree cap exceeded")
    if diff.has_odd_total([f"beta{j}" for j in range(1, N + 1)]):
        raise StructureError("odd beta-degree term survived")
    absent = {U0, U1}
    if kind == "majoration" and N == 2:
        absent |= {"l0", "l1"}
    if diff.used_variables() & absent:
        raise StructureError(
            f"{kind} difference should not involve {', '.join(sorted(absent))}"
        )


def to_slope_variables(diff, x):
    """Rewrite lam/beta in terms of the slope-difference symbols p/q.

    The lam block is substituted first and the beta block second.  Their
    values share no symbol, so this is the simultaneous substitution, with
    smaller products of powers."""
    for block in _point(x).slopes:
        diff = diff.substitute(block)
    return diff


def _split_l0_l1(diff):
    """Split diff = l0*part0 + l1*part1 + part2; degree checks."""
    if diff.degree("l0") > 1 or diff.degree("l1") > 1:
        raise StructureError("difference is not linear in l0 and l1")
    part0 = diff.coefficient_poly("l0", 1)
    if part0.degree("l1"):
        raise StructureError("unexpected l0*l1 cross term")
    part0 = part0.coefficient_poly("l1", 0)
    rest = diff.coefficient_poly("l0", 0)
    part1 = rest.coefficient_poly("l1", 1)
    return part0, part1, rest.coefficient_poly("l1", 0)


# -- Lin-interpolated helper polynomials -----------------------------------


def linear_reconstruct(var, a, value_a, b, value_b):
    """The unique polynomial linear in ``var`` taking value_a at var = a and
    value_b at var = b.  Endpoints may be rationals or polynomials; the
    divided difference must divide exactly."""
    a, b, value_a, value_b = map(as_poly, (a, b, value_a, value_b))
    span = b - a
    if span.is_zero():
        raise ValueError("coincident interpolation endpoints")
    slope = divide_exact(value_b - value_a, span)
    return value_a + (_var(var) - a) * slope


class LinHelper(FrozenRecord):
    """Degree-1-in-one-variable polynomial given by its two endpoint values.
    An endpoint location is a rational or a MultiPoly.  No slots: `symbolic`
    is cached in the instance dict."""

    _fields = ("var", "end_a", "value_a", "end_b", "value_b")

    def __init__(self, var, end_a, value_a, end_b, value_b):
        self.var = var
        self.end_a = end_a
        self.value_a = value_a
        self.end_b = end_b
        self.value_b = value_b

    @cached_property
    def symbolic(self) -> MultiPoly:
        return linear_reconstruct(
            self.var, self.end_a, self.value_a, self.end_b, self.value_b
        )


def _helpers():
    x1, x2, x3 = _var(X1), _var(X2), _var(X3)
    tbl = {}

    def lin(name, var, end_a, va, end_b, vb):
        tbl[name] = LinHelper(var, end_a, va, end_b, vb)

    lin("P0", X1, 0, x2**2 + x2 * x3 - 2 * x2**2 * x3, x2,
        2 * x2 * (1 - x2) * (x3 - x2))
    lin("P1", X3, x2,
        x2 * (1 - x2) * (-x1 * x2 - x1 + 2 * x2) * (x2 - x1), 1,
        (1 - x2) * ((x1 * x2 - x1) ** 2 + (1 - x1) * (x2 - x1) * x2))
    lin("P2", X3, x2, x2 * (-x1 * x2 - x1 + 2 * x2) * (x2 - x1), 1,
        (x1 * x2 - x2) ** 2 + (x1 - x2) ** 2)
    lin("P3", X3, x2, (1 - x2) * (x1 * x2 + x1 - 2 * x2) * (x1 - x2), 1,
        x2 * (1 - x1) ** 2 * (1 - x2))
    lin("P4", X1, 0, x2 * (-2 * x2 * x3 - x2 + 3 * x3), x2,
        2 * x2 * (1 - x2) * (x3 - x2))
    # The x2 endpoint of P5 is x2(1-x2)(x3-x2): the recomputation pins the
    # value (a stray factor 2 appears in some statements of it), and all
    # four P5-dependent coefficients match with this reading.
    lin("P5", X1, 0, x2 * (-x2 * x3 - x2 + 2 * x3), x2,
        x2 * (1 - x2) * (x3 - x2))
    lin("P6", X1, 0, x2 * x3**2 * (1 - x2), x2,
        x2 * (-x2 * x3 - x2 + 2 * x3) * (x3 - x2))
    lin("P7", X1, 0, (x2 * x3 - x3) ** 2 + (x2 - x3) ** 2, x2,
        (1 - x2) * (-x2 * x3 - x2 + 2 * x3) * (x3 - x2))
    lin("P8", X1, 0,
        x2 * ((x2 * x3 - x2) ** 2 + x3 * (1 - x2) * (x3 - x2)), x2,
        x2 * (1 - x2) * (-x2 * x3 - x2 + 2 * x3) * (x3 - x2))
    return tbl


HELPERS = _helpers()


# -- abscissa points and their derived data --------------------------------


class _Point(tuple):
    """Abscissas that carry the data the checks derive from them alone: the
    Lin helper values at x, each evaluated on first read (`_LinValues`),
    the slope maps lam -> p and beta -> q, and the 18-entry cone table.

    Each field is built on first use and lives as long as the point, so a
    caller that passes one point to several checks builds each table once.
    The functions taking an abscissa tuple x accept a point too."""

    def __new__(cls, x):
        return super().__new__(cls, map(to_fraction, x))

    @cached_property
    def helper_values(self):
        return _LinValues(HELPERS, self)

    @cached_property
    def slopes(self):
        """The blocks ({lam_j: its offset in the slope symbols p},
        {beta_j: its offset in q})."""
        xbar = [Fraction(0), *self, Fraction(1)]
        blocks = []
        for stem, symbol in (("lam", "p"), ("beta", "q")):
            profile = [_var(f"{symbol}{j}") for j in range(1, len(self) + 1)]
            offsets = profile_to_offsets(profile, xbar)[1:-1]
            blocks.append({f"{stem}{j}": offset
                           for j, offset in enumerate(offsets, 1)})
        return tuple(blocks)

    @cached_property
    def table(self):
        return cone_coefficients_d2(self)


def _point(x):
    return x if isinstance(x, _Point) else _Point(x)


# -- published coefficient tables (evaluated at numeric x) -----------------


class _LinValues(Mapping):
    """{name: value at x} of the Lin helpers ``helpers``.  A helper is
    evaluated on the first read of a name it has, once however many names
    share it."""

    def __init__(self, helpers, x):
        self._helpers = helpers
        self._xs = dict(zip(XVARS, x))
        self._values = {}  # id of a helper -> its value

    def __getitem__(self, name):
        h = self._helpers[name]
        value = self._values.get(id(h))
        if value is None:
            value = self._values[id(h)] = h.symbolic.evaluate(self._xs)
        return value

    def __iter__(self):
        return iter(self._helpers)

    def __len__(self):
        return len(self._helpers)


def cone_coefficients_d2(x):
    """The 18 coefficients c_{k,(i,j)} of the shaken-difference constant
    part, keyed by (k, i, j) with i <= j."""
    x = _point(x)
    return {key: c for k in (1, 2, 3) for key, c in cone_row(x, k).items()}


def cone_row(x, k):
    """Row k of `cone_coefficients_d2`: its 6 entries (k, i, j), which read
    only the Lin helper values they name."""
    x = _point(x)
    x1, x2, x3 = x
    P = x.helper_values
    if k == 1:
        return {
            (1, 1, 1): 2 * x1**3 * (1 - x3) * (1 - x2) * (x3 - x1) / x3,
            (1, 1, 2): P["P0"] * (1 - x3) * x1**2 / x3,
            (1, 1, 3): 2 * x1**2 * x2 * (1 - x3) ** 2 * (x3 - x1) / x3,
            (1, 2, 2): 2 * P["P1"] * (1 - x3) * x1 / (x3 * (1 - x1)),
            (1, 2, 3): 2 * P["P2"] * (1 - x3) ** 2 * x1 / (x3 * (1 - x1)),
            (1, 3, 3):
                2 * P["P3"] * (1 - x3) ** 2 * x1 / ((1 - x2) * (1 - x1)),
        }
    if k == 2:
        return {
            (2, 1, 1): x1**2 * (1 - x3) * P["P4"] / x3,
            (2, 1, 2):
                2 * (1 - x2) * x1**2 * (1 - x3) * P["P5"] / (x3 * (1 - x1)),
            (2, 1, 3): 2 * x1**2 * (1 - x3) ** 2 * P["P5"] / (x3 * (1 - x1)),
            (2, 2, 2): (1 - x3) * x1 * P["P0"] * P["P5"]
            / (x3 * (1 - x1) * (x3 - x1)),
            (2, 2, 3):
                2 * (1 - x3) ** 2 * x1 * x2 * P["P5"] / (x3 * (1 - x1)),
            (2, 3, 3): (1 - x3) ** 2 * x1 * P["P4"] / (1 - x1),
        }
    return {
        (3, 1, 1): 2 * x1**2 * (1 - x3) * P["P6"] / (x2 * x3),
        (3, 1, 2): 2 * x1**2 * (1 - x3) * P["P7"] / (x3 * (1 - x1)),
        (3, 1, 3): 2 * (1 - x3) ** 2 * (1 - x2) * (x3 - x1) * x1**2 / (1 - x1),
        (3, 2, 2): 2 * (1 - x3) * x1 * P["P8"] / (x3 * (1 - x1)),
        (3, 2, 3): (1 - x3) ** 2 * x1 * P["P0"] / (1 - x1),
        (3, 3, 3): 2 * (1 - x3) ** 3 * (x3 - x1) * x1 * x2 / (1 - x1),
    }


def _l1_coefficients(table, x):
    """The 6 coefficients c_{(i,j)} of the l1 part, keyed by (i, j), i <= j:
    row 3 of the constant-part ``table`` at x divided by (1 - x3)."""
    scale = 1 / (1 - to_fraction(x[2]))
    return {(i, j): c * scale for (k, i, j), c in table.items() if k == 3}


#: The slope-difference symbols of the three slices.
P_NAMES = ("p1", "p2", "p3")
Q_NAMES = ("q1", "q2", "q3")


def _table_form(table, signed, lead=()):
    """The sum, over the keys (*k, i, j) of ``table`` and the (sign, u) of
    ``signed``, of sign * w * c * lead_k * u_i * u_j, w = 4 if i = j else 8,
    with no lead_k for (i, j) keys; ``lead`` and each u are names of three
    symbols.  For one (1, u) that is u^T M u, M the symmetric matrix of the
    4 c_ij, or for (k, i, j) keys sum_k lead_k u^T M^(k) u, built as one
    MultiPoly straight from its integer numerators over the lcm of the
    entries' denominators."""
    variables = tuple(dict.fromkeys([*lead, *(v for _, u in signed for v in u)]))
    index = {v: n for n, v in enumerate(variables)}
    den = math.lcm(*(c.denominator for c in table.values()))
    nums = {}
    for (*k, i, j), c in table.items():
        weight = (4 if i == j else 8) * c.numerator * (den // c.denominator)
        for sign, u in signed:
            exps = [0] * len(variables)
            for name in (*(lead[m - 1] for m in k), u[i - 1], u[j - 1]):
                exps[index[name]] += 1
            exps = tuple(exps)
            nums[exps] = nums.get(exps, 0) + sign * weight
    return MultiPoly.from_numerators(variables, nums, den)


def _cone_poly(table, p=P_NAMES, q=Q_NAMES):
    """Four times the cone decomposition with coefficients ``table``, over
    the slope symbols named ``p`` and ``q``: the (p + q, p - q) form of the
    symmetric matrix M of the 4 c_ij for the l1 table, or with (k, i, j)
    keys the sum of p_k times the form of M^(k).  For symmetric M,
    (p + q)^T M (p - q) = p^T M p - q^T M q."""
    return _table_form(table, ((1, p), (-1, q)), p)


def _cone_outcome(target, table):
    """True if ``target`` is _cone_poly(table), else the mismatch detail."""
    return target == _cone_poly(table) or _attribute_mismatch(target, table)


def _attribute_mismatch(target, table):
    """Name the table entries ``target`` disagrees with.

    Key (k, i, j) alone owns the monomial p_k q_i q_j, and key (i, j) the
    monomial q_i q_j; there _cone_poly has the coefficient -4 c, or -8 c
    when i < j.  Coefficients read off the target that do not rebuild it
    leave a residual outside the decomposition basis."""
    fitted = {}
    for key in table:
        i, j = key[-2:]
        names = (*(P_NAMES[k - 1] for k in key[:-2]),
                 Q_NAMES[i - 1], Q_NAMES[j - 1])
        poly = target.with_variables(dict.fromkeys(target.variables + names))
        exps = tuple(names.count(v) for v in poly.variables)
        coefficient = poly.terms.get(exps, Fraction(0))
        fitted[key] = -coefficient / (4 if i == j else 8)
    if _cone_poly(fitted) != target:
        return "residual outside the decomposition basis"
    wrong = sorted(k for k in table if fitted[k] != table[k])
    return "mismatched coefficients: " + ", ".join(map(str, wrong))


def f1_display(x, beta=("beta1", "beta2", "beta3")):
    """Published closed form of the l0 coefficient of the symmetrized
    difference (times 8), at numeric x, in the ``beta`` symbols."""
    x1, x2, x3 = map(to_fraction, x)
    b1, b2, b3 = map(_var, beta)
    f = (
        b1 * b2 * (x3 - 1)
        + b1 * x2 * b3
        + b2 * b3 * x1
        - b3 * (b3 * x1 * x2 + b1 * x2 + b2 * x1 - x2 * b3) * (Fraction(1) / x3)
        + b1 * b1 * Fraction((1 - x3) * (1 - x2), 1) / (1 - x1)
        + b2 * b2 * Fraction((1 - x3) * (1 - x1), 1) / (1 - x2)
    )
    return f * 8


def f3_display(x):
    """Published closed form of the constant (l-free) part of the
    symmetrized difference (times 4), at numeric x."""
    x1, x2, x3 = map(to_fraction, x)
    b1, b2, b3 = _var("beta1"), _var("beta2"), _var("beta3")
    l1, l2, l3 = _var("lam1"), _var("lam2"), _var("lam3")
    f = (
        b1 * (b1 * l3 + 2 * b3 * l1 - b1 * l1)
        + 2 * x1 * b2 * b2 * (l2 * x3 - l2 + l3) * (Fraction(1) / x2)
        + (b1 - b3) ** 2 * (l1 - l3) * Fraction(x1 - x2, 1) / (x1 - x3)
        - b3
        * (
            2 * b1 * l3 * x2
            + 2 * b2 * l3 * x1
            - b3 * l1 * x2
            - b3 * l2 * x1
            + b3 * l3 * (x1 - x2)
        )
        * (Fraction(1) / x3)
        + 2 * b2 * b2 * (l1 - l2 * x1) * (Fraction(1 - x3, 1) / (1 - x2))
        + b1
        * (
            b1 * (l1 * x2 - l1 * x3 + l2 * x3 + l3 * x2 - l2 - l3)
            + 2 * b2 * l1 * (1 - x3)
            + 2 * b3 * l1 * (1 - x2)
        )
        * (Fraction(1) / (x1 - 1))
    )
    return f * 4


def mirror_x(x):
    """The x -> 1 - x reflection, which maps slice j to slice 4 - j: a
    mirrored form is the form at mirror_x(x) in index-reversed symbols."""
    return tuple(1 - to_fraction(v) for v in reversed(x))


# -- quadratic-form tables -------------------------------------------------


def _cone_matrix(table, k):
    """M^(k): four times row k of the cone table, symmetrically completed."""
    return tuple(
        tuple(4 * table[(k, min(i, j), max(i, j))] for j in (1, 2, 3))
        for i in (1, 2, 3)
    )


def leading_minor(matrix, k):
    rows = [row[:k] for row in matrix[:k]]
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


# -- positivity certification ---------------------------------------------


def _simplex_substitution(expr):
    # Order simplex 0 < x1 < x2 < x3 < 1 <-> open cube (a, b, c) in (0,1)^3.
    a, b, c = _var("a"), _var("b"), _var("c")
    return expr.substitute(
        {X3: 1 - c, X2: (1 - c) * b, X1: (1 - c) * b * a}
    )


#: Degree elevations the Bernstein test tries before it gives up.
_ELEVATIONS = 4


def _homogenized(cube):
    """(p homogenized in one variable w per axis v, up to the degree of p
    in v; the lift {w: 1 + v}) of a polynomial p on the cube."""
    names = sorted(cube.used_variables())
    degrees = [cube.degree(v) for v in names]
    homs = [f"{v}'" for v in names]
    nums, den = cube.with_variables(names).numerators()
    terms = {e + tuple(d - k for d, k in zip(degrees, e)): c
             for e, c in nums.items()}
    return (MultiPoly.from_numerators(names + homs, terms, den),
            {w: 1 + _var(v) for w, v in zip(homs, names)})


def _bernstein_form(cube):
    """The homogenized ``cube`` with its lift substituted one axis at a
    time, which builds no product of powers of several 1 + v."""
    form, lift = _homogenized(cube)
    for w, value in lift.items():
        form = form.substitute({w: value})
    return form


def _bernstein_nonnegative(cube):
    """Bernstein certificate that a nonzero ``cube`` p is > 0 on (0, 1)^d.

    p is homogenized in one variable w per axis v, up to the degree d of p
    in v, and w = 1 + v is substituted: with v read as t, that gives
    p(t/(1+t)) (1+t)^d.  Its power coefficients are the Bernstein
    coefficients of p in the basis prod v^i (1-v)^(d-i) times positive
    binomials, so when all are >= 0, p is a sum of nonnegative monomials in
    the v and 1 - v.  Each multiplication by prod (1 + v) elevates every
    degree by one; that product is built only if an elevation is needed."""
    form = _bernstein_form(cube)
    if form.has_nonnegative_coefficients():
        return True
    lift = math.prod(1 + _var(v) for v in cube.used_variables())
    for _ in range(_ELEVATIONS):
        form = form * lift
        if form.has_nonnegative_coefficients():
            return True
    return False


def positivity_check(expr: MultiPoly) -> bool:
    """Whether a Bernstein certificate proves ``expr`` > 0 on the open
    ordered simplex 0 < x1 < x2 < x3 < 1.  False means no proof was found,
    not that ``expr`` takes a nonpositive value there."""
    if not expr.used_variables() <= set(XVARS):
        raise ValueError("positivity domain is the x-simplex only")
    return not expr.is_zero() and _bernstein_nonnegative(
        _simplex_substitution(expr)
    )


# -- default evaluation grids ----------------------------------------------


def default_x_pairs():
    """The 21 admissible (x1, x2) points of `verify_n4`: every pair of
    eighths 0 < x1 < x2 < 1."""
    return list(combinations([Fraction(k, 8) for k in range(1, 8)], 2))


def default_x_triples():
    """The 30 admissible (x1, x2, x3) points of `verify_n5`,
    denominator-diverse and deterministic: draw k takes three numerators
    below its denominator d, cycling through 7, 11, 13, 17, 19 and 23, with
    ``random.Random(k)``.  These 30 draws are distinct."""
    return [
        tuple(Fraction(v, d)
              for v in sorted(random.Random(k).sample(range(1, d), 3)))
        for k, d in enumerate((7, 11, 13, 17, 19, 23) * 5)
    ]


# -- verification entry points ---------------------------------------------

_N4_BOUNDS = {
    "lam1": 4, "lam2": 4, "beta1": 4, "beta2": 4,
    "l0": 4, "l1": 4,
}


def _run_checks(points, checks_at, claims=()):
    """The report of one check run: one IdentityCheck per name of
    ``checks_at(x)``, the ordered {check name: outcome} at one x point, and
    one PositivityCheck per (name, expr) of ``claims``.  One `fork_map` call
    runs the points and the distinct exprs together.

    An outcome is True where the check holds; a failing one is False or its
    detail string, and a check reports the detail of its first failing
    point.  No point would make every check pass vacuously, so it is an
    error."""
    from .parallel import fork_map  # imported here: see its docstring

    if not points:
        raise ValueError("identity checks need at least one x point")
    distinct = list(dict.fromkeys(expr for _, expr in claims))
    tasks = [*((checks_at, x) for x in points),
             *((positivity_check, expr) for expr in distinct)]
    results = fork_map(lambda task: task[0](task[1]), tasks)
    names, details = {}, {}
    for outcomes in results[:len(points)]:
        for name, outcome in outcomes.items():
            names[name] = None
            if outcome is not True:
                details.setdefault(name, outcome or None)
    verdicts = dict(zip(distinct, results[len(points):]))
    return CertificateReport(
        [IdentityCheck(name, len(points), name not in details,
                       details.get(name))
         for name in names],
        [PositivityCheck(name, verdicts[expr]) for name, expr in claims],
    )


def verify_n4(points=None) -> CertificateReport:
    """Certify the two published n = 4 difference displays over an
    admissible abscissa grid."""
    if points is None:
        points = default_x_pairs()
    b1, b2 = _var("beta1"), _var("beta2")
    l1, l2 = _var("lam1"), _var("lam2")

    def checks_at(x):
        x1, x2 = x
        w1, w2 = 4 * (1 - x2) / (1 - x1), 4 * x1 / x2
        maj, mino = symbolic_difference(x)
        return {
            "n4 symmetrization difference": grid_identity_check(
                maj, w2 * b2 * b2 + w1 * b1 * b1, _N4_BOUNDS
            ),
            "n4 shaking difference": grid_identity_check(
                mino, w2 * (l2 * l2 - b2 * b2) + w1 * (l1 * l1 - b1 * b1),
                _N4_BOUNDS,
            ),
        }

    return _run_checks(points, checks_at)


def verify_n5(points=None) -> CertificateReport:
    """Certify the n = 5 cone decomposition and quadratic forms over the
    abscissa triples ``points``, from one general integrand per triple, and
    the positivity claims they rest on, which do not depend on x: the Lin
    helpers, the prefactor atoms and the Lin factors of the minors."""
    if points is None:
        points = default_x_triples()
    # Built before any fork, so that no child rebuilds a helper polynomial.
    claims = _positivity_claims()

    def checks_at(x):
        # Both checks of a triple read its one _Point and the two
        # differences of its one integrand, so one process runs both.
        differences = {_Point(x): symbolic_difference(x)}
        report = verify_n5_cone(differences).merge(
            verify_n5_quadratic(differences))
        return {c.name: c.passed or c.detail for c in report.identity_checks}

    return _run_checks(points, checks_at, claims)


def verify_n5_cone(differences) -> CertificateReport:
    """Certify the n = 5 shaking-difference cone decomposition: the
    l0/l1/constant split, the 18 + 6 published coefficients and the mirror
    relation for the l0 part.  The positivity of the coefficients' Lin
    helpers and prefactor atoms does not depend on x; `verify_n5`
    certifies it.

    ``differences`` maps each abscissa triple to its symbolic_difference
    pair; the cone checks read the minoration, its second member."""

    def checks_at(x):
        # The parts of the difference are four times the published ones,
        # and so is _cone_poly.
        x = _point(x)
        d0, d1, d2 = _split_l0_l1(to_slope_variables(differences[x][1], x))
        mirror = mirror_x(x)
        mirrored = _l1_coefficients(cone_row(mirror, 3), mirror)
        return {
            "n5 cone: constant part (18 coefficients)":
                _cone_outcome(d2, x.table),
            "n5 cone: l1 part (6 coefficients)":
                _cone_outcome(d1, _l1_coefficients(x.table, x)),
            "n5 cone: l0 part (mirror of l1)":
                d0 == _cone_poly(mirrored, P_NAMES[::-1], Q_NAMES[::-1]),
        }

    return _run_checks(differences, checks_at)


def _positivity_claims():
    """The (check name, polynomial) claims of `verify_n5`: the Lin helpers,
    the prefactor atoms and the Lin factors of the minors."""
    return [*_lin_positivity(HELPERS, "", "on the simplex"),
            *_prefactor_atoms(),
            *_lin_positivity(_MINOR_G, "minor ", "factor on the simplex")]


def _lin_positivity(helpers, prefix, whole):
    """Both endpoint values of each Lin helper, then the helper itself, as
    (check name, polynomial) pairs."""
    return [
        (f"{prefix}{name} {label}", expr)
        for name, h in sorted(helpers.items())
        for label, expr in (
            ("endpoint (low)", h.value_a),
            ("endpoint (high)", h.value_b),
            (whole, h.symbolic),
        )
    ]


def _prefactor_atoms():
    """The monomial-type prefactors of the published coefficients (numerators
    after clearing simplex-positive denominators), as (check name,
    polynomial) pairs."""
    x1, x2, x3 = _var(X1), _var(X2), _var(X3)
    atoms = {
        "x1": x1,
        "x2": x2,
        "x3": x3,
        "1-x1": 1 - x1,
        "1-x2": 1 - x2,
        "1-x3": 1 - x3,
        "x2-x1": x2 - x1,
        "x3-x1": x3 - x1,
        "x3-x2": x3 - x2,
    }
    return [(f"prefactor atom {n}", e) for n, e in atoms.items()]


def verify_n5_quadratic(differences) -> CertificateReport:
    """Certify the n = 5 symmetrization-difference quadratic forms: the
    l0/l1/constant split against the published f1/f3 displays, the mirror
    rule for f2, the matrix forms, and every stated leading-principal-minor
    factorization.  The positivity of the minors' Lin factors does not
    depend on x; `verify_n5` certifies it.

    ``differences`` maps each abscissa triple to its symbolic_difference
    pair; the quadratic checks read the majoration, its first member."""

    def checks_at(x):
        x = _point(x)
        majoration = differences[x][0]
        f1, f2, f3 = _split_l0_l1(majoration)
        # f2 is checked in beta space only, so only l0 f1 + f3 is rewritten.
        f1_q, _, f3_q = _split_l0_l1(
            to_slope_variables(majoration.coefficient_poly("l1", 0), x))
        table = x.table
        row1 = {key[1:]: c / x[0] for key, c in table.items() if key[0] == 1}
        checks = {
            "n5 quadratic: f1 display": f1 == f1_display(x),
            "n5 quadratic: f2 mirror rule":
                f2 == f1_display(mirror_x(x), ("beta3", "beta2", "beta1")),
            "n5 quadratic: f3 display": f3 == f3_display(x),
            # f1 = q^T (4 (1-x3)(x3-x1) x1 / x3) N q = q^T (M^(1) / x1) q
            "n5 quadratic: f1 = q^T M q":
                f1_q == _table_form(row1, ((1, Q_NAMES),)),
            "n5 quadratic: f3 = sum p_i q^T M^(i) q":
                f3_q == _table_form(table, ((1, Q_NAMES),), P_NAMES),
        }
        ms = tuple(_cone_matrix(table, k) for k in (1, 2))
        for name, ok in _check_minor_factorizations(x, ms).items():
            checks[f"minor factorization: {name}"] = ok
        return checks

    return _run_checks(differences, checks_at)


def _minor_endpoint_g():
    """Endpoint data for the Lin factors g appearing in the published minor
    factorizations, keyed by minor name; N[2], M1[2] and M2[2] share one."""
    x1, x2, x3 = _var(X1), _var(X2), _var(X3)
    g2 = LinHelper(
        X1,
        Fraction(0),
        (-2 * x2 * x3 + x2 + x3) * (-2 * x2 * x3 - x2 + 3 * x3),
        x2,
        (1 - x2) * (-4 * x2 * x3 + x2 + 3 * x3) * (x3 - x2),
    )
    return {
        "N[2]": g2,
        "M1[2]": g2,
        "M2[2]": g2,
        "N[3]": LinHelper(
            X3,
            x2,
            2 * (1 - x2) * (3 * x1 * x2 - x1 - 2 * x2) * (x1 - x2),
            Fraction(1),
            6 * x2 * (1 - x1) ** 2 * (1 - x2),
        ),
        "M1[3]": LinHelper(
            X3,
            x2,
            (1 - x2) * (-3 * x1 * x2 + x1 + 2 * x2) * (x2 - x1),
            Fraction(1),
            3 * x2 * (1 - x1) ** 2 * (1 - x2),
        ),
    }


_MINOR_G = _minor_endpoint_g()

def _check_minor_factorizations(x, ms):
    """Compare each leading principal minor with its published factorized
    form at one numeric x point; ``ms`` holds M^(1) and M^(2)."""
    x = _point(x)
    x1, x2, x3 = x
    P = x.helper_values
    g = _LinValues(_MINOR_G, x)
    # N and M1 are multiples s M^(1), whose k-th leading minors are s^k
    # times those of M^(1).
    s_n = x3 / (4 * x1**2 * (1 - x3) * (x3 - x1))
    s_m1 = x3 / (4 * (1 - x3) ** 2)
    m0 = {k: leading_minor(ms[0], k) for k in (1, 2, 3)}
    n, m1 = ({k: m0[k] * s**k for k in m0} for s in (s_n, s_m1))
    m2 = {k: leading_minor(ms[1], k) for k in (1, 2, 3)}
    out = {}
    out["N[1]"] = n[1] == 2 * (1 - x2) * x1
    out["N[2]"] = n[2] == g["N[2]"] * (x1 - x2) ** 2 / (
        (x3 - x1) ** 2 * (1 - x1)
    )
    out["N[3]"] = n[3] == g["N[3]"] * x3 * (1 - x3) * (
        x2 - x1
    ) ** 2 * (x3 - x2) ** 2 / ((x3 - x1) ** 3 * (1 - x2) * (1 - x1) * x1)
    out["M1[1]"] = m1[1] == -2 * x1**3 * (x2 - 1) * (
        x1 - x3
    ) / (x3 - 1)
    # This matrix is the elementwise multiple r * N of the first quadratic
    # form, r = x1^2 (x3 - x1) / (1 - x3), so its k-th leading minor picks
    # up a factor r^k over the N factorization; the stated k = 2, 3
    # factorizations omit that factor and the recomputation restores it.
    r = x1**2 * (x3 - x1) / (1 - x3)
    out["M1[2]"] = m1[2] == r**2 * (x1 - x2) ** 2 / (
        (x3 - x1) ** 2 * (1 - x1)
    ) * g["M1[2]"]
    out["M1[3]"] = m1[3] == r**3 * 2 * (x1 - x2) ** 2 * (
        x2 - x3
    ) ** 2 * x3 * (x3 - 1) / (
        (x1 - x3) ** 3 * x1 * (x1 - 1) * (x2 - 1)
    ) * g["M1[3]"]
    out["M2[1]"] = m2[1] == 4 * x1**2 * (1 - x3) * P["P4"] / x3
    out["M2[2]"] = m2[2] == 16 * (1 - x3) ** 2 * x1**3 * (
        x2 - x1
    ) ** 2 / (x3**2 * (x3 - x1) * (1 - x1) ** 2) * g["M2[2]"] * P["P5"]
    out["M2[3]"] = m2[3] == 192 * (x2 - x1) ** 2 * (
        x2 - x3
    ) ** 2 * x1**4 * (x3 - 1) ** 4 / (
        x3**2 * (1 - x1) ** 2 * (x3 - x1)
    ) * P["P4"] * P["P5"]
    return out


def verify_all() -> CertificateReport:
    return verify_n4().merge(verify_n5())


# -- falsification search (informational) ----------------------------------


def compa_violation_witness(tries=4000):
    """Search for a defect with |beta_j| <= lam_j only (slope condition
    violated) making the shaking difference at x = (1/5, 1/2, 4/5) negative.

    Such witnesses are expected to exist: the slope condition is genuinely
    needed, not an artifact.  Returns (lam, beta, value) or None.
    """
    x = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    diff = symbolic_difference(x)[1]
    rng = random.Random(0)
    for _ in range(tries):
        lam = [Fraction(rng.randrange(0, 50), 50) for _ in range(3)]
        beta = [
            Fraction(rng.randrange(-50, 51), 50) * l for l in lam
        ]
        if in_compa([0, *lam, 0], [0, *beta, 0], [0, *x, 1]):
            continue  # inside the admissible set; not a candidate
        assignment = {"l0": Fraction(1), "l1": Fraction(1)}
        for j in range(3):
            assignment[f"lam{j + 1}"] = lam[j]
            assignment[f"beta{j + 1}"] = beta[j]
        value = diff.evaluate(assignment)
        if value < 0:
            return tuple(lam), tuple(beta), value
    return None
