"""Convex-position probability for points on the teeth of an orthogonal comb.

A comb is a family of vertical segments ("teeth") at strictly increasing
abscissas in (0, 1), together with the two endpoint points (0, 0) and (1, 0).
The tooth-length polynomial K (the probability multiplied by the product of
tooth lengths) has three equivalent computations:

* a pivot recurrence over the sub-combs between two abscissas, each
  computed once, so its cost is polynomial in m (`comb_poly`),
* a sum over non-crossing triangulations (`comb_poly_triangulations`),
* a sum over insertion permutations (`comb_poly_permutations`).

All three accept symbolic tooth lengths (MultiPoly) with numeric abscissas;
agreement of the three routes is part of the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .poly import MultiPoly, sum_of_products
from .rationals import FrozenRecord, format_rational, read_field, to_fraction

#: Largest m that `comb_poly_permutations` accepts (its cost is m!).
PERMUTATION_CAP = 7


class Comb(FrozenRecord):
    """Tooth abscissas in (0,1), strictly increasing, with lengths >= 0."""

    __slots__ = _fields = ("x", "lengths")

    def __init__(self, x, lengths):
        self.x = tuple(to_fraction(v) for v in x)
        self.lengths = tuple(to_fraction(v) for v in lengths)
        if len(self.x) != len(self.lengths):
            raise ValueError("abscissa / length count mismatch")
        _check_interior_abscissas(self.x)
        if any(l < 0 for l in self.lengths):
            raise ValueError("negative tooth length")

    @property
    def m(self):
        return len(self.x)

    def to_json(self):
        return {
            "x": [format_rational(v) for v in self.x],
            "l": [format_rational(v) for v in self.lengths],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            read_field(doc, "x", (None,)), read_field(doc, "l", (None,))
        )


def _check_interior_abscissas(x):
    for a, b in zip(x, x[1:]):
        if a >= b:
            raise ValueError("abscissas must be strictly increasing")
    if x and (x[0] <= 0 or x[-1] >= 1):
        raise ValueError("abscissas must lie strictly inside (0, 1)")


def _full_range(x, gamma):
    """Checked abscissas 0 = x_0 < ... < x_(m+1) = 1 and one value each."""
    x = [to_fraction(v) for v in x]
    if len(x) < 2 or x[0] != 0 or x[-1] != 1:
        raise ValueError("expected abscissas starting at 0 and ending at 1")
    _check_interior_abscissas(x[1:-1])
    if len(gamma) != len(x):
        raise ValueError("abscissa / value count mismatch")
    return x, [v if isinstance(v, MultiPoly) else to_fraction(v) for v in gamma]


def comb_poly(x, lengths):
    """Tooth-length polynomial K via the pivot recurrence.

    ``x`` holds the m interior abscissas only; ``lengths`` entries may be
    rationals or MultiPoly values sharing one variable set.  Over X = (0, x,
    1), sub-comb (a, b) has the teeth between X[a] and X[b], at heights h
    over the chord of their tops.  Its K averages h_j K(a, j) K(j, b) over
    the pivots j, where tooth i between the kept end c and j stands at
    h_i - (X_i - X_c)/(X_j - X_c) h_j.  That depends on (a, b) alone, so
    each sub-comb is computed once, and a call costs O(m^3) products.
    """
    x = [to_fraction(v) for v in x]
    _check_interior_abscissas(x)
    if len(x) != len(lengths):
        raise ValueError("abscissa / length count mismatch")
    if not x:
        return Fraction(1)
    return _pivot_recurrence(
        [Fraction(0), *x, Fraction(1)],
        [v if isinstance(v, MultiPoly) else to_fraction(v) for v in lengths])


def _pivot_recurrence(X, heights):
    """`comb_poly`'s recurrence, unchecked, over any number type with + - * /.

    ``X`` lists the abscissas of both ends and the m teeth between them,
    ``heights`` the m tooth heights: Fractions, MultiPoly values, or float
    arrays that broadcast against the abscissas (one comb per element).  At
    m = 0 the result is the int 1.
    """
    return _sub_comb(X, {}, 0, len(X) - 1, dict(enumerate(heights, 1)))


# Module-level functions, not closures over each other: closures that call
# each other form a reference cycle, which would keep every array in
# ``known`` alive until the cyclic garbage collector runs.
def _sub_comb(X, known, a, b, h):
    if b - a < 3:
        return h[a + 1] if b - a == 2 else 1
    return sum_of_products(
        ((h[j], _part(X, known, a, j, h), _part(X, known, b, j, h))
         for j in range(a + 1, b)), b - a - 1)


def _part(X, known, c, j, h):
    a, b = sorted((c, j))
    if (a, b) not in known:
        known[a, b] = _sub_comb(X, known, a, b, {
            i: h[i] - (X[i] - X[c]) / (X[j] - X[c]) * h[j]
            for i in range(a + 1, b)})
    return known[a, b]


def enumerate_triangulations(m):
    """All triangulations of the m+2 points, each a frozenset of triples.

    Deterministic lexicographic order: each triangulation compares by its
    sorted triple list.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    found = [frozenset(t) for t in _triangulate_interval(0, m + 1)]
    return sorted(found, key=lambda t: sorted(t))


def _triangulate_interval(a, b):
    if b - a == 1:
        yield []
        return
    for j in range(a + 1, b):
        for left in _triangulate_interval(a, j):
            for right in _triangulate_interval(j, b):
                yield left + right + [(a, j, b)]


def triangle_weight(triangle, x, gamma):
    """Vertical distance of the middle vertex to the triangle's long chord,
    divided by (n3 - n1 - 1)."""
    n1, n2, n3 = triangle
    chord = gamma[n1] + (x[n2] - x[n1]) / (x[n3] - x[n1]) * (
        gamma[n3] - gamma[n1]
    )
    return (gamma[n2] - chord) / (n3 - n1 - 1)


def comb_poly_triangulations(x, gamma):
    """K* as a sum over triangulations of products of triangle weights.

    ``x`` and ``gamma`` cover the full index range 0..m+1; the boundary
    values gamma[0], gamma[m+1] are unrestricted.
    """
    x, gamma = _full_range(x, gamma)
    m = len(x) - 2
    total = Fraction(0)
    for tri in enumerate_triangulations(m):
        prod = Fraction(1)
        for t in sorted(tri):
            prod = prod * triangle_weight(t, x, gamma)
        total = total + prod
    return total


def comb_poly_permutations(x, gamma):
    """K* as an average over all insertion orders of the interior points.

    Each inserted point contributes its vertical distance to the chord
    between its nearest already-placed neighbours (boundary included).
    Cost is m!, so m is capped at PERMUTATION_CAP.
    """
    x, gamma = _full_range(x, gamma)
    m = len(x) - 2
    if m > PERMUTATION_CAP:
        raise ValueError(
            f"m={m} exceeds the permutation cap {PERMUTATION_CAP}"
        )
    total = Fraction(0)
    for sigma in permutations(range(1, m + 1)):
        placed = [0, m + 1]
        prod = Fraction(1)
        for idx in sigma:
            left = max(p for p in placed if p < idx)
            right = min(p for p in placed if p > idx)
            chord = gamma[left] + (x[idx] - x[left]) / (
                x[right] - x[left]
            ) * (gamma[right] - gamma[left])
            prod = prod * (gamma[idx] - chord)
            placed.append(idx)
            placed.sort()
        total = total + prod
    return total / math.factorial(m)


def comb_probability(comb: Comb) -> Fraction:
    """Probability that one uniform point per tooth plus the two endpoints
    are in convex position.

    K/prod(l) is that probability only while each chord between sampled
    points stays inside the teeth it spans, that is, while (0, 0), the
    tops (x_i, l_i) and (1, 0) form a concave chain: every top on or above
    the chord of its neighbours' tops.  Other combs raise ValueError, as
    does a tooth of zero length, whose point lies on the chord from (0, 0)
    to (1, 0).
    """
    if any(l == 0 for l in comb.lengths):
        raise ValueError("zero tooth length")
    if comb.m <= 1:
        return Fraction(1)
    X = [Fraction(0), *comb.x, Fraction(1)]
    L = [Fraction(0), *comb.lengths, Fraction(0)]
    for i in range(1, comb.m + 1):
        if triangle_weight((i - 1, i, i + 1), X, L) < 0:
            raise ValueError(
                f"tooth {i} (x = {format_rational(X[i])}, l = "
                f"{format_rational(L[i])}) is below the chord of its "
                "neighbours' tops; the comb probability needs the tops in "
                "convex position")
    return _pivot_recurrence(X, comb.lengths) / math.prod(comb.lengths)
