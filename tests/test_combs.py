import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sylvester import MultiPoly, grid_identity_check
from sylvester.combs import (
    Comb,
    comb_poly,
    comb_poly_permutations,
    comb_poly_triangulations,
    comb_probability,
    enumerate_triangulations,
)
from sylvester.montecarlo import estimate_segments
from sylvester.segments import VerticalSegment


def full_grid(x):
    return [Fraction(0)] + list(x) + [Fraction(1)]


def full_gamma(lengths):
    return [Fraction(0)] + list(lengths) + [Fraction(0)]


def test_empty_and_single_tooth():
    assert comb_poly([], []) == 1
    # a single tooth contributes its full length: three points are almost
    # surely in convex position
    c = Fraction(3, 7)
    assert comb_poly([Fraction(1, 2)], [c]) == c
    assert comb_probability(Comb((Fraction(1, 2),), (c,))) == 1


def test_reference_comb_m2():
    x = (Fraction(1, 3), Fraction(2, 3))
    lengths = (Fraction(1), Fraction(1))
    assert comb_poly(x, lengths) == Fraction(1, 2)
    assert comb_probability(Comb(x, lengths)) == Fraction(1, 2)
    assert comb_poly_triangulations(full_grid(x), full_gamma(lengths)) == Fraction(1, 2)
    assert comb_poly_permutations(full_grid(x), full_gamma(lengths)) == Fraction(1, 2)


def test_triangulation_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42]
    for m, expected in enumerate(catalan):
        assert len(enumerate_triangulations(m)) == expected


def test_triangulations_partition_correctly():
    for tri in enumerate_triangulations(3):
        # each triangulation of m+2=5 boundary points has m=3 triangles
        assert len(tri) == 3


def test_three_routes_agree_randomized():
    rnd = random.Random(7)
    for _ in range(40):
        m = rnd.randrange(0, 7)
        xs = sorted(rnd.sample(range(1, 24), m))
        x = [Fraction(v, 24) for v in xs]
        lengths = [Fraction(rnd.randrange(0, 9), 8) for _ in range(m)]
        k_rec = comb_poly(x, lengths)
        k_tri = comb_poly_triangulations(full_grid(x), full_gamma(lengths))
        k_perm = comb_poly_permutations(full_grid(x), full_gamma(lengths))
        assert k_rec == k_tri == k_perm


def test_three_routes_agree_symbolic():
    for m, x in [
        (1, (Fraction(1, 2),)),
        (2, (Fraction(1, 4), Fraction(2, 3))),
        (3, (Fraction(1, 5), Fraction(2, 5), Fraction(4, 5))),
        (4, (Fraction(1, 7), Fraction(2, 7), Fraction(1, 2), Fraction(5, 6))),
    ]:
        names = [f"l{j}" for j in range(1, m + 1)]
        lengths = [MultiPoly.variable(n) for n in names]
        k_rec = comb_poly(x, lengths)
        k_tri = comb_poly_triangulations(full_grid(x), full_gamma(lengths))
        k_perm = comb_poly_permutations(full_grid(x), full_gamma(lengths))
        bounds = {n: m for n in names}
        assert grid_identity_check(k_rec, k_tri, bounds)
        assert grid_identity_check(k_rec, k_perm, bounds)


def test_each_sub_comb_once(monkeypatch):
    # Recomputing each sub-comb along every path that reaches it costs
    # 7645 products here; computing each once costs 364.
    products = 0
    original = MultiPoly.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    x = [Fraction(k, 9) for k in range(1, 9)]
    comb_poly(x, [MultiPoly.variable(f"l{j}") for j in range(1, 9)])
    assert 0 < products < 1000


def test_mirror_and_homogeneity_at_m12():
    # m = 12 is beyond what the other two routes reach in a test; check two
    # exact symmetries of K, a polynomial that is nonzero here.
    rnd = random.Random(12)
    x = sorted(Fraction(v, 97) for v in rnd.sample(range(1, 97), 12))
    lengths = [Fraction(rnd.randrange(1, 30), rnd.randrange(1, 30))
               for _ in range(12)]
    k = comb_poly(x, lengths)
    assert k != 0
    assert comb_poly([1 - v for v in reversed(x)], lengths[::-1]) == k
    c = Fraction(5, 3)
    assert comb_poly(x, [c * v for v in lengths]) == c ** 12 * k


def test_permutation_cap():
    x = full_grid([Fraction(k, 9) for k in range(1, 9)])
    gamma = full_gamma([Fraction(1)] * 8)
    with pytest.raises(ValueError):
        comb_poly_permutations(x, gamma)


def test_validation():
    with pytest.raises(ValueError):
        Comb((Fraction(2, 3), Fraction(1, 3)), (1, 1))
    with pytest.raises(ValueError):
        Comb((Fraction(0),), (1,))
    with pytest.raises(ValueError):
        Comb((Fraction(1, 2),), (-1,))
    with pytest.raises(ValueError):
        comb_probability(Comb((Fraction(1, 3), Fraction(2, 3)), (0, 1)))


def test_probability_needs_concave_tops():
    quarters = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    # Tooth 2 far below the chord of its neighbours' tops: K/prod(l) reads
    # -15641797/360000 there, and seeded draws are almost never convex.
    with pytest.raises(ValueError, match=r"^tooth 2 \(x = 1/2, l = 1/100\)"):
        comb_probability(Comb(quarters, (1, Fraction(1, 100), 1)))
    # A little below it, K/prod(l) is still off by 4.7 standard errors
    # of 4e6 draws.
    with pytest.raises(ValueError, match="^tooth 2 "):
        comb_probability(Comb(quarters, (1, Fraction(9, 10), 1)))
    with pytest.raises(ValueError, match="^tooth 2 "):
        comb_probability(Comb((Fraction(1, 3), Fraction(2, 3)),
                              (1, Fraction(1, 4))))
    # Tops on the chord are a concave chain, and the value is the
    # probability.
    flat = Comb(quarters, (1, 1, 1))
    value = comb_probability(flat)
    assert value == Fraction(5, 36)
    teeth = [VerticalSegment(x, 0, l) for x, l in zip(flat.x, flat.lengths)]
    est = estimate_segments([VerticalSegment(0, 0, 0), *teeth,
                             VerticalSegment(1, 0, 0)], 200_000, seed=3)
    assert abs(est.estimate - float(value)) < 4 * est.std_error


def test_json_round_trip():
    comb = Comb((Fraction(1, 3), Fraction(2, 3)), (Fraction(1), Fraction(1, 2)))
    doc = comb.to_json()
    assert doc == {"x": ["1/3", "2/3"], "l": ["1/1", "1/2"]}
    assert Comb.from_json(doc) == comb


#: Distinct interior abscissas in (0, 1), sorted, with their tooth lengths.
interior_combs = st.integers(0, 6).flatmap(lambda m: st.tuples(
    st.lists(st.fractions(0, 1, max_denominator=50)
             .filter(lambda v: 0 < v < 1), min_size=m, max_size=m,
             unique=True).map(sorted),
    st.lists(st.fractions(0, 3, max_denominator=20), min_size=m, max_size=m),
))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(interior_combs)
def test_three_routes_agree_on_random_rationals(comb):
    x, lengths = comb
    k_rec = comb_poly(x, lengths)
    assert k_rec == comb_poly_triangulations(full_grid(x), full_gamma(lengths))
    assert k_rec == comb_poly_permutations(full_grid(x), full_gamma(lengths))
