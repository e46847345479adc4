import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sylvester.segments import (
    CompaError,
    NormalizedFamily,
    VerticalSegment,
    clamped_family,
    convexity_integrand,
    family_probability,
    family_segments,
    in_compa,
    normalize,
    profile_to_offsets,
    slope_profile,
    symmetrized_integrand,
)
from sylvester.combs import comb_poly, comb_poly_triangulations
from sylvester.poly import MultiPoly

XBAR3 = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))


def comb_family(lam1=Fraction(1, 2), lam2=Fraction(1, 2)):
    return NormalizedFamily(
        XBAR3, Fraction(0), Fraction(0),
        (Fraction(0), lam1, lam2, Fraction(0)),
        (Fraction(0),) * 4,
    )


def test_normalize_recenters_and_rescales():
    segs = [
        VerticalSegment(2, 1, 1),
        VerticalSegment(4, 0, 3),
        VerticalSegment(8, 2, 2),
    ]
    fam = normalize(segs)
    assert fam.xbar == (Fraction(0), Fraction(1, 3), Fraction(1))
    assert fam.L0 == 0 and fam.L1 == 0
    assert fam.lam == (0, Fraction(3, 2), 0)
    # middle of the interior segment sits at 3/2, chord midline at 4/3
    assert fam.beta == (0, Fraction(3, 2) - Fraction(4, 3), 0)


def test_family_segments_inverts_normalize():
    fam = NormalizedFamily(
        XBAR3, Fraction(1, 2), Fraction(1, 4),
        (Fraction(0), Fraction(1, 3), Fraction(1, 8), Fraction(0)),
        (Fraction(0), Fraction(1, 8), Fraction(-1, 16), Fraction(0)),
    )
    assert normalize(family_segments(fam)) == fam


def test_slope_profile_round_trip():
    rnd = random.Random(3)
    xbar = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10), Fraction(1))
    profile = tuple(Fraction(rnd.randrange(-8, 9), 8) for _ in range(3))
    offsets = profile_to_offsets(profile, xbar)
    assert offsets[0] == 0 and offsets[-1] == 0
    assert slope_profile(offsets, xbar) == profile


def test_in_compa():
    lam = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert in_compa(lam, (0, 0, 0, 0), XBAR3)
    assert in_compa(lam, lam, XBAR3)
    # |beta| <= lam alone is not enough: opposite signs break the slope rule
    beta = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(0))
    assert not in_compa(lam, beta, XBAR3)
    assert not in_compa(lam, (0, 1, 0, 0), XBAR3)


def test_symmetric_comb_value():
    # two centered unit-width teeth, degenerate extremes
    assert family_probability(comb_family()) == Fraction(3, 4)


def test_shaken_comb_matches_comb_calculus():
    fam = comb_family().with_beta(
        (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
    )
    assert family_probability(fam) == Fraction(1, 2)


def test_unit_square_slices():
    segs = [
        VerticalSegment(Fraction(k, 3), 0, 1) for k in range(4)
    ]
    assert family_probability(normalize(segs)) == Fraction(19, 27)


def test_single_interior_slice_is_certain():
    # N=1 means three points, which are almost surely in convex position
    fam = NormalizedFamily(
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        Fraction(1, 2), Fraction(1, 2),
        (Fraction(0),) * 3, (Fraction(0),) * 3,
    )
    assert family_probability(fam) == 1


def test_compa_precondition_enforced():
    fam = comb_family()
    bad = fam.with_beta((Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    with pytest.raises(CompaError):
        family_probability(bad)


def test_monotone_in_defect():
    fam = comb_family(Fraction(1, 2), Fraction(1, 3))
    beta = (Fraction(0), Fraction(1, 4), Fraction(1, 6), Fraction(0))
    assert in_compa(fam.lam, beta, fam.xbar)
    p0 = family_probability(fam)
    pb = family_probability(fam.with_beta(beta))
    pl = family_probability(fam.with_beta(fam.lam))
    assert p0 >= pb >= pl


def test_clamped_family():
    fam = comb_family()
    eps = Fraction(1, 10**12)
    nudged = NormalizedFamily(
        fam.xbar, fam.L0, fam.L1, fam.lam,
        (Fraction(0), Fraction(1, 2) + eps, Fraction(1, 2), Fraction(0)),
    )
    fixed = clamped_family(nudged)
    assert in_compa(fixed.lam, fixed.beta, fixed.xbar)
    with pytest.raises(CompaError):
        clamped_family(
            NormalizedFamily(
                fam.xbar, fam.L0, fam.L1, fam.lam,
                (Fraction(0), Fraction(3, 4), Fraction(1, 2), Fraction(0)),
            )
        )


def test_json_round_trip():
    fam = comb_family()
    assert NormalizedFamily.from_json(fam.to_json()) == fam
    assert fam.to_json()["N"] == 2


def four_sign_reference(xbar, l_plus, l_minus):
    """The integrand summed over the four sign choices of (u0, u1)."""
    g = convexity_integrand(xbar, l_plus, l_minus)
    u0, u1 = MultiPoly.variable("u0"), MultiPoly.variable("u1")
    total = Fraction(0)
    for e0 in (1, -1):
        for e1 in (1, -1):
            total = total + g.substitute({"u0": e0 * u0, "u1": e1 * u1})
    return total


@pytest.mark.parametrize("x", [
    (Fraction(1, 3), Fraction(3, 4)),
    (Fraction(1, 5), Fraction(1, 2), Fraction(6, 7)),
])
def test_symmetrized_integrand_is_four_sign_sum(x):
    N = len(x)
    xbar = (Fraction(0), *x, Fraction(1))
    l0, l1 = MultiPoly.variable("l0"), MultiPoly.variable("l1")
    lam = [MultiPoly.variable(f"lam{j}") for j in range(1, N + 1)]
    beta = [MultiPoly.variable(f"beta{j}") for j in range(1, N + 1)]
    trap = [l0 + (l1 - l0) * xb for xb in x]
    l_plus = [t + a + b for t, a, b in zip(trap, lam, beta)]
    l_minus = [t + a - b for t, a, b in zip(trap, lam, beta)]
    sym = symmetrized_integrand(xbar, l_plus, l_minus)
    assert not sym.is_zero()
    assert sym == four_sign_reference(xbar, l_plus, l_minus)


def split_sum_oracle(xbar, l_plus, l_minus, comb):
    """`convexity_integrand` mask by mask, written out: the chord ordinate
    u = u0 + x (u1 - u0), then total = total + comb(above) * comb(below)."""
    u0 = MultiPoly.variable("u0")
    u1 = MultiPoly.variable("u1")
    xs = xbar[1:-1]
    N = len(xs)
    up = [lp - (u0 + x * (u1 - u0)) for x, lp in zip(xs, l_plus)]
    down = [lm + (u0 + x * (u1 - u0)) for x, lm in zip(xs, l_minus)]
    total = MultiPoly.constant(0)
    for mask in range(1 << N):
        above = [j for j in range(N) if mask >> j & 1]
        below = [j for j in range(N) if not mask >> j & 1]
        total = total + (comb([xs[j] for j in above], [up[j] for j in above])
                         * comb([xs[j] for j in below],
                                [down[j] for j in below]))
    return total


def triangulation_comb(x, lengths):
    # The triangulation route of K, with zero heights at both ends.
    return comb_poly_triangulations([0, *x, 1], [0, *lengths, 0])


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_convexity_integrand_matches_mask_by_mask_oracle(N):
    rnd = random.Random(100 + N)
    names = ("a", "b", "c")
    for _ in range(3):
        inner = sorted(rnd.sample(range(1, 60), N))
        xbar = [Fraction(0), *(Fraction(k, 60) for k in inner), Fraction(1)]

        def height():
            # A random affine polynomial in a, b, c with rational coefficients.
            return MultiPoly.constant(Fraction(rnd.randint(-5, 9), 4)) + sum(
                Fraction(rnd.randint(-4, 4), rnd.randint(1, 7))
                * MultiPoly.variable(name) for name in names)

        l_plus = [height() for _ in range(N)]
        l_minus = [height() for _ in range(N)]
        g = convexity_integrand(xbar, l_plus, l_minus)
        assert g == split_sum_oracle(xbar, l_plus, l_minus, comb_poly)
        assert g == split_sum_oracle(xbar, l_plus, l_minus, triangulation_comb)


#: Normalized abscissa grids 0 = xbar_0 < ... < xbar_{N+1} = 1, N <= 4.
grids = st.lists(
    st.fractions(0, 1, max_denominator=40).filter(lambda v: 0 < v < 1),
    max_size=4, unique=True,
).map(lambda inner: (Fraction(0), *sorted(inner), Fraction(1)))
rationals = st.fractions(-2, 2, max_denominator=16)
nonnegative = st.fractions(0, 2, max_denominator=16)


@st.composite
def normalized_segments(draw):
    """Segments already in normalized position: abscissas from 0 to 1, both
    extreme segments centred on y = 0, interior half-widths at least the
    trapezoid's."""
    xbar = draw(grids)
    L0, L1 = draw(nonnegative), draw(nonnegative)
    segs = []
    for j, x in enumerate(xbar):
        inner = 0 < j < len(xbar) - 1
        half = L0 + (L1 - L0) * x + (draw(nonnegative) if inner else 0)
        middle = draw(rationals) if inner else Fraction(0)
        segs.append(VerticalSegment(x, middle - half, middle + half))
    return tuple(segs)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(normalized_segments())
def test_family_segments_of_normalize_round_trip(segs):
    assert family_segments(normalize(segs)) == segs


@settings(derandomize=True, deadline=None, max_examples=150)
@given(grids.flatmap(lambda xbar: st.tuples(
    st.just(xbar), st.lists(rationals, min_size=len(xbar) - 2,
                            max_size=len(xbar) - 2).map(tuple))))
def test_profile_to_offsets_of_slope_profile_round_trip(case):
    xbar, inner = case
    values = (Fraction(0), *inner, Fraction(0))
    assert profile_to_offsets(slope_profile(values, xbar), xbar) == values
