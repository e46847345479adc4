"""Vertical-segment families: normalization, symmetry defects, and the exact
conditional convex-position probability, with its float64 batch form.

A family of N+2 vertical segments is normalized by the unique verticality
preserving affine map sending the middles of the extreme segments to (0,0)
and (1,0).  The normalized family is described by the trapezoid half-widths
(L interpolating the extreme half-widths), per-slice excesses lam_j (how much
wider the slice is than the trapezoid) and symmetry defects beta_j (offset of
the slice middle from the trapezoid midline).  beta = 0 is the symmetrized
family, beta = lam the shaken one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .combs import _pivot_recurrence, comb_poly
from .poly import MultiPoly, as_poly, sum_of_products
from .rationals import format_rational, read_field, to_fraction

U0, U1 = "u0", "u1"


class CompaError(ValueError):
    """Symmetry defect outside the admissible (Compa) set."""


@dataclass(frozen=True)
class VerticalSegment:
    x: Fraction
    y_low: Fraction
    y_high: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_fraction(self.x))
        object.__setattr__(self, "y_low", to_fraction(self.y_low))
        object.__setattr__(self, "y_high", to_fraction(self.y_high))
        if self.y_low > self.y_high:
            raise ValueError("y_low above y_high")

    @property
    def width(self):
        return self.y_high - self.y_low

    @property
    def middle(self):
        return (self.y_low + self.y_high) / 2


@dataclass(frozen=True)
class NormalizedFamily:
    """Trapezoid + excess + defect description of a vertical-segment family.

    xbar runs from 0 to 1 strictly increasing; L0 and L1 are the half-widths
    of the extreme segments (the trapezoid interpolates linearly between
    them); lam and beta have zero boundary entries.
    """

    xbar: tuple
    L0: Fraction
    L1: Fraction
    lam: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "xbar", tuple(to_fraction(v) for v in self.xbar))
        object.__setattr__(self, "L0", to_fraction(self.L0))
        object.__setattr__(self, "L1", to_fraction(self.L1))
        object.__setattr__(self, "lam", tuple(to_fraction(v) for v in self.lam))
        object.__setattr__(self, "beta", tuple(to_fraction(v) for v in self.beta))
        if self.xbar[0] != 0 or self.xbar[-1] != 1:
            raise ValueError("normalized abscissas must run from 0 to 1")
        for a, b in zip(self.xbar, self.xbar[1:]):
            if a >= b:
                raise ValueError("abscissas must be strictly increasing")
        if len(self.lam) != len(self.xbar) or len(self.beta) != len(self.xbar):
            raise ValueError(
                f"length mismatch: xbar has {len(self.xbar)} entries, "
                f"lambda {len(self.lam)}, beta {len(self.beta)}"
            )
        if self.lam[0] != 0 or self.lam[-1] != 0:
            raise ValueError("lam must vanish at the boundary")
        if self.beta[0] != 0 or self.beta[-1] != 0:
            raise ValueError("beta must vanish at the boundary")
        if self.L0 < 0 or self.L1 < 0:
            raise ValueError("negative trapezoid half-width")
        if any(v < 0 for v in self.lam):
            raise ValueError("negative excess")

    @property
    def N(self):
        return len(self.xbar) - 2

    def trapezoid(self, x):
        return self.L0 + (self.L1 - self.L0) * to_fraction(x)

    def l_plus(self, j):
        return self.trapezoid(self.xbar[j]) + self.lam[j] + self.beta[j]

    def l_minus(self, j):
        return self.trapezoid(self.xbar[j]) + self.lam[j] - self.beta[j]

    def slice_width(self, j):
        return self.l_plus(j) + self.l_minus(j)

    def with_beta(self, beta):
        return NormalizedFamily(self.xbar, self.L0, self.L1, self.lam, tuple(beta))

    def to_json(self):
        return {
            "N": self.N,
            "xbar": [format_rational(v) for v in self.xbar],
            "L0": format_rational(self.L0),
            "L1": format_rational(self.L1),
            "lambda": [format_rational(v) for v in self.lam],
            "beta": [format_rational(v) for v in self.beta],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            read_field(doc, "xbar", (None,)),
            read_field(doc, "L0"),
            read_field(doc, "L1"),
            read_field(doc, "lambda", (None,)),
            read_field(doc, "beta", (None,)),
        )


def normalize(segments) -> NormalizedFamily:
    """Normalized description of a family of N+2 vertical segments."""
    segments = list(segments)
    if len(segments) < 2:
        raise ValueError("need at least two segments")
    xs = [s.x for s in segments]
    for a, b in zip(xs, xs[1:]):
        if a >= b:
            raise ValueError("segment abscissas must be strictly increasing")
    x0, x1 = xs[0], xs[-1]
    m0 = segments[0].middle
    m1 = segments[-1].middle
    xbar = tuple((x - x0) / (x1 - x0) for x in xs)
    w0 = segments[0].width
    w1 = segments[-1].width
    L0, L1 = w0 / 2, w1 / 2
    lam = []
    beta = []
    for seg, xb in zip(segments, xbar):
        trap = L0 + (L1 - L0) * xb
        lam.append(seg.width / 2 - trap)
        beta.append(seg.middle - m0 - (m1 - m0) * xb)
    return NormalizedFamily(xbar, L0, L1, tuple(lam), tuple(beta))


def family_segments(family: NormalizedFamily):
    """Segments of a normalized family (inverse of `normalize`)."""
    out = []
    for j, xb in enumerate(family.xbar):
        out.append(
            VerticalSegment(xb, -family.l_minus(j), family.l_plus(j))
        )
    return tuple(out)


def slope_profile(values, xbar):
    """Concavity defects: successive slope differences of a zero-boundary
    sequence over the abscissa grid."""
    values = [to_fraction(v) for v in values]
    xbar = [to_fraction(v) for v in xbar]
    if values[0] != 0 or values[-1] != 0:
        raise ValueError("boundary values must be zero")
    out = []
    for j in range(1, len(xbar) - 1):
        left = (values[j] - values[j - 1]) / (xbar[j] - xbar[j - 1])
        right = (values[j + 1] - values[j]) / (xbar[j + 1] - xbar[j])
        out.append(left - right)
    return tuple(out)


def profile_to_offsets(profile, xbar):
    """Zero-boundary sequence with the given slope-difference profile.

    Exact inverse of `slope_profile` on the zero-boundary subspace.  Entries
    may be rationals or MultiPoly values.
    """
    xbar = [to_fraction(v) for v in xbar]
    n = len(xbar)
    profile = list(profile)
    if len(profile) != n - 2:
        raise ValueError("profile length must be N")
    out = [Fraction(0)]
    for m in range(1, n - 1):
        acc = Fraction(0)
        for j in range(1, n - 1):
            pj = profile[j - 1]
            if j >= m:
                acc = acc + pj * (xbar[m] * (1 - xbar[j]))
            else:
                acc = acc + pj * (xbar[j] * (1 - xbar[m]))
        out.append(acc)
    out.append(Fraction(0))
    return tuple(out)


def in_compa(lam, beta, xbar) -> bool:
    """Membership in the admissible defect set: zero boundary, |beta_j| <=
    lam_j, and slope defects dominated by those of lam."""
    lam = [to_fraction(v) for v in lam]
    beta = [to_fraction(v) for v in beta]
    if len(lam) != len(beta) or len(lam) != len(xbar):
        raise ValueError("length mismatch")
    if beta[0] != 0 or beta[-1] != 0:
        return False
    if any(abs(b) > l for b, l in zip(beta, lam)):
        return False
    p = slope_profile(lam, xbar)
    q = slope_profile(beta, xbar)
    return all(abs(qj) <= pj for pj, qj in zip(p, q))


def convexity_integrand(xbar, l_plus, l_minus):
    """The split-sum polynomial g: for each above/below partition of the
    interior slices, the product of the two comb polynomials of the parts,
    with the chord ordinates substituted.

    ``l_plus`` and ``l_minus`` list the interior slice parts (indices 1..N)
    as rationals or MultiPoly values; the result is a polynomial in the
    symbols "u0"/"u1" (ordinates of the two extreme points).
    """
    xbar = [to_fraction(v) for v in xbar]
    if xbar[0] != 0 or xbar[-1] != 1:
        raise ValueError("abscissas must run from 0 to 1")
    N = len(xbar) - 2
    if len(l_plus) != N or len(l_minus) != N:
        raise ValueError("expected one slice part per interior abscissa")
    interior_x = xbar[1:-1]
    up, down = _chord_parts(
        interior_x, [as_poly(v) for v in l_plus],
        [as_poly(v) for v in l_minus],
        MultiPoly.variable(U0), MultiPoly.variable(U1))
    return _split_sum(interior_x, up, down, comb_poly)


def _chord_parts(xs, l_plus, l_minus, u0, u1):
    """(up, down) lists of the slice parts at the abscissas ``xs`` above and
    below the chord from (0, u0) to (1, u1): l_plus - u and l_minus + u at
    its ordinate u = u0 + x (u1 - u0).  The entries are exact polynomials
    (`convexity_integrand`) or float arrays (`segment_probabilities`)."""
    du = u1 - u0
    up, down = [], []
    for x, lp, lm in zip(xs, l_plus, l_minus):
        u = u0 + x * du
        up.append(lp - u)
        down.append(lm + u)
    return up, down


def _split_sum(xs, up, down, comb):
    """Sum over the above/below partitions of the interior slices at ``xs``
    of comb(above parts) * comb(below parts), for a comb function ``comb``
    of (abscissas, tooth lengths) over any number type."""
    N = len(xs)

    def row(mask):
        above = [j for j in range(N) if mask >> j & 1]
        below = [j for j in range(N) if not mask >> j & 1]
        return (comb([xs[j] for j in above], [up[j] for j in above]),
                comb([xs[j] for j in below], [down[j] for j in below]))

    return sum_of_products(map(row, range(1 << N)))


def symmetrized_integrand(xbar, l_plus, l_minus):
    """Sum of the integrand over the four sign choices of (u0, u1): four
    times its part even in both u0 and u1."""
    g = as_poly(convexity_integrand(xbar, l_plus, l_minus))
    return 4 * g.even_part((U0, U1))


def family_probability(family: NormalizedFamily) -> Fraction:
    """Exact probability that one uniform point per segment of the family is
    in convex position.

    Requires the defect to be admissible (`in_compa`); degenerate extreme
    segments (zero half-width) are handled by point evaluation of the
    corresponding average.
    """
    if not in_compa(family.lam, family.beta, family.xbar):
        raise CompaError("symmetry defect outside the admissible set")
    N = family.N
    if N == 0:
        return Fraction(1)
    widths = [family.slice_width(j) for j in range(1, N + 1)]
    if any(w <= 0 for w in widths):
        raise ValueError("zero interior slice width")
    l_plus = [family.l_plus(j) for j in range(1, N + 1)]
    l_minus = [family.l_minus(j) for j in range(1, N + 1)]
    g = convexity_integrand(family.xbar, l_plus, l_minus)
    value = _average_over_extreme(g, U0, family.L0)
    value = _average_over_extreme(value, U1, family.L1).constant_value()
    denom = Fraction(1)
    for w in widths:
        denom *= w
    return value / denom


def _average_over_extreme(poly, var, half_width):
    # Normalized average over u in [-L, L]; point evaluation in the L = 0
    # limit (degenerate extreme segment).
    if half_width == 0:
        return poly.substitute({var: 0})
    return poly.integrate_box(var, -half_width, half_width) / (2 * half_width)


#: Largest violation of the admissible set that `clamped_family` repairs,
#: and that `segment_probabilities` allows beyond rounding.
CLAMP_TOLERANCE = Fraction(1, 10**9)


def clamped_family(family: NormalizedFamily):
    """Clamp a float-derived defect into the admissible set.

    Rounding can push |beta_j| marginally above lam_j or |q_j| above p_j;
    violations within CLAMP_TOLERANCE are clamped (beta capped at lam, then
    scaled toward zero until the slope condition holds), larger ones raise.
    """
    beta = list(family.beta)
    for j, (b, l) in enumerate(zip(beta, family.lam)):
        if abs(b) > l:
            if abs(b) - l > CLAMP_TOLERANCE:
                raise CompaError(
                    f"defect exceeds excess by {abs(b) - l} at slice {j}"
                )
            beta[j] = l if b > 0 else -l
    p = slope_profile(family.lam, family.xbar)
    q = slope_profile(beta, family.xbar)
    scale = Fraction(1)
    for pj, qj in zip(p, q):
        if abs(qj) > pj:
            if abs(qj) - pj > CLAMP_TOLERANCE:
                raise CompaError(f"slope defect exceeds bound by {abs(qj) - pj}")
            if qj != 0:
                scale = min(scale, pj / abs(qj))
    if scale < 1:
        beta = [b * scale for b in beta]
    return family.with_beta(beta)


#: `segment_probabilities`'s constants, kept free of numpy so that importing
#: this module does not load it: the rounding allowance per unit of
#: ordinate, CLAMP_TOLERANCE as a float, and the u0 and u1 columns of the
#: four Gauss-Legendre nodes in units of the extreme half-widths.
_ROUNDING_EPS = 64 * sys.float_info.epsilon
_CLAMP_TOLERANCE = float(CLAMP_TOLERANCE)
_GAUSS = 1 / math.sqrt(3)
_GAUSS_U0 = ((-_GAUSS,), (-_GAUSS,), (_GAUSS,), (_GAUSS,))
_GAUSS_U1 = ((-_GAUSS,), (_GAUSS,), (-_GAUSS,), (_GAUSS,))


def segment_probabilities(x, bottom, top):
    """Float `family_probability` of the normalized family of each column.

    ``x``, ``bottom`` and ``top`` are (N + 2, S) float arrays, 1 <= N <= 3:
    column s is a family of vertical segments at strictly increasing
    abscissas, as `normalize` takes it, and row j holds the j-th segment
    of every family, so each step works on contiguous rows.  The
    admissibility check is `clamped_family`'s without the clamp: a
    violation above CLAMP_TOLERANCE, plus what rounding can make of the
    family, raises CompaError, and a smaller one is evaluated as it is.
    The split sum of `convexity_integrand` has degree at most N <= 3 in
    each of u0 and u1, so the two-point Gauss-Legendre rule u = +-L/sqrt(3)
    in each averages it exactly; it is evaluated at those four nodes for
    every family at once.
    """
    import numpy as np

    if not 3 <= len(x) <= 5:
        raise ValueError("the float family probability needs 3 to 5 segments")
    if not all(np.isfinite(v).all() for v in (x, bottom, top)):
        raise ValueError("segment bounds are not finite")
    # Ties are checked before and after normalizing: a tie of the ends would
    # divide 0 by 0, and normalizing can round two close abscissas together.
    _check_increasing(x, x)
    xbar = (x - x[0]) / (x[-1] - x[0])
    _check_increasing(x, xbar)
    span = top - bottom
    half = span / 2
    middle = (top + bottom) / 2
    trapezoid = half[0] + (half[-1] - half[0]) * xbar
    chord = middle[0] + (middle[-1] - middle[0]) * xbar
    _check_admissible(xbar, half - trapezoid, middle - chord,
                      np.maximum(abs(top), abs(bottom)))
    width = span[1:-1]
    if (width <= 0).any():
        raise ValueError("zero interior slice width")
    # Node axis first: (4, S) node values broadcast against (S,) abscissas.
    up, down = _chord_parts(
        xbar[1:-1], top[1:-1] - chord[1:-1], chord[1:-1] - bottom[1:-1],
        np.multiply(_GAUSS_U0, half[0]), np.multiply(_GAUSS_U1, half[-1]))
    total = _float_split_sum(len(up))(xbar[1:-1], up, down)
    return total.mean(axis=0) / width.prod(axis=0)


def _check_increasing(x, rows):
    """Raise ValueError, naming the float resolution at the largest
    abscissa ``x``, unless ``rows`` strictly increase down each column."""
    if not (rows[1:] > rows[:-1]).all():
        import numpy as np

        at = abs(x).max()
        raise ValueError(
            f"segment abscissas must be strictly increasing; float64 resolves "
            f"steps of {np.spacing(at):.3g} at x = {at:.6g}, so sampled "
            "abscissas there can tie")


def _check_admissible(xbar, lam, beta, ordinates):
    """`segment_probabilities`' admissibility check, on (N + 2, S) rows of
    the normalized abscissas, excesses, defects and largest |ordinates|."""
    import numpy as np

    lam[[0, -1]] = beta[[0, -1]] = 0
    gaps = np.diff(xbar, axis=0)

    def slope_defects(values):
        slopes = np.diff(values, axis=0) / gaps
        return slopes[:-1] - slopes[1:]

    # Rounding moves each bound by a few eps times the row's largest
    # ordinate, and a slope by that over its gap: close abscissas can fake
    # a violation far above CLAMP_TOLERANCE, so that much more is allowed.
    rounding = _ROUNDING_EPS * ordinates.max(axis=0)
    for what, excess, allowed in (
            ("defect exceeds excess", abs(beta) - lam, rounding),
            ("slope defect exceeds bound",
             abs(slope_defects(beta)) - slope_defects(lam),
             rounding * (1 / gaps[:-1] + 1 / gaps[1:]))):
        if (excess - allowed > _CLAMP_TOLERANCE).any():
            raise CompaError(f"{what} by {excess.max()}")


@functools.cache
def _float_split_sum(N):
    """`_split_sum` with `_pivot_recurrence` combs over N interior slices,
    as a function of (abscissa rows, up heights, down heights) float arrays.

    The recurrence is traced once (`straightline.Trace`) and the trace is
    replayed on the arrays: the same operations on the same operands in
    the same order, so the result is the recurrence's to the bit.  But an
    operation met again (a chord ratio shared by several masks and both
    sides, or a sub-comb of two masks) is done once, multiplying by 1 or
    subtracting 0 not at all, and each array is dropped after its last use
    or overwritten by a result of its shape.  `straightline` is imported
    here, not at the top: the exact commands, which import this module,
    never load it.
    """
    from .straightline import Trace

    trace = Trace()
    xs = [trace.input(full=False) for _ in range(N)]
    up = [trace.input(full=True) for _ in range(N)]
    down = [trace.input(full=True) for _ in range(N)]
    result = _split_sum(xs, up, down, lambda teeth, heights:
                        _pivot_recurrence([0, *teeth, 1], heights))
    return trace.compile(xs + up + down, result)
