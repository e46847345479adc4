"""Vertical-segment families: normalization, symmetry defects, and the exact
conditional convex-position probability.

A family of N+2 vertical segments is normalized by the unique verticality
preserving affine map sending the middles of the extreme segments to (0,0)
and (1,0).  The normalized family is described by the trapezoid half-widths
(L interpolating the extreme half-widths), per-slice excesses lam_j (how much
wider the slice is than the trapezoid) and symmetry defects beta_j (offset of
the slice middle from the trapezoid midline).  beta = 0 is the symmetrized
family, beta = lam the shaken one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combs import comb_poly
from .poly import MultiPoly, as_poly
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
    u0 = MultiPoly.variable(U0, (U0, U1))
    u1 = MultiPoly.variable(U1, (U0, U1))
    interior_x = xbar[1:-1]
    # Ordinate of the chord from (0, u0) to (1, u1) at each interior abscissa.
    u = [u0 + x * (u1 - u0) for x in interior_x]
    # Slice parts measured from the chord, above it and below it.
    up = [as_poly(lp) - uj for lp, uj in zip(l_plus, u)]
    down = [as_poly(lm) + uj for lm, uj in zip(l_minus, u)]
    total = Fraction(0)
    for mask in range(1 << N):
        above = [j for j in range(N) if mask >> j & 1]
        below = [j for j in range(N) if not mask >> j & 1]
        ka = comb_poly([interior_x[j] for j in above], [up[j] for j in above])
        kb = comb_poly([interior_x[j] for j in below], [down[j] for j in below])
        total = total + ka * kb
    return total


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
    value = _average_over_extreme(value, U1, family.L1)
    if isinstance(value, MultiPoly):
        value = value.constant_value()
    denom = Fraction(1)
    for w in widths:
        denom *= w
    return value / denom


def _average_over_extreme(poly, var, half_width):
    # Normalized average over u in [-L, L]; point evaluation in the L = 0
    # limit (degenerate extreme segment).
    if not isinstance(poly, MultiPoly):
        return poly
    if half_width == 0:
        return poly.substitute({var: 0})
    return poly.integrate_box(var, -half_width, half_width) / (2 * half_width)


#: Largest violation of the admissible set that `clamped_family` repairs.
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
