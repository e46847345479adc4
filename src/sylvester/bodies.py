"""Planar convex bodies: slicing, area, x-axis symmetrization/shaking,
affine images, and uniform sampling.

Polygons carry exact rational vertices.  A curved body is an ellipse
{t + m.w : |w| <= 1}, and a disk is the ellipse m = r.I (see `_frame`);
curved slice bounds are high-precision rationals (see
`rationals.SQRT_PRECISION_BITS`).  Steiner symmetrization is exact for
polygons, disks and every ellipse; shaking a curved body goes through its
inscribed `CURVED_APPROX_VERTICES`-gon.  The boundary functions fix the
reading y_top = sup, y_bottom = inf of the slice ordinates, and the support
is [min abscissa, max abscissa].

numpy is imported inside the functions that draw or slice floats
(`sample_points`, `slice_bounds`), not at module level:
every command imports this module, and the exact ones would otherwise pay
numpy's start-up for nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rationals import (
    DocumentError,
    FrozenRecord,
    format_rational,
    rational_sqrt,
    read_field,
    round_to_dyadic,
    to_fraction,
)

#: Vertex count of the inscribed polygon used when a curved body must be
#: converted to a polygon for an exact transform.
CURVED_APPROX_VERTICES = 64


class Polygon(FrozenRecord):
    """Strictly convex polygon, counter-clockwise rational vertices."""

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices):
        cleaned = _dedupe_ring(
            [(to_fraction(x), to_fraction(y)) for x, y in vertices]
        )
        if len(cleaned) < 3:
            raise ValueError("polygon needs at least three distinct vertices")
        if _signed_area(cleaned) < 0:
            cleaned.reverse()
        n = len(cleaned)
        for i in range(n):
            a, b, c = cleaned[i], cleaned[(i + 1) % n], cleaned[(i + 2) % n]
            if _cross(a, b, c) <= 0:
                raise ValueError("vertices are not strictly convex")
        self.vertices = tuple(cleaned)

    @property
    def n(self):
        return len(self.vertices)


def triangle(a, b, c) -> Polygon:
    return Polygon((a, b, c))


class Disk(FrozenRecord):
    __slots__ = _fields = ("center", "radius")

    def __init__(self, center, radius):
        self.center = tuple(to_fraction(v) for v in center)
        self.radius = to_fraction(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")


class Ellipse(FrozenRecord):
    """Affine image of the unit disk: {t + m.w : |w| = 1} and its interior.
    m is a 2x2 row-major rational matrix."""

    __slots__ = _fields = ("m", "t")

    def __init__(self, m, t):
        self.m = tuple(tuple(to_fraction(v) for v in row) for row in m)
        self.t = tuple(to_fraction(v) for v in t)
        if _det2(self.m) == 0:
            raise ValueError("degenerate ellipse")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _signed_area(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _frame(body):
    """(m, t) of a curved body {t + m.w : |w| <= 1}; a disk has m = r.I."""
    if isinstance(body, Disk):
        r = body.radius
        return ((r, 0), (0, r)), body.center
    if isinstance(body, Ellipse):
        return body.m, body.t
    raise TypeError(f"not a convex body: {body!r}")


# -- support and slicing ---------------------------------------------------


def x_range(body):
    """Exact (polygon) or high-precision rational (curved) abscissa support."""
    if isinstance(body, Polygon):
        xs = [v[0] for v in body.vertices]
        return min(xs), max(xs)
    m, t = _frame(body)
    half = rational_sqrt(m[0][0] ** 2 + m[0][1] ** 2)
    return t[0] - half, t[0] + half


def _polygon_slice(vertices, x, maximum, minimum):
    """(bottom, top) of a convex polygon's slice at x in its support: the
    largest line of its edges that run right (counter-clockwise, the lower
    chain) and the smallest of those that run left, folded by ``maximum``
    and ``minimum``.  Each edge line supports its chain, so this is exact
    on the support, and vertical edges are skipped."""
    bottom = top = None
    for (x0, y0), (x1, y1) in zip(vertices, [*vertices[1:], vertices[0]]):
        if x0 == x1:
            continue
        line = y0 + (y1 - y0) / (x1 - x0) * (x - x0)
        if x0 < x1:
            bottom = line if bottom is None else maximum(bottom, line)
        else:
            top = line if top is None else minimum(top, line)
    return bottom, top


def _ellipse_slice(frame, x, root):
    """(bottom, top) at x of the ellipse ``frame`` = (m, t): the image under
    m of the chord a.w = d = x - t0 of the unit disk, a the first row of m.
    ``root`` takes the square root of |a|^2 - d^2, negative outside the
    support; exact and float entries run the same operations in order."""
    ((a0, a1), (b0, b1)), (t0, t1) = frame
    n2 = a0 * a0 + a1 * a1
    d = x - t0
    middle = t1 + d * ((a0 * b0 + a1 * b1) / n2)
    half = abs(a0 * b1 - a1 * b0) / n2 * root(n2 - d * d)
    return middle - half, middle + half


def y_bounds(body, x):
    """(bottom, top) ordinates of the vertical slice at abscissa x."""
    x = to_fraction(x)
    if isinstance(body, Polygon):
        lo, hi = x_range(body)
        if x < lo or x > hi:
            raise ValueError(f"abscissa {x} outside the body support")
        return _polygon_slice(body.vertices, x, max, min)

    def root(value):
        if value < 0:
            raise ValueError(f"abscissa {x} outside the body support")
        return rational_sqrt(value)

    return _ellipse_slice(_frame(body), x, root)


def slice_bounds(body, x):
    """Float (bottom, top) arrays of the vertical slices at the float
    abscissas ``x``, an array of any shape inside the support: `y_bounds`
    over many abscissas at once.

    A polygon slice is `y_bounds`' rule on the float vertices.  An
    ellipse slice is its chord, with |a|^2 - d^2 clipped at 0, so an
    abscissa rounded just past the support gets a zero-width slice.
    Raises ValueError if an entry of the body has no finite float image.
    """
    import numpy as np

    if isinstance(body, Polygon):
        return _polygon_slice(
            _finite_floats(body.vertices, "polygon vertex"), x,
            lambda a, b: np.maximum(a, b, out=a),
            lambda a, b: np.minimum(a, b, out=a))
    return _ellipse_slice(_float_frame(body), x,
                          lambda value: np.sqrt(np.maximum(value, 0)))


def width(body, x):
    lo, hi = y_bounds(body, x)
    return hi - lo


class AreaValue(FrozenRecord):
    """Rational multiple of a power of pi."""

    __slots__ = _fields = ("coefficient", "pi_power")

    def __init__(self, coefficient, pi_power):
        self.coefficient = coefficient
        self.pi_power = pi_power

    def __float__(self):
        return float(self.coefficient) * math.pi ** self.pi_power


def area(body):
    """Exact rational area for polygons; a pi-multiple for disk/ellipse."""
    if isinstance(body, Polygon):
        return _signed_area(body.vertices)
    return AreaValue(abs(_det2(_frame(body)[0])), 1)


# -- x-axis transforms -----------------------------------------------------


def _width_profile(polygon):
    xs = sorted({v[0] for v in polygon.vertices})
    return [(x, width(polygon, x)) for x in xs]


def _profile_polygon(profile, bottom):
    # Build a polygon from per-abscissa (bottom(x), bottom(x)+W(x)) pairs.
    lower = [(x, bottom(x, w)) for x, w in profile]
    upper = [(x, bottom(x, w) + w) for x, w in profile]
    ring = lower + upper[::-1]
    # Collinear break points (linear width across a vertex abscissa, flat
    # bottom after shaking) must be dropped before Polygon's strictness check.
    ring = _drop_collinear(_dedupe_ring(ring))
    return Polygon(tuple(ring))


def _dedupe_ring(ring):
    out = []
    for v in ring:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _drop_collinear(ring):
    # The ring of a width profile is weakly convex, so a vertex lies on the
    # line of its two neighbours exactly when it lies inside a straight edge.
    n = len(ring)
    return [b for i, b in enumerate(ring)
            if _cross(ring[i - 1], b, ring[(i + 1) % n]) != 0]


def _affine(m, t, point):
    """The exact image m.point + t."""
    x, y = point
    return (m[0][0] * x + m[0][1] * y + t[0],
            m[1][0] * x + m[1][1] * y + t[1])


def inscribed_polygon(body, vertex_count) -> Polygon:
    """Rational polygon inscribed in a disk or ellipse.

    Boundary points at `vertex_count` angles, each rounded to high-precision
    rationals; the rounding is documented, not exact.
    """
    m, t = _frame(body)
    pts = []
    for k in range(vertex_count):
        theta = 2 * math.pi * k / vertex_count
        w = (round_to_dyadic(math.cos(theta), 30),
             round_to_dyadic(math.sin(theta), 30))
        pts.append(_affine(m, t, w))
    return Polygon(tuple(pts))


def steiner_symmetrize(body):
    """Recenter every vertical slice on the x-axis (|y| <= W(x)/2)."""
    if isinstance(body, Polygon):
        return _profile_polygon(_width_profile(body), lambda x, w: -w / 2)
    if isinstance(body, Disk):
        return Disk((body.center[0], Fraction(0)), body.radius)
    # Same row a and det m keep every slice width (see `y_bounds`); a row
    # b orthogonal to a centres every slice on y = 0.
    m, t = _frame(body)
    (a0, a1), _ = m
    s = _det2(m) / (a0 * a0 + a1 * a1)
    return Ellipse(((a0, a1), (-a1 * s, a0 * s)), (t[0], Fraction(0)))


def shake(body):
    """Rest every vertical slice on the x-axis (0 <= y <= W(x))."""
    if not isinstance(body, Polygon):
        body = inscribed_polygon(body, CURVED_APPROX_VERTICES)
    return _profile_polygon(_width_profile(body), lambda x, w: Fraction(0))


def affine_image(body, matrix, translation=(0, 0)):
    """Image under an invertible affine map; disk becomes ellipse."""
    m = tuple(tuple(to_fraction(v) for v in row) for row in matrix)
    t = tuple(to_fraction(v) for v in translation)
    if _det2(m) == 0:
        raise ValueError("singular affine map")
    if isinstance(body, Polygon):
        return Polygon(tuple(_affine(m, t, v) for v in body.vertices))
    em, et = _frame(body)
    new_m = tuple(
        tuple(sum(m[i][k] * em[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    return Ellipse(new_m, _affine(m, t, et))


#: b of the normal extent range [2^-b, 2^b] of `normal_image`.  The hull
#: test multiplies two coordinate differences, which for such a body are
#: of order 2^(+-2b), far inside the normal float range.
NORMAL_EXTENT_BITS = 256


def normal_image(body):
    """``body``, or its exact image p -> D.(p - c) if its extent along an
    axis lies outside [2^-b, 2^b], b = `NORMAL_EXTENT_BITS`: c is the first
    vertex of a polygon or the centre of a disk or ellipse, and
    D = diag(2^-ex, 2^-ey), 2^e within a factor 2 of the extent along
    each axis (a polygon's width, the largest entry of a row of m).

    e is the bit length of the extent's numerator less that of its
    denominator, the lcm of the denominators along the axis, so no
    Fraction is formed.  Unreduced, that is still within a factor 2.

    The estimators draw from this image: Q is affine invariant, so it has
    the body's law of hits.  Drawn as it is, a tiny body makes the hull
    test's orientation products subnormal or 0, which fails samples
    silently, and a huge one overflows.  A body in the normal range is
    returned as it is, so its draws keep their bits.
    """
    if isinstance(body, Polygon):
        c = body.vertices[0]
        rows, extent = zip(*body.vertices), lambda nums: max(nums) - min(nums)
    else:
        m, c = _frame(body)
        rows, extent = m, lambda nums: max(map(abs, nums))
    bits = []
    for row in rows:
        den = math.lcm(*[v.denominator for v in row])
        nums = [v.numerator * (den // v.denominator) for v in row]
        bits.append(extent(nums).bit_length() - den.bit_length())
    if all(abs(e) <= NORMAL_EXTENT_BITS for e in bits):
        return body
    scale = [Fraction(2) ** -e for e in bits]
    return affine_image(body, ((scale[0], 0), (0, scale[1])),
                        (-scale[0] * c[0], -scale[1] * c[1]))


def contains(body, point) -> bool:
    """Closed containment, exact: a float coordinate counts as the
    rational it equals.  ValueError naming the coordinate if it is not a
    finite number."""
    x, y = point
    x, y = _coordinate(x, "x"), _coordinate(y, "y")
    if isinstance(body, Polygon):
        verts = body.vertices
        n = len(verts)
        return all(
            _cross(verts[i], verts[(i + 1) % n], (x, y)) >= 0
            for i in range(n)
        )
    # w = m^-1 (p - t) = adj(m) (p - t) / det(m), so |w|^2 <= 1 iff
    # |adj(m) (p - t)|^2 <= det(m)^2.
    m, (tx, ty) = _frame(body)
    ((a, b), (c, d)) = m
    u, v = x - tx, y - ty
    return (d * u - b * v) ** 2 + (a * v - c * u) ** 2 <= _det2(m) ** 2


def _coordinate(value, axis):
    try:
        return to_fraction(value)
    except (ValueError, OverflowError):
        raise ValueError(
            f"point {axis} coordinate {value!r} is not a finite number"
        ) from None


# -- sampling --------------------------------------------------------------


def _finite_floats(values, what):
    """Float array of exact values; ValueError naming ``what`` if one of
    them has no finite float image."""
    import numpy as np

    try:
        out = np.array(values, dtype=float)
    except OverflowError:
        out = np.array(np.inf)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} is not finite in floating point")
    return out


def _float_frame(body):
    """`_frame` of a curved body as float arrays (m, t); ValueError naming
    the field if an entry has no finite float image."""
    names = ("radius", "center") if isinstance(body, Disk) else ("m", "t")
    return tuple(_finite_floats(v, f"{type(body).__name__.lower()} {name}")
                 for v, name in zip(_frame(body), names))


def _check_float_area(body, doubled):
    if not 0 < doubled < math.inf:
        raise ValueError(f"{type(body).__name__.lower()} area is "
                         f"{float(doubled) / 2} in floating point")


def _fan_index(cum, keys):
    """Fan triangle of each key in [0, cum[-1]], ``cum`` the running sums
    of the triangle areas: the number of entries of ``cum[:-1]`` that are
    <= the key.  That is ``searchsorted(cum, keys, side="right")``, with a
    key that rounds up to the total area given to the last triangle.

    The count is a binary search over the sorted fan edges ``cum[:-1]``,
    padded with +inf to 2^L - 1 entries, run on all keys at once, one
    level per pass and no branch per key: the index so far holds the high
    bits of the count, and each level appends the next bit, set if the key
    is at or above the edge that halves the index's range.  A fan of two
    triangles takes one compare; a fan of k takes ceil(log2 k) passes.
    """
    import numpy as np

    levels = (len(cum) - 1).bit_length()
    edges = np.full(2 ** levels - 1, np.inf)
    edges[:len(cum) - 1] = cum[:-1]
    hit = np.greater_equal(keys, edges[2 ** (levels - 1) - 1])
    idx = hit.astype(np.intp)
    edge = np.empty_like(keys)
    for level in reversed(range(levels - 1)):
        # The halving edges of the ranges at this level, 2^(level+1) apart.
        half = 2 ** level
        np.take(edges[half - 1::2 * half], idx, out=edge, mode="clip")
        idx <<= 1
        idx += np.greater_equal(keys, edge, out=hit)
    return idx


def sample_points(body, count, rng) -> np.ndarray:
    """(count, 2) float array of uniform points in the body.

    A polygon is drawn by fan triangle and sorted barycentric pair: u and
    v from one draw of 2 count uniforms (u's first, the stream of two
    draws), then one fan key per point.  A key's triangle is the number of
    running fan areas, the total excepted, at or below it (`_fan_index`):
    the running areas are sorted, so that is the triangle ``searchsorted``
    finds.  A disk or ellipse {t + m.w : |w| <= 1} is drawn by rejection
    from the bounding square of the unit disk, with no trigonometry: the
    first ``count`` pairs w = (2u - 1, 2v - 1) of the stream with
    |w| <= 1, in draw order, mapped by m.w + t.  Raises ValueError if the
    float image of the body is not a body: an entry is not finite, or its
    area is not a positive finite float.

    The result is a (count, 2) view of planar memory: the transpose of a
    (2, count) array with x in one row and y in the other.  Each pass over
    a coordinate then runs in place over one contiguous row, where a
    (count, 2) array holds it at a 16-byte stride.  The view reshapes to
    (S, n, 2) without a copy, and the hull test copies the x and y rows it
    needs out of that.
    """
    import numpy as np

    if isinstance(body, Polygon):
        # Fan triangles (v0, v0 + a_k, v0 + b_k).  The order statistics
        # lo <= hi of two uniforms give barycentric weights
        # (1 - hi, lo, hi - lo), uniform on the simplex.
        verts = _finite_floats(body.vertices, "polygon vertex")
        v0 = verts[0]
        a = verts[1:-1] - v0
        b = verts[2:] - v0
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.cumsum(np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
        _check_float_area(body, cum[-1])
        u, v = rng.random(2 * count).reshape(2, count)
        out = np.empty((2, count))
        lo = np.minimum(u, v, out=out[1])  # y's row, written last
        mid = np.maximum(u, v, out=u)
        mid -= lo
        term = v  # v's buffer is free once lo and mid are formed
        if len(cum) == 1:
            def leg(edges, i):
                return edges[0, i]
        else:
            keys = rng.random(out=term)
            keys *= cum[-1]
            idx = _fan_index(cum, keys)

            def leg(edges, i):
                # The indices are in range; "clip" skips the copy that
                # take's bounds check makes.
                return np.take(edges[:, i], idx, out=term, mode="clip")
        for i in range(2):
            # (v0 + lo.a) + mid.b, the same operations in the same order.
            coord = np.multiply(lo, leg(a, i), out=out[i])
            coord += v0[i]
            coord += np.multiply(mid, leg(b, i), out=term)
        return out.T
    m, t = _float_frame(body)
    with np.errstate(over="ignore", invalid="ignore"):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    _check_float_area(body, 2 * np.pi * abs(det))
    # A pair is kept with probability pi/4.  The first round draws its
    # ``count`` candidates into the memory of ``out`` and squares their
    # coordinates into two rows of that of ``kept``, where the kept pairs
    # go next.  Later rounds draw 4/3 of the points still needed, plus a
    # margin, into a small buffer, and square them into the rows of
    # ``out``, free by then.
    kept = np.empty((count, 2))
    out = np.empty((2, count))
    w, squares = out.reshape(count, 2), kept.reshape(2, count)
    done = 0
    while done < count:
        need = count - done
        if done:
            w = np.empty((min(count, need * 4 // 3 + 16), 2))
            squares = out[:, :len(w)]
        rng.random(out=w)
        w *= 2
        w -= 1
        radius2, y2 = squares
        np.multiply(w[:, 0], w[:, 0], out=radius2)
        radius2 += np.multiply(w[:, 1], w[:, 1], out=y2)
        inside = np.flatnonzero(radius2 <= 1)[:need]
        np.take(w, inside, axis=0, out=kept[done:done + len(inside)],
                mode="clip")
        done += len(inside)
    # m.w + t row by row, (m_i0.wx + t_i) + m_i1.wy.  y is the scratch
    # row of x's last term, and wx, read for the last time, that of y's.
    wx, wy = kept.T
    x, y = out
    np.multiply(wx, m[0, 0], out=x)
    x += t[0]
    x += np.multiply(wy, m[0, 1], out=y)
    np.multiply(wx, m[1, 0], out=y)
    y += t[1]
    y += np.multiply(wy, m[1, 1], out=wx)
    return out.T


# -- serialization ---------------------------------------------------------


def body_to_json(body):
    if isinstance(body, Polygon):
        return {
            "type": "polygon",
            "vertices": [
                [format_rational(x), format_rational(y)]
                for x, y in body.vertices
            ],
        }
    if isinstance(body, Disk):
        return {
            "type": "disk",
            "center": [format_rational(v) for v in body.center],
            "r": format_rational(body.radius),
        }
    if isinstance(body, Ellipse):
        return {
            "type": "ellipse",
            "m": [[format_rational(v) for v in row] for row in body.m],
            "t": [format_rational(v) for v in body.t],
        }
    raise TypeError(f"not a convex body: {body!r}")


def body_from_json(doc):
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "polygon":
        return Polygon(read_field(doc, "vertices", (None, 2)))
    if kind == "disk":
        return Disk(read_field(doc, "center", (2,)), read_field(doc, "r"))
    if kind == "ellipse":
        return Ellipse(
            read_field(doc, "m", (2, 2)), read_field(doc, "t", (2,))
        )
    raise DocumentError(
        "expected a JSON object with field 'type': polygon, disk or ellipse"
    )
