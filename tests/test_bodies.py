import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sylvester import bodies
from sylvester.bodies import (
    Disk,
    Ellipse,
    Polygon,
    affine_image,
    area,
    body_from_json,
    body_to_json,
    contains,
    inscribed_polygon,
    normal_image,
    sample_points,
    shake,
    slice_bounds,
    steiner_symmetrize,
    triangle,
    width,
    x_range,
    y_bounds,
)
from sylvester.rationals import rational_sqrt
from conftest import random_convex_polygon

TRI = triangle((0, 0), (1, 0), (0, 1))
SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
#: Irregular convex pentagon; its fan triangles from (0, 0) have areas
#: 3, 9/2 and 9/4 out of 39/4.
PENTAGON = Polygon(((0, 0), (3, 0), (4, 2), (Fraction(3, 2), 3), (-1, 1)))
SHEAR = ((1, 1), (0, 1))


def test_polygon_validation():
    # clockwise input is reoriented, duplicates dropped
    p = Polygon(((0, 1), (1, 0), (0, 0), (0, 0)))
    assert p.n == 3
    with pytest.raises(ValueError):
        Polygon(((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Polygon(((0, 0), (1, 0), (2, 0), (1, 1)))  # collinear bottom edge


def test_slicing_polygon():
    assert x_range(TRI) == (0, 1)
    assert y_bounds(TRI, Fraction(1, 2)) == (0, Fraction(1, 2))
    assert width(TRI, Fraction(1, 4)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        y_bounds(TRI, 2)


def scanned_y_bounds(polygon, x):
    """A polygon slice by the earlier scan, kept as an oracle for
    `y_bounds`: the ordinate at x of every edge whose abscissa range holds
    x, and both ends of a vertical edge at x."""
    ys = []
    verts = polygon.vertices
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        if x0 == x1:
            if x0 == x:
                ys.extend((y0, y1))
        elif min(x0, x1) <= x <= max(x0, x1):
            ys.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return min(ys), max(ys)


def test_polygon_slice_rule_matches_the_edge_scan(rng):
    # Random hulls on a 1/32 grid often have vertical edges; these have
    # them on both sides, on one side, and at a vertex that is not extreme.
    vertical = [
        SQUARE,
        Polygon(((0, 0), (2, 1), (2, 3), (0, 2))),
        Polygon(((0, 0), (2, 0), (2, 1), (1, 2), (0, 1))),
        Polygon(((0, 0), (3, -1), (4, 1), (4, 2), (1, 3))),
    ]
    polygons = [TRI, PENTAGON, *vertical,
                *(random_convex_polygon(rng) for _ in range(40))]
    for poly in polygons:
        lo, hi = x_range(poly)
        xs = sorted({v[0] for v in poly.vertices}
                    | {lo + (hi - lo) * Fraction(rng.randrange(10**6), 10**6)
                       for _ in range(12)})
        assert xs[0] == lo and xs[-1] == hi
        exact = [y_bounds(poly, x) for x in xs]
        assert exact == [scanned_y_bounds(poly, x) for x in xs]
        bottom, top = slice_bounds(poly, np.array([float(x) for x in xs]))
        assert np.abs(bottom - [float(b) for b, _ in exact]).max() <= 1e-12
        assert np.abs(top - [float(t) for _, t in exact]).max() <= 1e-12


def test_float_readers_name_a_field_without_float_image():
    disk = Disk((0, 0), Fraction(10) ** 400)
    for read in (lambda: slice_bounds(disk, np.zeros(3)),
                 lambda: sample_points(disk, 3, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="disk radius is not finite"):
            read()


def test_slicing_disk():
    disk = Disk((0, 0), 1)
    lo, hi = y_bounds(disk, Fraction(3, 5))
    assert abs(float(hi) - 0.8) < 1e-18
    assert lo == -hi
    assert x_range(disk) == (-1, 1)


def test_slicing_ellipse_matches_mapped_disk():
    # shear of the unit disk; slice widths must match the float geometry
    ell = affine_image(Disk((0, 0), 1), ((1, 1), (0, 1)))
    assert isinstance(ell, Ellipse)
    for xv in (Fraction(-1), Fraction(0), Fraction(1, 2)):
        lo, hi = y_bounds(ell, xv)
        x = float(xv)
        expected = 2 * np.sqrt(max(0.0, 1 - x * x / 2)) / np.sqrt(2)
        assert abs(float(hi - lo) - expected) < 1e-9


def test_area():
    assert area(TRI) == Fraction(1, 2)
    assert area(SQUARE) == 1
    assert abs(float(area(Disk((0, 0), 2))) - 4 * np.pi) < 1e-12
    ell = affine_image(Disk((0, 0), 1), ((2, 0), (0, 1)))
    assert abs(float(area(ell)) - 2 * np.pi) < 1e-12


def test_symmetrize_triangle():
    sym = steiner_symmetrize(TRI)
    assert set(sym.vertices) == {
        (Fraction(0), Fraction(-1, 2)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    }


def test_shake_square_is_identity():
    assert shake(SQUARE).vertices == SQUARE.vertices


def test_transforms_preserve_area_and_width(rng):
    for _ in range(10):
        poly = random_convex_polygon(rng)
        lo, hi = x_range(poly)
        probes = [lo + (hi - lo) * Fraction(k, 11) for k in range(12)]
        for image in (steiner_symmetrize(poly), shake(poly)):
            assert area(image) == area(poly)
            for x in probes:
                assert width(image, x) == width(poly, x)
        sym = steiner_symmetrize(poly)
        for x in probes:
            b, t = y_bounds(sym, x)
            assert b == -t
        sha = shake(poly)
        for x in probes:
            b, t = y_bounds(sha, x)
            assert b == 0


def restarting_drop_collinear(ring):
    """The earlier rule, kept as an oracle for `_drop_collinear`: drop the
    first vertex on the line of its neighbours, then scan the ring again."""
    changed = True
    while changed and len(ring) > 3:
        changed = False
        for i in range(len(ring)):
            a, b, c = ring[i - 1], ring[i], ring[(i + 1) % len(ring)]
            if bodies._cross(a, b, c) == 0:
                ring = ring[:i] + ring[i + 1:]
                changed = True
                break
    return ring


def test_drop_collinear_matches_the_restart_loop(rng, monkeypatch):
    rings = []
    one_pass = bodies._drop_collinear

    def recording(ring):
        rings.append(ring)
        return one_pass(ring)

    shapes = [TRI, SQUARE, PENTAGON, Disk((0, 0), 1),
              Ellipse(((2, 1), (Fraction(1, 3), 1)), (Fraction(1, 2), -3)),
              *(random_convex_polygon(rng) for _ in range(200))]
    monkeypatch.setattr(bodies, "_drop_collinear", recording)
    images = [(steiner_symmetrize(s), shake(s)) for s in shapes]
    # Every shape but the two curved ones symmetrizes through a ring.
    assert len(rings) == 2 * len(shapes) - 2
    for ring in rings:
        assert one_pass(ring) == restarting_drop_collinear(ring)
    monkeypatch.setattr(bodies, "_drop_collinear", restarting_drop_collinear)
    assert [(steiner_symmetrize(s), shake(s)) for s in shapes] == images


def test_symmetrize_disk_and_ellipse():
    disk = Disk((1, 3), 2)
    assert steiner_symmetrize(disk) == Disk((1, 0), 2)
    ell = Ellipse(((2, 0), (0, 1)), (0, 5))
    assert steiner_symmetrize(ell) == Ellipse(((2, 0), (0, 1)), (0, 0))
    sheared = affine_image(disk, ((1, 1), (0, 1)))
    sym = steiner_symmetrize(sheared)
    assert sym == Ellipse(((2, 2), (-1, 1)), (4, 0))
    for k in range(-4, 5):
        x = 4 + Fraction(k, 2)
        assert y_bounds(sym, x)[0] == -y_bounds(sym, x)[1]
        assert width(sym, x) == width(sheared, x)


def test_shake_curved_goes_through_inscribed_polygon():
    shaken = shake(Disk((0, 0), 1))
    assert isinstance(shaken, Polygon)
    lo, _ = y_bounds(shaken, Fraction(1, 4))
    assert lo == 0
    assert abs(float(area(shaken)) - np.pi) < 0.02


def test_inscribed_polygon_is_inside():
    disk = Disk((0, 0), 1)
    poly = inscribed_polygon(disk, 32)
    assert all(
        float(x) ** 2 + float(y) ** 2 <= 1 + 1e-9 for x, y in poly.vertices
    )


def test_affine_image_polygon():
    sheared = affine_image(SQUARE, ((1, 1), (0, 1)))
    assert area(sheared) == 1
    with pytest.raises(ValueError):
        affine_image(SQUARE, ((1, 1), (1, 1)))


def test_contains():
    assert contains(TRI, (Fraction(1, 4), Fraction(1, 4)))
    assert not contains(TRI, (Fraction(3, 4), Fraction(3, 4)))
    assert contains(Disk((0, 0), 1), (0.5, 0.5))


def test_contains_is_exact_for_curved_bodies():
    # A float is the rational it equals, so a point 1e-13 outside the unit
    # circle is outside, and one on it is inside.
    disk = Disk((0, 0), 1)
    assert contains(disk, (1.0, 0)) and contains(disk, (-0.5, 0.75))
    for outside in ((1 + 1e-13, 0), (Fraction(1 + 1e-13), 0),
                    (Fraction(3, 5), Fraction(4, 5) + Fraction(1, 10**30))):
        assert not contains(disk, outside)
    assert contains(disk, (Fraction(3, 5), Fraction(4, 5)))
    # The sheared ellipse t + m.w maps w = (1, 0) to t + (2, 1/3).
    ell = Ellipse(((2, 1), (Fraction(1, 3), 1)), (1, -2))
    edge = (Fraction(3), Fraction(-5, 3))
    assert contains(ell, edge)
    assert not contains(ell, (edge[0] + Fraction(1, 10**30), edge[1]))
    # A radius with no float image is no obstacle to the exact test.
    assert contains(Disk((0, 0), Fraction(10) ** 400), (10.0**300, 0))


@pytest.mark.parametrize("body", [TRI, Disk((0, 0), 1),
                                  Ellipse(((2, 1), (0, 1)), (1, -2))],
                         ids=["polygon", "disk", "ellipse"])
@pytest.mark.parametrize("point, axis", [
    ((float("nan"), 0), "x"),
    ((0, float("inf")), "y"),
    ((np.float64(-np.inf), 0.5), "x"),
])
def test_contains_names_a_coordinate_that_is_not_finite(body, point, axis):
    match = f"point {axis} coordinate .* is not a finite number"
    with pytest.raises(ValueError, match=match):
        contains(body, point)


def test_sampling_stays_inside(rng):
    gen = np.random.Generator(np.random.PCG64(5))
    for body in (TRI, PENTAGON, Disk((0, 0), 1),
                 affine_image(Disk((0, 0), 1), SHEAR)):
        pts = sample_points(body, 500, gen)
        assert pts.shape == (500, 2)
        for x, y in pts:
            assert contains(body, (float(x), float(y)))


def test_fan_triangle_shares_match_areas():
    count = 200_000
    pts = sample_points(PENTAGON, count, np.random.Generator(np.random.PCG64(6)))
    verts = [(float(x), float(y)) for x, y in PENTAGON.vertices]
    (x0, y0), inner = verts[0], verts[2:-1]
    # Fan triangle of each point: the diagonals from v0 it lies left of.
    fan = sum(
        (vx - x0) * (pts[:, 1] - y0) - (vy - y0) * (pts[:, 0] - x0) > 0
        for vx, vy in inner
    )
    shares = np.bincount(fan, minlength=3) / count
    assert area(PENTAGON) == Fraction(39, 4)
    expected = np.array([12, 18, 9]) / 39
    sigma = np.sqrt(expected * (1 - expected) / count)
    assert np.all(np.abs(shares - expected) < 4 * sigma)


def test_triangle_barycentric_marginals():
    # Each barycentric coordinate of a uniform point in a triangle has
    # P(lambda > t) = (1 - t)^2.
    count = 200_000
    pts = sample_points(TRI, count, np.random.Generator(np.random.PCG64(7)))
    bary = np.column_stack((1 - pts.sum(axis=1), pts[:, 0], pts[:, 1]))
    assert bary.min() >= 0
    for t in (0.1, 0.25, 0.5, 0.75, 0.9):
        expected = (1 - t) ** 2
        sigma = (expected * (1 - expected) / count) ** 0.5
        for k in range(3):
            assert abs((bary[:, k] > t).mean() - expected) < 4 * sigma


def test_json_round_trip():
    for body in (TRI, Disk((0, 1), Fraction(1, 2)), Ellipse(((1, 1), (0, 1)), (0, 0))):
        doc = body_to_json(body)
        assert body_from_json(doc) == body
    with pytest.raises(ValueError):
        body_from_json({"type": "cone"})


# -- curved bodies through one (m, t) frame ---------------------------------

small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


def disk_x_range(disk):
    """The disk support as a separate disk branch computed it."""
    return disk.center[0] - disk.radius, disk.center[0] + disk.radius


def disk_y_bounds(disk, x):
    """The disk slice as a separate disk branch computed it."""
    (cx, cy), r = disk.center, disk.radius
    h = rational_sqrt(max(Fraction(0), r * r - (x - cx) ** 2))
    return cy - h, cy + h


def unit_disk_pairs(count, rng):
    """The first ``count`` pairs (2u - 1, 2v - 1) of one long draw that lie
    in the unit disk."""
    w = 2 * rng.random((3 * count, 2)) - 1
    w = w[(w ** 2).sum(axis=1) <= 1][:count]
    assert len(w) == count
    return w


def disk_sample_points(disk, count, rng):
    """The disk draw by rejection, as a separate disk branch computed it:
    `unit_disk_pairs` scaled by r and moved to the centre."""
    c = np.array([float(v) for v in disk.center])
    return c + float(disk.radius) * unit_disk_pairs(count, rng)


def ellipse_sample_points(ellipse, count, rng):
    """The ellipse draw by rejection: `unit_disk_pairs` w mapped by
    (m_i0 w_x + t_i) + m_i1 w_y, coordinate by coordinate."""
    m = np.array(ellipse.m, dtype=float)
    t = np.array(ellipse.t, dtype=float)
    w = unit_disk_pairs(count, rng)
    return np.column_stack([m[i, 0] * w[:, 0] + t[i] + m[i, 1] * w[:, 1]
                            for i in range(2)])


def polygon_sample_points(polygon, count, rng):
    """The polygon draw as a binary search over the fan computed it: u,
    then v, then a fan key per point, whose triangle is the first with a
    running area above it (``searchsorted``), or the last."""
    verts = np.array(polygon.vertices, dtype=float)
    v0 = verts[0]
    a = verts[1:-1] - v0
    b = verts[2:] - v0
    cum = np.cumsum(np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
    u = rng.random(count)
    v = rng.random(count)
    lo = np.minimum(u, v)[:, None]
    mid = np.maximum(u, v)[:, None] - lo
    if len(cum) == 1:
        return (v0 + lo * a[0]) + mid * b[0]
    idx = np.searchsorted(cum, rng.random(count) * cum[-1], side="right")
    idx = np.minimum(idx, len(cum) - 1)
    return (v0 + lo * a[idx]) + mid * b[idx]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_rationals, small_rationals,
       small_rationals.filter(lambda r: r > 0), st.integers(-64, 64))
def test_disk_slices_match_disk_formulas(cx, cy, r, k):
    disk = Disk((cx, cy), r)
    assert x_range(disk) == disk_x_range(disk)
    # A dyadic abscissa inside the support.
    x = Fraction(int((cx + r * Fraction(k, 64)) * 1024), 1024)
    assume(abs(x - cx) <= r)
    assert y_bounds(disk, x) == disk_y_bounds(disk, x)
    assert area(disk).coefficient == r * r


def test_unit_disk_sampling_is_bit_identical():
    rnd = random.Random(11)
    for seed in range(20):
        center = (Fraction(rnd.randrange(-99, 100), rnd.randrange(1, 30)),
                  Fraction(rnd.randrange(-99, 100), rnd.randrange(1, 30)))
        disk = Disk(center, 1)
        got = sample_points(disk, 1000, np.random.default_rng(seed))
        want = disk_sample_points(disk, 1000, np.random.default_rng(seed))
        assert np.array_equal(got, want)


def test_ellipse_sampling_is_bit_identical():
    # Half the ellipses are axis-aligned, and some of those centred at 0,
    # where the draw drops the zero terms of m.w + t that the oracle adds.
    rnd = random.Random(12)

    def rational():
        return Fraction(rnd.randrange(-99, 100), rnd.randrange(1, 30))

    for seed in range(30):
        m = [[rational(), rational()], [rational(), rational()]]
        t = [rational(), rational()]
        if seed % 2:
            m[0][1] = m[1][0] = 0
        if seed % 3 == 0:
            t = [0, 0]
        if m[0][0] * m[1][1] == m[0][1] * m[1][0]:
            continue
        ellipse = Ellipse(m, t)
        got = sample_points(ellipse, 1000, np.random.default_rng(seed))
        want = ellipse_sample_points(ellipse, 1000,
                                     np.random.default_rng(seed))
        assert (np.ascontiguousarray(got).tobytes()
                == np.ascontiguousarray(want).tobytes())


def test_normal_image_moves_only_bodies_of_extreme_extent():
    tiny = Fraction(1, 2 ** 300)
    for body in (TRI, SQUARE, PENTAGON, Disk((1, -2), 3),
                 Ellipse(((3, 1), (1, 2)), (1, -1)),
                 triangle((0, 0), (2 ** 256, 0), (0, Fraction(1, 2 ** 256)))):
        assert normal_image(body) is body
    assert (normal_image(triangle((1, 1), (1 + tiny, 1), (1, 1 + tiny)))
            == TRI)
    assert (normal_image(triangle((0, 0), (2 ** 300 * 3, 0), (0, 1)))
            == triangle((0, 0), (Fraction(3, 2), 0), (0, 1)))
    assert (normal_image(Disk((5, 0), 2 ** 400))
            == Ellipse(((1, 0), (0, 1)), (0, 0)))


def test_fan_index_is_the_clamped_searchsorted():
    # Running areas with ties (triangles of area 0) and keys on the edges,
    # at 0 and at the total: every fan size from 2 to 70 triangles, and
    # sizes around the powers of two the search pads to.
    rng = np.random.default_rng(5)
    for triangles in [*range(2, 71), 127, 128, 129, 255, 256, 257, 1000]:
        areas = rng.integers(0, 4, triangles).astype(float)
        areas[-1] += 1
        cum = np.cumsum(areas)
        keys = np.concatenate([cum, [0.0], rng.random(200) * cum[-1]])
        want = np.minimum(np.searchsorted(cum, keys, side="right"),
                          triangles - 1)
        assert np.array_equal(bodies._fan_index(cum, keys), want)


@pytest.mark.parametrize("triangles", [1, 2, 3, 62, 300])
def test_polygon_sampling_matches_the_fan_search(triangles):
    # A single triangle draws no fan key; 62 and 300 triangles pad the
    # search to 63 and 511 edges.
    polygon = {1: TRI, 2: SQUARE, 3: PENTAGON}.get(triangles)
    if polygon is None:
        polygon = inscribed_polygon(Disk((1, -2), 3), triangles + 2)
    assert polygon.n == triangles + 2
    for count in (1, 7, 8192 * 5):
        for seed in range(5):
            got = sample_points(polygon, count, np.random.default_rng(seed))
            want = polygon_sample_points(polygon, count,
                                         np.random.default_rng(seed))
            assert got.shape == (count, 2)
            assert (np.ascontiguousarray(got).tobytes()
                    == np.ascontiguousarray(want).tobytes())


@pytest.mark.parametrize("body, matrix", [
    (Disk((0, 0), 1), ((1, 0), (0, 1))),
    (affine_image(Disk((0, 0), 1), SHEAR), SHEAR),
])
def test_curved_sampling_is_uniform_on_the_unit_disk(body, matrix):
    # Mapped back to w, a uniform point of the disk or the sheared ellipse
    # has P(|w| <= t) = t^2 and falls in each of eight equal sectors with
    # probability 1/8.
    count = 200_000
    pts = sample_points(body, count, np.random.Generator(np.random.PCG64(8)))
    w = pts @ np.linalg.inv(np.array(matrix, dtype=float)).T
    radius = np.hypot(w[:, 0], w[:, 1])
    assert radius.max() <= 1 + 1e-12
    for t in (0.25, 0.5, 0.75, 0.9):
        sigma = (t * t * (1 - t * t) / count) ** 0.5
        assert abs((radius <= t).mean() - t * t) < 4 * sigma
    sector = np.floor((np.arctan2(w[:, 1], w[:, 0]) + np.pi) / (np.pi / 4))
    shares = np.bincount(np.minimum(sector.astype(int), 7), minlength=8)
    sigma = (1 / 8 * 7 / 8 / count) ** 0.5
    assert np.all(np.abs(shares / count - 1 / 8) < 4 * sigma)


def test_polygon_streams_are_pinned():
    # Floats taken before the disk draw changed: the polygon branch keeps
    # its streams.
    square = sample_points(SQUARE, 5, np.random.default_rng(17))
    assert square.tolist() == [
        [0.8450747927979015, 0.45925075520870307],
        [0.16097309116910696, 0.42816449909360843],
        [0.6113431084989805, 0.053598561133288425],
        [0.36807994166427127, 0.7363858705132865],
        [0.015289656596711554, 0.21494196356176842],
    ]
    pentagon = sample_points(PENTAGON, 5, np.random.default_rng(17))
    assert pentagon.tolist() == [
        [2.994475133602408, 0.9185015104174061],
        [1.04467947656318, 1.1235204061117183],
        [1.88762788663023, 0.10719712226657685],
        [0.18381398364739165, 1.4725457538418292],
        [-0.17671782206998954, 0.24552127675519153],
    ]


rational_matrices = st.tuples(
    st.tuples(small_rationals, small_rationals),
    st.tuples(small_rationals, small_rationals),
).filter(lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rational_matrices, st.tuples(small_rationals, small_rationals),
       st.lists(st.integers(-16, 16), min_size=1, max_size=4))
def test_ellipse_symmetral_recentres_every_slice(m, t, ks):
    ell = Ellipse(m, t)
    sym = steiner_symmetrize(ell)
    assert isinstance(sym, Ellipse) and sym.t == (ell.t[0], 0)
    # max(|a0|, |a1|) <= |a|, the support half-width.
    reach = max(abs(m[0][0]), abs(m[0][1]))
    for k in ks:
        x = ell.t[0] + reach * Fraction(k, 16)
        bottom, top = y_bounds(sym, x)
        assert bottom == -top
        assert top - bottom == width(ell, x)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_rationals.filter(bool), small_rationals.filter(bool),
       st.tuples(small_rationals, small_rationals), st.booleans())
def test_axis_aligned_symmetral_only_drops_the_centre_height(p, q, t, swap):
    m = ((0, p), (q, 0)) if swap else ((p, 0), (0, q))
    assert steiner_symmetrize(Ellipse(m, t)) == Ellipse(m, (t[0], 0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.fractions(max_denominator=10**6))
def test_rational_sqrt_is_exact_on_squares(q):
    assert rational_sqrt(q * q) == abs(q)


def test_contains_at_the_boundary_of_a_sheared_ellipse():
    ell = Ellipse(((2, 1), (Fraction(1, 3), 1)), (1, -2))
    m = np.array([[2.0, 1.0], [1 / 3, 1.0]])
    for theta in np.linspace(0, 2 * np.pi, 13):
        w = np.array([np.cos(theta), np.sin(theta)])
        assert contains(ell, np.array([1.0, -2.0]) + m @ (w * (1 - 1e-9)))
        assert not contains(ell, np.array([1.0, -2.0]) + m @ (w * (1 + 1e-10)))
