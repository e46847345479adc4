"""End-to-end acceptance checks.

Each test prints a single pass/fail line; the lines are echoed in the
terminal summary (see conftest).  The heavier Monte Carlo checks use
10^6-sample runs and take a few seconds each.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from sylvester import cli
from sylvester.bodies import (
    Disk,
    Polygon,
    affine_image,
    area,
    shake,
    steiner_symmetrize,
    triangle,
    width,
    x_range,
    y_bounds,
)
from sylvester.closed_forms import closed_form
from sylvester.combs import (
    comb_poly,
    comb_poly_permutations,
    comb_poly_triangulations,
)
from sylvester.montecarlo import (
    estimate_Q,
    estimate_Q_rb,
    estimate_segments,
)
from sylvester.poly import MultiPoly, grid_identity_check
from sylvester.segments import (
    NormalizedFamily,
    family_probability,
    family_segments,
    in_compa,
    profile_to_offsets,
)
from conftest import random_convex_polygon

ACCEPTANCE_LINES = []

TRI = triangle((0, 0), (1, 0), (0, 1))
SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
DISK = Disk((0, 0), 1)


def record(number, name, ok):
    line = f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def random_compa_family(rnd):
    """Random normalized family with nonzero concavity defects."""
    n_interior = rnd.choice((2, 3))
    while True:
        interior = sorted(rnd.sample(range(1, 24), n_interior))
        xbar = (Fraction(0), *(Fraction(k, 24) for k in interior), Fraction(1))
        p = [Fraction(rnd.randrange(0, 5), 4) for _ in range(n_interior)]
        if any(p):
            break
    q = [pj * Fraction(rnd.randrange(-4, 5), 4) for pj in p]
    lam = profile_to_offsets(p, xbar)
    beta = profile_to_offsets(q, xbar)
    L0 = Fraction(rnd.randrange(1, 5), 4)
    L1 = Fraction(rnd.randrange(1, 5), 4)
    family = NormalizedFamily(xbar, L0, L1, lam, beta)
    assert in_compa(family.lam, family.beta, family.xbar)
    return family


def test_criterion_1_closed_forms():
    ok = (
        closed_form("triangle", 4) == Fraction(2, 3)
        and closed_form("triangle", 5) == Fraction(11, 36)
        and closed_form("square", 4) == Fraction(25, 36)
        and closed_form("square", 5) == Fraction(49, 144)
    )
    record(1, "closed-form oracle", ok)


def test_criterion_2_monte_carlo_constants():
    cases = [
        (TRI, 5, 0.305556),
        (DISK, 5, 0.356190),
        (DISK, 4, 0.704480),
    ]
    ok = True
    disk5 = None
    for body, n, target in cases:
        result = estimate_Q(body, n, 1_000_000, seed=20260825, workers=4)
        ok &= abs(result.estimate - target) < 3 * result.std_error
        if body is DISK and n == 5:
            disk5 = result
    # the rejected (48*pi)^2 parenthesization of the n = 5 disk constant
    rejected = 1 - 305 / (48 * math.pi) ** 2
    ok &= abs(disk5.estimate - rejected) > 10 * disk5.std_error
    record(2, "Monte Carlo constants", ok)


def test_criterion_3_three_way_K():
    rnd = random.Random(3)
    ok = True
    for _ in range(200):
        m = rnd.randrange(1, 6)
        interior = sorted(rnd.sample(range(1, 48), m))
        x = [Fraction(k, 48) for k in interior]
        lengths = [Fraction(rnd.randrange(1, 13), 6) for _ in range(m)]
        full_x = [Fraction(0), *x, Fraction(1)]
        gamma = [Fraction(0), *lengths, Fraction(0)]
        k_rec = comb_poly(x, lengths)
        ok &= k_rec == comb_poly_triangulations(full_x, gamma)
        ok &= k_rec == comb_poly_permutations(full_x, gamma)
    for m in (1, 2, 3):
        x = [Fraction(k, m + 1) for k in range(1, m + 1)]
        lengths = [MultiPoly.variable(f"l{j}") for j in range(1, m + 1)]
        full_x = [Fraction(0), *x, Fraction(1)]
        gamma = [MultiPoly.constant(0), *lengths, MultiPoly.constant(0)]
        bounds = {f"l{j}": m for j in range(1, m + 1)}
        k_rec = comb_poly(x, lengths)
        ok &= grid_identity_check(
            k_rec, comb_poly_triangulations(full_x, gamma), bounds
        )
        ok &= grid_identity_check(
            k_rec, comb_poly_permutations(full_x, gamma), bounds
        )
    record(3, "three-way K equivalence", ok)


def test_criterion_4_exact_vs_monte_carlo():
    rnd = random.Random(4)
    ok = True
    for i in range(30):
        family = random_compa_family(rnd)
        exact = float(family_probability(family))
        result = estimate_segments(family_segments(family), 200_000, seed=i)
        sigma = max(result.std_error, 1e-12)
        ok &= abs(result.estimate - exact) < 4 * sigma
    record(4, "exact vs Monte Carlo conditional", ok)


def test_criterion_5_monotonicity():
    rnd = random.Random(5)
    zero = None
    ok = True
    for _ in range(100):
        family = random_compa_family(rnd)
        zero = tuple(Fraction(0) for _ in family.xbar)
        p_sym = family_probability(family.with_beta(zero))
        p_shaken = family_probability(family.with_beta(family.lam))
        for _ in range(10):
            q = [
                pj * Fraction(rnd.randrange(-4, 5), 4)
                for pj in slope_of(family.lam, family.xbar)
            ]
            beta = profile_to_offsets(q, family.xbar)
            p_beta = family_probability(family.with_beta(beta))
            ok &= p_sym >= p_beta >= p_shaken
    record(5, "monotonicity in the defect", ok)


def slope_of(lam, xbar):
    from sylvester.segments import slope_profile

    return slope_profile(lam, xbar)


VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_all.json"


def test_criterion_6_certificates(capsys):
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    ok = code == 0 and doc["summary"] == "pass"
    ok &= out == VERIFY_GOLDEN.read_text()  # byte-identical output
    ok &= all(c["pass"] for c in doc["identity_checks"])
    ok &= all(
        c["method"] == "monomial-certificate"
        for c in doc["positivity_checks"]
    )
    record(6, "certificate suite", ok)


def test_criterion_7_transform_properties(rng):
    ok = True
    for _ in range(50):
        poly = random_convex_polygon(rng)
        lo, hi = x_range(poly)
        probes = [lo + (hi - lo) * Fraction(k, 19) for k in range(20)]
        sym = steiner_symmetrize(poly)
        sha = shake(poly)
        for image in (sym, sha):
            ok &= area(image) == area(poly)
            ok &= all(width(image, x) == width(poly, x) for x in probes)
        for x in probes:
            b, t = y_bounds(sym, x)
            ok &= b == -t
            ok &= y_bounds(sha, x)[0] == 0
    record(7, "symmetrize/shake properties", ok)


def test_criterion_8_affine_invariance():
    sheared = affine_image(SQUARE, ((1, 1), (0, 1)))
    a = estimate_Q(SQUARE, 4, 1_000_000, seed=8, workers=4)
    b = estimate_Q(sheared, 4, 1_000_000, seed=88, workers=4)
    target = 25 / 36
    ok = abs(a.estimate - target) < 3 * a.std_error
    ok &= abs(b.estimate - target) < 3 * b.std_error
    combined = (a.std_error**2 + b.std_error**2) ** 0.5
    ok &= abs(a.estimate - b.estimate) < 4 * combined
    record(8, "affine invariance", ok)


def test_criterion_9_rao_blackwell_dominance():
    wins = 0
    for seed in range(20):
        rb = estimate_Q_rb(TRI, 5, 400, seed=seed)
        plain = estimate_Q(TRI, 5, 400, seed=seed + 1000)
        if rb.std_error < plain.std_error:
            wins += 1
    record(9, f"Rao-Blackwell dominance ({wins}/20)", wins >= 18)
