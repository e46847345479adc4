"""Seeded, reproducible Monte Carlo estimators of convex-position
probabilities, used both as end-user functionality and as brute-force
oracles for the exact formulas.

PRNG: numpy PCG64 seeded through `numpy.random.SeedSequence(seed)`; worker
streams are `SeedSequence(seed).spawn(workers)` and results are accumulated
in worker order, so identical (seed, workers, samples) give identical hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bodies
from .rationals import round_to_dyadic
from .segments import (
    VerticalSegment,
    clamped_family,
    family_probability,
    normalize,
)

#: Dyadic rounding (bits) applied to sampled abscissas before exact
#: conditional evaluation; keeps rational arithmetic fast, perturbs each
#: conditional by O(2^-26) which is negligible against Monte Carlo noise.
ABSCISSA_BITS = 26


@dataclass(frozen=True)
class EstimateResult:
    n: int
    samples: int
    hits: int | None
    estimate: float
    std_error: float
    ci95: tuple
    seed: int
    workers: int

    def to_json(self):
        return {
            "n": self.n,
            "samples": self.samples,
            "hits": self.hits,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "seed": self.seed,
            "workers": self.workers,
        }


def _binomial_result(n, samples, hits, seed, workers):
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1 - estimate) / samples)
    return EstimateResult(
        n=n,
        samples=samples,
        hits=hits,
        estimate=estimate,
        std_error=std_error,
        ci95=(estimate - 1.96 * std_error, estimate + 1.96 * std_error),
        seed=seed,
        workers=workers,
    )


# -- convex position tests -------------------------------------------------


def is_convex_position(points) -> bool:
    """True iff every point is an extreme point of the hull of the set.

    Exact (orientation predicate on rationals) when all coordinates are
    ints or Fractions; float arithmetic otherwise.  Collinear triples on
    the hull boundary and duplicate points count as not in convex position.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least three points")
    exact = all(
        isinstance(c, (int, Fraction)) for p in points for c in p
    )
    if not exact:
        arr = np.asarray([[float(x), float(y)] for x, y in points])
        return bool(convex_position_mask(arr[None, :, :])[0])
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(pts)) != len(pts):
        return False
    return _hull_vertex_count(pts) == len(pts)


def _hull_vertex_count(pts):
    # Andrew monotone chain with strict turns: collinear points are dropped,
    # so the count equals the number of genuine hull vertices.
    pts = sorted(set(pts))
    if len(pts) < 3:
        return len(pts)

    def build(seq):
        chain = []
        for p in seq:
            while (
                len(chain) >= 2
                and bodies._cross(chain[-2], chain[-1], p) <= 0
            ):
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    return len(lower) + len(upper) - 2


#: Samples per block of `convex_position_mask`; bounds its temporaries.
MASK_BLOCK = 1 << 15


def convex_position_mask(samples: np.ndarray) -> np.ndarray:
    """Vectorized test for an (S, n, 2) float array of n-point samples.

    Each sample's points are sorted by angle (`arctan2`) around their
    centroid; the sample passes iff every cyclically consecutive triple
    makes a strict left turn.  A zero cross product fails the sample, so
    collinear and duplicate points count as failure (a measure-zero event
    for continuous distributions).  Samples are processed in blocks of
    `MASK_BLOCK`, with x and y as contiguous (n, block) rows.
    """
    S, n, _ = samples.shape
    if n < 3:
        raise ValueError("need at least three points")
    mask = np.empty(S, dtype=bool)
    for start in range(0, S, MASK_BLOCK):
        block = samples[start:start + MASK_BLOCK]
        x = np.ascontiguousarray(block[:, :, 0].T)
        y = np.ascontiguousarray(block[:, :, 1].T)
        order = np.argsort(
            np.arctan2(y - y.mean(axis=0), x - x.mean(axis=0)), axis=0
        )
        x = np.take_along_axis(x, order, axis=0)
        y = np.take_along_axis(y, order, axis=0)
        ex = np.roll(x, -1, axis=0) - x
        ey = np.roll(y, -1, axis=0) - y
        # Turn at vertex k + 1: cross product of edges k and k + 1.
        cross = ex * np.roll(ey, -1, axis=0) - ey * np.roll(ex, -1, axis=0)
        mask[start:start + MASK_BLOCK] = (cross > 0).all(axis=0)
    return mask


# -- estimators ------------------------------------------------------------


def _worker_chunks(samples, workers):
    base, extra = divmod(samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def estimate_Q(body, n, samples, seed=0, workers=1) -> EstimateResult:
    """Plain binomial estimator of the convex-position probability."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(workers)
    hits = 0
    for chunk, stream in zip(_worker_chunks(samples, workers), streams):
        if chunk == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(stream))
        pts = bodies.sample_points(body, chunk * n, rng).reshape(chunk, n, 2)
        hits += int(convex_position_mask(pts).sum())
    return _binomial_result(n, samples, hits, seed, workers)


def rb_conditional(body, abscissas) -> Fraction:
    """Exact convex-position probability conditional on sorted abscissas."""
    segs = []
    for x in abscissas:
        lo, hi = bodies.y_bounds(body, x)
        segs.append(VerticalSegment(x, lo, hi))
    family = clamped_family(normalize(segs))
    return family_probability(family)


def estimate_Q_rb(body, n, samples, seed=0) -> EstimateResult:
    """Rao-Blackwellized estimator: keep only the sampled abscissas and
    average the exact conditional probability given them.

    The returned std_error comes from the sample variance of the
    conditionals; `hits` is None (there is no underlying indicator count).
    """
    if n not in (3, 4, 5):
        raise ValueError("conditional estimator supports n in {3, 4, 5}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    values = conditional_samples(body, n, samples, rng)
    estimate = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if samples > 1 else 0.0
    std_error = math.sqrt(var / samples)
    return EstimateResult(
        n=n,
        samples=samples,
        hits=None,
        estimate=estimate,
        std_error=std_error,
        ci95=(estimate - 1.96 * std_error, estimate + 1.96 * std_error),
        seed=seed,
        workers=1,
    )


def conditional_samples(body, n, samples, rng) -> np.ndarray:
    """Array of exact conditional probabilities, one per abscissa draw."""
    xs = bodies.sample_points(body, samples * n, rng)[:, 0].reshape(
        samples, n
    )
    xs.sort(axis=1)
    lo, hi = bodies.x_range(body)
    values = np.empty(samples)
    for i in range(samples):
        row = [round_to_dyadic(float(v), ABSCISSA_BITS) for v in xs[i]]
        row = [min(max(v, lo), hi) for v in row]
        if len(set(row)) != n:
            # Rounding tie: fall back to full float precision.
            row = [Fraction(float(v)) for v in xs[i]]
            row = [min(max(v, lo), hi) for v in row]
        values[i] = float(rb_conditional(body, row))
    return values


def estimate_segments(segments, samples, seed=0) -> EstimateResult:
    """Binomial estimator with one uniform point per vertical segment."""
    segments = list(segments)
    k = len(segments)
    if k < 3:
        raise ValueError("need at least three segments")
    xs = [float(s.x) for s in segments]
    if len(set(xs)) != k:
        raise ValueError("duplicate abscissas")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    lows = np.array([float(s.y_low) for s in segments])
    spans = np.array([float(s.width) for s in segments])
    ys = lows + rng.random((samples, k)) * spans
    pts = np.empty((samples, k, 2))
    pts[:, :, 0] = np.array(xs)
    pts[:, :, 1] = ys
    hits = int(convex_position_mask(pts).sum())
    return _binomial_result(k, samples, hits, seed, 1)
