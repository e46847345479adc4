"""Seeded, reproducible Monte Carlo estimators of convex-position
probabilities, used both as end-user functionality and as brute-force
oracles for the exact formulas.

PRNG: numpy PCG64.  All three estimators draw through `_map_batches`, in
batches of `MASK_BLOCK` samples, so peak memory does not grow with the
sample count.  Batch b draws from its own stream, the child
`SeedSequence(seed).spawn(b + 1)[b]`, and the batch results are combined
in batch order, so every estimate depends on (seed, samples) only:
``workers`` just caps the threads that share the batches (numpy releases
the interpreter lock in the draws, the hull test and the float
conditional).

The hull test (`convex_position_mask`) adds each sample's points one at a
time and checks every new four-point subset by the parity of its triple
orientations (a 2 + 2 Radon partition), dropping failed samples as it goes.
Uniform draws rarely stay in convex position as points are added, so its
cost follows the survivors, not the C(n, 4) subsets of every sample.

The Rao-Blackwellized estimator averages the probability conditional on
each sample's abscissas.  `rb_conditionals` evaluates it in float64 for a
whole batch at once, from the paper's split-sum formula at Gauss nodes
(`segments.segment_probabilities`), to within 1e-12 of the exact
`rb_conditional`, which stays as its oracle.

numpy is imported inside the functions that draw or test floats, not at
module level: every command imports this module, and the exact ones
(`verify`, `kpoly`, ...) would otherwise pay numpy's start-up for nothing.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from numbers import Rational

from . import bodies
from .rationals import FrozenRecord
from .segments import (
    VerticalSegment,
    clamped_family,
    family_probability,
    normalize,
    segment_probabilities,
)

#: Unused here; bench/tracing.py's dyadic-tie counter still reads it.
ABSCISSA_BITS = 26

class EstimateResult(FrozenRecord):
    """hits is None for a Rao-Blackwellized (``--rb``) estimate."""

    __slots__ = _fields = ("n", "samples", "hits", "estimate", "std_error",
                           "ci95", "seed", "workers")

    def __init__(self, n, samples, hits, estimate, std_error, ci95, seed,
                 workers):
        self.n = n
        self.samples = samples
        self.hits = hits
        self.estimate = estimate
        self.std_error = std_error
        self.ci95 = ci95
        self.seed = seed
        self.workers = workers

    def to_json(self):
        return dict(zip(self._fields, self._values()), ci95=list(self.ci95))


def _binomial_result(n, samples, hits, seed, workers):
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1 - estimate) / samples)
    return EstimateResult(
        n=n,
        samples=samples,
        hits=hits,
        estimate=estimate,
        std_error=std_error,
        ci95=_wilson_interval(estimate, samples),
        seed=seed,
        workers=workers,
    )


def _wilson_interval(p, samples):
    """95 % Wilson score interval of a binomial proportion; unlike the
    normal interval it keeps a nonzero width at 0 and at all hits."""
    z = 1.96
    z2n = z * z / samples
    center = (p + z2n / 2) / (1 + z2n)
    half = z * math.sqrt(p * (1 - p) / samples + z2n / (4 * samples)) / (
        1 + z2n
    )
    # The interval touches 0 or 1 only at no or all hits; pin those ends
    # exactly rather than up to rounding.
    return (0.0 if p == 0 else center - half, 1.0 if p == 1 else center + half)


# -- convex position tests -------------------------------------------------


def is_convex_position(points) -> bool:
    """True iff every point is an extreme point of the hull of the set.

    Exact for every finite input: a float converts to a Fraction without
    rounding, and the orientation predicate runs on rationals.  Collinear
    triples on the hull boundary, duplicate points and a NaN or infinite
    coordinate count as not in convex position.
    """
    points = [tuple(c if isinstance(c, Rational) else float(c) for c in p)
              for p in points]
    if len(points) < 3:
        raise ValueError("need at least three points")
    if not all(isinstance(c, Rational) or math.isfinite(c)
               for p in points for c in p):
        return False
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
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


#: Samples per block of `convex_position_mask` and per batch of the
#: estimators; bounds their temporaries.  Pinned: each batch of this size
#: draws from a stream of its own, so another value changes every seeded
#: estimate.
MASK_BLOCK = 1 << 13


def convex_position_mask(samples: np.ndarray) -> np.ndarray:
    """Vectorized test for an (S, n, 2) float array of n-point samples.

    A planar set with no collinear triple is in convex position iff every
    four of its points are (Carathéodory), and four such points are iff
    their Radon partition splits 2 + 2, that is iff the orientations of
    their four triples have even parity.  The points are added one at a
    time: adding point k computes the orientation of every triple
    (a, b, k), a < b < k, from the differences to point k, and fails a
    sample if one of them is zero or undecided (so collinear and duplicate
    points count as failure, a measure-zero event for continuous
    distributions), or if some 4-subset a < b < c < k has odd parity.  A
    sample with a non-finite coordinate fails at once.

    Samples are processed in blocks of `MASK_BLOCK`, with x and y as
    contiguous (n, block) rows.  Adding point k appends one boolean array
    of C(k, 2) rows, the triples (a, b, k), to a list; a block drops failed
    samples from its working arrays once they are more than half of them,
    and stops when none is left.  Few samples of a uniform draw stay in
    convex position as points are added, so memory and work follow the
    survivors; a block whose samples are all in convex position holds
    C(n, 3) rows and costs C(n, 4) parity rows.
    """
    import numpy as np

    S, n, _ = samples.shape
    if n < 3:
        raise ValueError("need at least three points")
    # Pairs a < b in colex order: pair (a, b) is row b(b - 1)/2 + a, so the
    # pairs below c are the first c(c - 1)/2 rows.
    high, low = np.tril_indices(n - 1, -1)
    mask = np.zeros(S, dtype=bool)
    for start in range(0, S, MASK_BLOCK):
        block = samples[start:start + MASK_BLOCK]
        x = np.ascontiguousarray(block[:, :, 0].T)
        y = np.ascontiguousarray(block[:, :, 1].T)
        alive = np.isfinite(x).all(axis=0) & np.isfinite(y).all(axis=0)
        index = np.arange(len(block))  # block row of each working sample
        # left[c - 2][pair row of (a, b)]: a, b, c turn left.
        left = []
        for k in range(2, n):
            live = np.count_nonzero(alive)
            if live == 0:
                break
            if 2 * live < len(alive):
                keep = np.flatnonzero(alive)
                x = x.take(keep, axis=1)
                y = y.take(keep, axis=1)
                index = index[keep]
                left = [rows.take(keep, axis=1) for rows in left]
                alive = np.ones(live, dtype=bool)
            new = np.empty((k * (k - 1) // 2, len(alive)), dtype=bool)
            decided = np.empty_like(new)
            dx = x[:k] - x[k]
            dy = y[:k] - y[k]
            for b in range(1, k):
                rows = slice(b * (b - 1) // 2, b * (b + 1) // 2)
                t = dx[:b] * dy[b]
                u = dy[:b] * dx[b]
                # Two comparisons, not t != u: NaN must stay undecided.
                np.greater(t, u, out=new[rows])
                np.less(t, u, out=decided[rows])
            decided |= new
            alive &= decided.all(axis=0)
            for c, old in enumerate(left, 2):
                pairs = len(old)  # a < b < c
                col = new[pairs:pairs + c]  # a, c, k for a < c
                # Odd parity of a, b, c, k: a 3 + 1 Radon partition.
                odd = old ^ new[:pairs]
                odd ^= col[low[:pairs]]
                odd ^= col[high[:pairs]]
                alive &= ~odd.any(axis=0)
            left.append(new)
        mask[start:start + len(block)][index] = alive
    return mask


# -- estimators ------------------------------------------------------------


def _map_batches(draw, reduce, samples, seed, workers):
    """Yield ``reduce(draw(size, rng))`` for each batch, in batch order:
    batch b holds `MASK_BLOCK` of the ``samples`` (the last one the rest)
    and its rng is the generator of `SeedSequence(seed, spawn_key=(b,))`.

    ``min(workers, usable_cpus(), batches)`` threads share the batches;
    with one, no pool is built.  The threads run at most two batches each
    ahead of the one yielded next, so memory does not grow with
    ``samples``, and a failing batch raises in its turn, as serially.
    A ``samples`` or ``workers`` below 1 raises ValueError before any draw.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    import threading

    import numpy as np

    batches = -(-samples // MASK_BLOCK)
    kept = threading.local()

    def batch(b):
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(b,)))
        # A thread's last points are freed only once these are drawn.
        # Freed before, glibc gives their pages back and faults them in
        # again: a serial 2e5-sample disk n = 5 run in the benchmark's
        # process (2 vCPU, glibc 2.36) then took 20x the page faults and
        # 1.4x the time.
        kept.pts = draw(min(MASK_BLOCK, samples - b * MASK_BLOCK), rng)
        return reduce(kept.pts)

    threads = min(workers, batches)
    if threads > 1:
        from .parallel import usable_cpus

        threads = min(threads, usable_cpus())
    if threads == 1:
        yield from map(batch, range(batches))
        return
    # Imported here: it pulls in logging and queue, about 10 ms of
    # start-up that single-threaded commands need not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        ahead = deque()
        for b in range(batches):
            ahead.append(pool.submit(batch, b))
            if len(ahead) > 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _body_draw(body, n):
    """Draw of ``batch`` n-point samples from the body, as (batch, n, 2)."""
    def draw(batch, rng):
        return bodies.sample_points(body, batch * n, rng).reshape(batch, n, 2)
    return draw


def _hit_count(pts):
    return int(convex_position_mask(pts).sum())


def estimate_Q(body, n, samples, seed=0, workers=1) -> EstimateResult:
    """Plain binomial estimator of the convex-position probability; it
    depends on (seed, samples) only, and ``workers`` >= 1 caps threads."""
    if n < 3:
        raise ValueError("n must be >= 3")
    hits = sum(_map_batches(_body_draw(body, n), _hit_count, samples, seed,
                            workers))
    return _binomial_result(n, samples, hits, seed, workers)


def rb_conditional(body, abscissas) -> Fraction:
    """Exact convex-position probability conditional on sorted abscissas."""
    segs = []
    for x in abscissas:
        lo, hi = bodies.y_bounds(body, x)
        segs.append(VerticalSegment(x, lo, hi))
    family = clamped_family(normalize(segs))
    return family_probability(family)


def rb_conditionals(body, rows):
    """`rb_conditional` in float64 for each row of a sorted (S, n) float
    abscissa array, n in {3, 4, 5}, all rows at once.

    Each abscissa is first clamped to the support.  The result is within
    1e-12 of the exact conditional at the clamped abscissas, however thin
    or tall the body; a row with a repeated abscissa raises ValueError,
    and a family outside the admissible set by more than rounding raises
    CompaError.  ``rows`` is transposed once, into
    `segment_probabilities`' (n, S) layout.
    """
    import numpy as np

    lo, hi = bodies.x_range(body)
    x = np.array(rows.T, order="C")  # a copy: clipped in place
    np.clip(x, float(lo), float(hi), out=x)
    return segment_probabilities(x, *bodies.slice_bounds(body, x))


def estimate_Q_rb(body, n, samples, seed=0, workers=1) -> EstimateResult:
    """Rao-Blackwellized estimator: keep only the sampled abscissas and
    average the convex-position probability conditional on them.

    Each conditional is the float `rb_conditionals`, within 1e-12 of the
    exact `rb_conditional`.  The returned std_error comes from the sample
    variance of the conditionals (at one sample, 0.5: the largest standard
    deviation of a [0, 1]-valued conditional) and ci95 lies in [0, 1];
    `hits` is None (there is no underlying indicator count).
    """
    if n not in (3, 4, 5):
        raise ValueError("conditional estimator supports n in {3, 4, 5}")
    import numpy as np

    def moments(pts):
        xs = np.sort(pts[:, :, 0], axis=1)
        return _batch_moments(rb_conditionals(body, xs))

    estimate, squares = _moments(_map_batches(
        _body_draw(body, n), moments, samples, seed, workers))
    if samples > 1:
        std_error = math.sqrt(squares / (samples - 1) / samples)
        ci95 = (max(0.0, estimate - 1.96 * std_error),
                min(1.0, estimate + 1.96 * std_error))
    else:
        std_error, ci95 = 0.5, (0.0, 1.0)
    return EstimateResult(
        n=n,
        samples=samples,
        hits=None,
        estimate=estimate,
        std_error=std_error,
        ci95=ci95,
        seed=seed,
        workers=workers,
    )


def _batch_moments(values):
    """(size, mean, sum of squared deviations from it) of a float batch:
    exactly ``np.mean`` and the sum that ``np.var(ddof=1)`` divides by the
    size less one."""
    mean = float(values.mean())
    return len(values), mean, float(((values - mean) ** 2).sum())


def _moments(batches):
    """(mean, sum of squared deviations from it) of all values, from the
    `_batch_moments` of their batches, merged in order (Chan, Golub and
    LeVeque).  For one batch they are that batch's."""
    count, mean, squares = 0, 0.0, 0.0
    for size, batch_mean, batch_squares in batches:
        delta = batch_mean - mean
        count += size
        mean += delta * (size / count)
        squares += (batch_squares
                    + delta * delta * (count - size) * (size / count))
    return mean, squares


def estimate_segments(segments, samples, seed=0) -> EstimateResult:
    """Binomial estimator with one uniform point per vertical segment."""
    segments = list(segments)
    k = len(segments)
    if k < 3:
        raise ValueError("need at least three segments")
    import numpy as np

    xs = bodies._finite_floats([s.x for s in segments], "segment abscissa")
    if len(set(xs)) != k:
        raise ValueError("duplicate abscissas")
    lows = bodies._finite_floats([s.y_low for s in segments], "segment y_low")
    spans = bodies._finite_floats([s.width for s in segments],
                                  "segment width")

    def draw(batch, rng):
        pts = np.empty((batch, k, 2))
        pts[:, :, 0] = xs
        pts[:, :, 1] = lows + rng.random((batch, k)) * spans
        return pts

    hits = sum(_map_batches(draw, _hit_count, samples, seed, 1))
    return _binomial_result(k, samples, hits, seed, 1)
