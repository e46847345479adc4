import concurrent.futures
import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sylvester import bodies, montecarlo, parallel
from sylvester.bodies import (
    Disk,
    Ellipse,
    Polygon,
    affine_image,
    sample_points,
    triangle,
)
from sylvester.montecarlo import (
    MASK_BLOCK,
    _batch_moments,
    _binomial_result,
    _map_batches,
    _moments,
    convex_position_mask,
    estimate_Q,
    estimate_Q_rb,
    estimate_segments,
    is_convex_position,
    rb_conditional,
    rb_conditionals,
)
from sylvester.combs import _pivot_recurrence
from sylvester.segments import (
    CompaError,
    VerticalSegment,
    _float_split_sum,
    _split_sum,
    segment_probabilities,
)

TRI = triangle((0, 0), (1, 0), (0, 1))
SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
DISK = Disk((0, 0), 1)


def triangle_test_mask(samples):
    """The former mask, kept as an oracle: a sample fails iff some point
    lies in or on the triangle of three others."""
    S, n, _ = samples.shape

    def cross(o, a, b):
        return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (
            a[:, 1] - o[:, 1]
        ) * (b[:, 0] - o[:, 0])

    bad = np.zeros(S, dtype=bool)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        p = samples[:, i, :]
        for a, b, c in combinations(others, 3):
            pa, pb, pc = samples[:, a, :], samples[:, b, :], samples[:, c, :]
            s1, s2, s3 = cross(pa, pb, p), cross(pb, pc, p), cross(pc, pa, p)
            bad |= ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | (
                (s1 <= 0) & (s2 <= 0) & (s3 <= 0)
            )
    return ~bad


def draw(body, n, samples, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return sample_points(body, samples * n, rng).reshape(samples, n, 2)


def circle_points(n, samples, seed):
    """n evenly spaced points on a circle per sample, at a random rotation
    and in a random order: every sample is in convex position."""
    rng = np.random.Generator(np.random.PCG64(seed))
    angles = rng.random((samples, 1)) + np.arange(n) * (2 * np.pi / n)
    angles = rng.permuted(angles, axis=1)
    return np.stack([np.cos(angles), np.sin(angles)], axis=2)


def test_is_convex_position_basics():
    assert is_convex_position([(0, 0), (1, 0), (0, 1)])
    assert not is_convex_position(
        [(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))]
    )
    assert is_convex_position([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_is_convex_position_degenerate():
    # collinear point on the hull boundary is not a vertex
    assert not is_convex_position([(0, 0), (1, 0), (2, 0), (1, 1)])
    assert not is_convex_position([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        is_convex_position([(0, 0), (1, 1)])


def test_is_convex_position_float_path():
    assert is_convex_position([(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)])
    assert not is_convex_position([(0.0, 0.0), (1.0, 0.0), (0.2, 0.1), (0.5, 0.9)])


def test_is_convex_position_is_exact_on_floats():
    # The float orientation of this triple rounds to zero; exactly, the
    # three points turn.
    assert is_convex_position([
        (0.1, 0.7),
        (0.3505063413624405, 1.60974625596824),
        (0.8385819818390109, 3.382256221735658),
    ])
    assert is_convex_position([tuple(p) for p in circle_points(200, 1, 200)[0]])


def test_mask_agrees_with_predicate():
    rng = np.random.Generator(np.random.PCG64(11))
    # At n = 24: uniform draws, points on a circle, and points on a circle
    # with one moved inward to where it is a hull vertex or not.
    circle = circle_points(24, 200, seed=24)
    circle[100:, 0] *= np.linspace(0.98, 1.0, 100)[:, None]
    for pts in (rng.random((200, 4, 2)),
                np.concatenate([draw(DISK, 24, 100, seed=24), circle])):
        mask = convex_position_mask(pts)
        assert 0 < mask.sum() < len(mask)
        for row, flag in zip(pts, mask):
            exact = [(Fraction(float(x)), Fraction(float(y))) for x, y in row]
            assert is_convex_position(exact) == bool(flag)


def test_float_path_degenerate_triples_match_exact():
    triples = [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (2, 1), (1, Fraction(1, 2))],
        [(0, 0), (0, 0), (1, 2)],
        [(1, 1), (1, 1), (1, 1)],
        [(0, 0), (1, 0), (0, 1)],
    ]
    for triple in triples:
        floats = [(float(x), float(y)) for x, y in triple]
        assert is_convex_position(floats) == is_convex_position(triple)
    assert not is_convex_position([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    assert not is_convex_position([(0.0, 0.0), (0.0, 0.0), (1.0, 2.0)])


def test_mask_matches_triangle_test():
    for body in (TRI, SQUARE, DISK):
        for n in range(3, 13):
            pts = draw(body, n, 3001, seed=n)
            mask = convex_position_mask(pts)
            assert mask.dtype == bool and mask.shape == (3001,)
            assert np.array_equal(mask, triangle_test_mask(pts))
    # several blocks, the last one partial
    pts = draw(DISK, 5, 2 * MASK_BLOCK + 77, seed=1)
    assert np.array_equal(convex_position_mask(pts), triangle_test_mask(pts))
    # a block in which no sample fails
    for n in (5, 8, 12):
        assert convex_position_mask(circle_points(n, MASK_BLOCK, n)).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_fail(value):
    # Every comparison with NaN is false, so an orientation test that only
    # asks t != u would let this sample through.
    for point, coord in ((3, 0), (3, 1), (0, 0), (1, 1)):
        sample = np.array([(0, 0), (1, 1), (1, 0), (0.5, 1)])
        sample[point, coord] = value
        for order in (sample, sample[::-1]):
            assert not convex_position_mask(order[None])[0]
            assert not is_convex_position([tuple(p) for p in order])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_anywhere_fails(value):
    # An infinite coordinate need not make an orientation undecided: the
    # point can act as a direction and pass every turn test.
    for n in range(3, 7):
        pts = circle_points(n, 50, seed=n)
        for point in range(n):
            for coord in ((0,), (1,), (0, 1)):
                sample = pts.copy()
                sample[:, point, coord] = value
                assert not convex_position_mask(sample).any()
                assert not convex_position_mask(sample[:, ::-1]).any()


def test_mask_of_no_samples():
    mask = convex_position_mask(np.empty((0, 5, 2)))
    assert mask.dtype == bool and mask.shape == (0,)
    with pytest.raises(ValueError):
        convex_position_mask(np.empty((4, 2, 2)))


small_point_sets = st.integers(3, 8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        min_size=n, max_size=n,
    )
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(small_point_sets)
def test_mask_matches_exact_on_small_integers(points):
    # A 5 x 5 grid makes collinear triples and duplicates common.
    arr = np.asarray(points, dtype=float)[None, :, :]
    assert bool(convex_position_mask(arr)[0]) == is_convex_position(points)


def test_reproducibility():
    a = estimate_Q(TRI, 4, 20_000, seed=42, workers=3)
    b = estimate_Q(TRI, 4, 20_000, seed=42, workers=3)
    assert a.hits == b.hits
    assert a.to_json() == b.to_json()
    c = estimate_Q(TRI, 4, 20_000, seed=43, workers=3)
    assert c.hits != a.hits


def test_batches_bound_sample_points(monkeypatch):
    sizes = []
    original = bodies.sample_points

    def recording(body, count, rng):
        sizes.append(count)
        return original(body, count, rng)

    monkeypatch.setattr(bodies, "sample_points", recording)
    samples = 3 * MASK_BLOCK + 5
    estimate_Q(DISK, 5, samples, seed=3)
    assert max(sizes) <= MASK_BLOCK * 5
    assert sum(sizes) == samples * 5


def test_rb_draws_in_batches(monkeypatch):
    # A cheap conditional in place of the float kernel; the reference draws
    # the same MASK_BLOCK batches by hand.
    def spread(body, rows):
        return rows[:, -1] - rows[:, 0]

    sizes = []
    original = bodies.sample_points

    def recording(body, count, rng):
        sizes.append(count)
        return original(body, count, rng)

    monkeypatch.setattr(montecarlo, "rb_conditionals", spread)
    monkeypatch.setattr(bodies, "sample_points", recording)
    n, samples, seed = 5, 2 * MASK_BLOCK + 5, 7
    result = estimate_Q_rb(DISK, n, samples, seed=seed)
    assert max(sizes) <= MASK_BLOCK * n
    assert sum(sizes) == samples * n

    streams = np.random.SeedSequence(seed).spawn(3)
    batches = []
    for batch, stream in zip((MASK_BLOCK, MASK_BLOCK, 5), streams):
        rng = np.random.default_rng(stream)
        xs = original(DISK, batch * n, rng)[:, 0].reshape(batch, n)
        rows = np.sort(xs, axis=1)
        assert (np.diff(rows, axis=1) > 0).all()
        batches.append(spread(DISK, rows))
    estimate, squares = _moments(map(_batch_moments, batches))
    assert result.estimate == estimate
    assert result.std_error == math.sqrt(squares / (samples - 1) / samples)
    # The batch-by-batch moments are those of all values at once.
    values = np.concatenate(batches)
    assert estimate == pytest.approx(np.mean(values), rel=1e-15)
    assert squares / (samples - 1) == pytest.approx(np.var(values, ddof=1),
                                                    rel=1e-12)
    one_mean, one_squares = _moments([_batch_moments(values)])
    assert one_mean == np.mean(values)
    assert one_squares / (samples - 1) == np.var(values, ddof=1)


def test_rb_memory_does_not_grow_with_samples():
    # Eight batches peak where one does: no array of all conditionals, and
    # no batch's temporaries left for the garbage collector.
    def peak(samples):
        tracemalloc.start()
        try:
            estimate_Q_rb(TRI, 5, samples, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate_Q_rb(TRI, 5, 10, seed=0)  # one-time allocations
    assert peak(8 * MASK_BLOCK) < 1.25 * peak(MASK_BLOCK)


@pytest.mark.parametrize("body, n, seed", [
    (TRI, 5, 1), (DISK, 5, 2), (SQUARE, 4, 3), (TRI, 3, 4),
    (Ellipse(((3, 1), (1, 2)), (1, -1)), 5, 5),
    # Thin and tall: a product of three slice heights leaves float64.
    (triangle((0, 0), (1, 0), (0, Fraction(1, 10**105))), 5, 6),
    (triangle((0, 0), (1, 0), (0, 10**110)), 5, 7),
])
def test_rb_conditionals_match_exact(body, n, seed):
    rows = np.sort(draw(body, n, 24, seed)[:, :, 0], axis=1)
    values = rb_conditionals(body, rows)
    assert values.shape == (24,) and np.isfinite(values).all()
    for row, value in zip(rows, values):
        exact = rb_conditional(body, [Fraction(float(v)) for v in row])
        assert abs(value - float(exact)) <= 1e-12


@pytest.mark.parametrize("body, n, seed, digest", [
    (TRI, 5, 11,
     "ea2ea6eccd59b8787da74624673094a6626c1baa957c1215ef3df107564c3b1e"),
    (DISK, 5, 12,
     "eb6e7f3269d98539d47cd53f69388276ae18a37cc78864b34ef86f10f6d76d39"),
    (SQUARE, 4, 13,
     "bbf3e2cb9d63a7d9ad953575d418f413d91a94dd48d8e244e32a8260bcd70f0f"),
    (TRI, 3, 14,
     "ba2c926241805f2343bcb07df0c2e29eeedd2059680dca8e2f5b74087accba55"),
])
def test_rb_conditionals_are_pinned_at_batch_scale(body, n, seed, digest):
    # Digests of one full batch, recorded when the split sum ran the
    # recurrence directly, mask by mask: the float kernel's output may not
    # move by one bit.
    rows = np.sort(draw(body, n, MASK_BLOCK, seed)[:, :, 0], axis=1)
    values = rb_conditionals(body, rows)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_float_split_sum_replays_the_recurrence(N):
    # The replayed trace against the recurrence it was traced from, run
    # directly on the arrays: equal to the bit, inputs left as they were.
    rng = np.random.default_rng(N)
    xs = list(np.sort(rng.random((N, 64)), axis=0))
    up = list(rng.random((N, 4, 64)) - 0.25)
    down = list(rng.random((N, 4, 64)) - 0.25)
    copies = [a.copy() for a in xs + up + down]
    expected = _split_sum(xs, up, down, lambda teeth, heights:
                          _pivot_recurrence([0, *teeth, 1], heights))
    assert _float_split_sum(N)(xs, up, down).tobytes() == expected.tobytes()
    assert all((a == b).all() for a, b in zip(xs + up + down, copies))


@pytest.mark.parametrize("k", [-400, -349, 342, 400])
def test_rb_estimate_does_not_see_vertical_scale(k):
    # Q is affine-invariant, and stretching the triangle vertically leaves
    # its x draws as they are: the estimate is the unit triangle's to the
    # bit, however thin or tall the body, with no product of N slice
    # heights leaving the float range.
    thin_or_tall = triangle((0, 0), (1, 0), (0, Fraction(2) ** k))
    assert (estimate_Q_rb(thin_or_tall, 5, 20_000, seed=3).estimate
            == estimate_Q_rb(TRI, 5, 20_000, seed=3).estimate)


def test_rb_conditionals_allow_rounding_of_far_bodies():
    # Far from the origin, rounding bends the float slices by about
    # 1000 eps; over close abscissas that fakes slope defects above
    # CLAMP_TOLERANCE on some of these rows.  Translation keeps every
    # conditional.
    rows = np.sort(draw(TRI, 5, MASK_BLOCK, 3)[:, :, 0], axis=1)
    far = affine_image(TRI, ((1, 0), (0, 1)), (1000, 1000))
    assert np.abs(rb_conditionals(far, rows + 1000)
                  - rb_conditionals(TRI, rows)).max() < 1e-9


def test_rb_conditionals_leave_their_rows_unwritten():
    # The abscissas are clipped to the support in place, in a copy: one
    # row, or Fortran order, transposes to a contiguous view of the input.
    for rows in (np.array([[-0.5, 0.2, 0.9, 1.5]]),
                 np.asfortranarray([[-0.5, 0.2, 0.9, 1.5], [0, 0.1, 0.2, 1]])):
        copy = rows.copy()
        assert (rb_conditionals(SQUARE, rows) >= 0).all()
        assert (rows == copy).all()


def test_rb_conditionals_errors():
    with pytest.raises(ValueError, match="strictly increasing"):
        rb_conditionals(SQUARE, np.array([[0.1, 0.3, 0.3, 0.9]]))
    x = np.array([[0.0, 0.5, 1.0]]).T
    zero = np.zeros((3, 1))
    with pytest.raises(ValueError, match="zero interior slice width"):
        segment_probabilities(x, zero, zero)
    # Hand-made families 1e-6 outside the admissible set: a bottom above
    # the chord of its ends, and a top that is not concave.
    with pytest.raises(CompaError, match="defect exceeds excess"):
        segment_probabilities(x, np.array([[0, 1e-6, 0]]).T,
                              np.array([[0, 1.0, 0]]).T)
    x = np.array([[0, 1 / 3, 2 / 3, 1]]).T
    with pytest.raises(CompaError, match="slope defect"):
        segment_probabilities(x, np.zeros((4, 1)),
                              np.array([[0, 1, 2 + 2e-6 / 3, 0]]).T)
    # No NaN or infinity on a long seeded draw.
    assert math.isfinite(estimate_Q_rb(TRI, 5, 200_000, seed=1).estimate)


def test_mask_memory_follows_survivors():
    # 200 uniform points per sample: a table of every triple would be
    # C(200, 3) rows of 512 booleans, 672 MB.
    pts = np.random.default_rng(5).random((512, 200, 2))
    tracemalloc.start()
    try:
        mask = convex_position_mask(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not mask.any()
    assert peak < 64 * 2**20


class RecordingPool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that records the size of each pool built."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


ESTIMATORS = {
    "plain": lambda samples, seed, workers: estimate_Q(
        SQUARE, 5, samples, seed=seed, workers=workers),
    "rb": lambda samples, seed, workers: estimate_Q_rb(
        TRI, 5, samples, seed=seed, workers=workers),
}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_results_do_not_depend_on_workers_or_cpus(monkeypatch, estimator):
    # Every batch draws from a stream of its own and the batches are
    # combined in batch order, so threads change nothing but the time.
    run = ESTIMATORS[estimator]
    samples, seed = 3 * MASK_BLOCK + 11, 12
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # provoke interleaving of the threads
    try:
        for cpus in (1, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            for workers in (1, 2, 3, 8):
                result = run(samples, seed, workers)
                assert result.workers == workers
                results.append((result.estimate, result.std_error,
                                result.ci95, result.hits))
    finally:
        sys.setswitchinterval(interval)
    assert results == [results[0]] * 8
    # One pool per threaded run, of min(workers, CPUs, 4 batches) threads;
    # none for a single CPU or a single worker.
    assert RecordingPool.sizes == [2, 3, 3]


def test_threads_match_serial_batches(monkeypatch):
    # The threaded plain estimate against the batches drawn and tested by
    # hand, one after the other, from their spawned streams.
    samples, seed, workers = 30_001, 12, 3
    sizes = [MASK_BLOCK] * 3 + [samples - 3 * MASK_BLOCK]
    expected = sum(
        int(convex_position_mask(draw(SQUARE, 5, size, stream)).sum())
        for size, stream in zip(sizes,
                                np.random.SeedSequence(seed).spawn(4)))
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    hits = [estimate_Q(SQUARE, 5, samples, seed=seed, workers=workers).hits]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    hits.append(estimate_Q(SQUARE, 5, samples, seed=seed,
                           workers=workers).hits)
    assert hits == [expected, expected]
    # No pool for a single CPU: the batches run in the calling thread.
    assert RecordingPool.sizes == [2]


def test_batch_streams_are_spawned_children(monkeypatch):
    # Batch b draws from SeedSequence(seed, spawn_key=(b,)), the stream of
    # SeedSequence(seed).spawn(b + 1)[b].
    seen = []

    def recording(body, count, rng):
        seen.append(rng.random(4))
        return np.zeros((count, 2))

    monkeypatch.setattr(bodies, "sample_points", recording)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    seed = 5
    estimate_Q(DISK, 4, 4 * MASK_BLOCK, seed=seed)
    assert len(seen) == 4
    for b, values in enumerate(seen):
        child = np.random.SeedSequence(seed).spawn(b + 1)[b]
        assert (np.random.default_rng(child).random(4) == values).all()


def test_one_batch_builds_no_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    for run in ESTIMATORS.values():
        assert run(MASK_BLOCK, 3, 8).samples == MASK_BLOCK
    assert RecordingPool.sizes == []


def test_threads_run_a_bounded_number_of_batches_ahead(monkeypatch):
    # Results are taken in batch order and the threads draw at most two
    # batches each past the one taken, so memory does not follow samples.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    drawn = []

    def draw(size, rng):
        drawn.append(size)
        return size

    results = _map_batches(draw, lambda size: size, 100 * MASK_BLOCK, 0, 2)
    assert next(results) == MASK_BLOCK
    assert len(drawn) <= 5
    assert sum(results) == 99 * MASK_BLOCK
    assert len(drawn) == 100


def test_threaded_failure_is_the_serial_one(monkeypatch):
    # Batches 1 and 2 raise: with threads, as serially, batch 1's error
    # surfaces.
    original = bodies.sample_points

    def failing(body, count, rng):
        b = rng.bit_generator.seed_seq.spawn_key[0]
        if b in (1, 2):
            raise ValueError(f"batch {b}")
        return original(body, count, rng)

    monkeypatch.setattr(bodies, "sample_points", failing)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="batch 1"):
            estimate_Q(DISK, 4, 6 * MASK_BLOCK, seed=0, workers=cpus)


def test_estimate_matches_closed_form():
    result = estimate_Q(TRI, 4, 100_000, seed=0, workers=2)
    z = (result.estimate - 2 / 3) / result.std_error
    assert abs(z) < 4


def test_rb_n3_is_exactly_one():
    result = estimate_Q_rb(SQUARE, 3, 50, seed=1)
    assert result.estimate == 1.0
    assert result.std_error == 0.0
    assert result.hits is None


def test_rb_matches_plain():
    rb = estimate_Q_rb(TRI, 4, 400, seed=5)
    plain = estimate_Q(TRI, 4, 100_000, seed=5)
    combined = (rb.std_error**2 + plain.std_error**2) ** 0.5
    assert abs(rb.estimate - plain.estimate) < 4 * combined


def test_rb_single_sample_claims_no_certainty():
    # One conditional has no sample variance; the error bar is the widest a
    # [0, 1]-valued mean can need, not zero.
    for body, n, seed in ((SQUARE, 4, 3), (TRI, 5, 0), (DISK, 5, 1)):
        result = estimate_Q_rb(body, n, 1, seed=seed)
        assert 0 < result.estimate < 1
        assert result.std_error == 0.5
        assert result.ci95 == (0.0, 1.0)


def test_rb_interval_is_clipped_to_unit_range():
    # Two samples whose raw interval crosses 1 (square, n = 4) and 0
    # (triangle, n = 5): the reported ends stop at the range of a probability.
    for body, n, seed, end in ((SQUARE, 4, 1, 1), (TRI, 5, 2, 0)):
        result = estimate_Q_rb(body, n, 2, seed=seed)
        e, half = result.estimate, 1.96 * result.std_error
        assert not 0 <= e + (half if end else -half) <= 1
        assert result.ci95 == (max(0.0, e - half), min(1.0, e + half))
        assert result.ci95[end] == end
    result = estimate_Q_rb(SQUARE, 4, 2, seed=0)
    e, half = result.estimate, 1.96 * result.std_error
    assert result.ci95 == (e - half, e + half)


def test_rb_conditional_values():
    # equally spaced slices of the unit square
    value = rb_conditional(SQUARE, [Fraction(k, 3) for k in range(4)])
    assert value == Fraction(19, 27)
    value = rb_conditionals(SQUARE, np.array([[0, 1 / 3, 2 / 3, 1]]))[0]
    assert abs(value - 19 / 27) <= 1e-15
    with pytest.raises(ValueError):
        estimate_Q_rb(SQUARE, 6, 10)


def test_estimate_segments_comb():
    segs = [
        VerticalSegment(0, 0, 0),
        VerticalSegment(Fraction(1, 3), 0, 1),
        VerticalSegment(Fraction(2, 3), 0, 1),
        VerticalSegment(1, 0, 0),
    ]
    result = estimate_segments(segs, 40_000, seed=9)
    z = (result.estimate - 0.5) / result.std_error
    assert abs(z) < 4
    with pytest.raises(ValueError):
        estimate_segments(segs[:2], 100)
    with pytest.raises(ValueError):
        estimate_segments([segs[1], segs[1], segs[2]], 100)


def test_estimate_segments_batches_match_one_draw():
    segs = [VerticalSegment(Fraction(k, 4), -k, 2 + k * k) for k in range(5)]
    samples, seed = 2 * MASK_BLOCK + 7, 4
    # Each batch is one (size, k) draw from its own stream and one mask
    # call.
    hits = 0
    sizes = (MASK_BLOCK, MASK_BLOCK, 7)
    for size, stream in zip(sizes, np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(stream)
        pts = np.empty((size, 5, 2))
        pts[:, :, 0] = [float(s.x) for s in segs]
        pts[:, :, 1] = np.array([float(s.y_low) for s in segs]) + rng.random(
            (size, 5)
        ) * np.array([float(s.width) for s in segs])
        hits += int(convex_position_mask(pts).sum())
    assert 0 < hits < samples
    assert estimate_segments(segs, samples, seed=seed) == _binomial_result(
        5, samples, hits, seed, 1
    )


def test_estimate_segments_three_is_one():
    segs = [VerticalSegment(Fraction(k, 2), 0, 1) for k in range(3)]
    result = estimate_segments(segs, 500, seed=0)
    assert result.estimate == 1.0 and result.std_error == 0.0
    # All hits: the Wilson interval ends at 1 with a nonzero width,
    # 1 - z^2 / (N + z^2) at N of N.
    low, high = result.ci95
    assert high == 1.0 and low == pytest.approx(1 - 1.96**2 / (500 + 1.96**2))


def test_estimate_segments_no_hits():
    # Points on one line are never in convex position.
    segs = [VerticalSegment(k, 0, 0) for k in range(4)]
    result = estimate_segments(segs, 500, seed=0)
    assert result.hits == 0 and result.std_error == 0.0
    low, high = result.ci95
    assert low == 0.0 and high == pytest.approx(1.96**2 / (500 + 1.96**2))


def test_estimate_segments_without_float_image():
    # Exact abscissas and bounds with no finite float image: a ValueError
    # naming the field, not an OverflowError from float().
    big = 10**400
    segs = [VerticalSegment(x, 0, 1) for x in (0, big, 2 * big)]
    with pytest.raises(ValueError, match="segment abscissa is not finite"):
        estimate_segments(segs, 10)
    segs = [VerticalSegment(x, 0, 1) for x in (0, 1, 2)]
    segs[1] = VerticalSegment(1, -big, 0)
    with pytest.raises(ValueError, match="segment y_low is not finite"):
        estimate_segments(segs, 10)
    segs[1] = VerticalSegment(1, -1e308, 1e308)
    with pytest.raises(ValueError, match="segment width is not finite"):
        estimate_segments(segs, 10)


def test_wilson_interval_inside():
    result = _binomial_result(5, 10_000, 3_000, 0, 1)
    low, high = result.ci95
    assert low < result.estimate < high
    # Close to the normal interval away from the edges.
    assert low == pytest.approx(result.estimate - 1.96 * result.std_error,
                                abs=2e-4)
    assert high == pytest.approx(result.estimate + 1.96 * result.std_error,
                                 abs=2e-4)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_Q(TRI, 2, 100)
    with pytest.raises(ValueError):
        estimate_Q(TRI, 4, 0)
    with pytest.raises(ValueError, match="workers"):
        estimate_Q(TRI, 4, 100, workers=0)


@pytest.mark.parametrize("count", [0, -5])
def test_impossible_counts_are_rejected(count):
    segs = [VerticalSegment(x, 0, 1) for x in (0, 1, 2)]
    for estimate in (lambda: estimate_segments(segs, count),
                     lambda: estimate_Q(TRI, 4, count),
                     lambda: estimate_Q_rb(TRI, 4, count)):
        with pytest.raises(ValueError, match="samples"):
            estimate()
    with pytest.raises(ValueError, match="workers"):
        estimate_Q(TRI, 4, 100, workers=count)
