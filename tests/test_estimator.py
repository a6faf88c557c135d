import copy
import functools
import gc
import math
import pickle
import re
import sys
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import estimator as estimator_module
from erlangreg import (
    ChangeDetector,
    DesignError,
    EdgeDetector,
    EstimateFrame,
    PeakDetector,
    StreamingEstimator,
    design_to_document,
    realization_from_document,
    run_sequence,
)
from erlangreg.network import _PIECE, run_block, steady_state_vector

from oracles import (
    batch_wls,
    batch_wls_variance,
    build,
    moments_reference,
    packet_signal,
    sequence_reference,
)


def _noisy_poly(rng, n=400):
    t = np.arange(n, dtype=float)
    return 2.0 + 0.03 * t + 1e-4 * t * t + rng.standard_normal(n)


def test_final_value_initialization_is_transient_free():
    real = build(2, 0.8, 3, kt=3, q=5.0)
    est = StreamingEstimator(real)
    for _ in range(30):
        frame = est.update(7.25)
        assert frame.estimates[0] == pytest.approx(7.25, abs=1e-9)
        assert abs(frame.estimates[1]) < 1e-9
        assert abs(frame.estimates[2]) < 1e-9
        assert frame.sigma_eps2 == pytest.approx(0.0, abs=1e-12)


def test_estimates_match_explicit_weighted_least_squares():
    rng = np.random.Generator(np.random.PCG64(21))
    for kappa, p, kx, kt, q in [(0, 0.8, 2, 2, 8.5), (2, 0.85, 3, 3, 12.0)]:
        real = build(kappa, p, kx, kt, q)
        xs = _noisy_poly(rng)
        result, _ = run_sequence(real, xs)
        expected = batch_wls(xs, kappa, p, kx, kt, q)
        np.testing.assert_allclose(result.estimates[:, -1], expected, rtol=1e-7)


def test_noise_variance_matches_explicit_fit():
    rng = np.random.Generator(np.random.PCG64(22))
    real = build(2, 0.8, 2, kt=1, q=5.0)
    xs = _noisy_poly(rng)
    result, _ = run_sequence(real, xs)
    expected = batch_wls_variance(xs, 2, 0.8, 2)
    assert result.sigma_eps2[-1] == pytest.approx(expected, rel=1e-7)


def test_update_stream_equals_block_run():
    rng = np.random.Generator(np.random.PCG64(23))
    real = build(1, 0.9, 3, kt=2, q=None)
    xs = rng.standard_normal(120) + 5.0
    result, stream = run_sequence(real, xs)
    state = stream.state

    est = StreamingEstimator(real)
    for i, x in enumerate(xs):
        frame = est.update(x)
        assert frame.n == i
        np.testing.assert_allclose(frame.estimates, result.estimates[:, i], rtol=1e-10, atol=1e-12)
        assert frame.sigma_eps2 == pytest.approx(result.sigma_eps2[i], rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(
            np.diag(frame.covariance), result.variances[:, i], rtol=1e-9, atol=1e-15
        )
    np.testing.assert_allclose(est.state.w1, state.w1, rtol=1e-12)
    assert est.state.n == state.n == len(xs) - 1


def test_run_sequence_chunks_are_equivalent():
    rng = np.random.Generator(np.random.PCG64(24))
    real = build(2, 0.8, 2, kt=2, q=8.0)
    xs = rng.standard_normal(301) + 2.0
    whole, whole_stream = run_sequence(real, xs)
    part1, stream = run_sequence(real, xs[:157])
    part2 = stream.extend(xs[157:])
    np.testing.assert_allclose(
        np.hstack([part1.estimates, part2.estimates]), whole.estimates, rtol=1e-11
    )
    np.testing.assert_allclose(
        np.hstack([part1.sigma_eps2, part2.sigma_eps2]), whole.sigma_eps2,
        rtol=1e-9, atol=1e-12,
    )
    assert stream.state.n == whole_stream.state.n


@pytest.mark.parametrize("design", [(0, 0.8, 2, 1), (2, 0.9, 2, 2), (6, 0.8, 4, 3), (3, 0.99, 2, 2)])
@pytest.mark.parametrize("n", [1, 8192, 8193, 20_000, 30_000])
def test_aligned_blocks_give_the_floats_of_one_call(design, n):
    # Blocks cut where the CLI cuts (every _PIECE samples from the first)
    # leave the moment states and their trajectories bit for bit those of
    # one whole call.
    kappa, p, kx, kt = design
    real = build(kappa, p, kx, kt=kt)
    xs = 40.0 + np.random.Generator(np.random.PCG64(n)).standard_normal(n)
    piece = _PIECE
    whole, blocks = StreamingEstimator(real, 0.5), StreamingEstimator(real, 0.5)
    w1_whole, w2_whole = whole._advance_moments(xs)
    parts = [blocks._advance_moments(xs[lo:lo + piece]) for lo in range(0, n, piece)]
    assert np.array_equal(np.hstack([w1 for w1, _ in parts]), w1_whole)
    assert np.array_equal(np.hstack([w2 for _, w2 in parts]), w2_whole)
    assert blocks.state == whole.state and whole.state.n == n - 1
    _, by_blocks = run_sequence(real, xs[:piece], 0.5)
    for lo in range(piece, n, piece):
        by_blocks.extend(xs[lo:lo + piece])
    assert by_blocks.state == whole.state


@pytest.mark.parametrize("design", [(0, 0.8, 2, 1), (6, 0.8, 4, 3), (3, 0.99, 2, 2)])
@pytest.mark.parametrize("k", [_PIECE, 2 * _PIECE])
def test_the_stream_run_sequence_returns_continues_it(design, k):
    # run_sequence on a head cut at a multiple of _PIECE, then extend() on
    # the returned stream, gives every float of one run_sequence call.
    kappa, p, kx, kt = design
    real = build(kappa, p, kx, kt=kt)
    xs, _ = packet_signal(3, 3 * _PIECE + 500)
    whole, whole_stream = run_sequence(real, xs, 0.5)
    head, stream = run_sequence(real, xs[:k], 0.5)
    tail = stream.extend(xs[k:])
    for name in ("estimates", "sigma_eps2", "variances"):
        got = np.concatenate([getattr(head, name), getattr(tail, name)], axis=-1)
        assert np.array_equal(got, getattr(whole, name)), name
    assert stream.state == whole_stream.state


@pytest.mark.parametrize("design", [(6, 0.8, 4, 3), (2, 0.9, 2, 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_extend_gives_the_floats_of_the_reference_block_path(design, seed):
    # Packets of 64 to 8192 samples, several crossing a multiple of 8192,
    # one stretch at a 1e6 offset.  Every estimate, sigma_eps2, variance and
    # the final state equal those of the reference block path: any change
    # of rounding in the moments or the readouts fails here.
    kappa, p, kx, kt = design
    real = build(kappa, p, kx, kt=kt)
    xs, sizes = packet_signal(seed, 40_000)
    estimator = StreamingEstimator(real, 0.5)
    state = None
    pos = 0
    for size in sizes:
        block = xs[pos:pos + size]
        got = estimator.extend(block)
        w1_block, w2_block, state = moments_reference(real, block, 0.5, state)
        want = sequence_reference(real, w1_block, w2_block, state[3])
        assert np.array_equal(got.estimates, want[0]), pos
        assert np.array_equal(got.sigma_eps2, want[1]), pos
        assert np.array_equal(got.variances, want[2]), pos
        pos += size
    final = estimator.state
    assert (list(final.w1), list(final.w2), final.n, final.x0) == state


def test_empty_input_leaves_state_alone():
    real = build(0, 0.8, 2, kt=1, q=8.5)
    result, stream = run_sequence(real, np.empty(0))
    assert result.estimates.shape == result.variances.shape == (1, 0)
    assert result.sigma_eps2.shape == (0,)
    assert stream.state is None
    _, stream = run_sequence(real, np.array([1.0, 2.0]))
    state = stream.state
    result = stream.extend(np.empty(0))
    assert result.estimates.shape == (1, 0)
    assert stream.state is state


def test_covariance_is_sigma_times_vrf():
    real = build(1, 0.85, 2, kt=2, q=6.0)
    est = StreamingEstimator(real)
    est.update(1.0)
    rng = np.random.Generator(np.random.PCG64(25))
    for x in rng.standard_normal(40) + 1.0:
        frame = est.update(x)
    np.testing.assert_allclose(
        frame.covariance, frame.sigma_eps2 * real.vrf, rtol=1e-12
    )


def test_variance_estimate_never_negative():
    # A perfectly fit signal (an exact line) drives the residual to the
    # rounding floor; the clamp keeps it at zero rather than slightly below.
    real = build(0, 0.8, 2, kt=1, q=3.0)
    xs = 5.0 + 0.25 * np.arange(200, dtype=float)
    result, _ = run_sequence(real, xs)
    assert np.all(result.sigma_eps2 >= 0.0)
    assert result.sigma_eps2[-1] == pytest.approx(0.0, abs=1e-9)


def test_coefficients_bases_are_consistent():
    real = build(1, 0.8, 3, kt=1, q=2.0)
    est = StreamingEstimator(real)
    est.update(0.0)
    rng = np.random.Generator(np.random.PCG64(26))
    for x in rng.standard_normal(80):
        frame = est.update(x)
    beta, alpha = est.coefficients()
    np.testing.assert_allclose(
        alpha, real.from_orthonormal @ beta, rtol=1e-12
    )
    # The monomial coefficients, evaluated at age q, reproduce the value.
    q = real.spec.delay
    assert frame.estimates[0] == pytest.approx(
        sum(a * q ** j for j, a in enumerate(alpha)), rel=1e-10
    )


def test_streaming_wrapper_guards():
    real = build(0, 0.8, 1, kt=1, q=1.0)
    with pytest.raises(ValueError):
        StreamingEstimator(real, sigma0_sq=-1.0)
    est = StreamingEstimator(real)
    with pytest.raises(RuntimeError):
        est.coefficients()


def test_prior_variance_seeds_power_recursion():
    real = build(0, 0.8, 2, kt=1, q=8.5)
    est = StreamingEstimator(real, sigma0_sq=0.25)
    frame = est.update(100.0)
    state = est.state
    # The cascades run on x - x0, so only the prior enters the power state.
    assert state.x0 == 100.0
    np.testing.assert_array_equal(state.w1, np.zeros(real.spec.n_first_states))
    np.testing.assert_allclose(state.w2, real.steady_second * 0.25, rtol=1e-13)
    # The seeded prior surfaces in sigma scaled by total over residual mass.
    from erlangreg import erlang_sum

    expected = 0.25 * erlang_sum(0, 0.8) / real.residual_mass
    assert frame.sigma_eps2 == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        StreamingEstimator(real, sigma0_sq=-0.5)


@pytest.mark.parametrize("level", [10.0, 1000.0, 1e8])
def test_constant_input_is_exact(level):
    real = build(2, 0.8, 3, kt=3, q=5.0)
    result, _ = run_sequence(real, np.full(200, level))
    assert np.array_equal(result.estimates[0], np.full(200, level))
    assert not result.estimates[1:].any()
    assert not result.sigma_eps2.any()
    est = StreamingEstimator(real)
    for _ in range(50):
        frame = est.update(level)
        assert frame.estimates[0] == level
        assert frame.sigma_eps2 == 0.0


def test_large_dc_offset_keeps_noise_variance():
    # Unit noise on a 1e8 offset: sigma^2 must read about 1, unclamped,
    # and match the same noise without the offset.
    real = build(2, 0.99, 2, kt=1, q=None)
    noise = np.random.Generator(np.random.PCG64(31)).standard_normal(20_000)
    offset = 1e8
    shifted, _ = run_sequence(real, noise + offset)
    plain, _ = run_sequence(real, noise)
    warm = 2_000
    sigma2 = shifted.sigma_eps2[warm:]
    assert np.all(sigma2 > 0.0)
    assert abs(float(np.mean(sigma2)) - 1.0) < 0.1
    np.testing.assert_allclose(sigma2, plain.sigma_eps2[warm:], rtol=1e-6)
    np.testing.assert_allclose(
        shifted.estimates[0] - offset, plain.estimates[0], rtol=0, atol=1e-6
    )
    # The per-sample path takes the same offset.
    est = StreamingEstimator(real)
    frames = [est.update(x) for x in noise[:3_000] + offset]
    np.testing.assert_allclose(
        [f.sigma_eps2 for f in frames], shifted.sigma_eps2[:3_000], rtol=1e-9, atol=1e-12
    )
    beta, alpha = est.coefficients()
    assert alpha[0] == pytest.approx(offset, rel=1e-12)
    np.testing.assert_allclose(alpha, real.from_orthonormal @ beta, rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_raises_and_leaves_state_unchanged(bad):
    real = build(1, 0.85, 2, kt=2, q=None)
    xs = np.random.Generator(np.random.PCG64(32)).standard_normal(60) + 3.0
    reference, _ = run_sequence(real, xs)

    with pytest.raises(ValueError, match="sample 0 "):
        run_sequence(real, np.array([bad, 1.0]))
    est = StreamingEstimator(real)
    with pytest.raises(ValueError, match="sample 0 "):
        est.update(bad)
    with pytest.raises(ValueError, match="sample 0 "):
        est.extend(np.array([bad]))
    assert est.state is None

    est.extend(xs[:30])
    kept = (est.state.w1, est.state.w2, est.state.n, est.state.x0)
    with pytest.raises(ValueError, match="sample 32 "):
        est.extend(np.concatenate([xs[30:32], [bad], xs[32:40]]))
    with pytest.raises(ValueError, match="sample 30 "):
        est.update(bad)
    with pytest.raises(ValueError, match="sample 31 "):
        est.extend(np.array([1.0, bad]))
    assert np.array_equal(est.state.w1, kept[0])
    assert np.array_equal(est.state.w2, kept[1])
    assert (est.state.n, est.state.x0) == kept[2:]

    frame = est.update(xs[30])
    tail = est.extend(xs[31:])
    np.testing.assert_allclose(frame.estimates, reference.estimates[:, 30], rtol=1e-12)
    np.testing.assert_allclose(tail.estimates, reference.estimates[:, 31:], rtol=1e-12)
    np.testing.assert_allclose(tail.sigma_eps2, reference.sigma_eps2[31:], rtol=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_prior_variance_must_be_finite_and_nonnegative(bad):
    # A NaN prior would leave sigma^2 and Z NaN for the whole stream.
    real = build(1, 0.85, 2, kt=2, q=None)
    with pytest.raises(ValueError, match="sigma0_sq must be finite and nonnegative"):
        StreamingEstimator(real, sigma0_sq=bad)
    for xs in (np.ones(5), np.empty(0)):
        with pytest.raises(ValueError, match="sigma0_sq must be finite and nonnegative"):
            run_sequence(real, xs, sigma0_sq=bad)


# Every consumer of a stream, each with a prior; the change pair rides the
# slow filter's cascades.
_CONSUMERS = {
    "estimator": lambda: StreamingEstimator(build(2, 0.9, 3, kt=3, q=None), sigma0_sq=0.25),
    "edge": lambda: EdgeDetector(build(2, 0.9, 3, kt=3, q=None), 3.0, sigma0_sq=0.25),
    "peak": lambda: PeakDetector(build(2, 0.9, 3, kt=3, q=None), 3.0, sigma0_sq=0.25),
    "change": lambda: ChangeDetector(
        build(0, 0.8, 2, kt=1, q=8.5), build(3, 0.8, 2, kt=1, q=8.5), 3.0, sigma0_sq=0.25
    ),
}


def _feed_block(consumer, xs):
    """xs through the consumer's block entry: extend() or run()."""
    if isinstance(consumer, StreamingEstimator):
        return consumer.extend(xs)
    return consumer.run(xs)


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_consumer_is_one_stream(kind, bad):
    consumer = _CONSUMERS[kind]()
    stream = consumer.realization_b if kind == "change" else consumer.realization
    assert consumer.realization is stream
    assert consumer.sigma0_sq == 0.25
    assert consumer.state is None

    # A bad first sample, one at a time or in a block, starts nothing.
    with pytest.raises(ValueError, match="sample 0 "):
        consumer.update(bad)
    with pytest.raises(ValueError, match="sample 0 "):
        _feed_block(consumer, np.array([bad, 1.0]))
    assert consumer.state is None

    xs = np.random.Generator(np.random.PCG64(36)).standard_normal(12) + 2.0
    for x in xs[:5]:
        consumer.update(x)
    kept = copy.deepcopy(consumer.state)
    with pytest.raises(ValueError, match="sample 5 "):
        consumer.update(bad)
    assert consumer.state == kept
    with pytest.raises(ValueError, match="sample 7 "):
        _feed_block(consumer, np.array([xs[5], xs[6], bad]))
    assert consumer.state == kept
    _feed_block(consumer, xs[5:])
    assert consumer.state.n == 11


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_a_block_is_one_engine_call(kind, monkeypatch):
    # A block that crosses a multiple of _PIECE, at the stream's start and
    # later, costs each consumer one run_block call, told where the block's
    # first cascade column sits in the stream.
    starts = []

    def counted(*args, **kwargs):
        starts.append(kwargs.get("start", 0))
        return run_block(*args, **kwargs)

    monkeypatch.setattr(estimator_module, "run_block", counted)
    consumer = _CONSUMERS[kind]()
    xs = np.random.Generator(np.random.PCG64(37)).standard_normal(20_000) + 2.0
    _feed_block(consumer, xs[:9000])
    _feed_block(consumer, xs[9000:17_000])
    _feed_block(consumer, xs[17_000:])
    assert starts == [1, 9000, 17_000]
    assert consumer.state.n == 19_999


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
@pytest.mark.parametrize("shape", [(4, 1), (1, 4), (2, 3), (), (0, 3)])
def test_blocks_must_be_one_dimensional(kind, shape):
    # Before, these failed deep inside with a TypeError or an IndexError.
    consumer = _CONSUMERS[kind]()
    xs = np.ones(shape)
    message = re.escape(f"a block of samples must be 1-D, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        _feed_block(consumer, xs)
    assert consumer.state is None
    _feed_block(consumer, np.arange(5.0))
    kept = copy.deepcopy(consumer.state)
    with pytest.raises(ValueError, match=message):
        _feed_block(consumer, xs)
    assert consumer.state == kept
    if kind == "estimator":
        with pytest.raises(ValueError, match=message):
            run_sequence(consumer.realization, xs)


def _events_signal(size=300):
    """A ramp with a step and a bump in noise: every detector fires on it."""
    t = np.arange(size, dtype=float)
    noise = np.random.Generator(np.random.PCG64(37)).standard_normal(size)
    return 2.0 + 0.02 * t + 4.0 * (t >= 120) + 6.0 * np.exp(-((t - 210) / 6) ** 2) + 0.3 * noise


def _feed(consumer, xs, per_sample=True, read_state=False):
    """Feed xs one sample at a time or as a block; returns the readouts as
    plain values for ==.  read_state also reads .state (and the estimator's
    coefficients()) after every sample."""
    if not per_sample:
        result = _feed_block(consumer, xs)
        if isinstance(result, np.ndarray):
            return result.tolist()
        return [result.estimates.tolist(), result.sigma_eps2.tolist()]
    out = []
    for x in xs:
        got = consumer.update(x)
        if isinstance(got, EstimateFrame):
            got = (got.n, got.estimates.tolist(), got.sigma_eps2)
        out.append(got)
        if read_state:
            assert consumer.state is not None
            if isinstance(consumer, StreamingEstimator):
                consumer.coefficients()
    return out


def _finished(consumer):
    """Events (open runs closed) and state of a consumer, for ==."""
    if isinstance(consumer, StreamingEstimator):
        return consumer.state
    consumer.finish()
    return consumer.events, consumer.state


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
@pytest.mark.parametrize("mixed", [False, True])
def test_reading_the_state_changes_nothing(kind, mixed):
    # While a stream samples, its state lives in the kernel's closure cells;
    # reading .state snapshots them, and a block moves the state out of them
    # and the next update() into new ones.  None of it may change a bit.
    xs = _events_signal()
    rng = np.random.Generator(np.random.PCG64(38))
    plan = []
    pos = 0
    while pos < xs.size:
        size = int(rng.integers(1, 40)) if mixed else xs.size
        plan.append((pos, pos + size, not mixed or bool(rng.integers(2))))
        pos += size
    watched, unwatched = _CONSUMERS[kind](), _CONSUMERS[kind]()
    got, expected = [], []
    for lo, hi, per_sample in plan:
        got += _feed(watched, xs[lo:hi], per_sample, read_state=True)
        expected += _feed(unwatched, xs[lo:hi], per_sample)
        # One state object for the life of the stream.
        assert watched.state is watched.state
    assert got == expected
    assert _finished(watched) == _finished(unwatched)
    if kind != "estimator":
        assert watched.events


def test_run_sequence_returns_the_stream_that_continues_it():
    # The estimator run_sequence returns is the live stream after the
    # block: update() and extend() go on from the next sample, as on an
    # estimator that took the block through extend().
    real = build(2, 0.9, 3, kt=3, q=None)
    xs = _events_signal()
    result, stream = run_sequence(real, xs[:50], 0.25)
    assert type(stream) is StreamingEstimator
    assert stream.realization is real and stream.sigma0_sq == 0.25
    twin = StreamingEstimator(real, 0.25)
    assert _feed(twin, xs[:50], per_sample=False) == [
        result.estimates.tolist(), result.sigma_eps2.tolist()
    ]
    assert stream.state == twin.state and stream.state.n == 49
    assert _feed(stream, xs[50:100]) == _feed(twin, xs[50:100])
    assert _feed(stream, xs[100:], per_sample=False) == _feed(twin, xs[100:], per_sample=False)
    assert stream.state == twin.state


def _marker_state(consumer):
    marker = getattr(consumer, "_marker", None)
    return None if marker is None else vars(marker)


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_consumers_copy_after_per_sample_updates(kind, how):
    # Compiled code never enters pickled or copied state: a copy compiles
    # its own kernel and owns its own cells.  A shallow copy shares the
    # realization and the state, both immutable, and has its own events
    # and run marker.
    duplicate = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
                 "deepcopy": copy.deepcopy, "copy": copy.copy}[how]
    xs = _events_signal()
    consumer, twin = _CONSUMERS[kind](), _CONSUMERS[kind]()
    _feed(consumer, xs[:100]), _feed(twin, xs[:100])
    duplicate(consumer.realization)
    copied, deep = duplicate(consumer), copy.deepcopy(consumer)
    if how == "copy":
        assert copied.realization is consumer.realization

    # Feeding only the copy leaves the original as it was.
    from_copy = _feed(copied, xs[100:])
    assert consumer.state == twin.state
    assert getattr(consumer, "events", None) == getattr(twin, "events", None)
    assert _marker_state(consumer) == _marker_state(twin)
    assert from_copy == _feed(deep, xs[100:])
    assert _feed(consumer, xs[100:]) == from_copy == _feed(twin, xs[100:])
    assert _finished(consumer) == _finished(copied) == _finished(twin)


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_consumer_settings_are_read_only(kind):
    # The kernel and the run marker capture the design, the threshold and
    # the event list.  Rebinding one used to leave them on the old value
    # while the attribute showed the new one.
    consumer = _CONSUMERS[kind]()
    _feed(consumer, _events_signal()[:100])
    names = ["realization"]
    if kind != "estimator":
        names += ["threshold", "events"]
        assert consumer.threshold == 3.0
    if kind == "change":
        names += ["realization_a", "realization_b"]
    for name in names:
        kept = getattr(consumer, name)
        with pytest.raises(AttributeError):
            setattr(consumer, name, None)
        assert getattr(consumer, name) is kept


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_cleared_events_collect_from_both_paths(kind):
    # events is the very list the compiled kernel appends to: after
    # clear(), the events of later samples, one at a time or in a block,
    # land in it.  A copy has a list of its own.
    xs = _events_signal()
    detector, twin = _CONSUMERS[kind](), _CONSUMERS[kind]()
    _feed(detector, xs[:100]), _feed(twin, xs[:100])
    events = detector.events
    taken = len(twin.events)
    events.clear()
    assert copy.copy(detector).events is not events
    _feed(detector, xs[100:220]), _feed(twin, xs[100:220])
    per_sample = len(events)
    _feed(detector, xs[220:], per_sample=False), _feed(twin, xs[220:], per_sample=False)
    detector.finish(), twin.finish()
    assert detector.events is events
    assert 0 < per_sample < len(events)
    assert events == twin.events[taken:]


def test_realization_pickles_after_its_kernel_is_compiled():
    # The compiled kernel is cached by _kernel, keyed by the realization's
    # identity; the realization itself is plain data.  A loaded copy is a
    # new design value with a kernel of its own and the same frames.
    real = build(2, 0.9, 3, kt=2, q=None)
    xs = _events_signal()[:50]
    est = StreamingEstimator(real)
    frames = _feed(est, xs)
    loaded = pickle.loads(pickle.dumps(real))
    assert loaded is not real and loaded != real and loaded == loaded
    assert _feed(StreamingEstimator(loaded), xs) == frames
    # Estimators on one realization share one compile.
    assert StreamingEstimator(real)._build_kernel() is est._make
    assert StreamingEstimator(loaded)._build_kernel() is not est._make


def _assert_float_state(state, stream):
    for w, order in ((state.w1, stream.spec.n_first_states), (state.w2, stream.spec.n_second_states)):
        assert type(w) is tuple and len(w) == order
        assert all(type(v) is float for v in w)


def test_state_vectors_are_float_tuples():
    real = build(2, 0.9, 3, kt=3, q=None)
    xs = np.random.Generator(np.random.PCG64(33)).standard_normal(50) + 2.0

    est = StreamingEstimator(real, sigma0_sq=0.25)
    est.update(1.0)
    _assert_float_state(est.state, real)
    est.update(2.0)
    _assert_float_state(est.state, real)
    _, stream = run_sequence(real, xs)
    _assert_float_state(stream.state, real)

    est = StreamingEstimator(real)
    est.update(1.0)
    _assert_float_state(est.state, real)
    est.extend(xs)
    _assert_float_state(est.state, real)

    slow = build(3, 0.8, 2, kt=1, q=8.5)
    for detector, stream in [
        (EdgeDetector(real, 3.0), real),
        (PeakDetector(real, 3.0), real),
        (ChangeDetector(build(0, 0.8, 2, kt=1, q=8.5), slow, 3.0), slow),
    ]:
        detector.update(1.0)
        _assert_float_state(detector.state, stream)
        detector.run(xs)
        _assert_float_state(detector.state, stream)

    # One state per cascade (kappa 0, model order 1): one-element tuples.
    tiny = build(0, 0.8, 1, kt=1, q=None)
    est = StreamingEstimator(tiny)
    est.update(1.0)
    est.update(2.0)
    _assert_float_state(est.state, tiny)
    # A shallow copy shares the state, and nothing can change it in place.
    with pytest.raises(TypeError):
        copy.copy(est).state.w1[-1] += 100.0
    assert est.update(3.0).n == 2


@functools.lru_cache(maxsize=None)
def _grid_design(kappa, p, kx):
    try:
        return build(kappa, p, kx, kt=min(kx, 3), q=None)
    except DesignError:
        return None


@hypothesis.given(
    kappa=st.sampled_from([0, 1, 2, 4, 8]),
    p=st.sampled_from([0.8, 0.9, 0.95, 0.98, 0.99]),
    kx=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    # (chunk length, fed through update() instead of extend())
    plan=st.lists(
        st.tuples(st.one_of(st.just(1), st.integers(1, 80)), st.booleans()),
        min_size=1,
        max_size=30,
    ),
    offset=st.sampled_from([0.0, 1e8]),
)
def test_update_and_extend_agree_with_one_run_sequence(kappa, p, kx, seed, plan, offset):
    real = _grid_design(kappa, p, kx)
    hypothesis.assume(real is not None)
    t = np.arange(300, dtype=float)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal(t.size)
    xs = offset + 3.0 + 0.02 * t + 1e-4 * t * t + noise
    whole, whole_stream = run_sequence(real, xs, sigma0_sq=0.25)
    state = whole_stream.state

    est = StreamingEstimator(real, sigma0_sq=0.25)
    estimates, sigma2 = [], []
    pos, i = 0, 0
    while pos < xs.size:
        size, per_sample = plan[i % len(plan)]
        chunk = xs[pos:pos + size]
        if per_sample:
            frames = [est.update(x) for x in chunk]
            estimates += [f.estimates for f in frames]
            sigma2 += [f.sigma_eps2 for f in frames]
        else:
            result = est.extend(chunk)
            estimates += list(result.estimates.T)
            sigma2 += list(result.sigma_eps2)
        pos += size
        i += 1

    # The per-sample step and the block filter sum in different orders,
    # and the readouts amplify that rounding by the design's conditioning.
    for row, expected in zip(np.array(estimates).T, whole.estimates):
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(
        sigma2, whole.sigma_eps2, rtol=0, atol=1e-10 * np.max(whole.sigma_eps2)
    )
    reference = StreamingEstimator(real, sigma0_sq=0.25)
    reference.extend(xs)
    for got, expected in zip(est.coefficients(), reference.coefficients()):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))
    # State k is bounded by max|d| / (1 - p)**(k + 1), d = x - x0.
    d = np.max(np.abs(xs - xs[0]))
    for got, expected, order, bound in [
        (est.state.w1, state.w1, real.spec.n_first_states, d),
        (est.state.w2, state.w2, real.spec.n_second_states, max(d * d, 0.25)),
    ]:
        scale = bound * steady_state_vector(order, p)
        assert np.all(np.abs(np.subtract(got, expected)) <= 1e-12 * scale)
    assert est.state.n == state.n


def _frame_values(frame):
    """A frame's fields, copied out."""
    return frame.n, frame.estimates.tolist(), frame.sigma_eps2, frame.covariance.copy()


def _assert_frame_reads(frame, values):
    n, estimates, sigma_eps2, covariance = values
    assert frame.n == n
    assert frame.estimates.tolist() == estimates
    assert frame.sigma_eps2 == sigma_eps2
    np.testing.assert_array_equal(frame.covariance, covariance)


def test_frames_are_snapshots():
    real = build(2, 0.9, 3, kt=3, q=None)
    xs = (np.random.Generator(np.random.PCG64(34)).standard_normal(120) + 4.0).tolist()
    est = StreamingEstimator(real, sigma0_sq=0.25)
    twin = StreamingEstimator(real, sigma0_sq=0.25)
    first = est.update(xs[0])
    twin.update(xs[0])
    for x in xs[1:10]:
        est.update(x), twin.update(x)
    kept = [first, est.update(xs[10]), est.update(xs[11])]
    twin.update(xs[10]), twin.update(xs[11])
    values = [_frame_values(frame) for frame in kept]
    assert [v[0] for v in values] == [0, 10, 11]

    for frame in kept:
        estimates = frame.estimates
        assert type(estimates) is np.ndarray
        assert estimates.dtype == np.float64 and estimates.shape == (3,)
        assert frame.estimates is not estimates
        assert frame.covariance.shape == (3, 3)
        # Writing into the arrays a frame hands out changes nothing else.
        state = (est.state.w1, est.state.w2)
        estimates[:] = 99.0
        frame.covariance[:] = 99.0
        assert (est.state.w1, est.state.w2) == state
        for name in ("n", "estimates", "sigma_eps2", "covariance", "other"):
            with pytest.raises(AttributeError):
                setattr(frame, name, 0.0)

    for x in xs[12:112]:
        _assert_frame_reads(est.update(x), _frame_values(twin.update(x)))
    for frame, expected in zip(kept, values):
        _assert_frame_reads(frame, expected)
        _assert_frame_reads(copy.deepcopy(frame), expected)
        _assert_frame_reads(pickle.loads(pickle.dumps(frame)), expected)
    again = est.update(xs[112])
    _assert_frame_reads(again, _frame_values(twin.update(xs[112])))
    with pytest.raises(TypeError):
        EstimateFrame(again)


class _NoNumpy:
    """Stands in for numpy and records every attribute asked of it."""

    def __init__(self):
        self.touched = []

    def __getattr__(self, name):
        self.touched.append(name)
        raise AssertionError(f"numpy touched: np.{name}")


def test_per_sample_update_touches_no_numpy(monkeypatch):
    # Frames build their arrays only when read, so a stream whose frames
    # are never read makes no numpy call at all.
    real = build(2, 0.9, 2, kt=2, q=None)
    xs = (np.random.Generator(np.random.PCG64(35)).standard_normal(3000) + 7.0).tolist()
    expected = [_frame_values(frame) for frame in map(StreamingEstimator(real).update, xs)]

    proxy = _NoNumpy()
    monkeypatch.setattr(estimator_module, "np", proxy)
    est = StreamingEstimator(real)
    frames = [est.update(x) for x in xs]
    monkeypatch.undo()

    assert proxy.touched == []
    for frame, values in zip(frames, expected, strict=True):
        _assert_frame_reads(frame, values)


def _profiled_calls(call, *args):
    """The names of the Python functions call(*args) entered, in order, and
    its result."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
    return entered, result


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_an_update_after_the_first_sample_is_one_call(kind):
    # The stream's update is its kernel's step: conversion, finite check,
    # cascade step and readout run in one Python frame.  A detector's run
    # marker is a second call, on a sample past a bound or while a run is
    # open; a sample that closes a run also enters the marker's _close,
    # which builds the event.
    consumer = _CONSUMERS[kind]()
    marker = getattr(consumer, "_marker", None)
    xs = _events_signal().tolist()
    assert _profiled_calls(consumer.update, xs[0])[0][0] == "update"
    marked = 0
    for x in xs[1:]:
        was_open = marker is not None and marker._sign != 0
        events = len(consumer.events) if marker is not None else 0
        entered, z = _profiled_calls(consumer.update, x)
        if marker is None or (not was_open and (z if kind == "peak" else abs(z)) <= 3.0):
            assert entered == ["step"], (entered, z)
        elif len(consumer.events) == events:
            assert entered == ["step", "update"], (entered, z)
        else:
            assert entered[:3] == ["step", "update", "_close"], (entered, z)
        marked += len(entered) > 1
    assert (marked > 0) == (marker is not None)
    # A block moves the state out of the cells; the next sample makes new ones.
    _feed_block(consumer, np.array(xs[:20]))
    assert _profiled_calls(consumer.update, xs[20])[0][:2] == ["update", "_resume"]
    assert _profiled_calls(consumer.update, xs[21])[0][0] == "step"


def _bits(values):
    """values with every float spelled out bit for bit, for ==."""
    if isinstance(values, float):
        return values.hex()
    if isinstance(values, (list, tuple)):
        return type(values)(map(_bits, values))
    return values


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan"])
def test_a_non_finite_sample_leaves_the_live_cells_as_they_were(kind, bad):
    # The kernel checks the sample before it touches a cell: the error names
    # the sample, the state reads as before, and the stream goes on bit for
    # bit like a twin that never saw the bad sample.
    xs = _events_signal()
    consumer, twin = _CONSUMERS[kind](), _CONSUMERS[kind]()
    _feed(consumer, xs[:40]), _feed(twin, xs[:40])
    kept = consumer.state
    message = re.escape(f"sample 40 is not finite: {float(bad)!r}")
    with pytest.raises(ValueError, match=message):
        consumer.update(bad)
    assert consumer.state == kept == twin.state
    assert _bits(_feed(consumer, xs[40:120])) == _bits(_feed(twin, xs[40:120]))
    assert (_bits(_feed(consumer, xs[120:200], per_sample=False))
            == _bits(_feed(twin, xs[120:200], per_sample=False)))
    assert _bits(_feed(consumer, xs[200:])) == _bits(_feed(twin, xs[200:]))
    assert _finished(consumer) == _finished(twin)


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_a_bound_update_taken_before_the_first_sample_feeds_the_stream(kind):
    # A bound method taken early still reaches the live cells: it gives the
    # readouts, events and state of attribute lookup on every sample, across
    # blocks too.
    xs = _events_signal()
    consumer, twin = _CONSUMERS[kind](), _CONSUMERS[kind]()
    update = consumer.update
    got = [update(x) for x in xs[:100]]
    _feed_block(consumer, xs[100:150])
    got += [update(x) for x in xs[150:]]
    expected = [twin.update(x) for x in xs[:100]]
    _feed_block(twin, xs[100:150])
    expected += [twin.update(x) for x in xs[150:]]
    if kind == "estimator":
        got, expected = ([_frame_values(f)[:3] for f in out] for out in (got, expected))
    assert _bits(got) == _bits(expected)
    assert _finished(consumer) == _finished(twin)
    if kind != "estimator":
        assert consumer.events


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_update_takes_what_float_takes(kind):
    # Past the first sample the kernel converts the sample itself.
    samples = [3, True, np.float32(2.7), np.float64(1.3), "4.25", -2, False]
    consumer, twin = _CONSUMERS[kind](), _CONSUMERS[kind]()
    head = _events_signal()[:30]
    _feed(consumer, head), _feed(twin, head)
    got = _feed(consumer, samples)
    assert _bits(got) == _bits(_feed(twin, [float(x) for x in samples]))
    assert consumer.state == twin.state
    assert all(type(v) is float for v in consumer.state.w1 + consumer.state.w2)


@pytest.mark.parametrize("kind", sorted(_CONSUMERS))
def test_reading_the_state_leaves_the_cells_live(kind):
    # .state snapshots the cells, kept until the next sample; no read makes
    # new cells.  Only a block moves the state out of them.
    xs = _events_signal()
    consumer = _CONSUMERS[kind]()
    consumer.update(xs[0])
    made = []
    make = consumer._make

    def counted(*args):
        made.append(args[-1])
        return make(*args)

    consumer._make = counted
    for x in xs[1:60]:
        consumer.update(x)
        state = consumer.state
        assert consumer.state is state
    assert state.n == 59 and made == []
    _feed_block(consumer, xs[60:80])
    consumer.state
    _feed(consumer, xs[80:90])
    # The block's state moved into new cells, once.
    assert made == [79]
    lone = _CONSUMERS[kind]()
    _feed(lone, xs[:60]), _feed_block(lone, xs[60:80]), _feed(lone, xs[80:90])
    assert consumer.state == lone.state
    assert _bits(_feed(consumer, xs[90:])) == _bits(_feed(lone, xs[90:]))
    assert _finished(consumer) == _finished(lone)


# ---------------------------------------------------------------------------
# Streams of one decay share their last block run: a stream whose cascades
# are no longer than the run's, fed a block equal bit for bit from a start
# equal bit for bit to the leading entries of the run's, takes the leading
# stages of that run's trajectories.


def _engine_calls(monkeypatch):
    """Count the estimator's run_block calls; returns the list they append to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start", 0))
        return run_block(*args, **kwargs)

    monkeypatch.setattr(estimator_module, "run_block", counted)
    return calls


def _block_outputs(consumer, xs):
    """The block's readout as arrays: (estimates, sigma_eps2, variances) or (Z,)."""
    result = _feed_block(consumer, xs)
    if isinstance(result, np.ndarray):
        return (result,)
    return result.estimates, result.sigma_eps2, result.variances


def _equal_outputs(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _lone_outputs(make, blocks):
    """Each block's outputs and the state after it, of one consumer fed alone."""
    gc.collect()
    consumer = make()
    out = [(_block_outputs(consumer, xs), consumer.state) for xs in blocks]
    assert consumer._peers.last is None
    return out


def _joined(real):
    """A stream of real's cascade shape that has run a block: it counts as
    live for the shape, so the next block run of the shape is kept."""
    peer = StreamingEstimator(real)
    peer.extend(_XS[:2])
    return peer


def _edited_steady_second(real):
    """real through a document whose steady_second[0] moved by one ulp."""
    document = design_to_document(real)
    steady = document["realization"]["steady_second"]
    steady[0] = math.nextafter(steady[0], math.inf)
    return realization_from_document(document)


_REAL = build(2, 0.9, 3, kt=3, q=None)
_XS = np.random.Generator(np.random.PCG64(40)).standard_normal(600) + 5.0


def _last_set(xs, value):
    xs = xs.copy()
    xs[-1] = value
    return xs


def _after_update(consumer, *xs):
    for x in xs:
        consumer.update(x)
    return consumer


# (first stream, second stream, first block, second block): the second
# block, or the start it runs from, differs from the kept run's in one bit,
# its sample number differs, or one stream starts on its block and the
# other continues.
_MISSES = {
    "a stream that continues from its first sample": (
        lambda: _after_update(StreamingEstimator(_REAL), _XS[0]),
        lambda: EdgeDetector(_REAL, 3.0), _XS[:300], _XS[:300]),
    "a later sample number": (
        # Ten samples equal to the first leave both cascades at their start.
        lambda: _after_update(StreamingEstimator(_REAL), *[_XS[0]] * 10),
        lambda: EdgeDetector(_REAL, 3.0), _XS[1:300], _XS[:300]),
    "a block one ulp apart": (
        lambda: StreamingEstimator(_REAL), lambda: EdgeDetector(_REAL, 3.0),
        _XS[:300], _last_set(_XS[:300], math.nextafter(_XS[299], 0.0))),
    "a zero of the other sign": (
        lambda: StreamingEstimator(_REAL), lambda: PeakDetector(_REAL, 3.0),
        _last_set(_XS[:300], 0.0), _last_set(_XS[:300], -0.0)),
    "another prior": (
        lambda: StreamingEstimator(_REAL, 0.25), lambda: EdgeDetector(_REAL, 3.0, 0.5),
        _XS[:300], _XS[:300]),
    "a hand-edited steady_second": (
        lambda: StreamingEstimator(_REAL, 0.25),
        lambda: EdgeDetector(_edited_steady_second(_REAL), 3.0, 0.25),
        _XS[:300], _XS[:300]),
}


@pytest.mark.parametrize("case", sorted(_MISSES))
def test_a_block_unlike_the_kept_run_runs_the_engine(case, monkeypatch):
    make_a, make_b, block_a, block_b = _MISSES[case]
    lone = _lone_outputs(make_b, [block_b, _XS[300:]])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_REAL), make_a(), make_b()
    _feed_block(a, block_a)
    assert a._peers.last is not None and b.state is None
    assert _equal_outputs(_block_outputs(b, block_b), lone[0][0])
    assert len(calls) == 3 and b.state == lone[0][1]
    _feed_block(a, _XS[300:])
    assert _equal_outputs(_block_outputs(b, _XS[300:]), lone[1][0])
    assert b.state == lone[1][1]


_WIDE = build(6, 0.8, 4, kt=3)                    # cascades of 10 and 7 stages
_CHANGE = (build(0, 0.8, 2, kt=1, q=8.5), build(3, 0.8, 2, kt=1, q=8.5))  # 5 and 4

# Streams of decay 0.8 whose cascades are no longer than the wide run's:
# each reads the leading stages of that run.
_RIDERS = {
    "change": lambda: ChangeDetector(*_CHANGE, 3.0),
    "estimator": lambda: StreamingEstimator(build(2, 0.8, 3, kt=3)),
    "edge": lambda: EdgeDetector(build(6, 0.8, 2, kt=2), 3.0),
}


@pytest.mark.parametrize("kind", sorted(_RIDERS))
def test_a_shorter_stream_of_the_decay_reads_the_kept_run(kind, monkeypatch):
    # The rider's outputs and states are those it gives alone, bit for bit,
    # and it runs no cascade of its own: the three engine calls are the
    # peer's and the wide estimator's two.
    make = _RIDERS[kind]
    lone = _lone_outputs(make, [_XS[:300], _XS[300:]])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_WIDE), StreamingEstimator(_WIDE), make()
    for (outputs, state), xs in zip(lone, (_XS[:300], _XS[300:])):
        a.extend(xs)
        assert _equal_outputs(_block_outputs(b, xs), outputs)
        assert b.state == state
    assert len(calls) == 3


# (first stream, second stream, first block, second block), both of decay
# 0.8 but the last two: the second stream's cascades, its block or its
# start are not the leading stages of the first stream's run.
_PREFIX_MISSES = {
    "a rider whose first sample differs": (
        lambda: StreamingEstimator(_WIDE), _RIDERS["change"],
        _XS[:300], np.r_[math.nextafter(_XS[0], 0.0), _XS[1:300]]),
    "a longer stream after a shorter kept run": (
        _RIDERS["change"], lambda: StreamingEstimator(_WIDE), _XS[:300], _XS[:300]),
    "a power cascade longer than the run's": (
        # kappa 8, kx 1: 9 signal stages of the run's 10, but 9 power stages of its 7.
        lambda: PeakDetector(_WIDE, 3.0), lambda: StreamingEstimator(build(8, 0.8, 1)),
        _XS[:300], _XS[:300]),
    "another decay": (
        lambda: StreamingEstimator(_WIDE), lambda: EdgeDetector(build(3, 0.9, 2, kt=2), 3.0),
        _XS[:300], _XS[:300]),
    "another prior on a fresh stream": (
        lambda: StreamingEstimator(_WIDE, 0.25), lambda: ChangeDetector(*_CHANGE, 3.0, 0.5),
        _XS[:300], _XS[:300]),
}


@pytest.mark.parametrize("case", sorted(_PREFIX_MISSES))
def test_a_stream_off_the_leading_stages_of_the_kept_run_runs_the_engine(case, monkeypatch):
    make_a, make_b, block_a, block_b = _PREFIX_MISSES[case]
    lone = _lone_outputs(make_b, [block_b, _XS[300:]])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_WIDE), make_a(), make_b()
    _feed_block(a, block_a)
    assert a._peers.last is not None and b.state is None
    assert _equal_outputs(_block_outputs(b, block_b), lone[0][0])
    assert len(calls) == 3 and b.state == lone[0][1]
    _feed_block(a, _XS[300:])
    assert _equal_outputs(_block_outputs(b, _XS[300:]), lone[1][0])
    assert b.state == lone[1][1]


def test_a_start_unlike_the_kept_runs_in_its_signal_cascade_alone_misses(monkeypatch):
    # Samples 5.5 and 4.5 after a first sample 5.0 have one square: the two
    # streams hold one power cascade and signal cascades of opposite signs.
    def make_b():
        return _after_update(EdgeDetector(_REAL, 3.0), 5.0, 4.5)

    lone = _lone_outputs(make_b, [_XS[:300]])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_REAL), _after_update(StreamingEstimator(_REAL), 5.0, 5.5), make_b()
    assert a.state.w2 == b.state.w2 and a.state.w1 != b.state.w1
    a.extend(_XS[:300])
    assert a._peers.last is not None
    assert _equal_outputs(_block_outputs(b, _XS[:300]), lone[0][0])
    assert len(calls) == 3 and b.state == lone[0][1]


def test_an_input_changed_in_place_between_consumers_misses(monkeypatch):
    # The kept run holds a copy of its block: writing into the caller's
    # array after one consumer read it makes the next one run the engine.
    xs = _XS[:300].copy()
    changed = _last_set(xs, xs[-1] + 1.0)
    lone = _lone_outputs(lambda: EdgeDetector(_REAL, 3.0), [changed])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_REAL), StreamingEstimator(_REAL), EdgeDetector(_REAL, 3.0)
    a.extend(xs)
    xs[-1] += 1.0
    assert _equal_outputs(_block_outputs(b, xs), lone[0][0])
    assert len(calls) == 3 and b.state == lone[0][1]


def test_a_non_finite_block_after_a_kept_run_raises(monkeypatch):
    lone = _lone_outputs(lambda: EdgeDetector(_REAL, 3.0), [_XS[:300], _XS[300:400]])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_REAL), StreamingEstimator(_REAL), EdgeDetector(_REAL, 3.0)
    a.extend(_XS[:300]), b.run(_XS[:300])
    assert len(calls) == 2 and b.state == a.state
    kept = b.state
    a.extend(_XS[300:400])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sample 307 "):
            b.run(np.r_[_XS[300:307], bad, _XS[308:400]])
        assert b.state is kept
    assert _equal_outputs(_block_outputs(b, _XS[300:400]), lone[1][0])
    assert b.state == lone[1][1]


def test_a_lone_stream_keeps_no_block_run(monkeypatch):
    gc.collect()
    real = build(1, 0.85, 2, kt=2, q=None)
    calls = _engine_calls(monkeypatch)
    a = StreamingEstimator(real)
    for lo in range(0, 600, 100):
        a.extend(_XS[lo:lo + 100])
        assert a._peers.last is None
    # A second live stream of the shape makes a run worth keeping ...
    b = EdgeDetector(real, 3.0)
    b.run(_XS[:100])
    a.extend(_XS[:100])
    assert a._peers.last is not None
    # ... and once it is gone, the lone stream keeps nothing again.
    del b
    gc.collect()
    a.extend(_XS[100:200])
    assert a._peers.last is None
    assert len(calls) == 9


@pytest.mark.parametrize("size", [_PIECE, _PIECE + 1])
def test_only_blocks_of_at_most_one_piece_are_kept(size, monkeypatch):
    xs = np.random.Generator(np.random.PCG64(41)).standard_normal(size) + 3.0
    lone = _lone_outputs(lambda: PeakDetector(_REAL, 3.0), [xs])
    calls = _engine_calls(monkeypatch)
    peer, a, b = _joined(_REAL), StreamingEstimator(_REAL), PeakDetector(_REAL, 3.0)
    a.extend(xs)
    assert (a._peers.last is not None) == (size <= _PIECE)
    assert _equal_outputs(_block_outputs(b, xs), lone[0][0])
    assert len(calls) == (2 if size <= _PIECE else 3)
    assert b.state == lone[0][1] == a.state


@pytest.mark.parametrize("shared", [False, True])
def test_block_trajectories_are_read_only(shared):
    # Fresh, continued and shared blocks alike: no consumer can write into
    # the arrays another one reads.
    peer, a, b = _joined(_REAL), StreamingEstimator(_REAL), EdgeDetector(_REAL, 3.0)
    for lo in (0, 300):
        blocks = [a._advance_moments(_XS[lo:lo + 300])]
        if shared:
            blocks.append(b._advance_moments(_XS[lo:lo + 300]))
            assert all(np.array_equal(w.view(np.uint64), v.view(np.uint64))
                       for w, v in zip(*blocks, strict=True))
        for w1_block, w2_block in blocks:
            for w in (w1_block, w2_block):
                with pytest.raises(ValueError, match="read-only"):
                    w[0, -1] = 1.0


def test_shared_block_memory_does_not_grow_with_input():
    # Two live streams of one shape keep one run between blocks, and drop
    # it before the next engine call: what they hold does not grow with
    # the number of blocks.
    xs = np.random.Generator(np.random.PCG64(42)).standard_normal(12 * _PIECE) + 3.0
    wide = build(6, 0.8, 4, kt=3)
    peaks = []
    gc.collect()
    for blocks in (2, 2, 12):
        tracemalloc.start()
        try:
            est, peak = StreamingEstimator(wide), PeakDetector(wide, 3.0)
            for lo in range(0, blocks * _PIECE, _PIECE):
                est.extend(xs[lo:lo + _PIECE])
                peak.run(xs[lo:lo + _PIECE])
            assert est._peers.last is not None
            del est, peak
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 0.5e6, peaks
