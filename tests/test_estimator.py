import copy
import functools
import math
import pickle
import re

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
    run_sequence,
)
from erlangreg.design import synthesis_matrix
from erlangreg.network import steady_state_vector

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
    result, state = run_sequence(real, xs)

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
    whole, state_whole = run_sequence(real, xs)
    part1, state = run_sequence(real, xs[:157])
    part2, state = run_sequence(real, xs[157:], state=state)
    np.testing.assert_allclose(
        np.hstack([part1.estimates, part2.estimates]), whole.estimates, rtol=1e-11
    )
    np.testing.assert_allclose(
        np.hstack([part1.sigma_eps2, part2.sigma_eps2]), whole.sigma_eps2,
        rtol=1e-9, atol=1e-12,
    )
    assert state.n == state_whole.n


@pytest.mark.parametrize("design", [(0, 0.8, 2, 1), (2, 0.9, 2, 2), (6, 0.8, 4, 3), (3, 0.99, 2, 2)])
@pytest.mark.parametrize("n", [1, 8192, 8193, 20_000, 30_000])
def test_aligned_blocks_give_the_floats_of_one_call(design, n):
    # Blocks cut where the CLI cuts (every _PIECE samples from the first)
    # leave the moment states and their trajectories bit for bit those of
    # one whole call.
    kappa, p, kx, kt = design
    real = build(kappa, p, kx, kt=kt)
    xs = 40.0 + np.random.Generator(np.random.PCG64(n)).standard_normal(n)
    piece = estimator_module._PIECE
    w1_whole, w2_whole, whole = estimator_module._advance_moments(real, xs, 0.5, None)
    parts, state = [], None
    for lo in range(0, n, piece):
        w1, w2, state = estimator_module._advance_moments(real, xs[lo:lo + piece], 0.5, state)
        parts.append((w1, w2))
    assert np.array_equal(np.hstack([w1 for w1, _ in parts]), w1_whole)
    assert np.array_equal(np.hstack([w2 for _, w2 in parts]), w2_whole)
    assert (state.w1, state.w2, state.n) == (whole.w1, whole.w2, whole.n)
    _, by_blocks = run_sequence(real, xs[:piece], 0.5)
    for lo in range(piece, n, piece):
        _, by_blocks = run_sequence(real, xs[lo:lo + piece], 0.5, by_blocks)
    assert (by_blocks.w1, by_blocks.w2) == (whole.w1, whole.w2)


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
    result, state = run_sequence(real, np.empty(0))
    assert result.estimates.shape == (1, 0)
    assert state is None
    _, state = run_sequence(real, np.array([1.0, 2.0]))
    result, state2 = run_sequence(real, np.empty(0), state=state)
    assert state2 is state


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
    # The monomial coefficients must reproduce the synthesized outputs.
    assert frame.estimates[0] == pytest.approx(
        float(synthesis_matrix(real.spec)[0] @ alpha), rel=1e-10
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
        run_sequence(real, np.array([1.0, bad]), state=est.state)
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
    with pytest.raises(ValueError, match="sigma0_sq must be finite and nonnegative"):
        run_sequence(real, np.ones(5), sigma0_sq=bad)
    # A continued stream checks the prior too, empty block included, and
    # leaves its state as it was.
    _, state = run_sequence(real, np.arange(5.0))
    kept = (list(state.w1), list(state.w2), state.n, state.x0)
    for xs in (np.ones(5), np.empty(0)):
        with pytest.raises(ValueError, match="sigma0_sq must be finite and nonnegative"):
            run_sequence(real, xs, sigma0_sq=bad, state=state)
        assert (list(state.w1), list(state.w2), state.n, state.x0) == kept


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
        with pytest.raises(ValueError, match=message):
            run_sequence(consumer.realization, xs, state=consumer.state)
        assert consumer.state == kept


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
    # reading .state moves it back into the state object and the next
    # update() moves it into new cells.  Neither move may change a bit.
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


def test_run_sequence_returns_a_state_that_continues_the_stream():
    # State in, state out: the returned state continues the stream as
    # extend() does, and the state given, with the consumer that owns it,
    # is left as it was.
    real = build(2, 0.9, 3, kt=3, q=None)
    xs = _events_signal()
    est, twin = StreamingEstimator(real, 0.25), StreamingEstimator(real, 0.25)
    _feed(est, xs[:20]), _feed(twin, xs[:20])
    state = est.state
    kept = copy.deepcopy(state)
    result, continued = run_sequence(real, xs[20:50], 0.25, state=state)
    assert continued.n == 49 and state == kept and est.state is state
    assert _feed(twin, xs[20:50], per_sample=False) == [
        result.estimates.tolist(), result.sigma_eps2.tolist()
    ]
    assert twin.state == continued
    # The owner never saw xs[20:50]: it goes on from sample 20.
    assert _feed(est, xs[20:]) == _feed(StreamingEstimator(real, 0.25), xs)[20:]


@pytest.mark.parametrize("case", ["success", "nan", "foreign"])
def test_run_sequence_leaves_its_state_argument_alone(case):
    # Before, run_sequence advanced the state it was given in place, and the
    # consumer that handed it out with it; a foreign state was advanced too,
    # before the readout failed on it.
    real = build(1, 0.9, 3, kt=3, q=None)
    xs = _events_signal()
    est, twin = StreamingEstimator(real, 0.25), StreamingEstimator(real, 0.25)
    est.extend(xs[:100]), twin.extend(xs[:100])
    state = est.state
    kept = copy.deepcopy(state)
    design, block, error = {
        "success": (real, xs[100:150], None),
        "nan": (real, np.concatenate([xs[100:107], [math.nan], xs[107:150]]), "sample 107 "),
        "foreign": (build(2, 0.9, 2, kt=2, q=None), xs[100:150],
                    "state has cascades of 4 and 2 states, this design 4 and 3"),
    }[case]
    if error is None:
        _, continued = run_sequence(design, block, 0.25, state)
        assert continued.n == 149
    else:
        with pytest.raises(ValueError, match=error):
            run_sequence(design, block, 0.25, state)
    assert state == kept and est.state == kept
    assert _feed(est, xs[100:200]) == _feed(twin, xs[100:200])
    assert _feed(est, xs[200:], per_sample=False) == _feed(twin, xs[200:], per_sample=False)
    assert est.state == twin.state


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
    _, state = run_sequence(real, xs, state=est.state)
    _assert_float_state(state, real)
    _, state = run_sequence(real, xs)
    _assert_float_state(state, real)

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
    whole, state = run_sequence(real, xs, sigma0_sq=0.25)

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
