import copy
import gc
import math

import numpy as np
import pytest

from erlangreg import estimator as estimator_module
from erlangreg import (
    ChangeDetector,
    DesignError,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
)
from erlangreg.detectors import _VARIANCE_FLOOR, _RunMarker, _guarded_ratio
from erlangreg.network import run_block

from oracles import block_statistic_reference, build, moments_reference, packet_signal


def _ramp_with_noise(seed, n=300, step_at=150):
    rng = np.random.Generator(np.random.PCG64(seed))
    ramp = np.clip((np.arange(n) - step_at) / 20.0, 0.0, 1.0)
    clean = 10.0 + 20.0 * ramp
    return clean + 0.3 * rng.standard_normal(n)


def _assert_events_match(got, expected):
    # The block path and the per-sample path agree to rounding, not bit
    # for bit, so compare the statistic with a tolerance.
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.n, a.kind) == (b.n, b.kind)
        assert a.z == pytest.approx(b.z, rel=1e-9)


def _z(value, variance):
    """The test statistic from frame values; 0 where the variance vanishes."""
    return value / math.sqrt(variance) if variance >= _VARIANCE_FLOOR else 0.0


def _change_pair():
    return build(0, 0.8, 2, kt=1, q=8.5), build(3, 0.8, 2, kt=1, q=8.5)


def test_statistics_guard_vanishing_variance():
    real = build(0, 0.8, 3, kt=3, q=2.0)
    # With a zero prior a constant input leaves no residual, hence no
    # variance, on the first sample and on every one after it.
    for make in (
        lambda: EdgeDetector(real, 3.0),
        lambda: PeakDetector(real, 3.0),
        lambda: ChangeDetector(*_change_pair(), 3.0),
    ):
        assert make().update(5.0) == 0.0
        assert np.array_equal(make().run(np.full(50, 5.0)), np.zeros(50))


def test_statistics_need_enough_outputs():
    # A detector reads one derivative output, which the design must emit.
    for cls, index in ((EdgeDetector, 1), (PeakDetector, 2)):
        with pytest.raises(DesignError, match=f"{cls.__name__} needs n_outputs >= {index + 1}"):
            cls(build(0, 0.8, index + 1, kt=index, q=1.0), threshold=3.0)
        cls(build(0, 0.8, index + 1, kt=index + 1, q=1.0), threshold=3.0)


def test_edge_and_peak_match_estimator_frames():
    # Each detector reads only its own output; Z must equal the frame's
    # estimate over its own standard deviation.
    real = build(2, 0.8, 3, kt=3, q=None)
    xs = _ramp_with_noise(12)
    est = StreamingEstimator(real, sigma0_sq=0.1)
    edge_expected, peak_expected = [], []
    for x in xs:
        frame = est.update(x)
        edge_expected.append(_z(frame.estimates[1], frame.covariance[1, 1]))
        peak_expected.append(_z(-frame.estimates[2], frame.covariance[2, 2]))
    for detector, expected in (
        (EdgeDetector(real, 3.0, sigma0_sq=0.1), edge_expected),
        (PeakDetector(real, 3.0, sigma0_sq=0.1), peak_expected),
    ):
        np.testing.assert_allclose(detector.run(xs), expected, rtol=1e-9, atol=1e-12)


def test_detector_output_requirements():
    with pytest.raises(DesignError):
        EdgeDetector(build(0, 0.8, 1, kt=1, q=1.0), threshold=3.0)
    with pytest.raises(DesignError):
        PeakDetector(build(0, 0.8, 2, kt=2, q=1.0), threshold=3.0)


def test_edge_detector_marks_one_event_per_run():
    real = build(2, 0.8, 2, kt=2, q=None)
    detector = EdgeDetector(real, threshold=3.0)
    xs = _ramp_with_noise(3)
    z = detector.run(xs)
    detector.finish()
    rising = [e for e in detector.events if e.kind == "rising-edge"]
    assert len(rising) == 1
    event = rising[0]
    # The declared sample carries the largest statistic of its run.
    assert z[event.n] == pytest.approx(event.z)
    assert event.z == pytest.approx(z.max())
    assert 150 <= event.n <= 190


def test_edge_detector_streaming_equals_batch():
    real = build(2, 0.8, 2, kt=2, q=None)
    xs = _ramp_with_noise(4)
    batch = EdgeDetector(real, threshold=3.0)
    z_batch = batch.run(xs)
    batch.finish()

    stream = EdgeDetector(real, threshold=3.0)
    z_stream = np.array([stream.update(x) for x in xs])
    stream.finish()
    np.testing.assert_allclose(z_stream, z_batch, rtol=1e-9, atol=1e-12)
    _assert_events_match(stream.events, batch.events)


def test_finish_flushes_open_run():
    # Noise-free ramp with a seeded prior: the statistic is exactly zero on
    # the flat stretch, then grows and stays above threshold to the end of
    # the data, leaving one run open for finish() to close.
    real = build(0, 0.8, 2, kt=2, q=2.0)
    xs = np.concatenate([np.full(60, 5.0), 5.0 + 0.5 * np.arange(1, 61)])
    detector = EdgeDetector(real, threshold=1.0, sigma0_sq=1.0)
    detector.run(xs)
    assert detector.events == []  # run still open at end of data
    detector.finish()
    assert len(detector.events) == 1
    assert detector.events[0].kind == "rising-edge"


def test_infinite_threshold_never_fires():
    real = build(2, 0.8, 3, kt=3, q=None)
    detector = PeakDetector(real, threshold=math.inf)
    xs = _ramp_with_noise(5)
    detector.run(xs)
    detector.finish()
    assert detector.events == []


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_nan_threshold_is_rejected(kind):
    real = build(2, 0.8, 3, kt=3, q=None)
    fast = build(0, 0.8, 2, q=None)
    slow = build(3, 0.8, 2, q=fast.spec.delay)
    make = {
        "edge": lambda: EdgeDetector(real, math.nan),
        "peak": lambda: PeakDetector(real, threshold=math.nan),
        "change": lambda: ChangeDetector(fast, slow, math.nan),
    }[kind]
    with pytest.raises(ValueError, match="threshold must not be NaN"):
        make()


def test_peak_detector_fires_on_bump():
    real = build(2, 0.8, 3, kt=3, q=None)
    n = np.arange(400, dtype=float)
    rng = np.random.Generator(np.random.PCG64(6))
    xs = 10.0 * np.exp(-0.5 * ((n - 250.0) / 15.0) ** 2) + 0.2 * rng.standard_normal(400)
    detector = PeakDetector(real, threshold=8.0)
    detector.run(xs)
    detector.finish()
    assert len(detector.events) == 1
    event = detector.events[0]
    assert event.kind == "peak"
    # Declared at the bump crest, shifted right by the evaluation delay.
    assert 245 <= event.n <= 255 + int(real.spec.delay) + 10


def test_change_detector_validation():
    # A NaN common delay cannot reach the detector: no realization carries
    # one, as DesignSpec rejects it (test_design.py::test_spec_validation).
    fast, slow = _change_pair()
    ChangeDetector(fast, slow, threshold=3.0)
    for other, message in [
        (build(3, 0.9, 2, q=8.5), "must share p, got 0.8 and 0.9"),
        (build(3, 0.8, 3, q=8.5), "must share model_order, got 2 and 3"),
        (build(3, 0.8, 2, q=8.5, ts=0.5), "must share sample_period, got 1.0 and 0.5"),
    ]:
        with pytest.raises(DesignError, match=message):
            ChangeDetector(fast, other, threshold=3.0)
    for a, b in ((slow, fast), (slow, slow)):
        with pytest.raises(DesignError, match="filter_a must have the smaller shape parameter"):
            ChangeDetector(a, b, threshold=3.0)


def test_change_detector_requires_common_delay():
    real_a = build(0, 0.8, 2, kt=1, q=8.5)
    real_b = build(3, 0.8, 2, kt=1, q=22.41)
    with pytest.raises(DesignError):
        ChangeDetector(real_a, real_b, threshold=3.0)


def test_change_detector_matches_two_independent_filters():
    # The production path runs one shared recursion at the slow filter's
    # orders with zero-padded outputs for the fast filter; it must agree
    # exactly with two entirely separate estimators.
    detector = ChangeDetector(*_change_pair(), 3.0)
    rng = np.random.Generator(np.random.PCG64(7))
    xs = np.concatenate([np.full(120, 50.0), np.full(120, 58.0)])
    xs = xs + 0.5 * rng.standard_normal(240)

    est_a = StreamingEstimator(detector.realization_a)
    est_b = StreamingEstimator(detector.realization_b)
    expected = []
    for x in xs:
        frame_a = est_a.update(x)
        frame_b = est_b.update(x)
        expected.append(_z(
            frame_a.estimates[0] - frame_b.estimates[0],
            frame_a.covariance[0, 0] + frame_b.covariance[0, 0],
        ))
    z = detector.run(xs)
    np.testing.assert_allclose(z, expected, rtol=1e-9, atol=1e-12)

    detector.finish()
    kinds = {e.kind for e in detector.events}
    assert "break-up" in kinds or "break-down" in kinds


def test_change_detector_streaming_equals_batch():
    xs = _ramp_with_noise(8, n=220)
    batch = ChangeDetector(*_change_pair(), 3.0)
    z_batch = batch.run(xs)
    batch.finish()
    stream = ChangeDetector(*_change_pair(), 3.0)
    z_stream = np.array([stream.update(x) for x in xs])
    stream.finish()
    np.testing.assert_allclose(z_stream, z_batch, rtol=1e-9, atol=1e-12)
    _assert_events_match(stream.events, batch.events)


def test_change_detector_flat_signal_stays_quiet():
    detector = ChangeDetector(*_change_pair(), 3.0)
    rng = np.random.Generator(np.random.PCG64(9))
    z = detector.run(100.0 + 0.5 * rng.standard_normal(400))
    detector.finish()
    assert np.all(np.abs(z) < 3.0)
    assert detector.events == []


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_raises_and_leaves_detector_unchanged(kind, bad):
    def make():
        if kind == "change":
            return ChangeDetector(*_change_pair(), 1.0, sigma0_sq=0.25)
        real = build(2, 0.8, 3, kt=3, q=None)
        cls = EdgeDetector if kind == "edge" else PeakDetector
        return cls(real, 1.0, sigma0_sq=0.25)

    xs = _ramp_with_noise(13, n=240)
    reference = make()
    z_ref = reference.run(xs)
    reference.finish()

    detector = make()
    with pytest.raises(ValueError, match="sample 0 "):
        detector.update(bad)
    with pytest.raises(ValueError, match="sample 0 "):
        detector.run(np.array([bad, 1.0]))
    z_head = detector.run(xs[:100])
    with pytest.raises(ValueError, match="sample 103 "):
        detector.run(np.concatenate([xs[100:103], [bad], xs[103:110]]))
    with pytest.raises(ValueError, match="sample 100 "):
        detector.update(bad)
    z_tail = [detector.update(x) for x in xs[100:120]] + list(detector.run(xs[120:]))
    detector.finish()
    np.testing.assert_allclose(
        np.concatenate([z_head, z_tail]), z_ref, rtol=1e-12, atol=1e-12
    )
    assert [(e.n, e.kind) for e in detector.events] == [
        (e.n, e.kind) for e in reference.events
    ]


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_run_on_an_empty_block_changes_nothing(kind):
    def make():
        if kind == "change":
            return ChangeDetector(*_change_pair(), 1.0, sigma0_sq=0.25)
        real = build(2, 0.8, 3, kt=3, q=None)
        cls = EdgeDetector if kind == "edge" else PeakDetector
        return cls(real, 1.0, sigma0_sq=0.25)

    def snapshot(detector):
        return detector.state, list(detector.events), dict(vars(detector._marker))

    def run_empty(detector):
        kept = snapshot(detector)
        z = detector.run(np.empty(0))
        assert z.dtype == np.float64 and z.shape == (0,)
        assert snapshot(detector) == kept

    xs = _ramp_with_noise(13, n=240)
    detector, twin = make(), make()
    run_empty(detector)
    assert detector.state is None
    # Up to a sample that leaves an exceedance run open.
    for cut, x in enumerate(xs, start=1):
        detector.update(x), twin.update(x)
        if detector._marker._sign != 0:
            break
    assert detector._marker._sign != 0
    run_empty(detector)
    assert np.array_equal(detector.run(xs[cut:]), twin.run(xs[cut:]))
    detector.finish(), twin.finish()
    assert detector.events == twin.events
    assert detector.events


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_detectors_reject_bad_prior_variance(bad):
    # A NaN prior used to be accepted and kept Z NaN, so nothing ever fired.
    real = build(2, 0.8, 3, kt=3, q=None)
    for make in (
        lambda: EdgeDetector(real, 3.0, sigma0_sq=bad),
        lambda: PeakDetector(real, 3.0, sigma0_sq=bad),
        lambda: ChangeDetector(*_change_pair(), 3.0, sigma0_sq=bad),
    ):
        with pytest.raises(ValueError, match="sigma0_sq must be finite and nonnegative"):
            make()


def _stream_block_detectors():
    """Edge on base, peak on wide, change on the fast/slow pair."""
    fast = build(0, 0.8, 2, kt=2)
    slow = build(3, 0.8, 2, kt=1, q=fast.spec.delay)
    return [EdgeDetector(build(2, 0.9, 2, kt=2), 3.0),
            PeakDetector(build(6, 0.8, 4, kt=3), 3.0),
            ChangeDetector(fast, slow, 3.0)]


def _kx3_change_detector():
    """Change on a kappa 2/6, kx 3 pair: the slow cascades are three stages
    longer than the fast ones."""
    fast = build(2, 0.9, 3, kt=1)
    return ChangeDetector(fast, build(6, 0.9, 3, kt=1, q=fast.spec.delay), 3.0)


def _padded_term(real, gain, stream):
    """A (realization, gain) noise term as the reference's (coeff, power,
    residual_mass, vrf_ii), its rows zero-padded to stream's cascades."""
    pad1 = stream.spec.n_first_states - real.spec.n_first_states
    pad2 = stream.spec.n_second_states - real.spec.n_second_states
    return (np.pad(real.coeff_output, ((0, 0), (0, pad1))),
            np.pad(real.power_output, (0, pad2)), real.residual_mass, gain)


@pytest.mark.parametrize("seed", [1, 2])
def test_run_gives_the_floats_of_the_reference_block_path(seed):
    # Packets of 64 to 8192 samples, several crossing a multiple of 8192,
    # one stretch at a 1e6 offset.  Z equals the reference block path's Z,
    # the events those of the per-sample marker on it, and the final state
    # the reference's: any change of rounding in the readout fails here.
    xs, sizes = packet_signal(seed, 40_000)
    for detector in _stream_block_detectors() + [_kx3_change_detector()]:
        value_row, terms = detector._rows
        noise_terms = [_padded_term(real, gain, detector.realization) for real, gain in terms]
        marker = _RunMarker(detector.threshold, detector._marker.kind_pos,
                            detector._marker.kind_neg)
        state = None
        pos = 0
        for size in sizes:
            block = xs[pos:pos + size]
            z = detector.run(block)
            w1_block, w2_block, state = moments_reference(
                detector.realization, block, 0.0, state)
            want = block_statistic_reference(value_row, noise_terms, w1_block, w2_block)
            assert np.array_equal(z, want), (type(detector).__name__, pos)
            for n, v in enumerate(want.tolist(), start=pos):
                marker.update(n, v)
            pos += size
        detector.finish()
        marker.flush()
        assert detector.events == marker.events
        assert len(marker.events) > 10
        final = detector.state
        assert (list(final.w1), list(final.w2), final.n, final.x0) == state


@pytest.mark.parametrize("seed", [1, 2])
def test_a_noise_term_is_its_filters_lone_noise_variance(seed, monkeypatch):
    # A noise term is a filter and a gain.  The variance a detector divides
    # by is the sum over its terms of gain times the sigma_eps2 of a lone
    # estimator on the term's filter fed the same packets, bit for bit:
    # edge on the base design, peak on the wide one, and two change pairs,
    # whose fast filter reads the leading stages of the slow cascades.
    xs, sizes = packet_signal(seed, 20_000)
    packets = np.split(xs, np.cumsum(sizes)[:-1])
    variances = []

    def spied(value, variance):
        variances.append(variance.copy())
        return _guarded_ratio(value, variance)

    def lone(realization):
        estimator = StreamingEstimator(realization)
        return np.concatenate([estimator.extend(packet).sigma_eps2 for packet in packets])

    monkeypatch.setattr("erlangreg.detectors._guarded_ratio", spied)
    for detector in _stream_block_detectors() + [_kx3_change_detector()]:
        want = sum(gain * lone(real) for real, gain in detector._rows[1])
        variances.clear()
        for packet in packets:
            detector.run(packet)
        assert np.array_equal(np.concatenate(variances), want), type(detector).__name__


def _holds_no_more_than_itself(array):
    """array owns its memory, or views a base no larger than itself."""
    return array.base is None or array.base.nbytes <= array.nbytes


@pytest.mark.parametrize("together", [False, True])
def test_block_outputs_hold_no_larger_array(together):
    # A block's estimates, sigma_eps2 and variances, and a detector's Z,
    # are each an array of their own, not a view of a readout product with
    # more rows: a caller that keeps a result keeps only its own floats.
    # Fed alone and fed together in the stream-block order, where streams
    # share their block runs, over packets on both sides of the engine's
    # fold switch and across a piece edge.
    xs, _ = packet_signal(5, 20_000)
    sizes = [1, 64, 1024, 1025, 8192, 8000]
    makers = _stream_block_makers()
    groups = [[make() for make in makers]] if together else [[make()] for make in makers]
    for consumers in groups:
        pos = 0
        for size in sizes:
            for consumer in consumers:
                block = xs[pos:pos + size]
                if isinstance(consumer, StreamingEstimator):
                    result = consumer.extend(block)
                    outputs = [result.estimates, result.sigma_eps2, result.variances]
                else:
                    outputs = [consumer.run(block)]
                for output in outputs:
                    assert output.shape[-1] == size
                    assert _holds_no_more_than_itself(output), (type(consumer).__name__, size)
            pos += size


def _stream_block_makers():
    """Makers of the four consumers of the stream-block benchmark: the
    estimator on the wide design, then edge, peak and change as above.  The
    estimator and the peak detector run one cascade shape, from two
    realizations of the same design."""
    wide = build(6, 0.8, 4, kt=3)
    # A copy of an unfed detector is a new one with its own run marker.
    return [lambda: StreamingEstimator(wide)] + [
        lambda d=d: copy.copy(d) for d in _stream_block_detectors()
    ]


def _readouts(consumer, xs, per_sample):
    """A stretch's readouts as arrays: estimates, sigma_eps2 and variances
    from the estimator, Z from a detector."""
    if not per_sample:
        if isinstance(consumer, StreamingEstimator):
            result = consumer.extend(xs)
            return [result.estimates, result.sigma_eps2, result.variances]
        return [consumer.run(xs)]
    got = [consumer.update(x) for x in xs.tolist()]
    if isinstance(consumer, StreamingEstimator):
        return [np.array([f.estimates for f in got]).T, np.array([f.sigma_eps2 for f in got]),
                np.array([f.covariance.diagonal() for f in got]).T]
    return [np.array(got)]


def _feed_plan(consumers, xs, plan, calls):
    """Feed each stretch of the plan to every consumer in turn; returns per
    consumer its readouts, events and final state, and the engine calls
    each stretch cost."""
    parts = [[] for _ in consumers]
    per_stretch = []
    for lo, hi, per_sample in plan:
        before = len(calls)
        for consumer, part in zip(consumers, parts):
            part.append(_readouts(consumer, xs[lo:hi], per_sample))
        per_stretch.append((per_sample, len(calls) - before))
    out = []
    for consumer, part in zip(consumers, parts):
        readouts = [np.concatenate(field, axis=-1) for field in zip(*part)]
        events = None
        if not isinstance(consumer, StreamingEstimator):
            consumer.finish()
            events = consumer.events
        out.append((readouts, events, consumer.state))
    return out, per_stretch


# Feeding orders of the _stream_block_makers() consumers, as indices, the
# engine calls the first block packet costs and the calls each block packet
# after it costs in that order.  Which stream keeps a run depends on the
# order: a shorter cascade fed first keeps its own, and the longer stream
# after it misses it.  Without the edge detector, the only consumer of
# decay 0.9, the estimator first makes a packet one call.
_FEEDING_ORDERS = {
    "stream-block": ((0, 1, 2, 3), 3, 2),
    "reversed": ((3, 2, 1, 0), 3, 3),
    "change first": ((3, 0, 1, 2), 3, 3),
    "estimator peak change": ((0, 2, 3), 2, 1),
    "change peak estimator": ((3, 2, 0), 2, 2),
}


# The stream-block order, the default, is named by mixed and seed alone.
@pytest.mark.parametrize("order, mixed, seed", [
    pytest.param(order, mixed, seed, id="-".join(
        map(str, (mixed, seed) if order == "stream-block" else (order, mixed, seed))))
    for order in _FEEDING_ORDERS for mixed in (False, True) for seed in (1, 2)
])
def test_consumers_fed_together_equal_consumers_fed_alone(seed, mixed, order, monkeypatch):
    # The estimator and the peak detector share the wide cascade's block
    # runs, and the change detector, of the same decay and shorter
    # cascades, reads their leading stages.  Fed packet by packet together,
    # in any order, from the first packet through the 1e6 offset stretch,
    # and with update() calls between blocks, every consumer gives the
    # floats, events and state it gives fed alone.  In the stream-block
    # order a block packet costs two engine calls, not four.
    indices, first, per_packet = _FEEDING_ORDERS[order]
    xs, sizes = packet_signal(seed, 40_000)
    plan, pos = [], 0
    for i, size in enumerate(sizes):
        head = min(40, size - 1) if mixed and i % 4 == 1 else 0
        if head:
            plan.append((pos, pos + head, True))
        plan.append((pos + head, pos + size, False))
        pos += size
    makers = _stream_block_makers()
    makers = [makers[i] for i in indices]
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start", 0))
        return run_block(*args, **kwargs)

    monkeypatch.setattr(estimator_module, "run_block", counted)
    gc.collect()
    alone = [_feed_plan([make()], xs, plan, calls)[0][0] for make in makers]
    together, per_stretch = _feed_plan([make() for make in makers], xs, plan, calls)
    for (got, got_events, got_state), (want, want_events, want_state) in zip(together, alone):
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(got, want, strict=True))
        assert got_events == want_events and got_state == want_state
        assert got_events is None or got_events
    # The estimator and the peak detector run one design; the change
    # detector's cascades are the leading 5 and 4 stages of theirs.
    estimator, peak, change = (together[indices.index(i)][2] for i in (0, 2, 3))
    assert estimator == peak
    assert change.w1 == estimator.w1[:5] and change.w2 == estimator.w2[:4]
    # On the first block the first stream of decay 0.8 is the only one that
    # has run one, so its run is not kept.
    blocks = [n for per_sample, n in per_stretch if not per_sample]
    assert blocks[0] == first and set(blocks[1:]) == {per_packet}
    assert all(n == 0 for per_sample, n in per_stretch if per_sample)


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_per_sample_updates_skip_only_quiet_samples(kind):
    # update() calls the run marker only for a sample whose Z passes a bound
    # or that arrives while a run is open.  The plan ends each run() block
    # on the first sample of an exceedance run at threshold 3, then feeds 60
    # samples through update(): the rest of the run, then quiet samples.
    # At every threshold, events are those of a plain marker fed the same Z.
    n = 500
    t = np.arange(n, dtype=float)
    rng = np.random.Generator(np.random.PCG64(11))
    xs = (4.0 * np.clip((t - 120.0) / 40.0, 0.0, 1.0)
          + 6.0 * np.exp(-0.5 * ((t - 340.0) / 15.0) ** 2)
          + 0.5 * rng.standard_normal(n))
    make = {
        "edge": lambda threshold: EdgeDetector(build(2, 0.8, 2, kt=2), threshold, 0.25),
        "peak": lambda threshold: PeakDetector(build(2, 0.8, 3, kt=3), threshold, 0.25),
        "change": lambda threshold: ChangeDetector(*_change_pair(), threshold, 0.25),
    }[kind]
    z_probe = make(3.0).run(xs)
    exceed = z_probe > 3.0 if kind == "peak" else np.abs(z_probe) > 3.0
    plan, pos = [], 0
    for first in (exceed & ~np.r_[False, exceed[:-1]]).nonzero()[0].tolist():
        if first >= pos:
            plan += [(pos, first + 1, False), (first + 1, min(first + 61, n), True)]
            pos = first + 61
    plan.append((pos, n, False))

    z_seen = []
    for threshold in (3.0, 0.0, -1.0, math.inf):
        detector = make(threshold)
        marker = detector._marker
        z = np.empty(n)
        open_block_ends = quiet_updates = 0
        for lo, hi, per_sample in plan:
            if not per_sample:
                z[lo:hi] = detector.run(xs[lo:hi])
                open_block_ends += marker._sign != 0
                continue
            for k in range(lo, hi):
                was_open = marker._sign != 0
                z[k] = detector.update(xs[k])
                bound = z[k] if kind == "peak" else abs(z[k])
                quiet_updates += not was_open and bound <= threshold
        detector.finish()
        plain = _RunMarker(threshold, marker.kind_pos, marker.kind_neg)
        for k, z_k in enumerate(z.tolist()):
            plain.update(k, z_k)
        plain.flush()
        assert detector.events == plain.events, threshold
        if threshold == 3.0:
            assert open_block_ends >= 1 and quiet_updates >= 10, (open_block_ends, quiet_updates)
        z_seen.append(z)
    # The threshold and the skipped marker calls move no Z.
    for z in z_seen[1:]:
        assert np.array_equal(z, z_seen[0])
