import math

import numpy as np
import pytest

from erlangreg import (
    ChangeDetector,
    DesignError,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
)
from erlangreg.detectors import _VARIANCE_FLOOR, _RunMarker

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


@pytest.mark.parametrize("seed", [1, 2])
def test_run_gives_the_floats_of_the_reference_block_path(seed):
    # Packets of 64 to 8192 samples, several crossing a multiple of 8192,
    # one stretch at a 1e6 offset.  Z equals the reference block path's Z,
    # the events those of the per-sample marker on it, and the final state
    # the reference's: any change of rounding in the readout fails here.
    xs, sizes = packet_signal(seed, 40_000)
    for detector in _stream_block_detectors():
        value_row, noise_terms = detector._rows
        marker = _RunMarker(detector.threshold, detector._marker.kind_pos,
                            detector._marker.kind_neg)
        events = []
        state = None
        pos = 0
        for size in sizes:
            block = xs[pos:pos + size]
            z = detector.run(block)
            w1_block, w2_block, state = moments_reference(
                detector.realization, block, 0.0, state)
            want = block_statistic_reference(value_row, noise_terms, w1_block, w2_block)
            assert np.array_equal(z, want), (type(detector).__name__, pos)
            events += [e for n, v in enumerate(want.tolist(), start=pos)
                       if (e := marker.update(n, v)) is not None]
            pos += size
        detector.finish()
        events += [e for e in [marker.flush()] if e is not None]
        assert detector.events == events
        assert len(events) > 10
        final = detector.state
        assert (final.w1, final.w2, final.n, final.x0) == state
