import numpy as np
import pytest

from erlangreg import (
    TargetScenario,
    gaussian_noise,
    make_rng,
    simulate_target,
    synth_change_waveform,
    synth_edge_waveform,
    synth_peak_waveform,
)


def test_noise_stream_is_reproducible():
    a = gaussian_noise(make_rng(123), 1000)
    b = gaussian_noise(make_rng(123), 1000)
    assert np.array_equal(a, b)
    c = gaussian_noise(make_rng(124), 1000)
    assert not np.array_equal(a, c)


def test_noise_moments_converge():
    draws = gaussian_noise(make_rng(0), 100_000)
    assert abs(draws.mean()) < 0.05 * 1.0 + 0.02
    assert draws.var() == pytest.approx(1.0, rel=0.05)


def test_noise_odd_count_and_edge_cases():
    assert gaussian_noise(make_rng(1), 0).shape == (0,)
    assert gaussian_noise(make_rng(1), 7).shape == (7,)
    with pytest.raises(ValueError):
        gaussian_noise(make_rng(1), -1)


def test_target_truth_obeys_kinematics():
    scenario = TargetScenario(seed=5)
    truth, measurements = simulate_target(scenario)
    assert truth.shape == (200, 3)
    assert measurements.shape == (200,)
    ts = scenario.sample_period
    for n in range(199):
        x, v, a = truth[n]
        assert truth[n + 1, 0] == pytest.approx(x + ts * v + 0.5 * ts * ts * a, rel=1e-12)
        assert truth[n + 1, 1] == pytest.approx(v + ts * a, rel=1e-12)
    np.testing.assert_allclose(truth[:, 2], -20.0)
    assert truth[0, 0] == 1000.0
    assert truth[0, 1] == 20.0


def test_target_measurement_noise_level():
    scenario = TargetScenario(seed=6, n_samples=20000, noise_std=0.5)
    truth, measurements = simulate_target(scenario)
    residual = measurements - truth[:, 0]
    assert residual.std() == pytest.approx(0.5, rel=0.05)
    assert abs(residual.mean()) < 0.02


def test_random_acceleration_mode():
    scenario = TargetScenario(accel_mode="gaussian", accel_value=100.0, seed=7)
    truth, _ = simulate_target(scenario)
    accel = truth[:, 2]
    assert accel.std() > 10.0
    assert not np.allclose(accel, accel[0])
    # Same seed, same draws.
    truth2, _ = simulate_target(scenario)
    assert np.array_equal(truth, truth2)


def test_target_scenario_validation():
    with pytest.raises(ValueError):
        TargetScenario(accel_mode="brownian")
    with pytest.raises(ValueError):
        TargetScenario(n_samples=0)
    with pytest.raises(ValueError):
        TargetScenario(noise_std=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field",
    ["sample_period", "noise_std", "initial_position", "initial_velocity", "accel_value"],
)
def test_target_scenario_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        TargetScenario(**{field: value})


@pytest.mark.parametrize("noise_std", [-0.5, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "generator", [synth_edge_waveform, synth_change_waveform, synth_peak_waveform]
)
def test_waveforms_reject_bad_noise_std(generator, noise_std):
    with pytest.raises(ValueError, match="noise_std"):
        generator(1, 50, noise_std)


def test_edge_waveform_shape_and_levels():
    clean, noisy = synth_edge_waveform(seed=1)
    assert clean.shape == noisy.shape == (400,)
    assert clean.max() == pytest.approx(120.0, rel=1e-12)
    np.testing.assert_allclose(clean[:40], 100.0, atol=1e-6)
    np.testing.assert_allclose(clean[360:], 100.0, atol=1e-6)
    # The plateau lives between the blurred edges.
    assert clean[200] == pytest.approx(120.0, rel=1e-3)
    assert (noisy - clean).std() == pytest.approx(0.5, rel=0.2)


def test_change_waveform_rides_a_ramp():
    clean, _ = synth_change_waveform(seed=1)
    # Away from the pulse the signal is the ramp 100 + n/10.
    n = np.arange(400)
    ramp = 100.0 + n / 10.0
    np.testing.assert_allclose(clean[:40], ramp[:40], atol=1e-6)
    np.testing.assert_allclose(clean[360:], ramp[360:], atol=1e-6)
    assert clean[200] - ramp[200] == pytest.approx(20.0, rel=1e-3)


def test_peak_waveform_components():
    clean, _ = synth_peak_waveform(seed=1)
    assert clean.shape == (400,)
    n = np.arange(400)
    target = 10.0 * np.exp(-0.5 * ((n - 300.0) / 12.0) ** 2)
    clutter = 10.0 * np.exp(-0.5 * ((n - 200.0) / 2.0) ** 2)
    background = clean - target - clutter
    # The cubic background sweeps exactly the [10, 20] band.
    assert background.min() == pytest.approx(10.0, abs=1e-9)
    assert background.max() == pytest.approx(20.0, abs=1e-9)


def test_waveforms_are_deterministic():
    for synth in (synth_edge_waveform, synth_peak_waveform, synth_change_waveform):
        a_clean, a_noisy = synth(seed=42)
        b_clean, b_noisy = synth(seed=42)
        assert np.array_equal(a_clean, b_clean)
        assert np.array_equal(a_noisy, b_noisy)


@pytest.mark.parametrize(
    "generator,shortest",
    [(synth_edge_waveform, 151), (synth_change_waveform, 151), (synth_peak_waveform, 4)],
)
def test_waveforms_reject_records_too_short_for_their_shape(generator, shortest):
    # One sample less leaves the pulse outside the record (edge, change) or
    # the cubic background flat (peak); the scale would divide by zero.
    for n in (shortest - 1, 0, -3):
        with pytest.raises(ValueError, match=f"n_samples must be at least {shortest}"):
            generator(1, n)
    clean, noisy = generator(1, shortest)
    assert clean.shape == noisy.shape == (shortest,)
    assert np.isfinite(clean).all() and np.isfinite(noisy).all()
