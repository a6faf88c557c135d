"""Reproducible test scenarios: a tracked target and synthetic waveforms.

All randomness flows through a seeded PCG64 generator with an explicit
Box-Muller transform for the normal draws, so the same seed reproduces
the same samples bit for bit across platforms and library versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "make_rng",
    "gaussian_noise",
    "TargetScenario",
    "simulate_target",
    "synth_edge_waveform",
    "synth_peak_waveform",
    "synth_change_waveform",
]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single entry point for scenario randomness."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal draws via Box-Muller on uniform pairs.

    Spelled out rather than using rng.standard_normal so the exact sample
    stream is pinned by this code, not by numpy's internal algorithm choice
    (which has changed across versions).  u1 is mapped to (0, 1] to keep
    the log finite.
    """
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


@dataclass(frozen=True)
class TargetScenario:
    """One-dimensional target with position/velocity state and noisy range.

    accel_mode selects the acceleration input: "constant" applies
    accel_value at every step, "gaussian" draws an independent normal
    acceleration per step with standard deviation accel_value.
    """

    sample_period: float = 0.01
    n_samples: int = 200
    initial_position: float = 1000.0
    initial_velocity: float = 20.0
    accel_mode: str = "constant"
    accel_value: float = -20.0
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.accel_mode not in ("constant", "gaussian"):
            raise ValueError(
                f"accel_mode must be 'constant' or 'gaussian', got {self.accel_mode!r}"
            )
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        # NaN fails every comparison, so `<= 0.0` alone would let it through.
        for name in ("sample_period", "initial_position", "initial_velocity", "accel_value"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sample_period <= 0.0:
            raise ValueError(f"sample_period must be positive, got {self.sample_period}")
        _check_noise_std(self.noise_std)


def _check_noise_std(noise_std: float) -> None:
    """ValueError unless the noise deviation is finite and nonnegative."""
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")


def _check_length(n_samples: int, shortest: int, reason: str) -> None:
    """ValueError unless the record holds at least `shortest` samples.

    A shorter record makes a waveform's scale divide by zero and come out
    as NaN rows.
    """
    if n_samples < shortest:
        raise ValueError(
            f"n_samples must be at least {shortest} ({reason}), got {n_samples}"
        )


def simulate_target(scenario: TargetScenario) -> Tuple[np.ndarray, np.ndarray]:
    """Propagate the target and measure its position.

    Returns (truth, measurements): truth has one row per sample with
    columns position, velocity, acceleration; measurements is the noisy
    position sequence.  The acceleration sequence is drawn before the
    measurement noise so the two scenario variants share their noise
    stream for a given seed.
    """
    ts = scenario.sample_period
    n = scenario.n_samples
    rng = make_rng(scenario.seed)
    if scenario.accel_mode == "constant":
        accel = np.full(n, scenario.accel_value)
    else:
        accel = scenario.accel_value * gaussian_noise(rng, n)
    noise = scenario.noise_std * gaussian_noise(rng, n)

    truth = np.empty((n, 3))
    state = np.array([scenario.initial_position, scenario.initial_velocity])
    transition = np.array([[1.0, ts], [0.0, 1.0]])
    drive = np.array([0.5 * ts * ts, ts])
    for i in range(n):
        truth[i, 0:2] = state
        truth[i, 2] = accel[i]
        state = transition @ state + drive * accel[i]
    measurements = truth[:, 0] + noise
    return truth, measurements


_PULSE_START = 150


def _smoothed_pulse(
    n_samples: int = 400,
    start: int = _PULSE_START,
    width: int = 100,
    height: float = 20.0,
    kernel_sigma: float = 8.0,
) -> np.ndarray:
    """Rectangular pulse blurred by a Gaussian kernel, rescaled to height."""
    pulse = np.zeros(n_samples)
    pulse[start : start + width] = 1.0
    half = int(math.ceil(4.0 * kernel_sigma))
    taps = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (taps / kernel_sigma) ** 2)
    kernel /= kernel.sum()
    smooth = np.convolve(pulse, kernel, mode="same")
    return smooth * (height / smooth.max())


def synth_edge_waveform(
    seed: int, n_samples: int = 400, noise_std: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Smoothed pulse on a flat baseline of 100; returns (clean, noisy).

    The pulse starts at sample 150, so the record needs at least 151 samples.
    """
    _check_noise_std(noise_std)
    _check_length(n_samples, _PULSE_START + 1, f"the pulse starts at sample {_PULSE_START}")
    clean = _smoothed_pulse(n_samples) + 100.0
    noisy = clean + noise_std * gaussian_noise(make_rng(seed), n_samples)
    return clean, noisy


def synth_change_waveform(
    seed: int, n_samples: int = 400, noise_std: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Smoothed pulse on a rising ramp; the pulse onset and exit are the breaks.

    The pulse starts at sample 150, so the record needs at least 151 samples.
    """
    _check_noise_std(noise_std)
    _check_length(n_samples, _PULSE_START + 1, f"the pulse starts at sample {_PULSE_START}")
    ramp = 100.0 + np.arange(n_samples) / 10.0
    clean = _smoothed_pulse(n_samples) + ramp
    noisy = clean + noise_std * gaussian_noise(make_rng(seed), n_samples)
    return clean, noisy


def synth_peak_waveform(
    seed: int, n_samples: int = 400, noise_std: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Broad target peak plus a sharp clutter spike on a cubic background.

    The target is a Gaussian bump of amplitude 10 and width 12 centered at
    3/4 of the record; the clutter is amplitude 10 but width 2 at the
    halfway point, too narrow for a smoother tuned to the target width.
    The cubic background sweeps the baseline across [10, 20]; it is flat
    on fewer than 4 samples, so the record needs at least 4.
    """
    _check_noise_std(noise_std)
    _check_length(n_samples, 4, "the cubic background is flat on fewer samples")
    n = np.arange(n_samples)
    target = 10.0 * np.exp(-0.5 * ((n - 0.75 * n_samples) / 12.0) ** 2)
    clutter = 10.0 * np.exp(-0.5 * ((n - 0.5 * n_samples) / 2.0) ** 2)
    cubic = n * (n - (n_samples - 1) / 2.0) * (n - (n_samples - 1.0))
    lo, hi = cubic.min(), cubic.max()
    background = 10.0 + 10.0 * (cubic - lo) / (hi - lo)
    clean = target + clutter + background
    noisy = clean + noise_std * gaussian_noise(make_rng(seed), n_samples)
    return clean, noisy
