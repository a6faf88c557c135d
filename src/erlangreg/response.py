"""Frequency-domain instruments: response, distortion, bandwidth, group delay.

A smoother that fits and evaluates `delay` samples back ideally looks like
the pure delay exp(-i*q*omega) at low frequency.  The distortion
|H(omega) - exp(-i*q*omega)|**2 measures how far the realized response
strays from that ideal, and the distortion-free bandwidth f_c is the lowest
frequency where it reaches one half.

Every response comes from the cascade's exact transfer functions: state k
is the (k+1)-fold leaky integration of the input, so its transfer function
is (1 - p e^{-i omega})**-(k + 1), and each output is a fixed linear
combination of those.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import FilterRealization

__all__ = [
    "ResponseReport",
    "frequency_response",
    "response_matrix",
    "distortion",
    "bandwidth",
    "group_delay_dc",
    "response_report",
]


@dataclass(frozen=True)
class ResponseReport:
    """Gridded frequency response with the scalar summary metrics."""

    freqs: np.ndarray          # cycles/sample on [0, 1/2]
    responses: np.ndarray      # (n_outputs, grid) complex
    distortion: np.ndarray     # |E|**2 of the smoother output per grid point
    f_c: Optional[float]       # cycles/sample; None when 1/2 is never reached
    group_delay_dc: float      # samples


def _state_responses(realization: FilterRealization, omegas: np.ndarray) -> np.ndarray:
    """Transfer functions of the first-moment cascade states, (order, n).

    Row k is (1 - p e^{-i omega})**-(k + 1).  On the unit circle
    |p e^{-i omega}| = p < 1, so the denominator never vanishes.
    """
    net = realization.first_net
    base = 1.0 / (1.0 - net.p * np.exp(-1j * omegas))
    return base[None, :] ** np.arange(1, net.order + 1)[:, None]


def frequency_response(realization: FilterRealization, omega: float, output: int = 0) -> complex:
    """Steady-state response of one derivative output at omega radians/sample."""
    if not 0 <= output < realization.spec.n_outputs:
        raise ValueError(
            f"output must be in [0, {realization.spec.n_outputs}), got {output}"
        )
    states = _state_responses(realization, np.array([omega], dtype=float))
    return complex(realization.state_output[output] @ states[:, 0])


def response_matrix(realization: FilterRealization, omegas: np.ndarray) -> np.ndarray:
    """All derivative outputs' responses over a frequency grid."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    return realization.state_output @ _state_responses(realization, omegas)


def _distortion(realization, omegas, smoother):
    """|H - e^{-i q omega}|**2 given the smoother's responses at omegas."""
    return np.abs(smoother - np.exp(-1j * realization.spec.delay * omegas)) ** 2


def distortion(realization: FilterRealization, omega: float) -> float:
    """Squared complex error of the smoother against the ideal delay."""
    return float(_distortion(realization, omega, frequency_response(realization, omega, 0)))


def _grid(grid_size):
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    return np.linspace(0.0, 0.5, grid_size)


def _half_crossing(realization, freqs, dist):
    """First frequency where the distortion reaches 1/2, or None.

    Brackets the crossing between consecutive grid points of `dist` and
    bisects to 1e-6 cycles/sample.
    """
    above = np.nonzero(dist >= 0.5)[0]
    if len(above) == 0:
        return None
    hi_idx = int(above[0])
    if hi_idx == 0:
        return 0.0
    lo, hi = freqs[hi_idx - 1], freqs[hi_idx]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if distortion(realization, 2.0 * np.pi * mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bandwidth(realization: FilterRealization, grid_size: int = 2048) -> Optional[float]:
    """Least frequency (cycles/sample) where the distortion reaches 1/2.

    Brackets the first crossing on a uniform grid over [0, 1/2], then
    bisects to 1e-6 cycles/sample.  Returns None when the distortion stays
    below 1/2 all the way to the half-sample frequency.
    """
    freqs = _grid(grid_size)
    omegas = 2.0 * np.pi * freqs
    smoother = realization.state_output[0] @ _state_responses(realization, omegas)
    return _half_crossing(realization, freqs, _distortion(realization, omegas, smoother))


def group_delay_dc(realization: FilterRealization, step: float = 1e-4) -> float:
    """Negative phase slope of the smoother at DC, by central difference.

    Equals the delay parameter to within the finite-difference error.
    """
    ahead = frequency_response(realization, step, 0)
    behind = frequency_response(realization, -step, 0)
    return (cmath.phase(behind) - cmath.phase(ahead)) / (2.0 * step)


def response_report(realization: FilterRealization, grid_size: int = 2048) -> ResponseReport:
    """Evaluate the full grid report used by the analyze command."""
    freqs = _grid(grid_size)
    omegas = 2.0 * np.pi * freqs
    responses = response_matrix(realization, omegas)
    dist = _distortion(realization, omegas, responses[0])
    return ResponseReport(
        freqs=freqs,
        responses=responses,
        distortion=dist,
        f_c=_half_crossing(realization, freqs, dist),
        group_delay_dc=group_delay_dc(realization),
    )
