"""Frequency-domain analysis: response grid, distortion, bandwidth, group delay.

A smoother that fits and evaluates `delay` samples back ideally looks like
the pure delay exp(-i*q*omega) at low frequency.  The distortion
|H(omega) - exp(-i*q*omega)|**2 measures how far the realized response
strays from that ideal, and the distortion-free bandwidth f_c is the lowest
frequency where it reaches one half.

Every response comes from the cascade's exact transfer functions: state k
is the (k+1)-fold leaky integration of the input, so its transfer function
is (1 - p e^{-i omega})**-(k + 1), and each output is a fixed linear
combination of those.  The powers are built by recurrence, one complex
product per state and frequency: on a grid as numpy rows multiplied in
place, and at the single frequencies of the cutoff search in Python
complex arithmetic.  The DC group delay is the centroid of the smoother's
impulse response, an exact sum over the same states.

response_report is the one entry point for the analyze command; design
documents carry none of these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .design import FilterRealization

__all__ = [
    "ResponseReport",
    "response_matrix",
    "group_delay_dc",
    "response_report",
]


@dataclass(frozen=True, eq=False)
class ResponseReport:
    """Gridded frequency response with the scalar summary metrics."""

    freqs: np.ndarray          # cycles/sample on [0, 1/2]
    responses: np.ndarray      # (n_outputs, grid) complex
    distortion: np.ndarray     # |E|**2 of the smoother output per grid point
    f_c: Optional[float]       # cycles/sample; None when 1/2 is never reached
    group_delay_dc: float      # samples


def _state_responses(realization: FilterRealization, cos, sin) -> np.ndarray:
    """Transfer functions of the first-moment cascade states, (order, n).

    cos and sin are cos(omega) and sin(omega) of the n frequencies.  Row k
    is (1 - p e^{-i omega})**-(k + 1).  Row 0 is the reciprocal of
    1 - p cos(omega) + i p sin(omega), and each later row is the row before
    it times row 0, written in place.  On the unit circle
    |p e^{-i omega}| = p < 1, so the denominator never vanishes.
    """
    p = realization.spec.weight.p
    out = np.empty((realization.spec.n_first_states, cos.size), dtype=complex)
    base = out[0]
    base.real = 1.0 - p * cos
    base.imag = p * sin
    np.reciprocal(base, out=base)
    for k in range(1, out.shape[0]):
        np.multiply(out[k - 1], base, out=out[k])
    return out


def _responses(realization, cos, sin):
    """All derivative outputs' responses, given cos and sin of the frequencies."""
    # The output rows are real: one real product over the interleaved real
    # and imaginary parts of the state responses does the complex one.
    states = _state_responses(realization, cos, sin)
    return (realization.state_output @ states.view(float)).view(complex)


def response_matrix(realization: FilterRealization, omegas: np.ndarray) -> np.ndarray:
    """All derivative outputs' responses over a frequency grid."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    return _responses(realization, np.cos(omegas), np.sin(omegas))


def _distortion(realization, omegas, smoother):
    """|H - e^{-i q omega}|**2 given the smoother's responses at omegas."""
    phase = realization.spec.delay * omegas
    return (smoother.real - np.cos(phase)) ** 2 + (smoother.imag + np.sin(phase)) ** 2


def _grid(grid_size):
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    return np.linspace(0.0, 0.5, grid_size)


@lru_cache(maxsize=4)
def _grid_trig(grid_size):
    """cos(omega) and sin(omega) on the report grid of grid_size, read-only.

    They do not depend on the design, so a process that reports on many
    designs computes them once per grid size.
    """
    omegas = 2.0 * np.pi * _grid(grid_size)
    tables = np.cos(omegas), np.sin(omegas)
    for table in tables:
        table.flags.writeable = False
    return tables


def _half_crossing(realization, freqs, dist):
    """First frequency where the distortion reaches 1/2, or None.

    Brackets the crossing between consecutive grid points of `dist` and
    bisects to 1e-6 cycles/sample.  Each bisection step evaluates the
    smoother at its one frequency in Python complex arithmetic, by the same
    recurrence as _state_responses: the state term is multiplied by
    1 / (1 - p e^{-i omega}) once per state.
    """
    above = np.nonzero(dist >= 0.5)[0]
    if len(above) == 0:
        return None
    hi_idx = int(above[0])
    if hi_idx == 0:
        return 0.0
    lo, hi = float(freqs[hi_idx - 1]), float(freqs[hi_idx])
    p, q = realization.spec.weight.p, realization.spec.delay
    smoother = realization.state_output[0].tolist()
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        omega = 2.0 * math.pi * mid
        base = 1.0 / complex(1.0 - p * math.cos(omega), p * math.sin(omega))
        term, response = base, 0j
        for weight in smoother:
            response += weight * term
            term *= base
        error = response - complex(math.cos(q * omega), -math.sin(q * omega))
        if error.real * error.real + error.imag * error.imag >= 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def group_delay_dc(realization: FilterRealization) -> float:
    """Negative phase slope of the smoother at DC, in samples, exactly.

    For a real impulse response h the DC group delay is its centroid
    sum(m h[m]) / sum(h[m]).  State k's impulse response sums to
    (1 - p)**-(k + 1) and its first moment is (k + 1) p (1 - p)**-(k + 2),
    so both sums are fixed combinations of the smoother row.
    """
    p = realization.spec.weight.p
    stages = np.arange(1, realization.spec.n_first_states + 1)
    mass = (1.0 - p) ** -stages
    first_moment = stages * (p / (1.0 - p)) * mass
    smoother = realization.state_output[0]
    return float(smoother @ first_moment) / float(smoother @ mass)


def response_report(realization: FilterRealization, grid_size: int = 2048) -> ResponseReport:
    """Evaluate the full grid report used by the analyze command."""
    freqs = _grid(grid_size)
    omegas = 2.0 * np.pi * freqs
    responses = _responses(realization, *_grid_trig(grid_size))
    dist = _distortion(realization, omegas, responses[0])
    return ResponseReport(
        freqs=freqs,
        responses=responses,
        distortion=dist,
        f_c=_half_crossing(realization, freqs, dist),
        group_delay_dc=group_delay_dc(realization),
    )
