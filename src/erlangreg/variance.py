"""Noise-gain analysis: VRF matrices, Parseval cross-check, optimal delay.

The VRF (variance reduction factor) of an output is the ratio of its
steady-state noise variance to the input white-noise variance, equal to the
sum of squared impulse-response samples.  For these filters it has a closed
algebraic form in the design matrices; the impulse-response summation is
kept alongside as an independent check.  The closed forms themselves live
in design.py, next to the Gram pair they read; the functions here build
that pair for one spec and call them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import (
    DesignSpec,
    FilterRealization,
    _delay_polynomial,
    _gram_pair,
    _optimal_delay,
    _vrf,
    synthesis_matrix,
)
from .network import run_block

__all__ = [
    "VrfReport",
    "vrf_matrix",
    "vrf_by_parseval",
    "delay_polynomial",
    "optimal_delay",
]


@dataclass(frozen=True)
class VrfReport:
    """Noise gains at the chosen delay plus the stationary-delay survey."""

    vrf: np.ndarray                       # (n_outputs, n_outputs) at q_optimal
    q_optimal: float                      # samples
    candidates: list                      # (delay, objective value) per stationary point


def vrf_matrix(spec: DesignSpec) -> np.ndarray:
    """Closed-form noise gain matrix of a design with a resolved delay.

    Output covariance of unit white noise equals this matrix; entry (a, b)
    is the covariance between derivative outputs a and b.
    """
    return _vrf(synthesis_matrix(spec), *_gram_pair(spec))


def vrf_by_parseval(
    realization: FilterRealization,
    k_a: int = 0,
    k_b: int = 0,
    horizon: int | None = None,
) -> float:
    """Sum of h_a[m] * h_b[m] over the explicit impulse response.

    The horizon is adaptive: blocks double in length until the last block
    contributes less than 1e-12 of the accumulated sum.  An explicit
    horizon overrides that.  Raises if 1e6 samples do not converge.
    """
    n_out = realization.spec.n_outputs
    if not (0 <= k_a < n_out and 0 <= k_b < n_out):
        raise ValueError(f"output indices must be in [0, {n_out}), got {k_a}, {k_b}")
    row_a = realization.state_output[k_a]
    row_b = realization.state_output[k_b]
    p = realization.spec.weight.p

    total = 0.0
    consumed = 0
    block = 64
    state = np.zeros(realization.spec.n_first_states)  # cascade at rest
    first = True
    limit = horizon if horizon is not None else 1_000_000
    while consumed < limit:
        block = min(block, limit - consumed)
        u = np.zeros(block)
        if first:
            u[0] = 1.0  # unit impulse enters once
        states = run_block(p, u, state)
        state = states[:, -1]
        h_a = row_a @ states
        h_b = row_b @ states
        contribution = float(h_a @ h_b)
        total += contribution
        consumed += block
        if horizon is None and not first and abs(contribution) < 1e-12 * max(abs(total), 1e-300):
            return total
        first = False
        block *= 2
    if horizon is not None:
        return total
    raise RuntimeError(
        f"impulse-response sum did not converge within {limit} samples "
        f"(p={realization.spec.weight.p}); the tail decays too slowly"
    )


def delay_polynomial(spec: DesignSpec, output: int = 0) -> np.ndarray:
    """Coefficients (ascending) of the output's noise gain as a polynomial in delay.

    The diagonal VRF of derivative output `output` is a polynomial of degree
    2 * (model_order - 1 - output) in the delay; this returns its exact
    coefficients, independent of any delay stored in the spec.
    """
    return _delay_polynomial(spec, *_gram_pair(spec), output)


def optimal_delay(spec: DesignSpec, output: int = 0) -> VrfReport:
    """Pick the delay minimizing the output's noise gain.

    Differentiates the delay polynomial, takes its real roots, classifies
    each stationary point by a second difference, and returns the minimum
    with the least delay.  When the gain is delay-independent (model_order
    of 1, or the highest derivative) the weight centroid is reported and
    the candidate list is empty.
    """
    overlap, squared = _gram_pair(spec)
    q_best, candidates = _optimal_delay(spec, overlap, squared, output)
    vrf = _vrf(synthesis_matrix(replace(spec, delay=q_best)), overlap, squared)
    return VrfReport(vrf=vrf, q_optimal=q_best, candidates=candidates)
