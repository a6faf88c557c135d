"""Online runtime: moment recursions, estimates, live noise variance.

Two integrator cascades run side by side: the first filters the signal and
yields the polynomial fit, the second filters the squared signal and yields
the weighted input power.  Their difference gives a running estimate of the
measurement-noise variance, which scales the design-time noise gain matrix
into a live covariance for every derivative output.

Inputs are assumed finite; NaN or infinite samples must be rejected by the
caller before they reach the recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import FilterRealization
from .network import run_block

__all__ = [
    "EstimatorState",
    "EstimateFrame",
    "SequenceResult",
    "new_estimator",
    "current_frame",
    "update",
    "coefficients",
    "run_sequence",
    "StreamingEstimator",
]


@dataclass
class EstimatorState:
    """Live recursion state for one stream."""

    w1: np.ndarray   # first-moment cascade, length kappa + model_order
    w2: np.ndarray   # second-moment cascade, length kappa + 1
    n: int           # samples consumed


@dataclass(frozen=True)
class EstimateFrame:
    """Per-sample output: derivative estimates with their covariance.

    estimates[k] is the k-th time derivative of the local fit evaluated
    `delay` samples behind sample n, in input units per second**k.
    covariance is sigma_eps2 times the design's noise gain matrix, exactly.
    """

    n: int
    estimates: np.ndarray
    sigma_eps2: float
    covariance: np.ndarray


@dataclass(frozen=True)
class SequenceResult:
    """Vectorized frames for a block of samples (diagonal covariance only)."""

    estimates: np.ndarray    # (n_outputs, N)
    sigma_eps2: np.ndarray   # (N,)
    variances: np.ndarray    # (n_outputs, N) diagonal of the covariance


def new_estimator(realization: FilterRealization, x0: float, sigma0_sq: float = 0.0) -> EstimatorState:
    """Start a stream on its first sample with final-value initialization.

    Both cascades begin at the steady state they would reach under a
    constant input x0 whose noise variance is sigma0_sq, so a constant
    stream produces flat outputs from the very first sample.
    """
    if sigma0_sq < 0.0:
        raise ValueError(f"sigma0_sq must be nonnegative, got {sigma0_sq}")
    return EstimatorState(
        w1=realization.steady_first * x0,
        w2=realization.steady_second * (sigma0_sq + x0 * x0),
        n=0,
    )


def _noise_variance(beta, power, residual_mass):
    """Residual power over the effective weight mass, clamped at zero.

    The weighted residual sum is the filtered input power minus the power
    captured by the orthonormal fit coefficients.  Dividing by the
    effective mass (total weight mass minus the fit's leverage) makes the
    estimate unbiased for white noise; finite precision can drive the
    difference slightly negative early on, hence the clamp.

    For one sample beta is a vector and power a scalar, and the result is
    a float; for a block beta has one column per sample and power is a
    vector, and the result is a vector.
    """
    if beta.ndim == 1:
        residual = float(power) - float(beta @ beta)
        return max(residual, 0.0) / residual_mass
    residual = power - np.einsum("ij,ij->j", beta, beta)
    return np.maximum(residual, 0.0) / residual_mass


def current_frame(state: EstimatorState, realization: FilterRealization) -> EstimateFrame:
    """Frame for the state as it stands, without consuming a sample."""
    beta = realization.coeff_output @ state.w1
    power = realization.power_output @ state.w2
    sigma_eps2 = _noise_variance(beta, power, realization.residual_mass)
    return EstimateFrame(
        n=state.n,
        estimates=realization.state_output @ state.w1,
        sigma_eps2=sigma_eps2,
        covariance=sigma_eps2 * realization.vrf,
    )


def _step_moments(state: EstimatorState, p: float, x: float) -> None:
    """Advance both moment cascades by one sample, in place.

    Uses the O(K) cumulative-sum form of the cascade's triangular state
    matrix: w <- p * cumsum(w) + x for the signal and for its square.
    """
    state.w1 = p * np.cumsum(state.w1) + x
    state.w2 = p * np.cumsum(state.w2) + x * x
    state.n += 1


def _advance_moments(
    realization: FilterRealization,
    xs: np.ndarray,
    sigma0_sq: float,
    state: EstimatorState | None,
):
    """Advance both moment cascades over a non-empty block.

    Returns (w1_block, w2_block, state): the state trajectories, one column
    per sample, and the state after the block.  With state=None the stream
    starts here: the first sample sets the final-value start (its column
    is the start itself, and the sample counter stays at 0) and the rest
    advance the recursions.  A given state is updated in place.
    """
    first, second = realization.first_net, realization.second_net
    if state is None:
        state = new_estimator(realization, float(xs[0]), sigma0_sq)
        w1_block = np.empty((first.order, xs.size))
        w2_block = np.empty((second.order, xs.size))
        w1_block[:, 0] = state.w1
        w2_block[:, 0] = state.w2
        if xs.size > 1:
            w1_block[:, 1:] = run_block(first, xs[1:], state.w1)
            w2_block[:, 1:] = run_block(second, xs[1:] ** 2, state.w2)
        state.n = xs.size - 1
    else:
        w1_block = run_block(first, xs, state.w1)
        w2_block = run_block(second, xs ** 2, state.w2)
        state.n += xs.size
    state.w1 = w1_block[:, -1].copy()
    state.w2 = w2_block[:, -1].copy()
    return w1_block, w2_block, state


def update(state: EstimatorState, realization: FilterRealization, x: float) -> EstimateFrame:
    """Consume one sample, advancing both recursions in place."""
    _step_moments(state, realization.spec.weight.p, x)
    return current_frame(state, realization)


def coefficients(state: EstimatorState, realization: FilterRealization):
    """Current fit coefficients (orthonormal and monomial bases).

    Returns (beta, alpha).  alpha[j] multiplies age**j in the local model,
    age counted in samples behind the newest one, so a rising ramp has a
    negative alpha[1].
    """
    beta = realization.coeff_output @ state.w1
    alpha = realization.transforms.from_orthonormal @ beta
    return beta, alpha


def run_sequence(
    realization: FilterRealization,
    xs: np.ndarray,
    sigma0_sq: float = 0.0,
    state: EstimatorState | None = None,
):
    """Process a block of samples at once; returns (SequenceResult, state).

    With state=None the stream starts here: the first sample initializes
    the recursions and contributes the first frame.  Passing the returned
    state back in continues the stream across blocks with output identical
    to per-sample update() calls.
    """
    xs = np.asarray(xs, dtype=float)
    n_out = realization.spec.n_outputs
    if xs.size == 0:
        empty = SequenceResult(
            estimates=np.empty((n_out, 0)),
            sigma_eps2=np.empty(0),
            variances=np.empty((n_out, 0)),
        )
        return empty, state

    w1_block, w2_block, state = _advance_moments(realization, xs, sigma0_sq, state)
    beta = realization.coeff_output @ w1_block
    power = realization.power_output @ w2_block
    sigma_eps2 = _noise_variance(beta, power, realization.residual_mass)
    estimates = realization.state_output @ w1_block
    variances = sigma_eps2[None, :] * np.diag(realization.vrf)[:, None]
    return SequenceResult(estimates=estimates, sigma_eps2=sigma_eps2, variances=variances), state


class StreamingEstimator:
    """Convenience wrapper owning the state of one stream.

    update() feeds one sample (the first initializes), extend() feeds a
    block through the vectorized path.  Both produce outputs identical to
    the module-level functions they wrap.
    """

    def __init__(self, realization: FilterRealization, sigma0_sq: float = 0.0):
        if sigma0_sq < 0.0:
            raise ValueError(f"sigma0_sq must be nonnegative, got {sigma0_sq}")
        self.realization = realization
        self.sigma0_sq = sigma0_sq
        self.state: EstimatorState | None = None

    def update(self, x: float) -> EstimateFrame:
        if self.state is None:
            self.state = new_estimator(self.realization, float(x), self.sigma0_sq)
            return current_frame(self.state, self.realization)
        return update(self.state, self.realization, float(x))

    def extend(self, xs: np.ndarray) -> SequenceResult:
        result, self.state = run_sequence(
            self.realization, xs, self.sigma0_sq, self.state
        )
        return result

    def coefficients(self):
        if self.state is None:
            raise RuntimeError("no samples consumed yet")
        return coefficients(self.state, self.realization)
