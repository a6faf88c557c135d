"""Online runtime: moment recursions, estimates, live noise variance.

Two integrator cascades run side by side: the first filters the signal and
yields the polynomial fit, the second filters the squared signal and yields
the weighted input power.  Their difference gives a running estimate of the
measurement-noise variance, which scales the design-time noise gain matrix
into a live covariance for every derivative output.

Both cascades run on the input less the stream's first sample x0, so a
large constant offset does not swamp the power recursion with the square
of the level; x0 is added back only where a level is read out.  A NaN or
infinite sample raises ValueError naming its index and leaves the stream's
state as it was; a prior noise variance sigma0_sq that is negative or not
finite raises ValueError too.

The per-sample path runs in Python floats: the state vectors are lists of
floats, one step of a cascade is a running sum, and each readout is a few
multiply-adds over float rows built once per realization.  On vectors of
a handful of states, numpy's per-call overhead costs far more than the
arithmetic.  The block path filters whole arrays and reads them out with
matrix products.  Both paths share one readout helper and one formula for
the estimates and the noise variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

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

    w1: list[float]  # first-moment cascade of x - x0, length kappa + model_order
    w2: list[float]  # second-moment cascade of x - x0, length kappa + 1
    n: int           # index of the newest sample consumed
    x0: float        # the stream's first sample


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
    stream produces flat outputs from the very first sample.  Measured from
    x0, that is zero for the signal cascade and sigma0_sq times the unit
    steady state for the power cascade.
    """
    sigma0_sq = _prior_variance(sigma0_sq)
    return EstimatorState(
        w1=[0.0] * realization.first_net.order,
        w2=(realization.steady_second * sigma0_sq).tolist(),
        n=0,
        x0=_finite(x0, 0),
    )


def _prior_variance(sigma0_sq: float) -> float:
    """sigma0_sq as a float; ValueError unless it is finite and nonnegative.

    A NaN prior would pass a plain `< 0` test and then poison the power
    cascade, and with it sigma_eps2 and every Z, for the rest of the stream.
    """
    sigma0_sq = float(sigma0_sq)
    if not (math.isfinite(sigma0_sq) and sigma0_sq >= 0.0):
        raise ValueError(f"sigma0_sq must be finite and nonnegative, got {sigma0_sq}")
    return sigma0_sq


def _finite(x: float, n: int) -> float:
    """x as a float; ValueError naming sample n if it is NaN or infinite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"sample {n} is not finite: {x!r}")
    return x


def _read(rows, w):
    """The readout rows @ w of cascade states, for a block or one sample.

    For a block, rows is an ndarray and w an ndarray with one state column
    per sample.  For one sample, w is a list of floats and rows are float
    lists: one row, read as a float, or a list of rows, read as a list.
    """
    if isinstance(w, np.ndarray):
        return rows @ w
    if isinstance(rows[0], float):
        return sum(map(mul, rows, w))
    return [sum(map(mul, row, w)) for row in rows]


def _noise_variance(beta, power, residual_mass):
    """Residual power over the effective weight mass, clamped at zero.

    The weighted residual sum is the filtered input power minus the power
    captured by the orthonormal fit coefficients.  Dividing by the
    effective mass (total weight mass minus the fit's leverage) makes the
    estimate unbiased for white noise; finite precision can drive the
    difference slightly negative early on, hence the clamp.

    For one sample beta is a list of floats and power a float, and the
    result is a float; for a block beta has one column per sample and power
    is a vector, and the result is a vector.
    """
    if isinstance(beta, list):
        residual = power - _read(beta, beta)
        return max(residual, 0.0) / residual_mass
    residual = power - np.einsum("ij,ij->j", beta, beta)
    return np.maximum(residual, 0.0) / residual_mass


def _readout(rows, residual_mass, w1, w2, x0):
    """(estimates, sigma_eps2) from the moment states and the output rows.

    rows holds coeff_output, state_output and power_output: the
    realization's arrays for a block, their float lists for one sample.
    """
    sigma_eps2 = _noise_variance(
        _read(rows.coeff_output, w1), _read(rows.power_output, w2), residual_mass
    )
    estimates = _read(rows.state_output, w1)
    estimates[0] += x0
    return estimates, sigma_eps2


def current_frame(state: EstimatorState, realization: FilterRealization) -> EstimateFrame:
    """Frame for the state as it stands, without consuming a sample."""
    estimates, sigma_eps2 = _readout(
        realization._float_rows, realization.residual_mass, state.w1, state.w2, state.x0
    )
    return EstimateFrame(
        n=state.n,
        estimates=np.array(estimates),
        sigma_eps2=sigma_eps2,
        covariance=sigma_eps2 * realization.vrf,
    )


def _step_moments(state: EstimatorState, p: float, x: float) -> None:
    """Advance both moment cascades by one sample, in place.

    Uses the O(K) cumulative-sum form of the cascade's triangular state
    matrix: w <- p * cumsum(w) + d for d = x - x0 and for its square, in
    Python floats.
    """
    d = _finite(x, state.n + 1) - state.x0
    dd = d * d
    state.w1 = [p * s + d for s in accumulate(state.w1)]
    state.w2 = [p * s + dd for s in accumulate(state.w2)]
    state.n += 1


def _start_or_step(realization, state, x, sigma0_sq):
    """Consume one sample and return the state.

    With state=None the stream starts on x; otherwise state advances in
    place.
    """
    if state is None:
        return new_estimator(realization, x, sigma0_sq)
    _step_moments(state, realization.spec.weight.p, x)
    return state


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
    advance the recursions.  A given state is updated in place, unless the
    block holds a NaN or infinite sample, which raises ValueError first.
    """
    start = 0 if state is None else state.n + 1
    finite = np.isfinite(xs)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"sample {start + bad} is not finite: {float(xs[bad])!r}")
    first, second = realization.first_net, realization.second_net
    if state is None:
        state = new_estimator(realization, xs[0], sigma0_sq)
        d = xs[1:] - state.x0
        w1_block = np.empty((first.order, xs.size))
        w2_block = np.empty((second.order, xs.size))
        w1_block[:, 0] = state.w1
        w2_block[:, 0] = state.w2
        if d.size:
            w1_block[:, 1:] = run_block(first, d, state.w1)
            w2_block[:, 1:] = run_block(second, d * d, state.w2)
        state.n = xs.size - 1
    else:
        d = xs - state.x0
        w1_block = run_block(first, d, state.w1)
        w2_block = run_block(second, d * d, state.w2)
        state.n += xs.size
    state.w1 = w1_block[:, -1].tolist()
    state.w2 = w2_block[:, -1].tolist()
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
    from_orthonormal = realization.transforms.from_orthonormal
    beta = np.array(_read(realization._float_rows.coeff_output, state.w1))
    alpha = from_orthonormal @ beta
    # The constant x0 is alpha[0] = x0 in the monomial basis; the basis
    # change is upper triangular, so in the orthonormal one it is beta[0]
    # = x0 / from_orthonormal[0, 0].
    alpha[0] += state.x0
    beta[0] += state.x0 / from_orthonormal[0, 0]
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
    estimates, sigma_eps2 = _readout(
        realization, realization.residual_mass, w1_block, w2_block, state.x0
    )
    variances = sigma_eps2[None, :] * np.diag(realization.vrf)[:, None]
    return SequenceResult(estimates=estimates, sigma_eps2=sigma_eps2, variances=variances), state


class StreamingEstimator:
    """Convenience wrapper owning the state of one stream.

    update() feeds one sample (the first initializes), extend() feeds a
    block through the vectorized path.  Both produce outputs identical to
    the module-level functions they wrap.
    """

    def __init__(self, realization: FilterRealization, sigma0_sq: float = 0.0):
        self.realization = realization
        self.sigma0_sq = _prior_variance(sigma0_sq)
        self.state: EstimatorState | None = None

    def update(self, x: float) -> EstimateFrame:
        self.state = _start_or_step(self.realization, self.state, x, self.sigma0_sq)
        return current_frame(self.state, self.realization)

    def extend(self, xs: np.ndarray) -> SequenceResult:
        result, self.state = run_sequence(
            self.realization, xs, self.sigma0_sq, self.state
        )
        return result

    def coefficients(self):
        if self.state is None:
            raise RuntimeError("no samples consumed yet")
        return coefficients(self.state, self.realization)
