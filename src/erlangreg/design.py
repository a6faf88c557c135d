"""Filter design: the Gram pair, noise gains, optimal delay, runtime rows.

A design fits a local polynomial of model_order coefficients to the stream
under the Erlang weight, then evaluates the fit and its first n_outputs - 1
derivatives at a point `delay` samples behind the newest sample.  All of
that collapses into a few frozen readout rows applied to the live cascade
states; building them is the job of this module.

Every design quantity comes from one pair of Gram matrices built from the
sums S_k(p): the overlap G and its squared-weight twin G2.  The noise-gain
helpers here read that pair, so build_realization makes it once; the public
vrf_matrix and optimal_delay build it per call.

The VRF (variance reduction factor) of an output is the ratio of its
steady-state noise variance to the input white-noise variance, the sum of
its squared impulse-response samples.  For these filters it has a closed
form in the Gram pair.

Every design is built at a unit sample period, and the period is applied
once, last: output k's rows are multiplied by (1/sample_period)**k and its
noise gains by the square, which moves no optimal delay.  A design that
leaves the float range is named by the first stage that fails: (1) its
weight sums and (2) the overlap's conditioning (_gram_pair), (3) the delay,
when the synthesis, noise gains or readout rows leave the float range at a
unit period (_delay_error), and (4) the sample period, when only its scale
takes them out (_period_scale).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .network import impulse_to_weight_transform, steady_state_vector
from .weights import _EULERIAN_FLOAT_ROWS, WeightSpec, erlang_sum

__all__ = [
    "DesignError",
    "IllConditionedDesignError",
    "DesignSpec",
    "FilterRealization",
    "VrfReport",
    "orthonormal_transforms",
    "synthesis_matrix",
    "vrf_matrix",
    "optimal_delay",
    "build_realization",
]

_CONDITION_LIMIT = 1e12


class DesignError(ValueError):
    """Invalid or numerically unusable filter design."""


class IllConditionedDesignError(DesignError):
    """Overlap matrix too ill-conditioned to factor reliably."""

    def __init__(self, kappa, p, model_order, cond):
        self.kappa = kappa
        self.p = p
        self.model_order = model_order
        self.cond = cond
        super().__init__(
            f"design rejected: overlap matrix condition {cond:.3g} exceeds "
            f"{_CONDITION_LIMIT:.0e} (kappa={kappa}, p={p}, model_order={model_order})"
        )


@dataclass(frozen=True)
class DesignSpec:
    """Complete filter parameterization.

    Attributes
    ----------
    weight : WeightSpec
        Error-weight shape and decay.
    model_order : int
        Number of polynomial coefficients fitted (degree + 1).
    n_outputs : int
        Derivative outputs emitted; 1 means the smoothed value only.
    delay : float or None
        Evaluation point in samples behind the newest sample; negative
        values predict ahead.  None defers to the variance-optimal delay
        at build time.
    sample_period : float
        Seconds per sample; scales the derivative outputs.
    """

    weight: WeightSpec
    model_order: int
    n_outputs: int = 1
    delay: Optional[float] = None
    sample_period: float = 1.0

    def __post_init__(self):
        if self.model_order < 1 or int(self.model_order) != self.model_order:
            raise DesignError(f"model_order must be a positive integer, got {self.model_order}")
        if not 1 <= self.n_outputs <= self.model_order:
            raise DesignError(
                f"n_outputs must satisfy 1 <= n_outputs <= model_order, "
                f"got {self.n_outputs} with model_order {self.model_order}"
            )
        if not (math.isfinite(self.sample_period) and self.sample_period > 0.0):
            raise DesignError(
                f"sample_period must be finite and positive, got {self.sample_period}"
            )
        if self.delay is not None and not math.isfinite(self.delay):
            raise DesignError(f"delay must be finite, got {self.delay}")

    @property
    def n_first_states(self) -> int:
        """Cascade order of the signal-moment recursion."""
        return self.weight.kappa + self.model_order

    @property
    def n_second_states(self) -> int:
        """Cascade order of the power-moment recursion."""
        return self.weight.kappa + 1


@dataclass(frozen=True, eq=False)
class FilterRealization:
    """Everything the runtime needs, frozen at design time.

    The cascades are fixed by the spec: spec.n_first_states stages of decay
    spec.weight.p for the signal moments, spec.n_second_states for the power.
    The design-time matrices that only build these rows (the Gram pair, the
    basis change into the orthonormal polynomials and the synthesis matrix)
    are not kept; _gram_pair, orthonormal_transforms and synthesis_matrix
    rebuild them from the spec.

    from_orthonormal : (model_order, model_order) upper triangular basis
        change from weight-orthonormal to monomial coefficients.
    coeff_output : (model_order, n_first_states) orthonormal coefficients
        from the first-moment states.
    state_output : (n_outputs, n_first_states) derivative estimates from the
        first-moment states.
    power_output : (n_second_states,) weighted input power from the
        second-moment states.

    A plain value: it compares and hashes by identity, as its arrays have
    no single truth value, and holds no compiled code; _kernel caches the
    estimator's kernel per realization.
    """

    spec: DesignSpec                 # delay always resolved (never None)
    steady_second: np.ndarray        # per-unit-input fixed point of the power cascade
    from_orthonormal: np.ndarray
    coeff_output: np.ndarray
    state_output: np.ndarray
    power_output: np.ndarray
    residual_mass: float             # divisor of the weighted residual power
    vrf: np.ndarray                  # (n_outputs, n_outputs) noise gain matrix


def _hankel(kappa: int, p: float, n: int) -> np.ndarray:
    """(n, n) matrix with entry (a, b) = S_{a + b + kappa}(p).

    Entries depend on a + b only, so each of the 2n - 1 sums is taken once.
    """
    sums = np.array([erlang_sum(k + kappa, p) for k in range(2 * n - 1)])
    return sums[np.add.outer(np.arange(n), np.arange(n))]


def _gram_pair(spec: DesignSpec):
    """(overlap, squared overlap) of a design: one S_k per distinct entry.

    Overlap entry (a, b) is S_{a + b + kappa}(p), the weighted Gram matrix
    of the monomials in sample age.  The squared overlap has entry
    S_{a + b + 2 kappa}(p**2): the weight enters squared, as it does
    wherever white noise passes through the weighted fit.  A sum that is
    not a finite float, or a p whose square underflows, raises DesignError
    naming kappa, p and model_order.  So does a finite sum of order 172 or
    more: its design has a cascade of at least 87 stages, whose integer
    readout transform cancels away every digit of the fit.  Range-error
    stage 2 follows: an overlap whose condition number passes
    _CONDITION_LIMIT raises IllConditionedDesignError.
    """
    kappa, p, n = spec.weight.kappa, spec.weight.p, spec.model_order
    top = 2 * (kappa + n - 1)  # the highest order, in the squared overlap
    if p * p == 0.0:
        cause = f"p={p} is so small that its square, the squared weight's decay, underflows to 0"
    else:
        try:
            pair = _hankel(kappa, p, n), _hankel(2 * kappa, p * p, n)
        except OverflowError:
            cause = "its weight sums overflow the float range"
        else:
            if top < _EULERIAN_FLOAT_ROWS:
                cond = np.linalg.cond(pair[0])
                if cond > _CONDITION_LIMIT:
                    raise IllConditionedDesignError(kappa, p, n, cond)
                return pair
            cause = (f"its weight sums reach order {top}, past {_EULERIAN_FLOAT_ROWS - 1}, "
                     f"where its cascade of {spec.n_first_states} stages cannot read out "
                     f"its fit in floats")
    raise DesignError(f"design rejected: {cause} (kappa={kappa}, p={p}, model_order={n})")


def orthonormal_transforms(overlap: np.ndarray):
    """Triangular basis changes from the Cholesky factor of the overlap.

    Returns (to_orthonormal, from_orthonormal) with to_orthonormal = L**-1
    (lower) and from_orthonormal = L**-T (upper), so that
    to_orthonormal @ overlap @ to_orthonormal.T is the identity.  L**-1
    comes from one forward substitution, row by row, and L**-T is its
    transpose; the factor is at most model_order square, so a LAPACK call
    buys nothing.  Scaling each row by the reciprocal pivot, as optimized
    BLAS triangular solves do, reproduces their L**-1 on most designs bit
    for bit.
    """
    overlap = np.asarray(overlap, dtype=float)
    try:
        lower = np.linalg.cholesky(overlap)
    except np.linalg.LinAlgError as exc:
        raise DesignError(
            f"overlap matrix is not positive definite "
            f"(condition estimate {np.linalg.cond(overlap):.3g}); "
            f"reduce model_order or move p away from 1"
        ) from exc
    eye = np.eye(overlap.shape[0])
    to_orthonormal = np.zeros_like(lower)
    for i in range(lower.shape[0]):
        to_orthonormal[i] = (eye[i] - lower[i, :i] @ to_orthonormal[:i]) * (1.0 / lower[i, i])
    return to_orthonormal, to_orthonormal.T


def synthesis_matrix(spec: DesignSpec) -> np.ndarray:
    """Differentiate-and-evaluate matrix applied to monomial coefficients.

    Entry (k_t, k_x) = (-1/sample_period)**k_t * k_x!/(k_x - k_t)! *
    delay**(k_x - k_t) for k_t <= k_x, else zero.  The sign flip per
    derivative accounts for the model's age axis running backward in time:
    a rising ramp has a negative slope against sample age, and this matrix
    returns it as a positive time derivative.  Built at a unit period, then
    scaled: a delay whose powers overflow raises the delay's DesignError,
    then a period whose scale takes a row out of range the period's.
    """
    try:
        rows = _synthesis(spec)
    except OverflowError:
        raise _delay_error(spec, pinned=True) from None
    reach = np.abs(rows).max(axis=1).tolist()
    return rows * np.array([[_period_scale(spec, k, reach=r)] for k, r in enumerate(reach)])


def _synthesis(spec: DesignSpec) -> np.ndarray:
    """synthesis_matrix at a unit period; a power that overflows raises OverflowError."""
    if spec.delay is None:
        raise DesignError("synthesis matrix needs a resolved delay; got None")
    out = np.zeros((spec.n_outputs, spec.model_order))
    for k_t in range(spec.n_outputs):
        for k_x in range(k_t, spec.model_order):
            out[k_t, k_x] = (-1) ** k_t * math.perm(k_x, k_t) * spec.delay ** (k_x - k_t)
    return out


def _period_scale(spec: DesignSpec, k: int, gain: float = 1.0, reach: float = 0.0) -> float:
    """(1/sample_period)**k: output k's rows carry it, its noise gain its square.

    Range-error stage 4, the last: DesignError names the sample period unless
    gain * scale * scale is a positive normal float and reach * scale finite
    (gain: a unit-period gain of output k; reach: its rows' largest entry).
    """
    t_s = spec.sample_period
    try:
        scale = (1.0 / t_s) ** k
    except OverflowError:
        scale = math.inf
    if sys.float_info.min <= gain * scale * scale < math.inf and reach * scale < math.inf:
        return scale
    way, fix = ("overflows", "longer") if t_s < 1.0 else ("underflows", "shorter")
    raise DesignError(f"sample period {t_s!r} {way} the design: output k carries "
                      f"(1/sample_period)**k, which takes a noise gain or readout row out of "
                      f"the float range; use a {fix} sample period or fewer outputs")


def _delay_error(spec: DesignSpec, pinned: bool) -> DesignError:
    """Range-error stage 3, before the period's: at a unit sample period the
    delay takes the synthesis, noise gains or readout rows out of the float
    range.  Only a delay the caller pinned gets the advice to pin a smaller one.
    """
    advice = "; pin a delay of smaller magnitude" if pinned else ""
    return DesignError(f"delay {spec.delay!r} overflows the design: its synthesis, noise "
                       f"gains or readout rows are not finite{advice}")


def _gains(spec: DesignSpec, overlap, squared, pinned: bool, *readout):
    """(rows, vrf) at spec's resolved delay: rows = synthesis @ each readout.

    Unit period first: the delay is named unless vrf and rows are finite and
    every output's gain is a positive normal float (one that underflows reads
    0 forever).  Period last: row k is scaled by s_k, vrf entry (a, b) by s_a s_b.
    """
    try:
        rows = _synthesis(spec)
        # The products of the delay's powers: a far delay overflows them.
        with np.errstate(over="ignore", invalid="ignore"):
            # Rows of the per-state output map: synthesis @ overlap**-1.
            state_rows = np.linalg.solve(overlap, rows.T).T
            vrf = state_rows @ squared @ state_rows.T
            for matrix in readout:
                rows = rows @ matrix
    except OverflowError:
        vrf = None
    if not (vrf is not None and np.isfinite(vrf).all() and np.isfinite(rows).all()
            and (vrf.diagonal() >= sys.float_info.min).all()):
        raise _delay_error(spec, pinned)
    # A unit scale is exact; skipping its small-array products keeps a
    # unit-period build as fast as when the period entered the synthesis.
    if spec.sample_period == 1.0:
        return rows, vrf
    limits = zip(vrf.diagonal().tolist(), np.abs(rows).max(axis=1).tolist())
    scales = np.array([_period_scale(spec, k, *limit) for k, limit in enumerate(limits)])
    return rows * scales[:, None], scales[:, None] * vrf * scales


def _delay_polynomial(spec: DesignSpec, overlap, squared, output: int) -> np.ndarray:
    """Ascending coefficients of output's diagonal noise gain in the delay."""
    if not 0 <= output < spec.model_order:
        raise ValueError(f"output must be in [0, {spec.model_order}), got {output}")
    inv = np.linalg.solve(overlap, np.eye(spec.model_order))
    core = inv @ squared @ inv.T
    degree = 2 * (spec.model_order - 1 - output)
    coeffs = np.zeros(degree + 1)
    for i in range(output, spec.model_order):
        for j in range(output, spec.model_order):
            weight = math.perm(i, output) * math.perm(j, output)
            coeffs[i + j - 2 * output] += weight * core[i, j]
    # The square of output's scale moves no root, but names a period that
    # takes these coefficients out of the float range.
    scale = _period_scale(spec, output, max(map(abs, coeffs.tolist())))
    return coeffs * scale * scale


def _optimal_delay(spec: DesignSpec, overlap, squared, output: int):
    """(q_best, candidates): the least-delay minimum of output's noise gain.

    candidates lists (delay, gain) at every real stationary point; it is
    empty when the gain does not depend on the delay, and q_best is then
    the weight centroid S_{kappa+1}(p) / S_kappa(p): the DC group delay of
    the model_order 1 smoother that the weight realizes.
    """
    coeffs = _delay_polynomial(spec, overlap, squared, output)
    if len(coeffs) == 1:
        kappa, p = spec.weight.kappa, spec.weight.p
        return erlang_sum(kappa + 1, p) / float(overlap[0, 0]), []
    derivative = coeffs[1:] * np.arange(1, len(coeffs))
    roots = np.roots(derivative[::-1])
    real_roots = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8)
    candidates = [(q, float(np.polyval(coeffs[::-1], q))) for q in real_roots]
    curvature = derivative[1:] * np.arange(1, len(derivative))
    minima = [q for q in real_roots if np.polyval(curvature[::-1], q) > 0.0]
    return min(minima), candidates


@dataclass(frozen=True, eq=False)
class VrfReport:
    """Noise gains at the chosen delay plus the stationary-delay survey."""

    vrf: np.ndarray                       # (n_outputs, n_outputs) at q_optimal
    q_optimal: float                      # samples
    candidates: list                      # (delay, objective value) per stationary point


def vrf_matrix(spec: DesignSpec) -> np.ndarray:
    """Closed-form noise gain matrix of a design with a resolved delay.

    Output covariance of unit white noise equals this matrix; entry (a, b)
    is the covariance between derivative outputs a and b.  A delay or
    sample period whose gains would not be finite raises DesignError; weight
    sums and conditioning are checked first, as build_realization does.
    """
    return _gains(spec, *_gram_pair(spec), pinned=True)[1]


def optimal_delay(spec: DesignSpec, output: int = 0) -> VrfReport:
    """Pick the delay minimizing the output's noise gain.

    Differentiates the delay polynomial, takes its real roots, classifies
    each stationary point by the sign of the exact second derivative, and
    returns the minimum with the least delay.  When the gain is
    delay-independent (model_order of 1, or the highest derivative) the
    weight centroid is reported and the candidate list is empty.  As in
    build_realization, weight sums out of range and a sample period whose
    gains would not be finite raise DesignError, and an ill-conditioned
    overlap IllConditionedDesignError.
    """
    overlap, squared = _gram_pair(spec)
    q_best, candidates = _optimal_delay(spec, overlap, squared, output)
    vrf = _gains(replace(spec, delay=q_best), overlap, squared, pinned=False)[1]
    return VrfReport(vrf=vrf, q_optimal=q_best, candidates=candidates)


def build_realization(spec: DesignSpec) -> FilterRealization:
    """Assemble every runtime matrix for a design.

    Resolves delay=None to the variance-optimal delay, rejects designs whose
    overlap matrix is numerically rank deficient, and attaches the noise
    gain matrix.  A range error names the first stage that fails: weight
    sums, conditioning, the delay at a unit sample period, then the sample
    period's scale.
    """
    overlap, squared = _gram_pair(spec)
    pinned = spec.delay is not None
    if not pinned:
        spec = replace(spec, delay=_optimal_delay(spec, overlap, squared, 0)[0])

    kappa, p = spec.weight.kappa, spec.weight.p
    n_first, n_second = spec.n_first_states, spec.n_second_states

    to_on, from_on = orthonormal_transforms(overlap)
    weight_from_states = impulse_to_weight_transform(n_first)
    # The model's monomials start at the kappa-th weight: select rows
    # kappa .. kappa + model_order - 1 of the weight family.
    selector = np.zeros((spec.model_order, n_first))
    selector[:, kappa:] = np.eye(spec.model_order)
    coeff_output = to_on @ selector @ weight_from_states
    state_output, vrf = _gains(spec, overlap, squared, pinned, from_on, coeff_output)
    power_output = impulse_to_weight_transform(n_second)[-1]

    # Expected weighted residual power of unit-variance white noise: total
    # weight mass S_kappa(p) = overlap[0, 0] minus the mass the fit absorbs
    # through its leverage.  Finite once the weight sums are: the weight
    # squared is at most the weight times its peak, so the leverage mass
    # lies between 0 and model_order times that peak.
    residual_mass = float(overlap[0, 0]) - float(np.trace(to_on @ squared @ to_on.T))

    arrays = dict(
        steady_second=steady_state_vector(n_second, p),
        from_orthonormal=from_on,
        coeff_output=coeff_output,
        state_output=state_output,
        power_output=power_output,
    )
    for matrix in (*arrays.values(), vrf):
        matrix.flags.writeable = False
    return FilterRealization(spec=spec, residual_mass=residual_mass, vrf=vrf, **arrays)
