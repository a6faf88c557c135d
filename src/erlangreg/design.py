"""Filter design: the Gram pair, noise gains, optimal delay, runtime rows.

A design fits a local polynomial of model_order coefficients to the stream
under the Erlang weight, then evaluates the fit and its first n_outputs - 1
derivatives at a point `delay` samples behind the newest sample.  All of
that collapses into a few frozen readout rows applied to the live cascade
states; building them is the job of this module.

Every design quantity comes from one pair of Gram matrices built from the
sums S_k(p): the overlap G and its squared-weight twin G2.  G is factored
once per design, G = L L**T (Cholesky), and everything is read through that
factor: the readout rows through L**-T, and every noise gain, the delay
polynomial and the residual mass through the whitened squared overlap
W = L**-1 G2 L**-T.  build_realization factors once; so does each call of
the public vrf_matrix and optimal_delay.

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
from typing import NamedTuple, Optional

import numpy as np

from .network import impulse_to_weight_transform, steady_state_vector
from .weights import _EULERIAN_FLOAT_ROWS, WeightSpec, _squared_erlang_sum, erlang_sum

__all__ = [
    "DesignError",
    "IllConditionedDesignError",
    "DesignSpec",
    "FilterRealization",
    "VrfReport",
    "orthonormal_transforms",
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
    basis change into the orthonormal polynomials and the unit-period
    synthesis matrix) are not kept; _gram_pair, orthonormal_transforms and
    _synthesis rebuild them from the spec.

    from_orthonormal : (model_order, model_order) upper triangular basis
        change from weight-orthonormal to monomial coefficients.
    coeff_output : (model_order, n_first_states) orthonormal coefficients
        from the first-moment states.
    state_output : (n_outputs, n_first_states) derivative estimates from the
        first-moment states.
    power_output : (n_second_states,) weighted input power from the
        second-moment states.

    A plain value: it compares and hashes by identity, as its arrays have
    no single truth value, and holds no compiled code; _kernel caches
    compiled kernels by their source text, which holds no number.
    """

    spec: DesignSpec                 # delay always resolved (never None)
    steady_second: np.ndarray        # per-unit-input fixed point of the power cascade
    from_orthonormal: np.ndarray
    coeff_output: np.ndarray
    state_output: np.ndarray
    power_output: np.ndarray
    residual_mass: float             # divisor of the weighted residual power
    vrf: np.ndarray                  # (n_outputs, n_outputs) noise gain matrix


def _hankel(sums: list) -> np.ndarray:
    """(n, n) matrix with entry (a, b) = sums[a + b], from the 2n - 1 sums."""
    n = (len(sums) + 1) // 2
    return np.array(sums)[np.add.outer(np.arange(n), np.arange(n))]


def _gram_pair(spec: DesignSpec):
    """(overlap, squared overlap) of a design: one S_k per distinct entry.

    Overlap entry (a, b) is S_{a + b + kappa}(p), the weighted Gram matrix
    of the monomials in sample age.  The squared overlap has entry
    S_{a + b + 2 kappa}(p**2) (_squared_erlang_sum): the weight enters
    squared, as it does wherever white noise passes through the weighted
    fit.  A sum that is not a finite float, or a p whose square underflows,
    raises DesignError naming kappa, p and model_order.  So does a finite
    sum of order 172 or more: its design has a cascade of at least 87
    stages, whose integer readout transform cancels away every digit of the
    fit.  Range-error
    stage 2 follows: an overlap whose condition number passes
    _CONDITION_LIMIT raises IllConditionedDesignError.
    """
    kappa, p, n = spec.weight.kappa, spec.weight.p, spec.model_order
    top = 2 * (kappa + n - 1)  # the highest order, in the squared overlap
    if p * p == 0.0:
        cause = f"p={p} is so small that its square, the squared weight's decay, underflows to 0"
    else:
        try:
            pair = (_hankel([erlang_sum(k + kappa, p) for k in range(2 * n - 1)]),
                    _hankel([_squared_erlang_sum(k + 2 * kappa, p) for k in range(2 * n - 1)]))
        except OverflowError:
            cause = "its weight sums overflow the float range"
        else:
            if top < _EULERIAN_FLOAT_ROWS:
                cond = _condition(pair[0])
                if cond > _CONDITION_LIMIT:
                    raise IllConditionedDesignError(kappa, p, n, cond)
                return pair
            cause = (f"its weight sums reach order {top}, past {_EULERIAN_FLOAT_ROWS - 1}, "
                     f"where its cascade of {spec.n_first_states} stages cannot read out "
                     f"its fit in floats")
    raise DesignError(f"design rejected: {cause} (kappa={kappa}, p={p}, model_order={n})")


def _condition(matrix: np.ndarray):
    """np.linalg.cond(matrix), read from one singular-value call.

    The ratio of the largest to the smallest singular value, taken with
    every float error ignored; a NaN ratio from a singular matrix reads inf,
    unless the matrix itself holds a NaN.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = s[0] / s[-1]
    if np.isnan(cond) and not np.isnan(matrix).any():
        return np.float64(np.inf)
    return cond


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


class _Factor(NamedTuple):
    """A design's overlap, factored once: every design quantity reads these."""

    mass: float                   # S_kappa(p), the overlap's first entry
    to_orthonormal: np.ndarray    # L**-1
    from_orthonormal: np.ndarray  # L**-T
    whitened: np.ndarray          # W = L**-1 G2 L**-T


def _factor(spec: DesignSpec) -> _Factor:
    """The Gram pair (range-error stages 1 and 2), then the overlap's one factor."""
    overlap, squared = _gram_pair(spec)
    to_on, from_on = orthonormal_transforms(overlap)
    return _Factor(float(overlap[0, 0]), to_on, from_on, to_on @ squared @ from_on)


def _synthesis(spec: DesignSpec) -> np.ndarray:
    """Differentiate-and-evaluate matrix on monomial coefficients, unit period.

    Entry (k_t, k_x) = (-1)**k_t * k_x!/(k_x - k_t)! * delay**(k_x - k_t), k_t <= k_x
    (sample age runs backward in time); a power that overflows raises OverflowError.
    """
    if spec.delay is None:
        raise DesignError("noise gains and readout rows need a resolved delay; got None")
    out = np.zeros((spec.n_outputs, spec.model_order))
    for k_t in range(spec.n_outputs):
        for k_x in range(k_t, spec.model_order):
            out[k_t, k_x] = (-1) ** k_t * math.perm(k_x, k_t) * spec.delay ** (k_x - k_t)
    return out


def _period_scale(spec: DesignSpec, k: int, gain: float, reach: float = 0.0) -> float:
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


def _gains(spec: DesignSpec, factor: _Factor, pinned: bool, coeff_output=None):
    """(rows, vrf) at spec's resolved delay, from A = synthesis @ from_orthonormal.

    vrf = A W A**T; rows = A @ coeff_output, or A itself without coeff_output.
    Unit period first: the delay is named unless vrf and rows are finite and
    every output's gain is a positive normal float (one that underflows reads
    0 forever).  Period last: row k is scaled by s_k, vrf entry (a, b) by s_a s_b.
    """
    try:
        rows = _synthesis(spec)
        # The products of the delay's powers: a far delay overflows them.
        with np.errstate(over="ignore", invalid="ignore"):
            rows = rows @ factor.from_orthonormal
            vrf = rows @ factor.whitened @ rows.T
            if coeff_output is not None:
                rows = rows @ coeff_output
    except OverflowError:
        vrf = None
    if not (vrf is not None and np.isfinite(vrf).all() and np.isfinite(rows).all()
            and (vrf.diagonal() >= sys.float_info.min).all()):
        raise _delay_error(spec, pinned)
    # A unit scale is exact; skipping its small-array products keeps a
    # unit-period build as fast as when the period entered the synthesis.
    if spec.sample_period == 1.0:
        return rows, vrf
    # The scales and their range checks in Python floats, which spares
    # numpy's per-call cost on these tiny arrays; then three products.
    gains = vrf.diagonal().tolist()
    scales = [_period_scale(spec, k, gains[k], max(map(abs, row)))
              for k, row in enumerate(rows.tolist())]
    column = np.array(scales)[:, None]
    return rows * column, column * vrf * column.T


def _delay_polynomial(spec: DesignSpec, factor: _Factor, output: int) -> list:
    """Ascending coefficients of output's diagonal noise gain in the delay, as floats.

    The gain is s core s**T over output's synthesis row s, whose entries are
    powers of the delay, with core = G**-1 G2 G**-1 = L**-T W L**-1.
    """
    if not 0 <= output < spec.model_order:
        raise ValueError(f"output must be in [0, {spec.model_order}), got {output}")
    core = (factor.from_orthonormal @ factor.whitened @ factor.to_orthonormal).tolist()
    coeffs = [0.0] * (2 * (spec.model_order - 1 - output) + 1)
    for i in range(output, spec.model_order):
        for j in range(output, spec.model_order):
            weight = math.perm(i, output) * math.perm(j, output)
            coeffs[i + j - 2 * output] += weight * core[i][j]
    # The square of output's scale moves no root, but names a period that
    # takes these coefficients out of the float range.
    scale = _period_scale(spec, output, max(map(abs, coeffs)))
    return [c * scale * scale for c in coeffs]


def _optimal_delay(spec: DesignSpec, factor: _Factor, output: int):
    """(q_best, candidates): the least-delay minimum of output's noise gain.

    candidates lists (delay, gain) at every real stationary point; it is
    empty when the gain does not depend on the delay, and q_best is then
    the weight centroid S_{kappa+1}(p) / S_kappa(p): the DC group delay of
    the model_order 1 smoother that the weight realizes.  The derivatives
    and values are taken in Python floats, with the products and sums that
    numpy's array products and np.polyval make.
    """
    coeffs = _delay_polynomial(spec, factor, output)
    if len(coeffs) == 1:
        return erlang_sum(spec.weight.kappa + 1, spec.weight.p) / factor.mass, []
    derivative = [k * c for k, c in enumerate(coeffs)][1:]
    curvature = [k * c for k, c in enumerate(derivative)][1:]
    real_roots = _real_roots(derivative)
    candidates = [(q, _horner(coeffs, q)) for q in real_roots]
    minima = [q for q in real_roots if _horner(curvature, q) > 0.0]
    return min(minima), candidates


def _real_roots(coeffs: list) -> list:
    """Sorted real roots of the ascending coefficients, as np.roots finds them.

    A line d0 + d1 q has the one root -d0 / d1, the entry of np.roots' 1x1
    companion matrix.  LAPACK returns that entry as its eigenvalue unless it
    rescales the matrix, which it does outside about [1e-138, 1e138], so the
    quotient is taken only inside [1e-100, 1e100].  Any other polynomial or
    root goes through np.roots.
    """
    if len(coeffs) == 2 and coeffs[1] != 0.0:
        root = -coeffs[0] / coeffs[1]
        if 1e-100 <= abs(root) <= 1e100:
            return [root]
    roots = np.roots(coeffs[::-1])
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8)


def _horner(coeffs: list, x: float) -> float:
    """np.polyval of the ascending coefficients at x: the same Horner steps from 0.0."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * x + c
    return value


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
    return _gains(spec, _factor(spec), pinned=True)[1]


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
    factor = _factor(spec)
    q_best, candidates = _optimal_delay(spec, factor, output)
    vrf = _gains(replace(spec, delay=q_best), factor, pinned=False)[1]
    return VrfReport(vrf=vrf, q_optimal=q_best, candidates=candidates)


def build_realization(spec: DesignSpec) -> FilterRealization:
    """Assemble every runtime matrix for a design.

    Resolves delay=None to the variance-optimal delay, rejects designs whose
    overlap matrix is numerically rank deficient, and attaches the noise
    gain matrix.  A range error names the first stage that fails: weight
    sums, conditioning, the delay at a unit sample period, then the sample
    period's scale.
    """
    factor = _factor(spec)
    pinned = spec.delay is not None
    if not pinned:
        spec = replace(spec, delay=_optimal_delay(spec, factor, 0)[0])

    kappa, p = spec.weight.kappa, spec.weight.p
    n_first, n_second = spec.n_first_states, spec.n_second_states

    weight_from_states = impulse_to_weight_transform(n_first)
    # The model's monomials start at the kappa-th weight: select rows
    # kappa .. kappa + model_order - 1 of the weight family.
    selector = np.zeros((spec.model_order, n_first))
    selector[:, kappa:] = np.eye(spec.model_order)
    coeff_output = factor.to_orthonormal @ selector @ weight_from_states
    state_output, vrf = _gains(spec, factor, pinned, coeff_output)
    power_output = impulse_to_weight_transform(n_second)[-1]

    # Expected weighted residual power of unit-variance white noise: total
    # weight mass S_kappa(p) minus the mass the fit absorbs through its
    # leverage, trace(G**-1 G2) = trace W.  Finite once the weight sums are:
    # the weight squared is at most the weight times its peak, so the
    # leverage mass lies between 0 and model_order times that peak.
    residual_mass = factor.mass - float(np.trace(factor.whitened))

    arrays = dict(
        steady_second=steady_state_vector(n_second, p),
        from_orthonormal=factor.from_orthonormal,
        coeff_output=coeff_output,
        state_output=state_output,
        power_output=power_output,
    )
    for matrix in (*arrays.values(), vrf):
        matrix.flags.writeable = False
    return FilterRealization(spec=spec, residual_mass=residual_mass, vrf=vrf, **arrays)
