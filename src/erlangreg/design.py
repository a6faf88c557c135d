"""Filter design: overlap matrices, orthonormal transforms, output synthesis.

A design fits a local polynomial of model_order coefficients to the stream
under the Erlang weight, then evaluates the fit and its first n_outputs - 1
derivatives at a point `delay` samples behind the newest sample.  All of
that collapses into a handful of frozen matrices applied to the live
cascade states; building them is the job of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .network import (
    NetworkMatrices,
    build_network,
    impulse_to_weight_transform,
    steady_state_vector,
)
from .weights import WeightSpec, erlang_sum

__all__ = [
    "DesignError",
    "IllConditionedDesignError",
    "DesignSpec",
    "TransformSet",
    "FilterRealization",
    "overlap_matrix",
    "squared_overlap_matrix",
    "orthonormal_transforms",
    "synthesis_matrix",
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
        if self.sample_period <= 0.0:
            raise DesignError(f"sample_period must be positive, got {self.sample_period}")
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


@dataclass(frozen=True)
class TransformSet:
    """Frozen matrices taking cascade states to regression outputs.

    overlap : (model_order, model_order) weighted Gram matrix of monomials.
    to_orthonormal / from_orthonormal : lower/upper triangular basis changes
        between monomial and weight-orthonormal polynomial coefficients.
    synthesis : (n_outputs, model_order) differentiate-and-evaluate matrix.
    coeff_output : (model_order, n_first_states) orthonormal coefficients
        from the first-moment states.
    state_output : (n_outputs, n_first_states) derivative estimates from the
        first-moment states.
    power_output : (n_second_states,) weighted input power from the
        second-moment states.
    """

    overlap: np.ndarray
    to_orthonormal: np.ndarray
    from_orthonormal: np.ndarray
    synthesis: np.ndarray
    coeff_output: np.ndarray
    state_output: np.ndarray
    power_output: np.ndarray


class _FloatRows(NamedTuple):
    """The output matrices as lists of Python floats, for one-sample readouts."""

    coeff_output: list[list[float]]
    state_output: list[list[float]]
    power_output: list[float]


@dataclass(frozen=True)
class FilterRealization:
    """Everything the runtime needs, frozen at design time."""

    spec: DesignSpec                 # delay always resolved (never None)
    first_net: NetworkMatrices       # order kappa + model_order
    second_net: NetworkMatrices      # order kappa + 1
    transforms: TransformSet
    steady_second: np.ndarray        # per-unit-input fixed point of second_net
    residual_mass: float             # divisor of the weighted residual power
    vrf: np.ndarray                  # (n_outputs, n_outputs) noise gain matrix

    @property
    def state_output(self) -> np.ndarray:
        return self.transforms.state_output

    @property
    def coeff_output(self) -> np.ndarray:
        return self.transforms.coeff_output

    @property
    def power_output(self) -> np.ndarray:
        return self.transforms.power_output

    @cached_property
    def _float_rows(self) -> _FloatRows:
        return _FloatRows(
            self.coeff_output.tolist(),
            self.state_output.tolist(),
            self.power_output.tolist(),
        )


def overlap_matrix(spec: DesignSpec) -> np.ndarray:
    """Weighted Gram matrix: entry (a, b) = S_{a + b + kappa}(p)."""
    kappa, p = spec.weight.kappa, spec.weight.p
    n = spec.model_order
    out = np.empty((n, n))
    # Entries depend on a + b only; compute each diagonal sum once.
    sums = [erlang_sum(k + kappa, p) for k in range(2 * n - 1)]
    for a in range(n):
        for b in range(n):
            out[a, b] = sums[a + b]
    return out


def squared_overlap_matrix(spec: DesignSpec) -> np.ndarray:
    """Gram matrix of the weighted monomials with themselves.

    Entry (a, b) = S_{a + b + 2 kappa}(p**2); the weight enters squared, as
    it does wherever white noise passes through the weighted fit.
    """
    kappa, p = spec.weight.kappa, spec.weight.p
    n = spec.model_order
    out = np.empty((n, n))
    sums = [erlang_sum(k + 2 * kappa, p * p) for k in range(2 * n - 1)]
    for a in range(n):
        for b in range(n):
            out[a, b] = sums[a + b]
    return out


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
    returns it as a positive time derivative.
    """
    if spec.delay is None:
        raise DesignError("synthesis matrix needs a resolved delay; got None")
    q, t_s = spec.delay, spec.sample_period
    out = np.zeros((spec.n_outputs, spec.model_order))
    for k_t in range(spec.n_outputs):
        scale = (-1.0 / t_s) ** k_t
        for k_x in range(k_t, spec.model_order):
            out[k_t, k_x] = scale * math.perm(k_x, k_t) * q ** (k_x - k_t)
    return out


def build_realization(spec: DesignSpec) -> FilterRealization:
    """Assemble every runtime matrix for a design.

    Resolves delay=None to the variance-optimal delay, rejects designs whose
    overlap matrix is numerically rank deficient, and attaches the noise
    gain matrix.
    """
    # Deferred import: variance analysis consumes this module's matrices.
    from .variance import optimal_delay, vrf_matrix

    overlap = overlap_matrix(spec)
    cond = np.linalg.cond(overlap)
    if cond > _CONDITION_LIMIT:
        raise IllConditionedDesignError(spec.weight.kappa, spec.weight.p, spec.model_order, cond)

    if spec.delay is None:
        report = optimal_delay(spec)
        spec, vrf = replace(spec, delay=report.q_optimal), report.vrf
    else:
        vrf = vrf_matrix(spec)

    kappa, p = spec.weight.kappa, spec.weight.p
    n_first, n_second = spec.n_first_states, spec.n_second_states

    to_on, from_on = orthonormal_transforms(overlap)
    weight_from_states = impulse_to_weight_transform(n_first)
    # The model's monomials start at the kappa-th weight: select rows
    # kappa .. kappa + model_order - 1 of the weight family.
    selector = np.zeros((spec.model_order, n_first))
    selector[:, kappa:] = np.eye(spec.model_order)
    coeff_output = to_on @ selector @ weight_from_states

    synthesis = synthesis_matrix(spec)
    state_output = synthesis @ from_on @ coeff_output
    power_output = impulse_to_weight_transform(n_second)[-1]

    squared = squared_overlap_matrix(spec)
    # Expected weighted residual power of unit-variance white noise: total
    # weight mass minus the mass the fit absorbs through its leverage.
    residual_mass = erlang_sum(kappa, p) - float(np.trace(to_on @ squared @ to_on.T))

    transforms = TransformSet(
        overlap=overlap,
        to_orthonormal=to_on,
        from_orthonormal=from_on,
        synthesis=synthesis,
        coeff_output=coeff_output,
        state_output=state_output,
        power_output=power_output,
    )
    for matrix in (overlap, to_on, from_on, synthesis, coeff_output, state_output, power_output):
        matrix.flags.writeable = False

    vrf.flags.writeable = False
    steady_second = steady_state_vector(n_second, p)
    steady_second.flags.writeable = False

    return FilterRealization(
        spec=spec,
        first_net=build_network(n_first, p),
        second_net=build_network(n_second, p),
        transforms=transforms,
        steady_second=steady_second,
        residual_mass=residual_mass,
        vrf=vrf,
    )
