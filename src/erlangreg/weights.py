"""Erlang weight family: discounted monomial sums, moments, and dispersion.

The weight sequence w[m] = m**kappa * p**m (m = 0, 1, 2, ...) discounts data
m samples old.  p in (0, 1) sets the decay timescale lambda_w = -1/ln(p)
samples; the integer shape kappa delays the weight's centroid away from the
newest sample and makes it more symmetric.  kappa = 0 is plain exponential
fading memory.

Everything downstream (overlap matrices, steady states, noise gains) reduces
to the sums S_k(p) = sum_{m>=0} p**m * m**k, so those sums live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from scipy.integrate import quad

__all__ = [
    "WeightSpec",
    "WeightMoments",
    "DispersionReport",
    "erlang_sum",
    "normalizer",
    "weight_moments",
    "dispersion",
]


def _check_sum_args(k, p):
    if not 0.0 < p < 1.0:
        raise ValueError(f"smoothing parameter must satisfy 0 < p < 1, got {p}")
    if k < 0 or int(k) != k:
        raise ValueError(f"sum order must be a nonnegative integer, got {k}")


def erlang_sum(k: int, p: float) -> float:
    """Evaluate S_k(p) = sum over m >= 0 of p**m * m**k in closed form.

    S_k(p) = A_k(p) / (1 - p)**(k + 1), where coefficient j of the
    polynomial A_k is the Eulerian number A(k, j), built by the recurrence
    A(n, j) = j*A(n-1, j) + (n-j+1)*A(n-1, j-1) from A(0, 0) = 1.  Every
    coefficient is a nonnegative integer and p > 0, so nothing cancels.
    """
    _check_sum_args(k, p)
    k = int(k)
    eulerian = [1]
    for n in range(1, k + 1):
        prev = eulerian + [0]
        eulerian = [0] + [j * prev[j] + (n - j + 1) * prev[j - 1] for j in range(1, n + 1)]
    num = 0.0
    for coeff in reversed(eulerian):
        num = num * p + coeff
    return num / (1.0 - p) ** (k + 1)


def normalizer(k: int, p: float) -> float:
    """Reciprocal sum 1/S_k(p); scales the weight m**k * p**m to unit mass."""
    return 1.0 / erlang_sum(k, p)


@dataclass(frozen=True)
class WeightSpec:
    """Erlang weight parameters with the derived timescale.

    Attributes
    ----------
    kappa : int
        Shape parameter; number of extra cascade stages beyond plain
        exponential decay.
    p : float
        Per-sample decay factor in (0, 1).
    lambda_w : float
        Timescale -1/ln(p) in samples (derived, not an init argument).
    """

    kappa: int
    p: float
    lambda_w: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"smoothing parameter must satisfy 0 < p < 1, got {self.p}")
        if self.kappa < 0 or int(self.kappa) != self.kappa:
            raise ValueError(f"shape parameter must be a nonnegative integer, got {self.kappa}")
        object.__setattr__(self, "kappa", int(self.kappa))
        object.__setattr__(self, "lambda_w", -1.0 / math.log(self.p))


class WeightMoments(NamedTuple):
    mu_w: float    # centroid, samples behind the newest sample
    var_w: float   # variance, samples squared
    skew: float    # dimensionless; 2 for exponential decay, -> 0 as kappa grows


def weight_moments(spec: WeightSpec) -> WeightMoments:
    """Centroid, variance, and skew of the continuous Erlang weight."""
    shape = spec.kappa + 1
    return WeightMoments(
        mu_w=shape * spec.lambda_w,
        var_w=shape * spec.lambda_w ** 2,
        skew=2.0 / math.sqrt(shape),
    )


@dataclass(frozen=True)
class DispersionReport:
    """Time/frequency spread of the weight.

    sigma_omega and product are None for kappa < 3, where the second
    frequency moment of the pulse magnitude diverges.
    """

    sigma_t: float                     # seconds
    sigma_omega: Optional[float]       # radians/second
    product: Optional[float]           # dimensionless, >= 1 when defined


def dispersion(spec: WeightSpec, t_s: float = 1.0) -> DispersionReport:
    """Time and frequency dispersion of the weight at sample period t_s.

    The time spread is sqrt(kappa + 1) * lambda_w * t_s.  The frequency
    spread comes from numeric moments of the pulse magnitude
    |Psi(Omega)| = Gamma(kappa + 1) / (Omega**2 + a**2)**((kappa + 1)/2)
    with a = 1/(lambda_w * t_s); the magnitude is even in Omega, so the
    first moment vanishes and one-sided integrals suffice.
    """
    if t_s <= 0.0:
        raise ValueError(f"sample period must be positive, got {t_s}")
    sigma_t = math.sqrt(spec.kappa + 1) * spec.lambda_w * t_s
    if spec.kappa < 3:
        return DispersionReport(sigma_t=sigma_t, sigma_omega=None, product=None)
    decay = 1.0 / (spec.lambda_w * t_s)
    m0 = _half_line_moment(0, spec.kappa, decay)
    m2 = _half_line_moment(2, spec.kappa, decay)
    sigma_omega = math.sqrt(m2 / m0)
    return DispersionReport(
        sigma_t=sigma_t,
        sigma_omega=sigma_omega,
        product=sigma_t * sigma_omega,
    )


def _half_line_moment(order, kappa, decay):
    """Integrate Omega**order * |Psi(Omega)| over [0, inf) to convergence.

    The integral is accumulated over octave segments [L, 2L], doubling the
    upper limit until a segment adds less than 1e-10 of the total and the
    magnitude has fallen below 1e-12 of its peak.  Integrating the whole
    range in one call misses the origin peak once the limit is large, and
    the kappa = 3 tail decays only like Omega**-2, so the segmented form is
    required for convergence.  The magnitude is evaluated in log space to
    avoid overflow at large kappa.
    """
    log_gamma = math.lgamma(kappa + 1)
    half_power = 0.5 * (kappa + 1)

    def integrand(omega):
        return omega ** order * math.exp(
            log_gamma - half_power * math.log(omega * omega + decay * decay)
        )

    # Frequency at which |Psi| drops to 1e-12 of its Omega = 0 peak.
    edge = decay * math.sqrt(max(1e24 ** (1.0 / (kappa + 1)) - 1.0, 1.0))
    total = quad(integrand, 0.0, decay, limit=200)[0]
    low = decay
    while True:
        segment = quad(integrand, low, 2.0 * low, limit=200)[0]
        total += segment
        low *= 2.0
        if low >= edge and segment <= 1e-10 * total:
            break
        if low > 1e18 * decay:  # safety stop; never reached for kappa >= 3
            break
    return total
