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

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

_LOG_FLOAT_MAX = math.log(2.0) * 1024  # ln of the float range's top, 2**1024
# Rows of the Eulerian triangle whose coefficients all fit a float: 0 .. 171.
_EULERIAN_FLOAT_ROWS = 172

__all__ = [
    "WeightSpec",
    "WeightMoments",
    "DispersionReport",
    "erlang_sum",
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
    From k = _EULERIAN_FLOAT_ROWS on the largest coefficient is past the
    float range, so the series is summed directly instead.  A sum that is
    not a finite float raises OverflowError naming k and p.
    """
    _check_sum_args(k, p)
    k = int(k)
    try:
        if k >= _EULERIAN_FLOAT_ROWS:
            total = _series_sum(k, p)
        else:
            num = 0.0
            for coeff in reversed(_eulerian_row(k)):
                num = num * p + coeff
            total = num / (1.0 - p) ** (k + 1)
    except (OverflowError, ZeroDivisionError):  # a term, the quotient or (1 - p)**(k + 1)
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"erlang sum S_k(p) with k={k}, p={p} overflows the float range")
    return total


def _series_sum(k: int, p: float) -> float:
    """S_k(p) summed term by term in exact integers, rounded once.

    With p = a / d, the partial sum to N terms times d**N is the integer
    T_N = T_{N-1} * d + N**k * a**N.  Terms grow up to m* = k / -ln(p)
    and then fall at least as fast as sqrt(p)**m beyond 2 m*, where the sum
    stops once a term is below 2**-70 of it.  A largest term past the float
    range raises OverflowError before any summing, as does the quotient.
    From k = _EULERIAN_FLOAT_ROWS on, a largest term in range puts the peak
    below 170, so the loop is short.
    """
    log_p = math.log(p)
    peak = max(1, int(k / -log_p))
    if max(k * math.log(m) + m * log_p for m in (peak, peak + 1)) > _LOG_FLOAT_MAX:
        raise OverflowError("a term of the series overflows")
    a, d = p.as_integer_ratio()
    total, a_m, m = 0, 1, 0
    while True:
        m += 1
        a_m *= a
        term = m ** k * a_m
        total = total * d + term
        if m >= 2 * peak and term << 70 < total:
            return total / d ** m


@functools.lru_cache(maxsize=128)
def _eulerian_row(k: int) -> tuple:
    """Row k of the Eulerian triangle, A(k, 0) ... A(k, k), built once per k."""
    row = (1,)
    for n in range(1, k + 1):
        prev = row + (0,)
        row = (0,) + tuple(j * prev[j] + (n - j + 1) * prev[j - 1] for j in range(1, n + 1))
    return row


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
    spread is the root second moment of the pulse magnitude
    |Psi(Omega)| = Gamma(kappa + 1) / (Omega**2 + a**2)**((kappa + 1)/2),
    a = 1/(lambda_w * t_s), about Omega = 0 (the magnitude is even, so the
    first moment vanishes).  Substituting Omega = a*sqrt(u) turns both
    half-line moments into Beta integrals, and their ratio is exact:

        sigma_omega**2 = a**2 * B(3/2, kappa/2 - 1) / B(1/2, kappa/2)
                       = a**2 / (kappa - 2),

    so sigma_omega = 1/(lambda_w * t_s * sqrt(kappa - 2)).
    """
    if not (math.isfinite(t_s) and t_s > 0.0):
        raise ValueError(f"sample period must be finite and positive, got {t_s}")
    sigma_t = math.sqrt(spec.kappa + 1) * spec.lambda_w * t_s
    if spec.kappa < 3:
        return DispersionReport(sigma_t=sigma_t, sigma_omega=None, product=None)
    sigma_omega = 1.0 / (spec.lambda_w * t_s * math.sqrt(spec.kappa - 2))
    return DispersionReport(
        sigma_t=sigma_t,
        sigma_omega=sigma_omega,
        product=sigma_t * sigma_omega,
    )
