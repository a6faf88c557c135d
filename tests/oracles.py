"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
package internals: direct summation, dense per-sample recursions, and
explicit weighted least squares.  Slow but obviously correct.
"""

import math

import numpy as np

from erlangreg import DesignSpec, WeightSpec, build_realization

# Hand-checked impulse-to-weight transform for a 6-stage cascade: row k gives
# the combination of state impulse responses that reproduces the weight
# m**k p**m.  Each entry was verified by symbolic expansion of the binomial
# identity sum_j T[k, j] * C(m + j, j) = m**k.
WEIGHT_TRANSFORM_6 = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0],
        [1, -3, 2, 0, 0, 0],
        [-1, 7, -12, 6, 0, 0],
        [1, -15, 50, -60, 24, 0],
        [-1, 31, -180, 390, -360, 120],
    ],
    dtype=float,
)


def brute_sum(k: int, p: float) -> float:
    """Direct summation of p**m * m**k until the tail is negligible."""
    lam = -1.0 / math.log(p)
    horizon = int(max(200.0 * (k + 1) * lam, 4000.0))
    m = np.arange(horizon, dtype=float)
    return float(np.sum(p**m * m**k))


def dense_states(p: float, order: int, xs) -> np.ndarray:
    """Scalar leaky-integrator chain, one stage feeding the next.

    Stage 0 filters the input, stage k filters stage k-1's fresh output:
    w_k[n] = p w_k[n-1] + w_{k-1}[n].  Returns (order, len(xs)) states.
    """
    xs = np.asarray(xs, dtype=float)
    w = np.zeros(order)
    out = np.empty((order, xs.size))
    for n, x in enumerate(xs):
        feed = x
        for k in range(order):
            w[k] = p * w[k] + feed
            feed = w[k]
        out[:, n] = w
    return out


def batch_wls(xs, kappa: int, p: float, model_order: int, n_outputs: int,
              q: float, ts: float = 1.0) -> np.ndarray:
    """Explicit weighted least squares at the newest sample of xs.

    Fits x[N-1-m] against powers of the age m under the weight m**kappa p**m,
    then differentiates and evaluates the fitted polynomial at age q.
    Truncation at the record length is the only difference from the
    recursive estimator, and it is far below 1e-6 for p <= 0.9 and N >= 400.
    """
    xs = np.asarray(xs, dtype=float)
    ages = np.arange(xs.size, dtype=float)
    weights = ages**kappa * p**ages
    basis = np.vander(ages, model_order, increasing=True)
    sw = np.sqrt(weights)
    alpha, *_ = np.linalg.lstsq(basis * sw[:, None], xs[::-1] * sw, rcond=None)
    out = np.empty(n_outputs)
    for k_t in range(n_outputs):
        total = 0.0
        for k_x in range(k_t, model_order):
            total += math.perm(k_x, k_t) * q ** (k_x - k_t) * alpha[k_x]
        out[k_t] = (-1.0 / ts) ** k_t * total
    return out


def batch_wls_variance(xs, kappa: int, p: float, model_order: int) -> float:
    """Noise-variance estimate from the same explicit fit.

    Weighted residual power divided by the effective residual mass (total
    weight mass minus the trace of the fit's weighted leverage).
    """
    xs = np.asarray(xs, dtype=float)
    ages = np.arange(xs.size, dtype=float)
    weights = ages**kappa * p**ages
    basis = np.vander(ages, model_order, increasing=True)
    sw = np.sqrt(weights)
    a = basis * sw[:, None]
    y = xs[::-1] * sw
    alpha, *_ = np.linalg.lstsq(a, y, rcond=None)
    residual = y - a @ alpha
    gram = a.T @ a
    hat_trace = float(np.trace(np.linalg.solve(gram, a.T @ (a * weights[:, None]))))
    mass = float(weights.sum())
    return float(residual @ residual) / (mass - hat_trace)


def closed_sigma_omega(kappa: int, p: float, ts: float = 1.0) -> float:
    """Frequency spread of the weight magnitude, closed form for kappa > 2."""
    lam = -1.0 / math.log(p)
    return 1.0 / (lam * ts * math.sqrt(kappa - 2))


def numeric_sigma_omega(kappa: int, p: float, ts: float = 1.0) -> float:
    """Frequency spread of the weight magnitude by numeric integration.

    sqrt(m2 / m0), with m_n the integral of Omega**n * |Psi(Omega)| over
    [0, inf) and |Psi(Omega)| = Gamma(kappa + 1) / (Omega**2 + a**2)**((kappa
    + 1)/2), a = 1/(lambda_w * ts).  Each moment is accumulated over octave
    segments [L, 2L], doubling the upper limit until a segment adds less than
    1e-10 of the total and the magnitude has fallen below 1e-12 of its peak:
    one call over the whole range misses the peak at the origin, and the
    kappa = 3 tail of m2 decays only like Omega**-2.  The magnitude is
    evaluated in log space to avoid overflow at large kappa.
    """
    from scipy.integrate import quad

    decay = 1.0 / (-1.0 / math.log(p) * ts)
    log_gamma = math.lgamma(kappa + 1)
    half_power = 0.5 * (kappa + 1)
    # Frequency at which |Psi| drops to 1e-12 of its Omega = 0 peak.
    edge = decay * math.sqrt(max(1e24 ** (1.0 / (kappa + 1)) - 1.0, 1.0))

    def moment(order):
        def integrand(omega):
            return omega**order * math.exp(
                log_gamma - half_power * math.log(omega * omega + decay * decay)
            )

        total = quad(integrand, 0.0, decay, limit=200)[0]
        low = decay
        while low < 1e18 * decay:
            segment = quad(integrand, low, 2.0 * low, limit=200)[0]
            total += segment
            low *= 2.0
            if low >= edge and segment <= 1e-10 * total:
                break
        return total

    return math.sqrt(moment(2) / moment(0))


def build(kappa, p, kx, kt=1, q=None, ts=1.0):
    """Shorthand realization builder for tests."""
    return build_realization(
        DesignSpec(
            weight=WeightSpec(kappa=kappa, p=p),
            model_order=kx,
            n_outputs=kt,
            delay=q,
            sample_period=ts,
        )
    )


# One per-sample step and its readouts in plain floats: explicit loops, each
# sum added left to right from 0.0, no sum() (which compensates its rounding
# on Python >= 3.12).  The package's per-sample path must agree exactly.


def sample_cascade_step(w, p: float, feed: float) -> list:
    """One cascade step: state i becomes p * (w[0] + ... + w[i]) + feed."""
    out = []
    partial = None
    for value in w:
        partial = value if partial is None else partial + value
        out.append(p * partial + feed)
    return out


def sample_dot(row, w) -> float:
    total = 0.0
    for r, v in zip(row, w):
        total += r * v
    return total


def sample_noise_variance(coeff_rows, power_row, residual_mass, w1, w2) -> float:
    """Weighted residual power over the residual mass, clamped at zero."""
    betas = [sample_dot(row, w1) for row in coeff_rows]
    residual = sample_dot(power_row, w2) - sample_dot(betas, betas)
    if residual < 0.0:
        residual = 0.0
    return residual / residual_mass


def sample_frame(real, w1, w2, x0: float):
    """(estimates, sigma_eps2) of the estimator on float-list states."""
    sigma2 = sample_noise_variance(
        real.coeff_output.tolist(), real.power_output.tolist(), real.residual_mass, w1, w2
    )
    estimates = [sample_dot(row, w1) for row in real.state_output.tolist()]
    estimates[0] += x0
    return estimates, sigma2


def _padded(row, length):
    return list(row) + [0.0] * (length - len(row))


def sample_statistic(value_row, filters, stream, w1, w2, floor=1e-15) -> float:
    """Z = value_row @ w1 / sqrt(sum of vrf_ii * noise variance), 0 below floor.

    filters is a list of (realization, output index); each filter's readout
    rows are zero-padded to the cascades of realization stream.
    """
    n1, n2 = stream.spec.n_first_states, stream.spec.n_second_states
    variance = 0.0
    for real, index in filters:
        coeff = [_padded(row, n1) for row in real.coeff_output.tolist()]
        power = _padded(real.power_output.tolist(), n2)
        variance += float(real.vrf[index, index]) * sample_noise_variance(
            coeff, power, real.residual_mass, w1, w2
        )
    if variance < floor:
        return 0.0
    return sample_dot(value_row, w1) / math.sqrt(variance)


def edge_statistic(real, w1, w2) -> float:
    return sample_statistic(real.state_output[1].tolist(), [(real, 1)], real, w1, w2)


def peak_statistic(real, w1, w2) -> float:
    row = [-v for v in real.state_output[2].tolist()]
    return sample_statistic(row, [(real, 2)], real, w1, w2)


def change_statistic(fast, slow, w1, w2) -> float:
    fast_row = _padded(fast.state_output[0].tolist(), slow.spec.n_first_states)
    row = [a - b for a, b in zip(fast_row, slow.state_output[0].tolist())]
    return sample_statistic(row, [(fast, 0), (slow, 0)], slow, w1, w2)
