"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
package internals: direct summation, dense per-sample recursions, and
explicit weighted least squares.  Slow but obviously correct.
"""

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import erlangreg
from erlangreg import DesignSpec, WeightSpec, build_realization, run_block

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


def vrf_by_parseval(realization, k_a: int = 0, k_b: int = 0, horizon: int | None = None) -> float:
    """Noise gain as the sum of h_a[m] * h_b[m] over the explicit impulse response.

    Shares nothing with the closed-form VRF: the impulse runs through the
    package's cascade (checked against dense_states in test_network.py) and
    the realization's state_output rows read it out.  The horizon is
    adaptive: blocks double in length until the last block contributes less
    than 1e-12 of the accumulated sum.  An explicit horizon overrides that.
    Raises if 1e6 samples do not converge.
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
        contribution = float((row_a @ states) @ (row_b @ states))
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
        f"(p={p}); the tail decays too slowly"
    )


def fading_memory_vrf(theta: float, model_order: int, delay: int, output: int) -> float:
    """Published noise gain of the fading-memory polynomial filter.

    A kappa 0 design weights its past by theta**m, theta = p: Morrison's
    fading-memory polynomial filter (Introduction to Sequential Smoothing
    and Prediction, 1969).  These are his closed forms for the diagonal
    noise gain of output `output` (0 the level, 1 the velocity per sample)
    of the degree model_order - 1 filter, read at delay 0 (filtering) or
    -1 (one-step prediction); they share no step with the design's
    derivation.  The two level formulas of model order 2 differ, so each
    belongs to its delay.
    """
    t = theta
    return {
        (1, 0, 0): (1 - t) / (1 + t),
        (2, 0, 0): (1 - t) * (1 + 4 * t + 5 * t * t) / (1 + t) ** 3,
        (2, -1, 0): (1 - t) * (5 + 4 * t + t * t) / (1 + t) ** 3,
        (2, 0, 1): 2 * (1 - t) ** 3 / (1 + t) ** 3,
        (2, -1, 1): 2 * (1 - t) ** 3 / (1 + t) ** 3,
    }[model_order, delay, output]


def _exact_solve(matrix, rhs):
    """matrix**-1 @ rhs for lists of Fraction rows, by Gauss-Jordan elimination."""
    size = len(matrix)
    rows = [[*map(Fraction, a), *map(Fraction, b)] for a, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def _exact_product(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def _transpose(rows):
    return [list(column) for column in zip(*rows)]


def exact_sums(p: Fraction, top: int) -> list:
    """S_0(p) .. S_top(p) as Fractions, S_k(p) = sum over m >= 0 of m**k p**m.

    Shifting the sum by one sample, S_k = p sum over m >= 0 of (m + 1)**k
    p**m = p sum_{j <= k} C(k, j) S_j, so S_0 = 1/(1 - p) and
    S_k = p/(1 - p) sum_{j < k} C(k, j) S_j.
    """
    sums = [1 / (1 - p)]
    for k in range(1, top + 1):
        sums.append(p / (1 - p) * sum(math.comb(k, j) * sums[j] for j in range(k)))
    return sums


def exact_design(real) -> dict:
    """A realization's design quantities in exact rational arithmetic.

    Every float is a dyadic rational, so at the float p, delay and sample
    period of real.spec the weight sums S_k(p), the Gram pair (overlap and
    squared overlap), the readout rows state_output = synthesis G**-1 T,
    the noise gains vrf = (synthesis G**-1) G2 (synthesis G**-1)**T, their
    delay-free core G**-1 G2 G**-1 and
    residual_mass = S_kappa(p) - trace(G**-1 G2) are exact Fractions.  T,
    rows kappa .. kappa + model_order - 1 of the impulse-to-weight
    transform, is solved from its defining identity sum_j T[k, j]
    C(m + j, j) = m**k at m = 0 .. order - 1, not taken from the package.
    Returns those quantities by name, as lists of Fraction rows.
    """
    spec = real.spec
    kappa, n, outputs = spec.weight.kappa, spec.model_order, spec.n_outputs
    p, q = Fraction(spec.weight.p), Fraction(spec.delay)
    scale = 1 / Fraction(spec.sample_period)
    sums = exact_sums(p, 2 * (n - 1) + kappa)
    overlap = [[sums[a + b + kappa] for b in range(n)] for a in range(n)]
    squared_sums = exact_sums(p * p, 2 * (n - 1 + kappa))
    squared = [[squared_sums[a + b + 2 * kappa] for b in range(n)] for a in range(n)]
    order = kappa + n
    transform_t = _exact_solve([[math.comb(m + j, j) for j in range(order)] for m in range(order)],
                               [[m ** k for k in range(order)] for m in range(order)])
    transform = _transpose(transform_t)[kappa:]
    synthesis = [[(-1) ** k * math.perm(j, k) * q ** (j - k) * scale ** k if j >= k else 0
                  for j in range(n)] for k in range(outputs)]
    # synthesis G**-1, transposed: G is symmetric.
    gain_rows = _transpose(_exact_solve(overlap, _transpose(synthesis)))
    leverage = _exact_solve(overlap, squared)
    return {
        "sums": sums,
        "overlap": overlap,
        "squared": squared,
        "state_output": _exact_product(gain_rows, transform),
        "vrf": _exact_product(_exact_product(gain_rows, squared), _transpose(gain_rows)),
        "residual_mass": sums[kappa] - sum(leverage[i][i] for i in range(n)),
        # G**-1 (G**-1 G2)**T = G**-1 G2 G**-1: G and G2 are symmetric.
        "core": _exact_solve(overlap, _transpose(leverage)),
    }


def _exact_cascade_step(w, p: Fraction, feed: Fraction) -> list:
    """One cascade step in Fractions: state i becomes p (w[0] + ... + w[i]) + feed."""
    out = []
    partial = 0
    for value in w:
        partial += value
        out.append(p * partial + feed)
    return out


def _exact_dot(row, w) -> Fraction:
    return sum((r * v for r, v in zip(row, w)), Fraction(0))


def exact_run(real, xs, sigma0_sq: float = 0.0):
    """The estimator's run of xs in exact rational arithmetic.

    Both moment cascades run in Fractions at the float p from the
    final-value start: x0 = xs[0], the signal cascade at zero and the power
    cascade at sigma0_sq times steady_second, each sample after the first
    feeding x - x0 and its square.  The realization's float rows are read
    exactly, so what is left is the float run's own rounding.  Returns
    (estimates, sigma_eps2): per sample, the list of state_output readouts
    with x0 added back to the level, and the noise variance, its residual
    power clamped at zero, both as Fractions.  The integers grow by about
    53 bits per sample and stage, so keep xs to a few hundred samples.
    """
    def exact(values):
        return [Fraction(v) for v in values.tolist()]

    p = Fraction(real.spec.weight.p)
    rows = [exact(row) for row in real.state_output]
    coeff = [exact(row) for row in real.coeff_output]
    power, mass = exact(real.power_output), Fraction(real.residual_mass)
    x0 = Fraction(float(xs[0]))
    w1 = [Fraction(0)] * real.spec.n_first_states
    w2 = [v * Fraction(float(sigma0_sq)) for v in exact(real.steady_second)]
    estimates, sigma_eps2 = [], []
    for n, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        if n:
            u = Fraction(x) - x0
            w1, w2 = _exact_cascade_step(w1, p, u), _exact_cascade_step(w2, p, u * u)
        frame = [_exact_dot(row, w1) for row in rows]
        frame[0] += x0
        estimates.append(frame)
        residual = _exact_dot(power, w2) - sum(_exact_dot(row, w1) ** 2 for row in coeff)
        sigma_eps2.append(max(residual, Fraction(0)) / mass)
    return estimates, sigma_eps2


def fading_memory(theta: float, order: int, xs, start) -> list:
    """The fading-memory polynomial filter as the plain g-h/g-h-k recursion.

    A kappa 0 design of model order `order` (1 to 3) and decay theta is
    the critically damped fading-memory filter (Brookner, Tracking and
    Kalman Filtering Made Easy, 1998, ch. 1): each sample's innovation
    eps = x - (the level predicted one sample on) corrects the predicted
    derivatives by the gains g = 1 - theta**order and, for order 2,
    h = (1 - theta)**2, for order 3, h = 1.5 (1 - theta**2)(1 - theta)
    and 2k = (1 - theta)**3.  start is the filtered state (level and
    derivatives per sample, `order` values) before xs[0]; returns the
    filtered state after each sample of xs, in plain float arithmetic.
    """
    t = theta
    gains = {
        1: (1 - t,),
        2: (1 - t * t, (1 - t) ** 2),
        3: (1 - t ** 3, 1.5 * (1 - t * t) * (1 - t), (1 - t) ** 3),
    }[order]
    state = [float(v) for v in start]
    states = []
    for x in xs:
        # Predict one sample on: the Taylor step of the polynomial model.
        if order == 3:
            level, velocity, accel = state
            state = [level + velocity + 0.5 * accel, velocity + accel, accel]
        elif order == 2:
            state = [state[0] + state[1], state[1]]
        eps = float(x) - state[0]
        state = [s + g * eps for s, g in zip(state, gains)]
        states.append(tuple(state))
    return states


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


def package_env(**overrides) -> dict:
    """This process's environment with `overrides` set and the tested
    package's root first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ, **overrides)
    root = str(Path(erlangreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# The ROADMAP conditioning grid of (kappa, p, model_order), 175 designs, and
# the design grid: it adds the kappa 6 designs of the benchmark's sweep.
GRID_P = (0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999)
ROADMAP_GRID = [(kappa, p, kx) for kappa in (0, 1, 2, 4, 8) for p in GRID_P for kx in range(1, 6)]
DESIGN_GRID = ROADMAP_GRID + [(6, p, kx) for p in GRID_P for kx in range(1, 6)]


def real_roots_reference(coeffs) -> list:
    """Sorted real roots of ascending polynomial coefficients, by np.roots."""
    roots = np.roots(np.asarray(coeffs, dtype=float)[::-1])
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8)


def delay_search_reference(coeffs, centroid: float):
    """(q_best, candidates) of a noise gain's ascending delay polynomial.

    The real stationary points come from np.roots of the derivative, the
    gain at each from np.polyval, and q_best is the least one whose second
    derivative is positive.  A constant gain yields centroid and no
    candidates.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) == 1:
        return centroid, []
    derivative = coeffs[1:] * np.arange(1, len(coeffs))
    real = real_roots_reference(derivative)
    candidates = [(q, float(np.polyval(coeffs[::-1], q))) for q in real]
    curvature = derivative[1:] * np.arange(1, len(derivative))
    minima = [q for q in real if np.polyval(curvature[::-1], q) > 0.0]
    return min(minima), candidates


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


def cascade_longdouble(p: float, u, w_prev) -> np.ndarray:
    """Leaky-integrator cascade in np.longdouble, one sample at a time.

    Stage k runs y[n] = p * y[n-1] + x_k[n] from y[-1] = w_prev[k], with
    x_0 the input and x_k the trajectory of stage k-1.  Returns the
    (len(w_prev), len(u)) trajectories in long double, whose extra
    precision makes it a reference for the float64 engines.
    """
    p = np.longdouble(p)
    signal = [np.longdouble(x) for x in np.asarray(u, dtype=float)]
    out = np.empty((len(w_prev), len(signal)), dtype=np.longdouble)
    for k, w in enumerate(w_prev):
        y = np.longdouble(float(w))
        for n, x in enumerate(signal):
            y = p * y + x
            signal[n] = y
        out[k] = signal
    return out


def template_rows(template: str, columns) -> str:
    """One line per row of the columns, each row %-formatted by template.

    The CSV writer's reference: Python's own '%d' and '%.17g' (correctly
    rounded dtoa) applied to one row at a time.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(template % row for row in zip(*columns))


# The block path as it computed its floats before its per-call costs were
# cut: the same operations, operands, memory layouts and order, so that the
# package must match them exactly (np.array_equal), not merely to rounding.
# Above BLOCK_OUTER_ROWS sub-block rows a stage folds p times each carry
# into its sub-block's first input sample, on a copy of the signal; up to
# that, it adds the carry term after the product, formed with einsum.  Views
# are reshaped per stage; a detector's coefficient rows and value row are
# read in one stacked product; the noise terms are added with sum(); the
# guard is np.where under errstate.  Stacked rows run every stage of the
# longest cascade, shorter start vectors zero-padded, as the package runs
# them.  Samples are cut into pieces of BLOCK_PIECE counted from the
# stream's first sample, as the package cuts them.

BLOCK_SUB = 32
BLOCK_PIECE = 8192
BLOCK_OUTER_ROWS = 64


def _scan_tables_reference(p: float):
    """(within, offset, across, start) powers of p for one piece."""
    def powers(exponent, keep=True):
        table = np.where(keep, p ** np.maximum(exponent, 0).astype(float), 0.0)
        table[table < np.finfo(float).tiny] = 0.0
        return table

    i = np.arange(BLOCK_SUB)
    j = np.arange(BLOCK_PIECE // BLOCK_SUB)
    lag = i[None, :] - i[:, None]
    lag_sub = j[None, :] - 1 - j[:, None]
    return (
        powers(lag, lag >= 0),
        powers(i + 1),
        powers(BLOCK_SUB * lag_sub, lag_sub >= 0),
        powers(BLOCK_SUB * j),
    )


def _scan_piece_reference(p, u, state, states):
    within, offset, across, start = _scan_tables_reference(p)
    rows, n = u.shape
    n_sub = states.shape[2] // BLOCK_SUB
    across = across[:n_sub, :n_sub]
    start_terms = np.zeros((len(state[0]), rows))
    for r, w in enumerate(state):
        start_terms[: len(w), r] = w
    start_terms = start_terms[:, :, None] * start[:n_sub]
    signal = np.zeros((rows, n_sub * BLOCK_SUB))
    signal[:, :n] = u
    signal = signal.reshape(rows * n_sub, BLOCK_SUB)
    carried = np.empty_like(signal)
    m = rows * n_sub
    for k in range(len(state[0])):
        if m > BLOCK_OUTER_ROWS:
            # The carries fold into each sub-block's first input sample.
            carry = (signal @ within[:, -1]).reshape(rows, n_sub) @ across
            carry += start_terms[k]
            folded = signal.copy()
            folded[:, 0] += (carry * p).reshape(m)
            y = np.matmul(folded, within, out=states[k].reshape(m, BLOCK_SUB))
        else:
            y = np.matmul(signal, within, out=states[k].reshape(m, BLOCK_SUB))
            carry = y[:, -1].reshape(rows, n_sub) @ across
            carry += start_terms[k]
            y += np.einsum("i,j->ij", carry.reshape(m), offset, out=carried)
        signal = y


def scan_reference(p: float, u, w_prev):
    """run_block's trajectories: 1-D u and one state, or rows and states."""
    u = np.asarray(u, dtype=float)
    stacked = u.ndim == 2
    if not stacked:
        u, w_prev = u[None], [w_prev]
    w = list(w_prev)
    orders = [len(w_r) for w_r in w]
    n = u.shape[1]
    states = np.empty((orders[0], len(orders), -(-n // BLOCK_SUB) * BLOCK_SUB))
    for lo in range(0, n, BLOCK_PIECE):
        hi = min(lo + BLOCK_PIECE, n)
        if states.shape[2] <= BLOCK_PIECE:
            _scan_piece_reference(p, u, w, states)
        else:
            piece = np.empty(states.shape[:2] + (-(-(hi - lo) // BLOCK_SUB) * BLOCK_SUB,))
            _scan_piece_reference(p, u[:, lo:hi], w, piece)
            states[:, :, lo:lo + piece.shape[2]] = piece
        w = [states[: len(w_r), r, hi - 1] for r, w_r in enumerate(w)]
    out = [states[:order, r, :n] for r, order in enumerate(orders)]
    return out if stacked else out[0]


def moments_reference(real, xs, sigma0_sq: float, state):
    """Both moment cascades over a block: (w1_block, w2_block, state).

    state is (w1, w2, n, x0) with float-list cascades, or None to start the
    stream on xs[0] (the final-value start, whose column is the start).
    """
    xs = np.asarray(xs, dtype=float)
    first = 0
    if state is None:
        state = ([0.0] * real.spec.n_first_states,
                 (real.steady_second * float(sigma0_sq)).tolist(), -1, float(xs[0]))
        first = 1
    w1, w2, n_prev, x0 = state
    start = n_prev + 1
    moments = np.empty((2, xs.size - first))
    np.subtract(xs[first:], x0, out=moments[0])
    np.multiply(moments[0], moments[0], out=moments[1])
    head = min(-(start + first) % BLOCK_PIECE, moments.shape[1])
    w = [w1, w2]
    pieces = []
    for lo, hi in ((0, head), (head, moments.shape[1])):
        if hi > lo:
            pieces.append(scan_reference(real.spec.weight.p, moments[:, lo:hi], w))
            w = [states[:, -1] for states in pieces[-1]]
    if first:
        pieces.insert(0, [np.array(w1)[:, None], np.array(w2)[:, None]])
    if len(pieces) == 1:
        w1_block, w2_block = pieces[0]
    else:
        w1_block = np.hstack([piece[0] for piece in pieces])
        w2_block = np.hstack([piece[1] for piece in pieces])
    state = (w1_block[:, -1].tolist(), w2_block[:, -1].tolist(), start + xs.size - 1, x0)
    return w1_block, w2_block, state


def _block_noise_variance(beta, power, residual_mass):
    residual = power - np.einsum("ij,ij->j", beta, beta)
    return np.maximum(residual, 0.0) / residual_mass


def sequence_reference(real, w1_block, w2_block, x0: float):
    """run_sequence's (estimates, sigma_eps2, variances) from the trajectories."""
    sigma_eps2 = _block_noise_variance(
        real.coeff_output @ w1_block, real.power_output @ w2_block, real.residual_mass
    )
    estimates = real.state_output @ w1_block
    estimates[0] += x0
    variances = sigma_eps2[None, :] * np.diag(real.vrf)[:, None]
    return estimates, sigma_eps2, variances


def block_statistic_reference(value_row, noise_terms, w1_block, w2_block, floor=1e-15):
    """A detector's block Z from its value row and (coeff, power, mass, vrf_ii) terms.

    Every term's coefficient rows and the value row are read in one
    stacked product, in that order."""
    rows = np.vstack([coeff for coeff, *_ in noise_terms] + [value_row])
    products = rows @ w1_block
    betas = np.split(products[:-1], np.cumsum([len(coeff) for coeff, *_ in noise_terms])[:-1])
    variance = sum(
        vrf_ii * _block_noise_variance(beta, power @ w2_block, residual_mass)
        for beta, (coeff, power, residual_mass, vrf_ii) in zip(betas, noise_terms)
    )
    value = products[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(variance < floor, 0.0, value / np.sqrt(np.maximum(variance, floor)))


def packet_signal(seed: int, n: int):
    """(xs, sizes): a noisy trend with steps and a 1e6 offset stretch, and
    log-uniform packet sizes from 64 to 8192 adding up to n."""
    rng = np.random.Generator(np.random.PCG64(seed))
    slopes = np.repeat(rng.normal(0.0, 0.2, n // 500 + 1), 500)[:n]
    steps = np.where(rng.random(n) < 1e-3, rng.normal(0.0, 8.0, n), 0.0)
    xs = np.cumsum(slopes) + np.cumsum(steps) + rng.standard_normal(n)
    xs[n // 3:n // 2] += 1e6
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(np.exp(rng.uniform(np.log(64), np.log(8192)))), n - sum(sizes)))
    return xs, sizes
