"""Independent reference computations the benchmark checks outputs against.

Nothing here calls into the package.  The fit oracle is explicit weighted
least squares over a window of raw samples, the same method as the test
suite's batch oracle, in an age basis scaled by the weight's timescale so
that it stays well conditioned for every design in the sweep.  The event
oracle is a plain pass over a statistic sequence.
"""

import math

import numpy as np

# Window length: the weight (times the largest basis power) must have fallen
# below exp(-_TAIL_LOG) of its peak, so truncating the history is invisible.
_TAIL_LOG = 70.0


class WlsOracle:
    """Batch weighted-least-squares fit of one design over a sample window.

    rows[k] is the impulse response of derivative output k: the estimate is
    rows @ window[::-1].  The noise variance is the weighted residual power
    over (weight mass - trace of the weighted leverage).
    """

    def __init__(self, kappa, p, kx, kt, q, ts=1.0):
        self.kappa, self.p, self.kx, self.kt, self.q, self.ts = kappa, p, kx, kt, q, ts
        lam = -1.0 / math.log(p)
        m = np.arange(1, 200_000, dtype=float)
        log_w = kappa * np.log(m) + m * math.log(p) + 2 * kx * np.log(m)
        peak = float(log_w.max())
        tail = np.flatnonzero((m > kappa * lam) & (log_w < peak - _TAIL_LOG))
        self.length = int(m[tail[0]]) + 1
        ages = np.arange(self.length, dtype=float)
        self.weights = ages ** kappa * p ** ages
        scale = max(lam, 1.0)
        basis = np.vander(ages / scale, kx, increasing=True)
        sw = np.sqrt(self.weights)
        a = basis * sw[:, None]
        pinv = np.linalg.pinv(a)                      # (kx, L): scaled coefficients
        self._basis = basis
        self._coeffs = pinv * sw[None, :]             # alpha_scaled = coeffs @ y
        leverage = np.einsum("ij,ji->i", a, pinv)     # diagonal of the hat matrix
        self._mass = float(self.weights.sum() - self.weights @ leverage)
        self._scale = scale
        self.rows = self.rows_at(q)

    def rows_at(self, q):
        """Impulse responses of the kt outputs when evaluated at delay q."""
        synth = np.zeros((self.kt, self.kx))
        for k_t in range(self.kt):
            for k_x in range(k_t, self.kx):
                synth[k_t, k_x] = (
                    (-1.0 / self.ts) ** k_t * math.perm(k_x, k_t)
                    * q ** (k_x - k_t) / self._scale ** k_x
                )
        return synth @ self._coeffs

    def fit(self, window):
        """(estimates, sigma2) at the newest sample of window (oldest first)."""
        y = np.asarray(window, dtype=float)[::-1][: self.length]
        if y.size < self.length:
            raise ValueError(f"window needs {self.length} samples, got {y.size}")
        residual = y - self._basis @ (self._coeffs @ y)
        sigma2 = float(self.weights @ (residual * residual)) / self._mass
        return self.rows @ y, sigma2

    def vrf(self):
        """Noise gain matrix: sum over ages of products of impulse responses."""
        return self.rows @ self.rows.T

    def response(self, omegas):
        """(kt, len(omegas)) frequency responses: sum_m h[m] exp(-i omega m)."""
        m = np.arange(self.length, dtype=float)
        return self.rows @ np.exp(-1j * np.outer(m, np.asarray(omegas, dtype=float)))


def run_events(z, threshold, kind_pos, kind_neg=None):
    """One event per maximal run of threshold exceedances, at its extremum.

    Runs of z > threshold give kind_pos at their first maximum; with
    kind_neg, runs of z < -threshold give kind_neg at their first minimum.
    Returns (n, z, kind) tuples in order.
    """
    z = np.asarray(z, dtype=float)
    sign = (z > threshold).astype(np.int8)
    if kind_neg is not None:
        sign[z < -threshold] = -1
    edges = np.flatnonzero(np.diff(sign)) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [z.size]))
    events = []
    for a, b in zip(starts.tolist(), stops.tolist()):
        s = int(sign[a]) if b > a else 0
        if s == 0:
            continue
        i = a + int(np.argmax(z[a:b]) if s > 0 else np.argmin(z[a:b]))
        events.append((i, float(z[i]), kind_pos if s > 0 else kind_neg))
    return events


def event_mismatches(got, expected):
    """Indices of events in one list and not the other (exact comparison)."""
    got_set, expected_set = set(got), set(expected)
    return sorted({e[0] for e in got_set ^ expected_set})


def missed_breaks(breaks, event_indices, before=5, after=40):
    """Planted breaks with no event in [b - before, b + after]."""
    events = np.sort(np.asarray(event_indices, dtype=np.int64))
    missed = []
    for b in np.asarray(breaks).tolist():
        j = np.searchsorted(events, b - before)
        if j >= events.size or events[j] > b + after:
            missed.append(b)
    return missed
