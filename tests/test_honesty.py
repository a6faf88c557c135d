"""Covariance honesty: every reported variance against what the filter does.

On unit white noise (truth 0) each estimate's squared error should average
its reported variance, sigma_eps2 should average 1, and a detector's Z,
an estimate over its reported deviation, should have a second moment of 1.
Each ratio is taken over 200 000 samples after a 20 000-sample warm-up;
its standard error comes from 40 batch means, and a ratio more than four
standard errors from 1 is a miss.

The same holds with a truth that moves: on 40 fresh streams per design,
each a random polynomial of degree kx - 1 plus unit white noise, every
estimate is compared with the polynomial's exact derivative at n - q, so
a bias in the estimates (a wrong delay, a wrong row) shows as well.  Each
stream is one batch: 5 000 samples, of which the first 2 000, the
start-up of ROADMAP item 10, are dropped.
"""

import functools

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from erlangreg import ChangeDetector, EdgeDetector, PeakDetector, StreamingEstimator

from oracles import build

_WARM, _SAMPLES, _BATCHES = 20_000, 200_000, 40
_START, _STREAM = 2_000, 5_000

# (kappa, p, model_order); every output is read.
DESIGNS = [
    (0, 0.8, 1), (10, 0.95, 1),
    (0, 0.9, 2), (1, 0.9, 2), (2, 0.9, 2), (3, 0.8, 2), (8, 0.9, 2), (2, 0.98, 2),
    (2, 0.8, 3), (2, 0.9, 3), (0, 0.95, 3),
    (1, 0.9, 4), (6, 0.8, 4),
    (0, 0.8, 5),
]
# The change pair: fast and slow smoother on one delay.
CHANGE_PAIR = ((0, 0.8, 2), (3, 0.8, 2))

_T_LIKE = ("Z divides by an estimated deviation, so it is t-like: its second moment "
           "was {} on this seed, past 1 by more than four standard errors (ROADMAP item 4)")
MISSES = {
    ((0, 0.9, 2), "edge_z"): _T_LIKE.format(1.056),
    ((3, 0.8, 2), "edge_z"): _T_LIKE.format(1.058),
    ((2, 0.8, 3), "edge_z"): _T_LIKE.format(1.074),
    ((2, 0.8, 3), "peak_z"): _T_LIKE.format(1.061),
    ((0, 0.8, 5), "edge_z"): _T_LIKE.format(1.195),
    ((0, 0.8, 5), "peak_z"): _T_LIKE.format(1.123),
    (CHANGE_PAIR, "change_z"): "ROADMAP item 1: change Z's normaliser lacks the two smoothers' "
                               "cross term; its null deviation is about 0.51",
}


def _ratio(values, reported=None):
    """mean(values)/mean(reported) and its standard error from batch means."""
    reported = np.ones_like(values) if reported is None else reported
    batches = (values.reshape(_BATCHES, -1).mean(axis=1)
               / reported.reshape(_BATCHES, -1).mean(axis=1))
    return values.mean() / reported.mean(), batches.std(ddof=1) / np.sqrt(_BATCHES)


@functools.lru_cache(maxsize=None)
def _ratios(design):
    """quantity -> (ratio, standard error) of one seeded white-noise run."""
    seed = 7 if design == CHANGE_PAIR else 2500 + 100 * design[0] + design[2]
    xs = np.random.Generator(np.random.PCG64(seed)).standard_normal(_WARM + _SAMPLES)
    if design == CHANGE_PAIR:
        fast = build(*design[0], kt=2)
        slow = build(*design[1], q=fast.spec.delay)
        return {"change_z": _ratio(ChangeDetector(fast, slow, np.inf).run(xs)[_WARM:] ** 2)}
    real = build(*design, kt=design[2])
    result = StreamingEstimator(real).extend(xs)
    ratios = {f"estimate_{k}": _ratio(e[_WARM:] ** 2, v[_WARM:])
              for k, (e, v) in enumerate(zip(result.estimates, result.variances))}
    ratios["sigma_eps2"] = _ratio(result.sigma_eps2[_WARM:])
    for name, detector, outputs in (("edge_z", EdgeDetector, 2), ("peak_z", PeakDetector, 3)):
        if design[2] >= outputs:
            ratios[name] = _ratio(detector(real, np.inf).run(xs)[_WARM:] ** 2)
    return ratios


@functools.lru_cache(maxsize=None)
def _polynomial_ratios(design):
    """quantity -> (ratio, standard error) over _BATCHES streams on a polynomial truth."""
    kappa, p, kx = design
    real = build(*design, kt=kx)
    n = np.arange(_STREAM)
    half = _STREAM / 2
    centred = (n - half) / half
    at = (n[_START:] - real.spec.delay - half) / half     # n - q, centred alike
    errors, variances, sigma2 = [], [], []
    for stream in range(_BATCHES):
        rng = np.random.Generator(np.random.PCG64([9000 + 100 * kappa + kx, stream]))
        coeffs = rng.uniform(-1.0, 1.0, kx) * (1e4 / kx)      # below 1e4 on the stream
        result = StreamingEstimator(real).extend(
            polyval(centred, coeffs) + rng.standard_normal(_STREAM))
        errors.append([e[_START:] - polyval(at, polyder(coeffs, k)) / half ** k
                       for k, e in enumerate(result.estimates)])
        variances.append([v[_START:] for v in result.variances])
        sigma2.append(result.sigma_eps2[_START:])
    ratios = {f"estimate_{k}": _ratio(np.concatenate([e[k] for e in errors]) ** 2,
                                      np.concatenate([v[k] for v in variances]))
              for k in range(kx)}
    ratios["sigma_eps2"] = _ratio(np.concatenate(sigma2))
    return ratios


def _cases():
    quantities = {design: [f"estimate_{k}" for k in range(design[2])] + ["sigma_eps2"]
                  + ["edge_z"] * (design[2] >= 2) + ["peak_z"] * (design[2] >= 3)
                  for design in DESIGNS}
    quantities[CHANGE_PAIR] = ["change_z"]
    for design, names in quantities.items():
        for name in names:
            reason = MISSES.get((design, name))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(design, name, marks=marks, id=f"{design}-{name}")


@pytest.mark.parametrize("design, quantity", _cases())
def test_reported_variance_holds_on_white_noise(design, quantity):
    ratio, se = _ratios(design)[quantity]
    assert abs(ratio - 1.0) <= 4.0 * se, f"{quantity}: ratio {ratio:.4f}, standard error {se:.4f}"


@pytest.mark.parametrize("design, quantity", [
    pytest.param(design, name, id=f"{design}-{name}") for design in DESIGNS
    for name in [f"estimate_{k}" for k in range(design[2])] + ["sigma_eps2"]])
def test_reported_variance_holds_on_a_polynomial(design, quantity):
    ratio, se = _polynomial_ratios(design)[quantity]
    assert abs(ratio - 1.0) <= 4.0 * se, f"{quantity}: ratio {ratio:.4f}, standard error {se:.4f}"
