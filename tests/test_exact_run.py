"""The float runs against exact rational arithmetic (oracles.exact_run).

Both block and per-sample runs of the estimator, extend() and update(),
are held to the exact run of the same float design over 200 samples of a
noisy quadratic trend with prior 0.25: kappa 2, p 0.9, kx 2 (base);
kappa 6, p 0.8, kx 4 (wide, kt 3); kappa 20, p 0.5, kx 1 (the level's
cancellation, ROADMAP item 15); and base with a 1e6 jump at sample 50
(item 2's offset).  Worst errors over seeds 1-3, Python 3.11, numpy 2.4,
x86-64:

- an estimate's error against its scale, sum_j |r_kj w1_j| (plus |x0| for
  the level), reads at most 6.9e-16 (base, update()): a derivative near
  zero is measured against the sum it cancels from, not against itself;
- sigma_eps2's error against its scale, (sum_j |power_j w2_j| +
  sum_i beta_i**2) / residual_mass, reads at most 4.3e-15 (wide, update());
- sigma_eps2's error relative to itself, which is what a reader of it
  gets, reads 4.2e-12 (base), 1.5e-11 (wide), 3.3e-9 (kappa 20) and 1.4e-7
  (jump): the residual power is a small difference of large sums, the
  more so the further the data stray from x0.

The bounds are about twice those.
"""

from fractions import Fraction

import numpy as np
import pytest

from erlangreg import StreamingEstimator

from oracles import build, exact_run, moments_reference

ESTIMATE, SIGMA2_SCALED = 1.5e-15, 1e-14
_PRIOR = 0.25

# (kappa, p, kx, jump, sigma_eps2 bound relative to itself)
_CASES = {
    "base": (2, 0.9, 2, False, 1e-11),
    "wide": (6, 0.8, 4, False, 3e-11),
    "cancellation": (20, 0.5, 1, False, 7e-9),
    "jump": (2, 0.9, 2, True, 3e-7),
}


def _signal(seed, jump, n=200):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(n, dtype=float)
    xs = 3.0 + 0.05 * t + 0.002 * t * t + rng.standard_normal(n)
    if jump:
        xs[50:] += 1e6
    return xs


def _scaled_error(floats, exact, scale):
    """|floats - exact| / scale for each sample; where the scale is 0 (a
    derivative at the first sample) only an exact 0 passes."""
    error = np.array([float(abs(Fraction(v) - e)) for v, e in zip(floats.tolist(), exact)])
    return error / np.maximum(scale, np.finfo(float).tiny)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_extend_and_update_match_the_exact_run(case):
    kappa, p, kx, jump, sigma2_relative = _CASES[case]
    real = build(kappa, p, kx, kt=min(kx, 3))
    xs = _signal(1, jump)
    estimates, sigma_eps2 = exact_run(real, xs, _PRIOR)
    w1, w2, _ = moments_reference(real, xs, _PRIOR, None)
    scale = np.abs(real.state_output) @ np.abs(w1)
    scale[0] += abs(xs[0])
    beta = real.coeff_output @ w1
    sigma2_scale = (np.abs(real.power_output) @ np.abs(w2) + (beta * beta).sum(0)) / real.residual_mass
    sigma2_exact = np.array([float(v) for v in sigma_eps2])

    block = StreamingEstimator(real, _PRIOR).extend(xs)
    stream = StreamingEstimator(real, _PRIOR)
    frames = [stream.update(x) for x in xs]
    for path, got, got_sigma2 in (
        ("extend", block.estimates, block.sigma_eps2),
        ("update", np.array([f.estimates for f in frames]).T,
         np.array([f.sigma_eps2 for f in frames])),
    ):
        for k, row in enumerate(got):
            worst = _scaled_error(row, [frame[k] for frame in estimates], scale[k]).max()
            assert worst <= ESTIMATE, (path, k, worst)
        assert _scaled_error(got_sigma2, sigma_eps2, sigma2_scale).max() <= SIGMA2_SCALED, path
        assert _scaled_error(got_sigma2, sigma_eps2, sigma2_exact).max() <= sigma2_relative, path
