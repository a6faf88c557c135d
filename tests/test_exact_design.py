"""The float design against exact rational arithmetic (oracles.exact_design).

Every accepted DESIGN_GRID design, kt = min(kx, 3), is held to bounds set
at about twice the largest error measured over the grid (120 designs,
Python 3.11, numpy 2.4, x86-64):

- overlap entries 4.0e-16 relative (kappa 4, p 0.95, kx 3);
- squared overlap entries 2.7e-15 relative (kappa 8, p 0.999, kx 2): the
  design sums S_k(p**2) over the exact ((1 - p)(1 + p))**(k + 1), where
  1 - p*p read 2.7e-13;
- state_output rows 1.93e-12 relative to the row's largest entry
  (kappa 8, p 0.999, kx 2);
- vrf entries 5.95e-13 relative to sqrt(vrf_aa vrf_bb) (kappa 6, p 0.8,
  kx 4, overlap condition 6.5e11);
- residual_mass 7.0e-15 relative (kappa 6, p 0.8, kx 4);
- the kx 2 optimal delay 1.1e-15 relative (kappa 1, p 0.98) to the exact
  root -core_01 / core_11 of its noise gain, core = G**-1 G2 G**-1.

Every quantity is read through one Cholesky factor of the overlap G.
"""

import functools
from fractions import Fraction

import pytest

from erlangreg import DesignError
from erlangreg.design import _gram_pair
from erlangreg.response import group_delay_dc

from oracles import DESIGN_GRID, build, exact_design

OVERLAP, SQUARED, ROWS, VRF, RESIDUAL_MASS = 1e-15, 6e-15, 4e-12, 1.5e-12, 3e-14
DELAY = 2.5e-15


def _relative(floats, exact, scale):
    return float(abs(Fraction(float(floats)) - exact) / scale)


@functools.lru_cache(maxsize=None)
def _accepted(kappa, p, kx):
    """The design's realization, or None where it is rejected."""
    try:
        return build(kappa, p, kx, kt=min(kx, 3))
    except DesignError:
        return None


@pytest.mark.parametrize("kappa, p, kx", [d for d in DESIGN_GRID if _accepted(*d)])
def test_design_matches_exact_arithmetic(kappa, p, kx):
    real = _accepted(kappa, p, kx)
    exact = exact_design(real)
    for name, matrix, bound in zip(("overlap", "squared"), _gram_pair(real.spec),
                                   (OVERLAP, SQUARED)):
        worst = max(_relative(matrix[a, b], exact[name][a][b], exact[name][a][b])
                    for a in range(kx) for b in range(kx))
        assert worst <= bound, f"{name}: {worst:.3g}"
    for k, row in enumerate(exact["state_output"]):
        top = max(map(abs, row))
        worst = max(_relative(f, e, top) for f, e in zip(real.state_output[k], row))
        assert worst <= ROWS, f"state_output row {k}: {worst:.3g}"
    vrf = exact["vrf"]
    worst = max(_relative(real.vrf[a, b], vrf[a][b], (vrf[a][a] * vrf[b][b]) ** 0.5)
                for a in range(len(vrf)) for b in range(len(vrf)))
    assert worst <= VRF, f"vrf: {worst:.3g}"
    mass = exact["residual_mass"]
    assert _relative(real.residual_mass, mass, mass) <= RESIDUAL_MASS


@pytest.mark.parametrize("kappa, p", [(kappa, p) for kappa, p, kx in DESIGN_GRID
                                      if kx == 2 and _accepted(kappa, p, kx)])
def test_kx_2_optimal_delay_is_the_exact_root(kappa, p):
    # Output 0's gain (1, q) core (1, q)**T is least at q = -core_01 / core_11.
    real = _accepted(kappa, p, 2)
    core = exact_design(real)["core"]
    root = -core[0][1] / core[1][1]
    assert _relative(real.spec.delay, root, abs(root)) <= DELAY


def test_exact_sums_are_the_series():
    # S_k(1/2) = sum m**k / 2**m: 2, 2, 6, 26, 150 (twice the ordered Bell numbers).
    sums = exact_design(build(0, 0.5, 3))["sums"]
    assert sums == [2, 2, 6, 26, 150]


_SMALL_P = ("response.group_delay_dc cancels (1 - p)**-(k + 1) terms at small p: "
            "{} relative off the exact (1 + p)/(1 - p) (CHANGES.md FOUND)")


@pytest.mark.parametrize("p", [
    pytest.param(1e-8, marks=pytest.mark.xfail(strict=True, reason=_SMALL_P.format(7.7e-9))),
    pytest.param(1e-5, marks=pytest.mark.xfail(strict=True, reason=_SMALL_P.format(3.6e-12))),
    1e-3, 0.1, 0.5, 0.9, 0.99, 0.999,
])
def test_group_delay_of_the_weighted_mean_is_exact(p):
    # kappa 1, kx 1: the weight m p**m has centroid S_2/S_1 = (1 + p)/(1 - p).
    # Measured: at most 6.2e-14 relative (p 1e-3), 6.2e-16 from p 0.1 on.
    exact = (1 + Fraction(p)) / (1 - Fraction(p))
    assert _relative(group_delay_dc(build(1, p, 1)), exact, exact) <= 1e-13
