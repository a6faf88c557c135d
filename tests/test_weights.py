import math
import re
from fractions import Fraction

import numpy as np
import pytest

from erlangreg import (
    DispersionReport,
    WeightSpec,
    dispersion,
    erlang_sum,
    weight_moments,
)

from oracles import brute_sum, closed_sigma_omega, numeric_sigma_omega


@pytest.mark.parametrize("p", [0.5, 0.7, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("k", range(29))
def test_closed_sums_match_brute_force(k, p):
    # k = 28 is the largest squared-overlap order for kappa <= 10 and
    # model_order <= 5.
    closed = erlang_sum(k, p)
    brute = brute_sum(k, p)
    assert closed == pytest.approx(brute, rel=1e-10)


def _eulerian_sum(k, p):
    """S_k(p) with the Eulerian triangle rebuilt from row 0, Horner in p."""
    row = [1]
    for n in range(1, k + 1):
        prev = row + [0]
        row = [0] + [j * prev[j] + (n - j + 1) * prev[j - 1] for j in range(1, n + 1)]
    num = 0.0
    for coeff in reversed(row):
        num = num * p + coeff
    return num / (1.0 - p) ** (k + 1)


def test_cached_triangle_rows_give_the_same_floats():
    # erlang_sum keeps each Eulerian row once built; every float stays that
    # of a triangle rebuilt on every call, in any order of k.
    for k in [7, 3, 40, 0, 12, 39, 1, 28]:
        for p in (0.3, 0.8, 0.9, 0.99, 0.999):
            assert erlang_sum(k, p) == _eulerian_sum(k, p)


def test_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        erlang_sum(2, 1.0)
    with pytest.raises(ValueError):
        erlang_sum(2, 0.0)
    with pytest.raises(ValueError):
        erlang_sum(-1, 0.5)


@pytest.mark.parametrize("k, p", [(300, 0.99), (1000, 0.5), (120, 0.999), (100, 0.9999),
                                  (140, 0.99), (160, 0.9801)])
def test_sum_beyond_float_range_raises_overflow_naming_k_and_p(k, p):
    # An Eulerian coefficient too large for a float raised a bare
    # OverflowError, (1 - p)**(k + 1) underflowing raised ZeroDivisionError,
    # and a quotient past the float range came back as inf.
    with pytest.raises(OverflowError, match=re.escape(f"k={k}, p={p}")):
        erlang_sum(k, p)
    assert math.isfinite(erlang_sum(82, 0.99))


def _exact_sum(k, p):
    """S_k(p) as a Fraction sum of the series, stopped far past its peak."""
    p = Fraction(p)
    total, m = Fraction(0), 0
    while True:
        m += 1
        term = m**k * p**m
        total += term
        if m > k and term < total * Fraction(1, 2**80):
            return total


@pytest.mark.parametrize("k, p", [(200, 1e-5), (180, 1e-3), (300, 1e-9), (250, 1e-4)])
def test_finite_sum_past_the_eulerian_range_matches_the_exact_series(k, p):
    # The Eulerian coefficients of these k overflow a float, so the closed
    # form raised OverflowError for sums up to about 1e250.
    exact = float(_exact_sum(k, p))
    assert math.isfinite(exact)
    assert erlang_sum(k, p) == pytest.approx(exact, rel=1e-12)


def test_weight_spec_derives_timescale():
    spec = WeightSpec(kappa=2, p=0.8)
    assert spec.lambda_w == pytest.approx(-1.0 / math.log(0.8), rel=1e-15)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(kappa=-1, p=0.8)
    with pytest.raises(ValueError):
        WeightSpec(kappa=0, p=1.0)
    with pytest.raises(ValueError):
        WeightSpec(kappa=0, p=0.0)


@pytest.mark.parametrize("kappa,p", [(0, 0.8), (2, 0.7), (5, 0.9)])
def test_moments_match_gamma_distribution(kappa, p):
    # The continuous envelope of the weight is a gamma density with shape
    # kappa + 1 and scale lambda_w; its moments are textbook values.
    stats = pytest.importorskip("scipy.stats")
    spec = WeightSpec(kappa=kappa, p=p)
    mean, var, skew = stats.gamma.stats(a=kappa + 1, scale=spec.lambda_w, moments="mvs")
    got = weight_moments(spec)
    assert got.mu_w == pytest.approx(float(mean), rel=1e-12)
    assert got.var_w == pytest.approx(float(var), rel=1e-12)
    assert got.skew == pytest.approx(float(skew), rel=1e-12)


def test_dispersion_time_spread_formula():
    spec = WeightSpec(kappa=3, p=0.8)
    report = dispersion(spec, t_s=2.0)
    assert report.sigma_t == pytest.approx(2.0 * 2.0 * spec.lambda_w, rel=1e-14)


def test_dispersion_undefined_below_kappa_3():
    for kappa in (0, 1, 2):
        report = dispersion(WeightSpec(kappa=kappa, p=0.8))
        assert isinstance(report, DispersionReport)
        assert report.sigma_omega is None
        assert report.product is None
        assert report.sigma_t > 0.0


@pytest.mark.parametrize("kappa", [3, 4, 8, 12])
@pytest.mark.parametrize("p", [0.7, 0.9])
def test_frequency_spread_matches_closed_form(kappa, p):
    report = dispersion(WeightSpec(kappa=kappa, p=p))
    assert report.sigma_omega == pytest.approx(closed_sigma_omega(kappa, p), rel=1e-6)


@pytest.mark.parametrize("kappa", [3, 4, 8, 12])
@pytest.mark.parametrize("p", [0.7, 0.9])
def test_frequency_spread_matches_numeric_integration(kappa, p):
    # dispersion() uses the Beta-ratio closed form; the oracle integrates
    # the pulse magnitude's moments numerically and shares no formula.
    pytest.importorskip("scipy.integrate")
    report = dispersion(WeightSpec(kappa=kappa, p=p))
    assert report.sigma_omega == pytest.approx(numeric_sigma_omega(kappa, p), rel=1e-6)


def test_dispersion_product_independent_of_p():
    products = [dispersion(WeightSpec(kappa=4, p=p)).product for p in (0.7, 0.8, 0.9)]
    assert max(products) - min(products) < 1e-9
    assert products[0] == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-6)


def test_dispersion_rejects_bad_period():
    # A NaN period would give NaN spreads, and an infinite one
    # sigma_t = inf with sigma_omega = 0.
    for t_s in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            dispersion(WeightSpec(kappa=3, p=0.8), t_s=t_s)
