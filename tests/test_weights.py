import math

import numpy as np
import pytest
from scipy import stats

from erlangreg import (
    DispersionReport,
    WeightSpec,
    dispersion,
    erlang_sum,
    normalizer,
    weight_moments,
)

from oracles import brute_sum, closed_sigma_omega


@pytest.mark.parametrize("p", [0.5, 0.7, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("k", range(29))
def test_closed_sums_match_brute_force(k, p):
    # k = 28 is the largest squared-overlap order for kappa <= 10 and
    # model_order <= 5.
    closed = erlang_sum(k, p)
    brute = brute_sum(k, p)
    assert closed == pytest.approx(brute, rel=1e-10)


def test_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        erlang_sum(2, 1.0)
    with pytest.raises(ValueError):
        erlang_sum(2, 0.0)
    with pytest.raises(ValueError):
        erlang_sum(-1, 0.5)


def test_normalizer_inverts_sum():
    assert normalizer(3, 0.8) * erlang_sum(3, 0.8) == pytest.approx(1.0, rel=1e-14)


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


def test_dispersion_product_independent_of_p():
    products = [dispersion(WeightSpec(kappa=4, p=p)).product for p in (0.7, 0.8, 0.9)]
    assert max(products) - min(products) < 1e-9
    assert products[0] == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-6)


def test_dispersion_rejects_bad_period():
    with pytest.raises(ValueError):
        dispersion(WeightSpec(kappa=3, p=0.8), t_s=0.0)
