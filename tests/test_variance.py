import numpy as np
import pytest

from erlangreg import DesignSpec, WeightSpec, optimal_delay, vrf_matrix
from erlangreg.design import _delay_polynomial, _gram_pair

from oracles import build, vrf_by_parseval


def _spec(kappa, p, kx, kt=1, q=None, ts=1.0):
    return DesignSpec(
        weight=WeightSpec(kappa=kappa, p=p),
        model_order=kx,
        n_outputs=kt,
        delay=q,
        sample_period=ts,
    )


@pytest.mark.parametrize(
    "kappa,p,kx,kt,q",
    [
        (0, 0.8, 2, 2, 8.5),
        (2, 0.9, 3, 3, 20.0),
        (3, 0.75, 2, 2, 17.38),
        (1, 0.6, 1, 1, 3.0),
    ],
)
def test_closed_form_vrf_matches_impulse_energy(kappa, p, kx, kt, q):
    real = build(kappa, p, kx, kt, q)
    for a in range(kt):
        for b in range(a, kt):
            energy = vrf_by_parseval(real, a, b)
            assert real.vrf[a, b] == pytest.approx(energy, rel=1e-8)


def test_vrf_matrix_symmetric_positive():
    vrf = vrf_matrix(_spec(2, 0.85, 3, 3, q=6.0))
    np.testing.assert_allclose(vrf, vrf.T, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(vrf) > 0.0)


def test_vrf_scales_with_sample_period():
    # Output k_t carries 1/ts**k_t, so its noise gain carries 1/ts**(2 k_t).
    base = vrf_matrix(_spec(1, 0.8, 3, 3, q=4.0, ts=1.0))
    scaled = vrf_matrix(_spec(1, 0.8, 3, 3, q=4.0, ts=0.5))
    for k in range(3):
        assert scaled[k, k] == pytest.approx(base[k, k] * 4.0**k, rel=1e-12)


def test_delay_polynomial_evaluates_to_vrf():
    spec = _spec(2, 0.8, 3, 3)
    for output in range(3):
        coeffs = _delay_polynomial(spec, *_gram_pair(spec), output)
        for q in (-2.0, 0.0, 3.7, 11.0):
            direct = vrf_matrix(_spec(2, 0.8, 3, 3, q=q))[output, output]
            poly = float(np.polyval(coeffs[::-1], q))
            assert poly == pytest.approx(direct, rel=1e-11)


def test_optimal_delay_is_local_minimum():
    for kappa, p, kx in [(0, 0.8, 2), (2, 0.8, 3), (3, 0.85, 2)]:
        report = optimal_delay(_spec(kappa, p, kx))
        q = report.q_optimal

        def gain(delay):
            return vrf_matrix(_spec(kappa, p, kx, q=delay))[0, 0]

        assert gain(q) <= gain(q - 0.05)
        assert gain(q) <= gain(q + 0.05)
        assert report.vrf[0, 0] == pytest.approx(gain(q), rel=1e-12)
        assert any(abs(q - c) < 1e-9 for c, _ in report.candidates)


def test_optimal_delay_for_derivative_output():
    # The slope output has its own noise-gain polynomial and optimum.
    spec = _spec(1, 0.8, 3, 2)
    report = optimal_delay(spec, output=1)
    q = report.q_optimal

    def gain(delay):
        return vrf_matrix(_spec(1, 0.8, 3, 2, q=delay))[1, 1]

    assert gain(q) <= gain(q - 0.05)
    assert gain(q) <= gain(q + 0.05)
    assert report.q_optimal != pytest.approx(optimal_delay(spec, output=0).q_optimal)


def test_single_coefficient_model_uses_centroid():
    spec = _spec(2, 0.8, 1)
    report = optimal_delay(spec)
    lam = spec.weight.lambda_w
    assert report.q_optimal == pytest.approx(3.0 * lam, rel=1e-12)
    assert len(report.candidates) == 0


def test_least_delay_minimum_is_chosen():
    # Among the stationary points of the noise gain, the chosen delay is the
    # smallest local minimum: anything stationary at a smaller delay must be
    # a maximum or inflection.
    for kappa, p, kx in [(1, 0.8, 3), (2, 0.9, 3)]:
        report = optimal_delay(_spec(kappa, p, kx))
        assert len(report.candidates) >= 1

        def gain(delay):
            return vrf_matrix(_spec(kappa, p, kx, q=delay))[0, 0]

        for q_c, _ in report.candidates:
            if q_c < report.q_optimal - 1e-6:
                assert min(gain(q_c - 0.01), gain(q_c + 0.01)) < gain(q_c)


def test_parseval_explicit_horizon_truncates():
    real = build(0, 0.8, 2, 1, q=8.5)
    full = vrf_by_parseval(real)
    partial = vrf_by_parseval(real, horizon=16)
    assert partial != pytest.approx(full, rel=1e-6)
    assert vrf_by_parseval(real, horizon=4000) == pytest.approx(full, rel=1e-9)


def test_parseval_rejects_bad_output_index():
    real = build(0, 0.8, 2, 1, q=8.5)
    with pytest.raises(ValueError):
        vrf_by_parseval(real, k_a=1)
