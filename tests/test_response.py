import cmath

import numpy as np
import pytest

from erlangreg import (
    bandwidth,
    distortion,
    frequency_response,
    group_delay_dc,
    response_matrix,
    response_report,
)

from oracles import build


def test_smoother_has_unit_dc_gain():
    for kappa, p, kx in [(0, 0.8, 2), (2, 0.9, 3), (3, 0.75, 2)]:
        real = build(kappa, p, kx, kt=kx, q=None)
        h0 = frequency_response(real, 0.0, 0)
        assert h0 == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert distortion(real, 0.0) == pytest.approx(0.0, abs=1e-20)


def test_derivative_outputs_vanish_at_dc():
    real = build(2, 0.8, 3, kt=3, q=10.0)
    for k in (1, 2):
        assert abs(frequency_response(real, 0.0, k)) < 1e-12


@pytest.mark.parametrize(
    "kappa,p,kx", [(1, 0.8, 2), (8, 0.9, 3), (6, 0.8, 4), (0, 0.99, 3)]
)
def test_response_equals_direct_impulse_transform(kappa, p, kx):
    # Cross-check the closed-form transfer function against an explicit DFT
    # of the truncated impulse response.  The horizon leaves a tail below
    # 1e-20 even at p = 0.99.
    real = build(kappa, p, kx, kt=2, q=5.0)
    horizon = 8000
    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    from erlangreg import run_block

    states = run_block(real.first_net, impulse)
    h = real.state_output @ states
    m = np.arange(horizon)
    for omega in (0.1, 0.5, 1.5, 3.0):
        kernel = np.exp(-1j * omega * m)
        for k in range(2):
            direct = complex(np.sum(h[k] * kernel))
            assert frequency_response(real, omega, k) == pytest.approx(direct, abs=1e-9)


def test_response_matrix_matches_scalar_calls():
    real = build(0, 0.85, 2, kt=2, q=6.0)
    omegas = np.array([0.0, 0.3, 1.0])
    grid = response_matrix(real, omegas)
    for i, omega in enumerate(omegas):
        for k in range(2):
            assert grid[k, i] == pytest.approx(frequency_response(real, omega, k))


def test_output_index_validation():
    real = build(0, 0.8, 2, kt=1, q=5.0)
    with pytest.raises(ValueError):
        frequency_response(real, 0.1, 1)


def test_group_delay_matches_design_delay():
    for q in (3.0, 8.5, 17.93):
        real = build(2, 0.8, 2, kt=1, q=q)
        assert group_delay_dc(real) == pytest.approx(q, abs=1e-5)


def test_bandwidth_sits_on_half_distortion():
    real = build(0, 0.8, 2, kt=1, q=None)
    f_c = bandwidth(real)
    assert f_c is not None
    assert distortion(real, 2.0 * np.pi * f_c) == pytest.approx(0.5, abs=1e-4)
    # Below the cutoff the distortion stays under one half.
    for f in np.linspace(0.0, f_c * 0.98, 50):
        assert distortion(real, 2.0 * np.pi * f) < 0.5


def test_bandwidth_none_when_distortion_stays_low():
    # A nearly memoryless smoother evaluated at zero delay tracks the ideal
    # response everywhere, so no distortion crossing exists.
    real = build(0, 0.05, 1, kt=1, q=0.0)
    assert bandwidth(real) is None


def test_bandwidth_validates_grid():
    real = build(0, 0.8, 2, kt=1, q=8.5)
    with pytest.raises(ValueError):
        bandwidth(real, grid_size=1)


def test_report_bundles_grid_and_metrics():
    real = build(0, 0.8, 2, kt=2, q=8.5)
    report = response_report(real, grid_size=256)
    assert report.freqs.shape == (256,)
    assert report.responses.shape == (2, 256)
    assert report.distortion.shape == (256,)
    assert report.freqs[0] == 0.0
    assert report.freqs[-1] == pytest.approx(0.5)
    assert report.f_c == pytest.approx(bandwidth(real), abs=1e-4)
    assert report.group_delay_dc == pytest.approx(8.5, abs=1e-5)
    with pytest.raises(ValueError):
        response_report(real, grid_size=0)
