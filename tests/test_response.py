import numpy as np
import pytest

from erlangreg import erlang_sum, response_matrix, response_report, run_block
from erlangreg.response import _grid, group_delay_dc

from oracles import build


def test_smoother_has_unit_dc_gain():
    for kappa, p, kx in [(0, 0.8, 2), (2, 0.9, 3), (3, 0.75, 2)]:
        real = build(kappa, p, kx, kt=kx, q=None)
        h0 = response_matrix(real, [0.0])[0, 0]
        assert h0 == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert response_report(real).distortion[0] == pytest.approx(0.0, abs=1e-20)


def test_derivative_outputs_vanish_at_dc():
    real = build(2, 0.8, 3, kt=3, q=10.0)
    h0 = response_matrix(real, [0.0])[:, 0]
    for k in (1, 2):
        assert abs(h0[k]) < 1e-12


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

    states = run_block(p, impulse, np.zeros(real.spec.n_first_states))
    h = real.state_output @ states
    m = np.arange(horizon)
    omegas = (0.1, 0.5, 1.5, 3.0)
    grid = response_matrix(real, omegas)
    for i, omega in enumerate(omegas):
        kernel = np.exp(-1j * omega * m)
        for k in range(2):
            direct = complex(np.sum(h[k] * kernel))
            assert grid[k, i] == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("kappa,p,kx", [(8, 0.99, 2), (8, 0.95, 3), (0, 0.99, 3)])
def test_response_matches_extended_precision_at_top_of_design_space(kappa, p, kx):
    # The accepted designs with the most states and p nearest 1, where a
    # truncated DFT cannot reach, against state_output @
    # (1 - p e^{-i omega})**-(k + 1) evaluated in np.clongdouble.  The
    # frequencies run geometrically from 1e-4 cycles/sample so the narrow
    # passband, where each row peaks, is sampled; 0 and 1/2 are included.
    real = build(kappa, p, kx, kt=kx, q=None)
    freqs = np.concatenate(([0.0], np.geomspace(1e-4, 0.5, 63)))
    omegas = 2.0 * np.pi * freqs
    grid = response_matrix(real, omegas)

    base = 1.0 / (1.0 - np.longdouble(p) * np.exp(-1j * omegas.astype(np.clongdouble)))
    states = base[None, :] ** np.arange(1, real.spec.n_first_states + 1)[:, None]
    reference = real.state_output.astype(np.clongdouble) @ states
    scale = np.abs(reference).max(axis=1)
    err = np.abs(grid - reference).max(axis=1) / scale
    assert np.all(err.astype(float) <= 2e-13), err


def test_response_matrix_matches_scalar_calls():
    # A grid and one frequency at a time give the same responses, and both
    # match the state transfer functions (1 - p e^{-i omega})**-(k + 1).
    real = build(0, 0.85, 2, kt=2, q=6.0)
    omegas = np.array([0.0, 0.3, 1.0])
    grid = response_matrix(real, omegas)
    for i, omega in enumerate(omegas):
        single = response_matrix(real, omega)
        base = 1.0 / (1.0 - 0.85 * np.exp(-1j * omega))
        states = base ** np.arange(1, real.spec.n_first_states + 1)
        for k in range(2):
            assert grid[k, i] == pytest.approx(single[k, 0])
            assert grid[k, i] == pytest.approx(real.state_output[k] @ states)


def test_output_index_validation():
    # One row per derivative output: a kt = 1 design has no output 1.
    real = build(0, 0.8, 2, kt=1, q=5.0)
    grid = response_matrix(real, [0.1, 0.2])
    assert grid.shape == (1, 2)
    with pytest.raises(IndexError):
        grid[1]


def test_group_delay_matches_design_delay():
    # The moment conditions put the smoother's centroid at the delay for
    # every model order above one; the centroid is an exact sum, so only
    # rounding separates them.
    for kappa, orders in [(0, (2, 3, 4, 5)), (2, (2, 3, 4))]:
        for kx in orders:
            for q in (3.0, 8.5, 17.93):
                real = build(kappa, 0.8, kx, kt=1, q=q)
                assert abs(group_delay_dc(real) - q) <= 1e-12 * max(1.0, q)


def test_group_delay_of_constant_model_is_weight_centroid():
    # A one-coefficient fit is the normalized weight m**kappa p**m, whose
    # centroid is S_{kappa+1}(p) / S_kappa(p); at kappa 0, p 0.8 that is 4.
    # The design records that centroid as its delay.
    real = build(0, 0.8, 1, kt=1, q=None)
    assert group_delay_dc(real) == pytest.approx(4.0, rel=1e-12)
    for kappa in (0, 1, 2, 4, 8):
        for p in (0.5, 0.8, 0.9, 0.99):
            real = build(kappa, p, 1, kt=1, q=None)
            centroid = erlang_sum(kappa + 1, p) / erlang_sum(kappa, p)
            assert group_delay_dc(real) == pytest.approx(centroid, rel=1e-12)
            assert real.spec.delay == pytest.approx(group_delay_dc(real), rel=1e-12)


def test_group_delay_is_impulse_response_centroid():
    # Against the centroid of the smoother's impulse response run through
    # the cascade, at a delay away from the variance optimum.
    real = build(1, 0.8, 3, kt=1, q=2.0)
    impulse = np.zeros(600)
    impulse[0] = 1.0
    h = real.state_output[0] @ run_block(0.8, impulse, np.zeros(real.spec.n_first_states))
    centroid = float(np.arange(h.size) @ h) / float(h.sum())
    assert group_delay_dc(real) == pytest.approx(centroid, rel=1e-12)


def test_bandwidth_sits_on_half_distortion():
    real = build(0, 0.8, 2, kt=1, q=None)
    f_c = response_report(real).f_c
    assert f_c is not None
    q = real.spec.delay

    def distortion(f):
        omegas = 2.0 * np.pi * np.atleast_1d(f)
        return np.abs(response_matrix(real, omegas)[0] - np.exp(-1j * q * omegas)) ** 2

    assert distortion(f_c)[0] == pytest.approx(0.5, abs=1e-4)
    # Below the cutoff the distortion stays under one half.
    assert np.all(distortion(np.linspace(0.0, f_c * 0.98, 50)) < 0.5)


def test_bandwidth_none_when_distortion_stays_low():
    # A nearly memoryless smoother evaluated at zero delay tracks the ideal
    # response everywhere, so no distortion crossing exists.
    real = build(0, 0.05, 1, kt=1, q=0.0)
    assert response_report(real).f_c is None


def test_bandwidth_validates_grid():
    real = build(0, 0.8, 2, kt=1, q=8.5)
    with pytest.raises(ValueError):
        response_report(real, grid_size=1)


def test_report_bundles_grid_and_metrics():
    real = build(0, 0.8, 2, kt=2, q=8.5)
    report = response_report(real, grid_size=256)
    assert report.freqs.shape == (256,)
    assert report.responses.shape == (2, 256)
    assert report.distortion.shape == (256,)
    assert report.freqs[0] == 0.0
    assert report.freqs[-1] == pytest.approx(0.5)
    assert report.f_c == pytest.approx(response_report(real).f_c, abs=1e-4)
    assert report.group_delay_dc == pytest.approx(8.5, abs=1e-5)
    with pytest.raises(ValueError):
        response_report(real, grid_size=0)
    # The grid, its frequencies and their cos and sin are computed once per
    # size and shared read-only by every report, which holds the responses
    # response_matrix gives on them.
    other = response_report(build(2, 0.9, 3, kt=3, q=None), grid_size=256)
    assert other.freqs is report.freqs and not report.freqs.flags.writeable
    assert np.array_equal(report.responses, response_matrix(real, 2.0 * np.pi * report.freqs))
    assert all(a is b and not a.flags.writeable for a, b in zip(_grid(256), _grid(256)))
