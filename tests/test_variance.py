import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import (
    DesignSpec,
    IllConditionedDesignError,
    WeightSpec,
    build_realization,
    erlang_sum,
    optimal_delay,
    vrf_matrix,
)
from erlangreg.design import _delay_polynomial, _factor, _horner, _real_roots

from oracles import (
    DESIGN_GRID,
    build,
    delay_search_reference,
    fading_memory_vrf,
    real_roots_reference,
    vrf_by_parseval,
)


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


@pytest.mark.parametrize("theta", [0.5, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999])
@pytest.mark.parametrize("kx, q, output", [(1, 0, 0), (2, 0, 0), (2, -1, 0), (2, 0, 1),
                                           (2, -1, 1)])
def test_kappa_0_vrf_is_the_fading_memory_closed_form(theta, kx, q, output):
    # Morrison's published gains; the worst relative error measured on
    # this grid is 1.45e-14 (theta 0.999, velocity).
    got = build(0, theta, kx, kt=kx, q=q).vrf[output, output]
    want = fading_memory_vrf(theta, kx, q, output)
    assert abs(got - want) <= 1e-13 * want, (got, want)


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
        coeffs = _delay_polynomial(spec, _factor(spec), output)
        for q in (-2.0, 0.0, 3.7, 11.0):
            direct = vrf_matrix(_spec(2, 0.8, 3, 3, q=q))[output, output]
            poly = float(np.polyval(coeffs[::-1], q))
            assert poly == pytest.approx(direct, rel=1e-11)


def test_delay_search_equals_np_roots_and_np_polyval():
    # The closed-form root of a linear derivative and the Horner values in
    # Python floats give every accepted design and output the very delay
    # and candidates that np.roots and np.polyval give.
    searched = 0
    for kappa, p, kx in DESIGN_GRID:
        spec = _spec(kappa, p, kx, min(kx, 3))
        try:
            factor = _factor(spec)
        except IllConditionedDesignError:
            continue
        centroid = erlang_sum(kappa + 1, p) / erlang_sum(kappa, p)
        for output in range(kx):
            report = optimal_delay(spec, output)
            coeffs = _delay_polynomial(spec, factor, output)
            q_best, candidates = delay_search_reference(coeffs, centroid)
            assert report.q_optimal == q_best, (kappa, p, kx, output)
            assert report.candidates == candidates, (kappa, p, kx, output)
            searched += 1
    assert searched == 245


def _same(a, b):
    """Equal floats, zeros of one sign: repr tells -0.0 from 0.0."""
    return list(map(repr, a)) == list(map(repr, b))


_SLOPES = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150) | st.just(0.0)


@hypothesis.settings(max_examples=400)
@hypothesis.given(st.floats(-1e150, 1e150), _SLOPES)
@hypothesis.example(3.0, 0.0)
@hypothesis.example(0.0, 2.0)
@hypothesis.example(-0.0, 2.0)
@hypothesis.example(1e-130, 1e10)
def test_linear_root_is_the_companion_eigenvalue(d0, d1):
    # Across the magnitudes where LAPACK rescales a 1x1 matrix and where it
    # does not, the closed form returns what np.roots does, or defers to it.
    assert _same(_real_roots([d0, d1]), real_roots_reference([d0, d1]))


@hypothesis.settings(max_examples=200)
@hypothesis.given(st.lists(st.floats(-1e10, 1e10), min_size=1, max_size=9),
                  st.floats(-1e4, 1e4))
@hypothesis.example([-0.0], 2.0)
@hypothesis.example([-0.0, 1.0], 0.0)
def test_horner_is_np_polyval(coeffs, x):
    assert _same([_horner(coeffs, x)], [float(np.polyval(coeffs[::-1], x))])


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
    # The centroid of m**2 p**m: S_3(p) / S_2(p) = (1 + 4p + p**2) / (1 - p**2),
    # 121 / 9 at p 0.8.
    report = optimal_delay(_spec(2, 0.8, 1))
    assert report.q_optimal == pytest.approx(121.0 / 9.0, rel=1e-14)
    assert len(report.candidates) == 0


def test_public_gains_reject_an_ill_conditioned_overlap():
    # Condition 1.16e15: the public delay search and gain matrix fail at the
    # conditioning stage, as build_realization does, and never reach the
    # delay (output 1 found no minimum at all, output 0 and 2 blamed it).
    spec = _spec(4, 1e-8, 3, kt=3)
    with pytest.raises(IllConditionedDesignError) as built:
        build_realization(spec)
    for output in range(3):
        with pytest.raises(IllConditionedDesignError) as got:
            optimal_delay(spec, output=output)
        assert str(got.value) == str(built.value)
    with pytest.raises(IllConditionedDesignError) as got:
        vrf_matrix(_spec(4, 1e-8, 3, kt=3, q=2.0))
    assert str(got.value) == str(built.value)


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
