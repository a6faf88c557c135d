import copy
import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from erlangreg import (
    DesignError,
    DesignSpec,
    IllConditionedDesignError,
    WeightSpec,
    build_realization,
    erlang_sum,
    optimal_delay,
    response_report,
    run_sequence,
    vrf_matrix,
)

import erlangreg.design
from erlangreg.design import _gram_pair, orthonormal_transforms, synthesis_matrix
from erlangreg.document import _ARRAY_FIELDS
from erlangreg.network import steady_state_vector

from oracles import build


def _spec(kappa=2, p=0.8, kx=3, kt=2, q=5.0, ts=1.0):
    return DesignSpec(
        weight=WeightSpec(kappa=kappa, p=p),
        model_order=kx,
        n_outputs=kt,
        delay=q,
        sample_period=ts,
    )


def test_spec_validation():
    with pytest.raises(DesignError):
        _spec(kx=0)
    with pytest.raises(DesignError):
        _spec(kx=2, kt=3)
    with pytest.raises(DesignError):
        _spec(kt=0)
    for ts in (0.0, float("nan"), float("inf")):
        with pytest.raises(DesignError):
            _spec(ts=ts)
    with pytest.raises(DesignError):
        _spec(q=float("nan"))


def test_state_counts():
    spec = _spec(kappa=2, kx=3)
    assert spec.n_first_states == 5
    assert spec.n_second_states == 3


def test_overlap_entries_are_weighted_sums():
    spec = _spec(kappa=1, p=0.7, kx=3)
    overlap, _ = _gram_pair(spec)
    for a in range(3):
        for b in range(3):
            assert overlap[a, b] == pytest.approx(erlang_sum(a + b + 1, 0.7), rel=1e-13)
    np.testing.assert_allclose(overlap, overlap.T)


def test_squared_overlap_entries():
    spec = _spec(kappa=2, p=0.8, kx=2)
    _, squared = _gram_pair(spec)
    for a in range(2):
        for b in range(2):
            expected = erlang_sum(a + b + 4, 0.64)
            assert squared[a, b] == pytest.approx(expected, rel=1e-13)


def test_orthonormal_transforms_whiten_overlap():
    spec = _spec(kappa=2, p=0.85, kx=4, kt=4, q=3.0)
    overlap, _ = _gram_pair(spec)
    to_on, from_on = orthonormal_transforms(overlap)
    np.testing.assert_allclose(to_on @ overlap @ to_on.T, np.eye(4), atol=1e-10)
    # from_orthonormal is the transpose of to_orthonormal and inverts it
    # through the overlap metric.
    np.testing.assert_allclose(from_on, to_on.T, rtol=1e-14)
    np.testing.assert_allclose(from_on @ to_on @ overlap, np.eye(4), atol=1e-9)
    assert np.allclose(to_on, np.tril(to_on))
    assert np.allclose(from_on, np.triu(from_on))


def test_basis_change_on_the_design_grid():
    # Every design of the conditioning grid kappa x p x kx 1-5 that builds.
    built = 0
    for kappa in (0, 1, 2, 4, 8):
        for p in (0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999):
            for kx in range(1, 6):
                try:
                    real = build_realization(_spec(kappa, p, kx, kt=1, q=0.0))
                except IllConditionedDesignError:
                    continue
                built += 1
                design = f"kappa={kappa} p={p} kx={kx}"
                overlap, _ = _gram_pair(real.spec)
                to_on, from_on = orthonormal_transforms(overlap)[0], real.from_orthonormal
                assert np.array_equal(from_on, to_on.T), design
                np.testing.assert_allclose(
                    to_on @ overlap @ to_on.T, np.eye(kx), rtol=0, atol=1e-10,
                    err_msg=design,
                )
                # LAPACK's triangular solves are the oracle for both factors.
                lower = np.linalg.cholesky(overlap)
                for got, oracle in (
                    (to_on, solve_triangular(lower, np.eye(kx), lower=True)),
                    (from_on, solve_triangular(lower.T, np.eye(kx), lower=False)),
                ):
                    assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle)), design
    assert built >= 100


def test_orthonormal_transforms_reject_indefinite():
    with pytest.raises(DesignError):
        orthonormal_transforms(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_synthesis_matrix_entries():
    spec = _spec(kappa=0, p=0.8, kx=3, kt=3, q=2.0, ts=0.5)
    syn = synthesis_matrix(spec)
    # Row 0 evaluates the polynomial at age q; row 1 is -1/ts times its
    # age derivative; row 2 adds another factor.
    np.testing.assert_allclose(syn[0], [1.0, 2.0, 4.0])
    np.testing.assert_allclose(syn[1], [0.0, -2.0, -8.0])
    np.testing.assert_allclose(syn[2], [0.0, 0.0, 8.0])


def test_synthesis_needs_resolved_delay():
    spec = DesignSpec(weight=WeightSpec(kappa=0, p=0.8), model_order=2)
    with pytest.raises(DesignError):
        synthesis_matrix(spec)


def test_build_resolves_auto_delay():
    real = build(kappa=0, p=0.8, kx=2)
    assert real.spec.delay == pytest.approx(8.50, abs=0.01)


def test_build_rejects_ill_conditioned():
    with pytest.raises(IllConditionedDesignError) as err:
        build(kappa=0, p=0.999, kx=8, q=0.0)
    assert err.value.cond > 1e12
    assert "0.999" in str(err.value)


@pytest.mark.parametrize("kx,kt,q", [(3, 3, 1e200), (3, 3, 1e100), (3, 3, -1e100),
                                     (2, 1, 1e170), (4, 4, 1e80)])
def test_overflowing_delay_raises_design_error(kx, kt, q):
    # A pinned delay whose powers overflow used to escape as OverflowError,
    # or to build NaN and infinite rows behind a numpy RuntimeWarning.
    spec = _spec(kappa=2, p=0.9, kx=kx, kt=kt, q=q)
    for make in (build_realization, vrf_matrix):
        with pytest.raises(DesignError, match=re.escape(f"delay {q!r} overflows")):
            make(spec)
    real = build_realization(_spec(kappa=2, p=0.9, kx=kx, kt=kt, q=1e10))
    assert np.isfinite(real.state_output).all() and np.isfinite(real.vrf).all()


@pytest.mark.parametrize("kappa, p, kx", [(300, 0.99, 1), (140, 0.99, 1), (150, 0.9, 1),
                                          (120, 0.999, 1), (100, 0.9999, 1), (80, 0.99, 2)])
def test_weight_sums_beyond_float_range_raise_design_error(kappa, p, kx):
    # These escaped from erlang_sum as OverflowError or ZeroDivisionError,
    # or reached numpy as infinite sums, whose error named no design.
    spec = _spec(kappa=kappa, p=p, kx=kx, kt=1, q=1.0)
    named = re.escape(f"overflow the float range (kappa={kappa}, p={p}, model_order={kx})")
    for make in (build_realization, vrf_matrix, optimal_delay):
        with pytest.raises(DesignError, match=named):
            make(spec)
    with pytest.raises(DesignError, match=named):
        build_realization(_spec(kappa=kappa, p=p, kx=kx, kt=1, q=None))


@pytest.mark.parametrize("ts", [1e200, 1e160, 1e100])
def test_sample_period_whose_gains_underflow_is_named(ts):
    # The derivative scale (1/sample_period)**k underflowed: the design
    # built with a second derivative of noise gain 0 and readout row 0, so
    # its Z read 0 forever.  optimal_delay for the slope raised ValueError.
    named = "^" + re.escape(f"sample period {ts!r} underflows the design: ")
    makers = (build_realization, vrf_matrix, optimal_delay,
              lambda spec: optimal_delay(spec, output=1),
              lambda spec: optimal_delay(spec, output=2))
    for make in makers:
        with pytest.raises(DesignError, match=named) as err:
            make(_spec(kappa=2, p=0.9, kx=3, kt=3, q=None if make is not vrf_matrix else 5.0,
                       ts=ts))
        assert "delay" not in str(err.value)


def test_overflowing_delay_polynomial_scale_names_the_sample_period():
    # (1/sample_period)**4 of the curvature's noise gain escaped as a bare
    # OverflowError.
    spec = _spec(kappa=2, p=0.9, kx=3, kt=3, q=None, ts=1e-200)
    with pytest.raises(DesignError, match=r"^sample period 1e-200 overflows the design"):
        optimal_delay(spec, output=2)
    # The polynomial does not involve the delay, so a pinned one is not blamed.
    with pytest.raises(DesignError, match=r"^sample period 1e-200 overflows the design"):
        optimal_delay(_spec(kappa=2, p=0.9, kx=3, kt=1, q=1e200, ts=1e-200), output=2)


@pytest.mark.parametrize("kappa, kx", [(86, 1), (100, 1), (200, 1), (84, 3)])
def test_finite_weight_sums_past_the_closed_form_orders_are_rejected(kappa, kx):
    # Their sums of order 172 or more are finite, but a cascade of 87 or
    # more stages reads out garbage (kappa 100 read -6.6e126 for a level of
    # 5), so these designs stay rejected as they were while those sums
    # raised.
    named = re.escape(f"reach order {2 * (kappa + kx - 1)}, past 171, where its cascade of "
                      f"{kappa + kx} stages") + ".*" + re.escape(f"(kappa={kappa}, p=1e-08, ")
    for make, q in ((build_realization, None), (build_realization, 1.0), (vrf_matrix, 1.0),
                    (optimal_delay, None)):
        with pytest.raises(DesignError, match=named):
            make(_spec(kappa=kappa, p=1e-8, kx=kx, kt=1, q=q))


def test_p_whose_square_underflows_is_named():
    # p**2 rounds to 0, which the squared-weight sums used to report as
    # "0 < p < 1, got 0.0".
    spec = _spec(kappa=2, p=1e-300, kx=2, kt=1, q=1.0)
    for make in (build_realization, vrf_matrix, optimal_delay):
        with pytest.raises(DesignError, match=re.escape("p=1e-300 is so small that its square")):
            make(spec)


@pytest.mark.parametrize("q", [None, 5.0])
def test_overflowing_sample_period_is_named(q):
    # The derivative scale (1/sample_period)**2 overflows; the error used to
    # blame the delay and advise pinning a smaller one.
    spec = _spec(kappa=2, p=0.9, kx=3, kt=3, q=q, ts=1e-200)
    makers = (build_realization, optimal_delay) + ((vrf_matrix,) if q is not None else ())
    for make in makers:
        with pytest.raises(DesignError, match=r"^sample period 1e-200 overflows") as err:
            make(spec)
        assert "delay" not in str(err.value)
    # A pinned delay that overflows the design at a unit period is named.
    with pytest.raises(DesignError, match=r"^delay 1e\+200 overflows .*pin a delay"):
        build_realization(_spec(kappa=2, p=0.9, kx=3, kt=3, q=1e200, ts=1e-200))
    assert np.isfinite(build_realization(_spec(kappa=2, p=0.9, kx=3, kt=3, ts=1e-50)).vrf).all()


_UNIT_DESIGNS = [(0, 0.8, 2, 2), (2, 0.9, 3, 3), (6, 0.8, 4, 3), (8, 0.95, 3, 3), (1, 0.9, 4, 4)]


@pytest.mark.parametrize("kappa, p, kx, kt", _UNIT_DESIGNS)
@pytest.mark.parametrize("q", [None, 3.5, -1.0])
def test_sample_period_is_a_unit(kappa, p, kx, kt, q):
    # A design at sample period ts is its unit-period design with output k's
    # rows times s_k = (1/ts)**k and vrf entry (a, b) times s_a s_b; the
    # delay and residual mass do not depend on the period.
    unit = build_realization(_spec(kappa, p, kx, kt, q=q))
    for ts in (2.0**-7, 0.5, 4.0, 2.0**7, 0.01, 1e-3, 0.37, 60.0):
        real = build_realization(_spec(kappa, p, kx, kt, q=q, ts=ts))
        scales = np.array([(1.0 / ts) ** k for k in range(kt)])
        state_output = unit.state_output * scales[:, None]
        vrf = unit.vrf * np.outer(scales, scales)
        assert real.spec.delay == unit.spec.delay
        assert real.residual_mass == unit.residual_mass
        for name in ("steady_second", "from_orthonormal", "coeff_output", "power_output"):
            assert np.array_equal(getattr(real, name), getattr(unit, name)), name
        if math.log2(ts).is_integer():
            # A power of two scales without rounding.
            assert np.array_equal(real.state_output, state_output), ts
            assert np.array_equal(real.vrf, vrf), ts
            continue
        row_max = np.abs(state_output).max(axis=1, keepdims=True)
        assert (np.abs(real.state_output - state_output) <= 1e-12 * row_max).all(), ts
        # |vrf[a, b]| <= sqrt(vrf[a, a] vrf[b, b]), which is the scale of an
        # entry: at the optimal delay the level-slope covariance is 0 up to
        # rounding, so the row's largest entry would be no scale for it.
        bound = np.sqrt(np.outer(vrf.diagonal(), vrf.diagonal()))
        assert (np.abs(real.vrf - vrf) <= 1e-12 * bound).all(), ts


def test_delay_polynomial_scale_is_checked_against_its_coefficients():
    # At 1e-77 the curvature's scale squared, 1e308, is a normal float, but
    # it took the delay polynomial's coefficients to infinity: np.roots
    # warned and raised LinAlgError.  The roots do not depend on the scale.
    unit = optimal_delay(_spec(0, 0.8, 4, 3, q=None), output=2)
    fine = optimal_delay(_spec(0, 0.8, 4, 3, q=None, ts=1e-77), output=2)
    assert fine.q_optimal == pytest.approx(unit.q_optimal, rel=1e-12)
    assert fine.candidates[0][1] == pytest.approx(unit.candidates[0][1] * 1e308, rel=1e-12)
    with pytest.raises(DesignError, match=r"^sample period 1e-78 overflows the design"):
        optimal_delay(_spec(0, 0.8, 4, 3, q=None, ts=1e-78), output=2)


@pytest.mark.parametrize("q", [None, 3.5, -1.0, 1e100, 1e200, -1e300])
def test_unit_sample_period_is_never_named(q):
    # At a unit period the scale is 1, so a range error names the weight
    # sums, the conditioning or the delay, never the sample period.
    designs = _UNIT_DESIGNS + [(300, 0.99, 1, 1), (0, 0.999, 8, 3), (84, 1e-8, 3, 3),
                               (2, 1e-300, 2, 1)]
    for kappa, p, kx, kt in designs:
        spec = _spec(kappa, p, kx, kt, q=q)
        calls = [build_realization] + [lambda spec, k=k: optimal_delay(spec, output=k)
                                       for k in range(kx)]
        if q is not None:
            calls += [vrf_matrix, synthesis_matrix]
        for call in calls:
            try:
                call(spec)
            except DesignError as err:
                assert "sample period" not in str(err), (kappa, p, kx, kt, q)


def test_array_values_compare_by_identity():
    # Their generated __eq__ compared arrays and raised, and hashing failed
    # on the arrays.  Identity makes them usable as keys and list members.
    real = build(kappa=2, p=0.9, kx=3, kt=2)
    values = [real, optimal_delay(real.spec), run_sequence(real, np.arange(5.0))[0],
              response_report(real, 16)]
    for value in values:
        twin = copy.deepcopy(value)
        assert value == value and value != twin
        assert value in [twin, value] and twin not in [value]
        assert {value: 1, twin: 2}[value] == 1


def test_realization_matrices_are_frozen():
    real = build(kappa=1, p=0.8, kx=2, kt=2)
    for field in _ARRAY_FIELDS + ("vrf",):
        with pytest.raises(ValueError):
            getattr(real, field)[..., 0] = 0.0


def test_constant_signal_reproduced_from_steady_state():
    # coeff/state outputs applied to the constant-input fixed point must
    # recover the constant and zero derivatives: the regression of a flat
    # signal is flat.
    real = build(kappa=2, p=0.85, kx=3, kt=3, q=4.0)
    outputs = real.state_output @ steady_state_vector(real.spec.n_first_states, 0.85)
    np.testing.assert_allclose(outputs, [1.0, 0.0, 0.0], atol=1e-11)


def test_power_output_recovers_weight_mass():
    # The power row applied to the second cascade's fixed point integrates
    # the raw weight: sum of m**kappa p**m.
    real = build(kappa=3, p=0.8, kx=2, q=1.0)
    mass = float(real.power_output @ real.steady_second)
    assert mass == pytest.approx(erlang_sum(3, 0.8), rel=1e-12)


def test_residual_mass_positive_and_less_than_total():
    for kappa, p, kx in [(0, 0.8, 1), (2, 0.9, 3), (3, 0.75, 2)]:
        real = build(kappa=kappa, p=p, kx=kx, q=2.0)
        assert 0.0 < real.residual_mass < erlang_sum(kappa, p)


@pytest.mark.parametrize("kappa,p,kx,kt", [(0, 0.8, 1, 1), (2, 0.9, 2, 2), (6, 0.8, 4, 3),
                                           (1, 0.95, 3, 1), (0, 0.8, 5, 3)])
@pytest.mark.parametrize("q", [None, 3.5])
def test_build_takes_each_gram_sum_once(monkeypatch, kappa, p, kx, kt, q):
    # One pass: the overlap and the squared overlap each need 2 kx - 1
    # distinct sums S_k, and every other design quantity reads those two,
    # but for the delay of kx 1, the centroid S_{kappa+1}(p) / S_kappa(p),
    # whose numerator is in neither.
    calls = []

    def counting(k, p):
        calls.append((k, p))
        return erlang_sum(k, p)

    monkeypatch.setattr(erlangreg.design, "erlang_sum", counting)
    build_realization(_spec(kappa, p, kx, kt, q))
    assert len(calls) == 2 * (2 * kx - 1) + (kx == 1 and q is None)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("kappa,p,kx,kt", [(0, 0.8, 1, 1), (2, 0.9, 2, 2), (6, 0.8, 4, 3),
                                           (8, 0.95, 3, 3)])
def test_public_noise_gains_equal_the_built_ones(kappa, p, kx, kt):
    spec = _spec(kappa, p, kx, kt, q=None)
    real = build_realization(spec)
    report = optimal_delay(spec)
    assert report.q_optimal == real.spec.delay
    assert np.array_equal(report.vrf, real.vrf)
    assert np.array_equal(vrf_matrix(real.spec), real.vrf)
