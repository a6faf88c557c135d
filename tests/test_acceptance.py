"""Acceptance gate: one test per numbered release criterion.

Each test prints a single ``[criterion N] PASS`` or ``FAIL`` line (run with
``pytest -s`` to see them) and then asserts, so the suite fails loudly if a
criterion regresses.  Reference numbers are frozen here on purpose; they were
cross-checked against independent oracles before being committed.
"""

import time

import numpy as np

from oracles import WEIGHT_TRANSFORM_6, batch_wls, brute_sum, build, vrf_by_parseval
from erlangreg import (
    ChangeDetector,
    DesignSpec,
    EdgeDetector,
    PeakDetector,
    TargetScenario,
    WeightSpec,
    build_realization,
    dispersion,
    erlang_sum,
    response_matrix,
    response_report,
    run_sequence,
    simulate_target,
    synth_change_waveform,
    synth_edge_waveform,
    synth_peak_waveform,
)
from erlangreg.network import impulse_to_weight_transform

# Optimal designs at p = 0.80, keyed by (model_order, kappa):
# (optimal delay q, noise gain VRF[0,0], half-distortion bandwidth f_c).
DESIGNS_P080 = {
    (2, 0): (8.50, 0.056, 0.042),
    (2, 1): (13.50, 0.042, 0.034),
    (2, 2): (17.93, 0.035, 0.029),
    (3, 0): (5.22, 0.083, 0.068),
    (3, 1): (9.03, 0.063, 0.052),
    (3, 2): (12.39, 0.052, 0.043),
}

# Optimal quadratic-model designs, keyed by (kappa, p).
DESIGNS_ORDER2 = {
    (0, 0.75): (6.50, 0.071, 0.054),
    (0, 0.80): (8.50, 0.056, 0.042),
    (0, 0.85): (11.83, 0.041, 0.031),
    (3, 0.75): (17.38, 0.039, 0.033),
    (3, 0.80): (22.41, 0.031, 0.026),
    (3, 0.85): (30.77, 0.022, 0.019),
}

# Tracking-oriented designs, keyed by (model_order, kappa, p).
TRACKING_DESIGNS = {
    (3, 2, 0.60): (5.41, 0.1197, 0.0989),
    (3, 2, 0.90): (26.23, 0.0247, 0.0205),
    (2, 0, 0.85): (11.83, 0.0405, 0.0306),
    (2, 2, 0.85): (24.61, 0.0254, 0.0210),
    (2, 3, 0.75): (17.38, 0.0393, 0.0330),
}

# Smoother comparison at model_order 2, p = 0.80: a fast kappa=0 design, a
# kappa=3 design at its own optimum, and the same kappa=3 shape forced to the
# fast design's delay.  Entries: (kappa, pinned q or None for auto,
# reference q, VRF[0,0], f_c).
SMOOTHER_TRIO = [
    (0, None, 8.50, 0.0556, 0.0420),
    (3, None, 22.41, 0.0305, 0.0256),
    (3, 8.50, 8.50, 0.0725, 0.0352),
]

# Weight time spread sigma_t in samples, rows following KAPPA_ROWS.
KAPPA_ROWS = (0, 1, 2, 3, 4, 8, 12, 16, 24)
SIGMA_T_TABLE = {
    0.7: (2.804, 3.965, 4.856, 5.607, 6.269, 8.411, 10.109, 11.560, 14.018),
    0.8: (4.481, 6.338, 7.762, 8.963, 10.021, 13.444, 16.158, 18.477, 22.407),
    0.9: (9.491, 13.423, 16.439, 18.982, 21.223, 28.474, 34.221, 39.133, 47.456),
}

# Time-frequency dispersion product sigma_t * sigma_Omega, finite for
# kappa >= 3 and independent of p.
DISPERSION_PRODUCTS = {3: 2.000, 4: 1.581, 8: 1.225, 12: 1.140, 16: 1.102, 24: 1.066}

GRID_MODEL_ORDERS = (1, 2, 3)
GRID_KAPPAS = (0, 1, 2, 3)
GRID_PS = (0.6, 0.75, 0.8, 0.85, 0.9)


def _report(num, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _check_design_point(kappa, p, model_order, expected, q=None):
    """Worst absolute deviations (q, vrf, f_c) of a built design from its
    reference triple.  A pinned q skips the delay comparison."""
    real = build(kappa, p, model_order, q=q)
    q_ref, vrf_ref, fc_ref = expected
    dq = 0.0 if q is not None else abs(real.spec.delay - q_ref)
    dv = abs(real.vrf[0, 0] - vrf_ref)
    df = abs(response_report(real).f_c - fc_ref)
    return dq, dv, df


def _scan_designs(table, fixed=None):
    worst = (0.0, 0.0, 0.0)
    for key, expected in table.items():
        if fixed == "p080":
            model_order, kappa = key
            p = 0.80
        elif fixed == "order2":
            kappa, p = key
            model_order = 2
        else:
            model_order, kappa, p = key
        devs = _check_design_point(kappa, p, model_order, expected)
        worst = tuple(max(a, b) for a, b in zip(worst, devs))
    return worst


def test_criterion_01_designs_at_p080():
    start = time.perf_counter()
    dq, dv, df = _scan_designs(DESIGNS_P080, fixed="p080")
    elapsed = time.perf_counter() - start
    ok = dq <= 0.01 and dv <= 0.001 and df <= 0.001 and elapsed < 5.0
    _report(1, ok, f"max dev q {dq:.4f}, vrf {dv:.5f}, f_c {df:.5f}, {elapsed:.2f}s")


def test_criterion_02_quadratic_designs_across_p():
    dq, dv, df = _scan_designs(DESIGNS_ORDER2, fixed="order2")
    ok = dq <= 0.01 and dv <= 0.001 and df <= 0.001
    _report(2, ok, f"max dev q {dq:.4f}, vrf {dv:.5f}, f_c {df:.5f}")


def test_criterion_03_tracking_and_smoother_designs():
    dq, dv, df = _scan_designs(TRACKING_DESIGNS)
    for kappa, pin, q_ref, vrf_ref, fc_ref in SMOOTHER_TRIO:
        qq, v, f = _check_design_point(kappa, 0.80, 2, (q_ref, vrf_ref, fc_ref),
                                       q=pin)
        dq, dv, df = max(dq, qq), max(dv, v), max(df, f)
    ok = dq <= 0.01 and dv <= 0.001 and df <= 0.001
    _report(3, ok, f"max dev q {dq:.4f}, vrf {dv:.5f}, f_c {df:.5f}")


def test_criterion_04_closed_sums_vs_brute_force():
    worst = 0.0
    for k in range(11):
        for p in (0.5, 0.7, 0.8, 0.9, 0.95):
            exact = erlang_sum(k, p)
            ref = brute_sum(k, p)
            worst = max(worst, abs(exact - ref) / abs(ref))
    _report(4, worst < 1e-10, f"max rel err {worst:.2e}")


def test_criterion_05_weight_transform_integer_exact():
    generated = impulse_to_weight_transform(6)
    ok = np.array_equal(generated, WEIGHT_TRANSFORM_6)
    _report(5, ok, "6x6 transform matches hand-checked integers exactly")


def test_criterion_06_parseval_closure_over_grid():
    start = time.perf_counter()
    worst = 0.0
    for model_order in GRID_MODEL_ORDERS:
        for kappa in GRID_KAPPAS:
            for p in GRID_PS:
                real = build(kappa, p, model_order, kt=model_order)
                # At the optimal delay the (0, 1) entry vanishes by
                # stationarity, so both sides are numerical zeros around
                # 1e-16; guard the denominator with the matrix scale so those
                # entries are checked as absolute zeros (within 1e-13 of the
                # largest entry) instead of as ratios of rounding noise.
                floor = 1e-7 * float(np.abs(real.vrf).max())
                for a in range(model_order):
                    for b in range(a, model_order):
                        closed = real.vrf[a, b]
                        summed = vrf_by_parseval(real, a, b)
                        err = abs(closed - summed) / max(abs(summed), floor)
                        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(6, ok, f"max rel err {worst:.2e} over 60 designs, {elapsed:.1f}s")


def test_criterion_07_recursive_matches_batch_wls():
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(20):
        kappa = int(rng.integers(0, 4))
        model_order = int(rng.integers(1, 4))
        p = float(rng.uniform(0.6, 0.9))
        real = build(kappa, p, model_order, kt=model_order)
        xs = 50.0 + np.cumsum(0.5 * rng.standard_normal(400))
        result, _ = run_sequence(real, xs)
        recursive = result.estimates[:, -1]
        reference = batch_wls(xs, kappa, p, model_order, model_order,
                              real.spec.delay)
        err = np.abs(recursive - reference) / np.maximum(np.abs(reference), 1e-9)
        worst = max(worst, float(err.max()))
    _report(7, worst < 1e-6, f"max rel err {worst:.2e} over 20 trials")


def test_criterion_08_moment_conditions_at_dc():
    h = 1e-4
    worst = 0.0
    for model_order in GRID_MODEL_ORDERS:
        for kappa in GRID_KAPPAS:
            for p in GRID_PS:
                real = build(kappa, p, model_order, kt=1)
                q = real.spec.delay
                h_plus, h_zero, h_minus = response_matrix(real, [h, 0.0, -h])[0]
                derivatives = [
                    h_zero,
                    (h_plus - h_minus) / (2.0 * h),
                    (h_plus - 2.0 * h_zero + h_minus) / h**2,
                ]
                for k in range(model_order):
                    exact = (-1j * q) ** k
                    err = abs(derivatives[k] - exact) / abs(exact)
                    worst = max(worst, err)
    _report(8, worst < 1e-3, f"max rel err {worst:.2e}")


def test_criterion_09_dispersion_tables():
    worst_t = 0.0
    for p, row in SIGMA_T_TABLE.items():
        for kappa, ref in zip(KAPPA_ROWS, row):
            got = dispersion(WeightSpec(kappa=kappa, p=p)).sigma_t
            worst_t = max(worst_t, abs(got - ref))

    worst_prod = 0.0
    worst_spread = 0.0
    for kappa, ref in DISPERSION_PRODUCTS.items():
        products = [
            dispersion(WeightSpec(kappa=kappa, p=p)).product
            for p in (0.7, 0.8, 0.9)
        ]
        worst_prod = max(worst_prod, abs(products[1] - ref))
        worst_spread = max(worst_spread, max(products) - min(products))

    ok = worst_t < 5e-4 and worst_prod <= 0.005 and worst_spread < 1e-3
    _report(9, ok, f"sigma_t dev {worst_t:.2e}, product dev {worst_prod:.2e}, "
                   f"p spread {worst_spread:.2e}")


def test_criterion_10_scenario_properties():
    timings = []

    # (a) tracking: the low-gain filter's 3-sigma band covers the truth; the
    # high-gain filter's acceleration uncertainty is at least 5x larger.
    # The estimates describe the trajectory q samples behind the newest
    # measurement, so the truth is rewound by that delay before comparing;
    # for constant acceleration the quadratic rewind is exact.
    start = time.perf_counter()
    truth, measurements = simulate_target(TargetScenario())
    low = build(2, 0.9, 3, kt=3, ts=0.01)
    high = build(2, 0.6, 3, kt=3, ts=0.01)
    low_result, _ = run_sequence(low, measurements)
    high_result, _ = run_sequence(high, measurements)
    lag = low.spec.delay * low.spec.sample_period
    pos, vel, acc = truth.T
    delayed = np.vstack([
        pos - vel * lag + 0.5 * acc * lag**2,
        vel - acc * lag,
        acc,
    ])
    post = slice(101, None)
    bands = 3.0 * np.sqrt(low_result.variances[:, post])
    inside = np.abs(delayed[:, post] - low_result.estimates[:, post]) <= bands
    coverage = float(inside.all(axis=0).mean())
    sigma_low = float(np.median(np.sqrt(low_result.variances[2, post])))
    sigma_high = float(np.median(np.sqrt(high_result.variances[2, post])))
    ratio = sigma_high / sigma_low
    ok_a = coverage >= 0.95 and ratio >= 5.0
    timings.append(time.perf_counter() - start)

    # (b) the peak detector fires once, inside the broad-target window, and
    # never on the narrow clutter spike or the sweeping background.
    start = time.perf_counter()
    ok_b = True
    for seed in (1, 2, 3):
        _, noisy = synth_peak_waveform(seed)
        detector = PeakDetector(build(2, 0.8, 3, kt=3), threshold=10.0)
        detector.run(noisy)
        detector.finish()
        ok_b = ok_b and len(detector.events) == 1
        ok_b = ok_b and all(280 <= e.n <= 320 for e in detector.events)
    timings.append(time.perf_counter() - start)

    # (c) the change detector flags both edges of the pulse riding the ramp.
    start = time.perf_counter()
    _, noisy = synth_change_waveform(5)
    detector = ChangeDetector(build(0, 0.8, 2), build(3, 0.8, 2, q=8.50),
                              threshold=3.0)
    detector.run(noisy)
    detector.finish()
    onsets = [e.n for e in detector.events]
    ok_c = (len(onsets) >= 2
            and any(120 <= n <= 200 for n in onsets)
            and any(230 <= n <= 310 for n in onsets))
    timings.append(time.perf_counter() - start)

    # (d) a cubic local model sharpens the edge statistic over a quadratic.
    start = time.perf_counter()
    _, noisy = synth_edge_waveform(1)
    peaks = {}
    for model_order in (2, 3):
        detector = EdgeDetector(build(2, 0.8, model_order, kt=2), threshold=3.0)
        z = detector.run(noisy)
        peaks[model_order] = float(np.abs(z).max())
    ok_d = peaks[3] > peaks[2]
    timings.append(time.perf_counter() - start)

    ok = ok_a and ok_b and ok_c and ok_d and max(timings) < 10.0
    _report(10, ok,
            f"a: coverage {coverage:.3f} ratio {ratio:.1f}, "
            f"b: {'ok' if ok_b else 'FAIL'}, c: events {onsets}, "
            f"d: peak {peaks[3]:.1f} > {peaks[2]:.1f}, "
            f"slowest {max(timings):.1f}s")


def test_criterion_11_noise_variance_consistency():
    rng = np.random.Generator(np.random.PCG64(11))
    true_var = 4.0
    xs = np.sqrt(true_var) * rng.standard_normal(100_000)
    real = build(1, 0.9, 2, kt=2)
    result, _ = run_sequence(real, xs)
    mean_est = float(result.sigma_eps2[1000:].mean())
    rel = abs(mean_est - true_var) / true_var
    _report(11, rel < 0.10, f"long-run mean {mean_est:.4f} vs {true_var}, "
                            f"rel dev {rel:.3f}")


def test_criterion_12_zero_transient_startup():
    level = 7.25
    real = build(2, 0.8, 3, kt=3)
    result, _ = run_sequence(real, np.full(50, level))
    dev_level = float(np.abs(result.estimates[0] - level).max())
    dev_deriv = float(np.abs(result.estimates[1:]).max())
    worst = max(dev_level, dev_deriv)
    _report(12, worst < 1e-9, f"max dev from flat {worst:.2e} from sample 0")
