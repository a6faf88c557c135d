import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import run_block
from erlangreg.network import (
    _OUTER_ROWS,
    _PIECE,
    _SUB,
    impulse_to_weight_transform,
    steady_state_vector,
)

from oracles import WEIGHT_TRANSFORM_6, cascade_longdouble, dense_states, scan_reference


def _steps(p, xs, w):
    """The cascade advanced one sample at a time, one run_block call each."""
    columns = []
    for x in xs:
        w = run_block(p, [x], w)[:, 0]
        columns.append(w)
    return np.array(columns).T


def test_network_validation():
    with pytest.raises(ValueError, match="order must be positive"):
        run_block(0.8, np.ones(3), np.zeros(0))
    for p in (1.0, 0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="0 < p < 1"):
            run_block(p, np.ones(3), np.zeros(3))


def test_step_matches_dense_recursion():
    rng = np.random.Generator(np.random.PCG64(7))
    xs = rng.random(200)
    expected = dense_states(0.85, 5, xs)
    np.testing.assert_allclose(run_block(0.85, xs, np.zeros(5)), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(_steps(0.85, xs, np.zeros(5)), expected, rtol=1e-12, atol=1e-12)


def test_step_is_matrix_recursion():
    # The state-space form: w <- G w + H x with G = p tril(1), H = ones.
    p = 0.7
    G = p * np.tril(np.ones((3, 3)))
    rng = np.random.Generator(np.random.PCG64(8))
    xs = rng.random(50)
    block = run_block(p, xs, np.zeros(3))
    w = np.zeros(3)
    for n, x in enumerate(xs):
        w = G @ w + x
        np.testing.assert_allclose(block[:, n], w, rtol=1e-13, atol=1e-13)


def test_run_block_equals_per_sample_steps():
    rng = np.random.Generator(np.random.PCG64(9))
    xs = rng.standard_normal(300)
    np.testing.assert_allclose(
        run_block(0.9, xs, np.zeros(6)), _steps(0.9, xs, np.zeros(6)), rtol=1e-12, atol=1e-12
    )


def test_run_block_carries_state_across_splits():
    rng = np.random.Generator(np.random.PCG64(10))
    xs = rng.standard_normal(257)
    whole = run_block(0.8, xs, np.zeros(4))
    head = run_block(0.8, xs[:100], np.zeros(4))
    tail = run_block(0.8, xs[100:], head[:, -1])
    np.testing.assert_allclose(np.hstack([head, tail]), whole, rtol=1e-12, atol=1e-14)


def _lfilter_cascade(p, u, w_prev):
    """The cascade as chained scipy first-order filters, stage after stage."""
    lfilter = pytest.importorskip("scipy.signal").lfilter

    out = np.empty((len(w_prev), len(u)))
    signal = u
    for k, w in enumerate(w_prev):
        signal, _ = lfilter([1.0], [1.0, -p], signal, zi=[p * w])
        out[k] = signal
    return out


def _stage_errors(states, reference):
    """Per stage: max |error| over max |state| of the long-double reference."""
    scale = np.abs(reference).max(axis=1)
    return (np.abs(states - reference).max(axis=1) / scale).astype(float)


def _accuracy_case(p, order, n, seed, rows=1):
    """rows stacked cascades of n samples, orders order and order - 3 (at
    least 1), each against its long-double recursion."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.standard_normal((rows, n)) + 0.25
    w_prev = [rng.standard_normal(k) * steady_state_vector(k, p)
              for k in [order, max(order - 3, 1)][:rows]]
    got = run_block(p, u, w_prev) if rows > 1 else [run_block(p, u[0], w_prev[0])]
    references = [cascade_longdouble(p, u_r, w_r) for u_r, w_r in zip(u, w_prev)]
    errors = [_stage_errors(states, reference) for states, reference in zip(got, references)]
    # Both engines are a few ulps from the long-double recursion; the
    # blocked scan must stay within twice the first-order filter's error.
    for blocked in errors:
        assert blocked.max() <= 1e-14, blocked
    for u_r, w_r, reference, blocked in zip(u, w_prev, references, errors):
        lfiltered = _stage_errors(_lfilter_cascade(p, u_r, w_r), reference)
        assert blocked.max() <= 2.0 * lfiltered.max(), (blocked, lfiltered)


_GRID_P = [0.8, 0.9, 0.95, 0.99, 0.995, 0.999]


@pytest.mark.parametrize("order", [1, 4, 8, 13])
@pytest.mark.parametrize("p", _GRID_P)
def test_run_block_matches_long_double_recursion(p, order):
    _accuracy_case(p, order, 2500, seed=int(p * 1000) + order)


# One row and two stacked rows, at the most sub-block rows that add the
# carry after the product and at the fewest that fold it into the input.
@pytest.mark.parametrize("rows, n", [
    (rows, _OUTER_ROWS * _SUB // rows + extra) for rows in (1, 2) for extra in (0, 1)
])
@pytest.mark.parametrize("order", [1, 4, 8, 13])
@pytest.mark.parametrize("p", _GRID_P)
def test_run_block_matches_long_double_recursion_at_the_fold_switch(p, order, rows, n):
    _accuracy_case(p, order, n, seed=int(p * 1000) + order + n, rows=rows)


@pytest.mark.parametrize("p", [0.9, 0.999])
def test_run_block_accuracy_across_a_piece_boundary(p):
    # 9000 samples run as two pieces: the state carried across the cut at
    # 8192 must keep the same accuracy.
    _accuracy_case(p, 13, 9000, seed=17)


def test_stacked_cascades_equal_separate_runs():
    # Rows of one stacked call are the cascades run one by one, and the
    # shorter cascade is the leading stages of the longer one on its input.
    rng = np.random.Generator(np.random.PCG64(12))
    u = rng.standard_normal(9000)
    w_long, w_short = rng.standard_normal(7), rng.standard_normal(3)
    stacked = run_block(0.95, np.vstack([u, u * u]), [w_long, w_short])
    assert _stage_errors(stacked[0], run_block(0.95, u, w_long)).max() <= 1e-15
    assert _stage_errors(stacked[1], run_block(0.95, u * u, w_short)).max() <= 1e-15
    with pytest.raises(ValueError, match="longest first"):
        run_block(0.95, np.vstack([u, u]), [w_short, w_long])
    with pytest.raises(ValueError, match="as many state vectors"):
        run_block(0.95, np.vstack([u, u]), [w_long])


def test_impulse_responses_are_binomial():
    # State k of the cascade responds to a unit impulse with C(m+k, k) p**m.
    p = 0.75
    impulse = np.zeros(40)
    impulse[0] = 1.0
    states = run_block(p, impulse, np.zeros(4))
    for k in range(4):
        for m in range(40):
            expected = math.comb(m + k, k) * p**m
            assert states[k, m] == pytest.approx(expected, rel=1e-12)


def test_steady_state_is_fixed_point():
    for order, p in [(1, 0.5), (4, 0.8), (7, 0.95)]:
        s = steady_state_vector(order, p)
        np.testing.assert_allclose(run_block(p, [1.0], s)[:, 0], s, rtol=1e-12)
        for k in range(order):
            assert s[k] == pytest.approx((1.0 - p) ** -(k + 1), rel=1e-14)


def test_initialize_removes_startup_transient():
    # Started at x0 times the steady state, a constant x0 input stays put.
    start = 3.5 * steady_state_vector(5, 0.8)
    states = run_block(0.8, np.full(20, 3.5), start)
    np.testing.assert_allclose(states, start[:, None] * np.ones(20), rtol=1e-13)


def test_weight_transform_matches_printed_table():
    assert np.array_equal(impulse_to_weight_transform(6), WEIGHT_TRANSFORM_6)


def test_weight_transform_identity():
    # Row k of the transform turns binomial impulse responses into m**k:
    # sum_j T[k, j] C(m+j, j) == m**k for every age m, independent of p.
    for order in range(1, 17):
        transform = impulse_to_weight_transform(order)
        for k in range(order):
            for m in range(0, 40):
                total = sum(
                    int(transform[k, j]) * math.comb(m + j, j) for j in range(order)
                )
                assert total == m**k


def test_weight_transform_is_read_only():
    # The transform is cached per order, so every caller shares one array.
    with pytest.raises(ValueError):
        impulse_to_weight_transform(3)[0, 0] = 99.0
    assert impulse_to_weight_transform(3) is impulse_to_weight_transform(3)


# The cascades of the stream-block designs: (p, orders of the stacked signal
# and power cascades) for wide (6, 0.8, 4), base (2, 0.9, 2) and the change
# pair's slow filter (3, 0.8, 2).
@pytest.mark.parametrize("p, orders", [(0.8, (10, 7)), (0.9, (4, 3)), (0.8, (5, 4))])
def test_run_block_gives_the_floats_of_the_reference_scan(p, orders):
    # Not close: equal.  Any change to the rounding of the scan fails here,
    # on one row and on two stacked rows, across the sub-block edges and the
    # piece edge, with list and array states.
    rng = np.random.Generator(np.random.PCG64(23))
    sizes = [1, 2, 31, 32, 33, 64, 65, 2047, 2048, 2049, 4096, 8191, 8192, 8193, 20_000]
    sizes += rng.integers(1, 8193, 10).tolist()
    for n in sizes:
        u = 40.0 + 3.0 * rng.standard_normal(n)
        rows = np.vstack([u - 40.0, (u - 40.0) ** 2])
        w = [rng.standard_normal(k).tolist() for k in orders]
        assert np.array_equal(run_block(p, u, w[0]), scan_reference(p, u, w[0])), n
        for state in (w, [np.array(w_r) for w_r in w]):
            got = run_block(p, rows, state)
            want = scan_reference(p, rows, state)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), n


def _split_at_the_grid(p, rows, w, start):
    """run_block as two calls, cut where start + t first reaches the grid."""
    head = min(-start % _PIECE, rows.shape[1])
    first = run_block(p, rows[:, :head], w)
    if head:
        w = [states[:, -1] for states in first]
    return [np.hstack(pair) for pair in zip(first, run_block(p, rows[:, head:], w))]


@pytest.mark.parametrize("start", [0, 1, 8191, 8192, 12_345])
def test_start_cuts_the_block_on_the_stream_grid(start):
    # A block told its stream position gives the floats of two calls split
    # where start + t first reaches a multiple of _PIECE, bit for bit.  At
    # start 8191 a 64-sample block has a piece that starts off the 32-sample
    # grid and ends at the block's end; at 12 345 the last of 20 000 does.
    rng = np.random.Generator(np.random.PCG64(start))
    for n in [0, 1, 64, 8192, 8193, 20_000]:
        u = 40.0 + 3.0 * rng.standard_normal(n)
        rows = np.vstack([u - 40.0, (u - 40.0) ** 2])
        w = [rng.standard_normal(7).tolist(), rng.standard_normal(4).tolist()]
        want = _split_at_the_grid(0.9, rows, w, start)
        got = run_block(0.9, rows, w, start=start)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), n
        assert np.array_equal(run_block(0.9, u, w[0], start=start),
                              _split_at_the_grid(0.9, u[None], w[:1], start)[0]), n
        assert got[0].shape == (7, n) and got[1].shape == (4, n)


def _assert_leading_stages_are_shorter_runs(p, n, start, orders, prefixes, seed):
    """The leading (n1, n2) stages of a stacked run of the given orders equal
    a run from the leading n1 and n2 entries of its start vectors, bit for
    bit; so do those of a one-row run."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = 40.0 + 3.0 * rng.standard_normal(n)
    rows = np.vstack([u - 40.0, (u - 40.0) ** 2])
    w1, w2 = (rng.standard_normal(k) * steady_state_vector(k, p) for k in orders)
    long = run_block(p, rows, [w1, w2], start=start)
    alone = run_block(p, u, w1, start=start)
    for n1, n2 in prefixes:
        short = run_block(p, rows, [w1[:n1], w2[:n2]], start=start)
        assert np.array_equal(long[0][:n1], short[0]), (n1, n2)
        assert np.array_equal(long[1][:n2], short[1]), (n1, n2)
        assert np.array_equal(alone[:n1], run_block(p, u, w1[:n1], start=start)), n1


@pytest.mark.parametrize("start", [0, 3, 8000])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 8191, 8192, 8193, 20_000])
@pytest.mark.parametrize("p", [0.3, 0.8, 0.99])
def test_leading_stages_equal_a_shorter_run(p, n, start):
    # Every stage is one product over all stacked rows, so a stage's floats
    # do not depend on how many stages follow it: a stream of shorter
    # cascades can read its stages off a longer run of the same decay.
    _assert_leading_stages_are_shorter_runs(
        p, n, start, (17, 9), [(17, 1), (10, 7), (9, 9), (5, 4), (1, 1)], seed=n + start)


@hypothesis.given(
    p=st.floats(0.05, 0.999),
    n=st.integers(1, 9000),
    start=st.integers(0, 3 * _PIECE),
    orders=st.integers(1, 17).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
    data=st.data(),
)
def test_leading_stages_equal_a_shorter_run_property(p, n, start, orders, data):
    n1 = data.draw(st.integers(1, orders[0]))
    n2 = data.draw(st.integers(1, min(n1, orders[1])))
    _assert_leading_stages_are_shorter_runs(p, n, start, orders, [(n1, n2)], seed=n)
