import dataclasses
import math

import numpy as np
import pytest

from erlangreg import (
    build_network,
    impulse_to_weight_transform,
    run_block,
    steady_state_vector,
)

from oracles import WEIGHT_TRANSFORM_6, dense_states


def _steps(net, xs, w=None):
    """The cascade advanced one sample at a time, one run_block call each."""
    columns = []
    for x in xs:
        w = run_block(net, [x], w)[:, 0]
        columns.append(w)
    return np.array(columns).T


def test_network_matrix_structure():
    net = build_network(4, 0.8)
    assert net.order == 4
    assert net.p == 0.8
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.p = 0.9


def test_network_validation():
    with pytest.raises(ValueError):
        build_network(0, 0.8)
    with pytest.raises(ValueError):
        build_network(3, 1.0)


def test_step_matches_dense_recursion():
    rng = np.random.Generator(np.random.PCG64(7))
    xs = rng.random(200)
    net = build_network(5, 0.85)
    expected = dense_states(0.85, 5, xs)
    np.testing.assert_allclose(run_block(net, xs), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(_steps(net, xs), expected, rtol=1e-12, atol=1e-12)


def test_step_is_matrix_recursion():
    # The state-space form: w <- G w + H x with G = p tril(1), H = ones.
    p = 0.7
    net = build_network(3, p)
    G = p * np.tril(np.ones((3, 3)))
    rng = np.random.Generator(np.random.PCG64(8))
    xs = rng.random(50)
    block = run_block(net, xs)
    w = np.zeros(3)
    for n, x in enumerate(xs):
        w = G @ w + x
        np.testing.assert_allclose(block[:, n], w, rtol=1e-13, atol=1e-13)


def test_run_block_equals_per_sample_steps():
    rng = np.random.Generator(np.random.PCG64(9))
    xs = rng.standard_normal(300)
    net = build_network(6, 0.9)
    np.testing.assert_allclose(run_block(net, xs), _steps(net, xs), rtol=1e-12, atol=1e-12)


def test_run_block_carries_state_across_splits():
    rng = np.random.Generator(np.random.PCG64(10))
    xs = rng.standard_normal(257)
    net = build_network(4, 0.8)
    whole = run_block(net, xs)
    head = run_block(net, xs[:100])
    tail = run_block(net, xs[100:], head[:, -1])
    np.testing.assert_allclose(np.hstack([head, tail]), whole, rtol=1e-12, atol=1e-14)


def test_impulse_responses_are_binomial():
    # State k of the cascade responds to a unit impulse with C(m+k, k) p**m.
    p = 0.75
    net = build_network(4, p)
    impulse = np.zeros(40)
    impulse[0] = 1.0
    states = run_block(net, impulse)
    for k in range(4):
        for m in range(40):
            expected = math.comb(m + k, k) * p**m
            assert states[k, m] == pytest.approx(expected, rel=1e-12)


def test_steady_state_is_fixed_point():
    for order, p in [(1, 0.5), (4, 0.8), (7, 0.95)]:
        net = build_network(order, p)
        s = steady_state_vector(order, p)
        np.testing.assert_allclose(run_block(net, [1.0], s)[:, 0], s, rtol=1e-12)
        for k in range(order):
            assert s[k] == pytest.approx((1.0 - p) ** -(k + 1), rel=1e-14)


def test_initialize_removes_startup_transient():
    # Started at x0 times the steady state, a constant x0 input stays put.
    net = build_network(5, 0.8)
    start = 3.5 * steady_state_vector(5, 0.8)
    states = run_block(net, np.full(20, 3.5), start)
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
    with pytest.raises(ValueError):
        impulse_to_weight_transform(3)[0, 0] = 99.0
