import math

import numpy as np
import pytest

from erlangreg import (
    StateVector,
    build_network,
    impulse_to_weight_transform,
    initialize,
    run_block,
    steady_state_vector,
    step,
)

from oracles import WEIGHT_TRANSFORM_6, dense_states


def _rest(order):
    """State of a network that has seen no input yet."""
    return StateVector(w=np.zeros(order), n=-1)


def test_network_matrix_structure():
    net = build_network(4, 0.8)
    assert net.order == 4
    assert net.p == 0.8
    expected = 0.8 * np.tril(np.ones((4, 4)))
    assert np.array_equal(net.G, expected)
    assert np.array_equal(net.H, np.ones(4))
    assert not net.G.flags.writeable


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
    state = _rest(5)
    for n, x in enumerate(xs):
        state = step(net, state, x)
        assert state.n == n
        np.testing.assert_allclose(state.w, expected[:, n], rtol=1e-12, atol=1e-12)


def test_step_is_matrix_recursion():
    net = build_network(3, 0.7)
    state = _rest(3)
    w = np.zeros(3)
    rng = np.random.Generator(np.random.PCG64(8))
    for x in rng.random(50):
        state = step(net, state, x)
        w = net.G @ w + net.H * x
        np.testing.assert_allclose(state.w, w, rtol=1e-13, atol=1e-13)


def test_run_block_equals_per_sample_steps():
    rng = np.random.Generator(np.random.PCG64(9))
    xs = rng.standard_normal(300)
    net = build_network(6, 0.9)
    block = run_block(net, xs)
    state = _rest(6)
    for n, x in enumerate(xs):
        state = step(net, state, x)
        np.testing.assert_allclose(block[:, n], state.w, rtol=1e-12, atol=1e-12)


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
        np.testing.assert_allclose(net.G @ s + net.H, s, rtol=1e-12)
        for k in range(order):
            assert s[k] == pytest.approx((1.0 - p) ** -(k + 1), rel=1e-14)


def test_initialize_removes_startup_transient():
    net = build_network(5, 0.8)
    state = initialize(net, 3.5)
    for _ in range(20):
        state = step(net, state, 3.5)
        np.testing.assert_allclose(state.w, 3.5 * steady_state_vector(5, 0.8), rtol=1e-13)


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
