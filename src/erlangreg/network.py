"""Leaky-integrator cascade: block recursion, steady state, weight transforms.

A cascade of K identical leaky integrators y[n] = p*y[n-1] + u[n], each fed
the running sum of its predecessors plus the input, realizes every Erlang
weight of decay p up to shape kappa = K - 1.  In state-space form one
sample is w <- G w + H x with G = p * tril(ones(K, K)) and H = ones(K).
State k has impulse response phi_k[m] = C(m + k, k) * p**m; an integer
change of basis turns those into the monomial family m**k * p**m.

scipy is imported by run_block alone, on its first call: importing
scipy.signal takes over a second, and design, analysis, documents and the
per-sample path never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkMatrices",
    "build_network",
    "run_block",
    "steady_state_vector",
    "impulse_to_weight_transform",
]


@dataclass(frozen=True)
class NetworkMatrices:
    """A cascade of `order` leaky integrators of decay p.

    Every eigenvalue of its state matrix equals p, so the network is stable
    for p < 1.
    """

    order: int
    p: float


def build_network(order: int, p: float) -> NetworkMatrices:
    if order < 1 or int(order) != order:
        raise ValueError(f"network order must be a positive integer, got {order}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"smoothing parameter must satisfy 0 < p < 1, got {p}")
    return NetworkMatrices(order=int(order), p=p)


def run_block(net: NetworkMatrices, u: np.ndarray, w_prev: np.ndarray | None = None) -> np.ndarray:
    """Advance the cascade over a whole block of input at once.

    Returns the (order, len(u)) state trajectories; column t is the state
    vector after consuming u[t].  Stage k of the cascade is the (k+1)-fold
    leaky integration of the input, so the block reduces to chained
    first-order filters, which run vectorized.  w_prev is the state vector
    before the block (None for a network at rest); the state after the
    block is the last column.

    scipy.signal is imported here rather than at module level, so that
    only block runs pay its start-up cost; a repeated import is a
    sys.modules lookup.
    """
    from scipy.signal import lfilter

    u = np.asarray(u, dtype=float)
    states = np.empty((net.order, u.size))
    signal = u
    for k in range(net.order):
        carry = net.p * w_prev[k] if w_prev is not None else 0.0
        signal, _ = lfilter([1.0], [1.0, -net.p], signal, zi=[carry])
        states[k] = signal
    return states


def steady_state_vector(order: int, p: float) -> np.ndarray:
    """Fixed point of w = G w + H: the state under unit constant input.

    Component k settles at 1/(1 - p)**(k + 1): each stage multiplies the
    previous stage's settled value by the geometric sum 1/(1 - p).  Equals
    solve(I - G, H).
    """
    if order < 1 or int(order) != order:
        raise ValueError(f"network order must be a positive integer, got {order}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"smoothing parameter must satisfy 0 < p < 1, got {p}")
    k = np.arange(1, int(order) + 1)
    return (1.0 - p) ** (-k.astype(float))


def impulse_to_weight_transform(order: int) -> np.ndarray:
    """Integer matrix T mapping state impulse responses onto monomial weights.

    Row k satisfies sum_j T[k, j] * C(m + j, j) = m**k for all m >= 0, so
    T applied to the cascade states realizes the weights m**k * p**m.  In
    closed form,

        T[k, j] = sum_i S2(k, i) * i! * (-1)**(i - j) * C(i, j),

    with S2 the Stirling numbers of the second kind: m**k expands as
    sum_i S2(k, i) * i! * C(m, i), and C(m, i) = sum_j (-1)**(i - j) *
    C(i, j) * C(m + j, j) inverts the Vandermonde identity
    C(m + j, j) = sum_i C(j, i) * C(m, i).  The sums run over exact
    integers; entries stay below 2**53 through order 17.
    """
    if order < 1 or int(order) != order:
        raise ValueError(f"transform order must be a positive integer, got {order}")
    order = int(order)
    # stirling[k][i] = S2(k, i), from S2(k, i) = i*S2(k-1, i) + S2(k-1, i-1).
    stirling = [[1] + [0] * (order - 1)]
    for _ in range(1, order):
        prev = stirling[-1]
        stirling.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, order)])
    out = np.array(
        [
            [
                sum(
                    stirling[k][i] * math.factorial(i) * (-1) ** (i - j) * math.comb(i, j)
                    for i in range(j, k + 1)
                )
                for j in range(order)
            ]
            for k in range(order)
        ],
        dtype=float,
    )
    out.flags.writeable = False
    return out
