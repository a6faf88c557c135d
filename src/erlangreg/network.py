"""Leaky-integrator cascade: block recursion, steady state, weight transforms.

A cascade of K identical leaky integrators y[n] = p*y[n-1] + u[n], each fed
the running sum of its predecessors plus the input, realizes every Erlang
weight of decay p up to shape kappa = K - 1.  In state-space form one
sample is w <- G w + H x with G = p * tril(ones(K, K)) and H = ones(K).
State k has impulse response phi_k[m] = C(m + k, k) * p**m; an integer
change of basis turns those into the monomial family m**k * p**m.

run_block runs the cascade in numpy alone, as a chunked first-order scan
(Blelloch, "Prefix sums and their applications", 1990) applied stage after
stage.  Within each sub-block of _SUB samples one matrix product applies
the lower-triangular Toeplitz of p**(i - s); the sub-block end values carry
through one product with the Toeplitz of p**(_SUB * m); and each carry
re-enters its sub-block as p**(i + 1) times the carry.  On a long piece
the carry comes first, from the ends of the stage's response from rest,
and enters as p times the carry added to the sub-block's first input
sample, so one product gives the whole stage; on a short one it is added
after that product.  Every coefficient is a non-negative power of p, so
nothing cancels and nothing divides by a power of p.  Input is cut into
pieces where a sample's number in its stream is a multiple of _PIECE, so
the tables stay the size of one piece and a stream fed in blocks gets the
floats of one call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "run_block",
    "steady_state_vector",
    "impulse_to_weight_transform",
]

_SUB = 32       # samples per sub-block of the scan
_PIECE = 8192   # samples per piece; a multiple of _SUB
# Above _OUTER_ROWS sub-block rows a stage folds its carries into its
# input: one product reads the ends of its response from rest, and p times
# each carry, added to its sub-block's first input sample, rides the
# stage's one product with `within`.  Up to _OUTER_ROWS rows the carry term
# is added after that product as a broadcast multiply of the carries with
# `offset`, which costs less per call than the extra product and the saved
# column.  Timed on one core of a 2-vCPU Xeon VM with numpy 2.4, medians of
# 30 alternating rounds of the 10/7 stacked cascade: at 4 rows (64 samples)
# the fold costs 30% more; at 32 rows the two tie; at 40 to 56 rows the fold
# saves 2-7%, at 64 rows 10% and at 512 rows (8192 samples) 22%.  The fold
# rounds the sum of each sample at the scale of the carry, so it is less
# accurate: over 192 random cases of 1 and 2 rows, 1000 to 8192 samples,
# its largest error was 2.5 times that of scipy's first-order filter, and
# the multiply's 1.3 times.  Hence the switch stays where the fold pays well.
_OUTER_ROWS = 64


@functools.lru_cache(maxsize=16)
def _scan_tables(p: float):
    """Powers of p for the blocked scan of one piece, read-only.

    Returns (within, offset, across, start), with i, s offsets in a
    sub-block and j, m sub-block numbers:
      within[s, i] = p**(i - s) for s <= i, else 0: the sub-block's
        response to its own input, from rest;
      offset[i] = p**(i + 1): its response to the carry into it;
      across[m, j] = p**(_SUB * (j - 1 - m)) for m < j, else 0: how the end
        of sub-block m reaches the carry into sub-block j;
      start[j] = p**(_SUB * j): how the state before the piece reaches it.
    Each entry is one pow() of p, and entries below the smallest normal
    float are zero, so no product runs on subnormals.
    """
    def powers(exponent, keep=True):
        table = np.where(keep, p ** np.maximum(exponent, 0).astype(float), 0.0)
        table[table < np.finfo(float).tiny] = 0.0
        table.flags.writeable = False
        return table

    i = np.arange(_SUB)
    j = np.arange(_PIECE // _SUB)
    lag = i[None, :] - i[:, None]
    lag_sub = j[None, :] - 1 - j[:, None]
    return (
        powers(lag, lag >= 0),
        powers(i + 1),
        powers(_SUB * lag_sub, lag_sub >= 0),
        powers(_SUB * j),
    )


def run_block(p: float, u: np.ndarray, w_prev, *, start: int = 0):
    """Advance a cascade of decay p over a whole block of input at once.

    w_prev is the state vector before the block (zeros for a cascade at
    rest); its length is the cascade order.  Returns the (order, len(u))
    state trajectories; column t is the state vector after consuming u[t],
    so the state after the block is the last column.  Stage k of the
    cascade is the (k+1)-fold leaky integration of the input.  Every
    eigenvalue of the cascade equals p, so it is stable for 0 < p < 1.

    start is the number of u[0] in its stream: the block is cut into
    pieces wherever start + t is a multiple of _PIECE.

    Several cascades of the same p run together when u is a 2-D array of
    input rows and w_prev a sequence of one state vector per row, longest
    first; the result is then the list of their trajectories.  Every row
    runs every stage of the longest cascade, a shorter one from a start
    vector zero-padded to that order, and keeps only its own stages.  Stage
    k of a row is then the same products on the same operands whatever the
    longest order is, so the leading stages of a run equal, bit for bit, a
    run from the leading entries of its start vectors.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"smoothing parameter must satisfy 0 < p < 1, got {p}")
    u = np.asarray(u, dtype=float)
    stacked = u.ndim == 2
    if not stacked:
        u, w_prev = u[None], [w_prev]
    w = list(w_prev)
    orders = [len(w_r) for w_r in w]
    if len(orders) != len(u):
        raise ValueError(f"{len(u)} input rows need as many state vectors, got {len(orders)}")
    if min(orders) < 1:
        raise ValueError("cascade order must be positive: w_prev is empty")
    if orders != sorted(orders, reverse=True):
        raise ValueError(f"state vectors must be ordered longest first, got orders {orders}")
    n = u.shape[1]
    # Room for whole sub-blocks: the scan writes them, the caller sees n.
    # Stage k of every cascade is one slab states[k], one row per cascade.
    states = np.empty((orders[0], len(orders), -(-n // _SUB) * _SUB))
    # Cut at 0, at n, and where start + t is a multiple of _PIECE.
    cuts = sorted({0, n, *range(-start % _PIECE, n, _PIECE)})
    for lo, hi in zip(cuts, cuts[1:]):
        if lo:
            w = [states[:order, r, lo - 1] for r, order in enumerate(orders)]
        if hi - lo == n:
            _scan_piece(p, u, w, states)
        else:
            # A piece off the sub-block grid pads past the block's end, so
            # only its real columns are kept.
            piece = np.empty(states.shape[:2] + (-(-(hi - lo) // _SUB) * _SUB,))
            _scan_piece(p, u[:, lo:hi], w, piece)
            states[:, :, lo:hi] = piece[:, :, :hi - lo]
    out = [states[:order, r, :n] for r, order in enumerate(orders)]
    return out if stacked else out[0]


def _scan_piece(p, u, state, states):
    """Run every stage over one piece of at most _PIECE samples, into states.

    u holds one input row per cascade and state one start vector each,
    longest first; states[k, r] receives stage k of cascade r, in whole
    sub-blocks.  The piece is zero-padded to whole sub-blocks; the padding
    trails every real sample, so it changes none of them.  A stage's
    signal is laid out one sub-block per row, cascade after cascade, so a
    single product of those rows with `within` gives the stage's response
    from rest, and a product with its last column the ends of that
    response, from which the carries follow.  Above _OUTER_ROWS rows the
    carries are folded into the signal before its product; below, they are
    added after it, read from the end column of that very product.  Every
    stage is the same products over all rows: a shorter start vector reads
    as zeros past its end, and its row's extra stages are computed and left
    for the caller to drop.
    """
    within, offset, across, start = _scan_tables(p)
    rows, n = u.shape
    order, _, width = states.shape
    n_sub = width // _SUB
    m = rows * n_sub
    across = across[:n_sub, :n_sub]
    start_terms = np.zeros((order, rows))
    for r, w in enumerate(state):
        start_terms[: len(w), r] = w
    start_terms = start_terms[:, :, None] * start[:n_sub]
    # Stage k as one sub-block per row.
    slabs = states.reshape(order, m, _SUB)

    signal = np.zeros((rows, width))
    signal[:, :n] = u
    signal = signal.reshape(m, _SUB)
    if m > _OUTER_ROWS:
        last = within[:, -1]
        for k in range(order):
            carry = (signal @ last).reshape(rows, n_sub) @ across
            carry += start_terms[k]
            carry *= p
            # From stage 1 on the signal is the previous stage's trajectory,
            # so its first column is restored after the product.
            head = signal[:, 0].copy()
            signal[:, 0] += carry.reshape(m)
            y = np.matmul(signal, within, out=slabs[k])
            signal[:, 0] = head
            signal = y
    else:
        ends = states[:, :, _SUB - 1::_SUB]
        carried = np.empty_like(signal)
        for k in range(order):
            y = np.matmul(signal, within, out=slabs[k])
            carry = ends[k] @ across
            carry += start_terms[k]
            y += np.multiply(carry.reshape(m, 1), offset, out=carried)
            signal = y


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


@functools.lru_cache(maxsize=32)
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

    The result is cached per order: every call with the same order returns
    the same read-only array, shared by all callers.
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
