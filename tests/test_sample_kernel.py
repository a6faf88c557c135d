"""Per-sample update() against a plain-loop reference, compared with ==.

Each design shape compiles its own per-sample code, so the shapes of the
whole grid are covered: kappa in {0, 1, 2, 4, 8}, p in {0.8 ... 0.99},
model orders 1-5 with min(kx, 3) outputs, on the estimator, the edge and
peak detectors and a change pair whose fast filter rides the slow
filter's longer cascades on zero-padded rows.
"""

import builtins
import functools
import itertools
import re

import hypothesis
import numpy as np
from hypothesis import strategies as st

from erlangreg import _kernel
from erlangreg import (
    ChangeDetector,
    DesignError,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
)
from erlangreg.estimator import current_frame

from oracles import (
    build,
    change_statistic,
    edge_statistic,
    peak_statistic,
    sample_cascade_step,
    sample_frame,
)

KAPPAS = (0, 1, 2, 4, 8)
DECAYS = (0.8, 0.9, 0.95, 0.98, 0.99)
ORDERS = (1, 2, 3, 4, 5)


@functools.lru_cache(maxsize=None)
def _design(kappa, p, kx, kt=None, q=None):
    try:
        return build(kappa, p, kx, kt=min(kx, 3) if kt is None else kt, q=q)
    except DesignError:
        return None


@functools.lru_cache(maxsize=None)
def _change_pair(kappa, p, kx):
    """Fast and slow filters at the fast one's optimal delay, or None."""
    fast = _design(0, p, kx, kt=1)
    if fast is None:
        return None
    slow = _design(max(kappa, 1), p, kx, kt=1, q=fast.spec.delay)
    return None if slow is None else (fast, slow)


class _PlainStream:
    """Float-list states of one stream, stepped by the reference loop."""

    def __init__(self, real, x0, sigma0_sq):
        self.p = real.spec.weight.p
        self.x0 = x0
        self.w1 = [0.0] * real.spec.n_first_states
        self.w2 = [s * sigma0_sq for s in real.steady_second.tolist()]

    def step(self, x):
        d = x - self.x0
        self.w1 = sample_cascade_step(self.w1, self.p, d)
        self.w2 = sample_cascade_step(self.w2, self.p, d * d)


def _check_shape(kappa, p, kx, xs, sigma0_sq):
    """Feed xs through every per-sample consumer of the shape and its reference."""
    real = _design(kappa, p, kx)
    pair = _change_pair(kappa, p, kx)
    consumers = []
    if real is not None:
        consumers.append(("estimator", StreamingEstimator(real, sigma0_sq), real))
        if real.spec.n_outputs >= 2:
            consumers.append(("edge", EdgeDetector(real, 3.0, sigma0_sq), real))
        if real.spec.n_outputs >= 3:
            consumers.append(("peak", PeakDetector(real, 3.0, sigma0_sq), real))
    if pair is not None:
        consumers.append(("change", ChangeDetector(*pair, 3.0, sigma0_sq), pair[1]))

    for kind, consumer, stream in consumers:
        plain = None
        for n, x in enumerate(xs):
            got = consumer.update(x)
            if plain is None:
                plain = _PlainStream(stream, x, sigma0_sq)
            else:
                plain.step(x)
            state = consumer.state if kind == "estimator" else consumer._state
            assert state.n == n
            assert state.w1 == plain.w1, (kind, n)
            assert state.w2 == plain.w2, (kind, n)
            if kind == "estimator":
                estimates, sigma2 = sample_frame(stream, plain.w1, plain.w2, plain.x0)
                assert got.estimates.tolist() == estimates, (kind, n)
                assert got.sigma_eps2 == sigma2, (kind, n)
                np.testing.assert_array_equal(got.covariance, sigma2 * stream.vrf)
                again = current_frame(state, stream)
                assert again.estimates.tolist() == estimates
                assert again.sigma_eps2 == sigma2
                np.testing.assert_array_equal(again.covariance, sigma2 * stream.vrf)
            elif kind == "edge":
                assert got == edge_statistic(stream, plain.w1, plain.w2), (kind, n)
            elif kind == "peak":
                assert got == peak_statistic(stream, plain.w1, plain.w2), (kind, n)
            else:
                assert got == change_statistic(pair[0], stream, plain.w1, plain.w2), (kind, n)
    return len(consumers)


def _signal(seed, size, offset):
    t = np.arange(size, dtype=float)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal(size)
    return (offset + 3.0 + 0.05 * t + 0.3 * np.sin(t / 5.0) + noise).tolist()


def test_every_grid_shape_equals_plain_loop():
    xs = _signal(7, 40, 0.0)
    checked = 0
    for kappa, p, kx in itertools.product(KAPPAS, DECAYS, ORDERS):
        checked += _check_shape(kappa, p, kx, xs, 0.25)
    # The consumers whose designs build today; accepting more designs only
    # raises the count.
    assert checked >= 247


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    kappa=st.sampled_from(KAPPAS),
    p=st.sampled_from(DECAYS),
    kx=st.sampled_from(ORDERS),
    seed=st.integers(0, 2**16),
    size=st.integers(1, 60),
    sigma0_sq=st.sampled_from([0.0, 0.25, 3.0]),
    offset=st.sampled_from([0.0, -40.0, 1e8]),
)
def test_per_sample_update_equals_plain_loop(kappa, p, kx, seed, size, sigma0_sq, offset):
    xs = _signal(seed, size, offset)
    hypothesis.assume(_check_shape(kappa, p, kx, xs, sigma0_sq) > 0)


def test_constant_stream_reads_exact_zeros():
    # With d = 0 the states stay exactly zero, and so do the derivatives
    # and the noise variance read from them.
    real = _design(2, 0.9, 3)
    est = StreamingEstimator(real)
    for _ in range(5):
        frame = est.update(-4.5)
    assert frame.estimates.tolist() == [-4.5, 0.0, 0.0]
    assert frame.sigma_eps2 == 0.0


def test_kernel_source_holds_no_design_numbers(monkeypatch):
    # Every float of a design reaches the kernel by name; the source text
    # holds identifiers, operators and the literal 0.0 only.
    sources = []

    def capture(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(_kernel, "compile", capture, raising=False)
    real = build(4, 0.95, 3, kt=3, q=None)
    fast, slow = _change_pair(4, 0.95, 2)
    for consumer in (StreamingEstimator(real), EdgeDetector(real, 3.0),
                     PeakDetector(real, 3.0), ChangeDetector(fast, slow, 3.0)):
        consumer.update(1.0)
        consumer.update(2.5)
    assert len(sources) == 4
    for source in sources:
        numbers = re.findall(r"(?<![\w.])\d[\w.]*", source)
        assert set(numbers) == {"0.0"}, source
