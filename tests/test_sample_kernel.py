"""Per-sample update() against a plain-loop reference, compared with ==.

Each design shape compiles its own per-sample code, so the shapes of the
whole grid are covered: kappa in {0, 1, 2, 4, 8}, p in {0.8 ... 0.99},
model orders 1-5 with min(kx, 3) outputs, on the estimator, the edge and
peak detectors and a change pair whose fast filter rides the slow
filter's longer cascades on zero-padded rows.
"""

import builtins
import copy
import functools
import itertools
import math
import pickle
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import _kernel
from erlangreg import (
    ChangeDetector,
    DesignError,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
)
from erlangreg.estimator import _frame

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
            state = consumer.state
            assert state.n == n
            assert list(state.w1) == plain.w1, (kind, n)
            assert list(state.w2) == plain.w2, (kind, n)
            if kind == "estimator":
                estimates, sigma2 = sample_frame(stream, plain.w1, plain.w2, plain.x0)
                assert got.estimates.tolist() == estimates, (kind, n)
                assert got.sigma_eps2 == sigma2, (kind, n)
                np.testing.assert_array_equal(got.covariance, sigma2 * stream.vrf)
                # The read-only twin, which starts a stream, reads the same.
                make = _kernel.estimator_kernel(stream, _frame)
                _, read, _ = make(state.w1, state.w2, state.x0, state.n)
                assert read() == (n, tuple(estimates), sigma2, stream.vrf)
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
    _kernel._detector_kernel.cache_clear()  # detectors of equal readouts share a kernel
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


def test_kernel_multiplies_only_nonzero_row_entries(monkeypatch):
    # One product per nonzero entry of every readout row, in step() and in
    # read(); none for the zero entries, such as a coefficient row's
    # entries past state kappa + i.
    sources = []

    def capture(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(_kernel, "compile", capture, raising=False)
    _kernel._detector_kernel.cache_clear()  # detectors of equal readouts share a kernel
    real = build(2, 0.9, 2, kt=2, q=None)
    fast, slow = _change_pair(3, 0.8, 2)
    consumers = (StreamingEstimator(real), EdgeDetector(real, 3.0),
                 ChangeDetector(fast, slow, 3.0))
    for consumer in consumers:
        consumer.update(1.0)
        consumer.update(2.5)
    assert len(sources) == 3
    rows = [[real.coeff_output, real.power_output, real.state_output]]
    for detector in consumers[1:]:
        value_row, noise_terms = detector._rows
        rows.append([value_row] + [row for filt, _ in noise_terms
                                    for row in (filt.coeff_output, filt.power_output)])
    zeros = []
    for source, consumer_rows in zip(sources, rows):
        nonzero = sum(np.count_nonzero(row) for row in consumer_rows)
        zeros.append(sum(np.size(row) for row in consumer_rows) - nonzero)
        assert len(re.findall(r"\bk\d+ \* [aq]\d+\b", source)) == 2 * nonzero, source
    # The rows hold zeros: 1 each in the base design's coefficient rows, 2
    # in the change pair's, whose noise rows are each filter's own.
    assert zeros == [1, 1, 2]


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_detectors_of_one_readout_share_one_kernel(kind, monkeypatch):
    # A detector's kernel holds the numbers of its readout and nothing of
    # its own: a copy, a pickle (whose realizations are new objects) and a
    # second detector of the same rows and threshold compile nothing, and
    # read Z, events and states bit for bit as the first.
    built = []
    build_kernel = _kernel._Source.build

    def counting(self):
        built.append(self)
        return build_kernel(self)

    monkeypatch.setattr(_kernel._Source, "build", counting)
    real = build(2, 0.9, 3, kt=3, q=None)
    fast, slow = _change_pair(3, 0.9, 2)
    makers = {
        "edge": lambda threshold: EdgeDetector(real, threshold, 0.25),
        "peak": lambda threshold: PeakDetector(real, threshold, 0.25),
        "change": lambda threshold: ChangeDetector(fast, slow, threshold, 0.25),
    }
    make = makers[kind]
    xs = _signal(9, 300, 0.0)
    xs[100:200] = [x + 6.0 * math.sin(i / 8.0) for i, x in enumerate(xs[100:200])]
    first = make(1.5)
    zs = [first.update(x) for x in xs[:50]]
    compiled = len(built)
    assert compiled <= 1

    twins = [copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first)), make(1.5)]
    for x in xs[:50]:
        twins[-1].update(x)
    twin_zs = [[] for _ in twins]
    for x in xs[50:]:
        zs.append(first.update(x))
        for twin, got in zip(twins, twin_zs):
            got.append(twin.update(x))
    assert len(built) == compiled
    first.finish()
    assert len(first.events) > 0
    for twin, got in zip(twins, twin_zs):
        twin.finish()
        assert np.array_equal(np.array(got).view(np.uint64), np.array(zs[50:]).view(np.uint64))
        assert twin.events == first.events
        assert [e.z.hex() for e in twin.events] == [e.z.hex() for e in first.events]
        assert twin.state == first.state

    # Another threshold is another readout.
    other = make(2.5)
    other.update(xs[0])
    assert len(built) == compiled + 1
