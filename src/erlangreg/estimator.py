"""Online runtime: moment recursions, estimates, live noise variance.

Two integrator cascades run side by side: the first filters the signal and
yields the polynomial fit, the second filters the squared signal and yields
the weighted input power.  Their difference gives a running estimate of the
measurement-noise variance, which scales the design-time noise gain matrix
into a live covariance for every derivative output.

Both cascades run on the input less the stream's first sample x0, so a
large constant offset does not swamp the power recursion with the square
of the level; x0 is added back only where a level is read out.  A NaN or
infinite sample raises ValueError naming its index and leaves the stream's
state as it was; a prior noise variance sigma0_sq that is negative or not
finite raises ValueError too.

Every consumer of a stream, StreamingEstimator here and the detectors, is
a _Stream: it exposes realization (read-only, as its kernel captures it),
sigma0_sq and state (None until the first sample), holds that state
itself, and only its readout is its own.  A sample enters a stream at one
place, _Stream.update, and a block at one other, _Stream._advance_moments:
each starts the stream on its first sample, rejects non-finite input, and
alone changes the state.  Nothing changes an EstimatorState once it
exists; a block keeps its new one only once the block has succeeded.

Consumers of one decay p, such as an estimator and a peak detector on one
design or a change detector whose cascades are shorter, share their block
runs.  Stage k of a cascade is the same integration whatever its length,
and run_block computes it the same way whatever the longest order, so a
shorter cascade is the leading stages of a longer one, bit for bit.
_advance_moments keeps the last run of each decay: the state it started
from, a copy of its block, its read-only trajectories and the state after
it.  A stream whose cascades are no longer than that run's, whose block
equals its block bit for bit, and whose start equals the leading entries
of its start bit for bit takes the leading stages of its trajectories and
end state instead of running the engine, so it gets the very floats it
would get alone.  A run is kept only for a block of at most one piece, and
only while two or more streams of the decay that have run a block are
alive; a lone consumer, as in every CLI command, keeps nothing.  The
saving depends on feeding order, a known limit: a shorter cascade fed
first keeps its own run, which a longer stream after it misses.  An
estimator and a peak detector on a 10/7-stage design and a change
detector on a 5/4-stage pair of its decay cost one run_block call per
packet fed in that order, and two with the change detector fed first.

The per-sample path runs in Python floats.  On the consumer's first
per-sample use the package compiles a kernel for its shape (see _kernel),
which steps both cascades as unrolled running sums and evaluates the
readout as explicit multiply-adds.  While samples arrive one at a time,
the stream's state lives in the closure cells of that kernel, one float
per cell, so one sample is one call with no list built or unpacked.
Reading .state builds a new EstimatorState from the cells, whose vectors
are tuples of floats, and the next update() moves it into new cells; the
state is in one of the two places at a time.  On vectors of a handful of
states, numpy's per-call overhead, and even Python's own loops, calls and
list traffic, cost far more than the arithmetic.  For the same reason a
per-sample frame keeps the kernel's floats and builds its estimates and
covariance arrays only when they are read.  The block path filters whole
arrays and reads them out with matrix products, by the same formula for
the estimates and the noise variance.  run_sequence starts a stream on a
block and returns the estimator that continues it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from math import isfinite
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._kernel import estimator_kernel
from .design import FilterRealization
from .network import _PIECE, run_block

__all__ = [
    "EstimatorState",
    "EstimateFrame",
    "SequenceResult",
    "run_sequence",
    "StreamingEstimator",
]


class EstimatorState(NamedTuple):
    """Recursion state of one stream after its sample n; never changed."""

    w1: tuple[float, ...]  # first-moment cascade of x - x0, length kappa + model_order
    w2: tuple[float, ...]  # second-moment cascade of x - x0, length kappa + 1
    n: int                 # index of the newest sample consumed
    x0: float              # the stream's first sample


class EstimateFrame(tuple):
    """Per-sample output: derivative estimates with their covariance.

    n is the index of the sample the frame describes.  estimates[k] is the
    k-th time derivative of the local fit evaluated `delay` samples behind
    sample n, in input units per second**k.  covariance is sigma_eps2 times
    the design's noise gain matrix, exactly.

    A frame keeps the floats the per-sample kernel produced and builds its
    arrays when they are read: each read of estimates or covariance returns
    a new float64 array, so repeated reads are equal but not the same
    object, and writing into one changes neither the frame nor the stream.
    Frames are immutable (assigning any attribute raises AttributeError)
    and are built by the estimator only; EstimateFrame(...) raises
    TypeError.  The type is a tuple underneath, for speed; its items are
    internal, so read the named fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("EstimateFrame is built by the estimator only")

    n = property(itemgetter(0))
    sigma_eps2 = property(itemgetter(2))

    @property
    def estimates(self) -> np.ndarray:
        return np.array(self[1])

    @property
    def covariance(self) -> np.ndarray:
        return self[2] * self[3]

    def __reduce__(self):
        # Pickling and copying rebuild through _frame, as __new__ refuses.
        return _frame, (tuple(self),)

    def __repr__(self) -> str:
        return (
            f"EstimateFrame(n={self.n!r}, estimates={self.estimates!r}, "
            f"sigma_eps2={self.sigma_eps2!r})"
        )


# _frame((n, estimates, sigma_eps2, vrf)) is the only constructor of a
# frame: estimates is the kernel's tuple of floats and vrf the design's
# noise gain matrix, shared, never copied.  A C-level partial, so building
# a frame runs no Python frame of its own.
_frame = partial(tuple.__new__, EstimateFrame)


@dataclass(frozen=True, eq=False)
class SequenceResult:
    """Vectorized frames for a block of samples (diagonal covariance only)."""

    estimates: np.ndarray    # (n_outputs, N)
    sigma_eps2: np.ndarray   # (N,)
    variances: np.ndarray    # (n_outputs, N) diagonal of the covariance


def _prior_variance(sigma0_sq: float) -> float:
    """sigma0_sq as a float; ValueError unless it is finite and nonnegative.

    A NaN prior would pass a plain `< 0` test and then poison the power
    cascade, and with it sigma_eps2 and every Z, for the rest of the stream.
    """
    sigma0_sq = float(sigma0_sq)
    if not (isfinite(sigma0_sq) and sigma0_sq >= 0.0):
        raise ValueError(f"sigma0_sq must be finite and nonnegative, got {sigma0_sq}")
    return sigma0_sq


def _not_finite(n: int, x: float) -> ValueError:
    """The error for sample n, whose value x is NaN or infinite."""
    return ValueError(f"sample {n} is not finite: {x!r}")


def _noise_variance(realization, w1_block, w2_block):
    """realization's noise variance, one per column of the trajectories.

    The residual power over the effective weight mass, clamped at zero: the
    filtered input power less the power captured by the orthonormal fit
    coefficients, over the total weight mass less the fit's leverage, is
    unbiased for white noise, and finite precision can drive it slightly
    negative early on.  The filter reads the leading stages of the
    trajectories, which may be those of a longer cascade of its decay; the
    per-sample kernels evaluate the same formula.
    """
    spec = realization.spec
    beta = realization.coeff_output @ w1_block[:spec.n_first_states]
    residual = np.einsum("ij,ij->j", beta, beta)
    np.subtract(realization.power_output @ w2_block[:spec.n_second_states], residual,
                out=residual)
    np.maximum(residual, 0.0, out=residual)
    residual /= realization.residual_mass
    return residual


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same bits: -0.0 is not 0.0."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class _BlockRun(NamedTuple):
    """One block's run of the moment cascades, kept for the decay's other streams."""

    fresh: bool                 # the block started its stream, from `start`
    start: EstimatorState       # the state the block started from
    block: np.ndarray           # a copy of the block
    trajectories: tuple         # (w1_block, w2_block), read-only
    after: EstimatorState       # the state after the block


class _Peers:
    """The live streams of one decay and the last block run among them."""

    __slots__ = ("streams", "last", "__weakref__")

    def __init__(self):
        self.streams = weakref.WeakSet()
        self.last: _BlockRun | None = None


# p -> _Peers.  Each stream holds its decay's entry, so the entry, and the
# block run it keeps, goes when the last stream of the decay does.
_PEERS = weakref.WeakValueDictionary()


class _Stream:
    """One stream through realization's two moment cascades.

    Owns the stream's state (None until its first sample) and its
    per-sample kernel factory, which the subclass's _build_kernel() makes
    on the first per-sample call.  Samples enter one at a time through
    update() and in blocks through _advance_moments(); the two can be
    mixed freely on one stream, and they are the only places that change
    its state.  A subclass adds only its readout: the estimator's frames,
    a detector's statistic and events.  Block trajectories are read-only,
    as streams of one decay may share them (see _advance_moments).

    The state has one home at a time.  While samples arrive one by one it
    lives in the closure cells of the kernel's step (see _kernel).  Reading
    .state builds a new EstimatorState from the cells and drops the
    closures; the next update() makes new ones from it.  A block replaces
    the state only once it has succeeded.
    """

    def __init__(self, realization: FilterRealization, sigma0_sq: float = 0.0):
        self._realization = realization
        self.sigma0_sq = _prior_variance(sigma0_sq)
        self._state: EstimatorState | None = None
        self._make = None     # the kernel factory, built on the first update()
        self._step = None     # step and export hold the state in their cells,
        self._export = None   # or are None while _state holds it
        self._peers = None    # the _Peers of its decay, from its first block

    @property
    def realization(self) -> FilterRealization:
        """The design the stream runs; read-only, as the kernel captures it."""
        return self._realization

    @property
    def state(self) -> EstimatorState | None:
        """The stream's recursion state, None before its first sample.

        A snapshot: a kept state does not change when samples follow.  Two
        reads with no sample between them return the same object.
        """
        if self._export is not None:
            self._state = EstimatorState(*self._export(), self._state.x0)
            self._step = self._export = None
        return self._state

    def __getstate__(self):
        # Reading .state moves the state out of the cells and drops the
        # closures, so pickles and copies carry the state and never compiled
        # code.  A copy shares the realization and the state, both immutable,
        # and joins its decay's peers on its next block.
        self.state
        return {**self.__dict__, "_make": None, "_peers": None}

    def update(self, x: float):
        """Feed one sample; returns its readout.

        The readout is the sample's EstimateFrame from the estimator, and
        the statistic Z from a detector, whose events collect in .events.
        The first sample starts the stream.  A NaN or infinite sample
        raises ValueError before the state changes; the check is written
        out rather than called, as on this path one more Python call is a
        few percent of the cost.
        """
        x = float(x)
        if not isfinite(x):
            state = self.state
            raise _not_finite(0 if state is None else state.n + 1, x)
        step = self._step
        if step is None:
            return self._resume(x)
        return step(x)

    def _resume(self, x: float):
        """update() while the state is not in cells: move it there, then sample x."""
        state = self._state
        first = state is None
        if first:
            state = self._state = self._start(x)
        if self._make is None:
            self._make = self._build_kernel()
        self._step, read, self._export = self._make(state.w1, state.w2, state.x0, state.n)
        return read() if first else self._step(x)

    def _start(self, x0: float) -> EstimatorState:
        """The stream's state on its first sample x0: the final-value start.

        Both cascades begin at the steady state they would reach under a
        constant input x0 whose noise variance is sigma0_sq, so a constant
        stream produces flat outputs from the very first sample.  Measured
        from x0, that is zero for the signal cascade and sigma0_sq times the
        unit steady state for the power cascade.  With the signal cascade at
        zero no part of that power counts as fit, so sigma_eps2 at sample 0
        is sigma0_sq * S_kappa(p) / residual_mass, somewhat above sigma0_sq.
        The caller has checked x0.
        """
        w2 = self.realization.steady_second * _prior_variance(self.sigma0_sq)
        return EstimatorState((0.0,) * self.realization.spec.n_first_states,
                              tuple(w2.tolist()), 0, float(x0))

    def _advance_moments(self, xs: np.ndarray):
        """Advance both moment cascades over a non-empty block of floats.

        Returns (w1_block, w2_block), the read-only state trajectories with
        one column per sample, and makes the state after the block the
        stream's.  A block that is not a 1-D array raises ValueError naming
        its shape, and one that holds a NaN or infinite sample ValueError
        naming its index; either leaves the state as it was.  On a new
        stream the first sample sets the final-value start (its column is
        the start itself, and the sample counter stays at 0) and the rest
        advance the recursions.

        The two cascades run as one stacked run_block call on the rows
        [d, d**2], d = x - x0: the power cascade has the first kappa + 1
        stages of the signal cascade, and those stages share their products.

        Streams of one decay p share their last block run.  A stream whose
        cascades are no longer than the run's, whose block equals the run's
        bit for bit, and whose start equals the leading entries of the
        run's start bit for bit takes the leading stages of the run's
        trajectories and of the state after it, with no check and no engine
        call: run_block computes a stage the same way whatever the longest
        order, so these are the very floats the stream would get alone.  A
        run is kept only for blocks of at most one piece and while two or
        more streams of the decay that have run a block are alive, and a
        miss drops it before the engine runs, so a decay holds at most one
        run, never beside the one being made.
        """
        if xs.ndim != 1:
            raise ValueError(f"a block of samples must be 1-D, got shape {xs.shape}")
        state = self.state
        peers = self._peers
        if peers is None:
            peers = self._peers = _PEERS.setdefault(self.realization.spec.weight.p, _Peers())
            peers.streams.add(self)
        run = peers.last
        if run is not None:
            if self._reruns(run, state, xs):
                return self._ride(run)
            peers.last = None
        start = 0 if state is None else state.n + 1
        # One reduction for the common case: a NaN or infinite sample makes
        # the sum non-finite.  So does a sum of finite samples that overflows
        # (numpy then warns of it); only then are the samples checked one by
        # one.
        if not isfinite(np.add.reduce(xs)):
            finite = np.isfinite(xs)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise _not_finite(start + bad, float(xs[bad]))
        fresh = state is None
        if fresh:
            state = self._start(xs[0])
        first = int(fresh)  # column 0 of a fresh stream is the start itself
        moments = np.empty((2, xs.size - first))
        np.subtract(xs[first:], state.x0, out=moments[0])
        np.multiply(moments[0], moments[0], out=moments[1])
        w1_block, w2_block = run_block(self.realization.spec.weight.p, moments,
                                       [state.w1, state.w2], start=start + first)
        if fresh:
            w1_block = np.hstack([np.array(state.w1)[:, None], w1_block])
            w2_block = np.hstack([np.array(state.w2)[:, None], w2_block])
        w1_block.flags.writeable = w2_block.flags.writeable = False
        trajectories = (w1_block, w2_block)
        self._state = EstimatorState(tuple(w1_block[:, -1].tolist()),
                                     tuple(w2_block[:, -1].tolist()),
                                     start + xs.size - 1, state.x0)
        if xs.size <= _PIECE and len(peers.streams) > 1:
            peers.last = _BlockRun(fresh, state, xs.copy(), trajectories, self._state)
        return trajectories

    def _reruns(self, run: _BlockRun, state: EstimatorState | None, xs: np.ndarray) -> bool:
        """Whether xs from state is the leading stages of the kept block run:
        cascades no longer than the run's, the same block, bit for bit, and
        a start that is the run's, or equal bit for bit to the leading
        entries of the run's.  A new stream's start is the final-value start
        _start() builds from its prior and its design, on a first sample the
        run has checked."""
        spec = self.realization.spec
        n1, n2 = spec.n_first_states, spec.n_second_states
        kept = run.start
        if (state is None) != run.fresh or n1 > len(kept.w1) or n2 > len(kept.w2):
            return False
        if not _same_bits(xs, run.block):
            return False
        if state is None:
            state = self._start(xs[0])
        return state is kept or (state.n == kept.n and _same_bits(
            np.array((*state.w1, *state.w2, state.x0)),
            np.array((*kept.w1[:n1], *kept.w2[:n2], kept.x0))))

    def _ride(self, run: _BlockRun):
        """Take the stream's stages of the kept block run; returns its
        (w1_block, w2_block).  A stream of the run's cascade lengths takes
        the run's arrays and end state themselves."""
        spec = self.realization.spec
        n1, n2 = spec.n_first_states, spec.n_second_states
        after = run.after
        if (n1, n2) == (len(after.w1), len(after.w2)):
            self._state = after
            return run.trajectories
        w1_block, w2_block = run.trajectories
        self._state = EstimatorState(after.w1[:n1], after.w2[:n2], after.n, after.x0)
        return w1_block[:n1], w2_block[:n2]


class StreamingEstimator(_Stream):
    """The estimator on one stream: update() feeds one sample, extend() a block.

    update() returns the sample's EstimateFrame and extend() the block's
    SequenceResult.
    """

    def _build_kernel(self):
        return estimator_kernel(self.realization, _frame)

    def extend(self, xs: np.ndarray) -> SequenceResult:
        xs = np.asarray(xs, dtype=float)
        realization = self.realization
        n_out = realization.spec.n_outputs
        if xs.shape == (0,):
            return SequenceResult(np.empty((n_out, 0)), np.empty(0), np.empty((n_out, 0)))
        w1_block, w2_block = self._advance_moments(xs)
        sigma_eps2 = _noise_variance(realization, w1_block, w2_block)
        estimates = realization.state_output @ w1_block
        estimates[0] += self._state.x0
        variances = sigma_eps2 * realization.vrf.diagonal()[:, None]
        return SequenceResult(estimates=estimates, sigma_eps2=sigma_eps2, variances=variances)

    def coefficients(self):
        """Current fit coefficients (orthonormal and monomial bases).

        Returns (beta, alpha).  alpha[j] multiplies age**j in the local
        model, age counted in samples behind the newest one, so a rising
        ramp has a negative alpha[1].
        """
        state = self.state
        if state is None:
            raise RuntimeError("no samples consumed yet")
        from_orthonormal = self.realization.from_orthonormal
        beta = self.realization.coeff_output @ np.array(state.w1)
        alpha = from_orthonormal @ beta
        # The constant x0 is alpha[0] = x0 in the monomial basis; the basis
        # change is upper triangular, so in the orthonormal one it is beta[0]
        # = x0 / from_orthonormal[0, 0].
        alpha[0] += state.x0
        beta[0] += state.x0 / from_orthonormal[0, 0]
        return beta, alpha


def run_sequence(realization: FilterRealization, xs: np.ndarray, sigma0_sq: float = 0.0):
    """Start a stream on a block; returns (SequenceResult, StreamingEstimator).

    The first sample initializes the recursions from the prior noise
    variance sigma0_sq and contributes the first frame.  The estimator is
    the live stream after the block, which extend() and update() continue.
    """
    stream = StreamingEstimator(realization, sigma0_sq)
    return stream.extend(xs), stream
