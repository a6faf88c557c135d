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
place, its update, which after the first sample is the stream's kernel
itself, and a block at one other, _Stream._advance_moments: each starts
the stream on its first sample, rejects non-finite input, and alone
changes the state.  Nothing changes an EstimatorState once it exists; a
block keeps its new one only once the block has succeeded.

Consumers of one decay p, such as an estimator and a peak detector on one
design or a change detector whose cascades are shorter, share their block
runs.  run_block is a pure function of its inputs, and it computes stage k
the same way whatever the longest order, so a shorter cascade is the
leading stages of a longer one, bit for bit.  _advance_moments keeps the
last run_block call of each decay; a stream whose own call would read the
same inputs, bit for bit, takes its leading stages instead, the very floats
it would get alone.  A call is kept only for a block of at most one piece,
and only while two or more streams of the decay that have run a block are
alive; a lone consumer, as in every CLI command, keeps nothing.  The saving
depends on feeding order, a known limit: a shorter cascade fed first keeps
its own call, which a longer stream after it misses.  An estimator and a
peak detector on a 10/7-stage design and a change detector on a 5/4-stage
pair of its decay cost one run_block call per packet fed in that order,
and two with the change detector fed first.

The per-sample path runs in Python floats.  On the consumer's first
per-sample use the package compiles a kernel for its shape (see _kernel),
which steps both cascades as unrolled running sums and evaluates the
readout as explicit multiply-adds.  From the stream's first sample on,
its state lives in the closure cells of that kernel, one float per cell,
and the stream's update is the kernel's step, so one sample is one Python
call with no list built or unpacked.  Reading .state snapshots the cells
into an EstimatorState, whose vectors are tuples of floats, and leaves
them live.  Only a block moves the state out of the cells, and the next
update() moves it into new ones; a pickle or a copy carries a snapshot,
from which the copy makes cells of its own.  On vectors of a handful of
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
from array import array
from dataclasses import dataclass
from functools import partial
from math import isfinite
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._kernel import _not_finite, estimator_kernel
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


class _BlockRun(NamedTuple):
    """One run_block call of a stream's block, kept for the decay's other streams."""

    start: int                  # the sample number of the block's first column
    block: bytes                # the samples it ran, x0 not subtracted
    x0: float                   # the stream's first sample
    w1: tuple[float, ...]       # the start vectors of the two cascades
    w2: tuple[float, ...]
    trajectories: tuple         # (w1_block, w2_block), read-only


def _leading_stages(run, start, block, state, n1, n2):
    """The first n1 and n2 stages of run's trajectories, if run_block would
    read what run's call read, bit for bit: the block from sample number
    start, the stream's x0 and the leading entries of the start vectors;
    otherwise None.  run_block is a pure function of those, and computes a
    stage the same way whatever the longest order.  Inputs compare as
    bytes, so -0.0 is not 0.0, and the start vectors of a cascade longer
    than the run's have more entries than the run's leading ones."""
    if (run is None or start != run.start or block.tobytes() != run.block
            or array("d", (state.x0, *state.w1, *state.w2)).tobytes()
            != array("d", (run.x0, *run.w1[:n1], *run.w2[:n2])).tobytes()):
        return None
    w1_block, w2_block = run.trajectories
    return w1_block[:n1], w2_block[:n2]


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

    From its first per-sample call on, the state lives in the closure
    cells of the kernel (see _kernel), whose step is installed as the
    instance's update.  Reading .state snapshots the cells and leaves them
    live.  A block moves the state out of the cells, replacing it only once
    the block has succeeded, and the next update() moves it into new ones;
    a pickle or a copy carries a snapshot and makes cells of its own.
    """

    def __init__(self, realization: FilterRealization, sigma0_sq: float = 0.0):
        self._realization = realization
        self.sigma0_sq = _prior_variance(sigma0_sq)
        self._state: EstimatorState | None = None  # or the last snapshot of live cells
        self._make = None     # the kernel factory, built on the first update()
        self._export = None   # the live cells' export, None while _state holds the state
        self._peers = None    # the _Peers of its decay, from its first block

    @property
    def realization(self) -> FilterRealization:
        """The design the stream runs; read-only, as the kernel captures it."""
        return self._realization

    @property
    def state(self) -> EstimatorState | None:
        """The stream's recursion state, None before its first sample.

        A snapshot: a kept state does not change when samples follow.  Two
        reads with no sample between them return the same object, as the
        snapshot of live cells is kept until the sample number moves.  The
        cells stay live, so a read adds nothing to the next update().
        """
        export = self._export
        if export is not None:
            w1, w2, n = export()
            state = self._state
            if n != state.n:
                self._state = EstimatorState(w1, w2, n, state.x0)
        return self._state

    def __getstate__(self):
        # Pickles and copies carry a snapshot of the state and never compiled
        # code: a copy moves it into cells of its own on its next update(),
        # and the original's cells stay live.  A copy shares the realization
        # and the state, both immutable, and joins its decay's peers on its
        # next block.
        self.state
        attrs = {**self.__dict__, "_make": None, "_export": None, "_peers": None}
        attrs.pop("update", None)
        return attrs

    def update(self, x: float):
        """Feed one sample; returns its readout.

        The readout is the sample's EstimateFrame from the estimator, and
        the statistic Z from a detector, whose events collect in .events.
        The first sample starts the stream.  A NaN or infinite sample
        raises ValueError before the state changes.

        From the stream's first sample on, the instance's own update is the
        kernel's step (see _resume), which converts and checks the sample
        itself: one sample is one Python call.  This method runs only when
        no cells are live (the first sample, and the first after a block, a
        copy or a pickle), or for a bound method taken before they were.
        """
        if self._export is None:
            return self._resume(x)
        return vars(self)["update"](x)

    def _resume(self, x):
        """update() while the state is not in cells: move it there, make the
        kernel's step the instance's update, then sample x."""
        state = self._state
        first = state is None
        if first:
            x = float(x)
            if not isfinite(x):
                raise _not_finite(0, x)
            state = self._state = self._start(x)
        if self._make is None:
            self._make = self._build_kernel()
        self.update, read, self._export = self._make(state.w1, state.w2, state.x0, state.n)
        return read() if first else self.update(x)

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
        one column per sample, and makes the state after the block, their
        last column, the stream's, in place of the kernel's cells.  A block
        that is not a 1-D array raises ValueError naming its shape, and one
        that holds a NaN or infinite sample ValueError naming its index;
        either leaves the state as it was.  On a new stream the first
        sample sets the final-value start (its column is the start itself,
        and the sample counter stays at 0) and the rest advance the
        recursions.

        The two cascades run as one stacked run_block call on the rows
        [d, d**2], d = x - x0: the power cascade has the first kappa + 1
        stages of the signal cascade, and those stages share their products.

        Streams of one decay p share their last run_block call: a stream
        whose own call would read the same inputs takes the leading stages
        of its trajectories with no check and no engine call (see
        _leading_stages).  A call is kept only for blocks of at most one
        piece and while two or more streams of the decay that have run a
        block are alive, and a miss drops it before the engine runs, so a
        decay holds at most one call, never beside the one being made.
        """
        if xs.ndim != 1:
            raise ValueError(f"a block of samples must be 1-D, got shape {xs.shape}")
        state = self.state
        peers = self._peers
        if peers is None:
            peers = self._peers = _PEERS.setdefault(self.realization.spec.weight.p, _Peers())
            peers.streams.add(self)
        fresh = state is None
        start = 0 if fresh else state.n + 1
        if fresh:
            state = self._start(xs[0])
        # Column 0 of a fresh stream is the start itself: the engine runs the rest.
        block = xs[1:] if fresh else xs
        at = start + int(fresh)
        spec = self.realization.spec
        trajectories = _leading_stages(peers.last, at, block, state,
                                       spec.n_first_states, spec.n_second_states)
        if trajectories is None:
            peers.last = None
            # One reduction for the common case: a NaN or infinite sample
            # makes the sum non-finite.  So does a sum of finite samples that
            # overflows (numpy then warns of it); only then are the samples
            # checked one by one.
            if not isfinite(np.add.reduce(xs)):
                finite = np.isfinite(xs)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise _not_finite(start + bad, float(xs[bad]))
            moments = np.empty((2, block.size))
            np.subtract(block, state.x0, out=moments[0])
            np.multiply(moments[0], moments[0], out=moments[1])
            w1_block, w2_block = run_block(spec.weight.p, moments, [state.w1, state.w2], start=at)
            w1_block.flags.writeable = w2_block.flags.writeable = False
            trajectories = (w1_block, w2_block)
            if xs.size <= _PIECE and len(peers.streams) > 1:
                peers.last = _BlockRun(at, block.tobytes(), state.x0, state.w1, state.w2,
                                       trajectories)
        w1_block, w2_block = trajectories
        if fresh:
            w1_block = np.hstack([np.array(state.w1)[:, None], w1_block])
            w2_block = np.hstack([np.array(state.w2)[:, None], w2_block])
            w1_block.flags.writeable = w2_block.flags.writeable = False
        self._state = EstimatorState(tuple(w1_block[:, -1].tolist()),
                                     tuple(w2_block[:, -1].tolist()),
                                     start + xs.size - 1, state.x0)
        if self._export is not None:
            # The state has left the kernel's cells: drop them.
            self._export = None
            del self.update
        return w1_block, w2_block


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
