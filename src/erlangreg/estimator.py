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
sigma0_sq and state (None until the first sample), and only its readout
is its own.  A sample enters a stream at one place, _Stream.update, and a
block at one other, _advance_moments; each starts the stream on its first
sample and rejects non-finite input.  Nothing changes an EstimatorState
once it exists: a block returns a new one, and a consumer's state changes
only when its call returns.

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
the estimates and the noise variance; run_sequence is that path for a
caller who keeps the state: state in, state out.
"""

from __future__ import annotations

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


def _start(realization: FilterRealization, x0: float, sigma0_sq: float) -> EstimatorState:
    """A stream's state on its first sample x0: the final-value start.

    Both cascades begin at the steady state they would reach under a
    constant input x0 whose noise variance is sigma0_sq, so a constant
    stream produces flat outputs from the very first sample.  Measured from
    x0, that is zero for the signal cascade and sigma0_sq times the unit
    steady state for the power cascade.  The caller has checked x0.
    """
    return EstimatorState(
        w1=(0.0,) * realization.spec.n_first_states,
        w2=tuple((realization.steady_second * _prior_variance(sigma0_sq)).tolist()),
        n=0,
        x0=float(x0),
    )


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


def _noise_variance(beta, power, residual_mass):
    """Residual power over the effective weight mass, clamped at zero.

    The weighted residual sum is the filtered input power minus the power
    captured by the orthonormal fit coefficients.  Dividing by the
    effective mass (total weight mass minus the fit's leverage) makes the
    estimate unbiased for white noise; finite precision can drive the
    difference slightly negative early on, hence the clamp.  beta has one
    column per sample and power one entry per sample; the per-sample
    kernels evaluate the same formula.
    """
    residual = np.einsum("ij,ij->j", beta, beta)
    np.subtract(power, residual, out=residual)
    np.maximum(residual, 0.0, out=residual)
    residual /= residual_mass
    return residual


def _advance_moments(
    realization: FilterRealization,
    xs: np.ndarray,
    sigma0_sq: float,
    state: EstimatorState | None,
):
    """Advance both moment cascades over a non-empty block.

    Returns (w1_block, w2_block, state): the state trajectories, one column
    per sample, and a new state after the block; the given state is never
    changed.  A block that is not a 1-D array raises ValueError naming its
    shape, and one that holds a NaN or infinite sample raises ValueError
    naming its index.  With state=None the stream starts here: the first
    sample sets the final-value start (its column is the start itself, and
    the sample counter stays at 0) and the rest advance the recursions.

    The two cascades run as one stacked run_block call on the rows
    [d, d**2], d = x - x0: the power cascade has the first kappa + 1 stages
    of the signal cascade, and those stages share their products.  The
    block is cut at sample numbers that are multiples of _PIECE, counted
    from the stream's first sample, so a stream fed in blocks aligned to
    them (as the CLI feeds it) gets the very floats of one whole call.
    """
    if xs.ndim != 1:
        raise ValueError(f"a block of samples must be 1-D, got shape {xs.shape}")
    start = 0 if state is None else state.n + 1
    # One reduction for the common case: a NaN or infinite sample makes the
    # sum non-finite.  So does a sum of finite samples that overflows (numpy
    # then warns of it); only then are the samples checked one by one.
    if not isfinite(np.add.reduce(xs)):
        finite = np.isfinite(xs)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise _not_finite(start + bad, float(xs[bad]))
    p = realization.spec.weight.p
    first = 0
    if state is None:
        state = _start(realization, xs[0], sigma0_sq)
        first = 1  # column 0 is the start itself
    moments = np.empty((2, xs.size - first))
    np.subtract(xs[first:], state.x0, out=moments[0])
    np.multiply(moments[0], moments[0], out=moments[1])
    # run_block cuts every _PIECE samples from its own start, so one call
    # up to the first multiple of _PIECE aligns all the cuts after it.
    head = min(-(start + first) % _PIECE, moments.shape[1])
    w = [state.w1, state.w2]
    pieces = []
    for lo, hi in ((0, head), (head, moments.shape[1])):
        if hi > lo:
            pieces.append(run_block(p, moments[:, lo:hi], w))
            w = [states[:, -1] for states in pieces[-1]]
    if first:
        pieces.insert(0, [np.array(state.w1)[:, None], np.array(state.w2)[:, None]])
    if len(pieces) == 1:
        w1_block, w2_block = pieces[0]
    else:
        w1_block = np.hstack([piece[0] for piece in pieces])
        w2_block = np.hstack([piece[1] for piece in pieces])
    state = EstimatorState(tuple(w1_block[:, -1].tolist()), tuple(w2_block[:, -1].tolist()),
                           start + xs.size - 1, state.x0)
    return w1_block, w2_block, state


def run_sequence(
    realization: FilterRealization,
    xs: np.ndarray,
    sigma0_sq: float = 0.0,
    state: EstimatorState | None = None,
):
    """Process a block of samples at once; returns (SequenceResult, state).

    With state=None the stream starts here: the first sample initializes
    the recursions from the prior noise variance sigma0_sq and contributes
    the first frame.  Passing the returned state back in continues the
    stream across blocks with output that agrees with per-sample update()
    calls to rounding, as the block path orders its sums differently.  The
    state given is never changed, also when the call raises, and one whose
    cascade lengths are not this design's raises ValueError.  sigma0_sq is
    checked on every call, but with a state it is not used.
    """
    sigma0_sq = _prior_variance(sigma0_sq)
    n1, n2 = realization.spec.n_first_states, realization.spec.n_second_states
    if state is not None and (len(state.w1), len(state.w2)) != (n1, n2):
        raise ValueError(f"state has cascades of {len(state.w1)} and {len(state.w2)} "
                         f"states, this design {n1} and {n2}")
    xs = np.asarray(xs, dtype=float)
    n_out = realization.spec.n_outputs
    if xs.shape == (0,):
        empty = SequenceResult(
            estimates=np.empty((n_out, 0)),
            sigma_eps2=np.empty(0),
            variances=np.empty((n_out, 0)),
        )
        return empty, state

    w1_block, w2_block, state = _advance_moments(realization, xs, sigma0_sq, state)
    sigma_eps2 = _noise_variance(
        realization.coeff_output @ w1_block,
        realization.power_output @ w2_block,
        realization.residual_mass,
    )
    estimates = realization.state_output @ w1_block
    estimates[0] += state.x0
    variances = sigma_eps2 * realization.vrf.diagonal()[:, None]
    return SequenceResult(estimates=estimates, sigma_eps2=sigma_eps2, variances=variances), state


class _Stream:
    """One stream through realization's two moment cascades.

    Owns the stream's state (None until its first sample) and its
    per-sample kernel factory, which the subclass's _build_kernel() makes
    on the first per-sample call.  Samples enter one at a time through
    update() and in blocks through _advance_moments(); the two can be
    mixed freely on one stream.  A subclass adds only its readout: the
    estimator's frames, a detector's statistic and events.

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
        # code.  A copy shares the realization and the state, both immutable.
        self.state
        return {**self.__dict__, "_make": None}

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
            state = self._state = _start(self.realization, x, self.sigma0_sq)
        if self._make is None:
            self._make = self._build_kernel()
        self._step, read, self._export = self._make(state.w1, state.w2, state.x0, state.n)
        return read() if first else self._step(x)


class StreamingEstimator(_Stream):
    """The estimator on one stream: update() feeds one sample, extend() a block.

    update() returns the sample's EstimateFrame and extend() the block's
    SequenceResult, the same numbers run_sequence gives for the stream.
    """

    def _build_kernel(self):
        return estimator_kernel(self.realization, _frame)

    def extend(self, xs: np.ndarray) -> SequenceResult:
        result, self._state = run_sequence(
            self.realization, xs, self.sigma0_sq, self.state
        )
        return result

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
