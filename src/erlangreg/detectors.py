"""Threshold detectors on the streaming moment states: edges, peaks, trend breaks.

A detector is a fixed readout of the estimator's two moment cascades.  Its
statistic Z is a linear readout of the signal cascade (a derivative, or the
difference of two smoothers) over its standard deviation, whose square
sums noise terms: each the noise gain of one output of a whole filter
times that filter's live noise variance, which the estimator's own
readout takes from the filter's leading stages of the cascades.  Z is a
CFAR-style test against a fixed threshold.  One contiguous run of
threshold exceedances declares one event, at the run's extremum.
When the variance estimate underflows (no data yet, or a perfect fit) Z is
reported as 0 so that empty regimes never alarm.

EdgeDetector reads the slope, PeakDetector the negated curvature, and
ChangeDetector the difference between a fast and a slow smoother; each is
only the data of its readout on one shared engine.  Every detector is an
estimator._Stream, the same stream the estimator runs: it exposes
realization, sigma0_sq and state, its samples enter through the stream's
one per-sample and one block entry, and all it adds is Z and the run
marker that turns Z into events.  The marker owns the events list that
both entries append to.  Its threshold and events list, like its
realization, are read-only, as the marker and the kernel capture them.

update() feeds one sample through a kernel generated for the detector on
its first update() (see _kernel; compiled once per source text, which
holds no number, so detectors whose rows have the same zero pattern share
it at any threshold), which from then on is the detector's update itself:
one unrolled step of both cascades held in closure cells, Z as explicit
multiply-adds in Python floats, and the run marker's update on (n, Z) for
a sample that could change the marker, all in one call.  run() feeds a
block and computes Z for the whole block at once with the same formula on
arrays: one product reads every noise term's coefficient rows and the
value row off the signal cascade, each power row is a product of its own,
and Z comes back in an array of its own.  It cuts the block where the
exceedance's sign changes and feeds the marker's update() one sample of
each stretch, so its Python work grows with the number of stretches, not
of samples.  The marker's update() is the one run rule for both entries,
so events do not depend on how the stream is cut into blocks or mixed
with update() calls; finish() closes a run left open at the end of the
stream.  A NaN or infinite sample, or a prior variance sigma0_sq
that is negative or not finite, raises ValueError; a bad sample leaves the
detector as it was.  So does a NaN threshold, which no statistic could
ever exceed; an infinite threshold is allowed and never fires.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from ._kernel import detector_kernel
from .design import DesignError
from .estimator import _noise_variance, _Stream

__all__ = [
    "Event",
    "EdgeDetector",
    "PeakDetector",
    "ChangeDetector",
]

_VARIANCE_FLOOR = 1e-15

RISING_EDGE = "rising-edge"
FALLING_EDGE = "falling-edge"
PEAK = "peak"
BREAK_UP = "break-up"
BREAK_DOWN = "break-down"


class Event(NamedTuple):
    """A declared detection: the extremum of one exceedance run."""

    n: int
    z: float
    kind: str


def _guarded_ratio(value, variance):
    """value / sqrt(variance), or 0 where the variance is below the floor.

    Takes arrays (a block) and returns the ratio in the variance's own
    buffer, overwritten; value is only read.  The per-sample kernels
    evaluate the same guard.  The variance is raised to the floor before
    its root is taken, so nothing divides by zero.
    """
    small = variance < _VARIANCE_FLOOR
    np.maximum(variance, _VARIANCE_FLOOR, out=variance)
    np.sqrt(variance, out=variance)
    np.divide(value, variance, out=variance)
    variance[small] = 0.0
    return variance


class _RunMarker:
    """Declares one event per contiguous threshold-exceedance run.

    Runs of z > threshold produce kind_pos events at the maximum; when
    kind_neg is given, runs of z < -threshold produce kind_neg events at
    the minimum.  z equal to the threshold is not an exceedance, and a tie
    for the extremum goes to the earliest sample.  A run's event is
    appended to events, oldest first, when the run ends; flush() closes a
    run left open at end of stream.

    update() takes one sample and holds the run rule; its state is the
    sign of the run open after the last sample (_sign, 0 when none is
    open) and its extremum so far (_best_n, _best_z).  extend() takes a
    block and feeds update() the one sample of each stretch of equal sign
    that can change that state, so the two mix freely on one stream.  A
    copy has its own events list.
    """

    def __init__(self, threshold: float, kind_pos: str, kind_neg: Optional[str] = None):
        self.threshold = threshold
        self.kind_pos = kind_pos
        self.kind_neg = kind_neg
        self.events: list[Event] = []
        self._sign = 0
        self._best_n = -1
        self._best_z = 0.0

    def __getstate__(self):
        return {**vars(self), "events": list(self.events)}

    def update(self, n: int, z: float) -> None:
        if z > self.threshold:
            sign = 1
        elif self.kind_neg is not None and z < -self.threshold:
            sign = -1
        else:
            sign = 0
        if sign != self._sign:
            if self._sign != 0:
                self._close()
            if sign != 0:
                self._sign, self._best_n, self._best_z = sign, n, z
        elif (sign > 0 and z > self._best_z) or (sign < 0 and z < self._best_z):
            self._best_n, self._best_z = n, z

    def extend(self, start: int, z: np.ndarray) -> None:
        """Feed a block whose first sample is number start.

        The block is cut wherever the sign of the exceedance changes, read
        as update() reads it, and each stretch hands update() one sample:
        a run's earliest extremum, or the first sample of a stretch with no
        exceedance.  So Python work is per stretch, not per sample.
        """
        z = np.asarray(z, dtype=float)
        if z.size == 0:
            return
        threshold = self.threshold
        above = z > threshold
        sign = above.view(np.int8)
        if self.kind_neg is not None:
            # As in update(), a sample past both bounds counts as positive.
            sign = sign - ((z < -threshold) & ~above).view(np.int8)
        cuts = [0, *(np.flatnonzero(sign[1:] != sign[:-1]) + 1).tolist(), z.size]
        for lo, hi in zip(cuts, cuts[1:]):
            s = sign.item(lo)
            if s != 0:
                lo += int(z[lo:hi].argmax() if s > 0 else z[lo:hi].argmin())
            self.update(start + lo, z.item(lo))

    def flush(self) -> None:
        if self._sign != 0:
            self._close()

    def _close(self) -> None:
        kind = self.kind_pos if self._sign > 0 else self.kind_neg
        self.events.append(Event(self._best_n, self._best_z, kind))
        self._sign = 0


class _Detector(_Stream):
    """Z readout and event extraction on the moment states of one stream.

    The stream runs realization's cascades.  Z is value_row @ w1 over the
    square root of the sum of gain times the filter's noise variance (see
    estimator._noise_variance) across noise_terms, each (filter, gain): a
    design of the stream's decay whose cascades are no longer than the
    stream's, and the noise gain of one of its outputs.  Blocks read the
    rows as one stacked array (_readout); single samples go through a
    kernel written from them, whose text _kernel compiles once, and bound
    to the detector's run marker on the first update().
    """

    def __init__(self, realization, threshold: float, sigma0_sq: float,
                 value_row, noise_terms, kind_pos: str, kind_neg: Optional[str]):
        if math.isnan(threshold):
            raise ValueError(f"threshold must not be NaN, got {threshold!r}")
        super().__init__(realization, sigma0_sq)
        self._rows = (value_row, noise_terms)
        self._marker = _RunMarker(threshold, kind_pos, kind_neg)

    @property
    def threshold(self) -> float:
        """The run marker's threshold; read-only, as the marker captures it."""
        return self._marker.threshold

    @property
    def events(self) -> list[Event]:
        """Declared events, oldest first: the run marker's list, which both
        paths append to, so it is read-only; clear() it to drop the events
        already taken."""
        return self._marker.events

    @functools.cached_property
    def _readout(self):
        """The block readout: each noise term's coefficient rows, zero-padded
        to the stream's signal cascade, then the value row."""
        value_row, noise_terms = self._rows
        n_first = self.realization.spec.n_first_states
        return np.vstack([
            *(np.pad(term.coeff_output, ((0, 0), (0, n_first - term.spec.n_first_states)))
              for term, _ in noise_terms),
            value_row,
        ])

    def _build_kernel(self):
        marker = self._marker
        make = detector_kernel(self.realization, *self._rows, _VARIANCE_FLOOR,
                               marker.threshold, marker.kind_neg is not None)
        return functools.partial(make, marker=marker)

    def __getstate__(self):
        # A copy has its own run marker, and so its own events.
        return {**super().__getstate__(), "_marker": copy.copy(self._marker)}

    def run(self, xs: np.ndarray) -> np.ndarray:
        """Feed a block; returns the statistic sequence for the block."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape == (0,):
            return np.empty(0)
        w1_block, w2_block = self._advance_moments(xs)
        z = self._statistic(w1_block, w2_block)
        self._marker.extend(self._state.n + 1 - xs.size, z)
        return z

    def finish(self) -> None:
        """Close any exceedance run still open at end of stream."""
        self._marker.flush()

    def _settled_count(self) -> int:
        """Samples whose events are final.

        That is every sample seen, or, while an exceedance run is open,
        every sample before the run's extremum so far: the run's event can
        only land there or later.
        """
        if self._marker._sign != 0:
            return self._marker._best_n
        return 0 if self.state is None else self.state.n + 1

    def _statistic(self, w1_block, w2_block):
        """Z for a block of moment states, one column per sample.

        One product reads every coefficient row and the value row off the
        signal cascade; Z comes back in the variance's own buffer, so it
        holds none of that product.
        """
        readout = self._readout @ w1_block
        variance = None
        row = 0
        for realization, gain in self._rows[1]:
            n_coeff = realization.spec.model_order
            term = _noise_variance(realization, readout[row:row + n_coeff], w2_block)
            row += n_coeff
            term *= gain
            variance = term if variance is None else np.add(variance, term, out=variance)
        return _guarded_ratio(readout[-1], variance)


def _output_row(detector, realization, index):
    """Row of output index in state_output; the design must emit it."""
    n_outputs = realization.spec.n_outputs
    if n_outputs <= index:
        raise DesignError(
            f"{type(detector).__name__} needs n_outputs >= {index + 1}, got {n_outputs}"
        )
    return realization.state_output[index]


class EdgeDetector(_Detector):
    """Rising/falling edge detection: the slope over its standard deviation."""

    def __init__(self, realization, threshold: float, sigma0_sq: float = 0.0):
        super().__init__(
            realization, threshold, sigma0_sq,
            _output_row(self, realization, 1), ((realization, realization.vrf[1, 1]),),
            RISING_EDGE, FALLING_EDGE,
        )


class PeakDetector(_Detector):
    """Peak detection (one-sided): negated curvature over its deviation.

    Positive at local maxima of the underlying signal (negative curvature).
    """

    def __init__(self, realization, threshold: float, sigma0_sq: float = 0.0):
        super().__init__(
            realization, threshold, sigma0_sq,
            -_output_row(self, realization, 2), ((realization, realization.vrf[2, 2]),),
            PEAK, None,
        )


class ChangeDetector(_Detector):
    """Trend-break detector comparing a fast and a slow smoother.

    Z is the difference of the two smoothed values over its standard
    deviation.  Both filters read one shared pair of moment recursions at
    the slow filter's (larger) orders: the fast filter's noise variance
    reads their leading stages, and the difference row pads its value row
    with zeros.  Z > threshold declares an upward break, Z < -threshold a
    downward one.

    Takes two already-built realizations, so that designs loaded from
    documents run as stored.  realization_a emphasizes new data (the
    smaller shape parameter) and realization_b old data; both must share
    the decay, model order, sample period and resolved delay, so that
    their estimates refer to the same instant.
    """

    def __init__(self, realization_a, realization_b, threshold: float,
                 sigma0_sq: float = 0.0):
        a, b = realization_a.spec, realization_b.spec
        for name, value_a, value_b in (
            ("p", a.weight.p, b.weight.p),
            ("model_order", a.model_order, b.model_order),
            ("sample_period", a.sample_period, b.sample_period),
        ):
            if value_a != value_b:
                raise DesignError(
                    f"change detector filters must share {name}, got {value_a} and {value_b}"
                )
        if a.weight.kappa >= b.weight.kappa:
            raise DesignError(
                f"filter_a must have the smaller shape parameter (new-data emphasis), "
                f"got kappa {a.weight.kappa} vs {b.weight.kappa}"
            )
        if abs(a.delay - b.delay) > 1e-9:
            raise DesignError(
                f"change detector filters must share the delay, "
                f"got {a.delay} and {b.delay}"
            )
        self._realization_a = realization_a
        pad = b.n_first_states - a.n_first_states
        super().__init__(
            realization_b, threshold, sigma0_sq,
            np.pad(realization_a.state_output[0], (0, pad)) - realization_b.state_output[0],
            ((realization_a, realization_a.vrf[0, 0]), (realization_b, realization_b.vrf[0, 0])),
            BREAK_UP, BREAK_DOWN,
        )

    @property
    def realization_a(self):
        """The fast filter's design; read-only, as the kernel captures it."""
        return self._realization_a

    realization_b = _Stream.realization  # the slow filter, whose cascades run
