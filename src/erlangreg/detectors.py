"""Threshold detectors on the streaming estimates: edges, peaks, trend breaks.

Each detector forms a dimensionless test statistic Z, an estimate divided
by its own estimated standard deviation, and declares one event per
contiguous run of threshold exceedances, at the run's extremum.  When the
variance estimate underflows (no data yet, or a perfect fit) Z is reported
as 0 so that empty regimes never alarm.

update() feeds one sample; run() feeds a block, computes Z for the whole
block at once and finds its events with array operations, so its Python
work grows with the number of exceedance runs, not of samples.  A run still
open at the end of a block carries into the next one, so events do not
depend on how the stream is cut into blocks or mixed with update() calls;
finish() closes a run left open at the end of the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .design import DesignError, DesignSpec, build_realization
from .estimator import (
    EstimateFrame,
    StreamingEstimator,
    _advance_moments,
    _noise_variance,
    _step_moments,
    new_estimator,
)

__all__ = [
    "Event",
    "ChangeDetectorConfig",
    "edge_statistic",
    "peak_statistic",
    "change_statistic",
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


@dataclass(frozen=True)
class Event:
    """A declared detection: the extremum of one exceedance run."""

    n: int
    z: float
    kind: str


def _guarded_ratio(value, variance):
    """value / sqrt(variance), or 0 where the variance is below the floor.

    Takes scalars (one sample) or arrays (a block).
    """
    if not isinstance(variance, np.ndarray):
        if variance < _VARIANCE_FLOOR:
            return 0.0
        return value / math.sqrt(variance)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            variance < _VARIANCE_FLOOR,
            0.0,
            value / np.sqrt(np.maximum(variance, _VARIANCE_FLOOR)),
        )


def edge_statistic(frame: EstimateFrame) -> float:
    """Slope significance: first derivative over its standard deviation."""
    if len(frame.estimates) < 2:
        raise ValueError("edge statistic needs a first-derivative output (n_outputs >= 2)")
    return _guarded_ratio(float(frame.estimates[1]), float(frame.covariance[1, 1]))


def peak_statistic(frame: EstimateFrame) -> float:
    """Concavity significance: negated second derivative over its deviation.

    Positive at local maxima of the underlying signal (negative curvature).
    """
    if len(frame.estimates) < 3:
        raise ValueError("peak statistic needs a second-derivative output (n_outputs >= 3)")
    return _guarded_ratio(-float(frame.estimates[2]), float(frame.covariance[2, 2]))


def change_statistic(frame_a: EstimateFrame, frame_b: EstimateFrame) -> float:
    """Disagreement between two smoothers evaluated at the same delayed time."""
    value = float(frame_a.estimates[0]) - float(frame_b.estimates[0])
    variance = float(frame_a.covariance[0, 0]) + float(frame_b.covariance[0, 0])
    return _guarded_ratio(value, variance)


class _RunMarker:
    """Declares one event per contiguous threshold-exceedance run.

    Runs of z > threshold produce kind_pos events at the maximum; when
    kind_neg is given, runs of z < -threshold produce kind_neg events at
    the minimum.  z equal to the threshold is not an exceedance, and a tie
    for the extremum goes to the earliest sample.  An event is returned
    only when its run ends; flush() closes a run left open at end of
    stream.

    update() takes one sample, extend() a block.  Both keep the same
    state: the sign of the run open after the last sample (_sign, 0 when
    none is open) and its extremum so far (_best_n, _best_z).  A run open
    at the end of a block therefore continues into the next block or
    update(), and the two can be mixed freely on one stream.
    """

    def __init__(self, threshold: float, kind_pos: str, kind_neg: Optional[str] = None):
        self.threshold = threshold
        self.kind_pos = kind_pos
        self.kind_neg = kind_neg
        self._sign = 0
        self._best_n = -1
        self._best_z = 0.0

    def update(self, n: int, z: float) -> Optional[Event]:
        if z > self.threshold:
            sign = 1
        elif self.kind_neg is not None and z < -self.threshold:
            sign = -1
        else:
            sign = 0
        completed = None
        if self._sign != 0 and sign != self._sign:
            completed = self._emit()
        if sign != 0:
            if self._sign != sign:
                self._best_n, self._best_z = n, z
            elif (sign > 0 and z > self._best_z) or (sign < 0 and z < self._best_z):
                self._best_n, self._best_z = n, z
            self._sign = sign
        else:
            self._sign = 0
        return completed

    def extend(self, start: int, z: np.ndarray) -> list[Event]:
        """Feed a block whose first sample is number start; returns its events.

        Exceedance runs come from the places where the sign of the
        exceedance changes, and each run's extremum from one reduceat over
        the exceedance samples, so Python work is per run, not per sample.
        """
        z = np.asarray(z, dtype=float)
        pos = z > self.threshold
        sign = pos.astype(np.int8)
        if self.kind_neg is not None:
            # As in update(), a sample past both bounds (a negative
            # threshold) counts as positive.
            sign -= (z < -self.threshold) & ~pos
        active = np.flatnonzero(sign)
        events = []
        if active.size == 0:
            if self._sign != 0 and z.size:
                events.append(self._emit())
            return events
        signs = sign[active]
        # Signed so that every run's extremum is its maximum.
        value = z[active] * signs
        new_run = np.empty(active.size, dtype=bool)
        new_run[0] = True
        np.logical_or(np.diff(active) != 1, signs[1:] != signs[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        peak = np.maximum.reduceat(value, starts)
        lengths = np.diff(starts, append=active.size)
        hits = np.flatnonzero(value == np.repeat(peak, lengths))
        # Every run holds a hit, so the first hit at or after a run's start
        # is that run's earliest extremum.
        best = active[hits[np.searchsorted(hits, starts)]].tolist()
        run_signs = signs[starts].tolist()
        best_z = z[best].tolist()

        if self._sign != 0:
            if active[0] == 0 and run_signs[0] == self._sign:
                # The open run continues; its earlier extremum wins ties.
                if self._sign > 0:
                    keep = best_z[0] <= self._best_z
                else:
                    keep = best_z[0] >= self._best_z
                if keep:
                    best[0], best_z[0] = self._best_n - start, self._best_z
            else:
                events.append(self._emit())
        open_last = active[-1] == z.size - 1
        closed = len(best) - 1 if open_last else len(best)
        for i in range(closed):
            kind = self.kind_pos if run_signs[i] > 0 else self.kind_neg
            events.append(Event(n=start + best[i], z=best_z[i], kind=kind))
        if open_last:
            self._sign = run_signs[-1]
            self._best_n, self._best_z = start + best[-1], best_z[-1]
        else:
            self._sign = 0
        return events

    def flush(self) -> Optional[Event]:
        if self._sign != 0:
            return self._emit()
        return None

    def _emit(self) -> Event:
        kind = self.kind_pos if self._sign > 0 else self.kind_neg
        event = Event(n=self._best_n, z=self._best_z, kind=kind)
        self._sign = 0
        return event


class _EstimatorDetector:
    """Shared machinery for detectors driven by a single estimator."""

    _min_outputs = 2
    _statistic_index = 1
    _statistic_sign = 1.0
    _kind_pos = RISING_EDGE
    _kind_neg: Optional[str] = FALLING_EDGE

    def __init__(self, realization, threshold: float, sigma0_sq: float = 0.0):
        if realization.spec.n_outputs < self._min_outputs:
            raise DesignError(
                f"{type(self).__name__} needs n_outputs >= {self._min_outputs}, "
                f"got {realization.spec.n_outputs}"
            )
        self.threshold = threshold
        self._estimator = StreamingEstimator(realization, sigma0_sq)
        self._marker = _RunMarker(threshold, self._kind_pos, self._kind_neg)
        self.events: list[Event] = []

    def update(self, x: float) -> float:
        """Feed one sample; returns the statistic (events collect in .events)."""
        frame = self._estimator.update(x)
        idx = self._statistic_index
        z = _guarded_ratio(
            self._statistic_sign * float(frame.estimates[idx]),
            float(frame.covariance[idx, idx]),
        )
        self._note(frame.n, z)
        return z

    def run(self, xs: np.ndarray) -> np.ndarray:
        """Feed a block; returns the statistic sequence for the block."""
        start = 0 if self._estimator.state is None else self._estimator.state.n + 1
        result = self._estimator.extend(xs)
        idx = self._statistic_index
        z = _guarded_ratio(
            self._statistic_sign * result.estimates[idx], result.variances[idx]
        )
        self.events.extend(self._marker.extend(start, z))
        return z

    def finish(self) -> None:
        """Close any exceedance run still open at end of stream."""
        event = self._marker.flush()
        if event is not None:
            self.events.append(event)

    def _note(self, n, z):
        event = self._marker.update(n, z)
        if event is not None:
            self.events.append(event)


class EdgeDetector(_EstimatorDetector):
    """Rising/falling edge detection from the slope statistic."""

    _min_outputs = 2
    _statistic_index = 1
    _statistic_sign = 1.0
    _kind_pos = RISING_EDGE
    _kind_neg = FALLING_EDGE


class PeakDetector(_EstimatorDetector):
    """Peak detection from the concavity statistic (one-sided)."""

    _min_outputs = 3
    _statistic_index = 2
    _statistic_sign = -1.0
    _kind_pos = PEAK
    _kind_neg = None


@dataclass(frozen=True)
class ChangeDetectorConfig:
    """Paired-filter setup for trend-break detection.

    filter_a emphasizes new data (small shape parameter), filter_b old data
    (larger shape); both share the decay, model order, and sample period,
    and both are evaluated at the same common delay so their estimates
    refer to the same instant.
    """

    filter_a: DesignSpec
    filter_b: DesignSpec
    common_q: float
    threshold: float

    def __post_init__(self):
        a, b = self.filter_a, self.filter_b
        if a.weight.p != b.weight.p:
            raise DesignError(
                f"change detector filters must share p, got {a.weight.p} and {b.weight.p}"
            )
        if a.model_order != b.model_order:
            raise DesignError(
                f"change detector filters must share model_order, "
                f"got {a.model_order} and {b.model_order}"
            )
        if a.sample_period != b.sample_period:
            raise DesignError(
                f"change detector filters must share sample_period, "
                f"got {a.sample_period} and {b.sample_period}"
            )
        if a.weight.kappa >= b.weight.kappa:
            raise DesignError(
                f"filter_a must have the smaller shape parameter (new-data emphasis), "
                f"got kappa {a.weight.kappa} vs {b.weight.kappa}"
            )
        if not math.isfinite(self.common_q):
            raise DesignError(f"common_q must be finite, got {self.common_q}")


class ChangeDetector:
    """Trend-break detector comparing a fast and a slow smoother.

    Both filters run off one shared pair of moment recursions at the larger
    filter's orders; the smaller filter's output matrices are zero-padded.
    That works because the first states of a longer cascade evolve exactly
    like the shorter cascade.  Z > threshold declares an upward break,
    Z < -threshold a downward one.

    Accepts two already-built realizations so that designs loaded from
    documents run as stored; from_config() builds them from a
    ChangeDetectorConfig instead.
    """

    def __init__(self, realization_a, realization_b, threshold: float,
                 sigma0_sq: float = 0.0):
        if sigma0_sq < 0.0:
            raise ValueError(f"sigma0_sq must be nonnegative, got {sigma0_sq}")
        real_a, real_b = realization_a, realization_b
        spec_a, spec_b = real_a.spec, real_b.spec
        # Mirror the config validation on the resolved specs, plus the
        # common-delay requirement that makes the difference meaningful.
        ChangeDetectorConfig(
            filter_a=replace(spec_a, delay=None),
            filter_b=replace(spec_b, delay=None),
            common_q=spec_a.delay,
            threshold=threshold,
        )
        if abs(spec_a.delay - spec_b.delay) > 1e-9:
            raise DesignError(
                f"change detector filters must share the delay, "
                f"got {spec_a.delay} and {spec_b.delay}"
            )
        self.threshold = threshold
        self.realization_a = real_a
        self.realization_b = real_b
        # Shared recursions at the slow filter's orders (kappa_b > kappa_a).
        k1, k2 = real_b.first_net.order, real_b.second_net.order
        self._p = real_b.spec.weight.p
        self._row_a = _pad(real_a.state_output[0], k1)
        self._row_b = real_b.state_output[0]
        self._coeff_a = _pad_cols(real_a.coeff_output, k1)
        self._coeff_b = real_b.coeff_output
        self._power_a = _pad(real_a.power_output, k2)
        self._power_b = real_b.power_output
        self._vrf_a = float(real_a.vrf[0, 0])
        self._vrf_b = float(real_b.vrf[0, 0])
        self._sigma0_sq = sigma0_sq
        self._state = None
        self._marker = _RunMarker(threshold, BREAK_UP, BREAK_DOWN)
        self.events: list[Event] = []

    @classmethod
    def from_config(cls, config: ChangeDetectorConfig, sigma0_sq: float = 0.0):
        """Build both realizations at the common delay and wrap them."""
        real_a = build_realization(replace(config.filter_a, delay=config.common_q))
        real_b = build_realization(replace(config.filter_b, delay=config.common_q))
        return cls(real_a, real_b, config.threshold, sigma0_sq)

    def update(self, x: float) -> float:
        x = float(x)
        if self._state is None:
            self._state = new_estimator(self.realization_b, x, self._sigma0_sq)
        else:
            _step_moments(self._state, self._p, x)
        z = float(self._statistic(self._state.w1, self._state.w2))
        event = self._marker.update(self._state.n, z)
        if event is not None:
            self.events.append(event)
        return z

    def run(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return np.empty(0)
        start = 0 if self._state is None else self._state.n + 1
        w1_block, w2_block, self._state = _advance_moments(
            self.realization_b, xs, self._sigma0_sq, self._state
        )
        z = self._statistic(w1_block, w2_block)
        self.events.extend(self._marker.extend(start, z))
        return z

    def finish(self) -> None:
        event = self._marker.flush()
        if event is not None:
            self.events.append(event)

    def _statistic(self, w1, w2):
        """Z from the moment states: one sample (vectors) or a block (columns)."""
        sig_a = _noise_variance(
            self._coeff_a @ w1, self._power_a @ w2, self.realization_a.residual_mass
        )
        sig_b = _noise_variance(
            self._coeff_b @ w1, self._power_b @ w2, self.realization_b.residual_mass
        )
        variance = sig_a * self._vrf_a + sig_b * self._vrf_b
        return _guarded_ratio(self._row_a @ w1 - self._row_b @ w1, variance)


def _pad(vector, length):
    out = np.zeros(length)
    out[: len(vector)] = vector
    return out


def _pad_cols(matrix, width):
    out = np.zeros((matrix.shape[0], width))
    out[:, : matrix.shape[1]] = matrix
    return out
