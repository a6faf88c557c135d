"""Host-speed calibration for timings taken on a shared machine.

On shared hosts each CPU of a small VM can switch between two speeds,
about a factor of two apart, every few seconds.  Each CPU switches on its
own schedule.  A 10-second run can then land anywhere between the two
speeds, and its medians move by 30% or more from run to run with no change
in the code.

So every timed stretch is bracketed by a short calibration loop, timed on
the same CPU at the same moment, and every reported time is scaled to the
speed at which that loop takes NOMINAL_MS:

    reported = measured * NOMINAL_MS / calibration

The loop mixes what the package spends its time on: small numpy calls, a
first-order lfilter over a block, and a plain Python loop over floats.  Raw
(unscaled) times are still printed in the report.
"""

import math
import os
import select
import subprocess
import time

import numpy as np
from scipy.signal import lfilter

NOMINAL_MS = 0.2
CADENCE_S = 0.03    # in-process: seconds of operations between calibrations
SAMPLE_S = 0.1      # processes: seconds between calibrations while a child runs
TIMEOUT_S = 170.0   # processes: a child running longer is killed
_ROW = np.ones((3, 6))
_RAMP = np.linspace(0.0, 1.0, 2048)
_VALUES = _RAMP[:400].tolist()


def _loop():
    w = np.zeros(6)
    for _ in range(20):
        w = 0.9 * np.cumsum(w) + 1.0
        beta = _ROW @ w
        float(beta @ beta)
    lfilter([1.0], [1.0, -0.9], _RAMP, zi=[0.0])
    count = 0
    for v in _VALUES:
        if v > 0.5:
            count += 1
    return count


def calibrate():
    """Milliseconds for the calibration loop here and now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def scale(calibration_ms):
    """Factor that turns a time measured at this speed into nominal time."""
    return NOMINAL_MS / calibration_ms


class Windows:
    """Operation times in short segments, each bracketed by calibrations.

    add() records one operation; once CADENCE_S has passed since the last
    calibration, a new one closes the segment.  scaled() returns every
    operation's time scaled by the mean calibration at its segment's ends.
    Times go into a numpy array filled at construction, so the memory they
    take does not grow with the number of operations below `capacity`.
    """

    def __init__(self, capacity=4096):
        self._times = np.full(capacity, np.nan)
        self.count = 0
        self.bounds = [0]
        self.calibrations = [calibrate()]
        self._last = time.perf_counter()

    @property
    def times(self):
        return self._times[:self.count]

    def add(self, seconds):
        if self.count == self._times.size:
            self._times = np.concatenate([self._times, np.full(self._times.size, np.nan)])
        self._times[self.count] = seconds
        self.count += 1
        if time.perf_counter() - self._last >= CADENCE_S:
            self.close()

    def close(self):
        if self.bounds[-1] < self.count:
            self.calibrations.append(calibrate())
            self.bounds.append(self.count)
            self._last = time.perf_counter()

    def scaled(self):
        self.close()
        out = self.times.copy()
        for i in range(len(self.bounds) - 1):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            out[lo:hi] *= scale(0.5 * (self.calibrations[i] + self.calibrations[i + 1]))
        return out

    def typical(self):
        """Median over segments of the segment's mean scaled operation time.

        Host speed can also switch inside a segment, which splits single
        operation times into two modes; a segment mean moves smoothly with
        the mix where a per-operation percentile jumps between the modes.
        """
        scaled = self.scaled()
        means = [scaled[lo:hi].mean() for lo, hi in zip(self.bounds, self.bounds[1:])]
        return float(np.median(means)) if means else math.nan

    def calibration_median(self):
        return float(np.median(self.calibrations))


def run_process(argv, env, stdout=subprocess.DEVNULL, stderr=None):
    """Run a process pinned to one CPU, sampling that CPU's speed meanwhile.

    The caller and the child share the first allowed CPU for the child's
    life; the caller wakes every SAMPLE_S to time the calibration loop
    there.  Returns (exit code, wall seconds, scaled seconds, peak RSS in MB).
    """
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
        calibrations = [calibrate()]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            while not poller.poll(SAMPLE_S * 1e3):
                calibrations.append(calibrate())
                if time.perf_counter() - start > TIMEOUT_S:
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(fd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        calibrations.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    scaled = wall * scale(float(np.mean(calibrations)))
    return proc.returncode, wall, scaled, usage.ru_maxrss / 1024.0
