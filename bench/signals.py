"""Seeded test signals: a trend with planted events, plus Gaussian noise.

The benchmark makes every input from its workload seed; the program under
test only ever receives the samples.
"""

import numpy as np

OFFSET = 1.0e6          # DC level of the offset segment, like raw sensor counts
STRONG_BREAK = 0.25     # |slope change| per sample that counts as a planted break
PACKET_LOW, PACKET_HIGH = 64, 8192   # packet size range of stream-block
PACKET_LADDER = 64      # log-spaced sizes per block of packets


def rng_for(seed, *stream):
    """Independent generator for (seed, stream...) so inputs never share draws."""
    return np.random.Generator(np.random.PCG64([int(seed), *map(int, stream)]))


def trend_signal(rng, n, offset_span=None):
    """n samples of a piecewise-linear trend with steps, bumps and noise.

    Segment boundaries come every 300-1500 samples.  Most boundaries change
    the slope a little; one in four jumps to a steep slope (0.3-0.6 per
    sample, heading back towards zero level) and the next one drops it
    again, so both ends of a steep segment are strong slope breaks.  A
    quarter of the boundaries also carry a step, and Gaussian bumps arrive
    about once per 2000 samples.  Unit-variance white noise rides on top.
    offset_span=(start, stop) lifts that stretch by OFFSET.

    Returns (xs, breaks): the samples and the indices of the planted slope
    breaks of at least STRONG_BREAK per sample.
    """
    slope = np.empty(n)
    steps = np.zeros(n)
    breaks = []
    start, level, current, steep = 0, 0.0, 0.0, False
    while start < n:
        length = int(rng.integers(300, 1500))
        if not steep and rng.random() < 0.25:
            new = -np.sign(level or 1.0) * rng.uniform(1.0, 2.0)
            steep = True
        else:
            new = rng.normal(0.0, 0.01)
            steep = False
        if start > 0 and abs(new - current) >= STRONG_BREAK:
            breaks.append(start)
        if start > 0 and rng.random() < 0.25:
            steps[start] = rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 10.0)
        stop = min(n, start + length)
        slope[start:stop] = new
        level += new * (stop - start) + steps[start]
        current, start = new, stop
    trend = np.cumsum(slope) + np.cumsum(steps)

    n_bumps = max(1, n // 2000)
    centres = rng.uniform(0, n, n_bumps)
    widths = rng.uniform(5.0, 30.0, n_bumps)
    heights = rng.choice([-1.0, 1.0], n_bumps) * rng.uniform(3.0, 8.0, n_bumps)
    for c, w, h in zip(centres, widths, heights):
        lo, hi = max(0, int(c - 6 * w)), min(n, int(c + 6 * w) + 1)
        m = np.arange(lo, hi)
        trend[lo:hi] += h * np.exp(-0.5 * ((m - c) / w) ** 2)

    xs = trend + rng.standard_normal(n)
    if offset_span is not None:
        xs[offset_span[0]:offset_span[1]] += OFFSET
    return xs, np.array(breaks, dtype=np.int64)


def packet_sizes(rng, total):
    """Packet sizes from PACKET_LOW to PACKET_HIGH, log-uniform, adding up to total.

    Sizes come in blocks of PACKET_LADDER packets.  Each block holds the same
    log-spaced sizes in a seeded order, so any stretch of packets has nearly
    the same size mix and per-packet statistics do not drift with the seed.
    """
    rungs = np.rint(np.geomspace(PACKET_LOW, PACKET_HIGH, PACKET_LADDER)).astype(int).tolist()
    sizes = []
    remaining = total
    while remaining > 0:
        for size in rng.permutation(rungs).tolist():
            size = min(size, remaining)
            sizes.append(size)
            remaining -= size
            if remaining == 0:
                break
    return sizes
