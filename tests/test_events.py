"""Block event extraction: _RunMarker.extend and chunking invariance.

Events must not depend on how a stream is cut into blocks, nor on how
run() and update() calls are mixed on one detector.
"""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import ChangeDetector, EdgeDetector, PeakDetector
from erlangreg.detectors import Event, _RunMarker

from oracles import build

_PRIOR = 0.25


def _ramp_and_bump(seed, n=500):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(n, dtype=float)
    ramp = 4.0 * np.clip((t - 120.0) / 40.0, 0.0, 1.0)
    bump = 6.0 * np.exp(-0.5 * ((t - 340.0) / 15.0) ** 2)
    return ramp + bump + 0.5 * rng.standard_normal(n)


_DETECTORS = {
    "edge": lambda: EdgeDetector(build(2, 0.8, 2, kt=2, q=None), 3.0, _PRIOR),
    "peak": lambda: PeakDetector(build(2, 0.8, 3, kt=3, q=None), 3.0, _PRIOR),
    "change": lambda: ChangeDetector(
        build(0, 0.8, 2, kt=1, q=8.5), build(3, 0.8, 2, kt=1, q=8.5), 3.0, _PRIOR
    ),
}

# (chunk length, fed through update() instead of run())
_CHUNK_PLANS = st.lists(
    st.tuples(st.one_of(st.just(1), st.integers(1, 120)), st.booleans()),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("kind", sorted(_DETECTORS))
@hypothesis.given(seed=st.integers(0, 2**16), plan=_CHUNK_PLANS)
def test_events_do_not_depend_on_chunking(kind, seed, plan):
    xs = _ramp_and_bump(seed)
    whole = _DETECTORS[kind]()
    z_whole = whole.run(xs)
    whole.finish()

    chunked = _DETECTORS[kind]()
    parts = []
    pos, i = 0, 0
    while pos < xs.size:
        size, per_sample = plan[i % len(plan)]
        chunk = xs[pos:pos + size]
        if per_sample:
            parts.append(np.array([chunked.update(x) for x in chunk]))
        else:
            parts.append(chunked.run(chunk))
        pos += size
        i += 1
    chunked.finish()

    # The recursion states carry across blocks exactly; the readouts are
    # matrix products whose rounding depends on the block width, so Z
    # agrees to rounding and each event lands on the same sample.
    np.testing.assert_allclose(np.concatenate(parts), z_whole, rtol=1e-12, atol=1e-12)
    assert [(e.n, e.kind) for e in chunked.events] == [(e.n, e.kind) for e in whole.events]
    for got, expected in zip(chunked.events, whole.events):
        assert got.z == pytest.approx(expected.z, rel=1e-12, abs=1e-12)


def _marker():
    return _RunMarker(3.0, "up", "down")


@hypothesis.given(
    z=st.lists(
        st.sampled_from([-5.0, -4.0, -3.0, -1.0, 0.0, 2.0, 3.0, 4.0, 5.0, math.nan]),
        max_size=60,
    ),
    cuts=st.lists(st.integers(0, 60), max_size=8),
    two_sided=st.booleans(),
    threshold=st.sampled_from([3.0, 0.0, -1.0, -3.0]),
)
def test_marker_extend_matches_update(z, cuts, two_sided, threshold):
    # Few distinct values make ties, threshold hits and sign turns common.
    # A negative threshold puts samples past both bounds.
    kind_neg = "down" if two_sided else None
    scalar = _RunMarker(threshold, "up", kind_neg)
    expected = [e for n, v in enumerate(z) if (e := scalar.update(n, v)) is not None]
    expected.append(scalar.flush())

    block = _RunMarker(threshold, "up", kind_neg)
    got = []
    bounds = sorted({0, len(z), *(c for c in cuts if c <= len(z))})
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        got += block.extend(lo, np.array(z[lo:hi]))
    got.append(block.flush())
    assert got == expected


def test_marker_tie_takes_first_index():
    marker = _marker()
    assert marker.extend(10, np.array([0.0, 5.0, 7.0, 7.0, 2.0])) == [Event(12, 7.0, "up")]
    assert marker.extend(15, np.array([-4.0, -6.0, -6.0, 0.0])) == [Event(16, -6.0, "down")]
    # A tie across a block boundary keeps the earlier sample.
    marker.extend(19, np.array([0.0, 4.0, 7.0]))
    assert marker.extend(22, np.array([7.0, 1.0])) == [Event(21, 7.0, "up")]


def test_marker_threshold_is_not_an_exceedance():
    marker = _marker()
    assert marker.extend(0, np.array([3.0, -3.0, 3.0, 0.0, -3.0])) == []
    assert marker.flush() is None
    assert marker.extend(5, np.array([3.0, np.nextafter(3.0, 4.0), 3.0])) == [
        Event(6, float(np.nextafter(3.0, 4.0)), "up")
    ]


def test_marker_sign_turn_emits_both_events():
    marker = _marker()
    assert marker.extend(0, np.array([4.0, 5.0, -4.0, -6.0, 0.0])) == [
        Event(1, 5.0, "up"),
        Event(3, -6.0, "down"),
    ]
    # The same turn across a block boundary.
    assert marker.extend(5, np.array([4.0, 5.0])) == []
    assert marker.extend(7, np.array([-4.0, -6.0])) == [Event(6, 5.0, "up")]
    assert marker.flush() == Event(8, -6.0, "down")


def test_marker_open_run_closes_later():
    marker = _marker()
    assert marker.extend(0, np.array([0.0, 4.0, 6.0])) == []
    assert marker.extend(3, np.array([])) == []
    assert marker.extend(3, np.array([5.0, 8.0, 4.0])) == []
    assert marker.extend(6, np.array([0.0])) == [Event(4, 8.0, "up")]
    assert marker.extend(7, np.array([9.0, 5.0])) == []
    assert marker.flush() == Event(7, 9.0, "up")
    assert marker.flush() is None
