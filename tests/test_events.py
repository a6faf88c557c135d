"""Block event extraction: _RunMarker.extend and chunking invariance.

Z and events must not depend on how a stream is cut into blocks, nor on
how run() and update() calls are mixed on one detector, also on top of a
large DC offset.
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
@hypothesis.given(
    seed=st.integers(0, 2**16), plan=_CHUNK_PLANS, offset=st.sampled_from([0.0, 1e8])
)
def test_events_do_not_depend_on_chunking(kind, seed, plan, offset):
    xs = _ramp_and_bump(seed) + offset
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


def _extended(marker, start, z):
    """The events one extend() call appends."""
    taken = len(marker.events)
    marker.extend(start, np.array(z))
    return marker.events[taken:]


def _flushed(marker):
    """The events one flush() call appends."""
    taken = len(marker.events)
    marker.flush()
    return marker.events[taken:]


@hypothesis.given(
    z=st.lists(
        st.sampled_from([-5.0, -4.0, -3.0, -1.0, -0.0, 0.0, 2.0, 3.0, 4.0, 5.0,
                         math.nan, math.inf, -math.inf]),
        max_size=60,
    ),
    cuts=st.lists(st.integers(0, 60), max_size=8),
    per_sample=st.lists(st.booleans(), max_size=9),
    two_sided=st.booleans(),
    threshold=st.sampled_from([3.0, 0.0, -1.0, -3.0, math.inf, -math.inf]),
)
# One-sample blocks, one of them carrying an open run on.
@hypothesis.example(z=[4.0, 5.0, 0.0, 4.0], cuts=[1, 2, 3], per_sample=[],
                    two_sided=True, threshold=3.0)
# Every sample of the block exceeds, and the runs turn sign inside it.
@hypothesis.example(z=[4.0, 5.0, 4.0, -4.0, -5.0], cuts=[], per_sample=[],
                    two_sided=True, threshold=3.0)
# The second block's first sample continues the open run, with a tie.
@hypothesis.example(z=[0.0, 4.0, 5.0, 5.0, 4.0, 0.0], cuts=[3], per_sample=[],
                    two_sided=True, threshold=3.0)
# The second block's first sample turns the open run's sign.
@hypothesis.example(z=[0.0, 4.0, 5.0, -4.0, -5.0, 0.0], cuts=[3], per_sample=[],
                    two_sided=True, threshold=3.0)
# A negative threshold: 0.0 is past both bounds and counts as positive.
@hypothesis.example(z=[0.0, -3.0, 2.0, 0.0, -3.0], cuts=[2], per_sample=[],
                    two_sided=True, threshold=-1.0)
# A zero-length block while a run is open, which stays open; once after
# samples fed one at a time.
@hypothesis.example(z=[0.0, 4.0, 5.0, 4.0, 0.0], cuts=[2, 2], per_sample=[],
                    two_sided=True, threshold=3.0)
@hypothesis.example(z=[0.0, 4.0, 5.0, 4.0, 0.0], cuts=[2, 2], per_sample=[True],
                    two_sided=False, threshold=3.0)
# A block with no exceedance closes the open run.
@hypothesis.example(z=[4.0, 5.0, 0.0, 1.0, 4.0], cuts=[2, 4], per_sample=[],
                    two_sided=True, threshold=3.0)
# Two-sided runs read |z| > threshold: infinite samples exceed every
# finite threshold, -0.0 is 0.0, and an infinite threshold bounds both
# sides.  At +inf nothing exceeds; at -inf every sample but NaN does, -inf
# itself as a positive one, as in update().
@hypothesis.example(z=[-0.0, 0.0, math.inf, -math.inf, -0.0, math.nan, -math.inf],
                    cuts=[3], per_sample=[], two_sided=True, threshold=0.0)
@hypothesis.example(z=[math.inf, -math.inf, 5.0, math.nan], cuts=[1], per_sample=[],
                    two_sided=True, threshold=math.inf)
@hypothesis.example(z=[-math.inf, 0.0, math.inf, math.nan, -math.inf, -0.0], cuts=[2],
                    per_sample=[False, True], two_sided=True, threshold=-math.inf)
@hypothesis.example(z=[-math.inf, 4.0, -0.0, math.inf], cuts=[], per_sample=[],
                    two_sided=False, threshold=-math.inf)
def test_marker_extend_matches_update(z, cuts, per_sample, two_sided, threshold):
    # Few distinct values make ties, threshold hits and sign turns common.
    # A negative threshold puts samples past both bounds.
    kind_neg = "down" if two_sided else None
    scalar = _RunMarker(threshold, "up", kind_neg)
    for n, v in enumerate(z):
        scalar.update(n, v)
    scalar.flush()

    # A repeated cut makes a zero-length block; block i goes through
    # update() one sample at a time when per_sample[i] is set.
    mixed = _RunMarker(threshold, "up", kind_neg)
    bounds = sorted([0, len(z), *(c for c in cuts if c <= len(z))])
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if i < len(per_sample) and per_sample[i]:
            for n in range(lo, hi):
                mixed.update(n, z[n])
        else:
            mixed.extend(lo, np.array(z[lo:hi]))
    mixed.flush()
    assert mixed.events == scalar.events


def test_marker_tie_takes_first_index():
    marker = _marker()
    assert _extended(marker, 10, [0.0, 5.0, 7.0, 7.0, 2.0]) == [Event(12, 7.0, "up")]
    assert _extended(marker, 15, [-4.0, -6.0, -6.0, 0.0]) == [Event(16, -6.0, "down")]
    # A tie across a block boundary keeps the earlier sample.
    marker.extend(19, np.array([0.0, 4.0, 7.0]))
    assert _extended(marker, 22, [7.0, 1.0]) == [Event(21, 7.0, "up")]


def test_marker_threshold_is_not_an_exceedance():
    marker = _marker()
    assert _extended(marker, 0, [3.0, -3.0, 3.0, 0.0, -3.0]) == []
    assert _flushed(marker) == []
    assert _extended(marker, 5, [3.0, np.nextafter(3.0, 4.0), 3.0]) == [
        Event(6, float(np.nextafter(3.0, 4.0)), "up")
    ]


def test_marker_sign_turn_emits_both_events():
    marker = _marker()
    assert _extended(marker, 0, [4.0, 5.0, -4.0, -6.0, 0.0]) == [
        Event(1, 5.0, "up"),
        Event(3, -6.0, "down"),
    ]
    # The same turn across a block boundary.
    assert _extended(marker, 5, [4.0, 5.0]) == []
    assert _extended(marker, 7, [-4.0, -6.0]) == [Event(6, 5.0, "up")]
    assert _flushed(marker) == [Event(8, -6.0, "down")]


def test_marker_open_run_closes_later():
    marker = _marker()
    assert _extended(marker, 0, [0.0, 4.0, 6.0]) == []
    assert _extended(marker, 3, []) == []
    assert _extended(marker, 3, [5.0, 8.0, 4.0]) == []
    assert _extended(marker, 6, [0.0]) == [Event(4, 8.0, "up")]
    assert _extended(marker, 7, [9.0, 5.0]) == []
    assert _flushed(marker) == [Event(7, 9.0, "up")]
    assert _flushed(marker) == []


def test_event_is_a_plain_value():
    event = Event(n=4, z=8.0, kind="up")
    assert (event.n, event.z, event.kind) == (4, 8.0, "up")
    assert repr(event) == "Event(n=4, z=8.0, kind='up')"
    assert event == Event(4, 8.0, "up") != Event(4, 8.0, "down")
    assert hash(event) == hash(Event(4, 8.0, "up"))
    assert len({event, Event(4, 8.0, "up"), Event(5, 8.0, "up")}) == 2
    with pytest.raises(AttributeError):
        event.n = 5
