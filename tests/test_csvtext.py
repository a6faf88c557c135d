"""The numpy CSV writer against Python's own '%d' and '%.17g'.

Every value must come out byte for byte as '%.17g' writes it: values in
the fast range through the exact integer scaling, every other one (zeros,
subnormals, huge and tiny magnitudes, inf, nan) through the fallback.
"""

import io

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg._csvtext import CsvWriter

from oracles import template_rows

_BLOCK = 1 << 16


def _written(columns, start=None, text=None):
    """The rows one CsvWriter.write call writes, as text."""
    out = io.BytesIO()
    CsvWriter(out).write(columns, start=start, text=text)
    return out.getvalue().decode("ascii")


def _assert_formats(values):
    values = np.asarray(values, dtype=float)
    for i in range(0, values.size, _BLOCK):
        block = values[i:i + _BLOCK]
        got = _written([block])
        want = template_rows("%.17g\n", [block])
        if got != want:
            bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
            pytest.fail(f"{len(bad)} values differ from '%.17g', first {bad[:5]}")


def test_random_bit_patterns():
    # Uniform bit patterns: both signs and every exponent, subnormals,
    # zeros, inf and nan included; most fall outside the fast range.
    rng = np.random.Generator(np.random.PCG64(20))
    bits = rng.integers(0, 1 << 64, size=2_000_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(0, 1 << 52, size=20_000, dtype=np.uint64)
    subnormal |= rng.integers(0, 2, size=subnormal.size, dtype=np.uint64) << np.uint64(63)
    special = np.array([0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                        0x0000000000000001, 0x8000000000000000], dtype=np.uint64)
    _assert_formats(np.concatenate([bits, subnormal, special]).view(np.float64))


def test_log_uniform_magnitudes():
    # Mostly the fast range, with both of its ends and a margin past them.
    rng = np.random.Generator(np.random.PCG64(21))
    size = 1_000_000
    values = 10.0 ** rng.uniform(-13.0, 17.0, size) * rng.choice([-1.0, 1.0], size)
    _assert_formats(values)
    # Short decimals: trailing zeros that %g strips.
    _assert_formats(np.round(values[:200_000] * 1e-6, 9))
    _assert_formats(np.round(values[200_000:400_000], 2))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                           max_size=50))
def test_any_float(values):
    _assert_formats(values)


def _edges():
    powers = np.array([10.0 ** j for j in range(-20, 21)])
    return np.concatenate([
        [0.0, -0.0],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        # Switch points: fixed below 1e-4 and from 1e16 on, the fast
        # range's ends, and the rounding to 17 digits across them.
        [1e-5, 1e-4, 1e16, 1e17, 1e-11, 1e15, 9.99999999999999e-5, 9.9999999999999995e-5,
         99999999999999.99, 999999999999999.9, 9999999999999998.0],
        # Exact half-even ties at the 17th digit.
        [100000000000000.125, 10000000000000.0625, -100000000000000.625,
         100000000000000.375, 1000000000000000.25],
        # Literals past 17 digits that parse to a power of ten; the
        # largest doubles below each power are among the nextafter values.
        [0.99999999999999999, 9.9999999999999999, 0.099999999999999999,
         9.99999999999999999e-6, 99999999999999.999],
    ])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edge_values(sign):
    _assert_formats(sign * _edges())


def _dense_columns():
    """Columns at the edges of the dense layout (integer parts below 1e4)."""
    below = np.nextafter(np.array([1e4, 1e-4, 1e-5]), 0.0)
    fixed = np.array([1.0, 9.5, 12.25, 999.875, 1234.5678, 3.0, 7.0, 0.1, 0.015625,
                      1.0000000000000002, 2.5e-4, 0.0012345678901234567])
    scientific = np.array([9.9999999999999991e-5, 1.5e-7, 3.25e-10, 1.0000000000000001e-11])
    # Last fraction group 0 (short decimals and integers) mixed with rows
    # whose last group is not.
    short = np.array([0.5, 1.25, 17.0, 0.1234, 4096.0, 5.0000000000000009, 0.25,
                      1.1, 2.0, 9999.0, 0.0001])
    slow = np.array([0.0, -0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, 1e-12])
    mixed = np.concatenate([fixed, scientific, short])
    return {
        "below-1e4": np.concatenate([below, fixed]),
        "at-1e4": np.concatenate([below, fixed, [1e4]]),
        "no-scientific": np.concatenate([fixed, short, [below[0], 1e-4]]),
        "mixed": mixed,
        "negative": -mixed,
        "both-signs": mixed * np.resize([1.0, -1.0], mixed.size),
        "with-slow": np.concatenate([mixed, slow, -mixed]),
        "only-short": short,
        "short-with-slow": np.concatenate([short, [0.0, np.nan, -np.inf]]),
        "smallest-below-1e-4": np.concatenate([short, below[1:2]]),
    }


@pytest.mark.parametrize("name", sorted(_dense_columns()))
def test_dense_layout_edges(name):
    column = _dense_columns()[name]
    rng = np.random.Generator(np.random.PCG64(24))
    columns = [column, rng.permutation(column), column[::-1]]
    assert _written(columns) == template_rows("%.17g,%.17g,%.17g\n", columns)
    assert _written(columns[:1], start=3) == template_rows(
        "%d,%.17g\n", [range(3, 3 + column.size), column])
    _assert_formats(column)


def _wide_column(digits):
    """A column whose largest integer part has digits digits, with zeros
    below higher digits at every width up to it, and fields of every other
    kind: one digit, zeros, a tail word and two '%.17g' fields."""
    return np.array([
        *(10.0 ** j + 0.0625 for j in range(digits)),
        float("123456789012345"[:digits]) + 0.5,
        -(10.0 ** digits - 1.25),
        7.25, 0.0, -0.0, 1e-5, 5e-324, np.inf,
    ])


@pytest.mark.parametrize("tail", [True, False])
@pytest.mark.parametrize("digits", [4, 5, 8, 9, 12, 13, 15])
def test_wide_integer_parts(digits, tail):
    # 4 digits fit the head; 5-8, 9-12 and 13-15 take 1, 2 and 3 words
    # of digits above the head's four.
    column = _wide_column(digits)
    if not tail:
        column = column[column != 1e-5]
    assert len("%d" % np.max(np.abs(column), where=np.isfinite(column), initial=0.0)) == digits
    columns = [column, -column[::-1]]
    assert _written(columns) == template_rows("%.17g,%.17g\n", columns)
    assert _written(columns, start=9_995) == template_rows(
        "%d,%.17g,%.17g\n", [range(9_995, 9_995 + column.size), *columns])


def test_ties_round_to_even():
    assert _written([[100000000000000.125, 10000000000000.0625, -100000000000000.625]]) == (
        "100000000000000.12\n10000000000000.062\n-100000000000000.62\n")


@pytest.mark.parametrize("start,count", [
    (0, 12), (5, 10), (99_999_990, 20), (100_000_000, 3), (123_456_789_012, 5),
    (10**19 - 2, 4),
])
def test_row_numbers(start, count):
    values = np.linspace(-1.5, 2.5, count)
    want = template_rows("%d,%.17g\n", [range(start, start + count), values])
    assert _written([values], start=start) == want


def test_columns_and_text():
    rng = np.random.Generator(np.random.PCG64(22))
    columns = [rng.standard_normal(300) * 10.0 ** rng.integers(-14, 19) for _ in range(4)]
    columns[1][::7] = 0.0
    marks = {0: "peak", 150: "falling-edge", 299: "break-up"}
    kinds = [marks.get(i, "") for i in range(300)]
    assert _written(columns) == template_rows("%.17g,%.17g,%.17g,%.17g\n", columns)
    assert _written(columns[:1], start=40, text=marks) == template_rows(
        "%d,%.17g,%s\n", [range(40, 340), columns[0], kinds])
    assert _written(columns[:2], start=0, text={}) == template_rows(
        "%d,%.17g,%.17g,%s\n", [range(300), *columns[:2], [""] * 300])


def test_no_rows():
    assert _written([np.empty(0)], start=7, text={}) == ""
    assert _written([np.empty(0), np.empty(0)]) == ""


@pytest.mark.parametrize("numbered", [True, False])
def test_one_writer_across_changing_layouts(numbered):
    # One writer reuses one buffer: a wide block of fast-range values, then
    # one with every other kind of field and longer text, then a narrow
    # block, then a short one.  A byte left over from an earlier block, in
    # a slot, its padding or past the end of the rows, would show here.
    rng = np.random.Generator(np.random.PCG64(23))
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e15, -3.5e17, 1e300, 1.5e-7,
                        -2.5e-12, 1e-300, np.inf, -np.inf, np.nan])
    blocks = [
        (9_700, [rng.uniform(1e14, 9e14, 500) * rng.choice([-1.0, 1.0], 500)
                 for _ in range(3)], {0: "peak", 499: "rising-edge"}),
        (20_000, [rng.permutation(np.resize(np.concatenate(
            [special, 1e3 * rng.standard_normal(40)]), 700)) for _ in range(3)],
         {3: "a-much-longer-event-kind", 650: "falling-edge"}),
        (0, [rng.uniform(-1.0, 1.0, 600) for _ in range(3)], {}),
        (5, [rng.uniform(-1.0, 1.0, 3) for _ in range(3)], {1: "x"}),
    ]
    assert all(1e14 <= abs(v) < 1e15 for v in np.concatenate(blocks[0][1]))
    out = io.BytesIO()
    writer = CsvWriter(out)
    want = []
    for start, columns, text in blocks:
        count = columns[0].size
        if numbered:
            writer.write(columns, start=start, text=text)
            kinds = [text.get(i, "") for i in range(count)]
            want.append(template_rows("%d,%.17g,%.17g,%.17g,%s\n",
                                      [range(start, start + count), *columns, kinds]))
        else:
            writer.write(columns)
            want.append(template_rows("%.17g,%.17g,%.17g\n", columns))
    assert out.getvalue() == "".join(want).encode("ascii")
