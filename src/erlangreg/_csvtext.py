"""CSV rows of float64 columns, byte for byte what '%.17g' writes, built in numpy.

csv_lines() turns a block of float columns, with an optional leading
row-number column and an optional trailing text column, into the text
that '%d,%.17g,...,%s\\n' % row gives for each row.  Every row is laid out
in one uint8 matrix in which each field has a fixed-width slot padded
with NUL bytes; deleting the NULs leaves the rows.

Fast path.  A finite x with 1e-11 <= |x| < 1e15 is x = M * 2**E with an
integer mantissa M < 2**53.  Its 17 significant digits are the integer
D = round_half_even(M * 5**k / 2**(-E - k)), k = 16 - X, where X is the
decimal exponent (1e16 <= D < 1e17).  On this range 0 <= k <= 27 and
5**27 < 2**63, so M * 5**k fits two 64-bit limbs and the division is a
shift by 0..63 bits: the same correctly rounded result as the dtoa
behind '%.17g' (Adams, "Ryu revisited: printf floating point conversion",
OOPSLA 2019).  X starts from log10|x| and is corrected by one wherever
the truncated D falls outside [1e16, 1e17).  D never rounds up to 1e17:
the largest double below each power of ten from 1e-10 to 1e15 lies at
least 4.5e-17 of it below, and rounding up would need 5e-18.  Trailing
zeros are dropped as %g drops them, and the field is fixed notation for
-4 <= X < 17 and d.ddde-XX otherwise.

Every other value (zeros, subnormals, |x| outside the range, inf and nan)
is formatted by '%.17g' itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_lines"]

_U64 = np.uint64
_NUL, _COMMA, _DOT, _ZERO = 0, ord(","), ord("."), ord("0")

# The fast range: true decimal exponents -11..14, so k = 16 - X is 2..27
# and the shift -E - k is 0..63 bits even when the first guess of X is
# one off.  The lower bound is the first double at or above 10**-11.
_LOW = float(np.nextafter(1e-11, 1.0))
_HIGH = 1e15
_X_MIN, _X_MAX = -11, 14
_POW5 = np.array([5**k for k in range(28)], dtype=_U64)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)
_HALF = _U64(1 << 63)
_LOW32 = _U64(0xFFFFFFFF)

# Four ASCII digits of 0..9999, each group as one native uint32 word, in
# three variants at offsets 0, _LEADING and _TRAILING.
_QUADS = np.arange(10_000)[:, None]
_PLACES = np.array([1000, 100, 10, 1])
_DIGITS4 = (_QUADS // _PLACES % 10 + _ZERO).astype(np.uint8)
_WORDS = np.concatenate([
    _DIGITS4,
    _DIGITS4 * (_QUADS >= _PLACES),                 # leading zeros as NUL
    _DIGITS4 * (_QUADS % (10 * _PLACES) != 0),      # trailing zeros as NUL
]).view(np.uint32).ravel()
_LEADING, _TRAILING = 10_000, 20_000

# Per decimal exponent X (and sign): the head of a field, ',' with the sign
# and, for -4 <= X < 0, "0." and zeros, as 2 words; its tail, "e-XX" in
# scientific notation, as 1 word.
_XS = range(_X_MIN, _X_MAX + 1)
_HEAD = np.array(
    ["," + sign + ("0." + "0" * (-x - 1) if -4 <= x < 0 else "")
     for sign in ("", "-") for x in _XS],
    dtype="S8",
).view(np.uint32).reshape(-1, 2).T.copy()
_TAIL = np.array(["e-%02d" % -x if x < -4 else "" for x in _XS], dtype="S4").view(np.uint32)
# Digits before the point: X + 1 in fixed notation with X >= 0, else the
# lead digit; the point goes in only in those cases, where "0." is not in
# the head, and only when a nonzero digit follows it.
_BEFORE = np.array([x + 1 if x >= 0 else 1 for x in _XS])
_POINTED = np.array([not -4 <= x < 0 for x in _XS])
_POW10 = np.array([10**j for j in range(20)], dtype=_U64)


def _scaled(mant, exp2, x10):
    """floor(mant * 2**exp2 * 10**(16 - x10)) and its fraction as 64 bits.

    Exact: the product mant * 5**k is formed in two 64-bit limbs and
    shifted right by s = -(exp2 + k) bits, 0 <= s <= 63.
    """
    k = 16 - x10
    five = _POW5[k]
    shift = (-(exp2 + k)).astype(_U64)
    m_lo, m_hi = mant & _LOW32, mant >> _U64(32)
    f_lo, f_hi = five & _LOW32, five >> _U64(32)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo               # < 2**63 + 2**53
    lo = low + (mid << _U64(32))
    hi = m_hi * f_hi + (mid >> _U64(32)) + (lo < low)
    # Two-step shifts keep every shift count below 64 when shift is 0.
    up = _U64(63) - shift
    floor = ((hi << up) << _U64(1)) | (lo >> shift)
    frac = (lo << up) << _U64(1)
    return floor, frac


def _quads(values, count=4):
    """The count 4-digit groups of values < 10**(4 * count), most significant first.

    Remainders are taken as a - (a // d) * d: numpy's % does not get the
    fast division by a constant that // gets.
    """
    if count > 2:
        high = values // _U64(10**8)
        return _quads(high, count - 2) + _quads(values - high * _U64(10**8), 2)
    values = values.astype(np.intp)
    if count == 1:
        return [values]
    high = values // 10**4
    return [high, values - high * 10**4]


def _fast_fields(x):
    """The NUL-padded fields of fast-range values x as rows of uint32 words.

    A row is the head (2 words), the digits before the point, right-aligned
    (as many words as the longest needs), the point (1 word), the digits
    after it, left-aligned (4 words), and the tail (1 word).  Every step
    works on whole 1-D arrays: numpy's per-row cost on narrow 2-D arrays
    would exceed the arithmetic.
    """
    bits = x.view(_U64)
    mant = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    exp2 = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64) - 1075
    x10 = np.floor(np.log10(np.abs(x))).astype(np.int64)
    np.clip(x10, _X_MIN, _X_MAX, out=x10)       # in case log10 rounds across
    floor, frac = _scaled(mant, exp2, x10)
    off = np.flatnonzero((floor < _TEN16) | (floor >= _TEN17))
    if off.size:
        x10[off] += np.where(floor[off] < _TEN16, -1, 1)
        floor[off], frac[off] = _scaled(mant[off], exp2[off], x10[off])
    digits = floor + ((frac > _HALF) | ((frac == _HALF) & (floor & _U64(1) == 1)))

    # digits = before * 10**(17 - count) + after, split at the point.
    xi = x10 - _X_MIN
    count = _BEFORE[xi]
    scale = _POW10[17 - count]
    before = digits // scale
    after = digits - before * scale
    width = -(-int(count.max()) // 4)
    fields = np.empty((x.size, width + 8), np.uint32)
    head = (bits >> _U64(63)).astype(np.intp) * len(_XS) + xi
    fields[:, 0] = np.take(_HEAD[0], head)
    fields[:, 1] = np.take(_HEAD[1], head)
    # Group j holds leading zeros where the number has fewer digits than
    # the groups from j rightwards; a group of only those is all NUL.
    for j, group in enumerate(_quads(before, width)):
        lead = (count < 4 * (width - j)) * _LEADING
        fields[:, 2 + j] = np.take(_WORDS, group + lead)
    fields[:, 2 + width] = ((after != 0) & _POINTED[xi]) * np.uint32(_DOT)
    # Group j holds trailing zeros where every group right of it is zero.
    rest = 0
    for j, group in reversed(list(enumerate(_quads(after * _POW10[count - 1])))):
        fields[:, 3 + width + j] = np.take(_WORDS, group + (rest == 0) * _TRAILING)
        rest = rest | group
    fields[:, -1] = _TAIL[xi]
    return fields


def _float_fields(x):
    """',' and the '%.17g' text of each value of x, one NUL-padded uint8 row each."""
    with np.errstate(invalid="ignore"):
        size = np.abs(x)
        fast = (size >= _LOW) & (size < _HIGH)
    if fast.all():
        return _fast_fields(x).view(np.uint8)
    slow = ~fast
    # One %-call for all of them; no '%.17g' output is longer than 24.
    values = x[slow].tolist()
    text = ((",%-24.17g" * len(values)) % tuple(values)).replace(" ", "\0")
    text = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), 25)
    if not fast.any():
        return text
    fields = _fast_fields(x[fast]).view(np.uint8)
    out = np.empty((x.size, fields.shape[1]), np.uint8)
    out[fast] = fields
    out[slow, :25] = text
    out[slow, 25:] = _NUL
    return out


def _row_numbers(start, count):
    """'%d' of start .. start + count - 1 in NUL-padded rows, (count, width)."""
    width = len(str(start + count - 1))
    numbers = _U64(start) + np.arange(count, dtype=_U64)
    quads = -(-width // 4)
    groups = np.stack(
        [numbers // _POW10[4 * j] % _U64(10**4) for j in range(quads - 1, -1, -1)], axis=1
    )
    text = _WORDS[groups].view(np.uint8).reshape(count, 4 * quads)[:, 4 * quads - width:]
    length = np.searchsorted(_POW10[1:width], numbers, side="right") + 1
    return text * (np.arange(width) >= width - length[:, None])


def csv_lines(columns, start=None, text=None) -> str:
    """The CSV lines of equal-length float columns, each value as '%.17g'.

    start, when given, adds a leading column of row numbers start,
    start + 1, ...  text, when given, adds a trailing column of ASCII
    strings: it maps row offsets to strings, and the other rows' field is
    empty.
    """
    values = np.asarray(columns, dtype=float)
    count = values.shape[1]
    if count == 0:
        return ""
    # Column by column: the temporaries of one column stay small enough
    # for the allocator to reuse them instead of faulting in new pages.
    parts = [_float_fields(column) for column in values]
    if start is None:
        parts[0] = parts[0][:, 1:]
    else:
        parts.insert(0, _row_numbers(start, count))
    if text is not None:
        words = np.zeros(count, dtype=f"S{max([1, *map(len, text.values())])}")
        for row, word in text.items():
            words[row] = word
        parts.append(np.full((count, 1), _COMMA, np.uint8))
        parts.append(words.view(np.uint8).reshape(count, words.itemsize))
    parts.append(np.full((count, 1), ord("\n"), np.uint8))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii")
