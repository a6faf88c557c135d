"""CSV rows of float64 columns, byte for byte what '%.17g' writes, built in numpy.

CsvWriter writes blocks of rows to a binary stream: float columns, with an
optional leading row-number column and an optional trailing text column,
each row exactly what '%d,%.17g,...,%s\\n' % row gives.

Layout.  A writer owns one bytearray and lays out every block it writes
in it, viewed as a (rows, words) matrix of native uint32 words.  Each
column has a slot of whole words in every row, holding its field padded
with NUL bytes, and the last word of a row holds the newline.  Each
column's fields go straight into their slot, every byte of every slot,
padding included, is written again for each block, and the buffer is
resized to the block's layout, so no byte of an earlier block can reach a
later one.  Deleting the NULs with bytearray.translate leaves the rows,
which go to the stream as bytes.

A float slot is as narrow as its block's values allow.  One 2-word table
entry holds the comma, sign, last four digits of the integer part (or
"0.000" prefix, or the lead digit of d.ddde-XX) and point, 4 words the 16
digits after the point, and a tail word "e-XX" is there only if a value
of the block is below 1e-4: 6 or 7 words.  Where an integer part has more
than 4 digits, the comma and sign move to a leading word, followed by the
digits above the last four in whole words, right-aligned as the row
numbers are: 8 words for 5 to 8 digits, up to 10 for 15.  On the 1e6-row
input of the `cli-batch` benchmark a `run` row (a row number and five
floats) takes 140 bytes of buffer for 111 bytes of text, against 192 when
every field had its own point and integer words and a tail, and a
`detect` row 50 bytes for 28.

Why one buffer, and one column at a time: built as per-column field
matrices that were concatenated, copied to bytes and decoded to text (and
encoded again by a text stream), one 8192-row block of `run`'s five float
columns allocated about 5 MB of large temporaries.  The allocator gave
them back to the system and the next block faulted the same memory in
again: about 740 minor page faults per block, 98k-134k for a `run` of
1e6 rows.  With the reused buffer, and each column formatted into its slot
before the next one's temporaries are made, a block takes about 11.

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

__all__ = ["CsvWriter"]

_U64 = np.uint64
_ZERO = ord("0")

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

# Per decimal exponent X: the tail of a field, "e-XX" in scientific
# notation, as 1 word.
_XS = range(_X_MIN, _X_MAX + 1)
_TAIL = np.array(["e-%02d" % -x if x < -4 else "" for x in _XS], dtype="S4").view(np.uint32)
# Digits before the point: X + 1 in fixed notation with X >= 0, else the
# lead digit; the point goes in only in those cases, where "0." is not in
# the head, and only when a nonzero digit follows it.
_BEFORE = np.array([x + 1 if x >= 0 else 1 for x in _XS])
_POINTED = np.array([not -4 <= x < 0 for x in _XS])
_POW10 = np.array([10**j for j in range(20)], dtype=_U64)

# The head of a field, one 2-word entry of _DENSE_HEAD, is ',', a byte for
# the sign (the minus word ORed in) and either the last four digits v of
# the integer part (or the lead digit of d.ddde-XX) with a byte for the
# point (the point word ORed in), entry v with their zeros kept and entry
# _LEADING + v with leading zeros as NUL, as in _WORDS; or, for
# -4 <= X < 0, "0." and zeros with the lead digit d, entry
# _ZEROS + 10 * (X + 4) + d.
_ZEROS = _TRAILING
_DENSE_HEAD = np.zeros((_ZEROS, 8), np.uint8)
_DENSE_HEAD[:, 0] = ord(",")
_DENSE_HEAD[:, 2:6] = _WORDS[:_ZEROS, None].view(np.uint8)
_DENSE_HEAD = np.concatenate([
    _DENSE_HEAD,
    np.array([",\0" + "0." + "0" * (-x - 1) + str(d) for x in range(-4, 0) for d in range(10)],
             dtype="S8").view(np.uint8).reshape(-1, 8),
]).view(np.uint32).T.copy()                     # np.take copies a strided table first
_DENSE_BASE = np.array([_ZEROS + 10 * (x + 4) if -4 <= x < 0 else _LEADING for x in _XS])
# Values below this (the double nearest 1e-4) are written d.ddde-XX.
_SCIENTIFIC = 1e-4


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


def _word(text):
    """The native uint32 word of 4 ASCII bytes."""
    return np.frombuffer(text, np.uint32)[0]


_COMMA, _NEWLINE = _word(b",\0\0\0"), _word(b"\n\0\0\0")
_MINUS, _POINT = _word(b"\0-\0\0"), _word(b"\0\0.\0")
_UNITS_ZERO = _word(b"\0\0\0" + b"0")
_NOT_FIRST = _word(b"\0\xff\xff\xff")      # clears a word's first byte
# A field formatted by '%.17g' itself: ',' and at most 24 characters.
_SLOW = 7


def _fast_fields(x, slot, tail):
    """Write the fields of fast-range values x into slot, rows of uint32 words.

    A row is the head (2 words) and the 16 digits after the point (4
    words); with tail, a last word holds e-XX.  A slot wider than that
    starts with a word holding ',' and the sign, and the words of the
    integer part's digits above its last four, right-aligned.  Every step
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
    count = np.take(_BEFORE, xi)
    scale = np.take(_POW10, 17 - count)
    before = digits // scale
    after = digits - before * scale
    minus = (bits >> _U64(63)).astype(np.uint32) * _MINUS
    pointed = (after != 0) & np.take(_POINTED, xi)
    at = slot.shape[1] - 6 - tail               # the head's first word
    head = np.take(_DENSE_BASE, xi)
    if at:
        # After higher digits, the last four keep their zeros.
        high = before // _U64(10_000)
        before = before - high * _U64(10_000)
        head = head - (high != 0) * _LEADING
        slot[:, 0] = _COMMA | minus
        _digit_groups(high, slot[:, 1:at])
    head = head + before.astype(np.intp)
    first = np.take(_DENSE_HEAD[0], head)
    slot[:, at] = first & _NOT_FIRST if at else first | minus
    slot[:, at + 1] = np.take(_DENSE_HEAD[1], head) | pointed.astype(np.uint32) * _POINT
    _fraction(after * np.take(_POW10, count - 1), slot[:, at + 2:at + 6])
    if tail:
        slot[:, -1] = np.take(_TAIL, xi)


def _digit_groups(numbers, slot):
    """Write numbers, '%d' right-aligned, into slot's words, 4 digits each.

    Group j holds leading zeros as NUL where every group left of it is
    zero, which is always so for the first; so 0 is all NUL.
    """
    words = slot.shape[1]
    for j, group in enumerate(_quads(numbers, words)):
        lead = True if j == 0 else numbers < _U64(10 ** (4 * (words - j)))
        slot[:, j] = np.take(_WORDS, group + lead * _LEADING)


def _fraction(after, slot):
    """Write the 16 digits of after, left-aligned, into 4 words of slot.

    Trailing zeros are NUL.  Only a row whose last group is 0 has any in
    the groups before it, so the pass from the right runs on those rows.
    """
    groups = _quads(after)
    for j in range(3):
        slot[:, j] = np.take(_WORDS, groups[j])
    slot[:, 3] = np.take(_WORDS, groups[3] + _TRAILING)
    rows = np.flatnonzero(groups[3] == 0)
    if rows.size:
        rest = 0
        for j in (2, 1, 0):
            group = groups[j][rows]
            slot[rows, j] = np.take(_WORDS, group + (rest == 0) * _TRAILING)
            rest = rest | group


def _float_slot(x):
    """(words, fill) of a float column: ',' and the '%.17g' text of each value.

    Only the slot's width is worked out here; fill(slot) formats the column
    into it, so that one column's temporaries are freed before the next
    column's are made.
    """
    with np.errstate(invalid="ignore"):
        size = np.abs(x)
        fast = (size >= _LOW) & (size < _HIGH)
    slow = np.flatnonzero(~fast)
    if slow.size == x.size:
        words = _SLOW
    else:
        # The digits before the point of the largest value, which 1e15
        # bounds, set the layout: a word for ',' and the sign and the words
        # of the digits above the last four, where it has more than four.
        # The smallest value sets whether there is a tail word, and so does
        # a '%.17g' field in a 6-word slot, as it takes _SLOW.
        high = -(-max(len("%d" % np.max(size, where=fast, initial=0.0)) - 4, 0) // 4)
        tail = bool(np.min(size, where=fast, initial=_HIGH) < _SCIENTIFIC
                    or not high and slow.size)
        words = 6 + tail + (high and 1 + high)

    def fill(slot):
        if slow.size < x.size:
            # Fast fields in every row, from the stand-in 1.0 where the value
            # is not in the fast range; its words past the first _SLOW are NUL.
            _fast_fields(np.where(fast, x, 1.0) if slow.size else x, slot, tail)
        if slow.size:
            # '%.17g' over those rows, in one %-call; no output is longer than 24.
            values = x[slow].tolist()
            text = ((",%-27.17g" * len(values)) % tuple(values)).replace(" ", "\0")
            slot[slow, :_SLOW] = np.frombuffer(text.encode("ascii"), np.uint32).reshape(
                -1, _SLOW)

    return words, fill


def _row_number_slot(start, count):
    """(words, fill) of the row numbers start .. start + count - 1, '%d' each."""
    numbers = _U64(start) + np.arange(count, dtype=_U64)

    def fill(slot):
        _digit_groups(numbers, slot)
        if start == 0:
            slot[0, -1] = _UNITS_ZERO       # the number 0 keeps its digit

    return -(-len(str(start + count - 1)) // 4), fill


def _text_slot(text, count):
    """(words, fill) of a text column: ',' in every row, then text[row] where given."""
    fields = {row: b"," + word.encode("ascii") for row, word in text.items()}
    words = -(-max([1, *map(len, fields.values())]) // 4)

    def fill(slot):
        slot[:, 0] = _COMMA
        slot[:, 1:] = 0
        for row, field in fields.items():
            slot[row] = np.frombuffer(field.ljust(4 * words, b"\0"), np.uint32)

    return words, fill


def _newline(slot):
    slot[:] = _NEWLINE


class CsvWriter:
    """Writes CSV rows of float columns to a binary stream, one block per call.

    The rows of each block are laid out in one bytearray that the writer
    owns and reuses from block to block (see the module docstring).
    """

    def __init__(self, stream):
        self._stream = stream
        self._buffer = bytearray()

    def write(self, columns, start=None, text=None):
        """Write the rows of equal-length float columns, each value as '%.17g'.

        start, when given, adds a leading column of row numbers start,
        start + 1, ...  text, when given, adds a trailing column of ASCII
        strings: it maps row offsets to strings, and the other rows' field
        is empty.
        """
        columns = [np.asarray(column, dtype=float) for column in columns]
        count = columns[0].size
        if count == 0:
            return
        slots = [_float_slot(column) for column in columns]
        if start is not None:
            slots.insert(0, _row_number_slot(start, count))
        if text is not None:
            slots.append(_text_slot(text, count))
        slots.append((1, _newline))
        rows = self._rows(count, sum(words for words, _ in slots))
        at = 0
        for words, fill in slots:
            fill(rows[:, at:at + words])
            at += words
        if start is None:
            rows[:, 0] &= _NOT_FIRST      # the first field has no leading ','
        self._stream.write(self._buffer.translate(None, b"\0"))

    def _rows(self, count, words):
        """The buffer, resized to count rows of words, as that uint32 matrix.

        bytearray keeps its allocation when it shrinks to no less than half
        of it and over-allocates when it grows, so blocks of about the same
        size reuse the same memory.
        """
        buffer = self._buffer
        excess = len(buffer) - 4 * count * words
        if excess > 0:
            del buffer[-excess:]
        elif excess < 0:
            buffer.extend(bytes(-excess))
        return np.frombuffer(buffer, np.uint32).reshape(count, words)
