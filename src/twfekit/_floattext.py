"""The ``repr`` text of every value of a float64 array, formed in numpy.

``repr`` of a float is the shortest decimal that reads back to the same
double (the closest such one when several are that short), laid out
positionally or in scientific notation.  Formatting a Python float costs a
call per value; this module forms the same bytes for a whole array at once.

:func:`shortest` finds the digits with Schubfach (Raffaello Giulietti, "The
Schubfach way to render doubles", 2020), as Java's ``DoubleToDecimal``
does, on whole arrays: three round-to-odd products scale the value and
the ends of its rounding interval by a power of ten, one choice between
candidates picks the digits, and their trailing zeros are stripped.  Every
finite value takes that one path.  ``repr`` differs from Java's
``Double.toString`` in two places, so neither Java rule is kept: the
shorter candidate is tried from two digits on (Java: from three), and the
two smallest subnormals are not scaled by ten first (Java prints
``4.9E-324`` for ``5e-324`` and ``7.9E-323`` for ``8e-323``).  The 126-bit
powers of ten are held as two 63-bit halves in ``uint64``, and every
product is formed from 32-bit limbs without overflow.  Every integer array
is ``uint64`` or ``int64``, and no operation mixes the two, since numpy
promotes that mix to float64.

:func:`layout` writes each value's text into a row of :data:`TEXT_WIDTH`
fixed slots of a ``uint8`` matrix, the slots it leaves unused zero, eight
digits at a time.  The tables both read are built on first use, not at
import.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_TEN = _U64(10)
# the byte order of the eight ASCII digits in :func:`_eight_digits`' words
_WORD = np.dtype("<u8")

# the decimal exponents k of Schubfach's powers 10**-k: those of 5e-324
# and of the largest double
_K_MIN, _K_MAX = -324, 292

# decimal point positions of finite doubles: 5e-324 has -323, the largest
# double 309; ``repr`` is positional when -4 < decpt <= 16
_DECPT_MIN, _DECPT_MAX = -323, 309
_MAX_DIGITS = 17

# The text slots, in eight-byte words: the sign and "0.000" of a positional
# value below one; the sign and the digits before the point of a positional
# value of one or more; the sign and the one digit before the point of a
# scientific value; the point, just before the digits after it; "e", the
# exponent's sign and its two or three digits, ending at TEXT_END.  Each
# run of digits starts a word, so that eight digits are written at once.
# A caller copies a row's bytes a run at a time, so the slots of a value's
# text sit together where they can, and what it writes at TEXT_END
# follows an exponent without a gap.
_LEAD_SIGN, _LEAD, _SIGN, _INT = 1, 2, 7, 8
_SCI_SIGN, _SCI_DIGIT, _POINT, _FRAC = 29, 30, 31, 32
_TAIL = 49
TEXT_END = 54  # the slots from here on are zero
TEXT_WIDTH = 56


def _flog10pow2(e, three_quarters):
    """``floor(log10(2**e))``, or ``floor(log10(0.75 * 2**e))`` where
    ``three_quarters``, for the binary exponents of doubles."""
    return (e * 661971961083 - three_quarters * 274743187321) >> 41


def _flog2pow10(e):
    """``floor(log2(10**e))``, for the decimal exponents of doubles."""
    return (e * 913124641741) >> 38


class _Tables:
    """Schubfach's powers of ten, and the text tables.

    ``g1`` and ``g0`` hold the high and the low 63 bits of ``g = floor(10**-k
    / 2**r) + 1``, ``r = flog2pow10(-k) - 125``, for each ``k`` from
    ``_K_MIN`` to ``_K_MAX``: ``10**-k`` scaled into ``[2**125, 2**126)``
    and rounded up.
    """

    def __init__(self) -> None:
        g = []
        for k in range(_K_MIN, _K_MAX + 1):
            r = _flog2pow10(-k) - 125
            num = 10 ** max(-k, 0) << max(-r, 0)
            g.append(num // (10 ** max(k, 0) << max(r, 0)) + 1)
        self.g1 = np.array([v >> 63 for v in g], _U64)
        self.g0 = np.array([v & ((1 << 63) - 1) for v in g], _U64)
        self.pow10 = np.array([10**k for k in range(20)], _U64)
        self._text_tables()

    def _text_tables(self) -> None:
        # ``text[(decpt - _DECPT_MIN) * 17 + count - 1]``: the slots of a
        # negative value with that decimal point position and digit count;
        # a slot it leaves unused is 0, a digit it uses 0xFF.
        # ``point[decpt - _DECPT_MIN]``: the digits before the point.
        decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1, dtype=np.int64)[:, None]
        count = np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)[None, :]
        science = (decpt <= -4) | (decpt > 16)
        below_one = ~science & (decpt <= 0)
        above_one = ~science & (decpt >= 1)
        point = np.where(above_one, decpt, science.astype(np.int64))
        after = count - point
        after = np.where(above_one, np.maximum(after, 1), after)
        place = np.arange(_MAX_DIGITS, dtype=np.int64)
        keep = np.zeros((decpt.size, _MAX_DIGITS, TEXT_WIDTH), bool)
        keep[..., _LEAD_SIGN] = below_one
        keep[..., _LEAD : _LEAD + 2] = below_one[..., None]
        keep[..., _LEAD + 2 : _LEAD + 5] = below_one[..., None] & (
            place[:3] < -decpt[..., None]
        )
        keep[..., _SIGN] = above_one
        keep[..., _INT : _INT + _MAX_DIGITS] = above_one[..., None] & (
            place < point[..., None]
        )
        keep[..., [_SCI_SIGN, _SCI_DIGIT]] = science[..., None]
        keep[..., _POINT] = above_one | (science & (count > 1))
        keep[..., _FRAC : _FRAC + _MAX_DIGITS] = place < after[..., None]
        chars = np.zeros((decpt.size, 1, TEXT_WIDTH), np.uint8)
        chars[..., [_LEAD_SIGN, _SIGN, _SCI_SIGN]] = ord("-")
        chars[..., _LEAD : _LEAD + 5] = np.frombuffer(b"0.000", np.uint8)
        chars[..., _INT : _INT + _MAX_DIGITS] = 0xFF
        chars[..., _SCI_DIGIT] = 0xFF
        chars[..., _POINT] = ord(".")
        chars[..., _FRAC : _FRAC + _MAX_DIGITS] = 0xFF
        chars[:, 0, _TAIL:TEXT_END] = [
            list(f"e{d - 1:+03d}".rjust(TEXT_END - _TAIL, "\0").encode())
            for d in decpt[:, 0].tolist()
        ]
        keep[..., _TAIL:TEXT_END] = science[..., None] & (
            chars[..., _TAIL:TEXT_END] != 0
        )
        text = np.where(keep, chars, np.uint8(0)).reshape(-1, TEXT_WIDTH)
        self.text = np.ascontiguousarray(text.view(_WORD).T)  # word by word
        self.point = point[:, 0]
        # every word without its sign slots
        signs = np.zeros(TEXT_WIDTH, np.uint8)
        signs[[_LEAD_SIGN, _SIGN, _SCI_SIGN]] = 0xFF
        self.signless = ~signs.view(_WORD)[:, None]
        # the text of nan, inf and -inf
        self.words = np.zeros((3, TEXT_WIDTH), np.uint8)
        for k, word in enumerate((b"nan", b"inf", b"-inf")):
            self.words[k, : len(word)] = np.frombuffer(word, np.uint8)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _mul_high(a, b):
    """The high 64 bits of each product ``a * b``, from 32-bit limbs."""
    h = _U64(32)
    a0, a1, b0, b1 = a & _LOW32, a >> h, b & _LOW32, b >> h
    middle = a1 * b0 + ((a0 * b0) >> h)
    other = a0 * b1 + (middle & _LOW32)
    return a1 * b1 + (middle >> h) + (other >> h)


def _rop(g1, g0, cp):
    """``g * cp / 2**127`` rounded to odd, ``g = g1 * 2**63 + g0``, from
    the product's bits worth ``2**-63`` or more: the round to odd of
    ``(floor(g1 * cp / 2) + floor(g0 * cp / 2**64)) / 2**63``.  The bits
    dropped hold no more than ``g``'s rounding error, so that an exact
    decimal stays exact."""
    y1, y0 = _mul_high(g1, cp), g1 * cp
    z = (y0 >> _U64(1)) + _mul_high(g0, cp)
    inexact = (z & _LOW63) != 0
    return (y1 + (z >> _U64(63))) | inexact.astype(_U64)


def shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip decimal of each finite value, as ``(digits,
    exponent)`` arrays (``uint64``, ``int64``): ``abs(value)`` reads back
    from ``digits * 10**exponent``, and zero gives ``(0, 0)``."""
    t = _tables()
    bits = np.ascontiguousarray(values, np.float64).view(_U64).ravel()
    mantissa = bits & _U64((1 << 52) - 1)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    # abs(value) = c * 2**q
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    c = np.where(biased == 0, mantissa, mantissa | _U64(1 << 52))
    # a power of two above the subnormals: the gap to the double below is
    # half the gap above
    uneven = (mantissa == 0) & (biased > 1)
    k = _flog10pow2(q, uneven)
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1, g0 = t.g1[k - _K_MIN], t.g0[k - _K_MIN]
    # four times the value and the ends of its rounding interval, over
    # 10**k, each rounded to odd
    cb = c << _U64(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U64(2) + uneven.astype(_U64)) << h)
    vbr = _rop(g1, g0, (cb + _U64(2)) << h)
    # a tie between doubles reads as the even one: the ends of the
    # interval round back to the value only when c is even
    out = c & _U64(1)
    vbl += out
    vbr -= out
    # of s and s + 1, the one alone in the interval, else the closer, the
    # even one on a tie; but of the multiples of ten just below and above a
    # two-digit or longer s, the one alone in the interval, if one is
    s = vb >> _U64(2)
    s_in = vbl <= s << _U64(2)
    t_in = (s + _U64(1)) << _U64(2) <= vbr
    lower = vb + (s & _U64(1)) <= (s << _U64(2)) + _U64(2)
    digits = np.where(np.where(s_in != t_in, s_in, lower), s, s + _U64(1))
    sp10 = s // _TEN * _TEN
    sp10_in = vbl <= sp10 << _U64(2)
    tp10_in = (sp10 + _TEN) << _U64(2) <= vbr
    shorter = (s >= _TEN) & (sp10_in != tp10_in)
    digits = np.where(shorter, np.where(sp10_in, sp10, sp10 + _TEN), digits)
    # strip the trailing zeros, at most 16 of them
    for n in (16, 8, 4, 2, 1):
        cut = digits // t.pow10[n]
        whole = cut * t.pow10[n] == digits
        digits = np.where(whole, cut, digits)
        k += n * whole
    zero = (bits << _U64(1)) == 0
    digits[zero] = 0
    k[zero] = 0
    return digits, k


def _eight_digits(x):
    """The eight decimal digits of each ``x < 10**8`` in ASCII, most
    significant first, as the bytes of a little-endian ``uint64``."""
    high = x // _U64(10**4)
    x = high | ((x - high * _U64(10**4)) << _U64(32))  # two 4-digit lanes
    high = ((x * _U64(5243)) >> _U64(19)) & _U64(0x7F_0000007F)  # lane // 100
    x = high | ((x - high * _U64(100)) << _U64(16))  # four 2-digit lanes
    high = ((x * _U64(103)) >> _U64(10)) & _U64(0xF_000F_000F_000F)  # // 10
    return (high | ((x - high * _TEN) << _U64(8))) + _U64(0x3030303030303030)


def layout(values: np.ndarray, text: np.ndarray) -> None:
    """Write the ``repr`` of each value of the 1-D ``values`` into the rows
    of the ``uint8`` matrix ``text``, ``(len(values), TEXT_WIDTH)``, padded
    with zero bytes: each row's nonzero bytes, in order, are the value's
    ``repr``, all before slot :data:`TEXT_END`."""
    t = _tables()
    values = np.asarray(values, np.float64)
    finite = np.isfinite(values)
    digits, exponent = shortest(np.where(finite, values, 0.0))
    count = np.searchsorted(t.pow10[1 : _MAX_DIGITS + 1], digits, "right")
    count = count.astype(np.int64) + 1
    row = exponent + count - _DECPT_MIN
    # the text word by word, each word a row
    words = t.text.take(row * _MAX_DIGITS + count - 1, axis=1)
    # the 17 digits left-aligned, so that the places past the last digit
    # are zeros (which an integral positional value shows up to its
    # point), and those after the point left-aligned too
    digits *= t.pow10[_MAX_DIGITS - count]
    point = t.point[row]
    after = digits % t.pow10[_MAX_DIGITS - point] * t.pow10[point]
    both = np.stack([digits, after])
    high = both // _U64(10**9)
    low = both - high * _U64(10**9)
    tens = low // _TEN
    eights = _eight_digits(np.stack([high, tens], 1))
    # each run of 17 digits: two words of eight, then the first byte of a
    # third; a digit slot's 0xFF keeps the digit, its 0 drops it
    for run, first in enumerate((_INT // 8, _FRAC // 8)):
        words[first : first + 2] &= eights[run]
        words[first + 2] &= (_U64(ord("0")) + low[run] - tens[run] * _TEN) | (
            _U64(0xFFFF_FFFF_FFFF_FF00)
        )
    # the first digit once more, for a scientific value
    byte = _U64(8 * (_SCI_DIGIT % 8))
    digit = eights[0, 0] & _U64(0xFF)
    words[_SCI_DIGIT // 8] &= (digit << byte) | ~(_U64(0xFF) << byte)
    # the sign slots hold "-"; a value that is not negative drops them
    words &= np.where(np.signbit(values), ~_U64(0), t.signless)
    text.view(_WORD)[:] = words.T
    special = np.flatnonzero(~finite)
    if special.size:
        odd = values[special]
        word = np.isinf(odd).astype(np.int64) * (1 + np.signbit(odd))
        text[special] = t.words[word]  # nan, inf or -inf
