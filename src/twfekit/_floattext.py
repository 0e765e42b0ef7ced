"""The ``repr`` text of every value of a float64 array, formed in numpy.

``repr`` of a float is the shortest decimal that reads back to the same
double (the closest such one when several are that short), laid out
positionally or in scientific notation.  Formatting a Python float costs a
call per value; this module forms the same bytes for a whole array at once.

:func:`shortest` finds the digits with Ryu (Ulf Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), following its reference ``d2s.c``
step for step, with both of its branches on whole arrays: the common one,
and the one that tracks trailing zeros to break exact ties to even.  Ryu's
125-bit powers of five are held as four 32-bit limbs in ``uint64``, so that
every product is formed limb by limb without overflow.  Every integer array
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
_TEN = _U64(10)
# the byte order of the eight ASCII digits in :func:`_eight_digits`' words
_WORD = np.dtype("<u8")

# Ryu's bound on the bits of its powers of five and of their inverses
_POW5_BITS = 125
# the trailing-zero test each binary exponent takes in Ryu
_NO_TEST, _POW5_TEST, _NEAR_TEST, _POW2_TEST = range(4)

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


def _pow5bits(e: int) -> int:
    return ((e * 1217359) >> 19) + 1


def _log10pow2(e: int) -> int:
    return (e * 78913) >> 18


def _log10pow5(e: int) -> int:
    return (e * 732923) >> 20


class _Tables:
    """Ryu's constants per biased binary exponent, and the text tables.

    ``mul`` holds the 32-bit limbs (least significant first) of the power
    of five (or its inverse) that scales a mantissa with that exponent,
    ``shift`` its right shift less 96, ``e10`` the decimal exponent of the
    scaled result, ``test`` and ``modulus`` Ryu's trailing-zero test (a
    power of five to divide, or a mask of low bits).
    """

    def __init__(self) -> None:
        rows = []
        for biased in range(2047):
            e2 = max(biased, 1) - 1023 - 52 - 2
            test, modulus = _NO_TEST, 1
            if e2 >= 0:
                q = _log10pow2(e2) - (e2 > 3)
                bits = _pow5bits(q) - 1 + _POW5_BITS
                mul = (1 << bits) // 5**q + 1
                shift, e10 = -e2 + q + bits, q
                if q <= 21:
                    test, modulus = _POW5_TEST, 5**q
            else:
                q = _log10pow5(-e2) - (-e2 > 1)
                i = -e2 - q
                # the top 125 bits of 5**i
                length = _pow5bits(i)
                mul = (5**i << _POW5_BITS) >> length
                shift, e10 = q - (length - _POW5_BITS), q + e2
                if q <= 1:
                    test = _NEAR_TEST
                elif q < 63:
                    test, modulus = _POW2_TEST, (1 << q) - 1
            limbs = [(mul >> (32 * k)) & 0xFFFFFFFF for k in range(4)]
            rows.append((*limbs, shift - 96, e10, test, modulus))
        columns = list(zip(*rows))
        self.mul = [np.array(limb, _U64) for limb in columns[:4]]
        self.shift = np.array(columns[4], _U64)
        self.e10 = np.array(columns[5], np.int64)
        self.test = np.array(columns[6], np.int64)
        self.modulus = np.array(columns[7], _U64)
        self.pow10 = np.array([10**k for k in range(20)], _U64)
        # half of the last digit dropped: a remainder this large rounds up
        self.half = np.array([1] + [5 * 10**k for k in range(19)], _U64)
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


def _mul_shift(m, limbs, shift):
    """``floor(m * mul / 2**(96 + shift))`` of each ``m < 2**55``, where
    ``mul`` has the four 32-bit ``limbs`` and ``0 < shift < 64``."""
    h = _U64(32)
    a0, a1 = m & _LOW32, m >> h
    b0, b1, b2, b3 = limbs
    # column sums of 32-bit partial products, each carried into the next
    t00, t01, t02, t03 = a0 * b0, a0 * b1, a0 * b2, a0 * b3
    t10, t11, t12, t13 = a1 * b0, a1 * b1, a1 * b2, a1 * b3
    col = (t00 >> h) + (t01 & _LOW32) + (t10 & _LOW32)
    col = (col >> h) + (t01 >> h) + (t10 >> h)
    col += (t02 & _LOW32) + (t11 & _LOW32)
    col = (col >> h) + (t02 >> h) + (t11 >> h)
    col += (t03 & _LOW32) + (t12 & _LOW32)
    low = col & _LOW32
    col = (col >> h) + (t03 >> h) + (t12 >> h) + (t13 & _LOW32)
    low |= (col & _LOW32) << h
    high = (col >> h) + (t13 >> h)
    # bits 96 and up of the product, shifted; the result fits in 64 bits
    return (low >> shift) | (high << (_U64(64) - shift))


def _drop_common(vr, vp, vm, t):
    """Ryu's common branch: drop the last digits of ``vr`` while ``vp`` and
    ``vm`` still differ above them; round up if the last digit dropped is
    5 or more, or if ``vr`` reached ``vm``.  The digits and the count
    dropped."""
    dropped = np.zeros(vr.shape, np.int64)
    for scale in t.pow10[1:]:  # a pass per digit, on every value
        live = vp // scale > vm // scale
        if not live.any():
            break
        dropped += live
    scale = t.pow10[dropped]
    digits = vr // scale
    up = (digits == vm // scale) | (vr - digits * scale >= t.half[dropped])
    return digits + up.astype(_U64), dropped


def _drop_exact(vr, vp, vm, vr_zeros, vm_zeros, even):
    """Ryu's general branch, for values whose ``vr`` or ``vm`` may be exact
    with trailing zeros: drop digits as :func:`_drop_common` does, then
    the trailing zeros of an exact ``vm``; break an exact tie to even, and
    keep an exact ``vm`` when the bounds are inclusive (``even``)."""
    dropped = np.zeros(vr.shape, np.int64)
    last = np.zeros(vr.shape, _U64)  # the last digit dropped from vr
    for phase in ("interval", "zeros of vm"):
        while True:
            r, p, m = vr // _TEN, vp // _TEN, vm // _TEN
            m_zero = vm == m * _TEN
            live = p > m if phase == "interval" else vm_zeros & m_zero
            if not live.any():
                break
            vm_zeros &= ~live | m_zero
            vr_zeros &= ~live | (last == 0)
            last = np.where(live, vr - r * _TEN, last)
            vr, vp, vm = (
                np.where(live, *pair) for pair in ((r, vr), (p, vp), (m, vm))
            )
            dropped += live
    tie = vr_zeros & (last == _U64(5)) & ((vr & _U64(1)) == 0)
    up = ((vr == vm) & ~(even & vm_zeros)) | ((last >= _U64(5)) & ~tie)
    return vr + up.astype(_U64), dropped


def shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip decimal of each finite value, as ``(digits,
    exponent)`` arrays (``uint64``, ``int64``): ``abs(value)`` reads back
    from ``digits * 10**exponent``, and zero gives ``(0, 0)``."""
    t = _tables()
    bits = np.ascontiguousarray(values, np.float64).view(_U64).ravel()
    mantissa = bits & _U64((1 << 52) - 1)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    row = biased.astype(np.int64)
    m2 = np.where(biased == 0, mantissa, mantissa | _U64(1 << 52))
    even = (m2 & _U64(1)) == 0
    mv = m2 << _U64(2)
    mm_shift = ((mantissa != 0) | (biased <= 1)).astype(_U64)
    # Step 3 of Ryu: the scaled value and bounds
    limbs = [table[row] for table in t.mul]
    shift = t.shift[row]
    vr = _mul_shift(mv, limbs, shift)
    vp = _mul_shift(mv + _U64(2), limbs, shift)
    vm = _mul_shift(mv - _U64(1) - mm_shift, limbs, shift)
    # and whether they are exact, with trailing zeros
    test = t.test[row]
    modulus = t.modulus[row]
    vr_zeros = (test == _NEAR_TEST) | (
        (test == _POW2_TEST) & ((mv & modulus) == 0)
    )
    vm_zeros = (test == _NEAR_TEST) & even & (mm_shift == 1)
    vp -= ((test == _NEAR_TEST) & ~even).astype(_U64)
    pow5 = np.flatnonzero(test == _POW5_TEST)
    if pow5.size:
        mv5, p5, even5 = mv[pow5], modulus[pow5], even[pow5]
        by5 = mv5 % _U64(5) == 0
        vr_zeros[pow5] = by5 & (mv5 % p5 == 0)
        vm_zeros[pow5] = (
            ~by5 & even5 & ((mv5 - _U64(1) - mm_shift[pow5]) % p5 == 0)
        )
        vp[pow5] -= (~by5 & ~even5 & ((mv5 + _U64(2)) % p5 == 0)).astype(_U64)
    # Step 4: the shortest digits in the interval, by Ryu's two branches
    digits, dropped = _drop_common(vr, vp, vm, t)
    exact = np.flatnonzero(vr_zeros | vm_zeros)
    if exact.size:
        digits[exact], dropped[exact] = _drop_exact(
            vr[exact], vp[exact], vm[exact], vr_zeros[exact], vm_zeros[exact],
            even[exact],
        )
    exponent = t.e10[row] + dropped
    zero = (bits << _U64(1)) == 0
    digits[zero] = 0
    exponent[zero] = 0
    return digits, exponent


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
