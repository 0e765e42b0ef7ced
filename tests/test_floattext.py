"""The whole-array float formatter against Python's own ``repr``."""

import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twfekit import _floattext

LARGEST = sys.float_info.max


def reprs(values):
    """Each value's text as :func:`_floattext.layout` forms it."""
    values = np.asarray(values, dtype=np.float64).ravel()
    text = np.full((values.size, _floattext.TEXT_WIDTH + 1), 0xAA, np.uint8)
    _floattext.layout(values, text[:, :-1])
    # a caller's bytes at TEXT_END follow the text
    assert not text[:, _floattext.TEXT_END : -1].any()
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii").split("\n")[:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    want = [repr(v) for v in values.tolist()]
    got = reprs(values)
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, e.g. {wrong[:5]}"


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate(
        [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_matches_repr_on_any_floats(values):
    assert_repr(values)


def test_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    # nan, inf and -inf among them, as repr writes them
    assert_repr(bits.view(np.float64))


def test_matches_repr_on_powers_of_two_and_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(np.concatenate([with_neighbours(powers), -powers]))


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, -5e-324, 8e-323, -8e-323, LARGEST, -LARGEST, 1.0, -1.0],
)
def test_matches_repr_on_extremes(value):
    assert reprs([value]) == [repr(value)]


def test_matches_repr_on_integers_up_to_two_to_the_53():
    rng = np.random.default_rng(11)
    ints = np.concatenate(
        [
            np.arange(0, 2**17),
            rng.integers(0, 2**53, 100_000, endpoint=True),
            2**53 - np.arange(1000),
            10 ** np.arange(16),
        ]
    ).astype(np.float64)
    assert_repr(np.concatenate([ints, -ints]))


@pytest.mark.parametrize(
    "value, text",
    [
        (1e-4, "0.0001"),
        (1e-5, "1e-05"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e16, "1e+16"),
        (12.5, "12.5"),
        (0.00012345678901234567, "0.00012345678901234567"),
        (-1234567890123456.8, "-1234567890123456.8"),
    ],
)
def test_positional_and_scientific_switch(value, text):
    assert reprs([value]) == [text]
    assert_repr(with_neighbours([value, -value]))


def test_matches_repr_with_three_digit_exponents():
    rng = np.random.default_rng(13)
    mantissas = rng.uniform(1.0, 10.0, 2000)
    exponents = rng.choice(
        np.r_[np.arange(-323, -99), np.arange(100, 308)], 2000
    )
    values = mantissas * 10.0 ** exponents.astype(np.float64)
    assert_repr(np.r_[values, -values, 1e100, 1e-100, 1e300, 1e-310])


def test_exact_ties_round_to_even():
    # quarters and eighths just above 2**48 to 2**52, and negative powers
    # of two, have exact decimals one digit longer than their shortest
    # text, ending in 5: the shortest digits are an exact tie
    rng = np.random.default_rng(29)
    steps = rng.integers(0, 2**20, 20_000)
    values = [2.0**k + steps / 4.0 for k in range(49, 53)]
    values += [2.0**k + steps / 8.0 for k in range(48, 52)]
    values.append(np.ldexp(1.0, -np.arange(1, 80)))
    assert_repr(np.concatenate(values))


def test_matches_repr_on_short_decimals():
    # few-digit decimals across the positional and scientific ranges
    rng = np.random.default_rng(17)
    digits = rng.integers(1, 10**6, 50_000).astype(np.float64)
    scales = 10.0 ** rng.integers(-12, 12, 50_000).astype(np.float64)
    assert_repr(digits * scales)


def test_powers_of_ten_fill_126_bits():
    g1s, g0s = _floattext._G1, _floattext._G0
    assert g1s.max() < 2**63 and g0s.max() < 2**63
    g = [(g1 << 63) | g0 for g1, g0 in zip(g1s.tolist(), g0s.tolist())]
    assert all(2**125 <= gk < 2**126 for gk in g)


def test_rounded_products_are_exact():
    g1s, g0s = _floattext._G1, _floattext._G0
    rng = np.random.default_rng(23)
    extremes = [0, 1, 2**59 - 1, 2**63 - 1, 2**63, 2**64 - 1]
    n = g1s.size
    cps = [np.full(n, cp, np.uint64) for cp in extremes]
    cps += [rng.integers(0, 2**59, n, np.uint64) for _ in range(8)]
    cps += [rng.integers(0, 2**64, n, np.uint64) for _ in range(8)]
    for cp in cps:
        got = oracles.rop(g1s, g0s, cp)
        # (floor(g1 * cp / 2) + floor(g0 * cp / 2**64)) / 2**63, to odd
        high = [
            (g1 * c >> 1) + (g0 * c >> 64)
            for g1, g0, c in zip(g1s.tolist(), g0s.tolist(), cp.tolist())
        ]
        want = [(h >> 63) | (h % 2**63 != 0) for h in high]
        assert got.tolist() == want


def test_interval_products_are_rounded_products():
    g1s, g0s = _floattext._G1, _floattext._G0
    rng = np.random.default_rng(31)
    # every h that shortest forms, from every binary exponent of a double
    q = np.arange(-1074, 972, dtype=np.int64)
    hs = set()
    for uneven in (0, 1):
        k = _floattext._flog10pow2(q, uneven)
        hs.update((q + _floattext._flog2pow10(-k) + 2).tolist())
    rows = np.arange(g1s.size)
    cs = [(1, False), (2**52, False), (2**52, True), (2**53 - 1, False)]
    cs += [(c, False) for c in rng.integers(1, 2**53, 12).tolist()]
    cases = [(c, uneven, h) for c, uneven in cs for h in sorted(hs)]
    row = np.tile(rows, len(cases))
    c, uneven, h = (np.repeat(np.array(col), rows.size) for col in zip(*cases))
    g1, g0 = g1s[row], g0s[row]
    cb = c.astype(np.uint64) << np.uint64(2)
    h = h.astype(np.uint64)
    got = _floattext._interval_products(g1, g0, cb, h, uneven.astype(bool))
    ends = (
        (cb - np.uint64(2) + uneven.astype(np.uint64)) << h,
        cb << h,
        (cb + np.uint64(2)) << h,
    )
    for product, cp in zip(got, ends):
        assert (product == oracles.rop(g1, g0, cp)).all()


def test_shortest_digits_and_exponent_are_reprs():
    rng = np.random.default_rng(19)
    values = np.r_[
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
        0.0, -0.0, 100.0, 1e22, 5e-324,
    ]
    values = values[np.isfinite(values)]
    digits, exponent = _floattext.shortest(values)
    assert digits.dtype == np.uint64 and exponent.dtype == np.int64
    pairs = zip(digits.tolist(), exponent.tolist())
    for value, pair in zip(values.tolist(), pairs):
        _, places, power = Decimal(repr(abs(value))).normalize().as_tuple()
        assert pair == (int("".join(map(str, places))), power), value


def test_layout_writes_only_its_rows_and_slots():
    text = np.full((3, _floattext.TEXT_WIDTH + 8), 0xAA, np.uint8)
    _floattext.layout(np.array([1.5, -2e-7]), text[1:, 8:])
    assert (text[0] == 0xAA).all() and (text[:, :8] == 0xAA).all()
    got = [bytes(row[row != 0]) for row in text[1:, 8:]]
    assert got == [b"1.5", b"-2e-07"]


def test_layout_writes_every_form_as_repr():
    forms = [
        0.5, 0.000123,  # positional below one
        1.0, 12.5, 1234567890123456.8, 9999999999999998.0,  # one or more
        1e-5, 2.5e-300, 1.5e22, 5e-324,  # scientific
        0.0,
        1e16, 12345678901234567e5,  # 1e16 or more
    ]
    block = np.array([v for f in forms for v in (f, -f)])
    assert_repr(block)
    # a block with no value of one or more, so no digits before the point
    assert_repr([0.25, -1e-7, 0.0, -0.0, -0.003, 4.5e-9, -0.999])


def test_only_the_sign_words_hold_sign_slots():
    signless = _floattext._SIGNLESS.ravel()
    others = np.delete(signless, _floattext._SIGN_WORDS)
    assert (others == ~np.uint64(0)).all()
    assert (signless[_floattext._SIGN_WORDS] != ~np.uint64(0)).all()
