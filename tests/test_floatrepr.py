import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankdens import floatrepr
from rankdens.combinatorics import mahonian_tables
from rankdens.floatrepr import repr_bytes

# the kernel wraps uint64 on purpose (the interval's lower end of 0.0, the
# high limbs of lanes it does not settle); none of it may warn
pytestmark = pytest.mark.filterwarnings("error")


def _check_bytes(values):
    """Each (24,) row of ``repr_bytes`` is repr(v)'s ASCII bytes, then NULs."""
    values = np.asarray(values, dtype=np.float64)
    rows = repr_bytes(values)
    assert rows.shape == (len(values), 24) and rows.dtype == np.uint8
    assert [row.tobytes() for row in rows] == [repr(v).encode().ljust(24, b"\0")
                                               for v in values.tolist()]


@given(st.lists(st.floats(), max_size=64))
def test_hypothesis_floats_match_repr(values):
    _check_bytes(values)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20181)
    # raw patterns: about half have e2 >= 0, so a second sweep draws finite
    # values below 2^54, where the common path runs
    raw = rng.integers(0, 2**64, size=2**18, dtype=np.uint64, endpoint=False)
    field = rng.integers(0, 1077, size=2**17, dtype=np.uint64)
    low = (field << np.uint64(52)) | (raw[: 2**17] >> np.uint64(12))
    low |= raw[2**17 :] & np.uint64(1 << 63)  # either sign
    for bits in (raw, low):
        values = bits.view(np.float64)
        for start in range(0, len(values), 4096):
            _check_bytes(values[start : start + 4096])


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    for signed in (values, -values):
        for start in range(0, len(signed), 4096):
            _check_bytes(signed[start : start + 4096])


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    float(2**53 - 1), float(2**53), float(2**53 + 2), 1e22, 1e23, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.0, 2.0, -3.0, 100.0, 123456789.0, 1e15, 1e16, 1e17,
    9999999999999998.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.0001, 0.00001, 0.000123,
    9.5367431640625e-07, 1e-4 - 2**-66, 123.456, 1e100, 1e-100, 1.5e-300,
    math.pi, math.e, 1e16 - 2, 2.0**-1022 * 0.5,
]


def test_edge_values_match_repr():
    _check_bytes(EDGES)
    _check_bytes(np.array(EDGES)[::-1])  # a strided view


# one value of each class the common path leaves to repr: q <= 1
# (2^50 <= |x| < 2^54), an exact product (mv has q trailing zero bits: short
# dyadic values, integral floats), e2 >= 0 (|x| >= 2^54), inf and nan
FALLBACKS = [2.0**50 + 0.25, -(2.0**51 + 0.5), 2.0**53 + 2, 0.5, 0.375, 3.0, -1024.0,
             2.0**54, 1e300, math.inf, -math.inf, math.nan]


def test_each_fallback_class_gets_repr():
    values = np.array(FALLBACKS + [0.1, 1e-5, -123.456])
    settled = floatrepr._shortest(values.view(np.uint64))[2]
    assert settled.tolist() == [False] * len(FALLBACKS) + [True] * 3
    _check_bytes(values)


def test_products_one_bit_short_of_exact_take_the_common_path():
    # Ryū's exact branch takes a lane whose mv = 4·m2 has q trailing zero
    # bits, q = floor(−e2·log10 5) − 1; one bit fewer keeps it on the common
    # path, where its digits come from the truncated product alone
    rng = np.random.default_rng(3)
    bits = []
    for field in range(1, 1077):
        e2 = field - 1077
        q = (-e2 * 732923 >> 20) - 1
        if 3 <= q <= 54:
            for odd in 2 * rng.integers(0, 2 ** (54 - q), size=16) + 1:
                bits.append(field << 52 | int(odd) << (q - 3))  # m2 = 2^52 + odd·2^(q−3)
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert len(values) > 1000
    assert floatrepr._shortest(values.view(np.uint64))[2].all()
    _check_bytes(values)
    _check_bytes(-values)


def test_zeros_are_laid_out_without_repr(monkeypatch):
    def no_repr(value):
        raise AssertionError(f"repr({value!r}) called")

    monkeypatch.setattr(floatrepr, "repr", no_repr, raising=False)
    _check_bytes([0.0, -0.0, 0.0])


def test_mahonian_tables_match_repr():
    # small tables hold short values; large ones span every decade down to
    # the subnormals and underflowed zeros
    sizes = (*range(1, 41), 128, 250, 499, 500)
    for table in mahonian_tables(sizes):
        for start in range(0, len(table.mass), 4096):
            _check_bytes(table.mass[start : start + 4096])


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 4097])
def test_lengths_around_the_gather_chunk(n):
    rng = np.random.default_rng(n)
    _check_bytes(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))


def test_random_bit_patterns_and_powers_of_two_match_repr_bytes():
    rng = np.random.default_rng(24)
    raw = rng.integers(0, 2**64, size=2**15, dtype=np.uint64, endpoint=False)
    field = rng.integers(0, 1077, size=2**15, dtype=np.uint64)
    low = (field << np.uint64(52)) | (raw >> np.uint64(12))  # finite, below 2^54
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    for values in (raw.view(np.float64), low.view(np.float64), powers,
                   np.nextafter(powers, 0.0), -np.nextafter(powers, np.inf)):
        for start in range(0, len(values), 4096):
            _check_bytes(values[start : start + 4096])


def test_a_24_character_repr_fills_its_row():
    values = np.array([-2.2250738585072014e-308, -1.7976931348623157e308, 0.1])
    rows = repr_bytes(values)
    assert rows[:2].all()  # no NUL
    assert rows[0].tobytes() == b"-2.2250738585072014e-308"
    _check_bytes(values)


def test_each_fallback_class_lands_in_the_byte_rows():
    values = np.array([0.5, 1.0, 2.0**60, math.inf, math.nan, 0.0, -0.0, -math.inf,
                       *FALLBACKS, 0.1])
    rows = repr_bytes(values)
    assert [row.tobytes().rstrip(b"\0").decode() for row in rows[:7]] == [
        "0.5", "1.0", "1.152921504606847e+18", "inf", "nan", "0.0", "-0.0"]
    _check_bytes(values)
