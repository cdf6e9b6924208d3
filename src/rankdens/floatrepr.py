"""``repr`` of a float64 block, computed in numpy.

``reprs(values)`` returns exactly ``[repr(v) for v in values.tolist()]``.
It runs the common path of Ryū's shortest-digit step (U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018) on every lane at once: for binary
exponents e2 < 0, multiply 4·m2 and the two ends of its rounding interval
by a 125-bit 5^i, keep the bits above 2^j, and drop decimal digits while
the ends still differ. The strings are then laid out by one template per
(sign, digit count, decimal-point) class. A lane that the common path does
not settle, where Ryū takes its exact trailing-zero branch (q <= 1 among
them) or e2 >= 0 (|x| >= 2^54, inf, nan), gets ``repr`` itself; ±0.0 are
laid out directly.

Every constant that meets a uint64 array is an ``np.uint64``, so that no
operation falls back to float64 under numpy 1.x's value-based casting.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_LOW32, _32 = _U(0xFFFFFFFF), _U(32)
_TEN = _U(10)
_DIGITS = 17  # a shortest round-trip float64 has at most 17 significant digits
_SLOTS = 18  # digit bytes of a lane: the digits left-aligned, then '0's, in uint16 pairs
_POW10 = np.array([10**k for k in range(_SLOTS + 1)], dtype=np.uint64)


def _multipliers():
    """Per IEEE exponent field: the five 32-bit limbs of 5^i·2^(128−j),
    where floor(m·5^i / 2^j) is Ryū's ``mulShift64`` of m with its 125-bit
    5^i; the decimal exponent e10 of that product; and the mask of the q
    low bits that decide whether the product is exact. A lane is left to
    ``repr`` when its mv = 4·m2 has no bit under the mask: always for
    q <= 1, and for e2 >= 0, inf and nan, whose mask is 0."""
    pow5s = [1]
    for _ in range(325):
        pow5s.append(5 * pow5s[-1])
    limbs, e10, mask = [0] * 2048, [0] * 2048, [0] * 2048
    for field in range(1077):  # e2 < 0; field 0 holds the subnormals
        e2 = max(field, 1) - 1077  # 1023 bias, 52 mantissa bits, 2 bound bits
        q = (-e2 * 732923 >> 20) - (e2 < -1)  # floor(−e2·log10 5), less one
        pow5 = pow5s[-e2 - q]  # 5^i
        k = pow5.bit_length() - 125  # 5^i kept to its top 125 bits
        limbs[field] = (pow5 >> k if k > 0 else pow5 << -k) << (128 - (q - k))
        e10[field] = q + e2
        mask[field] = (1 << min(q, 63)) - 1
    words = np.frombuffer(b"".join(p.to_bytes(20, "little") for p in limbs), dtype="<u4")
    return (words.reshape(2048, 5).T.astype(np.uint64, order="C"), np.array(e10),
            np.array(mask, dtype=np.uint64))


_LIMBS, _E10, _MASK = _multipliers()

# One row of lane bytes: four '0's ahead of the digit slots (so a value
# below 1 reads its leading zeros from there), the exponent's last two
# digits and its first, the point, the exponent's sign, 'e' and the minus
# sign, then NULs. Digit pairs sit at even offsets, written as uint16.
_ROW = np.frombuffer(b"0000" + b"0" * _SLOTS + b"000.+e-" + b"\0" * 3, dtype=np.uint8)
_D, _EXP, _DOT, _ESIGN, _E, _MINUS, _NUL = 4, 22, 25, 26, 27, 28, 29
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)
_WIDTH = 24  # "-1.2345678901234567e-308"
_GATHER = 512  # lanes laid out at a time


def _layout(length: int, form: int) -> list[int]:
    """The lane-byte columns of one unsigned class: form 0–19 is fixed
    notation with the decimal point after digit ``form − 3``; 20 and 21 are
    exponent notation with two and three exponent digits, as ``repr``
    chooses them."""
    if form < 20:
        decpt = form - 3
        start, stop = min(0, decpt - 1), max(length, decpt + 1)
        cols = [*range(_D + start, _D + decpt), _DOT, *range(_D + decpt, _D + stop)]
    else:
        fraction = [_DOT, *range(_D + 1, _D + length)] if length > 1 else []
        cols = [_D, *fraction, _E, _ESIGN, *[_EXP + 2] * (form - 20), _EXP, _EXP + 1]
    return cols + [_NUL] * (_WIDTH - len(cols))


# indexed by (sign, digit count − 1, form); a negative class is its unsigned
# one behind a minus sign
_LAYOUTS = np.array([_layout(length, form) for length in range(1, _DIGITS + 1)
                     for form in range(22)], dtype=np.uint8)
_LAYOUTS = np.concatenate([_LAYOUTS, np.insert(_LAYOUTS[:, :-1], 0, _MINUS, axis=1)])


def _mul_shift(m, p):
    """floor(m·P / 2^128) mod 2^64 for uint64 m and P = Σ p[t]·2^(32t), in
    32-bit limbs: each a0·p[t] is split at 32 bits, and each a1·p[t] is
    added whole to its column's sum (for m < 2^55, a1 = m >> 32 has at most
    23 bits, so no sum wraps)."""
    a0, a1 = m & _LOW32, m >> _32
    carry = (a0 * p[0]) >> _32
    for c in range(1, 5):
        x = a0 * p[c]
        col = carry + (x & _LOW32) + a1 * p[c - 1]
        carry = (col >> _32) + (x >> _32)
    return (col & _LOW32) + ((carry + a1 * p[4]) << _32)


def _shortest(bits):
    """Ryū's common path on each lane of float64 ``bits``: its shortest
    round-trip digits as one integer, the decimal exponent of their last
    digit, and whether the path settled the lane."""
    field = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    mantissa = bits & _U((1 << 52) - 1)
    mv = (mantissa | np.where(field != 0, _U(1 << 52), _U(0))) << _U(2)
    # the interval's lower end is mv − 2, or mv − 1 at a power of two, where the gap below halves
    gap = (mantissa != 0) | (field <= 1)
    limbs = _LIMBS.take(field, axis=1)
    v = np.stack([_mul_shift(m, limbs) for m in (mv, mv + _U(2), mv - _U(1) - gap)])
    settled = (mv & _MASK.take(field)) != 0
    # drop digits while the interval ends differ; the last dropped digit rounds
    exponent = _E10.take(field)
    round_up = np.zeros(len(bits), dtype=bool)
    while True:
        q = v // _TEN
        more = settled & (q[1] > q[2])
        if not more.any():
            break
        round_up = np.where(more, v[0] - q[0] * _TEN >= _U(5), round_up)
        v = np.where(more, q, v)
        exponent += more
    # the lower end itself is outside the interval
    return v[0] + ((v[0] == v[2]) | round_up), exponent, settled


def _lanes(digits, exponent, negative):
    """The lane bytes of ``digits``·10^``exponent``, where ``digits`` is an
    integer of at most 17 digits, and the key of each lane's layout."""
    length = np.searchsorted(_POW10[1:], digits, side="right") + 1
    decpt = exponent + length  # the decimal point follows digit decpt
    lanes = np.tile(_ROW, (len(digits), 1))
    pairs = lanes.view(np.uint16)
    left = digits * _POW10.take(_SLOTS - length)  # the digits, left-aligned in the slots
    for col in range((_D + _SLOTS) // 2 - 1, _D // 2 - 1, -1):
        q = left // _U(100)
        pairs[:, col] = _PAIRS.take((left - q * _U(100)).astype(np.intp))
        left = q
    exp = decpt - 1
    lanes[:, _ESIGN] = np.where(exp < 0, ord("-"), ord("+"))
    exp = np.abs(exp)
    pairs[:, _EXP // 2] = _PAIRS.take(exp % 100)
    lanes[:, _EXP + 2] += (exp // 100).astype(np.uint8)
    form = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, 20 + (exp >= 100))
    return lanes, (negative.astype(np.intp) * _DIGITS + length - 1) * 22 + form


def _laid_out(lanes, key) -> list[str]:
    """Each lane's string, its bytes gathered by the layout of its class a
    few hundred lanes at a time, so that the intp index and the UCS-4
    characters that tolist reads as str stay small."""
    layouts, rows = _LAYOUTS.take(key, axis=0), np.arange(0, lanes.size, lanes.shape[1])
    texts = []
    for at in range(0, len(lanes), _GATHER):
        chunk = slice(at, at + _GATHER)
        chars = lanes.ravel().take(rows[chunk, None] + layouts[chunk]).astype(np.uint32)
        texts += chars.view(f"U{_WIDTH}").ravel().tolist()
    return texts


def reprs(values) -> list[str]:
    """``repr`` of each float64 in ``values``, a 1-D array."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.view(np.uint64)
    digits, exponent, settled = _shortest(bits)
    # an unsettled lane is laid out as 0.0, which is right for ±0.0
    texts = _laid_out(*_lanes(np.where(settled, digits, _U(0)), np.where(settled, exponent, 0),
                              bits >> _U(63)))
    rest = np.flatnonzero(~settled & (bits << _U(1) != _U(0)))
    for i, value in zip(rest.tolist(), x[rest].tolist()):
        texts[i] = repr(value)
    return texts
