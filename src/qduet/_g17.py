"""The bytes of "%.17g" % x for whole float64 arrays at once.

format_values(x, ends) returns, for each value, exactly the bytes Python's
"%.17g" % x writes, followed by that value's byte of `ends`.  The 17
digits come from a double-double product: with e = floor(log10|x|),
|x| * 10**(16 - e) is p + s, where p = |x| * hi is the rounded product,
s is its rounding error from Dekker's split two-product (numpy has no
FMA) plus |x| * lo, and (hi, lo) is 10**(16 - e) correctly rounded to two
doubles.  The error of p + s is below 1e-13 at the 1e17 scale, so the
17-digit significand is round(p + s) whenever its fraction is more than
_TIE from one half.

Every other value is formatted by _fallback, which is "%.17g" % x itself:
exact and near ties at the 18th digit, nan, infinities, subnormals and
|x| outside [1e-280, 1e280], where the split products could overflow or
lose bits.  Zeros take the fast path.

Each value is laid out in a 32-byte slot of four little-endian words:
sign and "0.000" lead, the digits with the point inserted by masks,
then the "e+XX" exponent and the end byte.  Zero bytes are padding and are
dropped from the result.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_MIN, _MAX = 1e-280, 1e280
_TIE = 1e-6  # a fraction this close to 1/2 may be a tie: the error is 1e-13
_E = 300  # the layout tables cover the decimal exponents -_E.._E
_P = 284  # the power table covers e = -_P.._P: 10**(16 + _P) * _SPLIT is finite
_NONE = 18  # point position of a slot with no point among its digits


def _fallback(x: float) -> bytes:
    return ("%.17g" % x).encode("ascii")


def _word(text: bytes, at: int) -> int:
    # the little-endian uint64 with `text` starting at byte `at`
    return int.from_bytes(bytes(at) + text, "little")


@functools.cache
def _tables():
    # 10**k as the correctly rounded pair (hi, lo), by integer arithmetic:
    # float(int) and int / int round correctly
    hi, lo = [], []
    for k in range(16 + _P, 15 - _P, -1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            h = 1 / 10 ** -k
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    pow10 = np.stack([hi, hi_h, hi - hi_h, np.array(lo)])  # 10**(16 - e) at e + _P

    # per decimal exponent X of the result: digits before the point, the
    # "0.000" lead and the "e+XX" exponent
    xs = np.arange(-_E, _E + 1)
    fixed = (xs >= -4) & (xs < 17)
    min_digits = np.where(fixed & (xs >= 0), xs + 1, 0)
    point = np.where(fixed, np.where(xs >= 0, xs + 1, _NONE), 1)
    lead = np.array([_word(b"0." + b"0" * (-x - 1), 1) if -4 <= x < 0 else 0
                     for x in xs], dtype=np.uint64)
    expo = np.array([0 if f else _word(b"e%+03d" % x, 2) for x, f in zip(xs, fixed)],
                    dtype=np.uint64)

    # four ASCII digits in the low half of a word, their trailing zero
    # count (0 has 4) in the high half
    g = np.arange(10000)
    quad = ((g % 10 == 0).astype(np.int64) + (g % 100 == 0) + (g % 1000 == 0)
            + (g == 0)) << 32
    for j in range(4):
        quad |= (g // 10 ** (3 - j) % 10 + 48) << 8 * j
    quad = quad.astype(np.uint64)

    # slot masks for point position pp (0..18) and kept digits m (0..17):
    # digit bytes before the point, digit bytes after it, and the point
    pos = np.arange(24)
    pp = np.arange(19)[:, None, None]
    m = np.arange(18)[None, :, None]
    keep_lo = pos < np.minimum(pp, m)
    keep_hi = (pos > pp) & (pos <= m)
    dot = (pos == pp) & (pp < m)
    masks = np.concatenate([np.where(keep_lo, 0xFF, 0), np.where(keep_hi, 0xFF, 0),
                            np.where(dot, ord("."), 0)], axis=-1)
    masks = masks.astype(np.uint8).reshape(19 * 18, 3, 3, 8).view("<u8")[..., 0]
    masks = masks.transpose(2, 1, 0).copy()  # [word, before/after/dot, pp * 18 + m]
    return pow10, min_digits, point, lead, expo, quad, masks


def _scaled(ax, e, pow10):
    """floor and fraction of |x| * 10**(16 - e), to within 1e-13."""
    hi, hi_h, hi_l, lo = np.take(pow10, e + _P, axis=1)
    p = ax * hi
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    s = ((ah * hi_h - p) + ah * hi_l + al * hi_h) + al * hi_l + ax * lo
    fs = np.floor(s)
    # p is an integer wherever the result is in range (p >= 2**53)
    return p.astype(np.int64) + fs.astype(np.int64), s - fs


def _significands(x, pow10):
    """The 17-digit significand and decimal exponent of each value, and
    whether they are exact; zeros have significand 0 and exponent 0."""
    ax = np.abs(x)
    exact = (ax >= _MIN) & (ax <= _MAX)
    ax[~exact] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    floor, frac = _scaled(ax, e, pow10)
    # log10 can miss the decade by one next to a power of ten
    off = (floor < 10 ** 16).astype(np.int64) - (floor >= 10 ** 17)
    if off.any():
        redo = np.flatnonzero(off)
        e[redo] -= off[redo]
        floor[redo], frac[redo] = _scaled(ax[redo], e[redo], pow10)
        exact &= (floor >= 10 ** 16) & (floor < 10 ** 17)
    exact &= np.abs(frac - 0.5) > _TIE
    digits = floor + (frac > 0.5)
    # rounding up to 10**17 carries into the next decade
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry
    zero = x == 0
    digits[zero] = 0
    e[zero] = 0
    return digits, e, exact | zero


def _divmod(n, d):
    # floor division by a scalar is several times faster than np.divmod
    q = n // d
    return q, n - q * d


def _digit_words(digits, quad):
    """The 17 ASCII digits as bytes 0..16 of three words, and how many of
    them are trailing zeros (16 for a significand of 0)."""
    d0, q = _divmod(digits, 10 ** 16)
    a, q = _divmod(q, 10 ** 12)
    b, q = _divmod(q, 10 ** 8)
    c, d = _divmod(q, 10 ** 4)
    qa, qb, qc, qd = (quad.take(g) for g in (a, b, c, d))
    za, zb, zc, zd = ((t >> np.uint64(32)).astype(np.int8) for t in (qa, qb, qc, qd))
    low, byte = np.uint64(0xFFFFFFFF), np.uint64(0xFF)
    w0 = ((d0.astype(np.uint64) + np.uint64(48)) | (qa & low) << np.uint64(8)
          | qb << np.uint64(40))
    w1 = qb >> np.uint64(24) & byte | (qc & low) << np.uint64(8) | qd << np.uint64(40)
    w2 = qd >> np.uint64(24) & byte
    return (w0, w1, w2), zd + (zd == 4) * (zc + (zc == 4) * (zb + (zb == 4) * za))


def format_values(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of "%.17g" % v + end for each value v of x and byte of ends."""
    pow10, min_digits, point, lead, expo, quad, masks = _tables()
    x = np.asarray(x, dtype=np.float64)
    digits, e, exact = _significands(x, pow10)
    words, zeros = _digit_words(digits, quad)

    # keep the significant digits, but every digit before the point
    xi = e + _E
    m = np.maximum(17 - zeros, min_digits.take(xi))
    pp = point.take(xi)
    pp = np.where(m > pp, pp, _NONE)
    row = pp * 18 + m
    slots = np.empty((len(x), 4), dtype="<u8")
    slots[:, 0] = lead.take(xi) | np.signbit(x).astype(np.uint64) * np.uint64(ord("-"))
    byte, last = np.uint64(8), np.uint64(56)
    carried = np.uint64(0)
    for k, w in enumerate(words):
        # bytes before the point as they are, the point, bytes after it
        # moved up by one
        before, after, dot = np.take(masks[k], row, axis=1)
        slots[:, k + 1] = w & before | (w << byte | carried) & after | dot
        carried = w >> last
    slots[:, 3] |= expo.take(xi) | np.asarray(ends, np.uint64) << last

    slots = slots.view(np.uint8).reshape(len(x), 32)
    for i in np.flatnonzero(~exact):
        text = _fallback(float(x[i]))
        slots[i, :31] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().translate(None, b"\0")
