"""CSV text of float64 blocks whose every cell is ``repr(float(v))``.

Python's ``repr`` writes the shortest decimal that reads back as the
same double, the one nearest the double among equally short ones, from
Gay's bignum ``dtoa``: about 0.6 us per value. ``csv_rows`` finds the
same digits for a whole block with machine arithmetic (Steele & White
1990; Adams 2018, "Ryu"):

- y = |x| 10^k lies in [1e16, 1e17). It comes from Dekker's exact
  product of |x| and a correctly rounded hi + lo pair of 10^k, and is
  held as an int64 part plus a fraction. The reals that round to x form
  an interval about y, half an ulp wide on either side (the lower side
  is halved at a power of two).
- The shortest digits are the multiple of 10^r inside that interval for
  the largest such r; of two, the one nearer y.
- The arithmetic is good to about 1e-14 in units of y. A cell with a
  decision closer than ``_GUARD`` to an interval bound or a rounding
  tie takes ``repr`` itself, as do subnormals, infinities, NaN and
  magnitudes outside [``_TINY``, ``_HUGE``], so the text is exact.

Each cell's text is laid out in 32 bytes, four little-endian int64
words, padded with 0 bytes that one translation drops.
"""
from __future__ import annotations

import numpy as np

# decisions closer than this to a bound or a tie, in units of y, go to repr
_GUARD = 1e-9
# the magnitudes the machine path takes; every 10^k it needs is normal
_TINY, _HUGE = 1e-280, 1e280
_EXPONENT_BITS, _FRACTION_BITS = 0x7FF << 52, (1 << 52) - 1
_K_MIN = -270
# Veltkamp's splitter, 2^27 + 1
_SPLIT = 134217729.0
_E8, _E16, _E17 = 10 ** 8, 10 ** 16, 10 ** 17
# the four ASCII figures of 0 .. 9999 in one word each, the first figure
# in the low byte, and how many of them are trailing zeros
_QUADS = sum((np.arange(10000) // 10 ** (3 - place) % 10 + ord("0"))
             << 8 * place for place in range(4)).astype("<u4")
_TRAILING = sum(np.arange(10000) % 10 ** t == 0 for t in range(1, 5))
# a cell's 32 bytes: 0-1 unused, 2 the sign, 3-6 the zeros before the
# figures of 0.1 .. 0.0001, 7-23 d1 .. d17 until the point moves those
# after it up one byte (to byte 24 at most), 25-29 the exponent, 31 the
# separator
_SIGN, _D1 = 2, 7
# in entry point + 4: the zeros that lead the fixed text of point -3 .. 0
_LEADING = np.array(
    [0] + [int.from_bytes(b"0" * (1 - e), "little") << 8 * (6 + e)
           for e in range(-3, 1)] + [0], "<i8")
# in entry j: the low j bytes of a word set
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], "<u8").view("<i8")
# in row i, column j: word i of a cell whose point is at byte j (none
# for j = 0)
_POINT = np.zeros((32, 32), np.uint8)
_POINT[np.arange(1, 24), np.arange(1, 24)] = ord(".")
_POINT = np.ascontiguousarray(_POINT.view("<i8").T)


def csv_rows(block) -> bytes:
    """ASCII text of a 2-D float block: cells ``repr(float(v))`` joined
    by commas, each row ended by a newline."""
    x = np.asarray(block, dtype=float)
    n_rows, n_cols = x.shape
    if x.size == 0:
        return b""
    x = x.ravel()
    words, exact = _text(x)
    cells = words.view(np.uint8)
    cells[:, 31] = ord(",")
    cells[n_cols - 1::n_cols, 31] = ord("\n")
    for i in np.flatnonzero(~exact):
        text = np.frombuffer(repr(float(x[i])).encode("ascii"), np.uint8)
        cells[i, :31] = 0
        cells[i, :text.size] = text
    return cells.tobytes().translate(None, b"\0")


def write_table(fh, header, columns, comments=()) -> None:
    """Write a CSV table into the text stream ``fh``: ``# `` comment lines,
    the header, then the rows of the columns, every cell ``repr`` of its
    value itself, so an int reads ``0``, not ``0.0``."""
    fh.writelines(f"# {line}\n" for line in comments)
    fh.write(",".join(header) + "\n")
    fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def _power_table() -> np.ndarray:
    """10^k for k = _K_MIN + j in column j: the correctly rounded double,
    its two 26-bit halves and the rounded remainder, from exact ints."""
    table = np.empty((4, 571))
    for j in range(table.shape[1]):
        k = j + _K_MIN
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den                  # int division rounds correctly
        a, b = hi.as_integer_ratio()
        c = _SPLIT * hi
        table[:, j] = (hi, c - (c - hi), hi - (c - (c - hi)),
                       (num * b - a * den) / (den * b))
    return table


_POWERS = _power_table()


def _product(v: np.ndarray, k: np.ndarray):
    """y = v 10^k as an unevaluated sum hi + lo (Dekker's two-product),
    and 10^k's double."""
    column = k - _K_MIN
    p, p_h, p_l = (row.take(column) for row in _POWERS[:3])
    hi = v * p
    v_h = _SPLIT * v
    v_h -= v_h - v
    v_l = v - v_h
    # ((v_h p_h - hi) + v_h p_l + v_l p_h) + v_l p_l, then v p_lo
    lo = v_h * p_h
    lo -= hi
    lo += v_h * p_l
    lo += v_l * p_h
    lo += v_l * p_l
    lo += v * _POWERS[3].take(column)
    return hi, lo, p


def _scaled(v: np.ndarray):
    """k with y = v 10^k in [1e16, 1e17); y as an int64 part and a
    fraction in [0, 1); the least and greatest integers strictly inside
    the reals that round to v, in units of y; and whether both bounds of
    those reals are clear of an integer."""
    k = 16 - np.floor(np.log10(v)).astype(np.intp)
    hi, lo, power = _product(v, k)
    # log10 may round across a power of ten; move such cells one decade
    shift = (hi >= 1e17).astype(np.intp) - (hi < 1e16)
    if shift.any():
        k -= shift
        hi, lo, power = _product(v, k)
    whole = hi.astype(np.int64)
    floor = np.floor(lo)
    whole += floor.astype(np.int64)
    lo -= floor
    # half an ulp of v is v's power of two times 2^-53; below a power of
    # two the doubles lie twice as close
    bits = v.view(np.int64)
    up = power * (bits & _EXPONENT_BITS).view(float) * 2.0 ** -53
    low = lo - up * np.where(bits & _FRACTION_BITS, 1.0, 0.5)
    high = lo + up
    above, below = np.ceil(low), np.floor(high)
    clear = ((above - low > _GUARD) & (low - above + 1.0 > _GUARD)
             & (high - below > _GUARD) & (below + 1.0 - high > _GUARD))
    return (k, whole, lo, whole + above.astype(np.int64),
            whole + below.astype(np.int64), clear)


def _nearest(whole, frac, first, last):
    """The multiple of 10^r in [first, last] for the largest r, of two
    the one nearer y = whole + frac, and whether y was clear of a tie.

    The interval is under 23 wide: it holds at most one multiple of 100,
    the answer for every r >= 2, whose trailing zeros ``_text`` counts.
    """
    p = np.where(last // 100 * 100 >= first, 100,
                 np.where(last // 10 * 10 >= first, 10, 1))
    digits = whole // p
    # y - digits p, twice, against p picks the nearer multiple, exactly
    # where two multiples can lie inside
    excess = (2 * (whole - digits * p) - p).astype(float)
    excess += 2.0 * frac
    digits += excess > 0.0
    digits *= p
    # the nearer multiple may lie just outside; then the other is inside
    digits += (digits < first) * p
    digits -= (digits > last) * p
    return digits, np.abs(excess) > 2.0 * _GUARD


def _shortest(x: np.ndarray):
    """The shortest digits of each |x| as 17 figures, the first nonzero
    unless x is 0, then zeros; the point's place, |x| = 0.d1 d2 ... x
    10^point; and whether the machine path's decisions were clear of
    the guard."""
    v = np.abs(x)
    regular = (v >= _TINY) & (v <= _HUGE)
    v[~regular] = 1.0
    k, whole, frac, first, last, exact = _scaled(v)
    digits, clear = _nearest(whole, frac, first, last)
    exact &= clear & regular
    # 16 figures just below 1e16, 18 only for 1e17
    small, big = digits < _E16, digits >= _E17
    point = 17 - k + big - small
    np.multiply(digits, 10, out=digits, where=small)
    np.copyto(digits, _E16, where=big)
    zero = x == 0.0
    digits[zero] = 0
    point[zero] = 1
    return digits, point, exact | zero


def _figures(digits: np.ndarray):
    """d1, then d2 .. d17 as two words of ASCII, and the place of the
    last nonzero figure (1 for 0)."""
    top = digits // _E16
    lower = digits // _E8
    upper = lower - top * _E8
    lower = digits - lower * _E8
    quads = np.empty((digits.size, 4), "<u4")
    # the trailing zeros of d2 .. d17, group by group
    zeros = 0
    for column, part in ((0, upper), (2, lower)):
        high = part // 10000
        for j, group in ((column, high), (column + 1, part - high * 10000)):
            quads[:, j] = _QUADS.take(group)
            zeros = _TRAILING.take(group) + (group == 0) * zeros
    return top, quads.view("<i8").T, 17 - zeros


def _text(x: np.ndarray):
    """Each cell's 32 bytes of text and padding, as (cells, 4) words, and
    whether the machine path's decisions were clear of the guard.

    Fixed notation keeps the figures up to the last nonzero one and at
    least up to the one after the point. Scientific notation, for
    point <= -4 or point > 16 as in ``repr``, keeps those up to the last
    nonzero one, then writes "e", the sign and at least two figures of
    point - 1. The bytes from the point's place on move up one byte, a
    shift of the words, and the point goes in the gap; scientific
    notation with one figure has no point.
    """
    digits, point, exact = _shortest(x)
    top, quads, significant = _figures(digits)
    scientific = (point <= -4) | (point > 16)
    kept = np.where(scientific, significant,
                    np.maximum(significant, point + 1))
    dot = np.where(scientific, _D1 + 1, _D1 + point)
    at_dot = dot * (kept > dot - _D1)
    words = [(np.signbit(x) * (ord("-") << 8 * _SIGN)
              | _LEADING.take(np.minimum(np.maximum(point, -4), 1) + 4))
             + (top + ord("0") << 8 * _D1), *quads]
    out = np.empty((digits.size, 4), "<i8")
    carry = 0
    for i, word in enumerate(words):
        if i:
            # blank the figures after d(kept)
            kept_here = np.minimum(np.maximum(kept + _D1 - 8 * i, 0), 8)
            word = word & _LOW_BYTES.take(kept_here)
        before_dot = np.minimum(np.maximum(dot - 8 * i, 0), 8)
        head = word & _LOW_BYTES.take(before_dot)
        word ^= head
        head |= word << 8
        head |= carry
        head |= _POINT[i].take(at_dot)
        out[:, i] = head
        carry = word >> 56
    out[:, 3] = carry
    if scientific.any():
        rows = np.flatnonzero(scientific)
        power = point[rows] - 1
        size = np.abs(power)
        # the last three of four figures, the first of them blank below 100
        figures = (_QUADS.take(size).astype("<i8") >> 8
                   & np.where(size < 100, 0xffff00, 0xffffff))
        sign = np.where(power < 0, ord("-"), ord("+"))
        out[rows, 3] |= ord("e") << 8 | sign << 16 | figures << 24
    return out, exact
