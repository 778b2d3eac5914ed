"""The bulk number printer behind ``io.write_csv``: numpy arrays to the text ``str()`` gives.

Each value fills a fixed row of byte slots and marks, in a boolean row of
the same width, the slots its text uses: the marked slots, in order, are
``str()`` of the value's ``tolist()`` value.  Floats are printed by their
shortest round-trip digits, closest to the value, as ``repr`` prints them:
Giulietti's Schubfach ("The Schubfach way to render doubles", 2020) in
uint64 numpy arithmetic.  Integers, and the digits of floats, go through a
table of 4-digit groups.  Zero, subnormals, inf and nan, rare in a trace, are printed by
``str()`` one value at a time.  The tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

# the byte slots of one value.  A float's: its sign, 16 integer digits, the
# point, 20 fraction digits, then "e", the exponent's sign and 3 digits.  An
# integer's: its sign and 20 digits.
FLOAT_SLOTS = 43
INT_SLOTS = 21

# Schubfach's range of decimal exponents k for doubles, and its g table's
# halves: g = g1 2^63 + g0
_K_MIN, _K_MAX = -324, 292
_LOW_63 = (1 << 63) - 1
_LOW_32 = (1 << 32) - 1


def print_integers(values: np.ndarray, slots: np.ndarray, keep: np.ndarray) -> None:
    """Print int64 or uint64 ``values``: a sign slot, then 20 digit slots, leading zeros unmarked."""
    magnitude = values.view(np.uint64)
    negative = values < 0
    magnitude = np.where(negative, ~magnitude + 1, magnitude)
    digits = _digits(magnitude)
    significant = digits != ord("0")
    significant[:, -1] = True
    slots[:, 0] = ord("-")
    slots[:, 1:] = digits
    keep[:] = _integer_keep()[20 * negative + significant.argmax(axis=1)]


def print_floats(values: np.ndarray, slots: np.ndarray, keep: np.ndarray) -> None:
    """Print contiguous float64 ``values`` as ``repr`` does.

    The shortest digits f and exponent k (value = f 10^k) are laid out on a
    fixed-point template of 16 integer and 20 fraction digits.  When
    -4 < decpt <= 16 (the value is 0.d1d2... 10^decpt) the layout is
    positional; otherwise the first digit goes to the units place and
    "e" and the exponent follow the fraction.  The template is a window
    into the digits padded with zeros, so a leading "0." and a trailing
    ".0" come from the padding.  Zero, subnormals, inf and nan are
    printed by ``str()``.
    """
    bits = values.view(np.uint64)
    biased = bits >> 52 & 0x7FF
    normal = (biased != 0) & (biased != 0x7FF)
    f, k = _shortest(np.where(normal, bits, 0x3FF0000000000000))  # 1.0 stands in for the others
    digits = _digits(f)
    significant = digits != ord("0")
    lead = significant.argmax(axis=1)
    last = 19 - significant[:, ::-1].argmax(axis=1)
    decpt = 20 - lead + k
    scientific = (decpt <= -4) | (decpt > 16)
    # digit j of ``digits`` lands in template slot j - 4 - shift.  It sits
    # in column 16 + j of ``padded``, so the template is the window of 36
    # columns from 20 + shift, which runs from 0 to 35
    shift = np.where(scientific, lead - 19, k)
    n = values.size
    padded = np.full((n, 71), ord("0"), np.uint8)
    padded[:, 16:36] = digits
    windows = np.lib.stride_tricks.as_strided(padded, shape=(n, 36, 36), strides=(71, 1, 1), writeable=False)
    template = windows[np.arange(n), 20 + shift]
    slots[:, 0] = ord("-")
    slots[:, 1:17] = template[:, :16]
    slots[:, 17] = ord(".")
    slots[:, 18:38] = template[:, 16:]
    rows = np.flatnonzero(scientific)  # few, in a trace; most, in a transmission map
    slots[rows, 38:] = _exponent_text()[decpt[rows] - 1 - _K_MIN]
    first = np.minimum(lead - 4 - shift, 15)  # the units digit is always printed
    final = last - 4 - shift
    final = np.where(scientific, final, np.maximum(final, 16))  # and in positional, one fraction digit
    form = np.where(scientific, 1 + (np.abs(decpt - 1) >= 100), 0)
    keep[:] = _float_keep()[((first * 21 + final - 15) * 2 + np.signbit(values)) * 3 + form]
    for i in np.flatnonzero(~normal):
        text = np.frombuffer(str(values[i].item()).encode(), np.uint8)
        slots[i, : text.size] = text
        keep[i] = np.arange(FLOAT_SLOTS) < text.size


def _shortest(bits: np.ndarray):
    """Schubfach: the shortest decimal f 10^k that reads back to each normal positive double.

    Of the shortest candidates in the rounding interval, the one closest to
    the value, ties to the even digit: the digits ``repr`` prints.  The
    128-bit products are formed from 32-bit halves.  The sign bit is ignored.
    """
    biased = (bits >> 52 & 0x7FF).astype(np.int64)
    fraction = bits & ((1 << 52) - 1)
    c = fraction | 1 << 52
    q = biased - 1075  # value = c 2^q
    # above the smallest normal, c = 2^52 has the closer double below it at half the spacing
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # q + floor(log2(10^-k)) + 2
    g1, g0 = (half[k - _K_MIN] for half in _g_table())
    g = (g1, g1 >> 32, g1 & _LOW_32, g0 >> 32, g0 & _LOW_32)
    odd = c & 1  # an odd c excludes the interval's ends
    cb = c << 2
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - 2 + irregular) << h) + odd
    vbr = _round_to_odd(g, (cb + 2) << h) - odd
    s = vb >> 2
    # one digit shorter: the multiples of 10 on either side
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    middle = (2 * s + 1) << 1
    closer_s = (vb < middle) | ((vb == middle) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), s + np.where(uin != win, win, ~closer_s))
    return f, k


def _round_to_odd(g, cp: np.ndarray) -> np.ndarray:
    """g cp / 2^127 rounded to odd: the floor, its lowest bit set when the bits below it are not all zero.

    As in the paper, the bits of g cp under 2^64 are not looked at.
    """
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _LOW_32
    x1 = _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mul_high(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _LOW_63) + _LOW_63) >> 63


def _mul_high(a_hi, a_lo, b_hi, b_lo) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b, from their 32-bit halves."""
    cross_1 = a_lo * b_hi
    cross_2 = a_hi * b_lo
    middle = ((a_lo * b_lo) >> 32) + (cross_1 & _LOW_32) + (cross_2 & _LOW_32)
    return a_hi * b_hi + (cross_1 >> 32) + (cross_2 >> 32) + (middle >> 32)


def _digits(values: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of uint64 ``values``, zero-padded, as characters, shape (n, 20)."""
    groups = np.empty((values.size, 5), np.uint32)
    high, low = np.divmod(values, 100_000_000)
    groups[:, 0], middle = np.divmod(high, 100_000_000)
    groups[:, 1], groups[:, 2] = np.divmod(middle, 10_000)
    groups[:, 3], groups[:, 4] = np.divmod(low, 10_000)
    return _digit_groups()[groups].view(np.uint8)


@functools.cache
def _digit_groups() -> np.ndarray:
    """The 4 digit characters of 0..9999 in one uint32 each."""
    chars = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return chars.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _g_table():
    """Schubfach's g for k = _K_MIN.._K_MAX, as uint64 halves (g1, g0).

    10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1,
    from exact integers.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            power = 10**-k
            r = power.bit_length() - 126
            g.append((power >> r if r >= 0 else power << -r) + 1)
        else:
            power = 10**k
            g.append((1 << 125 + power.bit_length()) // power + 1)
    return np.array([v >> 63 for v in g], np.uint64), np.array([v & _LOW_63 for v in g], np.uint64)


@functools.cache
def _exponent_text() -> np.ndarray:
    """'e', the sign and 3 digits of each exponent from _K_MIN up, shape (n, 5)."""
    text = "".join(f"e{e:+04d}" for e in range(_K_MIN, 309))
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, 5)


@functools.cache
def _float_keep() -> np.ndarray:
    """The float slots printed, for each (first, final, sign, form).

    ``first`` and ``final`` are the template slots 0..15 and 15..35 printed
    from and to; form 0 is positional, 1 and 2 scientific with 2 and 3
    exponent digits.
    """
    first, final, negative, form = (a.ravel()[:, None] for a in np.meshgrid(
        np.arange(16), np.arange(15, 36), np.arange(2), np.arange(3), indexing="ij"))
    template = (np.arange(36) >= first) & (np.arange(36) <= final)
    return np.hstack((negative == 1, template[:, :16], final >= 16, template[:, 16:],
                      np.repeat(form > 0, 2, axis=1), form == 2, np.repeat(form > 0, 2, axis=1)))


@functools.cache
def _integer_keep() -> np.ndarray:
    """The integer slots printed, at row 20 negative + lead (the first digit printed)."""
    negative, lead = (a.ravel()[:, None] for a in np.meshgrid(np.arange(2), np.arange(20), indexing="ij"))
    return np.hstack((negative == 1, np.arange(20) >= lead))
