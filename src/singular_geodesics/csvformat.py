"""``'%.16g' %`` of whole float64 arrays, byte for byte, for the CSV export.

CPython's correctly rounded conversion (Gay 1990, "Correctly rounded
binary-decimal and decimal-binary conversions") runs once per value and
takes its bignum path beyond 14 digits.  Here numpy finds the same 16
significant digits for a whole block at once.  With e = floor(log10 |x|),
the mantissa |x| 10^(15 - e) is formed as a double-double (Dekker 1971, "A
floating-point technique for extending the available precision") from a
table of correctly rounded (hi, lo) pairs of 10^p.  It is exact to about
1e-15, so its nearest integer is the correctly rounded one unless the
fraction lies within ``TIE_BAND`` of one half.  Such values go to ``'%.16g'
%``, which stays the reference and rounds a tie half-even; so do zeros, NaN,
infinities, subnormals and the values outside [``LO``, ``HI``].

Each value's text, separator included, is one gather from its source row
(its digits, exponent, separator and sign, and the constant characters)
through a table of layouts keyed by form (fixed with exponent -4..15, or
scientific with 2 or 3 exponent digits) and the number of significant
digits.  A layout is padded with NUL, which is dropped at the end.
"""
from __future__ import annotations

import numpy as np

__all__ = ["csv_lines"]

LO, HI = 1e-280, 1e280
# the double-double mantissa errs by about 1e-15: a fraction this near one
# half is left to the reference
TIE_BAND = 1e-6
# 10^p for p = 15 - e, e within one of [-280, 280] while it is corrected
_P0, _P1 = 15 - 281, 15 + 281
_E15, _E16 = 10 ** 15, 10 ** 16


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, lo and hi's two halves of 10^p, p = _P0.._P1, from exact
    integers: int-to-float and int / int both round correctly."""
    rows = []
    for p in range(_P0, _P1 + 1):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            d = 10 ** -p
            hi = 1 / d
            a, b = hi.as_integer_ratio()
            lo = (b - a * d) / (b * d)
        rows.append((hi, lo) + _split(hi))
    return np.array(rows).T.copy()


_POW10 = _pow10_table()
# the digits of 0..9999 and the exponents -299..299 ('-299'..'+299'), four
# bytes each, read as one uint32
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
          // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
          ).astype(np.uint8).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % e for e in range(-299, 300)), dtype=np.uint32)
# the trailing zeros of 1..9999, and 4 for 0
_ZEROS = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.int8)

# a value's source row is seven uint32 words: the 16 digits, the exponent,
# the separator (',' and NUL, or CRLF) with the sign ('-' or NUL), and the
# constants; these are the byte offsets of the characters in it
_ROW = 28
_ESIGN, _EXP, _SEP, _SIGN, _POINT, _ZERO, _E, _NUL = 16, 17, 20, 22, 24, 25, 26, 27
_COMMA, _CRLF, _MINUS, _CONST = np.frombuffer(b",\0\0\0\r\n\0\0\0\0-\0.0e\0", dtype=np.uint32)
_WIDTH = 25  # '-d.ddddddddddddddde+ddd' and a CRLF
_FORMS = 22  # fixed with e = -4..15, scientific with 2 or 3 exponent digits


def _layout(form: int, sig: int) -> bytes:
    """Source offsets of the text of a value with ``sig`` significant digits."""
    out = [_SIGN]
    frac = []
    if form < 20:
        e = form - 4
        if e >= 0:
            out += range(e + 1)
            frac = range(e + 1, sig)
        else:
            out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(range(sig))
    else:
        out += [0]
        frac = range(1, sig)
    if frac:
        out += [_POINT, *frac]
    if form >= 20:
        out += [_E, _ESIGN] + list(range(_EXP + 21 - form, _EXP + 3))
    out += [_SEP, _SEP + 1]
    return bytes(out + [_NUL] * (_WIDTH - len(out)))


_LAYOUTS = np.frombuffer(b"".join(_layout(form, sig) for form in range(_FORMS)
                                  for sig in range(1, 17)), dtype=np.uint8
                         ).reshape(-1, _WIDTH).astype(np.intp)
# the row of _LAYOUTS before the form's first, for each exponent -299..299
_FORM_OF = np.array([16 * (e + 4 if -4 <= e <= 15 else 20 if abs(e) < 100 else 21) - 1
                     for e in range(-299, 300)])


def _mantissa(ax: np.ndarray, e: np.ndarray):
    """floor and fraction of ax 10^(15 - e), the floor in int64: above 2^53
    a float cannot hold n - 1."""
    hi, lo, hh, hl = _POW10.take(15 - _P0 - e, axis=1)
    p = ax * hi
    xh, xl = _split(ax)
    s = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + ax * lo
    fl = np.floor(p)
    frac = (p - fl) + s
    k = np.floor(frac)
    return fl.astype(np.int64) + k.astype(np.int64), frac - k


def _decimal(ax: np.ndarray):
    """e = floor(log10 ax), and the floor m and fraction of ax 10^(15 - e).
    log10 errs by a few ulp at most, so its floor is at most one off, near a
    power of ten; e moves by one where m lies outside [1e15, 1e16).  Once
    moved, m lies outside only if ax 10^(15 - e) is within 1e-15 of 1e15 or
    1e16, which only a power of ten could be, and the tests cover them all."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    m, frac = _mantissa(ax, e)
    off = np.flatnonzero((m < _E15) | (m >= _E16))
    e[off] += np.where(m[off] < _E15, -1, 1)
    m[off], frac[off] = _mantissa(ax[off], e[off])
    return e, m, frac


def csv_lines(block: np.ndarray) -> bytes:
    """Each row of the 2-D float64 ``block`` as one line of its values,
    ``'%.16g' %`` each, joined by commas and ended by CRLF."""
    x = block.ravel()
    n = len(x)
    ax = np.abs(x)
    fast = (ax >= LO) & (ax <= HI)
    e, m, frac = _decimal(np.where(fast, ax, 1.0))
    fast &= np.abs(frac - 0.5) >= TIE_BAND
    m += frac > 0.5
    carry = m == _E16
    m[carry] = _E15
    e += carry

    halves = np.empty((n, 2), dtype=np.int64)
    np.divmod(m, 10 ** 8, out=(halves[:, 0], halves[:, 1]))
    quads = np.empty((n, 4), dtype=np.int64)
    np.divmod(halves, 10 ** 4, out=(quads[:, 0::2], quads[:, 1::2]))
    zeros = _ZEROS[quads]
    sig = 16 - zeros[:, 3]
    for i in (2, 1, 0):
        sig -= (sig == 4 * (i + 1)) * zeros[:, i]
    src = np.empty((n, _ROW // 4), dtype=np.uint32)
    src[:, :4] = _QUADS[quads]
    src[:, 4] = _EXPONENTS[e + 299]
    seps = np.full(block.shape[1], _COMMA)
    seps[-1] = _CRLF
    src[:, 5].reshape(block.shape)[:] = seps + np.signbit(block) * _MINUS
    src[:, 6] = _CONST

    index = _LAYOUTS[_FORM_OF[e + 299] + sig]
    index += np.arange(0, _ROW * n, _ROW)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    slow = np.flatnonzero(~fast)
    if len(slow):
        ends = src[slow, 5].view(np.uint8).reshape(-1, 4)[:, :2].tobytes()
        out[slow] = np.array([text + ends[2 * i:2 * i + 2].rstrip(b"\0")
                              for i, text in enumerate(_reference(x[slow].tolist()))],
                             dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out.tobytes().translate(None, b"\0")


def _reference(values: list) -> list:
    """``'%.16g' %`` of each float of ``values``, as bytes."""
    return [("%.16g" % v).encode() for v in values]
