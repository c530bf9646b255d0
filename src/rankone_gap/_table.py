"""CSV rows with the bytes of ``'%.15g' % x``, built by numpy for large tables.

``cli.emit_csv`` imports this module only for a table of at least
``cli.KERNEL_CELLS`` cells; a smaller table is cheaper as one ``%`` block.

A float |x| in [1e-280, 1e280] is scaled to y = |x| * 10**(14 - e) in
double-double arithmetic (Dekker's exact product, against an exact hi + lo
table of the powers of ten), so y lies in [1e14, 1e15] and splits into the
15-digit integer D nearest to it and a residual r = y - D.  The error of r is
about 1e-16 (|y| < 2**50, and hi + lo is 10**k to 2**-106), so D is the
correctly rounded digit string whenever |r| is not within ``TIE`` of 1/2.
Every other value goes to ``'%.15g' % x`` one at a time: 0, -0.0, inf, nan,
|x| outside [1e-280, 1e280], and a residual within ``TIE`` of +-1/2 (this
includes every exact decimal tie, which ``%`` rounds half to even).

Each float cell is laid out in three little-endian uint64 words (24 bytes,
at most 22 of them text and byte 23 the separator); string cells take the
next multiple of 8 bytes above their longest value.  Bytes a cell does not
use are zero, and ``bytes.translate(None, b"\\0")`` drops them, so no cell
is ever shifted to its final offset.  Rows are written ``BLOCK`` at a time,
which keeps the temporaries small.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

BLOCK = 4096
TIE = 1e-9  # a residual this close to +-1/2 is left to %
_LO, _HI = 1e-280, 1e280
_E = 285  # exponents -_E.._E are tabled: those of [_LO, _HI] and their neighbours
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_U8 = np.dtype("<u8")
_BYTE = np.uint64(8)


def _words(rows) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian uint64, zero padded."""
    return np.array(list(rows), "S8").view(_U8)


def _low_bytes(counts) -> np.ndarray:
    """The masks of the ``counts`` low bytes of a word, each clipped to 0..8."""
    return _words(b"\xff" * c for c in np.clip(counts, 0, 8).tolist())


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use."""
    # 10**(14 - e) as hi + lo, each correctly rounded, and hi's Dekker halves
    hi, lo = [], []
    for e in range(-_E, _E + 1):
        k = 14 - e
        if k >= 0:
            n = 10**k
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            n = 10**-k
            hi.append(1 / n)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * n) / (n * den))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hh = c - (c - hi)

    # ASCII of 0000..9999 and of 000..999 (then a zero byte), and the number
    # of digits up to the last non-zero one
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        ascii4[..., k] = np.arange(48, 58).reshape([10 if j == k else 1 for j in range(4)])
    ascii4 = ascii4.reshape(10_000, 4)
    digits4 = ascii4.view("<u4")[:, 0].astype(_U8)
    ascii3 = np.zeros((1000, 4), np.uint8)
    ascii3[:, :3] = ascii4[:1000, 1:]
    digits3 = ascii3.view("<u4")[:, 0].astype(_U8)
    trailing = np.argmax(ascii4[:, ::-1] != 48, axis=1)  # 0 for 0000, which is never read
    used4 = 4 - trailing
    used3 = 3 - trailing[:1000]

    # by exponent X = -_E.._E: %g is fixed for -4 <= X < 15, else d.ddde+XX
    x = np.arange(-_E, _E + 1)
    fixed = (x >= -4) & (x < 15)
    point = np.where(fixed, np.where(x >= 0, x + 1, 16), 1)  # digits before "."; 16: none
    keep = np.where(fixed & (x >= 0), x + 1, 0)  # digits kept even when zero
    pairs = list(zip(x.tolist(), fixed.tolist()))
    exponent = _words(b"" if f else b"\0e%+03d" % v for v, f in pairs)
    lead = [b"0." + b"0" * (-v - 1) if f and v < 0 else b"" for v, f in pairs]
    prefix = _words([*lead, *(b"-" + s for s in lead)])
    shift = _BYTE * np.array([len(s) for s in lead] + [len(s) + 1 for s in lead], _U8)

    # the decimal point at byte p of a 16-byte (lo, hi) digit string
    p = np.arange(17)
    below = (_low_bytes(p), _low_bytes(p - 8))
    above = (~_low_bytes(p + 1), ~_low_bytes(p - 7))
    dot = np.uint64(ord(".")) << (_BYTE * (p % 8).astype(_U8))
    dots = (np.where(p < 8, dot, 0).astype(_U8), np.where((p >= 8) & (p < 16), dot, 0).astype(_U8))

    tables = SimpleNamespace(
        hi=hi, lo=lo, hh=hh, hl=hi - hh,
        digits4=digits4, digits4_up=digits4 << np.uint64(32), digits3_up=digits3 << np.uint64(32),
        used4=used4, used3=used3,
        point=point, keep=keep, exponent=exponent, prefix=prefix, shift=shift,
        below=below, above=above, dots=dots,
    )
    for value in vars(tables).values():
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return tables


def _scaled(t, a, e):
    """(D, r): the integer D nearest to y = a * 10**(14 - e) and r = y - D,
    with |r| <= 1/2, from Dekker's exact product a * hi plus a * lo."""
    k = e + _E
    hi = t.hi[k]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    prod = a * hi
    hh, hl = t.hh[k], t.hl[k]
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl
    digits = np.rint(prod)
    r = (prod - digits) + (err + a * t.lo[k])
    step = np.rint(r)
    return digits + step, r - step


def _write_floats(t, x, sep: int, out) -> None:
    """Write the float array ``x`` into the (len(x), 3) uint64 array ``out``,
    each value followed by the byte ``sep``."""
    a = np.abs(x)
    ok = (a >= _LO) & (a <= _HI)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    digits, r = _scaled(t, a, e)
    # e may be one off next to a power of ten: redo the values not in [1e14, 1e15)
    low = (digits < 1e14) | ((digits == 1e14) & (r < 0))
    high = (digits > 1e15) | ((digits == 1e15) & (r >= 0))
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += high[redo].astype(np.intp) - low[redo]
        digits[redo], r[redo] = _scaled(t, a[redo], e[redo])
    carry = digits == 1e15  # y rounds up to 1e15: one more digit before the point
    digits[carry] = 1e14
    e += carry
    bad = ~ok | (np.abs(r) > 0.5 - TIE) | (digits < 1e14) | (digits >= 1e15)

    # 15 digits in 16 bytes: lo holds digits 0-7, hi digits 8-14 and a zero byte
    d = np.where(bad, 1e14, digits).astype(np.int64)
    c0, d = np.divmod(d, 10**11)
    c1, d = np.divmod(d, 10**7)
    c2, c3 = np.divmod(d, 1000)
    lo = t.digits4[c0] | t.digits4_up[c1]
    hi = t.digits4[c2] | t.digits3_up[c3]
    used = np.where(c3 > 0, 12 + t.used3[c3],
                    np.where(c2 > 0, 8 + t.used4[c2], np.where(c1 > 0, 4 + t.used4[c1], t.used4[c0])))

    ix = e + _E
    keep = np.maximum(used, t.keep[ix])
    lo &= t.below[0][keep]
    hi &= t.below[1][keep]
    # the decimal point after ``point`` digits, when a kept digit follows it
    point = t.point[ix]
    point = np.where(used > point, point, 16)
    lo, hi = (
        (lo & t.below[0][point]) | ((lo << _BYTE) & t.above[0][point]) | t.dots[0][point],
        (hi & t.below[1][point]) | (((hi << _BYTE) | (lo >> np.uint64(56))) & t.above[1][point])
        | t.dots[1][point],
    )

    # the sign and "0.000" shift the text right; the exponent takes bytes 17-21
    # and the separator byte 23, past the longest text they can follow
    j = ix + np.signbit(x) * (2 * _E + 1)
    shift = t.shift[j]
    back = np.uint64(64) - shift
    out[:, 0] = t.prefix[j] | (lo << shift)
    out[:, 1] = (hi << shift) | (lo >> back)
    out[:, 2] = (hi >> back) | t.exponent[ix] | (np.uint64(sep) << np.uint64(56))
    text = out.view(np.uint8)
    for i in np.flatnonzero(bad):
        cell = ("%.15g" % x[i]).encode().ljust(23, b"\0") + bytes((sep,))
        text[i] = np.frombuffer(cell, np.uint8)


def rows(columns) -> str:
    """The CSV rows of the equal-length ``columns`` (float or str arrays),
    floats as ``%.15g``, strings as they are; the strings are ASCII without
    zero bytes."""
    t = _tables()
    n = len(columns[0])
    widths = [3 if col.dtype.kind != "U" else col.dtype.itemsize // 4 // 8 + 1 for col in columns]
    offsets = np.cumsum([0, *widths])
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    out = []
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        words = np.zeros((stop - start, offsets[-1]), _U8)
        text = words.view(np.uint8)
        for col, at, width, sep in zip(columns, offsets, widths, seps):
            col = col[start:stop]
            if col.dtype.kind == "U":
                codes = col.view(np.uint32).reshape(len(col), -1)
                text[:, 8 * at:8 * at + codes.shape[1]] = codes
                text[:, 8 * (at + width) - 1] = sep
                continue
            _write_floats(t, col.astype(float, copy=False), sep, words[:, at:at + 3])
        out.append(words.tobytes().translate(None, b"\0"))
    return b"".join(out).decode("ascii")
