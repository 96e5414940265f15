"""CSV tables from numpy columns, with the bytes of ``'%.17g' % x`` per cell.

A block of at most SMALL_CELLS cells is one ``%`` (0.4-0.9 us a float cell); a
larger one is built by numpy (about 0.1 us a cell on a 12 288-cell g_f.csv
block; 170-500 us a block plus 0.05-0.3 us a cell where the cells spread over
many exponents; the measured crossover is 400-900 float cells), with the same
bytes, in a few whole-array passes per step: the 17 significant
digits D = round(|x| 10^(16 - X)) of a double with 1e-280 <= |x| <= 1e280 come
from a double-double p + q: p = fl(|x| P_hi), q the exact error of that product
(Dekker, Numer. Math. 18 (1971) 224-242) plus |x| P_lo, where P_hi + P_lo =
10^(16 - X) exactly to about 2**-106. q is within about 1e-14 of its true
value, so D is certified where q's fraction is more than 1e-6 from 1/2. Ints
within 2**53 and +-0 have exact digits; nan, +-inf, extreme exponents and
(near-)ties go through ``%``.

Every artifact file, CSV or JSON, is written by :func:`write_bytes`: in
place over whatever the path held (opened without ``O_TRUNC`` and cut to
the length written, which on a filesystem that discards freed blocks costs
a fraction of truncating on open), and hashed as it is written, so its
sha256 needs no second read.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
from fractions import Fraction
from typing import Iterable

import numpy as np

BLOCK_ROWS = 4096
SMALL_CELLS = 512  # a block of at most this many cells is written by % itself
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_FALLBACK, _BLANK = -1, -2  # keys of the cells written by % and of those left empty
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# 10^(digits after the point) at X + 400: a fraction is written where a
# significant digit follows the integer part (fixed notation, -4 <= X < 17)
# or the first digit (exponential notation)
_DOT_POW = np.array([10 ** min(16 - e, 17) if -4 <= e < 17 else 10**16 for e in range(-400, 401)])


@functools.lru_cache(maxsize=256)
def _powers(k0: int, k1: int) -> tuple[np.ndarray, ...]:
    """hi, lo and hi's two halves, an array each: hi + lo = 10^k to 2**-106,
    k = k0..k1."""
    exact = [Fraction(10) ** k for k in range(k0, k1 + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - Fraction(h)) for v, h in zip(exact, hi.tolist())])
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    tables = hi, lo, hh, hi - hh
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


@functools.cache
def _chunk_ascii() -> np.ndarray:
    """The ASCII of 0000..9999 as 4-byte words, then with trailing zeros NUL."""
    n = np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    n = (n % 10).astype(np.uint8)
    kept = np.cumsum(n[:, ::-1], axis=1, dtype=np.int8)[:, ::-1] > 0
    table = np.concatenate([n + 48, (n + 48) * kept]).view(np.uint32).ravel()
    table.flags.writeable = False  # shared by every caller
    return table


@functools.cache
def _layout(key: int) -> tuple[np.ndarray, tuple]:
    """A key's text: bytes with NUL digit slots, and the runs (dst, src, n)
    that copy digit columns into them."""
    neg, dot, e = key & 1, key >> 1 & 1, (key >> 2) - 400
    fixed = 0 <= e < 17
    point = e + 1 if fixed else 1  # digits before the point
    parts = [(0, point)] + ([".", (point, 17)] if dot else []) + ([] if fixed else ["e%+03d" % e])
    if -4 <= e < 0:  # fixed notation with zeros after the point
        parts = ["0." + "0" * (-e - 1), (0, 17)]
    text, runs = "-" * neg, []
    for part in parts:
        if isinstance(part, tuple):
            runs.append((len(text), 3 + part[0], part[1] - part[0]))
            part = "\0" * (part[1] - part[0])
        text += part
    return np.frombuffer(text.encode(), np.uint8), tuple(runs)


def _keys(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's layout key ((X + 400) * 2 + dot) * 2 + sign, dot set where a
    fraction is written, and its D (|x| 10^(16 - X) for an int, 0 for +-0)."""
    a = np.abs(x)
    if x.dtype.kind == "i":
        e = np.maximum(np.searchsorted(_POW10, a, side="right") - 1, 0)
        return (e + 400) * 4 + (x < 0), a * np.take(_POW10, 16 - e)
    out = np.flatnonzero(~((a >= 1e-280) & (a <= 1e280)))  # few cells, if any
    zero, out = out[a[out] == 0], out[a[out] != 0]
    a[zero] = a[out] = 1.0
    # in place where a temporary can be reused: each pass costs about as
    # much as its allocation
    c = a * _SPLIT
    ah = c - a
    np.subtract(c, ah, out=ah)  # c - (c - a)
    al = a - ah
    e = np.floor(np.log10(a, out=c), out=c).astype(np.int64)
    p, q, t = np.empty_like(a), np.empty_like(a), c
    for first in (True, False):  # log10 can put X one off next to a power of ten
        k0, k1 = 16 - int(e.max()), 16 - int(e.min())
        k = np.subtract(16 - k0, e)  # 16 - e - k0
        hi, lo, hh, hl = (np.take(v, k) for v in _powers(k0, k1))
        np.multiply(a, hi, out=p)
        np.multiply(ah, hh, out=q)  # ((ah hh - p) + ah hl + al hh) + al hl + a lo
        q -= p
        q += np.multiply(ah, hl, out=t)
        q += np.multiply(al, hh, out=t)
        q += np.multiply(al, hl, out=t)
        q += np.multiply(a, lo, out=t)
        # p + q can be outside [1e16, 1e17) only where its rounded sum is on
        # or past a bound; there p - 1e16 and p - 1e17 are exact wherever
        # the answer is in doubt
        s = np.add(p, q, out=t)
        near = np.flatnonzero((s <= 1e16) | (s >= 1e17))
        pn, qn = p[near], q[near]
        step = ((pn - 1e17) + qn >= 0).astype(np.int64) - ((pn - 1e16) + qn < 0)
        if not (first and step.any()):
            break
        e[near] += step
    floor_q = np.floor(q, out=t)
    frac = np.subtract(q, floor_q, out=q)
    d = p.astype(np.int64)
    d += floor_q.astype(np.int64)
    d += frac > 0.5
    frac -= 0.5
    uncertified = np.abs(frac, out=frac) <= 1e-6  # too near a tie
    dn = d[near]  # only these can round to 10^17 or stay out of range
    top = dn == 10**17
    uncertified[near] |= (dn < 10**16) | (dn > 10**17)
    e[near] += top
    d[near[top]] = 10**16
    d[zero] = 0  # +-0 is the int 0, signed
    e += 400
    dot = d % np.take(_DOT_POW, e) != 0
    key = e  # ((X + 400) * 2 + dot) * 2 + sign, in place
    key *= 2
    key += dot
    key *= 2
    key += np.signbit(x)
    np.copyto(key, _FALLBACK, where=uncertified)
    key[out] = _FALLBACK
    return key, d


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """np.concatenate, without the copy of a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _copy(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src for byte rows, each row copied as one void item."""
    item = np.dtype((np.void, dst.shape[-1]))
    np.copyto(dst.view(item), src.view(item))


def _block(columns: list[tuple[str, np.ndarray]], blank_nan: list[bool]) -> bytes:
    """The CSV rows of one block of (kind, cells) columns: by one ``%`` of a row
    template up to SMALL_CELLS cells, else a column kind at a time."""
    rows, width = len(columns[0][1]), len(columns)
    if rows * width <= SMALL_CELLS:
        specs, cells = [], []
        for (kind, col), blank in zip(columns, blank_nan):
            col = col.tolist()
            if kind == "float" and blank and any(v != v for v in col):  # NaN cells left empty
                col, kind = [b"%.17g" % v if v == v else b"" for v in col], "text"
            specs.append(b"%s" if kind == "text" else b"%.17g")
            cells.append(col)
        text = (b",".join(specs) + b"\n") * rows % tuple(itertools.chain.from_iterable(zip(*cells)))
        return text.translate(None, b"\0")  # as below, where NUL marks an unused byte
    texts = {j: col for j, (kind, col) in enumerate(columns) if kind == "text"}
    w, keys, ds, dests = max([t.itemsize for t in texts.values()], default=0), [], [], []
    for kind in ("float", "int"):  # one pass over the cells of each kind
        js = [j for j, c in enumerate(columns) if c[0] == kind]
        if js:
            x = _joined([columns[j][1] for j in js])
            if kind == "float":
                floats = x
            if kind == "float" and any(blank_nan[j] and np.isnan(columns[j][1]).any() for j in js):
                # blank cells need no layout
                blank = _joined([np.isnan(columns[j][1]) & blank_nan[j] for j in js])
                key, d = np.full(len(x), _BLANK), np.zeros(len(x), np.int64)
                if not blank.all():
                    key[~blank], d[~blank] = _keys(x[~blank])
            else:
                key, d = _keys(x)
            keys.append(key.astype(np.int16, copy=False))
            ds.append(d)
            dests.append((np.arange(rows) * width + np.array(js)[:, None]).ravel())
    if keys:
        order = np.argsort(_joined(keys), kind="stable")  # a radix sort, on int16
        key = np.take(_joined(keys), order)
        s0 = int(np.searchsorted(key, 0))  # the cells with a layout follow these
        # D in 4-digit chunks, written as ASCII words; where a fraction is
        # written, the trailing zeros become NUL (integer // by a scalar is
        # numpy's fast division, % and divmod are not)
        d = np.take(_joined(ds), order[s0:])
        hi = d // 10**8
        lo = (d - hi * 10**8).astype(np.int32)
        hi = hi.astype(np.int32)
        c0 = hi // 10**8
        mid = hi - c0 * 10**8
        c1, c3 = mid // 10**4, lo // 10**4
        chunks = c0, c1, mid - c1 * 10**4, c3, lo - c3 * 10**4
        words, strip = np.empty((len(d), 5), np.uint32), (key[s0:] >> 1 & 1) * np.int32(10**4)
        for j in range(4, -1, -1):
            words[:, j] = np.take(_chunk_ascii(), chunks[j] + strip)
            if j:  # a chunk to its left follows
                strip *= chunks[j] == 0
        digits = words.view(np.uint8)  # digit i of D at column 3 + i
        starts = [0] + (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        groups = []
        for g0, g1 in zip(starts, starts[1:] + [len(key)]):
            if key[g0] == _FALLBACK:  # only float cells
                text = np.array([b"%.17g" % v for v in floats[order[g0:g1]].tolist()])
                groups.append((g0, g1, text.view(np.uint8).reshape(g1 - g0, -1), ()))
            elif key[g0] != _BLANK:
                groups.append((g0, g1, *_layout(int(key[g0]))))
        w = max([w] + [text.shape[-1] for _, _, text, _ in groups])
        cells = np.zeros((len(key), w + 1), np.uint8)
        for g0, g1, text, runs in groups:
            _copy(cells[g0:g1, : text.shape[-1]], text)
            for dst, src, n in runs:
                _copy(cells[g0:g1, dst : dst + n], digits[g0 - s0 : g1 - s0, src : src + n])
    # each cell and its separator; every number cell is written below
    table = (np.zeros if texts else np.empty)((rows, width, w + 1), np.uint8)
    if keys:
        row, dest = np.dtype((np.void, w + 1)), np.take(_joined(dests), order)
        np.put(table.reshape(-1, w + 1).view(row).ravel(), dest, cells.view(row).ravel())
    for j, text in texts.items():
        table[:, j, : text.itemsize] = text.view(np.uint8).reshape(rows, -1)
    table[:, :, w] = 44
    table[:, -1, w] = 10
    return table.tobytes().translate(None, b"\0")


def _column(col) -> tuple[str, np.ndarray]:
    """A column's kind and cells: an 'S' array or str cells are text, ints
    within 2**53 are ints, and every other number is a float."""
    a = np.asarray(col)  # ints past int64 make an object array, written as floats
    if a.dtype.kind == "S":
        return "text", np.ascontiguousarray(a)
    if len(col) and isinstance(col[0], str):
        return "text", np.array([s.encode() for s in col], dtype=bytes)
    if a.dtype.kind in "iu" and (not a.size or -(2**53) <= a.min() and a.max() <= 2**53):
        return "int", a.astype(np.int64, copy=False)
    return "float", a.astype(float, copy=False)


def format_cells(x) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each number v of x, as an 'S' array:
    the cells of a column that is written more than once."""
    kind, col = _column(x)
    text = b"".join(_block([(kind, col[r0 : r0 + BLOCK_ROWS])], [False])
                    for r0 in range(0, len(col), BLOCK_ROWS))
    return np.array(text.split(), dtype=bytes)


def write_bytes(path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to path and return the sha256 hex digest of them.

    An existing file is overwritten from its first byte and then cut to the
    length written; a new one gets the mode ``open(path, "wb")`` gives.
    Nothing is synced to disk, so a crash mid-write leaves a torn file,
    which its digest in the manifest exposes.
    """
    digest = hashlib.sha256()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
            del chunk  # freed before the next chunk is made
        fh.truncate()  # drops the tail of a longer previous file
    return digest.hexdigest()


def write_csv(path, header: list[str], columns: list, blank_nan: tuple[str, ...] = ()) -> str:
    """One sequence or array per column, all of one kind: text cells (str,
    or an 'S' array such as :func:`format_cells` returns) are written as
    they are, numbers (floats, ints, bools) with the bytes of ``'%.17g' %
    x``. NaN is ``nan``, or an empty cell in the columns named in
    ``blank_nan``. Rows go through :func:`write_bytes` a block at a time;
    returns the file's sha256 hex digest."""
    kinds = [_column(col) for col in columns]
    blank = [name in blank_nan for name in header]
    blocks = (
        _block([(kind, col[r0 : r0 + BLOCK_ROWS]) for kind, col in kinds], blank)
        for r0 in range(0, len(kinds[0][1]) if kinds else 0, BLOCK_ROWS)
    )
    return write_bytes(path, itertools.chain([(",".join(header) + "\n").encode()], blocks))
