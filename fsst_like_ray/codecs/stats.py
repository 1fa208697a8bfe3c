"""Codec-selection statistics: one pass over a selection sample yields
every number an integer codec's size formula reads, so the selector
prices all of them without walking the sample once per codec — the
statistics-first selection of BtrBlocks (Kuschewski et al., SIGMOD 2023).

:func:`stream_stats` runs the C kernel (``native.stream_stats``) when it is
built; :func:`_numpy_stats`, made of the codecs' own helpers, is the
fallback and the reference the kernel is tested against (identical
fields, tests/test_native.py).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class StreamStats(NamedTuple):
    n: int  # values
    rows: int
    counts: np.ndarray  # int64 values per row
    smin: int  # signed min/max (0 when empty): also the min/max run value
    smax: int
    umin: int  # min/max of the uint32 bit patterns
    umax: int
    or_all: int  # OR of the uint32 bit patterns (bitpack width)
    varint_bytes: int  # Stream-VByte data bytes of the values
    runs: int  # runs, broken at every row start (rle / rlebp)
    max_run: int
    runs_per_row: np.ndarray  # int64
    span_max: int  # largest row max - row min (for)
    zz_max: int  # largest within-row zigzag first difference (delta)
    zz_varint_bytes: int  # their Stream-VByte data bytes (dvint)
    zz2_max: int  # largest within-row zigzag second difference (delta2)
    width_hist: np.ndarray  # int64[33]: values by bit_length(u - umin) (pfor)
    distinct: tuple[int, int, int]  # distinct values in v[:n//4], v[:n//2], v


def stream_stats(values: np.ndarray, offsets: np.ndarray) -> StreamStats:
    """Statistics of the rows ``values[offsets[i]:offsets[i + 1]]``."""
    from .. import native

    v = np.ascontiguousarray(values, dtype=np.int32)
    off = np.asarray(offsets, dtype=np.int64)
    if off[0] or off[-1] != v.size:
        v, off = v[off[0] : off[-1]], off - off[0]
    if native.lib is None:
        return _numpy_stats(v, off)
    scal, rpr, hist = native.stream_stats(v, off)
    return _make(v, off, [int(x) for x in scal], rpr, hist)


def _make(v, off, scal, rpr, hist) -> StreamStats:
    """StreamStats from the kernel's slot order; ``scal[12:15]`` are the
    distinct counts of v[:n//4], v[:n//2] and v (0 for an empty prefix),
    and a quarter or half that is empty takes the next larger prefix's
    count, as dict's Heaps fit reads them."""
    n = int(v.size)
    u_q, u_h, u_s = scal[12:15]
    u_h = u_h if n // 2 else u_s
    u_q = u_q if n // 4 else u_h
    return StreamStats(
        n, len(off) - 1, np.diff(off), *scal[:8], rpr, *scal[8:12], hist,
        (u_q, u_h, u_s),
    )


def _numpy_stats(v: np.ndarray, off: np.ndarray) -> StreamStats:
    """The reference and the fallback: each field is computed with the
    encode-side helpers of the codec that reads it."""
    from . import _as_u32
    from .delta import _delta_stream, unzigzag32
    from .forpack import _deltas
    from .pfor import _bit_lengths
    from .rle import _runs
    from .varint import _lengths

    n = int(v.size)
    rv, rl, rpr = _runs(v, off)
    if n == 0:
        return _make(v, off, [0] * 15, rpr, np.zeros(33, np.int64))
    u = _as_u32(v)
    _refs, for_deltas, _ = _deltas(v, off)
    zz, doff, _, _ = _delta_stream(v, off)
    zz2, _, _, _ = _delta_stream(unzigzag32(zz).view(np.int32), doff)
    umin = int(u.min())
    _uniq, first = np.unique(v, return_index=True)
    scal = [
        int(v.min()), int(v.max()), umin, int(u.max()),
        int(np.bitwise_or.reduce(u)), int(_lengths(u).sum(dtype=np.int64)),
        len(rv), int(rl.max()), int(for_deltas.max()),
        int(zz.max()) if zz.size else 0,
        int(_lengths(zz).sum(dtype=np.int64)),
        int(zz2.max()) if zz2.size else 0,
    ] + [int((first < k).sum()) for k in (n // 4, n // 2, n)]
    hist = np.bincount(
        _bit_lengths(u - np.uint32(umin)), minlength=33
    ).astype(np.int64)
    return _make(v, off, scal, rpr.astype(np.int64), hist)


def split_price(tok: int, row: int, st: StreamStats,
                full_tokens: int | None, full_rows: int | None) -> int:
    """Full-block price of a size made of a per-token part and a per-row
    part, each scaled by its own ratio (pfor, varint, dvint)."""
    if full_tokens is not None and st.n and full_tokens != st.n:
        tok = int(tok * (full_tokens / st.n))
    if full_rows is not None and st.rows and full_rows != st.rows:
        row = int(row * (full_rows / st.rows))
    return tok + row
