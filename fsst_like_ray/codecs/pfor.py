"""Patched frame-of-reference (PFOR) codec: block base + one narrow bit
width chosen so that MOST deltas fit, with the rare oversized deltas stored
as per-row exception patches (Zukowski et al., "Super-Scalar RAM-CPU Cache
Compression", ICDE 2006 — the classic lightweight-compression family the
reference's always-FSST choice sits alongside; reference codec surface:
sketch.cc:515-523).

Width selection is cost-based: a bit-length histogram of the deltas gives
the exception count at every candidate width, and train picks the width
minimizing ``tokens*w/8 + exceptions*8 + per-row overhead`` — at 0 outliers
this degenerates to FOR/bitpack, at heavy tails it trades 8 bytes per
outlier for a narrower common width.

Per-row payload (byte aligned, independently decodable given state + count):

    packed low bits : ceil(count*w/8) bytes  (delta & (2^w-1), width w)
    n_exc           : uint32 LE              (non-empty rows only)
    exceptions      : n_exc x (pos:uint32 LE, high:uint32 LE)

``high`` is ``delta >> w``; decode ORs it back above the low bits. All
arithmetic is uint32 wrap-around (delta = value - base mod 2^32), so the
round-trip is bit-exact for ANY state, even one trained on other data.
Empty rows take 0 bytes. State = 5 bytes (base:uint32 LE + width:uint8).
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .stats import split_price
from .bitutil import (
    gather_segments,
    pack_rows,
    packed_row_nbytes,
    scatter_segments,
    unpack_rows,
)

_EXC_BYTES = 8  # (pos u32, high u32) per exception
_NEXC_BYTES = 4  # per non-empty row


def _bit_lengths(d: np.ndarray) -> np.ndarray:
    """Per-element bit_length for uint32 (0 -> 0). float64 frexp is exact
    below 2^53, so the exponent IS the bit length."""
    return np.frexp(d.astype(np.float64))[1].astype(np.int64)


def _best_width(d: np.ndarray, counts: np.ndarray) -> int:
    """Width minimizing estimated encoded bytes for deltas ``d``."""
    return _hist_width(
        np.bincount(_bit_lengths(d), minlength=33), d.size, counts
    )


def _hist_width(hist: np.ndarray, n: int, counts: np.ndarray) -> int:
    """:func:`_best_width` from the deltas' 33-bin bit-length histogram."""
    if n == 0:
        return 0
    covered = np.cumsum(hist)  # covered[w] = #values with bit_length <= w
    n_exc = n - covered  # exceptions at width w
    widths = np.arange(33, dtype=np.int64)
    n_nonempty = int((counts > 0).sum())
    # token bits + exception patches + row overhead (n_exc field + ~0.5B pad)
    cost = n * widths + n_exc * (_EXC_BYTES * 8)
    cost = cost + n_nonempty * (_NEXC_BYTES * 8 + 4)
    return int(np.argmin(cost))


def _split(values: np.ndarray, offsets: np.ndarray, state: bytes):
    """(deltas u32, counts, width, mask, exception info) for ``state``."""
    base = int(np.frombuffer(state[:4], dtype="<u4")[0])
    width = state[4]
    u = _as_u32(values).astype(np.uint32, copy=False)
    d = (u - np.uint32(base)).astype(np.uint32)  # wrap-around exact
    counts = np.diff(offsets)
    mask = np.uint32((1 << width) - 1) if width < 32 else np.uint32(0xFFFFFFFF)
    return base, width, d, counts, mask


class PforCodec(Codec):
    name = "pfor"

    def train(self, values, offsets):
        u = _as_u32(values).astype(np.uint32, copy=False)
        counts = np.diff(offsets)
        base = int(u.min()) if u.size else 0
        d = (u - np.uint32(base)).astype(np.uint32)
        width = _best_width(d, counts)
        return np.uint32(base).astype("<u4").tobytes() + bytes([width])

    def encode(self, values, offsets, state):
        _base, width, d, counts, mask = _split(values, offsets, state)
        n_rows = len(counts)

        low_buf, low_po = pack_rows(d & mask, offsets, width)
        low_nb = np.diff(low_po)

        if width >= 32:
            exc_idx = np.zeros(0, dtype=np.int64)
        else:
            exc_idx = np.flatnonzero(d > mask)
        n_exc = np.bincount(
            np.searchsorted(offsets, exc_idx, side="right") - 1,
            minlength=n_rows,
        ).astype(np.int64)

        nz = counts > 0
        nbytes = np.where(
            nz, low_nb + _NEXC_BYTES + _EXC_BYTES * n_exc, 0
        ).astype(np.int64)
        po = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(nbytes, out=po[1:])
        buf = np.zeros(int(po[-1]), dtype=np.uint8)

        scatter_segments(buf, po[:-1], low_nb, low_buf)
        if nz.any():
            pos4 = (po[:-1] + low_nb)[nz, None] + np.arange(4, dtype=np.int64)
            buf[pos4] = (
                n_exc[nz].astype("<u4").view(np.uint8).reshape(-1, 4)
            )
        if exc_idx.size:
            pairs = np.empty((exc_idx.size, 2), dtype="<u4")
            # exc_idx ascends, so pairs are already grouped by row in order
            pairs[:, 0] = (
                exc_idx - np.repeat(offsets[:-1], n_exc)
            ).astype(np.uint32)
            pairs[:, 1] = d[exc_idx] >> np.uint32(width)
            scatter_segments(
                buf,
                po[:-1] + low_nb + _NEXC_BYTES,
                _EXC_BYTES * n_exc,
                pairs.view(np.uint8).ravel(),
            )
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        base = np.uint32(np.frombuffer(state[:4], dtype="<u4")[0])
        width = state[4]
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        d = unpack_rows(buf, payload_offsets, counts, width)
        low_nb = packed_row_nbytes(counts, width)

        nz = counts > 0
        n_exc = np.zeros(len(counts), dtype=np.int64)
        if nz.any():
            pos4 = (payload_offsets[:-1] + low_nb)[nz, None] + np.arange(
                4, dtype=np.int64
            )
            n_exc[nz] = (
                np.ascontiguousarray(buf[pos4]).view("<u4").ravel()
            ).astype(np.int64)
        total_exc = int(n_exc.sum())
        if total_exc:
            raw = gather_segments(
                buf,
                payload_offsets[:-1] + low_nb + _NEXC_BYTES,
                _EXC_BYTES * n_exc,
            )
            pairs = raw.view("<u4").reshape(-1, 2)
            gpos = np.repeat(offsets[:-1], n_exc) + pairs[:, 0].astype(
                np.int64
            )
            d[gpos] |= np.left_shift(
                pairs[:, 1].astype(np.uint64), np.uint64(width)
            ).astype(np.uint32)
        return (d + base).astype(np.uint32).view(np.int32)

    def price(self, st, full_tokens=None, full_rows=None):
        """Bytes at the width train would pick, from the statistics'
        bit-length histogram of ``u - umin``: a per-token part (bits +
        exception patches) and a per-row part (padding + n_exc fields),
        each extrapolated by its own ratio."""
        counts = st.counts
        width = _hist_width(st.width_hist, st.n, counts)
        exc = st.n - int(st.width_hist[: width + 1].sum())
        low = packed_row_nbytes(counts, width)
        tok = st.n * width // 8 + exc * _EXC_BYTES
        row = int(low.sum()) - st.n * width // 8
        row += _NEXC_BYTES * int((counts > 0).sum())
        return split_price(tok, row, st, full_tokens, full_rows) + 5

    def size(self, st):
        return self.price(st)
