"""Delta codec: per-row first value + zigzag-encoded successive differences
bit-packed at one block-level width.

Completes the classic lightweight-compression family (the north rule's
dict/RLE/FOR/bitpack set; the reference implements only FSST + plain,
sketch.cc:526-555): delta wins on sorted or smooth integer sequences
(timestamps, monotone ids) where FOR's single per-row reference still leaves
wide residuals.

Per-row payload (non-empty rows): ``first:int32le`` (4 bytes) + the row's
remaining ``c-1`` values as zigzag(v[i] - v[i-1]) packed at the block width.
Empty rows take 0 bytes. State = 1 byte (delta bit width).

All arithmetic is mod 2^32 (uint32 wraparound), so decode is an exact inverse
for ANY int32 input even when a true difference exceeds 31 bits: the wrapped
delta viewed as int32 zigzags to at most 32 bits and wrap-add reconstructs the
original value exactly.
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .bitutil import bit_width_for, pack_rows, unpack_rows, packed_row_nbytes


def _delta_stream(values: np.ndarray, offsets: np.ndarray):
    """(zigzag deltas: uint32, delta offsets: int64, counts, nz mask).

    The delta stream holds, for every row with c>0 values, that row's c-1
    successive wrapped differences — row starts are excluded, so a position's
    predecessor is always in the same row.
    """
    counts = np.diff(offsets)
    vu = _as_u32(values)
    n = vu.size
    nz = counts > 0
    mask = np.ones(n, dtype=bool)
    starts_nz = offsets[:-1][nz]
    mask[starts_nz] = False
    idx = np.flatnonzero(mask)
    d = vu[idx] - vu[idx - 1]  # uint32 wraparound
    s = d.view(np.int32)
    zz = (d << np.uint32(1)) ^ (s >> 31).view(np.uint32)
    dcounts = np.maximum(counts - 1, 0)
    doff = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(dcounts, out=doff[1:])
    return zz, doff, counts, nz


def unzigzag32(zz: np.ndarray) -> np.ndarray:
    """Inverse zigzag → wrapped uint32 differences."""
    return (zz >> np.uint32(1)) ^ (np.uint32(0) - (zz & np.uint32(1)))


def scatter_with_firsts(
    firsts_u32: np.ndarray,
    inner_buf: np.ndarray,
    inner_po: np.ndarray,
    nz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble per-row payloads ``[first:4B][inner row bytes]`` (empty rows
    take 0 bytes) — the one layout delta-family codecs share."""
    inner_nbytes = np.diff(inner_po)
    n_rows = len(inner_nbytes)
    nbytes = np.where(nz, inner_nbytes + 4, 0).astype(np.int64)
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(nbytes, out=out_offsets[1:])
    buf = np.zeros(int(out_offsets[-1]), dtype=np.uint8)
    if firsts_u32.size:
        ref_pos = (
            out_offsets[:-1][nz, None] + np.arange(4, dtype=np.int64)[None, :]
        )
        buf[ref_pos.ravel()] = (
            firsts_u32.view(np.uint8).reshape(-1, 4).ravel()
        )
    total = int(inner_nbytes.sum())
    if total:
        row_of_byte = np.repeat(np.arange(n_rows), inner_nbytes)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            inner_po[:-1], inner_nbytes
        )
        dst = out_offsets[:-1][row_of_byte] + 4 + within
        buf[dst] = inner_buf
    return buf, out_offsets


def gather_after_firsts(
    buf: np.ndarray, payload_offsets: np.ndarray, nz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact inverse of :func:`scatter_with_firsts`: → (firsts as uint32,
    contiguous inner bytes, inner per-row offsets)."""
    n_rows = len(payload_offsets) - 1
    firsts = np.zeros(int(nz.sum()), dtype=np.uint32)
    if firsts.size:
        ref_pos = (
            payload_offsets[:-1][nz, None]
            + np.arange(4, dtype=np.int64)[None, :]
        )
        firsts = (
            np.ascontiguousarray(buf[ref_pos.ravel()]).view(np.uint32).copy()
        )
    inner_nbytes = np.where(
        nz, np.diff(payload_offsets) - 4, 0
    ).astype(np.int64)
    inner_po = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(inner_nbytes, out=inner_po[1:])
    total = int(inner_po[-1])
    inner = np.zeros(total, dtype=np.uint8)
    if total:
        row_of_byte = np.repeat(np.arange(n_rows), inner_nbytes)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            inner_po[:-1], inner_nbytes
        )
        src = payload_offsets[:-1][row_of_byte] + 4 + within
        inner = np.ascontiguousarray(buf[src])
    return firsts, inner, inner_po


def cumsum_rows(
    firsts_u32: np.ndarray,
    deltas_u32: np.ndarray,
    counts: np.ndarray,
    nz: np.ndarray,
) -> np.ndarray:
    """Reconstruct int32 values from per-row firsts + wrapped differences
    via ONE global cumsum: place firsts at row starts and deltas elsewhere,
    cumulative-sum in uint64, subtract each row's pre-start sum; the uint32
    cast applies the mod-2^32 wrap — exact for any int32 input."""
    n_rows = len(counts)
    n = int(counts.sum())
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    starts_nz = offsets[:-1][nz]
    full = np.empty(n, dtype=np.uint64)
    mask = np.ones(n, dtype=bool)
    mask[starts_nz] = False
    full[starts_nz] = firsts_u32
    full[mask] = deltas_u32
    g = np.cumsum(full)
    base = g[starts_nz] - firsts_u32
    vals = (g - np.repeat(base, counts[nz])).astype(np.uint32)
    return vals.view(np.int32)


class DeltaCodec(Codec):
    name = "delta"

    def train(self, values, offsets):
        zz, _, _, _ = _delta_stream(values, offsets)
        return bytes([bit_width_for(zz)])

    def encode(self, values, offsets, state):
        width = state[0]
        zz, doff, counts, nz = _delta_stream(values, offsets)
        # guard against a reused (sample-trained) state narrower than this
        # block's deltas — packing would silently truncate high bits (same
        # contract as rlebp). Unreachable today (estimate() returns no
        # reusable state, so encode always trains on the full block) but a
        # future state reuse must fail loudly, not corrupt.
        if width < 32 and zz.size and int(zz.max()) >> width:
            raise ValueError("delta codec: block exceeds trained width")
        packed, po = pack_rows(zz, doff, width)
        firsts = _as_u32(values)[offsets[:-1][nz]]
        return scatter_with_firsts(firsts, packed, po, nz)

    def decode(self, buf, payload_offsets, counts, state):
        width = state[0]
        counts = np.asarray(counts, dtype=np.int64)
        nz = counts > 0
        firsts, packed, po = gather_after_firsts(buf, payload_offsets, nz)
        dcounts = np.maximum(counts - 1, 0)
        zz = unpack_rows(packed, po, dcounts, width)
        return cumsum_rows(firsts, unzigzag32(zz), counts, nz)

    def size(self, st):
        width = st.zz_max.bit_length()
        dcounts = np.maximum(st.counts - 1, 0)
        return int(
            (
                packed_row_nbytes(dcounts, width)
                + np.where(st.counts > 0, 4, 0)
            ).sum()
        ) + 1
