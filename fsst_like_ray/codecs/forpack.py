"""Frame-of-reference codec: per-row int32 reference (the row min) + deltas
bit-packed at one block-level width.

Per-row payload: ``ref:int32le`` (4 bytes) + packed (value-ref) deltas (byte
aligned). Empty rows take 0 bytes. State = 1 byte (delta width).
"""

from __future__ import annotations

import numpy as np

from . import Codec
from .bitutil import (
    bit_width_for,
    gather_segments,
    pack_rows,
    packed_row_nbytes,
    scatter_segments,
    unpack_rows,
)


def _row_reduce(values: np.ndarray, offsets: np.ndarray, ufunc) -> np.ndarray:
    """Per-row reduction tolerant of empty rows (returns 0 there)."""
    counts = np.diff(offsets)
    out = np.zeros(len(counts), dtype=np.int64)
    nz = counts > 0
    if nz.any():
        starts = offsets[:-1][nz]
        out[nz] = ufunc.reduceat(values.astype(np.int64), starts)
    return out


def _deltas(values: np.ndarray, offsets: np.ndarray):
    counts = np.diff(offsets)
    refs = _row_reduce(values, offsets, np.minimum)
    deltas = values.astype(np.int64) - np.repeat(refs, counts)
    return refs, deltas.astype(np.uint32), counts


class ForCodec(Codec):
    name = "for"

    def train(self, values, offsets):
        _, deltas, _ = _deltas(values, offsets)
        return bytes([bit_width_for(deltas)])

    def encode(self, values, offsets, state):
        width = state[0]
        refs, deltas, counts = _deltas(values, offsets)
        packed, po = pack_rows(deltas, offsets, width)

        nbytes = np.where(counts > 0, np.diff(po) + 4, 0).astype(np.int64)
        out_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(nbytes, out=out_offsets[1:])
        buf = np.zeros(int(out_offsets[-1]), dtype=np.uint8)

        nz = counts > 0
        # scatter 4-byte refs at the start of each non-empty row's payload
        ref_pos = out_offsets[:-1][nz, None] + np.arange(4, dtype=np.int64)[None, :]
        buf[ref_pos.ravel()] = (
            refs[nz].astype(np.int32).view(np.uint8).reshape(-1, 4).ravel()
        )
        # scatter packed delta bytes after the refs (shared kernel)
        scatter_segments(buf, out_offsets[:-1] + 4, np.diff(po), packed)
        return buf, out_offsets

    def decode(self, buf, payload_offsets, counts, state):
        width = state[0]
        n_rows = len(counts)
        nz = counts > 0
        refs = np.zeros(n_rows, dtype=np.int64)
        if nz.any():
            ref_pos = (
                payload_offsets[:-1][nz, None] + np.arange(4, dtype=np.int64)[None, :]
            )
            refs[nz] = (
                np.ascontiguousarray(buf[ref_pos.ravel()]).view(np.int32).astype(np.int64)
            )
        # extract the packed-delta region (strip the 4-byte refs)
        pack_nbytes = np.where(nz, np.diff(payload_offsets) - 4, 0).astype(np.int64)
        po = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(pack_nbytes, out=po[1:])
        packed = gather_segments(buf, payload_offsets[:-1] + 4, pack_nbytes)
        deltas = unpack_rows(packed, po, counts, width).astype(np.int64)
        values = np.repeat(refs, counts) + deltas
        return values.astype(np.int32)

    def size(self, st):
        width = st.span_max.bit_length()
        return int(
            (
                packed_row_nbytes(st.counts, width)
                + np.where(st.counts > 0, 4, 0)
            ).sum()
        ) + 1
