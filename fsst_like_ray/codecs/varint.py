"""Byte-oriented variable-length integer codec (Stream-VByte layout:
Lemire & Kurz, "Stream VByte: faster byte-oriented integer compression",
IPL 2018 — control bytes separated from data bytes so both streams decode
with gather/scatter kernels instead of per-byte branching; the classic
alternative to bit-packing in the lightweight-compression family the
reference's codec surface spans, sketch.cc:515-523).

Each uint32 value takes 1-4 data bytes (little-endian low bytes) plus a
2-bit length code; four codes pack into one control byte.

Per-row payload (byte aligned, independently decodable given the count):

    control : ceil(count/4) bytes   (2 bits per value, little-endian slots)
    data    : sum(len_i) bytes      (value i's low len_i bytes, in order)

Empty rows take 0 bytes. Stateless (state = b""); values are the uint32
bit patterns of the int32 tokens, so negatives cost 4 bytes + control —
never more than 1.07x plain. Encode and decode run the C kernels in
:mod:`..native` when they are built: encode lays each row out (its control
and data byte counts) in a C counting pass before the fill; decode uses
Stream VByte's SSSE3 ``pshufb`` step (4 values per control byte) while
>= 16 values are left in a row, and a scalar loop for the rest. The NumPy path below, whole-block
vectorized (length codes, control-byte pack, data-byte mask), is the
reference and the fallback; all paths are bit-identical
(tests/test_native.py).
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .stats import split_price
from .bitutil import gather_segments, scatter_segments

_THRESH = np.array([1 << 8, 1 << 16, 1 << 24], dtype=np.uint32)


def _lengths(u: np.ndarray) -> np.ndarray:
    """Per-value data-byte count (1..4) as uint8."""
    n = np.ones(u.size, dtype=np.uint8)
    for t in _THRESH:
        n += (u >= t).astype(np.uint8)
    return n


def _row_layout(counts: np.ndarray, lens: np.ndarray, offsets: np.ndarray):
    """(ctrl bytes per row, data bytes per row)."""
    ctrl_nb = (counts + 3) // 4
    cl = np.zeros(int(lens.size) + 1, dtype=np.int64)
    np.cumsum(lens, out=cl[1:])
    data_nb = cl[offsets[1:]] - cl[offsets[:-1]]
    return ctrl_nb.astype(np.int64), data_nb


class VarintCodec(Codec):
    name = "varint"

    def train(self, values, offsets):
        return b""

    def encode(self, values, offsets, state):
        u = _as_u32(values).astype(np.uint32, copy=False)

        from .. import native

        if native.lib is not None:
            return native.varint_encode(u, offsets)

        counts = np.diff(offsets)
        n_rows = len(counts)
        lens = _lengths(u)
        ctrl_nb, data_nb = _row_layout(counts, lens, offsets)
        po = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(ctrl_nb + data_nb, out=po[1:])
        buf = np.zeros(int(po[-1]), dtype=np.uint8)

        if u.size:
            pos_in_row = np.arange(u.size, dtype=np.int64) - np.repeat(
                offsets[:-1], counts
            )
            ctrl_base = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(ctrl_nb, out=ctrl_base[1:])
            total_ctrl = int(ctrl_base[-1])
            # one 2-bit slot per value; slots of a control byte never collide,
            # so a plain scatter into a padded (total_ctrl, 4) grid + shift
            # merge is exact — no ufunc.at accumulation needed
            slots = np.zeros(total_ctrl * 4, dtype=np.uint8)
            slot_idx = (
                np.repeat(ctrl_base[:-1], counts) + (pos_in_row >> 2)
            ) * 4 + (pos_in_row & 3)
            slots[slot_idx] = lens - 1
            g = slots.reshape(-1, 4)
            ctrl_stream = g[:, 0] | (g[:, 1] << 2) | (g[:, 2] << 4) | (
                g[:, 3] << 6
            )

            bytes4 = u.astype("<u4").view(np.uint8).reshape(-1, 4)
            keep = np.arange(4, dtype=np.uint8)[None, :] < lens[:, None]
            data_stream = bytes4[keep]

            scatter_segments(buf, po[:-1], ctrl_nb, ctrl_stream)
            scatter_segments(buf, po[:-1] + ctrl_nb, data_nb, data_stream)
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        counts = np.asarray(counts, dtype=np.int64)
        n_tot = int(counts.sum())
        if n_tot == 0:
            return np.zeros(0, dtype=np.int32)
        n_rows = len(counts)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        ctrl_nb = (counts + 3) // 4

        from .. import native

        if native.lib is not None:
            return native.varint_decode(
                buf, payload_offsets, offsets, n_tot
            ).view(np.int32)

        ctrl_stream = gather_segments(buf, payload_offsets[:-1], ctrl_nb)
        ctrl_base = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(ctrl_nb, out=ctrl_base[1:])

        pos_in_row = np.arange(n_tot, dtype=np.int64) - np.repeat(
            offsets[:-1], counts
        )
        b = ctrl_stream[np.repeat(ctrl_base[:-1], counts) + (pos_in_row >> 2)]
        lens = ((b >> ((pos_in_row & 3) << 1).astype(np.uint8)) & 3) + 1

        cl = np.zeros(n_tot + 1, dtype=np.int64)
        np.cumsum(lens, out=cl[1:])
        data_nb = cl[offsets[1:]] - cl[offsets[:-1]]
        data_stream = gather_segments(
            buf, payload_offsets[:-1] + ctrl_nb, data_nb
        )

        out4 = np.zeros((n_tot, 4), dtype=np.uint8)
        keep = np.arange(4, dtype=np.uint8)[None, :] < lens[:, None]
        out4[keep] = data_stream
        return out4.view("<u4").ravel().astype(np.uint32).view(np.int32)

    def price(self, st, full_tokens=None, full_rows=None):
        """Data bytes plus a quarter byte of control per value scale per
        token; each row's control padding scales per row."""
        ctrl = int(((st.counts + 3) // 4).sum())
        q = st.n // 4
        return split_price(st.varint_bytes + q, ctrl - q, st, full_tokens,
                           full_rows)

    def size(self, st):
        return self.price(st)
