"""Delta → varint cascade codec: per-row first value + successive wrapped
differences, zigzag-mapped and Stream-VByte coded.

The classic posting-list / sorted-id layout (delta + byte-aligned varint,
e.g. Lucene's postings format) as a block codec: where ``delta`` packs every
zigzag difference at ONE block-level bit width (a single outlier row widens
the whole block), the cascade spends 1-4 bytes per difference row-locally,
so smooth rows stay cheap next to jumpy ones. Stateless.

Per-row payload (non-empty rows): ``first:int32le`` (4 bytes) + the row's
c-1 zigzag deltas in varint layout (ceil((c-1)/4) control bytes + data).
Empty rows take 0 bytes. Same mod-2^32 wraparound exactness argument as
:mod:`.delta`.
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .bitutil import gather_segments, scatter_segments
from .delta import _delta_stream
from .stats import split_price
from .varint import VarintCodec

_V = VarintCodec()


class DvintCodec(Codec):
    name = "dvint"

    def train(self, values, offsets):
        return b""

    def encode(self, values, offsets, state):
        zz, doff, counts, nz = _delta_stream(values, offsets)
        vbuf, vpo = _V.encode(zz.view(np.int32), doff, b"")
        vnb = np.diff(vpo)

        nbytes = np.where(nz, vnb + 4, 0).astype(np.int64)
        po = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(nbytes, out=po[1:])
        buf = np.zeros(int(po[-1]), dtype=np.uint8)

        if nz.any():
            firsts = _as_u32(values)[offsets[:-1][nz]]
            ref_pos = po[:-1][nz, None] + np.arange(4, dtype=np.int64)
            buf[ref_pos.ravel()] = (
                firsts.astype("<u4").view(np.uint8).reshape(-1, 4).ravel()
            )
        scatter_segments(buf, po[:-1] + 4 * nz, vnb, vbuf)
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        counts = np.asarray(counts, dtype=np.int64)
        n_rows = len(counts)
        nz = counts > 0
        n = int(counts.sum())

        firsts = np.zeros(int(nz.sum()), dtype=np.uint32)
        if firsts.size:
            ref_pos = payload_offsets[:-1][nz, None] + np.arange(
                4, dtype=np.int64
            )
            firsts = (
                np.ascontiguousarray(buf[ref_pos.ravel()])
                .view("<u4")
                .astype(np.uint32)
            )
        vnb = np.where(nz, np.diff(payload_offsets) - 4, 0).astype(np.int64)
        vpo = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(vnb, out=vpo[1:])
        vbuf = gather_segments(buf, payload_offsets[:-1] + 4 * nz, vnb)
        dcounts = np.maximum(counts - 1, 0)
        zz = _V.decode(vbuf, vpo, dcounts, b"").view(np.uint32)
        du = (zz >> np.uint32(1)) ^ (np.uint32(0) - (zz & np.uint32(1)))

        # within-row wrapped cumulative sum (same reconstruction as delta)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts_nz = offsets[:-1][nz]
        full = np.empty(n, dtype=np.uint64)
        mask = np.ones(n, dtype=bool)
        mask[starts_nz] = False
        full[starts_nz] = firsts
        full[mask] = du
        g = np.cumsum(full)
        base = g[starts_nz] - firsts
        vals = (g - np.repeat(base, counts[nz])).astype(np.uint32)
        return vals.view(np.int32)

    def price(self, st, full_tokens=None, full_rows=None):
        """Varint price of the within-row zigzag differences (as
        :meth:`VarintCodec.price` splits it), plus a 4-byte first value
        per non-empty row, a per-row cost."""
        dcounts = np.maximum(st.counts - 1, 0)
        ctrl = int(((dcounts + 3) // 4).sum())
        q = int(dcounts.sum()) // 4
        firsts = 4 * int((st.counts > 0).sum())
        return split_price(st.zz_varint_bytes + q, ctrl - q + firsts, st,
                           full_tokens, full_rows)

    def size(self, st):
        return self.price(st)
