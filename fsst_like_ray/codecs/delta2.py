"""Delta-of-delta codec: per-row first value + delta-coded first-difference
stream — the Gorilla timestamp idea (Pelkonen et al., VLDB'15 §4.1.1)
re-expressed in this registry's block-packed layout.

Where :mod:`delta` wins on smooth sequences, delta2 wins when the first
differences are themselves near-constant (arithmetic progressions: ids from
a sequence counter, fixed-rate timestamps, row numbers): the second
differences concentrate at 0 and pack at width 0-2 regardless of stride.

Layout per non-empty row: ``v0:int32le`` (4 bytes) + the row's first-delta
stream encoded by :class:`DeltaCodec`'s own row format (its first delta raw,
remaining ``c-2`` values as zigzag(second difference) packed at the block
width). Empty rows take 0 bytes. State = 1 byte (second-difference width) —
identical contract to delta, including the loud overflow guard when a
sample-trained width is narrower than a block's true second differences.

All arithmetic mod 2^32 (uint32 wraparound), so decode is exact for any
int32 input; the composition is literal — every layer (header scatter,
zigzag, per-row cumsum) is delta.py's own shared helper, so the two codecs
cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .bitutil import packed_row_nbytes
from .delta import (
    DeltaCodec,
    _delta_stream,
    cumsum_rows,
    gather_after_firsts,
    scatter_with_firsts,
    unzigzag32,
)


class Delta2Codec(Codec):
    name = "delta2"

    _inner = DeltaCodec()

    def train(self, values, offsets):
        zz, doff, _, _ = _delta_stream(values, offsets)
        return self._inner.train(unzigzag32(zz).view(np.int32), doff)

    def encode(self, values, offsets, state):
        zz, doff, counts, nz = _delta_stream(values, offsets)
        inner_buf, inner_po = self._inner.encode(
            unzigzag32(zz).view(np.int32), doff, state
        )
        firsts = _as_u32(values)[offsets[:-1][nz]]
        return scatter_with_firsts(firsts, inner_buf, inner_po, nz)

    def decode(self, buf, payload_offsets, counts, state):
        counts = np.asarray(counts, dtype=np.int64)
        nz = counts > 0
        firsts, inner_buf, inner_po = gather_after_firsts(
            buf, payload_offsets, nz
        )
        dcounts = np.maximum(counts - 1, 0)
        du = _as_u32(
            self._inner.decode(inner_buf, inner_po, dcounts, state)
        )
        return cumsum_rows(firsts, du, counts, nz)

    def size(self, st):
        width = st.zz2_max.bit_length()
        counts = st.counts
        return int(
            (
                packed_row_nbytes(np.maximum(counts - 2, 0), width)
                + np.where(counts > 0, 4, 0)
                + np.where(counts > 1, 4, 0)
            ).sum()
        ) + 1
