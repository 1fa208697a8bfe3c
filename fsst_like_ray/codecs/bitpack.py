"""Bit-packing codec: one block-level width, per-row byte-aligned payloads.

Values are treated as uint32 bit patterns (negative int32 → width 32 → no
worse than plain). State = 1 byte (the width).
"""

from __future__ import annotations

import numpy as np

from . import Codec, _as_u32
from .bitutil import bit_width_for, pack_rows, unpack_rows, packed_row_nbytes


class BitpackCodec(Codec):
    name = "bitpack"

    def train(self, values, offsets):
        return bytes([bit_width_for(_as_u32(values))])

    def encode(self, values, offsets, state):
        width = state[0]
        return pack_rows(_as_u32(values), offsets, width)

    def decode(self, buf, payload_offsets, counts, state):
        width = state[0]
        return unpack_rows(buf, payload_offsets, counts, width).view(np.int32)

    def size(self, st):
        width = st.or_all.bit_length()
        return int(packed_row_nbytes(st.counts, width).sum()) + 1
