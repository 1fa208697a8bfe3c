"""No-op codec: raw little-endian int32 bytes per row.

Reference analog: ``NoCompressionRunner`` (sketch.cc:526-555) — the baseline
every other codec is compared against and the auto-selector's fallback.
"""

from __future__ import annotations

import numpy as np

from . import Codec


class PlainCodec(Codec):
    name = "plain"

    def encode(self, values, offsets, state):
        buf = np.ascontiguousarray(values, dtype=np.int32).view(np.uint8)
        return buf, offsets.astype(np.int64) * 4

    def decode(self, buf, payload_offsets, counts, state):
        return np.ascontiguousarray(buf).view(np.int32)

    def size(self, st):
        return st.n * 4
