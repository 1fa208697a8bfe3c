"""Codec framework: per-block lightweight compression kernels.

Contract (mirrors the reference's ``CompressionRunner`` surface,
reference: sketch.cc:515-523, re-expressed for Arrow list<int32> token columns):

- ``train(values, offsets) -> state: bytes`` — block-level state (symbol table /
  dictionary / width), trained on the block's own rows exactly like the
  reference trains a per-block FSST table (reference: src/BenchmarkDriver.cpp:100-101).
- ``encode(values, offsets, state) -> (buf: uint8[], payload_offsets: int64[])``
  — per-row payloads; row i's bytes are ``buf[po[i]:po[i+1]]`` and every row is
  independently decodable given the block state + its token count
  (reference analog: sketch.cc:770-785 selected-row decompression).
- ``decode(buf, payload_offsets, counts, state) -> values: int32[]`` — exact
  (bit-identical) inverse.
- ``size(stats) -> int`` / ``price(stats, full_tokens, full_rows) -> int`` —
  encoded bytes incl. state, in closed form from one
  :func:`.stats.stream_stats` pass, exact for the sampled stream and
  extrapolated to the full block; the auto-selector prices every integer
  codec from one such pass.

All kernels are pure NumPy — vectorized, no per-row Python loops on the hot
path. ``values`` is the flattened int32 token stream; ``offsets`` the int64
row offsets (len n_rows+1), i.e. the two buffers of a ``pa.ListArray``.
"""

from __future__ import annotations

import numpy as np


class Codec:
    name: str = "abstract"

    def train(self, values: np.ndarray, offsets: np.ndarray) -> bytes:
        return b""

    def encode(
        self, values: np.ndarray, offsets: np.ndarray, state: bytes
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def decode(
        self,
        buf: np.ndarray,
        payload_offsets: np.ndarray,
        counts: np.ndarray,
        state: bytes,
    ) -> np.ndarray:
        raise NotImplementedError

    def train_encode(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> tuple[bytes, np.ndarray, np.ndarray]:
        """(state, buf, payload_offsets) — train on the block and encode it
        in one call. Codecs whose training already computes the encode's
        intermediate (dict: the sorted-unique inverse) override this to skip
        the redundant per-token lookup."""
        state = self.train(values, offsets)
        buf, po = self.encode(values, offsets, state)
        return state, buf, po

    def size(self, stats) -> int:
        """Exact encoded bytes (payloads + state) of the stream that
        ``stats`` (a :class:`.stats.StreamStats`) describes, in closed
        form — what ``train_encode`` would produce, without encoding."""
        raise NotImplementedError

    def price(
        self, stats, full_tokens: int | None = None,
        full_rows: int | None = None,
    ) -> int:
        """Estimated bytes of the FULL block the stats' sample was drawn
        from (``full_tokens``/``full_rows``; when omitted the sample IS the
        block). The default scales :meth:`size` linearly per token, correct
        for codecs whose state is O(1); codecs with per-row costs or a
        sublinear dictionary override it."""
        est = self.size(stats)
        if full_tokens is not None and stats.n and full_tokens != stats.n:
            est = int(est * (full_tokens / stats.n))
        return est

    def estimate(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        full_tokens: int | None = None,
        full_rows: int | None = None,
    ) -> tuple[int, bytes | None]:
        """(estimated FULL-block bytes, reusable state or None) for a
        sample. A codec returns a state only when a sample-trained state
        encodes the FULL block correctly (true for fsst — unseen bytes
        escape; false for e.g. dict, whose sample dictionary would miss
        values). Integer codecs price the sample's statistics; fsst
        overrides this with a held-out train+encode."""
        from .stats import stream_stats

        return self.price(stream_stats(values, offsets), full_tokens,
                          full_rows), None

    def estimate_size(self, values: np.ndarray, offsets: np.ndarray) -> int:
        """Estimated bytes when the sample is the whole block."""
        return self.estimate(values, offsets)[0]


def _as_u32(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int32).view(np.uint32)


from .plain import PlainCodec  # noqa: E402
from .bitpack import BitpackCodec  # noqa: E402
from .forpack import ForCodec  # noqa: E402
from .rle import RleCodec  # noqa: E402
from .rlebp import RleBitpackCodec  # noqa: E402
from .delta import DeltaCodec  # noqa: E402
from .delta2 import Delta2Codec  # noqa: E402
from .dictionary import DictCodec  # noqa: E402
from .fsst import FsstCodec  # noqa: E402
from .pfor import PforCodec  # noqa: E402
from .varint import VarintCodec  # noqa: E402
from .dvint import DvintCodec  # noqa: E402

CODECS: dict[str, Codec] = {
    c.name: c
    for c in [
        PlainCodec(),
        BitpackCodec(),
        ForCodec(),
        RleCodec(),
        RleBitpackCodec(),
        DeltaCodec(),
        Delta2Codec(),
        DictCodec(),
        FsstCodec(),
        PforCodec(),
        VarintCodec(),
        DvintCodec(),
    ]
}

from .auto import select_codec  # noqa: E402

__all__ = ["Codec", "CODECS", "select_codec"]
