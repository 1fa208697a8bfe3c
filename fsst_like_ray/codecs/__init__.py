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
- ``estimate_size(values, offsets) -> int`` — estimated encoded bytes incl.
  state, used by the auto-selector.

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

    def estimate_size(self, values: np.ndarray, offsets: np.ndarray) -> int:
        """Default: actually train+encode (callers pass a sample, so cheap)."""
        state = self.train(values, offsets)
        buf, _ = self.encode(values, offsets, state)
        return int(buf.size) + len(state)

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

    def estimate(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        full_tokens: int | None = None,
        full_rows: int | None = None,
    ) -> tuple[int, bytes | None]:
        """(estimated bytes, reusable state or None) for the FULL block the
        sample was drawn from (``full_tokens``/``full_rows``; when omitted the
        sample IS the block). A codec returns a state only when a
        sample-trained state encodes the FULL block correctly (true for fsst
        — unseen bytes escape; false for e.g. dict, whose sample dictionary
        would miss values).

        The default linear per-token extrapolation is correct for codecs
        whose state is O(1) (plain/rle/for/bitpack); dict and fsst override
        it because naive scaling is biased (dict: dictionary overhead does
        not grow linearly; fsst: the evaluation must be held out from the
        training rows or the estimate measures training fit)."""
        est = self.estimate_size(values, offsets)
        n = int(offsets[-1] - offsets[0])
        if full_tokens is not None and n and full_tokens != n:
            est = int(est * (full_tokens / n))
        return est, None


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
