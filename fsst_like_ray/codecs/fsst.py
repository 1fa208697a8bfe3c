"""FSST codec over token arrays: the int32 token stream is viewed as its
little-endian byte string (4 bytes/token) and compressed with the from-scratch
FSST symbol table in :mod:`fsst_like_ray.fsstlib`.

State = serialized symbol table. Training samples at most TRAIN_SAMPLE_BYTES
of the block (deterministic prefix stride), mirroring FSST's bounded sample.
Encode chunks the batch into ≤CHUNK_BYTES slices of whole rows to bound
temporary memory (rows are independently decodable, so chunking is free).
"""

from __future__ import annotations

import numpy as np

from . import Codec
from .bitutil import gather_rows
from .. import fsstlib

# 32 KiB: with the held-out estimate keeping selection honest, halving the
# training sample from 64 KiB costs no overall ratio (measured 1.983 vs
# 1.960 on the fixture corpus — weaker tables lose the selection to dict
# exactly where they should) and removes ~40% of per-chunk training time
TRAIN_SAMPLE_BYTES = 1 << 15
CHUNK_BYTES = 8 << 20


def _byte_view(values: np.ndarray, offsets: np.ndarray):
    data = np.ascontiguousarray(values, dtype=np.int32).view(np.uint8)
    return data, offsets.astype(np.int64) * 4


def _sample_rows(byte_offsets: np.ndarray, target: int) -> np.ndarray:
    """Deterministic row subset whose bytes total ≈ target: stride over rows."""
    n_rows = len(byte_offsets) - 1
    total = int(byte_offsets[-1])
    if total <= target or n_rows <= 1:
        return np.arange(n_rows)
    stride = max(1, int(np.ceil(total / target)))
    return np.arange(0, n_rows, stride)


def _train_table(values, offsets) -> fsstlib.SymbolTable:
    data, bo = _byte_view(values, offsets)
    rows = _sample_rows(bo, TRAIN_SAMPLE_BYTES)
    sample, so = gather_rows(data, bo[rows], np.diff(bo)[rows])
    return fsstlib.train(sample, so)


class FsstCodec(Codec):
    name = "fsst"

    def train(self, values, offsets):
        return _train_table(values, offsets).serialize()

    def encode(self, values, offsets, state):
        table = fsstlib.SymbolTable.deserialize(state)
        data, bo = _byte_view(values, offsets)
        n_rows = len(bo) - 1
        bufs, pos = [], [np.zeros(1, dtype=np.int64)]
        start = 0
        while start < n_rows:
            end = int(
                np.searchsorted(bo, bo[start] + CHUNK_BYTES, side="left")
            )
            end = max(end, start + 1)
            end = min(end, n_rows)
            chunk_off = bo[start : end + 1] - bo[start]
            buf, po, _used = fsstlib.encode(
                data[bo[start] : bo[end]], chunk_off, table
            )
            bufs.append(buf)
            pos.append(po[1:] + (pos[-1][-1] if pos else 0))
            start = end
        buf = np.concatenate(bufs) if bufs else np.zeros(0, dtype=np.uint8)
        po = np.concatenate(pos)
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        table = fsstlib.cached_table(bytes(state))
        out, ro = fsstlib.decode(
            buf, payload_offsets, table,
            out_nbytes=int(counts.astype(np.int64).sum()) * 4,
        )
        expected = counts.astype(np.int64) * 4
        if not np.array_equal(np.diff(ro), expected):
            raise ValueError("fsst decode: row size mismatch")
        return np.ascontiguousarray(out).view(np.int32)

    def estimate(self, values, offsets, full_tokens=None, full_rows=None):
        """Returns the trained state for reuse: an fsst table trained on the
        selection sample encodes any block (unseen bytes escape), so the
        auto path need not train twice.

        The evaluation rows are HELD OUT from the training rows (training
        rows are exactly the multiples of the training stride, so they are
        excluded exactly): evaluating on rows the table was trained on
        measured training fit and systematically overestimated fsst's
        full-block ratio — auto then picked fsst over dict on blocks where
        dict compresses better. The eval covers EVERY non-training sample
        row (not a strided subset): per-row encode cost is heavy-tailed
        (a ~1% incompressible row class expands ~2× under escapes), so a
        small row subset misses the expensive tail and stays optimistic
        by ~5% — enough to flip the dict/fsst decision."""
        table = _train_table(values, offsets)
        state = table.serialize()
        data, bo = _byte_view(values, offsets)
        n_rows = len(bo) - 1
        total = int(bo[-1])
        train_stride = (
            1 if total <= TRAIN_SAMPLE_BYTES or n_rows <= 1
            else max(1, int(np.ceil(total / TRAIN_SAMPLE_BYTES)))
        )
        rows = np.arange(n_rows)
        if train_stride > 1:
            held = rows[rows % train_stride != 0]
            if held.size:
                rows = held
        sample, so = gather_rows(data, bo[rows], np.diff(bo)[rows])
        buf, _po, _used = fsstlib.encode(sample, so, table)
        sampled = int(so[-1])
        ratio = buf.size / sampled if sampled else 1.0
        full_bytes = 4 * full_tokens if full_tokens is not None else total
        return int(full_bytes * ratio) + len(state), state
