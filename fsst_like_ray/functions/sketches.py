"""Mergeable sketches for training-data pipelines.

HyperLogLog distinct counting (Flajolet et al. 2007, public algorithm):
each batch builds a 2^P-register sketch vectorized (one hash pass, per-
register max via np.maximum.at); registers merge by elementwise max — the
canonical partial-aggregate shape, so the shuffle moves 2^P-byte sketches,
never rows. Standard error ≈ 1.04/sqrt(2^P) (~1.6% at P=12).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..buffers import string_buffers
from ..stages.verify import _poly_rowhash

_P = 12  # 4096 registers
_M = 1 << _P
_ALPHA = 0.7213 / (1 + 1.079 / _M)


def hll_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """One HLL sketch row per batch over the column's row VALUES (hashed
    with the same 64-bit polynomial as the verify stage)."""
    if pa.types.is_integer(batch[col].type):
        v = (
            batch[col]
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .view(np.uint64)
        )
        h = _poly_rowhash(v, np.arange(len(v) + 1, dtype=np.int64))
    else:
        data, offsets = string_buffers(batch[col])
        h = _poly_rowhash(data.astype(np.uint64), offsets)
    return pa.table(
        {"hll": pa.array([regs_from_hashes(h).tobytes()], type=pa.binary())}
    )


def regs_from_hashes(h: np.ndarray) -> np.ndarray:
    """HLL register array from a batch of 64-bit row hashes — the
    reusable core of hll_batch (the whole-table store feeds it hashes
    computed from dictionary entries instead of row values)."""
    regs = np.zeros(_M, dtype=np.uint8)
    if len(h):
        # murmur3-style finalizer: the polynomial row hash is not uniform
        # enough in its TOP bits for short keys, and HLL reads exactly those
        with np.errstate(over="ignore"):
            h = h ^ (h >> np.uint64(33))
            h = h * np.uint64(0xFF51AFD7ED558CCD)
            h = h ^ (h >> np.uint64(29))
            h = h * np.uint64(0xC4CEB9FE1A85EC53)
            h = h ^ (h >> np.uint64(32))
        idx = (h >> np.uint64(64 - _P)).astype(np.int64)
        rest = h << np.uint64(_P)  # remaining 64-P bits, top-aligned
        # rank = leading zeros of the remainder + 1 (capped); bit_length via
        # a byte-wise table (float log2 is unsafe near 2^53)
        tbl = np.zeros(256, dtype=np.int64)
        for b in range(1, 256):
            tbl[b] = b.bit_length()
        bl = np.zeros(len(h), dtype=np.int64)
        acc = rest.copy()
        for byte_i in range(8):
            top = (acc >> np.uint64(56)).astype(np.int64)
            hit = (bl == 0) & (top != 0)
            bl[hit] = 64 - byte_i * 8 - (8 - tbl[top[hit]])
            acc = acc << np.uint64(8)
        rank = np.where(rest == 0, 64 - _P + 1, 64 - bl + 1).astype(np.int64)
        np.minimum(rank, 64 - _P + 1, out=rank)
        np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def hll_merge_estimate(sketch_rows) -> int:
    """Merge sketch rows (elementwise max) and estimate cardinality with the
    standard HLL small/large-range corrections."""
    regs = np.zeros(_M, dtype=np.uint8)
    for blob in sketch_rows:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
    est = _ALPHA * _M * _M / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * _M and zeros:
        est = _M * np.log(_M / zeros)  # linear counting
    return int(round(est))


def approx_distinct(ds, col: str = "text") -> int:
    """Streaming approximate distinct count: per-batch sketches, tiny
    driver-side merge (one 4 KB sketch per block reaches the driver)."""
    rows = [
        r["hll"]
        for b in ds.map_batches(
            lambda bb: hll_batch(bb, col), batch_format="pyarrow"
        ).iter_batches(batch_size=256, batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    return hll_merge_estimate(rows)
