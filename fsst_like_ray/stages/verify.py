"""Per-row 64-bit content hashes of a tokens table (doc_id + token
values): the bit-identity check of the roundtrip and dedup queries.

Per-row hash covers (doc_id bytes, token values, token count) with a
position-dependent polynomial in uint64 wrap-around arithmetic — fully
vectorized, no Python row loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..buffers import list_buffers

_P = np.uint64(0x100000001B3)  # FNV-ish odd multiplier

# P^i mod 2^64 for i < len — grown geometrically on demand, cached per
# process. Bounds the hash to ONE gather + ONE reduceat instead of two
# full-stream cumprods (the cumprod path was 40% of encode CPU and ~100 MB
# of extra memory traffic per 2 M-token batch — the hot constraint at 32
# cores is socket bandwidth, so passes ARE the cost).
_POW_TABLE = np.ones(1, dtype=np.uint64)


def _powers(n: int) -> np.ndarray:
    global _POW_TABLE
    if len(_POW_TABLE) < n:
        size = max(n, 2 * len(_POW_TABLE), 8192)
        with np.errstate(over="ignore"):
            t = np.empty(size, dtype=np.uint64)
            t[0] = np.uint64(1)
            np.cumprod(np.full(size - 1, _P, dtype=np.uint64), out=t[1:])
        _POW_TABLE = t
    return _POW_TABLE


def _poly_rowhash(values_u64: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row polynomial hash of variable-length uint64 sequences.

    h_row = Σ_j (v_j + 1) * P^(j - row_start)  (mod 2^64). P^pos comes from a
    cached power table indexed by position-in-row, so the per-batch work is
    one position computation, one gather, one multiply, one reduceat."""
    n = int(values_u64.size)
    counts = np.diff(offsets)
    if n == 0:
        return np.zeros(len(counts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        pt = _powers(int(counts.max()))
        # position within the row: arange minus each row's start, broadcast
        # by repeat (no per-row loop)
        pos = np.arange(n, dtype=np.int64)
        pos -= np.repeat(offsets[:-1].astype(np.int64), counts)
        terms = (values_u64 + np.uint64(1)) * pt[pos]
        sums = np.zeros(len(counts), dtype=np.uint64)
        nz = counts > 0
        if nz.any():
            starts = offsets[:-1][nz]
            sums[nz] = np.add.reduceat(terms, starts)
        return sums


def _rowhash_u32(values_u32: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Token-values row hash: C kernel when available (4 B/token traffic),
    NumPy otherwise — bit-identical either way (tests/test_native.py)."""
    from .. import native

    if native.lib is not None:
        return native.poly_rowhash_u32(values_u32, offsets)
    return _poly_rowhash(values_u32.astype(np.uint64), offsets)


def row_hashes(batch: pa.Table) -> np.ndarray:
    values, offsets = list_buffers(batch["tokens"])
    tok_h = _rowhash_u32(values.view(np.uint32), offsets)
    # doc_id bytes hashed the same way (integer ids hash their 64-bit value)
    ids = batch["doc_id"].combine_chunks() if isinstance(
        batch["doc_id"], pa.ChunkedArray
    ) else batch["doc_id"]
    if pa.types.is_integer(ids.type):
        v = ids.cast(pa.int64()).to_numpy(zero_copy_only=False).view(np.uint64)
        id_h = _poly_rowhash(v, np.arange(len(v) + 1, dtype=np.int64))
        with np.errstate(over="ignore"):
            return tok_h * np.uint64(0x9E3779B97F4A7C15) + id_h
    ids = ids.cast(pa.large_binary())
    off = np.frombuffer(ids.buffers()[1], dtype=np.int64, count=len(ids) + 1 + ids.offset)[
        ids.offset :
    ]
    base = off[0]
    dat = np.frombuffer(ids.buffers()[2], dtype=np.uint8)[base : off[-1]]
    id_h = _poly_rowhash(dat.astype(np.uint64), (off - base).astype(np.int64))
    with np.errstate(over="ignore"):
        return tok_h * np.uint64(0x9E3779B97F4A7C15) + id_h
