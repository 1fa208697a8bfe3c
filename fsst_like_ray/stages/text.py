"""FSST encode/decode stages for STRING columns (the reference's native
domain: one compressed text column scanned by LIKE predicates —
src/BenchmarkDriver.cpp:12-52). Same block model as the token codec: one
symbol table per batch, trained on the batch's own rows, travelling with the
data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import fsstlib
from ..buffers import _binary_buffers, _group_indices
from ..codecs.bitutil import gather_rows


def string_buffers(arr) -> tuple[np.ndarray, np.ndarray]:
    """(utf8 bytes, int64 offsets) of a string/large_string array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_binary())
    off = np.frombuffer(
        arr.buffers()[1], dtype=np.int64, count=len(arr) + 1 + arr.offset
    )[arr.offset :]
    base = off[0]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[base : off[-1]]
    return np.ascontiguousarray(data), (off - base).astype(np.int64)


def encode_text_table(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """→ (doc_id, n_bytes, state, payload, payload_nbytes) with per-batch
    FSST state. Reference analog: CreateFsstBlock (src/BenchmarkDriver.cpp:87-140)."""
    data, offsets = string_buffers(batch[text_col])
    sample_data, sample_off = data, offsets
    if data.size > (1 << 16):
        # deterministic stride sample for training, like the token codec
        n_rows = len(offsets) - 1
        stride = max(1, int(np.ceil(data.size / (1 << 16))))
        rows = np.arange(0, n_rows, stride)
        sample_data, sample_off = gather_rows(
            data, offsets[rows], np.diff(offsets)[rows]
        )
    table = fsstlib.train(sample_data, sample_off)
    buf, po, used = fsstlib.encode(data, offsets, table)
    n = batch.num_rows
    state = table.serialize()
    zeros = pa.array(np.zeros(n, dtype=np.int32))
    state_col = pa.DictionaryArray.from_arrays(
        zeros, pa.array([state], type=pa.binary())
    )
    # used_chars block statistic (reference: src/BenchmarkDriver.cpp:128-137):
    # bitmap of escaped-literal bytes, for needle-byte block pruning
    used_col = pa.DictionaryArray.from_arrays(
        zeros, pa.array([used], type=pa.binary())
    )
    payload = pa.Array.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(po), pa.py_buffer(buf)]
    )
    return pa.table(
        {
            "doc_id": batch[id_col],
            "n_bytes": pa.array(np.diff(offsets), type=pa.int64()),
            "state": state_col,
            "used_chars": used_col,
            "payload": payload,
            "payload_nbytes": pa.array(np.diff(po), type=pa.int64()),
        }
    )


def decode_text_table(batch: pa.Table) -> pa.Table:
    """Encoded text table → (doc_id, text)."""
    pay, po = _binary_buffers(batch["payload"])
    si, state_vals = _group_indices(batch["state"])
    n = batch.num_rows
    expected = batch["n_bytes"].to_numpy().astype(np.int64)
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(expected, out=out_off[1:])
    out = np.zeros(int(out_off[-1]), dtype=np.uint8)
    # rows sharing a state form contiguous runs (encode blocks are row
    # ranges) — zero-copy slices, no per-byte gather/scatter
    seg = (
        np.concatenate(([0], np.flatnonzero(np.diff(si)) + 1, [n]))
        if n
        else np.array([0, 0])
    )
    for k in range(len(seg) - 1):
        lo, hi = int(seg[k]), int(seg[k + 1])
        if lo == hi:
            continue
        table = fsstlib.cached_table(state_vals[int(si[lo])])
        sub = pay[po[lo] : po[hi]]
        so = po[lo : hi + 1] - po[lo]
        dec, ro = fsstlib.decode(
            sub, so, table, out_nbytes=int(expected[lo:hi].sum())
        )
        if not np.array_equal(np.diff(ro), expected[lo:hi]):
            raise ValueError("text decode: row size mismatch")
        out[out_off[lo] : out_off[hi]] = dec
    text = pa.Array.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(out_off), pa.py_buffer(out)]
    ).cast(pa.large_string())
    return pa.table({"doc_id": batch["doc_id"], "text": text.cast(pa.string())})
