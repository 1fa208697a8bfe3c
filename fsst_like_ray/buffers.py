"""Zero-copy NumPy views of Arrow buffers: the (values, offsets) and
(bytes, offsets) pairs every codec and scan kernel takes, and the
per-row group index of a dictionary-encoded column."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def list_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy extraction of (values:int32, offsets:int64) from a
    list<int32> array, handling chunk slices."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off = arr.offsets.to_numpy().astype(np.int64)
    base = off[0]
    values = arr.values.to_numpy(zero_copy_only=False)[base : off[-1]]
    return np.ascontiguousarray(values, dtype=np.int32), off - base


def payload_array(buf: np.ndarray, payload_offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array from (buffer, offsets)."""
    n = len(payload_offsets) - 1
    return pa.Array.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(payload_offsets.astype(np.int64)), pa.py_buffer(buf)],
    )


def _binary_buffers(arr) -> tuple[np.ndarray, np.ndarray]:
    """(bytes buffer, int64 offsets) of a binary/large_binary array —
    zero-copy on the DATA buffer (a ``cast(large_binary)`` of a binary
    column copies the payload bytes; only the small offsets are widened)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    if pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    off = arr.buffers()[1]
    dat = arr.buffers()[2]
    offsets = np.frombuffer(
        off, dtype=off_dtype, count=len(arr) + 1 + arr.offset
    )[arr.offset :].astype(np.int64)
    base = offsets[0]
    data = np.frombuffer(dat, dtype=np.uint8)[base : offsets[-1]]
    return data, offsets - base


def _group_indices(col) -> tuple[np.ndarray, list]:
    """(per-row group index, group values) for a possibly dictionary-encoded
    column — reuses parquet's existing dictionary instead of re-hashing
    every row's value bytes."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        return (
            col.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            col.dictionary.to_pylist(),
        )
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    return (
        enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
        enc.dictionary.to_pylist(),
    )
