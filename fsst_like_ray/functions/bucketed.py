"""Coarse-bucket co-partitioning for per-key kernels.

``groupby(key).map_groups(fn)`` pays one Python call per KEY — at
latest-per-user / sequence-per-user cardinalities (millions of keys at
100 TB) the per-group interpreter overhead dwarfs the work. The scale
shape used across this repo instead: ONE shuffle co-partitions whole key
groups into ``n_buckets`` coarse buckets via a stable content hash of the
key, and a VECTORIZED multi-key kernel runs once per bucket — per-group
Python cost is O(n_buckets), never O(#keys), while a bucket's memory is
the hash-balanced share of the (usually pre-pruned) stream.

The kernel contract: it receives a table holding COMPLETE key groups
(every row of each key it sees) and must itself be correct for multiple
keys per call — lexsort + run segmentation is the usual implementation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_BUCKET = "__kb_bucket__"


def key_hash(col) -> np.ndarray:
    """Stable uint64 content hash of a key column (int or string) —
    consistent across batches (a per-batch dictionary encode is NOT), so
    it can drive cross-batch co-partitioning."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            return v.view(np.uint64) * _GOLD
    if (
        pa.types.is_string(col.type)
        or pa.types.is_large_string(col.type)
        or pa.types.is_binary(col.type)
        or pa.types.is_large_binary(col.type)
    ):
        from ..buffers import string_buffers
        from ..stages.verify import _poly_rowhash

        data, offsets = string_buffers(col)  # casts to large_binary
        return _poly_rowhash(data.astype(np.uint64), offsets)
    raise TypeError(f"bucketed: unhashable key type {col.type}")


def bucketed_group_kernel(
    ds: "ray.data.Dataset",
    key: str,
    kernel,
    n_buckets: int = 64,
):
    """Run a vectorized multi-key ``kernel(table) -> table`` once per
    coarse key-hash bucket; each bucket holds complete key groups."""

    def add_bucket(b: pa.Table) -> pa.Table:
        h = key_hash(b[key])
        bucket = ((h >> np.uint64(32)) % np.uint64(n_buckets)).astype(
            np.int64
        )
        return b.append_column(_BUCKET, pa.array(bucket))

    def run(g: pa.Table) -> pa.Table:
        return kernel(g.drop_columns([_BUCKET]))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(_BUCKET)
        .map_groups(run, batch_format="pyarrow")
    )
