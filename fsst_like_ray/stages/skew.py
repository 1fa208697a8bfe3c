"""Token-length skew, measured shuffle-free.

Token payload sizes are log-normal — orders of magnitude apart — so blocks
sized by ROW count carry wildly different token counts. The n_tok
histogram is built without a row shuffle: each batch pre-aggregates its
own ≤64-bucket (log2 n_tok) partial histogram inside ``map_batches``, so
the ``groupby`` that merges them moves ≤64 tiny rows per input block — at
100 TB the exchange is a few KB per block, not the data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

MAX_BUCKETS = 64


def _partial_hist(batch: pa.Table) -> pa.Table:
    """≤64-row partial histogram: (bucket, rows, tokens)."""
    n_tok = batch["n_tok"].to_numpy().astype(np.int64)
    bucket = np.zeros(len(n_tok), dtype=np.int64)
    nz = n_tok > 0
    bucket[nz] = np.floor(np.log2(n_tok[nz])).astype(np.int64) + 1
    rows = np.bincount(bucket, minlength=MAX_BUCKETS)
    toks = np.bincount(bucket, weights=n_tok, minlength=MAX_BUCKETS).astype(np.int64)
    keep = np.flatnonzero(rows)
    return pa.table(
        {
            "bucket": pa.array(keep, type=pa.int32()),
            "rows": pa.array(rows[keep], type=pa.int64()),
            "tokens": pa.array(toks[keep], type=pa.int64()),
        }
    )


def n_tok_histogram(ds: "ray.data.Dataset") -> dict[int, tuple[int, int]]:
    """{log2 bucket: (row count, token sum)} — partial-aggregated per batch,
    merged by a ≤64-key groupby (no payload shuffle)."""
    agg = (
        ds.select_columns(["n_tok"])
        .map_batches(_partial_hist, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("rows", alias_name="rows"), Sum("tokens", alias_name="tokens"))
    )
    out = {}
    for row in agg.take_all():
        out[int(row["bucket"])] = (int(row["rows"]), int(row["tokens"] or 0))
    return out
