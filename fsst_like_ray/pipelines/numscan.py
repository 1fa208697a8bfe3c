"""Numeric push-down scans over columnar-encoded token corpora
(pipelines/columnar.py): per-row aggregates and token-membership
predicates on the ``tokens`` list column computed in the compressed domain
(codecs/pushdown.py) — the reference's compressed-predicate idea
(LIKE-on-FSST, src/BenchmarkDriver.cpp:54-85) carried over to the numeric
codecs. Stateless ``map_batches`` stages: the codec state travels with the
data in the block envelope, the token lists never decode into Arrow list
arrays (only the ``doc_id`` column decodes), and segments a zone check
rules out (dict / bitpack) never touch payload bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..codecs.pushdown import segment_contains, segment_stats
from .columnar import decode_column, list_segment_runs


def token_stats(enc: "ray.data.Dataset") -> "ray.data.Dataset":
    """Encoded corpus → (doc_id, n_tok, tok_sum, tok_min, tok_max) per row,
    without materializing decoded token lists. Empty rows report sum 0 and
    null min/max (SQL aggregate semantics)."""

    def stats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        segments, pay_buf, pay_off, counts = list_segment_runs(batch, "tokens")
        sums = np.zeros(n, dtype=np.int64)
        mins = np.zeros(n, dtype=np.int64)
        maxs = np.zeros(n, dtype=np.int64)
        for lo, hi, name, state in segments:
            sub = pay_buf[pay_off[lo] : pay_off[hi]]
            so = pay_off[lo : hi + 1] - pay_off[lo]
            s, mn, mx = segment_stats(name, sub, so, counts[lo:hi], state)
            sums[lo:hi] = s
            mins[lo:hi] = mn
            maxs[lo:hi] = mx
        nz = counts > 0
        return pa.table(
            {
                "doc_id": decode_column(batch, "doc_id"),
                "n_tok": pa.array(counts, type=pa.int64()),
                "tok_sum": pa.array(sums, type=pa.int64()),
                "tok_min": pa.array(
                    np.where(nz, mins, 0).astype(np.int32), mask=~nz
                ),
                "tok_max": pa.array(
                    np.where(nz, maxs, 0).astype(np.int32), mask=~nz
                ),
            }
        )

    return enc.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def contains_token_scan(
    enc: "ray.data.Dataset", tid: int
) -> "ray.data.Dataset":
    """Encoded corpus → (doc_id,) of rows whose token list contains ``tid``."""

    def scan(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        segments, pay_buf, pay_off, counts = list_segment_runs(batch, "tokens")
        hit = np.zeros(n, dtype=bool)
        for lo, hi, name, state in segments:
            sub = pay_buf[pay_off[lo] : pay_off[hi]]
            so = pay_off[lo : hi + 1] - pay_off[lo]
            hit[lo:hi] = segment_contains(
                name, sub, so, counts[lo:hi], state, tid
            )
        ids = decode_column(batch, "doc_id")
        return pa.table({"doc_id": ids}).filter(pa.array(hit))

    return enc.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def token_histogram(enc: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact GLOBAL token frequencies from the encoded corpus — the
    compressed-domain twin of ``SELECT token, count(*) … GROUP BY token``.
    Each batch folds its segments' ``segment_histogram`` results into one
    per-batch (token, cnt) partial (RLE segments touch runs, dict segments
    count packed indices, plain is a zero-copy view), so the shuffle moves
    per-block DISTINCT tokens only — vocabulary-bounded, never
    corpus-bounded. The merge is one small groupby-sum."""
    from ray.data.aggregate import Sum

    from ..codecs.pushdown import segment_histogram

    def partial(batch: pa.Table) -> pa.Table:
        segments, pay_buf, pay_off, counts = list_segment_runs(batch, "tokens")
        vals, cnts = [], []
        for lo, hi, name, state in segments:
            sub = pay_buf[pay_off[lo] : pay_off[hi]]
            so = pay_off[lo : hi + 1] - pay_off[lo]
            v, c = segment_histogram(name, sub, so, counts[lo:hi], state)
            vals.append(v.astype(np.int64))
            cnts.append(c)
        if vals:
            av = np.concatenate(vals)
            ac = np.concatenate(cnts)
            order = np.argsort(av, kind="stable")
            av, ac = av[order], ac[order]
            starts = np.flatnonzero(np.r_[True, av[1:] != av[:-1]])
            av = av[starts]
            ac = np.add.reduceat(ac, starts)
        else:
            av = np.zeros(0, dtype=np.int64)
            ac = np.zeros(0, dtype=np.int64)
        return pa.table(
            {
                "token": pa.array(av, type=pa.int64()),
                "cnt": pa.array(ac, type=pa.int64()),
            }
        )

    return (
        enc.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
