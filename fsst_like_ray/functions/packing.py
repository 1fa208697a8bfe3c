"""Fixed-length training-sequence packing over the north-rule tokens table.

Concatenates each source's token streams in doc_id order and re-chunks them
into sequences of exactly ``seq_len`` tokens (the last sequence per source may
be shorter) — the canonical "pack documents into training windows" op.

100-TB shape (no stage materializes a source's stream):

1. **Plan** (tiny): per-batch partial (source, bucket, Σ n_tok) where
   ``bucket = doc_id >> bucket_shift`` → groupby-sum → the driver computes
   each bucket's starting token offset within its source by a cumulative sum
   over the bucket-ordered totals. Only ≤ #buckets rows ever reach the
   driver, and the plan dict broadcasts once via ``ray.put``.
2. **Split** (one bounded shuffle): ``groupby(source, bucket).map_groups`` —
   each group sorts its ≤2^shift docs by doc_id, assigns every token its
   global position (bucket base + within-bucket cumsum), and splits the
   group's contiguous token run at ``seq_len`` boundaries into PARTS
   ``(source, seq_id, pos, tokens)``. All splitting is vectorized run
   detection over the flat values buffer.
3. **Stitch** (second bounded shuffle): ``groupby(source, seq_id)`` reorders
   each sequence's ≤ (1 + docs-spanned) parts by position and concatenates.
   Every group is ≤ seq_len tokens, so memory per group is bounded by the
   sequence length, never by a source's size.

Determinism: output is a pure function of (input, seq_len, bucket_shift) —
retries and different cluster sizes produce identical sequences.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data.aggregate import Sum


def _tokens_np(tbl: pa.Table, col: str = "tokens"):
    toks = tbl[col]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    values = toks.flatten().to_numpy(zero_copy_only=False)
    offsets = np.asarray(toks.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
    # a sliced ListArray's offsets need not start at 0
    return values, offsets - offsets[0]


def _bucket_partials(bucket_shift: int):
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)
        ntok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids >> bucket_shift).astype(np.int64)
        # partial per (source, bucket) — pandas-free via np.unique on
        # (source code, bucket) int pairs: a joined string key collides
        # (NumPy str drops a trailing NUL, so "src1"+"\x00"+"10" and
        # "src11"+"\x00"+"0" are equal)
        _u, scode = np.unique(src.astype(str), return_inverse=True)
        pairs = np.stack([scode.reshape(-1), bucket], axis=1)
        uk, inv = np.unique(pairs, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        sums = np.bincount(inv, weights=ntok).astype(np.int64)
        first = np.zeros(len(uk), dtype=np.int64)
        first[inv[::-1]] = np.arange(len(ids))[::-1]
        return pa.table(
            {
                "source": pa.array(src[first].astype(object), type=pa.string()),
                "bucket": pa.array(bucket[first], type=pa.int64()),
                "tok": pa.array(sums, type=pa.int64()),
            }
        )

    return fn


def plan_bucket_bases(tokens_ds, bucket_shift: int) -> dict:
    """{(source, bucket): starting token offset within source} — the tiny
    driver-side cumulative plan."""
    parts = tokens_ds.map_batches(
        _bucket_partials(bucket_shift), batch_format="pyarrow"
    )
    totals = parts.groupby(["source", "bucket"]).aggregate(
        Sum("tok", alias_name="tok")
    )
    rows = sorted(
        (r["source"], r["bucket"], r["tok"]) for r in totals.take_all()
    )
    bases: dict = {}
    run_src, acc = None, 0
    for src, bucket, tok in rows:
        if src != run_src:
            run_src, acc = src, 0
        bases[(src, bucket)] = acc
        acc += int(tok)
    return bases


def pack_sequences(
    tokens_ds,
    seq_len: int,
    bucket_shift: int = 10,
    with_segments: bool = False,
):
    """tokens table → packed sequences ``(source, seq_id, tokens, n_tok)``.

    ``with_segments=True`` adds ``seg_starts`` (list<int64>): the
    within-sequence positions where a NEW document begins (zero-length
    docs excluded) — what a trainer needs to build block-diagonal
    attention masks over packed rows. Position 0 appears only when a
    document truly starts there; otherwise the row opens mid-document."""
    bases_ref = ray.put(plan_bucket_bases(tokens_ds, bucket_shift))

    def add_bucket(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array((ids >> bucket_shift).astype(np.int64))
        )

    def split_group(group: pa.Table) -> pa.Table:
        bases = ray.get(bases_ref)
        src = group["source"][0].as_py()
        bucket = int(group["bucket"][0].as_py())
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        tbl = group.take(pa.array(order))
        values, off = _tokens_np(tbl)
        total = int(off[-1])
        if total == 0:
            cols0 = {
                "source": pa.array([], type=pa.string()),
                "seq_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "part": pa.array([], type=pa.list_(pa.int32())),
            }
            if with_segments:
                cols0["dstarts"] = pa.array([], type=pa.list_(pa.int64()))
            return pa.table(cols0)
        base = bases[(src, bucket)]
        pos0 = base  # docs are consecutive → the flat stream is contiguous
        chunk = (pos0 + np.arange(total, dtype=np.int64)) // seq_len
        bounds = np.flatnonzero(np.diff(chunk)) + 1
        po = np.concatenate(([0], bounds, [total])).astype(np.int64)
        part = pa.ListArray.from_arrays(
            pa.array(po, type=pa.int64()).cast(pa.int32())
            if total < 2**31
            else pa.array(po, type=pa.int64()),
            pa.array(values, type=pa.int32()),
        )
        cols = {
            "source": pa.array([src] * (len(po) - 1), type=pa.string()),
            "seq_id": pa.array(chunk[po[:-1]], type=pa.int64()),
            "pos": pa.array(pos0 + po[:-1], type=pa.int64()),
            "part": part,
        }
        if with_segments:
            # GLOBAL start position of each non-empty doc, grouped into
            # the part (chunk slice) that contains it
            dstarts = off[:-1][np.diff(off) > 0].astype(np.int64)
            pi = np.searchsorted(po, dstarts, side="right") - 1
            cnt = np.bincount(pi, minlength=len(po) - 1).astype(np.int64)
            so = np.zeros(len(po), dtype=np.int64)
            np.cumsum(cnt, out=so[1:])
            cols["dstarts"] = pa.ListArray.from_arrays(
                pa.array(so.astype(np.int32), type=pa.int32()),
                pa.array(pos0 + dstarts, type=pa.int64()),
            )
        return pa.table(cols)

    def stitch_group(group: pa.Table) -> pa.Table:
        pos = group["pos"].to_numpy(zero_copy_only=False)
        order = np.argsort(pos, kind="stable")
        tbl = group.take(pa.array(order))
        values, _ = _tokens_np(tbl, col="part")
        n = len(values)
        toks = pa.ListArray.from_arrays(
            pa.array([0, n], type=pa.int32()),
            pa.array(values, type=pa.int32()),
        )
        out = {
            "source": tbl["source"].slice(0, 1),
            "seq_id": tbl["seq_id"].slice(0, 1),
            "tokens": toks,
            "n_tok": pa.array([n], type=pa.int64()),
        }
        if with_segments:
            ds_col = tbl["dstarts"]
            if isinstance(ds_col, pa.ChunkedArray):
                ds_col = ds_col.combine_chunks()
            g = ds_col.flatten().to_numpy(zero_copy_only=False)
            rel = np.sort(g) - int(tbl["seq_id"][0].as_py()) * seq_len
            out["seg_starts"] = pa.ListArray.from_arrays(
                pa.array([0, len(rel)], type=pa.int32()),
                pa.array(rel, type=pa.int64()),
            )
        return pa.table(out)

    parts = (
        tokens_ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(["source", "bucket"])
        .map_groups(split_group, batch_format="pyarrow")
    )
    return parts.groupby(["source", "seq_id"]).map_groups(
        stitch_group, batch_format="pyarrow"
    )
