"""Joins. (The reference has no joins — SURVEY.md §2.5; this is the
training-pipeline extension.)

``broadcast_hash_join`` / ``count_lookup`` — the join shape a 100 TB
pipeline can afford freely: the SMALL side is put in the object store ONCE
(``ray.put``) and each ``map_batches`` task reads it zero-copy from its
node's plasma store; the big side streams, nothing shuffles.

``shuffle_hash_join`` — big ⋈ big: both sides are projected onto one
unified schema, tagged, and hash-BUCKETED on the key (multiplicative
hash, so sequential keys spread) into ``n_buckets`` groups; ONE shuffle
co-partitions them and each bucket joins with a vectorized sort +
searchsorted range expansion — never a per-key Python loop, never a
driver-side materialization. ``n_buckets`` bounds per-task memory: size
it so (|left| + |right|) / n_buckets fits a worker's heap.

Kernels are Arrow/NumPy end to end: the small side is sorted by key once on
the driver; each batch probes it with ``np.searchsorted`` and appends the
matching small-side rows via ``pa.Table.take`` — no pandas conversion in
the streamed path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


_SIDE = "__asof_side__"


def _arrow_fields(ds: "ray.data.Dataset") -> list[tuple[str, pa.DataType]]:
    s = ds.schema()
    return list(zip(s.names, s.types))


def _project(fields, have: dict, side: int):
    """Batch fn mapping one side onto the unified schema (missing
    columns null-filled), vectorized column-at-a-time."""

    def fn(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {}
        for name, typ in fields:
            src = have.get(name)
            if src is None:
                cols[name] = pa.nulls(n, type=typ)
            else:
                c = b[src]
                cols[name] = c.cast(typ) if c.type != typ else c
        cols[_SIDE] = pa.array(np.full(n, side, dtype=np.int8))
        return pa.table(cols)

    return fn


def put_broadcast(obj):
    """Put a small-side payload in the object store ONCE (the broadcast
    half of every broadcast op here); pass-through outside a Ray session
    so kernels stay unit-testable without a cluster."""
    return ray.put(obj) if ray.is_initialized() else obj


def get_broadcast(ref):
    """Resolve a ``put_broadcast`` handle inside a task (zero-copy from
    the node's plasma store)."""
    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


def broadcast_hash_join(
    big: "ray.data.Dataset",
    small: pa.Table,
    big_key: str,
    small_key: str,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Join ``big`` (streamed) against ``small`` (broadcast pa.Table).

    ``how``: "inner" or "left" (left = keep unmatched big rows with nulls).
    Small-side columns (minus its key) are appended to big-side batches.
    Small-side keys must be UNIQUE (dimension-table contract; checked)."""
    if how not in ("inner", "left"):
        raise ValueError(how)
    keys = small[small_key].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    if len(skeys) > 1 and (skeys[1:] == skeys[:-1]).any():
        raise ValueError(
            "broadcast_hash_join: small-side keys must be unique"
        )
    stbl = small.take(pa.array(order)).drop_columns([small_key])
    ref = put_broadcast((skeys, stbl))

    def join_batch(batch: pa.Table) -> pa.Table:
        sk, st = get_broadcast(ref)
        clash = set(st.column_names) & set(batch.column_names)
        if clash:
            # checked per batch (a dataset-level schema() probe can trigger
            # execution); append_column would otherwise silently create
            # duplicate names and make later tbl[name] lookups ambiguous
            raise ValueError(
                f"broadcast_hash_join: small-side columns {sorted(clash)} "
                "collide with big-side names — rename before joining"
            )
        bk = batch[big_key].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sk, bk)
        np.minimum(idx, max(len(sk) - 1, 0), out=idx)
        found = sk[idx] == bk if len(sk) else np.zeros(len(bk), dtype=bool)
        if how == "inner":
            rows = np.flatnonzero(found)
            out = batch.take(pa.array(rows))
            picked = st.take(pa.array(idx[rows]))
        else:  # left: null small-side columns where unmatched
            out = batch
            picked = st.take(pa.array(idx.astype(np.int64), mask=~found))
        for name in picked.column_names:
            out = out.append_column(name, picked[name])
        return out

    return big.map_batches(join_batch, batch_format="pyarrow")


def count_lookup(
    big: "ray.data.Dataset",
    keys: np.ndarray,
    values: np.ndarray,
    key: str,
    out_col: str = "n",
) -> "ray.data.Dataset":
    """Append a broadcast count column (0 for missing keys) — the cheap half
    of a LEFT JOIN + GROUP BY count pattern (TPC-H Q13 shape). ``keys`` and
    ``values`` are parallel arrays (any order); probed with searchsorted —
    no per-row Python dict lookups."""
    keys = np.asarray(keys)
    values = np.asarray(values, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    ref = put_broadcast((keys[order], values[order]))

    def add(batch: pa.Table) -> pa.Table:
        sk, sv = get_broadcast(ref)
        bk = batch[key].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sk, bk)
        np.minimum(idx, max(len(sk) - 1, 0), out=idx)
        found = sk[idx] == bk if len(sk) else np.zeros(len(bk), dtype=bool)
        vals = np.where(found, sv[idx] if len(sk) else 0, 0)
        return batch.append_column(out_col, pa.array(vals, type=pa.int64()))

    return big.map_batches(add, batch_format="pyarrow")


def shuffle_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    how: str = "inner",
    n_buckets: int = 64,
    right_suffix: str = "_r",
    hot_keys=None,
    n_salt: int = 8,
) -> "ray.data.Dataset":
    """Co-partitioned hash join of two LARGE datasets on integer keys.

    Output: all left columns + every right column except its key, suffixed
    with ``right_suffix``. Many-to-many keys produce the full match
    cross-product within the key (standard join semantics). ``how`` is
    "inner", "left", "right" or "full"; outer variants coalesce the single
    key column from whichever side has it (USING-join semantics), so the
    key is never null.

    Skew: pass ``hot_keys`` (array of known-hot join keys, e.g. from a
    frequency pre-scan) to SALT them — each hot key gets ``n_salt``
    private buckets; hot LEFT rows spread round-robin across the salts
    while hot RIGHT rows are REPLICATED into every salt bucket, so one
    hot key's work parallelizes n_salt-ways instead of serializing in a
    single bucket (memory cost: |hot right rows| × n_salt)."""
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(how)
    if hot_keys is not None and how in ("right", "full"):
        # salting REPLICATES hot right rows across salt buckets; an
        # unmatched replica would be emitted once per salt
        raise ValueError("hot-key salting supports how='inner'/'left' only")
    BUCKET = "__join_bucket__"
    lf = _arrow_fields(left)
    rf = _arrow_fields(right)
    lnames = [n for n, _ in lf]
    key_type = dict(lf)[left_key]
    if not (pa.types.is_integer(key_type)):
        raise TypeError(
            f"shuffle_hash_join: integer keys only, got {key_type} "
            "(hash string keys to int64 upstream)"
        )
    fields = list(lf)
    have_l = {n: n for n in lnames}
    have_r = {left_key: right_key}
    r_out = []
    for n, t in rf:
        if n == right_key:
            continue
        out = n + right_suffix
        if out in lnames:
            raise ValueError(
                f"right column {n!r} suffixed to {out!r} collides with a "
                "left column; pass a different right_suffix"
            )
        fields.append((out, t))
        have_r[out] = n
        r_out.append(out)
    out_schema = pa.schema(fields)

    hot_sorted = (
        np.sort(np.unique(np.asarray(hot_keys)))
        if hot_keys is not None and len(hot_keys)
        else None
    )

    def bucketed(fn, side):
        def wrap(b: pa.Table) -> pa.Table:
            t = fn(b)
            kk = t[left_key].to_numpy(zero_copy_only=False)
            h = (kk.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> (
                np.uint64(32)
            )
            bucket = (h % np.uint64(n_buckets)).astype(np.int64)
            if hot_sorted is None:
                return t.append_column(BUCKET, pa.array(bucket))
            hi = np.searchsorted(hot_sorted, kk)
            np.minimum(hi, len(hot_sorted) - 1, out=hi)
            is_hot = hot_sorted[hi] == kk
            if side == 0:
                # split hot probe rows round-robin across the salts
                salt = np.arange(len(kk), dtype=np.int64) % n_salt
                bucket[is_hot] = (
                    n_buckets + hi[is_hot] * n_salt + salt[is_hot]
                )
                return t.append_column(BUCKET, pa.array(bucket))
            # build side: replicate each hot row into every salt bucket
            cold = t.filter(pa.array(~is_hot)).append_column(
                BUCKET, pa.array(bucket[~is_hot])
            )
            nh = int(is_hot.sum())
            if nh == 0:
                return cold
            rep = t.take(
                pa.array(np.repeat(np.flatnonzero(is_hot), n_salt))
            )
            rep_bucket = (
                n_buckets
                + np.repeat(hi[is_hot], n_salt) * n_salt
                + np.tile(np.arange(n_salt, dtype=np.int64), nh)
            )
            rep = rep.append_column(BUCKET, pa.array(rep_bucket))
            return pa.concat_tables([cold, rep])

        return wrap

    both = left.map_batches(
        bucketed(_project(fields, have_l, 0), 0), batch_format="pyarrow"
    ).union(
        right.map_batches(
            bucketed(_project(fields, have_r, 1), 1), batch_format="pyarrow"
        )
    )

    keep_left = how in ("left", "full")  # unmatched LEFT rows survive
    keep_right = how in ("right", "full")  # unmatched RIGHT rows survive

    def _right_only(rt: pa.Table, idx: np.ndarray) -> pa.Table:
        """Unmatched right rows: null left columns, key coalesced from the
        right side (USING-join semantics — the single key column is never
        null)."""
        sub = rt.take(pa.array(idx))
        cols = {}
        for n in lnames:
            cols[n] = (
                sub[left_key]
                if n == left_key
                else pa.nulls(sub.num_rows, type=out_schema.field(n).type)
            )
        for n in r_out:
            cols[n] = sub[n]
        return pa.table(cols, schema=out_schema)

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g[_SIDE].to_numpy(zero_copy_only=False)
        lt = g.filter(pa.array(side == 0)).select(out_schema.names)
        rt = g.filter(pa.array(side == 1)).select(out_schema.names)
        parts = []
        if lt.num_rows == 0:
            if keep_right and rt.num_rows:
                return _right_only(rt, np.arange(rt.num_rows))
            return out_schema.empty_table()
        if rt.num_rows == 0:
            if not keep_left:
                return out_schema.empty_table()
            cols = {n: lt[n] for n in lnames}
            for n in r_out:
                cols[n] = pa.nulls(
                    lt.num_rows, type=out_schema.field(n).type
                )
            return pa.table(cols, schema=out_schema)
        lk = lt[left_key].to_numpy(zero_copy_only=False)
        rk = rt[left_key].to_numpy(zero_copy_only=False)
        order = np.argsort(rk, kind="stable")
        rks = rk[order]
        lo = np.searchsorted(rks, lk, side="left")
        hi = np.searchsorted(rks, lk, side="right")
        cnt = hi - lo
        # unmatched left rows survive with one null right row
        eff = np.maximum(cnt, 1) if keep_left else cnt
        total = int(eff.sum())
        if total:
            cum = np.zeros(len(eff) + 1, dtype=np.int64)
            np.cumsum(eff, out=cum[1:])
            l_idx = np.repeat(np.arange(len(lk), dtype=np.int64), eff)
            # position within each left row's match run
            pos = np.arange(total, dtype=np.int64) - cum[l_idx]
            r_idx = order[
                np.minimum(lo[l_idx] + pos, len(rks) - 1 if len(rks) else 0)
            ]
            matched = np.repeat(cnt > 0, eff)
            out_l = lt.take(pa.array(l_idx))
            r_take = (
                pa.array(r_idx, mask=~matched)
                if keep_left
                else pa.array(r_idx)
            )
            cols = {n: out_l[n] for n in lnames}
            for n in r_out:
                cols[n] = rt[n].take(r_take)
            parts.append(pa.table(cols, schema=out_schema))
        if keep_right:
            lks = np.sort(lk)
            rpos = np.searchsorted(lks, rk)
            np.minimum(rpos, len(lks) - 1, out=rpos)
            un = np.flatnonzero(lks[rpos] != rk)
            if un.size:
                parts.append(_right_only(rt, un))
        if not parts:
            return out_schema.empty_table()
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return both.groupby(BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def broadcast_semi_join(
    big: "ray.data.Dataset",
    keys: np.ndarray,
    key: str,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Semi-join (keep big rows whose key is in the broadcast set) or
    anti-join (``anti=True``: keep rows whose key is NOT). The key set is
    sorted once, shipped via ``ray.put``, probed per batch with
    searchsorted — the big side streams, nothing shuffles. The set must
    fit in worker memory (distinct-keys contract; build it with a
    distinct aggregate upstream)."""
    sk = np.unique(np.asarray(keys))
    ref = put_broadcast(sk)

    def filt(batch: pa.Table) -> pa.Table:
        s = get_broadcast(ref)
        bk = batch[key].to_numpy(zero_copy_only=False)
        if len(s) == 0:
            found = np.zeros(len(bk), dtype=bool)
        else:
            idx = np.searchsorted(s, bk)
            np.minimum(idx, len(s) - 1, out=idx)
            found = s[idx] == bk
        return batch.filter(pa.array(~found if anti else found))

    return big.map_batches(filt, batch_format="pyarrow")
