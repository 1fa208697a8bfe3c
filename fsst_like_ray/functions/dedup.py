"""Deduplication operators for training-data pipelines.

Every variant follows the same scale pattern: a cheap vectorized per-batch
signature stage (map_batches), ONE hash-partitioned shuffle (groupby on the
signature/bucket key), and per-group resolution — never an all-pairs compare
across partitions. Keep-rule everywhere: the smallest doc_id in a duplicate
group survives (deterministic).

- exact:        64-bit content hash → groupby → min doc_id (collision-checked)
- minhash-LSH:  char-shingle minhash signatures → banded buckets → verified
                Jaccard vs the group's keeper
- simhash:      64-bit weighted word-hash fingerprint → 4×16-bit band buckets
                (Hamming ≤3 ⇒ some band equal) → verified Hamming distance
- n-gram Jaccard: exact (bottom-k-sketched) shingle-set Jaccard inside
                minhash-LSH candidate buckets
- embedding:    random-hyperplane LSH over unit vectors → verified cosine
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..buffers import string_buffers

_PRIME = np.uint64(0x9E3779B97F4A7C15)
MAX_WORD_HASH_BYTES = 64  # simhash word-hash prefix cap (see simhash_batch)


def _shingle_hashes(batch: pa.Table, text_col: str, k: int = 5):
    """Per-row sets of k-byte shingle hashes (values, offsets), vectorized."""
    from ..fsstlib import _grams8

    data, offsets = string_buffers(batch[text_col])
    g8 = _grams8(data)
    mask = np.uint64((1 << (8 * k)) - 1)
    with np.errstate(over="ignore"):
        g = (g8 & mask) * _PRIME
    counts = np.diff(offsets)
    # shingles must not cross row boundaries: a row's valid shingle
    # positions are its first max(count-k+1, 1) bytes — neutralize the rest
    # so min-reduction ignores them (signatures depend only on the row)
    with np.errstate(over="ignore"):
        # a row SHORTER than k keeps one gram, but the raw 8-byte gram at its
        # start spills into the next row's bytes — re-mask it to the row's
        # own length so identical short docs hash identically
        short = (counts > 0) & (counts < k)
        if short.any():
            masks = (np.uint64(1) << (np.uint64(8) * np.arange(
                k, dtype=np.uint64
            ))) - np.uint64(1)
            sp = offsets[:-1][short]
            g[sp] = (g8[sp] & masks[counts[short]]) * _PRIME
    valid_counts = np.where(counts > 0, np.maximum(counts - k + 1, 1), 0)
    tails = counts - valid_counts
    tot = int(tails.sum())
    bad = np.zeros(0, dtype=np.int64)
    if tot:
        wi = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(tails) - tails, tails
        )
        bad = np.repeat(offsets[:-1] + valid_counts, tails) + wi
    return g, offsets, counts, valid_counts, bad


def minhash_signature_batch(
    batch: pa.Table, text_col: str = "text", num_hashes: int = 32, shingle: int = 5
) -> pa.Table:
    """(doc_id, sig: fixed list<uint64>) minhash signatures.

    One-permutation hashing (Li/Owen/Zhang NIPS'12): ONE pass over the
    shingle hashes — a fixed-point range partition of the hash space picks a
    bin (any ``num_hashes``), each bin keeps its min — instead of
    ``num_hashes`` independent (a·x+b) passes; empty bins are
    filled by rotation densification (Shrivastava/Li ICML'14) so sparse rows
    still get full signatures. ~5× less memory traffic per batch, and the
    estimator stays unbiased."""
    g, offsets, counts, valid_counts, bad = _shingle_hashes(batch, text_col, shingle)
    n_rows = len(counts)
    B = num_hashes
    MAX = np.iinfo(np.uint64).max
    sig = np.full(n_rows * B, MAX, dtype=np.uint64)
    if len(g) and n_rows:
        if bad.size:
            g = g.copy()
            g[bad] = MAX  # never beats a real min; a bad-only bin densifies
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        # fixed-point range partition works for ANY B (not just powers of
        # two): bin = floor(top32(h) * B / 2^32), uniform in 0..B-1
        bins = (
            ((g >> np.uint64(32)) * np.uint64(B)) >> np.uint64(32)
        ).astype(np.int64)
        key = rows * B + bins
        np.minimum.at(sig, key, g)
    sig = sig.reshape(n_rows, B)
    # rotation densification: an empty bin borrows the value of the nearest
    # filled bin to its right (circular), offset by the distance so borrowed
    # values from different distances don't spuriously collide. Rows with no
    # shingles at all stay all-MAX (the legacy "empty row" signature).
    base = sig.copy()
    need = (sig == MAX) & (valid_counts > 0)[:, None]
    with np.errstate(over="ignore"):
        for j in range(1, B):
            if not need.any():
                break
            cand = np.roll(base, -j, axis=1)
            ok = need & (cand != MAX)
            sig[ok] = cand[ok] + np.uint64(j) * _PRIME
            need &= ~ok
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.reshape(-1).astype(np.uint64)), B
            ),
        }
    )


def lsh_band_rows(
    batch: pa.Table, bands: int = 8
) -> pa.Table:
    """Explode signatures into (band, band_hash, doc_id, sig) rows — the
    shuffle key for candidate buckets."""
    sig_col = batch["sig"]
    if isinstance(sig_col, pa.ChunkedArray):
        sig_col = sig_col.combine_chunks()
    n, k = len(sig_col), sig_col.type.list_size
    sig = np.asarray(sig_col.values.to_numpy(zero_copy_only=False)).reshape(n, k)
    r = k // bands
    out = []
    with np.errstate(over="ignore"):
        band_hash = np.zeros((n, bands), dtype=np.uint64)
        for b_i in range(bands):
            h = np.uint64(1469598103934665603)
            for j in range(b_i * r, (b_i + 1) * r):
                h = (h ^ sig[:, j]) * _PRIME
            band_hash[:, b_i] = h
    doc_rep = np.repeat(np.arange(n), bands)
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(bands), n).astype(np.int32)),
            # int64 bit-view: uint64 > 2^63-1 falls back to pickled python
            # objects in groupby outputs — same bits, arrow-native key
            "band_hash": pa.array(band_hash.reshape(-1).view(np.int64)),
            "doc_id": batch["doc_id"].take(pa.array(doc_rep)),
            "sig": sig_col.take(pa.array(doc_rep)),
        }
    )


DRIVER_CAP_ROWS = 2_000_000
DRIVER_CAP_BYTES = 256 << 20
# above this many duplicate-bucket keys, the hot-key set is never
# collected to the driver — members are semi-joined to it in a shuffle
# (resolve_hot_buckets no-broadcast path). 2M folded keys = 16 MB.
HOT_KEY_BROADCAST_CAP = 2_000_000


def _unique_id_dataset(ids, id_type, col: str):
    """Typed Dataset of sorted unique ids from a driver-side array."""
    import ray.data

    u = np.unique(np.asarray(ids))
    return ray.data.from_arrow(pa.table({col: pa.array(u, type=id_type)}))


# duplicate buckets with at least this many members get salted join
# buckets in the distributed resolve (keeper row replicated per salt,
# members spread round-robin) so one monster key parallelizes instead of
# serializing on a single worker
SALT_MIN_MEMBERS = 65_536


def _resolve_distributed(
    survivors,
    key_cols: list[str],
    id_col: str,
    resolve_fn,
    resolve_block,
    fold_fn,
    emit_block=None,
    out_schema: "pa.Schema | None" = None,
):
    """Skew-proof distributed resolve of hot-bucket members (the path that
    runs when candidates exceed the driver caps). The old formulation —
    ``groupby(key).map_groups(resolve_fn)`` — moves EVERY member of a key
    into one task and pays per-group Python: a single key with millions of
    members serializes on one worker. This formulation never groups:

    1. keeper id per bucket = ONE vectorized hash aggregate
       (``groupby(fold).aggregate(Min(id))`` — per-block partials, no
       per-group Python); folds where Min≠Max of any exact key column are
       COLLIDED (two exact keys folded together, ~2^-64 likely) and route
       through the exact per-group path as a tiny remnant, so fold
       collisions still never merge buckets.
    2. keeper ROWS (payload) = members filtered to id == keeper_id[fold] —
       a broadcast lookup under ``HOT_KEY_BROADCAST_CAP`` folds, else one
       co-partitioned join that attaches keeper ids first.
    3. each member meets exactly its keeper's payload through ONE
       co-partitioned ``shuffle_hash_join`` (build side = 1 row/key); keys
       with ≥ ``SALT_MIN_MEMBERS`` members are SALTED — the keeper row is
       replicated per salt bucket and members spread round-robin, so the
       shuffle moves each member once and no task ever holds a whole
       monster group.
    4. the verify kernel is ``resolve_block`` per OUTPUT BATCH (member row
       beside its keeper payload) — vectorized, memory ∝ batch size.

    ``emit_block`` generalizes the output shape: called as
    ``emit_block(tbl, members, keepers) -> pa.Table`` with ``out_schema``
    naming the result columns (e.g. (u, v) star pairs for the
    cluster-dedup edge stream); the collided remnant then uses
    ``resolve_fn``'s own output schema unchanged.

    Falls back to the per-group path when the caller has no vectorized
    ``resolve_block``/``emit_block``."""
    import ray.data
    from ray.data.aggregate import Count, Max, Min

    from .join import get_broadcast, put_broadcast, shuffle_hash_join

    if resolve_block is None and emit_block is None:
        return survivors.groupby(key_cols).map_groups(
            resolve_fn, batch_format="pandas"
        )

    FOLD = "__fold__"
    KP = "_kp"

    def add_fold(b: pa.Table) -> pa.Table:
        f = fold_fn(
            [b[k].to_numpy(zero_copy_only=False) for k in key_cols]
        ).view(np.int64)
        return b.append_column(FOLD, pa.array(f, type=pa.int64()))

    # consumed by the aggregate, the keeper extraction and the join probe —
    # pin the (duplicate-bucket members only) rows once instead of
    # recomputing the upstream pipeline three times
    folded = survivors.map_batches(
        add_fold, batch_format="pyarrow"
    ).materialize()
    schema = folded.schema()
    orig_cols = [n for n in schema.names if n != FOLD]
    id_type = dict(zip(schema.names, schema.types))[id_col] or pa.int64()
    if emit_block is None:
        out_schema = pa.schema([(id_col, id_type)])

        def emit_block(tbl, members, keepers):
            return pa.table(
                {
                    id_col: pa.array(
                        np.asarray(resolve_block(tbl, members, keepers)),
                        type=id_type,
                    )
                }
            )

        recast_collided = True
    else:
        recast_collided = False
    empty_out = out_schema.empty_table()

    aggs = [Min(id_col, alias_name="__kid__"), Count(alias_name="__cnt__")]
    for i, k in enumerate(key_cols):
        aggs.append(Min(k, alias_name=f"__kmin{i}__"))
        aggs.append(Max(k, alias_name=f"__kmax{i}__"))
    agg = folded.groupby(FOLD).aggregate(*aggs).materialize()

    def _fold_subset(predicate) -> np.ndarray:
        """Distributed filter of the per-fold aggregate → SMALL driver-side
        sorted fold array (the filter runs in tasks; only survivors land)."""
        sub = agg.map_batches(
            lambda b: b.filter(pa.array(predicate(b))).select([FOLD]),
            batch_format="pyarrow",
        )
        vals = [r[FOLD] for r in sub.take_all()]
        return np.sort(np.array(vals, dtype=np.int64))

    def _is_collided(b: pa.Table) -> np.ndarray:
        m = np.zeros(b.num_rows, dtype=bool)
        for i in range(len(key_cols)):
            m |= b[f"__kmin{i}__"].to_numpy(
                zero_copy_only=False
            ) != b[f"__kmax{i}__"].to_numpy(zero_copy_only=False)
        return m

    collided = _fold_subset(_is_collided)
    salt_folds = _fold_subset(
        lambda b: (
            b["__cnt__"].to_numpy(zero_copy_only=False) >= SALT_MIN_MEMBERS
        )
        & ~_is_collided(b)
    )

    def _member_of(folds_sorted: np.ndarray):
        def mask(b: pa.Table) -> np.ndarray:
            if folds_sorted.size == 0 or b.num_rows == 0:
                return np.zeros(b.num_rows, dtype=bool)
            f = b[FOLD].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(folds_sorted, f)
            np.minimum(idx, folds_sorted.size - 1, out=idx)
            return folds_sorted[idx] == f

        return mask

    in_coll = _member_of(collided)
    probe = folded
    if collided.size:
        probe = probe.map_batches(
            lambda b: b.filter(pa.array(~in_coll(b))),
            batch_format="pyarrow",
        )

    # keeper rows: the ONE member per (non-collided) fold whose id is the
    # fold's Min(id)
    n_folds = agg.count()
    if n_folds <= HOT_KEY_BROADCAST_CAP:
        parts_f, parts_k = [], []
        for b in agg.select_columns([FOLD, "__kid__"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"
        ):
            if b.num_rows:
                parts_f.append(b[FOLD].to_numpy(zero_copy_only=False))
                parts_k.append(b["__kid__"].to_numpy(zero_copy_only=False))
        folds_arr = (
            np.concatenate(parts_f)
            if parts_f
            else np.zeros(0, dtype=np.int64)
        )
        kids_arr = (
            np.concatenate(parts_k) if parts_k else np.zeros(0, dtype=np.int64)
        )
        order = np.argsort(folds_arr, kind="stable")
        kref = put_broadcast((folds_arr[order], kids_arr[order]))

        def is_keeper(b: pa.Table) -> pa.Table:
            fs, ks = get_broadcast(kref)
            if fs.size == 0 or b.num_rows == 0:
                return b.slice(0, 0)
            f = b[FOLD].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(fs, f)
            np.minimum(idx, fs.size - 1, out=idx)
            m = (fs[idx] == f) & (
                ks[idx] == b[id_col].to_numpy(zero_copy_only=False)
            )
            if collided.size:
                m &= ~in_coll(b)
            return b.filter(pa.array(m))

        keeper_rows = folded.map_batches(is_keeper, batch_format="pyarrow")
    else:
        # the fold→keeper map itself is too large to broadcast: attach the
        # keeper id to every member through the co-partitioned join, then
        # filter — stays distributed at any duplication rate
        kid_ds = agg.map_batches(
            lambda b: b.select([FOLD, "__kid__"]), batch_format="pyarrow"
        )
        tagged = shuffle_hash_join(
            probe, kid_ds, FOLD, FOLD, how="inner", right_suffix="_m"
        )

        def pick_keeper(b: pa.Table) -> pa.Table:
            m = b[id_col].to_numpy(zero_copy_only=False) == b[
                "__kid___m"
            ].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(m)).drop_columns(["__kid___m"])

        keeper_rows = tagged.map_batches(pick_keeper, batch_format="pyarrow")

    joined = shuffle_hash_join(
        probe,
        keeper_rows,
        FOLD,
        FOLD,
        how="inner",
        right_suffix=KP,
        hot_keys=salt_folds if salt_folds.size else None,
    )

    def resolve_batch(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty_out
        ids = b[id_col].to_numpy(zero_copy_only=False)
        kids = b[id_col + KP].to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(ids != kids))  # keepers never report
        if sub.num_rows == 0:
            return empty_out
        mpart = sub.select(orig_cols)
        kpart = sub.select([c + KP for c in orig_cols]).rename_columns(
            orig_cols
        )
        tbl = pa.concat_tables([mpart, kpart])
        n = mpart.num_rows
        return emit_block(tbl, np.arange(n), np.arange(n) + n)

    result = joined.map_batches(resolve_batch, batch_format="pyarrow")

    if collided.size:
        coll_members = folded.map_batches(
            lambda b: b.filter(pa.array(in_coll(b))).drop_columns([FOLD]),
            batch_format="pyarrow",
        )
        coll_out = coll_members.groupby(key_cols).map_groups(
            resolve_fn, batch_format="pandas"
        )
        if recast_collided:
            coll_out = coll_out.map_batches(
                lambda b: pa.table({id_col: b[id_col].cast(id_type)}),
                batch_format="pyarrow",
            )
        result = result.union(coll_out)
    return result


def _members_keepers(
    order: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """From sorted group segmentation → parallel (member_idx, keeper_idx)
    original-row index arrays, one entry per non-keeper group member. The
    keeper is the group's first sorted row (sort keys must end with the id
    column so 'first' = smallest id)."""
    sizes = np.diff(bounds)
    keeper = np.repeat(order[bounds[:-1]], sizes)
    members_mask = np.ones(len(order), dtype=bool)
    members_mask[bounds[:-1]] = False
    return order[members_mask], keeper[members_mask]


def resolve_hot_buckets(
    exploded,
    key_cols: list[str],
    resolve_fn,
    prefilter: bool = True,
    materialize: bool = False,
    unique_col: str | None = None,
    resolve_block=None,
):
    """groupby(key).map_groups pays Python overhead for EVERY bucket, and at
    scale nearly all buckets have one member. Prefilter: a tiny
    groupby-count finds buckets with ≥2 members, their keys broadcast once
    (``ray.put``) and membership-checked vectorized inside ``map_batches`` —
    only real candidate buckets ever reach the per-group Python resolver.

    When the surviving candidate rows are SMALL (≤ DRIVER_CAP_ROWS /
    DRIVER_CAP_BYTES — survivors are hot-bucket members only, bounded by the
    duplicate rate, not by data size), groups are resolved on the driver
    with one argsort instead of paying a full groupby shuffle; above the
    caps :func:`_resolve_distributed` runs — keeper via one vectorized
    Min-per-fold aggregate, keeper payload attached through a salted
    co-partitioned join, verification per output batch — so no task ever
    holds a whole duplicate group (a monster key parallelizes across its
    salt buckets).

    ``unique_col``: when set, the output is deduplicated to unique values of
    that column (a doc caught in several buckets reports once) — driver-side
    ``np.unique`` on the small path, ``groupby(col)`` on the shuffle path.

    The HOT key set — duplicate buckets only, not all buckets — is usually
    orders of magnitude smaller than the data and broadcasts via ``ray.put``;
    when it exceeds ``HOT_KEY_BROADCAST_CAP`` it is never collected: members
    semi-join to the hot keys through the co-partitioned shuffle join and
    resolve in the distributed groupby (no driver bottleneck at any
    duplication rate). Pass ``prefilter=False`` to keep the pure-shuffle
    path."""
    import ray
    import ray.data
    from ray.data.aggregate import Count

    def _maybe_unique(out_ds):
        if unique_col is None:
            return out_ds
        return (
            out_ds.groupby(unique_col).count().select_columns([unique_col])
        )

    if not prefilter:
        return _maybe_unique(
            exploded.groupby(key_cols).map_groups(
                resolve_fn, batch_format="pandas"
            )
        )

    if materialize:
        # the prefilter consumes `exploded` twice (count + survivors); when
        # the upstream stage is expensive (minhash signatures), pin its small
        # output (signatures ≈ 0.3% of the text bytes) instead of recomputing
        exploded = exploded.materialize()

    def fold(cols) -> np.ndarray:
        """Vectorized uint64 fold of the key columns (a fold collision can
        only merge buckets, adding verified comparisons — never false dups)."""
        with np.errstate(over="ignore"):
            acc = cols[0].astype(np.uint64)
            for c in cols[1:]:
                acc = (acc * _PRIME) ^ c.astype(np.uint64)
        return acc

    n_keys = exploded.count() if materialize else None
    if n_keys is not None and n_keys <= 2_000_000:
        # small key set: stream ONLY the folded 8-byte keys to the driver
        # (≤16 MB) and find duplicates with one sort — skips the
        # groupby-count shuffle entirely. Above the cap, the distributed
        # count path below is the scale-right route.
        parts = [
            fold([b[k].to_numpy(zero_copy_only=False) for k in key_cols])
            for b in exploded.select_columns(key_cols).iter_batches(
                batch_size=65536, batch_format="pyarrow"
            )
            if b.num_rows
        ]
        keys = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)
        )
        ks = np.sort(keys)
        dup = ks[1:][ks[1:] == ks[:-1]]
        hot_sorted = np.unique(dup)
        # exact hot-bucket member count: occurrences of each hot key in the
        # sorted key stream (replaces the old ~16-members-per-bucket guess,
        # which on large duplicate groups collected up to the cap, discarded
        # the prefix, and recomputed through the distributed path)
        member_total = int(
            (
                np.searchsorted(ks, hot_sorted, side="right")
                - np.searchsorted(ks, hot_sorted, side="left")
            ).sum()
        )
    else:
        counts = exploded.groupby(key_cols).aggregate(Count(alias_name="cnt"))
        hot = counts.filter(expr="cnt >= 2").select_columns(key_cols + ["cnt"])
        if hot.count() > HOT_KEY_BROADCAST_CAP:
            # the hot-key SET itself is too large to collect/broadcast
            # (100 TB with high duplication: GBs of keys). Keep it
            # distributed: semi-join members to hot keys on the folded
            # 8-byte key through the co-partitioned shuffle join, then
            # resolve in the exact-key groupby as usual. A fold collision
            # only admits extra members, which the exact-key grouping
            # separates again.
            from .join import shuffle_hash_join

            FOLD = "__hot_fold__"

            def add_fold(b: pa.Table) -> pa.Table:
                f = fold(
                    [b[k].to_numpy(zero_copy_only=False) for k in key_cols]
                ).view(np.int64)
                return b.append_column(FOLD, pa.array(f, type=pa.int64()))

            hot_folds = (
                hot.map_batches(
                    lambda b: add_fold(b).select([FOLD]),
                    batch_format="pyarrow",
                )
                .groupby(FOLD)
                .count()
                .select_columns([FOLD])  # unique folds: the join stays 1:1
            )
            members = shuffle_hash_join(
                exploded.map_batches(add_fold, batch_format="pyarrow"),
                hot_folds,
                FOLD,
                FOLD,
                how="inner",
            ).drop_columns([FOLD])
            return _maybe_unique(
                _resolve_distributed(
                    members,
                    key_cols,
                    unique_col or "doc_id",
                    resolve_fn,
                    resolve_block,
                    fold,
                )
            )
        hot_tbl = hot.take_all()
        member_total = sum(int(r["cnt"]) for r in hot_tbl)
        # int64 first, then bit-view: keys are stored as int64 bit-views and
        # a direct uint64 conversion of negative values is a NumPy hard error
        # in the future (DeprecationWarning today)
        hot_sorted = np.sort(
            fold(
                [
                    np.array([r[k] for r in hot_tbl], dtype=np.int64).view(
                        np.uint64
                    )
                    for k in key_cols
                ]
            )
        ) if hot_tbl else np.zeros(0, dtype=np.uint64)
    id_col = unique_col or "doc_id"
    schema = exploded.schema()  # ray Schema wrapper: parallel names/types
    id_type = (
        dict(zip(schema.names, schema.types)).get(id_col) or pa.int64()
    )
    if hot_sorted.size == 0:
        return ray.data.from_arrow(pa.table({id_col: pa.array([], type=id_type)}))
    hot_ref = ray.put(hot_sorted)

    def member_filter(b: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
        keys = fold([b[k].to_numpy(zero_copy_only=False) for k in key_cols])
        idx = np.searchsorted(hs, keys)
        np.minimum(idx, len(hs) - 1, out=idx)
        return b.filter(pa.array(hs[idx] == keys))

    survivors = exploded.map_batches(member_filter, batch_format="pyarrow")

    # small-survivor fast path: stream candidate rows to the driver under
    # hard caps; one lexsort resolves every bucket without a groupby shuffle.
    # Gated on the EXACT member count computed above, so an oversized
    # duplicate set routes straight to the distributed path without first
    # collecting-and-discarding a prefix; the byte cap below remains as the
    # row-width safety net
    if member_total <= DRIVER_CAP_ROWS:
        parts, rows_n, bytes_n, overflow = [], 0, 0, False
        for b in survivors.iter_batches(
            batch_size=65536, batch_format="pyarrow"
        ):
            if b.num_rows == 0:
                continue
            parts.append(b)
            rows_n += b.num_rows
            bytes_n += b.nbytes
            if rows_n > DRIVER_CAP_ROWS or bytes_n > DRIVER_CAP_BYTES:
                overflow = True
                break
        if not overflow:
            if not parts:
                return ray.data.from_arrow(
                    pa.table({id_col: pa.array([], type=id_type)})
                )
            tbl = pa.concat_tables(parts)
            # group by the EXACT key tuple (lexsort), not the folded key — a
            # fold collision here would merge buckets and change keepers.
            # The id column is the sort tiebreaker so each group's first
            # sorted row is its keeper (smallest id survives).
            karrs = [
                tbl[k].to_numpy(zero_copy_only=False) for k in key_cols
            ]
            ids = tbl[id_col].to_numpy(zero_copy_only=False)
            order = np.lexsort((ids,) + tuple(reversed(karrs)))
            diff = np.zeros(len(order) - 1, dtype=bool)
            for ka in karrs:
                s = ka[order]
                diff |= s[1:] != s[:-1]
            bounds = np.concatenate(
                ([0], np.flatnonzero(diff) + 1, [len(order)])
            )
            if resolve_block is not None:
                # vectorized all-groups resolver: ONE kernel call over
                # parallel (member, keeper) row-index arrays — no per-group
                # DataFrame slicing
                members, keepers = _members_keepers(order, bounds)
                dup_ids = resolve_block(tbl, members, keepers)
            else:
                df = tbl.to_pandas()
                outs = []
                for i in range(len(bounds) - 1):
                    sub = df.iloc[order[bounds[i] : bounds[i + 1]]]
                    r = resolve_fn(sub)
                    if len(r):
                        outs.append(r)
                dup_ids = (
                    pd.concat(outs, ignore_index=True)[id_col].to_numpy()
                    if outs
                    else np.zeros(0, dtype=np.int64)
                )
            if len(dup_ids) == 0:
                return ray.data.from_arrow(
                    pa.table({id_col: pa.array([], type=id_type)})
                )
            if unique_col is not None:
                return _unique_id_dataset(dup_ids, id_type, unique_col)
            return ray.data.from_arrow(
                pa.table({id_col: pa.array(np.asarray(dup_ids), type=id_type)})
            )

    return _maybe_unique(
        _resolve_distributed(
            survivors, key_cols, id_col, resolve_fn, resolve_block, fold
        )
    )


def _fixed_list_matrix(col) -> np.ndarray:
    """(n, k) view of a fixed_size_list column (slice-offset safe)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    k = col.type.list_size
    vals = col.values.to_numpy(zero_copy_only=False)
    base = col.offset * k
    return vals[base : base + len(col) * k].reshape(len(col), k)


def _dup_pairs_in_bucket(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Within one LSH bucket: docs whose signature similarity vs the keeper
    (min doc_id) ≥ threshold are duplicates."""
    if len(g) < 2:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=g["doc_id"].dtype)})
    g = g.sort_values("doc_id")
    sigs = np.stack(g["sig"].to_numpy())
    keeper = sigs[0]
    sim = (sigs[1:] == keeper).mean(axis=1)
    dups = g["doc_id"].to_numpy()[1:][sim >= threshold]
    return pd.DataFrame({"doc_id": dups})


def _minhash_resolve_block(
    tbl: pa.Table, members: np.ndarray, keepers: np.ndarray, threshold: float
) -> np.ndarray:
    """All-groups-at-once twin of _dup_pairs_in_bucket: one matrix compare."""
    sig = _fixed_list_matrix(tbl["sig"])
    sim = (sig[members] == sig[keepers]).mean(axis=1)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    return ids[members[sim >= threshold]]


def minhash_duplicates(
    ds, text_col: str = "text", num_hashes: int = 32, bands: int = 8,
    threshold: float = 0.7,
):
    """Dataset pipeline → Dataset of duplicate doc_ids (to drop)."""
    sigs = ds.map_batches(
        lambda b: minhash_signature_batch(b, text_col, num_hashes),
        batch_format="pyarrow",
    )
    exploded = sigs.map_batches(
        lambda b: lsh_band_rows(b, bands), batch_format="pyarrow"
    )
    return resolve_hot_buckets(
        exploded,
        ["band", "band_hash"],
        lambda g: _dup_pairs_in_bucket(g, threshold),
        materialize=True,
        unique_col="doc_id",
        resolve_block=lambda t, m, k: _minhash_resolve_block(t, m, k, threshold),
    )


def shingle_sketch_batch(
    batch: pa.Table, text_col: str = "text", k: int = 512, shingle: int = 5
) -> pa.Table:
    """(doc_id, sketch: list<uint64>) — bottom-k sketch of the row's unique
    shingle-hash set. Bottom-k is a proper Jaccard estimator, deterministic,
    and bounds per-row memory regardless of document length."""
    g, offsets, counts, valid_counts, bad = _shingle_hashes(batch, text_col, shingle)
    MAX = np.iinfo(np.uint64).max
    if bad.size:
        g = g.copy()
        g[bad] = MAX
    n_rows = len(counts)
    # vectorized per-row sorted-unique: scatter rows into a MAX-padded
    # (n_rows, maxw) matrix, one axis-1 sort, dedupe+cap by matrix compare.
    # Long outlier rows would blow the padding up (matrix is n_rows × maxw),
    # so rows beyond a width cap take a scalar np.unique fallback — bounded
    # by the batch's skew, not its size.
    width_cap = max(4 * k, int(counts.mean()) * 4 if n_rows else 0)
    is_long = counts > width_cap
    flat_parts, len_parts = [], np.zeros(n_rows, dtype=np.int64)
    norm = ~is_long
    if norm.any():
        nc = counts[norm]
        maxw = int(nc.max()) if len(nc) else 0
        M = np.full((int(norm.sum()), max(maxw, 1)), MAX, dtype=np.uint64)
        rows_of = np.repeat(np.arange(len(nc)), nc)
        within = np.arange(int(nc.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(nc) - nc, nc
        )
        src = np.repeat(offsets[:-1][norm], nc) + within
        M[rows_of, within] = g[src]
        M.sort(axis=1)
        uniq = np.ones_like(M, dtype=bool)
        uniq[:, 1:] = M[:, 1:] != M[:, :-1]
        uniq &= M != MAX
        rank = np.cumsum(uniq, axis=1)
        keep = uniq & (rank <= k)
        len_parts[norm] = keep.sum(axis=1)
        flat_norm = M[keep]  # row-major: preserves row grouping + ascending
    else:
        flat_norm = np.zeros(0, dtype=np.uint64)
    long_sketches = {}
    for i in np.flatnonzero(is_long):
        row = np.unique(g[offsets[i] : offsets[i] + counts[i]])
        row = row[row != MAX][:k]
        long_sketches[int(i)] = row
        len_parts[i] = len(row)
    if long_sketches:
        # interleave normal-row slices and long-row sketches in row order
        flat = np.empty(int(len_parts.sum()), dtype=np.uint64)
        off64 = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(len_parts, out=off64[1:])
        npos = 0
        for i in range(n_rows):
            L = int(len_parts[i])
            if is_long[i]:
                flat[off64[i] : off64[i] + L] = long_sketches[i]
            else:
                flat[off64[i] : off64[i] + L] = flat_norm[npos : npos + L]
                npos += L
    else:
        flat = flat_norm
    lens = len_parts
    off = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(lens, out=off[1:])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "sketch": pa.ListArray.from_arrays(
                pa.array(off, type=pa.int32()), pa.array(flat.view(np.int64))
            ),
        }
    )


def _jaccard_dups_in_bucket(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Exact bottom-k-sketch Jaccard vs the bucket keeper (min doc_id)."""
    if len(g) < 2:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=g["doc_id"].dtype)})
    g = g.sort_values("doc_id")
    keep = np.asarray(g["sketch"].iloc[0], dtype=np.int64)
    out = []
    for doc_id, sk in zip(g["doc_id"].iloc[1:], g["sketch"].iloc[1:]):
        sk = np.asarray(sk, dtype=np.int64)
        inter = np.intersect1d(keep, sk, assume_unique=True).size
        union = keep.size + sk.size - inter
        if union and inter / union >= threshold:
            out.append(doc_id)
    return pd.DataFrame({"doc_id": out})


def _jaccard_resolve_block(
    tbl: pa.Table, members: np.ndarray, keepers: np.ndarray, threshold: float
) -> np.ndarray:
    """Exact bottom-k-sketch Jaccard for every (member, keeper) candidate
    pair. Sketches are sorted (np.unique output), so intersections are
    searchsorted probes; the Python loop runs over CANDIDATE pairs only
    (hot-bucket members), not over the data."""
    sk = tbl["sketch"]
    if isinstance(sk, pa.ChunkedArray):
        sk = sk.combine_chunks()
    off = sk.offsets.to_numpy().astype(np.int64)
    base = off[0]
    # sketches are int64 BIT-VIEWS of uint64 hashes sorted in uint64 order —
    # view back to uint64 so searchsorted sees a sorted array
    vals = (
        sk.values.to_numpy(zero_copy_only=False)[base : off[-1]]
        .astype(np.int64)
        .view(np.uint64)
    )
    off = off - base
    out = []
    for mi, ki in zip(members, keepers):
        a = vals[off[mi] : off[mi + 1]]
        b = vals[off[ki] : off[ki + 1]]
        if not (a.size and b.size):
            continue
        pos = np.searchsorted(b, a)
        np.minimum(pos, b.size - 1, out=pos)
        inter = int((b[pos] == a).sum())
        union = a.size + b.size - inter
        if union and inter / union >= threshold:
            out.append(mi)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    return ids[np.asarray(out, dtype=np.int64)] if out else np.zeros(0, np.int64)


def ngram_jaccard_duplicates(
    ds, text_col: str = "text", threshold: float = 0.8,
    num_hashes: int = 32, bands: int = 8, sketch_k: int = 512,
):
    """n-gram Jaccard dedup: minhash-LSH buckets propose candidates; the
    verdict is the (bottom-k-sketched) EXACT shingle-set Jaccard — tighter
    than signature similarity. One shuffle, same hot-bucket prefilter."""

    def sig_and_sketch(b: pa.Table) -> pa.Table:
        sig = minhash_signature_batch(b, text_col, num_hashes)
        sk = shingle_sketch_batch(b, text_col, sketch_k)
        return sig.append_column("sketch", sk["sketch"])

    both = ds.map_batches(sig_and_sketch, batch_format="pyarrow")

    def explode(b: pa.Table) -> pa.Table:
        rows = lsh_band_rows(b, bands)
        n = b.num_rows
        rep = pa.array(np.repeat(np.arange(n), bands))
        sk = b["sketch"]
        if isinstance(sk, pa.ChunkedArray):
            sk = sk.combine_chunks()
        return rows.drop_columns(["sig"]).append_column("sketch", sk.take(rep))

    exploded = both.map_batches(explode, batch_format="pyarrow")
    return resolve_hot_buckets(
        exploded,
        ["band", "band_hash"],
        lambda g: _jaccard_dups_in_bucket(g, threshold),
        materialize=True,
        unique_col="doc_id",
        resolve_block=lambda t, m, k: _jaccard_resolve_block(t, m, k, threshold),
    )


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash over word hashes (vectorized bit-vote)."""
    import pyarrow.compute as pc

    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    flat = words.values
    woff = words.offsets.to_numpy().astype(np.int64)
    woff = woff - woff[0]
    # hash each word: polynomial over bytes
    data, offsets = string_buffers(flat)
    h = np.zeros(len(flat), dtype=np.uint64)
    counts = np.diff(offsets)
    with np.errstate(over="ignore"):
        # FNV over bytes, vectorized with per-word reduce via padded matrix.
        # Hash at most the first MAX_WORD_HASH_BYTES of each word: the loop
        # runs max-word-length iterations over the whole batch, so one
        # pathological unbroken "word" (a 1 MB no-space document) would
        # degenerate it to O(batch × doc_len). 64 bytes discriminates real
        # words fully; longer tokens collide only past byte 64 — and a
        # collision only ADDS a near-dup candidate, never drops one.
        maxw = int(counts.max()) if len(counts) else 0
        maxw = min(maxw, MAX_WORD_HASH_BYTES)
        acc = np.full(len(flat), np.uint64(1469598103934665603), dtype=np.uint64)
        for j in range(maxw):
            sel = counts > j
            idx = offsets[:-1][sel] + j
            acc[sel] = (acc[sel] ^ data[idx].astype(np.uint64)) * _PRIME
        h = acc
    # bit votes per row
    n_rows = batch.num_rows
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    ) * 2 - 1
    votes = np.zeros((n_rows, 64), dtype=np.int64)
    nw = np.diff(woff)
    nz = nw > 0
    if nz.any():
        votes[nz] = np.add.reduceat(bits, woff[:-1][nz], axis=0)
    fp = (votes > 0).astype(np.uint64) @ (
        np.uint64(1) << np.arange(64, dtype=np.uint64)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(fp, type=pa.uint64()),
        }
    )


def simhash_band_rows(batch: pa.Table) -> pa.Table:
    """4×16-bit bands: Hamming distance ≤3 ⇒ at least one band identical."""
    fp = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    n = len(fp)
    bands = np.stack(
        [(fp >> np.uint64(16 * i)) & np.uint64(0xFFFF) for i in range(4)], axis=1
    )
    rep = np.repeat(np.arange(n), 4)
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(4), n).astype(np.int32)),
            "band_val": pa.array(bands.reshape(-1).astype(np.int64)),
            "doc_id": batch["doc_id"].take(pa.array(rep)),
            "simhash": pa.array(np.repeat(fp, 4), type=pa.uint64()),
        }
    )


def _simhash_dups(g: pd.DataFrame, max_dist: int) -> pd.DataFrame:
    if len(g) < 2:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=g["doc_id"].dtype)})
    g = g.sort_values("doc_id")
    fps = g["simhash"].to_numpy().astype(np.uint64)
    x = fps[1:] ^ fps[0]
    dist = np.array([bin(int(v)).count("1") for v in x])
    return pd.DataFrame({"doc_id": g["doc_id"].to_numpy()[1:][dist <= max_dist]})


def _simhash_resolve_block(
    tbl: pa.Table, members: np.ndarray, keepers: np.ndarray, max_dist: int
) -> np.ndarray:
    """Vectorized Hamming distance for all candidate pairs at once."""
    fp = tbl["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    x = fp[members] ^ fp[keepers]
    dist = (
        np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
        if len(x)
        else np.zeros(0, dtype=np.int64)
    )
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    return ids[members[dist <= max_dist]]


def simhash_duplicates(ds, text_col: str = "text", max_dist: int = 3):
    fps = ds.map_batches(
        lambda b: simhash_batch(b, text_col), batch_format="pyarrow"
    )
    exploded = fps.map_batches(simhash_band_rows, batch_format="pyarrow")
    return resolve_hot_buckets(
        exploded,
        ["band", "band_val"],
        lambda g: _simhash_dups(g, max_dist),
        materialize=True,
        unique_col="doc_id",
        resolve_block=lambda t, m, k: _simhash_resolve_block(t, m, k, max_dist),
    )


def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Exact-dedup key: 64-bit polynomial hash over the text bytes — O(total
    bytes) regardless of document length (no per-character Python pass)."""
    from ..stages.verify import _poly_rowhash

    data, offsets = string_buffers(batch[text_col])
    acc = _poly_rowhash(data.astype(np.uint64), offsets)
    return batch.append_column(
        "content_hash", pa.array(acc.view(np.int64))
    )


def _verified_exact_dups(hashed, text_col: str):
    """doc_ids to DROP from a pre-hashed dataset (columns: doc_id,
    ``text_col``, content_hash): hash-partitioned shuffle on the 64-bit
    hash; ``text_col`` compared inside the group to rule out collisions."""

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=g["doc_id"].dtype)})
        g = g.sort_values("doc_id")
        keeper_text = g[text_col].iloc[0]
        dups = g.iloc[1:]
        same = dups[text_col] == keeper_text
        return pd.DataFrame({"doc_id": dups["doc_id"].to_numpy()[same.to_numpy()]})

    def resolve_block(t: pa.Table, members: np.ndarray, keepers: np.ndarray):
        import pyarrow.compute as pc

        same = pc.equal(
            t[text_col].take(pa.array(members)),
            t[text_col].take(pa.array(keepers)),
        ).to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return ids[members[same.astype(bool)]]

    return resolve_hot_buckets(
        hashed, ["content_hash"], resolve, resolve_block=resolve_block
    )


def exact_duplicates(ds, text_col: str = "text"):
    """Dataset of doc_ids to DROP (hash-partitioned shuffle on the 64-bit
    content hash; texts compared inside the group to rule out collisions)."""
    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col), batch_format="pyarrow"
    )
    return _verified_exact_dups(hashed, text_col)


def token_sequence_duplicates(ds, tokens_col: str = "tokens"):
    """Sequence-level exact dedup over the TOKENIZED table (the north-rule
    input shape: doc_id, tokens:list<int32>, ...): doc_ids to DROP because
    their int32 token sequence exactly equals a lower-id row's.

    The 64-bit key is a per-row polynomial hash computed directly on the
    token values (stages/verify._poly_rowhash — no string materialization,
    O(tokens) per batch); candidate buckets are verified on the canonical
    comma-joined rendering to rule out hash collisions. Same
    one-shuffle hot-bucket machinery as :func:`exact_duplicates`."""
    import pyarrow.compute as pc

    from ..buffers import list_buffers
    from ..stages.verify import _poly_rowhash

    def hash_batch(b: pa.Table) -> pa.Table:
        toks = b[tokens_col]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        v, o = list_buffers(toks)
        h = _poly_rowhash(v.view(np.uint32).astype(np.uint64), o)
        s = pc.binary_join(toks.cast(pa.list_(pa.string())), ",")
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "tok_str": s.cast(pa.string()),
                "content_hash": pa.array(h.view(np.int64)),
            }
        )

    hashed = ds.map_batches(hash_batch, batch_format="pyarrow")
    return _verified_exact_dups(hashed, "tok_str")


NORM_BEST_SHIFT = 1 << 40  # char_len*SHIFT + doc_id stays exact in int64
# lengths saturate here so the rank can't wrap int64 (doc_ids < 2^40):
# beyond ~8.4M chars every variant ties on length and falls back to the
# smallest-doc_id rule — still deterministic, never corrupt
NORM_BEST_LEN_CAP = (1 << 23) - 1


def normalized_best_duplicates(ds, text_col: str = "text"):
    """Drop list (real doc_ids) for NORMALIZED-text dedup that keeps the
    BEST variant of each group — shortest raw text, then smallest doc_id —
    instead of ``exact_duplicates``' smallest-id rule. Normalization strips
    outer spaces and collapses internal space runs (the canonical
    whitespace-noise near-duplicate). The keeper rule rides the existing
    hot-bucket machinery unchanged by encoding the (char_len, doc_id) sort
    tuple into the id column: ``rank = min(len, cap) * 2^40 + doc_id`` —
    the machinery's min-id keeper is then exactly min (len, doc_id).
    The id column is fixed as ``doc_id`` (exact_duplicates' contract)."""
    import pyarrow.compute as pc

    def prep(b: pa.Table) -> pa.Table:
        txt = b[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        norm = pc.replace_substring_regex(
            pc.utf8_trim(txt, " "), " +", " "
        )
        ln = pc.min_element_wise(
            pc.utf8_length(txt).cast(pa.int64()),
            pa.scalar(NORM_BEST_LEN_CAP, type=pa.int64()),
        )
        rank = pc.add(
            pc.multiply(ln, pa.scalar(NORM_BEST_SHIFT, type=pa.int64())),
            b["doc_id"].cast(pa.int64()),
        )
        return pa.table({"doc_id": rank, "norm": norm})

    enc = exact_duplicates(
        ds.map_batches(prep, batch_format="pyarrow"), text_col="norm"
    )

    def dec(b: pa.Table) -> pa.Table:
        r = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": pa.array(r % NORM_BEST_SHIFT, type=pa.int64())}
        )

    return enc.map_batches(dec, batch_format="pyarrow")


def exact_duplicate_pairs(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Edge stream for CLUSTER-building dedup: Dataset (u, v) of
    (member → identical-text-group keeper) star pairs — feed into
    ``functions.concomp.connected_components`` to get transitive duplicate
    clusters. Rides the same protected machinery as ``exact_duplicates``
    (hot-bucket prefilter; above ``HOT_KEY_BROADCAST_CAP`` the hot set is
    never collected; the resolve is the skew-proof keeper-join — a
    monster duplicate group spreads across salt buckets instead of
    serializing in one ``map_groups`` task) via the ``emit_block`` hook:
    each member row meets its hash-keeper's payload, text equality is one
    vectorized compare, and the pair (member, keeper) is emitted per
    batch. The pairing key is (content_hash, content_hash2) — the second
    an independent polynomial over the per-row REVERSED bytes — so
    distinct texts sharing one 64-bit hash still land in distinct exact
    groups (each pairs within itself: exactly the old per-TEXT grouping
    unless BOTH hashes collide simultaneously, ~2^-128); fold collisions
    fall to the exact per-text remnant."""
    import ray
    import ray.data
    from ray.data.aggregate import Count

    from ..stages.verify import _poly_rowhash
    from .join import shuffle_hash_join

    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col), batch_format="pyarrow"
    )
    counts = hashed.groupby("content_hash").aggregate(Count(alias_name="cnt"))
    hot = counts.filter(expr="cnt >= 2").select_columns(["content_hash"])

    def add_hash2(b: pa.Table) -> pa.Table:
        data, offsets = string_buffers(b[text_col])
        if len(data):
            idx = np.arange(len(data), dtype=np.int64)
            starts, ends = offsets[:-1], offsets[1:]
            row = np.searchsorted(ends, idx, side="right")
            rev = starts[row] + (ends[row] - 1 - idx)
            h2 = _poly_rowhash(data[rev].astype(np.uint64), offsets)
        else:
            h2 = np.zeros(b.num_rows, dtype=np.uint64)
        return b.append_column("content_hash2", pa.array(h2.view(np.int64)))

    def fold(cols) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (cols[0].astype(np.uint64) * _PRIME) ^ cols[1].astype(
                np.uint64
            )

    if hot.count() > HOT_KEY_BROADCAST_CAP:
        members = shuffle_hash_join(
            hashed, hot, "content_hash", "content_hash", how="inner"
        )
    else:
        hot_tbl = hot.take_all()
        if not hot_tbl:
            empty = pa.table(
                {
                    "u": pa.array([], type=pa.int64()),
                    "v": pa.array([], type=pa.int64()),
                }
            )
            return ray.data.from_arrow(empty)
        hot_sorted = np.sort(
            np.array([r["content_hash"] for r in hot_tbl], dtype=np.int64)
        )
        hot_ref = ray.put(hot_sorted)

        def member_filter(b: pa.Table) -> pa.Table:
            hs = (
                ray.get(hot_ref)
                if isinstance(hot_ref, ray.ObjectRef)
                else hot_ref
            )
            keys = b["content_hash"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(hs, keys)
            np.minimum(idx, len(hs) - 1, out=idx)
            return b.filter(pa.array(hs[idx] == keys))

        members = hashed.map_batches(member_filter, batch_format="pyarrow")

    # the second hash is computed AFTER the hot filter — only duplicate-
    # bucket members (bounded by the dup rate, not data size) pay the pass
    members = members.map_batches(add_hash2, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # collided remnant: group by exact TEXT inside the bucket (a
        # double-hash collision may mix distinct texts); each doc pairs
        # with its text group's min id
        m = g.groupby(text_col)[id_col].transform("min").to_numpy()
        ids = g[id_col].to_numpy()
        keep = ids != m
        return pd.DataFrame({"u": ids[keep], "v": m[keep]})

    def emit_pairs(tbl: pa.Table, mem: np.ndarray, kee: np.ndarray):
        import pyarrow.compute as pc

        same = pc.equal(
            tbl[text_col].take(pa.array(mem)),
            tbl[text_col].take(pa.array(kee)),
        ).to_numpy(zero_copy_only=False).astype(bool)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(ids[mem[same]], type=pa.int64()),
                "v": pa.array(ids[kee[same]], type=pa.int64()),
            }
        )

    return _resolve_distributed(
        members,
        ["content_hash", "content_hash2"],
        id_col,
        pairs,
        None,
        fold,
        emit_block=emit_pairs,
        out_schema=pa.schema([("u", pa.int64()), ("v", pa.int64())]),
    )
