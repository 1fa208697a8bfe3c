"""Exact duplicated-SPAN detection across documents.

(Training-pipeline extension — SURVEY.md §2.5. Document-level dedup
misses boilerplate: two different pages sharing one copied paragraph.
Span-level exact dedup — find k-token windows that appear verbatim in
more than one document — is the standard complement; cf. the published
"deduplicating training data" line of work, reimplemented here from the
problem statement with hashing, not suffix arrays.)

Two streaming passes, both bounded:

1. every word window of length ``k`` emits a 64-bit polynomial hash row
   (hash, doc_id, pos) — vectorized rolling evaluation over the batch's
   flattened word-hash stream, one window per word position. A tiny
   groupby-count finds HOT hashes (≥ 2 occurrences); the hot set is
   bounded by the duplication rate, broadcast once.
2. a second scan re-derives windows, keeps only hot-hash rows (searchsorted
   membership) WITH their window text, and one shuffle groups them by
   hash; inside the group the actual strings are compared (hash collisions
   can only add comparisons, never false pairs), emitting verified
   (doc_a, doc_b) pairs (doc_a < doc_b).

``sample_mod=m`` winnows pass 1 to windows whose hash ≡ 0 (mod m) — the
standard trade at 100 TB (detects spans ≥ ~m·k tokens with high
probability); exact mode is m=None.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .vocab import tokenize_rows

_B = np.uint64(0x100000001B3)  # FNV-ish odd multiplier for word combine


def stable_word_hashes(words) -> np.ndarray:
    """64-bit blake2b per word — STABLE across runs/processes (persisted
    artifacts like the posting-list index key on it; Python's builtin
    hash is salted per process and unusable here). One shared helper so
    the span hashing and the postings bucketing cannot drift apart."""
    import hashlib

    return np.array(
        [
            int.from_bytes(
                hashlib.blake2b(w.encode(), digest_size=8).digest(), "little"
            )
            for w in words
        ],
        dtype=np.uint64,
    )


def _word_hashes(values, keep, rows) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (word hash, row id) streams for a tokenized batch."""
    import pyarrow.compute as pc

    toks = values.filter(pa.array(keep))
    rr = rows[keep]
    if not len(rr):
        return np.zeros(0, dtype=np.uint64), rr
    # hash each word via Arrow's utf8 → binary view + numpy polynomial on
    # bytes is overkill; a stable 64-bit hash per distinct word via
    # dictionary encoding keeps it vectorized
    enc = toks.dictionary_encode()
    hv = stable_word_hashes(enc.dictionary.to_pylist())
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return hv[idx], rr


def _window_rows(batch: pa.Table, text_col: str, k: int, id_col: str):
    """(window_hash, doc_id, pos) arrays for every k-word window."""
    values, rows, keep = tokenize_rows(batch, text_col)
    wh, rr = _word_hashes(values, keep, rows)
    n = len(wh)
    if n < k:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), z, z
    # rolling polynomial over a fixed window: H(i) = sum wh[i+j] * B^(k-1-j)
    # evaluated as k strided adds (k is small and constant; each add is
    # vectorized over all windows)
    with np.errstate(over="ignore"):
        acc = np.zeros(n - k + 1, dtype=np.uint64)
        for j in range(k):
            acc = acc * _B + wh[j : n - k + 1 + j]
    win_row = rr[: n - k + 1]
    # a window is valid only if fully inside one doc
    valid = rr[k - 1 :] == win_row
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    # position of the window within its doc's word stream
    starts = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
    base = np.zeros(len(rr), dtype=np.int64)
    base[starts] = np.arange(len(rr), dtype=np.int64)[starts]
    base = np.maximum.accumulate(base)
    pos = np.arange(n - k + 1, dtype=np.int64) - base[: n - k + 1]
    return (
        acc[valid],
        ids[win_row[valid]].astype(np.int64),
        pos[valid],
    )


def duplicated_span_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    sample_mod: int | None = None,
):
    """Dataset of verified (doc_a, doc_b) pairs sharing ≥ one exact k-word
    span (doc_a < doc_b, distinct)."""
    from ray.data.aggregate import Count

    def pass1(b: pa.Table) -> pa.Table:
        h, _ids, _pos = _window_rows(b, text_col, k, id_col)
        if sample_mod:
            h = h[h % np.uint64(sample_mod) == 0]
        u, c = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64), type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    counts = (
        ds.map_batches(pass1, batch_format="pyarrow")
        .groupby("h")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .filter(expr="c >= 2")
        .select_columns(["h"])
    )
    hot_rows = [
        b
        for b in counts.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    if not hot_rows:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], type=pa.int64()),
                    "doc_b": pa.array([], type=pa.int64()),
                }
            )
        )
    hot = np.sort(
        pa.concat_tables(hot_rows)["h"].to_numpy(zero_copy_only=False)
    )
    ref = ray.put(hot) if ray.is_initialized() else hot

    def pass2(b: pa.Table) -> pa.Table:
        hs = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        h, ids, pos = _window_rows(b, text_col, k, id_col)
        hi = h.view(np.int64)
        ix = np.searchsorted(hs, hi)
        np.minimum(ix, len(hs) - 1, out=ix)
        m = hs[ix] == hi
        if not m.any():
            return pa.table(
                {
                    "h": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "win": pa.array([], type=pa.string()),
                }
            )
        # re-derive the window TEXT for survivors only (join of the k
        # words) — carried only for hot windows, never the full stream
        values, rows, keep = tokenize_rows(b, text_col)
        toks = values.filter(pa.array(keep)).to_numpy(zero_copy_only=False)
        rr = rows[keep]
        starts = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
        base = np.zeros(len(rr), dtype=np.int64)
        base[starts] = np.arange(len(rr), dtype=np.int64)[starts]
        base = np.maximum.accumulate(base)
        id2start: dict = {}
        bids = b[id_col].to_numpy(zero_copy_only=False)
        for s in starts:
            id2start[int(bids[rr[s]])] = int(s)
        sel = np.flatnonzero(m)
        wins = [
            " ".join(
                toks[id2start[int(ids[i])] + int(pos[i]) :
                     id2start[int(ids[i])] + int(pos[i]) + k]
            )
            for i in sel
        ]
        return pa.table(
            {
                "h": pa.array(hi[sel], type=pa.int64()),
                "doc_id": pa.array(ids[sel], type=pa.int64()),
                "win": pa.array(wins, type=pa.string()),
            }
        )

    from .bucketed import bucketed_group_kernel

    raw = bucketed_group_kernel(
        ds.map_batches(pass2, batch_format="pyarrow"),
        "h",
        _star_pairs_bucket,
    )
    # a pair found via many spans reports once
    return (
        raw.groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
    )



def _win_runs(g: "pa.Table", extra_sort=None):
    """Run segmentation of a bucket table over the (h, win) group key:
    returns (sorted row order, run starts, run sizes) with rows inside a
    run ordered by doc_id (then ``extra_sort``). Vectorized across every
    window group in the bucket — the per-key Python loop this replaces
    paid one pandas groupby iteration per distinct window."""
    h = g["h"].to_numpy(zero_copy_only=False)
    did = g["doc_id"].to_numpy(zero_copy_only=False)
    win = g["win"]
    if isinstance(win, pa.ChunkedArray):
        win = win.combine_chunks()
    wc = win.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    keys = (did,) if extra_sort is None else (extra_sort, did)
    order = np.lexsort(keys + (wc, h))
    hh, ww = h[order], wc[order]
    n = len(order)
    starts = (
        np.concatenate(
            ([0],
             np.flatnonzero((hh[1:] != hh[:-1]) | (ww[1:] != ww[:-1])) + 1)
        )
        if n
        else np.zeros(0, dtype=np.int64)
    )
    sizes = np.diff(np.concatenate((starts, [n])))
    return order, starts, sizes


def _star_pairs_bucket(g: "pa.Table") -> "pa.Table":
    """(doc_a=min doc, doc_b=other doc) per (h, win) group, vectorized:
    distinct docs per group via Arrow hash-distinct, then run-segmented
    keeper broadcast."""
    if g.num_rows == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
            }
        )
    gb = g.group_by(["h", "win", "doc_id"]).aggregate([])
    order, starts, sizes = _win_runs(gb)
    dd = gb["doc_id"].to_numpy(zero_copy_only=False)[order]
    keeper = np.repeat(dd[starts], sizes)
    memb = np.ones(len(dd), dtype=bool)
    memb[starts] = False
    return pa.table(
        {
            "doc_a": pa.array(keeper[memb], type=pa.int64()),
            "doc_b": pa.array(dd[memb], type=pa.int64()),
        }
    )


def _token_window_rows(batch: pa.Table, k: int):
    """(window_hash, doc_id, pos, flat_start) for every k-TOKEN window of
    a tokens table batch — the token-domain twin of _window_rows. Token
    ids are the symbols directly (no word hashing); each id is mixed
    through a 64-bit multiplicative finalizer before the rolling combine
    so small consecutive ids don't produce correlated window hashes.
    flat_start indexes the batch's flat values buffer (pass 2 re-derives
    survivor window CONTENT from it)."""
    from ..buffers import list_buffers

    values, offsets = list_buffers(batch["tokens"])
    counts = np.diff(offsets)
    n = len(values)
    if n < k:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), z, z, z, values
    rr = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos_in_row = np.arange(n, dtype=np.int64) - np.repeat(
        offsets[:-1], counts
    )
    with np.errstate(over="ignore"):
        wh = values.astype(np.int64).view(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        wh ^= wh >> np.uint64(31)
        acc = np.zeros(n - k + 1, dtype=np.uint64)
        for j in range(k):
            acc = acc * _B + wh[j : n - k + 1 + j]
    win_row = rr[: n - k + 1]
    valid = rr[k - 1 :] == win_row  # window fully inside one document
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    flat = np.flatnonzero(valid)
    return (
        acc[valid],
        ids[win_row[valid]].astype(np.int64),
        pos_in_row[: n - k + 1][valid],
        flat,
        values,
    )


def duplicated_token_span_pairs(
    tokens_ds,
    k: int = 16,
    sample_mod: int | None = None,
):
    """Verified (doc_a, doc_b) pairs sharing ≥ one exact k-TOKEN span
    (doc_a < doc_b) — duplicated_span_pairs lifted onto the north-rule
    tokens table. Same bounded two-pass shape: rolling window hashes →
    hot-hash set (count ≥ 2, broadcast once) → survivor windows carry
    their ACTUAL token ids into one shuffle, where exact comparison
    inside each hash group kills collisions."""
    from ray.data.aggregate import Count, Sum

    def pass1(b: pa.Table) -> pa.Table:
        h, _ids, _pos, _flat, _vals = _token_window_rows(b, k)
        if sample_mod:
            h = h[h % np.uint64(sample_mod) == 0]
        u, c = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64), type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    counts = (
        tokens_ds.map_batches(pass1, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("c", alias_name="c"))
        .filter(expr="c >= 2")
        .select_columns(["h"])
    )
    hot_rows = [
        b
        for b in counts.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    empty = pa.table(
        {
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
        }
    )
    if not hot_rows:
        return ray.data.from_arrow(empty)
    hot = np.sort(
        pa.concat_tables(hot_rows)["h"].to_numpy(zero_copy_only=False)
    )
    ref = ray.put(hot) if ray.is_initialized() else hot

    def pass2(b: pa.Table) -> pa.Table:
        hs = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        h, ids, _pos, flat, values = _token_window_rows(b, k)
        hi = h.view(np.int64)
        ix = np.searchsorted(hs, hi)
        np.minimum(ix, len(hs) - 1, out=ix)
        m = hs[ix] == hi
        sel = np.flatnonzero(m)
        if not len(sel):
            return pa.table(
                {
                    "h": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "win": pa.array([], type=pa.string()),
                }
            )
        # survivor window CONTENT: one (n_sel, k) gather + Arrow join —
        # carried only for hot windows, never the full token stream
        import pyarrow.compute as pc

        mat = values[flat[sel][:, None] + np.arange(k, dtype=np.int64)]
        off = np.arange(len(sel) + 1, dtype=np.int32) * k
        la = pa.ListArray.from_arrays(
            pa.array(off, type=pa.int32()),
            pa.array(mat.reshape(-1), type=pa.int32()),
        )
        wins = pc.binary_join(la.cast(pa.list_(pa.string())), ",")
        return pa.table(
            {
                "h": pa.array(hi[sel], type=pa.int64()),
                "doc_id": pa.array(ids[sel], type=pa.int64()),
                "win": wins.cast(pa.string()),
            }
        )

    from .bucketed import bucketed_group_kernel

    raw = bucketed_group_kernel(
        tokens_ds.map_batches(pass2, batch_format="pyarrow"),
        "h",
        _star_pairs_bucket,
    )
    return (
        raw.groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
    )


def _pack_doc_spans(g: "pa.Table") -> "pa.Table":
    """One bucket of (doc_id, pos) removals → one (doc_id, "p1,p2,...")
    row per doc, vectorized across the bucket: lexsort (doc, pos),
    run-segment, one LargeListArray + binary_join builds every span list.
    The list offsets are int64, so a bucket past 2^31 removals cannot
    wrap them."""
    import pyarrow.compute as pc

    if g.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "spans": pa.array([], type=pa.string()),
            }
        )
    dd = g["doc_id"].to_numpy(zero_copy_only=False)
    pp = g["pos"].to_numpy(zero_copy_only=False)
    order = np.lexsort((pp, dd))
    d = dd[order]
    p = pp[order]
    starts = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1))
    bounds = np.concatenate((starts, [len(d)])).astype(np.int64)
    la = pa.LargeListArray.from_arrays(
        pa.array(bounds, type=pa.int64()),
        pa.array(p.astype(np.int64), type=pa.int64()),
    )
    joined = pc.binary_join(la.cast(pa.large_list(pa.string())), ",")
    return pa.table(
        {
            "doc_id": pa.array(d[starts], type=pa.int64()),
            "spans": joined.cast(pa.string()),
        }
    )


def remove_duplicated_token_spans(
    tokens_ds,
    k: int = 16,
    broadcast_cap: int = 2_000_000,
):
    """The REMOVAL half of span-level dedup (the 'deduplicating training
    data' action): every exact k-token window whose content also appears
    in a SMALLER doc_id is excised from the larger document — keepers
    (the smallest doc holding each content) keep their text verbatim.
    Overlapping removed windows merge into one cut (coverage union), so
    a spliced 30-token span under k=16 disappears exactly.

    Fully distributed: the hot-hash set is the only broadcast bounded by
    duplication; keeper election AND removal emission happen inside the
    one verify shuffle (groupby window hash, exact content compare); the
    removal list applies via broadcast below ``broadcast_cap`` rows and
    via the co-partitioned shuffle join above it — never a driver-bound
    collect of unbounded size. Returns a tokens Dataset (doc_id, tokens,
    n_tok)."""
    from ray.data.aggregate import Sum

    def pass1(b: pa.Table) -> pa.Table:
        h, _ids, _pos, _flat, _vals = _token_window_rows(b, k)
        u, c = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64), type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    counts = (
        tokens_ds.map_batches(pass1, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("c", alias_name="c"))
        .filter(expr="c >= 2")
        .select_columns(["h"])
    )
    hot_rows = [
        b
        for b in counts.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    if not hot_rows:
        return tokens_ds
    hot = np.sort(
        pa.concat_tables(hot_rows)["h"].to_numpy(zero_copy_only=False)
    )
    ref = ray.put(hot) if ray.is_initialized() else hot

    def pass2(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hs = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        h, ids, pos, flat, values = _token_window_rows(b, k)
        hi = h.view(np.int64)
        ix = np.searchsorted(hs, hi)
        np.minimum(ix, len(hs) - 1, out=ix)
        sel = np.flatnonzero(hs[ix] == hi)
        if not len(sel):
            return pa.table(
                {
                    "h": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                    "win": pa.array([], type=pa.string()),
                }
            )
        mat = values[flat[sel][:, None] + np.arange(k, dtype=np.int64)]
        off = np.arange(len(sel) + 1, dtype=np.int32) * k
        la = pa.ListArray.from_arrays(
            pa.array(off, type=pa.int32()),
            pa.array(mat.reshape(-1), type=pa.int32()),
        )
        return pa.table(
            {
                "h": pa.array(hi[sel], type=pa.int64()),
                "doc_id": pa.array(ids[sel], type=pa.int64()),
                "pos": pa.array(pos[sel], type=pa.int64()),
                "win": pc.binary_join(
                    la.cast(pa.list_(pa.string())), ","
                ).cast(pa.string()),
            }
        )

    def emit_removals_bucket(g: "pa.Table") -> "pa.Table":
        # vectorized across every window group in the bucket: rows whose
        # doc is not the group's min doc emit their (doc, pos) removal
        if g.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                }
            )
        order, starts, sizes = _win_runs(g)
        dd = g["doc_id"].to_numpy(zero_copy_only=False)[order]
        pp = g["pos"].to_numpy(zero_copy_only=False)[order]
        keeper = np.repeat(dd[starts], sizes)
        cut = dd != keeper
        return pa.table(
            {
                "doc_id": pa.array(dd[cut], type=pa.int64()),
                "pos": pa.array(pp[cut], type=pa.int64()),
            }
        )

    from .bucketed import bucketed_group_kernel

    removals = bucketed_group_kernel(
        tokens_ds.map_batches(pass2, batch_format="pyarrow"),
        "h",
        emit_removals_bucket,
    )

    def cut_rows(b: pa.Table, starts_of) -> pa.Table:
        """``starts_of(row_index, doc_id) -> sorted window starts or
        None``; only rows WITH removals pay a Python iteration."""
        from ..buffers import list_buffers

        values, offsets = list_buffers(b["tokens"])
        counts_ = np.diff(offsets)
        keep = np.ones(len(values), dtype=bool)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        touched = False
        for r, d in enumerate(ids):
            ss = starts_of(r, int(d))
            if ss is None or not len(ss):
                continue
            touched = True
            n_r = int(counts_[r])
            diff = np.zeros(n_r + 1, dtype=np.int64)
            np.add.at(diff, np.minimum(ss, n_r), 1)
            np.add.at(diff, np.minimum(ss + k, n_r), -1)
            covered = np.cumsum(diff[:-1]) > 0
            keep[offsets[r] : offsets[r] + n_r] = ~covered
        if not touched:
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "tokens": b["tokens"],
                    "n_tok": pa.array(
                        counts_.astype(np.int32), type=pa.int32()
                    ),
                }
            )
        rows_ = np.repeat(
            np.arange(len(counts_), dtype=np.int64), counts_
        )
        new_counts = np.bincount(
            rows_[keep], minlength=len(counts_)
        ).astype(np.int64)
        new_off = np.zeros(len(counts_) + 1, dtype=np.int64)
        np.cumsum(new_counts, out=new_off[1:])
        la = pa.ListArray.from_arrays(
            pa.array(new_off.astype(np.int32), type=pa.int32()),
            pa.array(values[keep], type=pa.int32()),
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "tokens": la,
                "n_tok": pa.array(
                    new_counts.astype(np.int32), type=pa.int32()
                ),
            }
        )

    n_removals = removals.count()
    if n_removals == 0:
        return tokens_ds
    if n_removals <= broadcast_cap:
        rows = removals.take_all()
        by_doc: dict = {}
        for r in rows:
            by_doc.setdefault(int(r["doc_id"]), []).append(int(r["pos"]))
        m = {d: np.sort(np.array(p, dtype=np.int64)) for d, p in by_doc.items()}
        mref = ray.put(m) if ray.is_initialized() else m

        def apply_bcast(b: pa.Table) -> pa.Table:
            mm = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
            return cut_rows(b, lambda _r, d: mm.get(d))

        return tokens_ds.map_batches(apply_bcast, batch_format="pyarrow")

    # removal list too big to broadcast: ship per-doc start lists through
    # the co-partitioned shuffle join instead (doc_id is an int key)
    from .join import shuffle_hash_join

    per_doc = bucketed_group_kernel(removals, "doc_id", _pack_doc_spans)
    joined = shuffle_hash_join(
        tokens_ds, per_doc, "doc_id", "doc_id", how="left"
    )

    def apply_joined(b: pa.Table) -> pa.Table:
        spans = b["spans_r"].to_pylist()
        parsed = [
            None
            if s is None
            else np.array([int(x) for x in s.split(",")], dtype=np.int64)
            for s in spans
        ]
        core = b.select(["doc_id", "tokens"])
        return cut_rows(core, lambda r, _d: parsed[r])

    return joined.map_batches(apply_joined, batch_format="pyarrow")
