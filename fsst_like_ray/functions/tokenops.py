"""Token-domain training-prep operators over the north-rule tokens table
``(doc_id, tokens: list<int32>, n_tok, source)``.

Three ops every LM data pipeline runs just before writing training shards:

- ``truncate_pad``: clip each sequence at ``max_len`` and right-pad with
  ``pad_id`` to a fixed width (static-shape batches for the trainer).
- ``shift_labels``: next-token labels — ``labels[i] = tokens[i+1]``, last
  position gets ``ignore_id`` (the usual -100 loss mask).
- ``vocab_topk`` / ``remap_oov``: global token frequencies via per-batch
  bincount partials (one tiny row per batch crosses the object store), then
  a broadcast top-K id set remaps out-of-vocabulary ids to ``unk_id`` —
  the classic vocabulary-pruning pass.
- ``bigram_topk``: corpus-wide adjacent-token-pair counts, same
  partial-merge shape (per-batch ``np.unique`` partials, small groupby).

All kernels are flat-buffer NumPy over the ListArray's (values, offsets) —
no per-row Python. At 10^12 sequences each op is a single streaming
``map_batches`` pass plus, for the frequency ops, one tiny all-to-all over
per-batch partials (bounded by vocab size, not data size).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..buffers import list_buffers

# Token ids are Unicode code points in the synthetic corpus; any bigram key
# fits in (t1 * SPAN + t2) without collision because ids < SPAN.
CODEPOINT_SPAN = 1114112


def _list_array(values: np.ndarray, offsets: np.ndarray) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), type=pa.int32()),
        pa.array(values.astype(np.int32, copy=False), type=pa.int32()),
    )


def truncate_pad(
    values: np.ndarray,
    offsets: np.ndarray,
    max_len: int,
    pad_id: int = 0,
) -> np.ndarray:
    """(n_rows, max_len) int32 matrix: row i is tokens[i][:max_len] padded."""
    counts = np.diff(offsets)
    keep = np.minimum(counts, max_len)
    n = len(counts)
    out = np.full((n, max_len), pad_id, dtype=np.int32)
    idx = np.arange(max_len, dtype=np.int64)
    mask = idx[None, :] < keep[:, None]
    src = offsets[:-1, None] + idx[None, :]
    out[mask] = values[src[mask]]
    return out


def truncate_pad_batch(
    batch: pa.Table, max_len: int, pad_id: int = 0
) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    mat = truncate_pad(values, offsets, max_len, pad_id)
    counts = np.minimum(np.diff(offsets), max_len)
    flat_off = np.arange(len(counts) + 1, dtype=np.int64) * max_len
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tokens": _list_array(mat.reshape(-1), flat_off),
            "n_tok": pa.array(counts.astype(np.int32), type=pa.int32()),
        }
    )


def sliding_windows(
    values: np.ndarray, offsets: np.ndarray, window: int, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Context-window slicing for LM pretraining: every document emits
    windows at starts 0, stride, 2·stride, … while start < n_tok (the
    tail window may be short). Pure flat-buffer arithmetic — one gather
    over the values buffer, no per-row Python. Returns
    (win_values, win_offsets, doc_index, win_idx): doc_index maps each
    output window back to its input row, win_idx numbers windows within
    a document."""
    if window < 1 or stride < 1:
        raise ValueError("sliding_windows: window and stride must be >= 1")
    counts = np.diff(offsets)
    n_wins = np.where(counts > 0, (counts - 1) // stride + 1, 0)
    doc_index = np.repeat(np.arange(len(counts), dtype=np.int64), n_wins)
    total = int(n_wins.sum())
    # window index within each doc: global arange minus each doc's base
    win_base = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(n_wins, out=win_base[1:])
    win_idx = np.arange(total, dtype=np.int64) - win_base[doc_index]
    starts = win_idx * stride
    lens = np.minimum(window, counts[doc_index] - starts)
    out_off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(lens, out=out_off[1:])
    flat = np.arange(int(out_off[-1]), dtype=np.int64)
    src = (
        flat
        - np.repeat(out_off[:-1], lens)
        + np.repeat(offsets[:-1][doc_index] + starts, lens)
    )
    return values[src], out_off, doc_index, win_idx


def sliding_windows_batch(
    batch: pa.Table, window: int, stride: int
) -> pa.Table:
    """Row-expanding map_batches stage: one input document → its
    stride-spaced context windows (columns doc_id, win_idx, tokens,
    n_tok). Zero-length documents emit no windows."""
    values, offsets = list_buffers(batch["tokens"])
    wv, wo, doc_index, win_idx = sliding_windows(
        values, offsets, window, stride
    )
    doc_id = batch["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    return pa.table(
        {
            "doc_id": doc_id.take(pa.array(doc_index, type=pa.int64())),
            "win_idx": pa.array(win_idx, type=pa.int64()),
            "tokens": _list_array(wv, wo),
            "n_tok": pa.array(np.diff(wo).astype(np.int32), type=pa.int32()),
        }
    )


def shift_labels(
    values: np.ndarray, offsets: np.ndarray, ignore_id: int = -100
) -> np.ndarray:
    """Flat next-token label stream aligned to (values, offsets): within each
    row labels[i] = tokens[i+1]; each row's last position is ignore_id."""
    labels = np.empty_like(values)
    if len(values):
        labels[:-1] = values[1:]
    ends = offsets[1:] - 1
    ends = ends[offsets[1:] > offsets[:-1]]  # skip empty rows
    labels[ends] = ignore_id
    return labels


def shift_labels_batch(batch: pa.Table, ignore_id: int = -100) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    labels = shift_labels(values, offsets, ignore_id)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tokens": batch["tokens"],
            "labels": _list_array(labels, offsets),
            "n_tok": batch["n_tok"],
        }
    )


def token_count_partials(batch: pa.Table) -> pa.Table:
    """Per-batch (token, n) partial counts — one small table per batch."""
    values, _ = list_buffers(batch["tokens"])
    toks, cnt = np.unique(values, return_counts=True)
    return pa.table(
        {
            "token": pa.array(toks.astype(np.int64), type=pa.int64()),
            "n": pa.array(cnt.astype(np.int64), type=pa.int64()),
        }
    )


def _grouped_topk(parts, key_col: str, k: int) -> list[dict]:
    """Top-k (n desc, key asc) over per-batch partial counts.

    groupby folds duplicates so each key appears exactly once globally;
    a per-block local top-k is therefore sound, and only k rows per block
    reach the driver — never the full key space (bigram keys are
    O(vocab^2) at corpus scale)."""
    from ray.data.aggregate import Sum

    agg = parts.groupby(key_col).aggregate(Sum("n", alias_name="n"))

    def local_topk(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        n = b["n"].to_numpy(zero_copy_only=False)
        keys = b[key_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, -n))[:k]
        return b.take(pa.array(np.sort(order)))

    rows = agg.map_batches(local_topk, batch_format="pyarrow").take_all()
    return sorted(rows, key=lambda r: (-r["n"], r[key_col]))[:k]


def vocab_topk(tokens_ds, k: int) -> np.ndarray:
    """Global top-k token ids by frequency (count desc, token asc).

    Partials shrink each batch to ≤|vocab| rows before the groupby, so the
    shuffle moves per-batch vocabularies, never token streams; per-block
    local top-k bounds what the driver sees at k rows per block.
    """
    parts = tokens_ds.map_batches(
        token_count_partials, batch_format="pyarrow"
    )
    rows = _grouped_topk(parts, "token", k)
    return np.array(sorted(r["token"] for r in rows), dtype=np.int64)


def remap_oov_batch(
    batch: pa.Table, keep_sorted: np.ndarray, unk_id: int = -1
) -> pa.Table:
    """Remap token ids outside ``keep_sorted`` to ``unk_id`` (vectorized
    sorted-membership via searchsorted — no hash set, no Python loop)."""
    values, offsets = list_buffers(batch["tokens"])
    v64 = values.astype(np.int64, copy=False)
    pos = np.searchsorted(keep_sorted, v64)
    pos_c = np.minimum(pos, len(keep_sorted) - 1) if len(keep_sorted) else pos
    inside = (
        keep_sorted[pos_c] == v64 if len(keep_sorted)
        else np.zeros(len(v64), dtype=bool)
    )
    out = np.where(inside, values, np.int32(unk_id)).astype(np.int32)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tokens": _list_array(out, offsets),
            "n_tok": batch["n_tok"],
        }
    )


def dispersion(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row token-distribution stats, all exact integers (hash-stable
    across engines, unlike float entropy): distinct token count, Σ count²
    (the Simpson/collision numerator — low-diversity boilerplate scores
    high), and the mode frequency. One composite-key ``np.unique`` over the
    flat buffer; row id packs into the high 32 bits so any int32 token id
    is collision-free. Returns (n_distinct, sum_sq, max_count)."""
    counts = np.diff(offsets)
    n_rows = len(counts)
    n_distinct = np.zeros(n_rows, dtype=np.int64)
    sum_sq = np.zeros(n_rows, dtype=np.int64)
    max_count = np.zeros(n_rows, dtype=np.int64)
    if len(values):
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        key = (rows << np.int64(32)) | (
            values.astype(np.int64) & np.int64(0xFFFFFFFF)
        )
        uniq, cnt = np.unique(key, return_counts=True)
        n_distinct = np.bincount(
            (uniq >> np.int64(32)), minlength=n_rows
        ).astype(np.int64)
        starts = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(n_distinct, out=starts[1:])
        nz = n_distinct > 0
        cnt64 = cnt.astype(np.int64)
        sum_sq[nz] = np.add.reduceat(cnt64 * cnt64, starts[:-1][nz])
        max_count[nz] = np.maximum.reduceat(cnt64, starts[:-1][nz])
    return n_distinct, sum_sq, max_count


def dispersion_batch(batch: pa.Table) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    n_distinct, sum_sq, max_count = dispersion(values, offsets)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tok": batch["n_tok"].cast(pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "sum_sq": pa.array(sum_sq, type=pa.int64()),
            "max_count": pa.array(max_count, type=pa.int64()),
        }
    )


def dup_ngram_stats(
    values: np.ndarray,
    offsets: np.ndarray,
    n: int,
    span: int = CODEPOINT_SPAN,
) -> tuple[np.ndarray, np.ndarray]:
    """Within-document n-gram repetition (the token-domain twin of the
    text repetition filters used on web corpora): per row, the number of
    n-gram occurrences and the number of DISTINCT n-grams — their gap is
    the duplicated-gram mass a quality filter thresholds on. Exact, not
    sketched: gram keys are base-``span`` packed ints (requires
    0 ≤ token id < span and span**n < 2**63), deduped per row with one
    lexsort. Returns (n_grams, n_distinct)."""
    if n < 2 or span ** n >= 2 ** 63:
        raise ValueError("dup_ngram_stats: need n >= 2 and span**n < 2**63")
    counts = np.diff(offsets)
    n_rows = len(counts)
    n_grams = np.maximum(counts - (n - 1), 0).astype(np.int64)
    n_distinct = np.zeros(n_rows, dtype=np.int64)
    if len(values) >= n:
        v = values.astype(np.int64)
        if v.min() < 0 or v.max() >= span:
            raise ValueError("dup_ngram_stats: token id outside [0, span)")
        key_all = v[: len(v) - n + 1].copy()
        for j in range(1, n):
            key_all *= span
            key_all += v[j : len(v) - n + 1 + j]
        # a gram starting in row r is valid only while it fits inside r:
        # drop the last n-1 start positions of every row
        valid = np.ones(len(key_all), dtype=bool)
        for j in range(1, n):
            ends = offsets[1:] - j
            ends = ends[(ends >= 0) & (ends < len(valid))]
            valid[ends] = False
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_grams)
        key = key_all[valid]
        order = np.lexsort((key, rows))
        ks, rs = key[order], rows[order]
        if len(ks):
            new = np.ones(len(ks), dtype=bool)
            new[1:] = (ks[1:] != ks[:-1]) | (rs[1:] != rs[:-1])
            n_distinct = np.bincount(rs[new], minlength=n_rows).astype(
                np.int64
            )
    return n_grams, n_distinct


def dup_ngram_batch(batch: pa.Table, n: int) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    n_grams, n_distinct = dup_ngram_stats(values, offsets, n)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_distinct_grams": pa.array(n_distinct, type=pa.int64()),
        }
    )


# span-corruption mask parameters — shared with the SQL oracle, which
# reproduces the mask arithmetic verbatim (hence no RNG: determinism IS
# the contract)
SC_MULT, SC_MOD, SC_K = 1000003, 11, 2


def span_corrupt(
    values: np.ndarray,
    offsets: np.ndarray,
    doc_ids: np.ndarray,
    mult: int = SC_MULT,
    mod: int = SC_MOD,
    k: int = SC_K,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """T5-style span corruption with a DETERMINISTIC mask (seedless, so an
    SQL oracle can reproduce it bit-for-bit): position p of document d is
    masked iff (d·mult + p) mod ``mod`` < ``k`` (≈ k/mod corruption rate;
    consecutive masked positions form one span). The encoder input keeps
    unmasked tokens and replaces each masked span with a sentinel id
    (-1, -2, … per document); the decoder target is, per span, the
    sentinel followed by the span's original tokens. All flat-buffer
    scatter/gather — no per-row Python. Returns (input_values,
    input_offsets, target_values, target_offsets, n_spans)."""
    counts = np.diff(offsets)
    n_rows = len(counts)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    pos = np.arange(len(values), dtype=np.int64) - np.repeat(
        offsets[:-1], counts
    )
    d = np.repeat(doc_ids.astype(np.int64), counts)
    m = ((d * mult + pos) % mod) < k
    prev_m = np.zeros(len(values), dtype=bool)
    if len(values):
        prev_m[1:] = m[:-1]
    start = m & (~prev_m | (pos == 0))
    n_spans = np.bincount(rows[start], minlength=n_rows).astype(np.int64)
    span_base = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(n_spans, out=span_base[1:])
    run_id = np.cumsum(start) - 1  # global span index (valid where m)
    sentinel = -(run_id - span_base[rows] + 1)  # -1, -2, … within each doc

    keep_in = ~m | start
    in_values = np.where(start, sentinel, values.astype(np.int64))[
        keep_in
    ].astype(np.int32)
    in_counts = np.bincount(rows[keep_in], minlength=n_rows)
    in_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(in_counts, out=in_offsets[1:])

    mk = np.flatnonzero(m)  # masked flat positions, original order
    start_mk = start[mk]
    # each span contributes its sentinel before its tokens: a masked token's
    # output slot shifts right by the number of spans opened so far
    out_idx = np.arange(len(mk), dtype=np.int64) + np.cumsum(start_mk)
    tgt_values = np.empty(len(mk) + int(start.sum()), dtype=np.int32)
    tgt_values[out_idx] = values[mk]
    tgt_values[out_idx[start_mk] - 1] = sentinel[mk[start_mk]]
    tgt_counts = np.bincount(rows[mk], minlength=n_rows) + n_spans
    tgt_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(tgt_counts, out=tgt_offsets[1:])
    return in_values, in_offsets, tgt_values, tgt_offsets, n_spans


def span_corrupt_batch(batch: pa.Table) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    doc_id = batch["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    ids = doc_id.to_numpy(zero_copy_only=False)
    iv, io, tv, to, n_spans = span_corrupt(values, offsets, ids)
    return pa.table(
        {
            "doc_id": doc_id,
            "n_tok": batch["n_tok"].cast(pa.int64()),
            "n_spans": pa.array(n_spans, type=pa.int64()),
            "inputs": _list_array(iv, io),
            "targets": _list_array(tv, to),
        }
    )


# FIM split-point parameters — small multipliers so the arithmetic is
# exact in both int64 numpy and the SQL oracle (no wraparound)
FIM_A1, FIM_B1 = 37, 11
FIM_A2, FIM_B2 = 53, 29


def fim_transform(
    values: np.ndarray, offsets: np.ndarray, doc_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill-in-the-middle rearrangement (the code-LM pretraining
    transform) in PSM order with sentinels: each document splits at two
    DETERMINISTIC points p1 ≤ p2 (derived from doc_id and length, so an
    SQL oracle reproduces them) and emits
    ``[-1] prefix [-2] suffix [-3] middle`` — the model learns to infill
    the middle given both sides. Output length is n+3 per row. Pure
    flat-buffer segment scatter: three (dst, src, len) gather segments
    per row expanded with repeat/cumsum — no per-row Python."""
    counts = np.diff(offsets)
    n_rows = len(counts)
    d = doc_ids.astype(np.int64)
    p1 = (d * FIM_A1 + FIM_B1) % (counts + 1)
    p2 = p1 + (d * FIM_A2 + FIM_B2) % (counts - p1 + 1)
    out_counts = counts + 3
    bo = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_counts, out=bo[1:])
    out = np.empty(int(bo[-1]), dtype=np.int32)
    # sentinel slots
    out[bo[:-1]] = -1
    out[bo[:-1] + 1 + p1] = -2
    out[bo[:-1] + 2 + p1 + (counts - p2)] = -3
    # gather segments: (dst_start, src_start, len) × {prefix, suffix, middle}
    seg_dst = np.concatenate(
        [bo[:-1] + 1, bo[:-1] + 2 + p1, bo[:-1] + 3 + p1 + (counts - p2)]
    )
    seg_src = np.concatenate(
        [offsets[:-1], offsets[:-1] + p2, offsets[:-1] + p1]
    )
    seg_len = np.concatenate([p1, counts - p2, p2 - p1])
    nz = seg_len > 0
    seg_dst, seg_src, seg_len = seg_dst[nz], seg_src[nz], seg_len[nz]
    if len(seg_len):
        total = int(seg_len.sum())
        flat = np.arange(total, dtype=np.int64)
        base = np.zeros(len(seg_len) + 1, dtype=np.int64)
        np.cumsum(seg_len, out=base[1:])
        within = flat - np.repeat(base[:-1], seg_len)
        out[np.repeat(seg_dst, seg_len) + within] = values[
            np.repeat(seg_src, seg_len) + within
        ]
    return out, bo


def fim_batch(batch: pa.Table) -> pa.Table:
    doc_id = batch["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    values, offsets = list_buffers(batch["tokens"])
    out, bo = fim_transform(
        values, offsets, doc_id.to_numpy(zero_copy_only=False)
    )
    return pa.table(
        {
            "doc_id": doc_id,
            "n_tok": batch["n_tok"].cast(pa.int64()),
            "fim": _list_array(out, bo),
        }
    )


def pair_partials(batch: pa.Table, span: int) -> pa.Table:
    """Per-batch adjacent-pair counts keyed t1*span + t2; row boundaries
    masked out so pairs never straddle documents. ``span`` must exceed the
    largest token id (CODEPOINT_SPAN for raw code points; BPE uses a wider
    span for merged-symbol ids)."""
    values, offsets = list_buffers(batch["tokens"])
    if len(values) < 2:
        return pa.table(
            {
                "key": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    keys = values[:-1].astype(np.int64) * span + values[1:]
    valid = np.ones(len(keys), dtype=bool)
    interior = offsets[1:-1]
    valid[interior[(interior > 0) & (interior <= len(keys))] - 1] = False
    uk, cnt = np.unique(keys[valid], return_counts=True)
    return pa.table(
        {
            "key": pa.array(uk, type=pa.int64()),
            "n": pa.array(cnt.astype(np.int64), type=pa.int64()),
        }
    )


def bigram_partials(batch: pa.Table) -> pa.Table:
    return pair_partials(batch, CODEPOINT_SPAN)


def bigram_topk(tokens_ds, k: int) -> pa.Table:
    """Corpus top-k adjacent token pairs → (t1, t2, n), count desc / key asc."""
    parts = tokens_ds.map_batches(bigram_partials, batch_format="pyarrow")
    rows = _grouped_topk(parts, "key", k)
    key = np.array([r["key"] for r in rows], dtype=np.int64)
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    return pa.table(
        {
            "t1": pa.array(key // CODEPOINT_SPAN, type=pa.int64()),
            "t2": pa.array(key % CODEPOINT_SPAN, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
        }
    )
