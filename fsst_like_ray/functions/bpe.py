"""Byte-pair-encoding tokenizer training over the tokens table — the
iterative distributed algorithm every LM data pipeline runs to build its
vocabulary.

Each merge round is two streaming passes over the corpus:

1. adjacent-pair counts via per-batch ``np.unique`` partials → tiny
   groupby → global argmax pair (count desc, key asc) — the same
   partial-merge shape as ``tokenops.bigram_topk``, never an all-pairs
   materialization;
2. a vectorized left-to-right greedy rewrite replacing every
   non-overlapping (a, b) adjacency with a fresh symbol id, row
   boundaries masked so merges never straddle documents.

The stream is materialized once per round (K rounds would otherwise
re-execute the whole lineage K²/2 times); at corpus scale this is the
classic checkpoint-per-iteration trade and the blocks stay distributed in
the object store.

Post-round invariants (each vectorized, used by the ``bpe_train_gate``
driver query): no (a, b) adjacency survives its own merge round; total
token count strictly shrinks by the number of applied merges; expanding
the merge table reverses the training exactly (bit-identical corpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..buffers import list_buffers
from .tokenops import _list_array

# merged-symbol ids start above the Unicode code-point space
NEW_ID_BASE = 1 << 21
# pair key = t1 * PAIR_SPAN + t2; ids stay < 2^22 for any sane merge count
PAIR_SPAN = 1 << 22


def _pair_partials(batch: pa.Table) -> pa.Table:
    from .tokenops import pair_partials

    return pair_partials(batch, PAIR_SPAN)


def top_pair(ds) -> tuple[int, int, int] | None:
    """Global argmax adjacent pair (count desc, key asc) → (a, b, count)."""
    from .tokenops import _grouped_topk

    parts = ds.map_batches(_pair_partials, batch_format="pyarrow")
    rows = _grouped_topk(parts, "key", 1)
    if not rows or rows[0]["n"] < 1:
        return None
    key, n = rows[0]["key"], rows[0]["n"]
    return int(key // PAIR_SPAN), int(key % PAIR_SPAN), int(n)


def merge_positions(
    values: np.ndarray, offsets: np.ndarray, a: int, b: int
) -> np.ndarray:
    """Indices i where a left-to-right greedy BPE merge applies at
    (values[i], values[i+1]) == (a, b): row-boundary pairs are excluded,
    and within each run of consecutive matches (only possible when a == b)
    every second match is skipped, exactly like serial greedy scanning."""
    if len(values) < 2:
        return np.zeros(0, dtype=np.int64)
    m = (values[:-1] == a) & (values[1:] == b)
    interior = offsets[1:-1]
    sel = interior[(interior > 0) & (interior <= len(m))] - 1
    m[sel] = False
    pos = np.flatnonzero(m)
    if len(pos) == 0:
        return pos
    if a != b:
        # matches can't be adjacent: v[i+1]=b≠a rules out a match at i+1
        return pos
    # runs of consecutive matches: keep offsets 0, 2, 4… within each run
    runstart = np.concatenate(([True], np.diff(pos) > 1))
    run_id = np.cumsum(runstart) - 1
    run_first = pos[runstart]
    return pos[(pos - run_first[run_id]) % 2 == 0]


def apply_merge(
    values: np.ndarray,
    offsets: np.ndarray,
    a: int,
    b: int,
    new_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One merge round over a flat (values, offsets) block — replaces each
    greedy (a, b) occurrence with new_id and drops the second element."""
    pos = merge_positions(values, offsets, a, b)
    if len(pos) == 0:
        return values, offsets
    out = values.copy()
    out[pos] = new_id
    keep = np.ones(len(values), dtype=bool)
    keep[pos + 1] = False
    # merges per row shift that row's end offset left
    drops_before = np.searchsorted(pos + 1, offsets, side="left")
    return out[keep], offsets - drops_before


def apply_merge_batch(
    batch: pa.Table, a: int, b: int, new_id: int
) -> pa.Table:
    values, offsets = list_buffers(batch["tokens"])
    nv, no = apply_merge(values, offsets, a, b, new_id)
    cols = {name: batch[name] for name in batch.column_names}
    cols["tokens"] = _list_array(nv, no)
    cols["n_tok"] = pa.array(np.diff(no).astype(np.int32), type=pa.int32())
    return pa.table(cols)


def bpe_apply(ds, rules):
    """Tokenize NEW token streams with a TRAINED merge table — the missing
    half of the tokenizer lifecycle: train once, then apply the frozen
    rules to any corpus. ONE ``map_batches`` stage running the K rules in
    training order through the same vectorized greedy rewrite the trainer
    uses (:func:`apply_merge_batch`), so:

    - on the training corpus the output is BIT-FOR-BIT the trained
      stream (merging a pair deletes tokens and introduces only its new
      symbol, so it can never create a fresh adjacency of an
      earlier-ranked pair — one pass per rule in rank order is exact);
    - on unseen text the result is deterministic and row-local, and
      :func:`expand_with_offsets` reverses it exactly (round-trip
      invariant holds for ANY input stream over the base vocabulary).

    The rule table is tiny (K × 4 ints) and ships in the task closure —
    broadcast once per worker process, applied per batch."""
    rs = [(int(a), int(b), int(n)) for a, b, n, *_ in rules]

    def apply_all(batch: pa.Table) -> pa.Table:
        for a, b, n in rs:
            batch = apply_merge_batch(batch, a, b, n)
        return batch

    return ds.map_batches(apply_all, batch_format="pyarrow")


def bpe_train(tokens_ds, n_merges: int, sample_rate: float | None = None):
    """Train ``n_merges`` BPE rules over a tokens Dataset.

    ``sample_rate``: train the rules on a deterministic doc sample
    (``sampling.sample_hash32(doc_id) < rate·2^32`` — seed-free, retry-
    stable) and apply them to the FULL stream. This is the standard scale
    path: at 10^12 sequences pair statistics converge on a tiny fraction
    of the corpus, so each merge round scans the sample, not the corpus;
    only the final rewrite touches everything.

    Returns (rules, final_ds, stats): rules is [(a, b, new_id, count)],
    final_ds the rewritten stream, stats per-round dicts with the gate
    invariants (tokens_before/after, pair_left) computed distributed."""
    if sample_rate is not None:
        from .sampling import rate_to_threshold, sample_hash32

        thr = rate_to_threshold(sample_rate)

        def keep(b: pa.Table) -> pa.Table:
            ids = b["doc_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            try:
                arr = ids.cast(pa.int64()).to_numpy(zero_copy_only=False)
            except pa.ArrowInvalid:
                # string ids: the repo-wide stable blake2b word hash
                from .spans import stable_word_hashes

                arr = stable_word_hashes(ids.to_pylist()).view(np.int64)
            return b.filter(pa.array(sample_hash32(arr) < thr))

        sample = tokens_ds.map_batches(
            keep, batch_format="pyarrow"
        ).materialize()
        rules, _sampled_final, stats = bpe_train(sample, n_merges)
        return rules, bpe_apply(tokens_ds, rules), stats

    # round 0 consumes the input three times (token total, pair counts,
    # rewrite); checkpoint it once so an expensive upstream lineage
    # (parquet read → tokenize → hash) isn't re-executed per pass
    ds = tokens_ds.materialize()
    rules, stats = [], []
    total = _total_tokens(ds)
    for r in range(n_merges):
        best = top_pair(ds)
        if best is None:
            break
        a, b, cnt = best
        new_id = NEW_ID_BASE + len(rules)
        ds = ds.map_batches(
            lambda t, _a=a, _b=b, _n=new_id: apply_merge_batch(t, _a, _b, _n),
            batch_format="pyarrow",
        ).materialize()
        after = _total_tokens(ds)
        left = _pair_total(ds, a, b)
        rules.append((a, b, new_id, cnt))
        stats.append(
            {
                "round": r,
                "pair_count": cnt,
                "tokens_before": total,
                "tokens_after": after,
                "pair_left": left,
            }
        )
        total = after
    return rules, ds, stats


def _total_tokens(ds) -> int:
    from ray.data.aggregate import Sum

    row = ds.aggregate(Sum("n_tok", alias_name="s"))
    return int(row["s"] or 0)


def _pair_total(ds, a: int, b: int) -> int:
    """Distributed count of remaining (a, b) adjacencies (gate invariant)."""
    key = a * PAIR_SPAN + b

    def cnt(batch: pa.Table) -> pa.Table:
        t = _pair_partials(batch)
        n = t.filter(pa.compute.equal(t["key"], key))["n"]
        total = int(pa.compute.sum(n).as_py() or 0)
        return pa.table({"n": pa.array([total], type=pa.int64())})

    from ray.data.aggregate import Sum

    row = ds.map_batches(cnt, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="s")
    )
    return int(row["s"] or 0)


def expand_with_offsets(
    values: np.ndarray, offsets: np.ndarray, rules
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-aware BPE decode over a flat block: expansions are row-local
    (a merged symbol never spans rows by construction), so each rule pass
    just shifts row offsets right by the number of expansions before them."""
    out = values.astype(np.int64, copy=True)
    off = offsets.astype(np.int64, copy=True)
    for a, b, new_id, _cnt in reversed(rules):
        hits = np.flatnonzero(out == new_id)
        if len(hits) == 0:
            continue
        mask = np.zeros(len(out), dtype=bool)
        mask[hits] = True
        reps = np.where(mask, 2, 1)
        idx = np.cumsum(reps) - reps
        new = np.empty(len(out) + len(hits), dtype=np.int64)
        new[idx] = np.where(mask, a, out)
        new[idx[mask] + 1] = b
        off = off + np.searchsorted(hits, off, side="left")
        out = new
    return out, off


def expand_tokens(values: np.ndarray, rules) -> np.ndarray:
    """Reverse the merge table (last rule first) — exact BPE decode."""
    out = values.astype(np.int64, copy=True)
    for a, b, new_id, _cnt in reversed(rules):
        hits = out == new_id
        n_hits = int(hits.sum())
        if n_hits == 0:
            continue
        reps = np.where(hits, 2, 1)
        idx = np.cumsum(reps) - reps  # output start of each input element
        new = np.empty(len(out) + n_hits, dtype=np.int64)
        new[idx] = np.where(hits, a, out)
        new[idx[hits] + 1] = b
        out = new
    return out
