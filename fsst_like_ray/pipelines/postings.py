"""Persisted inverted (posting-list) index over the tokenization contract.

Sibling of the trigram index (trigram index: LIKE pruning; postings:
word search). Layout is built for
100 TB from the start: the (word, doc_id) pair stream hash-partitions by
word into ``n_buckets`` hive directories (``postings/bucket=K/``), each
bucket file sorted by (word, doc_id) — a query READS ONLY its terms'
buckets (≤ one bucket per term) and parquet row-group predicate pushdown
narrows within the bucket. Build is one streaming pass: per-batch
DISTINCT pairs (a document lives entirely in one batch, so per-batch
distinct IS global distinct), ONE shuffle on the bucket key, each bucket
group writes its own file atomically (tmp + rename — rebuild-idempotent,
the compress-sink pattern).

Posting lists are doc-frequency bounded per word; the LOOKUP materializes
only the query terms' lists (stopword-scale terms are the caller's
responsibility, as in any search engine)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..functions.spans import stable_word_hashes
from ..functions.vocab import tokenize_rows

META = "meta.json"


def _word_bucket(words, n_buckets: int) -> np.ndarray:
    """Deterministic (cross-run, cross-process) bucket per word — the
    SHARED stable word hash (functions/spans.py) so the persisted index
    can never drift from the hash used to build it."""
    return (
        stable_word_hashes(words) % np.uint64(n_buckets)
    ).astype(np.int64)


def _bucket_dirs(post_dir: str) -> list[str]:
    if not os.path.isdir(post_dir):
        return []
    return sorted(
        os.path.join(post_dir, d)
        for d in os.listdir(post_dir)
        if d.startswith("bucket=")
    )


def _part_epoch(fname: str) -> int | None:
    """part-<N>.parquet → N (else None). listdir + parse instead of glob
    so metacharacters in user paths can't silently mis-match."""
    if fname.startswith("part-") and fname.endswith(".parquet"):
        try:
            return int(fname[5:-8])
        except ValueError:
            return None
    return None


def _corpus_files(corpus_path: str) -> list[str]:
    if os.path.isfile(corpus_path):
        return [corpus_path]
    return sorted(
        os.path.join(r, f)
        for r, _d, fs in os.walk(corpus_path)
        for f in fs
        if f.endswith(".parquet")
    )


def build_word_index(
    corpus_path: str,
    index_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
    incremental: bool = False,
) -> dict:
    """Build (or rebuild) the postings under ``index_dir``; returns
    {'n_buckets', 'n_postings'}.

    ``incremental=True`` indexes ONLY corpus files absent from the
    existing index, appending one part file per touched bucket. Two-phase
    commit: new parts carry the NEXT epoch number, and lookups ignore
    parts beyond the committed meta epoch — a crash mid-increment leaves
    nothing visible, and the rerun first clears any pending-epoch
    leftovers (a vanished-then-rerun corpus can't resurrect them) before
    overwriting. Sound because corpus files are write-once and doc_ids
    are unique across files; a VANISHED indexed file (compaction) is
    refused — its postings are already merged into the buckets, so only
    a full rebuild can retract them. Paths are stored/compared absolute,
    so the same corpus reached via a different spelling still matches.

    A FULL rebuild over an existing committed index is two-phase as well:
    new parts are written under a bumped epoch and the meta commit flips
    ``min_epoch`` to it atomically (lookups accept only
    min_epoch ≤ part ≤ epoch), so a crash mid-rebuild leaves the OLD index
    fully intact and visible; superseded parts are deleted only after the
    commit (best-effort — leftovers stay invisible)."""
    all_files = [os.path.abspath(p) for p in _corpus_files(corpus_path)]
    files = all_files
    prev_post, epoch, min_epoch = 0, 0, 0
    meta_path = os.path.join(index_dir, META)
    committed = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            committed = json.load(f)
    if incremental and committed is not None:
        meta = committed
        if meta["n_buckets"] != n_buckets:
            raise ValueError("n_buckets change requires a full rebuild")
        if "files" not in meta:
            raise ValueError(
                "existing index has no file manifest (pre-incremental "
                "format) — rebuild the index"
            )
        done = set(meta["files"])
        gone = done - set(all_files)
        if gone:
            raise ValueError(
                f"{len(gone)} indexed corpus files vanished — postings "
                "cannot be retracted incrementally; rebuild the index"
            )
        files = [f for f in all_files if f not in done]
        prev_post = meta["n_postings"]
        epoch = meta.get("epoch", 0) + 1
        min_epoch = meta.get("min_epoch", 0)
        if not files:
            return {"n_buckets": n_buckets, "n_postings": prev_post}
    elif committed is not None:
        # full rebuild with a live committed index: write-ahead under the
        # next epoch; the old index stays visible until the meta commit
        epoch = committed.get("epoch", 0) + 1
        min_epoch = epoch
    ds = ray.data.read_parquet(files, columns=[id_col, text_col])

    def pairs(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "bucket": pa.array([], type=pa.int64()),
                "word": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
            }
        )
        if b.num_rows == 0:
            return empty
        values, rows, keep = tokenize_rows(b, text_col)
        toks = values.filter(pa.array(keep))
        rr = rows[keep]
        if not len(rr):
            return empty
        enc = toks.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (word, row) pairs — composite key, one unique pass
        key = idx * np.int64(b.num_rows) + rr
        uniq = np.unique(key)
        w_slot = uniq // b.num_rows
        r = uniq % b.num_rows
        # bucket via the tiny per-batch dictionary, then gather
        dict_words = enc.dictionary.to_pylist()
        db = _word_bucket(dict_words, n_buckets)
        return pa.table(
            {
                "bucket": pa.array(db[w_slot]),
                "word": enc.dictionary.take(pa.array(w_slot)),
                "doc_id": b[id_col].take(pa.array(r)).cast(pa.int64()),
            }
        )

    import shutil

    post_dir = os.path.join(index_dir, "postings")
    if committed is None:
        # nothing committed ⇒ nothing visible to lookups: plain wipe
        shutil.rmtree(post_dir, ignore_errors=True)
    else:
        # clear PENDING parts (epoch ≥ this one) left by a crashed
        # increment or rebuild — its file set may differ from ours, and a
        # bucket we don't touch must not carry its orphans into visibility
        # once we commit this epoch number; also sweep parts a PREVIOUS
        # full rebuild superseded (below the committed min_epoch) whose
        # post-commit cleanup was interrupted
        committed_min = committed.get("min_epoch", 0)
        for bdir in _bucket_dirs(post_dir):
            for f in os.listdir(bdir):
                ep = _part_epoch(f)
                if ep is not None and (ep >= epoch or ep < committed_min):
                    os.unlink(os.path.join(bdir, f))
    os.makedirs(post_dir, exist_ok=True)
    part_name = f"part-{epoch}.parquet"

    def write_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        bucket = int(g["bucket"][0].as_py())
        order = pa.compute.sort_indices(
            g, sort_keys=[("word", "ascending"), ("doc_id", "ascending")]
        )
        out = g.take(order).select(["word", "doc_id"])
        d = os.path.join(post_dir, f"bucket={bucket}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f".part.tmp{os.getpid()}")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(d, part_name))
        return pa.table(
            {
                "bucket": pa.array([bucket], type=pa.int64()),
                "n": pa.array([g.num_rows], type=pa.int64()),
            }
        )

    stats = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .take_all()
    )
    n_post = prev_post + sum(int(r["n"]) for r in stats)
    tmp = f"{meta_path}.tmp{os.getpid()}"
    with open(tmp, "w") as f:  # atomic: a kill can't truncate the meta
        json.dump(
            {
                "n_buckets": n_buckets,
                "n_postings": n_post,
                "files": all_files,
                "epoch": epoch,
                "min_epoch": min_epoch,
            },
            f,
        )
    os.replace(tmp, meta_path)
    if min_epoch > 0:
        # full-rebuild cleanup AFTER the commit: superseded parts are
        # already invisible (lookups gate on min_epoch), so this is
        # best-effort — a crash here leaves only ignored files, swept by
        # the next build
        for bdir in _bucket_dirs(post_dir):
            for f2 in os.listdir(bdir):
                ep = _part_epoch(f2)
                if ep is not None and ep < min_epoch:
                    os.unlink(os.path.join(bdir, f2))
    return {"n_buckets": n_buckets, "n_postings": n_post}


def word_index_lookup(
    index_dir: str, terms: tuple, mode: str = "and"
) -> tuple[np.ndarray, int]:
    """(sorted doc ids, buckets_read). Reads ONLY the query terms'
    buckets; ``mode`` is 'and' (intersection) or 'or' (union)."""
    if mode not in ("and", "or"):
        raise ValueError(mode)
    with open(os.path.join(index_dir, META)) as f:
        meta = json.load(f)
    n_buckets = meta["n_buckets"]
    committed_epoch = meta.get("epoch", 0)
    min_epoch = meta.get("min_epoch", 0)
    uniq = sorted(set(terms))
    buckets = _word_bucket(uniq, n_buckets)
    by_bucket: dict[int, list[str]] = {}
    for t, bk in zip(uniq, buckets):
        by_bucket.setdefault(int(bk), []).append(t)
    sets: dict[str, np.ndarray] = {}
    read = 0
    for bk, ts in sorted(by_bucket.items()):
        bdir = os.path.join(index_dir, "postings", f"bucket={bk}")
        # listdir + epoch gate: parts beyond the committed meta epoch are
        # an in-flight (possibly crashed) increment; parts below min_epoch
        # were superseded by a committed full rebuild — both stay invisible
        parts = sorted(
            os.path.join(bdir, f)
            for f in (os.listdir(bdir) if os.path.isdir(bdir) else [])
            if (ep := _part_epoch(f)) is not None
            and min_epoch <= ep <= committed_epoch
        )
        if not parts:
            for t in ts:
                sets[t] = np.array([], dtype=np.int64)
            continue
        read += 1
        tbls = [
            pq.read_table(
                p, filters=[("word", "in", ts)], columns=["word", "doc_id"]
            )
            for p in parts  # incremental epochs append part files
        ]
        tbl = pa.concat_tables(tbls)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        words = tbl["word"].to_numpy(zero_copy_only=False)
        for t in ts:
            sets[t] = np.sort(ids[words == t])
    acc = None
    for t in uniq:
        s = sets[t]
        if acc is None:
            acc = s
        elif mode == "and":
            acc = np.intersect1d(acc, s)
        else:
            acc = np.union1d(acc, s)
    return (acc if acc is not None else np.array([], dtype=np.int64)), read
