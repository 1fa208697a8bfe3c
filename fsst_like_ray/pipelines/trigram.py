"""Persisted per-file TRIGRAM index over a partitioned text corpus: the
reference prunes LIKE scans with per-block ``used_chars``
(Fsst.hpp's escaped-literal bitmap); this lifts the pruning to the FILE
level with 3-byte-gram blooms so a LIKE query skips whole partition
files without opening them. At 100 TB the win is I/O: only candidate
files leave storage.

Soundness: a row matching ``LIKE '%needle%'`` contains every trigram of
``needle``, so a file whose bloom misses ANY pattern trigram provably
holds no match (blooms have no false negatives). False positives only
cost a wasted file scan. Patterns with ``_`` or with every literal
segment shorter than 3 bytes yield no trigrams — every file stays a
candidate (no pruning, stated honestly by the returned counts).

Build = one streaming pass: per-batch per-file bloom partials OR-merge
DISTRIBUTED in a per-path groupby (commutative, so block order and
retries are safe) and the index parquet streams out batch-by-batch —
driver memory stays bounded by the write batch; atomic-rename write,
rebuildable any time, same contract as the IVF index.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..functions.bloom import bloom_contains, bloom_insert
from ..matchers import parse_like

TRI_BLOOM_BYTES = 1 << 15  # 32 KB/file → <1% fpr at ~20k distinct trigrams
_K = 4


def _utf8_flat(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat bytes uint8, int64 offsets) of a string column (nulls → '')."""
    import pyarrow.compute as pc

    col = pc.fill_null(col, "")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_utf8())
    buf = np.frombuffer(col.buffers()[2] or b"", dtype=np.uint8)
    off = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    return buf, off


def _trigram_keys(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Unique int64 keys (b0<<16 | b1<<8 | b2) of every within-row 3-byte
    window — one vectorized pass, windows never cross row boundaries."""
    if flat.size < 3:
        return np.zeros(0, dtype=np.int64)
    counts = np.diff(offsets)
    rid = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    lo = int(offsets[0])
    a = flat[lo : lo + int(counts.sum())].astype(np.int64)
    if a.size < 3:
        return np.zeros(0, dtype=np.int64)
    tri = (a[:-2] << 16) | (a[1:-1] << 8) | a[2:]
    valid = rid[:-2] == rid[2:]
    return np.unique(tri[valid])


def _needle_trigrams(seg: bytes) -> np.ndarray:
    b = np.frombuffer(seg, dtype=np.uint8).astype(np.int64)
    if b.size < 3:
        return np.zeros(0, dtype=np.int64)
    return np.unique((b[:-2] << 16) | (b[1:-1] << 8) | b[2:])


def pattern_trigrams(pattern: str) -> np.ndarray | None:
    """All trigrams a matching row MUST contain, or None when the pattern
    gives no sound trigram evidence (``_`` wildcards make segments
    non-literal)."""
    pat = parse_like(pattern)
    if pat.has_underscore:
        return None
    tris = [_needle_trigrams(seg) for seg in pat.segments]
    tris = [t for t in tris if t.size]
    if not tris:
        return None
    return np.unique(np.concatenate(tris))


def _tri_partial(batch: pa.Table, text_col: str) -> pa.Table:
    """One (path, bloom) partial row per file touched by this batch."""
    path_col = batch["path"]
    if isinstance(path_col, pa.ChunkedArray):
        path_col = path_col.combine_chunks()
    enc = path_col.dictionary_encode()
    fi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    paths = enc.dictionary.to_pylist()
    out_p, out_b = [], []
    for gi, p in enumerate(paths):
        rows = np.flatnonzero(fi == gi)
        if not rows.size:
            continue
        sub = batch.take(pa.array(rows))
        flat, off = _utf8_flat(sub[text_col])
        keys = _trigram_keys(flat, off)
        bloom = np.zeros(TRI_BLOOM_BYTES, dtype=np.uint8)
        bloom_insert(bloom, keys, _K)
        out_p.append(p)
        out_b.append(bloom.tobytes())
    return pa.table(
        {
            "path": pa.array(out_p, type=pa.string()),
            "bloom": pa.array(out_b, type=pa.binary()),
        }
    )


def stream_index_write(merged_ds, index_path: str, schema: pa.Schema) -> int:
    """Stream a merged index Dataset into ``index_path`` batch-by-batch
    (driver holds one write batch, never the whole index), atomically via
    tmp + rename. The schema is passed EXPLICITLY so an empty stream still
    produces a valid empty index file; on any failure the tmp file is
    removed. Returns the row count."""
    tmp = f"{index_path}.tmp{os.getpid()}"
    n_rows = 0
    writer = pq.ParquetWriter(tmp, schema)
    try:
        for b in merged_ds.iter_batches(
            batch_size=512, batch_format="pyarrow"
        ):
            if b.num_rows == 0:
                continue
            writer.write_table(
                b.select([f.name for f in schema]).cast(schema)
            )
            n_rows += b.num_rows
    except BaseException:
        writer.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    writer.close()
    os.replace(tmp, index_path)
    return n_rows


def build_trigram_index(
    corpus_dir: str, text_col: str = "text", index_path: str | None = None
) -> dict:
    """Stream ``corpus_dir``'s parquet files once; write the per-file
    trigram bloom table to ``<corpus_dir>/index/trigrams.parquet``
    (atomic rename; rebuild overwrites)."""
    files = sorted(
        os.path.join(corpus_dir, f)
        for f in os.listdir(corpus_dir)
        if f.endswith(".parquet")
    )  # top level only — never the index/ subdir a rebuild would self-read
    ds = ray.data.read_parquet(files, columns=[text_col], include_paths=True)

    def or_merge(g: pa.Table) -> pa.Table:
        """All partials of ONE file → its final bloom (OR) — distributed
        in the per-path groupby so the driver never holds every file's
        32 KB bloom (~3.2 GB at 100k fragments)."""
        bloom = np.zeros(TRI_BLOOM_BYTES, dtype=np.uint8)
        for blob in g["bloom"].to_pylist():
            np.bitwise_or(
                bloom, np.frombuffer(blob, dtype=np.uint8), out=bloom
            )
        return pa.table(
            {
                "path": pa.array([g["path"][0].as_py()], type=pa.string()),
                "bloom": pa.array([bloom.tobytes()], type=pa.binary()),
            }
        )

    merged_ds = (
        ds.map_batches(
            lambda b: _tri_partial(b, text_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("path")
        .map_groups(or_merge, batch_format="pyarrow")
        .sort("path")
    )
    if index_path is None:
        idx_dir = os.path.join(corpus_dir, "index")
        os.makedirs(idx_dir, exist_ok=True)
        index_path = os.path.join(idx_dir, "trigrams.parquet")
    schema = pa.schema([("path", pa.string()), ("bloom", pa.binary())])
    n_rows = stream_index_write(merged_ds, index_path, schema)
    return {"files": n_rows, "index_path": index_path}


def trigram_candidate_files(
    index_path: str, pattern: str
) -> tuple[list[str], int]:
    """(candidate files, total files): files whose bloom holds ALL the
    pattern's trigrams. No false negatives; no-trigram patterns keep
    every file."""
    tbl = pq.read_table(index_path)
    paths = tbl["path"].to_pylist()
    tris = pattern_trigrams(pattern)
    if tris is None:
        return paths, len(paths)
    keep = []
    for i, p in enumerate(paths):
        bl = np.frombuffer(tbl["bloom"][i].as_py(), dtype=np.uint8)
        if bool(bloom_contains(bl, tris, _K).all()):
            keep.append(p)
    return keep, len(paths)


def like_scan_trigram(
    corpus_dir: str,
    pattern: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    engine: str = "auto",
    decode_matches: bool = True,
):
    """Index-pruned LIKE scan: read ONLY candidate files, then run the
    standard encode → compressed-domain LIKE pipeline over them.
    Returns (Dataset, files_scanned, files_total)."""
    from .scan import encode_text_dataset, like_scan

    index_path = os.path.join(corpus_dir, "index", "trigrams.parquet")
    cand, total = trigram_candidate_files(index_path, pattern)
    if not cand:
        empty = pa.table(
            {id_col: pa.array([], type=pa.int64()),
             text_col: pa.array([], type=pa.string())}
            if decode_matches
            else {id_col: pa.array([], type=pa.int64())}
        )
        return ray.data.from_arrow(empty), 0, total
    ds = ray.data.read_parquet(cand, columns=[id_col, text_col])
    enc = encode_text_dataset(ds, text_col=text_col, id_col=id_col)
    return (
        like_scan(enc, pattern, engine=engine, decode_matches=decode_matches),
        len(cand),
        total,
    )
