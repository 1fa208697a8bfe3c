"""LIKE scan pipelines over encoded text datasets (reference flagship run:
./build/main <column:file> <pattern> — src/BenchmarkDriver.cpp:54-85 — as a
streaming Ray Data pipeline).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..matchers import parse_like, like_on_encoded
from ..stages.text import encode_text_table, decode_text_table


def encode_text_dataset(
    ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """String column → per-block FSST-encoded dataset. Symbol tables are
    trained per batch, so there is NO per-worker state: a stateless task
    pool runs it."""

    def encode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return encode_text_table(batch, text_col, id_col)

    return ds.map_batches(
        encode, batch_format="pyarrow", batch_size=8192, zero_copy_batch=True
    )


def like_scan(
    encoded: "ray.data.Dataset",
    pattern: str,
    engine: str = "auto",
    decode_matches: bool = True,
) -> "ray.data.Dataset":
    """Rows matching a LIKE pattern, evaluated on the compressed
    representation (matched rows decoded — sketch.cc:787-806 analog)."""
    pat = parse_like(pattern)

    def scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["doc_id"])
        mask = like_on_encoded(batch, pat, engine=engine)
        sub = batch.take(pa.array(np.flatnonzero(mask)))
        if decode_matches:
            return decode_text_table(sub)
        return sub.select(["doc_id"])

    return encoded.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def regex_scan(
    encoded: "ray.data.Dataset", regex: str, decode_matches: bool = False
) -> "ray.data.Dataset":
    """Regex predicate over the encoded corpus (reference: the cpp_regex
    engine, sketch.cc:572-587, which std::regex_search-es each decoded
    string). Decoded-path by design — regexes have no sound compressed-domain
    prefilter in general — but still streaming: decode + match + project per
    batch, nothing materializes. Uses RE2 syntax via
    ``pyarrow.compute.match_substring_regex`` (vectorized, not a per-row
    Python loop like the reference's scalar std::regex)."""
    import pyarrow.compute as pc

    def scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["doc_id"])
        dec = decode_text_table(batch)
        mask = pc.match_substring_regex(dec["text"].combine_chunks(), regex)
        rows = np.flatnonzero(mask.to_numpy(zero_copy_only=False).astype(bool))
        if decode_matches:
            return dec.take(pa.array(rows))
        return batch.select(["doc_id"]).take(pa.array(rows))

    return encoded.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def like_count(
    encoded: "ray.data.Dataset", pattern: str, engine: str = "auto"
) -> int:
    """Global match count (the reference's headline metric,
    src/BenchmarkDriver.cpp:66-79): streams per-batch counts, no decode."""
    pat = parse_like(pattern)

    def count(batch: pa.Table) -> pa.Table:
        mask = like_on_encoded(batch, pat, engine=engine)
        return pa.table({"n": pa.array([int(mask.sum())], type=pa.int64())})

    parts = encoded.map_batches(count, batch_format="pyarrow").take_all()
    return sum(int(r["n"]) for r in parts)


def multi_like_scan(
    encoded: "ray.data.Dataset", patterns: list[str]
) -> "ray.data.Dataset":
    """Evaluate MANY LIKE patterns in ONE pass over the encoded corpus:
    each batch decodes once and every pattern's predicate runs against
    the same decoded column — amortizing the decode (the dominant cost)
    across the whole pattern set instead of re-scanning per pattern
    (reference analog: the ranking harness re-scans per engine×pattern
    by design, sketch.cc:1306-1371; production predicate sets shouldn't).
    Output: one (pattern, doc_id) row per match — the shape a downstream
    groupby/count or routing join wants."""
    import pyarrow.compute as pc

    pats = list(patterns)

    def scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # empty table preserving the REAL id type (a hardcoded int64
            # would clash with string-keyed corpora at schema unification)
            return pa.table(
                {
                    "pattern": pa.array([], type=pa.string()),
                    "doc_id": batch["doc_id"].combine_chunks()
                    if isinstance(batch["doc_id"], pa.ChunkedArray)
                    else batch["doc_id"],
                }
            )
        dec = decode_text_table(batch)
        text = dec["text"].combine_chunks()
        ids = dec["doc_id"]
        out_p, out_i = [], []
        for p in pats:
            mask = pc.match_like(text, p)
            rows = np.flatnonzero(
                mask.to_numpy(zero_copy_only=False).astype(bool)
            )
            out_p.extend([p] * len(rows))
            out_i.append(ids.take(pa.array(rows)))
        return pa.table(
            {
                "pattern": pa.array(out_p, type=pa.string()),
                "doc_id": (
                    pa.concat_arrays(
                        [
                            c.combine_chunks()
                            if isinstance(c, pa.ChunkedArray)
                            else c
                        for c in out_i
                        ]
                    )
                    if out_i
                    else ids.slice(0, 0)  # empty, real id type
                ),
            }
        )

    return encoded.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
