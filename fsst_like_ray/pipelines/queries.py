"""Driver-facing query registry: every operator from SURVEY.md §2 (plus the
training-data operators) as a callable(sf_dir) → Dataset / DataFrame / Table,
with (where SQL-expressible) a DuckDB oracle producing identical columns.

The compression queries derive the north-rule tokens table from
``documents.text`` Unicode code points — the SAME derivation is expressed in
the oracle SQL, so the driver's value-hash compare gates bit-identical
round-trips through every codec.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data
from ray.data.aggregate import Count, Sum

from ..codecs import CODECS
from ..functions import dedup as F_dedup
from ..functions import similarity as F_sim
from ..functions import textstats as F_text
from ..functions import tokenops as T_tok
from ..functions.textstats import codepoints
from .columnar import (
    decode_column,
    decode_columns_dataset,
    encode_columns_dataset,
    like_count,
    like_scan_batch,
    like_scan_mask,
)


# ---------------------------------------------------------------- helpers
def _in_scratch(prefix: str):
    """Decorator for a query that builds stores or files of its own: it
    runs with a fresh scratch directory (``tempfile.mkdtemp(prefix=...)``)
    as its second argument and returns a Dataset result materialized,
    because a lazy one would read the directory that is removed, in a
    ``finally``, when the query returns or raises (store scans return
    ``to_arrow()`` themselves)."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(sf_dir: str):
            base = tempfile.mkdtemp(prefix=prefix)
            try:
                out = fn(sf_dir, base)
                if isinstance(out, ray.data.Dataset):
                    return out.materialize()
                return out
            finally:
                shutil.rmtree(base, ignore_errors=True)

        return run

    return wrap


def _docs(sf_dir: str, columns=("doc_id", "text", "source")):
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(columns)
    )


def to_tokens_batch(batch: pa.Table) -> pa.Table:
    """documents → the north-rule tokens shape, tokens = code points of text
    (oracle mirror: [unicode(substr(text,i,1)) FOR i IN range(...)])."""
    vals, off = codepoints(batch["text"])
    tok = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), type=pa.int32()),
        pa.array(vals, type=pa.int32()),
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tokens": tok,
            "n_tok": pa.array(np.diff(off).astype(np.int32), type=pa.int32()),
            "source": batch["source"],
        }
    )


def tok_str_batch(batch: pa.Table) -> pa.Table:
    """tokens list<int32> → comma-joined string (stable cross-system hash).
    Arrow kernels end to end: list<int32> → list<utf8> cast + binary_join —
    this runs on every decoded row of every roundtrip query, so a per-row
    Python join here would dominate the query."""
    import pyarrow.compute as pc

    toks = batch["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    s = pc.binary_join(toks.cast(pa.list_(pa.string())), ",")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tok": batch["n_tok"].cast(pa.int64()),
            "tok_str": s.cast(pa.string()),
        }
    )


def _tokens_ds(sf_dir: str):
    return _docs(sf_dir).map_batches(to_tokens_batch, batch_format="pyarrow")


ROUNDTRIP_SQL = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_tok,
       array_to_string([CAST(unicode(substr(text, i, 1)) AS INT)
                        FOR i IN range(1, length(text) + 1)], ',') AS tok_str
FROM documents
"""


def make_roundtrip(codec: str):
    """Tokens table → columnar encode (pipelines/columnar.py) → decode →
    comma-joined token strings. ``codec`` other than ``auto`` restricts
    every codec selection of the encode to that one codec."""
    names = None if codec == "auto" else [codec]

    def q(sf_dir: str):
        enc = encode_columns_dataset(_tokens_ds(sf_dir), codec_names=names)
        dec = decode_columns_dataset(enc)
        return dec.map_batches(tok_str_batch, batch_format="pyarrow")

    return q


def q_roundtrip_fsst_shared(sf_dir: str):
    """Spec-mode round-trip: the per-column codec choice (fsst for the
    token lists) is trained ONCE on a bounded driver-side sample of the
    derived tokens, then every block encodes under that pinned choice
    with no selection work (the 10^12-sequence amortization path). Each
    block still trains its own fsst table, so unsampled docs round-trip
    bit-exact, which is exactly what this oracle gates."""
    from .columnar import train_columnar_spec

    sample = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    ).slice(0, 64)
    spec = train_columnar_spec(to_tokens_batch(sample), ["fsst"])
    enc = encode_columns_dataset(_tokens_ds(sf_dir), spec=spec)
    dec = decode_columns_dataset(enc)
    return dec.map_batches(tok_str_batch, batch_format="pyarrow")


# ------------------------------------------------------------ LIKE queries
LIKE_PATTERNS = {
    "like_contains": ("%scan%", "auto"),
    "like_skipping": ("%window%", "skipping"),
    "like_kmp": ("%filter%", "kmp"),
    "like_multi": ("%merge%sort%", "auto"),
    "like_multi_kmp": ("%merge%sort%", "kmp"),
    "like_multi3_kmp": ("%the%fast%key%", "kmp"),
    "like_suffix": ("%join", "auto"),
    "like_prefix": ("the %", "auto"),
    "like_prefix_long": ("the fast key %", "auto"),
    "like_nomatch": ("%zzzqqq%", "auto"),
    # '_' single-char wildcard: the reference REJECTS it (StdFind.hpp:107);
    # we route it to the decoded full-SQL-LIKE path (matchers/pattern.py)
    "like_underscore": ("%f_st%", "auto"),
    # needle spanning word/symbol boundaries — exercises the set-cover
    # prefilter's alignment-consistent code sets (engines.py)
    "like_skipping2": ("%fast key%", "skipping"),
}


def _collect_ids(out, col: str) -> pa.Table:
    """Stream a Dataset's id column into ONE typed arrow table. When every
    block is empty, the result is seeded with a typed empty int64 column
    (an all-empty Ray Dataset drops its schema, which the driver's compare
    would read as a mismatch vs the oracle's typed empty frame). No
    per-row Python; the driver materializes results to compare them
    anyway."""
    parts = [
        b.select([col])
        for b in out.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    if not parts:
        return pa.table({col: pa.array([], type=pa.int64())})
    return pa.concat_tables(parts).combine_chunks()


def _encoded_docs(sf_dir: str):
    """(doc_id, text) documents, per-column encoded (auto scheme per
    block): the one compressed form every LIKE query scans."""
    return encode_columns_dataset(_docs(sf_dir, ("doc_id", "text")))


def _like_ids(enc, pattern: str, engine: str = "auto", id_col: str = "doc_id"):
    """``id_col`` of the encoded rows whose ``text`` matches ``pattern``:
    compressed-domain LIKE per batch, only the matches' ids decode."""
    out = enc.map_batches(
        lambda b: like_scan_batch(
            b, "text", pattern, out_columns=[id_col], engine=engine
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _collect_ids(out, id_col)


def make_like(pattern: str, engine: str):
    def q(sf_dir: str):
        return _like_ids(_encoded_docs(sf_dir), pattern, engine)

    return q


def make_like_count(pattern: str, engine: str):
    def q(sf_dir: str):
        n = like_count(_encoded_docs(sf_dir), "text", pattern, engine=engine)
        return pa.table({"n": pa.array([n], type=pa.int64())})

    return q


REGEX_PATTERN = "(scan|merge) the (fast|slow)"


def q_like_regex(sf_dir: str):
    """Regex predicate on the encoded corpus (cpp_regex analog,
    sketch.cc:572-587): regexes have no sound compressed-domain prefilter
    in general, so each batch decodes ONLY its text column and RE2-matches
    it (``pyarrow.compute.match_substring_regex``), streaming."""
    import pyarrow.compute as pc

    def scan(b: pa.Table) -> pa.Table:
        hit = pc.match_substring_regex(decode_column(b, "text"), REGEX_PATTERN)
        return pa.table({"doc_id": decode_column(b, "doc_id").filter(hit)})

    out = _encoded_docs(sf_dir).map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True
    )
    return _collect_ids(out, "doc_id")


# --------------------------------------------------- engine ranking artifact
# fixed pattern set for the reference's flagship per-engine comparison
# (sketch.cc:1306-1371): one per shape family so every engine appears
RANK_PATTERNS = ["%scan%", "%merge%sort%", "the fast key %", "%join"]


def q_engine_rank(sf_dir: str):
    """Deterministic (pattern, repr, engine, matches) projection of the
    engine-ranking bench — every applicable engine over the same encoded
    corpus; rank_engines itself raises if any engine disagrees with the
    decoded oracle, so a passing run certifies count agreement."""
    from .rank import FSSTB_TEXT, engine_rank_counts

    raw = _docs(sf_dir, ("doc_id", "text")).materialize()
    enc = encode_columns_dataset(raw, spec=FSSTB_TEXT).materialize()
    return engine_rank_counts(raw, enc, RANK_PATTERNS)


def engine_rank_oracle_sql() -> str:
    """Oracle generated from the SAME applicability table the ranking uses,
    so engine registration and the oracle can never drift apart."""
    from .rank import applicable_engines

    rows = []
    for pat in RANK_PATTERNS:
        for eng in applicable_engines(pat):
            rows.append((pat, "fsst", eng))
        rows.append((pat, "raw", "decoded"))
    rows.sort()
    selects = [
        f"SELECT '{p}' AS pattern, '{r}' AS \"repr\", '{e}' AS engine, "
        f"(SELECT CAST(count(*) AS BIGINT) FROM documents "
        f"WHERE text LIKE '{p}') AS matches"
        for p, r, e in rows
    ]
    return " UNION ALL ".join(selects)


# ------------------------------------------------------------- aggregates
def q_ntok_histogram(sf_dir: str):
    """Token-length skew: (bucket, rows, tokens) per log2 bucket of n_tok
    (bucket 0 holds empty docs, bucket b > 0 holds 2^(b-1) <= n_tok <
    2^b). Only (bucket, n_tok) pairs reach the groupby."""

    def bucket(b: pa.Table) -> pa.Table:
        n_tok = b["n_tok"].to_numpy().astype(np.int64)
        bk = np.zeros(len(n_tok), dtype=np.int64)
        nz = n_tok > 0
        bk[nz] = np.floor(np.log2(n_tok[nz])).astype(np.int64) + 1
        return pa.table({"bucket": bk, "n_tok": n_tok})

    return (
        _tokens_ds(sf_dir)
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="rows"), Sum("n_tok", alias_name="tokens"))
    )


def q_source_counts(sf_dir: str):
    agg = _docs(sf_dir).groupby("source").aggregate(Count(alias_name="n_docs"))
    return agg.map_batches(
        lambda b: pa.table(
            {"source": b["source"], "n_docs": b["n_docs"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


COMPRESSION_EST_TOL = 0.15


def q_compression_stats(sf_dir: str):
    """Encoded-size accounting as a per-codec GATE (all-true booleans, so
    the DuckDB oracle is exact): each batch prices every codec on
    the auto-selector's sample (``Codec.estimate`` with the full block's
    size, ungated, so fsst is priced too; reference compressed-size
    accounting sketch.cc:738-755) AND runs a real per-codec train+encode;
    totals are compared after the map. Booleans asserted per codec:
    ``est_positive``   — the estimator returned a real size;
    ``est_within_tol`` — |estimate − exact| ≤ 15% of exact (the fsst
                         held-out estimator is calibrated to ~2-4%);
    ``no_blowup``      — exact encoded bytes ≤ 2× plain + state (every
                         codec's documented worst case: fsst/rle at most
                         double their input, the rest stay under plain)."""
    from ..codecs.auto import _sample
    from ..buffers import list_buffers

    names = sorted(CODECS)

    def per_batch(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        sv, so = _sample(values, offsets, 1024)
        full = {"full_tokens": int(offsets[-1]), "full_rows": len(offsets) - 1}
        est, exact, state_sz = [], [], []
        for n in names:
            est.append(int(CODECS[n].estimate(sv, so, **full)[0]))
            state, buf, _po = CODECS[n].train_encode(values, offsets)
            exact.append(int(buf.size) + len(state))
            state_sz.append(len(state))
        plain = int(offsets[-1] - offsets[0]) * 4
        return pa.table(
            {
                "codec": pa.array(names, type=pa.string()),
                "est_bytes": pa.array(est, type=pa.int64()),
                "exact_bytes": pa.array(exact, type=pa.int64()),
                "plain_bytes": pa.array([plain] * len(names), type=pa.int64()),
                "state_bytes": pa.array(state_sz, type=pa.int64()),
            }
        )

    parts = (
        _tokens_ds(sf_dir)
        .map_batches(per_batch, batch_format="pyarrow", batch_size=2048)
        .take_all()
    )
    acc: dict[str, list[int]] = {n: [0, 0, 0, 0] for n in names}
    for r in parts:
        a = acc[r["codec"]]
        a[0] += int(r["est_bytes"])
        a[1] += int(r["exact_bytes"])
        a[2] += int(r["plain_bytes"])
        a[3] += int(r["state_bytes"])
    return pd.DataFrame(
        [
            {
                "codec": n,
                "est_positive": bool(0 < acc[n][0] < np.iinfo(np.int64).max),
                "est_within_tol": bool(
                    abs(acc[n][0] - acc[n][1])
                    <= COMPRESSION_EST_TOL * max(acc[n][1], 1)
                ),
                "no_blowup": bool(acc[n][1] <= 2 * acc[n][2] + acc[n][3]),
            }
            for n in names
        ]
    )


def q_compression_ratio_gate(sf_dir: str):
    """North-rule size criterion as a boolean gate: the auto codec's total
    encoded bytes of the tokens column (per-row payloads + block
    envelopes, which carry the codec states) must be under 5/9 of plain
    int32 — i.e. ratio >= 1.8 (measured 7.8-7.9x on the sf0.001-sf0.1
    documents, fsst winning each block; the reference's FSST achieves ~2x
    on raw TEXT bytes, and the int32 code points hold each byte in 4)."""

    from ..buffers import _group_indices
    from .columnar import _payload_buffers

    def summarize(b: pa.Table) -> pa.Table:
        # one encoded block per call: its envelopes (codec states) count once
        _buf, pay_off = _payload_buffers(b, "tokens")
        envs = _group_indices(b["tokens__blk"])[1]
        enc_bytes = int(pay_off[-1]) + sum(len(e) for e in envs)
        plain = int(b["tokens__n"].to_numpy().astype(np.int64).sum()) * 4
        return pa.table(
            {
                "enc": pa.array([enc_bytes], type=pa.int64()),
                "plain": pa.array([plain], type=pa.int64()),
            }
        )

    enc = encode_columns_dataset(_tokens_ds(sf_dir))
    tot_e = tot_p = 0
    for b in enc.map_batches(summarize, batch_format="pyarrow").iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        for r in b.to_pylist():
            tot_e += int(r["enc"])
            tot_p += int(r["plain"])
    ratio = tot_p / max(tot_e, 1)
    return pa.table({"ratio_ge_180": pa.array([bool(ratio >= 1.8)])})


def q_decode_selected(sf_dir: str):
    """Selected-row decompress (sketch.cc:770-785): encode everything, decode
    the doc_id column to pick doc_id % 10 == 0, then decode only those
    rows."""
    from .columnar import decode_column

    enc = encode_columns_dataset(_tokens_ds(sf_dir))

    def pick(b: pa.Table) -> pa.Table:
        ids = decode_column(b, "doc_id").to_numpy(zero_copy_only=False)
        return b.take(pa.array(np.flatnonzero(ids.astype(np.int64) % 10 == 0)))

    sel = enc.map_batches(pick, batch_format="pyarrow")
    dec = decode_columns_dataset(sel)
    return dec.map_batches(tok_str_batch, batch_format="pyarrow")


# --------------------------------------------- whole-table columnar engine
def q_columnar_roundtrip_docs(sf_dir: str):
    """Whole-table per-column encode→decode over documents: every column
    gets its own per-block auto-selected codec (strings through
    fsst/dict/plain scheme choice, int64 through split-stream int codecs —
    pipelines/columnar.py; the reference fixes ONE codec for ONE string
    column, src/BenchmarkDriver.cpp:87-140). The oracle hashes every
    decoded value, so this gates exact round-trip of the full table."""
    from .columnar import decode_columns_dataset, encode_columns_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    return decode_columns_dataset(encode_columns_dataset(ds))


def _columnar_verify_batch(b: pa.Table) -> pa.Table:
    """encode→decode one batch and assert BIT-exact equality per column
    (columnar.assert_bit_equal). Raises on any mismatch, so a passing
    query IS the round-trip proof; the returned table is the decoded data."""
    from .columnar import assert_bit_equal, decode_columns_batch, encode_columns_batch

    dec = decode_columns_batch(encode_columns_batch(b))
    assert_bit_equal(b, dec)
    return dec


def q_columnar_roundtrip_events(sf_dir: str):
    """Per-column codecs over the events table (timestamps → split
    lo/hi-32 delta/RLE streams, doubles → bit-view int codecs, strings →
    dict): bit-exact equality asserted in-batch, and the oracle hashes
    exact integer/string projections of the decoded values."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")

    def project(b: pa.Table) -> pa.Table:
        dec = _columnar_verify_batch(b)
        return pa.table(
            {
                "event_id": dec["event_id"],
                "ts_us": dec["ts"].cast(pa.int64()),
                "user_id": dec["user_id"],
                "event_type": dec["event_type"],
                "cents": pa.compute.cast(
                    pa.compute.round(pa.compute.multiply(dec["value"], 100.0)),
                    pa.int64(),
                ),
                "props": dec["props"],
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def q_columnar_roundtrip_embeddings(sf_dir: str):
    """Per-column codecs over embeddings (list<float32> rides the int codec
    registry as bit views; random mantissas are incompressible so auto
    honestly picks plain — the gate here is BIT-exactness, not ratio)."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def project(b: pa.Table) -> pa.Table:
        dec = _columnar_verify_batch(b)
        return pa.table(
            {
                "vec_id": dec["vec_id"],
                "label": dec["label"],
                "n_dims": pa.compute.list_value_length(
                    dec["embedding"]
                ).cast(pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def q_columnar_eq_scan(sf_dir: str):
    """Compressed-domain equality scan on an encoded string column: the
    strdict block probes its dictionary ONCE and compares int index codes —
    no string materializes for non-matching rows; survivors decode through
    the pruned column set (constant re-encode trick, sketch.cc:1306-1371)."""
    from .columnar import encode_columns_dataset, eq_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    enc = encode_columns_dataset(ds)
    return enc.map_batches(
        lambda b: eq_scan_batch(
            b, "source", "src7", out_columns=["doc_id", "lang", "n_chars"]
        ),
        batch_format="pyarrow",
    )


def q_columnar_like_scan(sf_dir: str):
    """Compressed-domain LIKE over the whole-table engine's fsstb text
    column — the reference's flagship capability (LIKE pushdown for FSST,
    README.md:1) on the per-column layout: required-code prefilters /
    C KMP walk run against each block's own symbol table
    (matchers/engines.match_block), and only surviving rows decode,
    through the pruned output-column set."""
    from .columnar import encode_columns_dataset, like_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    enc = encode_columns_dataset(ds)
    return enc.map_batches(
        lambda b: like_scan_batch(
            b, "text", "%merge%sort%",
            out_columns=["doc_id", "source", "n_chars"],
        ),
        batch_format="pyarrow",
    )


def q_columnar_like_dict_scan(sf_dir: str):
    """Dictionary-pushdown LIKE on a strdict-encoded column: the pattern
    evaluates ONCE over the block's dictionary (O(distinct), never O(rows))
    and verdicts map to rows through the int index stream — no row string
    materializes for misses."""
    from .columnar import encode_columns_dataset, like_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    enc = encode_columns_dataset(ds)
    return enc.map_batches(
        lambda b: like_scan_batch(
            b, "source", "src1%", out_columns=["doc_id", "lang"]
        ),
        batch_format="pyarrow",
    )


def q_columnar_predicate_scan(sf_dir: str):
    """Conjunctive compound predicate on the encoded table — IS NOT NULL
    (validity bitmaps, head-only), range (zone maps), IN (dictionary
    probes) and LIKE (engine stack) all evaluate in the compressed
    domain; survivors decode ONCE through the pruned output-column set
    (columnar.predicate_scan_batch). The notnull term matches every row
    on this null-free corpus — the oracle's WHERE clause says the same —
    so it verifies the op's pass-through end, while
    tests/test_columnar.py::test_store_null_predicates covers the
    null-present end."""
    from .columnar import encode_columns_dataset, predicate_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    enc = encode_columns_dataset(ds)
    preds = [
        ("notnull", "text"),
        ("range", "n_chars", 200, None),
        ("in", "source", ["src1", "src4", "src7"]),
        ("like", "text", "%merge%"),
    ]
    return enc.map_batches(
        lambda b: predicate_scan_batch(
            b, preds, out_columns=["doc_id", "source", "n_chars"]
        ),
        batch_format="pyarrow",
    )


def q_columnar_range_scan(sf_dir: str):
    """Zone-map range scan on an encoded int64 column: every numeric block
    envelope carries (vmin, vmax); blocks disjoint from the predicate skip
    without decoding a value (parquet row-group stats applied to the
    encoded layout). batch_size=2048 forces multiple blocks so the skip
    path actually exercises."""
    from .columnar import encode_columns_dataset, range_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    enc = encode_columns_dataset(ds, batch_size=2048)
    return enc.map_batches(
        lambda b: range_scan_batch(
            b, "event_id", lo=100, hi=900,
            out_columns=["event_id", "event_type", "user_id"],
        ),
        batch_format="pyarrow",
    )


@_in_scratch("columnar_pruned_")
def q_columnar_pruned_read(sf_dir: str, out: str):
    """Column-pruned read of a parquet-persisted encoded table: only the
    requested columns' blk/payload fields leave storage (read_parquet
    columns=), then only those decode. North-star 'prune at the read' on
    the encoded layout."""
    from .columnar import encode_columns_dataset, read_decoded_columns

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    encode_columns_dataset(ds).write_parquet(out)
    return read_decoded_columns(out, ["doc_id", "lang"])


@_in_scratch("columnar_store_")
def q_columnar_store_roundtrip(sf_dir: str, out: str):
    """The resumable whole-table store end to end: compress documents into
    a manifest-backed store (pipelines/tablestore.py), run the distributed
    per-fragment bit-exact verify (raises on mismatch), then stream the
    decoded table back — the north rule's lineage/resume contract applied
    to the per-column engine."""
    from .tablestore import compress_table, read_table_store, verify_table_store

    compress_table(f"{sf_dir}/documents.parquet", out)
    v = verify_table_store(f"{sf_dir}/documents.parquet", out)
    if not v["ok"]:
        raise ValueError(f"store verify failed: {v}")
    return read_table_store(out)


@_in_scratch("columnar_store_range_")
def q_columnar_store_range_scan(sf_dir: str, base: str):
    """Fragment-level zone pruning on the whole-table store: events split
    into four event_id-ordered source fragments → compress_table records
    per-fragment (vmin, vmax) zone envelopes in the lineage manifest →
    scan_table_store opens ONLY fragments intersecting the predicate
    (asserted: ≥2 of 4 skip before any part file opens), then block zone
    maps and column pruning take over inside the survivors. The 100-TB
    path: a selective range over time-ordered data touches a handful of
    fragments."""
    from .tablestore import compress_table, scan_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    # scale-free bounds — the first eighth of the id range lies inside the
    # first of four row-balanced fragments at every sf (mirrored in SQL)
    import pyarrow.compute as pc

    ids = src["event_id"]
    mn = pc.min(ids).as_py()
    mx = pc.max(ids).as_py()
    stats: dict = {}
    out = scan_table_store(
        store, "event_id", lo=mn, hi=mn + (mx - mn) // 8,
        columns=["event_id", "event_type", "user_id"], stats_out=stats,
    )
    if stats["fragments_skipped"] < 2:
        raise ValueError(f"zone pruning did not engage: {stats}")
    return out.to_arrow()


@_in_scratch("columnar_store_cluster_")
def q_columnar_store_cluster_scan(sf_dir: str, base: str):
    """Cluster-while-encoding on UNSORTED input: events shuffled by a
    seeded permutation, range-sorted into the store by ONE distributed
    sort (tablestore.cluster_table_store), then the same zone-pruned
    range scan as columnar_store_range_scan — fragment envelopes come
    out disjoint, so pruning engages on data that arrived unordered
    (asserted: more fragments skipped than scanned)."""
    import pyarrow.compute as pc

    from .tablestore import cluster_table_store, scan_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet")
    rng = np.random.default_rng(41)
    src = src.take(pa.array(rng.permutation(src.num_rows)))
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    pq.write_table(src, os.path.join(frag_dir, "shuffled.parquet"))
    store = os.path.join(base, "store")
    # rows_per_fragment pins the output fragment count: without it a
    # single-block sort (small sf / few CPUs) would yield one fragment
    # and the prune assertion below could never engage
    cluster_table_store(
        frag_dir, store, "event_id",
        rows_per_fragment=max(1, src.num_rows // 6),
    )
    ids = src["event_id"]
    mn = pc.min(ids).as_py()
    mx = pc.max(ids).as_py()
    stats: dict = {}
    out = scan_table_store(
        store, "event_id", lo=mn, hi=mn + (mx - mn) // 8,
        columns=["event_id", "event_type", "user_id"], stats_out=stats,
    )
    if stats["fragments_skipped"] <= stats["fragments_scanned"]:
        raise ValueError(f"cluster pruning did not engage: {stats}")
    return out.to_arrow()


@_in_scratch("columnar_store_count_")
def q_columnar_store_count(sf_dir: str, base: str):
    """Metadata-only COUNT on the store: fragments fully covered by the
    range (zone inside bounds, zero recorded nulls) contribute their
    manifest row counts without opening a file; boundary fragments count
    zone-mask bits over ONE column's encoded fields; disjoint fragments
    skip (tablestore.count_table_store; asserted: ≥1 metadata-only and
    ≥1 skipped)."""
    from .tablestore import compress_table, count_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    import pyarrow.compute as pc

    ids = src["event_id"]
    mn = pc.min(ids).as_py()
    mx = pc.max(ids).as_py()
    stats: dict = {}
    total = count_table_store(
        store, "event_id", lo=mn, hi=mn + (mx - mn) // 2, stats_out=stats
    )
    if stats["fragments_meta"] < 1 or stats["fragments_skipped"] < 1:
        raise ValueError(f"metadata count did not engage: {stats}")
    return pa.table({"n": pa.array([total], type=pa.int64())})


@_in_scratch("columnar_store_hist_")
def q_columnar_store_histogram(sf_dir: str, base: str):
    """Equi-width histogram off the store's encoded int streams
    (tablestore.histogram_table_store): one pruned-column pass, ≤ bins+2
    partial rows per batch, bounds free from the manifest zone envelope.
    The bin rule is pure integer floor division, so the SQL oracle
    reproduces every count exactly."""
    from .tablestore import compress_table, histogram_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    return histogram_table_store(store, "user_id", n_bins=16)


@_in_scratch("columnar_store_topk_")
def q_columnar_store_topk(sf_dir: str, base: str):
    """Zone-pruned top-k on the store: fragments process in zone-bound
    order and the scan STOPS once the k-th best beats every remaining
    fragment's envelope — only the winning rows ever decode
    (tablestore.topk_table_store; asserted: ≥2 of 4 fragments skip)."""
    from .tablestore import compress_table, topk_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    stats: dict = {}
    top = topk_table_store(
        store, "event_id", 20, descending=True,
        columns=["event_id", "event_type", "user_id"], stats_out=stats,
    )
    if stats["fragments_skipped"] < 2:
        raise ValueError(f"top-k zone pruning did not engage: {stats}")
    return top


@_in_scratch("columnar_store_group_topk_")
def q_columnar_store_group_topk(sf_dir: str, out: str):
    """Top-N-per-key over the store: the 3 highest event_ids per
    event_type — group keys from block dictionaries, ranks from cached
    int streams, only ≤k-per-group candidates decode per batch, the
    driver re-ranks a cardinality-bounded candidate set
    (tablestore.group_topk_table_store)."""
    from .tablestore import compress_table, group_topk_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    return group_topk_table_store(
        out, "event_type", "event_id", 3,
        columns=["event_type", "event_id", "user_id"],
    )


@_in_scratch("columnar_store_count_where_")
def q_columnar_store_count_where(sf_dir: str, base: str):
    """COUNT(*) under a compound predicate, no row decode: events in the
    first quarter of the id span AND of type 'click' — disjoint
    fragments prune on zones (asserted), survivors count predicate-mask
    bits per batch (tablestore.count_where_table_store)."""
    from .tablestore import compress_table, count_where_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    ids = src["event_id"]
    mn = pa.compute.min(ids).as_py()
    mx = pa.compute.max(ids).as_py()
    stats: dict = {}
    total = count_where_table_store(
        store,
        [
            ("range", "event_id", mn, mn + (mx - mn) // 4),
            ("eq", "event_type", "click"),
        ],
        stats_out=stats,
    )
    if stats["fragments_skipped"] < 2:
        raise ValueError(f"count-where pruning did not engage: {stats}")
    return pa.table({"n": pa.array([total], type=pa.int64())})


@_in_scratch("columnar_store_eqbloom_")
def q_columnar_store_eq_bloom(sf_dir: str, base: str):
    """Point lookup pruned by per-fragment int-key value blooms: events
    laid out by user_id % 4 make every fragment's zone envelope span the
    whole key range (zones alone prune nothing), yet an equality on one
    user_id must touch only the fragment of its residue class — the
    lineage value bloom proves the other three lack the key. Pruning is
    asserted; the rows themselves oracle against plain SQL."""
    from .tablestore import compress_table, predicate_scan_table_store

    src = pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type"],
    )
    uid = src["user_id"].to_numpy(zero_copy_only=False)
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    for i in range(4):
        part = src.filter(pa.array((uid % 4) == i))
        pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    target = int(uid.min())
    stats: dict = {}
    got = predicate_scan_table_store(
        store,
        [("eq", "user_id", target)],
        columns=["event_id", "user_id", "event_type"],
        stats_out=stats,
    )
    if stats["fragments_skipped"] < 2:
        raise ValueError(f"value-bloom pruning did not engage: {stats}")
    return got.to_arrow()


def _derive_event_cents(t: pa.Table) -> pa.Table:
    """Backfill kernel for columnar_store_derive (module-level so Ray
    workers import it by reference): integer cents + uppercased type."""
    import pyarrow.compute as pc

    v = t["value"].to_numpy(zero_copy_only=False)
    t = t.append_column(
        "value_cents",
        pa.array(np.floor(v * 100 + 0.5).astype(np.int64), type=pa.int64()),
    )
    return t.append_column("etype_upper", pc.utf8_upper(t["event_type"]))


@_in_scratch("columnar_store_derive_")
def q_columnar_store_derive(sf_dir: str, base: str):
    """Column backfill over a committed store WITHOUT its source
    (derive_table_store): decode → append derived columns (integer cents,
    uppercased type) → re-encode, source columns verified bit-exact
    per fragment before commit, derived columns earning zones/blooms/NDV
    lineage. The derived store's rows oracle against plain SQL."""
    from .tablestore import (
        compress_table,
        derive_table_store,
        read_table_store,
    )

    store = os.path.join(base, "store")
    compress_table(f"{sf_dir}/events.parquet", store)
    derived = os.path.join(base, "derived")
    derive_table_store(store, derived, _derive_event_cents)
    ds = read_table_store(derived)

    def fmt(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "value_cents", "etype_upper"])

    return ds.map_batches(fmt, batch_format="pyarrow")


@_in_scratch("columnar_store_dropcol_")
def q_columnar_store_drop_column(sf_dir: str, base: str):
    """Column erasure over a committed store (drop_columns_table_store —
    the GDPR whole-column complement to the row-level key delete): the
    events store rewritten WITHOUT user_id; kept columns verified
    bit-exact per fragment during the rewrite, and the result oracles
    against SELECT * EXCLUDE (user_id)."""
    from .tablestore import (
        compress_table,
        drop_columns_table_store,
        read_table_store,
    )

    store = os.path.join(base, "store")
    compress_table(f"{sf_dir}/events.parquet", store)
    dst = os.path.join(base, "erased")
    drop_columns_table_store(store, dst, ["user_id"])
    return read_table_store(dst)


@_in_scratch("columnar_store_tokens_")
def q_columnar_store_tokens_roundtrip(sf_dir: str, base: str):
    """The whole-table store holding the NORTH-RULE tokens table itself
    (doc_id, tokens list<int32>, n_tok, source) — list columns ride the
    per-column auto codecs through the full compress_table lifecycle
    (manifest, parts, resume) and decode bit-exact; oracled against the
    same codepoint reconstruction every encode round-trip uses."""
    from .tablestore import compress_table, read_table_store

    src = os.path.join(base, "tokens.parquet")
    tbl = pa.concat_tables(
        b
        for b in _tokens_ds(sf_dir).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        )
        if b.num_rows
    )
    pq.write_table(tbl, src)
    store = os.path.join(base, "store")
    compress_table(src, store)
    return read_table_store(store).map_batches(
        tok_str_batch, batch_format="pyarrow"
    )


@_in_scratch("columnar_store_ndv_")
def q_columnar_store_ndv_gate(sf_dir: str, base: str):
    """Gate: planner statistics from lineage alone. Encode-time HLL
    registers per int/string column ride the manifest; ndv_table_store
    merges them (elementwise max) and estimates COUNT(DISTINCT) with no
    Ray session and no file opens. Each estimate must land within 5 % of
    the exact distinct count (HLL P=12 sigma ≈ 1.6 %, so 5 % ≈ 3σ) —
    exact counts computed with Arrow from the source, the
    approx_distinct_text gate pattern."""
    from .tablestore import compress_table, ndv_table_store

    src_path = f"{sf_dir}/events.parquet"
    store = os.path.join(base, "store")
    compress_table(src_path, store)
    ndv = ndv_table_store(store)
    cols = ["user_id", "event_type"]
    tbl = pq.read_table(src_path, columns=cols)
    oks = []
    for c in cols:
        exact = len(pa.compute.unique(tbl[c].drop_null()))
        oks.append(abs(ndv[c] - exact) <= 0.05 * exact)
    return pa.table(
        {
            "column": pa.array(cols, type=pa.string()),
            "err_le_5pct": pa.array(oks, type=pa.bool_()),
        }
    )


@_in_scratch("columnar_store_topk_where_")
def q_columnar_store_topk_where(sf_dir: str, base: str):
    """Top-k WHERE on the store: the 20 highest event_ids among 'click'
    events — fragments process best-zone-first and the scan still stops
    early, the equality predicate masks rows in the compressed domain
    (dictionary probe) before ranking, only winners decode
    (tablestore.topk_table_store(preds=...))."""
    from .tablestore import compress_table, topk_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    stats: dict = {}
    top = topk_table_store(
        store, "event_id", 20, descending=True,
        columns=["event_id", "event_type", "user_id"],
        preds=[("eq", "event_type", "click")], stats_out=stats,
    )
    if stats["fragments_skipped"] < 1:
        raise ValueError(f"top-k-where pruning did not engage: {stats}")
    return top


@_in_scratch("columnar_store_likeprune_")
def q_columnar_store_like_prune(sf_dir: str, base: str):
    """Gate: fragment-level trigram pruning for LIKE on the store. The
    documents table splits into four fragments with a marker literal
    planted ONLY in the last; the manifest blooms must prune the other
    three before any part file opens, and the matched doc_ids must equal
    the planted set exactly. All-true booleans, SQL-gated."""
    from .tablestore import compress_table, like_table_store

    src = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).sort_by("doc_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    planted: list[int] = []
    for i in range(4):
        part = src.slice(i * step, step)
        if not part.num_rows:
            continue
        if i == 3:  # plant the marker in every 7th row of the LAST slice
            ids = part["doc_id"].to_pylist()
            texts = part["text"].to_pylist()
            for j in range(0, len(texts), 7):
                texts[j] = (texts[j] or "") + " zqmarker"
                planted.append(ids[j])
            part = pa.table(
                {"doc_id": part["doc_id"], "text": pa.array(texts)}
            )
        pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    stats: dict = {}
    got = like_table_store(
        store, "text", "%zqmarker%", columns=["doc_id"], stats_out=stats
    )
    ids = sorted(got.to_arrow()["doc_id"].to_pylist())
    return pa.table(
        {
            "pruned_ge_3": pa.array([stats["fragments_skipped"] >= 3]),
            "matches_exact": pa.array([ids == sorted(planted)]),
        }
    )


@_in_scratch("columnar_store_groupby_")
def q_columnar_store_groupby(sf_dir: str, out: str):
    """Compressed-domain GROUP BY on the whole-table store: documents
    compress into a manifest-backed store, then group keys stream through
    the per-block string dictionaries and COUNT/SUM/MIN/MAX(n_chars)
    through (LRU-cached) int block streams — neither column decodes to
    rows, only the two columns' encoded fields leave storage, and one
    cardinality-bounded partial row per group per batch crosses the
    cluster (tablestore.group_agg_table_store)."""
    from .tablestore import compress_table, group_agg_table_store

    compress_table(f"{sf_dir}/documents.parquet", out)
    return group_agg_table_store(out, "source", "n_chars")


@_in_scratch("columnar_store_groupby_where_")
def q_columnar_store_groupby_where(sf_dir: str, base: str):
    """GROUP BY ... WHERE entirely in the compressed domain: over a
    4-fragment doc_id-ordered documents store, a compound predicate
    (doc_id range + LIKE on text) prunes whole fragments via manifest
    zone envelopes first (asserted ≥2 of 4 skip), survivors filter per
    batch through the predicate masks, and only then do the dictionary
    group keys and cached n_chars streams aggregate — no row ever
    decodes (tablestore.group_agg_table_store(preds=...))."""
    from .tablestore import compress_table, group_agg_table_store

    src = pq.read_table(f"{sf_dir}/documents.parquet").sort_by("doc_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    ids = src["doc_id"]
    mn = pa.compute.min(ids).as_py()
    mx = pa.compute.max(ids).as_py()
    stats: dict = {}
    out = group_agg_table_store(
        store,
        "source",
        "n_chars",
        preds=[
            ("range", "doc_id", mn, mn + (mx - mn) // 4),
            ("like", "text", "%the%"),
        ],
        stats_out=stats,
    )
    if stats["fragments_skipped"] < 2:
        raise ValueError(f"groupby-where pruning did not engage: {stats}")
    return out


@_in_scratch("columnar_store_groupby_time_")
def q_columnar_store_groupby_time(sf_dir: str, out: str):
    """Time-windowed rollup in the compressed domain: events grouped by
    DAY — the microsecond timestamp column floor-bucketed by
    86_400_000_000 straight off its cached int streams (no timestamp
    object ever materializes) — with COUNT/MIN/MAX(event_id) per day
    (tablestore.group_agg_table_store(bucket=...), int-keyed output)."""
    from .tablestore import compress_table, group_agg_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    return group_agg_table_store(
        out, "ts", "event_id", ops=("count", "min", "max"),
        bucket=86_400_000_000,
    )


@_in_scratch("columnar_store_groupby_dist_")
def q_columnar_store_groupby_dist(sf_dir: str, out: str):
    """The unbounded-cardinality GROUP BY path: documents grouped by
    doc_id (every key distinct — the shape where a driver-side fold
    cannot hold the key space) with COUNT/SUM/MIN/MAX(n_chars); partials
    stream through ONE groupby shuffle and merge inside map_groups,
    returning a Dataset (tablestore.group_agg_table_store(
    distributed=True) → columnar.columnar_group_agg_ds)."""
    from .tablestore import compress_table, group_agg_table_store

    compress_table(f"{sf_dir}/documents.parquet", out)
    return group_agg_table_store(out, "doc_id", "n_chars", distributed=True)


@_in_scratch("columnar_store_aggmeta_")
def q_columnar_store_agg_meta(sf_dir: str, base: str):
    """Metadata-only scalar aggregates on the store: over a 4-fragment
    events store, MIN/MAX/COUNT(event_id) answer purely from the lineage
    manifest's zone envelopes and null counts — asserted ZERO part files
    open — while SUM(user_id) scans just that one column's encoded
    fields (tablestore.agg_table_store)."""
    from .tablestore import agg_table_store, compress_table

    src = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(frag_dir, store)
    stats: dict = {}
    a = agg_table_store(
        store, "event_id", ops=("min", "max", "count"), stats_out=stats
    )
    if stats["fragments_scanned"]:
        raise ValueError(f"metadata aggregate opened files: {stats}")
    s = agg_table_store(store, "user_id", ops=("sum",))
    return pa.table(
        {
            "vmin": pa.array([a["min"]], type=pa.int64()),
            "vmax": pa.array([a["max"]], type=pa.int64()),
            "cnt": pa.array([a["count"]], type=pa.int64()),
            "usum": pa.array([s["sum"]], type=pa.int64()),
        }
    )


@_in_scratch("columnar_store_semijoin_")
def q_columnar_store_semijoin(sf_dir: str, base: str):
    """Store-to-store semi-join from committed-store operators alone: the
    two lexicographically-first event types become a dimension STORE;
    its key set folds back out of the per-block dictionaries
    (distinct_table_store — never a row decode), and the fact store
    scans with an IN predicate (dictionary probes per block, trigram
    bloom pruning at the fragment tier). The broadcast-small-side
    semi-join pattern, expressed entirely in the compressed domain."""
    from .tablestore import (
        compress_table,
        distinct_table_store,
        predicate_scan_table_store,
    )

    fact = os.path.join(base, "fact")
    compress_table(f"{sf_dir}/events.parquet", fact)
    keys = distinct_table_store(fact, "event_type")["value"].to_pylist()[:2]
    dim_src = os.path.join(base, "dim.parquet")
    pq.write_table(
        pa.table({"event_type": pa.array(keys, type=pa.string())}), dim_src
    )
    dim = os.path.join(base, "dim_store")
    compress_table(dim_src, dim)
    dim_keys = distinct_table_store(dim, "event_type")["value"].to_pylist()
    return predicate_scan_table_store(
        fact,
        [("in", "event_type", dim_keys)],
        columns=["event_id", "event_type", "user_id"],
    ).to_arrow()


@_in_scratch("columnar_store_groupby_multi_")
def q_columnar_store_groupby_multi(sf_dir: str, out: str):
    """Multi-aggregate GROUP BY in one compressed-domain pass: events by
    event_type with SUM/MIN/MAX(user_id) AND MIN/MAX(event_id) — each
    aggregate column's cached streams decode once for all its ops,
    output columns named {op}_{col}
    (tablestore.group_agg_table_store(aggs=...))."""
    from .tablestore import compress_table, group_agg_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    return group_agg_table_store(
        out,
        "event_type",
        aggs={
            "user_id": ("sum", "min", "max"),
            "event_id": ("min", "max"),
        },
    )


@_in_scratch("columnar_store_group_multikey_")
def q_columnar_store_group_multikey(sf_dir: str, out: str):
    """Composite-key GROUP BY in the compressed domain: events by
    (event_type, day-bucketed ts) with COUNT(*)/SUM(user_id) — string
    keys from block dictionaries, time keys floor-bucketed off the
    cached int streams, composed per batch into self-describing key
    tuples that ride the same binary-value partial fold as single keys
    (columnar._group_head_multi; output one column per key, named after
    the source columns)."""
    from .tablestore import compress_table, group_agg_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    return group_agg_table_store(
        out, ["event_type", "ts"], "user_id",
        ops=("count", "sum"), bucket={"ts": 86_400_000_000},
    )


@_in_scratch("columnar_store_filter_")
def q_columnar_store_filter(sf_dir: str, base: str):
    """Predicate-filtered store rewrite (retention / targeted delete):
    over a 4-fragment event_id-ordered store, a range keeping the first
    ~3/8 of the id span DROPS the two disjoint fragments via zero-row
    markers (no file opens), COPIES the fully-covered fragment's encoded
    parts verbatim (no re-encode), and REWRITES only the one boundary
    fragment (survivors picked by the compressed-domain mask,
    self-verified). The filtered store streams back for the oracle
    (tablestore.filter_table_store)."""
    from .tablestore import (
        compress_table,
        filter_table_store,
        read_table_store,
    )

    src_tbl = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src_tbl.num_rows
    step = max(1, (n + 3) // 4)
    for i in range(4):
        part = src_tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    src = os.path.join(base, "store")
    compress_table(frag_dir, src)
    ids = src_tbl["event_id"]
    mn = pa.compute.min(ids).as_py()
    mx = pa.compute.max(ids).as_py()
    dst = os.path.join(base, "filtered")
    stats: dict = {}
    filter_table_store(
        src, dst, [("range", "event_id", mn, mn + (mx - mn) * 3 // 8)],
        stats_out=stats,
    )
    if stats["fragments_dropped"] < 2 or stats["fragments_copied"] < 1:
        raise ValueError(f"filter fast paths did not engage: {stats}")
    return read_table_store(dst)


@_in_scratch("columnar_store_compact_")
def q_columnar_store_compact(sf_dir: str, base: str):
    """Fragment compaction without re-encoding: an 8-fragment
    event_id-ordered store packs into ≤3 fragments by zone order —
    part files copy byte-identical (encoded bytes asserted unchanged),
    lineage merges exactly, and a range scan still prunes on the merged
    envelopes (tablestore.compact_table_store). The compacted store
    streams back for the oracle."""
    from .tablestore import (
        compact_table_store,
        compress_table,
        read_table_store,
        scan_table_store,
        store_lineage_rollup,
    )

    src_tbl = pq.read_table(f"{sf_dir}/events.parquet").sort_by("event_id")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    n = src_tbl.num_rows
    step = max(1, (n + 7) // 8)
    for i in range(8):
        part = src_tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(frag_dir, f"f{i}.parquet"))
    src = os.path.join(base, "store")
    compress_table(frag_dir, src)
    dst = os.path.join(base, "compacted")
    compact_table_store(src, dst, target_rows=max(1, n // 3), order_by="event_id")
    if store_lineage_rollup(dst)["encoded_bytes"] != store_lineage_rollup(
        src
    )["encoded_bytes"]:
        raise ValueError("compaction re-encoded data")
    ids = src_tbl["event_id"]
    mn = pa.compute.min(ids).as_py()
    mx = pa.compute.max(ids).as_py()
    stats: dict = {}
    scan_table_store(
        dst, "event_id", lo=mn, hi=mn + (mx - mn) // 8, stats_out=stats
    )
    if stats["fragments_skipped"] < 1:
        raise ValueError(f"compacted zones lost pruning: {stats}")
    return read_table_store(dst)


@_in_scratch("columnar_store_sample_")
def q_columnar_store_sample(sf_dir: str, out: str):
    """Deterministic hash sample over the store: the keep decision is a
    multiplicative hash of the id read from the cached int streams —
    SQL-mirrorable bit for bit, stable under read parallelism and
    resume, and only sampled rows decode
    (tablestore.sample_table_store)."""
    from .tablestore import compress_table, sample_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    return sample_table_store(
        out, "event_id", rate=0.25, seed=7,
        columns=["event_id", "event_type", "user_id"],
    ).to_arrow()


@_in_scratch("columnar_store_semijoin_int_")
def q_columnar_store_semijoin_int(sf_dir: str, out: str):
    """Semi-join on INT keys, compressed-domain end to end: the three
    smallest distinct user_ids fold from the store's cached int streams
    (distinct_table_store), then the fact store scans with an int IN
    predicate — sorted-searchsorted membership over the block streams,
    zone pruning at the fragment tier (columnar.in_scan_mask int
    branch)."""
    from .tablestore import (
        compress_table,
        distinct_table_store,
        predicate_scan_table_store,
    )

    compress_table(f"{sf_dir}/events.parquet", out)
    keys = distinct_table_store(out, "user_id")["value"].to_pylist()[:3]
    return predicate_scan_table_store(
        out,
        [("in", "user_id", keys)],
        columns=["event_id", "event_type", "user_id"],
    ).to_arrow()


def _store_join_sides(sf_dir: str, base: str):
    """Shared fixture for the store-join queries: orders (fact) and
    customer (dim) each encoded into a committed store under ``base``."""
    from .tablestore import compress_table

    lo, ro = os.path.join(base, "l"), os.path.join(base, "r")
    compress_table(f"{sf_dir}/orders.parquet", lo)
    compress_table(f"{sf_dir}/customer.parquet", ro)
    return lo, ro


@_in_scratch("columnar_store_join_")
def q_columnar_store_join(sf_dir: str, base: str):
    """Store ⋈ store equi-join, broadcast path: orders and customer each
    compress into a committed store; lineage key envelopes become range
    predicates on the opposite side (fragment + block pruning before any
    decode), the customer side materializes once and broadcasts, orders
    stream through a map_batches probe with a compressed-domain status
    predicate (tablestore.join_table_store)."""
    from .tablestore import join_table_store

    lo, ro = _store_join_sides(sf_dir, base)
    return join_table_store(
        lo,
        ro,
        on="o_custkey",
        right_on="c_custkey",
        left_columns=["o_orderkey", "o_totalprice"],
        right_columns=["c_mktsegment"],
        left_preds=[("eq", "o_orderstatus", "O")],
    )


@_in_scratch("columnar_store_join_")
def q_columnar_store_join_dist(sf_dir: str, base: str):
    """Same join forced down the big⋈big path: both stores stream into
    functions/join.shuffle_hash_join (ONE co-partitioning shuffle, int
    keys) — the route a fact⋈fact join takes at 100 TB where neither
    side fits a broadcast."""
    from .tablestore import join_table_store

    lo, ro = _store_join_sides(sf_dir, base)
    return join_table_store(
        lo,
        ro,
        on="o_custkey",
        right_on="c_custkey",
        left_columns=["o_orderkey", "o_totalprice"],
        right_columns=["c_mktsegment"],
        left_preds=[("eq", "o_orderstatus", "O")],
        distributed=True,
    )


@_in_scratch("columnar_store_append_")
def q_columnar_store_append(sf_dir: str, base: str):
    """Incremental ingest: the events table arrives as two parquet
    deliveries; the store commits the first, then append_table_store
    encodes ONLY the second (manifest resume contract as append ledger,
    schema-gated). The full-store read must equal the whole table."""
    from .tablestore import (
        append_table_store,
        compress_table,
        read_table_store,
    )

    src = pq.read_table(f"{sf_dir}/events.parquet")
    d = os.path.join(base, "src")
    os.makedirs(d)
    half = src.num_rows // 2
    pq.write_table(src.slice(0, half), f"{d}/part-0.parquet")
    pq.write_table(src.slice(half), f"{d}/part-1.parquet")
    out = os.path.join(base, "store")
    compress_table(f"{d}/part-0.parquet", out)
    st = append_table_store(
        [f"{d}/part-0.parquet", f"{d}/part-1.parquet"], out
    )
    if st["appended_fragments"] != 1 or st["rows"] != src.num_rows:
        raise AssertionError(f"append_table_store lineage off: {st}")
    return read_table_store(out)


@_in_scratch("columnar_store_sort_")
def q_columnar_store_sort(sf_dir: str, base: str):
    """Total-order export from the store, general path: ORDER BY a
    float column whose fragment zones overlap (value), ties broken by
    event_id so the order is total, with a GLOBAL 0-based rownum column
    stamped from per-block row-count prefix sums — the sorted blocks
    never land on the driver (tablestore.sort_table_store; asserted:
    the shuffle path ran, not zonemerge)."""
    from .tablestore import compress_table, sort_table_store

    src = pq.read_table(f"{sf_dir}/events.parquet")
    frag_dir = os.path.join(base, "src")
    os.makedirs(frag_dir)
    # four delivery files in arrival order: value is i.i.d. per row, so
    # every fragment's value envelope overlaps — zonemerge must decline
    step = max(1, -(-src.num_rows // 4))
    for i in range(0, src.num_rows, step):
        pq.write_table(
            src.slice(i, step),
            os.path.join(frag_dir, f"part-{i // step}.parquet"),
        )
    out = os.path.join(base, "store")
    compress_table(frag_dir, out)
    stats: dict = {}
    ds = sort_table_store(
        out, ["value", "event_id"], columns=["event_id", "value"],
        stats_out=stats,
    )
    if stats["path"] != "sort":
        raise AssertionError(f"expected shuffle sort path: {stats}")
    return ds


@_in_scratch("columnar_store_sortm_")
def q_columnar_store_sort_merge(sf_dir: str, base: str):
    """Total-order export from the store, zonemerge path: after
    cluster_table_store the fragment envelopes on event_id are pairwise
    disjoint, so the global ORDER BY decomposes into per-fragment local
    sorts with rownum stamped from lineage row-count prefix sums — ZERO
    rows cross tasks, no shuffle (tablestore.sort_table_store;
    asserted: the zonemerge path ran over >1 fragment)."""
    from .tablestore import cluster_table_store, sort_table_store

    store = os.path.join(base, "store")
    n = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    cluster_table_store(
        f"{sf_dir}/events.parquet", store, "event_id",
        rows_per_fragment=max(1, n // 6),
    )
    stats: dict = {}
    ds = sort_table_store(
        store, "event_id", columns=["event_id", "event_type", "user_id"],
        stats_out=stats,
    )
    if stats["path"] != "zonemerge" or stats["fragments"] < 2:
        raise AssertionError(f"expected zonemerge path: {stats}")
    return ds


@_in_scratch("columnar_store_upsert_")
def q_columnar_store_upsert(sf_dir: str, base: str):
    """CDC MERGE into the store: a delta of updates (value+1000 on
    event_id % 7 = 3 within the lowest third of the id range) and
    inserts (ids shifted past max for event_id % 13 = 5) upserts into a
    clustered events store — fragments whose id zones miss every delta
    key COPY verbatim (no decode), overlapping ones rewrite through the
    negated compressed-domain IN mask, the delta appends with full
    lineage (tablestore.upsert_table_store; asserted: ≥1 copied AND ≥1
    rewritten, replaced == update count)."""
    import pyarrow.compute as pc

    from .tablestore import (
        cluster_table_store,
        read_table_store,
        upsert_table_store,
    )

    src_tbl = pq.read_table(f"{sf_dir}/events.parquet")
    ids = src_tbl["event_id"]
    lo = pc.min(ids).as_py()
    hi = pc.max(ids).as_py()
    cut = lo + (hi - lo) // 3

    def _mod_mask(m, r):
        return pc.equal(
            pc.subtract(ids, pc.multiply(pc.divide(ids, m), m)), r
        )

    upd = src_tbl.filter(
        pc.and_(_mod_mask(7, 3), pc.less_equal(ids, cut))
    )
    upd = upd.set_column(
        upd.schema.get_field_index("event_type"),
        "event_type",
        pa.array(["upd"] * upd.num_rows),
    )
    upd = upd.set_column(
        upd.schema.get_field_index("value"),
        "value",
        pc.add(upd["value"], 1000.0),
    )
    ins = src_tbl.filter(_mod_mask(13, 5))
    ins = ins.set_column(
        ins.schema.get_field_index("event_id"),
        "event_id",
        pc.add(ins["event_id"], hi + 1),
    )
    ins = ins.set_column(
        ins.schema.get_field_index("event_type"),
        "event_type",
        pa.array(["ins"] * ins.num_rows),
    )
    delta_path = os.path.join(base, "delta-0.parquet")
    pq.write_table(pa.concat_tables([upd, ins]), delta_path)

    store = os.path.join(base, "store")
    n = src_tbl.num_rows
    cluster_table_store(
        f"{sf_dir}/events.parquet", store, "event_id",
        rows_per_fragment=max(1, n // 6),
    )
    dst = os.path.join(base, "merged")
    stats: dict = {}
    upsert_table_store(store, dst, delta_path, "event_id", stats_out=stats)
    if stats["fragments_copied"] < 1 or stats["fragments_rewritten"] < 1:
        raise AssertionError(f"upsert prune did not engage: {stats}")
    if stats["rows_replaced"] != upd.num_rows:
        raise AssertionError(
            f"rows_replaced {stats['rows_replaced']} != {upd.num_rows}"
        )
    return read_table_store(dst)


@_in_scratch("columnar_store_delete_")
def q_columnar_store_delete(sf_dir: str, base: str):
    """Key-list delete (the GDPR shape) from a clustered store: ids
    with event_id % 11 = 0 inside the lowest half of the id range
    delete by identity; fragments above the cut COPY verbatim — no
    decode (tablestore.delete_keys_table_store; asserted: ≥1 copied,
    ≥1 rewritten, deleted == key count). Then a vacuum over a planted
    orphan fragment dir proves GC never touches committed data."""
    import pyarrow.compute as pc

    from .tablestore import (
        cluster_table_store,
        delete_keys_table_store,
        read_table_store,
        vacuum_table_store,
    )

    src_tbl = pq.read_table(f"{sf_dir}/events.parquet")
    ids = src_tbl["event_id"]
    lo = pc.min(ids).as_py()
    hi = pc.max(ids).as_py()
    cut = lo + (hi - lo) // 2
    mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 11), 11))
    doomed = src_tbl.filter(
        pc.and_(pc.equal(mod, 0), pc.less_equal(ids, cut))
    )["event_id"].to_numpy(zero_copy_only=False)

    store = os.path.join(base, "store")
    cluster_table_store(
        f"{sf_dir}/events.parquet", store, "event_id",
        rows_per_fragment=max(1, src_tbl.num_rows // 6),
    )
    dst = os.path.join(base, "pruned")
    stats: dict = {}
    delete_keys_table_store(store, dst, doomed, "event_id", stats_out=stats)
    if stats["fragments_copied"] < 1 or stats["fragments_rewritten"] < 1:
        raise AssertionError(f"delete prune did not engage: {stats}")
    if stats["rows_deleted"] != len(doomed):
        raise AssertionError(
            f"rows_deleted {stats['rows_deleted']} != {len(doomed)}"
        )
    # vacuum gate: a planted orphan dir goes, committed data survives
    orphan = os.path.join(dst, "data", "frag=deadbeefdeadbeef")
    os.makedirs(orphan, exist_ok=True)
    with open(os.path.join(orphan, "part-000000.parquet"), "wb") as fh:
        fh.write(b"x" * 512)
    v = vacuum_table_store(dst)
    if v["orphan_dirs"] != 1 or os.path.isdir(orphan):
        raise AssertionError(f"vacuum did not reclaim the orphan: {v}")
    return read_table_store(dst)


@_in_scratch("columnar_store_union_")
def q_columnar_store_union(sf_dir: str, base: str):
    """Shard consolidation: the events table arrives as TWO separately
    encoded stores (parallel ingest jobs); union_table_store merges
    them by byte-identical part copy under source-qualified fragment
    ids, lineage verbatim — the merged read equals the whole table
    (UNION ALL semantics, asserted fragment count)."""
    from .tablestore import (
        compress_table,
        read_table_store,
        union_table_store,
    )

    src = pq.read_table(f"{sf_dir}/events.parquet")
    half = src.num_rows // 2
    a = os.path.join(base, "a.parquet")
    b = os.path.join(base, "b.parquet")
    pq.write_table(src.slice(0, half), a)
    pq.write_table(src.slice(half), b)
    s1 = os.path.join(base, "s1")
    s2 = os.path.join(base, "s2")
    compress_table(a, s1)
    compress_table(b, s2)
    dst = os.path.join(base, "merged")
    stats: dict = {}
    union_table_store([s1, s2], dst, stats_out=stats)
    if stats["fragments_copied"] != 2 or stats["sources"] != 2:
        raise AssertionError(f"union lineage off: {stats}")
    return read_table_store(dst)


@_in_scratch("columnar_store_explain_")
def q_columnar_store_explain(sf_dir: str, base: str):
    """EXPLAIN gate: over a clustered events store, the manifest-only
    fragment plan for a compound predicate must agree EXACTLY with the
    executed scan's prune stats, skip ≥1 fragment by zone, and return
    the same row count the survivors produce
    (tablestore.explain_table_store)."""
    import pyarrow.compute as pc

    from .tablestore import (
        cluster_table_store,
        explain_table_store,
        predicate_scan_table_store,
    )

    store = os.path.join(base, "store")
    n = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    cluster_table_store(
        f"{sf_dir}/events.parquet", store, "event_id",
        rows_per_fragment=max(1, n // 6),
    )
    ids = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id"])[
        "event_id"
    ]
    lo = pc.min(ids).as_py()
    hi = pc.max(ids).as_py()
    preds = [("range", "event_id", lo, lo + (hi - lo) // 4)]
    plan = explain_table_store(store, preds).to_pandas()
    n_skip = int((plan["decision"] == "skip").sum())
    n_scan = int((plan["decision"] == "scan").sum())
    st: dict = {}
    got = predicate_scan_table_store(store, preds, stats_out=st)
    rows = got.to_arrow().num_rows
    ok_agree = (
        n_skip == st["fragments_skipped"]
        and n_scan == st["fragments_scanned"]
    )
    ok_reason = (
        plan[plan["decision"] == "skip"]["pruned_by"]
        == "range:event_id"
    ).all()
    return pa.table(
        {
            "plan_matches_scan": pa.array([bool(ok_agree)]),
            "skipped_ge_1": pa.array([n_skip >= 1]),
            "reasons_are_zone": pa.array([bool(ok_reason)]),
            "rows_match_oracle": pa.array(
                [rows == int(pc.sum(
                    pc.less_equal(ids, lo + (hi - lo) // 4)
                ).as_py())]
            ),
        }
    )


@_in_scratch("columnar_store_ann_")
def q_columnar_store_ann(sf_dir: str, out: str):
    """Similarity search served FROM the compressed store: embeddings
    (list<float> column) compress into the manifest-backed store, then
    brute-force cosine top-k streams off the store read — only the two
    columns' encoded fields leave storage, list streams decode per
    batch, per-batch top-k partials merge on the driver
    (functions/similarity.brute_force_topk over
    tablestore.read_table_store)."""
    from .tablestore import compress_table, read_table_store

    compress_table(f"{sf_dir}/embeddings.parquet", out)
    q0 = (
        pq.read_table(f"{sf_dir}/embeddings.parquet")
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))[
            "embedding"
        ][0]
        .as_py()
    )
    ds = read_table_store(out, columns=["vec_id", "embedding"])
    res = F_sim.brute_force_topk(ds, np.asarray(q0, dtype=np.float64), k=10)
    return pd.DataFrame({"vec_id": res["vec_id"].astype("int64")})


@_in_scratch("columnar_store_hh_")
def q_columnar_store_heavy_hitters(sf_dir: str, out: str):
    """EXACT heavy hitters over the store without materializing a row:
    event_type values with frequency ≥ 15% — per-batch (value, count)
    multisets from the dictionary bincounts, Misra-Gries partial
    compression, exact candidate recount through the same dictionary
    probes (tablestore.heavy_hitters_table_store). SQL-exact oracle
    (GROUP BY ... HAVING count ≥ ceil(0.15 · total))."""
    from .tablestore import compress_table, heavy_hitters_table_store

    compress_table(f"{sf_dir}/events.parquet", out)
    t = heavy_hitters_table_store(out, "event_type", support=0.15)
    return t.sort_by("item")


@_in_scratch("columnar_store_ad_ev_")
def q_columnar_store_approx_distinct(sf_dir: str, ev: str):
    """Gate: HLL distinct count over the store — string blocks hash only
    their dictionary entries, int blocks their cached streams
    (tablestore.distinct_count_table_store). Estimates must land within
    10% of the exact distinct counts (HLL at 2^12 registers carries
    ~1.6% standard error). All-true booleans, SQL-gated."""
    from .tablestore import compress_table, distinct_count_table_store

    compress_table(f"{sf_dir}/events.parquet", ev)
    est_u = distinct_count_table_store(ev, "user_id")
    est_t = distinct_count_table_store(ev, "event_type")
    src = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    exact_u = len(np.unique(src["user_id"].to_numpy(zero_copy_only=False)))
    exact_t = pa.compute.count_distinct(src["event_type"]).as_py()
    return pa.table(
        {
            "user_id_close": pa.array(
                [abs(est_u - exact_u) <= 0.1 * exact_u]
            ),
            "event_type_close": pa.array(
                [abs(est_t - exact_t) <= max(0.1 * exact_t, 1)]
            ),
        }
    )


@_in_scratch("columnar_store_quantiles_")
def q_columnar_store_quantiles(sf_dir: str, out: str):
    """Gate: quantiles over the store without decoding a row. p50/p90/p99
    of events.user_id sketch from the cached encoded streams
    (tablestore.quantiles_table_store — few-KB compactor partials,
    driver merge), then each estimate's TRUE rank verifies against
    exact </<= counts computed from the SAME encoded streams, within
    the sketch's self-reported worst-case tolerance (the
    quantile_sketch_gate pattern, lifted whole onto the store)."""
    from .columnar import _int_values
    from .compress import read_parquet_blocks as _rpb
    from .tablestore import (
        Manifest,
        _fragment_parts,
        _part_fields,
        compress_table,
        quantiles_table_store,
    )

    compress_table(f"{sf_dir}/events.parquet", out)
    QS = (0.5, 0.9, 0.99)
    sk = quantiles_table_store(out, "user_id", capacity=1024)
    est = sk.quantile(QS)
    tol = sk.rank_tolerance()

    done = Manifest(out).completed()
    paths: list[str] = []
    for rec in sorted(done.values(), key=lambda rec: rec["frag_key"]):
        paths.extend(_fragment_parts(os.path.join(out, "data"), rec["frag_key"]))
    cols = _part_fields(pq.read_schema(paths[0]), ["user_id"])[0]

    def counts(b: pa.Table) -> pa.Table:
        vals, ok = _int_values(b, "user_id")
        v = vals[ok]
        return pa.table(
            {
                **{
                    f"lt{i}": pa.array([int((v < est[i]).sum())], pa.int64())
                    for i in range(len(QS))
                },
                **{
                    f"le{i}": pa.array([int((v <= est[i]).sum())], pa.int64())
                    for i in range(len(QS))
                },
            }
        )

    aggs = [
        Sum(f"{p}{i}", alias_name=f"{p}{i}")
        for i in range(len(QS))
        for p in ("lt", "le")
    ]
    tot = (
        _rpb(paths, columns=cols)
        .map_batches(counts, batch_format="pyarrow")
        .aggregate(*aggs)
    )
    oks = []
    for i, q in enumerate(QS):
        target = int(np.ceil(q * sk.n))
        lo = int(tot[f"lt{i}"] or 0) + 1
        hi = int(tot[f"le{i}"] or 0)
        oks.append((target >= lo - tol) and (target <= hi + tol))
    return pa.table(
        {
            "q": pa.array([str(q) for q in QS], type=pa.string()),
            "ok": pa.array(oks, type=pa.bool_()),
        }
    )


@_in_scratch("columnar_store_aggfloat_")
def q_columnar_store_agg_float(sf_dir: str, out: str):
    """Gate: float aggregates over the store. MIN/MAX/COUNT(value) of the
    events double column computed in the compressed domain (bit-pattern
    streams view back to float64 bit-exactly) must equal the plain-Arrow
    aggregates of the source; SUM matches within 1e-9 relative (float
    summation is rounding-order-dependent, so a hash compare would be
    wrong by construction — the KLL gate pattern). All-true booleans,
    SQL-gated."""
    from .tablestore import agg_table_store, compress_table

    compress_table(f"{sf_dir}/events.parquet", out)
    a = agg_table_store(out, "value")
    src = pq.read_table(f"{sf_dir}/events.parquet", columns=["value"])[
        "value"
    ]
    vals = src.drop_null()
    emin = pa.compute.min(vals).as_py()
    emax = pa.compute.max(vals).as_py()
    esum = float(np.sum(vals.to_numpy(zero_copy_only=False), dtype=np.float64))
    stats: dict = {}
    c = agg_table_store(out, "value", ops=("count",), stats_out=stats)
    return pa.table(
        {
            "minmax_exact": pa.array([a["min"] == emin and a["max"] == emax]),
            "sum_close": pa.array(
                [abs(a["sum"] - esum) <= 1e-9 * max(abs(esum), 1.0)]
            ),
            "count_match": pa.array([a["count"] == len(vals)]),
            "count_meta_only": pa.array(
                [c["count"] == len(vals) and stats["fragments_scanned"] == 0]
            ),
        }
    )


@_in_scratch("columnar_store_distinct_")
def q_columnar_store_distinct(sf_dir: str, out: str):
    """DISTINCT from the dictionaries: over the documents store, the
    distinct lang values fold from per-block dictionary entries (only
    referenced, non-null entries emit; the index stream never
    materializes a row) reading one column's encoded fields
    (tablestore.distinct_table_store)."""
    from .tablestore import compress_table, distinct_table_store

    compress_table(f"{sf_dir}/documents.parquet", out)
    return distinct_table_store(out, "lang")


def q_columnar_spec_roundtrip(sf_dir: str):
    """Sample-trained spec mode (north rule: "first train symbol tables /
    dictionaries on a reservoir sample … then encode"): per-column codec
    choices + a shared fsst table train ONCE on a bounded driver-side
    sample, then every block encodes with zero selection work (measured
    23x less per-batch encode CPU). Out-of-sample values stay exact:
    width codecs retrain per block, fsst escapes unseen bytes."""
    from .columnar import (
        decode_columns_dataset,
        encode_columns_dataset,
        train_columnar_spec,
    )

    sample = pa.Table.from_batches(
        [next(pq.ParquetFile(f"{sf_dir}/documents.parquet").iter_batches(64))]
    )
    spec = train_columnar_spec(sample)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    return decode_columns_dataset(encode_columns_dataset(ds, spec=spec))


def q_columnar_agg_events(sf_dir: str):
    """Aggregates over the ENCODED column: per-batch (min,max,sum,count)
    partials — min/max/count of a full null-free block come straight from
    the envelope zone map with zero values decoded (pytest-pinned); sum
    decodes the LRU-cached stream. One tiny partial row per batch crosses
    the cluster."""
    from .columnar import columnar_agg, encode_columns_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    enc = encode_columns_dataset(ds, batch_size=2048)
    a = columnar_agg(enc, "event_id")
    return pa.table(
        {
            "vmin": pa.array([a["min"]], type=pa.int64()),
            "vmax": pa.array([a["max"]], type=pa.int64()),
            "vsum": pa.array([a["sum"]], type=pa.int64()),
            "cnt": pa.array([a["count"]], type=pa.int64()),
        }
    )


def q_columnar_group_count(sf_dir: str):
    """Compressed-domain GROUP BY count: strdict blocks bincount their
    (cached) index stream keyed by the per-block dictionary bytes — no
    string materializes; partials fold driver-side bounded by the
    column's cardinality."""
    from .columnar import columnar_group_count, encode_columns_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    enc = encode_columns_dataset(ds)
    out = columnar_group_count(enc, "source")
    return out.rename_columns(["source", "n"])


def q_columnar_ratio_gate(sf_dir: str):
    """Per-column compression accounting as a boolean gate: documents
    encodes ≥3x overall AND ≥3x on the text column AND strictly smaller
    than plain on EVERY column (measured 5.3-5.7x total, text 5.1-5.4x,
    per-column min >5x across sf0.001-0.1). batch_size pins the
    production block size: without it Ray's read splits a small file
    into per-CPU slivers (~16-row codec blocks at 32 CPUs) and the gate
    would measure degenerate training, not the engine."""
    from .columnar import columnar_stats_batch, encode_columns_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    st = encode_columns_dataset(ds, batch_size=8192).map_batches(
        columnar_stats_batch, batch_format="pyarrow"
    )
    acc: dict[str, list[int]] = {}
    for b in st.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["column"], [0, 0])
            a[0] += int(r["plain_nbytes"])
            a[1] += int(r["encoded_nbytes"])
    tot_p = sum(a[0] for a in acc.values())
    tot_e = sum(a[1] for a in acc.values())
    text_p, text_e = acc.get("text", (0, 1))
    return pa.table(
        {
            "n_columns": pa.array([len(acc)], type=pa.int64()),
            "total_ratio_ge_3": pa.array([bool(tot_p >= 3 * tot_e)]),
            "text_ratio_ge_3": pa.array([bool(text_p >= 3 * text_e)]),
            "every_column_smaller": pa.array(
                [bool(all(a[1] < a[0] for a in acc.values()))]
            ),
        }
    )


def q_columnar_float_range_scan(sf_dir: str):
    """Range predicate on an ENCODED float64 column: block envelopes
    carry LOGICAL (fmin, fmax) float zones (NaN/null-excluded), so
    blocks disjoint from the predicate skip without decoding — parquet
    row-group float statistics applied to the encoded layout. NaN rows
    never match (SQL comparison semantics). batch_size=2048 forces
    multiple blocks so the skip path exercises."""
    from .columnar import encode_columns_dataset, range_scan_batch

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    enc = encode_columns_dataset(ds, batch_size=2048)
    return enc.map_batches(
        lambda b: range_scan_batch(
            b, "value", 100.5, 200.25,
            out_columns=["event_id", "event_type", "value"],
        ),
        batch_format="pyarrow",
    )


def q_columnar_events_ratio_gate(sf_dir: str):
    """Numeric-transform accounting as a boolean gate over the events
    table: ALP (decimal float64 → scaled ints, value column 4.1-4.2x
    across sf0.001-0.1) and delta64 (sorted int64 → zigzag deltas,
    event_id 70-431x) must hold their floors, the table must encode ≥4x
    overall (measured 5.5-6.5x), and every column must beat plain.
    batch_size pins the production block size (same rationale as
    q_columnar_ratio_gate)."""
    from .columnar import columnar_stats_batch, encode_columns_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    st = encode_columns_dataset(ds, batch_size=8192).map_batches(
        columnar_stats_batch, batch_format="pyarrow"
    )
    acc: dict[str, list[int]] = {}
    for b in st.iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            a = acc.setdefault(r["column"], [0, 0])
            a[0] += int(r["plain_nbytes"])
            a[1] += int(r["encoded_nbytes"])
    tot_p = sum(a[0] for a in acc.values())
    tot_e = sum(a[1] for a in acc.values())
    val_p, val_e = acc.get("value", (0, 1))
    eid_p, eid_e = acc.get("event_id", (0, 1))
    return pa.table(
        {
            "n_columns": pa.array([len(acc)], type=pa.int64()),
            "total_ratio_ge_4": pa.array([bool(tot_p >= 4 * tot_e)]),
            "alp_value_ge_3": pa.array([bool(val_p >= 3 * val_e)]),
            "delta64_event_id_ge_20": pa.array([bool(eid_p >= 20 * eid_e)]),
            "every_column_smaller": pa.array(
                [bool(all(a[1] < a[0] for a in acc.values()))]
            ),
        }
    )


# ------------------------------------------------------------------ dedup
def q_dedup_exact(sf_dir: str):
    import ray

    ds = _docs(sf_dir, ("doc_id", "text"))
    dup_rows = F_dedup.exact_duplicates(ds).take_all()
    # broadcast via the object store ONCE (same pattern as
    # dedup.resolve_hot_buckets) — captured in the closure, the array would
    # serialize into EVERY task spec; bounded by the duplicate count, which
    # at 100 TB is not driver-closure-sized
    dropped_ref = ray.put(
        np.array(sorted(r["doc_id"] for r in dup_rows), dtype=np.int64)
    )

    def keep(b: pa.Table) -> pa.Table:
        import ray as _ray

        dropped = _ray.get(dropped_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mask = (
            ~np.isin(ids, dropped) if dropped.size else np.ones(len(ids), bool)
        )
        return b.select(["doc_id"]).take(pa.array(np.flatnonzero(mask)))

    return ds.map_batches(keep, batch_format="pyarrow")


def q_dedup_exact_tokens(sf_dir: str):
    """Sequence-level exact dedup on the TOKENIZED table (the north-rule
    input shape — no text column in the hot path): PLANT_N token-identical
    copies are planted at doc_id+PLANT_OFFSET, the union is deduped by
    token-array content (polynomial hash over int32 values, in-bucket
    sequence verify), and the kept ids are returned. Tokens are the text's
    code points, so the SQL twin partitions by text."""
    import ray

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids < PLANT_N)
        sub = b.take(pa.array(sel))
        shifted = pa.table(
            {
                "doc_id": pa.compute.add(sub["doc_id"], PLANT_OFFSET),
                "tokens": sub["tokens"],
            }
        )
        return pa.concat_tables([b.select(["doc_id", "tokens"]), shifted])

    full = _tokens_ds(sf_dir).map_batches(plant, batch_format="pyarrow")
    dup_rows = F_dedup.token_sequence_duplicates(full).take_all()
    dropped_ref = ray.put(
        np.array(sorted(r["doc_id"] for r in dup_rows), dtype=np.int64)
    )

    def keep(b: pa.Table) -> pa.Table:
        import ray as _ray

        dropped = _ray.get(dropped_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mask = (
            ~np.isin(ids, dropped) if dropped.size else np.ones(len(ids), bool)
        )
        return b.select(["doc_id"]).take(pa.array(np.flatnonzero(mask)))

    return full.map_batches(keep, batch_format="pyarrow")


DISTINCT_OFFSET = 30_000_000


def _decoy_texts(ids: np.ndarray) -> list[str]:
    """Deterministic per-id gibberish, guaranteed far (in every similarity
    the dedups measure) from any natural document and from each other:
    seeded letter soup with sprinkled spaces. Used as planted NEGATIVES for
    the dedup precision gates."""
    out = []
    for i in ids:
        rng = np.random.default_rng([0xDEC0, int(i)])
        chars = rng.integers(97, 123, size=160).astype(np.uint8)
        chars[rng.integers(0, 160, size=24)] = 32
        out.append(bytes(chars).decode())
    return out


def make_dedup(kind: str):
    """Approximate-dedup PRECISION + RECALL gate (all-true booleans, so the
    driver's DuckDB oracle is exact): the union corpus is the natural docs
    + exact copies of the first PLANT_N at +PLANT_OFFSET (MUST all be
    dropped — identical signatures make their detection deterministic) +
    per-id gibberish decoys at +DISTINCT_OFFSET (MUST never be dropped —
    the in-bucket verification step rejects any chance LSH collision).
    Natural near-dups with doc_id < PLANT_OFFSET stay estimator-dependent
    and are deliberately outside the gate."""

    def q(sf_dir: str):
        import pyarrow.compute as pc

        ds = _docs(sf_dir, ("doc_id", "text"))

        def plant(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            sel = np.flatnonzero(ids < PLANT_N)
            sub = b.take(pa.array(sel))
            copies = pa.table(
                {
                    "doc_id": pc.add(sub["doc_id"], PLANT_OFFSET),
                    "text": sub["text"],
                }
            )
            decoy_ids = ids[sel].astype(np.int64) + DISTINCT_OFFSET
            decoys = pa.table(
                {
                    "doc_id": pa.array(decoy_ids, type=pa.int64()),
                    "text": pa.array(_decoy_texts(decoy_ids), type=pa.string()),
                }
            )
            return pa.concat_tables(
                [b.select(["doc_id", "text"]), copies, decoys]
            )

        full = ds.map_batches(plant, batch_format="pyarrow")
        if kind == "minhash":
            dups = F_dedup.minhash_duplicates(full)
        elif kind == "simhash":
            dups = F_dedup.simhash_duplicates(full)
        elif kind == "ngram_jaccard":
            dups = F_dedup.ngram_jaccard_duplicates(full)
        else:
            raise ValueError(kind)
        dropped = np.array(
            sorted(r["doc_id"] for r in dups.take_all()), dtype=np.int64
        )
        want = np.arange(PLANT_N, dtype=np.int64) + PLANT_OFFSET
        recall = bool(np.isin(want, dropped).all())
        precision = bool((dropped < DISTINCT_OFFSET).all())
        return pa.table(
            {
                "decoys_kept": pa.array([precision]),
                "planted_dropped": pa.array([recall]),
            }
        )

    return q


def q_pipeline_clean_corpus(sf_dir: str):
    """End-to-end training-data cleaning pipeline (the composition a real
    user runs): quality filter (≥8 whitespace words) → exact dedup (min
    doc_id survives) → per-source doc count + character sum. Every stage
    streams: the filter is a vectorized map_batches, dedup broadcasts the
    (bounded) dropped-id set, the aggregate is partial-then-merge."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir)

    def flt(b: pa.Table) -> pa.Table:
        # n_words per DuckDB string_split semantics: separators + 1
        nw = pc.add(pc.count_substring(b["text"], " "), 1)
        return b.filter(pc.greater_equal(nw, 8))

    filt = ds.map_batches(flt, batch_format="pyarrow")
    dropped_rows = F_dedup.exact_duplicates(filt).take_all()
    import ray

    # object-store broadcast, not a task-spec closure capture (see
    # q_dedup_exact)
    dropped_ref = ray.put(
        np.array(sorted(r["doc_id"] for r in dropped_rows), dtype=np.int64)
    )

    def clean_partial(b: pa.Table) -> pa.Table:
        import ray as _ray

        dropped = _ray.get(dropped_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keep = (
            ~np.isin(ids, dropped) if dropped.size else np.ones(len(ids), bool)
        )
        sub = b.filter(pa.array(keep))
        chars = pc.utf8_length(sub["text"]).cast(pa.int64())
        # Arrow-native partial groupby — no pandas round trip in the
        # streamed stage
        g = (
            pa.table({"source": sub["source"], "chars": chars})
            .group_by("source")
            .aggregate([("chars", "count"), ("chars", "sum")])
        )
        return pa.table(
            {
                "source": g["source"],
                "n_docs": g["chars_count"].cast(pa.int64()),
                "sum_chars": g["chars_sum"].cast(pa.int64()),
            }
        )

    merged = (
        filt.map_batches(clean_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "source": b["source"],
                "n_docs": b["n_docs"].cast(pa.int64()),
                "sum_chars": b["sum_chars"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_like_exact(sf_dir: str):
    """Exact-shape LIKE (a constant, no wildcards) answered by payload
    equality in the compressed domain — the constant is doc 0's own text so
    the oracle can derive it in SQL."""
    import pyarrow.parquet as pq

    const = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .filter(pa.compute.equal(pa.compute.field("doc_id"), 0))["text"][0]
        .as_py()
    )
    assert "%" not in const and "_" not in const  # keep the shape 'exact'
    return _like_ids(_encoded_docs(sf_dir), const)


PLANT_N = 50
PLANT_OFFSET = 10_000_000


def make_dedup_planted(kind: str):
    """Oracle-checkable dedup recall gate: plant EXACT copies of the first
    PLANT_N docs at doc_id+PLANT_OFFSET, dedup the union, report the dropped
    ids in the planted range. Exact copies have identical signatures, so
    their detection is deterministic and the expected drop-set is plain SQL;
    estimator-dependent near-dups among the originals stay out of the gate
    (they remain covered by the rows-only dedup_* queries)."""

    def q(sf_dir: str):
        import pyarrow.compute as pc

        ds = _docs(sf_dir, ("doc_id", "text"))

        def plant(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            sel = np.flatnonzero(ids < PLANT_N)
            sub = b.take(pa.array(sel))
            shifted = pa.table(
                {
                    "doc_id": pc.add(sub["doc_id"], PLANT_OFFSET),
                    "text": sub["text"],
                }
            )
            return pa.concat_tables([b.select(["doc_id", "text"]), shifted])

        full = ds.map_batches(plant, batch_format="pyarrow")
        if kind == "minhash":
            dups = F_dedup.minhash_duplicates(full)
        elif kind == "ngram_jaccard":
            dups = F_dedup.ngram_jaccard_duplicates(full)
        elif kind == "simhash":
            dups = F_dedup.simhash_duplicates(full)
        else:
            raise ValueError(kind)
        planted = dups.map_batches(
            lambda b: b.filter(
                pa.compute.greater_equal(b["doc_id"], PLANT_OFFSET)
            ),
            batch_format="pyarrow",
        )
        return _collect_ids(planted, "doc_id")

    return q


PLANT_OFFSET2 = 20_000_000
CC_GAP = 25


def q_dedup_cc_exact(sf_dir: str):
    """Duplicate CLUSTERS, not just drop lists: exact copies of the first
    PLANT_N docs planted at TWO offsets form ≥3-member clusters; the
    (member → text-group keeper) pair stream (dedup.exact_duplicate_pairs)
    is grouped transitively by distributed connected components
    (functions/concomp.py, alternating large/small-star). Oracle: min
    doc_id per identical text over the same union — pure SQL."""
    import pyarrow.compute as pc

    from ..functions.concomp import connected_components

    ds = _docs(sf_dir, ("doc_id", "text"))

    def plant(b: pa.Table) -> pa.Table:
        sel = np.flatnonzero(
            b["doc_id"].to_numpy(zero_copy_only=False) < PLANT_N
        )
        sub = b.take(pa.array(sel))
        parts = [b.select(["doc_id", "text"])]
        for off in (PLANT_OFFSET, PLANT_OFFSET2):
            parts.append(
                pa.table(
                    {
                        "doc_id": pc.add(sub["doc_id"], off),
                        "text": sub["text"],
                    }
                )
            )
        return pa.concat_tables(parts)

    full = ds.map_batches(plant, batch_format="pyarrow")
    pairs = F_dedup.exact_duplicate_pairs(full)
    comps = connected_components(pairs)
    return comps.map_batches(
        lambda b: pa.table(
            {"doc_id": b["node"], "cluster": b["component"]}
        ),
        batch_format="pyarrow",
    )


def q_docs_source_chains(sf_dir: str):
    """TRUE multi-hop transitivity for connected components: an edge links
    doc_ids of the same source at id gap ≤ CC_GAP, so components are long
    PATHS the alternating-star rounds must propagate hop by hop (log-depth
    convergence). Singletons join back as their own component via a left
    shuffle join. Oracle: the SQL gaps-and-islands formulation."""
    from ..functions.concomp import connected_components
    from ..functions.join import shuffle_hash_join

    docs = _docs(sf_dir, ("doc_id", "source"))

    def edges_in_group(g: pa.Table) -> pa.Table:
        ids = np.sort(g["doc_id"].to_numpy(zero_copy_only=False))
        a, b = ids[:-1], ids[1:]
        keep = (b - a) <= CC_GAP
        return pa.table(
            {
                "u": pa.array(a[keep], type=pa.int64()),
                "v": pa.array(b[keep], type=pa.int64()),
            }
        )

    edges = docs.groupby("source").map_groups(
        edges_in_group, batch_format="pyarrow"
    )
    comps = connected_components(edges)
    joined = shuffle_hash_join(
        docs.select_columns(["doc_id"]), comps, "doc_id", "node", how="left"
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "component": pa.compute.coalesce(
                    b["component_r"], b["doc_id"]
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_dedup_embedding_planted(sf_dir: str, n_plant: int = 10):
    """Embedding-dedup recall gate: plant exact vector copies at
    vec_id+PLANT_OFFSET; identical vectors agree in every LSH band and
    verify at cosine 1.0, so the drop-set is deterministic SQL."""
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def plant(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids < n_plant)
        sub = b.take(pa.array(sel))
        shifted = pa.table(
            {
                "vec_id": pc.add(sub["vec_id"], PLANT_OFFSET),
                "embedding": sub["embedding"],
            }
        )
        return pa.concat_tables(
            [b.select(["vec_id", "embedding"]), shifted]
        )

    full = ds.map_batches(plant, batch_format="pyarrow")
    dups = F_sim.embedding_duplicates(full)
    planted = dups.map_batches(
        lambda b: b.filter(
            pa.compute.greater_equal(b["vec_id"], PLANT_OFFSET)
        ),
        batch_format="pyarrow",
    )
    return _collect_ids(planted, "vec_id")


def q_ann_ivf_recall(sf_dir: str):
    """IVF is approximate — its exact top-k is not SQL-expressible, but its
    RECALL against the exact brute-force scan is a deterministic gate."""
    import pyarrow.parquet as pq

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = (
        pq.read_table(f"{sf_dir}/embeddings.parquet")
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))["embedding"][0]
        .as_py()
    )
    q0 = np.asarray(q0, dtype=np.float64)
    brute = set(F_sim.brute_force_topk(ds, q0, k=10)["vec_id"].astype("int64"))
    # the synthetic embeddings are unclustered, so the true top-k scatters
    # across cells — probe 6/8 cells for a stable >=0.8 recall gate (real
    # clustered data reaches it with far fewer probes)
    ivf = set(
        F_sim.ivf_topk(ds, q0, k=10, n_centroids=8, nprobe=6)[
            "vec_id"
        ].astype("int64")
    )
    recall = len(brute & ivf) / max(len(brute), 1)
    return pa.table({"recall_ge_080": pa.array([bool(recall >= 0.8)])})


@_in_scratch("ivf_index_")
def q_ann_ivf_index_recall(sf_dir: str, idx: str):
    """Persisted-IVF-index path: build (assign ONCE, hive-partitioned cells),
    then query reading only probed cells; gate recall vs the exact scan."""
    import pyarrow.parquet as pq

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = np.asarray(
        pq.read_table(f"{sf_dir}/embeddings.parquet")
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))["embedding"][0]
        .as_py(),
        dtype=np.float64,
    )
    brute = set(F_sim.brute_force_topk(ds, q0, k=10)["vec_id"].astype("int64"))
    F_sim.build_ivf_index(ds, idx, n_centroids=8)
    got = set(
        F_sim.ivf_index_topk(idx, q0, k=10, nprobe=6)["vec_id"].astype("int64")
    )
    recall = len(brute & got) / max(len(brute), 1)
    return pa.table({"recall_ge_080": pa.array([bool(recall >= 0.8)])})


def q_dedup_embedding(sf_dir: str, n_plant: int = 10):
    """Embedding-dedup precision + recall gate (all-true booleans; same
    design as the text-dedup gates): exact vector copies at +PLANT_OFFSET
    must ALL be dropped (cosine 1.0 in every band); random unit-vector
    decoys at +DISTINCT_OFFSET must NEVER be dropped (cosine vs anything
    ≪ the 0.98 threshold; the verified-cosine step rejects any chance LSH
    band collision)."""
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def plant(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids < n_plant)
        sub = b.take(pa.array(sel))
        emb = b["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        dim = len(emb[0]) if len(emb) else 8
        copies = pa.table(
            {
                "vec_id": pc.add(sub["vec_id"], PLANT_OFFSET),
                "embedding": sub["embedding"],
            }
        )
        decoy_ids = ids[sel].astype(np.int64) + DISTINCT_OFFSET
        vecs = []
        for i in decoy_ids:
            rng = np.random.default_rng([0xE5B, int(i)])
            v = rng.standard_normal(dim).astype(np.float32)
            vecs.append(v / np.linalg.norm(v))
        decoys = pa.table(
            {
                "vec_id": pa.array(decoy_ids, type=pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], type=emb.type
                ),
            }
        )
        return pa.concat_tables(
            [b.select(["vec_id", "embedding"]), copies, decoys]
        )

    full = ds.map_batches(plant, batch_format="pyarrow")
    dups = F_sim.embedding_duplicates(full)
    dropped = np.array(
        sorted(r["vec_id"] for r in dups.take_all()), dtype=np.int64
    )
    want = np.arange(n_plant, dtype=np.int64) + PLANT_OFFSET
    return pa.table(
        {
            "decoys_kept": pa.array([bool((dropped < DISTINCT_OFFSET).all())]),
            "planted_dropped": pa.array([bool(np.isin(want, dropped).all())]),
        }
    )


# ------------------------------------------------------------- text stats
def make_textstat(fn):
    def q(sf_dir: str):
        return _docs(sf_dir, ("doc_id", "text")).map_batches(
            fn, batch_format="pyarrow"
        )

    return q


def q_token_count_bpe(sf_dir: str):
    """Compiled-regex BPE-ish token count as an ACTOR POOL stage (regex
    compiled once per actor in __init__, not per batch)."""
    from ..functions.textstats import RegexTokenCounter

    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        RegexTokenCounter,
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )


def q_docs_longest20(sf_dir: str):
    """Data-level distributed sort (ds.sort is a real all-to-all range
    shuffle): 20 longest documents, deterministic tiebreak on doc_id."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
                "neg_doc_id": pc.multiply(b["doc_id"].cast(pa.int64()), -1),
            }
        ),
        batch_format="pyarrow",
    )
    top = ds.sort(["n_chars", "neg_doc_id"], descending=True).limit(20)
    return top.map_batches(
        lambda b: b.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )


def q_vocab_topk(sf_dir: str):
    """Distributed token-vocabulary top-30 (functions/vocab.py): per-batch
    partial counts → vocabulary-sized groupby merge → sort/limit. The
    shuffle moves ≤|vocab| partial rows per block, never the token stream."""
    from ..functions.vocab import token_frequencies

    return token_frequencies(_tokens_ds(sf_dir), k=30)


PACK_SEQ_LEN = 512


def q_pack_sequences(sf_dir: str):
    """Fixed-length training-sequence packing (functions/packing.py): each
    source's token streams concatenated in doc_id order and re-chunked to
    exactly PACK_SEQ_LEN tokens. The oracle rebuilds the same sequences in
    SQL from the per-source concatenated text (tokens are its codepoints)."""
    import pyarrow.compute as pc

    from ..functions.packing import pack_sequences

    packed = pack_sequences(_tokens_ds(sf_dir), PACK_SEQ_LEN, bucket_shift=6)

    def fmt(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        s = pc.binary_join(toks.cast(pa.list_(pa.string())), ",")
        return pa.table(
            {
                "source": batch["source"],
                "seq_id": batch["seq_id"].cast(pa.int64()),
                "n_tok": batch["n_tok"].cast(pa.int64()),
                "tok_str": s.cast(pa.string()),
            }
        )

    return packed.map_batches(fmt, batch_format="pyarrow")


def q_pack_sequences_segments(sf_dir: str):
    """pack_sequences with SEGMENT BOUNDARIES (with_segments=True): each
    packed row also carries the within-sequence positions where a new
    document begins — the block-diagonal-attention mask input. The oracle
    recomputes every document's global start (running length sum per
    source) and buckets them into sequences."""
    import pyarrow.compute as pc

    from ..functions.packing import pack_sequences

    packed = pack_sequences(
        _tokens_ds(sf_dir), PACK_SEQ_LEN, bucket_shift=6, with_segments=True
    )

    def fmt(batch: pa.Table) -> pa.Table:
        def joined(col):
            c = batch[col]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            return pc.binary_join(
                c.cast(pa.list_(pa.string())), ","
            ).cast(pa.string())

        return pa.table(
            {
                "source": batch["source"],
                "seq_id": batch["seq_id"].cast(pa.int64()),
                "n_tok": batch["n_tok"].cast(pa.int64()),
                "tok_str": joined("tokens"),
                "seg_str": joined("seg_starts"),
            }
        )

    return packed.map_batches(fmt, batch_format="pyarrow")


TOKEN_BUDGET = 3_000  # ≈40% of each source's mass: the cut must ENGAGE


def q_docs_token_budget_sample(sf_dir: str):
    """Per-source TOKEN-budget mixture sampling: each source contributes
    ≈TOKEN_BUDGET tokens, docs chosen in deterministic hash order (the
    scaling-law-sweep cut, weighted by tokens not documents). Bounded
    plan/split shape — no total sort, one shuffle."""
    from ..functions.sampling import token_budget_sample

    ds = _tokens_ds(sf_dir)
    out = token_budget_sample(ds, TOKEN_BUDGET, bucket_bits=24)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "source": b["source"],
                "n_tok": b["n_tok"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


PIPE_TOKEN_BUDGET = 2_000


def q_pipeline_tokens_prep(sf_dir: str):
    """End-to-end token-domain training-prep composite, every stage an
    already-oracled op, the WHOLE chain oracled as one SQL query:
    quality filter (integer thresholds) → per-source token-budget cut
    (deterministic hash order) → fixed-length packing with segment
    boundaries. This is the pipeline a user runs to turn a raw tokens
    table into trainer-ready packed shards; stage shapes (one filter
    pass, one plan groupby + one bounded shuffle, two bounded shuffles)
    are unchanged from the standalone ops."""
    import pyarrow.compute as pc

    from ..functions.packing import pack_sequences
    from ..functions.sampling import token_budget_sample

    def keep(b: pa.Table) -> pa.Table:
        ok, _n, _d, _g = quality_keep_mask(b)
        return b.filter(pa.array(ok))

    filtered = _tokens_ds(sf_dir).map_batches(keep, batch_format="pyarrow")
    sampled = token_budget_sample(
        filtered, PIPE_TOKEN_BUDGET, bucket_bits=24
    )
    packed = pack_sequences(
        sampled, PACK_SEQ_LEN, bucket_shift=6, with_segments=True
    )

    def fmt(batch: pa.Table) -> pa.Table:
        def joined(col):
            c = batch[col]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            return pc.binary_join(
                c.cast(pa.list_(pa.string())), ","
            ).cast(pa.string())

        return pa.table(
            {
                "source": batch["source"],
                "seq_id": batch["seq_id"].cast(pa.int64()),
                "n_tok": batch["n_tok"].cast(pa.int64()),
                "tok_str": joined("tokens"),
                "seg_str": joined("seg_starts"),
            }
        )

    return packed.map_batches(fmt, batch_format="pyarrow")


SAMPLE_RATES = {"src0": 0.8, "src1": 0.5, "src2": 0.0}
SAMPLE_DEFAULT = 0.25


def q_sample_stratified(sf_dir: str):
    """Deterministic hash-based stratified sampling (functions/sampling.py):
    a shuffle-free per-batch filter whose keep-set is a function of doc_id
    alone — identical under retries and any parallelism. The oracle runs the
    very same integer predicate in SQL."""
    from ..functions.sampling import stratified_sample

    out = stratified_sample(
        _docs(sf_dir, ("doc_id", "source")), SAMPLE_RATES, SAMPLE_DEFAULT
    )
    return _collect_ids(out, "doc_id")


def q_approx_distinct(sf_dir: str):
    """HyperLogLog distinct-text count as a mergeable-sketch pipeline (one
    4 KB sketch per block reaches the driver); gated within 5% of the exact
    count (standard error at 2^12 registers is ~1.6%)."""
    import pyarrow.parquet as pq

    from ..functions.sketches import approx_distinct

    est = approx_distinct(_docs(sf_dir, ("doc_id", "text")), "text")
    exact = len(
        set(pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])[
            "text"
        ].to_pylist())
    )
    err = abs(est - exact) / max(exact, 1)
    return pa.table({"err_le_5pct": pa.array([bool(err <= 0.05)])})


HH_SUPPORT = 0.0015


def q_docs_redact_pii(sf_dir: str):
    """PII scrubbing (functions/textstats.py redact_pii_batch): emails and
    phone numbers planted into the first PLANT_N docs are replaced by
    <EMAIL>/<PHONE> tags in one vectorized RE2 sweep per pattern; docs
    50–119 pass through untouched (no-op path covered). Oracle: the same
    plant + regexp_replace(…,'g') in DuckDB (both engines are RE2)."""
    import pyarrow.compute as pc

    from ..functions.textstats import redact_pii_batch

    ds = _docs(sf_dir, ("doc_id", "text"))

    def plant_and_slice(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids < 120))
        if b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                }
            )
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        planted = pc.binary_join_element_wise(
            b["text"],
            pa.array([" contact user"] * b.num_rows, type=pa.string()),
            pa.array([str(i) for i in ids], type=pa.string()),
            pa.array(
                ["@mail.example.com or call +1-555-"] * b.num_rows,
                type=pa.string(),
            ),
            pa.array([f"{i:04d}" for i in ids], type=pa.string()),
            pa.array([" now"] * b.num_rows, type=pa.string()),
            "",
        )
        text = pc.if_else(pa.array(ids < PLANT_N), planted, b["text"])
        return pa.table({"doc_id": b["doc_id"], "text": text})

    return ds.map_batches(plant_and_slice, batch_format="pyarrow").map_batches(
        redact_pii_batch, batch_format="pyarrow"
    )


def q_heavy_hitter_bigrams(sf_dir: str):
    """Misra-Gries heavy hitters (functions/heavy.py): word bigrams with
    exact frequency ≥ HH_SUPPORT of the bigram stream. Two-phase
    sketch → exact-verify, so the output is EXACT and fully SQL-oracled
    while memory stays O(1/support) regardless of corpus size."""
    from ..functions.heavy import bigram_stream, heavy_hitters

    t = heavy_hitters(
        _docs(sf_dir, ("doc_id", "text")), bigram_stream, support=HH_SUPPORT
    )
    return pa.table({"bigram": t["item"], "n": t["n"]})


# ------------------------------------------------------------- similarity
def q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = (
        pq.read_table(f"{sf_dir}/embeddings.parquet")
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))["embedding"][0]
        .as_py()
    )
    out = F_sim.brute_force_topk(ds, np.asarray(q0, dtype=np.float64), k=10)
    return pd.DataFrame({"vec_id": out["vec_id"].astype("int64")})


def q_ann_ivf(sf_dir: str):
    import pyarrow.parquet as pq

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = (
        pq.read_table(f"{sf_dir}/embeddings.parquet")
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))["embedding"][0]
        .as_py()
    )
    out = F_sim.ivf_topk(ds, np.asarray(q0, dtype=np.float64), k=10, n_centroids=8)
    return pd.DataFrame({"vec_id": out["vec_id"].astype("int64")})


def q_tokens_corpus_roundtrip(sf_dir: str):
    """North-rule synthetic corpus (FIXTURES.md §1) through the full auto
    pipeline; returns per-source row/token counts + the round-trip verdict."""
    from ..sources.tokens import tokens_table
    from ..stages.verify import row_hashes

    t = tokens_table(4096, seed=42)
    dec = decode_columns_dataset(encode_columns_dataset(ray.data.from_arrow(t)))
    with np.errstate(over="ignore"):
        h_in = np.uint64(0)
        for b in ray.data.from_arrow(t).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        ):
            h_in += row_hashes(b).sum()
        h_out = np.uint64(0)
        rows = 0
        for b in dec.iter_batches(batch_size=4096, batch_format="pyarrow"):
            h_out += row_hashes(b).sum()
            rows += b.num_rows
    return pa.table(
        {
            "rows": pa.array([rows], type=pa.int64()),
            "bit_identical": pa.array([bool(h_in == h_out)]),
        }
    )


# --------------------------------------- corpus prep / training consumption
CHUNK_LEN = 100
CHUNK_STRIDE = 80


def q_docs_chunked(sf_dir: str):
    """Training-context chunking: split every document into CHUNK_LEN-token
    windows at CHUNK_STRIDE (overlapping) offsets — the standard LM
    pretraining chunker. Pure row-expanding map_batches (repeat/arange
    arithmetic from n_chars, tokens = codepoints), no shuffle at all.
    Oracle: generate_series arithmetic in SQL."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def expand(b: pa.Table) -> pa.Table:
        n = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        cnt = np.where(n > 0, -(-n // CHUNK_STRIDE), 0)
        total = int(cnt.sum())
        row = np.repeat(np.arange(len(n), dtype=np.int64), cnt)
        base = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(cnt, out=base[1:])
        ci = np.arange(total, dtype=np.int64) - base[row]
        start = ci * CHUNK_STRIDE
        clen = np.minimum(CHUNK_LEN, n[row] - start)
        return pa.table(
            {
                "doc_id": pa.array(ids[row], type=pa.int64()),
                "chunk_id": pa.array(ci, type=pa.int64()),
                "start": pa.array(start, type=pa.int64()),
                "chunk_len": pa.array(clen, type=pa.int64()),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow")


def q_docs_sample2_per_source(sf_dir: str):
    """Deterministic per-group sample: 2 docs per source by seeded
    multiplicative hash order (grouped_topk with the negated hash as the
    score — per-batch pre-pruning means the shuffle moves ≤ 2 rows per
    (source, block)). Oracle reproduces the hash in ROW_NUMBER."""
    from ..functions.grouped_topk import grouped_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "source": b["source"],
                "negh": pa.array(
                    -(
                        (
                            b["doc_id"]
                            .to_numpy(zero_copy_only=False)
                            .astype(np.uint64)
                            * np.uint64(2654435761)
                        )
                        % np.uint64(1 << 32)
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = grouped_topk(ds, key="source", score="negh", k=2, tiebreak="doc_id")
    return out.map_batches(
        lambda b: pa.table(
            {
                "source": b["source"],
                "doc_id": b["doc_id"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_docs_normalize(sf_dir: str):
    """Text normalization (lowercase → collapse whitespace runs → trim),
    each step one vectorized Arrow kernel over the column. Messy text is
    planted into the first PLANT_N docs (upper-cased head, padded ends,
    doubled separators) and the oracle mirrors plant + normalize in SQL."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ("doc_id", "text"))

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids < 120))
        if b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                }
            )
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        messy = pc.binary_join_element_wise(
            pa.array(["  "] * b.num_rows, type=pa.string()),
            pc.utf8_upper(pc.utf8_slice_codeunits(b["text"], 0, 20)),
            pc.utf8_slice_codeunits(b["text"], 20, 2**30),
            pa.array(["\t "] * b.num_rows, type=pa.string()),
            "",
        )
        text = pc.if_else(pa.array(ids < PLANT_N), messy, b["text"])
        return pa.table({"doc_id": b["doc_id"], "text": text})

    def normalize(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(b["text"])
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": b["doc_id"], "text": t})

    return ds.map_batches(plant, batch_format="pyarrow").map_batches(
        normalize, batch_format="pyarrow"
    )


MIX_RATES_BP = {"src0": 10_000, "src1": 7_500, "src2": 5_000}  # basis pts
MIX_DEFAULT_BP = 2_500


def q_quantile_sketch_gate(sf_dir: str):
    """Mergeable-quantile-sketch CONTRACT gate (functions/kll.py): sketch
    p50/p90/p99 of events.value from per-block compactor sketches (driver
    merge, no shuffle), then verify each estimate's TRUE rank against the
    sketch's own self-reported worst-case tolerance — computed by one
    more streaming pass that counts values </<= each broadcast estimate
    (the gate pattern: the operator's certificate is checked against
    exact distributed counts, and the oracle expects all-true)."""
    from ..functions.kll import sketch_dataset

    QS = (0.5, 0.9, 0.99)
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    sk = sketch_dataset(ds, "value", capacity=1024)
    est = sk.quantile(QS)
    tol = sk.rank_tolerance()

    def counts(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                **{
                    f"lt{i}": pa.array(
                        [int((v < est[i]).sum())], type=pa.int64()
                    )
                    for i in range(len(QS))
                },
                **{
                    f"le{i}": pa.array(
                        [int((v <= est[i]).sum())], type=pa.int64()
                    )
                    for i in range(len(QS))
                },
            }
        )

    aggs = [
        Sum(f"{p}{i}", alias_name=f"{p}{i}")
        for i in range(len(QS))
        for p in ("lt", "le")
    ]
    tot = ds.map_batches(counts, batch_format="pyarrow").aggregate(*aggs)
    oks = []
    for i, q in enumerate(QS):
        target = int(np.ceil(q * sk.n))
        lo = int(tot[f"lt{i}"] or 0) + 1  # est's true rank range [lo, hi]
        hi = int(tot[f"le{i}"] or 0)
        ok = (target >= lo - tol) and (target <= hi + tol)
        oks.append(ok)
    return pa.table(
        {
            "q": pa.array([str(q) for q in QS], type=pa.string()),
            "ok": pa.array(oks, type=pa.bool_()),
        }
    )


def q_pipeline_pretrain_corpus(sf_dir: str):
    """Flagship COMPOSITE: the full pretraining data-prep chain as one
    streaming pipeline — normalize (lower → collapse-\\s+ → trim) →
    quality filter (≥5 words, ≤10k chars) → 80/20 corpus/benchmark hash
    split → exact dedup on normalized text (min-doc_id keeper) →
    5-gram DECONTAMINATION against the benchmark (functions/decontam.py)
    → per-source (n_docs, n_words) summary. Every stage reuses an
    already-oracled operator; the oracle mirrors the chain as CTEs, so
    this gates the COMPOSITION (stage ordering, column flow, drop-list
    plumbing), not just the pieces."""
    import pyarrow.compute as pc

    from ..functions.decontam import contamination_report
    from ..functions.join import broadcast_semi_join

    def norm_and_quality(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(b["text"])
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        nw = np.asarray(
            pc.count_substring(t, " ").to_numpy(zero_copy_only=False)
        ) + 1
        nc = pc.utf8_length(t).to_numpy(zero_copy_only=False)
        keep = pa.array((nw >= 5) & (nc <= 10_000))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "source": b["source"],
                "text": t,
                "n_words": pa.array(nw.astype(np.int64)),
            }
        ).filter(keep)

    # materialized ONCE: four downstream consumers (dedup scan, benchmark
    # gram collection, contamination scan, final summary) would otherwise
    # each re-run the parquet read + regex normalize chain
    qual = _docs(sf_dir).map_batches(
        norm_and_quality, batch_format="pyarrow"
    ).materialize()

    def split(is_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            h = (
                ids.astype(np.uint64) * np.uint64(2654435761)
            ) % np.uint64(4294967296) % np.uint64(5)
            return b.filter(pa.array((h == 0) if is_bench else (h != 0)))

        return f

    bench = qual.map_batches(split(True), batch_format="pyarrow")
    corp = qual.map_batches(split(False), batch_format="pyarrow")

    # exact dedup on the NORMALIZED text (catches case/whitespace dups)
    dup_rows = F_dedup.exact_duplicates(corp).take_all()
    dropped = np.sort(
        np.array([r["doc_id"] for r in dup_rows], dtype=np.int64)
    )
    dedup = broadcast_semi_join(corp, dropped, "doc_id", anti=True)

    # decontaminate vs the benchmark fifth
    contam = contamination_report(dedup, bench, k=5)
    bad = np.sort(
        np.array(
            [r["doc_id"] for r in contam.take_all()], dtype=np.int64
        )
    )
    clean = broadcast_semi_join(dedup, bad, "doc_id", anti=True)

    def summary(b: pa.Table) -> pa.Table:
        g = (
            b.select(["source", "n_words"])
            .group_by(["source"])
            .aggregate([("n_words", "sum"), ("n_words", "count")])
        )
        return pa.table(
            {
                "source": g["source"],
                "n_docs": g["n_words_count"].cast(pa.int64()),
                "n_words": g["n_words_sum"].cast(pa.int64()),
            }
        )

    return (
        clean.map_batches(summary, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_words", alias_name="n_words"),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "source": b["source"],
                    "n_docs": b["n_docs"].cast(pa.int64()),
                    "n_words": b["n_words"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort("source")
    )


def q_grouped_quantile_sketch_gate(sf_dir: str):
    """Per-KEY sketch-quantile contract gate: per-event-type value
    quantiles from (block, key) compactor sketches merged through ONE
    tiny-row shuffle (functions/kll.py grouped_sketch_quantiles), each
    estimate then rank-checked by one exact streaming counting pass
    against the merged sketch's self-reported tolerance. Oracle expects
    every (type, q) cell true."""
    from ..functions.join import get_broadcast, put_broadcast
    from ..functions.kll import grouped_sketch_quantiles

    QS = (0.5, 0.9, 0.99)
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    res = grouped_sketch_quantiles(
        ds, "event_type", "value", qs=QS, capacity=1024
    ).to_pandas()  # keys × |QS| rows — tiny
    info = {
        k: (
            g.sort_values("q")["est"].to_numpy(),
            int(g["tol"].iloc[0]),
            int(g["n"].iloc[0]),
        )
        for k, g in res.groupby("event_type")
    }
    ref = put_broadcast(info)
    qs_sorted = sorted(str(q) for q in QS)

    def counts(b: pa.Table) -> pa.Table:
        inf = get_broadcast(ref)
        v = b["value"].to_numpy(zero_copy_only=False)
        et = b["event_type"]
        out_k, out_j, out_lt, out_le = [], [], [], []
        for k, (ests, _tol, _n) in inf.items():
            m = pa.compute.equal(et, k).to_numpy(zero_copy_only=False)
            if not m.any():
                continue
            vk = v[m]
            for j, e in enumerate(ests):
                out_k.append(k)
                out_j.append(j)
                out_lt.append(int((vk < e).sum()))
                out_le.append(int((vk <= e).sum()))
        return pa.table(
            {
                "event_type": pa.array(out_k, type=pa.string()),
                "j": pa.array(out_j, type=pa.int64()),
                "lt": pa.array(out_lt, type=pa.int64()),
                "le": pa.array(out_le, type=pa.int64()),
            }
        )

    tot = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["event_type", "j"])
        .aggregate(Sum("lt", alias_name="lt"), Sum("le", alias_name="le"))
        .to_pandas()
    )
    rows = []
    for (k, j), g in tot.groupby(["event_type", "j"]):
        ests, tol, n = info[k]
        q = float(qs_sorted[int(j)])
        target = int(np.ceil(q * n))
        lo = int(g["lt"].iloc[0]) + 1
        hi = int(g["le"].iloc[0])
        rows.append((k, qs_sorted[int(j)],
                     (target >= lo - tol) and (target <= hi + tol)))
    rows.sort()
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], type=pa.string()),
            "q": pa.array([r[1] for r in rows], type=pa.string()),
            "ok": pa.array([r[2] for r in rows], type=pa.bool_()),
        }
    )


def q_docs_decontaminate(sf_dir: str):
    """Train/benchmark decontamination: documents split 80/20 by the
    seeded multiplicative doc_id hash (the held-out fifth plays the
    benchmark suite); every TRAIN doc sharing ≥1 exact 5-word window
    with the benchmark is reported with its distinct-gram hit count.
    Benchmark grams broadcast once via ray.put; the train side streams
    through one vectorized hash-prefilter + exact-string-verify pass —
    no shuffle (functions/decontam.py)."""
    from ..functions.decontam import contamination_report

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def split(is_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            h = (
                ids.astype(np.uint64) * np.uint64(2654435761)
            ) % np.uint64(4294967296) % np.uint64(5)
            keep = (h == 0) if is_bench else (h != 0)
            return b.filter(pa.array(keep))

        return f

    bench = ds.map_batches(split(True), batch_format="pyarrow")
    train = ds.map_batches(split(False), batch_format="pyarrow")
    return contamination_report(train, bench, k=5)


SPLIT_VAL_PCT, SPLIT_TEST_PCT = 5, 5  # of 10_000 hash buckets ×100


def q_docs_split(sf_dir: str):
    """Deterministic train/val/test assignment: split = a pure function of
    hash32(doc_id) mod 10000 (same multiplicative hash as the samplers,
    including the mod-2^32 reduction, so the value is identical however
    wide the intermediate product is), so membership is reproducible
    across runs, clusters and downstream jobs, and documents never leak
    between splits when the corpus grows (a doc's split never changes).
    Shuffle-free single pass; oracle restates the hash + CASE thresholds
    in HUGEINT so DuckDB cannot overflow at any doc_id."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    val_hi = SPLIT_VAL_PCT * 100
    test_hi = val_hi + SPLIT_TEST_PCT * 100

    def assign(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = (
            (ids.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(4294967296)
        ) % np.uint64(10_000)
        split = np.where(
            h < val_hi, "val", np.where(h < test_hi, "test", "train")
        )
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "split": pa.array(split.astype(object), type=pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def q_docs_mixture_sample(sf_dir: str):
    """Data-mixture sampling: per-SOURCE keep rates (basis points) applied
    via the seeded multiplicative doc_id hash — the deterministic
    weighted-mixing step of a pretraining data recipe (rates broadcast in
    the closure as plain ints; selection is one vectorized hash compare,
    no shuffle, reproducible across runs/repartitions). Oracle mirrors
    the hash and the CASE rate table."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    rates = dict(MIX_RATES_BP)

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = (
            (ids.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(4294967296)
        ) % np.uint64(10_000)
        src = b["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        # rate lookup over the tiny per-batch dictionary, then one gather —
        # never a per-row Python pass
        bp_uniq = np.array(
            [rates.get(s, MIX_DEFAULT_BP) for s in enc.dictionary.to_pylist()],
            dtype=np.uint64,
        )
        bp = bp_uniq[enc.indices.to_numpy(zero_copy_only=False)]
        return b.filter(pa.array(h < bp))

    return ds.map_batches(keep, batch_format="pyarrow").map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "source": b["source"],
            }
        ),
        batch_format="pyarrow",
    )


EPOCH_SHUF_SEED, EPOCH_SHUF_EPOCH, EPOCH_SHUF_K = 7, 3, 256

LOADER_BUDGET = 8192


@_in_scratch("training_loader_")
def q_training_loader_gate(sf_dir: str, base: str):
    """Training-batch loader over a committed store (pipelines/loader.py):
    the tokens table splits into 3 source files → a 3-fragment store →
    token-budgeted batches of whole sequences. Value-bound to SQL
    (n_rows, total_tokens, tok_value_sum recomputed from documents) plus
    gate booleans for the non-SQL semantics: budget respected per batch,
    batch stream == store row order, resume-from-mid-step yields the exact
    suffix, and rank shards partition the store."""
    from .loader import iter_training_batches, plan_training_batches
    from .tablestore import compress_table

    src = os.path.join(base, "src")
    os.makedirs(src)
    tbl = pa.concat_tables(
        b
        for b in _tokens_ds(sf_dir).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        )
        if b.num_rows
    )
    n = tbl.num_rows
    step = max(1, (n + 2) // 3)
    for i in range(3):
        part = tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(src, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(src, store)

    batches = list(iter_training_batches(store, LOADER_BUDGET))
    n_rows = sum(b["n_rows"] for b in batches)
    total_tokens = sum(b["n_tokens"] for b in batches)
    tok_value_sum = int(
        sum(int(b["tokens"].sum(dtype=np.int64)) for b in batches)
    )
    budget_ok = all(
        b["n_tokens"] <= LOADER_BUDGET or (b["n_rows"] == 1 and b["oversized"])
        for b in batches
    )
    got_ids = [d for b in batches for d in b["doc_id"].tolist()]
    order_ok = got_ids == tbl["doc_id"].to_pylist()

    mid = len(batches) // 2
    plan = plan_training_batches(store, LOADER_BUDGET)
    resumed = list(
        iter_training_batches(store, LOADER_BUDGET, start_step=mid, plan=plan)
    )
    resume_ok = len(resumed) == len(batches) - mid and all(
        a["step"] == b["step"]
        and np.array_equal(a["tokens"], b["tokens"])
        and a["doc_id"].tolist() == b["doc_id"].tolist()
        for a, b in zip(batches[mid:], resumed)
    )
    shard_ids = [
        d
        for r in range(2)
        for b in iter_training_batches(
            store, LOADER_BUDGET, rank=r, world_size=2
        )
        for d in b["doc_id"].tolist()
    ]
    shards_ok = sorted(shard_ids) == sorted(got_ids)
    return pa.table(
        {
            "n_rows": pa.array([n_rows], type=pa.int64()),
            "total_tokens": pa.array([total_tokens], type=pa.int64()),
            "tok_value_sum": pa.array([tok_value_sum], type=pa.int64()),
            "budget_respected": pa.array([budget_ok]),
            "order_is_store_order": pa.array([order_ok]),
            "resume_matches": pa.array([resume_ok]),
            "shards_partition": pa.array([shards_ok]),
        }
    )


@_in_scratch("loader_srcfilter_")
def q_training_loader_source_filter(sf_dir: str, base: str):
    """Domain-filtered serving (loader keep_sources): the same 3-fragment
    store as ``training_loader_gate``, served with only source='src1' —
    row/token/value totals are SQL-verifiable against documents WHERE
    source='src1', plus gates that the filter composes with
    order='shuffle' (same kept set, permuted) and that no dropped-source
    row ever surfaces. The filter lives in the PLAN (payloads of dropped
    rows never decode) — the ablate-one-domain shape without rewriting
    the store."""
    from .loader import iter_training_batches
    from .tablestore import compress_table

    src = os.path.join(base, "src")
    os.makedirs(src)
    tbl = pa.concat_tables(
        b
        for b in _tokens_ds(sf_dir).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        )
        if b.num_rows
    )
    n = tbl.num_rows
    step = max(1, (n + 2) // 3)
    for i in range(3):
        part = tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(src, f"f{i}.parquet"))
    store = os.path.join(base, "store")
    compress_table(src, store)

    batches = list(
        iter_training_batches(
            store, LOADER_BUDGET, columns=("doc_id", "source", "tokens"),
            keep_sources=["src1"],
        )
    )
    n_rows = sum(b["n_rows"] for b in batches)
    total_tokens = sum(b["n_tokens"] for b in batches)
    tok_value_sum = int(
        sum(int(b["tokens"].sum(dtype=np.int64)) for b in batches)
    )
    only_kept = all(
        s == "src1" for b in batches for s in b["source"].tolist()
    )
    ids = sorted(d for b in batches for d in b["doc_id"].tolist())
    shuf_ids = sorted(
        d
        for b in iter_training_batches(
            store, LOADER_BUDGET, keep_sources=["src1"],
            order="shuffle", epoch=(7, 2),
        )
        for d in b["doc_id"].tolist()
    )
    return pa.table(
        {
            "n_rows": pa.array([n_rows], type=pa.int64()),
            "total_tokens": pa.array([total_tokens], type=pa.int64()),
            "tok_value_sum": pa.array([tok_value_sum], type=pa.int64()),
            "only_kept_source": pa.array([only_kept]),
            "shuffle_same_set": pa.array([shuf_ids == ids]),
        }
    )


def q_docs_epoch_shuffle(sf_dir: str):
    """Deterministic multi-epoch global shuffle (functions/shuffle.py):
    every doc gets a (seed, epoch)-keyed order key, the dataset range-sorts
    on it (one all-to-all — the minimum a true global shuffle pays), and
    the query returns the first EPOCH_SHUF_K documents of epoch 3's order.
    The oracle recomputes the identical two-round multiplicative key in SQL
    and takes the same ORDER BY ... LIMIT prefix, so the driver verifies
    the exact global permutation boundary, not just row counts."""
    from ..functions.shuffle import epoch_shuffle

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    out = epoch_shuffle(
        ds, seed=EPOCH_SHUF_SEED, epoch=EPOCH_SHUF_EPOCH
    ).limit(EPOCH_SHUF_K)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "shuffle_key": b["shuffle_key"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


@_in_scratch("store_time_travel_")
def q_store_time_travel(sf_dir: str, base: str):
    """Versioned catalog over the store (state/catalog.py): the tokens
    table loads as version 1, a GDPR key-list delete of the even doc_ids
    ships version 2; the catalog then serves BOTH — HEAD reads the
    filtered table while AS OF 1 still reads every deleted row. Each
    version's (rows, token count, token value sum) is recomputed by the
    oracle from documents with/without the delete predicate, so time
    travel is value-bound, not just row-counted."""
    from ..state.catalog import (
        commit_version,
        managed_store_path,
        read_version,
    )
    from .tablestore import compress_table, delete_keys_table_store

    src = os.path.join(base, "tokens.parquet")
    tbl = pa.concat_tables(
        b
        for b in _tokens_ds(sf_dir).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        )
        if b.num_rows
    )
    pq.write_table(tbl, src)
    cat = os.path.join(base, "cat")
    v1_store = managed_store_path(cat, "v1")
    compress_table(src, v1_store)
    commit_version(cat, v1_store, op="compress", note="initial load")
    even = [
        int(i) for i in tbl["doc_id"].to_pylist() if int(i) % 2 == 0
    ]
    v2_store = managed_store_path(cat, "v2")
    delete_keys_table_store(v1_store, v2_store, keys=even, key="doc_id")
    commit_version(cat, v2_store, op="delete", note="GDPR: even doc_ids")

    out = {"version": [], "n_rows": [], "total_tokens": [], "tok_value_sum": []}
    for v in (1, 2):
        n_rows = total = vsum = 0
        for b in read_version(cat, v).iter_batches(batch_format="pyarrow"):
            if not b.num_rows:
                continue
            n_rows += b.num_rows
            total += int(
                pa.compute.sum(b["n_tok"].cast(pa.int64())).as_py() or 0
            )
            toks = b["tokens"]
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            flat = toks.flatten().to_numpy(zero_copy_only=False)
            vsum += int(flat.astype(np.int64).sum()) if len(flat) else 0
        out["version"].append(v)
        out["n_rows"].append(n_rows)
        out["total_tokens"].append(total)
        out["tok_value_sum"].append(vsum)
    return pa.table(
        {k: pa.array(v, type=pa.int64()) for k, v in out.items()}
    )


def q_ingest_jsonl(sf_dir: str):
    """Source-format coverage: the documents table exported to JSONL
    scratch, re-ingested with ray.data.read_json, and reduced — result
    must equal SQL over the original parquet (schema survives the
    format round-trip; the read streams per file like any source)."""
    scratch = os.path.join(
        "/tmp", f"fsst_jsonl_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    df = docs.to_pandas()
    for i in range(4):
        df.iloc[i::4].to_json(
            os.path.join(scratch, f"part{i}.jsonl"),
            orient="records",
            lines=True,
        )
    ds = ray.data.read_json(
        [os.path.join(scratch, f"part{i}.jsonl") for i in range(4)]
    )

    def stats(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
                "source": b["source"],
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def _ingest_jsonl_compressed(sf_dir: str, codec: str, ext: str):
    """Compressed-shard ingestion: real pretraining corpora arrive as
    .jsonl.gz / .jsonl.zst shards. Shards are written through
    ``pa.CompressedOutputStream`` (no external lib; pyarrow bundles gzip
    and zstd codecs) and re-ingested with ``ray.data.read_json`` passing
    ``arrow_open_stream_args={"compression": codec}`` — decompression
    happens inside each read task, streaming per shard, so the pattern
    holds at 100 TB exactly like the plain-JSONL read."""
    if not pa.Codec.is_available(codec):  # honest gate, Pillow pattern
        raise NotImplementedError(
            f"pyarrow built without the {codec!r} codec"
        )
    scratch = os.path.join(
        "/tmp",
        f"fsst_jsonl_{codec}_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    df = docs.to_pandas()
    files = []
    for i in range(4):
        p = os.path.join(scratch, f"part{i}.jsonl{ext}")
        payload = df.iloc[i::4].to_json(orient="records", lines=True)
        with pa.CompressedOutputStream(p, codec) as f:
            f.write(payload.encode("utf-8"))
        files.append(p)
    ds = ray.data.read_json(
        files, arrow_open_stream_args={"compression": codec}
    )

    def stats(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
                "source": b["source"],
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_ingest_jsonl_gz(sf_dir: str):
    """.jsonl.gz shard ingestion (gzip = the universal corpus-shard
    format); oracle identical to ``ingest_jsonl``."""
    return _ingest_jsonl_compressed(sf_dir, "gzip", ".gz")


def q_ingest_jsonl_zst(sf_dir: str):
    """.jsonl.zst shard ingestion (zstd = the modern corpus-shard
    format); raises NotImplementedError when pyarrow lacks the codec."""
    return _ingest_jsonl_compressed(sf_dir, "zstd", ".zst")


def q_ingest_csv(sf_dir: str):
    """Source-format coverage, CSV twin of ``ingest_jsonl``: documents
    exported to 4 CSV shards, re-ingested with ray.data.read_csv, and
    reduced per row — text content must survive the quoting round-trip
    (char counts recomputed FROM the text, not carried through)."""
    scratch = os.path.join(
        "/tmp", f"fsst_csv_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    df = docs.to_pandas()
    files = []
    for i in range(4):
        p = os.path.join(scratch, f"part{i}.csv")
        df.iloc[i::4].to_csv(p, index=False)
        files.append(p)
    ds = ray.data.read_csv(files)

    def stats(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
                "source": b["source"],
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_dedup_spans_planted(sf_dir: str):
    """Span-level exact dedup gate (functions/spans.py): a controlled
    corpus of 40 docs with per-doc-unique vocabularies gets 30-word spans
    of docs 0–4 spliced into docs 20–24 — duplicated_span_pairs must find
    exactly those five (src, dst) pairs (unique vocabs make any other
    pair impossible, so the expected set is a SQL literal)."""
    from ..functions.spans import duplicated_span_pairs

    texts = {
        d: " ".join(f"d{d}w{j}" for j in range(100)) for d in range(40)
    }
    for i in range(5):
        words = texts[i].split()[10:40]
        base = texts[20 + i].split()
        texts[20 + i] = " ".join(base[:50] + words + base[50:])
    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = duplicated_span_pairs(ds, k=8)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_a": b["doc_a"].cast(pa.int64()),
                "doc_b": b["doc_b"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_dedup_spans_tokens_planted(sf_dir: str):
    """Token-domain span dedup gate (duplicated_token_span_pairs — the
    'deduplicating training data' pass over the north-rule tokens table):
    40 docs over per-doc-unique token-id ranges get 30-token spans of
    docs 0–4 spliced into docs 20–24 — exactly those five pairs must
    come back (unique id ranges make any other k-window collision-proof
    at the verify stage)."""
    from ..functions.spans import duplicated_token_span_pairs

    rng = {d: list(range(d * 1000, d * 1000 + 100)) for d in range(40)}
    for i in range(5):
        span = rng[i][10:40]
        base = rng[20 + i]
        rng[20 + i] = base[:50] + span + base[50:]
    off = np.zeros(41, dtype=np.int64)
    np.cumsum([len(rng[d]) for d in sorted(rng)], out=off[1:])
    flat = np.array(
        [t for d in sorted(rng) for t in rng[d]], dtype=np.int32
    )
    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(rng), type=pa.int64()),
            "tokens": pa.ListArray.from_arrays(
                pa.array(off.astype(np.int32), type=pa.int32()),
                pa.array(flat, type=pa.int32()),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = duplicated_token_span_pairs(ds, k=16)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_a": b["doc_a"].cast(pa.int64()),
                "doc_b": b["doc_b"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tokens_remove_spans_planted(sf_dir: str):
    """Span REMOVAL gate (remove_duplicated_token_spans — the action half
    of 'deduplicating training data'): the spliced 30-token spans must
    vanish from docs 20–24 exactly (coverage union of matching
    16-windows), restoring every document to its original 100 tokens —
    the expected corpus is a SQL literal over range()."""
    from ..functions.spans import remove_duplicated_token_spans

    rng = {d: list(range(d * 1000, d * 1000 + 100)) for d in range(40)}
    for i in range(5):
        span = rng[i][10:40]
        base = rng[20 + i]
        rng[20 + i] = base[:50] + span + base[50:]
    off = np.zeros(41, dtype=np.int64)
    np.cumsum([len(rng[d]) for d in sorted(rng)], out=off[1:])
    flat = np.array(
        [t for d in sorted(rng) for t in rng[d]], dtype=np.int32
    )
    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(rng), type=pa.int64()),
            "tokens": pa.ListArray.from_arrays(
                pa.array(off.astype(np.int32), type=pa.int32()),
                pa.array(flat, type=pa.int32()),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = remove_duplicated_token_spans(ds, k=16)
    return out.map_batches(tok_str_batch, batch_format="pyarrow")


def q_users_purchase_and_error(sf_dir: str):
    """Distinct-set INTERSECT: users with BOTH a purchase and an error
    event — per-batch distinct (user, flags) partials, one small groupby
    merging boolean maxima; the shuffle moves ≤ |users| rows per block."""
    from ray.data.aggregate import Max

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def flags(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(
            b["event_type"], value_set=pa.array(["purchase", "error"])
        )
        f = b.filter(keep)
        g = (
            pa.table(
                {
                    "user_id": f["user_id"],
                    "p": pc.equal(f["event_type"], "purchase").cast(
                        pa.int64()
                    ),
                    "e": pc.equal(f["event_type"], "error").cast(pa.int64()),
                }
            )
            .group_by("user_id")
            .aggregate([("p", "max"), ("e", "max")])
        )
        return pa.table(
            {
                "user_id": g["user_id"],
                "p": g["p_max"].cast(pa.int64()),
                "e": g["e_max"].cast(pa.int64()),
            }
        )

    merged = (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("p", alias_name="p"), Max("e", alias_name="e"))
        .filter(expr="p == 1 and e == 1")
    )
    return merged.map_batches(
        lambda b: pa.table({"user_id": b["user_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


# ------------------------------------------------------------------- tpch
def q_tpch_q1(sf_dir: str):
    """TPC-H Q1 shape over lineitem (the reference's workload context table,
    scripts/data-setup.sh): partial aggregation per batch, tiny merge.
    Money sums as integer cents via floor(x*100+0.5) — float-op-identical to
    the oracle SQL, summation-order independent."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = np.datetime64("1999-09-02T00:00:00", "us").astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ts <= cutoff
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)[keep]
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        keep_idx = pa.array(np.flatnonzero(keep))
        # Arrow-native partial groupby (no pandas round trip in the
        # streamed stage)
        g = (
            pa.table(
                {
                    "l_returnflag": b["l_returnflag"].take(keep_idx),
                    "l_linestatus": b["l_linestatus"].take(keep_idx),
                    "qty": pa.array(qty.astype(np.int64)),
                    "price_cents": pa.array(
                        np.floor(px * 100 + 0.5).astype(np.int64)
                    ),
                    "disc_cents": pa.array(
                        np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                    ),
                }
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate(
                [
                    ("qty", "sum"),
                    ("price_cents", "sum"),
                    ("disc_cents", "sum"),
                    ("qty", "count"),
                ]
            )
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "l_linestatus": g["l_linestatus"],
                "sum_qty": g["qty_sum"].cast(pa.int64()),
                "sum_base_cents": g["price_cents_sum"].cast(pa.int64()),
                "sum_disc_cents": g["disc_cents_sum"].cast(pa.int64()),
                "count_order": g["qty_count"].cast(pa.int64()),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_cents", alias_name="sum_base_cents"),
            Sum("sum_disc_cents", alias_name="sum_disc_cents"),
            Sum("count_order", alias_name="count_order"),
        )
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "sum_qty": b["sum_qty"].cast(pa.int64()),
                "sum_base_cents": b["sum_base_cents"].cast(pa.int64()),
                "sum_disc_cents": b["sum_disc_cents"].cast(pa.int64()),
                "count_order": b["count_order"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6: pure filter + global aggregate — the simplest fully
    streaming shape (per-batch partial sums, one tiny merge row)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        keep = (
            (ts >= lo)
            & (ts < hi)
            & (disc >= 0.05 - 1e-9)
            & (disc <= 0.07 + 1e-9)
            & (qty < 24)
        )
        # revenue in integer hundredths of a cent: px*disc*10000, rounded —
        # identical float ops on both sides, order-independent int sum
        rev = np.floor(px[keep] * disc[keep] * 10000 + 0.5).astype(np.int64)
        return pa.table({"rev": pa.array([int(rev.sum())], type=pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    total = sum(
        int(r["rev"])
        for b in parts.iter_batches(batch_size=4096, batch_format="pyarrow")
        for r in b.to_pylist()
    )
    return pa.table({"revenue_unit": pa.array([total], type=pa.int64())})


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape: lineitem ⋈ part (small side broadcast once) with a
    conditional aggregate. Integer-cents numerator/denominator returned
    separately so the compare is exact (a float ratio is summation-order
    dependent)."""
    import pyarrow.parquet as pq
    from ..functions.join import broadcast_hash_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1996-04-01T00:00:00", "us").astype(np.int64)

    def window(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ts >= lo) & (ts < hi)))

    joined = broadcast_hash_join(
        li.map_batches(window, batch_format="pyarrow"),
        part,
        "l_partkey",
        "p_partkey",
    )

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
        promo = pc.starts_with(b["p_type"], "PROMO").to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "promo_cents": pa.array(
                    [int(cents[promo].sum())], type=pa.int64()
                ),
                "total_cents": pa.array([int(cents.sum())], type=pa.int64()),
            }
        )

    pn = tn = 0
    for b in joined.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        for r in b.to_pylist():
            pn += int(r["promo_cents"])
            tn += int(r["total_cents"])
    return pa.table(
        {
            "promo_cents": pa.array([pn], type=pa.int64()),
            "total_cents": pa.array([tn], type=pa.int64()),
        }
    )


def q_tpch_ptype_like(sf_dir: str):
    """The reference's second flagship column (part.p_type,
    scripts/data-setup.sh:14-18), here p_name: per-column encode (auto
    scheme per block: fsstb where FSST wins, strdict — dictionary
    pushdown — where the names repeat), then LIKE-scan compressed."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda b: pa.table({"p_partkey": b["p_partkey"], "text": b["p_name"]}),
        batch_format="pyarrow",
    )
    return _like_ids(encode_columns_dataset(ds), "%blue%", id_col="p_partkey")


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape: orders-per-customer distribution with a predicate on
    the priority text. Implemented WITHOUT a shuffle join: filtered orders
    aggregate to ≤#customers count rows; the counts broadcast (ray.put) into
    a streamed pass over customer; the final histogram is a tiny groupby."""
    from ..functions.join import count_lookup

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    filt = orders.filter(expr="o_orderpriority != '1-URGENT'")
    # stream the per-customer counts into two flat arrays (≤ #customers
    # rows) — the broadcast side stays NumPy, never a Python dict
    kparts, vparts = [], []
    for b in (
        filt.groupby("o_custkey")
        .aggregate(Count(alias_name="n"))
        .iter_batches(batch_size=65536, batch_format="pyarrow")
    ):
        if b.num_rows:
            kparts.append(b["o_custkey"].to_numpy(zero_copy_only=False))
            vparts.append(b["n"].to_numpy(zero_copy_only=False))
    keys = np.concatenate(kparts) if kparts else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(vparts) if vparts else np.zeros(0, dtype=np.int64)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    with_counts = count_lookup(cust, keys, vals, "c_custkey", out_col="c_count")
    hist = with_counts.groupby("c_count").aggregate(
        Count(alias_name="custdist")
    )
    return hist.map_batches(
        lambda b: pa.table(
            {
                "c_count": b["c_count"].cast(pa.int64()),
                "custdist": b["custdist"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_segment_orders(sf_dir: str):
    """orders ⋈ customer (broadcast hash join: customer is the small side,
    shipped once via ray.put) → order count + cents sum per market segment."""
    import pyarrow.parquet as pq
    from ..functions.join import broadcast_hash_join

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = broadcast_hash_join(orders, cust, "o_custkey", "c_custkey")

    def partial(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["o_totalprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        g = (
            pa.table(
                {"c_mktsegment": b["c_mktsegment"], "cents": pa.array(cents)}
            )
            .group_by("c_mktsegment")
            .aggregate([("cents", "count"), ("cents", "sum")])
        )
        return pa.table(
            {
                "c_mktsegment": g["c_mktsegment"],
                "n_orders": g["cents_count"].cast(pa.int64()),
                "total_cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    merged = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "c_mktsegment": b["c_mktsegment"],
                "n_orders": b["n_orders"].cast(pa.int64()),
                "total_cents": b["total_cents"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_region_suppliers(sf_dir: str):
    """supplier ⋈ nation ⋈ region via CHAINED broadcast joins (both lookup
    sides are tiny dimension tables — the canonical star-schema shape where
    broadcast beats any shuffle join)."""
    import pyarrow.parquet as pq
    from ..functions.join import broadcast_hash_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    j = broadcast_hash_join(sup, nation, "s_nationkey", "n_nationkey")
    j = broadcast_hash_join(j, region, "n_regionkey", "r_regionkey")
    agg = j.groupby("r_name").aggregate(Count(alias_name="n_suppliers"))
    return agg.map_batches(
        lambda b: pa.table(
            {"r_name": b["r_name"], "n_suppliers": b["n_suppliers"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def q_token_stats_pushdown(sf_dir: str):
    """Per-doc sum/min/max of token values computed in the COMPRESSED
    domain (codecs/pushdown.py): RLE reduces over runs, plain is a
    zero-copy int32 view, dict/bitpack/for/delta/fsst reduce the flat
    decoded stream without building Arrow lists."""
    from .numscan import token_stats

    return token_stats(encode_columns_dataset(_tokens_ds(sf_dir)))


def q_token_histogram_pushdown(sf_dir: str):
    """Top-20 most frequent tokens with exact counts, computed in the
    COMPRESSED domain (codecs/pushdown.py segment_histogram): RLE segments
    sum run lengths per distinct run value (O(runs)), dict segments
    bincount packed indices, plain is a zero-copy view. The shuffle moves
    per-block DISTINCT tokens (vocabulary-bounded); top-k is a tiny sort
    of the merged histogram."""
    from .numscan import token_histogram

    enc = encode_columns_dataset(_tokens_ds(sf_dir))
    return (
        token_histogram(enc)
        .map_batches(
            lambda b: pa.table(
                {
                    "token": b["token"].cast(pa.int64()),
                    "cnt": b["cnt"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["cnt", "token"], descending=[True, False])
        .limit(20)
    )


def q_contains_token_pushdown(sf_dir: str):
    """Docs whose token list contains ord('q') — token-membership pushed
    down to the encoded payloads with dict/bitpack zone checks (a segment
    whose dictionary lacks the token is skipped without touching payload
    bytes). Oracle: text contains 'q' (tokens ARE the codepoints)."""
    from .numscan import contains_token_scan

    enc = encode_columns_dataset(_tokens_ds(sf_dir))
    return _collect_ids(contains_token_scan(enc, ord("q")), "doc_id")


def q_like_trigram_indexed(sf_dir: str):
    """Trigram-pruned LIKE on the table store: documents are staged as an
    8-file corpus and compressed into a store whose manifest carries a
    trigram bloom per (fragment, string column); like_table_store opens
    ONLY fragments whose bloom holds every pattern trigram. An
    absent-literal pattern must prune to ZERO fragments (no
    part file read), then the ``%merge sort%`` rows are returned — equal
    to the unpruned scan, so the oracle is the plain SQL LIKE."""
    from .tablestore import compress_table, like_table_store

    scratch = os.path.join(
        "/tmp", f"fsst_tridx_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    corpus = os.path.join(scratch, "docs")
    store = os.path.join(scratch, "store")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(corpus, exist_ok=True)
    _docs(sf_dir, ("doc_id", "text")).repartition(8).write_parquet(corpus)
    compress_table(corpus, store)
    stats: dict = {}
    none = like_table_store(
        store, "text", "%quantum entangle%", columns=["doc_id"],
        stats_out=stats,
    )
    if stats["fragments_scanned"] or not stats["fragments_skipped"]:
        raise ValueError(f"absent literal did not prune every fragment: {stats}")
    if none.to_arrow().num_rows:
        raise ValueError("absent literal matched rows")
    return like_table_store(
        store, "text", "%merge sort%", columns=["doc_id", "text"]
    ).to_arrow()


def q_compaction_roundtrip(sf_dir: str):
    """Compaction gate on the token corpus: the sf tokens corpus is
    written as 8 source fragments and compressed into a table store
    (verified bit-exact against those sources), then packed into fewer
    fragments (tablestore.compact_table_store: byte-identical part
    copies, exact lineage merge) — the fragment count must drop while
    the compacted store decodes to exactly the verified rows (the
    100 TB fan-in shape)."""
    from .tablestore import (
        compact_table_store,
        compress_table,
        read_table_store,
        verify_table_store,
    )

    scratch = os.path.join(
        "/tmp", f"fsst_compact_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    src = os.path.join(scratch, "src")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(src, exist_ok=True)
    tok_tbl = pa.concat_tables(
        [
            b
            for b in _tokens_ds(sf_dir).iter_batches(
                batch_size=4096, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    )
    step = max(1, -(-tok_tbl.num_rows // 8))
    for i in range(0, tok_tbl.num_rows, step):
        pq.write_table(
            tok_tbl.slice(i, step), os.path.join(src, f"f{i:08d}.parquet")
        )
    store = os.path.join(scratch, "store")
    packed = os.path.join(scratch, "compacted")
    before = compress_table(src, store)["fragments"]
    after = compact_table_store(
        store, packed, target_rows=max(1, tok_tbl.num_rows // 3)
    )["fragments"]
    v = verify_table_store(src, store)

    def rows(store_dir: str) -> pa.Table:
        return pa.concat_tables(
            b
            for b in read_table_store(store_dir).iter_batches(
                batch_format="pyarrow"
            )
            if b.num_rows
        ).sort_by("doc_id")

    return pa.table(
        {
            "merged": pa.array([after < before]),
            "bit_identical": pa.array(
                [bool(v["ok"]) and rows(packed).equals(rows(store))]
            ),
        }
    )


def q_tpch_order_revenue(sf_dir: str, hot_keys=None, bloom: bool = False):
    """Big ⋈ big: lineitem (fact) co-partition-joined to orders on
    orderkey via shuffle_hash_join (hash-bucketed, vectorized per-bucket
    sort-merge — functions/join.py), then revenue per order via
    partial-then-merge. Neither side is broadcast or materialized.
    ``hot_keys`` salts known-hot orderkeys (see the _salted variant).
    ``bloom=True`` pre-passes the (filtered) orders side into a bloom
    bitmap and prunes lineitem rows with no possible partner BEFORE the
    all-to-all shuffle — no false negatives, so the result is identical
    (same oracle as the plain query)."""
    from ..functions.join import shuffle_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_orderdate",
                 "o_orderpriority"],
    ).map_batches(
        lambda b: (
            lambda f: pa.table(
                {
                    "o_orderkey": f["o_orderkey"],
                    "o_orderdate_us": f["o_orderdate"].cast(pa.int64()),
                    "o_orderpriority": f["o_orderpriority"],
                }
            )
        )(b.filter(pa.compute.equal(b["o_orderstatus"], "F"))),
        batch_format="pyarrow",
    )
    cutoff = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)

    def lines(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ts >= cutoff
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].take(
                    pa.array(np.flatnonzero(keep))
                ),
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(lines, batch_format="pyarrow")

    if bloom:
        from ..functions.bloom import bloom_build, bloom_prune

        # orders after the status-F filter is the small(er) build side;
        # its key bloom (256 KB at 2^21 bits) broadcasts once and drops
        # shipdate-filtered lineitems of non-F orders pre-shuffle
        bm = bloom_build(orders, "o_orderkey", n_bits=1 << 21)
        lineitem = bloom_prune(lineitem, "l_orderkey", bm)
    joined = shuffle_hash_join(
        lineitem, orders, "l_orderkey", "o_orderkey", how="inner",
        n_buckets=32, hot_keys=hot_keys, n_salt=4,
    )

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "o_orderkey": b["l_orderkey"],
                    "o_orderdate_us": b["o_orderdate_us_r"],
                    "o_orderpriority": b["o_orderpriority_r"],
                    "cents": b["cents"],
                }
            )
            .group_by(["o_orderkey", "o_orderdate_us", "o_orderpriority"])
            .aggregate([("cents", "sum"), ("cents", "count")])
        )
        return pa.table(
            {
                "o_orderkey": g["o_orderkey"],
                "o_orderdate_us": g["o_orderdate_us"],
                "o_orderpriority": g["o_orderpriority"],
                "revenue_cents": g["cents_sum"].cast(pa.int64()),
                "n_lines": g["cents_count"].cast(pa.int64()),
            }
        )

    merged = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderkey", "o_orderdate_us", "o_orderpriority"])
        .aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_lines", alias_name="n_lines"),
        )
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_orderdate_us": b["o_orderdate_us"].cast(pa.int64()),
                "o_orderpriority": b["o_orderpriority"],
                "revenue_cents": b["revenue_cents"].cast(pa.int64()),
                "n_lines": b["n_lines"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_order_revenue_salted(sf_dir: str):
    """Skew-hardened variant: the 5 most line-heavy orderkeys are found
    by a frequency pre-scan (per-batch partial counts → small groupby →
    top-5) and SALTED in the shuffle join (hot probe rows split across
    private salt buckets, hot build rows replicated). Must produce the
    identical result — same oracle as tpch_order_revenue."""
    from ray.data.aggregate import Sum

    cnt = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
        )
        .map_batches(
            lambda b: (
                lambda g: pa.table(
                    {
                        "k": g["l_orderkey"],
                        "c": g["l_orderkey_count"].cast(pa.int64()),
                    }
                )
            )(
                b.group_by("l_orderkey").aggregate(
                    [("l_orderkey", "count")]
                )
            ),
            batch_format="pyarrow",
        )
        .groupby("k")
        .aggregate(Sum("c", alias_name="c"))
        .sort(["c", "k"], descending=[True, False])
        .limit(5)
    )
    hot = pa.concat_tables(
        [
            b
            for b in cnt.iter_batches(
                batch_size=64, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    )["k"].to_numpy()
    return q_tpch_order_revenue(sf_dir, hot_keys=hot)


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 shape — returned-item revenue per customer, top 20:
    lineitem (R-flag, streamed, per-batch pre-aggregated) ⋈ orders
    (one-year window) via the co-partitioned shuffle join; per-customer
    partial-then-merge; the TOP-20 rows only are joined driver-side to
    customer and nation (20 rows — never a full dimension join)."""
    from ray.data.aggregate import Sum

    from ..functions.join import shuffle_hash_join

    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    def orders_window(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].cast(pa.int64())
        mask = pa.compute.and_(
            pa.compute.greater_equal(d, lo), pa.compute.less(d, hi)
        )
        return b.filter(mask).select(["o_orderkey", "o_custkey"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(orders_window, batch_format="pyarrow")

    def lines(b: pa.Table) -> pa.Table:
        keep = pa.compute.equal(b["l_returnflag"], "R")
        f = b.filter(keep)
        px = f["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = f["l_discount"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": f["l_orderkey"],
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("cents", "sum")])
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_returnflag",
            "l_extendedprice",
            "l_discount",
        ],
    ).map_batches(lines, batch_format="pyarrow")

    joined = shuffle_hash_join(
        lineitem, orders, "l_orderkey", "o_orderkey", how="inner",
        n_buckets=32,
    )
    top = (
        joined.map_batches(
            lambda b: pa.table(
                {"c_custkey": b["o_custkey_r"], "cents": b["cents"]}
            ),
            batch_format="pyarrow",
        )
        .groupby("c_custkey")
        .aggregate(Sum("cents", alias_name="revenue_cents"))
        .sort(["revenue_cents", "c_custkey"], descending=[True, False])
        .limit(20)
    )
    top_tbl = pa.concat_tables(
        [
            b
            for b in top.iter_batches(batch_size=64, batch_format="pyarrow")
            if b.num_rows
        ]
    )
    # dimension lookup for the 20 result rows: push the custkey set into
    # the parquet scan (row-group pruning; customer never fits the driver
    # at scale) and stream only the ≤20 matching rows back. nation is a
    # constant-size table (25 rows by TPC-H contract) — a driver read is
    # scale-safe by definition.
    topkeys = top_tbl["c_custkey"].to_pylist()
    cust = pa.concat_tables(
        [
            b
            for b in ray.data.read_parquet(
                f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_name", "c_nationkey"],
                filter=pa.compute.field("c_custkey").isin(topkeys),
            ).iter_batches(batch_size=64, batch_format="pyarrow")
            if b.num_rows
        ]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    df = (
        top_tbl.to_pandas()
        .merge(cust.to_pandas(), on="c_custkey")
        .merge(
            nation.to_pandas(),
            left_on="c_nationkey",
            right_on="n_nationkey",
        )
        .sort_values(
            ["revenue_cents", "c_custkey"], ascending=[False, True]
        )
    )
    return pa.table(
        {
            "c_custkey": pa.array(df["c_custkey"], type=pa.int64()),
            "c_name": pa.array(df["c_name"], type=pa.string()),
            "n_name": pa.array(df["n_name"], type=pa.string()),
            "revenue_cents": pa.array(
                df["revenue_cents"], type=pa.int64()
            ),
        }
    )


def q_tpch_q4_exists(sf_dir: str):
    """TPC-H Q4 shape — EXISTS semi-join with a CORRELATED predicate
    (lineitem shipped >60 days after its order's date): rewritten as a
    per-order MAX aggregate (partial-then-merge — the shuffle moves one
    row per order, never lineitems) probed against the broadcast
    date-window orders slice; count per priority."""
    from ray.data.aggregate import Max

    from ..functions.join import broadcast_hash_join

    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1996-07-01T00:00:00", "us").astype(np.int64)
    day_us = 86_400_000_000

    maxes = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_shipdate"],
        )
        .map_batches(
            lambda b: (
                lambda g: pa.table(
                    {
                        "l_orderkey": g["l_orderkey"],
                        "ship_us": g["ship_us_max"].cast(pa.int64()),
                    }
                )
            )(
                pa.table(
                    {
                        "l_orderkey": b["l_orderkey"],
                        "ship_us": b["l_shipdate"].cast(pa.int64()),
                    }
                )
                .group_by("l_orderkey")
                .aggregate([("ship_us", "max")])
            ),
            batch_format="pyarrow",
        )
        .groupby("l_orderkey")
        .aggregate(Max("ship_us", alias_name="ship_us"))
    )
    ord_tbl = pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    d = ord_tbl["o_orderdate"].cast(pa.int64())
    ord_tbl = (
        pa.table(
            {
                "o_orderkey": ord_tbl["o_orderkey"],
                "o_date_us": d,
                "o_orderpriority": ord_tbl["o_orderpriority"],
            }
        )
        .filter(
            pa.compute.and_(
                pa.compute.greater_equal(d, lo), pa.compute.less(d, hi)
            )
        )
    )
    joined = broadcast_hash_join(
        maxes, ord_tbl, "l_orderkey", "o_orderkey", how="inner"
    )

    def late_partial(b: pa.Table) -> pa.Table:
        ship = b["ship_us"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        od = b["o_date_us"].to_numpy(zero_copy_only=False)
        f = b.filter(pa.array(ship > od + 60 * day_us))
        g = f.group_by("o_orderpriority").aggregate([("l_orderkey", "count")])
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "n": g["l_orderkey_count"].cast(pa.int64()),
            }
        )

    merged = (
        joined.map_batches(late_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n"))
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "n": b["n"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_q16_brand_suppliers(sf_dir: str):
    """TPC-H Q16 shape — DISTINCT-count after a join: suppliers per brand
    for small-size parts. The part dimension broadcasts; per-batch UNIQUE
    (brand, suppkey) pairs are the partials, the groupby dedups pairs
    distributed, and a second tiny groupby counts per brand — the shuffle
    moves distinct pairs, never lineitems."""
    from ray.data.aggregate import Count

    from ..functions.join import broadcast_hash_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    part = part.filter(
        pa.compute.and_(
            pa.compute.not_equal(part["p_brand"], "Brand#45"),
            pa.compute.is_in(
                part["p_size"],
                value_set=pa.array([1, 4, 7], type=pa.int32()),
            ),
        )
    ).select(["p_partkey", "p_brand"])
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    joined = broadcast_hash_join(li, part, "l_partkey", "p_partkey")
    pairs = joined.map_batches(
        lambda b: b.select(["p_brand", "l_suppkey"]).group_by(
            ["p_brand", "l_suppkey"]
        ).aggregate([]),
        batch_format="pyarrow",
    )
    distinct = pairs.groupby(["p_brand", "l_suppkey"]).aggregate(
        Count(alias_name="_c")
    )
    out = (
        distinct.map_batches(
            lambda b: pa.table(
                {
                    "p_brand": b["p_brand"],
                    "one": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("p_brand")
        .aggregate(Sum("one", alias_name="supplier_cnt"))
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "p_brand": b["p_brand"],
                "supplier_cnt": b["supplier_cnt"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


Q19_CLAUSES = (
    ("Brand#13", 1, 10, 1.0, 20.0),
    ("Brand#25", 5, 20, 10.0, 35.0),
    ("Brand#22", 1, 30, 20.0, 50.0),
)


def q_tpch_q19_disjunctive(sf_dir: str):
    """TPC-H Q19 shape — DISJUNCTIVE multi-clause predicate across both
    join sides: OR of (brand, part-size range, line-quantity range)
    triples, evaluated vectorized per batch after the broadcast part
    lookup; single global revenue sum via per-block partials."""
    from ..functions.join import broadcast_hash_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_hash_join(li, part, "l_partkey", "p_partkey")

    def rev_partial(b: pa.Table) -> pa.Table:
        brand = b["p_brand"].to_numpy(zero_copy_only=False)
        size = b["p_size"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = np.zeros(b.num_rows, dtype=bool)
        for br, s_lo, s_hi, q_lo, q_hi in Q19_CLAUSES:
            keep |= (
                (brand == br)
                & (size >= s_lo)
                & (size <= s_hi)
                & (qty >= q_lo)
                & (qty <= q_hi)
            )
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        cents = int(np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64).sum())
        return pa.table({"cents": pa.array([cents], type=pa.int64())})

    total = 0
    for blk in joined.map_batches(
        rev_partial, batch_format="pyarrow"
    ).iter_batches(batch_size=4096, batch_format="pyarrow"):
        total += int(pa.compute.sum(blk["cents"]).as_py() or 0)
    return pa.table({"revenue_cents": pa.array([total], type=pa.int64())})


def q_docs_top3_per_source(sf_dir: str):
    """Top-3 longest docs per source (ties → lowest doc_id): grouped
    top-k with per-batch pre-pruning, so the shuffle moves ≤ 3 rows per
    (source × block)."""
    from ..functions.grouped_topk import grouped_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "source": b["source"],
                "n_tok": pa.compute.utf8_length(b["text"]).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return grouped_topk(ds, key="source", score="n_tok", k=3,
                        tiebreak="doc_id")


def q_customers_no_urgent_orders(sf_dir: str):
    """Anti-join: customers with no 1-URGENT order. The urgent-custkey
    distinct set is built with a per-batch unique partial (≤ #customers
    rows per block) and broadcast; the customer side streams through a
    searchsorted membership filter."""
    from ..functions.join import broadcast_semi_join

    okeys_ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": pa.array(
                    np.unique(
                        b.filter(
                            pa.compute.equal(
                                b["o_orderpriority"], "1-URGENT"
                            )
                        )["o_custkey"].to_numpy(zero_copy_only=False)
                    )
                )
            }
        ),
        batch_format="pyarrow",
    )
    okeys = _collect_ids(okeys_ds, "o_custkey")["o_custkey"].to_numpy()
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    return _collect_ids(
        broadcast_semi_join(cust, okeys, "c_custkey", anti=True),
        "c_custkey",
    )


def q_orders_monthly(sf_dir: str):
    """Calendar aggregation: per-month order count + cents total via
    vectorized datetime64[M] truncation inside the batch partial (no
    per-row date parsing), merged by one small groupby."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        ts = (
            b["o_orderdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
        )
        month = (
            ts.astype("datetime64[us]").astype("datetime64[M]")
        ).astype(str)
        cents = np.floor(
            b["o_totalprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        g = (
            pa.table(
                {
                    "month": pa.array(month),
                    "cents": pa.array(cents),
                    "one": pa.array(np.ones(len(ts), dtype=np.int64)),
                }
            )
            .group_by("month")
            .aggregate([("cents", "sum"), ("one", "sum")])
        )
        return pa.table(
            {
                "month": g["month"],
                "cents": g["cents_sum"].cast(pa.int64()),
                "n": g["one_sum"].cast(pa.int64()),
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("month")
        .aggregate(
            Sum("cents", alias_name="cents"), Sum("n", alias_name="n")
        )
    )


def q_user_event_seq(sf_dir: str):
    """Order-sensitive list aggregation (string_agg/collect_list): each
    user's event-type sequence in (ts, event_id) order, joined with ','
    — the session-to-training-sequence shape. One key shuffle; the
    in-group sort + join is vectorized Arrow (no per-row Python)."""
    import pyarrow.compute as pc

    def seq(g: pa.Table) -> pa.Table:
        # vectorized across ALL users in the coarse bucket: one lexsort
        # keyed (user, ts, event_id), run segmentation gives each user's
        # slice, ONE ListArray + binary_join builds every sequence
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        starts = (
            np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
            if len(u)
            else np.zeros(0, dtype=np.int64)
        )
        bounds = np.concatenate((starts, [len(u)])).astype(np.int32)
        et = g["event_type"].combine_chunks().take(
            pa.array(order, type=pa.int64())
        )
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(bounds), et), ","
        )
        return pa.table(
            {
                "user_id": g["user_id"].combine_chunks().take(
                    pa.array(order[starts], type=pa.int64())
                ),
                "seq": joined,
                "n_events": pa.array(
                    np.diff(bounds).astype(np.int64), type=pa.int64()
                ),
            }
        )

    prepped = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "event_id": b["event_id"],
                    "user_id": b["user_id"],
                    "event_type": b["event_type"],
                    "ts_us": b["ts"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    from ..functions.bucketed import bucketed_group_kernel

    return bucketed_group_kernel(prepped, "user_id", seq)


def q_docs_words_exploded(sf_dir: str):
    """Explode / unnest: text → one row per (doc, position, word), the
    flat_map shape expressed as a row-expanding map_batches (Arrow-regex
    split; positions from list offsets, 1-based counting empty slots to
    match SQL list indexing; empties filtered after). Bounded by the
    doc_id < 50 predicate pushed into the scan."""
    import pyarrow.compute as pc

    EMPTY = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
            "word": pa.array([], type=pa.string()),
        }
    )

    def explode(b: pa.Table) -> pa.Table:
        from ..functions.vocab import tokenize_rows

        b = b.filter(pc.less(b["doc_id"], 50))
        if b.num_rows == 0:
            return EMPTY
        values, row_ids, keep = tokenize_rows(b, "text")
        if len(row_ids) == 0:
            return EMPTY
        # 1-based position within the row, counting empty boundary slots
        # (= SQL list index of the split result)
        change = np.concatenate(([True], row_ids[1:] != row_ids[:-1]))
        starts = np.flatnonzero(change)
        run = np.cumsum(change) - 1
        pos = np.arange(len(row_ids), dtype=np.int64) - starts[run] + 1
        doc = b["doc_id"].to_numpy(zero_copy_only=False)[row_ids]
        return pa.table(
            {
                "doc_id": pa.array(doc[keep]),
                "pos": pa.array(pos[keep]),
                "word": values.filter(pa.array(keep)),
            }
        )

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(explode, batch_format="pyarrow")


def q_orders_cube(sf_dir: str):
    """CUBE(status, priority): all four grouping sets. Same scale plan as
    the ROLLUP — ONE distributed finest-grain aggregate, every coarser
    set derived from that small result driver-side."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "status": b["o_orderstatus"],
                    "priority": b["o_orderpriority"],
                }
            )
            .group_by(["status", "priority"])
            .aggregate([("status", "count")])
        )
        return pa.table(
            {
                "status": g["status"],
                "priority": g["priority"],
                "n": g["status_count"].cast(pa.int64()),
            }
        )

    fine = (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderstatus", "o_orderpriority"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["status", "priority"])
        .aggregate(Sum("n", alias_name="n"))
    )
    ft = pa.concat_tables(
        [
            b
            for b in fine.iter_batches(
                batch_size=65536, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    ).to_pandas()
    by_status = (
        ft.groupby("status", as_index=False)["n"].sum().assign(priority="ALL")
    )
    by_prio = (
        ft.groupby("priority", as_index=False)["n"].sum().assign(status="ALL")
    )
    top = pd.DataFrame(
        {"status": ["ALL"], "priority": ["ALL"], "n": [ft["n"].sum()]}
    )
    out = pd.concat([ft, by_status, by_prio, top], ignore_index=True)[
        ["status", "priority", "n"]
    ]
    return pa.table(
        {
            "status": pa.array(out["status"], type=pa.string()),
            "priority": pa.array(out["priority"], type=pa.string()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def q_orders_rollup(sf_dir: str):
    """ROLLUP(status, priority) totals: the finest grain aggregates
    distributed (partial-then-merge, shuffle moves ≤ |status×priority|
    rows per block); the coarser levels roll up from that SMALL result —
    the scale-correct plan for hierarchical totals. NULL grouping slots
    use the 'ALL' sentinel on both sides."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "status": b["o_orderstatus"],
                    "priority": b["o_orderpriority"],
                }
            )
            .group_by(["status", "priority"])
            .aggregate([("status", "count")])
        )
        return pa.table(
            {
                "status": g["status"],
                "priority": g["priority"],
                "n": g["status_count"].cast(pa.int64()),
            }
        )

    fine = (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderstatus", "o_orderpriority"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["status", "priority"])
        .aggregate(Sum("n", alias_name="n"))
    )
    ft = pa.concat_tables(
        [
            b
            for b in fine.iter_batches(
                batch_size=65536, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    ).to_pandas()
    mid = (
        ft.groupby("status", as_index=False)["n"].sum().assign(
            priority="ALL"
        )
    )
    top = pd.DataFrame(
        {"status": ["ALL"], "priority": ["ALL"], "n": [ft["n"].sum()]}
    )
    out = pd.concat([ft, mid, top], ignore_index=True)[
        ["status", "priority", "n"]
    ]
    out["n"] = out["n"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape — grouped HAVING filter feeding a join: lineitem
    quantity partial-merged per order, HAVING > 150 leaves a SMALL order
    set, which is collected once and becomes the broadcast side of a
    streaming join against orders (the big side never shuffles)."""
    from ray.data.aggregate import Sum

    from ..functions.join import broadcast_hash_join

    def qty(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_orderkey": b["l_orderkey"],
                    "q": b["l_quantity"].cast(pa.int64()),
                }
            )
            .group_by("l_orderkey")
            .aggregate([("q", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "q": g["q_sum"].cast(pa.int64()),
            }
        )

    big = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_quantity"],
        )
        .map_batches(qty, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("q", alias_name="qty_sum"))
        .map_batches(
            lambda b: b.filter(pa.compute.greater(b["qty_sum"], 150)),
            batch_format="pyarrow",
        )
    )
    parts = [
        b
        for b in big.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    small = (
        pa.concat_tables(parts).combine_chunks()
        if parts
        else pa.table(
            {
                "l_orderkey": pa.array([], type=pa.int64()),
                "qty_sum": pa.array([], type=pa.int64()),
            }
        )
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_date_us": b["o_orderdate"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = broadcast_hash_join(
        orders, small, "o_orderkey", "l_orderkey"
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_date_us": b["o_date_us"],
                "qty_sum": b["qty_sum"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_docs_shuffled_head(sf_dir: str):
    """Deterministic training-epoch reshuffle: global order by a seeded
    multiplicative hash of doc_id (a range-partitioned ds.sort — the
    scale path for 'random' epoch order without a random_shuffle
    materialization), head 25. Oracle reproduces the hash formula."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "h": pa.array(
                    (
                        b["doc_id"].to_numpy(zero_copy_only=False)
                        .astype(np.uint64)
                        * np.uint64(2654435761)
                    )
                    % np.uint64(1 << 32)
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return ds.sort(["h", "doc_id"]).limit(25)


SEARCH_TERMS = ("merge", "sort", "key")


def q_docs_word_search(sf_dir: str):
    """Search-engine AND query: docs containing ALL of SEARCH_TERMS as
    whole words (functions/vocab.py word_and_search — per-batch
    dictionary match + bitmask scatter, one streaming pass, no shuffle)."""
    from ..functions.vocab import word_and_search

    out = word_and_search(
        _docs(sf_dir, ("doc_id", "text")), SEARCH_TERMS
    )
    return _collect_ids(out, "doc_id")


def q_docs_phrase_search(sf_dir: str):
    """Adjacent-word PHRASE match ("merge sort") under the shared
    tokenization contract (functions/vocab.py phrase_search): in-row
    k-word windows join via binary_join_element_wise + one C++ equality —
    streaming, shuffle-free. Punctuation/case between the words doesn't
    break adjacency (tokenizer semantics), which the oracle mirrors with
    the re-indexed token JOIN."""
    from ..functions.vocab import phrase_search

    out = phrase_search(_docs(sf_dir, ("doc_id", "text")), "merge sort")
    return _collect_ids(out, "doc_id")


def q_docs_word_search_indexed(sf_dir: str):
    """Same AND query answered from the PERSISTED posting-list index
    (pipelines/postings.py): build hash-bucketed postings once, then read
    ONLY the query terms' buckets (asserted ≤ #terms; an unknown term
    also proves absent without touching other buckets). Shares the scan
    query's oracle — index and scan must agree exactly."""
    from .postings import build_word_index, word_index_lookup

    scratch = os.path.join(
        "/tmp", f"fsst_postidx_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(scratch, ignore_errors=True)
    build_word_index(f"{sf_dir}/documents.parquet", scratch)
    ids, read = word_index_lookup(scratch, SEARCH_TERMS, mode="and")
    assert read <= len(set(SEARCH_TERMS)), read
    # absent term → empty, still only its own bucket touched
    none_ids, none_read = word_index_lookup(
        scratch, ("zzqqxx",), mode="and"
    )
    assert len(none_ids) == 0 and none_read <= 1
    return pa.table({"doc_id": pa.array(np.sort(ids), type=pa.int64())})


def q_bigram_top20(sf_dir: str):
    """Global word-bigram top-20 over documents.text: Arrow-regex
    tokenize + same-row pairing per batch (functions/vocab.py), shuffle
    moves only per-block distinct-bigram partials."""
    from ..functions.vocab import bigram_frequencies

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return bigram_frequencies(ds, k=20)


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape — three-way join: customer (dimension, filtered to
    one segment, collected once and BROADCAST as a semi-join key set) ⋈
    orders (date-filtered, streamed) ⋈ lineitem (fact, streamed) via ONE
    co-partitioned shuffle on orderkey; revenue per order by
    partial-then-merge; global top-10 with a deterministic tiebreak."""
    from ray.data.aggregate import Max, Sum

    from ..functions.join import broadcast_semi_join, shuffle_hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(
            pa.compute.equal(b["c_mktsegment"], "BUILDING")
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    ckeys = _collect_ids(cust, "c_custkey")["c_custkey"].to_numpy()
    cutoff = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    orders = broadcast_semi_join(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ).map_batches(
            lambda b: (
                lambda f: pa.table(
                    {
                        "o_orderkey": f["o_orderkey"],
                        "o_custkey": f["o_custkey"],
                        "o_date_us": f["o_orderdate"].cast(pa.int64()),
                    }
                )
            )(
                b.filter(
                    pa.compute.less(
                        b["o_orderdate"].cast(pa.int64()), cutoff
                    )
                )
            ),
            batch_format="pyarrow",
        ),
        ckeys,
        "o_custkey",
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_date_us"]),
        batch_format="pyarrow",
    )

    def lines(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ts > cutoff
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].take(
                    pa.array(np.flatnonzero(keep))
                ),
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    ).map_batches(lines, batch_format="pyarrow")

    joined = shuffle_hash_join(
        lineitem, orders, "l_orderkey", "o_orderkey"
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["l_orderkey", "o_date_us_r"]).aggregate(
            [("cents", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "o_date_us": g["o_date_us_r"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(
            Sum("cents", alias_name="revenue_cents"),
            Max("o_date_us", alias_name="o_date_us"),
        )
        .sort(["revenue_cents", "l_orderkey"], descending=[True, False])
        .limit(10)
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "revenue_cents": b["revenue_cents"].cast(pa.int64()),
                "o_date_us": b["o_date_us"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 shape — local-supplier revenue per nation in one region.
    Join plan for 100 TB: region/nation are tiny (driver-read, folded into
    filters); supplier is a dimension (BROADCAST join onto the lineitem
    stream); customer×orders and lineitem×orders are big⋈big, each via the
    co-partitioned shuffle join. The c_nationkey == s_nationkey equality is
    applied as a vectorized post-join filter, then revenue aggregates
    partial-then-merge so the final groupby moves ~nations rows."""
    from ..functions.join import broadcast_hash_join, shuffle_hash_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey", "n_name"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rk = region.filter(pa.compute.equal(region["r_name"], "ASIA"))[
        "r_regionkey"
    ].to_numpy(zero_copy_only=False)
    nat = nation.filter(
        pa.compute.is_in(nation["n_regionkey"], value_set=pa.array(rk))
    )
    nat_keys = np.sort(nat["n_nationkey"].to_numpy(zero_copy_only=False))
    name_by_key = dict(
        zip(
            nat["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nat["n_name"].to_pylist(),
        )
    )

    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pa.compute.is_in(b["c_nationkey"], value_set=pa.array(nat_keys))
        ),
        batch_format="pyarrow",
    )

    def ofilter(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        f = b.take(pa.array(np.flatnonzero(keep)))
        return f.select(["o_orderkey", "o_custkey"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ofilter, batch_format="pyarrow")

    # orders ⋈ customer (big⋈big: one shuffle on custkey) → o_orderkey + cust nation
    ordn = shuffle_hash_join(orders, cust, "o_custkey", "c_custkey").map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "c_nat": b["c_nationkey_r"].cast(pa.int32()),
            }
        ),
        batch_format="pyarrow",
    )

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )

    def lcents(b: pa.Table) -> pa.Table:
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(lcents, batch_format="pyarrow")
    li = broadcast_hash_join(li, supplier, "l_suppkey", "s_suppkey")
    # keep only lineitems whose supplier sits in the target region at all
    li = li.map_batches(
        lambda b: b.filter(
            pa.compute.is_in(
                b["s_nationkey"].cast(pa.int32()),
                value_set=pa.array(nat_keys, type=pa.int32()),
            )
        ).select(["l_orderkey", "s_nationkey", "cents"]),
        batch_format="pyarrow",
    )

    joined = shuffle_hash_join(li, ordn, "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        nk = b["s_nationkey"].cast(pa.int32()).to_numpy(zero_copy_only=False)
        ck = b["c_nat_r"].cast(pa.int32()).to_numpy(zero_copy_only=False)
        keep = nk == ck
        g = pa.table(
            {
                "nationkey": pa.array(nk[keep], type=pa.int32()),
                "cents": b["cents"].take(pa.array(np.flatnonzero(keep))),
            }
        ).group_by(["nationkey"]).aggregate([("cents", "sum")])
        return pa.table(
            {
                "nationkey": g["nationkey"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(Sum("cents", alias_name="revenue_cents"))
    )

    def finish(b: pa.Table) -> pa.Table:
        keys = b["nationkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": pa.array([name_by_key[int(k)] for k in keys]),
                "revenue_cents": b["revenue_cents"].cast(pa.int64()),
            }
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(["revenue_cents", "n_name"], descending=[True, False])
    )


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 shape — small-quantity-order revenue: lineitems of one
    brand's parts whose quantity is under 20% of that part's average.
    The correlated subquery becomes a partial-then-merge per-part
    (sum, count) aggregate whose SMALL result is broadcast back over a
    second streaming lineitem pass; the avg compare is exact integer math
    (qty*5*count < sum — quantities are integer-valued), so the oracle
    matches bit-for-bit with no float-boundary risk."""
    from ..functions.join import broadcast_semi_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    pkeys = np.sort(
        part.filter(pa.compute.equal(part["p_brand"], "Brand#4"))[
            "p_partkey"
        ].to_numpy(zero_copy_only=False)
    )

    def li(columns):
        return broadcast_semi_join(
            ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet", columns=columns
            ),
            pkeys,
            "l_partkey",
        )

    def qty_partial(b: pa.Table) -> pa.Table:
        q = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table(
            {"l_partkey": b["l_partkey"], "q": pa.array(q)}
        ).group_by(["l_partkey"]).aggregate([("q", "sum"), ("q", "count")])
        return pa.table(
            {
                "l_partkey": g["l_partkey"],
                "s": g["q_sum"].cast(pa.int64()),
                "c": g["q_count"].cast(pa.int64()),
            }
        )

    stats = (
        li(["l_partkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
    )
    st = stats.to_pandas()  # one small row per brand part — driver-safe
    sk = np.asarray(st["l_partkey"], dtype=np.int64)
    order = np.argsort(sk)
    sk = sk[order]
    ssum = np.asarray(st["s"], dtype=np.int64)[order]
    scnt = np.asarray(st["c"], dtype=np.int64)[order]
    from ..functions.join import put_broadcast, get_broadcast

    ref = put_broadcast((sk, ssum, scnt))

    def pick(b: pa.Table) -> pa.Table:
        k, s, c = get_broadcast(ref)
        keys = b["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(k, keys)
        np.minimum(idx, max(len(k) - 1, 0), out=idx)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (k[idx] == keys) & (qty * 5 * c[idx] < s[idx])
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(px * 100 + 0.5).astype(np.int64)
        return pa.table(
            {
                "total_cents": pa.array([int(cents.sum())], type=pa.int64()),
                "n_matched": pa.array([int(keep.sum())], type=pa.int64()),
            }
        )

    out = (
        li(["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(pick, batch_format="pyarrow")
        .aggregate(
            Sum("total_cents", alias_name="total_cents"),
            Sum("n_matched", alias_name="n_matched"),
        )
    )
    return pa.table(
        {
            "total_cents": pa.array(
                [int(out["total_cents"] or 0)], type=pa.int64()
            ),
            "n_matched": pa.array(
                [int(out["n_matched"] or 0)], type=pa.int64()
            ),
        }
    )


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 shape — bilateral shipping volume between two nations by
    year. Same join plan family as Q5 (broadcast supplier dim onto the
    lineitem stream, orders⋈customer and lineitem⋈orders each via ONE
    co-partitioned shuffle), with the (supp, cust) nation-pair disjunction
    applied as a vectorized post-join mask and the year extracted by a
    numpy datetime64[Y] truncation. Revenue partials merge on the tiny
    (supp_nation, cust_nation, year) key."""
    from ..functions.join import broadcast_hash_join, shuffle_hash_join

    NK1, NK2 = 3, 7  # NATION_3 x NATION_7 (either direction)
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    name_by_key = dict(
        zip(
            nation["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nation["n_name"].to_pylist(),
        )
    )
    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1998-01-01T00:00:00", "us").astype(np.int64)
    pair = pa.array([NK1, NK2], type=pa.int32())

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pa.compute.is_in(b["c_nationkey"].cast(pa.int32()), value_set=pair)
        ),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    ordn = shuffle_hash_join(orders, cust, "o_custkey", "c_custkey").map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "c_nat": b["c_nationkey_r"].cast(pa.int32()),
            }
        ),
        batch_format="pyarrow",
    )

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )

    def lprep(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        rows = pa.array(np.flatnonzero(keep))
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        yr = (
            ts[keep].astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].take(rows),
                "l_suppkey": b["l_suppkey"].take(rows),
                "l_year": pa.array(yr),
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    ).map_batches(lprep, batch_format="pyarrow")
    li = broadcast_hash_join(li, supplier, "l_suppkey", "s_suppkey")
    li = li.map_batches(
        lambda b: b.filter(
            pa.compute.is_in(b["s_nationkey"].cast(pa.int32()), value_set=pair)
        ).select(["l_orderkey", "l_year", "cents", "s_nationkey"]),
        batch_format="pyarrow",
    )

    joined = shuffle_hash_join(li, ordn, "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        sn = b["s_nationkey"].cast(pa.int32()).to_numpy(zero_copy_only=False)
        cn = b["c_nat_r"].cast(pa.int32()).to_numpy(zero_copy_only=False)
        keep = ((sn == NK1) & (cn == NK2)) | ((sn == NK2) & (cn == NK1))
        rows = pa.array(np.flatnonzero(keep))
        g = pa.table(
            {
                "s_nat": pa.array(sn[keep], type=pa.int32()),
                "c_nat": pa.array(cn[keep], type=pa.int32()),
                "l_year": b["l_year"].take(rows),
                "cents": b["cents"].take(rows),
            }
        ).group_by(["s_nat", "c_nat", "l_year"]).aggregate([("cents", "sum")])
        return pa.table(
            {
                "s_nat": g["s_nat"],
                "c_nat": g["c_nat"],
                "l_year": g["l_year"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["s_nat", "c_nat", "l_year"])
        .aggregate(Sum("cents", alias_name="revenue_cents"))
    )

    def finish(b: pa.Table) -> pa.Table:
        sn = b["s_nat"].to_numpy(zero_copy_only=False)
        cn = b["c_nat"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "supp_nation": pa.array([name_by_key[int(k)] for k in sn]),
                "cust_nation": pa.array([name_by_key[int(k)] for k in cn]),
                "l_year": b["l_year"].cast(pa.int64()),
                "revenue_cents": b["revenue_cents"].cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort(
        ["supp_nation", "cust_nation", "l_year"]
    )


def q_orders_lineitem_full_outer(sf_dir: str):
    """FULL OUTER reconciliation — urgent orders vs late-shipped lineitems
    on orderkey, classified into matched / left-only / right-only counts.
    Drives shuffle_hash_join(how='full'): both sides stream through ONE
    co-partitioned shuffle; unmatched rows of either side survive with
    nulls (key coalesced), and the classification is a tiny per-batch
    partial merged by three sums."""
    from ..functions.join import shuffle_hash_join

    def oproj(b: pa.Table) -> pa.Table:
        keys = b.filter(
            pa.compute.equal(b["o_orderpriority"], "1-URGENT")
        )["o_orderkey"]
        return pa.table(
            {
                "o_orderkey": keys,
                "o_flag": pa.array(np.ones(len(keys), dtype=np.int64)),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(oproj, batch_format="pyarrow")
    cutoff = np.datetime64("2000-01-01T00:00:00", "us").astype(np.int64)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_flag": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            }
        ).filter(
            pa.compute.greater_equal(
                b["l_shipdate"].cast(pa.int64()), cutoff
            )
        ),
        batch_format="pyarrow",
    )
    joined = shuffle_hash_join(orders, li, "o_orderkey", "l_orderkey",
                               how="full")

    def classify(b: pa.Table) -> pa.Table:
        lpres = b["o_flag"].is_valid().to_numpy(zero_copy_only=False)
        rpres = b["l_flag_r"].is_valid().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_matched": pa.array(
                    [int((lpres & rpres).sum())], type=pa.int64()
                ),
                "n_left_only": pa.array(
                    [int((lpres & ~rpres).sum())], type=pa.int64()
                ),
                "n_right_only": pa.array(
                    [int((~lpres & rpres).sum())], type=pa.int64()
                ),
            }
        )

    out = joined.map_batches(classify, batch_format="pyarrow").aggregate(
        Sum("n_matched", alias_name="n_matched"),
        Sum("n_left_only", alias_name="n_left_only"),
        Sum("n_right_only", alias_name="n_right_only"),
    )
    return pa.table(
        {
            "n_matched": pa.array([int(out["n_matched"] or 0)], type=pa.int64()),
            "n_left_only": pa.array(
                [int(out["n_left_only"] or 0)], type=pa.int64()
            ),
            "n_right_only": pa.array(
                [int(out["n_right_only"] or 0)], type=pa.int64()
            ),
        }
    )


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape — top supplier(s) by quarterly revenue: the
    revenue "view" is a partial-then-merge per-supplier aggregate (the
    shuffle moves supplier partials, never lineitems); the scalar MAX and
    the equality filter run over that small result; names come from one
    broadcast join. Ties are all kept, as in the spec."""
    from ..functions.join import broadcast_hash_join

    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1996-04-01T00:00:00", "us").astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        g = pa.table(
            {
                "l_suppkey": b["l_suppkey"].take(
                    pa.array(np.flatnonzero(keep))
                ),
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        ).group_by(["l_suppkey"]).aggregate([("cents", "sum")])
        return pa.table(
            {
                "l_suppkey": g["l_suppkey"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    rev = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                     "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("cents", alias_name="total_revenue_cents"))
    )
    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    joined = broadcast_hash_join(rev, supplier, "l_suppkey", "s_suppkey")
    parts = [
        b
        for b in joined.iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]  # one small row per active supplier — driver-safe
    if not parts:
        return pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "s_name": pa.array([], type=pa.string()),
                "total_revenue_cents": pa.array([], type=pa.int64()),
            }
        )
    t = pa.concat_tables(parts)
    cents = t["total_revenue_cents"].to_numpy(zero_copy_only=False)
    best = int(cents.max()) if len(cents) else 0
    top = t.filter(pa.array(cents == best))
    return pa.table(
        {
            "s_suppkey": top["l_suppkey"].cast(pa.int64()),
            "s_name": top["s_name"],
            "total_revenue_cents": top["total_revenue_cents"].cast(
                pa.int64()
            ),
        }
    )


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape — "global sales opportunity": customers with
    above-average positive balance and NO urgent orders (this synthetic
    corpus gives every customer SOME order, so the spec's "no orders"
    predicate is tightened to keep the result non-trivial), grouped by a
    derived customer-code (last char of c_name standing in for the phone
    country code this schema lacks). Scalar AVG via one streaming
    (sum, count) partial merge in integer cents; urgent-order holders
    removed by the broadcast ANTI-join; final groupby is per-code tiny."""
    from ..functions.join import broadcast_semi_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name",
                                               "c_acctbal"]
    )

    def bal_partial(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["c_acctbal"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        pos = cents[cents > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], type=pa.int64()),
                "n": pa.array([len(pos)], type=pa.int64()),
            }
        )

    agg = cust.map_batches(bal_partial, batch_format="pyarrow").aggregate(
        Sum("s", alias_name="s"), Sum("n", alias_name="n")
    )
    s, n = int(agg["s"] or 0), int(agg["n"] or 0)

    okeys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda b: b.filter(
            pa.compute.equal(b["o_orderpriority"], "1-URGENT")
        ).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    okeys = _collect_ids(okeys, "o_custkey")["o_custkey"].to_numpy()

    def pick(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["c_acctbal"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        # cents > avg  ⇔  cents * n > s  (exact integer compare)
        keep = cents * n > s
        rows = pa.array(np.flatnonzero(keep))
        names = b["c_name"].take(rows)
        return pa.table(
            {
                "c_custkey": b["c_custkey"].take(rows),
                "code": pa.compute.utf8_slice_codeunits(names, -1),
                "cents": pa.array(cents[keep]),
            }
        )

    rich = cust.map_batches(pick, batch_format="pyarrow")
    no_orders = broadcast_semi_join(rich, okeys, "c_custkey", anti=True)

    def code_partial(b: pa.Table) -> pa.Table:
        g = b.select(["code", "cents"]).group_by(["code"]).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return pa.table(
            {
                "code": g["code"],
                "n_cust": g["cents_count"].cast(pa.int64()),
                "total_cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    return (
        no_orders.map_batches(code_partial, batch_format="pyarrow")
        .groupby("code")
        .aggregate(
            Sum("n_cust", alias_name="n_cust"),
            Sum("total_cents", alias_name="total_cents"),
        )
        .sort("code")
        .map_batches(
            lambda b: pa.table(
                {
                    "code": b["code"],
                    "n_cust": b["n_cust"].cast(pa.int64()),
                    "total_cents": b["total_cents"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 shape — minimum-cost supplier, re-keyed to this schema's
    dimensions (no partsupp table): for each EUROPE nation, the customer(s)
    holding that nation's MINIMUM account balance. The correlated min
    subquery becomes a per-nation Min partial-merge whose TINY result is
    broadcast back over a second streaming customer pass; ties survive
    exactly like Q2's multi-supplier minima (tpch/queries/2.sql shape)."""
    from ray.data.aggregate import Min

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_regionkey", "n_name"],
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rk = region.filter(pa.compute.equal(region["r_name"], "EUROPE"))[
        "r_regionkey"
    ].to_numpy(zero_copy_only=False)
    nat = nation.filter(
        pa.compute.is_in(nation["n_regionkey"], value_set=pa.array(rk))
    )
    nat_keys = np.sort(nat["n_nationkey"].to_numpy(zero_copy_only=False))
    name_by_key = dict(
        zip(
            nat["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nat["n_name"].to_pylist(),
        )
    )

    def prep(b: pa.Table) -> pa.Table:
        nk = b["c_nationkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if len(nat_keys) == 0:
            keep = np.zeros(len(nk), dtype=bool)
        else:
            idx = np.searchsorted(nat_keys, nk)
            np.minimum(idx, len(nat_keys) - 1, out=idx)
            keep = nat_keys[idx] == nk
        rows = pa.array(np.flatnonzero(keep))
        cents = np.floor(
            b["c_acctbal"].to_numpy(zero_copy_only=False)[keep] * 100 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "c_nationkey": pa.array(nk[keep], type=pa.int64()),
                "c_name": b["c_name"].take(rows),
                "cents": pa.array(cents),
            }
        )

    def cust():
        return ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_name", "c_nationkey", "c_acctbal"],
        ).map_batches(prep, batch_format="pyarrow")

    def min_partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["c_nationkey", "cents"])
            .group_by(["c_nationkey"])
            .aggregate([("cents", "min")])
        )
        return pa.table(
            {"c_nationkey": g["c_nationkey"], "m": g["cents_min"].cast(pa.int64())}
        )

    mins = (
        cust()
        .map_batches(min_partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(Min("m", alias_name="m"))
        .to_pandas()  # ≤ nations rows
    )
    mkeys = mins["c_nationkey"].to_numpy(dtype=np.int64)
    order = np.argsort(mkeys)
    mkeys, mvals = mkeys[order], mins["m"].to_numpy(dtype=np.int64)[order]

    def pick(b: pa.Table) -> pa.Table:
        nk = b["c_nationkey"].to_numpy(zero_copy_only=False)
        cents = b["cents"].to_numpy(zero_copy_only=False)
        if len(mkeys) == 0:
            keep = np.zeros(len(nk), dtype=bool)
        else:
            idx = np.searchsorted(mkeys, nk)
            np.minimum(idx, len(mkeys) - 1, out=idx)
            keep = (mkeys[idx] == nk) & (cents == mvals[idx])
        rows = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "n_name": pa.array(
                    [name_by_key[int(k)] for k in nk[keep]], type=pa.string()
                ),
                "c_name": b["c_name"].take(rows),
                "acctbal_cents": pa.array(cents[keep]),
            }
        )

    return cust().map_batches(pick, batch_format="pyarrow").sort(
        ["acctbal_cents", "n_name", "c_name"]
    )


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 shape — national market share: of all PROMO-part revenue
    sold to AMERICA-region customers in 1996-1997, the share supplied by
    NATION_3, by order year. Exact integer output (nation_cents,
    total_cents, share_milli = nation*1000 // total) so the oracle matches
    bit-for-bit. Plan: PROMO partkeys broadcast-semi onto the lineitem
    stream, supplier dim broadcast for the numerator flag, orders⋈customer
    and lineitem⋈orders each via ONE co-partitioned shuffle, then (year)
    partials merge tiny (tpch/queries/8.sql shape)."""
    from ..functions.join import (
        broadcast_hash_join,
        broadcast_semi_join,
        shuffle_hash_join,
    )

    NK = 3  # numerator nation (NATION_3)
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rk = region.filter(pa.compute.equal(region["r_name"], "AMERICA"))[
        "r_regionkey"
    ].to_numpy(zero_copy_only=False)
    nat_keys = np.sort(
        nation.filter(
            pa.compute.is_in(nation["n_regionkey"], value_set=pa.array(rk))
        )["n_nationkey"].to_numpy(zero_copy_only=False)
    )
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    pkeys = np.sort(
        part.filter(pa.compute.equal(part["p_type"], "PROMO"))[
            "p_partkey"
        ].to_numpy(zero_copy_only=False)
    )
    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1998-01-01T00:00:00", "us").astype(np.int64)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pa.compute.is_in(
                b["c_nationkey"].cast(pa.int64()),
                value_set=pa.array(nat_keys, type=pa.int64()),
            )
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    def ofilter(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        rows = pa.array(np.flatnonzero(keep))
        yr = (
            ts[keep].astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"].take(rows),
                "o_custkey": b["o_custkey"].take(rows),
                "o_year": pa.array(yr),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ofilter, batch_format="pyarrow")
    ordy = shuffle_hash_join(orders, cust, "o_custkey", "c_custkey").map_batches(
        lambda b: b.select(["o_orderkey", "o_year"]), batch_format="pyarrow"
    )

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )

    def lcents(b: pa.Table) -> pa.Table:
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    li = broadcast_semi_join(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_partkey", "l_suppkey",
                     "l_extendedprice", "l_discount"],
        ),
        pkeys,
        "l_partkey",
    ).map_batches(lcents, batch_format="pyarrow")
    li = broadcast_hash_join(li, supplier, "l_suppkey", "s_suppkey")
    joined = shuffle_hash_join(li, ordy, "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        cents = b["cents"].to_numpy(zero_copy_only=False)
        is_nk = (
            b["s_nationkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            == NK
        )
        g = pa.table(
            {
                "o_year": b["o_year_r"].cast(pa.int64()),
                "nc": pa.array(np.where(is_nk, cents, 0)),
                "tc": pa.array(cents),
            }
        ).group_by(["o_year"]).aggregate([("nc", "sum"), ("tc", "sum")])
        return pa.table(
            {
                "o_year": g["o_year"],
                "nc": g["nc_sum"].cast(pa.int64()),
                "tc": g["tc_sum"].cast(pa.int64()),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(Sum("nc", alias_name="nc"), Sum("tc", alias_name="tc"))
    )

    def finish(b: pa.Table) -> pa.Table:
        nc = b["nc"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        tc = b["tc"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_year": b["o_year"].cast(pa.int64()),
                "nation_cents": pa.array(nc),
                "total_cents": pa.array(tc),
                "share_milli": pa.array(nc * 1000 // np.maximum(tc, 1)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 shape — product-line profit by supplier nation and year for
    parts whose name contains 'widget'. This schema has no
    partsupp.ps_supplycost, so unit cost is the part's retail price
    (profit_cents = revenue_cents − retail_cents×qty — same join/aggregate
    shape, exact integer math). part and supplier are broadcast dims on
    the lineitem stream; the single big⋈big (lineitem⋈orders, for the
    order year) is the co-partitioned shuffle; (nation, year) partials
    merge tiny (tpch/queries/9.sql shape)."""
    from ..functions.join import broadcast_hash_join, shuffle_hash_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    name_by_key = dict(
        zip(
            nation["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nation["n_name"].to_pylist(),
        )
    )
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name",
                                           "p_retailprice"]
    )
    part = part.filter(
        pa.compute.match_substring(part["p_name"], "widget")
    )
    part = pa.table(
        {
            "p_partkey": part["p_partkey"],
            "cost_cents": pa.array(
                np.floor(
                    part["p_retailprice"].to_numpy(zero_copy_only=False) * 100
                    + 0.5
                ).astype(np.int64)
            ),
        }
    )
    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    li = broadcast_hash_join(li, part, "l_partkey", "p_partkey")
    li = broadcast_hash_join(li, supplier, "l_suppkey", "s_suppkey")

    def lprofit(b: pa.Table) -> pa.Table:
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = np.floor(
            b["l_quantity"].to_numpy(zero_copy_only=False) + 0.5
        ).astype(np.int64)
        rev = np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
        cost = b["cost_cents"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "nationkey": b["s_nationkey"].cast(pa.int64()),
                "profit_cents": pa.array(rev - cost * qty),
            }
        )

    li = li.map_batches(lprofit, batch_format="pyarrow")

    def oyear(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        yr = (
            ts.astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table({"o_orderkey": b["o_orderkey"], "o_year": pa.array(yr)})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(oyear, batch_format="pyarrow")
    joined = shuffle_hash_join(li, orders, "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "nationkey": b["nationkey"],
                "o_year": b["o_year_r"].cast(pa.int64()),
                "profit_cents": b["profit_cents"],
            }
        ).group_by(["nationkey", "o_year"]).aggregate([("profit_cents", "sum")])
        return pa.table(
            {
                "nationkey": g["nationkey"],
                "o_year": g["o_year"],
                "profit_cents": g["profit_cents_sum"].cast(pa.int64()),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["nationkey", "o_year"])
        .aggregate(Sum("profit_cents", alias_name="profit_cents"))
    )

    def finish(b: pa.Table) -> pa.Table:
        keys = b["nationkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": pa.array(
                    [name_by_key[int(k)] for k in keys], type=pa.string()
                ),
                "o_year": b["o_year"].cast(pa.int64()),
                "profit_cents": b["profit_cents"].cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort(
        ["n_name", "o_year"], descending=[False, True]
    )


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 shape — "important stock": parts whose revenue exceeds
    1.2× the average per-part revenue (Q11's size-scaled fraction made
    scale-FREE, so the cut stays non-trivial at any corpus size). No
    partsupp in this schema, so the value measure is lineitem revenue per
    part — identical shape: per-key partial-merge sums, SCALAR total and
    part count taken from one more aggregate over the SAME merged result
    (never a second corpus pass), broadcast compare in exact integers,
    ordered output. The merged per-part table is parts-sized, materialized
    once to serve the scalars AND the filter (tpch/queries/11.sql shape)."""

    def partial(b: pa.Table) -> pa.Table:
        px = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        g = pa.table(
            {
                "p_partkey": b["l_partkey"].cast(pa.int64()),
                "cents": pa.array(
                    np.floor(px * (1 - disc) * 100 + 0.5).astype(np.int64)
                ),
            }
        ).group_by(["p_partkey"]).aggregate([("cents", "sum")])
        return pa.table(
            {"p_partkey": g["p_partkey"], "cents": g["cents_sum"].cast(pa.int64())}
        )

    agg = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("cents", alias_name="value_cents"))
        .materialize()  # parts-sized, reused for the total AND the filter
    )
    stat = agg.aggregate(
        Sum("value_cents", alias_name="t"), Count(alias_name="n")
    )
    tot, npart = int(stat["t"] or 0), int(stat["n"] or 0)

    def pick(b: pa.Table) -> pa.Table:
        v = b["value_cents"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # value > 1.2 x (total / n_parts), exact integers
        keep = v * npart * 10 > 12 * tot
        rows = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "p_partkey": b["p_partkey"].take(rows).cast(pa.int64()),
                "value_cents": pa.array(v[keep]),
            }
        )

    return agg.map_batches(pick, batch_format="pyarrow").sort(
        ["value_cents", "p_partkey"], descending=[True, False]
    )


def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shape — shipping-priority audit: per return-flag (this
    schema's stand-in for l_shipmode) counts of critical-priority
    (1-URGENT/2-HIGH) vs other orders among 1996 shipments. ONE
    co-partitioned shuffle joins the filtered lineitem stream to orders;
    the two-bucket conditional aggregate partials merge on the tiny flag
    key (tpch/queries/12.sql shape)."""
    from ..functions.join import shuffle_hash_join

    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    def lfilter(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        rows = pa.array(np.flatnonzero((ts >= lo) & (ts < hi)))
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].take(rows),
                "l_returnflag": b["l_returnflag"].take(rows),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    ).map_batches(lfilter, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    joined = shuffle_hash_join(li, orders, "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        crit = pa.compute.is_in(
            b["o_orderpriority_r"],
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        ).to_numpy(zero_copy_only=False)
        g = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "high": pa.array(crit.astype(np.int64)),
                "low": pa.array((~crit).astype(np.int64)),
            }
        ).group_by(["l_returnflag"]).aggregate([("high", "sum"), ("low", "sum")])
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "high": g["high_sum"].cast(pa.int64()),
                "low": g["low_sum"].cast(pa.int64()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(
            Sum("high", alias_name="high_line_count"),
            Sum("low", alias_name="low_line_count"),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "l_returnflag": b["l_returnflag"],
                    "high_line_count": b["high_line_count"].cast(pa.int64()),
                    "low_line_count": b["low_line_count"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort("l_returnflag")
    )


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 shape — suppliers with excess availability of a target
    part class: suppliers whose 1996 shipped quantity of PROMO-type parts
    exceeds 20% of their total 1996 shipped quantity (the partsupp
    availability subquery re-keyed to shipments). ONE lineitem pass
    builds per-supplier (promo_qty, total_qty) partials with the PROMO
    partkey set broadcast via ray.put; the tiny merged result yields the
    qualifying key set, broadcast-semi-joined back onto the supplier
    dimension stream with the nation name attached
    (tpch/queries/20.sql shape)."""
    from ..functions.join import (
        broadcast_semi_join,
        get_broadcast,
        put_broadcast,
    )

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    pkeys_ref = put_broadcast(
        np.sort(
            part.filter(pa.compute.equal(part["p_type"], "PROMO"))[
                "p_partkey"
            ].to_numpy(zero_copy_only=False)
        )
    )
    lo = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)
    hi = np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        pk = get_broadcast(pkeys_ref)
        ts = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ts >= lo) & (ts < hi)
        qty = np.floor(
            b["l_quantity"].to_numpy(zero_copy_only=False)[keep] + 0.5
        ).astype(np.int64)
        lpk = b["l_partkey"].to_numpy(zero_copy_only=False)[keep]
        if len(pk):
            idx = np.searchsorted(pk, lpk)
            np.minimum(idx, len(pk) - 1, out=idx)
            promo = pk[idx] == lpk
        else:
            promo = np.zeros(len(lpk), dtype=bool)
        g = pa.table(
            {
                "l_suppkey": pa.array(
                    b["l_suppkey"].to_numpy(zero_copy_only=False)[keep],
                    type=pa.int64(),
                ),
                "tq": pa.array(qty),
                "pq": pa.array(np.where(promo, qty, 0)),
            }
        ).group_by(["l_suppkey"]).aggregate([("tq", "sum"), ("pq", "sum")])
        return pa.table(
            {
                "l_suppkey": g["l_suppkey"],
                "tq": g["tq_sum"].cast(pa.int64()),
                "pq": g["pq_sum"].cast(pa.int64()),
            }
        )

    agg = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("tq", alias_name="tq"), Sum("pq", alias_name="pq"))
    )
    qual = []
    for b in agg.iter_batches(batch_size=65536, batch_format="pyarrow"):
        tq = b["tq"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        pq_ = b["pq"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sk = b["l_suppkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        qual.append(sk[pq_ * 5 > tq])  # promo share > 20%, exact integers
    qual = np.concatenate(qual) if qual else np.array([], dtype=np.int64)

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    name_by_key = dict(
        zip(
            nation["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nation["n_name"].to_pylist(),
        )
    )
    supp = broadcast_semi_join(
        ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey", "s_name", "s_nationkey"],
        ),
        qual,
        "s_suppkey",
    )

    def finish(b: pa.Table) -> pa.Table:
        nk = b["s_nationkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_name": b["s_name"],
                "n_name": pa.array(
                    [name_by_key[int(k)] for k in nk], type=pa.string()
                ),
            }
        )

    return supp.map_batches(finish, batch_format="pyarrow").sort("s_name")


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 shape — suppliers who kept finished orders waiting: on
    'F' orders involving ≥2 distinct suppliers, the supplier who was
    STRICTLY last to ship (unique max shipdate — the exists/not-exists
    pair over sibling lineitems, re-keyed to l_shipdate since this schema
    has no commit/receipt dates). Plan: per-batch (order, supplier)
    Max-shipdate partials shrink the stream to near-distinct pairs; the
    pair stream and the F-order keys project onto ONE unified schema and
    union, so a SINGLE hash shuffle co-locates each order's pairs with
    its status marker; the per-order unique-argmax is a vectorized
    lexsort+reduceat kernel per bucket;
    per-supplier counts merge tiny and the top 10 attach names from the
    broadcast supplier dim (tpch/queries/21.sql shape)."""
    BUCKET = "__q21_bucket__"
    N_BUCKETS = 32

    def pair_partial(b: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "ok": b["l_orderkey"].cast(pa.int64()),
                "sk": b["l_suppkey"].cast(pa.int64()),
                "ship": b["l_shipdate"].cast(pa.int64()),
            }
        ).group_by(["ok", "sk"]).aggregate([("ship", "max")])
        ok = g["ok"].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (
                ok.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ) >> np.uint64(32)
        return pa.table(
            {
                "ok": g["ok"],
                "sk": g["sk"],
                "ship": g["ship_max"].cast(pa.int64()),
                BUCKET: pa.array((h % np.uint64(N_BUCKETS)).astype(np.int64)),
            }
        )

    pairs = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(pair_partial, batch_format="pyarrow")

    def fmark(b: pa.Table) -> pa.Table:
        f = b.filter(pa.compute.equal(b["o_orderstatus"], "F"))
        ok = f["o_orderkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (
                ok.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ) >> np.uint64(32)
        return pa.table(
            {
                "ok": pa.array(ok, type=pa.int64()),
                "sk": pa.array(
                    np.full(len(ok), -1, dtype=np.int64)
                ),  # status marker rows
                "ship": pa.array(np.zeros(len(ok), dtype=np.int64)),
                BUCKET: pa.array((h % np.uint64(N_BUCKETS)).astype(np.int64)),
            }
        )

    forders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(fmark, batch_format="pyarrow")

    def kernel(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        ok = g["ok"].to_numpy(zero_copy_only=False)
        sk = g["sk"].to_numpy(zero_copy_only=False)
        ship = g["ship"].to_numpy(zero_copy_only=False)
        # keep only orders that carry an 'F' status marker (sk == -1)
        fset = np.unique(ok[sk == -1])
        if len(fset) == 0:
            return empty
        idx = np.searchsorted(fset, ok)
        np.minimum(idx, len(fset) - 1, out=idx)
        keep = (fset[idx] == ok) & (sk >= 0)
        ok, sk, ship = ok[keep], sk[keep], ship[keep]
        if len(ok) == 0:
            return empty
        # fold cross-block partials: per (order, supplier) max shipdate
        order = np.lexsort((sk, ok))
        ok, sk, ship = ok[order], sk[order], ship[order]
        new = np.r_[True, (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])]
        starts = np.flatnonzero(new)
        pm = np.maximum.reduceat(ship, starts)
        pok, psk = ok[starts], sk[starts]
        # per-order: distinct suppliers, max, and count at max
        onew = np.r_[True, pok[1:] != pok[:-1]]
        ostarts = np.flatnonzero(onew)
        ns = np.diff(np.r_[ostarts, len(pok)])
        om = np.maximum.reduceat(pm, ostarts)
        seg = np.repeat(np.arange(len(ostarts)), ns)
        atmax = pm == om[seg]
        nmax = np.add.reduceat(atmax.astype(np.int64), ostarts)
        blocked = (ns >= 2) & (nmax == 1)
        waiters = psk[atmax & blocked[seg]]
        if len(waiters) == 0:
            return empty
        uniq, cnt = np.unique(waiters, return_counts=True)
        return pa.table(
            {
                "s_suppkey": pa.array(uniq, type=pa.int64()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = (
        pairs.union(forders)
        .groupby(BUCKET)
        .map_groups(kernel, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("n", alias_name="numwait"))
    )

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    name_by_key = dict(
        zip(
            supplier["s_suppkey"].to_numpy(zero_copy_only=False).tolist(),
            supplier["s_name"].to_pylist(),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        keys = b["s_suppkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_name": pa.array(
                    [name_by_key[int(k)] for k in keys], type=pa.string()
                ),
                "numwait": b["numwait"].cast(pa.int64()),
            }
        )

    return (
        counts.map_batches(finish, batch_format="pyarrow")
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(10)
    )


def q_roundtrip_embeddings(sf_dir: str):
    """Float-column coverage: the embeddings vectors (list<float32>, which
    rides the int32 codec engine as a bit view) through encode auto →
    decode, asserted bit-identical per batch (a mismatch raises). Gaussian
    float bits are near-incompressible: the point is the engine's
    column-type reach and exact round-trip, not ratio."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def rt(b: pa.Table) -> pa.Table:
        _columnar_verify_batch(b)
        return pa.table({"n": pa.array([b.num_rows], type=pa.int64())})

    n = int(ds.map_batches(rt, batch_format="pyarrow").sum("n") or 0)
    return pa.table(
        {
            "match": pa.array([n > 0]),
            "n_vecs": pa.array([n], type=pa.int64()),
        }
    )


def q_like_multiscan(sf_dir: str):
    """Multi-pattern LIKE in ONE corpus pass: each encoded batch runs one
    compressed-domain ``like_scan_mask`` per pattern, and its doc_id
    column decodes once for all of them — one (pattern, doc_id) row per
    match. Oracle: UNION ALL of tagged single-pattern LIKEs."""
    PATTERNS = ["%merge sort%", "%fast key%", "%window window%"]

    def scan(b: pa.Table) -> pa.Table:
        ids = decode_column(b, "doc_id").combine_chunks()
        masks = [like_scan_mask(b, "text", p) for p in PATTERNS]
        return pa.table(
            {
                "pattern": pa.array(
                    [p for p, m in zip(PATTERNS, masks) for _ in range(m.sum())],
                    type=pa.string(),
                ),
                "doc_id": pa.concat_arrays(
                    [ids.filter(pa.array(m)) for m in masks]
                ),
            }
        )

    return _encoded_docs(sf_dir).map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True
    )


def q_source_top_terms(sf_dir: str):
    """Characteristic terms per source — TF-over-DF ranking in EXACT
    integer math (score = tf·10^6 // df, no float log to drift between
    engines): per-batch (source, word) count partials merge in one
    vocabulary-bounded groupby; document frequencies come from the same
    distinct table; df attaches via a broadcast join (df table is
    |vocab|-sized); top-3 per source by (score desc, word asc)."""
    from ..functions.join import broadcast_hash_join
    from ..functions.vocab import tokenize_rows

    docs = _docs(sf_dir, ("doc_id", "text", "source"))

    def tf_partial(b: pa.Table) -> pa.Table:
        values, row_ids, keep = tokenize_rows(b)
        toks = values.filter(pa.array(keep))
        src = b["source"].take(pa.array(row_ids[keep]))
        g = pa.table({"source": src, "word": toks}).group_by(
            ["source", "word"]
        ).aggregate([("word", "count")])
        return pa.table(
            {
                "source": g["source"],
                "word": g["word"],
                "tf": g["word_count"].cast(pa.int64()),
            }
        )

    tfs = (
        docs.map_batches(tf_partial, batch_format="pyarrow")
        .groupby(["source", "word"])
        .aggregate(Sum("tf", alias_name="tf"))
        .materialize()  # consumed TWICE (df derivation + join leg) —
        # without this Ray re-runs the tokenize+shuffle stage per consumer
    )
    # document frequency: tfs is already distinct per (source, word)
    df_parts = [
        b
        for b in tfs.groupby("word")
        .aggregate(Count(alias_name="df"))
        .iter_batches(batch_size=65536, batch_format="pyarrow")
        if b.num_rows
    ]
    if not df_parts:
        return pa.table(
            {
                "source": pa.array([], type=pa.string()),
                "word": pa.array([], type=pa.string()),
                "score": pa.array([], type=pa.int64()),
            }
        )
    df_tbl = pa.concat_tables(df_parts).combine_chunks()  # |vocab| rows
    scored = broadcast_hash_join(tfs, df_tbl, "word", "word").map_batches(
        lambda b: pa.table(
            {
                "source": b["source"],
                "word": b["word"],
                "score": pa.array(
                    b["tf"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                    * 1_000_000
                    // b["df"].cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    )
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def top3(g: pa.Table) -> pa.Table:
        idx = pa.compute.sort_indices(
            g,
            sort_keys=[("score", "descending"), ("word", "ascending")],
        )
        return g.take(idx[:3])

    return (
        scored.groupby("source")
        .map_groups(top3, batch_format="pyarrow")
        .sort(["source", "score", "word"], descending=[False, True, False])
    )


def q_profile_orders(sf_dir: str):
    """Profile the orders table (functions/profile.py): per column, row
    count / null count / EXACT distinct count / integer min-max, from one
    streaming pass whose shuffles move only per-column counters and
    distinct-value partials."""
    from ..functions.profile import profile_table

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet")
    return profile_table(ds, int_cols=["o_orderkey", "o_custkey"])


def q_docs_repetition(sf_dir: str):
    """Per-document duplicate-bigram repetition signal (Gopher-style
    quality filter): total / distinct word-bigram counts and integer
    per-mille repetition. Embarrassingly parallel map_batches — each doc
    is one row, the per-(row, bigram) counting is one Arrow C++ group_by
    per batch, nothing shuffles."""
    from ..functions.vocab import doc_repetition_stats

    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        doc_repetition_stats, batch_format="pyarrow"
    )


# ----------------------------------------------------------------- registry
# ------------------------------------------------- token-domain training prep
TRUNC_LEN = 64
VOCAB_TOPK = 16


def q_tokens_truncate_pad(sf_dir: str):
    """Static-shape trainer batches: clip at TRUNC_LEN, right-pad with 0.
    One streaming map_batches pass; flat-buffer NumPy, no per-row Python."""
    from ..functions import tokenops as T

    ds = _tokens_ds(sf_dir).map_batches(
        lambda b: T.truncate_pad_batch(b, TRUNC_LEN, pad_id=0),
        batch_format="pyarrow",
    )
    return ds.map_batches(tok_str_batch, batch_format="pyarrow")


WIN_LEN = 48
WIN_STRIDE = 32


def q_tokens_sliding_windows(sf_dir: str):
    """LM context-window slicing: every document expands to windows at
    starts 0, stride, 2·stride, … (tail window short) — the
    fixed-context pretraining cut. Row-expanding map_batches, one
    flat-buffer gather per batch, no per-row Python."""
    from ..functions import tokenops as T

    ds = _tokens_ds(sf_dir).map_batches(
        lambda b: T.sliding_windows_batch(b, WIN_LEN, WIN_STRIDE),
        batch_format="pyarrow",
    )
    return ds.map_batches(
        lambda b: tok_str_batch(b).append_column(
            "win_idx", b["win_idx"].cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


def q_tokens_shift_labels(sf_dir: str):
    """Next-token labels (the LM loss target): labels[i] = tokens[i+1],
    final position masked with -100."""
    from ..functions import tokenops as T
    import pyarrow.compute as pc

    ds = _tokens_ds(sf_dir).map_batches(
        T.shift_labels_batch, batch_format="pyarrow"
    )

    def fmt(b: pa.Table) -> pa.Table:
        labs = b["labels"]
        if isinstance(labs, pa.ChunkedArray):
            labs = labs.combine_chunks()
        s = pc.binary_join(labs.cast(pa.list_(pa.string())), ",")
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tok": b["n_tok"].cast(pa.int64()),
                "lab_str": s.cast(pa.string()),
            }
        )

    return ds.map_batches(fmt, batch_format="pyarrow")


def q_tokens_vocab_remap(sf_dir: str):
    """Vocabulary pruning: global top-K token ids via per-batch bincount
    partials (tiny groupby), broadcast keep-set, OOV → -1 in one remap pass."""
    from ..functions import tokenops as T

    keep = T.vocab_topk(
        _tokens_ds(sf_dir).select_columns(["tokens"]), VOCAB_TOPK
    )
    keep_ref = ray.put(keep)

    def remap(b: pa.Table) -> pa.Table:
        return T.remap_oov_batch(b, ray.get(keep_ref), unk_id=-1)

    ds = _tokens_ds(sf_dir).map_batches(remap, batch_format="pyarrow")
    return ds.map_batches(tok_str_batch, batch_format="pyarrow")


DUP_NGRAM_N = 3


def q_tokens_dispersion(sf_dir: str):
    """Per-document token-distribution stats as exact integers (distinct
    count, Σcount² Simpson numerator, mode frequency) — the diversity
    signal quality filters threshold on, hash-stable unlike float
    entropy. One streaming map_batches; composite-key np.unique per
    batch, no per-row Python."""
    from ..functions import tokenops as T

    return _tokens_ds(sf_dir).map_batches(
        T.dispersion_batch, batch_format="pyarrow"
    )


def q_tokens_dup_ngrams(sf_dir: str):
    """Within-document n-gram repetition (token-domain repetition filter):
    per doc, total vs DISTINCT 3-gram starts — the duplicated-gram mass.
    Exact packed-int grams, one lexsort per batch."""
    from ..functions import tokenops as T

    return _tokens_ds(sf_dir).map_batches(
        lambda b: T.dup_ngram_batch(b, DUP_NGRAM_N),
        batch_format="pyarrow",
    )


def q_tokens_span_corrupt(sf_dir: str):
    """T5-style span corruption with a deterministic (SQL-reproducible)
    mask: encoder input with per-doc sentinels -1,-2,… over masked spans;
    decoder target = sentinel + original span tokens. Flat-buffer
    scatter/gather, streaming."""
    from ..functions import tokenops as T
    import pyarrow.compute as pc

    ds = _tokens_ds(sf_dir).map_batches(
        T.span_corrupt_batch, batch_format="pyarrow"
    )

    def fmt(b: pa.Table) -> pa.Table:
        def joined(col: str):
            c = b[col]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            return pc.binary_join(
                c.cast(pa.list_(pa.string())), ","
            ).cast(pa.string())

        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tok": b["n_tok"],
                "n_spans": b["n_spans"],
                "input_str": joined("inputs"),
                "target_str": joined("targets"),
            }
        )

    return ds.map_batches(fmt, batch_format="pyarrow")


# quality-filter thresholds, all-integer (no floats to hash): keep
# 5 ≤ n_tok ≤ 10000, an absolute distinct-token floor (a doc drawing on a
# degenerate alphabet is boilerplate regardless of length), and
# duplicated-3-gram mass ≤ 6/10 via cross-multiplication
QF_MIN_TOK, QF_MAX_TOK = 5, 10000
QF_MIN_DISTINCT = 18
QF_DUP_NUM, QF_DUP_DEN = 6, 10


def quality_keep_mask(b: pa.Table) -> tuple:
    """The composite quality predicate over one tokens batch: length
    window + distinct-token floor + duplicated-3-gram ceiling, all
    integer comparisons. Returns (ok bool array, n_tok, n_distinct,
    n_dup_grams) so callers either report the signals or just filter."""
    from ..functions import tokenops as T
    from ..buffers import list_buffers

    values, offsets = list_buffers(b["tokens"])
    n_tok = np.diff(offsets)
    n_distinct, _, _ = T.dispersion(values, offsets)
    n_grams, n_uniq_grams = T.dup_ngram_stats(values, offsets, DUP_NGRAM_N)
    ok = (
        (n_tok >= QF_MIN_TOK)
        & (n_tok <= QF_MAX_TOK)
        & (n_distinct >= QF_MIN_DISTINCT)
        & ((n_grams - n_uniq_grams) * QF_DUP_DEN <= n_grams * QF_DUP_NUM)
    )
    return ok, n_tok, n_distinct, n_grams - n_uniq_grams


def q_docs_quality_filter_tokens(sf_dir: str):
    """Composite token-domain quality filter — the pass every web corpus
    runs before training: length window + diversity floor (distinct/total
    tokens) + repetition ceiling (duplicated 3-gram mass). Both signals
    come from ONE map_batches over the same flat buffers (no join, no
    second scan); thresholds compare via integer cross-multiplication so
    the oracle hashes exactly."""

    def keep(b: pa.Table) -> pa.Table:
        ok, n_tok, n_distinct, n_dup = quality_keep_mask(b)
        mask = pa.array(ok)
        return pa.table(
            {
                "doc_id": b["doc_id"].filter(mask)
                if not isinstance(b["doc_id"], pa.ChunkedArray)
                else b["doc_id"].combine_chunks().filter(mask),
                "n_tok": pa.array(n_tok[ok], type=pa.int64()),
                "n_distinct": pa.array(n_distinct[ok], type=pa.int64()),
                "n_dup_grams": pa.array(n_dup[ok], type=pa.int64()),
            }
        )

    return _tokens_ds(sf_dir).map_batches(keep, batch_format="pyarrow")


def q_ingest_text(sf_dir: str):
    """Source-format coverage, raw-line twin of ``ingest_jsonl`` (the
    reference ingests newline-delimited text corpora — sketch.cc's line
    reader): newline-free documents exported as tab-framed lines across
    4 .txt shards, re-ingested with ray.data.read_text, fields split
    back vectorized (split_pattern max_splits=2 — document text may
    itself contain tabs). Docs whose text embeds a newline can't live in
    a line-oriented format and are excluded on BOTH sides."""
    import pyarrow.compute as pc

    scratch = os.path.join(
        "/tmp", f"fsst_text_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    clean = pc.invert(
        pc.or_(
            pc.match_substring(docs["text"], "\n"),
            pc.match_substring(docs["text"], "\r"),
        )
    )
    docs = docs.filter(clean)
    files = []
    for i in range(4):
        part = docs.slice(i * len(docs) // 4).slice(
            0, (i + 1) * len(docs) // 4 - i * len(docs) // 4
        )
        p = os.path.join(scratch, f"part{i}.txt")
        lines = [
            f"{d}\t{s}\t{t}"
            for d, s, t in zip(
                part["doc_id"].to_pylist(),
                part["source"].to_pylist(),
                part["text"].to_pylist(),
            )
        ]
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        files.append(p)
    ds = ray.data.read_text(files, drop_empty_lines=True)

    def parse(b: pa.Table) -> pa.Table:
        parts = pc.split_pattern(b["text"], "\t", max_splits=2)
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        return pa.table(
            {
                "doc_id": pc.list_element(parts, 0).cast(pa.int64()),
                "source": pc.list_element(parts, 1),
                "n_chars": pc.utf8_length(
                    pc.list_element(parts, 2)
                ).cast(pa.int64()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def q_tokens_fim(sf_dir: str):
    """Fill-in-the-middle rearrangement (code-LM pretraining transform):
    deterministic split points from (doc_id, length) so the SQL oracle
    reproduces the PSM layout [-1] prefix [-2] suffix [-3] middle
    bit-for-bit. One flat-buffer segment scatter per batch."""
    from ..functions import tokenops as T
    import pyarrow.compute as pc

    ds = _tokens_ds(sf_dir).map_batches(T.fim_batch, batch_format="pyarrow")

    def fmt(b: pa.Table) -> pa.Table:
        c = b["fim"]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tok": b["n_tok"],
                "fim_str": pc.binary_join(
                    c.cast(pa.list_(pa.string())), ","
                ).cast(pa.string()),
            }
        )

    return ds.map_batches(fmt, batch_format="pyarrow")


def q_token_bigram_top20(sf_dir: str):
    """Corpus-wide adjacent token-pair counts (per-batch unique partials →
    one small shuffle keyed by pair), top 20 by (count desc, pair asc)."""
    from ..functions import tokenops as T

    return T.bigram_topk(_tokens_ds(sf_dir).select_columns(["tokens"]), 20)


COMPRESS_FLAG_RATIO = 0.2
REPETITIVE_PLANT_TEXT = "a" * 800
COMPRESS_SIG_STATE_TOKENS = 1024


def _chunk_bounds(offsets: np.ndarray, max_tokens: int | None) -> np.ndarray:
    """Row boundaries so each chunk carries ≤ max_tokens (≥1 row per chunk) —
    the intra-batch skew guard: a giant document gets its own codec state
    instead of blowing up a shared one (SURVEY.md §7.4 "skew")."""
    n = len(offsets) - 1
    if max_tokens is None or offsets[-1] - offsets[0] <= max_tokens:
        return np.array([0, n], dtype=np.int64)
    bounds = [0]
    start = 0
    while start < n:
        limit = offsets[start] + max_tokens
        end = int(np.searchsorted(offsets, limit, side="right")) - 1
        end = min(max(end, start + 1), n)
        bounds.append(end)
        start = end
    return np.array(bounds, dtype=np.int64)


def q_docs_compressibility_gate(sf_dir: str):
    """Compressed-domain quality signal: per-doc compressibility under the
    auto selector (encoded payload bytes / token count, codec state scoped
    to ~1k-token chunks so a degenerate row trains its own state) flags
    repetitive boilerplate — computed from the SAME encode pass the
    storage pipeline already runs (no extra scan at corpus scale). Gate:
    planted 'a'*800 docs must flag below COMPRESS_FLAG_RATIO (RLE packs
    them to ~0.005 B/token vs ~0.6 for natural text under per-chunk
    states), and under 20 % of the original corpus may flag. Each chunk
    of ≤ COMPRESS_SIG_STATE_TOKENS tokens encodes as its own columnar
    block; a row's bytes are its ``tokens__payload`` length."""
    from ..buffers import list_buffers
    from .columnar import _payload_buffers, encode_columns_batch

    ds = _docs(sf_dir, ("doc_id", "text"))

    def ratios(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        n_plant = int((ids < PLANT_N).sum())
        planted = pa.table(
            {
                "doc_id": pa.array(
                    ids[ids < PLANT_N] + PLANT_OFFSET, type=pa.int64()
                ),
                "text": pa.array(
                    [REPETITIVE_PLANT_TEXT] * n_plant, type=pa.string()
                ),
                "source": pa.array(["plant"] * n_plant, type=pa.string()),
            }
        )
        full = pa.concat_tables(
            [
                pa.table(
                    {
                        "doc_id": b["doc_id"].cast(pa.int64()),
                        "text": b["text"].cast(pa.string()),
                        "source": pa.array(
                            ["orig"] * b.num_rows, type=pa.string()
                        ),
                    }
                ),
                planted,
            ]
        )
        tok = to_tokens_batch(full)
        off = list_buffers(tok["tokens"])[1]
        bounds = _chunk_bounds(off, COMPRESS_SIG_STATE_TOKENS).tolist()
        nb = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            enc = encode_columns_batch(tok.select(["tokens"]).slice(lo, hi - lo))
            nb.append(np.diff(_payload_buffers(enc, "tokens")[1]))
        nb = np.concatenate(nb)
        nt = tok["n_tok"].to_numpy(zero_copy_only=False).astype(np.float64)
        ratio = nb / np.maximum(nt, 1.0)
        return pa.table(
            {
                "doc_id": tok["doc_id"].cast(pa.int64()),
                "flagged": pa.array(ratio < COMPRESS_FLAG_RATIO),
                "is_plant": pa.compute.equal(tok["source"], "plant"),
            }
        )

    # consumed twice (control aggregate + planted collect): checkpoint the
    # small (doc_id, bool, bool) output instead of re-running the encode
    rows = ds.map_batches(ratios, batch_format="pyarrow").materialize()

    def partial(b: pa.Table) -> pa.Table:
        plant = b["is_plant"].to_numpy(zero_copy_only=False)
        flag = b["flagged"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "orig_flagged": pa.array(
                    [int((flag & ~plant).sum())], type=pa.int64()
                ),
                "orig_total": pa.array(
                    [int((~plant).sum())], type=pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    tot = rows.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("orig_flagged", alias_name="f"), Sum("orig_total", alias_name="t")
    )
    mostly_clean = int(tot["f"] or 0) < 0.2 * int(tot["t"] or 0)
    # ONE iteration collects (doc_id, flagged) together — two passes could
    # see different block orders and misalign the columns
    ids, flags = [], []
    for b in rows.filter(expr="is_plant == True").iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        if b.num_rows:
            ids.append(b["doc_id"].to_numpy(zero_copy_only=False))
            flags.append(b["flagged"].to_numpy(zero_copy_only=False))
    doc_id = (
        np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
    )
    flagged = (
        np.concatenate(flags) if flags else np.zeros(0, dtype=bool)
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, type=pa.int64()),
            "is_flagged": pa.array(flagged),
            "originals_mostly_clean": pa.array(
                [mostly_clean] * len(flagged)
            ),
        }
    )


BPE_MERGES = 4


def q_bpe_train_gate(sf_dir: str):
    """BPE tokenizer training as an all-true gate: K merge rounds over the
    corpus token stream (distributed pair counts → broadcast rule →
    vectorized greedy rewrite), then per-round invariants checked exactly:
    the merged pair existed, the stream strictly shrank, no (a,b)
    adjacency survived its own round, and expanding the merge table
    restores the original corpus bit-identically (per-doc polynomial
    hashes attached before training and compared distributed)."""
    from ..functions import bpe as F_bpe
    from ..buffers import list_buffers
    from ..stages.verify import _poly_rowhash

    def add_hash(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        h = _poly_rowhash(values.astype(np.uint64), offsets)
        return b.append_column(
            "orig_hash", pa.array(h.view(np.int64), type=pa.int64())
        )

    ds = _tokens_ds(sf_dir).map_batches(add_hash, batch_format="pyarrow")
    rules, final, stats = F_bpe.bpe_train(ds, BPE_MERGES)

    def check(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        ev, eo = F_bpe.expand_with_offsets(values, offsets, rules)
        h = _poly_rowhash(ev.astype(np.uint64), eo)
        ok = int(
            (
                h.view(np.int64)
                == b["orig_hash"].to_numpy(zero_copy_only=False)
            ).sum()
        )
        return pa.table(
            {
                "n": pa.array([b.num_rows], type=pa.int64()),
                "ok": pa.array([ok], type=pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    row = final.map_batches(check, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("ok", alias_name="ok")
    )
    rt_ok = int(row["n"] or 0) == int(row["ok"] or 0)
    # pad untrained rounds (pairs exhausted early) with all-false rows so
    # the gate FAILS against the all-true oracle with matching row counts
    # instead of an opaque row-count mismatch
    padded = stats + [
        {
            "round": r,
            "pair_count": 0,
            "tokens_before": 0,
            "tokens_after": 0,
            "pair_left": 1,
        }
        for r in range(len(stats), BPE_MERGES)
    ]
    return pa.table(
        {
            "round": pa.array(
                [s["round"] for s in padded], type=pa.int64()
            ),
            "merged_some": pa.array(
                [s["pair_count"] >= 1 for s in padded]
            ),
            "shrank": pa.array(
                [s["tokens_after"] < s["tokens_before"] for s in padded]
            ),
            "no_pair_left": pa.array(
                [s["pair_left"] == 0 for s in padded]
            ),
            "roundtrip_ok": pa.array([rt_ok] * len(padded)),
        }
    )


def q_bpe_apply_gate(sf_dir: str):
    """BPE APPLY as an all-true gate — the tokenize-new-text half of the
    tokenizer lifecycle (functions/bpe.bpe_apply: ONE map_batches stage
    running the trained K rules in rank order through the trainer's own
    vectorized greedy rewrite). Three invariants, each computed
    distributed (permutation-invariant per-doc polynomial hash sums +
    exact row/token totals, no shuffle):

    - train_parity: apply(train_corpus, rules) reproduces the training
      output stream bit-for-bit;
    - unseen_roundtrip: expand(apply(unseen)) == unseen for a
      deterministic unseen stream (per-row reversed token order — same
      vocabulary, adjacencies the trainer never saw);
    - unseen_deterministic: two independent applications to the unseen
      stream agree exactly."""
    from ..functions import bpe as F_bpe
    from ..buffers import list_buffers
    from ..functions.tokenops import _list_array
    from ..stages.verify import _poly_rowhash

    def stream_stats(ds):
        """(sum-of-row-hashes, rows, tokens) — equal iff the two streams
        hold the same multiset of rows (order-free, join-free)."""

        def p(b: pa.Table) -> pa.Table:
            values, offsets = list_buffers(b["tokens"])
            h = _poly_rowhash(values.astype(np.uint64), offsets)
            s = np.zeros(1, dtype=np.uint64)
            with np.errstate(over="ignore"):
                s[0] = h.sum(dtype=np.uint64)
            return pa.table(
                {
                    "hsum": pa.array(s.view(np.int64)),
                    "rows": pa.array([b.num_rows], type=pa.int64()),
                    "toks": pa.array(
                        [int(len(values))], type=pa.int64()
                    ),
                }
            )

        # driver-side mod-2^64 fold of the tiny per-batch partials: a Ray
        # Sum over int64 hash views can exceed int64 in the reduce
        # (ArrowConversionError) — one partial row per batch is cheap
        parts = ds.map_batches(p, batch_format="pyarrow").take_all()
        h = sum(int(r["hsum"]) & ((1 << 64) - 1) for r in parts) % (1 << 64)
        return (
            h,
            sum(int(r["rows"]) for r in parts),
            sum(int(r["toks"]) for r in parts),
        )

    ds = _tokens_ds(sf_dir).materialize()
    rules, final, _stats = F_bpe.bpe_train(ds, BPE_MERGES)
    train_parity = stream_stats(final) == stream_stats(
        F_bpe.bpe_apply(ds, rules)
    )

    def reverse_rows(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        idx = np.arange(len(values), dtype=np.int64)
        starts = offsets[:-1]
        ends = offsets[1:]
        row = np.searchsorted(ends, idx, side="right")
        rev = starts[row] + (ends[row] - 1 - idx)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "tokens": _list_array(values[rev], offsets),
                "n_tok": b["n_tok"],
            }
        )

    unseen = ds.map_batches(reverse_rows, batch_format="pyarrow")

    def expand_back(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        ev, eo = F_bpe.expand_with_offsets(values, offsets, rules)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "tokens": _list_array(ev.astype(np.int64), eo),
                "n_tok": pa.array(
                    np.diff(eo).astype(np.int32), type=pa.int32()
                ),
            }
        )

    applied = F_bpe.bpe_apply(unseen, rules).materialize()
    unseen_roundtrip = stream_stats(
        applied.map_batches(expand_back, batch_format="pyarrow")
    ) == stream_stats(unseen)
    unseen_deterministic = stream_stats(applied) == stream_stats(
        F_bpe.bpe_apply(unseen, rules)
    )
    return pa.table(
        {
            "train_parity": pa.array([train_parity]),
            "unseen_roundtrip": pa.array([unseen_roundtrip]),
            "unseen_deterministic": pa.array([unseen_deterministic]),
        }
    )


def q_pipeline_tokenize_corpus(sf_dir: str):
    """The COMPLETE tokenizer lifecycle as one composed pipeline — the
    shape a pretraining data job actually runs: raw corpus → base token
    stream → BPE rules trained on a deterministic hash SAMPLE of docs →
    ``bpe_apply`` over the FULL stream (one stage, frozen rules) →
    auto-codec encode → decode → invariants, all distributed:

    - ``roundtrip_ok``: the encoded+decoded applied stream is
      bit-identical to the applied stream (per-doc polynomial hash sums);
    - ``expand_restores``: reversing the merge table restores the ORIGINAL
      base token stream exactly — nothing the tokenizer did is lossy;
    - ``tokens_shrank``: the applied stream holds strictly fewer tokens
      (the rules actually fired corpus-wide, not just on the sample)."""

    from ..functions import bpe as F_bpe
    from ..buffers import list_buffers
    from ..functions.tokenops import _list_array
    from ..stages.verify import _poly_rowhash

    def stream_sig(ds):
        def p(b: pa.Table) -> pa.Table:
            values, offsets = list_buffers(b["tokens"])
            h = _poly_rowhash(values.astype(np.uint64), offsets)
            s = np.zeros(1, dtype=np.uint64)
            with np.errstate(over="ignore"):
                s[0] = h.sum(dtype=np.uint64)
            return pa.table(
                {
                    "hsum": pa.array(s.view(np.int64)),
                    "rows": pa.array([b.num_rows], type=pa.int64()),
                    "toks": pa.array([int(len(values))], type=pa.int64()),
                }
            )

        # driver-side mod-2^64 fold (same reason as bpe_apply_gate: a Ray
        # Sum over int64 hash views can overflow int64 in the reduce)
        parts = ds.map_batches(p, batch_format="pyarrow").take_all()
        h = sum(int(r["hsum"]) & ((1 << 64) - 1) for r in parts) % (1 << 64)
        return (
            h,
            sum(int(r["rows"]) for r in parts),
            sum(int(r["toks"]) for r in parts),
        )

    base = _tokens_ds(sf_dir).materialize()
    base_sig = stream_sig(base)
    rules, applied, _stats = F_bpe.bpe_train(
        base, BPE_MERGES, sample_rate=0.5
    )
    applied = applied.materialize()
    applied_sig = stream_sig(applied)

    dec = decode_columns_dataset(encode_columns_dataset(applied))
    roundtrip_ok = stream_sig(dec) == applied_sig

    def expand_back(b: pa.Table) -> pa.Table:
        values, offsets = list_buffers(b["tokens"])
        ev, eo = F_bpe.expand_with_offsets(values, offsets, rules)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "tokens": _list_array(ev.astype(np.int64), eo),
                "n_tok": pa.array(
                    np.diff(eo).astype(np.int32), type=pa.int32()
                ),
            }
        )

    expand_restores = (
        stream_sig(applied.map_batches(expand_back, batch_format="pyarrow"))
        == base_sig
    )
    tokens_shrank = applied_sig[2] < base_sig[2] and (
        applied_sig[1] == base_sig[1]
    )
    return pa.table(
        {
            "roundtrip_ok": pa.array([roundtrip_ok]),
            "expand_restores": pa.array([expand_restores]),
            "tokens_shrank": pa.array([tokens_shrank]),
        }
    )


def q_dedup_keep_best(sf_dir: str):
    """Quality-aware dedup: normalized-whitespace near-dup groups keep the
    BEST member (shortest raw text, then smallest doc_id) instead of the
    arbitrary smallest-id. Plants space-padded variants of the first
    PLANT_N docs; the originals must survive, the padded copies drop."""
    import ray
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ("doc_id", "text"))

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids < PLANT_N)
        sub = b.take(pa.array(sel))
        padded = pc.binary_join_element_wise(" ", sub["text"], " ", "")
        shifted = pa.table(
            {
                "doc_id": pc.add(sub["doc_id"], PLANT_OFFSET),
                "text": padded,
            }
        )
        return pa.concat_tables([b.select(["doc_id", "text"]), shifted])

    full = ds.map_batches(plant, batch_format="pyarrow")
    dropped = F_dedup.normalized_best_duplicates(full).take_all()
    dropped_ref = ray.put(
        np.array(sorted(r["doc_id"] for r in dropped), dtype=np.int64)
    )

    def keep(b: pa.Table) -> pa.Table:
        import ray as _ray

        d = _ray.get(dropped_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mask = ~np.isin(ids, d) if d.size else np.ones(len(ids), bool)
        return pa.table({"doc_id": pa.array(ids[mask], type=pa.int64())})

    return _collect_ids(
        full.map_batches(keep, batch_format="pyarrow"), "doc_id"
    )


# The driver's per-round correctness harness checks the FIRST 50 registry
# entries against their DuckDB oracles (CORRECTNESS_r2/r3 are exactly the
# head-50 in registration order).  Registration order below groups by
# implementation module, which front-loads 26 roundtrip/LIKE variants; this
# window instead samples one-or-two representatives from EVERY operator
# family so the driver formally verifies the whole surface.  Queries not
# listed keep their registration order after the window.
DRIVER_WINDOW = [
    # codec / encode / decode core
    "roundtrip_auto",
    "docs_split",
    "roundtrip_fsst_shared",
    "compression_stats",
    "compression_ratio_gate",
    "tokens_corpus_roundtrip",
    "decode_selected",
    # whole-table per-column engine (north-rule flagship generalization)
    "columnar_roundtrip_docs",
    "columnar_store_roundtrip",
    "columnar_range_scan",
    "columnar_store_groupby_dist",
    # compressed-domain LIKE engines (like_skipping stays oracle-verified
    # outside the window via engine_rank_counts, which asserts EVERY
    # engine's match counts; columnar_like_scan is the flagship fusion —
    # the LIKE engine stack running on the whole-table per-column layout)
    "like_kmp",
    "like_multi_kmp",
    "columnar_like_scan",
    "engine_rank_counts",
    # text analysis (fingerprint/token_count_bpe verified outside the
    # window — slots traded to the training-consumption family below)
    "docs_quality_filter_tokens",
    "quality_score",
    "lang_id",
    "docs_redact_pii",
    # corpus preparation (normalize/chunked verified outside the window)
    "pack_sequences",
    "docs_mixture_sample",
    "docs_decontaminate",
    "pipeline_pretrain_corpus",
    # training consumption: epoch ordering, store→batch loader,
    # per-source loader filter, versioned time travel
    "docs_epoch_shuffle",
    "training_loader_gate",
    "store_time_travel",
    "training_loader_source_filter",
    # deduplication families
    "dedup_exact",
    "dedup_cc_exact",
    "dedup_minhash",
    "bpe_train_gate",
    "dedup_ngram_jaccard",
    "dedup_embedding",
    "dedup_spans_planted",
    "dedup_simhash",
    # similarity
    "bpe_apply_gate",
    "ann_ivf_recall",
    "ann_ivf_index_recall",
    # sketches
    "approx_distinct_text",
    "heavy_hitter_bigrams",
    "quantile_sketch_gate",
    # compressed-domain GROUP BY / COUNT / join on the events store
    "columnar_store_groupby_time",
    "ingest_jsonl_gz",
    "columnar_store_count_where",
    "columnar_store_join_dist",
    # relational joins / TPC-H shapes
    "tpch_q1",
    "tpch_q3",
    # persisted index, ingestion, a second TPC-H join
    "docs_word_search_indexed",
    "ingest_jsonl",
    "tpch_q10",
]


def _window_first(q: dict) -> dict:
    missing = [k for k in DRIVER_WINDOW if k not in q]
    # a silent drop would shrink the head-50 and the driver would verify
    # an unintended query set — fail loudly at registry-build time instead
    assert not missing and len(DRIVER_WINDOW) == 50, (
        f"DRIVER_WINDOW broken: missing={missing}, len={len(DRIVER_WINDOW)}"
    )
    head = {k: q[k] for k in DRIVER_WINDOW}
    tail = {k: v for k, v in q.items() if k not in head}
    return {**head, **tail}


def build_queries() -> dict:
    q = {}
    for name in sorted(CODECS):
        q[f"roundtrip_{name}"] = make_roundtrip(name)
    q["roundtrip_auto"] = make_roundtrip("auto")
    q["roundtrip_fsst_shared"] = q_roundtrip_fsst_shared
    for name, (pattern, engine) in LIKE_PATTERNS.items():
        q[name] = make_like(pattern, engine)
    q["like_count_contains"] = make_like_count("%scan%", "auto")
    q["engine_rank_counts"] = q_engine_rank
    q["like_regex"] = q_like_regex
    q["like_exact"] = q_like_exact
    q["pipeline_clean_corpus"] = q_pipeline_clean_corpus
    q["ntok_histogram"] = q_ntok_histogram
    q["source_counts"] = q_source_counts
    q["compression_stats"] = q_compression_stats
    q["compression_ratio_gate"] = q_compression_ratio_gate
    q["decode_selected"] = q_decode_selected
    q["columnar_roundtrip_docs"] = q_columnar_roundtrip_docs
    q["columnar_roundtrip_events"] = q_columnar_roundtrip_events
    q["columnar_roundtrip_embeddings"] = q_columnar_roundtrip_embeddings
    q["columnar_ratio_gate"] = q_columnar_ratio_gate
    q["columnar_events_ratio_gate"] = q_columnar_events_ratio_gate
    q["columnar_float_range_scan"] = q_columnar_float_range_scan
    q["columnar_eq_scan"] = q_columnar_eq_scan
    q["columnar_like_scan"] = q_columnar_like_scan
    q["columnar_like_dict_scan"] = q_columnar_like_dict_scan
    q["columnar_predicate_scan"] = q_columnar_predicate_scan
    q["columnar_range_scan"] = q_columnar_range_scan
    q["columnar_pruned_read"] = q_columnar_pruned_read
    q["columnar_store_roundtrip"] = q_columnar_store_roundtrip
    q["columnar_store_range_scan"] = q_columnar_store_range_scan
    q["columnar_store_like_prune"] = q_columnar_store_like_prune
    q["columnar_store_topk"] = q_columnar_store_topk
    q["columnar_store_count"] = q_columnar_store_count
    q["columnar_store_histogram"] = q_columnar_store_histogram
    q["columnar_store_cluster_scan"] = q_columnar_store_cluster_scan
    q["columnar_store_groupby"] = q_columnar_store_groupby
    q["columnar_store_groupby_where"] = q_columnar_store_groupby_where
    q["columnar_store_groupby_time"] = q_columnar_store_groupby_time
    q["columnar_store_groupby_dist"] = q_columnar_store_groupby_dist
    q["columnar_store_agg_meta"] = q_columnar_store_agg_meta
    q["columnar_store_distinct"] = q_columnar_store_distinct
    q["columnar_store_agg_float"] = q_columnar_store_agg_float
    q["columnar_store_semijoin"] = q_columnar_store_semijoin
    q["columnar_store_sample"] = q_columnar_store_sample
    q["columnar_store_groupby_multi"] = q_columnar_store_groupby_multi
    q["columnar_store_group_multikey"] = q_columnar_store_group_multikey
    q["columnar_store_filter"] = q_columnar_store_filter
    q["columnar_store_compact"] = q_columnar_store_compact
    q["columnar_store_quantiles"] = q_columnar_store_quantiles
    q["columnar_store_ann"] = q_columnar_store_ann
    q["columnar_store_semijoin_int"] = q_columnar_store_semijoin_int
    q["columnar_store_join"] = q_columnar_store_join
    q["columnar_store_join_dist"] = q_columnar_store_join_dist
    q["columnar_store_append"] = q_columnar_store_append
    q["columnar_store_sort"] = q_columnar_store_sort
    q["columnar_store_sort_merge"] = q_columnar_store_sort_merge
    q["columnar_store_upsert"] = q_columnar_store_upsert
    q["columnar_store_delete"] = q_columnar_store_delete
    q["columnar_store_union"] = q_columnar_store_union
    q["columnar_store_explain"] = q_columnar_store_explain
    q["columnar_store_topk_where"] = q_columnar_store_topk_where
    q["columnar_store_count_where"] = q_columnar_store_count_where
    q["columnar_store_eq_bloom"] = q_columnar_store_eq_bloom
    q["columnar_store_ndv_gate"] = q_columnar_store_ndv_gate
    q["columnar_store_derive"] = q_columnar_store_derive
    q["columnar_store_drop_column"] = q_columnar_store_drop_column
    q["columnar_store_tokens_roundtrip"] = q_columnar_store_tokens_roundtrip
    q["columnar_store_group_topk"] = q_columnar_store_group_topk
    q["columnar_store_heavy_hitters"] = q_columnar_store_heavy_hitters
    q["columnar_store_approx_distinct"] = q_columnar_store_approx_distinct
    q["columnar_spec_roundtrip"] = q_columnar_spec_roundtrip
    q["columnar_agg_events"] = q_columnar_agg_events
    q["columnar_group_count"] = q_columnar_group_count
    q["dedup_exact"] = q_dedup_exact
    q["dedup_exact_tokens"] = q_dedup_exact_tokens
    q["dedup_minhash"] = make_dedup("minhash")
    q["dedup_simhash"] = make_dedup("simhash")
    q["dedup_ngram_jaccard"] = make_dedup("ngram_jaccard")
    q["dedup_minhash_planted"] = make_dedup_planted("minhash")
    q["dedup_ngram_planted"] = make_dedup_planted("ngram_jaccard")
    q["dedup_simhash_planted"] = make_dedup_planted("simhash")
    q["dedup_embedding_planted"] = q_dedup_embedding_planted
    q["dedup_cc_exact"] = q_dedup_cc_exact
    q["docs_source_chains"] = q_docs_source_chains
    q["dedup_embedding"] = q_dedup_embedding
    q["token_count"] = make_textstat(F_text.token_count_batch)
    q["quality_score"] = make_textstat(F_text.quality_batch)
    q["lang_id"] = make_textstat(F_text.lang_id_batch)
    q["fingerprint"] = make_textstat(F_text.fingerprint_batch)
    q["token_count_bpe"] = q_token_count_bpe
    q["approx_distinct_text"] = q_approx_distinct
    q["heavy_hitter_bigrams"] = q_heavy_hitter_bigrams
    q["docs_redact_pii"] = q_docs_redact_pii
    q["vocab_topk"] = q_vocab_topk
    q["sample_stratified"] = q_sample_stratified
    q["pack_sequences"] = q_pack_sequences
    q["pack_sequences_segments"] = q_pack_sequences_segments
    q["docs_token_budget_sample"] = q_docs_token_budget_sample
    q["pipeline_tokens_prep"] = q_pipeline_tokens_prep
    q["docs_longest20"] = q_docs_longest20
    q["ann_topk"] = q_ann_topk
    q["ann_ivf"] = q_ann_ivf
    q["ann_ivf_recall"] = q_ann_ivf_recall
    q["ann_ivf_index_recall"] = q_ann_ivf_index_recall
    q["tokens_corpus_roundtrip"] = q_tokens_corpus_roundtrip
    q["users_purchase_and_error"] = q_users_purchase_and_error
    q["docs_chunked"] = q_docs_chunked
    q["docs_mixture_sample"] = q_docs_mixture_sample
    q["docs_epoch_shuffle"] = q_docs_epoch_shuffle
    q["training_loader_gate"] = q_training_loader_gate
    q["training_loader_source_filter"] = q_training_loader_source_filter
    q["store_time_travel"] = q_store_time_travel
    q["docs_split"] = q_docs_split
    q["docs_decontaminate"] = q_docs_decontaminate
    q["quantile_sketch_gate"] = q_quantile_sketch_gate
    q["grouped_quantile_sketch_gate"] = q_grouped_quantile_sketch_gate
    q["pipeline_pretrain_corpus"] = q_pipeline_pretrain_corpus
    q["dedup_spans_planted"] = q_dedup_spans_planted
    q["dedup_spans_tokens_planted"] = q_dedup_spans_tokens_planted
    q["tokens_remove_spans_planted"] = q_tokens_remove_spans_planted
    q["ingest_jsonl"] = q_ingest_jsonl
    q["ingest_jsonl_gz"] = q_ingest_jsonl_gz
    q["ingest_jsonl_zst"] = q_ingest_jsonl_zst
    q["ingest_csv"] = q_ingest_csv
    q["docs_sample2_per_source"] = q_docs_sample2_per_source
    q["docs_normalize"] = q_docs_normalize
    q["tpch_q1"] = q_tpch_q1
    q["tpch_q6"] = q_tpch_q6
    q["tpch_q14"] = q_tpch_q14
    q["tpch_ptype_like"] = q_tpch_ptype_like
    q["tpch_q13"] = q_tpch_q13
    q["tpch_segment_orders"] = q_tpch_segment_orders
    q["tpch_region_suppliers"] = q_tpch_region_suppliers
    q["token_stats_pushdown"] = q_token_stats_pushdown
    q["token_histogram_pushdown"] = q_token_histogram_pushdown
    q["contains_token_pushdown"] = q_contains_token_pushdown
    q["compaction_roundtrip"] = q_compaction_roundtrip
    q["tpch_order_revenue"] = q_tpch_order_revenue
    q["tpch_order_revenue_salted"] = q_tpch_order_revenue_salted
    q["tpch_order_revenue_bloom"] = lambda sf: q_tpch_order_revenue(
        sf, bloom=True
    )
    q["tpch_q10"] = q_tpch_q10
    q["tpch_q4_exists"] = q_tpch_q4_exists
    q["tpch_q16_brand_suppliers"] = q_tpch_q16_brand_suppliers
    q["tpch_q19_disjunctive"] = q_tpch_q19_disjunctive
    q["docs_top3_per_source"] = q_docs_top3_per_source
    q["customers_no_urgent_orders"] = q_customers_no_urgent_orders
    q["tpch_q3"] = q_tpch_q3
    q["tpch_q5"] = q_tpch_q5
    q["tpch_q17"] = q_tpch_q17
    q["tpch_q7"] = q_tpch_q7
    q["orders_lineitem_full_outer"] = q_orders_lineitem_full_outer
    q["profile_orders"] = q_profile_orders
    q["tpch_q15"] = q_tpch_q15
    q["tpch_q22"] = q_tpch_q22
    q["tpch_q2"] = q_tpch_q2
    q["tpch_q8"] = q_tpch_q8
    q["tpch_q9"] = q_tpch_q9
    q["tpch_q11"] = q_tpch_q11
    q["tpch_q12"] = q_tpch_q12
    q["tpch_q20"] = q_tpch_q20
    q["tpch_q21"] = q_tpch_q21
    q["roundtrip_embeddings"] = q_roundtrip_embeddings
    q["source_top_terms"] = q_source_top_terms
    q["like_multiscan"] = q_like_multiscan
    q["docs_repetition"] = q_docs_repetition
    q["like_trigram_indexed"] = q_like_trigram_indexed
    q["bigram_top20"] = q_bigram_top20
    q["docs_word_search"] = q_docs_word_search
    q["docs_word_search_indexed"] = q_docs_word_search_indexed
    q["docs_phrase_search"] = q_docs_phrase_search
    q["orders_rollup"] = q_orders_rollup
    q["orders_cube"] = q_orders_cube
    q["docs_words_exploded"] = q_docs_words_exploded
    q["user_event_seq"] = q_user_event_seq
    q["orders_monthly"] = q_orders_monthly
    q["tpch_q18"] = q_tpch_q18
    q["docs_shuffled_head"] = q_docs_shuffled_head
    q["dedup_keep_best"] = q_dedup_keep_best
    q["bpe_train_gate"] = q_bpe_train_gate
    q["bpe_apply_gate"] = q_bpe_apply_gate
    q["pipeline_tokenize_corpus"] = q_pipeline_tokenize_corpus
    q["docs_compressibility_gate"] = q_docs_compressibility_gate
    q["tokens_truncate_pad"] = q_tokens_truncate_pad
    q["tokens_shift_labels"] = q_tokens_shift_labels
    q["tokens_sliding_windows"] = q_tokens_sliding_windows
    q["tokens_vocab_remap"] = q_tokens_vocab_remap
    q["token_bigram_top20"] = q_token_bigram_top20
    q["tokens_dispersion"] = q_tokens_dispersion
    q["tokens_dup_ngrams"] = q_tokens_dup_ngrams
    q["tokens_span_corrupt"] = q_tokens_span_corrupt
    q["tokens_fim"] = q_tokens_fim
    q["docs_quality_filter_tokens"] = q_docs_quality_filter_tokens
    q["ingest_text"] = q_ingest_text
    return _window_first(q)


def build_oracle_sql() -> dict:
    sql = {}
    for name in list(sorted(CODECS)) + ["auto", "fsst_shared"]:
        sql[f"roundtrip_{name}"] = ROUNDTRIP_SQL
    for name, (pattern, _engine) in LIKE_PATTERNS.items():
        sql[name] = (
            f"SELECT doc_id FROM documents WHERE text LIKE '{pattern}'"
        )
    sql["pipeline_clean_corpus"] = """
        WITH f AS (
          SELECT doc_id, source, text FROM documents
          WHERE length(string_split(text, ' ')) >= 8
        ), d AS (
          SELECT * FROM f
          QUALIFY doc_id = min(doc_id) OVER (PARTITION BY text)
        )
        SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(length(text)) AS BIGINT) AS sum_chars
        FROM d GROUP BY source
    """
    sql["like_exact"] = """
        SELECT doc_id FROM documents
        WHERE text = (SELECT text FROM documents WHERE doc_id = 0)
    """
    sql["like_count_contains"] = (
        "SELECT CAST(count(*) AS BIGINT) AS n FROM documents "
        "WHERE text LIKE '%scan%'"
    )
    sql["engine_rank_counts"] = engine_rank_oracle_sql()
    sql["like_regex"] = (
        f"SELECT doc_id FROM documents "
        f"WHERE regexp_matches(text, '{REGEX_PATTERN}')"
    )
    sql["ntok_histogram"] = """
        SELECT CASE WHEN length(text) = 0 THEN 0
                    ELSE length(format('{:b}', length(text))) END AS bucket,
               CAST(count(*) AS BIGINT) AS rows,
               CAST(sum(length(text)) AS BIGINT) AS tokens
        FROM documents GROUP BY 1
    """
    sql["source_counts"] = (
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs "
        "FROM documents GROUP BY source"
    )
    sql["decode_selected"] = """
        SELECT doc_id,
               CAST(length(text) AS BIGINT) AS n_tok,
               array_to_string([CAST(unicode(substr(text, i, 1)) AS INT)
                                FOR i IN range(1, length(text) + 1)], ',') AS tok_str
        FROM documents WHERE doc_id % 10 = 0
    """
    sql["compression_ratio_gate"] = "SELECT (1=1) AS ratio_ge_180"
    sql["columnar_roundtrip_docs"] = (
        "SELECT doc_id, text, lang, source, n_chars FROM documents"
    )
    sql["columnar_roundtrip_events"] = """
        SELECT event_id,
               CAST(epoch_us(ts) AS BIGINT) AS ts_us,
               user_id,
               event_type,
               CAST(round(value * 100) AS BIGINT) AS cents,
               props
        FROM events
    """
    sql["columnar_roundtrip_embeddings"] = """
        SELECT vec_id, label, CAST(len(embedding) AS BIGINT) AS n_dims
        FROM embeddings
    """
    sql["columnar_eq_scan"] = """
        SELECT doc_id, lang, n_chars FROM documents WHERE source = 'src7'
    """
    sql["columnar_like_scan"] = """
        SELECT doc_id, source, n_chars FROM documents
        WHERE text LIKE '%merge%sort%'
    """
    sql["columnar_like_dict_scan"] = """
        SELECT doc_id, lang FROM documents WHERE source LIKE 'src1%'
    """
    sql["columnar_predicate_scan"] = """
        SELECT doc_id, source, n_chars FROM documents
        WHERE text IS NOT NULL
          AND n_chars >= 200
          AND source IN ('src1', 'src4', 'src7')
          AND text LIKE '%merge%'
    """
    sql["columnar_range_scan"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE event_id BETWEEN 100 AND 900
    """
    sql["columnar_pruned_read"] = "SELECT doc_id, lang FROM documents"
    sql["columnar_store_roundtrip"] = (
        "SELECT doc_id, text, lang, source, n_chars FROM documents"
    )
    sql["columnar_store_like_prune"] = (
        "SELECT (1=1) AS pruned_ge_3, (1=1) AS matches_exact"
    )
    sql["columnar_store_topk"] = """
        SELECT event_id, event_type, user_id FROM events
        ORDER BY event_id DESC LIMIT 20
    """
    sql["columnar_store_cluster_scan"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE event_id BETWEEN (SELECT min(event_id) FROM events)
          AND (SELECT min(event_id)
                 + (max(event_id) - min(event_id)) // 8 FROM events)
    """
    sql["columnar_store_histogram"] = """
        WITH mm AS (
          SELECT min(user_id) AS lo, max(user_id) AS hi FROM events
        )
        SELECT CAST(((e.user_id - mm.lo) * 16) // (mm.hi - mm.lo + 1)
                    AS BIGINT) AS bin,
               CAST(count(*) AS BIGINT) AS count
        FROM events e, mm
        WHERE e.user_id IS NOT NULL
        GROUP BY 1
    """
    sql["columnar_store_count"] = """
        SELECT CAST(count(*) AS BIGINT) AS n FROM events
        WHERE event_id BETWEEN (SELECT min(event_id) FROM events)
          AND (SELECT min(event_id)
                 + (max(event_id) - min(event_id)) // 2 FROM events)
    """
    sql["columnar_store_range_scan"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE event_id BETWEEN (SELECT min(event_id) FROM events)
          AND (SELECT min(event_id)
                 + (max(event_id) - min(event_id)) // 8 FROM events)
    """
    sql["columnar_spec_roundtrip"] = (
        "SELECT doc_id, text, lang, source, n_chars FROM documents"
    )
    sql["columnar_store_groupby"] = """
        SELECT source AS value, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(n_chars) AS BIGINT) AS vsum,
               CAST(min(n_chars) AS BIGINT) AS vmin,
               CAST(max(n_chars) AS BIGINT) AS vmax
        FROM documents WHERE source IS NOT NULL
        GROUP BY source ORDER BY source
    """
    sql["columnar_store_groupby_where"] = """
        SELECT source AS value, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(n_chars) AS BIGINT) AS vsum,
               CAST(min(n_chars) AS BIGINT) AS vmin,
               CAST(max(n_chars) AS BIGINT) AS vmax
        FROM documents
        WHERE source IS NOT NULL
          AND doc_id BETWEEN (SELECT min(doc_id) FROM documents)
            AND (SELECT min(doc_id)
                   + (max(doc_id) - min(doc_id)) // 4 FROM documents)
          AND text LIKE '%the%'
        GROUP BY source ORDER BY source
    """
    sql["columnar_store_groupby_time"] = """
        SELECT CAST(epoch_us(ts) // 86400000000 * 86400000000 AS BIGINT)
                 AS value,
               CAST(count(*) AS BIGINT) AS n_rows,
               CAST(min(event_id) AS BIGINT) AS vmin,
               CAST(max(event_id) AS BIGINT) AS vmax
        FROM events GROUP BY 1 ORDER BY 1
    """
    sql["columnar_store_groupby_dist"] = """
        SELECT doc_id AS value, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(n_chars) AS BIGINT) AS vsum,
               CAST(min(n_chars) AS BIGINT) AS vmin,
               CAST(max(n_chars) AS BIGINT) AS vmax
        FROM documents GROUP BY doc_id ORDER BY doc_id
    """
    sql["columnar_store_agg_meta"] = """
        SELECT CAST(min(event_id) AS BIGINT) AS vmin,
               CAST(max(event_id) AS BIGINT) AS vmax,
               CAST(count(event_id) AS BIGINT) AS cnt,
               CAST(sum(user_id) AS BIGINT) AS usum
        FROM events
    """
    sql["columnar_store_compact"] = "SELECT * FROM events"
    sql["columnar_store_group_topk"] = """
        SELECT event_type, event_id, user_id FROM (
          SELECT event_type, event_id, user_id,
                 row_number() OVER (
                   PARTITION BY event_type ORDER BY event_id DESC
                 ) AS rn
          FROM events
        ) WHERE rn <= 3
    """
    sql["columnar_store_drop_column"] = (
        "SELECT * EXCLUDE (user_id) FROM events"
    )
    sql["columnar_store_tokens_roundtrip"] = ROUNDTRIP_SQL
    sql["columnar_store_derive"] = """
        SELECT event_id,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents,
               upper(event_type) AS etype_upper
        FROM events
    """
    sql["columnar_store_ndv_gate"] = """
        SELECT c AS column, (1=1) AS err_le_5pct
        FROM (VALUES ('user_id'), ('event_type')) t(c)
    """
    sql["columnar_store_eq_bloom"] = """
        SELECT event_id, user_id, event_type FROM events
        WHERE user_id = (SELECT min(user_id) FROM events)
    """
    sql["columnar_store_count_where"] = """
        SELECT CAST(count(*) AS BIGINT) AS n FROM events
        WHERE event_id BETWEEN (SELECT min(event_id) FROM events)
          AND (SELECT min(event_id)
                 + (max(event_id) - min(event_id)) // 4 FROM events)
          AND event_type = 'click'
    """
    sql["columnar_store_topk_where"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE event_type = 'click'
        ORDER BY event_id DESC LIMIT 20
    """
    sql["columnar_store_semijoin_int"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE user_id IN (
          SELECT DISTINCT user_id FROM events ORDER BY user_id LIMIT 3
        )
    """
    _store_join_sql = """
        SELECT o_custkey, o_orderkey, o_totalprice, c_mktsegment
        FROM orders JOIN customer ON o_custkey = c_custkey
        WHERE o_orderstatus = 'O'
    """
    sql["columnar_store_join"] = _store_join_sql
    sql["columnar_store_join_dist"] = _store_join_sql
    sql["columnar_store_append"] = "SELECT * FROM events"
    sql["columnar_store_sort"] = """
        SELECT event_id, value,
               CAST(row_number() OVER (ORDER BY value, event_id) - 1
                    AS BIGINT) AS rownum
        FROM events
    """
    sql["columnar_store_upsert"] = """
        WITH delta AS (
            SELECT event_id, ts, user_id, 'upd' AS event_type,
                   value + 1000 AS value, props
            FROM events
            WHERE event_id % 7 = 3
              AND event_id <= (SELECT min(event_id)
                                 + (max(event_id) - min(event_id)) // 3
                               FROM events)
            UNION ALL
            SELECT event_id + (SELECT max(event_id) + 1 FROM events),
                   ts, user_id, 'ins' AS event_type, value, props
            FROM events
            WHERE event_id % 13 = 5
        )
        SELECT * FROM events
        WHERE event_id NOT IN (SELECT event_id FROM delta)
        UNION ALL
        SELECT * FROM delta
    """
    sql["columnar_store_delete"] = """
        SELECT * FROM events
        WHERE NOT (event_id % 11 = 0
                   AND event_id <= (SELECT min(event_id)
                                      + (max(event_id) - min(event_id)) // 2
                                    FROM events))
    """
    sql["columnar_store_union"] = "SELECT * FROM events"
    sql["columnar_store_explain"] = """
        SELECT (1=1) AS plan_matches_scan, (1=1) AS skipped_ge_1,
               (1=1) AS reasons_are_zone, (1=1) AS rows_match_oracle
    """
    sql["columnar_store_sort_merge"] = """
        SELECT event_id, event_type, user_id,
               CAST(row_number() OVER (ORDER BY event_id) - 1
                    AS BIGINT) AS rownum
        FROM events
    """
    sql["columnar_store_ann"] = """
        SELECT vec_id FROM embeddings
        ORDER BY list_cosine_similarity(embedding,
                   (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC,
                 vec_id
        LIMIT 10
    """
    sql["columnar_store_heavy_hitters"] = """
        SELECT event_type AS item, CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY event_type
        HAVING count(*) >= CEIL(0.15 * (SELECT count(*) FROM events))
        ORDER BY item
    """
    sql["columnar_store_approx_distinct"] = (
        "SELECT (1=1) AS user_id_close, (1=1) AS event_type_close"
    )
    sql["columnar_store_quantiles"] = """
        SELECT '0.5' AS q, TRUE AS ok
        UNION ALL SELECT '0.9', TRUE
        UNION ALL SELECT '0.99', TRUE
        ORDER BY q
    """
    sql["columnar_store_filter"] = """
        SELECT * FROM events
        WHERE event_id BETWEEN (SELECT min(event_id) FROM events)
          AND (SELECT min(event_id)
                 + (max(event_id) - min(event_id)) * 3 // 8 FROM events)
    """
    sql["columnar_store_groupby_multi"] = """
        SELECT event_type AS value, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(user_id) AS BIGINT) AS sum_user_id,
               CAST(min(user_id) AS BIGINT) AS min_user_id,
               CAST(max(user_id) AS BIGINT) AS max_user_id,
               CAST(min(event_id) AS BIGINT) AS min_event_id,
               CAST(max(event_id) AS BIGINT) AS max_event_id
        FROM events WHERE event_type IS NOT NULL
        GROUP BY event_type ORDER BY event_type
    """
    sql["columnar_store_group_multikey"] = """
        SELECT event_type,
               CAST(epoch_us(ts) // 86400000000 * 86400000000 AS BIGINT)
                 AS ts,
               CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(user_id) AS BIGINT) AS vsum
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
    """
    sql["columnar_store_sample"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE (CAST(event_id + 7 AS HUGEINT) * 2654435761) % 4294967296
              < CAST(0.25 * 4294967296 AS BIGINT)
    """
    sql["columnar_store_semijoin"] = """
        SELECT event_id, event_type, user_id FROM events
        WHERE event_type IN (
          SELECT DISTINCT event_type FROM events
          ORDER BY event_type LIMIT 2
        )
    """
    sql["columnar_store_agg_float"] = (
        "SELECT (1=1) AS minmax_exact, (1=1) AS sum_close, "
        "(1=1) AS count_match, (1=1) AS count_meta_only"
    )
    sql["columnar_store_distinct"] = """
        SELECT DISTINCT lang AS value FROM documents
        WHERE lang IS NOT NULL ORDER BY lang
    """
    sql["columnar_group_count"] = """
        SELECT source, CAST(count(*) AS BIGINT) AS n FROM documents
        WHERE source IS NOT NULL GROUP BY source
    """
    sql["columnar_agg_events"] = """
        SELECT CAST(min(event_id) AS BIGINT) AS vmin,
               CAST(max(event_id) AS BIGINT) AS vmax,
               CAST(sum(event_id) AS BIGINT) AS vsum,
               CAST(count(event_id) AS BIGINT) AS cnt
        FROM events
    """
    sql["columnar_ratio_gate"] = (
        "SELECT CAST(5 AS BIGINT) AS n_columns, (1=1) AS total_ratio_ge_3, "
        "(1=1) AS text_ratio_ge_3, (1=1) AS every_column_smaller"
    )
    sql["columnar_float_range_scan"] = """
        SELECT event_id, event_type, value FROM events
        WHERE value >= 100.5 AND value <= 200.25
    """
    sql["columnar_events_ratio_gate"] = (
        "SELECT CAST(6 AS BIGINT) AS n_columns, (1=1) AS total_ratio_ge_4, "
        "(1=1) AS alp_value_ge_3, (1=1) AS delta64_event_id_ge_20, "
        "(1=1) AS every_column_smaller"
    )
    # gate queries: the Ray side computes real precision/recall/accuracy
    # booleans; the oracle is the all-true expectation (KLL gate pattern)
    _codec_values = ", ".join(f"('{n}')" for n in sorted(CODECS))
    sql["compression_stats"] = (
        "SELECT codec, (1=1) AS est_positive, (1=1) AS est_within_tol, "
        f"(1=1) AS no_blowup FROM (VALUES {_codec_values}) t(codec)"
    )
    _dedup_gate_sql = (
        "SELECT (1=1) AS decoys_kept, (1=1) AS planted_dropped"
    )
    sql["dedup_minhash"] = _dedup_gate_sql
    sql["dedup_simhash"] = _dedup_gate_sql
    sql["dedup_ngram_jaccard"] = _dedup_gate_sql
    sql["dedup_embedding"] = _dedup_gate_sql
    sql["dedup_minhash_planted"] = f"""
        SELECT doc_id + {PLANT_OFFSET} AS doc_id FROM documents
        WHERE doc_id < {PLANT_N}
    """
    sql["dedup_ngram_planted"] = sql["dedup_minhash_planted"]
    sql["dedup_simhash_planted"] = sql["dedup_minhash_planted"]
    sql["dedup_embedding_planted"] = f"""
        SELECT vec_id + {PLANT_OFFSET} AS vec_id FROM embeddings
        WHERE vec_id < 10
    """
    sql["dedup_cc_exact"] = f"""
        WITH u AS (
          SELECT doc_id, text FROM documents
          UNION ALL SELECT doc_id + {PLANT_OFFSET}, text FROM documents
            WHERE doc_id < {PLANT_N}
          UNION ALL SELECT doc_id + {PLANT_OFFSET2}, text FROM documents
            WHERE doc_id < {PLANT_N}
        ), c AS (
          SELECT doc_id,
                 MIN(doc_id) OVER (PARTITION BY text) AS cluster,
                 COUNT(*) OVER (PARTITION BY text) AS csz
          FROM u
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(cluster AS BIGINT) AS cluster
        FROM c WHERE csz >= 2
    """
    sql["docs_source_chains"] = f"""
        WITH o AS (
          SELECT doc_id, source,
                 CASE WHEN doc_id - lag(doc_id) OVER
                        (PARTITION BY source ORDER BY doc_id) <= {CC_GAP}
                      THEN 0 ELSE 1 END AS brk
          FROM documents
        ), g AS (
          SELECT doc_id, source,
                 SUM(brk) OVER (PARTITION BY source ORDER BY doc_id) AS grp
          FROM o
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(MIN(doc_id) OVER (PARTITION BY source, grp) AS BIGINT)
                 AS component
        FROM g
    """
    sql["tokens_corpus_roundtrip"] = (
        "SELECT CAST(4096 AS BIGINT) AS rows, (1=1) AS bit_identical"
    )
    sql["ann_ivf_recall"] = "SELECT (1=1) AS recall_ge_080"
    sql["ann_ivf_index_recall"] = "SELECT (1=1) AS recall_ge_080"
    sql["dedup_exact"] = """
        SELECT doc_id FROM documents
        QUALIFY doc_id = min(doc_id) OVER (PARTITION BY text)
    """
    sql["dedup_exact_tokens"] = f"""
        WITH u AS (
            SELECT doc_id, text FROM documents
            UNION ALL
            SELECT doc_id + {PLANT_OFFSET}, text FROM documents
            WHERE doc_id < {PLANT_N}
        )
        SELECT doc_id FROM u
        QUALIFY doc_id = min(doc_id) OVER (PARTITION BY text)
    """
    sql["token_count"] = """
        SELECT doc_id,
               CAST(length(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens,
               CAST(greatest((strlen(text) + 3) // 4, 1) AS BIGINT) AS n_subword_est
        FROM documents
    """
    stop_list = ",".join(f"'{w}'" for w in F_text.STOPWORDS)
    sql["quality_score"] = f"""
        SELECT doc_id,
               CAST(length(string_split(text, ' ')) AS BIGINT) AS n_words,
               CAST(len(list_filter(string_split(text, ' '),
                                    w -> w IN ({stop_list}))) AS BIGINT) AS n_stop,
               CAST(length(text) - length(regexp_replace(text,
                    '[.,;:!?''"()-]', '', 'g')) AS BIGINT) AS n_punct,
               CAST(strlen(text) AS BIGINT) AS n_chars
        FROM documents
    """
    sql["fingerprint"] = """
        SELECT doc_id,
               CAST(CASE WHEN length(text) = 0 THEN 0 ELSE
                 list_reduce([CAST(unicode(substr(text, i, 1)) AS BIGINT)
                              FOR i IN range(1, length(text) + 1)],
                             (a, b) -> (a * 31 + b) % 2147483647)
               END AS BIGINT) AS fp
        FROM documents
    """
    bpe_rx = " ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+"
    sql["token_count_bpe"] = (
        "SELECT doc_id, "
        f"CAST(len(regexp_extract_all(text, '{bpe_rx}')) AS BIGINT) "
        "AS n_bpe_tokens FROM documents"
    )
    sql["approx_distinct_text"] = "SELECT (1=1) AS err_le_5pct"
    sql["heavy_hitter_bigrams"] = f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                     AS w,
                 unnest(generate_series(1, len(string_split_regex(
                     lower(text), '[^a-z0-9]+')))) AS i
          FROM documents
        ), bg AS (
          SELECT a.w || ' ' || b.w AS bigram
          FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
          WHERE a.w <> '' AND b.w <> ''
        ), tot AS (SELECT COUNT(*) AS n FROM bg),
        c AS (SELECT bigram, COUNT(*) AS cnt FROM bg GROUP BY bigram)
        SELECT bigram, CAST(cnt AS BIGINT) AS n
        FROM c, tot WHERE cnt >= CEIL({HH_SUPPORT} * tot.n)
    """
    sql["docs_redact_pii"] = (
        """
        SELECT doc_id,
               regexp_replace(regexp_replace(
                 CASE WHEN doc_id < """
        + str(PLANT_N)
        + """ THEN text || ' contact user' || doc_id
                        || '@mail.example.com or call +1-555-'
                        || lpad(CAST(doc_id AS VARCHAR), 4, '0') || ' now'
                      ELSE text END,
                 '[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}', '<EMAIL>', 'g'),
                 '\\+[0-9][0-9-]{6,}[0-9]', '<PHONE>', 'g') AS text
        FROM documents WHERE doc_id < 120
    """
    )
    from ..functions.sampling import HASH_MULT, sample_predicate_sql

    sql["docs_token_budget_sample"] = f"""
        WITH h AS (
            SELECT doc_id, source, length(text) AS n,
                   (doc_id * {HASH_MULT}) % 4294967296 AS hk
            FROM documents
        ), r AS (
            SELECT doc_id, source, n,
                   coalesce(sum(n) OVER (
                       PARTITION BY source ORDER BY hk, doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS bef
            FROM h
        )
        SELECT doc_id, source, CAST(n AS BIGINT) AS n_tok
        FROM r WHERE bef < {TOKEN_BUDGET}
    """

    sql["sample_stratified"] = (
        "SELECT doc_id FROM documents WHERE "
        + sample_predicate_sql(SAMPLE_RATES, SAMPLE_DEFAULT)
    )
    L = PACK_SEQ_LEN
    sql["pack_sequences"] = f"""
        WITH s AS (
          SELECT source, string_agg(text, '' ORDER BY doc_id) AS all_text
          FROM documents GROUP BY source
        ),
        c AS (
          SELECT source, all_text,
                 UNNEST(range(0, (length(all_text) + {L} - 1) // {L})) AS seq_id
          FROM s
        )
        SELECT source,
               CAST(seq_id AS BIGINT) AS seq_id,
               CAST(least({L}, length(all_text) - seq_id * {L}) AS BIGINT)
                 AS n_tok,
               array_to_string(
                 [CAST(unicode(substr(all_text,
                                      CAST(seq_id * {L} + i AS INT), 1)) AS INT)
                  FOR i IN range(1, CAST(least({L}, length(all_text)
                                              - seq_id * {L}) AS INT) + 1)],
                 ',') AS tok_str
        FROM c
    """
    sql["pack_sequences_segments"] = f"""
        WITH s AS (
          SELECT source, string_agg(text, '' ORDER BY doc_id) AS all_text
          FROM documents GROUP BY source
        ),
        c AS (
          SELECT source, all_text,
                 UNNEST(range(0, (length(all_text) + {L} - 1) // {L})) AS seq_id
          FROM s
        ),
        d AS (
          SELECT source,
                 coalesce(sum(length(text)) OVER (
                     PARTITION BY source ORDER BY doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                 ), 0) AS g
          FROM documents
          WHERE length(text) > 0
        ),
        segs AS (
          SELECT source, g // {L} AS seq_id,
                 array_to_string(
                     list(CAST(g % {L} AS VARCHAR) ORDER BY g), ','
                 ) AS seg_str
          FROM d GROUP BY source, g // {L}
        )
        SELECT c.source,
               CAST(c.seq_id AS BIGINT) AS seq_id,
               CAST(least({L}, length(all_text) - c.seq_id * {L}) AS BIGINT)
                 AS n_tok,
               array_to_string(
                 [CAST(unicode(substr(all_text,
                                      CAST(c.seq_id * {L} + i AS INT), 1)) AS INT)
                  FOR i IN range(1, CAST(least({L}, length(all_text)
                                              - c.seq_id * {L}) AS INT) + 1)],
                 ',') AS tok_str,
               coalesce(segs.seg_str, '') AS seg_str
        FROM c LEFT JOIN segs
          ON segs.source = c.source AND segs.seq_id = c.seq_id
    """
    from ..functions.sampling import HASH_MULT as _HM

    sql["pipeline_tokens_prep"] = f"""
        WITH pos AS (
            SELECT doc_id, unnest([CAST(unicode(substr(text, i, 1)) AS BIGINT)
                                   FOR i IN range(1, length(text) + 1)]) AS t
            FROM documents
        ), dv AS (
            SELECT doc_id, count(DISTINCT t) AS n_distinct
            FROM pos GROUP BY doc_id
        ), gg AS (
            SELECT doc_id,
                   unnest([(CAST(unicode(substr(text, i, 1)) AS BIGINT)
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 1, 1)) AS BIGINT))
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 2, 1)) AS BIGINT)
                           FOR i IN range(1, length(text) - 1)]) AS k
            FROM documents
        ), gr AS (
            SELECT doc_id, count(*) - count(DISTINCT k) AS n_dup,
                   count(*) AS n_grams
            FROM gg GROUP BY doc_id
        ), kept AS (
            SELECT d.doc_id, d.source, d.text
            FROM documents d
            JOIN dv USING (doc_id) LEFT JOIN gr USING (doc_id)
            WHERE length(d.text) BETWEEN {QF_MIN_TOK} AND {QF_MAX_TOK}
              AND dv.n_distinct >= {QF_MIN_DISTINCT}
              AND coalesce(gr.n_dup, 0) * {QF_DUP_DEN}
                      <= coalesce(gr.n_grams, 0) * {QF_DUP_NUM}
        ), hsh AS (
            SELECT doc_id, source, text, length(text) AS n,
                   (doc_id * {_HM}) % 4294967296 AS hk
            FROM kept
        ), rr AS (
            SELECT doc_id, source, text,
                   coalesce(sum(n) OVER (
                       PARTITION BY source ORDER BY hk, doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS bef
            FROM hsh
        ), samp AS (
            SELECT doc_id, source, text FROM rr
            WHERE bef < {PIPE_TOKEN_BUDGET}
        ), s AS (
            SELECT source, string_agg(text, '' ORDER BY doc_id) AS all_text
            FROM samp GROUP BY source
        ), c AS (
            SELECT source, all_text,
                   UNNEST(range(0, (length(all_text) + {L} - 1) // {L}))
                       AS seq_id
            FROM s
        ), d2 AS (
            SELECT source,
                   coalesce(sum(length(text)) OVER (
                       PARTITION BY source ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS g2
            FROM samp WHERE length(text) > 0
        ), segs AS (
            SELECT source, g2 // {L} AS seq_id,
                   array_to_string(
                       list(CAST(g2 % {L} AS VARCHAR) ORDER BY g2), ','
                   ) AS seg_str
            FROM d2 GROUP BY source, g2 // {L}
        )
        SELECT c.source,
               CAST(c.seq_id AS BIGINT) AS seq_id,
               CAST(least({L}, length(all_text) - c.seq_id * {L}) AS BIGINT)
                 AS n_tok,
               array_to_string(
                 [CAST(unicode(substr(all_text,
                                      CAST(c.seq_id * {L} + i AS INT), 1)) AS INT)
                  FOR i IN range(1, CAST(least({L}, length(all_text)
                                              - c.seq_id * {L}) AS INT) + 1)],
                 ',') AS tok_str,
               coalesce(segs.seg_str, '') AS seg_str
        FROM c LEFT JOIN segs
          ON segs.source = c.source AND segs.seq_id = c.seq_id
    """
    sql["vocab_topk"] = """
        SELECT CAST(t AS BIGINT) AS token, CAST(COUNT(*) AS BIGINT) AS n
        FROM (SELECT UNNEST([unicode(substr(text, i, 1))
                             FOR i IN range(1, length(text) + 1)]) AS t
              FROM documents)
        GROUP BY t
        ORDER BY n DESC, token ASC
        LIMIT 30
    """
    sql["docs_longest20"] = """
        SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
        FROM documents
        ORDER BY n_chars DESC, doc_id ASC
        LIMIT 20
    """
    def _cnt(m):
        L = len(m)
        return (
            f"(length(text) - length(replace(text, '{m}', ''))) // {L}"
        )

    marks = {
        "en": (" the ", " and ", " of "),
        "de": (" der ", " und ", " die "),
        "es": (" el ", " de ", " la "),
        "fr": (" le ", " et ", " la "),
    }
    exprs = {
        lang: " + ".join(_cnt(m) for m in ms) for lang, ms in marks.items()
    }
    # tie-break = np.argmax semantics: first language (en,de,es,fr order)
    # holding the maximum
    sql["lang_id"] = f"""
        WITH s AS (
          SELECT doc_id,
                 {exprs['en']} AS en,
                 {exprs['de']} AS de,
                 {exprs['es']} AS es,
                 {exprs['fr']} AS fr
          FROM documents
        )
        SELECT doc_id,
               CASE WHEN greatest(en, de, es, fr) = 0 THEN 'unk'
                    WHEN en >= de AND en >= es AND en >= fr THEN 'en'
                    WHEN de >= es AND de >= fr THEN 'de'
                    WHEN es >= fr THEN 'es'
                    ELSE 'fr' END AS lang_pred,
               CAST(greatest(en, de, es, fr) AS BIGINT) AS lang_score
        FROM s
    """
    sql["ann_topk"] = """
        SELECT vec_id FROM embeddings
        ORDER BY list_cosine_similarity(embedding,
                   (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC,
                 vec_id
        LIMIT 10
    """
    sql["docs_chunked"] = f"""
        WITH t AS (
          SELECT doc_id, n_chars AS n FROM documents WHERE n_chars > 0
        )
        SELECT doc_id,
               CAST(unnest(generate_series(
                   0, CAST(ceil(n / {CHUNK_STRIDE}.0) AS BIGINT) - 1))
                 AS BIGINT) AS chunk_id,
               CAST(unnest(generate_series(
                   0, CAST(ceil(n / {CHUNK_STRIDE}.0) AS BIGINT) - 1))
                 * {CHUNK_STRIDE} AS BIGINT) AS start,
               CAST(LEAST({CHUNK_LEN},
                   n - unnest(generate_series(
                       0, CAST(ceil(n / {CHUNK_STRIDE}.0) AS BIGINT) - 1))
                     * {CHUNK_STRIDE}) AS BIGINT) AS chunk_len
        FROM t
    """
    sql["ingest_jsonl"] = """
        SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, source
        FROM documents
    """
    sql["ingest_csv"] = sql["ingest_jsonl"]
    sql["ingest_jsonl_gz"] = sql["ingest_jsonl"]
    sql["ingest_jsonl_zst"] = sql["ingest_jsonl"]
    sql["tokens_remove_spans_planted"] = """
        SELECT CAST(d AS BIGINT) AS doc_id, CAST(100 AS BIGINT) AS n_tok,
               array_to_string(
                   [CAST(d * 1000 + j AS VARCHAR) FOR j IN range(0, 100)],
                   ',') AS tok_str
        FROM range(40) t(d)
    """
    sql["dedup_spans_tokens_planted"] = """
        SELECT CAST(i AS BIGINT) AS doc_a, CAST(i + 20 AS BIGINT) AS doc_b
        FROM range(5) t(i)
    """
    sql["dedup_spans_planted"] = """
        SELECT CAST(i AS BIGINT) AS doc_a, CAST(i + 20 AS BIGINT) AS doc_b
        FROM range(5) t(i)
    """
    sql["quantile_sketch_gate"] = """
        SELECT '0.5' AS q, TRUE AS ok
        UNION ALL SELECT '0.9', TRUE
        UNION ALL SELECT '0.99', TRUE
        ORDER BY q
    """
    sql["pipeline_pretrain_corpus"] = """
        WITH norm AS (
          SELECT doc_id, source,
                 trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS text
          FROM documents
        ), qual AS (
          SELECT *, CAST(length(string_split(text, ' ')) AS BIGINT)
                        AS n_words
          FROM norm
          WHERE length(string_split(text, ' ')) >= 5
            AND strlen(text) <= 10000
        ), bench AS (
          SELECT * FROM qual
          WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 5 = 0
        ), corp AS (
          SELECT * FROM qual
          WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 5 <> 0
        ), dedup AS (
          SELECT * FROM corp
          QUALIFY doc_id = min(doc_id) OVER (PARTITION BY text)
        ), tok AS (
          SELECT doc_id, w,
                 row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
          FROM (SELECT doc_id,
                       unnest(string_split_regex(text, '[^a-z0-9]+')) AS w,
                       unnest(generate_series(1, len(string_split_regex(
                           text, '[^a-z0-9]+')))) AS i
                FROM (SELECT doc_id, text FROM dedup
                      UNION ALL SELECT doc_id, text FROM bench))
          WHERE w <> ''
        ), g AS (
          SELECT doc_id,
                 w || ' ' || lead(w, 1) OVER win || ' '
                   || lead(w, 2) OVER win || ' '
                   || lead(w, 3) OVER win || ' '
                   || lead(w, 4) OVER win AS gram
          FROM tok WINDOW win AS (PARTITION BY doc_id ORDER BY j)
          QUALIFY lead(w, 4) OVER win IS NOT NULL
        ), bgrams AS (
          SELECT DISTINCT gram FROM g
          WHERE doc_id IN (SELECT doc_id FROM bench)
        ), contaminated AS (
          SELECT DISTINCT g.doc_id FROM g JOIN bgrams USING (gram)
          WHERE g.doc_id IN (SELECT doc_id FROM dedup)
        )
        SELECT source,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_words) AS BIGINT) AS n_words
        FROM dedup
        WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)
        GROUP BY 1 ORDER BY 1
    """
    sql["grouped_quantile_sketch_gate"] = """
        SELECT event_type, q, TRUE AS ok
        FROM (SELECT DISTINCT event_type FROM events),
             (VALUES ('0.5'), ('0.9'), ('0.99')) t(q)
        ORDER BY event_type, q
    """
    sql["docs_decontaminate"] = """
        WITH tok AS (
          SELECT doc_id, w,
                 row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
          FROM (SELECT doc_id,
                       unnest(string_split_regex(lower(text),
                                                 '[^a-z0-9]+')) AS w,
                       unnest(generate_series(1, len(string_split_regex(
                           lower(text), '[^a-z0-9]+')))) AS i
                FROM documents)
          WHERE w <> ''
        ), g AS (
          SELECT doc_id,
                 w || ' ' || lead(w, 1) OVER win || ' '
                   || lead(w, 2) OVER win || ' '
                   || lead(w, 3) OVER win || ' '
                   || lead(w, 4) OVER win AS gram
          FROM tok WINDOW win AS (PARTITION BY doc_id ORDER BY j)
          QUALIFY lead(w, 4) OVER win IS NOT NULL
        ), b AS (
          SELECT DISTINCT gram FROM g
          WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 5 = 0
        )
        SELECT g.doc_id, CAST(count(DISTINCT g.gram) AS BIGINT) AS n_hits
        FROM g JOIN b USING (gram)
        WHERE (CAST(g.doc_id AS HUGEINT) * 2654435761) % 4294967296 % 5 <> 0
        GROUP BY 1 ORDER BY 1
    """
    sql["docs_mixture_sample"] = f"""
        SELECT doc_id, source FROM documents
        WHERE (CAST(doc_id AS HUGEINT) * 2654435761)
              % 4294967296 % 10000 <
              CASE source WHEN 'src0' THEN 10000
                          WHEN 'src1' THEN 7500
                          WHEN 'src2' THEN 5000
                          ELSE {MIX_DEFAULT_BP} END
    """
    from ..functions.shuffle import epoch_key_sql

    _shuf_key = epoch_key_sql(EPOCH_SHUF_SEED, EPOCH_SHUF_EPOCH)
    sql["docs_epoch_shuffle"] = f"""
        SELECT doc_id, {_shuf_key} AS shuffle_key FROM documents
        ORDER BY shuffle_key, doc_id LIMIT {EPOCH_SHUF_K}
    """
    sql["training_loader_gate"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(length(text)) AS BIGINT) AS total_tokens,
               (SELECT CAST(sum(cp) AS BIGINT) FROM (
                  SELECT unnest([CAST(unicode(substr(text, i, 1)) AS INT)
                                 FOR i IN range(1, length(text) + 1)]) AS cp
                  FROM documents)) AS tok_value_sum,
               (1=1) AS budget_respected,
               (1=1) AS order_is_store_order,
               (1=1) AS resume_matches,
               (1=1) AS shards_partition
        FROM documents
    """
    sql["training_loader_source_filter"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(length(text)) AS BIGINT) AS total_tokens,
               (SELECT CAST(sum(cp) AS BIGINT) FROM (
                  SELECT unnest([CAST(unicode(substr(text, i, 1)) AS INT)
                                 FOR i IN range(1, length(text) + 1)]) AS cp
                  FROM documents WHERE source = 'src1')) AS tok_value_sum,
               (1=1) AS only_kept_source,
               (1=1) AS shuffle_same_set
        FROM documents WHERE source = 'src1'
    """
    sql["store_time_travel"] = """
        WITH cp AS (
          SELECT doc_id,
                 length(text) AS n_tok,
                 (SELECT sum(u) FROM unnest([CAST(unicode(substr(text, i, 1))
                      AS INT) FOR i IN range(1, length(text) + 1)]) t(u))
                 AS vsum
          FROM documents)
        SELECT 1 AS version, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(n_tok) AS BIGINT) AS total_tokens,
               CAST(sum(vsum) AS BIGINT) AS tok_value_sum FROM cp
        UNION ALL
        SELECT 2, CAST(count(*) AS BIGINT), CAST(sum(n_tok) AS BIGINT),
               CAST(sum(vsum) AS BIGINT) FROM cp WHERE doc_id % 2 = 1
    """
    sql["docs_split"] = f"""
        SELECT doc_id,
               CASE WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                         % 4294967296 % 10000
                         < {SPLIT_VAL_PCT * 100} THEN 'val'
                    WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                         % 4294967296 % 10000
                         < {(SPLIT_VAL_PCT + SPLIT_TEST_PCT) * 100}
                         THEN 'test'
                    ELSE 'train' END AS split
        FROM documents
    """
    sql["docs_sample2_per_source"] = """
        SELECT source, doc_id FROM (
          SELECT source, doc_id,
                 ROW_NUMBER() OVER (
                   PARTITION BY source
                   ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296, doc_id
                 ) AS rn
          FROM documents
        ) WHERE rn <= 2
    """
    sql["docs_normalize"] = f"""
        SELECT doc_id,
               trim(regexp_replace(lower(
                 CASE WHEN doc_id < {PLANT_N}
                      THEN '  ' || upper(substr(text, 1, 20))
                           || substr(text, 21) || chr(9) || ' '
                      ELSE text END),
                 '\\s+', ' ', 'g')) AS text
        FROM documents WHERE doc_id < 120
    """
    sql["users_purchase_and_error"] = """
        SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
        INTERSECT
        SELECT DISTINCT user_id FROM events WHERE event_type = 'error'
    """
    sql["tpch_q1"] = """
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS sum_base_cents,
               CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                   + 0.5) AS BIGINT))
                    AS BIGINT) AS sum_disc_cents,
               CAST(count(*) AS BIGINT) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1999-09-02 00:00:00'
        GROUP BY l_returnflag, l_linestatus
    """
    sql["tpch_q6"] = """
        SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice * l_discount
                                            * 10000 + 0.5) AS BIGINT)), 0)
                    AS BIGINT) AS revenue_unit
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND l_discount >= 0.05 - 1e-9 AND l_discount <= 0.07 + 1e-9
          AND l_quantity < 24
    """
    sql["tpch_q14"] = """
        SELECT CAST(sum(CASE WHEN p_type LIKE 'PROMO%' THEN
                 CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                      AS BIGINT) ELSE 0 END) AS BIGINT) AS promo_cents,
               CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                   + 0.5) AS BIGINT)) AS BIGINT)
                 AS total_cents
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1996-04-01'
    """
    sql["tpch_ptype_like"] = """
        SELECT p_partkey FROM part WHERE p_name LIKE '%blue%'
    """
    sql["tpch_q13"] = """
        SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
        FROM (
          SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
          FROM customer LEFT JOIN orders
            ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
          GROUP BY c_custkey
        ) GROUP BY c_count
    """
    sql["tpch_segment_orders"] = """
        SELECT c_mktsegment,
               CAST(count(*) AS BIGINT) AS n_orders,
               CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS total_cents
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """
    sql["tpch_region_suppliers"] = """
        SELECT r_name, CAST(count(*) AS BIGINT) AS n_suppliers
        FROM supplier
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY r_name
    """
    sql["token_stats_pushdown"] = """
        WITH t AS (
          SELECT doc_id,
                 [CAST(unicode(substr(text, i, 1)) AS INT)
                  FOR i IN range(1, length(text) + 1)] AS toks
          FROM documents
        )
        SELECT doc_id,
               CAST(length(toks) AS BIGINT) AS n_tok,
               CAST(coalesce(list_sum(toks), 0) AS BIGINT) AS tok_sum,
               CAST(list_min(toks) AS INT) AS tok_min,
               CAST(list_max(toks) AS INT) AS tok_max
        FROM t
    """
    sql["token_histogram_pushdown"] = """
        WITH t AS (
          SELECT unnest([CAST(unicode(substr(text, i, 1)) AS INT)
                         FOR i IN range(1, length(text) + 1)]) AS token
          FROM documents
        )
        SELECT CAST(token AS BIGINT) AS token,
               CAST(count(*) AS BIGINT) AS cnt
        FROM t GROUP BY 1
        ORDER BY cnt DESC, token LIMIT 20
    """
    sql["contains_token_pushdown"] = (
        "SELECT doc_id FROM documents WHERE contains(text, 'q')"
    )
    sql["compaction_roundtrip"] = (
        "SELECT (1=1) AS merged, (1=1) AS bit_identical"
    )
    sql["tpch_order_revenue"] = """
        SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
               CAST(epoch_us(o.o_orderdate) AS BIGINT) AS o_orderdate_us,
               o.o_orderpriority,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                    * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE o.o_orderstatus = 'F'
          AND l.l_shipdate >= TIMESTAMP '1996-01-01'
        GROUP BY 1, 2, 3
    """
    sql["tpch_order_revenue_salted"] = sql["tpch_order_revenue"]
    sql["tpch_order_revenue_bloom"] = sql["tpch_order_revenue"]
    sql["tpch_q10"] = """
        WITH r AS (
          SELECT o_custkey AS c_custkey,
                 SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT)) AS revenue_cents
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey
          WHERE l_returnflag = 'R'
            AND o_orderdate >= '1996-01-01'
            AND o_orderdate < '1997-01-01'
          GROUP BY o_custkey
        )
        SELECT c.c_custkey, c.c_name, n.n_name,
               CAST(r.revenue_cents AS BIGINT) AS revenue_cents
        FROM r
        JOIN customer c USING (c_custkey)
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        ORDER BY revenue_cents DESC, c_custkey LIMIT 20
    """
    sql["tpch_q4_exists"] = """
        SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n
        FROM orders
        WHERE o_orderdate >= '1996-01-01' AND o_orderdate < '1996-07-01'
          AND EXISTS (
            SELECT 1 FROM lineitem
            WHERE l_orderkey = o_orderkey
              AND l_shipdate > o_orderdate + INTERVAL 60 DAY
          )
        GROUP BY o_orderpriority
    """
    sql["tpch_q16_brand_suppliers"] = """
        SELECT p_brand,
               CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE p_brand <> 'Brand#45' AND p_size IN (1, 4, 7)
        GROUP BY p_brand
    """
    sql["tpch_q19_disjunctive"] = """
        SELECT CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                   + 0.5) AS BIGINT)) AS BIGINT)
                 AS revenue_cents
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE (p_brand = 'Brand#13' AND p_size BETWEEN 1 AND 10
               AND l_quantity BETWEEN 1 AND 20)
           OR (p_brand = 'Brand#25' AND p_size BETWEEN 5 AND 20
               AND l_quantity BETWEEN 10 AND 35)
           OR (p_brand = 'Brand#22' AND p_size BETWEEN 1 AND 30
               AND l_quantity BETWEEN 20 AND 50)
    """
    sql["docs_top3_per_source"] = """
        WITH r AS (
          SELECT doc_id, source,
                 CAST(length(text) AS BIGINT) AS n_tok,
                 ROW_NUMBER() OVER (PARTITION BY source
                     ORDER BY length(text) DESC, doc_id ASC) AS rn
          FROM documents
        )
        SELECT doc_id, source, n_tok FROM r WHERE rn <= 3
    """
    sql["customers_no_urgent_orders"] = """
        SELECT c_custkey FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                WHERE o_orderpriority = '1-URGENT')
    """
    sql["docs_word_search"] = f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS w
          FROM documents
        )
        SELECT doc_id FROM tok
        WHERE w IN ({", ".join(f"'{t}'" for t in sorted(set(SEARCH_TERMS)))})
        GROUP BY doc_id
        HAVING count(DISTINCT w) = {len(set(SEARCH_TERMS))}
        ORDER BY doc_id
    """
    sql["docs_word_search_indexed"] = sql["docs_word_search"]
    sql["docs_phrase_search"] = """
        WITH tok AS (
          SELECT doc_id, w,
                 row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
          FROM (SELECT doc_id,
                       unnest(string_split_regex(lower(text),
                                                 '[^a-z0-9]+')) AS w,
                       unnest(generate_series(1, len(string_split_regex(
                           lower(text), '[^a-z0-9]+')))) AS i
                FROM documents)
          WHERE w <> ''
        )
        SELECT DISTINCT a.doc_id
        FROM tok a JOIN tok b
          ON a.doc_id = b.doc_id AND b.j = a.j + 1
        WHERE a.w = 'merge' AND b.w = 'sort'
        ORDER BY a.doc_id
    """
    sql["tpch_q3"] = """
        SELECT l.l_orderkey,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                   * 100 + 0.5) AS BIGINT)) AS BIGINT)
                   AS revenue_cents,
               epoch_us(o.o_orderdate) AS o_date_us
        FROM customer c, orders o, lineitem l
        WHERE c.c_mktsegment = 'BUILDING'
          AND c.c_custkey = o.o_custkey
          AND l.l_orderkey = o.o_orderkey
          AND o.o_orderdate < TIMESTAMP '1997-01-01'
          AND l.l_shipdate > TIMESTAMP '1997-01-01'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue_cents DESC, l.l_orderkey
        LIMIT 10
    """
    sql["tpch_q5"] = """
        SELECT n.n_name,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                   * 100 + 0.5) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM customer c, orders o, lineitem l, supplier s, nation n, region r
        WHERE c.c_custkey = o.o_custkey
          AND l.l_orderkey = o.o_orderkey
          AND l.l_suppkey = s.s_suppkey
          AND c.c_nationkey = s.s_nationkey
          AND s.s_nationkey = n.n_nationkey
          AND n.n_regionkey = r.r_regionkey
          AND r.r_name = 'ASIA'
          AND o.o_orderdate >= TIMESTAMP '1996-01-01'
          AND o.o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n.n_name
        ORDER BY revenue_cents DESC, n_name
    """
    sql["tpch_q17"] = """
        WITH bp AS (
          SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'
        ), agg AS (
          SELECT l_partkey,
                 CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS s,
                 CAST(count(*) AS BIGINT) AS c
          FROM lineitem JOIN bp ON l_partkey = p_partkey
          GROUP BY l_partkey
        )
        SELECT CAST(coalesce(sum(CAST(floor(l.l_extendedprice * 100 + 0.5)
                                      AS BIGINT)), 0) AS BIGINT)
                   AS total_cents,
               CAST(count(*) AS BIGINT) AS n_matched
        FROM lineitem l JOIN agg a ON l.l_partkey = a.l_partkey
        WHERE CAST(l.l_quantity AS BIGINT) * 5 * a.c < a.s
    """
    sql["tpch_q2"] = """
        WITH c AS (
          SELECT c_name, c_nationkey,
                 CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
          FROM customer
          JOIN nation ON c_nationkey = n_nationkey
          JOIN region ON n_regionkey = r_regionkey
          WHERE r_name = 'EUROPE'
        ), m AS (
          SELECT c_nationkey, min(cents) AS mc FROM c GROUP BY 1
        )
        SELECT n_name, c.c_name, c.cents AS acctbal_cents
        FROM c
        JOIN m ON c.c_nationkey = m.c_nationkey AND c.cents = m.mc
        JOIN nation ON c.c_nationkey = n_nationkey
        ORDER BY acctbal_cents, n_name, c_name
    """
    sql["tpch_q8"] = """
        WITH j AS (
          SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                 CASE WHEN s.s_nationkey = 3
                      THEN CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                      * 100 + 0.5) AS BIGINT)
                      ELSE 0 END AS nc,
                 CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                            * 100 + 0.5) AS BIGINT) AS tc
          FROM lineitem l
          JOIN part p ON l.l_partkey = p.p_partkey
          JOIN supplier s ON l.l_suppkey = s.s_suppkey
          JOIN orders o ON l.l_orderkey = o.o_orderkey
          JOIN customer c ON o.o_custkey = c.c_custkey
          JOIN nation n ON c.c_nationkey = n.n_nationkey
          JOIN region r ON n.n_regionkey = r.r_regionkey
          WHERE p.p_type = 'PROMO'
            AND r.r_name = 'AMERICA'
            AND o.o_orderdate >= TIMESTAMP '1996-01-01'
            AND o.o_orderdate < TIMESTAMP '1998-01-01'
        )
        SELECT o_year,
               CAST(sum(nc) AS BIGINT) AS nation_cents,
               CAST(sum(tc) AS BIGINT) AS total_cents,
               CAST(CAST(sum(nc) AS BIGINT) * 1000
                    // greatest(CAST(sum(tc) AS BIGINT), 1)
                    AS BIGINT) AS share_milli
        FROM j GROUP BY 1 ORDER BY 1
    """
    sql["tpch_q9"] = """
        SELECT n_name,
               CAST(year(o_orderdate) AS BIGINT) AS o_year,
               CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                   * 100 + 0.5) AS BIGINT)
                        - CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                          * CAST(l_quantity AS BIGINT))
                    AS BIGINT) AS profit_cents
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN orders ON l_orderkey = o_orderkey
        WHERE p_name LIKE '%widget%'
        GROUP BY 1, 2
        ORDER BY n_name, o_year DESC
    """
    sql["tpch_q11"] = """
        WITH v AS (
          SELECT CAST(l_partkey AS BIGINT) AS p_partkey,
                 CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                     * 100 + 0.5) AS BIGINT)) AS BIGINT)
                     AS value_cents
          FROM lineitem GROUP BY 1
        )
        SELECT p_partkey, value_cents FROM v
        WHERE value_cents * (SELECT count(*) FROM v) * 10
              > 12 * (SELECT CAST(sum(value_cents) AS BIGINT) FROM v)
        ORDER BY value_cents DESC, p_partkey
    """
    sql["tpch_q12"] = """
        SELECT l_returnflag,
               CAST(count(*) FILTER (o_orderpriority IN
                                     ('1-URGENT', '2-HIGH'))
                    AS BIGINT) AS high_line_count,
               CAST(count(*) FILTER (o_orderpriority NOT IN
                                     ('1-URGENT', '2-HIGH'))
                    AS BIGINT) AS low_line_count
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
        GROUP BY 1 ORDER BY 1
    """
    sql["tpch_q20"] = """
        WITH l AS (
          SELECT l_suppkey, CAST(l_quantity AS BIGINT) AS q,
                 CASE WHEN p_type = 'PROMO'
                      THEN CAST(l_quantity AS BIGINT) ELSE 0 END AS pq
          FROM lineitem JOIN part ON l_partkey = p_partkey
          WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            AND l_shipdate < TIMESTAMP '1997-01-01'
        ), s AS (
          SELECT l_suppkey, CAST(sum(q) AS BIGINT) AS tq,
                 CAST(sum(pq) AS BIGINT) AS pq
          FROM l GROUP BY 1
        )
        SELECT s_name, n_name
        FROM supplier
        JOIN s ON s_suppkey = l_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        WHERE s.pq * 5 > s.tq
        ORDER BY s_name
    """
    sql["tpch_q21"] = """
        WITH pm AS (
          SELECT CAST(l_orderkey AS BIGINT) AS ok,
                 CAST(l_suppkey AS BIGINT) AS sk,
                 max(l_shipdate) AS m
          FROM lineitem GROUP BY 1, 2
        ), f AS (
          SELECT pm.* FROM pm
          JOIN orders ON pm.ok = o_orderkey
          WHERE o_orderstatus = 'F'
        ), ord AS (
          SELECT ok, max(m) AS om, count(*) AS ns FROM f GROUP BY 1
        ), atmax AS (
          SELECT f.ok, min(f.sk) AS sk, count(*) AS nmax
          FROM f JOIN ord USING (ok)
          WHERE f.m = ord.om
          GROUP BY 1
        )
        SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
        FROM atmax
        JOIN ord USING (ok)
        JOIN supplier ON atmax.sk = s_suppkey
        WHERE ord.ns >= 2 AND atmax.nmax = 1
        GROUP BY 1
        ORDER BY numwait DESC, s_name
        LIMIT 10
    """
    sql["like_trigram_indexed"] = """
        SELECT doc_id, text FROM documents WHERE text LIKE '%merge sort%'
    """
    sql["docs_repetition"] = """
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                     AS w,
                 unnest(generate_series(1, len(string_split_regex(
                     lower(text), '[^a-z0-9]+')))) AS i
          FROM documents
        ), bg AS (
          SELECT a.doc_id, a.w || ' ' || b.w AS bigram
          FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
          WHERE a.w <> '' AND b.w <> ''
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_bigrams,
               CAST(count(DISTINCT bigram) AS BIGINT) AS n_distinct,
               CAST((count(*) - count(DISTINCT bigram)) * 1000
                    // count(*) AS BIGINT) AS rep_milli
        FROM bg GROUP BY doc_id
    """
    def _prof(col: str, is_int: bool) -> str:
        mm = (
            f"CAST(min({col}) AS BIGINT) AS min_i, "
            f"CAST(max({col}) AS BIGINT) AS max_i"
            if is_int
            else "CAST(NULL AS BIGINT) AS min_i, CAST(NULL AS BIGINT) AS max_i"
        )
        return (
            f"SELECT '{col}' AS col, CAST(count(*) AS BIGINT) AS n_rows, "
            f"CAST(count(*) - count({col}) AS BIGINT) AS n_null, "
            f"CAST(count(DISTINCT {col}) AS BIGINT) AS n_distinct, "
            f"{mm} FROM orders"
        )

    sql["profile_orders"] = " UNION ALL ".join(
        _prof(c, i)
        for c, i in [
            ("o_orderkey", True),
            ("o_custkey", True),
            ("o_orderstatus", False),
            ("o_totalprice", False),
            ("o_orderdate", False),
            ("o_orderpriority", False),
        ]
    )
    sql["like_multiscan"] = """
        SELECT '%merge sort%' AS pattern, doc_id FROM documents
        WHERE text LIKE '%merge sort%'
        UNION ALL
        SELECT '%fast key%' AS pattern, doc_id FROM documents
        WHERE text LIKE '%fast key%'
        UNION ALL
        SELECT '%window window%' AS pattern, doc_id FROM documents
        WHERE text LIKE '%window window%'
    """
    sql["source_top_terms"] = """
        WITH tok AS (
          SELECT source,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS w
          FROM documents
        ), tf AS (
          SELECT source, w, CAST(count(*) AS BIGINT) AS tf
          FROM tok WHERE w <> '' GROUP BY 1, 2
        ), df AS (
          SELECT w, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
        ), s AS (
          SELECT source, w AS word,
                 CAST(tf * 1000000 // df AS BIGINT) AS score
          FROM tf JOIN df USING (w)
        ), r AS (
          SELECT *, row_number() OVER (
            PARTITION BY source ORDER BY score DESC, word
          ) AS rn FROM s
        )
        SELECT source, word, score FROM r WHERE rn <= 3
        ORDER BY source, score DESC, word
    """
    sql["roundtrip_embeddings"] = """
        SELECT (1 = 1) AS match, CAST(count(*) AS BIGINT) AS n_vecs
        FROM embeddings
    """
    sql["tpch_q15"] = """
        WITH rev AS (
          SELECT l_suppkey,
                 CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                     * 100 + 0.5) AS BIGINT)) AS BIGINT)
                     AS total_revenue_cents
          FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            AND l_shipdate < TIMESTAMP '1996-04-01'
          GROUP BY l_suppkey
        )
        SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
               total_revenue_cents
        FROM supplier JOIN rev ON s_suppkey = l_suppkey
        WHERE total_revenue_cents = (SELECT max(total_revenue_cents)
                                     FROM rev)
    """
    sql["tpch_q22"] = """
        WITH c AS (
          SELECT c_custkey, c_name,
                 CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
          FROM customer
        ), stat AS (
          SELECT CAST(sum(cents) AS BIGINT) AS s,
                 CAST(count(*) AS BIGINT) AS n
          FROM c WHERE cents > 0
        )
        SELECT right(c_name, 1) AS code,
               CAST(count(*) AS BIGINT) AS n_cust,
               CAST(sum(cents) AS BIGINT) AS total_cents
        FROM c, stat
        WHERE c.cents * stat.n > stat.s
          AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                WHERE o_orderpriority = '1-URGENT')
        GROUP BY 1 ORDER BY 1
    """
    sql["orders_lineitem_full_outer"] = """
        WITH o AS (
          SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT'
        ), l AS (
          SELECT l_orderkey FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '2000-01-01'
        )
        SELECT CAST(count(*) FILTER (o.o_orderkey IS NOT NULL
                                     AND l.l_orderkey IS NOT NULL)
                    AS BIGINT) AS n_matched,
               CAST(count(*) FILTER (l.l_orderkey IS NULL)
                    AS BIGINT) AS n_left_only,
               CAST(count(*) FILTER (o.o_orderkey IS NULL)
                    AS BIGINT) AS n_right_only
        FROM o FULL OUTER JOIN l ON o.o_orderkey = l.l_orderkey
    """
    sql["tpch_q7"] = """
        SELECT ns.n_name AS supp_nation,
               nc.n_name AS cust_nation,
               CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                   * 100 + 0.5) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM supplier s, lineitem l, orders o, customer c,
             nation ns, nation nc
        WHERE s.s_suppkey = l.l_suppkey
          AND o.o_orderkey = l.l_orderkey
          AND c.c_custkey = o.o_custkey
          AND s.s_nationkey = ns.n_nationkey
          AND c.c_nationkey = nc.n_nationkey
          AND ((ns.n_name = 'NATION_3' AND nc.n_name = 'NATION_7')
               OR (ns.n_name = 'NATION_7' AND nc.n_name = 'NATION_3'))
          AND l.l_shipdate >= TIMESTAMP '1996-01-01'
          AND l.l_shipdate < TIMESTAMP '1998-01-01'
        GROUP BY 1, 2, 3
        ORDER BY 1, 2, 3
    """
    sql["bigram_top20"] = """
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                     AS w,
                 unnest(generate_series(1, len(string_split_regex(
                     lower(text), '[^a-z0-9]+')))) AS i
          FROM documents
        )
        SELECT a.w || ' ' || b.w AS bigram, CAST(count(*) AS BIGINT) AS n
        FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
        WHERE a.w <> '' AND b.w <> ''
        GROUP BY 1 ORDER BY n DESC, bigram LIMIT 20
    """
    sql["orders_monthly"] = """
        SELECT strftime(date_trunc('month', o_orderdate), '%Y-%m')
                   AS month,
               CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS cents,
               CAST(count(*) AS BIGINT) AS n
        FROM orders GROUP BY 1
    """
    sql["user_event_seq"] = """
        SELECT user_id,
               string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
               CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY user_id
    """
    sql["docs_words_exploded"] = """
        WITH t AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                     AS word,
                 unnest(generate_series(1, len(string_split_regex(
                     lower(text), '[^a-z0-9]+')))) AS pos
          FROM documents WHERE doc_id < 50
        )
        SELECT doc_id, CAST(pos AS BIGINT) AS pos, word
        FROM t WHERE word <> ''
    """
    sql["orders_cube"] = """
        SELECT COALESCE(o_orderstatus, 'ALL') AS status,
               COALESCE(o_orderpriority, 'ALL') AS priority,
               CAST(count(*) AS BIGINT) AS n
        FROM orders
        GROUP BY CUBE (o_orderstatus, o_orderpriority)
    """
    sql["orders_rollup"] = """
        SELECT COALESCE(o_orderstatus, 'ALL') AS status,
               COALESCE(o_orderpriority, 'ALL') AS priority,
               CAST(count(*) AS BIGINT) AS n
        FROM orders
        GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
    """
    hcols = ", ".join(
        f"CAST(count(*) FILTER (WHERE hour(ts) = {h}) AS BIGINT) AS h{h}"
        for h in range(24)
    )
    sql["tpch_q18"] = """
        SELECT o.o_orderkey, o.o_custkey,
               epoch_us(o.o_orderdate) AS o_date_us,
               q.qty_sum
        FROM orders o JOIN (
          SELECT l_orderkey,
                 CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty_sum
          FROM lineitem GROUP BY l_orderkey
          HAVING sum(CAST(l_quantity AS BIGINT)) > 150
        ) q ON q.l_orderkey = o.o_orderkey
    """
    sql["docs_shuffled_head"] = """
        SELECT doc_id,
               CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT) AS h
        FROM documents
        ORDER BY h, doc_id LIMIT 25
    """
    sql["docs_compressibility_gate"] = f"""
        SELECT doc_id + {PLANT_OFFSET} AS doc_id, true AS is_flagged,
               true AS originals_mostly_clean
        FROM documents WHERE doc_id < {PLANT_N}
    """
    sql["bpe_train_gate"] = f"""
        SELECT CAST(i AS BIGINT) AS round, true AS merged_some,
               true AS shrank, true AS no_pair_left, true AS roundtrip_ok
        FROM range({BPE_MERGES}) t(i)
    """
    sql["bpe_apply_gate"] = """
        SELECT true AS train_parity, true AS unseen_roundtrip,
               true AS unseen_deterministic
    """
    sql["pipeline_tokenize_corpus"] = """
        SELECT true AS roundtrip_ok, true AS expand_restores,
               true AS tokens_shrank
    """
    sql["dedup_keep_best"] = f"""
        WITH planted AS (
            SELECT doc_id, text FROM documents
            UNION ALL
            SELECT doc_id + {PLANT_OFFSET} AS doc_id,
                   ' ' || text || ' ' AS text
            FROM documents WHERE doc_id < {PLANT_N}
        )
        SELECT doc_id FROM planted
        QUALIFY row_number() OVER (
            PARTITION BY regexp_replace(trim(text, ' '), ' +', ' ', 'g')
            ORDER BY length(text), doc_id) = 1
    """
    sql["tokens_truncate_pad"] = f"""
        SELECT doc_id,
               CAST(least(length(text), {TRUNC_LEN}) AS BIGINT) AS n_tok,
               array_to_string([CASE WHEN i <= length(text)
                                     THEN CAST(unicode(substr(text, i, 1)) AS INT)
                                     ELSE 0 END
                                FOR i IN range(1, {TRUNC_LEN} + 1)],
                               ',') AS tok_str
        FROM documents
    """
    sql["tokens_sliding_windows"] = f"""
        SELECT d.doc_id,
               CAST(w.s // {WIN_STRIDE} AS BIGINT) AS win_idx,
               CAST(least({WIN_LEN}, length(d.text) - w.s) AS BIGINT)
                   AS n_tok,
               array_to_string(
                   [CAST(unicode(substr(d.text, i, 1)) AS INT)
                    FOR i IN range(w.s + 1,
                                   least(w.s + {WIN_LEN},
                                         length(d.text)) + 1)],
                   ',') AS tok_str
        FROM documents d,
             UNNEST(range(0, length(d.text), {WIN_STRIDE})) AS w(s)
    """
    sql["tokens_shift_labels"] = """
        SELECT doc_id,
               CAST(length(text) AS BIGINT) AS n_tok,
               array_to_string([CASE WHEN i < length(text)
                                     THEN CAST(unicode(substr(text, i + 1, 1)) AS INT)
                                     ELSE -100 END
                                FOR i IN range(1, length(text) + 1)],
                               ',') AS lab_str
        FROM documents
    """
    sql["tokens_vocab_remap"] = f"""
        WITH pos AS (
            SELECT doc_id,
                   unnest(generate_series(1, length(text))) AS i,
                   unnest([CAST(unicode(substr(text, j, 1)) AS BIGINT)
                           FOR j IN range(1, length(text) + 1)]) AS t
            FROM documents
        ), top AS (
            SELECT t FROM pos GROUP BY t
            ORDER BY count(*) DESC, t LIMIT {VOCAB_TOPK}
        ), mapped AS (
            SELECT doc_id,
                   array_to_string(list(CASE WHEN t IN (SELECT t FROM top)
                                             THEN CAST(t AS VARCHAR)
                                             ELSE '-1' END
                                        ORDER BY i), ',') AS tok_str
            FROM pos GROUP BY doc_id
        )
        SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_tok,
               coalesce(m.tok_str, '') AS tok_str
        FROM documents d LEFT JOIN mapped m USING (doc_id)
    """
    sql["token_bigram_top20"] = """
        WITH pairs AS (
            SELECT unnest([CAST(unicode(substr(text, i, 1)) AS BIGINT) * 1114112
                           + CAST(unicode(substr(text, i + 1, 1)) AS BIGINT)
                           FOR i IN range(1, length(text))]) AS key
            FROM documents
        )
        SELECT CAST(key // 1114112 AS BIGINT) AS t1,
               CAST(key % 1114112 AS BIGINT) AS t2,
               CAST(count(*) AS BIGINT) AS n
        FROM pairs GROUP BY key ORDER BY n DESC, key LIMIT 20
    """
    sql["tokens_dispersion"] = """
        WITH pos AS (
            SELECT doc_id, unnest([CAST(unicode(substr(text, i, 1)) AS BIGINT)
                                   FOR i IN range(1, length(text) + 1)]) AS t
            FROM documents
        ), c AS (
            SELECT doc_id, t, count(*) AS cnt FROM pos GROUP BY doc_id, t
        ), agg AS (
            SELECT doc_id, count(*) AS n_distinct, sum(cnt * cnt) AS sum_sq,
                   max(cnt) AS max_count
            FROM c GROUP BY doc_id
        )
        SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_tok,
               CAST(coalesce(a.n_distinct, 0) AS BIGINT) AS n_distinct,
               CAST(coalesce(a.sum_sq, 0) AS BIGINT) AS sum_sq,
               CAST(coalesce(a.max_count, 0) AS BIGINT) AS max_count
        FROM documents d LEFT JOIN agg a USING (doc_id)
    """
    sql["tokens_dup_ngrams"] = f"""
        WITH g AS (
            SELECT doc_id,
                   unnest([(CAST(unicode(substr(text, i, 1)) AS BIGINT)
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 1, 1)) AS BIGINT))
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 2, 1)) AS BIGINT)
                           FOR i IN range(1, length(text) - 1)]) AS k
            FROM documents
        ), agg AS (
            SELECT doc_id, count(*) AS n_grams,
                   count(DISTINCT k) AS n_distinct
            FROM g GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(a.n_grams, 0) AS BIGINT) AS n_grams,
               CAST(coalesce(a.n_distinct, 0) AS BIGINT) AS n_distinct_grams
        FROM documents d LEFT JOIN agg a USING (doc_id)
    """
    sql["tokens_span_corrupt"] = f"""
        WITH pos AS (
            SELECT doc_id,
                   unnest(range(0, length(text))) AS p,
                   unnest([CAST(unicode(substr(text, j, 1)) AS BIGINT)
                           FOR j IN range(1, length(text) + 1)]) AS t
            FROM documents
        ), f AS (
            SELECT doc_id, p, t,
                   ((doc_id * {T_tok.SC_MULT} + p) % {T_tok.SC_MOD})
                       < {T_tok.SC_K} AS m
            FROM pos
        ), r AS (
            SELECT *, CASE WHEN m AND coalesce(
                         NOT lag(m) OVER (PARTITION BY doc_id ORDER BY p),
                         TRUE) THEN 1 ELSE 0 END AS st
            FROM f
        ), rid AS (
            SELECT *, SUM(st) OVER (PARTITION BY doc_id ORDER BY p)
                          AS run_num
            FROM r
        ), inp AS (
            SELECT doc_id,
                   array_to_string(
                       list(CASE WHEN m THEN CAST(-run_num AS VARCHAR)
                                 ELSE CAST(t AS VARCHAR) END ORDER BY p)
                           FILTER (WHERE NOT m OR st = 1),
                       ',') AS input_str
            FROM rid GROUP BY doc_id
        ), ti AS (
            SELECT doc_id, 2 * p AS o, t AS v FROM rid WHERE m
            UNION ALL
            SELECT doc_id, 2 * p - 1 AS o, -run_num AS v FROM rid
            WHERE st = 1
        ), tgt AS (
            SELECT doc_id,
                   array_to_string(list(CAST(v AS VARCHAR) ORDER BY o),
                                   ',') AS target_str
            FROM ti GROUP BY doc_id
        ), ns AS (
            SELECT doc_id, sum(st) AS n_spans FROM rid GROUP BY doc_id
        )
        SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_tok,
               CAST(coalesce(ns.n_spans, 0) AS BIGINT) AS n_spans,
               coalesce(inp.input_str, '') AS input_str,
               coalesce(tgt.target_str, '') AS target_str
        FROM documents d
        LEFT JOIN ns USING (doc_id)
        LEFT JOIN inp USING (doc_id)
        LEFT JOIN tgt USING (doc_id)
    """
    sql["docs_quality_filter_tokens"] = f"""
        WITH pos AS (
            SELECT doc_id, unnest([CAST(unicode(substr(text, i, 1)) AS BIGINT)
                                   FOR i IN range(1, length(text) + 1)]) AS t
            FROM documents
        ), dv AS (
            SELECT doc_id, count(DISTINCT t) AS n_distinct
            FROM pos GROUP BY doc_id
        ), g AS (
            SELECT doc_id,
                   unnest([(CAST(unicode(substr(text, i, 1)) AS BIGINT)
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 1, 1)) AS BIGINT))
                              * {T_tok.CODEPOINT_SPAN}
                            + CAST(unicode(substr(text, i + 2, 1)) AS BIGINT)
                           FOR i IN range(1, length(text) - 1)]) AS k
            FROM documents
        ), gr AS (
            SELECT doc_id, count(*) - count(DISTINCT k) AS n_dup,
                   count(*) AS n_grams
            FROM g GROUP BY doc_id
        )
        SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_tok,
               CAST(dv.n_distinct AS BIGINT) AS n_distinct,
               CAST(coalesce(gr.n_dup, 0) AS BIGINT) AS n_dup_grams
        FROM documents d
        JOIN dv USING (doc_id) LEFT JOIN gr USING (doc_id)
        WHERE length(d.text) BETWEEN {QF_MIN_TOK} AND {QF_MAX_TOK}
          AND dv.n_distinct >= {QF_MIN_DISTINCT}
          AND coalesce(gr.n_dup, 0) * {QF_DUP_DEN}
                  <= coalesce(gr.n_grams, 0) * {QF_DUP_NUM}
    """
    sql["ingest_text"] = """
        SELECT doc_id, source, CAST(length(text) AS BIGINT) AS n_chars
        FROM documents
        WHERE text NOT LIKE '%' || chr(10) || '%'
          AND text NOT LIKE '%' || chr(13) || '%'
    """
    sql["tokens_fim"] = f"""
        WITH base AS (
            SELECT doc_id, text, length(text) AS n,
                   (doc_id * {T_tok.FIM_A1} + {T_tok.FIM_B1})
                       % (length(text) + 1) AS p1
            FROM documents
        ), sp AS (
            SELECT doc_id, text, n, p1,
                   p1 + (doc_id * {T_tok.FIM_A2} + {T_tok.FIM_B2})
                       % (n - p1 + 1) AS p2
            FROM base
        )
        SELECT doc_id, CAST(n AS BIGINT) AS n_tok,
               array_to_string(
                   ['-1']
                   || [CAST(unicode(substr(text, i, 1)) AS VARCHAR)
                       FOR i IN range(1, CAST(p1 AS INT) + 1)]
                   || ['-2']
                   || [CAST(unicode(substr(text, i, 1)) AS VARCHAR)
                       FOR i IN range(CAST(p2 AS INT) + 1, CAST(n AS INT) + 1)]
                   || ['-3']
                   || [CAST(unicode(substr(text, i, 1)) AS VARCHAR)
                       FOR i IN range(CAST(p1 AS INT) + 1, CAST(p2 AS INT) + 1)],
                   ',') AS fim_str
        FROM sp
    """
    # rows-only (non-SQL-expressible) queries intentionally omitted:
    # ann_ivf — its oracle-gated siblings are the *_recall gates. Since
    # round 4,
    # compression_stats and the dedup_* family are themselves gate
    # queries (precision/recall/tolerance booleans) with exact oracles.
    return sql
