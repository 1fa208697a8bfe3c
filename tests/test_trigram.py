"""Trigram fragment pruning on the table store (pipelines/trigram.py
extracts the trigrams; the store's per-(fragment, string column) blooms
hold them): soundness (never drops a matching fragment), pruning
effectiveness, and pattern-trigram extraction edge cases. Every scan's
rows equal DuckDB's LIKE over the source files."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.pipelines.trigram import (
    _trigram_keys,
    _utf8_flat,
    pattern_trigrams,
)


def _write_store(src_dir, out_dir, files: list[list[tuple[str, int]]]) -> str:
    """One source parquet file — one store fragment — per list of
    (text, doc_id) rows; returns the compressed store's path."""
    from fsst_like_ray.pipelines.tablestore import compress_table

    os.makedirs(src_dir)
    for k, rows in enumerate(files):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[1] for r in rows], type=pa.int64()),
                    "text": pa.array([r[0] for r in rows]),
                }
            ),
            os.path.join(src_dir, f"part{k}.parquet"),
        )
    compress_table(str(src_dir), str(out_dir))
    return str(out_dir)


def _scan(store: str, src_dir, pattern: str) -> tuple[list[int], dict]:
    """(sorted matching doc_ids, prune stats) of a store LIKE, asserted
    equal to DuckDB's LIKE over the source files."""
    from fsst_like_ray.pipelines.tablestore import like_table_store

    stats: dict = {}
    got = like_table_store(
        store, "text", pattern, columns=["doc_id"], stats_out=stats
    )
    ids = sorted(got.to_arrow()["doc_id"].to_pylist())
    expect = sorted(
        r[0]
        for r in duckdb.sql(
            f"SELECT doc_id FROM '{src_dir}/*.parquet' WHERE text LIKE ?",
            params=[pattern],
        ).fetchall()
    )
    assert ids == expect, (pattern, ids, expect)
    return ids, stats


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("tri")
    rows = [
        ("zebra quilt jumps", 0),
        ("the quick brown fox", 1),
        ("pack my box with jugs", 2),
        ("quick silver linings", 3),
        ("plain text no rare words", 4),
        ("", 5),
    ]
    # two docs per file → 3 fragments with distinct trigram populations
    files = [rows[2 * k : 2 * k + 2] for k in range(3)]
    store = _write_store(base / "docs", base / "store", files)
    return store, base / "docs"


def test_pattern_trigrams_edges():
    assert pattern_trigrams("%ab%") is None  # too short for a trigram
    assert pattern_trigrams("%a_cdef%") is None  # '_' → not literal
    t = pattern_trigrams("%abcd%xyz%")
    assert t is not None and len(t) == 3  # abc, bcd, xyz
    assert pattern_trigrams("%%") is None


def test_trigram_keys_sliced_nulls():
    """The bloom keys of a sliced, chunked, null-bearing column are exactly
    the within-row 3-byte windows of its UTF-8 rows (nulls read as '')."""
    texts = ["x", "naïve café", None, "abcd", "", "日本語", None, "abab"]
    col = pa.chunked_array(
        [pa.array(texts[:3]), pa.array(texts[3:])]
    ).combine_chunks().slice(1, 6)
    want = sorted(
        {
            (b[i] << 16) | (b[i + 1] << 8) | b[i + 2]
            for t in texts[1:7]
            for b in [(t or "").encode()]
            for i in range(len(b) - 2)
        }
    )
    for c in (col, pa.chunked_array([col.slice(0, 2), col.slice(2)])):
        keys = _trigram_keys(*_utf8_flat(c))
        assert keys.dtype == np.int64
        assert keys.tolist() == want
    assert _trigram_keys(*_utf8_flat(pa.array([None, ""], pa.string()))).size == 0


def test_pruning_sound_and_effective(corpus):
    store, src = corpus
    # 'quick' appears in fragments 0 (doc 1) and 1 (doc 3) only
    ids, st = _scan(store, src, "%quick%")
    assert ids == [1, 3]
    assert st["fragments_scanned"] <= 2
    assert st["fragments_scanned"] + st["fragments_skipped"] == 3
    # absent literal → zero fragments read, zero rows
    ids0, st0 = _scan(store, src, "%wombat volcano%")
    assert ids0 == [] and st0["fragments_scanned"] == 0


def test_no_trigram_pattern_keeps_all_files(corpus):
    store, src = corpus
    ids, st = _scan(store, src, "%ox%")  # too short for a trigram
    assert ids == [1, 2]  # fox, box
    assert st["fragments_scanned"] == 3 and st["fragments_skipped"] == 0
    # '_' makes the segment non-literal: no evidence, every fragment scans
    ids, st = _scan(store, src, "%qu_ck%")
    assert ids == [1, 3]
    assert st["fragments_scanned"] == 3 and st["fragments_skipped"] == 0


def test_multi_segment_requires_all_segments(corpus):
    # 'quick' in fragments 0,1; 'silver' only in 1 → intersection = 1
    store, src = corpus
    ids, st = _scan(store, src, "%quick%silver%")
    assert ids == [3]
    assert st["fragments_scanned"] == 1 and st["fragments_skipped"] == 2


def test_multibyte_utf8_trigrams(tmp_path, ray_session):
    """Trigrams are BYTE-grams: multibyte UTF-8 literals still prune
    soundly (a needle's bytes appear in a fragment iff its text holds
    them)."""
    store = _write_store(
        tmp_path / "docs",
        tmp_path / "store",
        [
            [("naïve café forêt", 0), ("plain ascii text", 1)],
            [("日本語のテキスト", 2)],
        ],
    )
    for pat, want, scanned in [
        ("%café%", [0], 1), ("%日本語%", [2], 1), ("%müller%", [], 0),
    ]:
        ids, st = _scan(store, tmp_path / "docs", pat)
        assert ids == want, (pat, ids)
        # each literal lives in one fragment (or none): the rest prune
        assert st["fragments_scanned"] == scanned, (pat, st)
