"""Trigram file-pruning index (pipelines/trigram.py): soundness (never
drops a matching file), pruning effectiveness, and pattern-trigram
extraction edge cases."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.pipelines.trigram import (
    build_trigram_index,
    like_scan_trigram,
    pattern_trigrams,
    trigram_candidate_files,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("tri") / "docs"
    os.makedirs(d)
    rows = [
        ("zebra quilt jumps", 0),
        ("the quick brown fox", 1),
        ("pack my box with jugs", 2),
        ("quick silver linings", 3),
        ("plain text no rare words", 4),
        ("", 5),
    ]
    # two docs per file → 3 files with distinct trigram populations
    for k in range(3):
        part = rows[2 * k : 2 * k + 2]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[1] for r in part], type=pa.int64()),
                    "text": pa.array([r[0] for r in part]),
                }
            ),
            str(d / f"part{k}.parquet"),
        )
    info = build_trigram_index(str(d))
    assert info["files"] == 3
    return str(d)


def test_pattern_trigrams_edges():
    assert pattern_trigrams("%ab%") is None  # too short for a trigram
    assert pattern_trigrams("%a_cdef%") is None  # '_' → not literal
    t = pattern_trigrams("%abcd%xyz%")
    assert t is not None and len(t) == 3  # abc, bcd, xyz
    assert pattern_trigrams("%%") is None


def test_pruning_sound_and_effective(corpus):
    idx = os.path.join(corpus, "index", "trigrams.parquet")
    # 'quick' appears in files 0 (doc 1) and 1 (doc 3) only
    cand, total = trigram_candidate_files(idx, "%quick%")
    assert total == 3 and len(cand) <= 2
    ds, scanned, tot = like_scan_trigram(corpus, "%quick%")
    got = sorted(
        r["doc_id"]
        for b in ds.iter_batches(batch_size=100, batch_format="pyarrow")
        for r in b.to_pylist()
    )
    assert got == [1, 3]
    assert scanned <= 2 and tot == 3
    # absent literal → zero files read, zero rows
    ds0, s0, _ = like_scan_trigram(corpus, "%wombat volcano%")
    assert s0 == 0 and ds0.count() == 0


def test_no_trigram_pattern_keeps_all_files(corpus):
    idx = os.path.join(corpus, "index", "trigrams.parquet")
    cand, total = trigram_candidate_files(idx, "%ox%")
    assert len(cand) == total == 3
    ds, scanned, _ = like_scan_trigram(corpus, "%ox%", decode_matches=False)
    got = sorted(
        r["doc_id"]
        for b in ds.iter_batches(batch_size=100, batch_format="pyarrow")
        for r in b.to_pylist()
    )
    assert got == [1, 2] and scanned == 3  # fox, box


def test_multi_segment_requires_all_segments(corpus):
    # 'quick' in files 0,1; 'silver' only in file 1 → intersection = file 1
    idx = os.path.join(corpus, "index", "trigrams.parquet")
    cand, _ = trigram_candidate_files(idx, "%quick%silver%")
    assert len(cand) == 1
    ds, _, _ = like_scan_trigram(corpus, "%quick%silver%", decode_matches=False)
    got = [
        r["doc_id"]
        for b in ds.iter_batches(batch_size=100, batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    assert got == [3]


def test_rebuild_is_idempotent(corpus):
    idx = os.path.join(corpus, "index", "trigrams.parquet")
    before = pq.read_table(idx)
    build_trigram_index(corpus)
    after = pq.read_table(idx)
    assert before.equals(after)


def test_multibyte_utf8_trigrams(tmp_path, ray_session):
    """Trigrams are BYTE-grams: multibyte UTF-8 literals still prune
    soundly (a needle's bytes appear in a file iff the text contains it)."""
    d = tmp_path / "docs"
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], type=pa.int64()),
                "text": pa.array(["naïve café forêt", "plain ascii text"]),
            }
        ),
        str(d / "p0.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([2], type=pa.int64()),
                "text": pa.array(["日本語のテキスト"]),
            }
        ),
        str(d / "p1.parquet"),
    )
    build_trigram_index(str(d))
    for pat, want in [("%café%", [0]), ("%日本語%", [2]), ("%müller%", [])]:
        ds, scanned, total = like_scan_trigram(
            str(d), pat, decode_matches=False
        )
        got = sorted(
            r["doc_id"]
            for b in ds.iter_batches(batch_size=10, batch_format="pyarrow")
            for r in b.to_pylist()
        )
        assert got == want, (pat, got)
        if not want:
            assert scanned == 0  # absent multibyte literal → zero files
