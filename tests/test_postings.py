"""Posting-list index: build/lookup vs a Python oracle, rebuild
idempotence, OR mode, same-bucket term collisions, absent terms."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from fsst_like_ray.pipelines.postings import build_word_index

    d = tmp_path_factory.mktemp("postidx")
    corpus = d / "docs"
    corpus.mkdir()
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "alpha beta gamma",
                "beta gamma delta",
                "ALPHA! beta...",
                "unrelated words only",
            ],
        }
    )
    df.to_parquet(corpus / "p.parquet")
    idx = d / "idx"
    # n_buckets=2 forces multiple terms per bucket
    stats = build_word_index(str(corpus), str(idx), n_buckets=2)
    return str(corpus), str(idx), stats


def test_lookup_matches_python_oracle(built):
    from fsst_like_ray.pipelines.postings import word_index_lookup

    _, idx, stats = built
    assert stats["n_buckets"] == 2
    ids, read = word_index_lookup(idx, ("alpha", "beta"), mode="and")
    assert ids.tolist() == [1, 3]  # punctuation/case normalized by tokenizer
    assert read <= 2
    ids, _ = word_index_lookup(idx, ("alpha", "delta"), mode="or")
    assert ids.tolist() == [1, 2, 3]
    ids, read = word_index_lookup(idx, ("nosuchword",), mode="and")
    assert len(ids) == 0 and read <= 1


def test_rebuild_idempotent(built, ray_session):
    import pyarrow.parquet as pq

    from fsst_like_ray.pipelines.postings import build_word_index

    corpus, idx, stats = built
    import glob
    import hashlib

    def digest():
        # content digest over the VISIBLE parts, keyed by bucket (the
        # part epoch legitimately bumps on every full rebuild)
        h = hashlib.blake2b(digest_size=16)
        for f in sorted(glob.glob(f"{idx}/postings/bucket=*/part-*.parquet")):
            h.update(f.rsplit("/", 2)[-2].encode())
            h.update(pq.read_table(f).to_pandas().to_csv().encode())
        return h.hexdigest()

    before = digest()
    stats2 = build_word_index(corpus, idx, n_buckets=2)
    assert stats2 == stats
    assert digest() == before


def test_rebuild_clears_stale_buckets(ray_session, tmp_path):
    """A rebuild over a changed corpus must not leave old buckets behind:
    a word present only in the OLD corpus must resolve to zero docs."""
    from fsst_like_ray.pipelines.postings import (
        build_word_index,
        word_index_lookup,
    )

    corpus = tmp_path / "docs"
    corpus.mkdir()
    idx = str(tmp_path / "idx")
    pd.DataFrame({"doc_id": [1], "text": ["obsolete word"]}).to_parquet(
        corpus / "p.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)
    assert word_index_lookup(idx, ("obsolete",))[0].tolist() == [1]

    pd.DataFrame({"doc_id": [2], "text": ["fresh content"]}).to_parquet(
        corpus / "p.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)
    assert word_index_lookup(idx, ("obsolete",))[0].tolist() == []
    assert word_index_lookup(idx, ("fresh",))[0].tolist() == [2]


def test_incremental_append_and_guards(ray_session, tmp_path):
    """Incremental indexing scans only NEW files; results equal a full
    rebuild; vanished files and bucket-count changes are refused."""
    from fsst_like_ray.pipelines.postings import (
        build_word_index,
        word_index_lookup,
    )

    corpus = tmp_path / "docs"
    corpus.mkdir()
    idx = str(tmp_path / "idx")
    pd.DataFrame({"doc_id": [1], "text": ["alpha beta"]}).to_parquet(
        corpus / "a.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)

    pd.DataFrame({"doc_id": [2], "text": ["beta gamma"]}).to_parquet(
        corpus / "b.parquet"
    )
    stats = build_word_index(str(corpus), idx, n_buckets=2,
                             incremental=True)
    assert word_index_lookup(idx, ("beta",))[0].tolist() == [1, 2]
    assert word_index_lookup(idx, ("gamma",))[0].tolist() == [2]
    # no-op increment: nothing new
    assert build_word_index(str(corpus), idx, n_buckets=2,
                            incremental=True) == stats

    # full rebuild equivalence
    idx2 = str(tmp_path / "idx2")
    build_word_index(str(corpus), idx2, n_buckets=2)
    for t in ("alpha", "beta", "gamma"):
        assert (
            word_index_lookup(idx, (t,))[0].tolist()
            == word_index_lookup(idx2, (t,))[0].tolist()
        )

    with pytest.raises(ValueError, match="rebuild"):
        build_word_index(str(corpus), idx, n_buckets=4, incremental=True)
    (corpus / "a.parquet").unlink()
    with pytest.raises(ValueError, match="vanished"):
        build_word_index(str(corpus), idx, n_buckets=2, incremental=True)


def test_crashed_increment_invisible_until_committed(ray_session, tmp_path):
    """Parts beyond the committed meta epoch (a crashed increment) are
    invisible to lookups, and a later successful increment clears them."""
    import json
    import os

    import pyarrow.parquet as pq_
    import pyarrow as pa_

    from fsst_like_ray.pipelines.postings import (
        build_word_index,
        word_index_lookup,
        _word_bucket,
    )

    corpus = tmp_path / "docs"
    corpus.mkdir()
    idx = str(tmp_path / "idx")
    pd.DataFrame({"doc_id": [1], "text": ["alpha"]}).to_parquet(
        corpus / "a.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)

    # simulate a crashed epoch-1 increment: orphan part, meta NOT updated
    bk = int(_word_bucket(["ghost"], 2)[0])
    d = f"{idx}/postings/bucket={bk}"
    os.makedirs(d, exist_ok=True)
    pq_.write_table(
        pa_.table({"word": ["ghost"], "doc_id": [99]}),
        f"{d}/part-1.parquet",
    )
    assert word_index_lookup(idx, ("ghost",))[0].tolist() == []  # invisible

    # a real increment commits epoch 1 and must have CLEARED the orphan
    pd.DataFrame({"doc_id": [2], "text": ["beta"]}).to_parquet(
        corpus / "b.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2, incremental=True)
    assert word_index_lookup(idx, ("ghost",))[0].tolist() == []
    assert word_index_lookup(idx, ("beta",))[0].tolist() == [2]


def test_pre_incremental_meta_refused(ray_session, tmp_path):
    import json

    from fsst_like_ray.pipelines.postings import build_word_index

    corpus = tmp_path / "docs"
    corpus.mkdir()
    idx = tmp_path / "idx"
    pd.DataFrame({"doc_id": [1], "text": ["alpha"]}).to_parquet(
        corpus / "a.parquet"
    )
    build_word_index(str(corpus), str(idx), n_buckets=2)
    meta = json.loads((idx / "meta.json").read_text())
    del meta["files"]  # old-format index
    (idx / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="rebuild"):
        build_word_index(str(corpus), str(idx), n_buckets=2,
                         incremental=True)


def test_full_rebuild_two_phase(ray_session, tmp_path):
    """A full rebuild over a COMMITTED index is write-ahead: parts land
    under a bumped epoch, the old index stays fully visible until the meta
    commit, and superseded parts become invisible (then swept) after it."""
    import json
    import os

    from fsst_like_ray.pipelines.postings import (
        build_word_index,
        word_index_lookup,
    )

    corpus = tmp_path / "docs"
    corpus.mkdir()
    idx = str(tmp_path / "idx")
    pd.DataFrame({"doc_id": [1], "text": ["obsolete word"]}).to_parquet(
        corpus / "p.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)

    # simulate a rebuild CRASHED between part writes and the meta commit:
    # pending parts at epoch 1 exist in every bucket, meta still epoch 0
    for b in (0, 1):
        bdir = os.path.join(idx, "postings", f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        pd.DataFrame({"word": ["ghost"], "doc_id": [99]}).to_parquet(
            os.path.join(bdir, "part-1.parquet")
        )
    # old index fully intact, pending parts invisible
    assert word_index_lookup(idx, ("obsolete",))[0].tolist() == [1]
    assert word_index_lookup(idx, ("ghost",))[0].tolist() == []

    # the rerun full-rebuilds over a CHANGED corpus: epoch bumps, old and
    # crashed parts are both retired
    pd.DataFrame({"doc_id": [2], "text": ["fresh content"]}).to_parquet(
        corpus / "p.parquet"
    )
    build_word_index(str(corpus), idx, n_buckets=2)
    meta = json.load(open(os.path.join(idx, "meta.json")))
    assert meta["epoch"] == meta["min_epoch"] == 1
    assert word_index_lookup(idx, ("fresh",))[0].tolist() == [2]
    assert word_index_lookup(idx, ("obsolete",))[0].tolist() == []
    assert word_index_lookup(idx, ("ghost",))[0].tolist() == []
    # superseded epoch-0 parts were swept after the commit
    for b in (0, 1):
        bdir = os.path.join(idx, "postings", f"bucket={b}")
        if os.path.isdir(bdir):
            assert all("part-0" not in f for f in os.listdir(bdir))
