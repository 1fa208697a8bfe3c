"""Unit tests for the broadcast/shuffle/semi joins, bloom pruning, grouped
top-k, two dedup kernels and the encode internals (chunk bounds,
used_chars bitmap) — edge cases the oracle sweep can't hit."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


def test_chunk_bounds_edges():
    from fsst_like_ray.pipelines.queries import _chunk_bounds

    # one giant row: its own chunk, neighbors intact
    off = np.array([0, 5, 1000005, 1000010], dtype=np.int64)
    b = _chunk_bounds(off, 100)
    assert list(b) == [0, 1, 2, 3]
    # no budget → single chunk
    assert list(_chunk_bounds(off, None)) == [0, 3]
    # exact fit stays together
    off2 = np.array([0, 50, 100], dtype=np.int64)
    assert list(_chunk_bounds(off2, 100)) == [0, 2]
    # sliced offsets (nonzero base) respect the budget
    off3 = np.array([1000, 1050, 1100, 1150], dtype=np.int64)
    assert list(_chunk_bounds(off3, 100)) == [0, 2, 3]


def test_escaped_literal_bitmap_exact():
    from fsst_like_ray import fsstlib

    tr = np.frombuffer(b"abababababababab", dtype=np.uint8).copy()
    table = fsstlib.train(tr, np.array([0, len(tr)], dtype=np.int64))
    data = np.frombuffer(b"abQab\xffZ", dtype=np.uint8).copy()
    off = np.array([0, len(data)], dtype=np.int64)
    buf, po, _used = fsstlib.encode(data, off, table)
    bm = fsstlib.escaped_literal_bitmap(buf, po)
    covered = set()
    for sym in table.symbols:
        covered |= set(sym)
    for byte in (ord("Q"), 0xFF, ord("Z")):
        if byte not in covered:
            assert bm[byte >> 3] & (1 << (byte & 7)), hex(byte)
    # decode agrees
    dec, _ = fsstlib.decode(buf, po, table)
    assert bytes(dec) == bytes(data)


def test_broadcast_join_left_and_inner(ray_session):
    from fsst_like_ray.functions.join import broadcast_hash_join

    big = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "v": pa.array([10, 20, 30, 40], type=pa.int64())})
    )
    small = pa.table({"sk": pa.array([2, 4], type=pa.int64()),
                      "name": pa.array(["two", "four"])})
    inner = broadcast_hash_join(big, small, "k", "sk", how="inner").to_pandas()
    assert sorted(inner["k"]) == [2, 4]
    left = broadcast_hash_join(big, small, "k", "sk", how="left").to_pandas()
    assert len(left) == 4 and left.set_index("k")["name"].isna().sum() == 2
    with pytest.raises(ValueError):
        broadcast_hash_join(big, small, "k", "sk", how="outer")


def test_ngram_jaccard_identical_docs(ray_session):
    from fsst_like_ray.functions.dedup import ngram_jaccard_duplicates

    docs = [
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 2, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 3, "text": "completely different content here entirely"},
        {"doc_id": 4, "text": "the quick brown fox jumps over the lazy dog!"},
    ]
    ds = ray.data.from_items(docs)
    dups = sorted(r["doc_id"] for r in ngram_jaccard_duplicates(ds).take_all())
    assert 2 in dups and 3 not in dups


def test_embedding_dedup_finds_planted_dups(ray_session):
    """The sf testdata has no near-dup embeddings (verified vs exact
    all-pairs truth) — plant some and check the LSH path finds them."""
    import numpy as np
    import pyarrow as pa

    from fsst_like_ray.functions.similarity import embedding_duplicates

    rng = np.random.default_rng(11)
    base = rng.normal(size=(200, 16)).astype(np.float32)
    # rows 100..119 are jittered copies of rows 0..19 (cos > 0.999)
    dup = base[:20] + rng.normal(scale=1e-3, size=(20, 16)).astype(np.float32)
    m = np.concatenate([base, dup])
    ids = np.arange(len(m), dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1), type=pa.float32()), 16
            ),
        }
    )
    import ray.data

    found = {
        r["doc_id"] if "doc_id" in r else r["vec_id"]
        for r in embedding_duplicates(
            ray.data.from_arrow(t), threshold=0.99
        ).take_all()
    }
    planted = set(range(200, 220))
    # every planted dup must be caught (keeper = lower id survives)
    assert planted <= found, planted - found
    # nothing outside the planted set flagged
    assert found <= planted, found - planted


def test_shuffle_hash_join_matches_pandas_merge(ray_session):
    """Many-to-many co-partitioned join (duplicate keys BOTH sides, keys
    unique to each side; inner, left, right, full) vs pandas merge."""
    import ray.data
    from fsst_like_ray.functions.join import shuffle_hash_join

    rng = np.random.default_rng(17)
    nl, nr = 400, 300
    ldf = pd.DataFrame(
        {
            "k": rng.integers(0, 60, nl),
            "lval": rng.integers(0, 1000, nl),
        }
    )
    rdf = pd.DataFrame(
        {
            "rk": rng.integers(20, 80, nr),  # keys 60-79 missing on left
            "rval": rng.integers(0, 1000, nr),
        }
    )
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(5)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(3)
    for how in ("inner", "left", "right", "full"):
        got = shuffle_hash_join(
            left, right, "k", "rk", how=how, n_buckets=7
        ).to_pandas()
        want = ldf.merge(
            rdf.rename(columns={"rk": "k", "rval": "rval_r"}),
            on="k",
            how="outer" if how == "full" else how,
        )
        key = ["k", "lval", "rval_r"]
        a = got[key].fillna(-1).sort_values(key).reset_index(drop=True)
        b = want[key].fillna(-1).sort_values(key).reset_index(drop=True)
        assert len(a) == len(b), how
        assert (a.values == b.values).all(), how


def test_grouped_topk_ties_and_small_groups(ray_session):
    """Ties resolved by tiebreak, groups smaller than k returned whole,
    identical across repartitionings."""
    import ray.data
    from fsst_like_ray.functions.grouped_topk import grouped_topk

    rng = np.random.default_rng(29)
    n = 500
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 8, n)),
            "s": pa.array(rng.integers(0, 5, n).astype(np.int64)),  # ties
            "id": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    df = t.to_pandas()
    want = (
        df.sort_values(["g", "s", "id"], ascending=[True, False, True])
        .groupby("g")
        .head(4)
        .sort_values(["g", "id"])
        .reset_index(drop=True)
    )
    for parts in (1, 7):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = (
            grouped_topk(ds, key="g", score="s", k=4, tiebreak="id")
            .to_pandas()
            .sort_values(["g", "id"])
            .reset_index(drop=True)
        )
        assert (got[["g", "s", "id"]].values == want.values).all(), parts


def test_broadcast_semi_anti_join(ray_session):
    import ray.data
    from fsst_like_ray.functions.join import broadcast_semi_join

    t = pa.table({"k": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64())})
    ds = lambda: ray.data.from_arrow(t).repartition(3)
    keys = np.array([2, 4, 9])
    semi = broadcast_semi_join(ds(), keys, "k").to_pandas()["k"].tolist()
    anti = broadcast_semi_join(ds(), keys, "k", anti=True).to_pandas()[
        "k"
    ].tolist()
    assert sorted(semi) == [2, 4]
    assert sorted(anti) == [1, 3, 5, 6]
    # empty key set: semi keeps nothing, anti keeps all
    assert broadcast_semi_join(ds(), np.array([]), "k").count() == 0
    assert (
        broadcast_semi_join(ds(), np.array([]), "k", anti=True).count() == 6
    )


def test_shuffle_hash_join_salted_hot_key(ray_session):
    """A hot many-to-many key joined with hot_keys salting must produce
    exactly the pandas merge result (inner and left), and the hot left
    rows must actually spread across multiple salt buckets."""
    import pandas as pd
    import ray.data
    from fsst_like_ray.functions.join import shuffle_hash_join

    rng = np.random.default_rng(17)
    nl, nr = 3000, 300
    lk = np.where(
        rng.random(nl) < 0.6, 7, rng.integers(0, 40, nl)
    ).astype(np.int64)  # ~60% of left rows share key 7
    rk = np.where(
        rng.random(nr) < 0.3, 7, rng.integers(0, 50, nr)
    ).astype(np.int64)
    lt = pa.table(
        {"k": lk, "lv": np.arange(nl, dtype=np.int64)}
    )
    rt = pa.table(
        {"rk": rk, "rv": np.arange(nr, dtype=np.int64)}
    )
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    for how in ("inner", "left"):
        got = (
            shuffle_hash_join(
                ray.data.from_arrow(lt).repartition(4),
                ray.data.from_arrow(rt).repartition(3),
                "k",
                "rk",
                how=how,
                n_buckets=8,
                hot_keys=np.array([7]),
                n_salt=4,
            )
            .to_pandas()
            .sort_values(["k", "lv", "rv_r"])
            .reset_index(drop=True)
        )
        want = (
            ldf.merge(
                rdf.rename(columns={"rk": "k", "rv": "rv_r"}),
                on="k",
                how=how,
            )
            .sort_values(["k", "lv", "rv_r"])
            .reset_index(drop=True)
        )
        assert got.shape == want.shape, how
        assert (got["k"].values == want["k"].values).all()
        assert (got["lv"].values == want["lv"].values).all()
        assert (
            got["rv_r"].fillna(-1).values == want["rv_r"].fillna(-1).values
        ).all(), how


def test_bloom_no_false_negatives_and_fpr():
    """Inserted keys ALWAYS pass; non-members fail at roughly the
    analytical false-positive rate (well under 1% at this sizing)."""
    from fsst_like_ray.functions.bloom import bloom_contains, bloom_insert

    rng = np.random.default_rng(5)
    n_bits, k = 1 << 18, 4
    bm = np.zeros(n_bits // 8, dtype=np.uint8)
    members = rng.choice(10_000_000, size=5000, replace=False).astype(np.int64)
    bloom_insert(bm, members, k)
    assert bloom_contains(bm, members, k).all()
    probe = np.setdiff1d(
        rng.integers(0, 2**62, size=20000).astype(np.int64), members
    )
    fpr = bloom_contains(bm, probe, k).mean()
    # kn/m = 0.076 -> expected (1-e^-0.076)^4 ~ 3e-5; allow slack
    assert fpr < 0.005, fpr
    # negative keys hash fine too (int64 view, no overflow error)
    neg = -members
    bloom_insert(bm, neg, k)
    assert bloom_contains(bm, neg, k).all()


def test_bloom_pruned_join_identical(ray_session):
    """Bloom-pruned inner shuffle join is bit-identical to the unpruned
    join, and the prune genuinely drops partnerless probe rows."""
    import ray.data
    from fsst_like_ray.functions.bloom import bloom_build, bloom_prune
    from fsst_like_ray.functions.join import shuffle_hash_join

    rng = np.random.default_rng(23)
    ldf = pd.DataFrame(
        {
            "k": rng.integers(0, 5000, 4000),  # mostly partnerless
            "lv": rng.integers(0, 100, 4000),
        }
    )
    rdf = pd.DataFrame(
        {"rk": rng.integers(0, 200, 300), "rv": rng.integers(0, 100, 300)}
    )
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(6)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(2)
    bm = bloom_build(right, "rk", n_bits=1 << 16)
    pruned = bloom_prune(left, "k", bm)
    n_pruned = pruned.count()
    n_partnered = int(ldf["k"].isin(rdf["rk"]).sum())
    assert n_partnered <= n_pruned < len(ldf) * 0.2  # real pruning happened
    got = shuffle_hash_join(
        pruned, right, "k", "rk", how="inner", n_buckets=5
    ).to_pandas()
    want = shuffle_hash_join(
        left, right, "k", "rk", how="inner", n_buckets=5
    ).to_pandas()
    key = ["k", "lv", "rv_r"]
    a = got[key].sort_values(key).reset_index(drop=True)
    b = want[key].sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a.values == b.values).all()


def test_bucketed_kernels_empty_and_single_key(ray_session):
    """The coarse-bucket grouped top-k kernel must survive empty inputs
    and all-rows-one-key inputs (every row lands in one bucket)."""
    import ray.data
    from fsst_like_ray.functions.grouped_topk import grouped_topk

    empty = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([], type=pa.int64()),
                "on": pa.array([], type=pa.int64()),
                "v": pa.array([], type=pa.int64()),
            }
        )
    )
    one = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([7] * 50, type=pa.int64()),
                "on": pa.array(range(50), type=pa.int64()),
                "v": pa.array(range(50), type=pa.int64()),
            }
        )
    ).repartition(4)

    assert grouped_topk(empty, key="k", score="v", k=2, tiebreak="on").count() == 0
    t = grouped_topk(one, key="k", score="v", k=2, tiebreak="on").take_all()
    assert sorted(r["v"] for r in t) == [48, 49]
