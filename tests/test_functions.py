"""Training-data operator tests: text stats (vs DuckDB formulas), dedup
variants (planted duplicates must be found, keepers kept), similarity search
(brute force == exact; IVF finds the near neighbors)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet")


def test_token_count_matches_sql(docs):
    from fsst_like_ray.functions.textstats import token_count_batch

    out = token_count_batch(docs)
    con = duckdb.connect()
    con.register("documents", docs)
    sql = con.sql(
        "SELECT doc_id, length(string_split(text, ' ')) AS n FROM documents"
    ).fetchall()
    expect = {r[0]: r[1] for r in sql}
    got = dict(zip(out["doc_id"].to_pylist(), out["n_ws_tokens"].to_pylist()))
    assert got == expect


def test_quality_matches_sql(docs):
    from fsst_like_ray.functions.textstats import quality_batch, STOPWORDS

    out = quality_batch(docs)
    con = duckdb.connect()
    con.register("documents", docs)
    stop_list = ",".join(f"'{w}'" for w in STOPWORDS)
    sql = con.sql(
        f"""SELECT doc_id,
              length(string_split(text,' ')) AS n_words,
              len(list_filter(string_split(text,' '), w -> w IN ({stop_list}))) AS n_stop
            FROM documents"""
    ).fetchall()
    expect = {r[0]: (r[1], r[2]) for r in sql}
    got = {
        d: (w, s)
        for d, w, s in zip(
            out["doc_id"].to_pylist(),
            out["n_words"].to_pylist(),
            out["n_stop"].to_pylist(),
        )
    }
    assert got == expect


def test_fingerprint_matches_sql(docs):
    from fsst_like_ray.functions.textstats import fingerprint_batch

    out = fingerprint_batch(docs)
    con = duckdb.connect()
    con.register("documents", docs)
    sql = con.sql(
        """SELECT doc_id, CASE WHEN length(text)=0 THEN 0 ELSE
             list_reduce([CAST(unicode(substr(text,i,1)) AS BIGINT)
                          FOR i IN range(1, length(text)+1)],
                         (a,b) -> (a*31+b) % 2147483647) END AS fp
           FROM documents"""
    ).fetchall()
    expect = {r[0]: r[1] for r in sql}
    got = dict(zip(out["doc_id"].to_pylist(), out["fp"].to_pylist()))
    assert got == expect


def _docs_with_dups(docs, n_dup=20):
    base = docs.select(["doc_id", "text"]).slice(0, 200)
    texts = base["text"].to_pylist()
    ids = base["doc_id"].to_pylist()
    max_id = max(ids)
    dup_texts = texts[:n_dup]
    dup_ids = [max_id + 1 + i for i in range(n_dup)]
    return pa.table(
        {
            "doc_id": pa.array(ids + dup_ids, type=pa.int64()),
            "text": pa.array(texts + dup_texts),
        }
    )


def test_exact_dedup(ray_session, docs):
    import ray.data
    from fsst_like_ray.functions.dedup import exact_duplicates

    t = _docs_with_dups(docs)
    ds = ray.data.from_arrow(t)
    dups = set(r["doc_id"] for r in exact_duplicates(ds).take_all())
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    # oracle: every doc whose text appeared before it (by min doc_id)
    seen = {}
    expect = set()
    for i in np.argsort(ids):
        if texts[i] in seen:
            expect.add(ids[i])
        else:
            seen[texts[i]] = ids[i]
    assert dups == expect


def test_minhash_dedup_finds_planted(ray_session, docs):
    import ray.data
    from fsst_like_ray.functions.dedup import minhash_duplicates

    t = _docs_with_dups(docs, n_dup=10)
    ds = ray.data.from_arrow(t)
    dups = set(r["doc_id"] for r in minhash_duplicates(ds, threshold=0.9).take_all())
    ids = t["doc_id"].to_pylist()
    planted = set(ids[-10:])
    assert planted <= dups  # exact copies must all be caught
    # and it should not nuke everything
    assert len(dups) < len(ids) // 2


def test_simhash_dedup_finds_planted(ray_session, docs):
    import ray.data
    from fsst_like_ray.functions.dedup import simhash_duplicates

    t = _docs_with_dups(docs, n_dup=10)
    ds = ray.data.from_arrow(t)
    dups = set(r["doc_id"] for r in simhash_duplicates(ds).take_all())
    planted = set(t["doc_id"].to_pylist()[-10:])
    assert planted <= dups
    assert len(dups) < t.num_rows // 2


def test_simhash_giant_single_word_bounded(ray_session):
    """A 1 MB no-space document must not degenerate the word-hash loop
    (capped at MAX_WORD_HASH_BYTES iterations), and identical copies of it
    must still collide to the same fingerprint."""
    import time

    import pyarrow as pa

    from fsst_like_ray.functions.dedup import simhash_batch

    giant = "x" * (1 << 20)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array([giant, giant, "a normal short doc"]),
        }
    )
    t0 = time.time()
    out = simhash_batch(t)
    # generous bound for noisy shared hosts; the uncapped loop would run
    # 2^20 iterations (minutes), so 20 s still discriminates sharply
    assert time.time() - t0 < 20.0
    fp = out["simhash"].to_pylist()
    assert fp[0] == fp[1]
    assert fp[0] != fp[2]


def test_brute_force_topk(ray_session):
    import ray.data
    from fsst_like_ray.functions.similarity import brute_force_topk, _emb_matrix

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    ds = ray.data.from_arrow(emb)
    q = np.asarray(emb["embedding"][0].as_py(), dtype=np.float32)
    out = brute_force_topk(ds, q, k=10)
    assert len(out) == 10
    # exact oracle with numpy on the full table
    m = _emb_matrix(emb)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = mn @ qn
    expect = set(
        np.asarray(emb["vec_id"])[np.argsort(-sims)[:10]].tolist()
    )
    assert set(out["vec_id"].tolist()) == expect
    assert out["vec_id"].iloc[0] == emb["vec_id"][0].as_py()  # self is nearest


def test_ivf_topk_recall(ray_session):
    import ray.data
    from fsst_like_ray.functions.similarity import ivf_topk, brute_force_topk

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    ds = ray.data.from_arrow(emb)
    q = np.asarray(emb["embedding"][3].as_py(), dtype=np.float32)
    exact = set(brute_force_topk(ds, q, k=10)["vec_id"].tolist())
    approx = set(ivf_topk(ds, q, k=10, n_centroids=8, nprobe=4)["vec_id"].tolist())
    assert len(exact & approx) >= 5  # decent recall on tiny data


def test_embedding_dedup(ray_session):
    import ray.data
    from fsst_like_ray.functions.similarity import embedding_duplicates

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    # plant exact duplicate vectors with new ids
    dup = emb.slice(0, 5)
    ids = pa.array(
        [int(pa.compute.max(emb["vec_id"]).as_py()) + 1 + i for i in range(5)],
        type=pa.int64(),
    )
    dup = dup.set_column(dup.schema.get_field_index("vec_id"), "vec_id", ids)
    t = pa.concat_tables([emb, dup])
    ds = ray.data.from_arrow(t)
    dups = set(r["vec_id"] for r in embedding_duplicates(ds).take_all())
    assert set(ids.to_pylist()) <= dups


def test_lang_id_runs(docs):
    from fsst_like_ray.functions.textstats import lang_id_batch

    out = lang_id_batch(docs)
    assert out.num_rows == docs.num_rows
    assert set(out.column_names) == {"doc_id", "lang_pred", "lang_score"}


def test_short_row_shingles_row_local():
    """Identical docs SHORTER than the shingle size must get identical
    minhash signatures regardless of what row follows them in the buffer
    (the 8-byte gram at a short row's start must not spill into the next
    row's bytes)."""
    from fsst_like_ray.functions.dedup import minhash_signature_batch

    t1 = pa.table({"doc_id": [1, 2], "text": ["abc", "XXXXXXXXXX"]})
    t2 = pa.table({"doc_id": [1, 2], "text": ["abc", "YYYYYYYYYY"]})
    s1 = minhash_signature_batch(t1)["sig"].to_pylist()[0]
    s2 = minhash_signature_batch(t2)["sig"].to_pylist()[0]
    assert s1 == s2


def test_ivf_index_persisted(ray_session, tmp_path):
    """Persisted IVF index: build once, query reads only probed cells, and
    full-probe recall equals exact brute force."""
    import ray.data
    from fsst_like_ray.functions.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_index_topk,
    )

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    q = np.asarray(
        pq.read_table(f"{SF}/embeddings.parquet")["embedding"][0].as_py(),
        dtype=np.float32,
    )
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, n_centroids=8)
    exact = list(brute_force_topk(ds, q, k=10)["vec_id"])
    # probing every cell must reproduce the exact result
    full = list(ivf_index_topk(idx, q, k=10, nprobe=8)["vec_id"])
    assert full == exact
    # partial probe keeps decent recall
    part = set(ivf_index_topk(idx, q, k=10, nprobe=6)["vec_id"])
    assert len(part & set(exact)) >= 8


def test_resolve_paths_agree(ray_session, monkeypatch, docs):
    """The capped driver-side resolution, the distributed groupby fallback,
    and the no-prefilter pure-shuffle path must produce the same dedup set."""
    import ray.data
    from fsst_like_ray.functions import dedup as D

    t = docs.select(["doc_id", "text"]).slice(0, 300)
    # plant two exact copies so the result is non-empty
    import pyarrow as pa

    extra = pa.table(
        {
            "doc_id": pa.array([900001, 900002], type=pa.int64()),
            "text": [t["text"][0].as_py(), t["text"][1].as_py()],
        }
    )
    full = pa.concat_tables([t, extra])
    ds = lambda: ray.data.from_arrow(full)

    fast = set(r["doc_id"] for r in D.minhash_duplicates(ds()).take_all())
    # force the distributed survivors path (caps to zero)
    monkeypatch.setattr(D, "DRIVER_CAP_ROWS", 0)
    monkeypatch.setattr(D, "DRIVER_CAP_BYTES", 0)
    dist = set(r["doc_id"] for r in D.minhash_duplicates(ds()).take_all())
    monkeypatch.undo()
    assert fast == dist and {900001, 900002} <= fast


def test_distributed_resolve_monster_key(ray_session, monkeypatch):
    """One duplicate key with members far beyond the salting threshold must
    pass through the distributed resolve (driver caps forced off) without a
    whole-group-on-one-worker shuffle: result identical to the exact-dedup
    contract (smallest id survives, uniques untouched)."""
    import ray.data
    from fsst_like_ray.functions import dedup as D

    monkeypatch.setattr(D, "DRIVER_CAP_ROWS", 0)
    monkeypatch.setattr(D, "DRIVER_CAP_BYTES", 0)
    # make the planted key ≥10× the salt (per-task) row budget
    monkeypatch.setattr(D, "SALT_MIN_MEMBERS", 500)
    N = 5000
    texts = ["the same monster document"] * N + [
        f"unique filler {i}" for i in range(50)
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(N + 50), type=pa.int64()),
                "text": texts,
            }
        )
    ).repartition(16)
    got = sorted(r["doc_id"] for r in D.exact_duplicates(ds).take_all())
    assert got == list(range(1, N))


def test_distributed_resolve_fold_collision(ray_session, monkeypatch):
    """Two exact keys engineered to share one 64-bit fold must still resolve
    per EXACT key in the distributed path (the collided-fold remnant): a
    fold collision may never merge buckets or change keepers."""
    import ray.data
    from fsst_like_ray.functions import dedup as D

    P = D._PRIME
    # foldA((2, 0)) == foldB((3, (3P)^(2P))) == 2P
    with np.errstate(over="ignore"):
        b2 = np.int64(
            ((np.uint64(3) * P) ^ (np.uint64(2) * P)).view(np.int64)
        )
    k1 = [2, 2, 2, 3, 3, 4, 4, 9]
    k2 = [0, 0, 0, int(b2), int(b2), 4, 4, 9]
    ids = [0, 1, 2, 10, 11, 20, 21, 30]
    vals = [7, 7, 9, 5, 5, 3, 3, 1]
    exploded = ray.data.from_arrow(
        pa.table(
            {
                "k1": pa.array(k1, type=pa.int64()),
                "k2": pa.array(k2, type=pa.int64()),
                "doc_id": pa.array(ids, type=pa.int64()),
                "val": pa.array(vals, type=pa.int64()),
            }
        )
    )

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        keeper = g["val"].iloc[0]
        dups = g.iloc[1:]
        return pd.DataFrame(
            {"doc_id": dups["doc_id"][dups["val"] == keeper].to_numpy()}
        )

    def resolve_block(t, members, keepers):
        v = t["val"].to_numpy(zero_copy_only=False)
        ids_ = t["doc_id"].to_numpy(zero_copy_only=False)
        return ids_[members[v[members] == v[keepers]]]

    monkeypatch.setattr(D, "DRIVER_CAP_ROWS", 0)
    monkeypatch.setattr(D, "DRIVER_CAP_BYTES", 0)
    got = set(
        r["doc_id"]
        for r in D.resolve_hot_buckets(
            exploded,
            ["k1", "k2"],
            resolve,
            resolve_block=resolve_block,
        ).take_all()
    )
    # key (2,0): keeper 0, dup 1 (val match), 2 excluded (val 9)
    # key (3,b2): keeper 10, dup 11 — MUST not merge with (2,0)
    # key (4,4): keeper 20, dup 21; (9,9) singleton never reaches resolve
    assert got == {1, 11, 21}


def test_hll_accuracy_and_merge():
    """HLL estimate within 5% across cardinalities; merging per-batch
    sketches equals sketching the concatenation."""
    from fsst_like_ray.functions.sketches import hll_batch, hll_merge_estimate

    rng = np.random.default_rng(1)
    for true_n in (50, 3000, 100000):
        vals = [f"x-{i}" for i in rng.integers(0, true_n, true_n * 2)]
        exact = len(set(vals))
        t = pa.table({"text": vals})
        parts = [
            hll_batch(t.slice(i, 4096))["hll"][0].as_py()
            for i in range(0, len(vals), 4096)
        ]
        est = hll_merge_estimate(parts)
        assert abs(est - exact) / exact <= 0.05, (true_n, est, exact)
        whole = hll_merge_estimate([hll_batch(t)["hll"][0].as_py()])
        assert abs(whole - est) / max(est, 1) <= 0.05


def test_minhash_nonpower2_hashes():
    """num_hashes need not be a power of two (fixed-point binning)."""
    from fsst_like_ray.functions.dedup import minhash_signature_batch

    t = pa.table({"doc_id": [1, 2], "text": ["hello world text", "hello world text"]})
    for B in (1, 3, 24, 32):
        out = minhash_signature_batch(t, num_hashes=B)
        sigs = out["sig"].to_pylist()
        assert len(sigs[0]) == B and sigs[0] == sigs[1], B


def test_vocab_partials_merge():
    """Per-batch partial counts merged equal a whole-corpus count."""
    from fsst_like_ray.functions.vocab import token_count_partials

    rng = np.random.default_rng(7)
    rows = [rng.integers(0, 50, rng.integers(0, 30)).astype(np.int32) for _ in range(200)]
    tok = pa.array([r.tolist() for r in rows], type=pa.list_(pa.int32()))
    t = pa.table({"tokens": tok})
    whole = {}
    for r in rows:
        for v in r:
            whole[int(v)] = whole.get(int(v), 0) + 1
    merged = {}
    for i in range(0, t.num_rows, 64):
        p = token_count_partials(t.slice(i, 64))
        for tk, c in zip(p["token"].to_pylist(), p["cnt"].to_pylist()):
            merged[tk] = merged.get(tk, 0) + c
    assert merged == whole


def test_stratified_sample_deterministic_and_nested(ray_session):
    """Same keep-set at any parallelism; higher rate selects a superset."""
    import ray
    from fsst_like_ray.functions.sampling import stratified_sample

    t = pa.table(
        {
            "doc_id": pa.array(range(2000), type=pa.int64()),
            "source": pa.array(["a" if i % 2 else "b" for i in range(2000)]),
        }
    )

    def ids(ds):
        return set(r["doc_id"] for r in ds.take_all())

    lo1 = ids(stratified_sample(ray.data.from_arrow(t), {"a": 0.2}, 0.1))
    lo2 = ids(
        stratified_sample(
            ray.data.from_arrow(t).repartition(13), {"a": 0.2}, 0.1
        )
    )
    hi = ids(stratified_sample(ray.data.from_arrow(t), {"a": 0.6}, 0.4))
    assert lo1 == lo2 and lo1 <= hi
    # rates honored within a few points (2000 rows, hash-Bernoulli)
    a_lo = sum(1 for i in lo1 if i % 2)
    assert abs(a_lo / 1000 - 0.2) < 0.05


def test_pack_sequences_matches_oracle(ray_session):
    """Packed sequences equal the per-source concatenate-and-chunk oracle
    regardless of input partitioning or bucket granularity; total tokens are
    conserved bit-identically."""
    import ray
    from fsst_like_ray.functions.packing import pack_sequences

    rng = np.random.default_rng(11)
    rows = [
        (i, f"s{i % 4}", rng.integers(0, 500, rng.integers(0, 50)).astype(np.int32))
        for i in range(300)
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "source": pa.array([r[1] for r in rows]),
            "tokens": pa.array([r[2].tolist() for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
        }
    )
    L = 100
    oracle = {}
    for s in ("s0", "s1", "s2", "s3"):
        stream = np.concatenate(
            [r[2] for r in sorted(rows) if r[1] == s] or [np.array([], np.int32)]
        )
        for c in range(0, len(stream), L):
            oracle[(s, c // L)] = stream[c : c + L].tolist()
    for shift, nparts in ((4, 11), (8, 3)):
        out = pack_sequences(
            ray.data.from_arrow(t).repartition(nparts), L, bucket_shift=shift
        ).take_all()
        mine = {(r["source"], r["seq_id"]): list(r["tokens"]) for r in out}
        assert mine == oracle, (shift, nparts)


def test_pack_bucket_keys_do_not_collide(ray_session):
    """(source, bucket) partials stay apart when the sources' names and
    bucket numbers concatenate alike: ("src1", 10) and ("src11", 0) in
    one batch are two plan entries, and packing that batch matches the
    per-source oracle."""
    import ray
    from fsst_like_ray.functions.packing import (
        _bucket_partials,
        pack_sequences,
        plan_bucket_bases,
    )

    shift = 4  # doc 160 -> bucket 10, doc 3 -> bucket 0
    rows = [(3, "src11", [1, 2, 3]), (5, "src11", [4]), (160, "src1", [7, 8]),
            (161, "src1", [9, 10, 11]), (20, "src1", [5, 6])]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "source": pa.array([r[1] for r in rows]),
            "tokens": pa.array([r[2] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
        }
    )
    part = _bucket_partials(shift)(t).to_pylist()
    assert sorted((r["source"], r["bucket"], r["tok"]) for r in part) == [
        ("src1", 1, 2), ("src1", 10, 5), ("src11", 0, 4)
    ]
    ds = ray.data.from_arrow(t)
    assert plan_bucket_bases(ds, shift) == {
        ("src1", 1): 0, ("src1", 10): 2, ("src11", 0): 0
    }
    got = {
        (r["source"], r["seq_id"]): list(r["tokens"])
        for r in pack_sequences(ds, 3, bucket_shift=shift).take_all()
    }
    assert got == {
        ("src1", 0): [5, 6, 7], ("src1", 1): [8, 9, 10], ("src1", 2): [11],
        ("src11", 0): [1, 2, 3], ("src11", 1): [4],
    }


def test_word_bigram_partials_edges(ray_session):
    """Punctuation boundaries, empty/one-word rows, no cross-row pairs."""
    import pyarrow as pa
    from fsst_like_ray.functions.vocab import word_bigram_partials

    t = pa.table(
        {
            "text": pa.array(
                [
                    "The fast, key!",   # case + punctuation merge
                    "",                  # empty row
                    "solo",              # one word: no bigram
                    ".a b.",             # leading/trailing separators
                    "a b",               # pairs with row above? must NOT
                ]
            )
        }
    )
    out = word_bigram_partials(t).to_pydict()
    got = dict(zip(out["bigram"], out["cnt"]))
    assert got == {"the fast": 1, "fast key": 1, "a b": 2}


def test_grouped_topk_unsigned_scores(ray_session):
    """Descending order must not wrap unsigned scores (negated dense
    ranks, not -s)."""
    import pyarrow as pa
    import ray.data
    from fsst_like_ray.functions.grouped_topk import grouped_topk

    t = pa.table(
        {
            "g": pa.array([0, 0, 0], type=pa.int64()),
            "s": pa.array([0, 5, 3], type=pa.uint64()),
            "id": pa.array([0, 1, 2], type=pa.int64()),
        }
    )
    got = (
        grouped_topk(ray.data.from_arrow(t), key="g", score="s", k=2,
                     tiebreak="id")
        .to_pandas()["s"]
        .tolist()
    )
    assert sorted(got) == [3, 5]


def test_tokenize_rows_null_text(ray_session):
    """Null text behaves as 0 tokens (the SQL unnest-of-NULL semantics)
    in both the bigram and explode kernels."""
    import pyarrow as pa
    from fsst_like_ray.functions.vocab import (
        tokenize_rows,
        word_bigram_partials,
    )

    t = pa.table({"text": pa.array(["a b", None, "c d"])})
    values, row_ids, keep = tokenize_rows(t)
    kept_rows = row_ids[keep]
    assert 1 not in kept_rows.tolist()
    out = word_bigram_partials(t).to_pydict()
    assert dict(zip(out["bigram"], out["cnt"])) == {"a b": 1, "c d": 1}


def test_redact_pii_edge_cases():
    import pyarrow as pa

    from fsst_like_ray.functions.textstats import redact_pii_batch

    t = pa.table(
        {
            "text": [
                "mail a.b_c%d@ex-ample.co.uk and x@y.io twice",
                "call +1-555-0042 or +44-20-7946-0958 now",
                None,
                "no pii here",
                "",
            ]
        }
    )
    out = redact_pii_batch(t)["text"].to_pylist()
    assert out[0] == "mail <EMAIL> and <EMAIL> twice"
    assert out[1] == "call <PHONE> or <PHONE> now"
    assert out[2] is None
    assert out[3] == "no pii here"
    assert out[4] == ""


def test_profile_table_with_nulls(ray_session):
    import ray.data
    from fsst_like_ray.functions.profile import profile_table

    t = pa.table(
        {
            "a": pa.array([1, 2, 2, None, 5], type=pa.int64()),
            "s": pa.array(["x", None, "x", "y", None]),
        }
    )
    out = profile_table(
        ray.data.from_arrow(t).repartition(3), int_cols=["a"]
    ).to_pandas().set_index("col")
    assert out.loc["a"]["n_rows"] == 5 and out.loc["a"]["n_null"] == 1
    assert out.loc["a"]["n_distinct"] == 3  # 1, 2, 5 (nulls excluded)
    assert out.loc["a"]["min_i"] == 1 and out.loc["a"]["max_i"] == 5
    assert out.loc["s"]["n_null"] == 2 and out.loc["s"]["n_distinct"] == 2
    assert pd.isna(out.loc["s"]["min_i"])


def test_word_and_search_whole_words(ray_session):
    """AND semantics over WHOLE words: substrings don't count, order and
    repetition don't matter, and the 63-term cap is enforced."""
    import pandas as pd
    import pytest as _pytest

    import ray

    from fsst_like_ray.functions.vocab import word_and_search

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    "sort then merge the files",     # both words
                    "mergesort is one word",          # substring only
                    "merge it",                       # one of two
                    "MERGE... SORT!",                 # case/punct robust
                ],
            }
        )
    ).repartition(2)
    out = word_and_search(docs, ("merge", "sort")).to_pandas()
    assert sorted(out["doc_id"]) == [1, 4]
    with _pytest.raises(ValueError):
        word_and_search(docs, tuple(f"t{i}" for i in range(64)))


def test_word_and_search_term_form_validated(ray_session):
    import pandas as pd
    import pytest as _pytest

    import ray

    from fsst_like_ray.functions.vocab import word_and_search

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1], "text": ["merge sort"]})
    )
    for bad in ("Merge", "foo-bar", ""):
        with _pytest.raises(ValueError, match="cannot match|1..63"):
            word_and_search(docs, (bad,))
    # duplicate terms collapse, still correct
    assert sorted(
        word_and_search(docs, ("merge", "merge", "sort")).to_pandas()["doc_id"]
    ) == [1]


def test_phrase_search_adjacency(ray_session):
    """Phrase requires ADJACENT in-order words; punctuation between words
    is transparent (tokenizer contract); cross-order and gapped docs
    don't match; 3-word phrases work."""
    import pandas as pd
    import pytest as _pytest

    import ray

    from fsst_like_ray.functions.vocab import phrase_search

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "text": [
                    "we merge sort daily",
                    "merge, SORT!",          # punctuation transparent
                    "sort merge",            # wrong order
                    "merge the sort",        # gapped
                    "a merge sort key here",
                ],
            }
        )
    ).repartition(2)
    out = phrase_search(docs, "merge sort").to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 5]
    out3 = phrase_search(docs, "merge sort key").to_pandas()
    assert sorted(out3["doc_id"]) == [5]
    with _pytest.raises(ValueError):
        phrase_search(docs, "   ")


def test_phrase_search_term_form_validated(ray_session):
    import pandas as pd
    import pytest as _pytest

    import ray

    from fsst_like_ray.functions.vocab import phrase_search

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1], "text": ["merge sort"]})
    )
    for bad in ("merge-sort algo", "don't stop"):
        with _pytest.raises(ValueError, match="cannot match"):
            phrase_search(docs, bad)
    # case is normalized by the operator itself, like the tokenizer
    assert phrase_search(docs, "Merge SORT").to_pandas()["doc_id"].tolist() \
        == [1]


def test_exact_dedup_no_broadcast_path(ray_session, docs, monkeypatch):
    """Hot-key sets above HOT_KEY_BROADCAST_CAP must never be collected to
    the driver: the semi-join path must produce the same drop set as the
    broadcast path."""
    import ray.data
    from fsst_like_ray.functions import dedup as D

    t = _docs_with_dups(docs)
    ds = ray.data.from_arrow(t)
    expect = set(r["doc_id"] for r in D.exact_duplicates(ds).take_all())
    # force BOTH driver fast paths off: hot keys may not broadcast and the
    # survivor rows may not stream to the driver
    monkeypatch.setattr(D, "HOT_KEY_BROADCAST_CAP", 0)
    monkeypatch.setattr(D, "DRIVER_CAP_ROWS", 0)
    got = set(
        r["doc_id"]
        for r in D.exact_duplicates(ray.data.from_arrow(t)).take_all()
    )
    assert got == expect and len(got) > 0


def test_normalized_best_dedup(ray_session):
    import pyarrow as pa
    import ray.data
    from fsst_like_ray.functions.dedup import normalized_best_duplicates

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
            "text": pa.array(
                [
                    "hello  world",   # normalizes to "hello world", len 12
                    " hello world ",  # same group, len 14 → drop
                    "hello world",    # same group, len 11 → KEEPER
                    "unrelated doc",
                    "unrelated  doc ",  # groups with 4 (len 15 > 13) → drop
                    "",                # empty stays alone
                ]
            ),
        }
    )
    dropped = set(
        r["doc_id"]
        for r in normalized_best_duplicates(
            ray.data.from_arrow(t)
        ).take_all()
    )
    assert dropped == {1, 2, 5}


def test_token_sequence_dedup(ray_session):
    """token_sequence_duplicates drops exactly the later-id copies of
    identical int32 token sequences — including a hash-collision-free
    verify (two distinct rows must both survive even when short) and
    empty-row handling."""
    import ray.data
    from fsst_like_ray.functions.dedup import token_sequence_duplicates

    rng = np.random.default_rng(4)
    rows = [list(rng.integers(0, 5000, rng.integers(0, 60))) for _ in range(120)]
    rows[7] = []          # empty sequence
    rows[11] = []         # duplicate empty sequence -> 11 drops
    ids = list(range(120))
    # plant copies: rows 100.. copy rows 0..19 (later ids drop)
    for k in range(20):
        rows[100 + k] = list(rows[k])
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    flat = (
        np.concatenate([np.asarray(r, dtype=np.int32) for r in rows if r])
        if any(rows) else np.zeros(0, dtype=np.int32)
    )
    tok = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), type=pa.int32()),
        pa.array(flat, type=pa.int32()),
    )
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "tokens": tok})
    ds = ray.data.from_arrow(t)
    dropped = set(r["doc_id"] for r in token_sequence_duplicates(ds).take_all())
    seen = {}
    expect = set()
    for i in ids:
        key = tuple(rows[i])
        if key in seen:
            expect.add(i)
        else:
            seen[key] = i
    assert dropped == expect
    assert 11 in dropped and 7 not in dropped
    assert all(100 + k in dropped for k in range(20))


def test_token_budget_sample(ray_session):
    """Per-source token budget engages in deterministic hash order — the
    brute-force oracle walks each source's docs sorted by
    (hash32(doc_id), doc_id) keeping while the PRIOR total is under
    budget. bucket_bits=28 forces many hash buckets so the plan's
    per-bucket base offsets are exercised, and results must be identical
    at any parallelism."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fsst_like_ray.functions.sampling import (
        sample_hash32,
        token_budget_sample,
    )

    rng = np.random.default_rng(71)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    lens = rng.integers(5, 60, n).astype(np.int64)
    srcs = [f"s{i % 3}" for i in range(n)]
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    tbl = pa.table(
        {
            "doc_id": pa.array(ids),
            "tokens": pa.ListArray.from_arrays(
                pa.array(off.astype(np.int32), type=pa.int32()),
                pa.array(
                    rng.integers(0, 100, int(off[-1])).astype(np.int32),
                    type=pa.int32(),
                ),
            ),
            "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
            "source": pa.array(srcs),
        }
    )
    budget = 800
    expect = set()
    h = sample_hash32(ids).astype(np.int64)
    for s in ("s0", "s1", "s2"):
        rows = sorted(
            (int(h[i]), int(ids[i]), int(lens[i]))
            for i in range(n)
            if srcs[i] == s
        )
        acc = 0
        for _hk, d, ln in rows:
            if acc < budget:
                expect.add(d)
            acc += ln
    for nparts in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        got = token_budget_sample(ds, budget, bucket_bits=28).to_pandas()
        assert set(got["doc_id"]) == expect, nparts


def test_grouped_topk_many_keys_bucketed_merge(ray_session):
    """The coarse-bucket merge must equal the analytic per-key top-k on a
    key count far above n_buckets (per-group Python is O(buckets), but
    correctness is per KEY), across int and string key types."""
    import ray.data
    from fsst_like_ray.functions.grouped_topk import grouped_topk

    rng = np.random.default_rng(11)
    n, n_keys = 20_000, 1_500
    keys = rng.integers(0, n_keys, n)
    scores = rng.integers(0, 1_000, n)
    ids = np.arange(n)
    t = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "ks": pa.array([f"key-{v}" for v in keys]),
            "s": pa.array(scores, type=pa.int64()),
            "id": pa.array(ids, type=pa.int64()),
        }
    )
    df = t.to_pandas()
    expect = (
        df.sort_values(["k", "s", "id"], ascending=[True, False, True])
        .groupby("k")
        .head(2)
        .sort_values(["k", "s", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    for key in ("k", "ks"):
        got = (
            grouped_topk(
                ray.data.from_arrow(t).repartition(8),
                key=key, score="s", k=2, tiebreak="id", n_buckets=16,
            )
            .to_pandas()
            .sort_values(["k", "s", "id"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
        assert got["id"].tolist() == expect["id"].tolist(), key
