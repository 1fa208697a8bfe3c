"""Unit tests for events windows/sessionization, broadcast join, and the
newer encode internals (chunk bounds, used_chars bitmap) — edge cases the
oracle sweep can't hit."""

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
    buf, po = fsstlib.encode(data, off, table)
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


def test_sessionize_matches_pandas(ray_session):
    from fsst_like_ray.functions.events import sessionize

    rng = np.random.default_rng(7)
    n = 500
    base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = base + np.sort(rng.integers(0, 86400_000_000, n))
    t = pa.table(
        {
            "user_id": pa.array(rng.integers(0, 20, n), type=pa.int64()),
            "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
            "event_type": pa.array(["x"] * n),
            "value": pa.array(rng.uniform(0, 100, n).round(2)),
        }
    )
    out = sessionize(ray.data.from_arrow(t), gap_s=600).to_pandas()
    # pandas oracle
    df = t.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    df["cents"] = np.rint(df["value"] * 100).astype(np.int64)
    rows = []
    for uid, g in df.sort_values("ts_us").groupby("user_id"):
        tss = g["ts_us"].to_numpy()
        new = np.ones(len(tss), bool)
        new[1:] = (tss[1:] - tss[:-1]) > 600 * 1_000_000
        sid = np.cumsum(new)
        gg = pd.DataFrame({"sid": sid, "ts": tss, "cents": g["cents"].to_numpy()})
        for s_id, sg in gg.groupby("sid"):
            rows.append(
                (uid, s_id, sg["ts"].min(), sg["ts"].max(), len(sg),
                 sg["cents"].sum())
            )
    exp = pd.DataFrame(
        rows,
        columns=["user_id", "session_id", "session_start_us",
                 "session_end_us", "n_events", "value_cents"],
    )
    key = ["user_id", "session_id"]
    a = out.sort_values(key).reset_index(drop=True)
    b = exp.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a.astype("int64"), b.astype("int64"), check_dtype=False
    )


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


def test_sessionize_sliced_equals_plain(ray_session):
    """The vectorized partials default must produce EXACTLY the per-user
    reference formulation's rows (any slice width, including slices
    smaller than the gap)."""
    import ray.data
    from fsst_like_ray.functions.events import (
        _sessionize_per_user,
        sessionize,
    )

    ds = lambda: ray.data.read_parquet(
        "/root/testdata/sf0.001/events.parquet",
        columns=["ts", "user_id", "event_type", "value"],
    )
    plain = _sessionize_per_user(ds(), gap_s=1800).to_pandas()
    for slice_s in (None, 3600, 900):
        sliced = sessionize(ds(), gap_s=1800, slice_s=slice_s).to_pandas()
        a = plain.sort_values(list(plain.columns)).reset_index(drop=True)
        b = sliced.sort_values(list(sliced.columns)).reset_index(drop=True)
        assert a.equals(b), slice_s


def _asof_python_oracle(lt, rt, tolerance=None):
    """Row-at-a-time reference: for each left row the max-(on, tiebreak)
    right row with same key and on <= left on (within tolerance)."""
    out = {}
    for i in range(len(lt["key"])):
        best = None
        for j in range(len(rt["key"])):
            if rt["key"][j] != lt["key"][i] or rt["on"][j] > lt["on"][i]:
                continue
            if tolerance is not None and lt["on"][i] - rt["on"][j] > tolerance:
                continue
            if best is None or (rt["on"][j], rt["tb"][j]) > (
                rt["on"][best],
                rt["tb"][best],
            ):
                best = j
        out[lt["id"][i]] = None if best is None else rt["tb"][best]
    return out


def test_asof_join_matches_python_oracle(ray_session):
    """Randomized multi-partition as-of join (inner + left + tolerance +
    planted on-ties) against a quadratic Python oracle."""
    import ray.data
    from fsst_like_ray.functions.asof import asof_join

    rng = np.random.default_rng(11)
    nl, nr = 300, 200
    lt = {
        "id": np.arange(nl),
        "key": rng.integers(0, 12, nl),
        "on": rng.integers(0, 1000, nl).astype(np.int64),
    }
    rt = {
        "tb": np.arange(nr),
        "key": rng.integers(0, 14, nr),  # some keys absent on the left
        "on": rng.integers(0, 1000, nr).astype(np.int64),
    }
    # plant exact (key, on) ties on the right: tiebreak must decide
    rt["key"][50:60] = rt["key"][40:50]
    rt["on"][50:60] = rt["on"][40:50]
    left = ray.data.from_arrow(
        pa.table({"id": lt["id"], "key": lt["key"], "on": lt["on"]})
    ).repartition(5)
    right = ray.data.from_arrow(
        pa.table({"tb": rt["tb"], "key": rt["key"], "on": rt["on"]})
    ).repartition(4)
    for how, tol in (("inner", None), ("left", None), ("inner", 50)):
        got = asof_join(
            left,
            right,
            by="key",
            on="on",
            how=how,
            tolerance=tol,
            right_tiebreak="tb",
        ).to_pandas()
        want = _asof_python_oracle(lt, rt, tolerance=tol)
        if how == "inner":
            want = {k: v for k, v in want.items() if v is not None}
        assert len(got) == len(want), (how, tol)
        for _, row in got.iterrows():
            exp = want[row["id"]]
            if exp is None:
                assert pd.isna(row["tb_r"]), row
            else:
                assert row["tb_r"] == exp, (how, tol, dict(row))


def test_range_agg_join_matches_python_oracle(ray_session):
    import ray.data
    from fsst_like_ray.functions.asof import range_agg_join

    rng = np.random.default_rng(13)
    nl, nr = 200, 400
    lid = np.arange(nl)
    lkey = rng.integers(0, 10, nl)
    lon = rng.integers(0, 500, nl).astype(np.int64)
    rkey = rng.integers(0, 10, nr)
    ron = rng.integers(0, 500, nr).astype(np.int64)
    rval = rng.integers(-100, 100, nr).astype(np.int64)
    left = ray.data.from_arrow(
        pa.table({"id": lid, "key": lkey, "on": lon})
    ).repartition(3)
    right = ray.data.from_arrow(
        pa.table({"key": rkey, "on": ron, "v": rval})
    ).repartition(4)
    lo, hi = -20, 30
    got = (
        range_agg_join(
            left, right, by="key", on="on", lo=lo, hi=hi, value="v"
        )
        .to_pandas()
        .set_index("id")
    )
    assert len(got) == nl
    for i in range(nl):
        m = (rkey == lkey[i]) & (ron >= lon[i] + lo) & (ron < lon[i] + hi)
        assert got.loc[lid[i], "n_r"] == m.sum(), i
        assert got.loc[lid[i], "sum_r"] == rval[m].sum(), i


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


def test_grouped_quantiles_matches_duckdb(ray_session):
    """Histogram-merge quantiles vs quantile_disc over a shuffled
    multi-partition input with skewed per-key counts."""
    import duckdb
    import ray.data
    from fsst_like_ray.functions.quantiles import grouped_quantiles

    rng = np.random.default_rng(23)
    n = 3000
    t = pa.table(
        {
            "k": pa.array(
                np.repeat(["a", "b", "c", "d"], [2500, 400, 99, 1])
            ),
            "v": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        }
    )
    ds = ray.data.from_arrow(t).random_shuffle(seed=1).repartition(6)
    got = (
        grouped_quantiles(ds, "k", "v", qs=(0.5, 0.9, 0.99))
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    want = (
        duckdb.connect()
        .execute(
            "SELECT k, count(*) n, quantile_disc(v, 0.5) p50,"
            " quantile_disc(v, 0.9) p90, quantile_disc(v, 0.99) p99"
            " FROM t GROUP BY k ORDER BY k"
        )
        .df()
        .set_index("k")
    )
    for c in ("n", "p50", "p90", "p99"):
        assert (got[c].values == want[c].values).all(), c


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


def test_keyed_window_matches_pandas(ray_session):
    """rn / running sum / lag vs a pandas window oracle, stable under
    repartitioning; ties on the order column resolved by tiebreak."""
    import ray.data
    from fsst_like_ray.functions.window_fn import keyed_window

    rng = np.random.default_rng(41)
    n = 600
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 9, n)),
            "o": pa.array(rng.integers(0, 40, n).astype(np.int64)),  # ties
            "v": pa.array(rng.integers(-5, 50, n).astype(np.int64)),
            "id": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    df = (
        t.to_pandas()
        .sort_values(["k", "o", "id"])
        .reset_index(drop=True)
    )
    g = df.groupby("k")
    df["rn"] = g.cumcount() + 1
    df["v_run"] = g["v"].cumsum()
    df["o_lag"] = g["o"].shift(1)

    for parts in (1, 5):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = (
            keyed_window(
                ds, key="k", order="o", sum_col="v", lag_col="o",
                tiebreak="id",
            )
            .to_pandas()
            .sort_values(["k", "o", "id"])
            .reset_index(drop=True)
        )
        for c in ("rn", "v_run"):
            assert (got[c].values == df[c].values).all(), (parts, c)
        lag_ok = (got["o_lag"].isna() == df["o_lag"].isna()).all() and (
            got["o_lag"].dropna().values == df["o_lag"].dropna().values
        ).all()
        assert lag_ok, parts


def test_keyed_window_roll_and_ntile(ray_session):
    """Rolling sum equals brute-force window; NTILE split matches the
    SQL sizing rule (first m%n buckets one extra) for every group size."""
    import ray.data
    from fsst_like_ray.functions.window_fn import _ntile, keyed_window

    # NTILE sizing: all (m, n) small cases vs the definition
    for m in range(1, 12):
        for n in range(1, 6):
            b = _ntile(m, n)
            sizes = np.bincount(b)[1:]
            q, r = divmod(m, n)
            want = [q + 1] * r + [q] * (min(m, n) - r)
            assert list(sizes[sizes > 0]) == [s for s in want if s > 0], (m, n)
            assert (np.diff(b) >= 0).all()

    rng = np.random.default_rng(11)
    nrow = 300
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 7, nrow)),
            "o": pa.array(np.arange(nrow, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 100, nrow).astype(np.int64)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    got = (
        keyed_window(ds, key="k", order="o", roll=("v", 4), ntile=3)
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    want_roll = (
        df.groupby("k")["v"]
        .rolling(4, min_periods=1)
        .sum()
        .reset_index(drop=True)
        .astype(np.int64)
    )
    assert (got["v_roll4"].values == want_roll.values).all()


from hypothesis import given, settings, strategies as st


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),    # key
            st.integers(min_value=0, max_value=5),    # order (many ties)
            st.integers(min_value=-100, max_value=100),  # value
        ),
        min_size=1,
        max_size=60,
    ),
    w=st.integers(min_value=1, max_value=5),
    nt=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_keyed_window_property(ray_session, data, w, nt):
    """Random keyed tables with heavy order-ties: rn / running sum /
    rolling sum / ntile all match a pandas window oracle (tiebreak = id
    makes the expected order unique)."""
    import ray.data
    from fsst_like_ray.functions.window_fn import keyed_window

    k = np.array([d[0] for d in data], dtype=np.int64)
    o = np.array([d[1] for d in data], dtype=np.int64)
    v = np.array([d[2] for d in data], dtype=np.int64)
    ids = np.arange(len(data), dtype=np.int64)
    t = pa.table({"k": k, "o": o, "v": v, "id": ids})
    got = (
        keyed_window(
            ray.data.from_arrow(t).repartition(3),
            key="k", order="o", sum_col="v", tiebreak="id",
            roll=("v", w), ntile=nt,
        )
        .to_pandas()
        .sort_values(["k", "o", "id"])
        .reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["k", "o", "id"]).reset_index(drop=True)
    g = df.groupby("k")
    assert (got["rn"].values == (g.cumcount() + 1).values).all()
    assert (got["v_run"].values == g["v"].cumsum().values).all()
    roll = (
        g["v"].rolling(w, min_periods=1).sum().reset_index(drop=True)
    )
    assert (got[f"v_roll{w}"].values == roll.values.astype(np.int64)).all()
    # ntile: per key, sizes match the SQL rule and buckets are ordered
    for kk, sub in got.groupby("k"):
        b = sub[f"q{nt}"].values
        m = len(b)
        q, r = divmod(m, nt)
        sizes = np.bincount(b, minlength=nt + 1)[1:]
        want = np.array([q + 1] * r + [q] * (nt - r))
        assert (sizes == want).all()
        assert (np.diff(b) >= 0).all()


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


def test_funnel_ordered_matching(ray_session):
    """Users must hit view→click→purchase with STRICTLY increasing ts:
    out-of-order, missing-stage, and tied-timestamp users are excluded;
    extra interleaved events are harmless."""
    import ray.data
    from fsst_like_ray.functions.events import funnel_completions

    rows = [
        # u1 completes: view@10, click@20, purchase@30 (noise between)
        (1, 10, "view"), (1, 15, "error"), (1, 20, "click"), (1, 30, "purchase"),
        # u2 purchase BEFORE click -> no
        (2, 10, "view"), (2, 20, "purchase"), (2, 30, "click"),
        # u3 missing click -> no
        (3, 10, "view"), (3, 30, "purchase"),
        # u4 tie: click at the SAME ts as view -> strict order fails,
        # but a later click@25 + purchase@26 completes
        (4, 10, "view"), (4, 10, "click"), (4, 25, "click"), (4, 26, "purchase"),
        # u5 completes with earliest-chain semantics: first view@10,
        # first click after it is @12, purchase after 12 is @13
        (5, 10, "view"), (5, 12, "click"), (5, 13, "purchase"), (5, 50, "purchase"),
        # u6 click before any view -> the @5 click doesn't count; no later click
        (6, 5, "click"), (6, 10, "view"), (6, 20, "purchase"),
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array(
                [r[1] * 1_000_000 for r in rows], type=pa.timestamp("us")
            ),
            "event_type": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = funnel_completions(ds).to_pandas().sort_values("user_id")
    assert list(got["user_id"]) == [1, 4, 5]
    assert list(got["completed_us"]) == [
        30 * 1_000_000,
        26 * 1_000_000,
        13 * 1_000_000,
    ]


def test_global_rank_ties_and_uneven_ntile(ray_session):
    """Histogram-base + tie-position ranking equals ROW_NUMBER/NTILE over
    (v, id) with heavy ties and N % k != 0."""
    import ray.data
    from fsst_like_ray.functions.globalrank import global_rank

    rng = np.random.default_rng(31)
    n = 1003  # deliberately not divisible by 4
    df = pd.DataFrame(
        {
            "id": rng.permutation(n).astype(np.int64),
            "v": rng.integers(0, 7, n).astype(np.int64),  # heavy ties
        }
    )
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(6)
    got = (
        global_rank(ds, "v", "id", ntile=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = df.sort_values(["v", "id"]).reset_index(drop=True)
    want["rank"] = np.arange(1, n + 1, dtype=np.int64)
    q, r = divmod(n, 4)
    tiles = np.concatenate(
        [np.full(q + (1 if i < r else 0), i + 1) for i in range(4)]
    )
    want["q4"] = tiles
    want = want.sort_values("id").reset_index(drop=True)
    assert (got["rank"].values == want["rank"].values).all()
    assert (got["q4"].values == want["q4"].values).all()


def test_hourly_ohlc_deterministic_across_blocks(ray_session):
    """Open/close must come from the (ts, event_id) extremes regardless of
    block structure; ties on ts broken by event_id."""
    import numpy as np
    import pandas as pd

    import ray

    from fsst_like_ray.functions.events import hourly_ohlc

    base = pd.Timestamp("2020-01-01").value // 1000
    df = pd.DataFrame(
        {
            "event_id": [3, 1, 2, 10, 11],
            "ts": pd.to_datetime(
                [base, base, base + 60_000_000, base, base + 10_000_000],
                unit="us",
            ).astype("datetime64[us]"),  # match the testdata's µs precision
            "event_type": ["a", "a", "a", "b", "b"],
            "value": [3.0, 1.0, 2.0, 5.0, 6.0],
        }
    )
    for n_blocks in (1, 4):
        out = (
            hourly_ohlc(ray.data.from_pandas(df).repartition(n_blocks))
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        # type a: open = event_id 1 (ts tie, lower id), close = id 2
        assert out.loc[0, "open_cents"] == 100
        assert out.loc[0, "close_cents"] == 200
        assert out.loc[0, "high_cents"] == 300
        assert out.loc[0, "low_cents"] == 100
        assert out.loc[0, "n"] == 3
        # type b: open id 10, close id 11
        assert (out.loc[1, ["open_cents", "close_cents"]] == [500, 600]).all()


def test_bucket_kernels_keep_schema_on_empty_blocks():
    """keyed_window's and hourly_ohlc's per-bucket kernels return the full
    output schema (derived columns included, same types) for a zero-row
    block — a sliced one or one with no chunks at all."""
    from fsst_like_ray.functions.events import _ohlc_merge_bucket
    from fsst_like_ray.functions.window_fn import _window_block

    def empties(t):
        return [t.slice(0, 0), pa.Table.from_batches([], schema=t.schema)]

    t = pa.table(
        {
            "k": pa.array(["a", "b", "a", "b", "a"]),
            "o": pa.array([3, 1, 2, 5, 4], type=pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "f": pa.array([None, 1.5, 2.0, None, 3.0]),
        }
    )
    kw = dict(
        key="k", order="o", sum_col="v", lag_col="f", tiebreak="v",
        roll=("v", 2), ntile=2, fill_col="f",
    )
    full = _window_block(t, **kw)
    assert {"rn", "v_run", "v_roll2", "q2", "f_ffill", "f_lag"} <= set(
        full.column_names
    )
    for e in empties(t):
        got = _window_block(e, **kw)
        assert got.num_rows == 0 and got.schema == full.schema

    i64 = pa.int64()
    g = pa.table(
        {
            "event_type": pa.array(["x", "y", "x"]),
            "hour": pa.array([1, 1, 2], type=i64),
            "ots": pa.array([5, 6, 7], type=i64),
            "oid": pa.array([1, 2, 3], type=i64),
            "open_cents": pa.array([10, 20, 30], type=i64),
            "cts": pa.array([5, 6, 7], type=i64),
            "cid": pa.array([1, 2, 3], type=i64),
            "close_cents": pa.array([10, 20, 30], type=i64),
            "high_cents": pa.array([10, 20, 30], type=i64),
            "low_cents": pa.array([10, 20, 30], type=i64),
            "n": pa.array([1, 1, 1], type=i64),
        }
    )
    full = _ohlc_merge_bucket(g, "event_type")
    assert full.column_names == [
        "event_type", "hour", "open_cents", "high_cents", "low_cents",
        "close_cents", "n",
    ]
    for e in empties(g):
        got = _ohlc_merge_bucket(e, "event_type")
        assert got.num_rows == 0 and got.schema == full.schema


def test_resample_locf_semantics(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fsst_like_ray.functions.events import resample_locf

    us = 1_000_000
    # key 'a': hours 0 and 3 observed (hour 0 has two rows — last by
    # (ts,event_id) wins); key 'b': only hour 2 observed
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "ts": pa.array(
                [10 * us, 20 * us, 3 * 3600 * us, 2 * 3600 * us],
                type=pa.timestamp("us"),
            ),
            "event_type": pa.array(["a", "a", "a", "b"]),
            "value": pa.array([1.0, 2.0, 3.0, 9.0]),
        }
    )
    for parts in (1, 3):  # determinism under repartitioning
        ds = ray.data.from_arrow(t).repartition(parts)
        out = (
            resample_locf(ds, step_s=3600)
            .to_pandas()
            .sort_values(["event_type", "bucket"])
            .reset_index(drop=True)
        )
        got = list(
            zip(out["event_type"], out["bucket"], out["cents"])
        )
        assert got == [
            ("a", 0, 200),   # last of the two hour-0 rows
            ("a", 1, 200),   # gap: carried forward
            ("a", 2, 200),
            ("a", 3, 300),
            ("b", 0, -1),    # before first observation: fill
            ("b", 1, -1),
            ("b", 2, 900),
            ("b", 3, 900),   # carried to the end of the global grid
        ]


def test_bucketed_kernels_empty_and_single_key(ray_session):
    """The coarse-bucket kernels must survive empty inputs and all-rows-
    one-key inputs (every row lands in one bucket) across the rewritten
    operators."""
    import ray.data
    from fsst_like_ray.functions.asof import asof_join, range_agg_join
    from fsst_like_ray.functions.grouped_topk import grouped_topk
    from fsst_like_ray.functions.window_fn import keyed_window

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

    w = keyed_window(one, key="k", order="on", sum_col="v").to_pandas()
    w = w.sort_values("rn")
    assert w["v_run"].tolist() == np.cumsum(np.arange(50)).tolist()

    j = asof_join(one, one, by="k", on="on", right_suffix="_r").count()
    assert j == 50  # every row matches itself (on <= on)
    r = range_agg_join(
        one, one, by="k", on="on", lo=0, hi=1, value="v"
    ).to_pandas()
    assert sorted(r["n_r"].tolist()) == [1] * 50  # exactly self in [on, on+1)
    assert sorted(r["sum_r"].tolist()) == sorted(r["v"].tolist())


def test_asof_and_range_random_vs_bruteforce(ray_session):
    """Randomized equivalence: the union-sort multi-key as-of and the
    probe-event range aggregate must match a brute-force per-row oracle
    across keys, ties, empty-right keys and tolerance."""
    import ray.data
    from fsst_like_ray.functions.asof import asof_join, range_agg_join

    rng = np.random.default_rng(23)
    for trial in range(4):
        nl, nr = 300, 250
        lk = rng.integers(0, 12, nl)
        rk = rng.integers(0, 14, nr)  # some right-only / left-only keys
        lon = rng.integers(0, 100, nl)
        ron = rng.integers(0, 100, nr)
        rid = np.arange(nr)
        rv = rng.integers(-50, 50, nr)
        left = pa.table(
            {
                "k": pa.array(lk, type=pa.int64()),
                "on": pa.array(lon, type=pa.int64()),
                "lid": pa.array(np.arange(nl), type=pa.int64()),
            }
        )
        right = pa.table(
            {
                "k": pa.array(rk, type=pa.int64()),
                "on": pa.array(ron, type=pa.int64()),
                "rid": pa.array(rid, type=pa.int64()),
                "val": pa.array(rv, type=pa.int64()),
            }
        )
        lds = ray.data.from_arrow(left).repartition(3)
        rds = ray.data.from_arrow(right).repartition(2)
        tol = [None, 7][trial % 2]
        got = (
            asof_join(
                lds, rds, by="k", on="on", how="left",
                tolerance=tol, right_tiebreak="rid",
            )
            .to_pandas()
            .sort_values("lid")
            .reset_index(drop=True)
        )
        for _, row in got.iterrows():
            m = (rk == row["k"]) & (ron <= row["on"])
            if tol is not None:
                m &= (row["on"] - ron) <= tol
            if not m.any():
                assert pd.isna(row["rid_r"]), row
            else:
                cand = np.flatnonzero(m)
                best = cand[np.lexsort((rid[cand], ron[cand]))][-1]
                assert row["rid_r"] == rid[best], row
        ra = (
            range_agg_join(
                lds, rds, by="k", on="on", lo=-3, hi=4, value="val"
            )
            .to_pandas()
            .sort_values("lid")
            .reset_index(drop=True)
        )
        for _, row in ra.iterrows():
            m = (
                (rk == row["k"])
                & (ron >= row["on"] - 3)
                & (ron < row["on"] + 4)
            )
            assert row["n_r"] == int(m.sum()), row
            assert row["sum_r"] == int(rv[m].sum()), row


def test_keyed_window_random_vs_pandas(ray_session):
    """Randomized equivalence of the run-segmented multi-key window
    kernel vs a pandas per-group oracle: running sum, rolling sum, lag,
    ffill and NTILE across many keys and blocks."""
    import ray.data
    from fsst_like_ray.functions.window_fn import keyed_window

    rng = np.random.default_rng(31)
    n = 4000
    k = rng.integers(0, 37, n)
    order = rng.integers(0, 500, n)
    tb = np.arange(n)
    v = rng.integers(-20, 20, n)
    fill = [None if x % 5 == 0 else int(x) for x in rng.integers(0, 99, n)]
    t = pa.table(
        {
            "k": pa.array(k, type=pa.int64()),
            "o": pa.array(order, type=pa.int64()),
            "tb": pa.array(tb, type=pa.int64()),
            "v": pa.array(v, type=pa.int64()),
            "f": pa.array(fill, type=pa.int64()),
        }
    )
    got = (
        keyed_window(
            ray.data.from_arrow(t).repartition(5),
            key="k", order="o", tiebreak="tb",
            sum_col="v", lag_col="v", roll=("v", 3), ntile=4,
            fill_col="f",
        )
        .to_pandas()
        .sort_values(["k", "o", "tb"])
        .reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["k", "o", "tb"]).reset_index(drop=True)
    g = df.groupby("k")
    df["rn"] = g.cumcount() + 1
    df["v_run"] = g["v"].cumsum()
    df["v_roll3"] = (
        g["v"].rolling(3, min_periods=1).sum().reset_index(drop=True)
    )
    df["v_lag"] = g["v"].shift(1)
    df["f_ffill"] = g["f"].ffill()
    sizes = g["k"].transform("size")
    df["q4"] = (
        g.cumcount()
        .to_frame("rn0")
        .join(sizes.rename("sz"))
        .apply(
            lambda r: (
                int(r["rn0"] // (r["sz"] // 4 + 1) + 1)
                if r["rn0"] < (r["sz"] % 4) * (r["sz"] // 4 + 1)
                else int(
                    r["sz"] % 4
                    + (r["rn0"] - (r["sz"] % 4) * (r["sz"] // 4 + 1))
                    // (r["sz"] // 4)
                    + 1
                )
            ),
            axis=1,
        )
    )
    assert got["rn"].tolist() == df["rn"].tolist()
    assert got["v_run"].tolist() == df["v_run"].tolist()
    assert got["v_roll3"].tolist() == df["v_roll3"].astype(int).tolist()
    assert (
        got["v_lag"].fillna(-999).tolist()
        == df["v_lag"].fillna(-999).tolist()
    )
    assert (
        got["f_ffill"].fillna(-999).tolist()
        == df["f_ffill"].fillna(-999).tolist()
    )
    assert got["q4"].tolist() == df["q4"].tolist()
