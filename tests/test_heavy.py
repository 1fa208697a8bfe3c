"""Misra-Gries heavy hitters — sketch behavior the oracle
sweep can't exercise (the testdata vocab is smaller than k, so compression
never fires there)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data


def test_mg_compress_bound():
    from fsst_like_ray.functions.heavy import mg_compress

    rng = np.random.default_rng(3)
    items = np.arange(10_000)
    counts = rng.zipf(1.4, 10_000).astype(np.int64)
    k = 64
    kept_i, kept_c = mg_compress(items, counts, k)
    assert len(kept_i) <= k
    # undercount per item ≤ total/(k+1)
    n = counts.sum()
    orig = dict(zip(items.tolist(), counts.tolist()))
    for i, c in zip(kept_i.tolist(), kept_c.tolist()):
        assert 0 < c <= orig[i]
        assert orig[i] - c <= n / (k + 1)
    # every item with count > n/(k+1) survives
    for i, c in orig.items():
        if c > n / (k + 1):
            assert i in set(kept_i.tolist())


def test_heavy_hitters_zipf_exact(ray_session):
    """Zipf stream with 10k distinct items, support chosen so k=2000 ≪
    distinct count: per-batch AND merge compression both fire, yet the
    two-phase output equals the exact numpy answer (guaranteed recall +
    exact recount)."""
    from fsst_like_ray.functions.heavy import heavy_hitters

    rng = np.random.default_rng(7)
    stream = rng.zipf(1.3, 200_000)
    stream = stream[stream < 10_000].astype(np.int64)
    support = 0.001
    n = len(stream)
    u, c = np.unique(stream, return_counts=True)
    want = {
        int(i): int(cnt)
        for i, cnt in zip(u, c)
        if cnt >= np.ceil(support * n)
    }
    assert 5 < len(want) < 400  # meaningful, selective
    tbl = pa.table({"x": pa.array(stream, type=pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(8)
    out = heavy_hitters(
        ds,
        lambda b: b["x"].to_numpy(zero_copy_only=False),
        support=support,
    )
    got = dict(
        zip(
            (int(x) for x in out["item"].to_pylist()),
            (int(x) for x in out["n"].to_pylist()),
        )
    )
    assert got == want


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2000), st.integers(1, 500)),
        min_size=1,
        max_size=200,
    ),
    st.integers(2, 40),
)
def test_mg_compress_properties(pairs, k):
    """For ANY counter multiset and k: ≤ k survivors, no overcount,
    undercount ≤ total/(k+1), and every item above that bound survives."""
    import numpy as np

    from fsst_like_ray.functions.heavy import mg_compress

    d = {}
    for i, c in pairs:
        d[i] = d.get(i, 0) + c
    items = np.array(sorted(d), dtype=np.int64)
    counts = np.array([d[i] for i in sorted(d)], dtype=np.int64)
    total = int(counts.sum())
    ki, kc = mg_compress(items, counts, k)
    assert len(ki) <= k
    kept = dict(zip(ki.tolist(), kc.tolist()))
    for i, c in d.items():
        got = kept.get(i, 0)
        assert 0 <= got <= c
        assert c - got <= total / (k + 1)
        if c > total / (k + 1):
            assert got > 0
