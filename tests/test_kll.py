"""Quantile-sketch contract tests: the self-reported rank tolerance must
BOUND the observed error on adversarial distributions, merging must be
order-insensitive in its guarantees, and serialization must round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from fsst_like_ray.functions.kll import QuantileSketch

QS = np.array([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])


def _true_rank_range(data_sorted, x):
    lo = np.searchsorted(data_sorted, x, side="left") + 1
    hi = np.searchsorted(data_sorted, x, side="right")
    return lo, hi


def _check_contract(sk, data):
    ds = np.sort(data)
    est = sk.quantile(QS)
    tol = sk.rank_tolerance()
    for q, e in zip(QS, est):
        target = int(np.ceil(q * len(ds)))
        lo, hi = _true_rank_range(ds, e)
        assert lo - tol <= target <= hi + tol, (q, target, lo, hi, tol)
    # tolerance must be a real bound, not a trivially huge one
    assert tol < max(len(ds) // 4, 8), tol


@pytest.mark.parametrize(
    "dist",
    ["uniform", "zipf", "sorted", "reversed", "constant", "bimodal"],
)
def test_rank_contract(dist):
    rng = np.random.default_rng(11)
    n = 50_000
    data = {
        "uniform": rng.random(n),
        "zipf": rng.zipf(1.5, n).astype(np.float64),
        "sorted": np.arange(n, dtype=np.float64),
        "reversed": np.arange(n, dtype=np.float64)[::-1],
        "constant": np.full(n, 3.14),
        "bimodal": np.concatenate([rng.normal(0, 1, n // 2),
                                   rng.normal(100, 1, n // 2)]),
    }[dist]
    sk = QuantileSketch(512)
    # feed in uneven chunks to exercise compaction boundaries
    for lo in range(0, len(data), 1777):
        sk.add(data[lo : lo + 1777])
    assert sk.n == len(data)
    _check_contract(sk, data)


def test_merge_contract_and_roundtrip():
    rng = np.random.default_rng(12)
    parts = [rng.normal(i, 5, 10_000) for i in range(8)]
    merged = QuantileSketch(512)
    for p in parts:
        # serialize → deserialize each partial before merging (the Ray path)
        sk = QuantileSketch(512).add(p)
        rt = QuantileSketch.from_rows(
            sk.to_rows(), sk.n, sk.err_bound, capacity=512
        )
        assert rt.n == sk.n and rt.err_bound == sk.err_bound
        assert np.array_equal(rt.quantile(QS), sk.quantile(QS))
        merged.merge(rt)
    _check_contract(merged, np.concatenate(parts))


def test_empty_and_nan():
    sk = QuantileSketch(64)
    assert np.isnan(sk.quantile(0.5)).all()
    sk.add(np.array([np.nan, 1.0, np.nan, 2.0]))
    assert sk.n == 2
    assert sk.quantile(1.0)[0] == 2.0


def test_capacity_validation():
    with pytest.raises(ValueError):
        QuantileSketch(3)
    with pytest.raises(ValueError):
        QuantileSketch(7)


def test_grouped_sketch_contract(ray_session):
    """Distributed per-key sketches must honor the rank contract per key
    after the shuffle-merge (vs per-key exact data)."""
    import pandas as pd

    import ray

    from fsst_like_ray.functions.kll import grouped_sketch_quantiles

    rng = np.random.default_rng(21)
    keys = rng.choice(["a", "b", "c"], 30_000)
    vals = np.where(
        keys == "a", rng.normal(0, 1, 30_000),
        np.where(keys == "b", rng.zipf(1.6, 30_000).astype(float),
                 rng.random(30_000) * 1000)
    )
    ds = ray.data.from_pandas(
        pd.DataFrame({"k": keys, "v": vals})
    ).repartition(9)
    out = grouped_sketch_quantiles(ds, "k", "v", capacity=256).to_pandas()
    assert len(out) == 9  # 3 keys x 3 quantiles
    for _, r in out.iterrows():
        data = np.sort(vals[keys == r["k"]])
        assert r["n"] == len(data)
        target = int(np.ceil(float(r["q"]) * len(data)))
        lo = np.searchsorted(data, r["est"], side="left") + 1
        hi = np.searchsorted(data, r["est"], side="right")
        assert lo - r["tol"] <= target <= hi + r["tol"], dict(r)
        assert r["tol"] < len(data) // 4
