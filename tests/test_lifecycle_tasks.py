"""The store lifecycle ops (compress, verify, filter, transcode/derive,
upsert/delete, union) launch their per-item work as plain Ray tasks
(tablestore._map_tasks), not through a Ray Data chain."""

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest


def _tree(root: str) -> dict:
    """name → (size, mtime_ns) of every file under ``root``."""
    out = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def test_map_tasks_keeps_item_order(ray_session):
    from fsst_like_ray.pipelines import tablestore as ts

    items = list(range(53))  # more items than groups: uneven contiguous cuts
    assert ts._map_tasks(pow, items, 2) == [i * i for i in items]
    assert ts._map_tasks(pow, [], 2) == []


def test_failed_compress_leaves_no_straggler(ray_session, tmp_path):
    """One of four fragments fails inside its worker (a list element null
    is unsupported): the call raises the worker's error only after the
    other three tasks finished, so nothing under data/ changes after it
    returns and nothing of the round commits; with the bad shard replaced
    the rerun commits every fragment and verifies bit-exact."""
    from fsst_like_ray.pipelines import tablestore as ts
    from fsst_like_ray.sources.tokens import tokens_table

    src = tmp_path / "src"
    src.mkdir()
    n = 12_000
    for i in range(1, 4):  # the good shards sort after the bad one
        t = tokens_table(n, seed=7, start_row=i * n)
        pq.write_table(t, src / f"s{i}.parquet", row_group_size=1024)
    good0 = tokens_table(n, seed=7, start_row=0)
    tok = good0["tokens"].combine_chunks()
    vals = tok.values.to_numpy().astype(np.int64).tolist()
    vals[3] = None  # one element null inside the first row's list
    bad = good0.set_column(
        good0.schema.get_field_index("tokens"),
        "tokens",
        pa.ListArray.from_arrays(tok.offsets, pa.array(vals, pa.int32())),
    )
    bad_path = src / "s0.parquet"
    pq.write_table(bad, bad_path, row_group_size=1024)

    out = str(tmp_path / "store")
    with pytest.raises(NotImplementedError, match="list element nulls"):
        ts.compress_table(str(src), out, batch_rows=1024)
    data = os.path.join(out, "data")
    after = _tree(data)
    time.sleep(1.0)
    assert _tree(data) == after
    assert ts.Manifest(out).completed() == {}

    pq.write_table(good0, bad_path, row_group_size=1024)
    stats = ts.compress_table(str(src), out, batch_rows=1024)
    assert stats["fragments"] == 4 and stats["rows"] == 4 * n
    v = ts.verify_table_store(str(src), out)
    assert v["ok"] and v["rows"] == 4 * n


def test_lifecycle_ops_skip_ray_data_launcher(
    ray_session, tmp_path, monkeypatch
):
    """With ray.data.range unusable, every lifecycle op that used to launch
    through a range → map_batches chain still runs end to end."""
    import ray.data

    from fsst_like_ray.pipelines import tablestore as ts

    def no_range(*a, **kw):
        raise AssertionError("ray.data.range called")

    monkeypatch.setattr(ray.data, "range", no_range)
    src = tmp_path / "src"
    src.mkdir()
    n = 1200
    ids = np.arange(n, dtype=np.int64)
    t = pa.table(
        {"id": pa.array(ids), "s": pa.array([f"row {i}" for i in range(n)])}
    )
    for i in range(3):
        pq.write_table(t.slice(i * 400, 400), src / f"f{i}.parquet")
    store = str(tmp_path / "store")
    assert ts.compress_table(str(src), store)["rows"] == n
    v = ts.verify_table_store(str(src), store)
    assert v["ok"] and v["rows"] == n

    fs: dict = {}
    filtered = ts.filter_table_store(
        store, str(tmp_path / "filt"), [("like", "s", "row 1%")], stats_out=fs
    )
    assert fs["fragments_rewritten"] > 0
    assert filtered["rows"] == sum(
        s.startswith("row 1") for s in t["s"].to_pylist()
    )
    assert ts.transcode_table_store(store, str(tmp_path / "tc"))["rows"] == n
    derived = ts.derive_table_store(
        store,
        str(tmp_path / "der"),
        lambda b: b.append_column("id2", pc.multiply(b["id"], 2)),
    )
    assert derived["rows"] == n

    delta = tmp_path / "delta.parquet"
    pq.write_table(
        pa.table({"id": pa.array([5, 450], pa.int64()), "s": ["x", "y"]}),
        delta,
    )
    us: dict = {}
    ts.upsert_table_store(
        store, str(tmp_path / "ups"), str(delta), "id", stats_out=us
    )
    assert us["fragments_rewritten"] == 2 and us["rows_replaced"] == 2
    assert ts.Manifest(str(tmp_path / "ups")).stats()["rows"] == n
    ds: dict = {}
    deleted = ts.delete_keys_table_store(
        store, str(tmp_path / "del"), [5, 450, 900], "id", stats_out=ds
    )
    assert ds["rows_deleted"] == 3 and deleted["rows"] == n - 3
    union = ts.union_table_store(
        [store, str(tmp_path / "del")], str(tmp_path / "uni")
    )
    assert union["rows"] == 2 * n - 3


def test_read_blocks_fallback_is_host_cpus(monkeypatch, tmp_path):
    """Before Ray is up, the read's block floor follows the host's CPU
    count (one cluster_cpus() for both modules), not a hard-coded 4."""
    import ray
    import ray.data

    from fsst_like_ray.pipelines import compress

    for i in range(3):
        pq.write_table(pa.table({"x": [i]}), tmp_path / f"f{i}.parquet")
    seen = []
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(os, "cpu_count", lambda: 32)
    monkeypatch.setattr(
        ray.data,
        "read_parquet",
        lambda files, **kw: seen.append(kw["override_num_blocks"]),
    )
    assert compress.cluster_cpus() == 32
    compress.read_parquet_blocks(str(tmp_path))
    assert seen == [64]
