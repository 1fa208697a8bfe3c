"""Versioned store catalog / time travel (state/catalog.py)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.state.catalog import (
    commit_version,
    head_version,
    history,
    managed_store_path,
    prune_catalog,
    read_version,
    resolve,
)
from fsst_like_ray.pipelines.tablestore import (
    compress_table,
    delete_keys_table_store,
)


def _ids(ds):
    out = []
    for b in ds.iter_batches(batch_format="pyarrow"):
        out.extend(b["doc_id"].to_pylist())
    return sorted(out)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("catalog")
    src = str(base / "src.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(100), type=pa.int64()),
                "val": pa.array([i * 3 for i in range(100)], type=pa.int64()),
            }
        ),
        src,
    )
    cat = str(base / "cat")
    v1_store = managed_store_path(cat, "v1")
    compress_table(src, v1_store)
    v1 = commit_version(cat, v1_store, op="compress", note="initial load")
    v2_store = managed_store_path(cat, "v2")
    delete_keys_table_store(
        v1_store, v2_store, keys=list(range(0, 100, 2)), key="doc_id"
    )
    v2 = commit_version(cat, v2_store, op="delete", note="drop even ids")
    assert (v1, v2) == (1, 2)
    return cat


def test_time_travel_reads(catalog):
    assert head_version(catalog) == 2
    assert _ids(read_version(catalog, 1)) == list(range(100))
    # HEAD (the delete version) serves the filtered table...
    assert _ids(read_version(catalog)) == list(range(1, 100, 2))
    # ...while AS OF 1 still serves every row the delete removed
    h = history(catalog)
    assert [r["version"] for r in h] == [1, 2]
    assert h[1]["parent"] == 1 and h[0]["parent"] is None
    assert h[0]["op"] == "compress" and h[1]["op"] == "delete"
    assert h[0]["rows"] == 100 and h[1]["rows"] == 50


def test_resolve_errors(catalog, tmp_path):
    with pytest.raises(ValueError):
        resolve(catalog, 99)
    with pytest.raises(FileNotFoundError):
        resolve(str(tmp_path / "empty_cat"))
    with pytest.raises(ValueError):
        commit_version(catalog, resolve(catalog, 1)["store"],
                       op="x", parent=77)


def test_crash_between_record_and_head_is_invisible(catalog):
    """A version record without the HEAD bump must not surface: readers
    stay on the old HEAD and the number is skipped by the next commit."""
    head_before = head_version(catalog)
    store1 = resolve(catalog, 1)["store"]
    v3 = commit_version(catalog, store1, op="recommit")
    # simulate the crash: roll HEAD back as if the bump never happened
    with open(os.path.join(catalog, "HEAD"), "w") as f:
        f.write(str(head_before))
    assert head_version(catalog) == head_before
    assert resolve(catalog)["version"] == head_before
    v4 = commit_version(catalog, store1, op="retry")
    assert v4 == v3 + 1  # orphaned record's number is never reused
    assert resolve(catalog)["version"] == v4


def test_concurrent_committers_never_clobber(catalog):
    """First-writer-wins on the version number: a record that lands
    between our scan and our publish bumps us to the next free number
    instead of silently overwriting (the ADVICE race)."""
    import json

    store1 = resolve(catalog, 1)["store"]
    head = head_version(catalog)
    nxt = max(r["version"] for r in history(catalog)) + 1
    # simulate the concurrent winner claiming `nxt` right before us
    rival = dict(resolve(catalog, 1), version=nxt, op="rival", note="theirs")
    with open(os.path.join(catalog, "v", f"{nxt}.json"), "w") as f:
        f.write(json.dumps(rival))
    v = commit_version(catalog, store1, op="ours", parent=head)
    assert v == nxt + 1  # retried past the rival, never clobbered it
    assert resolve(catalog, nxt)["note"] == "theirs"  # rival intact
    assert resolve(catalog, v)["op"] == "ours"
    assert head_version(catalog) == v  # HEAD moved forward to the max


def test_concurrent_committer_processes_never_rewind_head(catalog, tmp_path):
    """Three processes commit into one catalog at once, each sleeping a
    random few ms between HEAD's compare and its rename (the race
    window). HEAD, polled throughout, never decreases, every claimed
    number is distinct, and HEAD ends at the highest version."""
    import subprocess
    import sys
    import time

    import fsst_like_ray

    store1 = resolve(catalog, 1)["store"]
    cat = str(tmp_path / "cat")
    script = (
        "import random, sys, time\n"
        "from fsst_like_ray.state import catalog as c\n"
        "write = c._atomic_write\n"
        "def slow(path, text):\n"
        "    time.sleep(random.random() * 0.005)\n"
        "    write(path, text)\n"
        "c._atomic_write = slow\n"
        "for _ in range(15):\n"
        "    print(c.commit_version(sys.argv[1], sys.argv[2], op='race'))\n"
    )
    root = os.path.dirname(os.path.dirname(fsst_like_ray.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, cat, store1],
            stdout=subprocess.PIPE,
            env=env,
        )
        for _ in range(3)
    ]
    seen = []
    deadline = time.monotonic() + 120
    while any(p.poll() is None for p in procs):
        assert time.monotonic() < deadline, "committers did not finish"
        h = head_version(cat)
        if h is not None:
            seen.append(h)
        time.sleep(0.001)
    claimed = []
    for p in procs:
        out, _ = p.communicate(timeout=10)
        assert p.returncode == 0
        claimed.extend(int(v) for v in out.split())
    assert sorted(claimed) == list(range(1, 46))
    assert seen == sorted(seen), "HEAD rewound"
    assert head_version(cat) == 45


def test_prune_reclaims_only_managed_unreferenced_stores(
    catalog, tmp_path_factory
):
    base = tmp_path_factory.mktemp("prune")
    src = str(base / "s.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(10), type=pa.int64())}), src
    )
    cat = str(base / "cat")
    unmanaged = str(base / "outside_store")
    compress_table(src, unmanaged)
    commit_version(cat, unmanaged, op="compress")  # v1, unmanaged
    m2 = managed_store_path(cat, "v2")
    compress_table(src, m2)
    commit_version(cat, m2, op="compress")  # v2, managed
    m3 = managed_store_path(cat, "v3")
    compress_table(src, m3)
    commit_version(cat, m3, op="compress")  # v3 = HEAD
    dry = prune_catalog(cat, keep_last=1, dry_run=True)
    assert dry["pruned_versions"] == [1, 2]
    assert dry["deleted_stores"] == [os.path.realpath(m2)]
    assert os.path.isdir(m2)  # dry run deletes nothing
    out = prune_catalog(cat, keep_last=1)
    assert not os.path.isdir(m2)  # managed + unreferenced → reclaimed
    assert os.path.isdir(unmanaged)  # never touched
    assert out["reclaimed_bytes"] > 0
    assert [r["version"] for r in history(cat)] == [3]
    assert _ids(read_version(cat)) == list(range(10))
    with pytest.raises(ValueError):
        prune_catalog(cat, keep_last=0)


def test_prune_reclaims_crashed_prune_strays(tmp_path_factory, ray_session):
    """A prune that died between record deletion and store deletion leaves
    a managed dir no record references; the next prune reclaims it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = tmp_path_factory.mktemp("prune_stray")
    src = str(base / "s.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(5), type=pa.int64())}), src
    )
    cat = str(base / "cat")
    m1 = managed_store_path(cat, "v1")
    compress_table(src, m1)
    commit_version(cat, m1, op="compress")
    # simulate the crash artifact: a managed dir with no version record
    stray = managed_store_path(cat, "stray_from_crashed_prune")
    compress_table(src, stray)
    # a freshly-written managed dir could be a commit mid-flight — the
    # default grace period must protect it from routine prunes
    fresh = prune_catalog(cat, keep_last=5, dry_run=True)
    assert fresh["deleted_stores"] == []
    out = prune_catalog(cat, keep_last=5, dry_run=True, stray_grace_s=0)
    assert out["deleted_stores"] == [os.path.realpath(stray)]
    prune_catalog(cat, keep_last=5, stray_grace_s=0)
    assert not os.path.isdir(stray)
    assert os.path.isdir(m1)  # referenced store untouched
    assert _ids(read_version(cat)) == list(range(5))
