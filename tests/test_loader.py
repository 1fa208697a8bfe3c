"""Store → training-batch loader (pipelines/loader.py)."""

import json
import os
import shutil
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.pipelines.loader import (
    greedy_boundaries,
    iter_training_batches,
    plan_training_batches,
)
from fsst_like_ray.pipelines.tablestore import compress_table, read_table_store

BUDGET = 4096


@pytest.fixture(scope="module")
def store(tmp_path_factory, ray_session):
    from fsst_like_ray.sources.tokens import write_tokens_parquet

    base = tmp_path_factory.mktemp("loader_store")
    src = str(base / "tokens")
    # 3 source files → 3 fragments (the resume/shard granularity)
    write_tokens_parquet(src, n_rows=1536, seed=7, rows_per_file=512)
    out = str(base / "store")
    compress_table(src, out)
    return out


def _store_rows(store):
    tbl = pa.concat_tables(
        b
        for b in read_table_store(store).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        )
        if b.num_rows
    )
    return tbl


def test_greedy_boundaries_semantics():
    nt = np.array([10, 20, 5, 100, 1, 1, 50], dtype=np.int64)
    b = greedy_boundaries(nt, 35)
    # [10,20,5]=35 | [100] oversized alone | [1,1] | [50] over budget alone
    assert b.tolist() == [0, 3, 4, 6, 7]
    sums = [nt[i:j].sum() for i, j in zip(b[:-1], b[1:])]
    for i, j, s in zip(b[:-1], b[1:], sums):
        assert s <= 35 or j - i == 1
    # degenerate: every row oversized
    assert greedy_boundaries(np.array([9, 9]), 1).tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        greedy_boundaries(nt, 0)


def test_full_iteration_covers_store_in_order(store):
    tbl = _store_rows(store)
    batches = list(iter_training_batches(store, BUDGET))
    assert [b["step"] for b in batches] == list(range(len(batches)))
    got_ids = np.concatenate([b["doc_id"] for b in batches])
    # loader fragment order is input-path order == doc_id order here
    assert sorted(got_ids.tolist()) == sorted(
        tbl["doc_id"].to_numpy(zero_copy_only=False).tolist()
    )
    for b in batches:
        assert b["n_tokens"] == len(b["tokens"])
        assert b["n_rows"] == len(b["doc_id"])
        assert b["n_tokens"] <= BUDGET or b["oversized"]
        assert b["row_offsets"][0] == 0
        assert b["row_offsets"][-1] == b["n_tokens"]


def test_token_payloads_match_store(store):
    tbl = _store_rows(store)
    toks = tbl["tokens"].combine_chunks()
    by_id = dict(zip(tbl["doc_id"].to_pylist(), toks.to_pylist()))
    for b in iter_training_batches(store, BUDGET):
        ro = b["row_offsets"]
        for k, did in enumerate(b["doc_id"]):
            row = b["tokens"][ro[k] : ro[k + 1]].tolist()
            assert row == by_id[did]


def test_resume_yields_exact_suffix(store):
    full = list(iter_training_batches(store, BUDGET))
    mid = len(full) // 2
    resumed = list(iter_training_batches(store, BUDGET, start_step=mid))
    assert len(resumed) == len(full) - mid
    for a, b in zip(full[mid:], resumed):
        assert a["step"] == b["step"]
        assert a["doc_id"].tolist() == b["doc_id"].tolist()
        assert np.array_equal(a["tokens"], b["tokens"])


def test_plan_reuse_and_seek_skips_fragments(store):
    plan = plan_training_batches(store, BUDGET)
    assert len(plan) == 3  # one per source file
    # resume landing inside the LAST fragment must not open earlier ones:
    # equivalent batches either way, and the plan short-circuits by step
    last_first = plan[-1]["first_step"]
    a = list(iter_training_batches(store, BUDGET, start_step=last_first))
    b = list(
        iter_training_batches(
            store, BUDGET, start_step=last_first, plan=plan
        )
    )
    assert len(a) == len(b) == len(plan[-1]["boundaries"]) - 1
    for x, y in zip(a, b):
        assert x["step"] == y["step"]
        assert np.array_equal(x["tokens"], y["tokens"])


def test_rank_sharding_partitions_fragments(store):
    ids0 = np.concatenate(
        [
            b["doc_id"]
            for b in iter_training_batches(store, BUDGET, rank=0, world_size=2)
        ]
    )
    ids1 = np.concatenate(
        [
            b["doc_id"]
            for b in iter_training_batches(store, BUDGET, rank=1, world_size=2)
        ]
    )
    assert set(ids0.tolist()).isdisjoint(ids1.tolist())
    tbl = _store_rows(store)
    assert sorted(ids0.tolist() + ids1.tolist()) == sorted(
        tbl["doc_id"].to_numpy(zero_copy_only=False).tolist()
    )
    with pytest.raises(ValueError):
        plan_training_batches(store, BUDGET, rank=2, world_size=2)


def test_oversized_row_flagged(store, tmp_path):
    src = tmp_path / "big.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], type=pa.int64()),
                "tokens": pa.array(
                    [list(range(100)), [5, 6]], type=pa.list_(pa.int32())
                ),
                "n_tok": pa.array([100, 2], type=pa.int32()),
                "source": pa.array(["s", "s"]),
            }
        ),
        src,
    )
    out = str(tmp_path / "store")
    compress_table(str(src), out)
    batches = list(iter_training_batches(out, 10))
    assert [b["oversized"] for b in batches] == [True, False]
    assert batches[0]["n_tokens"] == 100


def test_epoch_shuffles_fragment_order(store):
    base = [
        tuple(b["doc_id"].tolist())
        for b in iter_training_batches(store, BUDGET)
    ]
    e1 = [
        tuple(b["doc_id"].tolist())
        for b in iter_training_batches(store, BUDGET, epoch=(7, 1))
    ]
    e1_again = [
        tuple(b["doc_id"].tolist())
        for b in iter_training_batches(store, BUDGET, epoch=(7, 1))
    ]
    e2 = [
        tuple(b["doc_id"].tolist())
        for b in iter_training_batches(store, BUDGET, epoch=(7, 2))
    ]
    assert e1 == e1_again  # deterministic
    # same batches as some fragment-order permutation of the base stream
    assert sorted(e1) == sorted(base)
    assert sorted(e2) == sorted(base)
    assert e1 != e2 or e1 != base  # epochs reshuffle
    # rank sharding still partitions under a shuffled epoch
    ids = [
        d
        for r in range(2)
        for b in iter_training_batches(
            store, BUDGET, rank=r, world_size=2, epoch=(7, 1)
        )
        for d in b["doc_id"].tolist()
    ]
    assert sorted(ids) == sorted(d for t in base for d in t)
    # resume under an epoch yields the exact suffix of that epoch's stream
    full = list(iter_training_batches(store, BUDGET, epoch=(7, 2)))
    mid = len(full) // 2
    resumed = list(
        iter_training_batches(store, BUDGET, epoch=(7, 2), start_step=mid)
    )
    assert [b["step"] for b in resumed] == [b["step"] for b in full[mid:]]
    for a, b in zip(full[mid:], resumed):
        assert a["doc_id"].tolist() == b["doc_id"].tolist()


def test_plan_param_mismatch_refused(store):
    plan = plan_training_batches(store, BUDGET)
    with pytest.raises(ValueError, match="recompute the plan"):
        next(iter_training_batches(store, BUDGET, epoch=(7, 1), plan=plan))
    with pytest.raises(ValueError, match="recompute the plan"):
        next(
            iter_training_batches(
                store, BUDGET, rank=1, world_size=2, plan=plan
            )
        )
    with pytest.raises(ValueError, match="recompute the plan"):
        next(iter_training_batches(store, BUDGET * 2, plan=plan))
    # matching params still served
    assert next(iter_training_batches(store, BUDGET, plan=plan))["step"] == 0


def test_batch_rows_cap(store):
    capped = list(iter_training_batches(store, BUDGET, batch_rows=3))
    uncapped = list(iter_training_batches(store, BUDGET))
    assert all(b["n_rows"] <= 3 for b in capped)
    assert len(capped) >= len(uncapped)
    # same rows, same order — only the boundaries move
    assert [d for b in capped for d in b["doc_id"].tolist()] == [
        d for b in uncapped for d in b["doc_id"].tolist()
    ]
    # a plan built without the cap is refused with it
    plan = plan_training_batches(store, BUDGET)
    with pytest.raises(ValueError, match="recompute the plan"):
        next(iter_training_batches(store, BUDGET, batch_rows=3, plan=plan))
    from fsst_like_ray.pipelines.loader import greedy_boundaries

    with pytest.raises(ValueError):
        greedy_boundaries(np.array([1, 2]), 10, batch_rows=0)


def test_length_order_reduces_padding(store):
    base = list(iter_training_batches(store, BUDGET))
    bylen = list(iter_training_batches(store, BUDGET, order="length"))
    # same rows served exactly once, just re-batched
    assert sorted(d for b in bylen for d in b["doc_id"].tolist()) == sorted(
        d for b in base for d in b["doc_id"].tolist()
    )
    # token payloads still correct per row under the permutation
    tbl = _store_rows(store)
    by_id = dict(
        zip(tbl["doc_id"].to_pylist(), tbl["tokens"].combine_chunks().to_pylist())
    )
    for b in bylen[:5]:
        ro = b["row_offsets"]
        for k, did in enumerate(b["doc_id"]):
            assert b["tokens"][ro[k] : ro[k + 1]].tolist() == by_id[did]
    # rows within a batch are length-sorted, and padded waste shrinks
    def waste(batches):
        pad = tok = 0
        for b in batches:
            lens = np.diff(b["row_offsets"])
            pad += int(b["n_rows"] * lens.max() - lens.sum())
            tok += int(lens.sum())
        return pad / tok

    for b in bylen:
        lens = np.diff(b["row_offsets"])
        assert (np.diff(lens) >= 0).all()
    assert waste(bylen) < waste(base)
    # resume inside a length-ordered stream is exact
    mid = len(bylen) // 2
    resumed = list(
        iter_training_batches(store, BUDGET, order="length", start_step=mid)
    )
    for a, b in zip(bylen[mid:], resumed):
        assert a["step"] == b["step"]
        assert np.array_equal(a["tokens"], b["tokens"])
    # plan param guard covers order too
    plan = plan_training_batches(store, BUDGET)
    with pytest.raises(ValueError, match="recompute the plan"):
        next(iter_training_batches(store, BUDGET, order="length", plan=plan))


def test_prefetch_bitwise_identical(store):
    """The one-fragment-ahead prefetch thread must not change a single
    byte or the step numbering vs the synchronous path."""
    a = list(iter_training_batches(store, BUDGET, prefetch=True))
    b = list(iter_training_batches(store, BUDGET, prefetch=False))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x["step"] == y["step"]
        assert x["oversized"] == y["oversized"]
        np.testing.assert_array_equal(x["tokens"], y["tokens"])
        np.testing.assert_array_equal(x["row_offsets"], y["row_offsets"])
        np.testing.assert_array_equal(x["doc_id"], y["doc_id"])


def test_shuffle_order_deterministic_covers_all(store):
    """order='shuffle': each fragment serves a deterministic per-(seed,
    epoch, fragment) permutation of its rows — full coverage, stable
    across re-runs, different across epochs, bit-identical payloads."""
    a = list(
        iter_training_batches(
            store, BUDGET, order="shuffle", epoch=(5, 0)
        )
    )
    b = list(
        iter_training_batches(
            store, BUDGET, order="shuffle", epoch=(5, 0)
        )
    )
    c = list(
        iter_training_batches(
            store, BUDGET, order="shuffle", epoch=(5, 1)
        )
    )
    plain = list(iter_training_batches(store, BUDGET))
    ids = lambda bs: np.concatenate([x["doc_id"] for x in bs])
    assert ids(a).tolist() == ids(b).tolist()  # deterministic
    assert sorted(ids(a).tolist()) == sorted(ids(plain).tolist())  # coverage
    assert ids(a).tolist() != ids(plain).tolist()  # actually shuffled
    assert ids(c).tolist() != ids(a).tolist()  # epoch changes the perm
    # per-row payloads intact under the permutation
    by_id = {}
    for x in plain:
        offs = x["row_offsets"]
        for i, d in enumerate(x["doc_id"]):
            by_id[str(d)] = x["tokens"][offs[i]:offs[i + 1]].tolist()
    for x in a:
        offs = x["row_offsets"]
        for i, d in enumerate(x["doc_id"]):
            assert x["tokens"][offs[i]:offs[i + 1]].tolist() == by_id[str(d)]


def test_keep_sources_filters_without_rewrite(store):
    """keep_sources serves only the chosen domains — full coverage of the
    kept rows, none of the dropped, composing with order='shuffle'."""
    import pyarrow.parquet as pq
    import glob

    all_batches = list(iter_training_batches(store, BUDGET))
    srcs = {}
    tbl = _store_rows(store)
    for d, s in zip(
        tbl["doc_id"].to_pylist(), tbl["source"].to_pylist()
    ):
        srcs[d] = s
    keep = sorted(set(srcs.values()))[:1]  # one domain
    kept_ids = sorted(d for d, s in srcs.items() if s in keep)
    got = list(
        iter_training_batches(store, BUDGET, keep_sources=keep)
    )
    got_ids = sorted(
        str(d) for b in got for d in b["doc_id"]
    )
    assert got_ids == sorted(str(d) for d in kept_ids)
    # composes with shuffle (coverage identical, order differs)
    shuf = list(
        iter_training_batches(
            store, BUDGET, keep_sources=keep, order="shuffle",
            epoch=(3, 1),
        )
    )
    shuf_ids = [str(d) for b in shuf for d in b["doc_id"]]
    assert sorted(shuf_ids) == got_ids
    flat = [str(d) for b in got for d in b["doc_id"]]
    if len(flat) > 2:
        assert shuf_ids != flat
    # a plan built WITHOUT the filter must be refused for a filtered read
    plan = plan_training_batches(store, BUDGET)
    with pytest.raises(ValueError, match="recompute the plan"):
        next(
            iter(
                iter_training_batches(
                    store, BUDGET, plan=plan, keep_sources=keep
                )
            )
        )


def test_keep_sources_passes_fragment_with_no_kept_rows(tmp_path, ray_session):
    """A fragment whose rows are all filtered out plans zero batches; the
    iterator passes it and serves the next fragment, resumed or not."""
    src = tmp_path / "src"
    src.mkdir()
    n = 40
    for i, source in enumerate(["a", "b", "a"]):
        lens = [1 + j % 7 for j in range(n)]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(i * n, (i + 1) * n), pa.int64()),
                    "tokens": pa.array(
                        [[j] * k for j, k in enumerate(lens)],
                        pa.list_(pa.int32()),
                    ),
                    "n_tok": pa.array(lens, pa.int32()),
                    "source": pa.array([source] * n),
                }
            ),
            src / f"part-{i}.parquet",
        )
    out = str(tmp_path / "store")
    compress_table(str(src), out)
    kw = dict(keep_sources=["a"], prefetch=True)
    plan = plan_training_batches(out, 16, keep_sources=["a"])
    assert [len(e["boundaries"]) - 1 > 0 for e in plan] == [True, False, True]
    full = list(iter_training_batches(out, 16, **kw))
    ids = [d for b in full for d in b["doc_id"].tolist()]
    assert ids == list(range(n)) + list(range(2 * n, 3 * n))
    resumed = list(iter_training_batches(out, 16, start_step=1, **kw))
    _assert_streams_equal(resumed, full[1:])


def _strip_seek(store, dst):
    """A copy of ``store`` whose manifest records lack ``"seek"``: the
    loader plans it from the parquet parts (a pre-sidecar store)."""
    shutil.copytree(store, dst)
    mdir = os.path.join(dst, "_manifest")
    for name in os.listdir(mdir):
        path = os.path.join(mdir, name)
        with open(path) as f:
            rec = json.load(f)
        rec.pop("seek", None)
        with open(path, "w") as f:
            json.dump(rec, f)
    return dst


def _plans_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x["frag_key"] == y["frag_key"]
        assert x["first_step"] == y["first_step"]
        assert np.array_equal(x["boundaries"], y["boundaries"])
        assert ("row_order" in x) == ("row_order" in y)
        if "row_order" in x:
            assert np.array_equal(x["row_order"], y["row_order"])


def _no_parquet_reads(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("plan opened a parquet file")

    monkeypatch.setattr(pq, "read_table", refuse)
    monkeypatch.setattr(pq, "read_schema", refuse)
    monkeypatch.setattr(pq, "ParquetFile", refuse)


def test_compress_writes_seek_sidecars(store):
    """Every committed fragment of a token store is stamped "seek" and
    each part has its sidecar: plain n_tok plus dictionary source,
    row-aligned with the part."""
    from fsst_like_ray.pipelines.tablestore import (
        _fragment_parts,
        seek_path,
    )
    from fsst_like_ray.state.manifest import Manifest

    recs = Manifest(store).completed().values()
    assert recs and all(r["seek"] == 1 for r in recs)
    for rec in recs:
        for part in _fragment_parts(os.path.join(store, "data"), rec["frag_key"]):
            side = pa.ipc.open_file(seek_path(part)).read_all()
            assert pa.types.is_dictionary(side.schema.field("source").type)
            dec = pq.read_table(part)
            assert side.num_rows == dec.num_rows


def test_sidecar_plan_equals_parquet_plan(store, tmp_path):
    legacy = _strip_seek(store, str(tmp_path / "legacy"))
    keep = [sorted(set(_store_rows(store)["source"].to_pylist()))[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for order in ("store", "length", "shuffle"):
            for ks in (None, keep):
                for rank, ws in ((0, 1), (0, 2), (1, 2)):
                    for epoch in (None, (7, 1)):
                        kw = dict(
                            rank=rank, world_size=ws, epoch=epoch,
                            order=order, keep_sources=ks,
                        )
                        _plans_equal(
                            plan_training_batches(store, BUDGET, **kw),
                            plan_training_batches(legacy, BUDGET, **kw),
                        )


def test_sidecar_row_count_mismatch_raises(store, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        _fragment_parts,
        seek_path,
    )

    bad = str(tmp_path / "bad")
    shutil.copytree(store, bad)
    plan = plan_training_batches(bad, BUDGET)
    key = plan[1]["frag_key"]
    side = seek_path(_fragment_parts(os.path.join(bad, "data"), key)[0])
    t = pa.ipc.open_file(side).read_all()
    with pa.ipc.new_file(side, t.schema) as w:
        w.write_table(t.slice(1))
    with pytest.raises(ValueError, match=key):
        plan_training_batches(bad, BUDGET)
    # an iterator planning on its own raises before it serves a batch of
    # the damaged fragment or of a later one: at the first batch when the
    # damage is at or before the resume fragment, else at the second
    for prefetch in (True, False):
        served = []
        with pytest.raises(ValueError, match=key):
            for b in iter_training_batches(bad, BUDGET, prefetch=prefetch):
                served.append(b["step"])
        assert served and max(served) < plan[1]["first_step"]
    with pytest.raises(ValueError, match=key):
        next(
            iter_training_batches(
                bad, BUDGET, start_step=plan[2]["first_step"]
            )
        )
    os.remove(side)
    with pytest.raises(FileNotFoundError):
        plan_training_batches(bad, BUDGET)


def test_lifecycle_outputs_plan_from_sidecars(
    store, tmp_path, monkeypatch, ray_session
):
    """Compact (renumbered copies), filter (copy and rewrite), union
    (copies) and upsert (rewrite + appended delta) outputs keep "seek"
    and plan with no parquet read — the same plan as from parquet."""
    from fsst_like_ray.pipelines.tablestore import (
        compact_table_store,
        filter_table_store,
        union_table_store,
        upsert_table_store,
    )
    from fsst_like_ray.state.manifest import Manifest

    outs = {}
    outs["compact"] = str(tmp_path / "compact")
    compact_table_store(store, outs["compact"], target_rows=1024)
    outs["filter_copy"] = str(tmp_path / "filter_copy")
    st = {}
    filter_table_store(
        store, outs["filter_copy"], [("range", "n_tok", 0, None)],
        stats_out=st,
    )
    assert st["fragments_copied"] == 3
    outs["filter_rewrite"] = str(tmp_path / "filter_rewrite")
    st = {}
    filter_table_store(
        store, outs["filter_rewrite"], [("range", "n_tok", None, 300)],
        stats_out=st,
    )
    assert st["fragments_rewritten"] == 3
    outs["union"] = str(tmp_path / "union")
    union_table_store([store, outs["filter_rewrite"]], outs["union"])
    delta = tmp_path / "delta.parquet"
    pq.write_table(_store_rows(store).slice(0, 5), delta)
    outs["upsert"] = str(tmp_path / "upsert")
    upsert_table_store(store, outs["upsert"], str(delta), "doc_id")
    for name, out in outs.items():
        recs = Manifest(out).completed().values()
        assert all(r.get("seek") == 1 for r in recs if r["rows"]), name
        with monkeypatch.context() as m:
            _no_parquet_reads(m)
            plans = [
                plan_training_batches(out, BUDGET, order=o, epoch=(3, 1))
                for o in ("store", "shuffle")
            ]
        legacy = _strip_seek(out, str(tmp_path / f"{name}_legacy"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for o, plan in zip(("store", "shuffle"), plans):
                _plans_equal(
                    plan,
                    plan_training_batches(
                        legacy, BUDGET, order=o, epoch=(3, 1)
                    ),
                )


def test_compress_killed_before_commit_resumes(tmp_path, ray_session):
    """Parts and sidecars written but never committed are invisible, and
    a resumed compress rewrites them."""
    from fsst_like_ray.sources.tokens import write_tokens_parquet
    from fsst_like_ray.state.manifest import Manifest

    src = str(tmp_path / "tokens")
    write_tokens_parquet(src, n_rows=1024, seed=3, rows_per_file=512)
    out = str(tmp_path / "store")
    orig = Manifest.commit

    def dying(self, record):
        raise RuntimeError("killed before commit")

    Manifest.commit = dying
    try:
        with pytest.raises(RuntimeError, match="killed before commit"):
            compress_table(src, out)
    finally:
        Manifest.commit = orig
    data = os.path.join(out, "data")
    frag_dirs = sorted(os.listdir(data))
    assert frag_dirs
    for d in frag_dirs:
        names = os.listdir(os.path.join(data, d))
        assert "part-000000.seek" in names
        marker = os.path.join(data, d, "part-000000.seek.stale")
        open(marker, "w").close()
    assert Manifest(out).completed() == {}
    with pytest.raises(FileNotFoundError):
        plan_training_batches(out, BUDGET)
    compress_table(src, out)
    for d in frag_dirs:
        assert sorted(os.listdir(os.path.join(data, d))) == [
            "part-000000.parquet", "part-000000.seek",
        ]
    fresh = str(tmp_path / "fresh")
    compress_table(src, fresh)
    _plans_equal(
        plan_training_batches(out, BUDGET, order="shuffle", epoch=(1, 1)),
        plan_training_batches(fresh, BUDGET, order="shuffle", epoch=(1, 1)),
    )


def test_store_without_seek_serves_identically_and_warns_once(
    store, tmp_path
):
    legacy = _strip_seek(store, str(tmp_path / "legacy"))
    with pytest.warns(RuntimeWarning, match="without seek sidecars"):
        old = list(iter_training_batches(legacy, BUDGET, order="shuffle"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        again = list(iter_training_batches(legacy, BUDGET, order="shuffle"))
    new = list(iter_training_batches(store, BUDGET, order="shuffle"))
    assert len(old) == len(again) == len(new)
    for a, b, c in zip(old, again, new):
        assert a["step"] == b["step"] == c["step"]
        np.testing.assert_array_equal(a["tokens"], c["tokens"])
        np.testing.assert_array_equal(b["tokens"], c["tokens"])
        np.testing.assert_array_equal(a["doc_id"], c["doc_id"])


@pytest.fixture(scope="module")
def multiblock_store(tmp_path_factory, ray_session):
    """2 fragments × 2 parts × 8 blocks of 128 rows, tokens forced to
    bitpack, whose per-block width state differs between blocks."""
    from fsst_like_ray.sources.tokens import write_tokens_parquet

    base = tmp_path_factory.mktemp("loader_multiblock")
    src = str(base / "tokens")
    write_tokens_parquet(
        src, n_rows=4096, seed=11, rows_per_file=2048, max_tok=64,
        row_group_size=256,
    )
    out = str(base / "store")
    compress_table(src, out, batch_rows=128, codec_names=["bitpack"])
    return out


def _reference_batches(store, plan, with_ids):
    """The batches a plan describes, built from the decoded store
    (read_table_store) and each fragment's source row order with NumPy
    indexing alone."""
    tbl = _store_rows(store)
    by_id = {
        d: np.asarray(t, dtype=np.int32)
        for d, t in zip(tbl["doc_id"].to_pylist(), tbl["tokens"].to_pylist())
    }
    out = []
    for ent in plan:
        ids = np.asarray(
            pq.read_table(ent["fragment"], columns=["doc_id"])[
                "doc_id"
            ].to_pylist(),
            dtype=object,
        )
        if "row_order" in ent:
            ids = ids[ent["row_order"]]
        bounds = ent["boundaries"]
        for k in range(len(bounds) - 1):
            sel = ids[bounds[k] : bounds[k + 1]]
            rows = [by_id[d] for d in sel]
            offs = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(r) for r in rows], out=offs[1:])
            b = {
                "step": ent["first_step"] + k,
                "tokens": np.concatenate(rows).astype(np.int32),
                "row_offsets": offs,
            }
            if with_ids:
                b["doc_id"] = sel.tolist()
            out.append(b)
    return out


def _assert_batches_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g["step"] == r["step"]
        assert g["n_rows"] == len(r["row_offsets"]) - 1
        assert g["n_tokens"] == len(r["tokens"])
        assert g["tokens"].dtype == np.int32
        assert g["row_offsets"].dtype == np.int64
        np.testing.assert_array_equal(g["tokens"], r["tokens"])
        np.testing.assert_array_equal(g["row_offsets"], r["row_offsets"])
        assert ("doc_id" in g) == ("doc_id" in r)
        if "doc_id" in r:
            assert g["doc_id"].tolist() == r["doc_id"]


def test_multiblock_store_has_mixed_runs(multiblock_store):
    """The fixture exercises what the single-block store cannot: several
    parts per fragment and differing (codec, state) runs in a part."""
    from fsst_like_ray.pipelines.columnar import list_segment_runs
    from fsst_like_ray.pipelines.tablestore import _fragment_parts

    plan = plan_training_batches(multiblock_store, BUDGET)
    assert len(plan) == 2
    for ent in plan:
        parts = _fragment_parts(
            os.path.join(multiblock_store, "data"), ent["frag_key"]
        )
        assert len(parts) >= 2
        segs = list_segment_runs(pq.read_table(parts[0]), "tokens")[0]
        assert {name for _lo, _hi, name, _st in segs} == {"bitpack"}
        assert len({st for _lo, _hi, _n, st in segs}) > 1


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("order", ["store", "length", "shuffle"])
def test_multiblock_batches_match_reference(
    multiblock_store, order, keep, prefetch
):
    """Plan-order token decode over multi-block, multi-part fragments is
    bit-identical to the reference for every order, with and without a
    keep_sources subset, with prefetch on and off."""
    keep_sources = ["web", "wiki"] if keep else None
    kw = dict(order=order, epoch=(2, 1), keep_sources=keep_sources)
    plan = plan_training_batches(multiblock_store, BUDGET, **kw)
    got = list(
        iter_training_batches(
            multiblock_store, BUDGET, plan=plan, prefetch=prefetch, **kw
        )
    )
    _assert_batches_equal(got, _reference_batches(multiblock_store, plan, True))


def test_multiblock_tokens_only_and_numpy_path(multiblock_store, monkeypatch):
    """columns=("tokens",) serves no id column; the NumPy codec path
    (no C kernels) serves the same batches."""
    from fsst_like_ray import native

    kw = dict(order="shuffle", epoch=(4, 0))
    plan = plan_training_batches(multiblock_store, BUDGET, **kw)
    ref = _reference_batches(multiblock_store, plan, False)
    got = list(
        iter_training_batches(
            multiblock_store, BUDGET, columns=("tokens",), plan=plan, **kw
        )
    )
    _assert_batches_equal(got, ref)
    ref_ids = _reference_batches(multiblock_store, plan, True)
    monkeypatch.setattr(native, "lib", None)
    got = list(iter_training_batches(multiblock_store, BUDGET, plan=plan, **kw))
    _assert_batches_equal(got, ref_ids)


RESUME_COLS = ("doc_id", "source", "tokens")


def _assert_streams_equal(got, ref):
    """Served batches equal field by field, every id column included."""
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.keys() == r.keys()
        for k in ("step", "n_rows", "n_tokens", "oversized"):
            assert g[k] == r[k], k
        for k in g.keys() - {"step", "n_rows", "n_tokens", "oversized"}:
            assert g[k].dtype == r[k].dtype, k
            np.testing.assert_array_equal(g[k], r[k], err_msg=k)


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("order", ["store", "length", "shuffle"])
def test_multiblock_every_resume_equals_full_stream(
    multiblock_store, order, keep, prefetch
):
    """A resume at any step serves exactly the full stream's suffix, from
    a plan passed in and from the iterator's own lazy plan."""
    kw = dict(
        order=order, epoch=(2, 1),
        keep_sources=["web", "wiki"] if keep else None,
    )
    plan = plan_training_batches(multiblock_store, BUDGET, **kw)
    kw.update(columns=RESUME_COLS, prefetch=prefetch)
    full = list(iter_training_batches(multiblock_store, BUDGET, plan=plan, **kw))
    assert len(full) > 2 * len(plan)
    for step in range(len(full) + 1):
        for p in (plan, None):
            got = list(
                iter_training_batches(
                    multiblock_store, BUDGET, start_step=step, plan=p, **kw
                )
            )
            _assert_streams_equal(got, full[step:])


def test_multiblock_resume_at_oversized_row(multiblock_store):
    """A resume whose first served row is a single oversized batch."""
    lens = pa.compute.list_value_length(_store_rows(multiblock_store)["tokens"])
    budget = pa.compute.max(lens).as_py() - 1
    kw = dict(order="shuffle", epoch=(5, 0))
    plan = plan_training_batches(multiblock_store, budget, **kw)
    kw.update(columns=RESUME_COLS)
    full = list(iter_training_batches(multiblock_store, budget, plan=plan, **kw))
    big = [b["step"] for b in full if b["oversized"]]
    assert big
    step = big[len(big) // 2]
    assert step not in [e["first_step"] for e in plan]
    for p in (plan, None):
        got = list(
            iter_training_batches(
                multiblock_store, budget, start_step=step, plan=p, **kw
            )
        )
        assert got[0]["oversized"] and got[0]["n_rows"] == 1
        _assert_streams_equal(got, full[step:])


def test_cold_resume_reads_ahead_only_when_consumer_returns(
    multiblock_store, monkeypatch
):
    """One batch from a cold resume plans no later fragment, decodes the
    resume fragment from its resume row and starts no thread; a second
    batch submits the read-ahead of the next fragment, which decodes
    whole."""
    import concurrent.futures
    import threading

    from fsst_like_ray.pipelines import loader

    calls, pools = [], []
    orig = loader._materialize_fragment

    def counting(store_dir, ent, cols, tokens_col, r0):
        out = orig(store_dir, ent, cols, tokens_col, r0)
        calls.append((ent["frag_key"], r0, len(out[1]) - 1))
        return out

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *a, **k):
            pools.append(self)
            super().__init__(*a, **k)

    seeks = []
    orig_seek = loader._read_seek

    def seeking(store_dir, rec, with_source):
        seeks.append(rec["frag_key"])
        return orig_seek(store_dir, rec, with_source)

    monkeypatch.setattr(loader, "_materialize_fragment", counting)
    monkeypatch.setattr(loader, "_read_seek", seeking)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    kw = dict(order="shuffle", epoch=(3, 0))
    plan = plan_training_batches(multiblock_store, BUDGET, **kw)
    first, second = plan
    b = (len(first["boundaries"]) - 1) // 2
    step, r0 = first["first_step"] + b, int(first["boundaries"][b])
    assert r0 > 0
    n0, n1 = len(first["row_order"]), len(second["row_order"])

    seeks.clear()
    threads = threading.active_count()
    it = iter_training_batches(multiblock_store, BUDGET, start_step=step, **kw)
    assert next(it)["step"] == step
    it.close()
    assert calls == [(first["frag_key"], r0, n0 - r0)]
    assert not pools and threading.active_count() == threads
    assert seeks == [first["frag_key"]]  # no later fragment was planned

    calls.clear()
    seeks.clear()
    it = iter_training_batches(multiblock_store, BUDGET, start_step=step, **kw)
    next(it)
    assert not pools
    next(it)
    assert len(pools) == 1
    rest = list(it)
    assert rest[-1]["step"] == second["first_step"] + len(second["boundaries"]) - 2
    assert calls == [
        (first["frag_key"], r0, n0 - r0), (second["frag_key"], 0, n1)
    ]
    assert seeks == [first["frag_key"], second["frag_key"]]
