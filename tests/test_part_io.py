"""Store part I/O: the part writer's per-field parquet encodings, the
read rule of committed parts (tablestore._part_fields: which
``__payload`` fields a scan reads) over parts of either writer,
multi-row-group parts and both scan executors, and the refusal to decode
payload-carrying blocks whose payload field is missing."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.pipelines import columnar
from fsst_like_ray.pipelines import tablestore as ts
from fsst_like_ray.pipelines.loader import iter_training_batches

BUDGET = 2048
ROW_GROUPS = 4  # encode blocks (so parquet row groups) per part


def _parts(store):
    return sorted(
        os.path.join(d, f)
        for d, _s, fs in os.walk(os.path.join(store, "data"))
        for f in fs
        if f.endswith(".parquet")
    )


def _write_like_before(part):
    """Rewrite ``part`` in place as parts were written before the
    per-field encodings and before scalar columns dropped their payload
    fields: an empty ``__payload`` field after every ``__blk`` that has
    none, dictionary encoding on every field, parquet statistics on
    every field but the ``__blk`` envelopes, row groups kept."""
    pf = pq.ParquetFile(part)
    schema = pf.schema_arrow
    fields = []
    for f in schema:
        fields.append(f)
        pay = f.name[: -len("__blk")] + "__payload"
        if f.name.endswith("__blk") and pay not in schema.names:
            fields.append(pa.field(pay, pa.large_binary()))
    old = pa.schema(fields)
    stats = [n for n in old.names if not n.endswith("__blk")]
    with pq.ParquetWriter(part + ".tmp", old, write_statistics=stats) as w:
        for g in range(pf.num_row_groups):
            t = pf.read_row_group(g)
            w.write_table(
                pa.Table.from_arrays(
                    [
                        t[n] if n in t.column_names
                        else columnar._empty_payload(t.num_rows)
                        for n in old.names
                    ],
                    schema=old,
                )
            )
    os.replace(part + ".tmp", part)


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    """(source dir, store, mixed store): a 3-fragment tokens store whose
    parts each hold ROW_GROUPS row groups, and a copy whose first and
    last fragments' parts are rewritten by the earlier writer."""
    from fsst_like_ray.sources.tokens import write_tokens_parquet

    base = tmp_path_factory.mktemp("part_io")
    src = str(base / "tokens")
    rows = 128 * ROW_GROUPS
    write_tokens_parquet(
        src, n_rows=3 * rows, seed=13, rows_per_file=rows, max_tok=256,
        row_group_size=128,
    )
    store = str(base / "store")
    ts.compress_table(src, store, batch_rows=128)
    mixed = str(base / "mixed")
    shutil.copytree(store, mixed)
    frags = sorted(os.listdir(os.path.join(mixed, "data")))
    for frag in (frags[0], frags[-1]):
        fdir = os.path.join(mixed, "data", frag)
        for f in os.listdir(fdir):
            if f.endswith(".parquet"):
                _write_like_before(os.path.join(fdir, f))
    return src, store, mixed


def _source(src):
    return pa.concat_tables(
        pq.read_table(os.path.join(src, f))
        for f in sorted(os.listdir(src))
    )


def _ids(res):
    return sorted(res.to_arrow()["doc_id"].to_pylist())


def _rows(res):
    return sorted(res.to_arrow().to_pylist(), key=lambda r: r["doc_id"])


def _queries(store):
    """[(rows, stats without the executor's part bytes)] of a LIKE, a
    range scan, a GROUP BY, a count_where and a top-k over ``store``; the
    row scans and the top-k once with explicit output columns and once
    with every column."""
    out = []

    def run(fn, *args, rows, **kw):
        st: dict = {}
        got = fn(store, *args, stats_out=st, **kw)
        st.pop("scan_bytes")
        executor = st.pop("executor")
        out.append((rows(got), st))
        return executor

    executors = {
        run(ts.like_table_store, "doc_id", "%0001%", columns=["doc_id"],
            rows=_ids),
        run(ts.like_table_store, "doc_id", "%0001%", rows=_rows),
        run(ts.scan_table_store, "n_tok", 40, 90, columns=["doc_id"],
            rows=_ids),
        run(ts.scan_table_store, "n_tok", 40, 90, rows=_rows),
        run(ts.group_agg_table_store, "source", "n_tok",
            preds=[("range", "n_tok", 10, 200)],
            rows=lambda t: sorted(t.to_pylist(), key=lambda r: r["value"])),
        run(ts.count_where_table_store, [("range", "n_tok", 40, 90)],
            rows=lambda n: n),
        # ties at the k-th rank break arbitrarily: compare the ranks
        run(ts.topk_table_store, "n_tok", 5, columns=["doc_id", "n_tok"],
            rows=lambda t: t["n_tok"].to_pylist()),
        run(ts.topk_table_store, "n_tok", 5,
            rows=lambda t: t["n_tok"].to_pylist()),
    }
    return out, executors


def _decoded(ds) -> pa.Table:
    return pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by("doc_id")


def _epoch(store, start_step=0):
    return list(
        iter_training_batches(
            store, BUDGET, start_step=start_step, epoch=(5, 1),
            order="shuffle",
        )
    )


def _assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["step"] == w["step"]
        np.testing.assert_array_equal(g["tokens"], w["tokens"])
        np.testing.assert_array_equal(g["row_offsets"], w["row_offsets"])
        assert g["doc_id"].tolist() == w["doc_id"].tolist()


def test_part_field_encodings(ray_session, tmp_path):
    """From a written part's footer: ``__rowidx`` is DELTA_BINARY_PACKED
    with no dictionary page and at most 2 KB per 8,192-row group; no
    ``*__payload`` chunk is dictionary-encoded; every ``*__blk`` still
    is; and no field carries parquet statistics."""
    src = tmp_path / "src"
    src.mkdir()
    n = 2 * ts.DEFAULT_BATCH_ROWS
    rng = np.random.default_rng(3)
    words = np.array(["merge", "sort", "ray", "scan", "fsst"])
    pq.write_table(
        pa.table(
            {
                "id": pa.array(np.arange(n), type=pa.int64()),
                "text": pa.array(
                    [" ".join(r) for r in rng.choice(words, (n, 4))]
                ),
                "toks": pa.array(
                    [rng.integers(0, 999, k).tolist()
                     for k in rng.integers(1, 9, n)],
                    type=pa.list_(pa.int32()),
                ),
            }
        ),
        src / "f.parquet",
    )
    store = str(tmp_path / "store")
    ts.compress_table(str(src), store)
    (part,) = _parts(store)
    md = pq.ParquetFile(part).metadata
    assert md.num_row_groups == 2
    seen = set()
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        assert rg.num_rows == ts.DEFAULT_BATCH_ROWS
        for c in range(rg.num_columns):
            col = rg.column(c)
            name = col.path_in_schema.split(".")[0]
            seen.add(name)
            assert not col.is_stats_set, name
            if name == "__rowidx":
                assert "DELTA_BINARY_PACKED" in col.encodings
                assert not col.has_dictionary_page
                assert col.total_compressed_size <= 2048
            elif name.endswith("__payload"):
                assert "RLE_DICTIONARY" not in col.encodings, name
                assert "DELTA_LENGTH_BYTE_ARRAY" in col.encodings, name
            elif name.endswith("__blk"):
                assert col.has_dictionary_page, name
                assert "RLE_DICTIONARY" in col.encodings, name
    assert {"__rowidx", "text__payload", "toks__payload", "toks__n",
            "id__blk"} <= seen
    assert "id__payload" not in seen  # scalar columns write no payload


def test_mixed_writer_store_reads_identically(
    stores, monkeypatch, tmp_path
):
    """A store whose parts come from both writers (the earlier one with
    an empty ``n_tok__payload``) answers LIKE, range scan, GROUP BY,
    count_where and top-k, with explicit and with all columns, with the
    rows and prune stats of the store written by the new writer alone,
    through both executors; it serves the same shuffled epoch and cold
    resumes, verifies bit-exact against its source, and its compact and
    union decode to the source table."""
    src, store, mixed = stores
    rewritten = [
        p for p in _parts(mixed)
        if pq.ParquetFile(p).metadata.row_group(0).column(0).has_dictionary_page
    ]
    assert 0 < len(rewritten) < len(_parts(mixed))
    for p in _parts(mixed):
        names = pq.read_schema(p).names
        assert ("n_tok__payload" in names) == (p in rewritten)

    want, ex = _queries(store)
    assert ex == {"driver"}
    assert _queries(mixed) == (want, {"driver"})
    monkeypatch.setattr(ts, "DRIVER_SCAN_BYTES", 0)
    assert _queries(store) == (want, {"ray"})
    assert _queries(mixed) == (want, {"ray"})
    monkeypatch.undo()

    src_t = _source(src)
    ids, n_tok = src_t["doc_id"], src_t["n_tok"]
    like, like_all, scan, scan_all, group, count, top, top_all = (
        g for g, _st in want
    )
    is_like = pc.match_substring(ids, "0001")
    assert like == sorted(ids.filter(is_like).to_pylist())
    assert like_all == _rows_of(src_t.filter(is_like))
    in_range = pc.and_(pc.greater_equal(n_tok, 40), pc.less_equal(n_tok, 90))
    assert scan == sorted(ids.filter(in_range).to_pylist())
    assert scan_all == _rows_of(src_t.filter(in_range))
    assert count == len(scan) > 0
    assert len(group) == len(set(src_t["source"].to_pylist()))
    assert top == top_all == sorted(n_tok.to_pylist(), reverse=True)[:5]
    # the scalar column's payload is never read, old layout or new
    assert all("n_tok" in st["payload_skipped"] for _g, st in want[2:4])

    epoch = _epoch(store)
    assert len(epoch) > 4
    _assert_batches_equal(_epoch(mixed), epoch)
    for step in (1, len(epoch) - 2):
        first = next(iter(_epoch(mixed, start_step=step)))
        _assert_batches_equal([first], [epoch[step]])
    res = ts.verify_table_store(src, mixed)
    assert res["ok"], res

    want_t = src_t.sort_by("doc_id")
    compacted, unioned = str(tmp_path / "compact"), str(tmp_path / "union")
    ts.compact_table_store(mixed, compacted, target_rows=2 * 128 * ROW_GROUPS)
    ts.union_table_store([mixed], unioned)
    for dst in (compacted, unioned):
        assert _decoded(ts.read_table_store(dst)).equals(want_t)
        assert _decoded(
            ts.read_table_store(dst, columns=["n_tok", "doc_id"])
        ).equals(want_t.select(["n_tok", "doc_id"]))


def _rows_of(t: pa.Table):
    return sorted(t.to_pylist(), key=lambda r: r["doc_id"])


def test_multi_row_group_part_chunk_layout(stores):
    """A part of ROW_GROUPS row groups reads back with its dictionary
    fields in one chunk per row group and its other fields in one chunk,
    and every per-part kernel the store scans run is exact on that
    layout: decode, LIKE, range scan, GROUP BY, count and topk."""
    from fsst_like_ray.pipelines.columnar import decode_columns_batch

    src, store, _mixed = stores
    part = _parts(store)[0]
    assert pq.ParquetFile(part).num_row_groups == ROW_GROUPS
    t = ts._read_part(part)
    assert t["doc_id__blk"].num_chunks == ROW_GROUPS
    assert t["doc_id__payload"].num_chunks == 1
    assert t["__rowidx"].num_chunks == 1
    src_t = _source(src)
    dec = decode_columns_batch(t)
    want = src_t.filter(pc.is_in(src_t["doc_id"], dec["doc_id"]))
    assert dec.num_rows == want.num_rows == t.num_rows
    assert dec.to_pylist() == want.select(dec.column_names).to_pylist()
    # the scans over the whole store against the source, driver executor
    want_ids = sorted(
        src_t["doc_id"].filter(
            pc.match_substring(src_t["doc_id"], "0002")
        ).to_pylist()
    )
    got = ts.like_table_store(store, "doc_id", "%0002%", columns=["doc_id"])
    assert sorted(got.to_arrow()["doc_id"].to_pylist()) == want_ids
    n_tok = src_t["n_tok"].to_numpy()
    sel = (n_tok >= 30) & (n_tok <= 120)
    got = ts.scan_table_store(store, "n_tok", 30, 120, columns=["doc_id"])
    assert sorted(got.to_arrow()["doc_id"].to_pylist()) == sorted(
        np.asarray(src_t["doc_id"].to_pylist())[sel].tolist()
    )
    assert ts.count_table_store(store, "n_tok", 30, 120) == int(sel.sum())
    grp = ts.group_agg_table_store(store, "source", "n_tok", ops=("sum",))
    want = {
        r["source"]: r["n_tok_sum"]
        for r in src_t.group_by("source").aggregate([("n_tok", "sum")])
        .to_pylist()
    }
    got = {r["value"]: r["vsum"] for r in grp.to_pylist()}
    assert got == want
    top = ts.topk_table_store(store, "n_tok", 5)["n_tok"].to_pylist()
    assert top == sorted(n_tok.tolist(), reverse=True)[:5]


def test_driver_scans_use_no_dataset_read(stores, monkeypatch):
    """With ``pq.read_table`` (pyarrow's dataset read) raising, a
    driver-executor LIKE, range scan, count and topk and one loader epoch
    still run: every read of a committed part opens the file itself."""
    _src, store, _mixed = stores

    def scans(st):
        like = ts.like_table_store(
            store, "doc_id", "%0001%", columns=["doc_id"], stats_out=st
        )
        scan = ts.scan_table_store(store, "n_tok", 40, 90, columns=["doc_id"])
        return (
            sorted(like.to_arrow()["doc_id"].to_pylist()),
            scan.to_arrow().num_rows,
            ts.count_table_store(store, "n_tok", 40, 90),
            ts.topk_table_store(store, "n_tok", 3)["n_tok"].to_pylist(),
        )

    want, epoch = scans({}), _epoch(store)

    def refuse(*a, **k):
        raise AssertionError("a store read went through pq.read_table")

    monkeypatch.setattr(pq, "read_table", refuse)
    st: dict = {}
    assert scans(st) == want
    assert st["executor"] == "driver"
    _assert_batches_equal(_epoch(store), epoch)


def test_scan_stats_name_skipped_payloads(ray_session, tmp_path):
    """``stats_out["payload_skipped"]`` lists the int and strdict columns
    of a scan and not the fsstb one; the strdict column is read (and
    unlisted) once one kept fragment's record no longer lists its
    schemes. The answers stay the same either way."""
    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(11)
    words = np.array(["merge", "sort", "ray", "scan", "fsst", "block"])
    for f in range(2):
        n = 1500
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(np.arange(f * n, (f + 1) * n),
                                   type=pa.int64()),
                    "cat": pa.array(rng.choice(["a", "b", "c"], n)),
                    "text": pa.array(
                        [f"row {i} " + " ".join(r)
                         for i, r in enumerate(rng.choice(words, (n, 6)))]
                    ),
                }
            ),
            src / f"f{f}.parquet",
        )
    store = str(tmp_path / "store")
    ts.compress_table(str(src), store)
    mdir = os.path.join(store, "_manifest")
    recs = sorted(os.listdir(mdir))
    for name in recs:
        with open(os.path.join(mdir, name)) as fh:
            cols = json.load(fh)["columns"]
        assert cols["cat"]["schemes"] == ["strdict"]
        assert cols["text"]["schemes"] == ["fsstb"]

    def scans():
        out = []
        for fn, args in (
            (ts.scan_table_store, ("id", 100, 2900)),
            (ts.like_table_store, ("cat", "b")),
            (ts.group_agg_table_store, ("cat", "id")),
        ):
            st: dict = {}
            got = fn(store, *args, stats_out=st)
            got = got.to_arrow() if isinstance(got, ts.ScanResult) else got
            out.append((got.sort_by(got.column_names[0]), st))
        return out

    first = scans()
    for _got, st in first:
        assert st["payload_skipped"] == ["cat", "id"]
    path = os.path.join(mdir, recs[0])
    with open(path) as fh:
        rec = json.load(fh)
    del rec["columns"]["cat"]["schemes"]
    with open(path, "w") as fh:
        json.dump(rec, fh)
    second = scans()
    for (got, st), (want, _st) in zip(second, first):
        assert st["payload_skipped"] == ["id"]
        assert got.equals(want)


def test_missing_payload_field_raises(ray_session):
    """A batch without the payload field of an fsstb or a list column is
    refused by decode, LIKE, eq/in, GROUP BY and the list readers with a
    ValueError naming the column; strdict and scalar columns read the
    same without theirs."""
    from fsst_like_ray.pipelines.rank import FSSTB_TEXT

    n = 64
    text = pa.table(
        {
            "text": pa.array([f"merge sort row {i}" for i in range(n)]),
            "cat": pa.array(["x", "y"] * (n // 2)),
            "id": pa.array(np.arange(n), type=pa.int64()),
        }
    )
    enc = columnar.encode_columns_batch(
        text, spec={**FSSTB_TEXT, "cat": {"scheme": columnar.S_STRDICT}}
    )
    assert "id__payload" not in enc.column_names
    dropped = enc.drop(["text__payload"])
    for call in (
        lambda: columnar.decode_columns_batch(dropped),
        lambda: columnar.like_scan_mask(dropped, "text", "%sort%"),
        lambda: columnar.eq_scan_mask(dropped, "text", "merge sort row 1"),
        lambda: columnar.in_scan_mask(dropped, "text", ["merge sort row 1"]),
        lambda: columnar.group_count_batch(dropped, "text"),
        lambda: columnar._group_codes(dropped, "text"),
    ):
        with pytest.raises(ValueError, match="'text'"):
            call()
    # strdict and scalar columns need no payload bytes
    lean = enc.drop(["cat__payload"])
    assert columnar.decode_columns_batch(lean).equals(text)
    assert columnar.like_scan_mask(lean, "cat", "x").sum() == n // 2

    toks = pa.table(
        {
            "toks": pa.array(
                [list(range(i % 7 + 1)) for i in range(n)],
                type=pa.list_(pa.int32()),
            )
        }
    )
    lenc = columnar.encode_columns_batch(toks).drop(["toks__payload"])
    for call in (
        lambda: columnar.decode_columns_batch(lenc),
        lambda: columnar.list_segment_runs(lenc, "toks"),
        lambda: columnar.decode_list_rows(lenc, "toks", None),
    ):
        with pytest.raises(ValueError, match="'toks'"):
            call()
