"""Whole-table per-column compression (pipelines/columnar.py).

The reference fixes ONE codec for ONE string column
(src/BenchmarkDriver.cpp:87-140); this engine auto-selects per column and
per block across the full Arrow type system, so the tests sweep every
family: ints, floats (bit-exact), bools, dates, timestamps, int64,
strings/binary (plain/fsst/dict schemes), and int32/float32 lists —
with nulls, empty blocks, slices, and parquet rewrites.
"""

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.codecs import CODECS
from fsst_like_ray.pipelines.columnar import (
    columnar_stats_batch,
    decode_columns_batch,
    decode_list_rows,
    encode_columns_batch,
)


def _assert_tables_equal(expect: pa.Table, got: pa.Table):
    assert got.column_names == expect.column_names
    for name in expect.column_names:
        a = expect[name].combine_chunks()
        b = got[name].combine_chunks()
        assert a.type.equals(b.type), (name, a.type, b.type)
        assert a.equals(b), f"column {name} mismatch"


def _scan_stats(stats: dict, scanned: int, skipped: int) -> dict:
    """Expected stats_out of a small store scan: the fragment prune
    counters plus the driver executor over the surviving parts' bytes
    and its unread payload columns (tests/test_part_io.py checks those)."""
    return {
        "fragments_scanned": scanned,
        "fragments_skipped": skipped,
        "executor": "driver",
        "scan_bytes": stats["scan_bytes"],
        "payload_skipped": stats["payload_skipped"],
    }


def _wide_table(n=600, seed=11, null_frac=0.0) -> pa.Table:
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 30, n)
    cols = {
        "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
        "tokens": pa.array(
            [rng.integers(0, 900, c).tolist() for c in counts],
            type=pa.list_(pa.int32()),
        ),
        "n_tok": pa.array(counts.astype(np.int32)),
        "source": pa.array(rng.choice(["web", "books", "code"], n)),
        "f64": pa.array(rng.random(n), type=pa.float64()),
        "f32": pa.array(rng.random(n).astype(np.float32)),
        "i64": pa.array(rng.integers(-(2**62), 2**62, n), type=pa.int64()),
        "flag": pa.array(rng.integers(0, 2, n).astype(bool)),
        "day": pa.array(
            rng.integers(0, 20000, n).astype(np.int32), type=pa.date32()
        ),
        "ts": pa.array(
            np.sort(rng.integers(1_600_000_000_000_000, 1_700_000_000_000_000, n)),
            type=pa.timestamp("us"),
        ),
        "emb": pa.array(
            [rng.normal(size=6).astype(np.float32).tolist() for _ in range(n)],
            type=pa.large_list(pa.float32()),
        ),
        "blob": pa.array(
            [
                bytes(rng.integers(0, 256, int(c)).astype(np.uint8))
                for c in rng.integers(0, 20, n)
            ],
            type=pa.binary(),
        ),
    }
    t = pa.table(cols)
    if null_frac:
        # doc_id stays non-null: tests sort on it to canonicalize row order
        for name in [c for c in t.column_names if c != "doc_id"]:
            col = t[name].combine_chunks()
            mask = rng.random(n) < null_frac
            nulled = pa.array(
                [None if m else v for m, v in zip(mask, col.to_pylist())],
                type=col.type,
            )
            t = t.set_column(t.schema.get_field_index(name), name, nulled)
    return t


@pytest.mark.parametrize("null_frac", [0.0, 0.15])
def test_roundtrip_all_families(null_frac):
    t = _wide_table(null_frac=null_frac)
    dec = decode_columns_batch(encode_columns_batch(t))
    _assert_tables_equal(t, dec)


def _taken_flat(enc: pa.Table, column: str, rows):
    """The reference for decode_list_rows: decode the whole batch, take
    ``rows`` from the Arrow list column, flatten."""
    arr = decode_columns_batch(enc)[column]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if rows is not None:
        arr = arr.take(pa.array(np.asarray(rows, dtype=np.int64)))
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return np.ascontiguousarray(flat).view(np.int32), off - off[0]


def _check_list_rows(enc: pa.Table, rows):
    for column in ("tokens", "emb"):
        flat, off = decode_list_rows(enc, column, rows)
        exp_flat, exp_off = _taken_flat(enc, column, rows)
        assert flat.dtype == np.int32 and off.dtype == np.int64
        np.testing.assert_array_equal(off, exp_off)
        np.testing.assert_array_equal(flat, exp_flat)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_decode_list_rows_matches_take(name):
    """decode_list_rows decodes a list column straight into ``rows``
    order: equal to decoding every row, taking ``rows`` and flattening,
    for every codec, with all rows, a permutation, a strict subset,
    no rows and a zero-row batch — and across encode blocks whose
    (codec, state) differ and whose rows interleave, which scatters."""
    t = _wide_table(n=300, null_frac=0.1)
    rng = np.random.default_rng(3)
    enc = encode_columns_batch(t, codec_names=[name])
    subset = np.flatnonzero(rng.random(300) < 0.4)
    for rows in (None, rng.permutation(300), subset, rng.permutation(subset),
                 np.zeros(0, dtype=np.int64)):
        _check_list_rows(enc, rows)
    for rows in (None, np.zeros(0, dtype=np.int64)):
        _check_list_rows(enc.slice(0, 0), rows)

    other = "varint" if name != "varint" else "bitpack"
    blocks = [
        encode_columns_batch(t.slice(0, 100), codec_names=[name]),
        encode_columns_batch(t.slice(100, 100), codec_names=[other]),
        encode_columns_batch(t.slice(200, 100), codec_names=[name]),
    ]
    cat = pa.concat_tables(blocks)
    perm = rng.permutation(300)
    assert len({int(i) // 100 for i in perm[:12]}) > 1  # rows interleave
    for rows in (None, perm, rng.permutation(subset)):
        _check_list_rows(cat, rows)


def test_read_paths_build_each_symbol_table_once(monkeypatch):
    """The fsstb string decode, the fsst list codec's decode and the fsstb
    equality scan share fsstlib.cached_table: reading one encoded batch
    twice builds each distinct symbol table once, with identical output."""
    from fsst_like_ray import fsstlib
    from fsst_like_ray.pipelines.columnar import eq_scan_mask

    n = 400
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "text": pa.array(["the document number %06d body" % i for i in range(n)]),
            "tokens": pa.array(
                [rng.integers(0, 300, int(c)).tolist() for c in rng.integers(1, 40, n)],
                type=pa.list_(pa.int32()),
            ),
        }
    )
    enc = pa.concat_tables(
        [encode_columns_batch(t.slice(i, 200), codec_names=["fsst"]) for i in (0, 200)]
    )
    schemes = columnar_stats_batch(enc).to_pandas()
    assert set(schemes.loc[schemes["column"] == "text", "scheme"]) == {"fsstb"}

    built = []
    deserialize = fsstlib.SymbolTable.deserialize

    def counting(state):
        built.append(bytes(state))
        return deserialize(state)

    monkeypatch.setattr(fsstlib.SymbolTable, "deserialize", staticmethod(counting))
    fsstlib.cached_table.cache_clear()
    reads = []
    for _ in range(2):
        reads.append(
            (
                decode_columns_batch(enc),
                decode_list_rows(enc, "tokens", None),
                eq_scan_mask(enc, "text", "the document number 000321 body"),
            )
        )
    # two blocks x (text table + tokens codec state), each built once
    assert len(built) == len(set(built)) == 4
    (dec0, flat0, mask0), (dec1, flat1, mask1) = reads
    _assert_tables_equal(t, dec0)
    _assert_tables_equal(dec0, dec1)
    for a, b in zip(flat0, flat1):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(mask0, mask1)
    assert np.flatnonzero(mask0).tolist() == [321]


def test_float_bit_exactness():
    # NaN payloads and signed zeros must survive: floats ride as bit views
    v = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-308], dtype=np.float64)
    t = pa.table({"x": pa.array(v, type=pa.float64())})
    dec = decode_columns_batch(encode_columns_batch(t))
    assert dec["x"].combine_chunks().to_numpy(zero_copy_only=False).view(
        np.int64
    ).tolist() == v.view(np.int64).tolist()


def test_slices_and_concat():
    t = _wide_table(null_frac=0.1)
    enc = encode_columns_batch(t)
    # arbitrary slice of one encoded block
    _assert_tables_equal(t.slice(83, 211), decode_columns_batch(enc.slice(83, 211)))
    # concatenation of two different blocks (different envelopes)
    enc2 = encode_columns_batch(t.slice(0, 50))
    cat = pa.concat_tables([enc.slice(550, 50), enc2]).combine_chunks()
    exp = pa.concat_tables([t.slice(550, 50), t.slice(0, 50)])
    _assert_tables_equal(exp, decode_columns_batch(cat))


def test_parquet_rewrite_resilience(tmp_path):
    # a parquet rewrite re-slices blocks into new row groups; __rowidx +
    # per-block envelopes must still decode any row-group subset
    t = _wide_table(n=500, null_frac=0.05)
    enc = pa.concat_tables(
        [encode_columns_batch(t.slice(0, 260)), encode_columns_batch(t.slice(260))]
    )
    path = tmp_path / "enc.parquet"
    pq.write_table(enc.combine_chunks(), path, row_group_size=90)
    back = pq.read_table(path).combine_chunks()
    _assert_tables_equal(t, decode_columns_batch(back))
    sl = pq.read_table(path).slice(113, 222).combine_chunks()
    _assert_tables_equal(t.slice(113, 222), decode_columns_batch(sl))


def test_empty_and_all_null():
    t = _wide_table(n=60)
    empty = t.slice(0, 0)
    dec = decode_columns_batch(encode_columns_batch(empty))
    _assert_tables_equal(empty, dec)

    n = 40
    t2 = pa.table(
        {
            "s": pa.nulls(n, type=pa.string()),
            "l": pa.nulls(n, type=pa.list_(pa.int32())),
            "v": pa.nulls(n, type=pa.float64()),
        }
    )
    _assert_tables_equal(t2, decode_columns_batch(encode_columns_batch(t2)))


def test_scheme_selection_sanity():
    n = 2000
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            # 3 distinct values -> strdict must beat fsst/plain
            "lowcard": pa.array(rng.choice(["alpha", "beta", "gamma"], n)),
            # high-cardinality english-ish text (unique rows) -> fsstb
            "text": pa.array(
                ["the quick brown fox number %06d jumps over the lazy dog" % i
                 for i in range(n)]
            ),
            # incompressible bytes -> plainb
            "rand": pa.array(
                [bytes(rng.integers(0, 256, 40).astype(np.uint8)) for _ in range(n)],
                type=pa.binary(),
            ),
        }
    )
    st = columnar_stats_batch(encode_columns_batch(t)).to_pandas()
    by = dict(zip(st["column"], st["scheme"]))
    assert by["lowcard"] == "strdict"
    assert by["text"] == "fsstb"
    assert by["rand"] == "plainb"
    ratios = dict(
        zip(st["column"], st["plain_nbytes"] / st["encoded_nbytes"])
    )
    assert ratios["lowcard"] > 5.0
    assert ratios["text"] > 2.0


def test_string_bound_skips_fsstb_training(monkeypatch):
    """fsstb's estimate is never under total // 8 bytes (one code byte
    covers at most 8 input bytes), so a low-cardinality block whose strdict
    estimate beats that trains no table; unique document text still
    trains and picks fsstb."""
    from fsst_like_ray import fsstlib

    calls = []
    real = fsstlib.train
    monkeypatch.setattr(
        fsstlib, "train", lambda *a: calls.append(1) or real(*a)
    )
    rng = np.random.default_rng(5)
    n = 2000
    low = pa.table({"s": pa.array(rng.choice(["alpha", "beta", "gamma"], n))})
    text = pa.table({"s": pa.array(
        ["the quick brown fox number %06d jumps over the lazy dog" % i
         for i in range(n)]
    )})
    for t, scheme, trains in [(low, "strdict", 0), (text, "fsstb", 1)]:
        calls.clear()
        enc = encode_columns_batch(t)
        assert len(calls) == trains, scheme
        assert columnar_stats_batch(enc)["scheme"].to_pylist() == [scheme]
        _assert_tables_equal(t, decode_columns_batch(enc))


def _two_stage_pick(v: np.ndarray) -> str:
    """Reference: the scalar-stream rule before the fsst gate moved into
    select_codec — a cheap-codec race, then an fsst-only race only when
    the cheap best is above 0.55 × plain, fsst taken only if strictly
    smaller."""
    from fsst_like_ray.codecs import select_codec
    from fsst_like_ray.pipelines.columnar import _SEL_ROWS, _SEL_SEG

    n = len(v)
    seg = np.append(np.arange(0, n, _SEL_SEG, dtype=np.int64), n)
    cheap = [c for c in CODECS if c != "fsst"]
    name, est, _ = select_codec(v, seg, cheap, sample_rows=_SEL_ROWS)
    if min(est.values()) > 0.55 * est["plain"]:
        _f, fest, _ = select_codec(v, seg, ["fsst"], sample_rows=_SEL_ROWS)
        if fest["fsst"] < min(est.values()):
            name = "fsst"
    return name


def test_encode_stream_one_selection_matches_two_stage_rule(monkeypatch):
    """_encode_stream makes one select_codec call per stream, and its
    gate picks what the old two-stage rule picked on int32, float32 bits,
    float64 lo/hi words, high-entropy and text-like streams."""
    from fsst_like_ray.pipelines import columnar

    rng = np.random.default_rng(20)
    f64 = rng.normal(size=8000).view(np.uint64)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
    words = [bytes(rng.choice(letters, rng.integers(4, 8))) for _ in range(200)]
    txt = b" ".join(rng.choice(words, 8000))
    streams = {
        "int32_small": rng.integers(0, 1000, 8000, dtype=np.int32),
        "int32_wide": rng.integers(-(2**31), 2**31 - 1, 8000, dtype=np.int32),
        "int32_runs": np.repeat(rng.integers(0, 50, 80, dtype=np.int32), 100),
        "float32_bits": rng.normal(size=8000).astype(np.float32).view(np.int32),
        "f64_lo": (f64 & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        "f64_hi": (f64 >> np.uint64(32)).astype(np.uint32),
        "text": np.frombuffer(txt[: len(txt) // 4 * 4], np.int32),
    }
    real = columnar.select_codec
    calls = []
    monkeypatch.setattr(
        columnar, "select_codec", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    picks = {}
    for label, s in streams.items():
        v = np.ascontiguousarray(s).view(np.int32)
        expect = _two_stage_pick(v)
        calls.clear()
        name, state, payload = columnar._encode_stream(v)
        assert len(calls) == 1, label
        assert name == expect, (label, name, expect)
        picks[label] = name
        out = columnar._decode_stream(name, state, payload, len(v))
        assert np.array_equal(out, v), label
    # both branches ran: gated streams and a screened fsst win
    assert picks["text"] == "fsst" and picks["int32_small"] == "bitpack"


def test_stats_account_every_column_block():
    t = _wide_table(n=300)
    enc = pa.concat_tables(
        [encode_columns_batch(t.slice(0, 120)), encode_columns_batch(t.slice(120))]
    ).combine_chunks()
    st = columnar_stats_batch(enc).to_pandas()
    # every column appears once per block, and rows sum to the table size
    assert set(st["column"]) == set(t.column_names)
    assert st.groupby("column")["rows"].sum().eq(300).all()
    assert (st["encoded_nbytes"] > 0).all()


def test_timestamp_tz_and_units():
    n = 200
    rng = np.random.default_rng(9)
    base = rng.integers(1_000_000_000, 2_000_000_000, n)
    t = pa.table(
        {
            "s": pa.array(base, type=pa.timestamp("s")),
            "ns": pa.array(base * 10**9, type=pa.timestamp("ns")),
            "tz": pa.array(base * 10**6, type=pa.timestamp("us", tz="UTC")),
        }
    )
    _assert_tables_equal(t, decode_columns_batch(encode_columns_batch(t)))


def test_list_element_nulls_raise():
    # element-level nulls would widen to float64 NaN in the flat stream and
    # the bit view would silently corrupt — must reject loudly
    t = pa.table(
        {"x": pa.array([[1, None, 3], [4, 5]], type=pa.list_(pa.int32()))}
    )
    with pytest.raises(NotImplementedError, match="element nulls"):
        encode_columns_batch(t)


def test_zero_row_parquet_rewrite_keeps_schema(tmp_path):
    # parquet drops dictionary values for 0-row data; the type must come
    # back from the __blk field metadata
    t = _wide_table(n=50).slice(0, 0)
    path = tmp_path / "empty.parquet"
    pq.write_table(encode_columns_batch(t), path)
    dec = decode_columns_batch(pq.read_table(path).combine_chunks())
    _assert_tables_equal(t, dec)


def test_stats_slice_conservation():
    # summing stats over ANY re-slicing must reproduce the unsliced totals
    t = _wide_table(n=400)
    enc = encode_columns_batch(t)
    whole = columnar_stats_batch(enc).to_pandas().set_index("column")
    parts = [
        columnar_stats_batch(enc.slice(a, b - a)).to_pandas()
        for a, b in [(0, 90), (90, 91), (91, 400)]
    ]
    import pandas as pd

    summed = (
        pd.concat(parts).groupby("column")[
            ["plain_nbytes", "encoded_nbytes", "rows"]
        ].sum()
    )
    assert summed["rows"].eq(400).all()
    for col in whole.index:
        assert abs(summed.loc[col, "plain_nbytes"] - whole.loc[col, "plain_nbytes"]) <= 2
        assert abs(summed.loc[col, "encoded_nbytes"] - whole.loc[col, "encoded_nbytes"]) <= 2
    # a slice that misses a dictionary entry entirely yields no phantom row
    assert (pd.concat(parts)["rows"] > 0).all()


def test_fsstb_sample_byte_cap():
    # one giant row among small ones must not blow the training budget:
    # encode time is bounded, and the round-trip stays exact
    big = "xyz" * 2_000_000
    t = pa.table({"s": pa.array([big] + ["short %d" % i for i in range(50)])})
    dec = decode_columns_batch(encode_columns_batch(t))
    _assert_tables_equal(t, dec)


def test_eq_scan_all_schemes():
    from fsst_like_ray.pipelines.columnar import eq_scan_batch

    rng = np.random.default_rng(1)
    n = 3000
    src = rng.choice(["web", "books", "code"], n)
    blob = [bytes(rng.integers(0, 256, 12).astype(np.uint8)) for _ in range(n)]
    blob[5] = b"NEEDLE-BYTES"
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            # nulls never match an equality literal
            "source": pa.array(
                [None if i % 17 == 0 else s for i, s in enumerate(src)],
                type=pa.string(),
            ),
            "text": pa.array(
                ["the document number %06d body" % i for i in range(n)]
            ),
            "blob": pa.array(blob, type=pa.binary()),
        }
    )
    enc = encode_columns_batch(t)
    by = dict(
        zip(*columnar_stats_batch(enc).to_pandas()[["column", "scheme"]].T.values)
    )
    assert (by["source"], by["text"], by["blob"]) == ("strdict", "fsstb", "plainb")

    out = eq_scan_batch(enc, "source", "web", out_columns=["doc_id", "source"])
    exp = [i for i in range(n) if i % 17 and src[i] == "web"]
    assert out["doc_id"].to_pylist() == exp
    assert set(out["source"].to_pylist()) == {"web"}
    assert eq_scan_batch(enc, "text", "the document number 000123 body")[
        "doc_id"
    ].to_pylist() == [123]
    assert eq_scan_batch(enc, "blob", b"NEEDLE-BYTES")["doc_id"].to_pylist() == [5]
    assert eq_scan_batch(enc, "source", "absent").num_rows == 0
    # sliced encoded batch still scans correctly
    out4 = eq_scan_batch(enc.slice(100, 500), "source", "books", out_columns=["doc_id"])
    assert out4["doc_id"].to_pylist() == [
        i for i in range(100, 600) if i % 17 and src[i] == "books"
    ]
    with pytest.raises(TypeError):
        eq_scan_batch(enc, "doc_id", "5")


def test_like_scan_all_schemes():
    """Compressed-domain LIKE on encoded string columns: fsstb (full
    matcher engine stack), strdict (dictionary pushdown), plainb (direct
    bytes) — every scheme and engine vs a Python LIKE oracle."""
    import re

    from fsst_like_ray.pipelines.columnar import like_scan_batch

    rng = np.random.default_rng(5)
    n = 4000
    words = ["merge", "sort", "ray", "data", "plasma", "join", "scan"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(2, 10))) for _ in range(n)
    ]
    texts[7] = None
    src = [f"src{i % 13}" for i in range(n)]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "source": pa.array(src),
            "blob": pa.array(
                [(x or "").encode() for x in texts], type=pa.binary()
            ),
        }
    )
    enc = encode_columns_batch(t)
    by = dict(
        zip(*columnar_stats_batch(enc).to_pandas()[["column", "scheme"]].T.values)
    )
    assert (by["text"], by["source"]) == ("fsstb", "strdict")

    def oracle(col_vals, pattern):
        rx = re.compile(
            "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
            re.S,
        )
        return [
            i for i, v in enumerate(col_vals) if v is not None and rx.match(v)
        ]

    for col, vals in (("text", texts), ("source", src)):
        for pat in (
            "%merge%sort%", "%plasma%", "ray%", "%join", "%m_rge%",
            "%zzz_absent%", "src1%", "%rc3%", "src2", "%",
        ):
            got = like_scan_batch(enc, col, pat, out_columns=["doc_id"])
            assert got["doc_id"].to_pylist() == oracle(vals, pat), (col, pat)
    # every engine agrees on the fsstb path
    exp = oracle(texts, "%merge%")
    for eng in ("decoded", "prefix", "skipping", "kmp", "auto"):
        got = like_scan_batch(
            enc, "text", "%merge%", out_columns=["doc_id"], engine=eng
        )
        assert got["doc_id"].to_pylist() == exp, eng
    # sliced encoded batch scans correctly
    got = like_scan_batch(enc.slice(50, 900), "text", "%plasma%",
                          out_columns=["doc_id"])
    assert got["doc_id"].to_pylist() == [
        i for i in oracle(texts, "%plasma%") if 50 <= i < 950
    ]
    # null text never matches, even the match-all pattern
    assert 7 not in like_scan_batch(enc, "text", "%")["doc_id"].to_pylist()
    # non-string columns refuse loudly (binary LIKE is undefined here)
    with pytest.raises(TypeError):
        like_scan_batch(enc, "blob", "%merge%")
    with pytest.raises(TypeError):
        like_scan_batch(enc, "doc_id", "%1%")


def test_predicate_scan_compound():
    """Conjunctive range+eq+in+like over one encoded batch vs a Python
    oracle; short-circuit on an impossible leading predicate; unknown op
    raises."""
    from fsst_like_ray.pipelines.columnar import predicate_scan_batch

    rng = np.random.default_rng(12)
    n = 3000
    words = ["merge", "sort", "ray", "plasma"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(2, 8))) for _ in range(n)
    ]
    src = [f"s{i % 5}" for i in range(n)]
    score = (np.arange(n) % 499).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
            "source": pa.array(src),
            "score": pa.array(score),
        }
    )
    enc = encode_columns_batch(t)
    exp = [
        i
        for i in range(n)
        if 50 <= score[i] <= 400
        and src[i] in ("s1", "s3")
        and "merge" in texts[i]
    ]
    got = predicate_scan_batch(
        enc,
        [
            ("range", "score", 50, 400),
            ("in", "source", ["s1", "s3"]),
            ("like", "text", "%merge%"),
        ],
        out_columns=["doc_id"],
    )
    assert got["doc_id"].to_pylist() == exp
    # eq + open-ended range
    exp2 = [i for i in range(n) if src[i] == "s2" and score[i] >= 450]
    got2 = predicate_scan_batch(
        enc,
        [("eq", "source", "s2"), ("range", "score", 450, None)],
        out_columns=["doc_id"],
    )
    assert got2["doc_id"].to_pylist() == exp2
    # impossible first predicate short-circuits to empty
    got3 = predicate_scan_batch(
        enc,
        [("eq", "source", "absent"), ("like", "text", "%merge%")],
    )
    assert got3.num_rows == 0
    with pytest.raises(ValueError):
        predicate_scan_batch(enc, [("between", "score", 1, 2)])

    # set-membership kernel: strdict dictionary hash pass and fsstb
    # re-encoded-needle compare agree with Python membership, large lists
    # included; empty set matches nothing
    from fsst_like_ray.pipelines.columnar import in_scan_mask

    vals = ["s1", "s4", "absent"]
    m = in_scan_mask(enc, "source", vals)
    assert (m == np.array([s in set(vals) for s in src])).all()
    tv = [texts[5], texts[17], "no such doc"] + [
        "filler %d" % i for i in range(200)
    ]
    m2 = in_scan_mask(enc, "text", tv)
    assert (m2 == np.array([x in set(tv) for x in texts])).all()
    assert not in_scan_mask(enc, "source", []).any()
    # int columns take the stream-membership branch — but never coerce
    # strings (a silent int("1") would mask schema confusion)
    with pytest.raises(TypeError):
        in_scan_mask(enc, "score", ["1"])
    with pytest.raises(TypeError):
        in_scan_mask(enc, "source", [1])


def test_range_scan_zone_maps():
    from fsst_like_ray.pipelines.columnar import range_scan_batch

    parts = []
    for blk in range(4):  # 4 blocks with disjoint id ranges
        ids = np.arange(blk * 1000, (blk + 1) * 1000, dtype=np.int64)
        t = pa.table(
            {
                "event_id": pa.array(ids),
                "ts": pa.array(
                    ids * 1_000_000 + 1_600_000_000_000_000,
                    type=pa.timestamp("us"),
                ),
                "val32": pa.array((ids % 97).astype(np.int32)),
            }
        )
        parts.append(encode_columns_batch(t))
    enc = pa.concat_tables(parts).combine_chunks()

    stats = {}
    out = range_scan_batch(enc, "event_id", lo=1500, hi=1600, stats_out=stats)
    assert out["event_id"].to_pylist() == list(range(1500, 1601))
    # the zone maps must SKIP the three disjoint blocks without decoding
    assert stats == {"blocks_scanned": 1, "blocks_skipped": 3}

    s2 = {}
    out2 = range_scan_batch(enc, "val32", lo=0, hi=1, out_columns=["event_id"], stats_out=s2)
    assert out2["event_id"].to_pylist() == [i for i in range(4000) if i % 97 <= 1]
    assert s2["blocks_scanned"] == 4  # every block overlaps [0, 1]

    s3 = {}
    out3 = range_scan_batch(enc, "ts", hi=1_600_000_500_000_000, stats_out=s3)
    assert out3.num_rows == 501 and s3["blocks_skipped"] == 3
    assert range_scan_batch(enc, "event_id", lo=3990).num_rows == 10

    with pytest.raises(TypeError):
        range_scan_batch(
            encode_columns_batch(pa.table({"s": pa.array(["a", "b"])})), "s", lo=0
        )


def test_agg_scan():
    import fsst_like_ray.pipelines.columnar as C

    rng = np.random.default_rng(2)
    n = 5000
    ids = rng.integers(-(2**62), 2**62, n)
    t = pa.table(
        {
            "x": pa.array(ids, type=pa.int64()),
            "y": pa.array(rng.integers(0, 1000, n).astype(np.int32)),
            "xn": pa.array(
                [None if i % 7 == 0 else int(v) for i, v in enumerate(ids)],
                type=pa.int64(),
            ),
        }
    )
    enc = C.encode_columns_batch(t)
    out = C.agg_scan_batch(enc, "x").to_pylist()[0]
    assert out["vmin"] == ids.min() and out["vmax"] == ids.max()
    # python-int expected sum: near-2^62 values overflow a naive int64 sum
    assert int(out["vsum"]) == sum(int(v) for v in ids) and out["cnt"] == n

    # zero-decode claim: min/max/count of full null-free blocks must not
    # touch _decode_stream at all
    calls = []
    orig = C._decode_stream
    C._decode_stream = lambda *a, **k: (calls.append(1), orig(*a, **k))[1]
    try:
        C._BLK_CACHE.clear()
        out2 = C.agg_scan_batch(enc, "x", ops=("min", "max", "count")).to_pylist()[0]
    finally:
        C._decode_stream = orig
    assert not calls and out2["vmin"] == ids.min() and out2["cnt"] == n

    # nulls excluded exactly (decode path)
    exp = [int(v) for i, v in enumerate(ids) if i % 7]
    o3 = C.agg_scan_batch(enc, "xn").to_pylist()[0]
    assert o3["cnt"] == len(exp) and int(o3["vsum"]) == sum(exp)
    assert o3["vmin"] == min(exp) and o3["vmax"] == max(exp)

    # partial block: the zone map is a superset, so the decode path runs
    sl = enc.slice(100, 700)
    o5 = C.agg_scan_batch(sl, "x").to_pylist()[0]
    assert o5["vmin"] == ids[100:800].min() and o5["cnt"] == 700

    with pytest.raises(TypeError):
        C.agg_scan_batch(
            encode_columns_batch(pa.table({"s": pa.array(["a"])})), "s"
        )


def test_group_count():
    import collections

    import fsst_like_ray.pipelines.columnar as C

    rng = np.random.default_rng(3)
    n = 4000
    src = rng.choice(["web", "books", "code"], n)
    srcn = [None if i % 13 == 0 else s for i, s in enumerate(src)]
    t = pa.table(
        {
            "source": pa.array(srcn, type=pa.string()),
            "text": pa.array(["unique doc %06d body" % i for i in range(n)]),
        }
    )
    enc = C.encode_columns_batch(t)
    got = {
        r["value"].decode(): r["n"]
        for r in C.group_count_batch(enc, "source").to_pylist()
    }
    assert got == dict(collections.Counter(s for s in srcn if s is not None))
    # strdict path is decode-free for the VALUES: it bincounts the cached
    # index stream (unique-text fsstb column takes the decode fallback)
    o2 = C.group_count_batch(enc, "text").to_pylist()
    assert len(o2) == n and all(r["n"] == 1 for r in o2)
    o3 = {
        r["value"].decode(): r["n"]
        for r in C.group_count_batch(enc.slice(13, 700), "source").to_pylist()
    }
    assert o3 == dict(
        collections.Counter(s for s in srcn[13:713] if s is not None)
    )
    with pytest.raises(TypeError):
        C.group_count_batch(
            encode_columns_batch(pa.table({"x": pa.array([1])})), "x"
        )

    # binary columns keep BINARY keys: a lossy utf-8 decode would merge
    # distinct non-utf8 groups into one replacement-char bucket
    tb = pa.table(
        {"b": pa.array([b"\xff"] * 3 + [b"\xfe"] * 2 + [b"ok"], type=pa.binary())}
    )
    encb = C.encode_columns_batch(tb)
    part = C.group_count_batch(encb, "b")
    assert not part["is_text"].to_pylist()[0]
    got_b = {r["value"]: r["n"] for r in part.to_pylist()}
    assert got_b == {b"\xff": 3, b"\xfe": 2, b"ok": 1}


def test_agg_count_only_never_decodes():
    import fsst_like_ray.pipelines.columnar as C

    t = pa.table(
        {"x": pa.array([1, None, 3, None, 5] * 100, type=pa.int64())}
    )
    enc = C.encode_columns_batch(t)
    calls = []
    orig = C._decode_stream
    C._decode_stream = lambda *a, **k: (calls.append(1), orig(*a, **k))[1]
    try:
        C._BLK_CACHE.clear()
        # count-only over a NULL-carrying block: bitmap answers it
        out = C.agg_scan_batch(enc, "x", ops=("count",)).to_pylist()[0]
        # ...even for a partial slice of the block
        out2 = C.agg_scan_batch(enc.slice(10, 200), "x", ops=("count",)).to_pylist()[0]
    finally:
        C._decode_stream = orig
    assert not calls
    assert out["cnt"] == 300 and out2["cnt"] == 120
    # unrequested aggregates are absent, not fabricated zeros
    assert out["vmin"] is None and out["vsum"] == 0  # partial row padding



def test_range_scan_nulls():
    from fsst_like_ray.pipelines.columnar import range_scan_batch

    t = pa.table(
        {"x": pa.array([1, None, 3, None, 5], type=pa.int64()),
         "y": pa.array(list("abcde"))}
    )
    out = range_scan_batch(encode_columns_batch(t), "x", lo=1, hi=5)
    assert out["x"].to_pylist() == [1, 3, 5]  # nulls never match a range


def test_pruned_decode_and_read(tmp_path):
    from fsst_like_ray.pipelines.columnar import (
        _encoded_field_names,
        read_decoded_columns,
    )

    t = _wide_table(n=200)
    enc = encode_columns_batch(t)
    keep = _encoded_field_names(enc, ["doc_id", "tokens"])
    dec = decode_columns_batch(enc.select(keep))
    assert dec.column_names == ["doc_id", "tokens"]
    _assert_tables_equal(t.select(["doc_id", "tokens"]), dec)
    # a typo'd column must FAIL, not silently return an empty table
    with pytest.raises(KeyError, match="typo"):
        _encoded_field_names(enc, ["doc_id", "typo"])
    with pytest.raises(FileNotFoundError):
        read_decoded_columns(str(tmp_path), ["doc_id"])


def test_eq_scan_empty_string():
    from fsst_like_ray.pipelines.columnar import eq_scan_batch

    t = pa.table(
        {"id": pa.array([0, 1, 2], type=pa.int64()),
         "s": pa.array(["", "x", ""])}
    )
    out = eq_scan_batch(encode_columns_batch(t), "s", "")
    assert out["id"].to_pylist() == [0, 2]


def test_unsupported_type_raises():
    t = pa.table({"x": pa.array([{"a": 1}], type=pa.struct([("a", pa.int32())]))})
    with pytest.raises(NotImplementedError):
        encode_columns_batch(t)


def test_spec_mode_roundtrip():
    from fsst_like_ray.pipelines.columnar import train_columnar_spec

    t = _wide_table(n=600, null_frac=0.1)
    spec = train_columnar_spec(t.slice(0, 100))
    assert set(spec) == set(t.column_names)
    dec = decode_columns_batch(encode_columns_batch(t, spec=spec))
    _assert_tables_equal(t, dec)


def test_spec_mode_out_of_sample_values():
    from fsst_like_ray.pipelines.columnar import train_columnar_spec

    # sample sees tiny ints + ASCII; the block brings huge ints and unicode
    # the sample never saw — pinned codecs retrain per block (widths) and
    # the shared fsst table escapes unseen bytes, so both stay exact
    small = pa.table(
        {
            "x": pa.array(np.arange(50, dtype=np.int64)),
            "s": pa.array(["plain ascii %d" % i for i in range(50)]),
        }
    )
    spec = train_columnar_spec(small)
    wild = pa.table(
        {
            "x": pa.array([-(2**62), 2**62, 0, 7], type=pa.int64()),
            "s": pa.array(["日本語テキスト", "πδλ", "", "\x00\xff bytes"]),
        }
    )
    dec = decode_columns_batch(encode_columns_batch(wild, spec=spec))
    _assert_tables_equal(wild, dec)
    if spec["s"].get("fsst_table"):
        # the text column really rides the SHARED table, not a retrain
        st = columnar_stats_batch(encode_columns_batch(wild, spec=spec))
        assert (
            dict(zip(st["column"].to_pylist(), st["scheme"].to_pylist()))["s"]
            == "fsstb"
        )


def test_store_zone_pruned_scan(ray_session, tmp_path):
    """Fragment-level zone maps: compress_table records per-fragment
    (vmin, vmax) per int-logical column in the manifest; scan_table_store
    prunes disjoint fragments before opening a part file; legacy records
    without zones scan unconditionally; an all-pruned scan returns an
    empty dataset that keeps the decoded schema."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        scan_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n = 1500
    for f in range(3):  # disjoint id ranges per fragment
        ids = np.arange(f * 10_000, f * 10_000 + n, dtype=np.int64)
        t = pa.table(
            {
                "event_id": pa.array(ids),
                "ts": pa.array(
                    ids * 1_000_000 + 1_600_000_000_000_000,
                    type=pa.timestamp("us"),
                ),
                "kind": pa.array(["k%d" % (i % 5) for i in range(n)]),
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet", row_group_size=600)
    compress_table(str(src), out, batch_rows=512)

    mdir = os.path.join(out, "_manifest")
    recs = [json.load(open(os.path.join(mdir, f))) for f in os.listdir(mdir)]
    by_lo = sorted(r["zones"]["event_id"][0] for r in recs)
    assert by_lo == [0, 10_000, 20_000]
    for r in recs:
        lo = r["zones"]["event_id"][0]
        assert r["zones"]["event_id"] == [lo, lo + n - 1]
        assert r["zones"]["ts"] == [
            lo * 1_000_000 + 1_600_000_000_000_000,
            (lo + n - 1) * 1_000_000 + 1_600_000_000_000_000,
        ]
        assert "kind" not in r["zones"]  # strings carry no zone envelope

    stats: dict = {}
    got = scan_table_store(
        out, "event_id", lo=10_100, hi=10_200,
        columns=["event_id", "kind"], stats_out=stats,
    ).to_arrow().to_pandas()
    assert stats == _scan_stats(stats, 1, 2)
    assert sorted(got["event_id"]) == list(range(10_100, 10_201))
    assert set(got.columns) == {"event_id", "kind"}

    # all fragments pruned: zero rows, schema intact at the Dataset level
    stats2: dict = {}
    empty = scan_table_store(
        out, "event_id", lo=99_999, hi=100_000,
        columns=["event_id", "kind"], stats_out=stats2,
    )
    assert stats2["fragments_skipped"] == 3 and empty.to_arrow().num_rows == 0
    assert empty.to_arrow().schema.names == ["event_id", "kind"]

    # legacy manifests (pre-zones) scan everything — pruning is only ever
    # an optimization
    for f in os.listdir(mdir):
        p = os.path.join(mdir, f)
        r = json.load(open(p))
        r.pop("zones")
        json.dump(r, open(p, "w"))
    stats3: dict = {}
    got3 = scan_table_store(
        out, "event_id", lo=10_100, hi=10_200,
        columns=["event_id", "kind"], stats_out=stats3,
    ).to_arrow().to_pandas()
    assert stats3 == _scan_stats(stats3, 3, 0)
    assert sorted(got3["event_id"]) == list(range(10_100, 10_201))


def test_store_like_scan_and_append(ray_session, tmp_path):
    """like_table_store runs the compressed-domain LIKE engines over a
    committed store; appending NEW source fragments is just compress_table
    with resume=True — committed fragments skip untouched, new ones encode
    and join subsequent scans."""
    import os
    import re

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        like_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(9)
    words = ["merge", "sort", "ray", "plasma", "join"]

    def frag(f, n=800):
        texts = [
            "frag%d " % f + " ".join(rng.choice(words, size=rng.integers(2, 8)))
            for _ in range(n)
        ]
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(f * n, (f + 1) * n, dtype=np.int64)),
                "text": pa.array(texts),
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet")
        return texts

    texts = frag(0) + frag(1)
    compress_table(str(src), out)

    rx = re.compile(".*merge.*sort.*", re.S)
    exp = [i for i, v in enumerate(texts) if rx.match(v)]
    got = like_table_store(out, "text", "%merge%sort%", columns=["doc_id"])
    assert sorted(r["doc_id"] for r in got.to_arrow().to_pylist()) == exp

    # append: new fragment only; committed part files keep their mtimes
    part0 = os.path.join(out, "data", "frag={}".format(
        __import__("fsst_like_ray.state.manifest", fromlist=["fragment_key"])
        .fragment_key(str(src / "part-0.parquet"))
    ), "part-000000.parquet")
    mtime0 = os.path.getmtime(part0)
    texts += frag(2)
    st = compress_table(str(src), out)  # resume=True is the default
    assert st["fragments"] == 3
    assert os.path.getmtime(part0) == mtime0  # untouched by the append
    exp = [i for i, v in enumerate(texts) if rx.match(v)]
    got = like_table_store(out, "text", "%merge%sort%", columns=["doc_id"])
    assert sorted(r["doc_id"] for r in got.to_arrow().to_pylist()) == exp


def test_store_trigram_pruned_like(ray_session, tmp_path):
    """Per-fragment trigram blooms in the lineage manifest: a LIKE scan
    skips fragments whose bloom lacks a pattern trigram (no false
    negatives); `_`-patterns give no trigram evidence and scan everything;
    legacy manifests without blooms scan unconditionally."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        like_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(21)
    words = ["merge", "sort", "ray", "plasma"]
    all_texts = []
    for f in range(4):
        texts = [
            " ".join(rng.choice(words, size=rng.integers(2, 8)))
            for _ in range(500)
        ]
        if f == 2:  # only fragment 2 holds the marker
            for i in range(0, 500, 40):
                texts[i] += " xylophone"
        all_texts += texts
        t = pa.table(
            {
                "doc_id": pa.array(
                    np.arange(f * 500, (f + 1) * 500, dtype=np.int64)
                ),
                "text": pa.array(texts),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    compress_table(str(src), out)
    exp = [i for i, v in enumerate(all_texts) if "xylophone" in v]

    stats: dict = {}
    got = like_table_store(
        out, "text", "%xylophone%", columns=["doc_id"], stats_out=stats
    )
    assert stats == _scan_stats(stats, 1, 3)
    assert sorted(r["doc_id"] for r in got.to_arrow().to_pylist()) == exp

    # underscore → no trigram evidence → full scan, same rows
    stats2: dict = {}
    got2 = like_table_store(
        out, "text", "%xyl_phone%", columns=["doc_id"], stats_out=stats2
    )
    assert stats2["fragments_skipped"] == 0
    assert sorted(r["doc_id"] for r in got2.to_arrow().to_pylist()) == exp

    # absent literal → every fragment prunes, schema survives
    stats3: dict = {}
    empty = like_table_store(
        out, "text", "%notanywhere%", columns=["doc_id"], stats_out=stats3
    )
    assert stats3["fragments_skipped"] == 4 and empty.to_arrow().num_rows == 0
    assert empty.to_arrow().schema.names == ["doc_id"]

    # legacy manifests (no trigrams key) scan everything
    mdir = os.path.join(out, "_manifest")
    for f in os.listdir(mdir):
        p = os.path.join(mdir, f)
        r = json.load(open(p))
        r.pop("trigrams")
        json.dump(r, open(p, "w"))
    stats4: dict = {}
    got4 = like_table_store(
        out, "text", "%xylophone%", columns=["doc_id"], stats_out=stats4
    )
    assert stats4["fragments_skipped"] == 0
    assert sorted(r["doc_id"] for r in got4.to_arrow().to_pylist()) == exp


def test_store_predicate_scan_combined_pruning(ray_session, tmp_path):
    """predicate_scan_table_store prunes fragments through EVERY
    predicate's evidence — zone envelopes for ranges, trigram blooms for
    eq/IN/LIKE literals — then runs the in-batch compound scan on the
    survivors."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        predicate_scan_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(31)
    words = ["merge", "sort", "ray"]
    rows = []
    for f in range(4):
        for i in range(300):
            txt = "frag%d " % f + " ".join(rng.choice(words, size=4))
            if f == 1 and i % 25 == 0:
                txt += " needletok"
            rows.append((f * 300 + i, txt, f * 1000 + i))
        t = pa.table(
            {
                "doc_id": pa.array(
                    [r[0] for r in rows[-300:]], type=pa.int64()
                ),
                "text": pa.array([r[1] for r in rows[-300:]]),
                "score": pa.array(
                    [r[2] for r in rows[-300:]], type=pa.int64()
                ),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    compress_table(str(src), out)

    # LIKE evidence keeps only fragment 1; the range already excludes 2-3
    stats: dict = {}
    got = predicate_scan_table_store(
        out,
        [("like", "text", "%needletok%"), ("range", "score", None, 1200)],
        columns=["doc_id"],
        stats_out=stats,
    )
    exp = [r[0] for r in rows if "needletok" in r[1] and r[2] <= 1200]
    assert stats == _scan_stats(stats, 1, 3)
    assert sorted(r["doc_id"] for r in got.to_arrow().to_pylist()) == exp

    # eq / IN literals absent from every bloom prune everything
    for preds in (
        [("eq", "text", "totallyabsentvalue")],
        [("in", "text", ["zzzabsent1", "zzzabsent2"])],
    ):
        s: dict = {}
        empty = predicate_scan_table_store(
            out, preds, columns=["doc_id"], stats_out=s
        )
        assert s["fragments_skipped"] == 4 and empty.to_arrow().num_rows == 0

    # range-only pruning composes with a present literal: zones drop 0-1,
    # bloom keeps all (word appears everywhere), intersection = 2-3
    s2: dict = {}
    got2 = predicate_scan_table_store(
        out,
        [("range", "score", 2000, None), ("like", "text", "%merge%")],
        columns=["doc_id"],
        stats_out=s2,
    )
    exp2 = [r[0] for r in rows if r[2] >= 2000 and "merge" in r[1]]
    assert s2 == _scan_stats(s2, 2, 2)
    assert sorted(r["doc_id"] for r in got2.to_arrow().to_pylist()) == exp2

    with pytest.raises(ValueError):
        predicate_scan_table_store(out, [("between", "score", 1, 2)])


def test_store_parts_write_no_blk_statistics(ray_session, tmp_path):
    """Part files carry no parquet statistics, on their ``__blk`` envelope
    columns (the envelope would be stored again as min/max) or on any
    other column (nothing reads them), and a store written with
    statistics on everywhere reads and prunes exactly like one written
    without."""
    import os
    import shutil

    from fsst_like_ray.pipelines import tablestore

    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(7)
    words = ["merge", "sort", "ray", "scan"]
    for f in range(3):
        txt = [
            "frag%d " % f + " ".join(rng.choice(words, size=3))
            for _ in range(200)
        ]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        range(f * 200, f * 200 + 200), type=pa.int64()
                    ),
                    "text": pa.array(txt),
                    "score": pa.array(
                        rng.integers(f * 1000, f * 1000 + 999, 200),
                        type=pa.int64(),
                    ),
                }
            ),
            src / f"p{f}.parquet",
        )

    def parts(store):
        return sorted(
            os.path.join(d, f)
            for d, _s, fs in os.walk(os.path.join(store, "data"))
            for f in fs
            if f.endswith(".parquet")
        )

    def stats_set(part):
        md = pq.ParquetFile(part).metadata
        out = {}
        for g in range(md.num_row_groups):
            for c in range(md.num_columns):
                col = md.row_group(g).column(c)
                out[col.path_in_schema] = (
                    out.get(col.path_in_schema, False) or col.is_stats_set
                )
        return out

    def queries(store):
        """(matching doc ids, stats_out without the part bytes) a query."""
        got = []
        for scan, args in [
            (tablestore.like_table_store, ("text", p))
            for p in ("%frag1%", "%scan%", "%absentword%")
        ] + [
            (tablestore.scan_table_store, ("score", lo, hi))
            for lo, hi in ((None, 999), (1500, 2500), (5000, None))
        ]:
            st: dict = {}
            t = scan(store, *args, columns=["doc_id"], stats_out=st)
            st.pop("scan_bytes")
            got.append((sorted(t.to_arrow()["doc_id"].to_pylist()), st))
        return got

    plain = str(tmp_path / "plain")
    tablestore.compress_table(str(src), plain)
    for part in parts(plain):
        flags = stats_set(part)
        assert any(c.endswith("__blk") for c in flags), flags
        assert not any(flags.values()), flags

    # the same store with statistics on every column, as part files were
    # written before: each part rewritten row group by row group
    full = str(tmp_path / "full")
    shutil.copytree(plain, full)
    for part in parts(full):
        pf = pq.ParquetFile(part)
        with pq.ParquetWriter(part + ".tmp", pf.schema_arrow) as w:
            for g in range(pf.num_row_groups):
                w.write_table(pf.read_row_group(g))
        os.replace(part + ".tmp", part)
    # (an envelope over parquet's statistics size cap gets none either way)
    assert any(
        v for p in parts(full) for c, v in stats_set(p).items()
        if c.endswith("__blk")
    )
    got = queries(plain)
    assert got == queries(full)
    assert [st["fragments_skipped"] for _ids, st in got] == [2, 0, 3, 2, 1, 3]
    assert sum(os.path.getsize(p) for p in parts(plain)) < sum(
        os.path.getsize(p) for p in parts(full)
    )


def test_store_zone_pruned_topk(ray_session, tmp_path):
    """topk_table_store: fragments process best-bound-first and the scan
    stops when the k-th best beats every remaining zone; legacy records
    (no zones) always scan; asc and desc both oracle-exact."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        topk_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(17)
    all_ids = rng.permutation(6000).astype(np.int64)
    # fragment f covers ids [f*1500, (f+1)*1500) — shuffled inside
    parts = np.sort(all_ids).reshape(4, 1500)
    for f in range(4):
        ids = rng.permutation(parts[f])
        t = pa.table(
            {
                "event_id": pa.array(ids),
                "kind": pa.array(["k%d" % (i % 3) for i in range(1500)]),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    compress_table(str(src), out)

    stats: dict = {}
    top = topk_table_store(
        out, "event_id", 25, descending=True,
        columns=["event_id", "kind"], stats_out=stats,
    )
    assert stats == _scan_stats(stats, 1, 3)
    assert sorted(top["event_id"].to_pylist(), reverse=True) == list(
        range(5999, 5974, -1)
    )
    assert set(top.column_names) == {"event_id", "kind"}

    stats2: dict = {}
    bot = topk_table_store(
        out, "event_id", 10, descending=False,
        columns=["event_id"], stats_out=stats2,
    )
    assert stats2 == _scan_stats(stats2, 1, 3)
    assert sorted(bot["event_id"].to_pylist()) == list(range(10))

    # k larger than one fragment: a second fragment must scan
    stats3: dict = {}
    top3 = topk_table_store(
        out, "event_id", 2000, descending=True,
        columns=["event_id"], stats_out=stats3,
    )
    assert stats3["fragments_scanned"] == 2
    assert sorted(top3["event_id"].to_pylist()) == list(range(4000, 6000))

    # legacy manifests (no zones) scan every fragment, same result
    mdir = os.path.join(out, "_manifest")
    for f in os.listdir(mdir):
        p = os.path.join(mdir, f)
        r = json.load(open(p))
        r.pop("zones")
        json.dump(r, open(p, "w"))
    stats4: dict = {}
    top4 = topk_table_store(
        out, "event_id", 25, descending=True,
        columns=["event_id"], stats_out=stats4,
    )
    assert stats4 == _scan_stats(stats4, 4, 0)
    assert sorted(top4["event_id"].to_pylist()) == list(range(5975, 6000))


def test_store_metadata_count(ray_session, tmp_path):
    """count_table_store: no-predicate counts and fully-covered fragments
    answer from the manifest alone; boundary fragments count mask bits;
    fragments with nulls in the counted column never take the metadata
    path (NULLs don't satisfy a range predicate)."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        count_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n = 1000
    for f in range(3):
        vals = list(range(f * n, (f + 1) * n))
        if f == 1:  # fragment 1 gets nulls → must scan even when covered
            vals = [None if i % 10 == 0 else v for i, v in enumerate(vals)]
        t = pa.table(
            {
                "event_id": pa.array(vals, type=pa.int64()),
                "kind": pa.array(["k"] * n),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    compress_table(str(src), out)

    s0: dict = {}
    assert count_table_store(out, stats_out=s0) == 3 * n
    assert s0 == {
        "fragments_meta": 3, "fragments_scanned": 0, "fragments_skipped": 0
    }

    # covers all of fragment 0 (meta), all of 1 (scan: nulls), none of 2
    s1: dict = {}
    got = count_table_store(out, "event_id", lo=0, hi=2 * n - 1, stats_out=s1)
    assert s1 == {
        "fragments_meta": 1, "fragments_scanned": 1, "fragments_skipped": 1,
        "executor": "driver", "scan_bytes": s1["scan_bytes"],
        "payload_skipped": ["event_id"],
    }
    assert got == n + sum(1 for i in range(n) if i % 10)

    # boundary cut through fragment 0. Fragment 1 also scans: its nulls
    # were zone-mapped as fill-0, widening its envelope to [0, 2n-1] —
    # conservative, and its valid-masked scan contributes 0. Fragment 2
    # is genuinely disjoint and skips.
    s2: dict = {}
    got2 = count_table_store(out, "event_id", lo=100, hi=199, stats_out=s2)
    assert got2 == 100 and s2["fragments_meta"] == 0
    assert s2["fragments_scanned"] == 2 and s2["fragments_skipped"] == 1


def test_cluster_table_store(ray_session, tmp_path):
    """cluster_table_store: unsorted input → disjoint fragment zones →
    scans open ~1 fragment; the sorted intermediate sits behind a
    _SUCCESS marker so an encode-phase kill resumes against identical
    files instead of re-sorting under a committed manifest."""
    import os

    from fsst_like_ray.pipelines.tablestore import (
        cluster_table_store,
        count_table_store,
        scan_table_store,
    )
    from fsst_like_ray.state.manifest import Manifest

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(23)
    ids = rng.permutation(9000).astype(np.int64)
    for f in range(3):
        t = pa.table(
            {
                "event_id": pa.array(ids[f * 3000 : (f + 1) * 3000]),
                "kind": pa.array(["k%d" % (i % 4) for i in range(3000)]),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    st = cluster_table_store(str(src), out, "event_id")
    assert st["rows"] == 9000 and st["fragments"] >= 3

    stats: dict = {}
    got = scan_table_store(
        out, "event_id", lo=100, hi=300, columns=["event_id"],
        stats_out=stats,
    ).to_arrow().to_pandas()
    assert sorted(got["event_id"]) == list(range(100, 301))
    assert stats["fragments_skipped"] > stats["fragments_scanned"]
    assert count_table_store(out) == 9000

    # encode-phase kill: drop one manifest record; the re-run must NOT
    # re-sort (marker present) and must restore the fragment bit-exactly
    marker = os.path.join(out, "_sorted", "_SUCCESS")
    assert os.path.exists(marker)
    sorted_mtime = max(
        os.path.getmtime(os.path.join(out, "_sorted", f))
        for f in os.listdir(os.path.join(out, "_sorted"))
        if f.endswith(".parquet")
    )
    mdir = os.path.join(out, "_manifest")
    victim = sorted(os.listdir(mdir))[0]
    os.remove(os.path.join(mdir, victim))
    st2 = cluster_table_store(str(src), out, "event_id")
    assert st2["rows"] == 9000 and st2["fragments"] == st["fragments"]
    assert max(
        os.path.getmtime(os.path.join(out, "_sorted", f))
        for f in os.listdir(os.path.join(out, "_sorted"))
        if f.endswith(".parquet")
    ) == sorted_mtime  # no re-sort happened
    got2 = scan_table_store(
        out, "event_id", lo=100, hi=300, columns=["event_id"]
    ).to_arrow().to_pandas()
    assert sorted(got2["event_id"]) == list(range(100, 301))
    assert len(Manifest(out).completed()) == st["fragments"]


def test_table_store_resume(ray_session, tmp_path):
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        read_table_store,
        verify_table_store,
    )
    from fsst_like_ray.state.manifest import fragment_key

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(4)
    n = 2000
    for f in range(3):
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(f * n, (f + 1) * n, dtype=np.int64)),
                "text": pa.array(
                    ["fragment %d row %06d lorem ipsum" % (f, i) for i in range(n)]
                ),
                "source": pa.array(rng.choice(["web", "books"], n)),
                "score": pa.array(rng.random(n)),
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet", row_group_size=700)

    stats = compress_table(str(src), out, batch_rows=900)
    assert stats["fragments"] == 3 and stats["rows"] == 3 * n
    v = verify_table_store(str(src), out)
    assert v == {"fragments": 3, "rows": 3 * n, "uncommitted": 0, "ok": True}
    assert read_table_store(out).count() == 3 * n
    pruned = read_table_store(out, columns=["doc_id", "source"])
    assert pruned.schema().names == ["doc_id", "source"]
    assert pruned.count() == 3 * n

    # kill-resume contract: an uncommitted fragment (no manifest record,
    # partial data) is rewritten; committed fragments are never touched
    frag1 = str(src / "part-1.parquet")
    key1 = fragment_key(frag1)
    os.remove(f"{out}/_manifest/{key1}.json")
    part1 = f"{out}/data/frag={key1}/part-000000.parquet"
    with open(part1, "wb") as fh:
        fh.write(b"partial garbage")  # simulate a mid-write kill
    others = [
        f"{out}/data/frag={fragment_key(str(src / f'part-{i}.parquet'))}/part-000000.parquet"
        for i in (0, 2)
    ]
    # an uncommitted fragment makes verify honest-fail (never vacuous ok),
    # and the committed-only read path never serves the partial
    v_partial = verify_table_store(str(src), out)
    assert v_partial["uncommitted"] == 1 and not v_partial["ok"]
    assert read_table_store(out).count() == 2 * n
    mtimes = [os.path.getmtime(p) for p in others]
    compress_table(str(src), out, batch_rows=900)
    assert [os.path.getmtime(p) for p in others] == mtimes
    assert verify_table_store(str(src), out)["ok"]

    # lineage record carries per-column scheme + byte accounting
    rec = json.load(open(f"{out}/_manifest/{key1}.json"))
    assert set(rec["columns"]) == {"doc_id", "text", "source", "score"}
    assert rec["encoded_bytes"] < rec["plain_bytes"]

    # spec mode: sample-trained choices, still bit-exact per fragment
    out2 = str(tmp_path / "out_spec")
    stats2 = compress_table(str(src), out2, batch_rows=900, spec_sample_rows=256)
    assert stats2["rows"] == 3 * n
    assert verify_table_store(str(src), out2)["ok"]

    # transcode WITHOUT the source: auto store -> spec store, self-verified
    # bit-exact against the decoded src partitions + lineage row counts
    from fsst_like_ray.pipelines.columnar import train_columnar_spec
    from fsst_like_ray.pipelines.tablestore import transcode_table_store

    from fsst_like_ray.state.manifest import Manifest

    spec = train_columnar_spec(pq.read_table(str(src / "part-0.parquet")).slice(0, 200))
    out3 = str(tmp_path / "out_tc")
    st3 = transcode_table_store(out, out3, spec=spec, batch_rows=900)
    assert st3["fragments"] == 3
    # the transcoded store decodes identically to the original source
    assert verify_table_store(str(src), out3)["ok"]

    def part_mtimes():
        return sorted(
            os.path.getmtime(f"{out3}/data/frag={r['frag_key']}/part-000000.parquet")
            for r in Manifest(out3).completed().values()
        )

    # resume: a second transcode run is a no-op on committed fragments
    m3 = part_mtimes()
    transcode_table_store(out, out3, spec=spec, batch_rows=900)
    assert part_mtimes() == m3


from hypothesis import given, settings, strategies as st


@st.composite
def _random_table(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    opt = lambda s: st.one_of(st.none(), s)
    i64 = draw(st.lists(opt(st.integers(-(2**63), 2**63 - 1)), min_size=n, max_size=n))
    f64 = draw(
        st.lists(
            # nulls excluded: float columns assert bit-exactness via views
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=n,
            max_size=n,
        )
    )
    txt = draw(st.lists(opt(st.text(max_size=25)), min_size=n, max_size=n))
    lst = draw(
        st.lists(
            opt(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=12)),
            min_size=n,
            max_size=n,
        )
    )
    return pa.table(
        {
            "i": pa.array(i64, type=pa.int64()),
            "f": pa.array(f64, type=pa.float64()),
            "s": pa.array(txt, type=pa.string()),
            "l": pa.array(lst, type=pa.list_(pa.int32())),
        }
    )


@given(t=_random_table())
@settings(max_examples=40, deadline=None)
def test_roundtrip_hypothesis(t):
    """Random schemas/values (full int64 range, NaN/inf floats, unicode
    strings, ragged nullable lists, empty tables) round-trip bit-exactly,
    whole and re-sliced."""
    from fsst_like_ray.pipelines.columnar import assert_bit_equal

    enc = encode_columns_batch(t)
    dec = decode_columns_batch(enc)
    assert_bit_equal(t, dec)
    # null equality separately (assert_bit_equal's float path forbids nulls,
    # so the composite draws none; validity is still exercised on s/l)
    for c in ("s", "l"):
        assert t[c].null_count == dec[c].combine_chunks().null_count
    if t.num_rows > 3:
        sl = enc.slice(1, t.num_rows - 2)
        assert_bit_equal(t.slice(1, t.num_rows - 2), decode_columns_batch(sl))


def test_table_store_multipart_skew(ray_session, tmp_path):
    """A fragment with many row groups must split into MULTIPLE parallel
    part files (the skew answer), and every downstream path — ordered
    read, per-part verify, pruned read, transcode — must handle the
    multi-part layout."""
    from fsst_like_ray.pipelines.tablestore import (
        _fragment_parts,
        compress_table,
        read_table_store,
        transcode_table_store,
        verify_table_store,
    )
    from fsst_like_ray.state.manifest import fragment_key

    src = tmp_path / "src"
    src.mkdir()
    n = 3000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["doc %05d body" % i for i in range(n)]),
        }
    )
    # 30 row groups; spec target = 8*batch_rows = 800 rows -> ~4 specs
    pq.write_table(t, src / "big.parquet", row_group_size=100)
    out = str(tmp_path / "out")
    stats = compress_table(str(src), out, batch_rows=100)
    assert stats == {**stats, "fragments": 1, "rows": n}
    parts = _fragment_parts(
        f"{out}/data", fragment_key(str(src / "big.parquet"))
    )
    assert len(parts) > 1, "multi-row-group fragment did not split"
    # per-part verify and ordered read
    v = verify_table_store(str(src), out)
    assert v["ok"] and v["rows"] == n
    got = pa.concat_tables(
        read_table_store(out).iter_batches(batch_format="pyarrow")
    ).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == list(range(n))
    # transcode preserves the multi-part layout 1:1 and stays bit-exact
    out2 = str(tmp_path / "out2")
    transcode_table_store(out, out2, batch_rows=100)
    parts2 = _fragment_parts(
        f"{out2}/data", fragment_key(str(src / "big.parquet"))
    )
    assert [p.split("/")[-1] for p in parts2] == [
        p.split("/")[-1] for p in parts
    ]
    assert verify_table_store(str(src), out2)["ok"]


def test_table_store_detects_corruption(ray_session, tmp_path):
    """A committed fragment whose decoded content drifts from the source
    (here: the store silently serving a DIFFERENT row) must fail
    verify_table_store loudly, not hash-wave through."""
    from fsst_like_ray.pipelines.tablestore import compress_table, verify_table_store
    from fsst_like_ray.state.manifest import fragment_key

    src = tmp_path / "src"
    src.mkdir()
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(500, dtype=np.int64)),
            "text": pa.array(["row %d payload" % i for i in range(500)]),
        }
    )
    pq.write_table(t, src / "part-0.parquet")
    out = str(tmp_path / "out")
    compress_table(str(src), out)
    assert verify_table_store(str(src), out)["ok"]

    # swap the committed part for an encode of ALTERED data
    from fsst_like_ray.pipelines.columnar import encode_columns_batch

    bad = t.set_column(1, "text", pa.array(
        ["row %d payload" % i for i in range(499)] + ["TAMPERED"]
    ))
    key = fragment_key(str(src / "part-0.parquet"))
    pq.write_table(
        encode_columns_batch(bad), f"{out}/data/frag={key}/part-000000.parquet"
    )
    with pytest.raises(Exception, match="mismatch"):
        verify_table_store(str(src), out)


def test_compress_table_fails_on_unreadable_footer(
    ray_session, tmp_path, monkeypatch
):
    """An input whose parquet footer cannot be read fails compress_table
    at planning, naming the file — before any Ray task is scheduled and
    with no manifest record committed."""
    import ray.data

    from fsst_like_ray.pipelines.tablestore import compress_table
    from fsst_like_ray.state.manifest import Manifest

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(
        pa.table({"id": pa.array(np.arange(10, dtype=np.int64))}),
        src / "good.parquet",
    )
    bad = src / "garbage.parquet"
    bad.write_bytes(b"this is not a parquet file")

    def no_tasks(*a, **k):
        raise AssertionError("a Ray task was scheduled")

    monkeypatch.setattr(ray.data, "range", no_tasks)
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        compress_table(str(src), out)
    assert Manifest(out).completed() == {}


@st.composite
def _scan_table(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    ints = draw(
        st.lists(
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            min_size=n,
            max_size=n,
        )
    )
    strs = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["a", "bb", "ccc", "", "ddd"])),
            min_size=n,
            max_size=n,
        )
    )
    lo = draw(st.integers(-(2**40), 2**40))
    hi = draw(st.integers(-(2**40), 2**40))
    needle = draw(st.sampled_from(["a", "bb", "zz", ""]))
    return ints, strs, min(lo, hi), max(lo, hi), needle


@given(args=_scan_table())
@settings(max_examples=40, deadline=None)
def test_scans_match_bruteforce_hypothesis(args):
    """eq_scan / range_scan / agg_scan against brute-force references on
    random nullable tables, whole and re-sliced."""
    from fsst_like_ray.pipelines.columnar import (
        agg_scan_batch,
        eq_scan_batch,
        range_scan_batch,
    )

    ints, strs, lo, hi, needle = args
    t = pa.table(
        {
            "i": pa.array(ints, type=pa.int64()),
            "s": pa.array(strs, type=pa.string()),
            "rid": pa.array(np.arange(len(ints)), type=pa.int32()),
        }
    )
    for enc in (
        encode_columns_batch(t),
        encode_columns_batch(t).slice(1) if len(ints) > 1 else None,
    ):
        if enc is None:
            continue
        base = t if enc.num_rows == t.num_rows else t.slice(1)
        exp_rng = [
            r["rid"]
            for r in base.to_pylist()
            if r["i"] is not None and lo <= r["i"] <= hi
        ]
        got = range_scan_batch(enc, "i", lo=lo, hi=hi, out_columns=["rid"])
        assert got["rid"].to_pylist() == exp_rng

        exp_eq = [r["rid"] for r in base.to_pylist() if r["s"] == needle]
        got_eq = eq_scan_batch(enc, "s", needle, out_columns=["rid"])
        assert got_eq["rid"].to_pylist() == exp_eq

        vals = [r["i"] for r in base.to_pylist() if r["i"] is not None]
        a = agg_scan_batch(enc, "i").to_pylist()[0]
        assert a["cnt"] == len(vals)
        if vals:
            assert a["vmin"] == min(vals) and a["vmax"] == max(vals)
            assert int(a["vsum"]) == sum(vals)

        # LIKE, IN, and the compound predicate against the same oracle set
        from fsst_like_ray.pipelines.columnar import (
            in_scan_mask,
            like_scan_batch,
            predicate_scan_batch,
        )

        pat = f"%{needle}%" if needle else "%"
        exp_like = [
            r["rid"]
            for r in base.to_pylist()
            if r["s"] is not None and needle in r["s"]
        ]
        got_like = like_scan_batch(enc, "s", pat, out_columns=["rid"])
        assert got_like["rid"].to_pylist() == exp_like

        inset = {needle, "bb"}
        m_in = in_scan_mask(enc, "s", sorted(inset))
        exp_in = np.array([r["s"] in inset for r in base.to_pylist()])
        assert (m_in == exp_in).all()

        got_pred = predicate_scan_batch(
            enc,
            [("range", "i", lo, hi), ("like", "s", pat)],
            out_columns=["rid"],
        )
        exp_pred = [
            r["rid"]
            for r in base.to_pylist()
            if r["i"] is not None
            and lo <= r["i"] <= hi
            and r["s"] is not None
            and needle in r["s"]
        ]
        assert got_pred["rid"].to_pylist() == exp_pred


def test_dataset_level_roundtrip(ray_session):
    import ray.data

    from fsst_like_ray.pipelines.columnar import (
        decode_columns_dataset,
        encode_columns_dataset,
    )

    t = _wide_table(n=800, null_frac=0.05)
    ds = ray.data.from_arrow(t).repartition(4)
    dec = decode_columns_dataset(encode_columns_dataset(ds))
    got = pa.concat_tables(dec.iter_batches(batch_format="pyarrow"))
    got = got.sort_by("doc_id").combine_chunks()
    exp = t.sort_by("doc_id").combine_chunks()
    _assert_tables_equal(exp, got)


def test_group_agg_batch():
    import fsst_like_ray.pipelines.columnar as C

    rng = np.random.default_rng(7)
    n = 3000
    grp = [
        None if i % 13 == 0 else s
        for i, s in enumerate(rng.choice(["web", "books", "code"], n))
    ]
    val = [
        None if i % 7 == 0 else int(v)
        for i, v in enumerate(rng.integers(-(10**12), 10**12, n))
    ]
    t = pa.table(
        {
            "g": pa.array(grp, type=pa.string()),
            "x": pa.array(val, type=pa.int64()),
            "text": pa.array(["unique doc %06d body" % i for i in range(n)]),
        }
    )
    enc = C.encode_columns_batch(t)

    def ref(rows):
        exp: dict = {}
        for g, v in rows:
            if g is None:
                continue
            a = exp.setdefault(g, [0, 0, 0, None, None])
            a[0] += 1
            if v is not None:
                a[1] += 1
                a[2] += v
                a[3] = v if a[3] is None else min(a[3], v)
                a[4] = v if a[4] is None else max(a[4], v)
        return exp

    def fold(part):
        got: dict = {}
        for r in part.to_pylist():
            a = got.setdefault(r["value"].decode(), [0, 0, 0, None, None])
            a[0] += r["n_rows"]
            a[1] += r["n_vals"]
            a[2] += int(r["vsum"])
            if r["vmin"] is not None:
                a[3] = r["vmin"] if a[3] is None else min(a[3], r["vmin"])
                a[4] = r["vmax"] if a[4] is None else max(a[4], r["vmax"])
        return got

    assert fold(C.group_agg_batch(enc, "g", "x")) == ref(zip(grp, val))
    # partial-block slice: rowidx selection on both columns
    assert fold(C.group_agg_batch(enc.slice(13, 700), "g", "x")) == ref(
        zip(grp[13:713], val[13:713])
    )
    # fsstb group fallback (unique text column): every group is one row
    per_row = C.group_agg_batch(enc, "text", "x").to_pylist()
    assert len(per_row) == n
    by_key = {r["value"].decode(): r for r in per_row}
    for i in (1, 2, 500):
        r = by_key["unique doc %06d body" % i]
        assert r["n_rows"] == 1
        assert (int(r["vsum"]) if val[i] is not None else 0) == (val[i] or 0)
    # count-only (no aggregate column) matches group_count
    only = C.group_agg_batch(enc, "g")
    cc = {
        r["value"]: r["n"] for r in C.group_count_batch(enc, "g").to_pylist()
    }
    assert {
        r["value"]: r["n_rows"] for r in only.to_pylist()
    } == cc
    assert all(r["vmin"] is None for r in only.to_pylist())
    # int group columns key on their logical values (ivalue partials)
    gi2 = C.group_agg_batch(enc, "x")
    assert set(gi2.column_names) >= {"ivalue", "n_rows"}
    assert sorted(gi2["ivalue"].to_pylist()) == sorted(
        {v for v in val if v is not None}
    )
    with pytest.raises(TypeError):
        C.group_agg_batch(enc, "g", "text")  # string aggregate column
    with pytest.raises(TypeError):
        C.group_agg_batch(enc, "g", bucket=7)  # bucket needs int keys


def test_distinct_scan_batch():
    import fsst_like_ray.pipelines.columnar as C

    rng = np.random.default_rng(8)
    n = 2500
    grp = [None if i % 11 == 0 else s for i, s in enumerate(rng.choice(["a", "b", "c", "d"], n))]
    iv = [None if i % 5 == 0 else int(v) for i, v in enumerate(rng.integers(0, 40, n))]
    t = pa.table(
        {
            "g": pa.array(grp, type=pa.string()),
            "x": pa.array(iv, type=pa.int64()),
        }
    )
    enc = C.encode_columns_batch(t)
    got_s = sorted(
        v.decode() for v in C.distinct_scan_batch(enc, "g")["value"].to_pylist()
    )
    assert got_s == sorted({g for g in grp if g is not None})
    got_i = C.distinct_scan_batch(enc, "x")["ivalue"].to_pylist()
    assert sorted(got_i) == sorted({v for v in iv if v is not None})
    # a slice must not surface dictionary entries its rows never reference
    sl = C.distinct_scan_batch(enc.slice(0, 12), "g")["value"].to_pylist()
    assert sorted(v.decode() for v in sl) == sorted(
        {g for g in grp[:12] if g is not None}
    )


def test_store_group_agg_distinct(ray_session, tmp_path):
    import pandas as pd

    from fsst_like_ray.pipelines.tablestore import (
        agg_table_store,
        compress_table,
        distinct_table_store,
        group_agg_table_store,
    )

    rng = np.random.default_rng(9)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    grp = [None if i % 17 == 0 else s for i, s in enumerate(rng.choice(["web", "books", "code"], n))]
    val = [
        None if i % 6 == 0 else int(v)
        for i, v in enumerate(rng.integers(-(10**9), 10**9, n))
    ]
    t = pa.table(
        {
            "id": pa.array(ids),
            "g": pa.array(grp, type=pa.string()),
            "x": pa.array(val, type=pa.int64()),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        part = t.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, frag / f"f{i}.parquet")
    store = str(tmp_path / "store")
    compress_table(str(frag), store)

    # null-free id column: min/max/count answer WITHOUT opening any file
    stats: dict = {}
    a = agg_table_store(store, "id", ops=("min", "max", "count"), stats_out=stats)
    assert a == {"min": 0, "max": n - 1, "count": n}
    assert stats == {"fragments_meta": 4, "fragments_scanned": 0}
    # nulled x column: every fragment holds nulls, so min/max/count SCAN —
    # and the encode-time 0 fill must not leak into min/max
    stats = {}
    ax = agg_table_store(store, "x", stats_out=stats)
    xs = [v for v in val if v is not None]
    assert ax == {
        "min": min(xs), "max": max(xs), "sum": sum(xs), "count": len(xs)
    }
    assert stats["fragments_scanned"] == 4

    g = group_agg_table_store(store, "g", "x")
    df = pd.DataFrame({"g": grp, "x": pd.array(val, dtype="Int64")})
    df = df[df["g"].notna()]
    ref = df.groupby("g").agg(
        n_rows=("x", "size"), n_sum=("x", "sum"),
        n_min=("x", "min"), n_max=("x", "max"),
    ).sort_index()
    assert g["value"].to_pylist() == list(ref.index)
    assert g["n_rows"].to_pylist() == ref["n_rows"].tolist()
    assert g["vsum"].to_pylist() == [int(v) for v in ref["n_sum"]]
    assert g["vmin"].to_pylist() == [int(v) for v in ref["n_min"]]
    assert g["vmax"].to_pylist() == [int(v) for v in ref["n_max"]]

    d = distinct_table_store(store, "g")
    assert d["value"].to_pylist() == sorted({v for v in grp if v is not None})
    di = distinct_table_store(store, "x")
    assert di["value"].to_pylist() == sorted({v for v in val if v is not None})


def test_store_group_agg_where(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    rng = np.random.default_rng(10)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    grp = rng.choice(["web", "books", "code"], n).tolist()
    val = rng.integers(0, 1000, n).tolist()
    txt = [
        ("needle row %d" % i) if i % 3 == 0 else ("plain row %d" % i)
        for i in range(n)
    ]
    t = pa.table(
        {
            "id": pa.array(ids),
            "g": pa.array(grp, type=pa.string()),
            "x": pa.array(val, type=pa.int64()),
            "s": pa.array(txt, type=pa.string()),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    store = str(tmp_path / "store")
    compress_table(str(frag), store)

    stats: dict = {}
    got = group_agg_table_store(
        store, "g", "x",
        preds=[("range", "id", 0, n // 4 - 1), ("like", "s", "%needle%")],
        stats_out=stats,
    )
    # the id range covers exactly the first of four fragments
    assert stats["fragments_skipped"] >= 2
    exp: dict = {}
    for i in range(n // 4):
        if i % 3 == 0:
            a = exp.setdefault(grp[i], [0, 0, None, None])
            a[0] += 1
            a[1] += val[i]
            a[2] = val[i] if a[2] is None else min(a[2], val[i])
            a[3] = val[i] if a[3] is None else max(a[3], val[i])
    assert got["value"].to_pylist() == sorted(exp)
    for row in got.to_pylist():
        e = exp[row["value"]]
        assert (row["n_rows"], row["vsum"], row["vmin"], row["vmax"]) == (
            e[0], e[1], e[2], e[3],
        )
    # a disjoint range prunes EVERY fragment: empty result, no crash
    stats = {}
    empty = group_agg_table_store(
        store, "g", "x", preds=[("range", "id", n * 10, n * 20)],
        stats_out=stats,
    )
    assert stats["fragments_skipped"] == 4 and empty.num_rows == 0


def test_store_group_agg_int_keys(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    rng = np.random.default_rng(12)
    n = 3000
    uid = [None if i % 19 == 0 else int(u) for i, u in enumerate(rng.integers(0, 12, n))]
    val = [None if i % 7 == 0 else int(v) for i, v in enumerate(rng.integers(-500, 500, n))]
    ts = rng.integers(1_700_000_000_000_000, 1_700_000_000_000_000 + 10 * 86_400_000_000, n)
    t = pa.table(
        {
            "uid": pa.array(uid, type=pa.int64()),
            "x": pa.array(val, type=pa.int64()),
            "ts": pa.array(ts, type=pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    # int-keyed GROUP BY: null keys drop, null aggregates skip
    g = group_agg_table_store(store, "uid", "x")
    exp: dict = {}
    for u, v in zip(uid, val):
        if u is None:
            continue
        a = exp.setdefault(u, [0, 0, 0, None, None])
        a[0] += 1
        if v is not None:
            a[1] += 1
            a[2] += v
            a[3] = v if a[3] is None else min(a[3], v)
            a[4] = v if a[4] is None else max(a[4], v)
    assert g["value"].to_pylist() == sorted(exp)
    for row in g.to_pylist():
        e = exp[row["value"]]
        assert (row["n_rows"], row["vsum"], row["vmin"], row["vmax"]) == (
            e[0], e[2], e[3], e[4],
        )

    # day-bucketed rollup over the raw int64 "timestamp"
    day = 86_400_000_000
    gb = group_agg_table_store(store, "ts", ops=("count",), bucket=day)
    expb: dict = {}
    for v in ts:
        expb[int(v) // day * day] = expb.get(int(v) // day * day, 0) + 1
    assert gb["value"].to_pylist() == sorted(expb)
    assert gb["n_rows"].to_pylist() == [expb[k] for k in sorted(expb)]

    # bucketing a string column is a loud error
    s = pa.table({"s": pa.array(["a", "b"])})
    pq.write_table(s, tmp_path / "s.parquet")
    store2 = str(tmp_path / "store2")
    compress_table(str(tmp_path / "s.parquet"), store2)
    # surfaces through Ray as a wrapped task error — match the message
    with pytest.raises(Exception, match="not integer-kind"):
        group_agg_table_store(store2, "s", bucket=10)


def test_group_agg_distributed_fold(ray_session, tmp_path):
    import ray.data

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    rng = np.random.default_rng(13)
    n = 3000
    # high-cardinality string keys AND int keys, nulls in the aggregate
    skey = ["k%04d" % (i % 997) for i in range(n)]
    ikey = rng.integers(0, 1500, n)
    val = [None if i % 9 == 0 else int(v) for i, v in enumerate(rng.integers(-100, 100, n))]
    t = pa.table(
        {
            "sk": pa.array(skey),
            "ik": pa.array(ikey, type=pa.int64()),
            "x": pa.array(val, type=pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    for key in ("sk", "ik"):
        driver = group_agg_table_store(store, key, "x")
        ds = group_agg_table_store(store, key, "x", distributed=True)
        assert isinstance(ds, ray.data.Dataset)
        got = pa.concat_tables(
            b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows
        ).sort_by("value")
        assert got.select(driver.column_names).to_pydict() == driver.to_pydict()


def test_store_float_agg(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        agg_table_store,
        compress_table,
    )

    rng = np.random.default_rng(14)
    n = 3000
    f64 = [None if i % 8 == 0 else float(v) for i, v in enumerate(rng.normal(0, 1e6, n))]
    f32 = np.asarray(rng.normal(0, 10, n), dtype=np.float32)
    t = pa.table(
        {
            "a": pa.array(f64, type=pa.float64()),
            "b": pa.array(f32, type=pa.float32()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    a = agg_table_store(store, "a")
    xs = np.array([v for v in f64 if v is not None])
    assert a["min"] == xs.min() and a["max"] == xs.max()  # bit-exact
    assert a["count"] == len(xs)
    assert abs(a["sum"] - xs.sum()) <= 1e-9 * abs(xs.sum())
    # float32 widens losslessly to float64
    b = agg_table_store(store, "b")
    assert b["min"] == float(f32.min()) and b["max"] == float(f32.max())
    # count-only on a float column stays metadata-only
    stats: dict = {}
    c = agg_table_store(store, "a", ops=("count",), stats_out=stats)
    assert c == {"count": len(xs)} and stats["fragments_scanned"] == 0


def test_store_group_agg_float_values(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    rng = np.random.default_rng(15)
    n = 2500
    grp = rng.choice(["a", "b", "c"], n).tolist()
    val = [None if i % 6 == 0 else float(v) for i, v in enumerate(rng.normal(0, 100, n))]
    t = pa.table(
        {
            "g": pa.array(grp),
            "v": pa.array(val, type=pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    got = group_agg_table_store(store, "g", "v")
    exp: dict = {}
    for g, v in zip(grp, val):
        a = exp.setdefault(g, [0, 0.0, None, None])
        a[0] += 1
        if v is not None:
            a[1] += v
            a[2] = v if a[2] is None else min(a[2], v)
            a[3] = v if a[3] is None else max(a[3], v)
    assert got["value"].to_pylist() == sorted(exp)
    assert got.schema.field("vsum").type == pa.float64()
    for row in got.to_pylist():
        e = exp[row["value"]]
        assert row["n_rows"] == e[0]
        assert abs(row["vsum"] - e[1]) <= 1e-9 * max(abs(e[1]), 1.0)
        assert row["vmin"] == e[2] and row["vmax"] == e[3]  # bit-exact
    # distributed fold agrees
    ds = group_agg_table_store(store, "g", "v", distributed=True)
    dd = pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows
    ).sort_by("value")
    assert dd["vmin"].to_pylist() == got["vmin"].to_pylist()
    assert dd["vmax"].to_pylist() == got["vmax"].to_pylist()
    assert all(
        abs(x - y) <= 1e-9 * max(abs(y), 1.0)
        for x, y in zip(dd["vsum"].to_pylist(), got["vsum"].to_pylist())
    )


def test_distinct_distributed_fold(ray_session, tmp_path):
    import ray.data

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        distinct_table_store,
    )

    rng = np.random.default_rng(16)
    n = 2000
    sk = ["v%04d" % (i % 733) for i in range(n)]
    ik = [None if i % 10 == 0 else int(v) for i, v in enumerate(rng.integers(0, 900, n))]
    t = pa.table({"sk": pa.array(sk), "ik": pa.array(ik, type=pa.int64())})
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)
    for col in ("sk", "ik"):
        driver = distinct_table_store(store, col)
        ds = distinct_table_store(store, col, distributed=True)
        assert isinstance(ds, ray.data.Dataset)
        got = sorted(
            v
            for b in ds.iter_batches(batch_format="pyarrow")
            for v in b["value"].to_pylist()
        )
        assert got == driver["value"].to_pylist()


def test_store_hash_sample(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        sample_table_store,
    )

    n = 5000
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array(["row %d" % i for i in range(n)]),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    def ref_ids(rate, seed):
        h = ((np.arange(n, dtype=np.uint64) + np.uint64(seed))
             * np.uint64(2654435761)) % np.uint64(1 << 32)
        return set(np.flatnonzero(h < np.uint64(rate * (1 << 32))).tolist())

    got = pa.concat_tables(
        b
        for b in sample_table_store(store, "id", 0.3, seed=5).iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    )
    ids = set(got["id"].to_pylist())
    assert ids == ref_ids(0.3, 5)
    # rough rate sanity and determinism across runs
    assert 0.25 * n < len(ids) < 0.35 * n
    again = set(
        v
        for b in sample_table_store(
            store, "id", 0.3, seed=5, columns=["id"]
        ).iter_batches(batch_format="pyarrow")
        for v in b["id"].to_pylist()
    )
    assert again == ids
    # different seed, different (deterministic) sample
    other = set(
        v
        for b in sample_table_store(
            store, "id", 0.3, seed=6, columns=["id"]
        ).iter_batches(batch_format="pyarrow")
        for v in b["id"].to_pylist()
    )
    assert other == ref_ids(0.3, 6) and other != ids
    # rate 0 and 1 are exact
    assert sample_table_store(store, "id", 0.0).to_arrow().num_rows == 0
    assert sample_table_store(store, "id", 1.0).to_arrow().num_rows == n


def test_store_group_multi_agg(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    rng = np.random.default_rng(17)
    n = 3000
    grp = rng.choice(["x", "y", "z"], n).tolist()
    a = [None if i % 5 == 0 else int(v) for i, v in enumerate(rng.integers(-1000, 1000, n))]
    f = rng.normal(0, 10, n)
    t = pa.table(
        {
            "g": pa.array(grp),
            "a": pa.array(a, type=pa.int64()),
            "f": pa.array(f, type=pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    got = group_agg_table_store(
        store, "g",
        aggs={"a": ("sum", "min", "max", "count"), "f": ("sum", "min")},
    )
    import pandas as pd

    df = pd.DataFrame({"g": grp, "a": pd.array(a, dtype="Int64"), "f": f})
    ref = df.groupby("g").agg(
        n_rows=("g", "size"),
        sum_a=("a", "sum"), min_a=("a", "min"), max_a=("a", "max"),
        count_a=("a", "count"), sum_f=("f", "sum"), min_f=("f", "min"),
    ).sort_index()
    assert got["value"].to_pylist() == list(ref.index)
    assert got["n_rows"].to_pylist() == ref["n_rows"].tolist()
    assert got["sum_a"].to_pylist() == [int(v) for v in ref["sum_a"]]
    assert got["min_a"].to_pylist() == [int(v) for v in ref["min_a"]]
    assert got["max_a"].to_pylist() == [int(v) for v in ref["max_a"]]
    assert got["count_a"].to_pylist() == [int(v) for v in ref["count_a"]]
    assert got["min_f"].to_pylist() == ref["min_f"].tolist()  # bit-exact
    assert all(
        abs(x - y) <= 1e-9 * max(abs(y), 1.0)
        for x, y in zip(got["sum_f"].to_pylist(), ref["sum_f"])
    )
    # exclusivity guard
    with pytest.raises(ValueError):
        group_agg_table_store(store, "g", "a", aggs={"a": ("sum",)})


def test_filter_table_store(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        filter_table_store,
        read_table_store,
        store_lineage_rollup,
    )

    rng = np.random.default_rng(18)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    txt = [
        ("drop-me row %d" % i) if (n // 2 <= i < n // 2 + 300) else ("keep row %d" % i)
        for i in range(n)
    ]
    t = pa.table({"id": pa.array(ids), "s": pa.array(txt)})
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    compress_table(str(frag), src)

    # range filter: frag 0 fully inside → COPY; frags 2,3 disjoint → DROP;
    # frag 1 boundary → REWRITE
    dst = str(tmp_path / "dst_store")
    stats: dict = {}
    filter_table_store(
        src, dst, [("range", "id", 0, step + step // 2)], stats_out=stats
    )
    assert stats == {
        "fragments_dropped": 2, "fragments_copied": 1, "fragments_rewritten": 1,
    }, stats
    got = pa.concat_tables(
        b
        for b in read_table_store(dst).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ).sort_by("id")
    keep = t.filter(pa.compute.less_equal(t["id"], step + step // 2))
    assert got["id"].to_pylist() == keep["id"].to_pylist()
    assert got["s"].to_pylist() == keep["s"].to_pylist()
    # lineage reflects the rewrite
    roll = store_lineage_rollup(dst)
    assert roll["rows"] == keep.num_rows
    # resume: a second run touches nothing new
    stats2: dict = {}
    filter_table_store(
        src, dst, [("range", "id", 0, step + step // 2)], stats_out=stats2
    )
    assert stats2 == {
        "fragments_dropped": 0, "fragments_copied": 0, "fragments_rewritten": 0,
    }

    # LIKE-based delete: drop rows containing the marker (keep the rest)
    dst2 = str(tmp_path / "dst2")
    stats3: dict = {}
    filter_table_store(
        src, dst2, [("like", "s", "keep%")], stats_out=stats3
    )
    got2 = pa.concat_tables(
        b
        for b in read_table_store(dst2).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ).sort_by("id")
    exp2 = t.filter(
        pa.compute.starts_with(t["s"], "keep")
    )
    assert got2["id"].to_pylist() == exp2["id"].to_pylist()
    # the marker rows live in ONE fragment; the other three can't prove
    # all-match via LIKE, so they rewrite (no copy path for LIKE)
    assert stats3["fragments_dropped"] == 0
    assert stats3["fragments_copied"] == 0
    assert stats3["fragments_rewritten"] == 4


def test_compact_table_store(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compact_table_store,
        compress_table,
        count_table_store,
        read_table_store,
        scan_table_store,
        store_lineage_rollup,
    )

    rng = np.random.default_rng(19)
    n = 4000
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array(["doc %d body" % i for i in range(n)]),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 7) // 8
    for i in range(8):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    compress_table(str(frag), src)
    assert store_lineage_rollup(src)["fragments"] == 8

    dst = str(tmp_path / "dst_store")
    stats: dict = {}
    compact_table_store(src, dst, target_rows=n // 2, order_by="id", stats_out=stats)
    roll = store_lineage_rollup(dst)
    assert roll["fragments"] < 8 and roll["rows"] == n
    # encoded bytes identical: compaction never re-encodes
    assert roll["encoded_bytes"] == store_lineage_rollup(src)["encoded_bytes"]
    got = pa.concat_tables(
        b
        for b in read_table_store(dst).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ).sort_by("id")
    assert got["id"].to_pylist() == t["id"].to_pylist()
    assert got["s"].to_pylist() == t["s"].to_pylist()
    # merged zones stay exact: a range over the first half still prunes
    pst: dict = {}
    scan_table_store(dst, "id", lo=0, hi=n // 4, stats_out=pst)
    assert pst["fragments_skipped"] >= 1
    assert count_table_store(dst, "id", lo=0, hi=n // 4) == n // 4 + 1
    # resume: second run rewrites nothing
    s2: dict = {}
    compact_table_store(src, dst, target_rows=n // 2, order_by="id", stats_out=s2)
    assert s2["groups_written"] == 0


def test_quantiles_table_store(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        quantiles_table_store,
    )

    rng = np.random.default_rng(20)
    n = 20000
    iv = [None if i % 11 == 0 else int(v) for i, v in enumerate(rng.integers(0, 10**6, n))]
    fv = rng.normal(0, 100, n)
    t = pa.table(
        {
            "i": pa.array(iv, type=pa.int64()),
            "f": pa.array(fv, type=pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    for col, ref in (
        ("i", np.array([v for v in iv if v is not None], dtype=np.float64)),
        ("f", fv),
    ):
        sk = quantiles_table_store(store, col, capacity=1024)
        assert sk.n == len(ref)
        tol = sk.rank_tolerance()
        ref_sorted = np.sort(ref)
        for q in (0.5, 0.9, 0.99):
            est = sk.quantile((q,))[0]
            rank = int(np.searchsorted(ref_sorted, est, side="right"))
            target = int(np.ceil(q * len(ref)))
            assert abs(rank - target) <= tol + 1, (col, q, rank, target, tol)


def test_store_sketches(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        distinct_count_table_store,
        heavy_hitters_table_store,
    )

    rng = np.random.default_rng(21)
    n = 20000
    # zipf-ish string column: few heavy values + a long tail
    tail = ["tail%05d" % i for i in range(5000)]
    pool = ["alpha"] * 30 + ["beta"] * 20 + ["gamma"] * 10
    sv = [
        pool[int(v) % len(pool)] if v < 60 else tail[int(v) % len(tail)]
        for v in rng.integers(0, 100, n)
    ]
    iv = rng.integers(0, 3000, n)
    t = pa.table(
        {
            "s": pa.array(sv),
            "i": pa.array(iv, type=pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    for col, exact in (
        ("s", len(set(sv))),
        ("i", len(set(iv.tolist()))),
    ):
        est = distinct_count_table_store(store, col)
        assert abs(est - exact) <= 0.1 * exact, (col, est, exact)

    hh = heavy_hitters_table_store(store, "s", support=0.1)
    import collections

    cnt = collections.Counter(sv)
    thresh = int(np.ceil(0.1 * n))
    exp = sorted((k, v) for k, v in cnt.items() if v >= thresh)
    got = sorted(zip(hh["item"].to_pylist(), hh["n"].to_pylist()))
    assert got == exp, (got[:5], exp[:5])


def test_filter_table_store_crash_resume(ray_session, tmp_path, monkeypatch):
    import fsst_like_ray.pipelines.tablestore as TS

    n = 2000
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array(["row %d" % i for i in range(n)]),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    TS.compress_table(str(frag), src)
    dst = str(tmp_path / "dst")

    # every fragment needs a rewrite (LIKE predicate, no copy/drop path);
    # the DRIVER dies before the second commit — rewritten files exist
    # but only the manifest gate decides what counts as data
    calls = {"n": 0}
    orig_commit = TS.Manifest.commit

    def dying(self, record):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash")
        return orig_commit(self, record)

    monkeypatch.setattr(TS.Manifest, "commit", dying)
    with pytest.raises(Exception, match="injected crash"):
        TS.filter_table_store(
            src, dst, [("like", "s", "row%")], fragments_per_round=1
        )
    committed = TS.Manifest(dst).completed()
    assert len(committed) == 1  # only the fragment BEFORE the crash
    monkeypatch.setattr(TS.Manifest, "commit", orig_commit)
    stats: dict = {}
    TS.filter_table_store(
        src, dst, [("like", "s", "row%")], stats_out=stats
    )
    assert stats["fragments_rewritten"] == 3  # resumed, not restarted
    got = pa.concat_tables(
        b
        for b in TS.read_table_store(dst).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ).sort_by("id")
    assert got["id"].to_pylist() == t["id"].to_pylist()


def test_compact_table_store_crash_resume(ray_session, tmp_path, monkeypatch):
    import shutil as _shutil

    import fsst_like_ray.pipelines.tablestore as TS

    n = 2000
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64))})
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    TS.compress_table(str(frag), src)
    dst = str(tmp_path / "dst")

    calls = {"n": 0}
    orig = _shutil.copy2

    def dying(a, b, **k):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected copy crash")
        return orig(a, b, **k)

    monkeypatch.setattr(TS.shutil, "copy2", dying)
    with pytest.raises(Exception, match="injected copy crash"):
        TS.compact_table_store(src, dst, target_rows=n // 2, order_by="id")
    # the dying group never committed; rerun clears its partial and finishes
    monkeypatch.setattr(TS.shutil, "copy2", orig)
    TS.compact_table_store(src, dst, target_rows=n // 2, order_by="id")
    got = pa.concat_tables(
        b
        for b in TS.read_table_store(dst).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ).sort_by("id")
    assert got["id"].to_pylist() == t["id"].to_pylist()
    assert TS.store_lineage_rollup(dst)["rows"] == n


def test_int_in_scan(ray_session, tmp_path):
    from fsst_like_ray.pipelines.columnar import (
        encode_columns_batch,
        in_scan_mask,
    )
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
        predicate_scan_table_store,
    )

    rng = np.random.default_rng(22)
    n = 3000
    ids = [None if i % 13 == 0 else int(v) for i, v in enumerate(rng.integers(0, 5000, n))]
    t = pa.table(
        {
            "uid": pa.array(ids, type=pa.int64()),
            "g": pa.array(rng.choice(["a", "b"], n)),
        }
    )
    enc = encode_columns_batch(t)
    keys = {7, 42, 4999, 1234, 777}
    m = in_scan_mask(enc, "uid", keys)
    exp = np.array([v in keys if v is not None else False for v in ids])
    assert (m == exp).all()
    assert not in_scan_mask(enc, "uid", []).any()

    # store tier: zone pruning on an int id list over sorted fragments
    srt = pa.table(
        {
            "uid": pa.array(np.arange(n, dtype=np.int64)),
            "g": pa.array(["x"] * n),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(srt.slice(i * step, step), frag / f"f{i}.parquet")
    store = str(tmp_path / "store")
    compress_table(str(frag), store)
    stats: dict = {}
    got = predicate_scan_table_store(
        store, [("in", "uid", [3, 5, step - 1])], columns=["uid"],
        stats_out=stats,
    )
    rows = sorted(
        v
        for b in got.iter_batches(batch_format="pyarrow")
        for v in b["uid"].to_pylist()
    )
    assert rows == [3, 5, step - 1]
    assert stats["fragments_skipped"] == 3  # ids all in fragment 0

    # GROUP BY ... WHERE uid IN (...) composes
    g = group_agg_table_store(
        store, "g", "uid", preds=[("in", "uid", [1, 2, 3])]
    )
    assert g["n_rows"].to_pylist() == [3] and g["vsum"].to_pylist() == [6]


def test_topk_with_predicate(ray_session, tmp_path):
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        topk_table_store,
    )

    rng = np.random.default_rng(23)
    n = 4000
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "g": pa.array(rng.choice(["a", "b", "c"], n)),
            "s": pa.array(["m%d" % i for i in range(n)]),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    store = str(tmp_path / "store")
    compress_table(str(frag), store)

    # top-10 ids WHERE g == 'a': matches a brute-force reference
    stats: dict = {}
    got = topk_table_store(
        store, "id", 10, columns=["id", "g"],
        preds=[("eq", "g", "a")], stats_out=stats,
    )
    exp = [i for i in range(n - 1, -1, -1) if t["g"][i].as_py() == "a"][:10]
    assert got["id"].to_pylist() == exp
    assert set(got["g"].to_pylist()) == {"a"}
    # zone-ordered early stop still engages under the predicate
    assert stats["fragments_skipped"] >= 1

    # range predicate prunes fragments before ranking
    stats = {}
    got2 = topk_table_store(
        store, "id", 5, columns=["id"],
        preds=[("range", "id", 0, step - 1)], stats_out=stats,
    )
    assert got2["id"].to_pylist() == list(range(step - 1, step - 6, -1))
    assert stats["fragments_skipped"] == 3

    # a predicate matching nothing returns an empty decoded table
    empty = topk_table_store(
        store, "id", 5, columns=["id"], preds=[("eq", "g", "zzz")]
    )
    assert empty.num_rows == 0 and empty.column_names == ["id"]


def test_group_topk_table_store(ray_session, tmp_path):
    import pandas as pd

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_topk_table_store,
    )

    rng = np.random.default_rng(24)
    n = 4000
    grp = rng.choice(["a", "b", "c", "d"], n).tolist()
    rank = rng.permutation(n).astype(np.int64)  # unique → deterministic
    t = pa.table(
        {
            "g": pa.array(grp),
            "r": pa.array(rank),
            "payload": pa.array(["p%d" % i for i in range(n)]),
        }
    )
    pq.write_table(t, tmp_path / "t.parquet")
    store = str(tmp_path / "store")
    compress_table(str(tmp_path / "t.parquet"), store)

    got = group_topk_table_store(store, "g", "r", 5, columns=["g", "r", "payload"])
    df = pd.DataFrame({"g": grp, "r": rank, "payload": ["p%d" % i for i in range(n)]})
    exp = (
        df.sort_values(["g", "r"], ascending=[True, False], kind="mergesort")
        .groupby("g", sort=True)
        .head(5)
        .reset_index(drop=True)
    )
    assert got["g"].to_pylist() == exp["g"].tolist()
    assert got["r"].to_pylist() == exp["r"].tolist()
    assert got["payload"].to_pylist() == exp["payload"].tolist()

    # ascending + predicate compose
    got2 = group_topk_table_store(
        store, "g", "r", 3, descending=False, columns=["g", "r"],
        preds=[("range", "r", 100, n - 1)],
    )
    exp2 = (
        df[df["r"] >= 100]
        .sort_values(["g", "r"], ascending=[True, True], kind="mergesort")
        .groupby("g", sort=True)
        .head(3)
        .reset_index(drop=True)
    )
    assert got2["r"].to_pylist() == exp2["r"].tolist()
    # nothing matches → empty with schema
    empty = group_topk_table_store(
        store, "g", "r", 3, columns=["g", "r"],
        preds=[("range", "r", n * 10, n * 20)],
    )
    assert empty.num_rows == 0 and empty.column_names == ["g", "r"]


def _fsstb_bitmap_and_payload(enc: pa.Table, column: str):
    """(stored 32-byte bitmap, payload bytes, payload offsets) of the one
    fsstb block of ``column`` in an encoded batch."""
    from fsst_like_ray.buffers import _binary_buffers
    from fsst_like_ray.pipelines.columnar import S_FSSTB, _parse_head, _Reader

    env = bytes(enc[f"{column}__blk"].combine_chunks().dictionary[0].as_py())
    r = _Reader(env)
    _parse_head(r)
    assert r.u8() == S_FSSTB
    r.b32()  # symbol table
    used = r.take(32)
    assert len(used) == 32 and r.i == len(env)
    pay, po = _binary_buffers(enc[f"{column}__payload"])
    return used, pay, po


@pytest.mark.parametrize("c_path", [True, False])
def test_fsstb_envelope_carries_escape_bitmap(c_path, monkeypatch):
    """The fsstb envelope stores the block's escaped-literal bitmap, equal
    to escaped_literal_bitmap over the whole block payload, on the C and
    NumPy encode paths, in auto and in spec mode; rows include bytes
    >= 0x80, a literal 0xFF, empty rows and nulls."""
    from fsst_like_ray import fsstlib, native
    from fsst_like_ray.pipelines.columnar import S_FSSTB

    if c_path and native.lib is None:
        pytest.skip("no C compiler")
    if not c_path:
        monkeypatch.setattr(native, "lib", None)
    rng = np.random.default_rng(23)
    words = ["merge", "sort", "scan", "héllo", "日本語", "zap!", "\u00ff"]
    texts = [" ".join(rng.choice(words, int(rng.integers(0, 12))))
             for _ in range(600)]
    texts[3], texts[4] = "", None
    for i in range(5, 600, 20):  # rare code points the table cannot cover
        texts[i] = "".join(map(chr, rng.integers(0x80, 0x3000, 30)))
    blobs = [bytes(rng.integers(0, 256, int(rng.integers(0, 40)),
                                dtype=np.uint8)) for _ in range(600)]
    blobs[7], blobs[8] = b"", b"\xff\xff\x00\xff"
    t = pa.table({"text": pa.array(texts, type=pa.string()),
                  "blob": pa.array(blobs, type=pa.binary())})
    # blob: a pinned table without 0xFF, so that byte must escape
    small = fsstlib.SymbolTable([b"ab", b"x"]).serialize()
    spec = {"text": {"scheme": S_FSSTB},
            "blob": {"scheme": S_FSSTB, "fsst_table": small}}
    for enc, cols in ((encode_columns_batch(t), ["text"]),
                      (encode_columns_batch(t, spec=spec), ["text", "blob"])):
        _assert_tables_equal(t, decode_columns_batch(enc))
        for col in cols:
            used, pay, po = _fsstb_bitmap_and_payload(enc, col)
            assert used == fsstlib.escaped_literal_bitmap(pay, po)
            bits = np.unpackbits(np.frombuffer(used, np.uint8),
                                 bitorder="little")
            assert bits[0x80:].any()  # multi-byte UTF-8 / random bytes
            if col == "blob":
                assert bits[0xFF]  # the literal 0xFF byte


# one pattern of every shape the engines dispatch on (the benchmark's
# query pool): prefix, suffix, contains, multi-segment and zero-match
LIKE_POOL = [
    "%scan%", "%merge%sort%", "the fast key %", "%join", "the %",
    "spark window%", "% agg", "% sort dup", "%join line%",
    "%small%filter%fast%", "%customer%row hash%", "%zebra%",
    "%quartz fjord%", "group part slow big%",
]


@pytest.fixture(scope="module")
def docs_store(ray_session, tmp_path_factory):
    """(store, text list): a 3-fragment store of word-soup documents over
    the benchmark vocabulary, 5% ending in ``dup``, with some rare code
    points so the fsstb blocks carry escapes."""
    from fsst_like_ray.pipelines.tablestore import compress_table

    base = tmp_path_factory.mktemp("docs")
    words = np.array(
        "spark window merge table column vector stream value data small "
        "join filter big group hash customer sort order slow line part fast "
        "row the agg key query a scan batch".split()
    )
    rng = np.random.default_rng(29)
    texts = [" ".join(rng.choice(words, int(rng.integers(10, 60))))
             for _ in range(3000)]
    texts = [t + " dup" if rng.random() < 0.05 else t for t in texts]
    for i in range(0, 3000, 97):
        texts[i] += " " + "".join(map(chr, rng.integers(0x80, 0x800, 8)))
    t = pa.table({"doc_id": pa.array(np.arange(3000), type=pa.int64()),
                  "text": pa.array(texts)})
    src = base / "src"
    src.mkdir()
    for f in range(3):
        pq.write_table(t.slice(f * 1000, 1000), src / f"f{f}.parquet")
    store = str(base / "store")
    compress_table(str(src), store)
    return store, texts


def _like_ids(store: str, pattern: str) -> list:
    from fsst_like_ray.pipelines.tablestore import like_table_store

    out = like_table_store(store, "text", pattern, columns=["doc_id"])
    return sorted(out.to_arrow()["doc_id"].to_pylist())


def _count_bitmap_passes(monkeypatch) -> list:
    from fsst_like_ray import fsstlib

    calls = []
    real = fsstlib.escaped_literal_bitmap

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(fsstlib, "escaped_literal_bitmap", spy)
    return calls


def test_store_like_reads_stored_bitmap(docs_store, monkeypatch):
    """A store LIKE over freshly written fsstb blocks prunes on the stored
    bitmap: no pool pattern computes one from the payloads, and every
    answer matches a Python LIKE over the source texts."""
    store, texts = docs_store
    calls = _count_bitmap_passes(monkeypatch)
    for pat in LIKE_POOL:
        rx = re.compile("^" + re.escape(pat).replace("%", ".*") + "$", re.S)
        want = [i for i, v in enumerate(texts) if rx.match(v)]
        assert _like_ids(store, pat) == want, pat
    assert calls == []


def test_store_like_old_fsstb_envelopes(docs_store, tmp_path, monkeypatch):
    """A store whose fsstb envelopes end after the symbol table (written
    before the envelope carried the bitmap) answers every pool LIKE as
    the current format does, computing the bitmap from the payloads."""
    import glob
    import shutil

    from fsst_like_ray.pipelines.columnar import S_FSSTB, _parse_head, _Reader

    store, _texts = docs_store
    old = str(tmp_path / "old")
    shutil.copytree(store, old)
    stripped = 0
    for part in glob.glob(f"{old}/data/*/part-*.parquet"):
        t = pq.read_table(part)
        i = t.schema.get_field_index("text__blk")
        chunks = []
        for ch in t["text__blk"].chunks:
            envs = []
            for env in ch.dictionary.to_pylist():
                r = _Reader(env)
                _parse_head(r)
                if r.u8() == S_FSSTB:
                    r.b32()
                    assert len(env) == r.i + 32
                    env, stripped = env[: r.i], stripped + 1
                envs.append(env)
            chunks.append(pa.DictionaryArray.from_arrays(
                ch.indices, pa.array(envs, type=ch.dictionary.type)))
        t = t.set_column(i, t.schema.field(i), pa.chunked_array(chunks))
        pq.write_table(t, part)
    assert stripped
    calls = _count_bitmap_passes(monkeypatch)
    for pat in LIKE_POOL:
        assert _like_ids(old, pat) == _like_ids(store, pat), pat
    assert calls  # the old envelopes took the payload pass


def test_alp_decimal_floats():
    """ALP transform (columnar.F64_ALP): decimal-rounded doubles encode as
    small scaled ints (~4x smaller than raw bit views) and decode
    bit-exactly; exceptions (non-decimal rows, NaN/inf) are patched; truly
    random doubles fall back to the bits path with no ratio regression."""
    from fsst_like_ray.pipelines.columnar import (
        _read_choices,
        _parse_head,
        _Reader,
        train_columnar_spec,
    )

    rng = np.random.default_rng(7)
    dec2 = np.round(rng.uniform(0, 500, 8192), 2)
    mixed = np.where(
        rng.random(8192) < 0.03,
        rng.standard_normal(8192),
        np.round(rng.uniform(0, 100, 8192), 2),
    )
    rnd = rng.standard_normal(8192)

    def enc_stats(v):
        t = pa.table({"v": pa.array(v, type=pa.float64())})
        enc = encode_columns_batch(t)
        got = decode_columns_batch(enc)
        assert got["v"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).view(np.int64).tolist() == v.view(np.int64).tolist()
        st = columnar_stats_batch(enc)
        env = bytes(enc["v__blk"].combine_chunks().dictionary[0].as_py())
        r = _Reader(env)
        tc, _u, _tz, _n, _valid, _plain = _parse_head(r)
        label, spec = _read_choices(r, tc)
        return st["encoded_nbytes"][0].as_py(), label, spec

    enc_dec2, label2, spec2 = enc_stats(dec2)
    assert spec2["f64"] == "alp" and spec2["alp_e"] == 2, (label2, spec2)
    assert enc_dec2 < 8192 * 8 / 3  # >3x vs the raw 8-byte bit view

    enc_mixed, _, specm = enc_stats(mixed)
    assert specm["f64"] == "alp"  # 3% exceptions ride the sidecar
    assert enc_mixed < 8192 * 8 / 3

    _enc_rnd, _, specr = enc_stats(rnd)
    assert specr["f64"] == "bits"  # non-decimal: honest fallback

    # spec mode pins the transform; a hostile block under a pinned alp
    # spec bails to bits per-block and stays exact
    spec = train_columnar_spec(
        pa.table({"v": pa.array(dec2[:2048], type=pa.float64())})
    )
    assert spec["v"]["f64"] == "alp"
    hostile = pa.table({"v": pa.array(rnd, type=pa.float64())})
    got = decode_columns_batch(encode_columns_batch(hostile, spec=spec))
    assert got["v"].combine_chunks().to_numpy(zero_copy_only=False).view(
        np.int64
    ).tolist() == rnd.view(np.int64).tolist()


def test_delta64_int_streams():
    """delta64 transform (columnar.I64_DELTA): sorted int64/timestamp
    streams whose deltas fit under the 32-bit lo word encode as zigzag
    deltas (dense event-log timestamps ~4x smaller; constant-stride ids
    ~500x); unsorted / wide-delta streams keep the raw base-shift; the
    zone map stays LOGICAL min/max so range pruning is unaffected."""
    from fsst_like_ray.pipelines.columnar import (
        _parse_head,
        _read_choices,
        _Reader,
        range_scan_batch,
        train_columnar_spec,
    )

    rng = np.random.default_rng(3)
    dense = (
        np.cumsum(rng.integers(100, 5000, 8192)).astype(np.int64)
        + 1_700_000_000_000_000
    )
    ramp = np.arange(8192, dtype=np.int64) * 1_000_003 + 10**15
    unsorted = rng.integers(-(2**62), 2**62, 8192, dtype=np.int64)
    extremes = np.array([-(2**63), 2**63 - 1, 0, -1, 5] * 2000, np.int64)

    def enc_spec(v):
        t = pa.table({"x": pa.array(v, type=pa.int64())})
        enc = encode_columns_batch(t)
        got = decode_columns_batch(enc)
        assert got["x"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).tolist() == v.tolist()
        st = columnar_stats_batch(enc)
        env = bytes(enc["x__blk"].combine_chunks().dictionary[0].as_py())
        r = _Reader(env)
        tc, _u, _tz, _n, _valid, _plain = _parse_head(r)
        _label, spec = _read_choices(r, tc)
        return st["encoded_nbytes"][0].as_py(), spec, enc, t

    nb, spec, enc, t = enc_spec(dense)
    assert spec["i64"] == "delta" and nb < 8192 * 8 / 4
    # zone map is logical under delta: range scan matches Arrow filter
    lo, hi = int(dense[2000]), int(dense[6000])
    got = range_scan_batch(enc, "x", lo, hi, out_columns=["x"])
    assert got.num_rows == 4001

    nb_r, spec_r, _, _ = enc_spec(ramp)
    assert spec_r["i64"] == "delta" and nb_r < 1024

    _, spec_u, _, _ = enc_spec(unsorted)
    assert spec_u["i64"] == "raw"

    _, spec_e, _, _ = enc_spec(extremes)  # wraparound-adversarial

    # spec mode pins the transform and stays exact out-of-sample
    sp = train_columnar_spec(
        pa.table({"x": pa.array(dense[:2048], type=pa.int64())})
    )
    assert sp["x"]["i64"] == "delta"
    other = pa.table({"x": pa.array(unsorted, type=pa.int64())})
    got = decode_columns_batch(encode_columns_batch(other, spec=sp))
    assert got["x"].combine_chunks().to_numpy(
        zero_copy_only=False
    ).tolist() == unsorted.tolist()


def test_store_null_predicates(ray_session, tmp_path):
    """IS NULL / IS NOT NULL over the store: masks come from envelope
    validity bitmaps alone (zero payload decode), fragments prune through
    the lineage null counts (null-free fragment can't satisfy IS NULL;
    all-null can't satisfy IS NOT NULL), and both compose with other
    predicates."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        predicate_scan_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    # frag 0: no nulls; frag 1: some nulls; frag 2: all-null score
    for f, nullrate in enumerate((0.0, 0.3, 1.0)):
        n = 300
        ids = np.arange(f * n, (f + 1) * n, dtype=np.int64)
        rng = np.random.default_rng(f)
        nullmask = rng.random(n) < nullrate
        score = [None if m else int(i) for i, m in zip(ids, nullmask)]
        t = pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "score": pa.array(score, type=pa.int64()),
                "text": pa.array([f"doc {i} frag{f}" for i in ids]),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet")
    compress_table(str(src), out)

    # IS NULL: fragment 0 (null-free) prunes
    s: dict = {}
    got = predicate_scan_table_store(
        out, [("isnull", "score")], columns=["doc_id"], stats_out=s
    )
    ids_null = sorted(r["doc_id"] for r in got.to_arrow().to_pylist())
    assert s == _scan_stats(s, 2, 1)
    assert len(ids_null) > 0 and all(i >= 300 for i in ids_null)

    # IS NOT NULL: fragment 2 (all-null) prunes; counts complement
    s2: dict = {}
    got2 = predicate_scan_table_store(
        out, [("notnull", "score")], columns=["doc_id"], stats_out=s2
    )
    ids_nn = sorted(r["doc_id"] for r in got2.to_arrow().to_pylist())
    assert s2 == _scan_stats(s2, 2, 1)
    assert len(ids_null) + len(ids_nn) == 900
    assert not (set(ids_null) & set(ids_nn))

    # composes: notnull AND range — range zone drops frag 0 and 2
    s3: dict = {}
    got3 = predicate_scan_table_store(
        out,
        [("notnull", "score"), ("range", "doc_id", 300, 599)],
        columns=["doc_id", "score"],
        stats_out=s3,
    )
    rows3 = got3.to_arrow().to_pylist()
    assert s3["fragments_scanned"] == 1
    assert all(r["score"] is not None and 300 <= r["doc_id"] <= 599 for r in rows3)
    assert len(rows3) == len([i for i in ids_nn if 300 <= i <= 599])


def test_float_range_scan_and_zones(ray_session, tmp_path):
    """Float range predicates: block envelopes carry LOGICAL (fmin, fmax)
    float zones (NaN/null-excluded), range_scan accepts float columns
    with SQL comparison semantics (NaN/null rows never match), zones
    prune blocks and — through the lineage rollup — whole store
    fragments; all-NaN blocks carry NaN sentinels that never prune."""
    import pyarrow.compute as pc
    from fsst_like_ray.pipelines.columnar import (
        columnar_zones_batch,
        range_scan_batch,
    )
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        scan_table_store,
    )

    rng = np.random.default_rng(5)
    f32 = rng.uniform(-50, 50, 4096).astype(np.float32)
    f32[::17] = np.nan
    arr = pc.if_else(
        pa.array(rng.random(4096) < 0.1),
        pa.scalar(None, type=pa.float32()),
        pa.array(f32, type=pa.float32()),
    )
    t = pa.table({"x": arr})
    enc = encode_columns_batch(t)
    src_col = t["x"].combine_chunks()
    dec = decode_columns_batch(enc)["x"].combine_chunks()
    assert dec.null_count == src_col.null_count
    assert (
        src_col.drop_null().to_numpy(zero_copy_only=False).view(np.int32)
        == dec.drop_null().to_numpy(zero_copy_only=False).view(np.int32)
    ).all()
    z = columnar_zones_batch(enc)
    # NaN present → fmax reports +inf (upper bound unknown): full-
    # coverage claims are refused while fmin-side pruning stays sound
    assert -50 <= z["x"][0] <= 50 and z["x"][1] == float("inf")
    got = range_scan_batch(enc, "x", -10.0, 10.0, out_columns=["x"])
    exp = t.filter(
        pc.and_(pc.greater_equal(src_col, -10.0), pc.less_equal(src_col, 10.0))
    )
    assert got.num_rows == exp.num_rows

    # all-NaN block: no zone entry, block kept, no row matches
    tn = pa.table({"x": pa.array(np.full(256, np.nan), type=pa.float64())})
    en = encode_columns_batch(tn)
    assert "x" not in columnar_zones_batch(en)
    assert range_scan_batch(en, "x", 0.0, 1.0).num_rows == 0

    # store tier: disjoint per-fragment float ranges prune via lineage
    src = tmp_path / "src"
    src.mkdir()
    for f in range(3):
        vals = np.round(
            np.random.default_rng(f).uniform(f * 100, f * 100 + 90, 500), 2
        )
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(f * 500, (f + 1) * 500, dtype=np.int64)
                    ),
                    "score": pa.array(vals, type=pa.float64()),
                }
            ),
            src / f"p{f}.parquet",
        )
    out = str(tmp_path / "store")
    compress_table(str(src), out)
    stats: dict = {}
    rows = scan_table_store(
        out, "score", lo=120.0, hi=170.0,
        columns=["doc_id", "score"], stats_out=stats,
    ).to_arrow().to_pylist()
    assert stats == _scan_stats(stats, 1, 2)
    assert rows and all(120.0 <= r["score"] <= 170.0 for r in rows)


def test_float_topk_table_store(ray_session, tmp_path):
    """Top-k by an encoded float column: ranks on logical values (NaN
    and null rows never rank), zone-ordered fragment early stop works on
    float zones — one fragment opens out of three disjoint ones."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        topk_table_store,
    )

    src = tmp_path / "src"
    src.mkdir()
    allvals = []
    for f in range(3):
        vals = np.round(
            np.random.default_rng(f).uniform(f * 100, f * 100 + 90, 500), 2
        )
        col = [float(v) for v in vals]
        if f == 1:
            col[10] = float("nan")
            col[20] = None
        allvals += [
            v for v in col if v is not None and not np.isnan(v)
        ]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(f * 500, (f + 1) * 500, dtype=np.int64)
                    ),
                    "score": pa.array(col, type=pa.float64()),
                }
            ),
            src / f"p{f}.parquet",
        )
    out = str(tmp_path / "store")
    compress_table(str(src), out)
    stats: dict = {}
    t = topk_table_store(
        out, "score", 5, columns=["doc_id", "score"], stats_out=stats
    )
    assert t["score"].to_pylist() == sorted(allvals, reverse=True)[:5]
    # fragment 1 contains NaN → its zone hi is +inf ("unknown"), so it
    # must scan before the early stop; the clean worst fragment still
    # prunes (2 scanned, 1 skipped instead of 1/2)
    assert stats == _scan_stats(stats, 2, 1)
    t2 = topk_table_store(out, "score", 3, descending=False, columns=["score"])
    assert t2["score"].to_pylist() == sorted(allvals)[:3]


def test_float_count_nan_soundness(ray_session, tmp_path):
    """Metadata COUNT under float bounds: a NaN-bearing fragment's zone
    reports fmax=+inf, so the fully-covered fast path refuses it and the
    scan counts only real matches — NaN rows are not rows in range."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        count_table_store,
    )

    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(0)
    v0 = np.round(rng.uniform(0, 90, 500), 2)
    v1 = np.round(rng.uniform(100, 190, 500), 2)
    v1[:5] = np.nan
    for f, v in enumerate((v0, v1)):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(f * 500, (f + 1) * 500, dtype=np.int64)
                    ),
                    "score": pa.array(v, type=pa.float64()),
                }
            ),
            src / f"p{f}.parquet",
        )
    out = str(tmp_path / "store")
    compress_table(str(src), out)

    s: dict = {}
    n = count_table_store(out, "score", lo=0.0, hi=1e6, stats_out=s)
    assert n == 995  # 500 clean + 495 non-NaN, never 1000
    assert s["fragments_meta"] == 1 and s["fragments_scanned"] == 1

    s2: dict = {}
    n2 = count_table_store(out, "score", lo=-1.0, hi=95.0, stats_out=s2)
    assert n2 == 500 and s2 == {
        "fragments_meta": 1, "fragments_scanned": 0, "fragments_skipped": 1,
    }


def test_group_multikey_table_store(ray_session, tmp_path):
    """Composite-key GROUP BY over the store: per-column codes compose
    per batch, keys serialize into self-describing tuples riding the
    binary-value fold, output decomposes into one column per key.
    Null keys in ANY part drop the row (SQL semantics); predicates and
    per-column buckets compose."""
    import pandas as pd
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        group_agg_table_store,
    )

    src = tmp_path / "src"
    src.mkdir()
    rng = np.random.default_rng(11)
    n = 3000
    cat = rng.choice(["a", "b", "c"], n)
    grp = rng.integers(0, 5, n)
    val = rng.integers(-100, 100, n)
    catn = [None if i % 97 == 0 else str(c) for i, c in enumerate(cat)]
    df = pd.DataFrame({"cat": catn, "grp": grp, "val": val})
    t = pa.table(
        {
            "cat": pa.array(catn, type=pa.string()),
            "grp": pa.array(grp, type=pa.int64()),
            "val": pa.array(val, type=pa.int64()),
        }
    )
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "store")
    compress_table(str(src), out, batch_rows=512)

    got = group_agg_table_store(
        out, ["cat", "grp"], "val", ops=("count", "sum", "min", "max")
    ).to_pandas()
    exp = (
        df.dropna(subset=["cat"])
        .groupby(["cat", "grp"], as_index=False)
        .agg(n_rows=("val", "size"), vsum=("val", "sum"),
             vmin=("val", "min"), vmax=("val", "max"))
        .sort_values(["cat", "grp"])
        .reset_index(drop=True)
    )
    g = got.sort_values(["cat", "grp"]).reset_index(drop=True)
    assert g["cat"].tolist() == exp["cat"].tolist()
    assert g["grp"].tolist() == exp["grp"].tolist()
    assert g["n_rows"].tolist() == exp["n_rows"].tolist()
    assert g["vsum"].tolist() == exp["vsum"].tolist()
    assert g["vmin"].tolist() == exp["vmin"].tolist()
    assert g["vmax"].tolist() == exp["vmax"].tolist()

    # bucket on one part + predicate
    got2 = group_agg_table_store(
        out, ["cat", "grp"], None, ops=("count",),
        bucket={"grp": 2}, preds=[("range", "val", 0, None)],
    ).to_pandas()
    d2 = df[(df["val"] >= 0) & df["cat"].notna()].copy()
    d2["grp"] = d2["grp"] // 2 * 2
    exp2 = (
        d2.groupby(["cat", "grp"], as_index=False)
        .agg(n_rows=("val", "size"))
        .sort_values(["cat", "grp"]).reset_index(drop=True)
    )
    g2 = got2.sort_values(["cat", "grp"]).reset_index(drop=True)
    assert g2["n_rows"].tolist() == exp2["n_rows"].tolist()


def test_join_table_store(ray_session, tmp_path):
    """Store ⋈ store equi-join: lineage key envelopes prune whole
    fragments on the opposite side before any part file opens; the
    broadcast path (unique dim keys), the forced shuffle path, a
    duplicate-key right side (auto fallback to shuffle) and a LEFT join
    all match a pandas merge of the raw sides."""
    import pandas as pd

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        join_table_store,
    )

    src = tmp_path / "fact"
    src.mkdir()
    rng = np.random.default_rng(7)
    frames = []
    for f in range(3):  # disjoint key ranges per fragment
        keys = np.arange(f * 10_000, f * 10_000 + 800, dtype=np.int64)
        t = pa.table(
            {
                "k": pa.array(keys),
                "v": pa.array(rng.integers(0, 50, len(keys))),
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet")
        frames.append(t.to_pandas())
    fact = pd.concat(frames, ignore_index=True)

    dim_dir = tmp_path / "dim"
    dim_dir.mkdir()
    dim = pa.table(
        {
            "dk": pa.array(np.arange(10_000, 10_500, dtype=np.int64)),
            "label": pa.array(
                [f"lbl{i % 7}" for i in range(500)], type=pa.string()
            ),
        }
    )
    pq.write_table(dim, dim_dir / "dim.parquet")

    lo, ro = str(tmp_path / "lo"), str(tmp_path / "ro")
    compress_table(str(src), lo)
    compress_table(str(dim_dir), ro)

    exp = fact.merge(
        dim.to_pandas(), left_on="k", right_on="dk"
    ).drop(columns=["dk"])

    def _got(**kw):
        stats = {}
        t = (
            join_table_store(
                lo, ro, on="k", right_on="dk", stats_out=stats, **kw
            )
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        return t, stats

    got, stats = _got()
    assert stats["path"] == "broadcast"
    # right dim covers only the middle fragment's key range: the other
    # two left fragments prune from the manifest alone
    assert stats["left_fragments"]["fragments_skipped"] == 2
    pd.testing.assert_frame_equal(
        got,
        exp.sort_values(["k", "v"]).reset_index(drop=True),
        check_dtype=False,
    )

    got_d, stats_d = _got(distributed=True)
    assert stats_d["path"] == "shuffle"
    pd.testing.assert_frame_equal(got_d, got, check_dtype=False)

    # LEFT join: every fact row survives; unmatched labels are null.
    # Left fragments must NOT envelope-prune (stats say so), and the
    # result keeps all rows.
    got_l, stats_l = _got(how="left")
    # no left predicates at all → every left fragment scans
    assert stats_l["left_fragments"].get("fragments_skipped", 0) == 0
    assert len(got_l) == len(fact)
    assert got_l["label"].notna().sum() == len(exp)

    # duplicate-key right side: auto path must fall back to shuffle and
    # produce the full cross-product per key
    dup_dir = tmp_path / "dup"
    dup_dir.mkdir()
    dup = pa.table(
        {
            "dk": pa.array([10_001, 10_001, 10_002], type=pa.int64()),
            "label": pa.array(["a", "b", "c"]),
        }
    )
    pq.write_table(dup, dup_dir / "dup.parquet")
    rd = str(tmp_path / "rd")
    compress_table(str(dup_dir), rd)
    stats2 = {}
    got2 = (
        join_table_store(lo, rd, on="k", right_on="dk", stats_out=stats2)
        .to_pandas()
        .sort_values(["k", "label"])
        .reset_index(drop=True)
    )
    assert stats2["path"] == "shuffle"
    exp2 = (
        fact.merge(dup.to_pandas(), left_on="k", right_on="dk")
        .drop(columns=["dk"])
        .sort_values(["k", "label"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2, exp2, check_dtype=False)


def test_join_broadcast_side_skips_ray_data(ray_session, tmp_path, monkeypatch):
    """A driver-sized right side reaches the broadcast join as the Arrow
    table its predicate scan produced: no ray.data.from_arrow wraps it.
    The left side, a driver scan too, is the one Dataset built, since
    the probe streams it through map_batches."""
    import pandas as pd
    import ray.data

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        join_table_store,
    )

    fact_dir, dim_dir = tmp_path / "fact", tmp_path / "dim"
    fact_dir.mkdir()
    dim_dir.mkdir()
    fact = pa.table(
        {
            "k": pa.array(np.arange(0, 900, 3, dtype=np.int64)),
            "v": pa.array(np.arange(300, dtype=np.int64) % 11),
        }
    )
    dim = pa.table(
        {
            "dk": pa.array(np.arange(100, 400, dtype=np.int64)),
            "label": pa.array([f"l{i % 5}" for i in range(300)]),
        }
    )
    pq.write_table(fact, fact_dir / "fact.parquet")
    pq.write_table(dim, dim_dir / "dim.parquet")
    lo, ro = str(tmp_path / "lo"), str(tmp_path / "ro")
    compress_table(str(fact_dir), lo)
    compress_table(str(dim_dir), ro)

    wrapped = []
    real = ray.data.from_arrow

    def spy(tables, *a, **kw):
        wrapped.append(tables.column_names)
        return real(tables, *a, **kw)

    monkeypatch.setattr(ray.data, "from_arrow", spy)
    for how in ("left", "inner"):
        wrapped.clear()
        stats: dict = {}
        got = (
            join_table_store(
                lo, ro, on="k", right_on="dk", how=how, stats_out=stats
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert stats["path"] == "broadcast"
        assert stats["right_fragments"]["executor"] == "driver"
        assert wrapped == [["k", "v"]]  # the left side only
        exp = (
            fact.to_pandas()
            .merge(dim.to_pandas(), left_on="k", right_on="dk", how=how)
            .drop(columns=["dk"])
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.fillna({"label": ""}),
            exp.fillna({"label": ""}),
            check_dtype=False,
        )


def test_append_table_store(ray_session, tmp_path):
    """Incremental ingest: append encodes only NEW fragment paths (the
    manifest resume contract as append ledger); re-append is a no-op;
    an appended fragment's zones join fragment pruning immediately; a
    schema-drifted fragment is rejected before any work."""
    from fsst_like_ray.pipelines.tablestore import (
        append_table_store,
        compress_table,
        read_table_store,
        scan_table_store,
    )

    p0 = tmp_path / "part-0.parquet"
    p1 = tmp_path / "part-1.parquet"
    t0 = pa.table(
        {
            "id": pa.array(np.arange(0, 1000, dtype=np.int64)),
            "tag": pa.array([f"t{i % 5}" for i in range(1000)]),
        }
    )
    t1 = pa.table(
        {
            "id": pa.array(np.arange(50_000, 51_000, dtype=np.int64)),
            "tag": pa.array([f"t{i % 3}" for i in range(1000)]),
        }
    )
    pq.write_table(t0, p0)
    pq.write_table(t1, p1)
    out = str(tmp_path / "store")
    compress_table(str(p0), out)

    st = append_table_store([str(p0), str(p1)], out)
    assert st["appended_fragments"] == 1
    assert st["fragments"] == 2 and st["rows"] == 2000

    again = append_table_store([str(p0), str(p1)], out)
    assert again["appended_fragments"] == 0
    assert again["rows"] == 2000

    got = (
        read_table_store(out)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    exp = (
        pa.concat_tables([t0, t1])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got, exp)

    # the appended fragment's zones prune: a range over its ids must
    # skip the original fragment from the manifest alone
    stats = {}
    hits = scan_table_store(
        out, "id", lo=50_100, hi=50_200, stats_out=stats
    ).to_arrow().to_pandas()
    assert len(hits) == 101
    assert stats["fragments_skipped"] == 1

    # schema drift: renamed column rejected before any encode work
    bad = tmp_path / "bad.parquet"
    pq.write_table(
        pa.table(
            {
                "id": pa.array(np.arange(3, dtype=np.int64)),
                "label": pa.array(["a", "b", "c"]),
            }
        ),
        bad,
    )
    with pytest.raises(ValueError, match="schema"):
        append_table_store([str(p0), str(p1), str(bad)], out)
    # type drift too
    bad2 = tmp_path / "bad2.parquet"
    pq.write_table(
        pa.table(
            {
                "id": pa.array(np.arange(3, dtype=np.int32)),
                "tag": pa.array(["a", "b", "c"]),
            }
        ),
        bad2,
    )
    with pytest.raises(ValueError, match="schema"):
        append_table_store([str(bad2)], out)


def test_sort_table_store(ray_session, tmp_path):
    """Total-order export with a global rownum: the zonemerge (no
    shuffle) path on disjoint fragment zones, the general shuffle path
    on overlapping zones, descending on both, ties broken by a
    composite key, column projection, and the rownum-clash guard."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        sort_table_store,
    )

    rng = np.random.default_rng(7)
    n = 1200
    # three disjoint-id deliveries (zonemerge) with an unsorted tail
    # inside each fragment so the per-fragment local sort matters
    ids = np.arange(n, dtype=np.int64)
    vals = rng.integers(0, 40, n).astype(np.int64)  # heavy ties
    for k in range(3):
        sl = slice(k * 400, (k + 1) * 400)
        perm = rng.permutation(400)
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(ids[sl][perm]),
                    "v": pa.array(vals[sl][perm]),
                }
            ),
            tmp_path / f"part-{k}.parquet",
        )
    store = str(tmp_path / "store")
    compress_table(
        [str(tmp_path / f"part-{k}.parquet") for k in range(3)], store
    )

    # zonemerge path: disjoint id envelopes, no shuffle
    stats = {}
    got = (
        sort_table_store(store, "id", stats_out=stats)
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "zonemerge" and stats["fragments"] == 3
    assert got["id"].tolist() == ids.tolist()
    assert got["rownum"].tolist() == list(range(n))
    assert got["v"].tolist() == vals.tolist()

    # zonemerge descending
    stats = {}
    got = (
        sort_table_store(store, "id", descending=True, stats_out=stats)
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "zonemerge"
    assert got["id"].tolist() == ids[::-1].tolist()

    # general path: v zones overlap → one distributed sort; composite
    # key (v, id) makes the order total despite heavy ties
    stats = {}
    got = (
        sort_table_store(
            store, ["v", "id"], columns=["id", "v"], stats_out=stats
        )
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "sort"
    order = np.lexsort((ids, vals))
    assert got["id"].tolist() == ids[order].tolist()
    assert got["v"].tolist() == vals[order].tolist()
    assert got["rownum"].tolist() == list(range(n))
    assert list(got.columns) == ["id", "v", "rownum"]

    # general path descending
    stats = {}
    got = (
        sort_table_store(
            store, ["v", "id"], descending=True, stats_out=stats
        )
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "sort"
    assert got["id"].tolist() == ids[order][::-1].tolist()

    # projection that drops the sort key still works on zonemerge
    got = (
        sort_table_store(store, "id", columns=["v"])
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["v", "rownum"]
    assert got["v"].tolist() == vals.tolist()

    # head-limit pruning: a rownum head over a multi-fragment zonemerge
    # store must open only the fragment(s) covering the head, not decode
    # the whole store (the table-sort CLI --limit path)
    stats = {}
    got = (
        sort_table_store(store, "id", stats_out=stats, limit_rows=20)
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "zonemerge"
    assert stats["fragments_pruned"] == 2  # 3 fragments, head fits in one
    assert got["id"].tolist() == ids[:20].tolist()
    assert got["rownum"].tolist() == list(range(20))

    # descending head prunes from the other end
    stats = {}
    got = (
        sort_table_store(
            store, "id", descending=True, stats_out=stats, limit_rows=20
        )
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["fragments_pruned"] == 2
    assert got["id"].tolist() == ids[::-1][:20].tolist()

    # shuffle path: the sort still runs, but only the head rows surface
    stats = {}
    got = (
        sort_table_store(
            store, ["v", "id"], stats_out=stats, limit_rows=20
        )
        .to_pandas()
        .sort_values("rownum")
        .reset_index(drop=True)
    )
    assert stats["path"] == "sort"
    assert got["id"].tolist() == ids[order][:20].tolist()

    with pytest.raises(ValueError, match="rownum"):
        sort_table_store(store, "rownum")
    with pytest.raises(ValueError, match="empty"):
        sort_table_store(store, [])


def test_upsert_table_store(ray_session, tmp_path):
    """CDC MERGE: zone-pruned copy-through vs anti-join rewrite, pure
    inserts, string keys (no zone prune → full rewrite), and the guard
    rails: duplicate delta keys, null keys, schema drift, key-count cap,
    delta/src path clash."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        read_table_store,
        upsert_table_store,
    )

    def mk(frag, ids, tags=None):
        p = tmp_path / frag
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(np.asarray(ids, dtype=np.int64)),
                    "v": pa.array(np.asarray(ids, dtype=np.int64) * 2),
                    "tag": pa.array(
                        tags or [f"t{int(i) % 5}" for i in ids]
                    ),
                }
            ),
            p,
        )
        return str(p)

    parts = [mk(f"part-{k}.parquet", range(k * 300, (k + 1) * 300)) for k in range(3)]
    src = str(tmp_path / "src")
    compress_table(parts, src)

    # updates confined to fragment 0's zone + pure inserts beyond max
    upd_ids = list(range(10, 60))
    ins_ids = list(range(9000, 9030))
    delta = mk("delta-0.parquet", upd_ids + ins_ids, tags=["u"] * 80)
    dst = str(tmp_path / "dst")
    stats: dict = {}
    upsert_table_store(src, dst, delta, "id", stats_out=stats)
    assert stats["fragments_copied"] == 2
    assert stats["fragments_rewritten"] == 1
    assert stats["rows_replaced"] == 50
    got = read_table_store(dst).to_pandas().sort_values("id")
    assert len(got) == 900 - 50 + 80
    assert (got[got["id"].isin(upd_ids + ins_ids)]["tag"] == "u").all()
    assert set(got["id"]) == (set(range(900)) | set(ins_ids))

    # pure insert: zero overlap → every src fragment copies verbatim
    delta2 = mk("delta-1.parquet", range(20_000, 20_010))
    dst2 = str(tmp_path / "dst2")
    stats2: dict = {}
    upsert_table_store(src, dst2, delta2, "id", stats_out=stats2)
    assert stats2["fragments_copied"] == 3
    assert stats2["fragments_rewritten"] == 0
    assert stats2["rows_replaced"] == 0
    assert read_table_store(dst2).count() == 910

    # string key: correct merge, conservative full rewrite (no int zone)
    sp = tmp_path / "s-part.parquet"
    pq.write_table(
        pa.table(
            {
                "k": pa.array([f"k{i:04d}" for i in range(200)]),
                "x": pa.array(np.arange(200, dtype=np.int64)),
            }
        ),
        sp,
    )
    ssrc = str(tmp_path / "ssrc")
    compress_table(str(sp), ssrc)
    sd = tmp_path / "s-delta.parquet"
    pq.write_table(
        pa.table(
            {
                "k": pa.array(["k0005", "knew1"]),
                "x": pa.array(np.array([-5, -1], dtype=np.int64)),
            }
        ),
        sd,
    )
    sdst = str(tmp_path / "sdst")
    sstats: dict = {}
    upsert_table_store(ssrc, sdst, str(sd), "k", stats_out=sstats)
    assert sstats["fragments_rewritten"] == 1 and sstats["fragments_copied"] == 0
    sgot = read_table_store(sdst).to_pandas().set_index("k")["x"]
    assert len(sgot) == 201
    assert sgot["k0005"] == -5 and sgot["knew1"] == -1 and sgot["k0007"] == 7

    # guard rails
    dup = mk("delta-dup.parquet", [1, 1, 2])
    with pytest.raises(ValueError, match="unique"):
        upsert_table_store(src, str(tmp_path / "x1"), dup, "id")
    nl = tmp_path / "delta-null.parquet"
    pq.write_table(
        pa.table(
            {
                "id": pa.array([1, None], type=pa.int64()),
                "v": pa.array([0, 0], type=pa.int64()),
                "tag": pa.array(["a", "b"]),
            }
        ),
        nl,
    )
    with pytest.raises(ValueError, match="null"):
        upsert_table_store(src, str(tmp_path / "x2"), str(nl), "id")
    drift = tmp_path / "delta-drift.parquet"
    pq.write_table(
        pa.table({"id": pa.array([1], type=pa.int64())}), drift
    )
    with pytest.raises(ValueError, match="schema"):
        upsert_table_store(src, str(tmp_path / "x3"), str(drift), "id")
    with pytest.raises(ValueError, match="max_delta_keys"):
        upsert_table_store(
            src, str(tmp_path / "x4"), delta, "id", max_delta_keys=10
        )
    with pytest.raises(ValueError, match="collide"):
        upsert_table_store(src, str(tmp_path / "x5"), parts[0], "id")
    with pytest.raises(ValueError, match="no column"):
        upsert_table_store(src, str(tmp_path / "x6"), delta, "nope")


def test_delete_keys_table_store(ray_session, tmp_path):
    """Key-list delete: zone-pruned copy vs rewrite, keys from a list /
    numpy array / parquet path (dedup'd), and resume."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        delete_keys_table_store,
        read_table_store,
    )

    parts = []
    for k in range(3):
        p = tmp_path / f"part-{k}.parquet"
        ids = np.arange(k * 300, (k + 1) * 300, dtype=np.int64)
        pq.write_table(
            pa.table({"id": pa.array(ids), "v": pa.array(ids * 3)}), p
        )
        parts.append(str(p))
    src = str(tmp_path / "src")
    compress_table(parts, src)

    doomed = [5, 5, 17, 250, 10_000]  # dup + missing key are fine
    dst = str(tmp_path / "dst")
    stats: dict = {}
    delete_keys_table_store(src, dst, doomed, "id", stats_out=stats)
    assert stats["fragments_copied"] == 2
    assert stats["fragments_rewritten"] == 1
    assert stats["rows_deleted"] == 3
    assert stats["delete_keys"] == 4
    got = read_table_store(dst).to_pandas()
    assert len(got) == 897
    assert not got["id"].isin([5, 17, 250]).any()

    # keys from a parquet file; numpy array path too
    kp = tmp_path / "doomed.parquet"
    pq.write_table(
        pa.table({"id": pa.array([300, 301], type=pa.int64())}), kp
    )
    dst2 = str(tmp_path / "dst2")
    s2: dict = {}
    delete_keys_table_store(src, dst2, str(kp), "id", stats_out=s2)
    assert s2["rows_deleted"] == 2 and s2["fragments_copied"] == 2
    dst3 = str(tmp_path / "dst3")
    s3: dict = {}
    delete_keys_table_store(
        src, dst3, np.array([0, 899], dtype=np.int64), "id", stats_out=s3
    )
    assert s3["rows_deleted"] == 2 and s3["fragments_rewritten"] == 2

    # resume: second run over a committed dst is a no-op
    s4: dict = {}
    delete_keys_table_store(src, dst, doomed, "id", stats_out=s4)
    assert s4["fragments_copied"] == 0 and s4["fragments_rewritten"] == 0
    assert read_table_store(dst).count() == 897

    with pytest.raises(ValueError, match="null"):
        delete_keys_table_store(
            src, str(tmp_path / "x1"),
            pa.array([1, None], type=pa.int64()).to_pylist(), "id",
        )
    with pytest.raises(ValueError, match="max_delete_keys"):
        delete_keys_table_store(
            src, str(tmp_path / "x2"), doomed, "id", max_delete_keys=2
        )


def test_vacuum_table_store(ray_session, tmp_path):
    """GC: orphan fragment dirs (written, never committed) and stray
    non-part files inside committed dirs go — an orphan seek sidecar
    too, while a part's own sidecar stays; committed data survives
    byte-for-byte; dry_run only reports."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        read_table_store,
        vacuum_table_store,
    )

    p = tmp_path / "in.parquet"
    pq.write_table(
        pa.table(
            {
                "id": pa.array(np.arange(500, dtype=np.int64)),
                "t": pa.array([f"r{i}" for i in range(500)]),
                "n_tok": pa.array(np.arange(500, dtype=np.int32) % 7),
            }
        ),
        p,
    )
    out = str(tmp_path / "store")
    compress_table(str(p), out)
    before = read_table_store(out).to_pandas()

    import os

    data = os.path.join(out, "data")
    orphan = os.path.join(data, "frag=deadbeefdeadbeef")
    os.makedirs(orphan)
    with open(os.path.join(orphan, "part-000000.parquet"), "wb") as f:
        f.write(b"x" * 1024)
    frag_dirs = [d for d in os.listdir(data) if d.startswith("frag=") and d != "frag=deadbeefdeadbeef"]
    stray = os.path.join(data, frag_dirs[0], "part-000000.parquet.tmp")
    with open(stray, "wb") as f:
        f.write(b"y" * 100)
    sidecar = os.path.join(data, frag_dirs[0], "part-000000.seek")
    assert os.path.exists(sidecar)
    orphan_seek = os.path.join(data, frag_dirs[0], "part-000001.seek")
    with open(orphan_seek, "wb") as f:
        f.write(b"z" * 10)

    dry = vacuum_table_store(out, dry_run=True)
    assert dry["orphan_dirs"] == 1 and dry["stray_files"] == 2
    assert dry["reclaimed_bytes"] == 1134
    assert os.path.isdir(orphan) and os.path.exists(stray)
    assert sorted(dry["stray_paths"]) == sorted([stray, orphan_seek])

    res = vacuum_table_store(out)
    assert res["orphan_dirs"] == 1 and res["stray_files"] == 2
    assert not os.path.isdir(orphan) and not os.path.exists(stray)
    assert not os.path.exists(orphan_seek) and os.path.exists(sidecar)

    after = read_table_store(out).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(
        before.sort_values("id").reset_index(drop=True),
        after.sort_values("id").reset_index(drop=True),
    )
    # idempotent
    res2 = vacuum_table_store(out)
    assert res2["orphan_dirs"] == 0 and res2["stray_files"] == 0


def test_union_table_store(ray_session, tmp_path):
    """Shard consolidation: two stores (one sharing an input PATH with
    the other — must stay distinct rows, UNION ALL semantics) merge by
    byte-identical part copy; zones keep pruning in the merged store;
    resume is a no-op; schema drift rejected."""
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        read_table_store,
        scan_table_store,
        union_table_store,
    )

    pa_ids = np.arange(0, 400, dtype=np.int64)
    pb_ids = np.arange(1000, 1400, dtype=np.int64)
    shared = tmp_path / "shared.parquet"
    pq.write_table(
        pa.table({"id": pa.array(pa_ids), "v": pa.array(pa_ids * 2)}),
        shared,
    )
    only_b = tmp_path / "only-b.parquet"
    pq.write_table(
        pa.table({"id": pa.array(pb_ids), "v": pa.array(pb_ids * 2)}),
        only_b,
    )
    s1 = str(tmp_path / "s1")
    s2 = str(tmp_path / "s2")
    compress_table(str(shared), s1)
    compress_table([str(shared), str(only_b)], s2)

    dst = str(tmp_path / "merged")
    stats: dict = {}
    union_table_store([s1, s2], dst, stats_out=stats)
    assert stats["fragments_copied"] == 3 and stats["sources"] == 2
    got = read_table_store(dst).to_pandas()
    # UNION ALL: the shared input appears twice
    assert len(got) == 1200
    assert (got["id"] < 1000).sum() == 800

    # zone pruning survives the merge
    st: dict = {}
    hits = scan_table_store(dst, "id", lo=1100, hi=1200, stats_out=st)
    assert hits.to_arrow().num_rows == 101
    assert st["fragments_skipped"] == 2 and st["fragments_scanned"] == 1

    # resume no-op
    stats2: dict = {}
    union_table_store([s1, s2], dst, stats_out=stats2)
    assert stats2["fragments_copied"] == 0
    assert read_table_store(dst).count() == 1200

    # schema drift
    drift = tmp_path / "drift.parquet"
    pq.write_table(pa.table({"id": pa.array([1], type=pa.int64())}), drift)
    s3 = str(tmp_path / "s3")
    compress_table(str(drift), s3)
    with pytest.raises(ValueError, match="schema"):
        union_table_store([s1, s3], str(tmp_path / "x"))
    with pytest.raises(ValueError, match="duplicate"):
        union_table_store([s1, s1], str(tmp_path / "y"))
    with pytest.raises(ValueError, match="destination"):
        union_table_store([s1, dst], dst)


def test_explain_table_store(ray_session, tmp_path):
    """EXPLAIN from the manifest alone: decisions agree with the actual
    scan's prune stats, and pruned_by names the first pruning
    predicate."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        explain_table_store,
        predicate_scan_table_store,
    )

    parts = []
    for k in range(4):
        ids = np.arange(k * 250, (k + 1) * 250, dtype=np.int64)
        p = tmp_path / f"part-{k}.parquet"
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(ids),
                    "tag": pa.array(
                        ["alpha" if k == 0 else "beta"] * 250
                    ),
                }
            ),
            p,
        )
        parts.append(str(p))
    store = str(tmp_path / "store")
    compress_table(parts, store)

    preds = [("range", "id", 0, 300), ("like", "tag", "%alpha%")]
    plan = explain_table_store(store, preds).to_pandas()
    assert len(plan) == 4
    by_dec = plan.groupby("decision").size().to_dict()
    assert by_dec.get("scan") == 1  # only fragment 0 passes both
    assert by_dec.get("skip") == 3
    reasons = set(plan[plan["decision"] == "skip"]["pruned_by"])
    assert "range:id" in reasons  # fragments 2,3 zone-pruned
    assert "like:tag" in reasons  # fragment 1 bloom-pruned
    assert (plan[plan["decision"] == "scan"]["pruned_by"] == "").all()

    # execution agrees with EXPLAIN
    st: dict = {}
    got = predicate_scan_table_store(store, preds, stats_out=st)
    # frag 1 overlaps the range but its bloom lacks "alpha": 0 rows
    assert got.to_arrow().num_rows == 250


def test_upsert_table_store_crash_resume(ray_session, tmp_path, monkeypatch):
    """Driver dies mid-upsert (after the first rewrite commit): resume
    finishes only the remaining fragments + the delta append, and the
    merged read is exact."""
    import fsst_like_ray.pipelines.tablestore as TS

    n = 1200
    frag = tmp_path / "src"
    frag.mkdir()
    step = n // 3
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"id": pa.array(ids), "v": pa.array(ids * 7)})
    for i in range(3):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    TS.compress_table(str(frag), src)

    # delta touches EVERY fragment (one key per zone) → 3 rewrites
    delta = pa.table(
        {
            "id": pa.array([5, 450, 900], type=pa.int64()),
            "v": pa.array([-1, -2, -3], type=pa.int64()),
        }
    )
    dpath = tmp_path / "delta.parquet"
    pq.write_table(delta, dpath)

    calls = {"n": 0}
    orig_commit = TS.Manifest.commit

    def dying(self, record):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash")
        return orig_commit(self, record)

    dst = str(tmp_path / "dst")
    monkeypatch.setattr(TS.Manifest, "commit", dying)
    with pytest.raises(Exception, match="injected crash"):
        TS.upsert_table_store(
            src, dst, str(dpath), "id", fragments_per_round=1
        )
    assert len(TS.Manifest(dst).completed()) == 1
    monkeypatch.setattr(TS.Manifest, "commit", orig_commit)

    stats: dict = {}
    TS.upsert_table_store(src, dst, str(dpath), "id", stats_out=stats)
    assert stats["fragments_rewritten"] == 2  # resumed, not restarted
    got = (
        TS.read_table_store(dst)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert len(got) == n
    assert got.loc[got["id"] == 5, "v"].item() == -1
    assert got.loc[got["id"] == 450, "v"].item() == -2
    assert got.loc[got["id"] == 900, "v"].item() == -3
    assert got.loc[got["id"] == 6, "v"].item() == 42


def test_union_table_store_crash_resume(ray_session, tmp_path, monkeypatch):
    """Driver dies mid-union: the uncommitted copy is invisible, resume
    copies only what's missing, vacuum would have reclaimed the orphan."""
    import fsst_like_ray.pipelines.tablestore as TS

    stores = []
    for k in range(2):
        p = tmp_path / f"in{k}.parquet"
        ids = np.arange(k * 500, (k + 1) * 500, dtype=np.int64)
        pq.write_table(pa.table({"id": pa.array(ids)}), p)
        s = str(tmp_path / f"s{k}")
        TS.compress_table(str(p), s)
        stores.append(s)

    calls = {"n": 0}
    orig_commit = TS.Manifest.commit

    def dying(self, record):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash")
        return orig_commit(self, record)

    dst = str(tmp_path / "merged")
    monkeypatch.setattr(TS.Manifest, "commit", dying)
    with pytest.raises(Exception, match="injected crash"):
        TS.union_table_store(stores, dst, fragments_per_round=1)
    assert len(TS.Manifest(dst).completed()) == 1
    monkeypatch.setattr(TS.Manifest, "commit", orig_commit)

    stats: dict = {}
    TS.union_table_store(stores, dst, stats_out=stats)
    assert stats["fragments_copied"] == 1  # only the missing one
    assert TS.read_table_store(dst).count() == 1000


def test_store_intkey_bloom_pruned_eq(ray_session, tmp_path):
    """Per-fragment int-key value blooms: fragments whose key sets
    interleave (key % 4 == fragment) share one overlapping zone envelope,
    so zones alone cannot prune an equality — the value bloom must skip
    the 3 fragments that provably lack the key. IN lists and degenerate
    ranges (lo == hi) ride the same evidence; legacy manifests without
    blooms scan everything; results stay correct either way."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        count_where_table_store,
        explain_table_store,
        predicate_scan_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n_keys = 4000
    for f in range(4):  # fragment f holds keys ≡ f (mod 4): zones overlap
        keys = np.arange(f, n_keys, 4, dtype=np.int64)
        t = pa.table(
            {
                "user_id": pa.array(keys),
                "kind": pa.array(["k%d" % (k % 5) for k in keys]),
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet", row_group_size=512)
    compress_table(str(src), out, batch_rows=512)

    target = 2501  # lives in fragment 1 only (2501 % 4 == 1)
    stats: dict = {}
    got = predicate_scan_table_store(
        out, [("eq", "user_id", target)], columns=["user_id", "kind"],
        stats_out=stats,
    ).to_arrow().to_pandas()
    assert stats == _scan_stats(stats, 1, 3)
    assert got["user_id"].tolist() == [target]

    # IN over keys from two residue classes: exactly 2 fragments survive
    stats_in: dict = {}
    got_in = predicate_scan_table_store(
        out, [("in", "user_id", [8, 2501])], columns=["user_id"],
        stats_out=stats_in,
    ).to_arrow().to_pandas()
    assert stats_in == _scan_stats(stats_in, 2, 2)
    assert sorted(got_in["user_id"]) == [8, 2501]

    # degenerate range lo == hi uses the bloom too (count_where path)
    stats_rg: dict = {}
    n = count_where_table_store(
        out, [("range", "user_id", target, target)], stats_out=stats_rg
    )
    assert n == 1 and stats_rg["fragments_skipped"] == 3

    # explain labels the bloom prune on the predicate, manifest-only
    plan = explain_table_store(out, [("eq", "user_id", target)]).to_pandas()
    assert (plan["decision"] == "skip").sum() == 3
    assert set(plan.loc[plan["decision"] == "skip", "pruned_by"]) == {
        "eq:user_id"
    }

    # an absent key in ALL residue classes' gaps: value 4001 % 4 == 1 but
    # never generated past n_keys — bloom may or may not prune (no false
    # negatives guaranteed only), result must be empty either way
    got_absent = predicate_scan_table_store(
        out, [("eq", "user_id", n_keys + 1)], columns=["user_id"]
    ).to_arrow().to_pandas()
    assert len(got_absent) == 0

    # legacy manifests (no blooms) keep every fragment, same rows
    mdir = os.path.join(out, "_manifest")
    for fname in os.listdir(mdir):
        p = os.path.join(mdir, fname)
        r = json.load(open(p))
        r.pop("trigrams", None)
        json.dump(r, open(p, "w"))
    stats_legacy: dict = {}
    got_legacy = predicate_scan_table_store(
        out, [("eq", "user_id", target)], columns=["user_id"],
        stats_out=stats_legacy,
    ).to_arrow().to_pandas()
    assert stats_legacy["fragments_skipped"] == 0
    assert got_legacy["user_id"].tolist() == [target]


def test_store_ndv_lineage(ray_session, tmp_path):
    """Encode-time HLL registers per int/string column ride the lineage
    manifest: ndv_table_store answers approx COUNT(DISTINCT) with no Ray
    session and no file opens, within HLL tolerance; registers max-merge
    across fragments (overlapping key sets must not double-count);
    compaction's lineage merge carries them; legacy manifests raise for
    the column and omit it from the rollup."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compact_table_store,
        compress_table,
        ndv_table_store,
        store_lineage_rollup,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n = 3000
    for f in range(3):  # user_id sets OVERLAP across fragments
        ids = np.arange(f * 1000, f * 1000 + n, dtype=np.int64)
        t = pa.table(
            {
                "user_id": pa.array(ids % 2000),  # 2000 distinct overall
                "kind": pa.array(["k%d" % (i % 7) for i in range(n)]),
                "value": pa.array(np.linspace(0.0, 1.0, n)),  # float: no NDV
            }
        )
        pq.write_table(t, src / f"part-{f}.parquet", row_group_size=700)
    compress_table(str(src), out, batch_rows=512)

    ndv = ndv_table_store(out)
    assert set(ndv) == {"user_id", "kind"}
    assert abs(ndv["user_id"] - 2000) <= 2000 * 0.08  # ~1.6% sigma, 5x slack
    assert ndv["kind"] == 7  # linear-counting regime is near-exact
    assert ndv_table_store(out, "kind") == {"kind": 7}

    roll = store_lineage_rollup(out)
    assert roll["columns"]["user_id"]["ndv"] == ndv["user_id"]
    assert "ndv" not in roll["columns"]["value"]

    # compaction merges lineage; the packed store answers identically
    packed = str(tmp_path / "packed")
    compact_table_store(out, packed, target_rows=10_000)
    assert ndv_table_store(packed) == ndv

    # legacy manifests (no ndv field): column raises, rollup omits
    mdir = os.path.join(out, "_manifest")
    for fname in os.listdir(mdir):
        p = os.path.join(mdir, fname)
        r = json.load(open(p))
        r.pop("ndv", None)
        json.dump(r, open(p, "w"))
    with pytest.raises(KeyError):
        ndv_table_store(out, "user_id")
    assert ndv_table_store(out) == {}


def test_alp_negative_zero_bit_exact():
    """-0.0 must survive the ALP decimal transform: its sign lives through
    float division but not the int64 cast (round(-0.0 * 10^e) stores int
    0, which decodes to +0.0). The exactness gate verifies from the
    STORED int, so -0.0 rows become exceptions carrying raw bits."""
    from fsst_like_ray.pipelines.columnar import (
        decode_columns_batch,
        encode_columns_batch,
    )

    for vals in ([-0.0], [-0.0] * 5, [1.5, -0.0, 2.5, -0.0] * 300):
        t = pa.table({"f": pa.array(vals, type=pa.float64())})
        dec = decode_columns_batch(encode_columns_batch(t))
        a = t["f"].to_numpy(zero_copy_only=False).view(np.int64)
        d = (
            dec["f"]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .view(np.int64)
        )
        assert np.array_equal(a, d), vals[:4]


def test_store_derive_backfill(ray_session, tmp_path):
    """derive_table_store backfills a derived column without the source:
    original columns verify bit-exact, the new column gets zones (a range
    scan on it prunes), NDV lineage, and a second run is a resume no-op;
    a derive_fn that corrupts row counts is refused with nothing
    committed."""
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        derive_table_store,
        ndv_table_store,
        read_table_store,
        scan_table_store,
    )
    from fsst_like_ray.state.manifest import Manifest

    # nested (not module-level) so cloudpickle ships them by VALUE into
    # the Ray tasks — the tests package is not importable on workers
    def _derive_cents(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "value_cents",
            pa.array(
                np.floor(v * 100 + 0.5).astype(np.int64), type=pa.int64()
            ),
        )

    def _derive_drops_rows(t: pa.Table) -> pa.Table:
        return _derive_cents(t).slice(0, max(0, t.num_rows - 1))

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n = 1200
    for f in range(3):  # disjoint value ranges → derived zones disjoint
        base = f * 1000.0
        t = pa.table(
            {
                "event_id": pa.array(
                    np.arange(f * n, f * n + n, dtype=np.int64)
                ),
                "value": pa.array(base + np.linspace(0.0, 999.0, n)),
                "kind": pa.array(["k%d" % (i % 3) for i in range(n)]),
            }
        )
        pq.write_table(t, src / f"p{f}.parquet", row_group_size=500)
    compress_table(str(src), out, batch_rows=512)

    dst = str(tmp_path / "derived")
    st = derive_table_store(out, dst, _derive_cents, batch_rows=512)
    assert st["fragments"] == 3 and st["rows"] == 3 * n

    # source data still decodes bit-exact from the derived store (the
    # per-fragment verify inside derive already proved it; spot-check by
    # value here since verify_table_store compares FULL schemas)
    got = read_table_store(dst).to_pandas().sort_values("event_id")
    assert np.array_equal(
        got["value"].to_numpy(),
        np.concatenate(
            [f * 1000.0 + np.linspace(0.0, 999.0, n) for f in range(3)]
        ),
    )
    exp = np.floor(
        np.concatenate(
            [f * 1000.0 + np.linspace(0.0, 999.0, n) for f in range(3)]
        )
        * 100
        + 0.5
    ).astype(np.int64)
    assert np.array_equal(got["value_cents"].to_numpy(), exp)

    # derived column carries zones: a selective range prunes fragments
    stats: dict = {}
    hit = scan_table_store(
        dst, "value_cents", lo=150_000, hi=160_000,
        columns=["event_id", "value_cents"], stats_out=stats,
    ).to_arrow().to_pandas()
    assert stats["fragments_skipped"] == 2
    assert (hit["value_cents"].between(150_000, 160_000)).all()
    # and NDV lineage
    assert "value_cents" in ndv_table_store(dst)

    # resume: nothing rewrites on a second run
    def mtimes():
        return sorted(
            os.path.getmtime(os.path.join(dst, "data", f"frag={r['frag_key']}", p))
            for r in Manifest(dst).completed().values()
            for p in os.listdir(os.path.join(dst, "data", f"frag={r['frag_key']}"))
        )

    m0 = mtimes()
    derive_table_store(out, dst, _derive_cents, batch_rows=512)
    assert mtimes() == m0

    # a row-corrupting derive is refused, destination stays empty
    bad = str(tmp_path / "bad")
    with pytest.raises(Exception):
        derive_table_store(out, bad, _derive_drops_rows, batch_rows=512)
    assert not Manifest(bad).completed()


def test_derive_table_store_crash_resume(ray_session, tmp_path, monkeypatch):
    """Driver dies between derive commits: only the fragment committed
    BEFORE the crash is visible; the resumed run derives exactly the
    remaining fragments (no rewrite of the committed one) and the final
    corpus carries the derived column on every row."""
    import fsst_like_ray.pipelines.tablestore as TS

    n = 1800
    t = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(np.arange(n, dtype=np.float64) / 8.0),
        }
    )
    frag = tmp_path / "src"
    frag.mkdir()
    step = (n + 2) // 3
    for i in range(3):
        pq.write_table(t.slice(i * step, step), frag / f"f{i}.parquet")
    src = str(tmp_path / "src_store")
    TS.compress_table(str(frag), src)
    dst = str(tmp_path / "dst")

    def add_oct(b: pa.Table) -> pa.Table:
        vv = b["v"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "v8", pa.array((vv * 8).astype(np.int64), type=pa.int64())
        )

    calls = {"n": 0}
    orig_commit = TS.Manifest.commit

    def dying(self, record):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash")
        return orig_commit(self, record)

    monkeypatch.setattr(TS.Manifest, "commit", dying)
    with pytest.raises(Exception, match="injected crash"):
        TS.derive_table_store(src, dst, add_oct, fragments_per_round=1)
    assert len(TS.Manifest(dst).completed()) == 1
    monkeypatch.setattr(TS.Manifest, "commit", orig_commit)

    import os

    done1 = TS.Manifest(dst).completed()
    key1 = next(iter(done1.values()))["frag_key"]
    part1 = os.path.join(dst, "data", f"frag={key1}", "part-000000.parquet")
    m1 = os.path.getmtime(part1)
    TS.derive_table_store(src, dst, add_oct)
    assert os.path.getmtime(part1) == m1  # committed fragment untouched
    got = TS.read_table_store(dst).to_pandas().sort_values("id")
    assert got["v8"].tolist() == list(range(n))
    for rec in TS.Manifest(dst).completed().values():
        assert rec.get("derived_from") == src


def test_drop_columns_table_store(ray_session, tmp_path):
    """Column erasure: the dropped column's bytes AND lineage evidence
    (zones/blooms/NDV) are absent from the destination; kept columns
    verify bit-exact; unknown / all-column drops are refused."""
    import json
    import os

    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        drop_columns_table_store,
        ndv_table_store,
        read_table_store,
    )
    from fsst_like_ray.state.manifest import Manifest

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    n = 1500
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array((np.arange(n) * 7 % 97).astype(np.int64)),
            "kind": pa.array(["k%d" % (i % 3) for i in range(n)]),
        }
    )
    for f in range(2):
        pq.write_table(t.slice(f * 750, 750), src / f"p{f}.parquet")
    compress_table(str(src), out)

    dst = str(tmp_path / "dst")
    st = drop_columns_table_store(out, dst, ["user_id"])
    assert st["fragments"] == 2
    got = read_table_store(dst).to_pandas().sort_values("event_id")
    assert list(got.columns) == ["event_id", "kind"]
    assert got["event_id"].tolist() == list(range(n))
    assert got["kind"].tolist() == ["k%d" % (i % 3) for i in range(n)]
    assert "user_id" not in ndv_table_store(dst)
    for rec in Manifest(dst).completed().values():
        assert rec.get("projected_from") == out
        assert "user_id" not in (rec.get("zones") or {})
        assert "user_id" not in (rec.get("trigrams") or {})
        assert "user_id" not in (rec.get("columns") or {})

    with pytest.raises(KeyError):
        drop_columns_table_store(out, str(tmp_path / "x"), ["nope"])
    with pytest.raises(ValueError):
        drop_columns_table_store(
            out, str(tmp_path / "y"), ["event_id", "user_id", "kind"]
        )


def test_histogram_table_store(ray_session, tmp_path):
    """Equi-width histogram off encoded streams: int bins match a NumPy
    fold under the same integer floor-division rule, explicit bounds put
    out-of-range values in the -1 / n_bins fold bins, nulls drop, and
    the float path buckets logical values with hi landing in the last
    bin."""
    from fsst_like_ray.pipelines.tablestore import (
        compress_table,
        histogram_table_store,
    )

    src = tmp_path / "src"
    out = str(tmp_path / "out")
    src.mkdir()
    rng = np.random.default_rng(3)
    n = 4000
    v = rng.integers(-50, 450, n).astype(np.int64)
    fv = rng.normal(0.0, 2.0, n)
    valid = np.ones(n, dtype=bool)
    valid[::13] = False
    t = pa.table(
        {
            "doc": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(v, type=pa.int64()),
            "f": pa.array(np.where(valid, fv, np.nan), from_pandas=False),
        }
    )
    # nulls via mask on v
    t = t.set_column(
        1, "v", pa.Array.from_pandas(np.where(valid, v, 0), mask=~valid)
    )
    for i in range(3):
        pq.write_table(t.slice(i * 1400, 1400), src / f"p{i}.parquet")
    compress_table(str(src), out, batch_rows=700)

    # int column, explicit bounds with under/overflow
    lo, hi, nb = 0, 399, 8
    got = histogram_table_store(out, "v", lo=lo, hi=hi, n_bins=nb)
    gv = v[valid]
    bins = np.clip(((gv - lo) * nb) // (hi - lo + 1), -1, nb)
    exp = {int(b): int(c) for b, c in zip(*np.unique(bins, return_counts=True))}
    assert {
        int(b): int(c)
        for b, c in zip(got["bin"].to_pylist(), got["count"].to_pylist())
    } == exp
    assert -1 in exp and nb in exp  # the planted out-of-range mass

    # default bounds = manifest zone envelope = exact min/max
    got2 = histogram_table_store(out, "v", n_bins=4)
    assert sum(got2["count"].to_pylist()) == int(valid.sum())
    assert min(got2["bin"].to_pylist()) == 0
    assert max(got2["bin"].to_pylist()) == 3

    # float column: hi lands in the last bin, NaN rows are real values
    # here (from_pandas=False kept them), so count them too
    gotf = histogram_table_store(out, "f", lo=-8.0, hi=8.0, n_bins=4)
    fva = np.where(valid, fv, np.nan)
    fbins = np.floor((fva + 8.0) * 4 / 16.0).astype(np.int64)
    fbins[np.isnan(fva)] = -1  # NaN comparisons are False → clip path
    total = sum(gotf["count"].to_pylist())
    assert total <= n and total >= int(valid.sum())


def test_float64_xor_transform():
    """F64_XOR (Gorilla float xor, VLDB'15 s4.1.2) as a spec-forcible
    transform. Honest finding, pinned here: in this 32-bit-word layout the
    estimator prices base-shifted BITS below XOR on every distribution we
    probed (XOR's shared-prefix win needs bit-granular windows), so the
    AUTO path picks bits — the estimator-backed choice, not a span proxy —
    while a forced spec still round-trips bit-exact."""
    from fsst_like_ray.pipelines.columnar import (
        _est64_cost,
        _xor64_fwd,
        encode_columns_batch,
        train_columnar_spec,
    )

    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.normal(0, 1e-6, 4000)) * np.pi
    specials = np.concatenate(
        [walk[:100], [np.nan, np.inf, -np.inf, -0.0, 0.0], walk[100:200]]
    )
    t = pa.table({"v": pa.array(specials, type=pa.float64())})

    # forced spec: xor encodes, spec label survives, decode is bit-exact
    # (XOR needs no NaN/inf sidecar — it is an involution on raw bits)
    spec = train_columnar_spec(t)
    spec["v"]["f64"] = "xor"
    spec["v"].pop("alp_e", None)
    dec = decode_columns_batch(encode_columns_batch(t, spec=spec))
    assert dec["v"].to_numpy(zero_copy_only=False).tobytes() == \
        specials.tobytes()
    from fsst_like_ray.pipelines.columnar import columnar_stats_batch

    st = columnar_stats_batch(encode_columns_batch(t, spec=spec)).to_pandas()
    assert st[st["column"] == "v"]["scheme"].iloc[0].startswith("x64(")

    # auto path: estimator-backed (bits wins here) and still bit-exact
    auto_spec = train_columnar_spec(t)
    assert auto_spec["v"]["f64"] == "bits"
    assert _est64_cost(specials.view(np.int64)) <= _est64_cost(
        _xor64_fwd(specials.view(np.int64))
    )
    dec2 = decode_columns_batch(encode_columns_batch(t))
    assert dec2["v"].to_numpy(zero_copy_only=False).tobytes() == \
        specials.tobytes()

    # decimal data still routes to ALP, never xor
    dec_vals = np.round(rng.uniform(0, 1000, 2000), 2)
    t3 = pa.table({"v": pa.array(dec_vals, type=pa.float64())})
    assert train_columnar_spec(t3)["v"]["f64"] == "alp"

    # the transform itself: involution via accumulate
    bits = walk[:257].view(np.int64)
    x = _xor64_fwd(bits)
    back = np.bitwise_xor.accumulate(x.view(np.uint64)).view(np.int64)
    assert np.array_equal(back, bits)


def test_float64_xor_empty_block_and_version_stamp():
    """Review regressions: a forced-xor spec must survive a 0-row batch
    (Ray map_batches emits them), and xor envelopes stamp ENV_VERSION_XOR
    so a pre-xor reader fails loudly instead of returning garbage."""
    from fsst_like_ray.pipelines.columnar import (
        ENV_VERSION,
        ENV_VERSION_XOR,
        encode_columns_batch,
        train_columnar_spec,
    )

    t = pa.table({"v": pa.array(np.linspace(0.1, 9.9, 64) * np.pi)})
    spec = train_columnar_spec(t)
    spec["v"]["f64"] = "xor"
    spec["v"].pop("alp_e", None)
    empty = decode_columns_batch(
        encode_columns_batch(t.slice(0, 0), spec=spec)
    )
    assert empty.num_rows == 0
    def first_env(enc):
        col = enc["v__blk"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return bytes(col[0].as_py())

    assert first_env(encode_columns_batch(t, spec=spec))[0] == \
        ENV_VERSION_XOR
    assert first_env(encode_columns_batch(t))[0] == ENV_VERSION


@pytest.fixture(scope="module")
def parity_store(ray_session, tmp_path_factory):
    """A 4-fragment store for the executor parity tests: int id/ts/x
    (x with nulls), two string keys, a text column whose needle lives
    in fragment 1 only (so LIKE prunes) and a float column f."""
    from fsst_like_ray.pipelines.tablestore import compress_table

    base = tmp_path_factory.mktemp("parity")
    rng = np.random.default_rng(47)
    n = 2400
    src = base / "src"
    src.mkdir()
    t = pa.table(
        {
            "id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(rng.integers(0, 10_000, n), type=pa.int64()),
            "x": pa.array(
                [None if i % 11 == 0 else int(v)
                 for i, v in enumerate(rng.integers(-50, 500, n))],
                type=pa.int64(),
            ),
            "g": pa.array(rng.choice(["web", "books", "code"], n).tolist()),
            "h": pa.array(rng.choice(["a", "b"], n).tolist()),
            "text": pa.array(
                [
                    f"row {i} "
                    + ("needle " if i // 600 == 1 and i % 7 == 0 else "")
                    + " ".join(rng.choice(["merge", "sort", "ray"], 3))
                    for i in range(n)
                ]
            ),
            # quarter steps: float sums stay exact in any fold order
            "f": pa.array(rng.integers(-400, 400, n) / 4, type=pa.float64()),
        }
    )
    for f in range(4):
        pq.write_table(
            t.slice(f * 600, 600), src / f"f{f}.parquet", row_group_size=200
        )
    store = str(base / "store")
    compress_table(str(src), store)
    return store


def _on_both_executors(monkeypatch, call):
    """``call(stats_out)`` with the executor threshold at 0 (every scan
    through Ray) and at 1 TiB (every scan in the driver) → the two
    results and stats dicts, after checking each side's executor (a
    scan with no surviving part reads nothing and stays in the driver)."""
    from fsst_like_ray.pipelines import tablestore as ts

    out = {}
    for side, cap in (("ray", 0), ("driver", 1 << 40)):
        monkeypatch.setattr(ts, "DRIVER_SCAN_BYTES", cap)
        stats: dict = {}
        out[side] = (call(stats), stats)
        assert stats["executor"] == (side if stats["scan_bytes"] else "driver")
    return out["ray"], out["driver"]


def _same_stats(drv_st: dict, ray_st: dict) -> None:
    """Both executors report the same stats, bar the executor itself."""
    assert {**drv_st, "executor": None} == {**ray_st, "executor": None}


def _sorted(t: pa.Table) -> pa.Table:
    """One table sorted by every column (Ray may deliver blocks in any
    order)."""
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.parametrize(
    "what",
    [
        "like_all_cols", "like_proj", "like_kmp", "like_pruned",
        "scan_all_cols", "scan_proj", "scan_pruned",
        "pred_proj", "pred_kmp", "pred_pruned",
        "sample_all_cols", "sample_proj",
    ],
)
def test_scan_executor_parity(parity_store, monkeypatch, what):
    """like / scan / predicate_scan / sample return identical tables
    (schema included) and identical prune counters on the Ray and the
    driver executor, read through to_arrow and through iter_batches —
    for all columns and a projection, engine auto and a forced engine,
    and all-pruned scans."""
    from fsst_like_ray.pipelines import tablestore as ts

    calls = {
        "like_all_cols": lambda s: ts.like_table_store(
            parity_store, "text", "%needle%", stats_out=s
        ),
        "like_proj": lambda s: ts.like_table_store(
            parity_store, "text", "%sort%", columns=["id", "g"], stats_out=s
        ),
        "like_kmp": lambda s: ts.like_table_store(
            parity_store, "text", "%ray merge%", columns=["id"],
            engine="kmp", stats_out=s,
        ),
        "like_pruned": lambda s: ts.like_table_store(
            parity_store, "text", "%zzzabsent%", columns=["id"], stats_out=s
        ),
        "scan_all_cols": lambda s: ts.scan_table_store(
            parity_store, "id", 500, 1300, stats_out=s
        ),
        "scan_proj": lambda s: ts.scan_table_store(
            parity_store, "ts", 100, 4000, columns=["id", "x"], stats_out=s
        ),
        "scan_pruned": lambda s: ts.scan_table_store(
            parity_store, "id", 10**6, None, columns=["id"], stats_out=s
        ),
        "pred_proj": lambda s: ts.predicate_scan_table_store(
            parity_store,
            [("range", "id", 0, 1500), ("like", "text", "%needle%")],
            columns=["id", "text"], stats_out=s,
        ),
        "pred_kmp": lambda s: ts.predicate_scan_table_store(
            parity_store,
            [("in", "g", ["web", "code"]), ("like", "text", "%merge sort%")],
            engine="kmp", stats_out=s,
        ),
        "pred_pruned": lambda s: ts.predicate_scan_table_store(
            parity_store, [("eq", "text", "zzzabsentvalue")],
            columns=["id"], stats_out=s,
        ),
        "sample_all_cols": lambda s: ts.sample_table_store(
            parity_store, "id", 0.3, seed=5, stats_out=s
        ),
        "sample_proj": lambda s: ts.sample_table_store(
            parity_store, "id", 0.3, seed=5, columns=["ts", "g"],
            stats_out=s,
        ),
    }
    (ray_r, ray_st), (drv_r, drv_st) = _on_both_executors(
        monkeypatch, calls[what]
    )
    drv_t = _sorted(drv_r.to_arrow())
    for r in (ray_r, drv_r):
        batches = list(r.iter_batches(batch_format="pyarrow"))
        for t in (
            r.to_arrow(), pa.concat_tables(batches, promote_options="default")
        ):
            t = _sorted(t)
            assert t.schema.equals(drv_t.schema), (t.schema, drv_t.schema)
            assert t.equals(drv_t)
    _same_stats(drv_st, ray_st)
    if what.endswith("pruned"):
        assert drv_t.num_rows == 0 and drv_st["fragments_scanned"] == 0
    else:
        assert drv_t.num_rows > 0


@pytest.mark.parametrize(
    "what",
    [
        "count", "count_kmp", "count_pruned",
        "group", "group_aggs", "group_composite", "group_bucket",
        "group_pruned", "group_aggs_pruned", "group_topk",
        "count_range", "agg_int", "agg_float", "topk", "topk_preds",
        "topk_pruned", "distinct_str", "distinct_int",
    ],
)
def test_agg_executor_parity(parity_store, monkeypatch, what):
    """count_where / group_agg (single key, aggs=, composite key,
    bucket=, all-pruned) / group_topk / range count / scalar agg (int
    and float) / topk (with and without preds, all-pruned) / distinct
    give identical results and prune counters on the Ray and the driver
    executor."""
    from fsst_like_ray.pipelines import tablestore as ts

    rng_pred = [("range", "id", 300, 2000)]
    calls = {
        "count": lambda s: ts.count_where_table_store(
            parity_store, rng_pred + [("like", "text", "%sort%")],
            stats_out=s,
        ),
        "count_kmp": lambda s: ts.count_where_table_store(
            parity_store, [("like", "text", "%needle%")], engine="kmp",
            stats_out=s,
        ),
        "count_pruned": lambda s: ts.count_where_table_store(
            parity_store, [("range", "id", -9, -1)], stats_out=s
        ),
        "group": lambda s: ts.group_agg_table_store(
            parity_store, "g", "x", preds=rng_pred, stats_out=s
        ),
        "group_aggs": lambda s: ts.group_agg_table_store(
            parity_store, "g",
            aggs={"x": ("sum", "min", "max", "count"), "ts": ("max",)},
            preds=[("like", "text", "%merge%")], engine="kmp", stats_out=s,
        ),
        "group_composite": lambda s: ts.group_agg_table_store(
            parity_store, ["g", "h"], "x", stats_out=s
        ),
        "group_bucket": lambda s: ts.group_agg_table_store(
            parity_store, "ts", "x", bucket=1000, preds=rng_pred,
            stats_out=s,
        ),
        "group_pruned": lambda s: ts.group_agg_table_store(
            parity_store, "g", "x", preds=[("range", "id", -9, -1)],
            stats_out=s,
        ),
        "group_aggs_pruned": lambda s: ts.group_agg_table_store(
            parity_store, "g", aggs={"x": ("sum",)},
            preds=[("range", "id", -9, -1)], stats_out=s,
        ),
        "group_topk": lambda s: ts.group_topk_table_store(
            parity_store, "g", "id", 3, columns=["x"], preds=rng_pred,
            stats_out=s,
        ),
        # fragment 1 counts from metadata, 0 and 2 scan, 3 skips
        "count_range": lambda s: ts.count_table_store(
            parity_store, "id", 500, 1300, stats_out=s
        ),
        "agg_int": lambda s: ts.agg_table_store(parity_store, "x", stats_out=s),
        "agg_float": lambda s: ts.agg_table_store(
            parity_store, "f", stats_out=s
        ),
        "topk": lambda s: ts.topk_table_store(
            parity_store, "id", 5, columns=["id", "g"], stats_out=s
        ),
        "topk_preds": lambda s: ts.topk_table_store(
            parity_store, "id", 4, descending=False,
            preds=[("like", "text", "%needle%")], stats_out=s,
        ),
        "topk_pruned": lambda s: ts.topk_table_store(
            parity_store, "id", 4, columns=["id", "x"],
            preds=[("range", "id", -9, -1)], stats_out=s,
        ),
        "distinct_str": lambda s: ts.distinct_table_store(
            parity_store, "g", stats_out=s
        ),
        "distinct_int": lambda s: ts.distinct_table_store(
            parity_store, "x", stats_out=s
        ),
    }
    (ray_r, ray_st), (drv_r, drv_st) = _on_both_executors(
        monkeypatch, calls[what]
    )
    if isinstance(ray_r, pa.Table):
        assert drv_r.schema.equals(ray_r.schema), (drv_r.schema, ray_r.schema)
        assert drv_r.equals(ray_r)
        assert (drv_r.num_rows == 0) == what.endswith("pruned")
    else:
        assert drv_r == ray_r and (drv_r == 0) == what.endswith("pruned")
    _same_stats(drv_st, ray_st)


def test_driver_scans_skip_ray_data(parity_store, monkeypatch, tmp_path):
    """Driver-executor LIKE, range scan, count and topk build no Ray
    Dataset (neither read_parquet_blocks nor from_arrow runs), and a
    Ray-executor scan stays lazy: its kernel first runs when
    iter_batches is consumed."""
    import os

    import ray.data

    from fsst_like_ray.pipelines import columnar, compress
    from fsst_like_ray.pipelines import tablestore as ts

    calls = []
    for mod, name in ((compress, "read_parquet_blocks"), (ray.data, "from_arrow")):
        real = getattr(mod, name)

        def spy(*a, _real=real, _name=name, **kw):
            calls.append(_name)
            return _real(*a, **kw)

        monkeypatch.setattr(mod, name, spy)
    like = ts.like_table_store(parity_store, "text", "%sort%", columns=["id"])
    scan = ts.scan_table_store(parity_store, "id", 500, 1300, columns=["id"])
    assert like.to_arrow().num_rows > 0
    assert sum(b.num_rows for b in scan.iter_batches()) == 801
    assert ts.count_table_store(parity_store, "id", 500, 1300) == 801
    assert ts.topk_table_store(parity_store, "id", 3)["id"].to_pylist() == [
        2399, 2398, 2397
    ]
    assert calls == []

    marker = str(tmp_path / "kernel_ran")
    real_kernel = columnar.range_scan_batch

    def kernel(*a, **kw):
        with open(marker, "a") as f:
            f.write("x")
        return real_kernel(*a, **kw)

    monkeypatch.setattr(columnar, "range_scan_batch", kernel)
    monkeypatch.setattr(ts, "DRIVER_SCAN_BYTES", 0)
    stats: dict = {}
    lazy = ts.scan_table_store(
        parity_store, "id", 500, 1300, columns=["id"], stats_out=stats
    )
    assert stats["executor"] == "ray" and calls == ["read_parquet_blocks"]
    assert not os.path.exists(marker)
    assert sum(b.num_rows for b in lazy.iter_batches()) == 801
    assert os.path.exists(marker)


def test_large_store_scans_through_ray(parity_store, monkeypatch):
    """A store whose surviving parts exceed DRIVER_SCAN_BYTES runs its
    scan through the Ray read (read_parquet_blocks) and says so; one at
    or under it never touches Ray Data."""
    from fsst_like_ray.pipelines import compress
    from fsst_like_ray.pipelines import tablestore as ts

    reads = []
    real = compress.read_parquet_blocks

    def spy(paths, **kw):
        reads.append(list(paths))
        return real(paths, **kw)

    monkeypatch.setattr(compress, "read_parquet_blocks", spy)
    stats: dict = {}
    ts.like_table_store(
        parity_store, "text", "%sort%", columns=["id"], stats_out=stats
    )
    assert stats["executor"] == "driver" and reads == []
    assert 0 < stats["scan_bytes"] <= ts.DRIVER_SCAN_BYTES

    monkeypatch.setattr(ts, "DRIVER_SCAN_BYTES", stats["scan_bytes"] - 1)
    big: dict = {}
    n = ts.like_table_store(
        parity_store, "text", "%sort%", columns=["id"], stats_out=big
    ).to_arrow().num_rows
    assert big["executor"] == "ray" and len(reads) == 1
    assert big["scan_bytes"] == stats["scan_bytes"] > ts.DRIVER_SCAN_BYTES
    assert n > 0
    assert ts.count_where_table_store(
        parity_store, [("like", "text", "%sort%")], stats_out=big
    ) == n
    assert big["executor"] == "ray" and len(reads) == 2
