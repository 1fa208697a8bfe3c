"""Token-stage Ray Data pipeline tests: encode → decode roundtrips,
per-row decode verify, shared codec state and the n_tok skew histogram
(SURVEY.md §7.1 minimum slice + §5d). The persisted store and its
lifecycle are tested in test_columnar.py and test_loader.py."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.sources.tokens import write_tokens_parquet, tokens_table


def _collect(ds):
    import pyarrow as pa

    return pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows
    ).combine_chunks()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_tokens_parquet(str(d), n_rows=4000, seed=42, rows_per_file=1000)
    return str(d)


def test_forced_codec_pipeline(ray_session, corpus_dir):
    import ray.data
    from fsst_like_ray.pipelines import decode_dataset, encode_dataset
    from fsst_like_ray.pipelines.compress import discover_fragments

    frags = discover_fragments(corpus_dir)[:1]
    original = pq.read_table(frags[0]).sort_by("doc_id")
    for codec in ["plain", "rle", "fsst"]:
        enc = encode_dataset(ray.data.read_parquet(frags), codec=codec)
        enc = enc.materialize()
        used = {
            c
            for b in enc.iter_batches(batch_format="pyarrow")
            for c in b["codec"].to_pylist()
        }
        assert used == {codec}
        got = _collect(decode_dataset(enc)).sort_by("doc_id")
        assert got["doc_id"].to_pylist() == original["doc_id"].to_pylist()
        assert got["tokens"].to_pylist() == original["tokens"].to_pylist()


def test_skew_planner(ray_session, corpus_dir):
    import ray.data
    from fsst_like_ray.stages.skew import n_tok_histogram

    hist = n_tok_histogram(ray.data.read_parquet(corpus_dir))
    n_tok = pq.read_table(corpus_dir, columns=["n_tok"])["n_tok"]
    n_tok = n_tok.to_numpy().astype(np.int64)
    assert sum(c for c, _ in hist.values()) == 4000
    assert sum(t for _, t in hist.values()) == int(n_tok.sum())
    # bucket b > 0 holds 2^(b-1) <= n_tok < 2^b; bucket 0 holds n_tok == 0
    bucket = np.where(n_tok > 0, np.floor(np.log2(np.maximum(n_tok, 1))) + 1, 0)
    for b, (rows, toks) in hist.items():
        assert rows == int((bucket == b).sum())
        assert toks == int(n_tok[bucket == b].sum())


def test_decode_batch_mixed_states(ray_session):
    """Rows from different encode blocks (different symtabs) in ONE decode
    batch must still round-trip (parquet rewrite / shuffle scenario)."""
    import pyarrow as pa
    from fsst_like_ray.stages.encode import encode_table
    from fsst_like_ray.stages.decode import decode_batch

    t = tokens_table(400, seed=7)
    enc_a = encode_table(t.slice(0, 200), codec="fsst")
    enc_b = encode_table(t.slice(200, 200), codec="dict")
    mixed = pa.concat_tables([enc_a, enc_b]).combine_chunks()
    # interleave rows from the two blocks
    idx = list(range(0, 400, 2)) + list(range(1, 400, 2))
    mixed = mixed.take(pa.array(idx))
    dec = decode_batch(mixed)
    expect = t.take(pa.array(idx))
    assert dec["tokens"].to_pylist() == expect["tokens"].to_pylist()
    assert dec["doc_id"].to_pylist() == expect["doc_id"].to_pylist()


def test_decode_verify_rows(ray_session, corpus_dir):
    """Per-row integrity: decode_dataset(verify_rows=True) passes on good
    data and names doc_ids when a payload is corrupted."""
    import pyarrow as pa
    import ray.data
    from fsst_like_ray.pipelines import decode_dataset, encode_dataset

    enc = encode_dataset(ray.data.read_parquet(corpus_dir), codec="auto")
    enc = enc.materialize()
    assert decode_dataset(enc, verify_rows=True).count() == 4000
    # corrupt one row's payload bytes (keep sizes valid)
    t = _collect(enc)
    pay = t["payload"].to_pylist()
    row = next(i for i, p in enumerate(pay) if len(p or b"") >= 2)
    pay[row] = bytes([pay[row][0] ^ 0x01]) + pay[row][1:]
    t = t.set_column(
        t.schema.get_field_index("payload"),
        "payload",
        pa.array(pay, type=pa.large_binary()),
    )
    with pytest.raises(Exception, match="row-hash|row size|expand"):
        decode_dataset(
            ray.data.from_arrow(t), verify_rows=True
        ).count()


def test_shared_table_guards(ray_session):
    from fsst_like_ray.stages.encode import encode_table

    with pytest.raises(ValueError, match="explicit codec"):
        encode_table(tokens_table(8, seed=1), "auto", shared_state=b"x")


def test_shared_state_encodes_unseen_tokens(ray_session):
    """Train on one tiny distribution, encode a DISJOINT one: fsst escapes
    must keep the round-trip exact (the soundness claim behind
    SHARED_SAFE_CODECS)."""
    import numpy as np
    import pyarrow as pa

    from fsst_like_ray.codecs import CODECS
    from fsst_like_ray.stages.decode import decode_batch
    from fsst_like_ray.stages.encode import encode_table, list_buffers

    c = CODECS["fsst"]
    train_vals = np.arange(100, dtype=np.int32) % 7
    train_off = np.array([0, 50, 100], dtype=np.int64)
    state = bytes(c.train(train_vals, train_off))

    rng = np.random.default_rng(3)
    toks = rng.integers(10**6, 2**31 - 1, size=500, dtype=np.int32)
    batch = pa.table(
        {
            "doc_id": pa.array(np.arange(5), type=pa.int64()),
            "tokens": pa.ListArray.from_arrays(
                pa.array(np.arange(0, 501, 100, dtype=np.int32),
                         type=pa.int32()),
                pa.array(toks, type=pa.int32()),
            ),
            "n_tok": pa.array([100] * 5, type=pa.int32()),
            "source": pa.array(["s"] * 5),
        }
    )
    enc = encode_table(batch, "fsst", shared_state=state)
    dec = decode_batch(enc)
    got = np.concatenate(
        [np.asarray(r, dtype=np.int32) for r in dec["tokens"].to_pylist()]
    )
    assert np.array_equal(got, toks)


def test_shared_state_rejected_for_unsafe_codec_at_encode(ray_session):
    """The choke-point guard: a dict shared state must raise at
    encode_table, not corrupt silently."""
    import pytest as _pytest

    from fsst_like_ray.sources.tokens import tokens_table
    from fsst_like_ray.stages.encode import encode_table

    with _pytest.raises(ValueError, match="only sound"):
        encode_table(tokens_table(8, seed=2), "dict", shared_state=b"x")


