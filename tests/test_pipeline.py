"""Token-table pipeline tests on the columnar list family: forced-codec
encode → decode roundtrips, mixed-block decode and the n_tok skew
histogram (SURVEY.md §7.1 minimum slice + §5d). The persisted store and
its lifecycle are tested in test_columnar.py and test_loader.py."""

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
    """Every registered codec, forced through the columnar Dataset path,
    is the codec the tokens envelopes name, and the decode is exact."""
    import ray.data
    from fsst_like_ray.codecs import CODECS
    from fsst_like_ray.pipelines.columnar import (
        decode_columns_dataset,
        encode_columns_dataset,
        list_segment_runs,
    )
    from fsst_like_ray.pipelines.compress import discover_fragments

    frags = discover_fragments(corpus_dir)[:1]
    original = pq.read_table(frags[0]).sort_by("doc_id")
    for codec in sorted(CODECS):
        enc = encode_columns_dataset(
            ray.data.read_parquet(frags), codec_names=[codec]
        ).materialize()
        used = {
            seg[2]
            for b in enc.iter_batches(batch_format="pyarrow")
            for seg in list_segment_runs(b, "tokens")[0]
        }
        assert used == {codec}
        got = _collect(decode_columns_dataset(enc)).sort_by("doc_id")
        assert got["doc_id"].to_pylist() == original["doc_id"].to_pylist()
        assert got["tokens"].to_pylist() == original["tokens"].to_pylist()


def test_skew_planner(ray_session, tmp_path):
    """The n_tok skew histogram (registry query ntok_histogram): bucket
    b > 0 holds 2^(b-1) <= n_tok < 2^b, bucket 0 holds n_tok == 0."""
    import pyarrow as pa
    from fsst_like_ray.pipelines.queries import q_ntok_histogram

    rng = np.random.default_rng(4)
    n_tok = np.concatenate([[0, 0, 1], rng.integers(0, 3000, 400)])
    pq.write_table(
        pa.table(
            {
                "doc_id": np.arange(len(n_tok), dtype=np.int64),
                "text": ["x" * int(k) for k in n_tok],
                "source": ["s"] * len(n_tok),
            }
        ),
        tmp_path / "documents.parquet",
    )
    hist = {
        r["bucket"]: (r["rows"], r["tokens"])
        for r in q_ntok_histogram(str(tmp_path)).take_all()
    }
    bucket = np.where(n_tok > 0, np.floor(np.log2(np.maximum(n_tok, 1))) + 1, 0)
    assert sorted(hist) == sorted(set(bucket.astype(int).tolist()))
    for b, (rows, toks) in hist.items():
        assert rows == int((bucket == b).sum())
        assert toks == int(n_tok[bucket == b].sum())


def test_decode_batch_mixed_states(ray_session):
    """Rows from different encode blocks (different codecs and states) in
    ONE decode batch must still round-trip (parquet rewrite / shuffle
    scenario)."""
    import pyarrow as pa
    from fsst_like_ray.pipelines.columnar import (
        decode_columns_batch,
        encode_columns_batch,
    )

    t = tokens_table(400, seed=7)
    enc_a = encode_columns_batch(t.slice(0, 200), ["fsst"])
    enc_b = encode_columns_batch(t.slice(200, 200), ["dict"])
    mixed = pa.concat_tables([enc_a, enc_b]).combine_chunks()
    # interleave rows from the two blocks
    idx = list(range(0, 400, 2)) + list(range(1, 400, 2))
    dec = decode_columns_batch(mixed.take(pa.array(idx)))
    expect = t.take(pa.array(idx))
    assert dec["tokens"].to_pylist() == expect["tokens"].to_pylist()
    assert dec["doc_id"].to_pylist() == expect["doc_id"].to_pylist()
