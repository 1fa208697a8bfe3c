"""Compressed-domain pushdown kernels: per-codec stats/contains vs a NumPy
oracle on the decoded stream, including zone-check short-circuits and
empty rows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fsst_like_ray.codecs import CODECS
from fsst_like_ray.codecs.pushdown import (
    I32_MAX,
    I32_MIN,
    segment_contains,
    segment_stats,
    state_can_contain,
)

ALL = sorted(CODECS)


def _corpus(rng):
    """Row structures that exercise every codec's edge: empty rows, single
    tokens, long runs, negatives, wide values."""
    rows = [
        [],
        [7],
        [5, 5, 5, 5, 5, 5],
        list(rng.integers(0, 50, 40)),
        list(rng.integers(0, 2**20, 15)),
        [-3, -3, 0, 2**31 - 1, I32_MIN],
        list(np.sort(rng.integers(0, 10**6, 30))),
        [],
        [113, 113],
    ]
    values = np.array([t for r in rows for t in r], dtype=np.int32)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return rows, values, offsets


@pytest.mark.parametrize("name", ALL)
def test_segment_stats_matches_decoded(name):
    rng = np.random.default_rng(5)
    rows, values, offsets = _corpus(rng)
    c = CODECS[name]
    state, buf, po = c.train_encode(values, offsets)
    counts = np.diff(offsets)
    sums, mins, maxs = segment_stats(name, buf, po, counts, state)
    for i, r in enumerate(rows):
        assert sums[i] == sum(int(x) for x in r), (name, i)
        assert mins[i] == (min(r) if r else I32_MAX), (name, i)
        assert maxs[i] == (max(r) if r else I32_MIN), (name, i)


@pytest.mark.parametrize("name", ALL)
def test_segment_contains_matches_decoded(name):
    rng = np.random.default_rng(6)
    rows, values, offsets = _corpus(rng)
    c = CODECS[name]
    state, buf, po = c.train_encode(values, offsets)
    counts = np.diff(offsets)
    for tid in (5, 7, 113, 0, -3, 999_999_0, 2**31 - 1):
        got = segment_contains(name, buf, po, counts, state, tid)
        want = np.array([tid in r for r in rows])
        assert np.array_equal(got, want), (name, tid)


def test_zone_checks_prove_absence():
    # dict: token absent from the dictionary → whole segment ruled out
    v = np.array([2, 4, 6, 8], dtype=np.int32)
    off = np.array([0, 2, 4], dtype=np.int64)
    state = CODECS["dict"].train(v, off)
    assert state_can_contain("dict", state, 4)
    assert not state_can_contain("dict", state, 5)
    # bitpack: width bound rules out anything >= 2^width (and negatives)
    state = CODECS["bitpack"].train(v, off)
    width = state[0]
    assert width < 32
    assert state_can_contain("bitpack", state, (1 << width) - 1)
    assert not state_can_contain("bitpack", state, 1 << width)
    assert not state_can_contain("bitpack", state, -1)
    # rlebp: FOR range [minv, minv + 2^vw) rules out values outside it
    v = np.array([100, 100, 100, 105, 105, 107], dtype=np.int32)
    off = np.array([0, 3, 6], dtype=np.int64)
    state = CODECS["rlebp"].train(v, off)
    vw = state[0]
    assert vw < 32
    assert state_can_contain("rlebp", state, 100)
    assert state_can_contain("rlebp", state, 107)
    # 106 is INSIDE the width range (conservative zone keeps it)
    assert state_can_contain("rlebp", state, 100 + (1 << vw) - 1)
    assert not state_can_contain("rlebp", state, 100 + (1 << vw))
    assert not state_can_contain("rlebp", state, 99)


@pytest.mark.parametrize("name", ALL)
def test_segment_histogram_matches_decoded(name):
    from fsst_like_ray.codecs.pushdown import segment_histogram

    rng = np.random.default_rng(7)
    rows, values, offsets = _corpus(rng)
    c = CODECS[name]
    state, buf, po = c.train_encode(values, offsets)
    counts = np.diff(offsets)
    v, n = segment_histogram(name, buf, po, counts, state)
    want_v, want_n = np.unique(values, return_counts=True)
    assert np.array_equal(np.sort(v), np.asarray(v)), name  # sorted contract
    assert np.array_equal(v, want_v), name
    assert np.array_equal(n, want_n.astype(np.int64)), name


def test_numscan_on_mixed_columnar_blocks(ray_session):
    """One batch holding rows of three columnar blocks with different
    forced codecs, interleaved row by row: the compressed-domain
    token_stats, contains_token_scan and token_histogram must equal the
    answers computed on the decoded rows."""
    import ray.data

    from fsst_like_ray.pipelines.columnar import (
        decode_columns_batch,
        encode_columns_batch,
        list_segment_runs,
    )
    from fsst_like_ray.pipelines.numscan import (
        contains_token_scan,
        token_histogram,
        token_stats,
    )
    from fsst_like_ray.sources.tokens import tokens_table

    t = tokens_table(300, seed=11)
    blocks = [
        encode_columns_batch(t.slice(100 * k, 100), [codec])
        for k, codec in enumerate(("rle", "dict", "fsst"))
    ]
    mixed = pa.concat_tables(blocks).combine_chunks()
    mixed = mixed.take(pa.array(np.arange(300).reshape(3, 100).T.ravel()))
    segments = list_segment_runs(mixed, "tokens")[0]
    assert len(segments) == 300
    assert {s[2] for s in segments} == {"rle", "dict", "fsst"}

    dec = decode_columns_batch(mixed)
    rows = dict(zip(dec["doc_id"].to_pylist(), dec["tokens"].to_pylist()))
    ds = ray.data.from_arrow(mixed)

    stats = {r["doc_id"]: r for r in token_stats(ds).take_all()}
    assert stats.keys() == rows.keys()
    for doc, toks in rows.items():
        got = stats[doc]
        assert got["n_tok"] == len(toks)
        assert got["tok_sum"] == sum(toks)
        assert got["tok_min"] == (min(toks) if toks else None)
        assert got["tok_max"] == (max(toks) if toks else None)

    flat = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows.values()])
    vals, cnts = np.unique(flat, return_counts=True)
    tid = int(vals[np.argmax(cnts)])
    hits = {r["doc_id"] for r in contains_token_scan(ds, tid).take_all()}
    assert hits == {doc for doc, toks in rows.items() if tid in toks}
    assert 0 < len(hits) < len(rows)

    hist = {r["token"]: r["cnt"] for r in token_histogram(ds).take_all()}
    assert hist == dict(zip(vals.tolist(), cnts.tolist()))
