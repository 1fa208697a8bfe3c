"""Seeded randomized property tests — the pytest-ified analog of the
reference's de-facto property test (algorithm.ipynb cell-1: seeded random
symbol strings, patterns of lengths 1..9, all matcher implementations must
return identical match-id lists; SURVEY.md §5.4).

No Ray needed: these exercise the kernels directly, deterministically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fsst_like_ray import fsstlib
from fsst_like_ray.codecs import CODECS
from fsst_like_ray.matchers.engines import like_on_encoded
from fsst_like_ray.stages.text import encode_text_table


def _random_corpus(seed: int, n_rows: int = 2000):
    """Mirror of the notebook generator: strings assembled from 64 random
    8-char 'symbols' over alphabet {a,b,c} mixed with random chars."""
    rng = np.random.default_rng(seed)
    symbols = [
        "".join(rng.choice(list("abc"), 8)) for _ in range(64)
    ]
    rows = []
    for _ in range(n_rows):
        parts = []
        for _ in range(int(rng.integers(1, 8))):
            if rng.random() < 0.7:
                parts.append(symbols[int(rng.integers(0, 64))])
            else:
                parts.append(chr(int(rng.integers(97, 123))))
        rows.append("".join(parts))
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_like_engines_agree_with_python(seed):
    texts = _random_corpus(seed)
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    enc = encode_text_table(batch)
    rng = np.random.default_rng(seed + 100)
    # patterns of lengths 1..9 drawn from corpus substrings (guaranteed
    # matches) plus random strings (mostly non-matches)
    pats = []
    for m in range(1, 10):
        src = texts[int(rng.integers(0, len(texts)))]
        if len(src) >= m:
            start = int(rng.integers(0, len(src) - m + 1))
            pats.append(src[start : start + m])
        pats.append("".join(rng.choice(list("abcxyz"), m)))
    for needle in pats:
        oracle = np.array([needle in t for t in texts])
        for engine in ("decoded", "skipping", "kmp"):
            got = like_on_encoded(enc, f"%{needle}%", engine=engine)
            assert np.array_equal(got, oracle), (needle, engine)


@pytest.mark.parametrize("seed", [3, 4])
def test_codec_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    n_rows = 300
    lens = rng.integers(0, 200, n_rows).astype(np.int64)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    values = np.empty(total, dtype=np.int32)
    # mix of regimes per row
    for i in range(n_rows):
        s, e = offsets[i], offsets[i + 1]
        k = i % 4
        if k == 0:
            values[s:e] = rng.integers(-(2**31), 2**31 - 1, e - s)
        elif k == 1:
            values[s:e] = rng.integers(0, 16, e - s)
        elif k == 2:
            values[s:e] = int(rng.integers(0, 1000))
        else:
            values[s:e] = (rng.zipf(1.3, e - s) - 1) % 50000
    counts = np.diff(offsets)
    for name, codec in CODECS.items():
        state = codec.train(values, offsets)
        buf, po = codec.encode(values, offsets, state)
        dec = codec.decode(buf, po, counts, state)
        assert np.array_equal(dec, values), name


def test_fsst_handles_all_byte_values():
    # every byte value 0..255 as literal content, incl. escape runs
    data = np.arange(256, dtype=np.uint8)
    data = np.concatenate([data, np.full(32, 255, dtype=np.uint8), data[::-1]])
    off = np.array([0, 256, 256 + 32, len(data)], dtype=np.int64)
    table = fsstlib.train(data, off)
    buf, po, _used = fsstlib.encode(data, off, table)
    dec, ro = fsstlib.decode(buf, po, table)
    assert bytes(dec) == bytes(data)
    assert list(ro) == list(off)


@pytest.mark.parametrize("seed", [7, 8])
def test_meta_kmp_multi_segment_agrees(seed):
    """Ordered multi-segment compressed matcher vs the greedy ordered-
    substring oracle (greedy-earliest is optimal for existence)."""
    texts = _random_corpus(seed, 1500)
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    enc = encode_text_table(batch)
    rng = np.random.default_rng(seed + 50)

    def oracle(t, segs):
        pos = 0
        for s_ in segs:
            i = t.find(s_, pos)
            if i < 0:
                return False
            pos = i + len(s_)
        return True

    for _ in range(8):
        nseg = int(rng.integers(2, 5))
        segs = []
        for _ in range(nseg):
            src = texts[int(rng.integers(0, len(texts)))]
            m = int(rng.integers(1, 7))
            st = int(rng.integers(0, max(1, len(src) - m)))
            segs.append(src[st : st + m] or "a")
        pat = "%" + "%".join(segs) + "%"
        exp = np.array([oracle(t, segs) for t in texts])
        got = like_on_encoded(enc, pat, engine="kmp")
        assert np.array_equal(got, exp), pat


def _like_oracle(pattern: str, texts: list[str]) -> np.ndarray:
    import re

    rx = re.compile(
        "^"
        + "".join(
            ".*" if c == "%" else "." if c == "_" else re.escape(c)
            for c in pattern
        )
        + "$",
        re.S,
    )
    return np.array([bool(rx.match(t)) for t in texts])


@pytest.mark.parametrize("seed", [0, 1])
def test_like_all_shapes_agree(seed):
    """Every pattern SHAPE (exact, prefix, suffix, contains, underscore,
    multi, general-anchored) through the auto engine must equal a plain
    Python LIKE oracle on random corpora."""
    texts = _random_corpus(seed, 800)
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    enc = encode_text_table(batch)
    rng = np.random.default_rng(seed + 7)
    pats: list[str] = []
    for _ in range(6):
        src = texts[int(rng.integers(0, len(texts)))]
        m = int(rng.integers(2, min(8, max(3, len(src)))))
        start = int(rng.integers(0, len(src) - m + 1))
        s = src[start : start + m]
        pats += [src, s + "%", "%" + s, "%" + s + "%"]
        # one '_' wildcard inside the segment
        hole = int(rng.integers(0, m))
        pats.append("%" + s[:hole] + "_" + s[hole + 1 :] + "%")
        pats.append(s + "%" + s[:2])  # general anchored p1%p2
    for pattern in pats:
        oracle = _like_oracle(pattern, texts)
        mask = like_on_encoded(enc, pattern, engine="auto")
        assert (mask == oracle).all(), pattern


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_group_agg_matches_bruteforce(seed):
    """Seeded randomized GROUP BY property: encoded-domain partials must
    equal a pure-python fold over the raw rows — across random null
    densities, key cardinalities (forcing strdict vs fsstb group blocks),
    negative values, and slices."""
    from fsst_like_ray.pipelines.columnar import (
        encode_columns_batch,
        group_agg_batch,
    )

    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 3000))
    card = int(rng.choice([3, 17, 900]))
    keys = [
        None if rng.random() < 0.07 else f"k{int(v):05d}"
        for v in rng.integers(0, card, n)
    ]
    vals = [
        None if rng.random() < 0.1 else int(v)
        for v in rng.integers(-(10**14), 10**14, n)
    ]
    t = pa.table(
        {
            "g": pa.array(keys, type=pa.string()),
            "x": pa.array(vals, type=pa.int64()),
        }
    )
    enc = encode_columns_batch(t)
    lo = int(rng.integers(0, n // 2))
    ln = int(rng.integers(1, n - lo))
    for sl, kk, vv in (
        (enc, keys, vals),
        (enc.slice(lo, ln), keys[lo : lo + ln], vals[lo : lo + ln]),
    ):
        got = {}
        for r in group_agg_batch(sl, "g", "x").to_pylist():
            got[r["value"].decode()] = (
                r["n_rows"], r["n_vals"], int(r["vsum"]), r["vmin"], r["vmax"]
            )
        exp = {}
        for g, v in zip(kk, vv):
            if g is None:
                continue
            a = exp.setdefault(g, [0, 0, 0, None, None])
            a[0] += 1
            if v is not None:
                a[1] += 1
                a[2] += v
                a[3] = v if a[3] is None else min(a[3], v)
                a[4] = v if a[4] is None else max(a[4], v)
        assert got == {k: tuple(v) for k, v in exp.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_mask_matches_reference(seed):
    """The hash-sample mask must equal the closed-form reference for any
    int64 ids (including negatives) and survive slicing."""
    from fsst_like_ray.pipelines.columnar import (
        _SAMPLE_MOD,
        _SAMPLE_MULT,
        encode_columns_batch,
        sample_scan_batch,
    )

    rng = np.random.default_rng(seed + 50)
    n = 3000
    ids = rng.integers(-(10**17), 10**17, n)
    t = pa.table(
        {
            "id": pa.array(ids, type=pa.int64()),
            "s": pa.array(["r%d" % i for i in range(n)]),
        }
    )
    enc = encode_columns_batch(t)
    rate, sd = 0.37, int(rng.integers(0, 1000))
    got = sample_scan_batch(enc, "id", rate, seed=sd)["id"].to_pylist()
    h = (
        (ids.view(np.uint64) + np.uint64(sd)) * np.uint64(_SAMPLE_MULT)
    ) % np.uint64(_SAMPLE_MOD)
    exp = ids[h < np.uint64(rate * _SAMPLE_MOD)].tolist()
    assert got == exp
    sl = sample_scan_batch(enc.slice(100, 1000), "id", rate, seed=sd)[
        "id"
    ].to_pylist()
    exp_sl = [v for v in ids[100:1100][
        ((ids[100:1100].view(np.uint64) + np.uint64(sd))
         * np.uint64(_SAMPLE_MULT)) % np.uint64(_SAMPLE_MOD)
        < np.uint64(rate * _SAMPLE_MOD)
    ]]
    assert sl == exp_sl


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3000), max_size=200),
    st.integers(min_value=1, max_value=2048),
)
def test_greedy_boundaries_properties(n_tok, budget):
    """Loader packer invariants for ANY token-count sequence and budget:
    boundaries partition the rows exactly once in order; every batch is
    within budget or a single oversized row; packing is greedy-maximal
    (the next row would not have fit)."""
    from fsst_like_ray.pipelines.loader import greedy_boundaries

    nt = np.asarray(n_tok, dtype=np.int64)
    b = greedy_boundaries(nt, budget)
    assert b[0] == 0 and b[-1] == len(nt)
    assert (np.diff(b) >= 1).all() or len(nt) == 0
    for i, j in zip(b[:-1], b[1:]):
        s = int(nt[i:j].sum())
        assert s <= budget or j - i == 1
        if j < len(nt) and s <= budget:  # greedy-maximal
            assert s + int(nt[j]) > budget


@settings(max_examples=12, deadline=None)
@given(
    layout=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9),  # group size
            st.integers(min_value=0, max_value=3),  # text family
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_distributed_resolve_equals_driver_fast_path(
    ray_session, layout, seed
):
    """Property: for ANY duplicate-group layout, exact_duplicates through
    the forced distributed keeper-join path returns exactly the driver
    fast path's drop set (smallest id per exact text survives)."""
    import ray.data
    from fsst_like_ray.functions import dedup as D

    rng = np.random.default_rng(seed)
    ids, texts = [], []
    next_id = 0
    for gi, (size, fam) in enumerate(layout):
        t = f"group-{gi}-family-{fam}-" + "x" * int(rng.integers(0, 30))
        for _ in range(size):
            ids.append(next_id)
            texts.append(t)
            next_id += 1
    perm = rng.permutation(len(ids))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.array(ids)[perm], type=pa.int64()),
            "text": pa.array([texts[i] for i in perm]),
        }
    )
    ds = lambda: ray.data.from_arrow(tbl).repartition(3)
    fast = sorted(r["doc_id"] for r in D.exact_duplicates(ds()).take_all())
    orig_rows, orig_bytes = D.DRIVER_CAP_ROWS, D.DRIVER_CAP_BYTES
    orig_salt = D.SALT_MIN_MEMBERS
    try:
        D.DRIVER_CAP_ROWS, D.DRIVER_CAP_BYTES = 0, 0
        D.SALT_MIN_MEMBERS = 4  # exercise salting on small groups too
        dist = sorted(
            r["doc_id"] for r in D.exact_duplicates(ds()).take_all()
        )
    finally:
        D.DRIVER_CAP_ROWS, D.DRIVER_CAP_BYTES = orig_rows, orig_bytes
        D.SALT_MIN_MEMBERS = orig_salt
    # oracle: everything but the min id of each text group
    expect = sorted(
        i
        for i, t in zip(ids, texts)
        if i != min(j for j, u in zip(ids, texts) if u == t)
    )
    assert fast == expect and dist == expect
