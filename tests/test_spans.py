"""Duplicated-span detection vs a brute-force python window matcher."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


def _brute_pairs(texts: dict[int, str], k: int) -> set[tuple[int, int]]:
    import re

    win2docs: dict[str, set] = {}
    for d, t in texts.items():
        words = [w for w in re.split(r"[^a-z0-9]+", t.lower()) if w]
        for i in range(len(words) - k + 1):
            win2docs.setdefault(" ".join(words[i : i + k]), set()).add(d)
    pairs = set()
    for docs in win2docs.values():
        if len(docs) >= 2:
            s = sorted(docs)
            for b in s[1:]:
                pairs.add((s[0], b))
    return pairs


def test_duplicated_spans_random_splices(ray_session):
    rng = np.random.default_rng(13)
    texts = {}
    for d in range(30):
        texts[d] = " ".join(f"d{d}w{j}" for j in range(80))
    # splice spans of varying length (some < k → undetectable)
    k = 8
    for i, (src, dst, length) in enumerate(
        [(0, 20, 30), (1, 21, 8), (2, 22, 7), (3, 23, 12), (4, 20, 9)]
    ):
        words = texts[src].split()[10 : 10 + length]
        base = texts[dst].split()
        texts[dst] = " ".join(base[:40] + words + base[40:])
    want = _brute_pairs(texts, k)
    assert (2, 22) not in want  # 7-word splice is below k
    assert {(0, 20), (1, 21), (3, 23), (4, 20)} <= want

    from fsst_like_ray.functions.spans import duplicated_span_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = duplicated_span_pairs(ds, k=k).to_pandas()
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert got_pairs == want


def test_duplicated_spans_none(ray_session):
    from fsst_like_ray.functions.spans import duplicated_span_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "text": pa.array(["a b c d e f g h i", "j k l m n o p q r"]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    assert duplicated_span_pairs(ds, k=8).count() == 0


def _tok_tbl(rows, ids=None):
    import numpy as np

    off = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=off[1:])
    flat = np.array([t for r in rows for t in r], dtype=np.int32)
    return pa.table(
        {
            "doc_id": pa.array(
                ids if ids is not None else list(range(len(rows))),
                type=pa.int64(),
            ),
            "tokens": pa.ListArray.from_arrays(
                pa.array(off, type=pa.int32()),
                pa.array(flat, type=pa.int32()),
            ),
        }
    )


def test_duplicated_token_spans_planted(ray_session):
    """A 30-token span of doc 0 spliced into docs 5 and 6 yields the star
    pairs (0,5), (0,6) — smallest doc per span anchors, the same contract
    as the text-domain duplicated_span_pairs."""
    import numpy as np

    from fsst_like_ray.functions.spans import duplicated_token_span_pairs

    rows = [list(range(d * 1000, d * 1000 + 80)) for d in range(10)]
    span = rows[0][20:50]
    rows[5] = rows[5][:40] + span + rows[5][40:]
    rows[6] = span + rows[6]
    ds = ray.data.from_arrow(_tok_tbl(rows)).repartition(3)
    got = duplicated_token_span_pairs(ds, k=16).to_pandas()
    assert set(zip(got["doc_a"], got["doc_b"])) == {(0, 5), (0, 6)}


def test_duplicated_token_spans_none_and_short(ray_session):
    from fsst_like_ray.functions.spans import duplicated_token_span_pairs

    # disjoint vocabularies + docs shorter than k emit nothing
    rows = [[1, 2, 3], list(range(100, 130)), [], list(range(200, 230))]
    ds = ray.data.from_arrow(_tok_tbl(rows))
    assert duplicated_token_span_pairs(ds, k=16).count() == 0


def test_duplicated_token_spans_within_doc_repeat_not_pair(ray_session):
    """A span repeated INSIDE one document is not a cross-doc pair."""
    from fsst_like_ray.functions.spans import duplicated_token_span_pairs

    block = list(range(300, 320))
    rows = [block + [1, 2, 3] + block, list(range(500, 560))]
    ds = ray.data.from_arrow(_tok_tbl(rows))
    assert duplicated_token_span_pairs(ds, k=16).count() == 0


def test_remove_duplicated_token_spans_both_paths(ray_session):
    """Spliced 30-token spans vanish from the LARGER docs exactly (the
    coverage union of matching k-windows), keepers stay verbatim, and the
    broadcast and shuffle-join apply paths produce identical corpora."""
    import numpy as np

    from fsst_like_ray.functions.spans import remove_duplicated_token_spans

    rows = {d: list(range(d * 1000, d * 1000 + 100)) for d in range(12)}
    for i in range(3):  # docs 6..8 get doc i's tokens 10:40 spliced at 50
        span = rows[i][10:40]
        rows[6 + i] = rows[6 + i][:50] + span + rows[6 + i][50:]
    tbl = _tok_tbl([rows[d] for d in sorted(rows)])
    expect = {d: list(range(d * 1000, d * 1000 + 100)) for d in range(12)}

    for cap in (2_000_000, 0):  # broadcast path, then forced join path
        ds = ray.data.from_arrow(tbl).repartition(3)
        got = remove_duplicated_token_spans(
            ds, k=16, broadcast_cap=cap
        ).to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)
        assert got["doc_id"].tolist() == sorted(expect)
        for _, r in got.iterrows():
            assert list(r["tokens"]) == expect[int(r["doc_id"])], (
                cap,
                r["doc_id"],
            )
            assert int(r["n_tok"]) == 100

    # no duplication: the input comes back unchanged
    clean = ray.data.from_arrow(
        _tok_tbl([list(range(d * 500, d * 500 + 40)) for d in range(4)])
    )
    out = remove_duplicated_token_spans(clean, k=16).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 2, 3]
    assert all(len(t) == 40 for t in out["tokens"])


def test_pack_doc_spans_int64_offsets(monkeypatch):
    """The per-doc span lists of the shuffle-join removal path are built
    with int64 offsets (large_list), so one bucket past 2^31 removal rows
    cannot wrap them; the packed strings sort by (doc, pos)."""
    import pyarrow.compute as pc

    from fsst_like_ray.functions.spans import _pack_doc_spans

    joined_types = []
    real_join = pc.binary_join

    def spy(lists, sep):
        joined_types.append(lists.type)
        return real_join(lists, sep)

    monkeypatch.setattr(pc, "binary_join", spy)
    g = pa.table(
        {
            "doc_id": pa.array([7, 3, 7, 3, 9], type=pa.int64()),
            "pos": pa.array([40, 5, 2, 1, 0], type=pa.int64()),
        }
    )
    out = _pack_doc_spans(g)
    assert joined_types == [pa.large_list(pa.string())]
    assert out["doc_id"].to_pylist() == [3, 7, 9]
    assert out["spans"].to_pylist() == ["1,5", "2,40", "0"]
    assert out.schema.field("spans").type == pa.string()
