"""BPE tokenizer-training kernels: greedy merge semantics, offsets, decode."""

import numpy as np
import pyarrow as pa
import pytest

from fsst_like_ray.functions import bpe as B
from fsst_like_ray.functions.tokenops import _list_array


def _flat(rows):
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    return np.array(
        [t for r in rows for t in r], dtype=np.int32
    ), off


def _rows(values, offsets):
    return [
        values[offsets[i] : offsets[i + 1]].tolist()
        for i in range(len(offsets) - 1)
    ]


def test_merge_positions_greedy_overlap():
    v, o = _flat([[7, 7, 7, 7, 7]])  # aaaaa with rule (a,a)
    pos = B.merge_positions(v, o, 7, 7)
    # serial greedy: merge at 0, skip 1, merge at 2, skip 3; 4 unpaired
    assert pos.tolist() == [0, 2]


def test_merge_positions_row_boundary():
    v, o = _flat([[1, 2], [2, 3], [1, 2]])
    # (2,2) straddles rows 0/1 — never merged
    assert B.merge_positions(v, o, 2, 2).tolist() == []
    assert B.merge_positions(v, o, 1, 2).tolist() == [0, 4]


def test_apply_merge_rows_and_counts():
    v, o = _flat([[1, 2, 3], [1, 2], [4], []])
    nv, no = B.apply_merge(v, o, 1, 2, 99)
    assert _rows(nv, no) == [[99, 3], [99], [4], []]


def test_apply_merge_aaa_run():
    v, o = _flat([[7, 7, 7]])
    nv, no = B.apply_merge(v, o, 7, 7, 99)
    assert _rows(nv, no) == [[99, 7]]


def test_expand_reverses_nested_rules():
    rows = [[1, 2, 1, 2, 3], [2, 1, 2]]
    v, o = _flat(rows)
    r1 = B.apply_merge(*(v, o), 1, 2, B.NEW_ID_BASE)
    r2 = B.apply_merge(*r1, B.NEW_ID_BASE, 3, B.NEW_ID_BASE + 1)
    rules = [
        (1, 2, B.NEW_ID_BASE, 2),
        (B.NEW_ID_BASE, 3, B.NEW_ID_BASE + 1, 1),
    ]
    ev, eo = B.expand_with_offsets(r2[0], r2[1], rules)
    assert _rows(ev, eo) == rows
    flat = B.expand_tokens(r2[0], rules)
    assert flat.tolist() == v.tolist()


@pytest.mark.usefixtures("ray_session")
def test_bpe_train_distributed():
    import ray.data

    rows = [[1, 2, 1, 2, 5], [1, 2, 9], [5, 1, 2]]
    v, o = _flat(rows)
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "tokens": _list_array(v, o),
            "n_tok": pa.array([5, 3, 3], type=pa.int32()),
        }
    )
    rules, final, stats = B.bpe_train(ray.data.from_arrow(t), 2)
    # round 0 must merge the most frequent pair (1,2) ×4
    assert rules[0][:2] == (1, 2) and rules[0][3] == 4
    assert stats[0]["pair_left"] == 0
    assert stats[0]["tokens_after"] == stats[0]["tokens_before"] - 4
    # expanding the final stream restores every row
    out = pa.concat_tables(
        [b for b in final.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    from fsst_like_ray.buffers import list_buffers

    fv, fo = list_buffers(out["tokens"])
    ev, eo = B.expand_with_offsets(fv, fo, rules)
    assert _rows(ev, eo) == rows


@pytest.mark.usefixtures("ray_session")
def test_bpe_train_sampled_applies_corpus_wide():
    import ray.data

    # 40 docs, ids 0..39; sample trains rules, full stream gets rewritten
    rows = [[1, 2, 1, 2, 3]] * 40
    v, o = _flat(rows)
    t = pa.table(
        {
            "doc_id": pa.array(list(range(40)), type=pa.int64()),
            "tokens": _list_array(v, o),
            "n_tok": pa.array([5] * 40, type=pa.int32()),
        }
    )
    rules, final, stats = B.bpe_train(
        ray.data.from_arrow(t), 1, sample_rate=0.5
    )
    assert rules[0][:2] == (1, 2)
    out = pa.concat_tables(
        [b for b in final.iter_batches(batch_format="pyarrow")]
    )
    # EVERY doc rewritten, not just the sample
    assert out.num_rows == 40
    from fsst_like_ray.buffers import list_buffers

    fv, fo = list_buffers(out["tokens"])
    assert np.diff(fo).tolist() == [3] * 40  # 5 tokens -> X X 3
    assert set(fv.tolist()) == {B.NEW_ID_BASE, 3}


from hypothesis import given, settings, strategies as st


def _serial_greedy(rows, a, b, new_id):
    """Reference: classic left-to-right greedy BPE merge per row."""
    out = []
    for r in rows:
        nr, i = [], 0
        while i < len(r):
            if i + 1 < len(r) and r[i] == a and r[i + 1] == b:
                nr.append(new_id)
                i += 2
            else:
                nr.append(r[i])
                i += 1
        out.append(nr)
    return out


@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=3), max_size=12),
        max_size=8,
    ),
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_apply_merge_matches_serial_greedy(rows, a, b):
    v, o = _flat(rows)
    nv, no = B.apply_merge(v, o, a, b, 99)
    assert _rows(nv, no) == _serial_greedy(rows, a, b, 99)


@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=2), max_size=10),
        max_size=6,
    ),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_expand_reverses_any_merge_chain(rows, pairs):
    """Every apply_merge is individually invertible (new ids are unique),
    so expanding the rule chain restores the original stream exactly."""
    v, o = _flat(rows)
    cur_v, cur_o, rules = v, o, []
    for i, (a, b) in enumerate(pairs):
        nid = B.NEW_ID_BASE + i
        cur_v, cur_o = B.apply_merge(cur_v, cur_o, a, b, nid)
        rules.append((a, b, nid, 0))
    ev, eo = B.expand_with_offsets(cur_v, cur_o, rules)
    assert _rows(ev, eo) == rows


@pytest.mark.usefixtures("ray_session")
def test_bpe_apply_matches_training_and_handles_unseen():
    """bpe_apply(train_corpus) reproduces the trained stream bit-for-bit;
    on unseen text the K-rule rank-order rewrite is deterministic and
    expand() reverses it exactly."""
    import ray.data
    from fsst_like_ray.buffers import list_buffers

    rows = [[1, 2, 1, 2, 5], [1, 2, 9], [5, 1, 2], [2, 1, 1, 2, 2, 1]]
    v, o = _flat(rows)
    t = pa.table(
        {
            "doc_id": pa.array(range(4), type=pa.int64()),
            "tokens": _list_array(v, o),
            "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        }
    )
    rules, final, _ = B.bpe_train(ray.data.from_arrow(t), 2)

    def collect(ds):
        out = pa.concat_tables(
            [b for b in ds.iter_batches(batch_format="pyarrow")]
        ).sort_by("doc_id")
        fv, fo = list_buffers(out["tokens"])
        return _rows(fv, fo)

    applied = B.bpe_apply(ray.data.from_arrow(t), rules)
    assert collect(applied) == collect(final)

    # unseen stream: same vocab, adjacencies the trainer never counted
    unseen_rows = [[9, 1, 2, 1], [2, 2, 1, 2, 1, 2], [7]]
    uv, uo = _flat(unseen_rows)
    u = pa.table(
        {
            "doc_id": pa.array(range(3), type=pa.int64()),
            "tokens": _list_array(uv, uo),
            "n_tok": pa.array(
                [len(r) for r in unseen_rows], type=pa.int32()
            ),
        }
    )
    once = collect(B.bpe_apply(ray.data.from_arrow(u), rules))
    twice = collect(B.bpe_apply(ray.data.from_arrow(u), rules))
    assert once == twice  # deterministic
    fv, fo = _flat(once)
    ev, eo = B.expand_with_offsets(fv, fo, rules)
    assert _rows(ev, eo) == unseen_rows  # exact round-trip
