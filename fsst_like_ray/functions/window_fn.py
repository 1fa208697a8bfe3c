"""Ordered per-key window functions — running sum, row number, lag.

Ray Data has no window-function operator; this composes one per SURVEY.md
§2 custom-operator guidance: ONE hash shuffle co-partitions whole key
groups into coarse buckets (functions/bucketed.py), then a single
vectorized kernel per BUCKET lexsorts (key, order, tiebreak) and computes
every window with run-segmented cumsum / arange / shifted-take — no
per-row Python anywhere, and no per-KEY Python either (a million users
cost a million vectorized rows, not a million map_groups calls).

Partitioning assumptions (documented for 100 TB):
- every row moves exactly once (the key shuffle); window math is local;
- one key's full history must fit a worker (same contract as the plain
  sessionize path in ``functions/events.py``). For unbounded keys,
  pre-slice by the order column and carry per-slice offsets the way
  ``sessionize(slice_s=...)`` does — running sums compose associatively
  across slices (slice partial = (row_count, sum); prefix-scan the
  partials), so the same two-phase trick applies.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def _group_sort_indices(
    g: pa.Table, order: str, tiebreak: str | None
) -> np.ndarray:
    ordv = g[order].to_numpy(zero_copy_only=False)
    if tiebreak is not None:
        tb = g[tiebreak].to_numpy(zero_copy_only=False)
        return np.lexsort((tb, ordv))
    return np.argsort(ordv, kind="stable")


def _ntile(n_rows: int, n: int) -> np.ndarray:
    """SQL NTILE(n) buckets for rows 1..n_rows (1-based result): the
    first (n_rows % n) buckets take one extra row."""
    q, r = divmod(n_rows, n)
    rn0 = np.arange(n_rows, dtype=np.int64)  # 0-based
    head = r * (q + 1)
    out = np.empty(n_rows, dtype=np.int64)
    big = rn0 < head
    out[big] = rn0[big] // (q + 1) + 1
    if q > 0:
        out[~big] = r + (rn0[~big] - head) // q + 1
    return out


def _window_block(
    g: pa.Table, key, order, sum_col, lag_col, tiebreak, roll, ntile, fill_col
) -> pa.Table:
    """``keyed_window``'s kernel, vectorized across EVERY key in one coarse
    bucket: one lexsort keyed (key, order, tiebreak), then run-segmented
    cumsum / rolling diff / ntile / forward-fill / lag — per-group Python
    cost is O(buckets), never O(#keys). A zero-row block runs the same
    code and returns the same output schema."""
    n = g.num_rows
    kcol = g[key]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    enc = (
        kcol
        if pa.types.is_dictionary(kcol.type)
        else kcol.dictionary_encode()
    )
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    ordv = g[order].to_numpy(zero_copy_only=False)
    if tiebreak is not None:
        tb = g[tiebreak].to_numpy(zero_copy_only=False)
        idx = np.lexsort((tb, ordv, codes))
    else:
        idx = np.lexsort((np.arange(n, dtype=np.int64), ordv, codes))
    g = g.take(pa.array(idx, type=pa.int64()))
    ks = codes[idx]
    starts = np.flatnonzero(np.r_[n > 0, ks[1:] != ks[:-1]])
    sizes = np.diff(np.r_[starts, n])
    start_rep = np.repeat(starts, sizes)
    rn0 = np.arange(n, dtype=np.int64) - start_rep
    cols = {name: g[name] for name in g.column_names}
    cols["rn"] = pa.array(rn0 + 1)
    if sum_col is not None:
        v = g[sum_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.cumsum(v)
        base = np.repeat(cs[starts] - v[starts], sizes)
        cols[f"{sum_col}_run"] = pa.array(cs - base)
    if roll is not None:
        rcol, w = roll
        v = g[rcol].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.cumsum(v)
        base = np.repeat(cs[starts] - v[starts], sizes)
        run = cs - base
        out = run.copy()
        has_prev = rn0 >= w
        prev = np.arange(n, dtype=np.int64) - w
        out[has_prev] -= run[prev[has_prev]]
        cols[f"{rcol}_roll{w}"] = pa.array(out)
    if ntile is not None:
        sz = np.repeat(sizes, sizes)
        q, r = sz // ntile, sz % ntile
        head = r * (q + 1)
        big = rn0 < head
        out = np.empty(n, dtype=np.int64)
        out[big] = rn0[big] // (q[big] + 1) + 1
        nb = ~big  # only reachable when q > 0 (head == size if q == 0)
        out[nb] = r[nb] + (rn0[nb] - head[nb]) // q[nb] + 1
        cols[f"q{ntile}"] = pa.array(out)
    if fill_col is not None:
        col = g[fill_col].combine_chunks()
        valid = ~pc.is_null(col).to_numpy(zero_copy_only=False)
        pos = np.where(valid, np.arange(n, dtype=np.int64), -1)
        last = np.maximum.accumulate(pos)
        # a carried index from a PREVIOUS run means "no valid value
        # yet in this key": indexes are monotonic, so < run start ⇔
        # foreign
        miss = last < start_rep
        take_idx = pa.array(
            np.maximum(last, 0), type=pa.int64(), mask=miss
        )
        cols[f"{fill_col}_ffill"] = pc.take(col, take_idx)
    if lag_col is not None:
        prev = np.arange(-1, n - 1, dtype=np.int64)
        miss = prev < start_rep
        lag_idx = pa.array(
            np.maximum(prev, 0), type=pa.int64(), mask=miss
        )
        cols[f"{lag_col}_lag"] = pc.take(
            g[lag_col].combine_chunks(), lag_idx
        )
    return pa.table(cols)


def keyed_window(
    ds: "ray.data.Dataset",
    key: str,
    order: str,
    sum_col: str | None = None,
    lag_col: str | None = None,
    tiebreak: str | None = None,
    roll: tuple[str, int] | None = None,
    ntile: int | None = None,
    fill_col: str | None = None,
) -> "ray.data.Dataset":
    """Per-``key`` windows ordered by (``order``, ``tiebreak``): every
    input column passes through (rows re-ordered within the group), plus

    - ``rn`` (int64): 1-based row number within the key;
    - ``{sum_col}_run`` (int64): running (inclusive-prefix) sum of
      ``sum_col`` — pass an integer column (e.g. pre-converted cents);
    - ``{lag_col}_lag``: previous row's ``lag_col`` value, null for the
      first row of each key (type-preserving via a null-index take);
    - ``roll=(col, w)`` → ``{col}_roll{w}`` (int64): moving sum over the
      last w rows inclusive (SQL ROWS w-1 PRECEDING), via cumsum diff;
    - ``ntile=n`` → ``q{n}`` (int64): SQL NTILE(n) bucket;
    - ``fill_col`` → ``{fill_col}_ffill``: last NON-NULL value at or
      before the row (SQL last_value(... IGNORE NULLS)); leading nulls
      stay null. Vectorized: maximum-accumulate over valid row indexes,
      one masked take.

    Determinism: with ``tiebreak=None``, ties on ``order`` fall back to
    stable arrival order, which DEPENDS on block layout — pass a
    tiebreak (or guarantee ``order`` is unique per key) whenever results
    must be identical across repartitionings/retries.
    """
    if roll is not None and roll[1] < 1:
        raise ValueError(f"keyed_window: roll window must be >= 1, got {roll[1]}")
    if ntile is not None and ntile < 1:
        raise ValueError(f"keyed_window: ntile must be >= 1, got {ntile}")

    from .bucketed import bucketed_group_kernel

    return bucketed_group_kernel(
        ds,
        key,
        functools.partial(
            _window_block, key=key, order=order, sum_col=sum_col,
            lag_col=lag_col, tiebreak=tiebreak, roll=roll, ntile=ntile,
            fill_col=fill_col,
        ),
    )
