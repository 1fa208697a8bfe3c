"""Windowed / sessionized aggregates over the events table — operators Ray
Data has no built-in for, composed per SURVEY.md §2 "custom operators"
guidance: partial aggregation inside ``map_batches`` + ONE small groupby
merge (windows), and ``groupby(user).map_groups`` where per-key ordering is
required (sessions).

Monetary sums use integer CENTS throughout: float summation is order
dependent, and a distributed merge cannot guarantee the reference's
summation order — integer sums are exact and deterministic.

Partitioning assumptions (documented for 100 TB):
- tumbling windows: window partials are ≤ #windows rows per input block;
  the merge shuffle moves partials, never events;
- sessionization: one shuffle hash-partitions by user_id; per-user event
  history must fit a worker. For UNBOUNDED users pass ``slice_s``: phase 1
  computes gap-maximal session partials PER BATCH (vectorized map_batches,
  no shuffle), phase 2 merges each user's partials (running-max-end
  interval merge — exactly the sorted-adjacency gap test, proven equal to
  the plain path in tests) — the shuffle moves rows ∝ sessions, never
  events.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Sum

US_PER_S = 1_000_000


def _ts_us(batch: pa.Table) -> np.ndarray:
    return batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_window_partials(batch: pa.Table, window_s: int) -> pa.Table:
    """Per-batch partial: (window_start_s, event_type) → count, value sum."""
    ts = _ts_us(batch)
    win = (ts // (window_s * US_PER_S)) * window_s
    cents = np.rint(
        batch["value"].to_numpy(zero_copy_only=False) * 100
    ).astype(np.int64)
    # Arrow-native partial groupby: the pandas round trip copied every
    # column twice per batch for a tiny output
    g = (
        pa.table(
            {
                "window_start_s": pa.array(win, type=pa.int64()),
                "event_type": batch["event_type"],
                "cents": pa.array(cents, type=pa.int64()),
            }
        )
        .group_by(["window_start_s", "event_type"])
        .aggregate([("cents", "count"), ("cents", "sum")])
    )
    return pa.table(
        {
            "window_start_s": g["window_start_s"],
            "event_type": g["event_type"],
            "n": g["cents_count"].cast(pa.int64()),
            "value_cents": g["cents_sum"].cast(pa.int64()),
        }
    )


def tumbling_window_agg(ds: "ray.data.Dataset", window_s: int = 3600):
    """(window_start_s, event_type, n_events, value_sum) via partial-then-merge
    — the shuffle moves ≤(#windows × #types) partial rows per block."""
    partials = ds.map_batches(
        lambda b, w=window_s: tumbling_window_partials(b, w),
        batch_format="pyarrow",
    )
    merged = partials.groupby(["window_start_s", "event_type"]).aggregate(
        Sum("n", alias_name="n_events"),
        Sum("value_cents", alias_name="value_cents"),
    )

    def fix(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start_s": b["window_start_s"].cast(pa.int64()),
                "event_type": b["event_type"],
                "n_events": b["n_events"].cast(pa.int64()),
                "value_cents": b["value_cents"].cast(pa.int64()),
            }
        )

    return merged.map_batches(fix, batch_format="pyarrow")


def _sessionize_user(g: pd.DataFrame, gap_s: int) -> pd.DataFrame:
    """One user's events, any order in → per-session rows out."""
    g = g.sort_values("ts_us", kind="mergesort")
    ts = g["ts_us"].to_numpy()
    new_sess = np.ones(len(ts), dtype=bool)
    new_sess[1:] = (ts[1:] - ts[:-1]) > gap_s * US_PER_S
    sid = np.cumsum(new_sess)
    df = pd.DataFrame(
        {
            "user_id": g["user_id"].to_numpy(),
            "session_id": sid,
            "ts_us": ts,
            "cents": g["cents"].to_numpy(),
        }
    )
    out = df.groupby("session_id", as_index=False).agg(
        user_id=("user_id", "first"),
        session_start_us=("ts_us", "min"),
        session_end_us=("ts_us", "max"),
        n_events=("ts_us", "size"),
        value_cents=("cents", "sum"),
    )
    return out[
        ["user_id", "session_id", "session_start_us", "session_end_us",
         "n_events", "value_cents"]
    ]


def sessionize(
    ds: "ray.data.Dataset", gap_s: int = 1800, slice_s: int | None = None
):
    """Gap-based sessionization (reference has no streaming ops — this is
    the training-pipeline extension; semantics match SQL session windows).

    DEFAULT (and only) route since round 4 is the partials path
    (:func:`_sessionize_sliced`): phase 1 is a pure vectorized
    ``map_batches`` emitting per-batch session partials (rows ∝ sessions,
    never events), phase 2 merges them across batch bounds in a
    hash-bucketed shuffle with vectorized per-bucket merging — no per-user
    Python anywhere, which the old per-user ``map_groups`` default paid at
    every user. ``slice_s`` is retained for API compatibility (partials
    are batch-bounded, tighter than any time slice); output is identical
    for any value. ``_sessionize_per_user`` keeps the direct one-shuffle
    formulation as the reference implementation for equivalence tests."""
    return _sessionize_sliced(ds, gap_s, slice_s or 3600)


def _sessionize_per_user(ds: "ray.data.Dataset", gap_s: int = 1800):
    """Reference formulation: ONE hash shuffle on user_id, per-user sort +
    gap split inside map_groups. Correct at any scale but pays per-user
    Python; kept as the test oracle for the vectorized default."""

    def prep(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "ts_us": b["ts"].cast(pa.int64()),
                "cents": pa.array(cents),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = prepped.groupby("user_id").map_groups(
        lambda g, gap=gap_s: _sessionize_user(g, gap), batch_format="pandas"
    )

    def fix(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "session_id": b["session_id"].cast(pa.int64()),
                "session_start_us": b["session_start_us"].cast(pa.int64()),
                "session_end_us": b["session_end_us"].cast(pa.int64()),
                "n_events": b["n_events"].cast(pa.int64()),
                "value_cents": b["value_cents"].cast(pa.int64()),
            }
        )

    return out.map_batches(fix, batch_format="pyarrow")


def _batch_session_partials(b: pa.Table, gap_s: int) -> pa.Table:
    """Vectorized per-batch session partials: ONE lexsort of the batch by
    (user, ts), run boundaries where the user changes or the gap is
    exceeded, reduceat for the per-run aggregates. No shuffle, no per-group
    Python — partial rows ∝ this batch's sessions."""
    uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cents = np.rint(
        b["value"].to_numpy(zero_copy_only=False) * 100
    ).astype(np.int64)
    order = np.lexsort((ts, uid))
    u, t, c = uid[order], ts[order], cents[order]
    n = len(u)
    if n == 0:
        return pa.table(
            {
                "user_id": pa.array([], type=pa.int64()),
                "session_start_us": pa.array([], type=pa.int64()),
                "session_end_us": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "value_cents": pa.array([], type=pa.int64()),
            }
        )
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > gap_s * US_PER_S)
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], n) - 1
    return pa.table(
        {
            "user_id": pa.array(u[starts]),
            "session_start_us": pa.array(t[starts]),
            "session_end_us": pa.array(t[ends]),
            "n_events": pa.array(np.diff(np.append(starts, n))),
            "value_cents": pa.array(np.add.reduceat(c, starts)),
        }
    )


def _sessionize_sliced(ds: "ray.data.Dataset", gap_s: int, slice_s: int):
    """Two-phase sessionize (see sessionize docstring).

    Phase 1 is a pure ``map_batches``: per-batch gap-maximal session
    partials, fully vectorized (the earlier shape shuffled on
    (user, time-slice) and paid per-group Python for every (user, slice)
    pair — 20× the plain path's wall on the fixture, dominating the whole
    query sweep). ``slice_s`` is retained in the API as the trigger and the
    documented partition-bound story, but batch bounds are tighter than any
    time slice: a partial row exists per (user, batch-local session), so
    phase 2's shuffle moves rows ∝ sessions + batch crossings, never
    events."""

    partials = ds.map_batches(
        lambda b, gap=gap_s: _batch_session_partials(b, gap),
        batch_format="pyarrow",
    )

    def merge_bucket(g: pd.DataFrame, gap: int) -> pd.DataFrame:
        """Merge ALL users of one hash bucket in one vectorized pass: sort
        by (user, start); a partial opens a new session when the user
        changes or its start is more than ``gap`` past the user's running
        max end (batch partials can OVERLAP in time — one user's events
        split arbitrarily across batches — so the chain rule compares
        against the cummax of ends, not the immediate predecessor)."""
        g = g.sort_values(
            ["user_id", "session_start_us"], kind="mergesort",
            ignore_index=True,
        )
        n = len(g)
        if n == 0:
            return g.assign(session_id=np.zeros(0, dtype=np.int64))[
                ["user_id", "session_id", "session_start_us",
                 "session_end_us", "n_events", "value_cents"]
            ]
        uid = g["user_id"].to_numpy()
        start = g["session_start_us"].to_numpy()
        end = g["session_end_us"].to_numpy()
        end_run = g.groupby("user_id")["session_end_us"].cummax().to_numpy()
        new_sess = np.ones(n, dtype=bool)
        same_user = uid[1:] == uid[:-1]
        new_sess[1:] = ~same_user | (
            (start[1:] - end_run[:-1]) > gap * US_PER_S
        )
        sid_global = np.cumsum(new_sess)
        user_first = np.flatnonzero(np.r_[True, ~same_user])
        user_base = np.repeat(
            sid_global[user_first], np.diff(np.r_[user_first, n])
        )
        sid = sid_global - user_base + 1
        starts_idx = np.flatnonzero(new_sess)
        return pd.DataFrame(
            {
                "user_id": uid[starts_idx],
                "session_id": sid[starts_idx],
                "session_start_us": start[starts_idx],
                "session_end_us": np.maximum.reduceat(end, starts_idx),
                "n_events": np.add.reduceat(
                    g["n_events"].to_numpy(), starts_idx
                ),
                "value_cents": np.add.reduceat(
                    g["value_cents"].to_numpy(), starts_idx
                ),
            }
        )

    BUCKET = "__sess_bucket__"

    def add_bucket(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (u * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58)
        return b.append_column(BUCKET, pa.array(h.astype(np.int64)))

    out = (
        partials.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(BUCKET)
        .map_groups(
            lambda g, gap=gap_s: merge_bucket(g.drop(columns=[BUCKET]), gap),
            batch_format="pandas",
        )
    )

    def fix(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "session_id": b["session_id"].cast(pa.int64()),
                "session_start_us": b["session_start_us"].cast(pa.int64()),
                "session_end_us": b["session_end_us"].cast(pa.int64()),
                "n_events": b["n_events"].cast(pa.int64()),
                "value_cents": b["value_cents"].cast(pa.int64()),
            }
        )

    return out.map_batches(fix, batch_format="pyarrow")


def topk_users_by_value(ds: "ray.data.Dataset", k: int = 10):
    """Top-k users by Σvalue: full aggregate is small (#users), top-k on the
    driver (reference analog: driver-side ranking, sketch.cc:1361-1363)."""
    def prep(b: pa.Table) -> pa.Table:
        cents = np.rint(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"user_id": b["user_id"], "cents": pa.array(cents)})

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("cents", alias_name="value_cents"), Count(alias_name="n_events"))
    )

    def local_topk(b: pa.Table) -> pa.Table:
        # per-block top-k partial: only k rows per block ever reach the
        # driver (the full per-user aggregate is itself huge at 100 TB)
        vc = b["value_cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -vc))[:k]
        return b.take(pa.array(order))

    parts = agg.map_batches(local_topk, batch_format="pyarrow").take_all()
    parts.sort(key=lambda r: (-int(r["value_cents"]), r["user_id"]))
    top = parts[:k]
    return pa.table(
        {
            "user_id": pa.array([r["user_id"] for r in top], type=pa.int64()),
            "value_cents": pa.array(
                [int(r["value_cents"]) for r in top], type=pa.int64()
            ),
            "n_events": pa.array([r["n_events"] for r in top], type=pa.int64()),
        }
    )


def funnel_completions(
    events: "ray.data.Dataset",
    stages: tuple[str, ...] = ("view", "click", "purchase"),
    user_col: str = "user_id",
    type_col: str = "event_type",
    n_buckets: int = 32,
) -> "ray.data.Dataset":
    """Ordered funnel: users whose events contain the ``stages`` sequence
    in STRICTLY increasing timestamp order (first view, then the first
    click after it, then the first purchase after that — the standard
    product-analytics funnel). Returns (user_id, completed_us) with the
    completion (last-stage) timestamp.

    Shape: rows are pre-filtered to funnel stages, users are bucketed by a
    multiplicative hash, and ONE shuffle co-locates each user's stage
    events; the per-bucket kernel is fully vectorized — one lexsort
    (user, ts), then per STAGE one masked ``np.minimum.reduceat`` over the
    user segments with the previous stage's per-user threshold (never a
    per-user Python loop). Per-bucket memory is stage-event rows per
    bucket, not all events."""
    BUCKET = "__funnel_bucket__"
    stage_ids = {s: i for i, s in enumerate(stages)}

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(b[type_col], value_set=pa.array(list(stages)))
        f = b.filter(keep)
        uid = f[user_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        st = np.zeros(f.num_rows, dtype=np.int8)
        tv = f[type_col]
        for s, i in stage_ids.items():
            st[pc.equal(tv, s).to_numpy(zero_copy_only=False)] = i
        with np.errstate(over="ignore"):
            h = (uid.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
        return pa.table(
            {
                "u": pa.array(uid, type=pa.int64()),
                "ts": pa.array(_ts_us(f), type=pa.int64()),
                "st": pa.array(st, type=pa.int8()),
                BUCKET: pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int64)
                ),
            }
        )

    if len(set(stages)) != len(stages):
        raise ValueError("funnel stages must be distinct event types")

    def bucket_kernel(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], type=pa.int64()),
                    "completed_us": pa.array([], type=pa.int64()),
                }
            )
        u = g["u"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        st = g["st"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        us, tss, sts = u[order], ts[order], st[order]
        starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
        bounds = np.r_[starts, len(us)]
        seg_of_row = np.repeat(
            np.arange(len(starts)), np.diff(bounds)
        )
        INF = np.iinfo(np.int64).max
        thresh = np.full(len(starts), -1, dtype=np.int64)  # ts must be > thresh
        alive = np.ones(len(starts), dtype=bool)
        for i in range(len(stages)):
            cand = np.where(
                (sts == i) & (tss > thresh[seg_of_row]), tss, INF
            )
            m = np.minimum.reduceat(cand, bounds[:-1])
            alive &= m < INF
            thresh = np.where(alive, m, thresh)
        users = us[starts][alive]
        return pa.table(
            {
                "user_id": pa.array(users, type=pa.int64()),
                "completed_us": pa.array(thresh[alive], type=pa.int64()),
            }
        )

    return (
        events.map_batches(project, batch_format="pyarrow")
        .groupby(BUCKET)
        .map_groups(bucket_kernel, batch_format="pyarrow")
    )


def _ohlc_merge_bucket(g: pa.Table, key_col: str) -> pa.Table:
    """``hourly_ohlc``'s merge kernel, vectorized across every (key, hour)
    group in one coarse bucket: two lexsorts — (hour, key, open-order)
    and (hour, key, close-order) — share identical run segmentation, so
    open/close are run first/last rows and high/low/n are reduceat folds.
    A zero-row bucket runs the same code and returns the same schema."""
    kcol = g[key_col]
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    enc = (
        kcol
        if pa.types.is_dictionary(kcol.type)
        else kcol.dictionary_encode()
    )
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hh = g["hour"].to_numpy(zero_copy_only=False)
    ots = g["ots"].to_numpy(zero_copy_only=False)
    oid = g["oid"].to_numpy(zero_copy_only=False)
    cts = g["cts"].to_numpy(zero_copy_only=False)
    cid = g["cid"].to_numpy(zero_copy_only=False)
    o_order = np.lexsort((oid, ots, codes, hh))
    c_order = np.lexsort((cid, cts, codes, hh))
    kk, hs = codes[o_order], hh[o_order]
    starts = np.flatnonzero(
        np.r_[len(kk) > 0, (kk[1:] != kk[:-1]) | (hs[1:] != hs[:-1])]
    )
    ends = np.r_[starts, len(kk)][1:] - 1
    open_rows = o_order[starts]
    close_rows = c_order[ends]
    hi = g["high_cents"].to_numpy(zero_copy_only=False)[o_order]
    lo = g["low_cents"].to_numpy(zero_copy_only=False)[o_order]
    nn = g["n"].to_numpy(zero_copy_only=False)[o_order]
    return pa.table(
        {
            key_col: kcol.take(
                pa.array(open_rows, type=pa.int64())
            ),
            "hour": pa.array(hs[starts]),
            "open_cents": pa.array(
                g["open_cents"].to_numpy(zero_copy_only=False)[
                    open_rows
                ],
                type=pa.int64(),
            ),
            "high_cents": pa.array(
                np.maximum.reduceat(hi, starts), type=pa.int64()
            ),
            "low_cents": pa.array(
                np.minimum.reduceat(lo, starts), type=pa.int64()
            ),
            "close_cents": pa.array(
                g["close_cents"].to_numpy(zero_copy_only=False)[
                    close_rows
                ],
                type=pa.int64(),
            ),
            "n": pa.array(
                np.add.reduceat(nn, starts), type=pa.int64()
            ),
        }
    )


def hourly_ohlc(
    events: "ray.data.Dataset",
    key_col: str = "event_type",
) -> "ray.data.Dataset":
    """Per-(key, hour) OHLC bars — the ordered FIRST/LAST aggregate family
    (open = value at min (ts, event_id), close = at max) the plain
    Sum/Min/Max partials can't express. Per-batch partials carry ONE row
    per (key, hour) with (open ts,id,cents) / (close ts,id,cents) /
    high / low / n — vectorized lexsort + reduceat, no Python per row —
    and the merge groupby moves only those partial rows (keys × calendar
    hours × blocks, never events). The (ts, event_id) tiebreak makes
    open/close deterministic under any repartitioning."""
    HOUR_US = 3_600_000_000

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=pa.string()),
                    "hour": pa.array([], type=pa.int64()),
                    "ots": pa.array([], type=pa.int64()),
                    "oid": pa.array([], type=pa.int64()),
                    "open_cents": pa.array([], type=pa.int64()),
                    "cts": pa.array([], type=pa.int64()),
                    "cid": pa.array([], type=pa.int64()),
                    "close_cents": pa.array([], type=pa.int64()),
                    "high_cents": pa.array([], type=pa.int64()),
                    "low_cents": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        ts = _ts_us(b)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        hour = ts // HOUR_US
        keys = b[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = keys.dictionary_encode()
        kidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # one segment per (key, hour): lexsort by (key, hour, ts, id)
        order = np.lexsort((eid, ts, hour, kidx))
        kk, hh, tt, ii, cc = (
            kidx[order], hour[order], ts[order], eid[order], cents[order]
        )
        new = np.r_[True, (kk[1:] != kk[:-1]) | (hh[1:] != hh[:-1])]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(kk)] - 1
        return pa.table(
            {
                key_col: pa.array(enc.dictionary.take(
                    pa.array(kk[starts], type=pa.int64()))),
                "hour": pa.array(hh[starts]),
                "ots": pa.array(tt[starts]),
                "oid": pa.array(ii[starts]),
                "open_cents": pa.array(cc[starts]),
                "cts": pa.array(tt[ends]),
                "cid": pa.array(ii[ends]),
                "close_cents": pa.array(cc[ends]),
                "high_cents": pa.array(np.maximum.reduceat(cc, starts)),
                "low_cents": pa.array(np.minimum.reduceat(cc, starts)),
                "n": pa.array((ends - starts + 1).astype(np.int64)),
            }
        )

    from .bucketed import bucketed_group_kernel

    # bucket on the high-cardinality hour (key_col is a low-cardinality
    # enum — bucketing on it would skew); the kernel segments per
    # (hour, key) inside the bucket
    return bucketed_group_kernel(
        events.map_batches(partial, batch_format="pyarrow"),
        "hour",
        lambda g: _ohlc_merge_bucket(g, key_col),
    )


def resample_locf(
    events: "ray.data.Dataset",
    step_s: int = 3600,
    key_col: str = "event_type",
    fill_cents: int = -1,
):
    """Fixed-grid resample with last-observation-carried-forward gap fill:
    per key, every ``step_s`` bucket on the GLOBAL [min, max] time grid
    gets the bucket's last value (by (ts, event_id) — deterministic under
    any repartitioning), and empty buckets carry the previous bucket's
    value forward (``fill_cents`` before the first observation).

    Scale shape: phase 1 is a vectorized per-batch partial (one row per
    (key, bucket, block) — the bucket's last observation in that block);
    phase 2 is ONE groupby(key) whose per-key group is partial rows
    (∝ occupied buckets, never events), merged with a vectorized
    lexsort + unique last-per-bucket + running-maximum LOCF index fill.
    The grid bounds ride a tiny driver-side aggregate. Per-key output is
    #grid buckets — bound step_s so (span / step_s) fits a worker."""
    from ray.data.aggregate import Max, Min

    def to_parts(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        bucket = ts // (step_s * 1_000_000)
        val = b["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100 + 0.5).astype(np.int64)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        key = b[key_col]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        enc = key.dictionary_encode()
        ki = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # last (ts, event_id) per (key, bucket) in THIS block: stable
        # lexsort then take each group's final element
        order = np.lexsort((eid, ts, bucket, ki))
        kb = np.stack([ki[order], bucket[order]], axis=1)
        changed = np.empty(len(order), dtype=bool)
        if len(order):
            changed[:-1] = (kb[1:] != kb[:-1]).any(axis=1)
            changed[-1] = True
        last = order[changed] if len(order) else order
        return pa.table(
            {
                key_col: key.take(pa.array(last)),
                "bucket": pa.array(bucket[last], type=pa.int64()),
                "cents": pa.array(cents[last], type=pa.int64()),
                "ts_us": pa.array(ts[last], type=pa.int64()),
                "event_id": pa.array(eid[last], type=pa.int64()),
            }
        )

    # materialize so the driver-side bounds aggregate and the groupby below
    # share ONE execution of the per-block partial pass
    parts = events.map_batches(to_parts, batch_format="pyarrow").materialize()
    bounds = parts.aggregate(Min("bucket"), Max("bucket"))
    if bounds is None or bounds.get("min(bucket)") is None:
        # empty input: no buckets, no grid — return an empty, typed table
        return ray.data.from_arrow(
            pa.table(
                {
                    key_col: pa.array([], type=pa.string()),
                    "bucket": pa.array([], type=pa.int64()),
                    "cents": pa.array([], type=pa.int64()),
                }
            )
        )
    b0, b1 = int(bounds["min(bucket)"]), int(bounds["max(bucket)"])
    n_grid = b1 - b0 + 1

    def fill(g: pa.Table) -> pa.Table:
        bucket = g["bucket"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, bucket))
        changed = np.empty(len(order), dtype=bool)
        changed[:-1] = bucket[order][1:] != bucket[order][:-1]
        changed[-1] = True
        last = order[changed]
        # LOCF over the grid: scatter positions of observed buckets, then
        # running max carries each forward until the next observation
        slot = np.full(n_grid, -1, dtype=np.int64)
        slot[bucket[last] - b0] = np.arange(len(last))
        np.maximum.accumulate(slot, out=slot)
        out = np.full(n_grid, fill_cents, dtype=np.int64)
        seen = slot >= 0
        out[seen] = cents[last][slot[seen]]
        key = g[key_col]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        return pa.table(
            {
                key_col: pa.array([key[0].as_py()] * n_grid, type=key.type),
                "bucket": pa.array(
                    np.arange(b0, b1 + 1, dtype=np.int64), type=pa.int64()
                ),
                "cents": pa.array(out, type=pa.int64()),
            }
        )

    return parts.groupby(key_col).map_groups(fill, batch_format="pyarrow")
