"""Mergeable quantile sketch (KLL/MRL compactor family).

An exact grouped quantile shuffles DISTINCT (key, value) pairs —
bounded for quantized domains (integer cents, token counts) but
unbounded for raw high-cardinality floats. The
standard 100-TB answer is a compactor sketch (Karnin-Lang-Liberty /
Manku-Rajagopalan-Lindsay family, reimplemented from the published
algorithm): per-block sketches of fixed size, one driver merge, any
quantile answered within a RANK-error bound.

This implementation uses deterministic alternating compaction (the MRL
variant) and — the part the gates lean on — tracks its own worst-case
rank-error bound as it goes: each compaction of a level holding
weight-2^l items perturbs any rank by at most 2^l, so ``err_bound`` (the
running sum) is a certificate every estimate carries. Merging two
sketches concatenates levels and adds certificates. The pytest and the
driver gate assert |estimated rank − true rank| ≤ err_bound on real
data — a falsifiable contract, not a vibe."""

from __future__ import annotations

import numpy as np


class QuantileSketch:
    """Fixed-capacity compactor hierarchy over float64 values."""

    def __init__(self, capacity: int = 2048):
        if capacity < 4 or capacity % 2:
            raise ValueError("capacity must be an even integer ≥ 4")
        self.capacity = capacity
        self.levels: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
        self.n = 0
        self.err_bound = 0  # rigorous worst-case rank error, in items
        self._flip = 0  # deterministic alternating offset

    # ------------------------------------------------------------- build
    def add(self, values: np.ndarray) -> "QuantileSketch":
        v = np.asarray(values, dtype=np.float64).ravel()
        v = v[~np.isnan(v)]
        if not len(v):
            return self
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compact_all()
        return self

    def _compact_all(self):
        lvl = 0
        while lvl < len(self.levels):
            if len(self.levels[lvl]) >= self.capacity:
                self._compact(lvl)
            lvl += 1

    def _compact(self, lvl: int):
        buf = np.sort(self.levels[lvl], kind="stable")
        off = self._flip & 1
        self._flip += 1
        promoted = buf[off::2]
        self.levels[lvl] = np.zeros(0, dtype=np.float64)
        if lvl + 1 == len(self.levels):
            self.levels.append(np.zeros(0, dtype=np.float64))
        self.levels[lvl + 1] = np.concatenate(
            [self.levels[lvl + 1], promoted]
        )
        # dropping every other weight-2^lvl item shifts any rank ≤ 2^lvl
        self.err_bound += 1 << lvl

    # ------------------------------------------------------------- merge
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if other.capacity != self.capacity:
            raise ValueError("capacity mismatch")
        while len(self.levels) < len(other.levels):
            self.levels.append(np.zeros(0, dtype=np.float64))
        for lvl, arr in enumerate(other.levels):
            if len(arr):
                self.levels[lvl] = np.concatenate([self.levels[lvl], arr])
        self.n += other.n
        self.err_bound += other.err_bound
        self._compact_all()
        return self

    # --------------------------------------------------------- serialize
    def to_rows(self):
        """(level, values) pairs — one tiny row per non-empty level, so a
        sketch rides a Ray block as plain Arrow columns."""
        return [
            (lvl, arr.copy())
            for lvl, arr in enumerate(self.levels)
            if len(arr)
        ] or [(0, np.zeros(0, dtype=np.float64))]

    @classmethod
    def from_rows(cls, rows, n: int, err_bound: int, capacity: int = 2048):
        sk = cls(capacity)
        for lvl, arr in rows:
            while len(sk.levels) <= lvl:
                sk.levels.append(np.zeros(0, dtype=np.float64))
            sk.levels[lvl] = np.asarray(arr, dtype=np.float64)
        sk.n = n
        sk.err_bound = err_bound
        return sk

    # ------------------------------------------------------------- query
    def _weighted(self):
        vals = []
        wts = []
        for lvl, arr in enumerate(self.levels):
            if len(arr):
                vals.append(arr)
                wts.append(np.full(len(arr), 1 << lvl, dtype=np.int64))
        if not vals:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def rank_tolerance(self) -> int:
        """Worst-case |true rank − target rank| for any ``quantile``
        answer: the compaction certificate plus one top-level item weight
        (searchsorted may land on an item whose cumulative weight
        overshoots the target by its own weight)."""
        return self.err_bound + (1 << (len(self.levels) - 1))

    def quantile(self, q) -> np.ndarray:
        """Value(s) whose estimated rank is ⌈q·n⌉ (q scalar or array)."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        v, w = self._weighted()
        if not len(v):
            return np.full(len(qs), np.nan)
        cum = np.cumsum(w)
        target = np.ceil(qs * self.n).astype(np.int64).clip(1, self.n)
        idx = np.searchsorted(cum, target, side="left").clip(0, len(v) - 1)
        return v[idx]


def sketch_dataset(
    ds, col: str, capacity: int = 2048, values_fn=None
) -> QuantileSketch:
    """ONE sketch per block (a few KB each, emitted as a single Arrow row
    of nested lists), merged on the driver — the shuffle-free mergeable-
    partial shape shared with the HLL/Misra-Gries sketches. Ray's
    exactly-once block semantics mean a retried task cannot double-merge.
    ``values_fn(batch) -> np.ndarray`` overrides the plain-column read —
    the whole-table store sketches straight off its cached encoded
    streams through this hook."""
    import pyarrow as pa

    def partial(b: pa.Table) -> pa.Table:
        vals = (
            values_fn(b)
            if values_fn is not None
            else b[col].to_numpy(zero_copy_only=False)
        )
        sk = QuantileSketch(capacity).add(vals)
        rows = sk.to_rows()
        return pa.table(
            {
                "lvls": pa.array(
                    [[lvl for lvl, _ in rows]], type=pa.list_(pa.int64())
                ),
                "vals": pa.array(
                    [[arr.tolist() for _, arr in rows]],
                    type=pa.list_(pa.list_(pa.float64())),
                ),
                "n": pa.array([sk.n], type=pa.int64()),
                "err": pa.array([sk.err_bound], type=pa.int64()),
            }
        )

    out = QuantileSketch(capacity)
    for b in (
        ds.map_batches(partial, batch_size=None, batch_format="pyarrow")
        .iter_batches(batch_size=256, batch_format="pyarrow")
    ):
        for r in b.to_pylist():
            out.merge(
                QuantileSketch.from_rows(
                    list(zip(r["lvls"], [np.asarray(v) for v in r["vals"]])),
                    int(r["n"]),
                    int(r["err"]),
                    capacity,
                )
            )
    return out


def grouped_sketch_quantiles(
    ds,
    key_col: str,
    val_col: str,
    qs=(0.5, 0.9, 0.99),
    capacity: int = 1024,
):
    """Per-KEY quantile estimates: one sketch per (block, key) — a few KB
    regardless of group size — then ONE shuffle of those sketch rows
    co-locates each key's partials and a vectorized in-group merge
    answers the quantiles. The shuffle volume is keys × blocks sketch
    rows, never values (the grouped twin of ``sketch_dataset``; same
    shape as grouped HLL). Returns (key, q, est, n, tol) rows —
    ``tol`` is the merged sketch's self-reported rank tolerance."""
    import pyarrow as pa

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], type=b.schema.field(key_col).type),
                    "lvls": pa.array([], type=pa.list_(pa.int64())),
                    "vals": pa.array(
                        [], type=pa.list_(pa.list_(pa.float64()))
                    ),
                    "n": pa.array([], type=pa.int64()),
                    "err": pa.array([], type=pa.int64()),
                }
            )
        keys = b[key_col].to_numpy(zero_copy_only=False)
        vals = b[val_col].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        sk_, sv = keys[order], vals[order]
        starts = np.flatnonzero(np.r_[True, sk_[1:] != sk_[:-1]])
        bounds = np.r_[starts, len(sk_)]
        out_k, out_l, out_v, out_n, out_e = [], [], [], [], []
        for i, s in enumerate(starts):
            seg = sv[s : bounds[i + 1]]
            sk = QuantileSketch(capacity).add(seg)
            rows = sk.to_rows()
            out_k.append(sk_[s])
            out_l.append([lvl for lvl, _ in rows])
            out_v.append([arr.tolist() for _, arr in rows])
            out_n.append(sk.n)
            out_e.append(sk.err_bound)
        return pa.table(
            {
                key_col: pa.array(out_k),
                "lvls": pa.array(out_l, type=pa.list_(pa.int64())),
                "vals": pa.array(out_v, type=pa.list_(pa.list_(pa.float64()))),
                "n": pa.array(out_n, type=pa.int64()),
                "err": pa.array(out_e, type=pa.int64()),
            }
        )

    def merge_group(g: pa.Table) -> pa.Table:
        out = QuantileSketch(capacity)
        for r in g.to_pylist():
            out.merge(
                QuantileSketch.from_rows(
                    list(zip(r["lvls"], [np.asarray(v) for v in r["vals"]])),
                    int(r["n"]),
                    int(r["err"]),
                    capacity,
                )
            )
        est = out.quantile(list(qs))
        k = g[key_col][0].as_py()
        return pa.table(
            {
                key_col: pa.array([k] * len(est)),
                "q": pa.array([str(x) for x in qs], type=pa.string()),
                "est": pa.array(est, type=pa.float64()),
                "n": pa.array([out.n] * len(est), type=pa.int64()),
                "tol": pa.array(
                    [out.rank_tolerance()] * len(est), type=pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_size=None, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(merge_group, batch_format="pyarrow")
    )
