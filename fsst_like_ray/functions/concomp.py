"""Distributed connected components over an edge list.

(The reference has no graph ops — SURVEY.md §2.5; this is the
training-pipeline extension: LSH dedup emits candidate PAIRS, and the
final step of every production dedup pipeline is grouping those pairs
into transitive duplicate CLUSTERS — A~B and B~C must land in one
cluster even when A and C never share a bucket.)

Algorithm: alternating large-star / small-star (Kiveris et al.,
"Connected Components in MapReduce and Beyond", SoCC 2014 — public):

- large-star: every node u connects its LARGER neighbors to the minimum
  of its neighborhood (incl. u itself);
- small-star: every node u connects its smaller-or-equal neighbors (and
  itself) to that minimum.

Both rounds preserve connectivity, monotonically shrink edge weight sums
and converge in O(log n) rounds to a star forest where every node points
at its component's MINIMUM node id — the cluster representative.

Ray Data shape: each round is ONE hash shuffle. Edges are bucketed by a
multiplicative hash of the grouping node, so a round is
``groupby(bucket).map_groups`` with a fully VECTORIZED per-bucket kernel
(argsort + per-segment ``np.minimum.reduceat`` — never a per-node Python
loop). Convergence is detected with an order-independent fingerprint
(count + summed edge hash) computed as a per-block partial, so the driver
only ever sees two integers per round. The edge set (duplicate-pair
scale, NOT data scale) is materialized between rounds — the standard
iterative-algorithm trade, same as similarity.py's IVF k-means.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

_MIX = np.uint64(0x9E3779B97F4A7C15)
_BUCKET = "__cc_bucket__"


def _dedup_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique (u, v) pairs via one lexsort (no 2-D np.unique)."""
    if not len(u):
        return u, v
    order = np.lexsort((v, u))
    us, vs = u[order], v[order]
    keep = np.r_[True, (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])]
    return us[keep], vs[keep]


def _edges_table(u: np.ndarray, v: np.ndarray) -> pa.Table:
    return pa.table(
        {"u": pa.array(u, type=pa.int64()), "v": pa.array(v, type=pa.int64())}
    )


def _segment_min_to(
    node: np.ndarray, nbr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows by ``node``; per node-segment m = min(min(nbr), node).
    Returns (node_sorted, nbr_sorted, m broadcast to rows)."""
    order = np.lexsort((nbr, node))
    ns, vs = node[order], nbr[order]
    starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
    m = np.minimum(np.minimum.reduceat(vs, starts), ns[starts])
    sizes = np.diff(np.r_[starts, len(ns)])
    return ns, vs, np.repeat(m, sizes)


def _large_star_bucket(g: pa.Table) -> pa.Table:
    """Input rows are SYMMETRIZED half-edges (node=u, nbr=v) hashed here by
    u. Emit (v, m) for every neighbor v > u, m = min(neighborhood ∪ {u})."""
    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    ns, vs, m = _segment_min_to(u, v)
    keep = vs > ns
    ou, ov = _dedup_pairs(vs[keep], m[keep])
    loop = ou != ov
    return _edges_table(ou[loop], ov[loop])


def _small_star_bucket(g: pa.Table) -> pa.Table:
    """Input rows are canonical edges (u=max, v=min) hashed by u. Emit
    (x, m) for x in smaller-neighbors ∪ {u}, m = their minimum."""
    u = g["u"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    ns, vs, m = _segment_min_to(u, v)
    # neighbors → root, plus each segment head's own (node → root) edge
    heads = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
    ou = np.concatenate([vs, ns[heads]])
    ov = np.concatenate([m, m[heads]])
    ou, ov = _dedup_pairs(ou, ov)
    loop = ou != ov
    return _edges_table(ou[loop], ov[loop])


def _bucketize(tbl: pa.Table, n_buckets: int) -> pa.Table:
    kk = tbl["u"].to_numpy(zero_copy_only=False)
    with np.errstate(over="ignore"):
        h = (kk.view(np.uint64) * _MIX) >> np.uint64(32)
    return tbl.append_column(
        _BUCKET, pa.array((h % np.uint64(n_buckets)).astype(np.int64))
    )


def _fingerprint(edges: "ray.data.Dataset") -> tuple[int, int]:
    """Order-independent (count, hash-sum) of the edge set; per-block
    partials, two ints per block reach the driver."""

    def part(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).view(np.uint64)
        v = b["v"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            h = (u * _MIX) ^ (v * np.uint64(0xC2B2AE3D27D4EB4F))
            s = int(np.bitwise_xor.reduce(h)) if len(h) else 0
        return pa.table(
            {"n": pa.array([len(u)]), "h": pa.array([s], type=pa.uint64())}
        )

    n = tot = 0
    for blk in edges.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        n += int(pa.compute.sum(blk["n"]).as_py() or 0)
        for x in blk["h"].to_pylist():
            tot ^= x
    return n, tot


def connected_components(
    edges: "ray.data.Dataset",
    u_col: str = "u",
    v_col: str = "v",
    n_buckets: int = 32,
    max_rounds: int = 50,
) -> "ray.data.Dataset":
    """Edge-list Dataset (two int64 node columns) → Dataset
    ``(node:int64, component:int64)`` where component is the MINIMUM node
    id reachable from ``node``. Nodes that appear in no edge are absent
    (they are their own singleton components — join back at the caller).

    Each round is one bounded shuffle of the PAIR set; rounds ≈ log of
    the largest component's diameter."""

    def canon(b: pa.Table) -> pa.Table:
        uu = b[u_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        vv = b[v_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hi, lo = np.maximum(uu, vv), np.minimum(uu, vv)
        keep = hi != lo
        return _edges_table(hi[keep], lo[keep])

    cur = edges.map_batches(canon, batch_format="pyarrow").materialize()
    fp = _fingerprint(cur)
    if fp[0] == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.int64()),
                    "component": pa.array([], type=pa.int64()),
                }
            )
        )

    def symmetrize(b: pa.Table) -> pa.Table:
        uu = b["u"].to_numpy(zero_copy_only=False)
        vv = b["v"].to_numpy(zero_copy_only=False)
        return _edges_table(
            np.concatenate([uu, vv]), np.concatenate([vv, uu])
        )

    for _ in range(max_rounds):
        large = (
            cur.map_batches(symmetrize, batch_format="pyarrow")
            .map_batches(
                lambda b: _bucketize(b, n_buckets), batch_format="pyarrow"
            )
            .groupby(_BUCKET)
            .map_groups(
                lambda g: _large_star_bucket(g), batch_format="pyarrow"
            )
        )
        # large-star output already has u > v (v is a neighborhood min)
        small = (
            large.map_batches(
                lambda b: _bucketize(b, n_buckets), batch_format="pyarrow"
            )
            .groupby(_BUCKET)
            .map_groups(
                lambda g: _small_star_bucket(g), batch_format="pyarrow"
            )
            .materialize()
        )
        nfp = _fingerprint(small)
        cur = small
        if nfp == fp:
            break
        fp = nfp
    else:
        raise RuntimeError("connected_components did not converge")

    def to_assign(b: pa.Table) -> pa.Table:
        # star edges (node → root); roots themselves appear only as v
        return pa.table({"node": b["u"], "component": b["v"]})

    assign = cur.map_batches(to_assign, batch_format="pyarrow")

    def roots(b: pa.Table) -> pa.Table:
        vv = np.unique(b["component"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "node": pa.array(vv, type=pa.int64()),
                "component": pa.array(vv, type=pa.int64()),
            }
        )

    root_rows = assign.map_batches(roots, batch_format="pyarrow")
    both = assign.union(root_rows)
    # a node can appear in several star edges pre-dedup and every root per
    # block — one grouped min makes assignments unique and deterministic
    return (
        both.groupby("node")
        .min("component")
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"].cast(pa.int64()),
                    "component": b["min(component)"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
