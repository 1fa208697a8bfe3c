"""Committed store → deterministic, resumable training-batch loader.

The final mile of the engine: a training job consumes the encoded store as
a stream of token-budgeted batches of WHOLE sequences (fairseq-style
``max_tokens`` dynamic batching — documents are never split; splitting to
fixed length is :mod:`..functions.packing`'s job). It serves the
per-column table store (tablestore.compress_table), whose parts carry seek
sidecars with the plain per-row ``n_tok`` (the paper's stored row
offsets: a position is metadata, never a scan). Guarantees:

- **Deterministic**: batch boundaries are a pure function of the store
  (fragment order = input-path order from the lineage manifest; row order =
  part/row order within a fragment) and ``batch_tokens``. Re-runs, resumes
  and different readers always see identical batches.
- **Fragment-aligned**: batches never cross fragment boundaries, so batch
  counts are per-fragment-local and the global step index is a cumulative
  sum over the manifest — a resume SEEKS: fragments wholly before
  ``start_step`` are never opened, and the plan pass reads only the
  manifest plus the per-row lengths (the seek sidecars; the encoded
  parquet ``n_tok`` column of stores written before sidecars existed),
  never the payloads. Fragments after the resume fragment are planned
  only once the consumer asks for a second batch, and the resume fragment
  decodes from its first served row.
- **Data-parallel**: ``rank``/``world_size`` shard whole fragments
  round-robin (deterministic by the same fragment order); each rank owns a
  disjoint fragment subset and numbers its own steps 0..N_r. Shard balance
  is fragment-granular — compact the store to even fragment sizes first if
  ranks must match closely.
- **Epoch shuffle**: ``epoch=(seed, epoch)`` permutes the FRAGMENT order by
  the deterministic epoch key (functions/shuffle.py) before rank sharding —
  the shard-level shuffle every large-scale loader uses (a true row-level
  epoch reshuffle is :func:`..functions.shuffle.epoch_shuffle`'s full
  range-sort; at the loader we keep within-fragment locality and reshuffle
  which shard comes when, and which rank owns it, per epoch). All
  guarantees above (determinism, seekable resume, disjoint ranks) hold
  per (seed, epoch).
- **Bounded memory**: one fragment's selected columns decode at a time
  (a fragment is one ingest file — ~1 GB at production sizing), then slice
  into batches; nothing global materializes. The next fragment is read
  ahead only once the consumer asks for a fragment's second batch.

A batch whose single row exceeds ``batch_tokens`` is emitted alone (the
caller chose the budget; dropping data silently would be worse) — the
``oversized`` flag marks it.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import Manifest
from .columnar import (
    _encoded_field_names,
    decode_columns_batch,
    decode_list_rows,
)
from .tablestore import (
    N_TOK_COL,
    SOURCE_COL,
    _fragment_parts,
    _read_part,
    seek_path,
)


def greedy_boundaries(
    n_tok: np.ndarray, batch_tokens: int, batch_rows: int | None = None
) -> np.ndarray:
    """Row indices [0, b1, b2, ..., n] of greedy token-budget batches:
    each batch takes the longest row-prefix whose token sum stays within
    ``batch_tokens`` (at least one row) AND, when ``batch_rows`` is set,
    at most that many rows (trainers cap sequences per batch alongside
    tokens). O(#batches) via searchsorted over the cumulative sum — no
    per-row Python."""
    if batch_tokens <= 0:
        raise ValueError("batch_tokens must be positive")
    if batch_rows is not None and batch_rows < 1:
        raise ValueError("batch_rows must be >= 1")
    n = len(n_tok)
    cs = np.cumsum(n_tok, dtype=np.int64)
    bounds = [0]
    i = 0
    base = 0
    while i < n:
        j = int(np.searchsorted(cs, base + batch_tokens, side="right"))
        if j <= i:  # single row over budget: its own (oversized) batch
            j = i + 1
        if batch_rows is not None:
            j = min(j, i + batch_rows)
        bounds.append(j)
        base = int(cs[j - 1])
        i = j
    return np.asarray(bounds, dtype=np.int64)


def _ordered_fragments(recs: list, rank: int, world_size: int, epoch=None):
    ordered = sorted(recs, key=lambda r: r["fragment"])
    ordered = [r for r in ordered if int(r.get("rows", 0)) > 0]
    if epoch is not None:
        from ..functions.shuffle import epoch_key

        seed, ep = epoch
        # frag_key is 16 hex chars; its low 60 bits make a stable int id
        ids = np.array(
            [int(r["frag_key"], 16) & ((1 << 60) - 1) for r in ordered],
            dtype=np.int64,
        )
        keys = epoch_key(ids, seed, ep)
        order = np.lexsort((np.arange(len(ordered)), keys))
        ordered = [ordered[i] for i in order]
    return ordered[rank::world_size]


def _read_parts(store_dir: str, frag_key: str, columns) -> list[pa.Table]:
    """One fragment's selected columns, still encoded: one table per part,
    parts in numeric row-group order."""
    parts = _fragment_parts(os.path.join(store_dir, "data"), frag_key)
    if not parts:
        raise FileNotFoundError(f"loader: fragment {frag_key} has no parts")
    return [_read_part(p, columns) for p in parts]


def _read_fragment(store_dir: str, frag_key: str, columns) -> pa.Table:
    """One fragment's selected columns, decoded, rows in store order."""
    parts = _read_parts(store_dir, frag_key, columns)
    return pa.concat_tables(decode_columns_batch(t) for t in parts)


# sidecars are a few KB: decompressing on the calling thread beats a
# thread-pool hand-off; without keep_sources only n_tok (field 0) decodes
_SEEK_READ = {
    False: pa.ipc.IpcReadOptions(use_threads=False, included_fields=[0]),
    True: pa.ipc.IpcReadOptions(use_threads=False),
}


def _read_sidecar(path: str, opts) -> pa.Table:
    # one plain read + an in-memory IPC reader is ~40% cheaper than
    # opening the file through Arrow's I/O layer
    with open(path, "rb") as f:
        buf = pa.py_buffer(f.read())
    return pa.ipc.open_file(buf, options=opts).read_all()


def _read_seek(store_dir: str, rec: dict, with_source: bool) -> pa.Table:
    """A seek fragment's plan columns from its part sidecars alone. The
    sidecars must account for exactly the committed rows: a damaged index
    raises rather than silently becoming a different plan. An iterator
    planning on its own raises before it serves any batch of that fragment
    or a later one (after the resume fragment: when the consumer asks for
    a second batch), and never serves a batch from a wrong plan."""
    parts = _fragment_parts(os.path.join(store_dir, "data"), rec["frag_key"])
    opts = _SEEK_READ[with_source]
    t = pa.concat_tables(_read_sidecar(seek_path(p), opts) for p in parts)
    if t.num_rows != int(rec["rows"]):
        raise ValueError(
            f"loader: seek sidecars of fragment {rec['frag_key']} "
            f"({rec['fragment']!r}) hold {t.num_rows} rows, the manifest "
            f"records {rec['rows']}"
        )
    return t


# table stores already warned about planning from parquet (once per store)
_PARQUET_PLAN_WARNED: set[str] = set()


def _plan_params(
    batch_tokens, rank, world_size, epoch, batch_rows, order, keep_sources
) -> dict:
    """The parameters a plan is a pure function of (besides the store)."""
    return {
        "batch_tokens": batch_tokens,
        "rank": rank,
        "world_size": world_size,
        "epoch": tuple(epoch) if epoch is not None else None,
        "batch_rows": batch_rows,
        "order": order,
        "keep_sources": (
            tuple(sorted(keep_sources)) if keep_sources is not None else None
        ),
    }


def _plan_entries(
    store_dir, batch_tokens, rank, world_size, epoch, batch_rows, order,
    keep_sources,
):
    """:func:`plan_training_batches`' entries as a generator. The checks,
    the one manifest read and the fragment order run before the first
    entry; each fragment's lengths are read when its entry is asked for."""
    if order not in ("store", "length", "shuffle"):
        raise ValueError(
            f"order must be 'store', 'length' or 'shuffle', got {order!r}"
        )
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} not in [0, {world_size})")
    all_recs = list(Manifest(store_dir).completed().values())
    if not all_recs:
        raise FileNotFoundError(
            f"loader: no committed fragments under {store_dir!r}"
        )
    params = _plan_params(
        batch_tokens, rank, world_size, epoch, batch_rows, order, keep_sources
    )
    recs = _ordered_fragments(all_recs, rank, world_size, epoch)
    cols = [N_TOK_COL] + ([SOURCE_COL] if keep_sources is not None else [])

    def frag_bounds(rec: dict):
        if rec.get("seek"):
            frag = _read_seek(store_dir, rec, keep_sources is not None)
        else:
            frag = _read_fragment(store_dir, rec["frag_key"], cols)
        nt = frag[N_TOK_COL].to_numpy().astype(np.int64)
        row_order = None
        if keep_sources is not None:
            m = pc.is_in(
                frag[SOURCE_COL].combine_chunks(),
                value_set=pa.array(sorted(keep_sources)),
            ).to_numpy(zero_copy_only=False)
            row_order = np.flatnonzero(m).astype(np.int64)
            nt = nt[row_order]
        if order == "length":
            sub = np.argsort(nt, kind="stable").astype(np.int64)
            row_order = sub if row_order is None else row_order[sub]
            nt = nt[sub]
        elif order == "shuffle":
            from ..functions.shuffle import epoch_key

            seed, ep = epoch if epoch is not None else (0, 0)
            # mix the fragment id into the seed so every fragment gets an
            # independent (but reproducible) permutation
            fid = int(rec["frag_key"], 16) & ((1 << 31) - 1)
            keys = epoch_key(
                np.arange(len(nt), dtype=np.int64), seed ^ fid, ep
            )
            # stable: equal keys keep row order (== lexsort by (key, row))
            sub = np.argsort(keys, kind="stable").astype(np.int64)
            row_order = sub if row_order is None else row_order[sub]
            nt = nt[sub]
        return greedy_boundaries(nt, batch_tokens, batch_rows), row_order

    if not all(r.get("seek") for r in recs):
        key = os.path.abspath(store_dir)
        if key not in _PARQUET_PLAN_WARNED:
            _PARQUET_PLAN_WARNED.add(key)
            warnings.warn(
                f"loader: {store_dir!r} has fragments without seek "
                "sidecars; planning them from the parquet parts (slower). "
                "Compact or transcode the store to add sidecars.",
                RuntimeWarning,
                stacklevel=3,
            )
    step = 0
    for rec in recs:
        bounds, row_order = frag_bounds(rec)
        ent = {
            "frag_key": rec["frag_key"],
            "fragment": rec["fragment"],
            "first_step": step,
            "boundaries": bounds,
            "params": params,
        }
        if row_order is not None:
            ent["row_order"] = row_order
        yield ent
        step += len(bounds) - 1


def plan_training_batches(
    store_dir: str,
    batch_tokens: int,
    rank: int = 0,
    world_size: int = 1,
    epoch: tuple[int, int] | None = None,
    batch_rows: int | None = None,
    order: str = "store",
    keep_sources: "list[str] | None" = None,
) -> list[dict]:
    """The seek index: per owned fragment (in order), the greedy batch
    boundaries — computed from the per-row ``n_tok`` lengths ALONE (plus
    ``source`` when ``keep_sources`` filters). Returns [{"frag_key",
    "fragment", "first_step", "boundaries", "params"}, ...].

    One manifest read per call; :func:`iter_training_batches` walks the
    same entries lazily: fragments after the resume fragment are planned
    only once its consumer asks for a second batch. A table-store fragment
    committed with ``"seek"`` plans from its parts' seek sidecars (a few
    bytes per row, no parquet open); other table-store fragments (stores
    written before sidecars existed) decode ``n_tok`` from the parquet
    parts, and a RuntimeWarning says so once per store. Plans are
    identical either way.

    ``keep_sources``: serve only rows whose ``source`` is in the list —
    the domain-ablation shape (train without one source) WITHOUT
    rewriting the store: filtering happens in the plan (a row-index
    subset per fragment), payloads of dropped rows never decode, and it
    composes with every ``order`` mode (length/shuffle act on the kept
    subset).

    ``order``: "store" (default) packs rows in store order; "length"
    stably sorts each fragment's rows by n_tok first, so batches hold
    similar-length sequences — for fixed-shape trainers that pad to the
    batch max, this cuts padding waste while staying deterministic and
    fragment-local (no shuffle; document locality within a batch is
    traded away); "shuffle" permutes each fragment's rows with a
    deterministic per-(seed, epoch, fragment) key — combined with the
    ``epoch`` fragment-order shuffle this is the standard approximate
    GLOBAL shuffle a pretraining run wants (local randomness inside each
    fragment, global randomness across fragments) with zero data
    movement: the permutation exists only in the plan."""
    return list(
        _plan_entries(
            store_dir, batch_tokens, rank, world_size, epoch, batch_rows,
            order, keep_sources,
        )
    )


def _materialize_fragment(store_dir, ent, cols, tokens_col, r0):
    """Read one plan fragment's parts once and decode the rows it serves
    from ``r0`` (the resume boundary, else 0) on into the serving arrays:
    flat int32 token values and int64 row offsets, then the id-column
    arrays. Tokens decode straight into the plan's row order
    (``row_order``: the length/shuffle permutation or the ``keep_sources``
    subset), so no ``take`` is paid on them; the id columns decode in
    store order and keep their cheap ``take``. Pure function of its
    arguments — safe to run ahead on a prefetch thread."""
    parts = _read_parts(store_dir, ent["frag_key"], cols)
    rows = ent.get("row_order")
    if rows is not None:
        rows = rows[r0:]
    elif r0:
        rows = np.arange(r0, sum(t.num_rows for t in parts), dtype=np.int64)
    flat, offs = decode_list_rows(pa.concat_tables(parts), tokens_col, rows)
    ids = [c for c in cols if c != tokens_col]
    if not ids:
        return flat, offs, {}
    keep = _encoded_field_names(parts[0], ids)
    tbl = pa.concat_tables(decode_columns_batch(t.select(keep)) for t in parts)
    if rows is not None:
        tbl = tbl.take(pa.array(rows))
    return flat, offs, {c: tbl[c].to_numpy(zero_copy_only=False) for c in ids}


def iter_training_batches(
    store_dir: str,
    batch_tokens: int,
    columns=("doc_id", "tokens"),
    tokens_col: str = "tokens",
    start_step: int = 0,
    rank: int = 0,
    world_size: int = 1,
    epoch: tuple[int, int] | None = None,
    batch_rows: int | None = None,
    order: str = "store",
    plan: list[dict] | None = None,
    prefetch: bool = True,
    keep_sources: "list[str] | None" = None,
):
    """Yield training batches from a committed store.

    Each batch is ``{"step", "n_rows", "n_tokens", "oversized",
    "tokens" (flat int32), "row_offsets" (int64, len n_rows+1),
    <id column arrays>}``. ``start_step`` resumes mid-stream: fragments
    whose batches all precede it are skipped via the plan (their payloads
    never decode), and the resume fragment decodes only the rows from its
    first served batch on. The store's manifest is read once; without a
    ``plan`` the fragments after the resume fragment are planned only once
    the consumer asks for a second batch (a damaged seek sidecar raises
    then, before any batch of that fragment is served). Pass a precomputed
    ``plan`` to skip the planning on restart.

    Each fragment's parts are read once; its tokens decode straight into
    the plan's row order (no ``take`` on tokens, no Arrow list built).

    ``prefetch`` (default on): once the consumer asks for a fragment's
    second batch, the next fragment's read+decode runs on ONE background
    thread while the rest serve, bounded at one in-flight fragment — the
    decode-next stall overlaps the consumer's step time (parquet reads
    and the C decode kernels release the GIL). An iterator closed after
    its first batch starts no thread. Results are bit-identical with it
    off."""
    if plan is None:
        plan = _plan_entries(
            store_dir, batch_tokens, rank, world_size, epoch, batch_rows,
            order, keep_sources,
        )
    elif plan:
        # a plan is a pure function of (store, these params): a reused plan
        # built for a DIFFERENT epoch/rank/budget would silently serve the
        # wrong order or the wrong shard — refuse instead
        want = _plan_params(
            batch_tokens, rank, world_size, epoch, batch_rows, order,
            keep_sources,
        )
        have = plan[0].get("params")
        have = dict(
            have,
            epoch=tuple(have["epoch"]) if have.get("epoch") else None,
            keep_sources=(
                tuple(have["keep_sources"])
                if have.get("keep_sources")
                else None
            ),
        ) if have else None
        if have != want:
            raise ValueError(
                f"loader: plan was built with {have}, called with {want} — "
                "recompute the plan for these parameters"
            )
    cols = list(columns)
    if tokens_col not in cols:
        cols.append(tokens_col)
    # fragments with no batch at or after start_step are passed unread
    ents = (
        ent
        for ent in plan
        if len(ent["boundaries"]) > 1
        and ent["first_step"] + len(ent["boundaries"]) - 1 > start_step
    )

    def first_served(ent):
        """(batch index, row) of the fragment's first served batch."""
        b0 = max(start_step - ent["first_step"], 0)
        return b0, int(ent["boundaries"][b0])

    def serve(ent, flat, offs, id_arrays):
        (b0, r0), bounds = first_served(ent), ent["boundaries"]
        for b in range(b0, len(bounds) - 1):
            lo, hi = int(bounds[b]) - r0, int(bounds[b + 1]) - r0
            t0, t1 = int(offs[lo]), int(offs[hi])
            yield {
                "step": ent["first_step"] + b,
                "n_rows": hi - lo,
                "n_tokens": t1 - t0,
                "oversized": bool(hi - lo == 1 and t1 - t0 > batch_tokens),
                "tokens": flat[t0:t1],
                "row_offsets": offs[lo : hi + 1] - t0,
                **{c: a[lo:hi] for c, a in id_arrays.items()},
            }

    def materialize(ent):
        return _materialize_fragment(
            store_dir, ent, cols, tokens_col, first_served(ent)[1]
        )

    pool = fut = None
    try:
        ent, rest = next(ents, None), None
        while ent is not None:
            batches = serve(
                ent, *(materialize(ent) if fut is None else fut.result())
            )
            yield next(batches)
            # the consumer came back, so it reads on: plan the remaining
            # fragments in one pass (planning each between two fragment
            # decodes made an epoch ~5% slower), read the next one ahead
            rest = rest or iter(list(ents))
            ent, fut = next(rest, None), None
            if prefetch and ent is not None:
                if pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    pool = ThreadPoolExecutor(max_workers=1)
                fut = pool.submit(materialize, ent)
            yield from batches
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
