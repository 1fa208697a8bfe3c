"""Resumable whole-table encoded store — the north rule's lineage/resume
contract (reference benchmark loop: src/BenchmarkDriver.cpp:12-52 loads and
encodes once in RAM; at 10^12-sequence scale the encode is a restartable
job) applied to the per-column engine in pipelines/columnar.py. This is
the repo's one persisted store format: a tokens corpus stores its
``tokens list<int32>`` column as flat values plus offsets like any other
column.

Layout under ``out_dir``:

- ``data/frag=<key>/part-<rg0:06d>.parquet`` — the fragment's
  per-column-encoded rows (columnar.encode_columns_batch layout), one
  directory per INPUT fragment (resume skips finished fragments
  wholesale), one part per row-group SPEC so a multi-GB fragment
  encodes as many parallel tasks, not one straggler.
- ``data/frag=<key>/part-<rg0:06d>.seek`` — the part's seek sidecar,
  written only when the input has an integer ``n_tok`` column: an Arrow
  IPC file (zstd) holding the plain ``n_tok`` values and, when present,
  ``source`` as a dictionary column — the per-row lengths the training
  loader plans from without opening the parquet part (pipelines/loader.py).
- ``_manifest/<key>.json`` — lineage: input fragment, rows, per-column
  plain/encoded bytes and the scheme histogram, committed atomically
  AFTER the fragment's data is fully written (state/manifest.py).
  ``"seek": 1`` marks a fragment whose every part has a sidecar.

Each fragment encodes in row-group-sized batches through ONE streaming
ParquetFile reader and ONE ParquetWriter — peak memory per task is a
single batch, never the fragment.
"""

from __future__ import annotations

import base64
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..state.manifest import Manifest, fragment_key
from .columnar import (
    _encoded_field_names,
    assert_bit_equal,
    columnar_nulls_batch,
    columnar_stats_batch,
    columnar_zones_batch,
    decode_columns_dataset,
    encode_columns_batch,
)
from .compress import _rowgroup_specs, cluster_cpus, discover_fragments

DEFAULT_BATCH_ROWS = 8192

# per-(fragment, string column) trigram bloom recorded in the lineage
# manifest (base64) — like_table_store prunes fragments whose bloom lacks a
# pattern trigram before opening any part file. 8 KB/column balances
# manifest size against fpr (a fragment is ~one row group; the standalone
# trigram index, pipelines/trigram.py, spends 32 KB per FILE).
TRI_BLOOM_BYTES = 1 << 13
_TRI_K = 4

# Int-key value blooms share the lineage "trigrams" slot (same per-column
# b64-OR merge plumbing rides every copy-through: compact, filter, upsert,
# union) and the same soundness invariant: every part WITH ROWS carries a
# bloom for every int column, so OR-merging parts can never lose keys
# (zero-row parts contribute no keys and legitimately no bloom). A
# different SIZE disambiguates kind — probes check the blob length so an
# int literal is never tested against trigram bits on a same-named string
# column from an older schema. 65536 bits keeps the false-positive rate
# useful to ~12k distinct keys per fragment; a unique-per-row id column
# saturates its bloom, which then keeps every fragment (no false
# negatives) — worst case is the zones-only behavior, never a wrong prune.
INT_BLOOM_BYTES = (1 << 13) + 8  # +8: never equal to TRI_BLOOM_BYTES
_INT_K = 4

# Executor threshold of the store scans (_run_parts), in surviving part
# file bytes. A Ray Data read → map_batches chain pays a fixed floor F
# before its first batch returns; the same per-part kernel in the driver
# pays bytes / R (R: in-driver throughput over part bytes) and hands its
# tables back as they are (ScanResult). On N CPUs Ray takes
# F + bytes / (R·N), so the driver wins while bytes < F·R·N/(N−1); the
# constant is the N→∞ bound F·R, which holds on any cluster width.
# Measured on a 1-CPU share of a Xeon VM (perfbench query stores, seed
# 5, 6 runs of the perfbench request mix, R over warm runs 2-6): F
# 122–174 ms (identity chain), R 60.4–67.5 MB/s for LIKE, 24.7–27.6 for
# GROUP BY, 27.4–30.5 for the range scan, 50.2–56.1 for COUNT → worst
# case 122 ms × 24.7 MB/s = 3.0 MB, rounded down to 2 MiB. R is in file
# bytes, so it fell when the parts shrank (__rowidx and payloads left
# dictionary encoding; events parts are 39% smaller) while the per-row
# work stayed: the same script put the earlier parts at 123 ms ×
# 33.6 MB/s = 4.1 MB, the 4 MiB this constant was before.
DRIVER_SCAN_BYTES = 2 << 20

# Seek sidecar schema: the row-length column the loader plans batches
# from, and the optional domain column its ``keep_sources`` filters on.
N_TOK_COL = "n_tok"
SOURCE_COL = "source"


def seek_path(part: str) -> str:
    """The seek sidecar path of a ``part-*.parquet`` file."""
    return part[: -len(".parquet")] + ".seek"


def _write_seek(part: str, n_tok: list, source: list) -> None:
    """Write ``part``'s sidecar from per-batch ``n_tok`` chunks and (when
    the input has one) dictionary-encoded ``source`` chunks, tmp + rename
    so a crash never leaves a truncated sidecar under the final name."""
    cols = {N_TOK_COL: pa.chunked_array(n_tok).combine_chunks()}
    if source:
        # combine_chunks unifies the per-batch dictionaries
        cols[SOURCE_COL] = pa.chunked_array(source).combine_chunks()
    t = pa.table(cols)
    path = seek_path(part)
    tmp = path + ".tmp"
    opts = pa.ipc.IpcWriteOptions(compression="zstd")
    with pa.ipc.new_file(tmp, t.schema, options=opts) as w:
        w.write_table(t)
    os.replace(tmp, path)


def _remove_part(part: str) -> None:
    """Delete a part with its sidecar (and a half-written sidecar)."""
    for p in (part, seek_path(part), seek_path(part) + ".tmp"):
        if os.path.exists(p):
            os.remove(p)


def _copy_part(src: str, dst: str) -> bool:
    """Byte-copy one encoded part (size-verified) and its seek sidecar, if
    any, under the matching name. Returns whether a sidecar came along."""
    pairs = [(src, dst)]
    if os.path.exists(seek_path(src)):
        pairs.append((seek_path(src), seek_path(dst)))
    for a, b in pairs:
        shutil.copy2(a, b)
        if os.path.getsize(b) != os.path.getsize(a):
            raise IOError(f"copy size mismatch: {a!r} -> {b!r}")
    return len(pairs) == 2


def _copy_parts(src_data: str, rec: dict, fdir: str) -> bool:
    """Copy a committed fragment's parts verbatim (same names) into
    ``fdir``. True when the copy keeps the record's seek guarantee: the
    source record had ``"seek"`` and every part brought its sidecar."""
    seek = bool(rec.get("seek"))
    for part in _fragment_parts(src_data, rec["frag_key"]):
        dst = os.path.join(fdir, os.path.basename(part))
        seek = _copy_part(part, dst) and seek
    return seek


def _intkey_accumulate(blooms: dict, t: pa.Table) -> None:
    """OR each integer column's distinct values into its value bloom
    (equality/IN fragment pruning — the zones twin for point lookups on
    keys whose ranges interleave across fragments)."""
    from ..functions.bloom import bloom_insert

    for name in t.column_names:
        f = t.schema.field(name)
        if not pa.types.is_integer(f.type):
            continue
        col = t[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        v = col.drop_null().to_numpy(zero_copy_only=False)
        if not len(v):
            continue
        keys = np.unique(v.astype(np.int64)).view(np.uint64)
        bl = blooms.get(name)
        if bl is None:
            bl = blooms[name] = np.zeros(INT_BLOOM_BYTES, dtype=np.uint8)
        bloom_insert(bl, keys, _INT_K)


def _intkey_keeps(rec: dict, column: str, values) -> bool:
    """Fragment-tier equality/IN test on an int column: False only when
    the lineage value bloom PROVES none of ``values`` can be present.
    Only INT_BLOOM_BYTES-sized blobs are probed — a trigram bloom on the
    same name (different column kind) is never misread as value bits."""
    from ..functions.bloom import bloom_contains

    b64 = (rec.get("trigrams") or {}).get(column)
    if b64 is None:
        return True
    bl = np.frombuffer(base64.b64decode(b64), dtype=np.uint8)
    if len(bl) != INT_BLOOM_BYTES:
        return True
    keys = np.array(list(values), dtype=np.int64).view(np.uint64)
    return bool(bloom_contains(bl, keys, _INT_K).any())


def _ndv_accumulate(regs: dict, t: pa.Table) -> None:
    """Max-merge each int/string column's HLL registers into the lineage
    NDV accumulator (functions/sketches.py HLL, P=12 → 4 KB/column,
    ~1.6% standard error). Registers merge by elementwise MAX — across
    batches here, across parts at commit, across fragments at query time
    — so the store answers approx COUNT(DISTINCT col) from the manifest
    alone, the planner-statistics twin of the zone/bloom evidence.
    Advisory only: estimates never gate correctness."""
    from ..functions.sketches import hll_batch

    for name in t.column_names:
        f = t.schema.field(name)
        if not (
            pa.types.is_integer(f.type)
            or pa.types.is_string(f.type)
            or pa.types.is_large_string(f.type)
        ):
            continue
        col = t[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        sub = pa.table({name: col.drop_null()})
        if not sub.num_rows:
            continue
        blob = hll_batch(sub, name)["hll"][0].as_py()
        new = np.frombuffer(blob, dtype=np.uint8)
        cur = regs.get(name)
        regs[name] = new.copy() if cur is None else np.maximum(cur, new)


def _merge_ndv(dst: dict, src: dict) -> None:
    """Elementwise-MAX per-column base64 HLL register blobs in place
    (dst/src: col → b64) — HLL's canonical merge, NOT the blooms' OR."""
    for c, b64 in src.items():
        b = np.frombuffer(base64.b64decode(b64), dtype=np.uint8)
        cur = dst.get(c)
        if cur is None:
            dst[c] = b64
        else:
            merged = np.maximum(
                np.frombuffer(base64.b64decode(cur), dtype=np.uint8), b
            )
            dst[c] = base64.b64encode(merged.tobytes()).decode()


def ndv_table_store(out_dir: str, column: str | None = None) -> dict:
    """Approximate distinct counts from the lineage manifest ALONE (no Ray
    session, no file opens): max-merge every committed fragment's HLL
    registers per column and estimate. Returns {column: ndv}; columns
    with no NDV evidence (legacy manifests, unsupported types) are
    absent. ``column`` restricts (and raises if that column has no
    evidence)."""
    from ..functions.sketches import hll_merge_estimate

    done = Manifest(out_dir).completed()
    if not done:
        raise FileNotFoundError(
            f"ndv_table_store: no committed fragments under {out_dir!r}"
        )
    merged: dict = {}
    for rec in done.values():
        _merge_ndv(merged, rec.get("ndv") or {})
    out = {
        c: hll_merge_estimate([base64.b64decode(b64)])
        for c, b64 in sorted(merged.items())
        if column is None or c == column
    }
    if column is not None and column not in out:
        raise KeyError(
            f"ndv_table_store: no NDV evidence for column {column!r}"
        )
    return out


def _tri_accumulate(blooms: dict, t: pa.Table) -> None:
    """OR each string column's within-row trigram keys into its bloom."""
    from .trigram import _trigram_keys, _utf8_flat

    from ..functions.bloom import bloom_insert

    for name in t.column_names:
        f = t.schema.field(name)
        if not (pa.types.is_string(f.type) or pa.types.is_large_string(f.type)):
            continue
        col = t[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        keys = _trigram_keys(*_utf8_flat(col))
        bl = blooms.get(name)
        if bl is None:
            bl = blooms[name] = np.zeros(TRI_BLOOM_BYTES, dtype=np.uint8)
        bloom_insert(bl, keys, _TRI_K)


def _merge_tri(dst: dict, src: dict) -> None:
    """OR per-column base64 bloom blobs in place (dst/src: col → b64)."""
    for c, b64 in src.items():
        b = np.frombuffer(base64.b64decode(b64), dtype=np.uint8)
        cur = dst.get(c)
        if cur is None:
            dst[c] = b64
        else:
            merged = np.frombuffer(
                base64.b64decode(cur), dtype=np.uint8
            ) | b
            dst[c] = base64.b64encode(merged.tobytes()).decode()


def _part_writer(out_path: str, schema: pa.Schema) -> pq.ParquetWriter:
    """The one writer of part files. Each field's parquet encoding follows
    its name (columnar.py, "Encoded layout"):

    - ``__rowidx`` (0..n-1 per encode block) is DELTA_BINARY_PACKED: a few
      hundred bytes a row group, where a dictionary page held every
      distinct position (~46 KB per 8,192 rows);
    - ``*__payload`` (per-row bytes, unique by construction) is
      DELTA_LENGTH_BYTE_ARRAY with no dictionary. Measured against PLAIN on
      the seed-5 perfbench stores: PLAIN made the parts 13% larger on
      events (a 4-byte length per empty scalar-family payload) and 6% on
      docs, for ~15% faster reads of the token store's payloads, so the
      lengths are delta-coded;
    - every other field (the ``*__blk`` envelopes, ``*__n``) keeps
      dictionary encoding: one envelope per block repeats on every row.

    No parquet statistics are written: zones live in the manifest and
    nothing reads parquet statistics of an encoded field, while an
    envelope's min/max would store it twice more. Readers need no
    switch; parquet decodes any of these encodings, so parts written
    with dictionaries and statistics everywhere read the same."""
    encoding = {"__rowidx": "DELTA_BINARY_PACKED"} | {
        n: "DELTA_LENGTH_BYTE_ARRAY"
        for n in schema.names
        if n.endswith("__payload")
    }
    return pq.ParquetWriter(
        out_path,
        schema,
        use_dictionary=[n for n in schema.names if n not in encoding],
        column_encoding=encoding,
        write_statistics=False,
    )


def _read_part(path: str, columns=None) -> pa.Table:
    """One committed part's encoded fields for the logical ``columns``
    (None: every field), read straight from the parquet file: no dataset
    discovery, and the field names come from the footer this open parses.
    Dictionary fields come back one chunk per row group, the others as
    one chunk; the kernels combine chunks per field."""
    pf = pq.ParquetFile(path)
    if columns is not None:
        columns = _encoded_field_names(pf.schema_arrow.names, columns)
    return pf.read(columns=columns)


def _encode_fragment(
    path: str,
    fdir: str,
    codec_names=None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    spec: dict | None = None,
    transform=None,
    row_groups=None,
    part_name: str = "part-000000.parquet",
) -> dict:
    """Stream one source fragment (or the ``row_groups`` slice of one) →
    one encoded part file + a stats dict. ``transform`` (optional) maps
    each read batch before encoding — the transcode path passes
    decode_columns_batch so an already-encoded partition re-encodes
    through the same write/zero-row/cleanup path. A table with an integer
    ``n_tok`` column also gets the part's seek sidecar (``stats["seek"]``
    says whether it did)."""
    os.makedirs(fdir, exist_ok=True)
    pf = pq.ParquetFile(path)
    writer = None
    out_path = os.path.join(fdir, part_name)
    acc: dict[str, list] = {}  # column -> [plain, encoded, set(schemes)]
    zones: dict[str, list] = {}  # column -> [vmin, vmax] (int-logical only)
    tri: dict[str, np.ndarray] = {}  # string column -> trigram bloom
    ndv: dict[str, np.ndarray] = {}  # int/string column -> HLL registers
    nulls: dict[str, int] = {}  # column -> null count
    seek = None  # (n_tok chunks, source chunks) when the input has n_tok
    n_rows = 0

    def add_seek(t: pa.Table) -> None:
        nonlocal seek
        if N_TOK_COL not in t.column_names or not pa.types.is_integer(
            t.schema.field(N_TOK_COL).type
        ):
            return
        if seek is None:
            seek = ([], [])
        seek[0].append(t[N_TOK_COL].combine_chunks())
        if SOURCE_COL in t.column_names:
            src = pc.dictionary_encode(t[SOURCE_COL])
            seek[1].append(src.combine_chunks())

    try:
        batches = (
            pf.iter_batches(batch_size=batch_rows)
            if row_groups is None
            else pf.iter_batches(batch_size=batch_rows, row_groups=row_groups)
        )
        for rb in batches:
            t = pa.Table.from_batches([rb])
            if transform is not None:
                t = transform(t)
            enc = encode_columns_batch(t, codec_names, spec)
            if writer is None:
                writer = _part_writer(out_path, enc.schema)
            writer.write_table(enc)
            n_rows += t.num_rows
            add_seek(t)
            for r in columnar_stats_batch(enc).to_pylist():
                a = acc.setdefault(r["column"], [0, 0, set()])
                a[0] += int(r["plain_nbytes"])
                a[1] += int(r["encoded_nbytes"])
                a[2].add(r["scheme"])
            _merge_zones(zones, columnar_zones_batch(enc))
            _tri_accumulate(tri, t)
            _intkey_accumulate(tri, t)
            _ndv_accumulate(ndv, t)
            for c, nc in columnar_nulls_batch(enc).items():
                nulls[c] = nulls.get(c, 0) + nc
        if writer is None:  # zero-row fragment: keep the (encoded) schema
            t = pf.schema_arrow.empty_table()
            if transform is not None:
                t = transform(t)
            enc = encode_columns_batch(t, codec_names, spec)
            writer = _part_writer(out_path, enc.schema)
            writer.write_table(enc)
            add_seek(t)
        writer.close()
        if seek is not None:
            _write_seek(out_path, *seek)
    except BaseException:
        # never leave a VALID-LOOKING parquet footer (or its sidecar)
        # behind a failed fragment — delete the partial so only the
        # manifest gate decides what counts as data
        if writer is not None:
            writer.close()
        _remove_part(out_path)
        raise
    return {
        "rows": n_rows,
        "seek": seek is not None,
        "plain_bytes": sum(a[0] for a in acc.values()),
        "encoded_bytes": sum(a[1] for a in acc.values()),
        "columns": {
            c: {"plain": a[0], "encoded": a[1], "schemes": sorted(a[2])}
            for c, a in sorted(acc.items())
        },
        "zones": {c: list(z) for c, z in sorted(zones.items())},
        "trigrams": {
            c: base64.b64encode(b.tobytes()).decode()
            for c, b in sorted(tri.items())
        },
        "ndv": {
            c: base64.b64encode(b.tobytes()).decode()
            for c, b in sorted(ndv.items())
        },
        "nulls": dict(sorted(nulls.items())),
    }


def _merge_column_stats(dst: dict, src: dict) -> None:
    """Accumulate per-column (plain, encoded, schemes) lineage dicts."""
    for c, st in src.items():
        mc = dst.setdefault(c, {"plain": 0, "encoded": 0, "schemes": []})
        mc["plain"] += st["plain"]
        mc["encoded"] += st["encoded"]
        mc["schemes"] = sorted(set(mc["schemes"]) | set(st["schemes"]))


def _merge_zones(dst: dict, src: dict) -> None:
    """Widen per-column [vmin, vmax] zone envelopes in place (int
    columns carry int zones, float columns float zones — JSON keeps
    the distinction and the range checks compare either)."""
    for c, z in src.items():
        cur = dst.get(c)
        lo = z[0] if isinstance(z[0], float) else int(z[0])
        hi = z[1] if isinstance(z[1], float) else int(z[1])
        dst[c] = (
            [lo, hi] if cur is None else [min(cur[0], lo), max(cur[1], hi)]
        )


def _empty_stats() -> dict:
    return {
        "rows": 0, "plain_bytes": 0, "encoded_bytes": 0,
        "columns": {}, "zones": {}, "trigrams": {}, "ndv": {},
        "nulls": {}, "seek": True,
    }


def _add_stats(dst: dict, st: dict) -> None:
    """Accumulate one part's (or fragment record's) lineage into ``dst``:
    row/byte sums, zone envelopes, OR-ed blooms, MAX-ed NDV registers and
    null counts — each merged statistic stays exact. ``seek`` stays true
    only while every merged part had a sidecar."""
    dst["rows"] += int(st["rows"])
    dst["plain_bytes"] += int(st.get("plain_bytes", 0))
    dst["encoded_bytes"] += int(st.get("encoded_bytes", 0))
    _merge_column_stats(dst["columns"], st.get("columns") or {})
    _merge_zones(dst["zones"], st.get("zones") or {})
    _merge_tri(dst["trigrams"], st.get("trigrams") or {})
    _merge_ndv(dst["ndv"], st.get("ndv") or {})
    for c, nc in (st.get("nulls") or {}).items():
        dst["nulls"][c] = dst["nulls"].get(c, 0) + int(nc)
    dst["seek"] = dst["seek"] and bool(st.get("seek"))


def _stamp_seek(rec: dict) -> dict:
    """Turn a record's boolean ``seek`` into the manifest flag: ``"seek":
    1`` when every part of the fragment has a sidecar, else no key (so a
    store without sidecars keeps its exact records)."""
    if rec.pop("seek", False):
        rec["seek"] = 1
    return rec


def _stats_record(
    fragment: str, frag_key: str, stats: dict, **lineage
) -> dict:
    """A fragment's stats dict → its manifest record."""
    return _stamp_seek(
        {"fragment": fragment, "frag_key": frag_key, **stats, **lineage}
    )


def _part_rg0(name: str) -> int:
    return int(os.path.basename(name)[len("part-") : -len(".parquet")])


def _fragment_parts(data_dir: str, frag_key: str) -> list[str]:
    """A committed fragment's part files, in row order — sorted by the
    NUMERIC row-group index in the name (lexicographic order would break
    past part-999999, i.e. ~2B rows per fragment at 2048-row groups).
    A committed fragment with no directory (a filter_table_store drop
    marker) has no parts."""
    d = os.path.join(data_dir, f"frag={frag_key}")
    if not os.path.isdir(d):
        return []
    return sorted(
        (
            os.path.join(d, f)
            for f in os.listdir(d)
            if f.startswith("part-") and f.endswith(".parquet")
        ),
        key=_part_rg0,
    )


@ray.remote(max_retries=-1, scheduling_strategy="SPREAD")
def _run_group(fn, items: list, *shared) -> list:
    return [fn(item, *shared) for item in items]


def _map_tasks(fn, items: list, *shared) -> list:
    """``[fn(item, *shared) for item in items]`` as plain Ray tasks: the
    launcher of the store lifecycle ops, whose per-item work opens its own
    files, so no data flows through the launch. On a 1-CPU VM share a
    task costs ~1.3 ms and a call ~4 ms; the Ray Data range → map_batches
    → take_all chain this replaces paid ~11 ms a block and ~35 ms a call.
    Items split into ``min(len(items), max(4·CPUs, 16))`` contiguous
    groups, one task each: the floor of 16 keeps a 2-CPU straggler tail
    short, the cap bounds the task count of a 10^5-fragment round.
    ``shared`` values reach every task as top-level arguments, so an
    ObjectRef (upsert's ray.put key set) resolves in the worker without a
    copy per item. Results come back in item order. The call returns, or
    raises the first failed group's error, only after EVERY task has
    finished: a straggler still writing after a failed call would race the
    next resume's rmtree of uncommitted fragment dirs. Like Ray Data's
    map tasks, the tasks spread over the cluster's nodes and retry on
    worker death (every item rewrites its outputs from scratch), never on
    an exception."""
    if not items:
        return []
    n_groups = min(len(items), max(4 * cluster_cpus(), 16))
    cuts = [len(items) * g // n_groups for g in range(n_groups + 1)]
    refs = [
        _run_group.remote(fn, items[lo:hi], *shared)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    ray.wait(refs, num_returns=len(refs))
    return [r for group in ray.get(refs) for r in group]


def _encode_spec(s: dict, data_dir: str, codec_names, batch_rows: int, spec):
    """Encode one row-group spec (compress._rowgroup_specs) as its
    fragment's ``part-<rg0>.parquet``; → the part's stats dict."""
    return _encode_fragment(
        s["path"],
        os.path.join(data_dir, f"frag={s['frag']}"),
        codec_names,
        batch_rows,
        spec,
        row_groups=None if s["rg1"] < 0 else list(range(s["rg0"], s["rg1"])),
        part_name=f"part-{s['rg0']:06d}.parquet",
    )


def compress_table(
    input_path: str | list[str],
    out_dir: str,
    codec_names=None,
    resume: bool = True,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    fragments_per_round: int = 64,
    spec_sample_rows: int | None = None,
) -> dict:
    """Encode every column of a parquet corpus into a resumable store.

    Safe to re-run after a kill: committed fragments skip (their data dirs
    are never touched again); a fragment whose task died mid-write has no
    manifest record, its partial dir is cleared and rewritten. The rounds
    loop bounds driver-side state by fragments_per_round, never total job
    size. Every input footer is read before any task starts: an unreadable
    input fails the call naming the file, with nothing committed.
    A fragment whose every spec wrote a seek sidecar commits with
    ``"seek": 1``."""
    fragments = discover_fragments(input_path)
    manifest = Manifest(out_dir)
    pending = manifest.pending(fragments) if resume else fragments
    data_dir = os.path.join(out_dir, "data")
    spec = None
    if spec_sample_rows and pending:
        # trained from the FIRST fragment of the FULL list (not the pending
        # set) so a resumed run derives the IDENTICAL spec
        from .columnar import train_columnar_spec

        first = next(
            pq.ParquetFile(fragments[0]).iter_batches(spec_sample_rows), None
        )
        if first is not None and first.num_rows:
            spec = train_columnar_spec(
                pa.Table.from_batches([first]), codec_names
            )
    for start in range(0, len(pending), fragments_per_round):
        round_frags = pending[start : start + fragments_per_round]
        for f in round_frags:  # clear (by definition uncommitted) partials
            shutil.rmtree(
                os.path.join(data_dir, f"frag={fragment_key(f)}"),
                ignore_errors=True,
            )
        # row-group specs level content skew (compress._rowgroup_specs):
        # a giant fragment becomes many parallel specs, not one straggler
        path_to_key = {f: fragment_key(f) for f in round_frags}
        specs = _rowgroup_specs(
            round_frags, 8 * batch_rows, path_to_key,
            target_specs=4 * cluster_cpus(),
        )
        part_stats = _map_tasks(
            _encode_spec, specs, data_dir, codec_names, batch_rows, spec
        )
        # a fragment commits only once every one of its specs has encoded
        merged: dict[str, dict] = {}
        for s, st in zip(specs, part_stats):
            m = merged.setdefault(
                s["frag"],
                {
                    "fragment": s["path"],
                    "frag_key": s["frag"],
                    **_empty_stats(),
                },
            )
            _add_stats(m, st)
        for m in merged.values():
            manifest.commit(_stamp_seek(m))
    return manifest.stats()


def read_table_store(out_dir: str, columns=None):
    """Encoded store → decoded streaming Dataset. Reads ONLY
    manifest-committed fragment dirs — a killed run's uncommitted partial
    never serves as data — with read parallelism floored at cluster width
    (compress.read_parquet_blocks).
    ``columns`` prunes AT THE READ: only the selected columns' encoded
    fields leave storage, and only they decode."""
    from .compress import read_parquet_blocks

    manifest = Manifest(out_dir)
    done = manifest.completed()
    data_dir = os.path.join(out_dir, "data")
    paths = []
    for rec in sorted(done.values(), key=lambda rec: rec["frag_key"]):
        paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    if not paths:
        raise FileNotFoundError(
            f"read_table_store: no committed fragments under {out_dir!r}"
        )
    kw = {}
    if columns is not None:
        kw["columns"] = _encoded_field_names(
            list(pq.read_schema(paths[0]).names), columns
        )
    return decode_columns_dataset(read_parquet_blocks(paths, **kw))


def _bloom_keeps(rec: dict, column: str, tris) -> bool:
    """Fragment-tier trigram test: False only when the lineage bloom
    PROVES the fragment cannot hold the needle trigrams (no evidence —
    legacy record or None tris — keeps the fragment)."""
    from ..functions.bloom import bloom_contains

    b64 = (rec.get("trigrams") or {}).get(column)
    if tris is None or b64 is None:
        return True
    bl = np.frombuffer(base64.b64decode(b64), dtype=np.uint8)
    if len(bl) != TRI_BLOOM_BYTES:  # int-key value bloom: wrong evidence kind
        return True
    return bool(bloom_contains(bl, tris, _TRI_K).all())


def store_lineage_rollup(out_dir: str) -> dict:
    """Manifest-only rollup of a committed store (no Ray session, no file
    opens): fragments, rows, byte totals + ratio, per-column
    scheme/zone/null accounting. The table-stats CLI prints this."""
    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"store_lineage_rollup: no committed fragments under {out_dir!r}"
        )
    cols: dict = {}
    zones: dict = {}
    nulls: dict = {}
    ndv_regs: dict = {}
    rows = plain = enc = 0
    for rec in done.values():
        rows += int(rec.get("rows", 0))
        plain += int(rec.get("plain_bytes", 0))
        enc += int(rec.get("encoded_bytes", 0))
        _merge_column_stats(cols, rec.get("columns") or {})
        _merge_zones(zones, rec.get("zones") or {})
        _merge_ndv(ndv_regs, rec.get("ndv") or {})
        for c, nc in (rec.get("nulls") or {}).items():
            nulls[c] = nulls.get(c, 0) + int(nc)
    from ..functions.sketches import hll_merge_estimate

    ndv = {
        c: hll_merge_estimate([base64.b64decode(b64)])
        for c, b64 in ndv_regs.items()
    }
    return {
        "fragments": len(done),
        "rows": rows,
        "plain_bytes": plain,
        "encoded_bytes": enc,
        "ratio": round(plain / max(enc, 1), 3),
        "columns": {
            c: {
                "plain": m["plain"],
                "encoded": m["encoded"],
                "ratio": round(m["plain"] / max(m["encoded"], 1), 3),
                "schemes": sorted(m["schemes"]),
                **({"zone": zones[c]} if c in zones else {}),
                **({"ndv": ndv[c]} if c in ndv else {}),
                "nulls": nulls.get(c, 0),
            }
            for c, m in sorted(cols.items())
        },
    }


def _pruned_parts(out_dir: str, what: str, keep_rec, stats_out):
    """Shared manifest walk of the store scans: committed fragments in
    frag_key order, each kept or pruned by ``keep_rec(rec)``. Returns
    (kept part paths, fallback parts for schema recovery)."""
    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"{what}: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    paths, any_parts, skipped = [], [], 0
    for rec in sorted(done.values(), key=lambda rec: rec["frag_key"]):
        parts = _fragment_parts(data_dir, rec["frag_key"])
        any_parts = any_parts or parts
        if not keep_rec(rec):
            skipped += 1
            continue
        paths.extend(parts)
    if not any_parts:
        raise FileNotFoundError(
            f"{what}: committed fragments have no part files in {out_dir!r}"
        )
    if stats_out is not None:
        stats_out["fragments_scanned"] = len(done) - skipped
        stats_out["fragments_skipped"] = skipped
    return paths, any_parts


def _run_parts(paths, read_cols, fn, stats_out):
    """One per-part kernel, two executors: ``fn`` runs over each surviving
    part's encoded fields for ``read_cols`` (logical column names; None
    reads every field). Parts totalling at most DRIVER_SCAN_BYTES run in
    this process, part by part, and come back as the list of ``fn``
    outputs; larger scans keep the Ray read → map_batches chain and come
    back as its lazy Dataset (_tables iterates either). ``stats_out``
    records the choice: ``executor`` ("driver"/"ray") and ``scan_bytes``
    (the surviving parts' file bytes)."""
    from .compress import read_parquet_blocks

    nbytes = sum(os.path.getsize(p) for p in paths)
    driver = nbytes <= DRIVER_SCAN_BYTES
    if stats_out is not None:
        stats_out["executor"] = "driver" if driver else "ray"
        stats_out["scan_bytes"] = nbytes
    read_cols = None if read_cols is None else sorted(read_cols)
    if driver:
        return [fn(_read_part(p, read_cols)) for p in paths]
    cols = None
    if read_cols is not None:
        cols = _encoded_field_names(
            list(pq.read_schema(paths[0]).names), read_cols
        )
    return read_parquet_blocks(paths, columns=cols).map_batches(
        fn, batch_format="pyarrow"
    )


def _tables(out):
    """_run_parts output → iterable of pyarrow tables (the Ray side
    yields its blocks as they are, without re-batching)."""
    if isinstance(out, list):
        return out
    return out.iter_batches(batch_format="pyarrow", batch_size=None)


def _empty_decoded(any_parts, out_cols) -> pa.Table:
    """Zero-row decoded table with a committed part's schema projected to
    ``out_cols`` (zero-row parts preserve the encoded schema) — the
    result of a store scan whose every row or fragment was pruned."""
    from .columnar import decode_columns_batch

    dec = decode_columns_batch(
        pq.ParquetFile(any_parts[0]).schema_arrow.empty_table()
    )
    return dec if out_cols is None else dec.select(list(out_cols))


class ScanResult:
    """The rows a store scan selected, from either executor of _run_parts:
    the driver's per-part output tables, or the Ray executor's lazy
    Dataset (nothing reads until it is iterated). ``iter_batches`` yields
    pa.Tables from either side, ``to_arrow`` is their concatenation, and
    ``to_dataset`` is for the callers that need Ray Data (a join side, a
    parquet write). A scan with no surviving rows keeps the decoded
    schema projected to its output columns."""

    def __init__(self, out, empty):
        self._out = out
        self._empty = empty  # () -> the zero-row decoded table

    def iter_batches(self, batch_format: str = "pyarrow"):
        if batch_format != "pyarrow":
            raise ValueError(
                f"ScanResult.iter_batches: batch_format={batch_format!r}; "
                "only 'pyarrow'"
            )
        if isinstance(self._out, list) and not self._out:
            return iter([self._empty()])
        return iter(_tables(self._out))

    def to_arrow(self) -> pa.Table:
        tables = list(self.iter_batches())
        if not tables:
            return self._empty()
        return pa.concat_tables(tables, promote_options="default")

    def to_dataset(self):
        import ray.data

        if isinstance(self._out, list):
            return ray.data.from_arrow(self.to_arrow())
        return self._out


def _scan_pruned(paths, any_parts, out_cols, read_cols, batch_fn, stats_out):
    """Shared tail of the store scans: ``batch_fn`` over the surviving
    parts (_run_parts), read pruned to ``read_cols`` (output + scan
    columns), as a ScanResult."""
    out = _run_parts(paths, read_cols, batch_fn, stats_out)
    return ScanResult(out, lambda: _empty_decoded(any_parts, out_cols))


def scan_table_store(
    out_dir: str,
    column: str,
    lo=None,
    hi=None,
    columns=None,
    stats_out: dict | None = None,
):
    """Inclusive-range scan over a committed store with THREE pruning
    tiers: (1) whole FRAGMENTS whose manifest zone envelope for ``column``
    is disjoint from [lo, hi] never open a part file — at 100-TB scale a
    selective range over roughly-time-ordered data touches a handful of
    fragments; (2) inside surviving parts, only the scan + output columns'
    encoded fields leave storage; (3) per-BLOCK envelope zone maps skip
    blocks without decoding a value (columnar.range_scan_batch). Fragments
    whose lineage predates zone maps scan unconditionally — pruning is
    only ever an optimization, never a filter.

    ``stats_out`` (optional dict) receives fragments_scanned /
    fragments_skipped, and executor / scan_bytes (_run_parts)."""
    from .columnar import range_scan_batch

    point = (
        lo is not None
        and lo == hi
        and isinstance(lo, (int, np.integer))
    )

    def keep(rec) -> bool:
        z = (rec.get("zones") or {}).get(column)
        if z is not None and (
            (lo is not None and z[1] < lo) or (hi is not None and z[0] > hi)
        ):
            return False
        # a point range additionally probes the int-key value bloom:
        # interleaved keys share one zone envelope but not one key set
        return not point or _intkey_keeps(rec, column, [int(lo)])

    paths, any_parts = _pruned_parts(
        out_dir, "scan_table_store", keep, stats_out
    )
    return _scan_pruned(
        paths, any_parts, columns,
        None if columns is None else set(columns) | {column},
        lambda b: range_scan_batch(b, column, lo=lo, hi=hi, out_columns=columns),
        stats_out,
    )


def like_table_store(
    out_dir: str,
    column: str,
    pattern: str,
    columns=None,
    engine: str = "auto",
    stats_out: dict | None = None,
):
    """LIKE scan over a committed store's encoded string column
    (columnar.like_scan_batch: dictionary pushdown for strdict blocks, the
    full compressed-domain engine stack for fsstb), with FRAGMENT-level
    trigram pruning first: the lineage manifest carries a per-(fragment,
    string column) trigram bloom, so a fragment whose bloom lacks one of
    the pattern's trigrams never opens a part file (no false negatives —
    pipelines/trigram.py's per-file prune lifted into the store manifest;
    the reference's used_chars block prune, src/BenchmarkDriver.cpp:128-137,
    at fragment granularity). Fragments whose lineage predates trigram
    blooms, and patterns with no sound trigram evidence, scan
    unconditionally. Only the scan + output columns' encoded fields leave
    storage; only surviving rows decode."""
    from .columnar import like_scan_batch
    from .trigram import pattern_trigrams

    tris = pattern_trigrams(pattern)
    paths, any_parts = _pruned_parts(
        out_dir,
        "like_table_store",
        lambda rec: _bloom_keeps(rec, column, tris),
        stats_out,
    )
    return _scan_pruned(
        paths, any_parts, columns,
        None if columns is None else set(columns) | {column},
        lambda b: like_scan_batch(
            b, column, pattern, out_columns=columns, engine=engine
        ),
        stats_out,
    )


def _predicate_checks(preds):
    """Fragment-tier pruning tests for predicate op tuples → (columns the
    predicates touch, per-predicate ``rec -> bool`` checks). range prunes
    on the manifest zone envelope; eq/like/in on the trigram bloom; a
    predicate with no sound evidence keeps the fragment (pruning is only
    ever an optimization). Shared by the compound scan and the
    predicate-composed aggregates."""
    from .trigram import pattern_trigrams

    scan_cols = set()
    checks = []  # rec -> bool, one per predicate
    for p in preds:
        op = p[0]
        scan_cols.add(p[1])
        if op == "range":
            _, col, lo, hi = p

            def zk(rec, _c=col, _lo=lo, _hi=hi):
                z = (rec.get("zones") or {}).get(_c)
                return z is None or not (
                    (_lo is not None and z[1] < _lo)
                    or (_hi is not None and z[0] > _hi)
                )

            if (
                lo is not None
                and hi is not None
                and lo == hi
                and isinstance(lo, (int, np.integer))
            ):
                # degenerate range IS an equality: the value bloom also
                # prunes fragments whose zone envelope spans the point but
                # whose key set provably lacks it (interleaved keys).
                # ONE combined check — explain_table_store zips checks
                # 1:1 with predicates for its pruned_by labels
                checks.append(
                    lambda rec, _zk=zk, _c=col, _v=int(lo): _zk(rec)
                    and _intkey_keeps(rec, _c, [_v])
                )
            else:
                checks.append(zk)
        elif op == "eq" and isinstance(p[2], (int, np.integer)):
            # int point lookup: zone containment + value-bloom membership
            v = int(p[2])

            def zk_eq(rec, _c=p[1], _v=v):
                z = (rec.get("zones") or {}).get(_c)
                return (
                    z is None or (z[0] <= _v <= z[1])
                ) and _intkey_keeps(rec, _c, [_v])

            checks.append(zk_eq)
        elif op in ("eq", "like"):
            pat = p[2] if op == "like" else _as_exact_pattern(p[2])
            tris = None if pat is None else pattern_trigrams(pat)
            checks.append(
                lambda rec, _c=p[1], _t=tris: _bloom_keeps(rec, _c, _t)
            )
        elif op == "in":
            vlist = list(p[2])
            if vlist and all(
                isinstance(v, (int, np.integer)) for v in vlist
            ):
                # int id list: a fragment survives only if some value
                # falls inside its zone envelope (sorted bisect — O(log))
                iv = sorted(int(v) for v in vlist)

                def zk_in(rec, _c=p[1], _iv=iv):
                    z = (rec.get("zones") or {}).get(_c)
                    if z is not None:
                        import bisect

                        j = bisect.bisect_left(_iv, z[0])
                        if not (j < len(_iv) and _iv[j] <= z[1]):
                            return False
                    # and some value must pass the value bloom (one
                    # vectorized k-probe over the whole list); capped so a
                    # semi-join-sized list doesn't probe per fragment
                    return len(_iv) > 4096 or _intkey_keeps(rec, _c, _iv)

                checks.append(zk_in)
            elif len(p[2]) > 64:
                # semi-join-sized value lists: per-(fragment, value) bloom
                # probes would dominate — skip the fragment tier, the
                # in-batch dictionary probe stays O(distinct + |values|)
                checks.append(lambda rec: True)
            else:
                pats = [_as_exact_pattern(v) for v in p[2]]
                tri_list = [
                    None if pt is None else pattern_trigrams(pt)
                    for pt in pats
                ]
                checks.append(
                    lambda rec, _c=p[1], _ts=tri_list: any(
                        _bloom_keeps(rec, _c, t) for t in _ts
                    )
                )
        elif op in ("isnull", "notnull"):
            # lineage null counts prune whole fragments: a null-free
            # fragment can't satisfy IS NULL; an all-null one can't
            # satisfy IS NOT NULL. Missing counts keep the fragment.
            want_null = op == "isnull"

            def nk(rec, _c=p[1], _w=want_null):
                nn = (rec.get("nulls") or {}).get(_c)
                if nn is None:
                    return True
                return nn > 0 if _w else nn < int(rec.get("rows", 1))

            checks.append(nk)
        else:
            raise ValueError(f"predicate_scan: unknown op {op!r}")
    return scan_cols, checks


def predicate_scan_table_store(
    out_dir: str,
    preds,
    columns=None,
    engine: str = "auto",
    stats_out: dict | None = None,
):
    """Conjunctive compound scan over a committed store
    (columnar.predicate_scan_batch semantics) with EVERY predicate also
    pruning at the FRAGMENT tier first:

    - ``("range", col, lo, hi)`` prunes on the manifest zone envelope;
    - ``("eq", col, v)`` / ``("in", col, vs)`` / ``("like", col, pat)``
      prune on the trigram bloom — a fragment whose bloom lacks one of a
      literal's trigrams cannot contain it (for IN, the fragment survives
      if ANY value's trigrams are all present).

    Fragments with legacy lineage (no zones/blooms) and predicates with no
    sound trigram evidence keep the fragment — pruning is only ever an
    optimization. Survivors run the full in-batch compound scan and decode
    ONCE through the pruned output columns."""
    from .columnar import predicate_scan_batch

    scan_cols, checks = _predicate_checks(preds)
    paths, any_parts = _pruned_parts(
        out_dir,
        "predicate_scan_table_store",
        lambda rec: all(c(rec) for c in checks),
        stats_out,
    )
    return _scan_pruned(
        paths,
        any_parts,
        columns,
        None if columns is None else scan_cols | set(columns),
        lambda b: predicate_scan_batch(
            b, preds, out_columns=columns, engine=engine
        ),
        stats_out,
    )


def group_topk_table_store(
    out_dir: str,
    group_col: str,
    rank_col: str,
    k: int,
    descending: bool = True,
    columns=None,
    preds=None,
    engine: str = "auto",
    stats_out: dict | None = None,
) -> pa.Table:
    """Top-k rows PER GROUP over the committed store (top-N-per-key):
    each batch decodes only its ≤k-per-group candidates (group keys from
    block dictionaries, ranks from cached int streams —
    columnar.group_topk_batch), the driver folds candidates bounded by
    k × cardinality × batches and re-ranks per group. Predicates
    compose (fragment zone/bloom pruning + in-batch masks). Ties at the
    k-th rank break arbitrarily — rank on a unique column when
    deterministic identity matters. Output sorts by (group, rank)."""
    from .columnar import group_topk_batch, predicate_mask

    need = {group_col, rank_col} | set(columns or ())
    if preds:
        scan_cols, checks = _predicate_checks(preds)
        need |= scan_cols
        keep = lambda rec: all(c(rec) for c in checks)  # noqa: E731
    else:
        keep = lambda rec: True  # noqa: E731
    paths, any_parts = _pruned_parts(
        out_dir, "group_topk_table_store", keep, stats_out
    )
    out_cols = (
        None if columns is None else sorted(set(columns) | {group_col, rank_col})
    )

    def part(b: pa.Table) -> pa.Table:
        m = predicate_mask(b, preds, engine) if preds else None
        return group_topk_batch(
            b, group_col, rank_col, k, descending, columns, mask=m
        )

    cands = [
        t for t in _tables(_run_parts(paths, need, part, stats_out))
        if t.num_rows
    ]
    if not cands:
        return _empty_decoded(any_parts, out_cols)
    df = pa.concat_tables(cands).to_pandas()
    df = df.sort_values(
        [group_col, rank_col],
        ascending=[True, not descending],
        kind="mergesort",
    )
    top = df.groupby(group_col, sort=True).head(k).reset_index(drop=True)
    out = pa.Table.from_pandas(top, preserve_index=False)
    return out if out_cols is None else out.select(out_cols)


def count_where_table_store(
    out_dir: str,
    preds,
    engine: str = "auto",
    stats_out: dict | None = None,
) -> int:
    """COUNT(*) under a compound predicate: fragments prune on
    zones/blooms first, survivors count predicate-mask bits per batch —
    no row ever decodes (the compound sibling of count_table_store's
    range counting; one tiny count row per batch reaches the driver)."""
    from .columnar import predicate_mask

    scan_cols, checks = _predicate_checks(preds)
    paths, _ = _pruned_parts(
        out_dir,
        "count_where_table_store",
        lambda rec: all(c(rec) for c in checks),
        stats_out,
    )
    out = _run_parts(
        paths,
        scan_cols,
        lambda b: pa.table(
            {
                "n": pa.array(
                    [int(predicate_mask(b, preds, engine).sum())],
                    type=pa.int64(),
                )
            }
        ),
        stats_out,
    )
    return sum(sum(t["n"].to_pylist()) for t in _tables(out))


def topk_table_store(
    out_dir: str,
    column: str,
    k: int,
    descending: bool = True,
    columns=None,
    preds=None,
    engine: str = "auto",
    stats_out: dict | None = None,
) -> pa.Table:
    """Top-k rows by an encoded int-logical column with FRAGMENT-level
    zone pruning: fragments process in best-possible-value order (zone
    zmax for descending, zmin for ascending); once k rows are held and
    the current k-th best already beats every remaining fragment's zone
    bound, the scan STOPS — at 100-TB scale a top-k over roughly-ordered
    data opens a handful of fragments. Fragments with legacy lineage (no
    zones) give no bound and scan first. Inside a fragment, only the
    ranking + output columns' encoded fields leave storage, ranking
    values come straight from the encoded int streams and only ≤k rows
    per batch decode (columnar.column_topk_batch); the per-batch ≤k-row
    partials STREAM through the driver's running best-k fold, so driver
    state is O(k + one batch), never rows. Returns a pa.Table of the k
    winners with the store's decoded Arrow schema.

    ``preds`` (predicate op tuples) turn this into top-k WHERE: whole
    fragments additionally prune on zones/blooms, survivors mask per
    batch in the compressed domain before ranking — the zone-ordered
    early stop stays sound because a fragment's zone bound upper-bounds
    any row subset.

    ``stats_out`` receives fragments_scanned / fragments_skipped, and
    executor / scan_bytes over the scanned fragments (each fragment's
    parts run through _run_parts; "ray" if any of them went to Ray)."""
    from .columnar import column_topk_batch, predicate_mask

    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"topk_table_store: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    pred_cols: set = set()
    pred_checks: list = []
    if preds:
        pred_cols, pred_checks = _predicate_checks(preds)

    def bound(rec):
        z = (rec.get("zones") or {}).get(column)
        if z is None:
            return None
        return z[1] if descending else z[0]

    def part(bt: pa.Table) -> pa.Table:
        return column_topk_batch(
            bt, column, k, descending=descending, out_columns=columns,
            mask=predicate_mask(bt, preds, engine) if preds else None,
        )

    recs = sorted(done.values(), key=lambda rec: rec["frag_key"])
    # no-bound fragments first (they must always scan), then best-first
    recs.sort(
        key=lambda rec: (
            bound(rec) is not None,
            -(bound(rec) or 0) if descending else (bound(rec) or 0),
        )
    )
    need = None if columns is None else set(columns) | {column} | pred_cols
    order = [(column, "descending" if descending else "ascending")]
    best: pa.Table | None = None
    scanned = skipped = nbytes = 0
    on_ray = stopped = False
    for rec in recs:
        if pred_checks and not all(c(rec) for c in pred_checks):
            skipped += 1
            continue
        b = bound(rec)
        if stopped or (
            b is not None
            and best is not None
            and best.num_rows >= k
            and (
                (descending and best[column][-1].as_py() >= b)
                or (not descending and best[column][-1].as_py() <= b)
            )
        ):
            # every remaining fragment has an equal-or-worse bound
            stopped = True
            skipped += 1
            continue
        scanned += 1
        # each partial holds ≤k rows WITH the decoded Arrow schema; fold
        # them into the running best-k as they stream — never
        # materialize all partials (O(k × batches)) on the driver
        fs: dict = {}
        parts = _fragment_parts(data_dir, rec["frag_key"])
        for t in _tables(_run_parts(parts, need, part, fs)):
            if not t.num_rows:
                continue
            best = t if best is None else pa.concat_tables(
                [best.select(t.column_names), t]
            )
            best = best.sort_by(order).slice(0, k)
        nbytes += fs["scan_bytes"]
        on_ray |= fs["executor"] == "ray"
    if stats_out is not None:
        stats_out.update(
            fragments_scanned=scanned, fragments_skipped=skipped,
            executor="ray" if on_ray else "driver", scan_bytes=nbytes,
        )
    if best is None:
        if preds:
            # a predicate may legitimately match nothing: empty result
            # with the decoded schema, not an error
            return _empty_decoded(
                _fragment_parts(data_dir, recs[0]["frag_key"]), columns
            )
        raise ValueError(f"topk_table_store: column {column!r} has no rows")
    # ties at the k-th value are broken arbitrarily — rank on a unique
    # column when deterministic row identity matters
    return best if columns is None else best.select(list(columns))


def _as_exact_pattern(value) -> str | None:
    """An equality literal as a LIKE pattern for trigram evidence, or None
    (no evidence) for non-UTF-8 bytes. LIKE metacharacters inside the
    literal only WEAKEN the evidence (pattern_trigrams treats % as a gap,
    _ as no-evidence), never tighten it — the prune stays sound."""
    if isinstance(value, bytes):
        try:
            return value.decode()
        except UnicodeDecodeError:
            return None
    return str(value)


def cluster_table_store(
    input_path: str | list[str],
    out_dir: str,
    column: str,
    codec_names=None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    fragments_per_round: int = 64,
    spec_sample_rows: int | None = None,
    rows_per_fragment: int | None = None,
) -> dict:
    """CLUSTER a parquet corpus by ``column`` while encoding it into the
    store: one distributed range sort (Ray Data sort — the only
    all-to-all this op ever does), written back as ordered parquet
    fragments, then the normal resumable compress_table pass. The payoff
    is fragment-tier statistics that actually bite: after clustering,
    zone envelopes are DISJOINT across fragments, so range scans, top-k
    and metadata counts touch ~1 fragment instead of all of them — the
    difference between opening 4 files and 4,000 at 100-TB scale.

    The sorted intermediate lands under ``<out_dir>/_sorted`` behind a
    success marker recording (column, input fragments): a kill during
    the SORT redoes it from scratch (no marker → wipe + re-sort); a kill
    during the ENCODE reuses the identical sorted files so
    compress_table's manifest resume stays sound — re-sorting under a
    committed manifest could shift block boundaries and serve stale
    fragments. A rerun with a DIFFERENT column or input against a
    committed store refuses loudly (use a fresh out_dir); with no
    commits yet it simply re-sorts. ``rows_per_fragment`` bounds output
    fragment size (passed to the sorted parquet writer)."""
    import ray.data

    sorted_dir = os.path.join(out_dir, "_sorted")
    marker = os.path.join(sorted_dir, "_SUCCESS")
    want = {"column": column, "inputs": discover_fragments(input_path)}
    stale = False
    if os.path.exists(marker):
        with open(marker) as f:
            try:
                have = json.load(f)
            except ValueError:
                have = None
        stale = have != want
        if stale and Manifest(out_dir).completed():
            raise ValueError(
                "cluster_table_store: _sorted was built for a different "
                "column/input and the store already has committed "
                "fragments — re-sorting would serve stale data; use a "
                "fresh out_dir"
            )
    if stale or not os.path.exists(marker):
        shutil.rmtree(sorted_dir, ignore_errors=True)
        os.makedirs(sorted_dir, exist_ok=True)
        wkw = {}
        if rows_per_fragment:
            wkw["num_rows_per_file"] = rows_per_fragment
        ray.data.read_parquet(input_path).sort(column).write_parquet(
            sorted_dir, **wkw
        )
        with open(marker, "w") as f:
            json.dump(want, f)
    return compress_table(
        sorted_dir,
        out_dir,
        codec_names=codec_names,
        batch_rows=batch_rows,
        fragments_per_round=fragments_per_round,
        spec_sample_rows=spec_sample_rows,
    )


def count_table_store(
    out_dir: str,
    column: str | None = None,
    lo=None,
    hi=None,
    stats_out: dict | None = None,
) -> int:
    """COUNT over a committed store, answered from METADATA wherever the
    lineage allows:

    - no predicate → the sum of manifest row counts, zero files opened;
    - with a range on ``column`` → fragments whose zone envelope is
      DISJOINT contribute 0; fragments FULLY COVERED by [lo, hi] with a
      recorded zero null count contribute their manifest row count;
      only boundary fragments (or legacy lineage without zones/nulls)
      open files, and even they read just the one column's encoded
      fields and count mask bits — no row decodes.

    ``stats_out`` receives fragments_meta / fragments_scanned /
    fragments_skipped, and executor / scan_bytes (_run_parts) when a
    boundary fragment scans."""
    from .columnar import range_scan_mask

    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"count_table_store: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    recs = sorted(done.values(), key=lambda rec: rec["frag_key"])
    if column is None or (lo is None and hi is None):
        if stats_out is not None:
            stats_out.update(
                fragments_meta=len(recs), fragments_scanned=0,
                fragments_skipped=0,
            )
        return sum(int(rec["rows"]) for rec in recs)

    total = 0
    meta = skipped = 0
    scan_paths: list[str] = []
    for rec in recs:
        z = (rec.get("zones") or {}).get(column)
        nn = (rec.get("nulls") or {}).get(column)
        if z is not None and (
            (lo is not None and z[1] < lo) or (hi is not None and z[0] > hi)
        ):
            skipped += 1
            continue
        if (
            z is not None
            and nn == 0
            and (lo is None or z[0] >= lo)
            and (hi is None or z[1] <= hi)
        ):
            meta += 1
            total += int(rec["rows"])
            continue
        scan_paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    if stats_out is not None:
        stats_out.update(
            fragments_meta=meta,
            fragments_scanned=len(recs) - meta - skipped,
            fragments_skipped=skipped,
        )
    if scan_paths:

        def cnt(b: pa.Table) -> pa.Table:
            m = range_scan_mask(b, column, lo=lo, hi=hi)
            return pa.table({"n": pa.array([int(m.sum())], type=pa.int64())})

        out = _run_parts(scan_paths, {column}, cnt, stats_out)
        total += sum(sum(t["n"].to_pylist()) for t in _tables(out))
    return total


def _column_type_code(paths: list[str], column: str) -> int:
    """Envelope type code of one encoded column, probed from the first
    part's first row (one small column read — the envelope's second byte
    is the type code, columnar._parse_head layout)."""
    pf = pq.ParquetFile(paths[0])
    for b in pf.iter_batches(batch_size=1, columns=[f"{column}__blk"]):
        if b.num_rows:
            return bytes(b.column(0)[0].as_py())[1]
    return -1


def agg_table_store(
    out_dir: str,
    column: str,
    ops=("min", "max", "sum", "count"),
    stats_out: dict | None = None,
) -> dict:
    """Scalar aggregates over one store column, answered from METADATA
    wherever the lineage allows:

    - ``count`` (= COUNT(col), null-skipping) is ALWAYS manifest rows −
      recorded nulls — zero file opens — unless a legacy record lacks a
      null count;
    - ``min``/``max`` come from fragment zone envelopes when the fragment
      records a zone AND zero nulls for the column (the encode-time null
      fill rides the stored stream, so a nulled fragment's zone may
      reflect fill values — those fragments scan);
    - ``sum`` always scans, but reads ONLY this column's encoded fields
      and folds one tiny partial row per batch (columnar.agg_scan_batch).

    A min/max/count request over a fully-zoned null-free store opens no
    files at all. ``stats_out`` receives fragments_meta /
    fragments_scanned, and executor / scan_bytes (_run_parts) when a
    fragment scans.

    Float columns aggregate too (float_agg_scan_batch): their zone fields
    hold bit patterns, so min/max/sum always scan — but a count-only
    request still answers from manifest rows − recorded nulls."""
    from .columnar import _FLOAT_TYPES, agg_scan_batch

    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"agg_table_store: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    recs = sorted(done.values(), key=lambda rec: rec["frag_key"])

    probe = _fragment_parts(data_dir, recs[0]["frag_key"])
    if probe and _column_type_code(probe, column) in _FLOAT_TYPES:
        return _agg_store_float(
            out_dir, data_dir, recs, column, ops, stats_out
        )
    want_scan = set(ops) & {"sum"}
    vmin = vmax = None
    cnt = 0
    scan_paths: list[str] = []
    meta = 0
    for rec in recs:
        z = (rec.get("zones") or {}).get(column)
        nn = (rec.get("nulls") or {}).get(column)
        meta_ok = not want_scan and z is not None and nn == 0
        if meta_ok:
            meta += 1
            cnt += int(rec["rows"])
            vmin = z[0] if vmin is None else min(vmin, z[0])
            vmax = z[1] if vmax is None else max(vmax, z[1])
        else:
            scan_paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    if stats_out is not None:
        stats_out.update(
            fragments_meta=meta, fragments_scanned=len(recs) - meta
        )
    vsum = 0
    scan_ops = tuple(set(ops) | {"count"})
    rows = _part_rows(_run_parts(
        scan_paths, {column},
        lambda b: agg_scan_batch(b, column, scan_ops), stats_out,
    )) if scan_paths else []
    for row in rows:
        if not row["cnt"]:
            continue
        cnt += int(row["cnt"])
        vsum += int(row["vsum"])
        if row["vmin"] is not None:
            vmin = row["vmin"] if vmin is None else min(vmin, row["vmin"])
            vmax = row["vmax"] if vmax is None else max(vmax, row["vmax"])
    return _pick_aggs(ops, vmin, vmax, vsum, cnt)


def _part_rows(out) -> list[dict]:
    """_run_parts output of one-row partial tables → their rows."""
    return [row for t in _tables(out) for row in t.to_pylist()]


def _pick_aggs(ops, vmin, vmax, vsum, cnt) -> dict:
    """The requested scalar aggregates, in min/max/sum/count order."""
    got = {"min": vmin, "max": vmax, "sum": vsum, "count": cnt}
    return {op: v for op, v in got.items() if op in ops}


def _agg_store_float(
    out_dir, data_dir, recs, column, ops, stats_out
) -> dict:
    """Float tail of agg_table_store: count-only answers from manifest
    rows − recorded nulls (zero file opens); anything else scans just
    this column's encoded fields and folds one float partial per batch."""
    from .columnar import float_agg_scan_batch

    meta_ok = not (set(ops) - {"count"}) and all(
        (rec.get("nulls") or {}).get(column) is not None for rec in recs
    )
    if meta_ok:
        if stats_out is not None:
            stats_out.update(fragments_meta=len(recs), fragments_scanned=0)
        return {
            "count": sum(
                int(rec["rows"]) - int(rec["nulls"][column]) for rec in recs
            )
        }
    paths: list[str] = []
    for rec in recs:
        paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    if stats_out is not None:
        stats_out.update(fragments_meta=0, fragments_scanned=len(recs))
    vmin = vmax = None
    vsum = 0.0
    cnt = 0
    for row in _part_rows(_run_parts(
        paths, {column}, lambda b: float_agg_scan_batch(b, column, ops),
        stats_out,
    )):
        if row["cnt"]:
            cnt += int(row["cnt"])
            vsum += row["fsum"]
            vmin = row["fmin"] if vmin is None else min(vmin, row["fmin"])
            vmax = row["fmax"] if vmax is None else max(vmax, row["fmax"])
    return _pick_aggs(ops, vmin, vmax, vsum, cnt)


def group_agg_table_store(
    out_dir: str,
    group_col: str,
    agg_col: str | None = None,
    ops=("count", "sum", "min", "max"),
    preds=None,
    engine: str = "auto",
    bucket: int | None = None,
    distributed: bool = False,
    aggs: dict | None = None,
    stats_out: dict | None = None,
):
    """GROUP BY <string or int column> with COUNT/SUM/MIN/MAX over an int
    column,
    computed against the committed store without decoding either column
    to rows: group keys stream through block dictionaries, aggregate
    values through cached int streams, and only the needed columns'
    encoded fields leave storage (columnar.columnar_group_agg per-batch
    partials, cardinality-bounded fold). ``preds``
    (predicate_scan_table_store op tuples) compose a WHERE clause: whole
    fragments prune on zone envelopes / trigram blooms first, survivors
    filter per batch in the compressed domain before any aggregate.
    ``bucket`` floor-buckets an int-family group key (e.g. a microsecond
    timestamp by 86_400_000_000 → per-day rollups).

    ``distributed=True`` routes the fold through ONE groupby shuffle and
    returns a Dataset — the 100-TB path for unbounded-cardinality keys
    (GROUP BY user_id) where the default driver fold's
    cardinality-bounded contract would not hold.

    ``aggs={col: (op, ...), ...}`` aggregates SEVERAL columns in one
    pass (columnar.columnar_group_multi_agg; output columns {op}_{col});
    mutually exclusive with ``agg_col``/``distributed``.

    ``group_col`` may be a LIST of columns — composite-key GROUP BY:
    per-column codes compose per batch, keys serialize into
    self-describing tuples that ride the same binary-value fold, and
    the output carries one key column per input column (named after
    it); ``bucket`` is then a {column: bucket} dict. Composite keys use
    the driver fold only (cardinality-bounded contract)."""
    from .columnar import (
        columnar_group_agg_ds,
        fold_group_agg,
        fold_group_multi_agg,
        group_agg_part,
    )
    from .compress import read_parquet_blocks

    if aggs and (agg_col is not None or distributed):
        raise ValueError(
            "group_agg_table_store: aggs= is exclusive with agg_col/distributed"
        )
    multi = isinstance(group_col, (list, tuple))
    if multi and (aggs or distributed):
        raise ValueError(
            "group_agg_table_store: composite group keys use the driver "
            "fold (cardinality-bounded contract); aggs=/distributed= "
            "are single-key"
        )

    need = (
        set(group_col) if multi else {group_col}
    ) | ({agg_col} if agg_col else set()) | set(aggs or ())
    if preds:
        scan_cols, checks = _predicate_checks(preds)
        need |= scan_cols
        keep = lambda rec: all(c(rec) for c in checks)  # noqa: E731
    else:
        keep = lambda rec: True  # noqa: E731
    paths, any_parts = _pruned_parts(
        out_dir, "group_agg_table_store", keep, stats_out
    )
    if distributed:
        import ray.data

        from .columnar import _STR_FAMILY

        if not paths:
            empty = pq.read_schema(any_parts[0]).empty_table()
            return columnar_group_agg_ds(
                ray.data.from_arrow(empty), group_col, agg_col, ops
            )
        cols = _encoded_field_names(
            list(pq.read_schema(paths[0]).names), sorted(need)
        )
        return columnar_group_agg_ds(
            read_parquet_blocks(paths, columns=cols),
            group_col, agg_col, ops, preds, engine, bucket,
            int_keys=_column_type_code(paths, group_col) not in _STR_FAMILY,
        )
    part = group_agg_part(group_col, agg_col, preds, engine, bucket, aggs)
    partials = _tables(_run_parts(paths, need, part, stats_out))
    if aggs:
        return fold_group_multi_agg(partials, group_col, aggs)
    return fold_group_agg(partials, group_col, agg_col, ops)


def distinct_table_store(
    out_dir: str,
    column: str,
    distributed: bool = False,
    stats_out: dict | None = None,
):
    """DISTINCT over one store column: string columns fold per-block
    dictionary entries (only referenced, non-null values; never more than
    O(distinct) strings per block materialize), int columns fold
    per-batch unique sets — reading ONLY this column's encoded fields
    (columnar.fold_distinct). ``distributed=True`` dedupes the
    partials through one groupby shuffle and returns a Dataset — the
    unbounded-cardinality path where a driver-side set would not fit."""
    from .columnar import distinct_scan_batch, fold_distinct

    paths, _ = _pruned_parts(
        out_dir, "distinct_table_store", lambda rec: True, stats_out
    )
    if distributed:
        from .columnar import _STR_FAMILY, columnar_distinct_ds
        from .compress import read_parquet_blocks

        cols = _encoded_field_names(
            list(pq.read_schema(paths[0]).names), [column]
        )
        return columnar_distinct_ds(
            read_parquet_blocks(paths, columns=cols), column,
            int_keys=_column_type_code(paths, column) not in _STR_FAMILY,
        )
    out = _run_parts(
        paths, {column}, lambda b: distinct_scan_batch(b, column), stats_out
    )
    return fold_distinct(_tables(out), column)


def sample_table_store(
    out_dir: str,
    id_col: str,
    rate: float,
    seed: int = 0,
    columns=None,
    stats_out: dict | None = None,
):
    """Deterministic hash sample over a committed store
    (columnar.sample_scan_batch): the multiplicative hash of the id
    column decides each row, so the sample is stable across read
    parallelism, resume, and re-runs; only sampled rows decode, through
    the pruned output columns. Streams — never materializes the store."""
    from .columnar import sample_scan_batch

    paths, any_parts = _pruned_parts(
        out_dir, "sample_table_store", lambda rec: True, stats_out
    )
    return _scan_pruned(
        paths,
        any_parts,
        columns,
        None if columns is None else {id_col} | set(columns),
        lambda b: sample_scan_batch(b, id_col, rate, seed, columns),
        stats_out,
    )


def _transform_fragment(
    rec: dict,
    src_data: str,
    dst_data: str,
    codec_names,
    spec,
    batch_rows: int,
    derive=None,
    project=None,
) -> dict:
    """Transcode ONE committed fragment ``rec`` (all its part files, 1:1 part
    names preserved): stream-decode → re-encode via _encode_fragment
    (same write/zero-row/cleanup path and per-column lineage stats as a
    fresh encode), then self-verify — lineage row count and a bit-exact
    stream-compare of decoded dst parts vs decoded src parts. ANY failure
    removes every written destination part before raising: no
    valid-looking footer survives a refused fragment.

    ``derive`` (optional, MUST be deterministic — a retried task must
    produce identical columns): maps each decoded batch to itself plus
    derived column(s) before re-encode (the backfill path). The verify
    then projects the destination back to the SOURCE columns, so the
    original data is still proven bit-exact; derived columns earn their
    own zones/blooms/NDV lineage through the normal encode stats.

    ``project`` (optional, mutually exclusive with ``derive``): keep only
    these decoded columns (the column-DROP / GDPR-erasure path); the
    verify compares the kept columns on both sides."""
    from .columnar import decode_columns_batch

    if derive is not None and project is not None:
        raise ValueError("_transform_fragment: derive xor project")
    if derive is not None:
        transform = lambda t: derive(decode_columns_batch(t))  # noqa: E731
    elif project is not None:
        transform = lambda t: decode_columns_batch(t).select(  # noqa: E731
            list(project)
        )
    else:
        transform = decode_columns_batch
    frag_key = rec["frag_key"]
    fdir = os.path.join(dst_data, f"frag={frag_key}")
    expect_rows = int(rec["rows"])
    src_parts = _fragment_parts(src_data, frag_key)
    stats = _empty_stats()
    written = []
    try:
        for part in src_parts:
            name = os.path.basename(part)
            st = _encode_fragment(
                part, fdir, codec_names, batch_rows, spec,
                transform=transform, part_name=name,
            )
            written.append(os.path.join(fdir, name))
            _add_stats(stats, st)
        if stats["rows"] != expect_rows:
            raise ValueError(
                f"transcode row mismatch: {stats['rows']} vs lineage "
                f"{expect_rows}"
            )
        if derive is None and project is None:
            n_v = _zip_compare_decoded(src_parts, written, batch_rows)
        else:
            # compare on the PRESERVED columns: source schema for derive
            # (destination has extras), the kept list for project
            cmp_cols = list(project) if project is not None else None
            if cmp_cols is None and src_parts:
                from .columnar import decode_columns_batch as _dcb

                cmp_cols = _dcb(
                    pq.ParquetFile(src_parts[0]).schema_arrow.empty_table()
                ).column_names
            n_v = _zip_tables(
                (
                    t.select(cmp_cols)
                    for t in _decoded_iter(src_parts, batch_rows)
                ),
                (
                    t.select(cmp_cols)
                    for t in _decoded_iter(written, batch_rows)
                ),
                fdir,
                sides=("transform source", "transform destination"),
            )
        if n_v != stats["rows"]:
            raise ValueError("transcode verify count mismatch")
    except BaseException:
        for w in written:
            _remove_part(w)
        raise
    return stats


def quantiles_table_store(
    out_dir: str, column: str, capacity: int = 2048
):
    """Mergeable quantile sketch (functions/kll.py) over one store
    column, built straight from the (LRU-cached) encoded int/float
    streams — only this column's fields leave storage, one few-KB
    compactor partial per batch, driver merge, no shuffle. Returns the
    merged QuantileSketch (``.quantile(qs)`` / ``.rank_tolerance()``)."""
    from ..functions.kll import sketch_dataset
    from .columnar import _FLOAT_TYPES, _float_values, _int_values
    from .compress import read_parquet_blocks

    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"quantiles_table_store: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    paths: list[str] = []
    for rec in sorted(done.values(), key=lambda rec: rec["frag_key"]):
        paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    flt = _column_type_code(paths, column) in _FLOAT_TYPES
    extract = _float_values if flt else _int_values

    def values(b: pa.Table) -> np.ndarray:
        vals, ok = extract(b, column)
        return vals[ok]

    cols = _encoded_field_names(list(pq.read_schema(paths[0]).names), [column])
    enc = read_parquet_blocks(paths, columns=cols)
    return sketch_dataset(enc, column, capacity, values_fn=values)


def _store_column_enc(out_dir: str, column: str):
    """(encoded Dataset pruned to one column, its part paths) — the
    shared read head of the single-column store sketches."""
    from .compress import read_parquet_blocks

    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"store column read: no committed fragments under {out_dir!r}"
        )
    data_dir = os.path.join(out_dir, "data")
    paths: list[str] = []
    for rec in sorted(done.values(), key=lambda rec: rec["frag_key"]):
        paths.extend(_fragment_parts(data_dir, rec["frag_key"]))
    cols = _encoded_field_names(list(pq.read_schema(paths[0]).names), [column])
    return read_parquet_blocks(paths, columns=cols), paths


def histogram_table_store(
    out_dir: str,
    column: str,
    lo: int | float | None = None,
    hi: int | float | None = None,
    n_bins: int = 32,
) -> pa.Table:
    """Equi-width histogram over one store column straight from the
    (LRU-cached) encoded int/float streams — only this column's fields
    leave storage; each batch reduces to ≤ n_bins+2 (bin, count) rows
    folded on the driver (state ∝ bins × batches, never rows). The
    optimizer-statistics companion to quantiles_table_store.

    Bounds default to the manifest zone envelope (free: agg_table_store
    min/max answer from lineage alone). Bin rule, SQL-mirrorable exactly:

    - int columns: ``bin = ((v - lo) * n_bins) // (hi - lo + 1)`` —
      pure integer floor division over the INCLUSIVE [lo, hi] range;
    - float columns: ``bin = floor((v - lo) * n_bins / (hi - lo))``,
      values == hi land in the last bin.

    Out-of-range values fold to bin -1 (underflow) / n_bins (overflow);
    nulls drop. Returns an Arrow table (bin, count) sorted by bin."""
    from .columnar import _FLOAT_TYPES, _float_values, _int_values

    if lo is None or hi is None:
        mm = agg_table_store(out_dir, column, ops=("min", "max"))
        lo = mm["min"] if lo is None else lo
        hi = mm["max"] if hi is None else hi
    if hi < lo:
        raise ValueError(f"histogram: hi {hi!r} < lo {lo!r}")
    enc, paths = _store_column_enc(out_dir, column)
    flt = _column_type_code(paths, column) in _FLOAT_TYPES
    extract = _float_values if flt else _int_values

    def partial(b: pa.Table) -> pa.Table:
        vals, ok = extract(b, column)
        v = vals[ok]
        if flt:
            span = float(hi) - float(lo)
            if span <= 0:
                bins = np.zeros(len(v), dtype=np.int64)
            else:
                bins = np.floor(
                    (v - float(lo)) * n_bins / span
                ).astype(np.int64)
                bins[v == float(hi)] = n_bins - 1
        else:
            span = int(hi) - int(lo) + 1
            bins = ((v.astype(np.int64) - int(lo)) * n_bins) // span
        bins = np.clip(bins, -1, n_bins)
        cnt = np.bincount(bins + 1, minlength=n_bins + 2)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64) - 1),
                "count": pa.array(cnt[nz].astype(np.int64)),
            }
        )

    acc: dict[int, int] = {}
    for part in enc.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for bin_, c in zip(part["bin"].to_pylist(), part["count"].to_pylist()):
            acc[bin_] = acc.get(bin_, 0) + c
    bins = sorted(acc)
    return pa.table(
        {
            "bin": pa.array(bins, type=pa.int64()),
            "count": pa.array([acc[b] for b in bins], type=pa.int64()),
        }
    )


def distinct_count_table_store(out_dir: str, column: str) -> int:
    """Approximate distinct count (HLL) over one store column without
    materializing rows: string blocks hash ONLY their dictionary entries
    (O(distinct) hashing, scattered through the index stream via
    _group_codes); int blocks hash the cached streams. One 4 KB register
    sketch per batch reaches the driver (functions/sketches.py)."""
    from ..functions.sketches import (
        _poly_rowhash,
        hll_merge_estimate,
        regs_from_hashes,
    )
    from .columnar import _STR_FAMILY, _group_codes, _int_values

    enc, paths = _store_column_enc(out_dir, column)
    is_str = _column_type_code(paths, column) in _STR_FAMILY

    def partial(b: pa.Table) -> pa.Table:
        if is_str:
            codes, keys, _text = _group_codes(b, column)
            flat = np.frombuffer(b"".join(keys), dtype=np.uint8)
            off = np.zeros(len(keys) + 1, dtype=np.int64)
            np.cumsum([len(k) for k in keys], out=off[1:])
            kh = _poly_rowhash(flat.astype(np.uint64), off)
            h = kh[codes[codes >= 0]]
        else:
            vals, ok = _int_values(b, column)
            v = vals[ok].view(np.uint64)
            h = _poly_rowhash(v, np.arange(len(v) + 1, dtype=np.int64))
        return pa.table(
            {"hll": pa.array([regs_from_hashes(h).tobytes()], pa.binary())}
        )

    rows = [
        r["hll"]
        for blk in enc.map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_size=256, batch_format="pyarrow")
        for r in blk.to_pylist()
    ]
    return hll_merge_estimate(rows)


def heavy_hitters_table_store(
    out_dir: str, column: str, support: float, min_k: int = 16
) -> "pa.Table":
    """Exact heavy hitters (frequency ≥ support) over one store string
    column without materializing a row: each batch's (value, count)
    multiset comes from the dictionary bincount path (group_count_batch
    — O(distinct) strings touched), Misra-Gries-compressed partials
    merge on the driver, and phase 2 recounts candidates exactly
    through the same dictionary probes (functions/heavy.py
    pairs_fn hook)."""
    from ..functions.heavy import heavy_hitters
    from .columnar import group_count_batch

    enc, _paths = _store_column_enc(out_dir, column)

    def pairs(b: pa.Table):
        t = group_count_batch(b, column)
        text = bool(t["is_text"][0].as_py()) if t.num_rows else True
        vals = np.array(
            [
                v.decode() if text else v
                for v in t["value"].to_pylist()
            ],
            dtype=object,
        )
        return vals, t["n"].to_numpy(zero_copy_only=False)

    return heavy_hitters(enc, None, support, min_k=min_k, pairs_fn=pairs)


def compact_table_store(
    src_out: str,
    dst_out: str,
    target_rows: int = 1_000_000,
    order_by: str | None = None,
    resume: bool = True,
    stats_out: dict | None = None,
) -> dict:
    """Fragment compaction WITHOUT re-encoding: committed source
    fragments pack greedily (frag_key order, cumulative rows up to
    ``target_rows``) into destination fragments whose part files are
    byte-identical COPIES of the source parts, renumbered sequentially;
    the lineage records merge exactly (row/byte sums, zone envelope and
    null-count unions, OR-ed trigram blooms). Fixes the
    small-fragment problem after many incremental appends — fewer
    manifest records and directories to plan — while every scan
    statistic stays exact, because each merged statistic is the exact
    union of per-fragment exact values. Zero-row drop markers (from
    filter_table_store) are elided. Each copied part verifies by size
    against its source before the group commits; resumable per
    destination group.

    ``order_by=<int column>`` packs fragments in zone order on that
    column, so merged envelopes stay near-disjoint and range pruning
    survives the merge; without it fragments pack in frag_key (hash)
    order and a merged zone spans its members' union — fine for
    unclustered data, ruinous for a range-sorted store."""
    src_manifest = Manifest(src_out)
    done_src = src_manifest.completed()
    if not done_src:
        raise FileNotFoundError(
            f"compact_table_store: no committed fragments in {src_out!r}"
        )
    recs = [
        rec
        for rec in sorted(done_src.values(), key=lambda rec: rec["frag_key"])
        if int(rec.get("rows", 0)) > 0
    ]
    if order_by is not None:
        missing = [
            rec["frag_key"]
            for rec in recs
            if (rec.get("zones") or {}).get(order_by) is None
        ]
        if missing:
            raise ValueError(
                f"compact order_by={order_by!r}: fragments without a zone "
                f"for that column: {missing[:3]}..."
            )
        recs.sort(key=lambda rec: tuple(rec["zones"][order_by]))
    groups: list[list[dict]] = []
    cur: list[dict] = []
    cur_rows = 0
    for rec in recs:
        cur.append(rec)
        cur_rows += int(rec["rows"])
        if cur_rows >= target_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
    if cur:
        groups.append(cur)
    dst_manifest = Manifest(dst_out)
    done_dst = dst_manifest.completed() if resume else {}
    src_data = os.path.join(src_out, "data")
    dst_data = os.path.join(dst_out, "data")
    merged = reused = 0
    for grp in groups:
        members = [rec["frag_key"] for rec in grp]
        ident = "compact:" + "|".join(members)
        if ident in done_dst:
            continue
        key = fragment_key(ident)
        fdir = os.path.join(dst_data, f"frag={key}")
        shutil.rmtree(fdir, ignore_errors=True)
        os.makedirs(fdir, exist_ok=True)
        stats = _empty_stats()
        part_i = 0
        for rec in grp:
            for part in _fragment_parts(src_data, rec["frag_key"]):
                dstp = os.path.join(fdir, f"part-{part_i:06d}.parquet")
                if not _copy_part(part, dstp):
                    stats["seek"] = False
                part_i += 1
            _add_stats(stats, rec)
        dst_manifest.commit(
            _stamp_seek(
                {
                    "fragment": ident,
                    "frag_key": key,
                    **stats,
                    "compacted_from": members,
                }
            )
        )
        merged += 1
        reused += len(grp)
    if stats_out is not None:
        stats_out.update(
            fragments_out=len(groups),
            fragments_in=len(recs),
            groups_written=merged,
        )
    return dst_manifest.stats()


def _filter_fragment(
    rec: dict,
    src_data: str,
    dst_data: str,
    preds,
    engine: str,
    batch_rows: int,
    negate: bool = False,
) -> dict:
    """Filter-rewrite ONE committed fragment ``rec``: each part streams
    through the compressed-domain predicate mask (only survivors decode),
    the survivors re-encode through _encode_fragment's write path, then the
    fragment SELF-VERIFIES by zip-comparing the decoded destination
    against a recomputed filtered decode of the source. Any failure
    removes every written destination part. ``negate=True`` keeps the
    rows the predicates REJECT (the upsert anti-join shape)."""
    from .columnar import _decode_survivors, predicate_mask

    def filt(b: pa.Table) -> pa.Table:
        mask = predicate_mask(b, preds, engine)
        return _decode_survivors(b, ~mask if negate else mask, None)

    frag_key = rec["frag_key"]
    fdir = os.path.join(dst_data, f"frag={frag_key}")
    src_parts = _fragment_parts(src_data, frag_key)
    stats = _empty_stats()
    written = []
    try:
        for part in src_parts:
            name = os.path.basename(part)
            st = _encode_fragment(
                part, fdir, None, batch_rows, None,
                transform=filt, part_name=name,
            )
            written.append(os.path.join(fdir, name))
            _add_stats(stats, st)
        src_filtered = (
            filt(pa.Table.from_batches([rb]))
            for p in src_parts
            for rb in pq.ParquetFile(p).iter_batches(batch_size=batch_rows)
        )
        n_v = _zip_tables(
            src_filtered,
            _decoded_iter(written, batch_rows),
            frag_key,
            sides=("filter source", "filter destination"),
        )
        if n_v != stats["rows"]:
            raise ValueError("filter verify count mismatch")
    except BaseException:
        for w in written:
            _remove_part(w)
        raise
    return stats


def _preds_prove_all_match(rec: dict, preds) -> bool:
    """True only when the lineage PROVES every row of the fragment
    passes every predicate: all predicates are ranges whose bounds fully
    cover the fragment's zone envelope, with zero recorded nulls. Any
    eq/in/like predicate, missing zone, or null makes this False —
    copy-through is only ever an optimization."""
    for p in preds:
        if p[0] != "range":
            return False
        _, col, lo, hi = p
        z = (rec.get("zones") or {}).get(col)
        nn = (rec.get("nulls") or {}).get(col)
        if z is None or nn != 0:
            return False
        if (lo is not None and z[0] < lo) or (hi is not None and z[1] > hi):
            return False
    return True


def filter_table_store(
    src_out: str,
    dst_out: str,
    preds,
    engine: str = "auto",
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
    stats_out: dict | None = None,
) -> dict:
    """Predicate-filtered store rewrite (WHERE → a new committed store):
    the retention / targeted-delete shape at 100 TB.

    Per committed source fragment, the lineage decides first:

    - metadata proves NO row matches (zone disjoint / bloom lacks the
      literal's trigrams) → the fragment is DROPPED: a zero-row marker
      commits and no file ever opens;
    - metadata proves EVERY row matches (all-range predicates fully
      covering a null-free zone) → the encoded parts COPY verbatim and
      the source lineage record carries over — no decode, no re-encode;
    - otherwise the fragment rewrites: the compressed-domain predicate
      mask picks survivors (only they decode), the fragment re-encodes
      with fresh lineage and self-verifies against a recomputed filtered
      decode of its source.

    Resumable: committed destination fragments (including drop markers)
    skip on re-run; uncommitted partials clear first. ``stats_out``
    receives fragments_dropped / fragments_copied /
    fragments_rewritten."""
    src_manifest = Manifest(src_out)
    done_src = src_manifest.completed()
    if not done_src:
        raise FileNotFoundError(
            f"filter_table_store: no committed fragments in {src_out!r}"
        )
    _scan_cols, checks = _predicate_checks(preds)
    dst_manifest = Manifest(dst_out)
    done_dst = dst_manifest.completed() if resume else {}
    recs = sorted(done_src.values(), key=lambda rec: rec["frag_key"])
    pending = [rec for rec in recs if rec["fragment"] not in done_dst]
    src_data = os.path.join(src_out, "data")
    dst_data = os.path.join(dst_out, "data")
    dropped = copied = rewritten = 0
    rewrite_recs = []
    for rec in pending:
        if not all(c(rec) for c in checks):
            # provably no match: zero-row marker, no files touched
            dst_manifest.commit(
                {
                    "fragment": rec["fragment"],
                    "frag_key": rec["frag_key"],
                    "rows": 0,
                    "plain_bytes": 0,
                    "encoded_bytes": 0,
                    "columns": {},
                    "zones": {},
                    "trigrams": {},
                    "ndv": {},
                    "nulls": {},
                    "filtered_from": src_out,
                    "filter_dropped": True,
                }
            )
            dropped += 1
        elif _preds_prove_all_match(rec, preds):
            fdir = os.path.join(dst_data, f"frag={rec['frag_key']}")
            shutil.rmtree(fdir, ignore_errors=True)
            os.makedirs(fdir, exist_ok=True)
            seek = _copy_parts(src_data, rec, fdir)
            dst_manifest.commit(
                _stamp_seek({**rec, "seek": seek, "filtered_from": src_out})
            )
            copied += 1
        else:
            rewrite_recs.append(rec)
    for start in range(0, len(rewrite_recs), fragments_per_round):
        round_recs = rewrite_recs[start : start + fragments_per_round]
        for rec in round_recs:
            shutil.rmtree(
                os.path.join(dst_data, f"frag={rec['frag_key']}"),
                ignore_errors=True,
            )
        part_stats = _map_tasks(
            _filter_fragment, round_recs, src_data, dst_data, preds, engine,
            batch_rows,
        )
        for rec, st in zip(round_recs, part_stats):
            dst_manifest.commit(
                _stats_record(
                    rec["fragment"], rec["frag_key"], st,
                    filtered_from=src_out,
                )
            )
            rewritten += 1
    if stats_out is not None:
        stats_out.update(
            fragments_dropped=dropped,
            fragments_copied=copied,
            fragments_rewritten=rewritten,
        )
    return dst_manifest.stats()


def transcode_table_store(
    src_out: str,
    dst_out: str,
    codec_names=None,
    spec: dict | None = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
    _derive=None,
    _project=None,
    _lineage_tag: str = "transcoded_from",
) -> dict:
    """Re-encode a committed store WITHOUT its source (codec upgrade /
    spec switch), fragment by fragment, with full per-column lineage in
    the destination manifest. Each fragment SELF-VERIFIES bit-exact
    against its decoded source partition before committing.
    Resumable, rounds-bounded driver state — same 10^12-scale contract
    as compress_table. ``_derive``/``_lineage_tag`` are
    derive_table_store's internals — use that entry point for
    backfills."""
    src_manifest = Manifest(src_out)
    done_src = src_manifest.completed()
    if not done_src:
        raise FileNotFoundError(f"transcode: no committed fragments in {src_out!r}")
    dst_manifest = Manifest(dst_out)
    done_dst = dst_manifest.completed() if resume else {}
    recs = sorted(done_src.values(), key=lambda rec: rec["frag_key"])
    pending = [rec for rec in recs if rec["fragment"] not in done_dst]
    src_data = os.path.join(src_out, "data")
    dst_data = os.path.join(dst_out, "data")
    for start in range(0, len(pending), fragments_per_round):
        round_recs = pending[start : start + fragments_per_round]
        for rec in round_recs:  # clear uncommitted partials
            shutil.rmtree(
                os.path.join(dst_data, f"frag={rec['frag_key']}"),
                ignore_errors=True,
            )
        part_stats = _map_tasks(
            _transform_fragment, round_recs, src_data, dst_data, codec_names,
            spec, batch_rows, _derive, _project,
        )
        for rec, st in zip(round_recs, part_stats):
            dst_manifest.commit(
                _stats_record(
                    rec["fragment"], rec["frag_key"], st,
                    **{_lineage_tag: src_out},
                )
            )
    return dst_manifest.stats()


def drop_columns_table_store(
    src_out: str,
    dst_out: str,
    drop: list[str],
    codec_names=None,
    spec: dict | None = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
) -> dict:
    """Column ERASURE over a committed store (the GDPR/right-to-be-
    forgotten shape for a whole sensitive column, complementing the
    row-level key delete): rewrite every fragment keeping only the
    surviving columns — the dropped column's bytes, zones, blooms, and
    NDV registers all leave the destination. Kept columns verify
    bit-exact per fragment before commit; resumable; lineage records
    carry ``projected_from``."""
    from .columnar import decode_columns_batch

    done = Manifest(src_out).completed()
    if not done:
        raise FileNotFoundError(
            f"drop_columns: no committed fragments in {src_out!r}"
        )
    parts = next(
        (
            p
            for rec in sorted(done.values(), key=lambda r: r["frag_key"])
            for p in [
                _fragment_parts(os.path.join(src_out, "data"), rec["frag_key"])
            ]
            if p
        ),
        None,
    )
    if parts is None:
        raise FileNotFoundError(
            f"drop_columns: committed fragments have no parts in {src_out!r}"
        )
    src_cols = decode_columns_batch(
        pq.ParquetFile(parts[0]).schema_arrow.empty_table()
    ).column_names
    missing = [c for c in drop if c not in src_cols]
    if missing:
        raise KeyError(f"drop_columns: not in store schema: {missing}")
    kept = [c for c in src_cols if c not in set(drop)]
    if not kept:
        raise ValueError("drop_columns: cannot drop every column")
    return transcode_table_store(
        src_out,
        dst_out,
        codec_names=codec_names,
        spec=spec,
        batch_rows=batch_rows,
        resume=resume,
        fragments_per_round=fragments_per_round,
        _project=kept,
        _lineage_tag="projected_from",
    )


def derive_table_store(
    src_out: str,
    dst_out: str,
    derive_fn,
    codec_names=None,
    spec: dict | None = None,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
) -> dict:
    """Column backfill over a committed store: stream-decode each
    fragment, append derived column(s) via ``derive_fn(batch) -> batch``
    (vectorized, DETERMINISTIC — a retried fragment must reproduce the
    same bytes; it must keep every source column and handle zero-row
    batches), and re-encode into a new store. The source columns verify
    bit-exact against the destination before each fragment commits;
    derived columns earn zones, blooms, and NDV lineage like any fresh
    encode, so scans prune on them immediately. Resumable per fragment;
    lineage records carry ``derived_from``."""
    return transcode_table_store(
        src_out,
        dst_out,
        codec_names=codec_names,
        spec=spec,
        batch_rows=batch_rows,
        resume=resume,
        fragments_per_round=fragments_per_round,
        _derive=derive_fn,
        _lineage_tag="derived_from",
    )


def _zip_tables(it_a, it_b, what: str, sides=("left", "right")) -> int:
    """Re-chunking zipper over two pa.Table iterators: compare bit-exact
    heads of min length until both exhaust — the chunkings need not align;
    peak memory is one batch per side. Returns the verified row count;
    raises ValueError on any mismatch."""
    a = b = None
    rows = 0
    while True:
        if a is None or a.num_rows == 0:
            a = next(it_a, None)
        if b is None or b.num_rows == 0:
            b = next(it_b, None)
        a_live = a is not None and a.num_rows > 0
        b_live = b is not None and b.num_rows > 0
        if not a_live or not b_live:
            if a_live != b_live:
                raise ValueError(
                    f"row-count mismatch verifying {what}: "
                    f"{sides[0] if a_live else sides[1]} has extra rows"
                )
            return rows
        k = min(a.num_rows, b.num_rows)
        assert_bit_equal(a.slice(0, k), b.slice(0, k))
        rows += k
        a, b = a.slice(k), b.slice(k)


def _decoded_iter(enc_paths, batch_rows: int):
    """Decoded-batch iterator over one part path or a list of parts."""
    from .columnar import decode_columns_batch

    if isinstance(enc_paths, str):
        enc_paths = [enc_paths]
    return (
        decode_columns_batch(pa.Table.from_batches([rb]))
        for path in enc_paths
        for rb in pq.ParquetFile(path).iter_batches(batch_size=batch_rows)
    )


def _zip_compare_decoded(enc_a, enc_b, batch_rows: int) -> int:
    """Stream-compare the DECODED rows of two encoded part sets."""
    return _zip_tables(
        _decoded_iter(enc_a, batch_rows),
        _decoded_iter(enc_b, batch_rows),
        str(enc_b),
        sides=("transcode source", "transcode destination"),
    )


def _verify_unit(u: dict, batch_rows: int) -> int:
    """Stream-compare one store part against its source row-group range;
    → the verified row count."""
    pf = pq.ParquetFile(u["src"])
    rg1 = pf.metadata.num_row_groups if u["rg1"] < 0 else u["rg1"]
    rgs = list(range(u["rg0"], rg1))
    src_iter = (
        pa.Table.from_batches([rb])
        for rb in pf.iter_batches(
            batch_size=batch_rows, row_groups=rgs or None
        )
    )
    return _zip_tables(
        src_iter,
        _decoded_iter(u["part"], batch_rows),
        u["src"],
        sides=("source", "store"),
    )


def verify_table_store(
    input_path: str | list[str],
    out_dir: str,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> dict:
    """Distributed decode-verify at PART granularity: each unit
    stream-compares one store part against its source row-group range
    (bit-exact, one batch per side in memory) — a multi-GB fragment
    verifies as many parallel units, not one straggler, mirroring the
    encode side's spec split. Input fragments WITHOUT a manifest record
    are reported in ``uncommitted`` and make ``ok`` False — a verify that
    checked nothing (or skipped a killed run's leftovers) never reports
    success."""
    manifest = Manifest(out_dir)
    done = manifest.completed()
    all_frags = discover_fragments(input_path)
    fragments = [f for f in all_frags if f in done]
    uncommitted = len(all_frags) - len(fragments)
    if not fragments:
        return {"fragments": 0, "rows": 0, "uncommitted": uncommitted, "ok": False}
    data_dir = os.path.join(out_dir, "data")
    units = []
    for f in fragments:
        parts = _fragment_parts(data_dir, fragment_key(f))
        rg0s = [_part_rg0(p) for p in parts]
        for j, p in enumerate(parts):
            units.append(
                {
                    "src": f,
                    "part": p,
                    "rg0": rg0s[j],
                    "rg1": rg0s[j + 1] if j + 1 < len(parts) else -1,
                }
            )
    rows = _map_tasks(_verify_unit, units, batch_rows)
    return {
        "fragments": len(fragments),
        "rows": sum(rows),
        "uncommitted": uncommitted,
        "ok": uncommitted == 0,
    }


def _store_zone_envelope(out_dir: str, column: str):
    """Global [min, max] of ``column`` across a committed store, computed
    from the lineage manifest ALONE (zero data reads). Returns None when
    any fragment lacks a zone for the column (legacy lineage, string
    columns) — envelope consumers must treat None as "no evidence", never
    as empty."""
    done = Manifest(out_dir).completed()
    if not done:
        raise FileNotFoundError(
            f"_store_zone_envelope: no committed fragments under {out_dir!r}"
        )
    lo = hi = None
    for rec in done.values():
        if not int(rec.get("rows", 0)):
            continue  # zero-row fragments carry no values
        z = (rec.get("zones") or {}).get(column)
        if z is None:
            return None
        lo = z[0] if lo is None else min(lo, z[0])
        hi = z[1] if hi is None else max(hi, z[1])
    return None if lo is None else (lo, hi)


def join_table_store(
    left_dir: str,
    right_dir: str,
    on: str,
    right_on: str | None = None,
    left_columns=None,
    right_columns=None,
    left_preds=None,
    right_preds=None,
    how: str = "inner",
    broadcast_limit_rows: int = 4_000_000,
    distributed: bool | None = None,
    n_buckets: int = 64,
    stats_out: dict | None = None,
):
    """Equi-join two committed stores with pruning at every tier.

    Before any data moves, each side's lineage key envelope (manifest
    zones — zero data reads) becomes a ``range`` predicate on the OTHER
    side, so fragments whose key range provably cannot match never open a
    part file and blocks outside the range never decode (the existing
    predicate-scan tiers do the work). Inner joins prune both sides; left
    joins prune only the right (unmatched left rows must survive). User
    predicates (`left_preds`/`right_preds`, predicate_scan op tuples)
    compose with the envelope predicate and prune the same way.

    Path choice mirrors the 100-TB playbook: when the right side's
    surviving LINEAGE row count (an upper bound — counted before user
    predicates filter rows) fits ``broadcast_limit_rows``, the right side
    decodes ONCE, is broadcast via ray.put, and the left side streams
    through a map_batches probe (functions/join.broadcast_hash_join —
    nothing shuffles). Bigger right sides co-partition both streams
    through ONE shuffle (functions/join.shuffle_hash_join; integer keys).
    ``distributed=True``/``False`` forces the path. A broadcast-sized
    right side with DUPLICATE keys (not a dimension table) automatically
    falls back to the shuffle join on the already-materialized table.

    Output: left key + left columns + right columns (minus the right
    key — USING semantics); column names must not collide. Returns a
    streaming Dataset.
    """
    from ..functions.join import broadcast_hash_join, shuffle_hash_join

    import ray.data

    right_on = right_on or on
    if how not in ("inner", "left"):
        raise ValueError(f"join_table_store: how={how!r} (inner/left)")

    lpreds = list(left_preds or ())
    rpreds = list(right_preds or ())
    r_env = _store_zone_envelope(right_dir, right_on)
    l_env = _store_zone_envelope(left_dir, on)
    if r_env is not None and how == "inner":
        lpreds.append(("range", on, r_env[0], r_env[1]))
    if l_env is not None:
        rpreds.append(("range", right_on, l_env[0], l_env[1]))

    lcols = (
        None
        if left_columns is None
        else list(dict.fromkeys([on, *left_columns]))
    )
    rcols = (
        None
        if right_columns is None
        else list(dict.fromkeys([right_on, *right_columns]))
    )

    lstats: dict = {}
    rstats: dict = {}
    # a side with no predicates scans every fragment; either side is a
    # ScanResult, so a driver-sized right side reaches the broadcast path
    # as the tables its scan produced, never wrapped in a Dataset
    left_ds = predicate_scan_table_store(
        left_dir, lpreds, columns=lcols, stats_out=lstats
    ).to_dataset()
    right = predicate_scan_table_store(
        right_dir, rpreds, columns=rcols, stats_out=rstats
    )

    if distributed is None:
        if rpreds:
            _, checks = _predicate_checks(rpreds)

            def keep(rec):
                return all(c(rec) for c in checks)

        else:

            def keep(rec):
                return True

        est = sum(
            int(rec.get("rows", 0))
            for rec in Manifest(right_dir).completed().values()
            if keep(rec)
        )
        distributed = est > broadcast_limit_rows

    path = "shuffle"
    if not distributed:
        rt = right.to_arrow()
        keys = rt[right_on].to_numpy(zero_copy_only=False)
        if len(np.unique(keys)) == len(keys):
            path = "broadcast"
            out = broadcast_hash_join(left_ds, rt, on, right_on, how=how)
        else:  # many-to-many right side: shuffle the materialized table
            out = shuffle_hash_join(
                left_ds,
                ray.data.from_arrow(rt),
                on,
                right_on,
                how=how,
                n_buckets=n_buckets,
                right_suffix="",
            )
    else:
        out = shuffle_hash_join(
            left_ds,
            right.to_dataset(),
            on,
            right_on,
            how=how,
            n_buckets=n_buckets,
            right_suffix="",
        )
    if stats_out is not None:
        stats_out["path"] = path
        stats_out["left_fragments"] = lstats
        stats_out["right_fragments"] = rstats
        stats_out["left_key_envelope"] = l_env
        stats_out["right_key_envelope"] = r_env
    return out


def append_table_store(
    input_path: str | list[str], out_dir: str, **compress_kw
) -> dict:
    """Incremental ingest: encode only NEW fragments into a committed
    store (the manifest's per-fragment resume contract doubles as the
    append ledger — a fragment path already committed is skipped, new
    paths become new fragments with full lineage/zones/blooms, and every
    store scan picks them up with no rebuild).

    Schema gate: a committed store has one decoded schema; an appended
    fragment whose parquet schema differs in names, order or types is
    REJECTED before any work — a silent schema drift would poison every
    later scan's column pruning. Fragments are identified by PATH (the
    resume contract): re-appending a path whose content changed is NOT
    detected here — use verify_table_store for content audits."""
    from .columnar import decode_columns_batch

    fragments = discover_fragments(input_path)
    manifest = Manifest(out_dir)
    done = manifest.completed()
    new = [f for f in fragments if f not in done]
    if done and new:
        data_dir = os.path.join(out_dir, "data")
        rec = min(done.values(), key=lambda r: r["frag_key"])
        parts = _fragment_parts(data_dir, rec["frag_key"])
        store_fields = [
            (f.name, f.type)
            for f in decode_columns_batch(
                pq.read_schema(parts[0]).empty_table()
            ).schema
        ]
        for f in new:
            got = [(fl.name, fl.type) for fl in pq.read_schema(f)]
            if got != store_fields:
                raise ValueError(
                    f"append_table_store: fragment {f!r} schema {got} != "
                    f"store schema {store_fields}"
                )
    stats = compress_table(fragments, out_dir, **compress_kw)
    stats["appended_fragments"] = len(new)
    return stats


def _drop_keys_rec(
    rec: dict, src_data, dst_data, key, batch_rows, keys
) -> dict:
    """Rewrite one committed fragment without the rows whose ``key`` is in
    ``keys`` (anti-join via the negated compressed-domain IN mask), then
    self-verify; → its stats. ``keys`` is the SORTED global key container
    (shipped once via ray.put); an int-keyed fragment slices it to its own
    zone first, so membership cost tracks the fragment's overlap, not the
    delta size."""
    z = (rec.get("zones") or {}).get(key)
    if isinstance(keys, np.ndarray) and z is not None:
        i0 = np.searchsorted(keys, z[0], "left")
        i1 = np.searchsorted(keys, z[1], "right")
        keys = keys[i0:i1]
    return _filter_fragment(
        rec, src_data, dst_data, [("in", key, keys)], "auto", batch_rows,
        negate=True,
    )


def upsert_table_store(
    src_out: str,
    dst_out: str,
    delta_path: str | list[str],
    key: str,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
    stats_out: dict | None = None,
    max_delta_keys: int = 16_000_000,
) -> dict:
    """MERGE a delta table into a committed store (the CDC upsert shape):
    ``dst = (src rows whose key ∉ delta) ∪ delta`` — updates replace,
    new keys insert, written as a NEW committed store (same src→dst
    model as filter/compact/transcode; crash-safety stays the manifest's
    per-fragment contract).

    Physical plan, decided per src fragment from the lineage alone:

    - key zone DISJOINT from the delta key set (int-zoned key, zero
      recorded nulls, binary search over the sorted delta keys) → the
      encoded parts COPY verbatim, lineage carries over — no decode;
    - otherwise the fragment rewrites through the NEGATED compressed-
      domain IN mask (rows whose key matches a delta key drop, survivors
      re-encode and self-verify); an int-keyed task sees only the delta
      keys inside its own zone;
    - the delta files then append as new fragments (full lineage/zones/
      blooms) through the same schema gate as append_table_store.

    Scale contract: the delta is the SMALL side of a merge (one CDC
    batch). Its key column is collected once — ≤ ``max_delta_keys``
    (default 16 M ≈ 128 MB of int64) — and ships via a single ray.put;
    the store side streams per fragment and never materializes. Bigger
    deltas: split into multiple merges (each is resumable). The delta
    must be UNIQUE by key and null-free in the key (both checked);
    string keys are supported but skip the zone prune (zones are
    int-logical), so every fragment rewrites."""
    from .columnar import decode_columns_batch

    src_manifest = Manifest(src_out)
    done_src = src_manifest.completed()
    if not done_src:
        raise FileNotFoundError(
            f"upsert_table_store: no committed fragments in {src_out!r}"
        )
    delta_files = discover_fragments(delta_path)
    if not delta_files:
        raise FileNotFoundError(
            f"upsert_table_store: no delta parquet under {delta_path!r}"
        )
    clash = {r["fragment"] for r in done_src.values()} & set(delta_files)
    if clash:
        raise ValueError(
            f"upsert_table_store: delta paths collide with src fragments: "
            f"{sorted(clash)[:3]}"
        )
    src_data = os.path.join(src_out, "data")
    rec0 = min(done_src.values(), key=lambda r: r["frag_key"])
    parts0 = _fragment_parts(src_data, rec0["frag_key"])
    store_fields = [
        (f.name, f.type)
        for f in decode_columns_batch(
            pq.read_schema(parts0[0]).empty_table()
        ).schema
    ]
    for f in delta_files:
        got = [(fl.name, fl.type) for fl in pq.read_schema(f)]
        if got != store_fields:
            raise ValueError(
                f"upsert_table_store: delta {f!r} schema {got} != store "
                f"schema {store_fields}"
            )
    if key not in [n for n, _t in store_fields]:
        raise ValueError(f"upsert_table_store: no column {key!r} in store")

    kt = pa.concat_tables(
        [pq.read_table(f, columns=[key]) for f in delta_files]
    )
    n_delta = kt.num_rows
    ka = kt[key].combine_chunks()
    if ka.null_count:
        raise ValueError("upsert_table_store: delta key column has nulls")
    if n_delta > max_delta_keys:
        raise ValueError(
            f"upsert_table_store: delta has {n_delta} keys > "
            f"max_delta_keys={max_delta_keys}; split the delta into "
            "multiple merges (each merge is independently resumable)"
        )
    if n_delta and pc.count_distinct(ka).as_py() != n_delta:
        raise ValueError("upsert_table_store: delta is not unique by key")
    if pa.types.is_integer(ka.type) or pa.types.is_temporal(ka.type):
        keys_sorted = np.sort(
            ka.cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        int_keys = True
    elif pa.types.is_string(ka.type) or pa.types.is_large_string(ka.type):
        keys_sorted = sorted(ka.to_pylist())
        int_keys = False
    else:
        raise ValueError(
            f"upsert_table_store: unsupported key type {ka.type}"
        )

    copied, rewritten, rows_dropped = _drop_keys_rewrite(
        src_out, dst_out, key, keys_sorted, int_keys,
        batch_rows, resume, fragments_per_round,
    )
    delta_stats = compress_table(
        delta_files, dst_out, resume=resume, batch_rows=batch_rows
    )
    if stats_out is not None:
        stats_out.update(
            fragments_copied=copied,
            fragments_rewritten=rewritten,
            rows_replaced=rows_dropped,
            delta_fragments=len(delta_files),
            delta_rows=n_delta,
        )
    return delta_stats


def _drop_keys_rewrite(
    src_out: str,
    dst_out: str,
    key: str,
    keys_sorted,
    int_keys: bool,
    batch_rows: int,
    resume: bool,
    fragments_per_round: int,
) -> tuple[int, int, int]:
    """The shared src→dst anti-join core of upsert and key-list delete:
    copy-through fragments whose int key zone misses every key, rewrite
    the rest through the negated compressed-domain IN mask. Returns
    (fragments_copied, fragments_rewritten, rows_dropped) for THIS run
    (already-committed destination fragments skip under resume)."""
    src_manifest = Manifest(src_out)
    done_src = src_manifest.completed()
    src_data = os.path.join(src_out, "data")
    dst_manifest = Manifest(dst_out)
    done_dst = dst_manifest.completed() if resume else {}
    recs = sorted(done_src.values(), key=lambda rec: rec["frag_key"])
    pending = [rec for rec in recs if rec["fragment"] not in done_dst]
    dst_data = os.path.join(dst_out, "data")
    copied = 0
    rewrite_recs = []
    for rec in pending:
        z = (rec.get("zones") or {}).get(key)
        nn = (rec.get("nulls") or {}).get(key)
        hit = True
        if int_keys and z is not None and nn == 0:
            i0 = np.searchsorted(keys_sorted, z[0], "left")
            i1 = np.searchsorted(keys_sorted, z[1], "right")
            hit = i1 > i0
        if hit:
            rewrite_recs.append(rec)
            continue
        fdir = os.path.join(dst_data, f"frag={rec['frag_key']}")
        shutil.rmtree(fdir, ignore_errors=True)
        os.makedirs(fdir, exist_ok=True)
        seek = _copy_parts(src_data, rec, fdir)
        dst_manifest.commit(
            _stamp_seek({**rec, "seek": seek, "upserted_from": src_out})
        )
        copied += 1

    rows_dropped = 0
    rewritten = 0
    keys_ref = ray.put(keys_sorted) if rewrite_recs else None
    for start in range(0, len(rewrite_recs), fragments_per_round):
        round_recs = rewrite_recs[start : start + fragments_per_round]
        for rec in round_recs:
            shutil.rmtree(
                os.path.join(dst_data, f"frag={rec['frag_key']}"),
                ignore_errors=True,
            )
        part_stats = _map_tasks(
            _drop_keys_rec, round_recs, src_data, dst_data, key, batch_rows,
            keys_ref,
        )
        for rec, st in zip(round_recs, part_stats):
            dst_manifest.commit(
                _stats_record(
                    rec["fragment"], rec["frag_key"], st,
                    upserted_from=src_out,
                )
            )
            rows_dropped += int(rec["rows"]) - st["rows"]
            rewritten += 1
    return copied, rewritten, rows_dropped


def delete_keys_table_store(
    src_out: str,
    dst_out: str,
    keys,
    key: str,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    resume: bool = True,
    fragments_per_round: int = 64,
    stats_out: dict | None = None,
    max_delete_keys: int = 16_000_000,
) -> dict:
    """Key-LIST delete (the GDPR / right-to-be-forgotten shape):
    ``dst = src rows whose key ∉ keys``, written as a NEW committed
    store. ``keys`` is a python list, a numpy array, OR a parquet
    path/dir holding a ``key`` column (duplicates fine — the set is
    deduplicated). Same physical plan as upsert minus the append:
    int-zoned fragments that provably contain none of the keys COPY
    verbatim; the rest rewrite through the negated compressed-domain
    IN mask and self-verify. Complements filter_table_store, which
    deletes by PREDICATE; this deletes by identity at ≤max_delete_keys
    per run (split bigger lists into resumable passes)."""
    done_src = Manifest(src_out).completed()
    if not done_src:
        raise FileNotFoundError(
            f"delete_keys_table_store: no committed fragments in {src_out!r}"
        )
    if isinstance(keys, (str, os.PathLike)):
        files = discover_fragments(str(keys))
        if not files:
            raise FileNotFoundError(
                f"delete_keys_table_store: no parquet under {keys!r}"
            )
        ka = pa.concat_tables(
            [pq.read_table(f, columns=[key]) for f in files]
        )[key].combine_chunks()
    elif isinstance(keys, np.ndarray):
        ka = pa.array(keys)
    else:
        ka = pa.array(list(keys))
    if ka.null_count:
        raise ValueError("delete_keys_table_store: null key in delete set")
    if len(ka) > max_delete_keys:
        raise ValueError(
            f"delete_keys_table_store: {len(ka)} keys > "
            f"max_delete_keys={max_delete_keys}; split into multiple "
            "passes (each is resumable)"
        )
    if pa.types.is_integer(ka.type) or pa.types.is_temporal(ka.type):
        keys_sorted = np.unique(
            ka.cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        int_keys = True
    elif pa.types.is_string(ka.type) or pa.types.is_large_string(ka.type):
        keys_sorted = sorted(set(ka.to_pylist()))
        int_keys = False
    else:
        raise ValueError(
            f"delete_keys_table_store: unsupported key type {ka.type}"
        )
    copied, rewritten, rows_dropped = _drop_keys_rewrite(
        src_out, dst_out, key, keys_sorted, int_keys,
        batch_rows, resume, fragments_per_round,
    )
    if stats_out is not None:
        stats_out.update(
            fragments_copied=copied,
            fragments_rewritten=rewritten,
            rows_deleted=rows_dropped,
            delete_keys=len(keys_sorted),
        )
    return Manifest(dst_out).stats()


def explain_table_store(out_dir: str, preds) -> pa.Table:
    """EXPLAIN for the store's fragment planner: the per-fragment
    skip/scan decision the predicate scan would make, computed from the
    lineage manifest ALONE (no Ray session, no file opens) — one row per
    committed fragment with the first predicate that pruned it
    (``<op>:<column>``: range → zone envelope, eq/like/in → trigram
    bloom or id-zone bisect, isnull/notnull → lineage null counts).
    The same ``_predicate_checks`` closures the scan uses decide here,
    so EXPLAIN and execution can never disagree."""
    done = Manifest(out_dir).completed()
    if not done:
        raise FileNotFoundError(
            f"explain_table_store: no committed fragments under {out_dir!r}"
        )
    _cols, checks = _predicate_checks(preds)
    labels = [f"{p[0]}:{p[1]}" for p in preds]
    out = {
        "frag_key": [], "fragment": [], "rows": [],
        "encoded_bytes": [], "decision": [], "pruned_by": [],
    }
    for rec in sorted(done.values(), key=lambda r: r["frag_key"]):
        pruned = ""
        for chk, lab in zip(checks, labels):
            if not chk(rec):
                pruned = lab
                break
        out["frag_key"].append(rec["frag_key"])
        out["fragment"].append(rec["fragment"])
        out["rows"].append(int(rec.get("rows", 0)))
        out["encoded_bytes"].append(int(rec.get("encoded_bytes", 0)))
        out["decision"].append("skip" if pruned else "scan")
        out["pruned_by"].append(pruned)
    return pa.table(
        {
            "frag_key": pa.array(out["frag_key"]),
            "fragment": pa.array(out["fragment"]),
            "rows": pa.array(out["rows"], type=pa.int64()),
            "encoded_bytes": pa.array(
                out["encoded_bytes"], type=pa.int64()
            ),
            "decision": pa.array(out["decision"]),
            "pruned_by": pa.array(out["pruned_by"]),
        }
    )


def _union_copy(entry: tuple) -> bool:
    """Byte-copy one source fragment's parts into its destination dir
    (each part verified by size); → whether every part had a sidecar."""
    src_data, rec, dst_fdir = entry
    shutil.rmtree(dst_fdir, ignore_errors=True)
    os.makedirs(dst_fdir, exist_ok=True)
    return _copy_parts(src_data, rec, dst_fdir)


def union_table_store(
    src_outs: list[str],
    dst_out: str,
    resume: bool = True,
    fragments_per_round: int = 256,
    stats_out: dict | None = None,
) -> dict:
    """Consolidate N committed stores into ONE (the shard-merge shape
    after parallel ingest jobs): every source fragment's encoded parts
    copy byte-identically into the destination under a source-qualified
    fragment id (``<src>::<fragment>`` — two stores that encoded the
    SAME input path stay distinct rows, exactly like SQL UNION ALL),
    and the lineage records carry over verbatim, so every zone / bloom
    / null statistic keeps pruning in the merged store. Copies run as
    Ray tasks (fragments_per_round at a time); each part verifies by
    size before its fragment commits; resumable per fragment.

    All sources must share the decoded schema (append's gate). Re-pack
    small fragments afterwards with compact_table_store if the sources
    were fine-grained; nothing re-encodes here."""
    from .columnar import decode_columns_batch

    if len(src_outs) < 1:
        raise ValueError("union_table_store: need at least one source")
    if len(set(src_outs)) != len(src_outs):
        raise ValueError("union_table_store: duplicate source store")
    norm_dst = os.path.abspath(dst_out)
    if any(os.path.abspath(s) == norm_dst for s in src_outs):
        raise ValueError(
            "union_table_store: destination must not be a source"
        )
    srcs = []
    schema0 = None
    for s in src_outs:
        done = Manifest(s).completed()
        if not done:
            raise FileNotFoundError(
                f"union_table_store: no committed fragments in {s!r}"
            )
        data_dir = os.path.join(s, "data")
        rec0 = next(
            (
                r
                for r in sorted(done.values(), key=lambda r: r["frag_key"])
                if int(r.get("rows", 0)) > 0
            ),
            None,
        )
        if rec0 is not None:
            parts0 = _fragment_parts(data_dir, rec0["frag_key"])
            fields = [
                (f.name, f.type)
                for f in decode_columns_batch(
                    pq.read_schema(parts0[0]).empty_table()
                ).schema
            ]
            if schema0 is None:
                schema0 = fields
            elif fields != schema0:
                raise ValueError(
                    f"union_table_store: {s!r} schema {fields} != "
                    f"{schema0}"
                )
        srcs.append((s, data_dir, done))

    dst_manifest = Manifest(dst_out)
    done_dst = dst_manifest.completed() if resume else {}
    dst_data = os.path.join(dst_out, "data")
    entries = []  # (src_data, src_rec, dst_fdir, new_rec)
    skipped_markers = 0
    for s, data_dir, done in srcs:
        for rec in sorted(done.values(), key=lambda r: r["frag_key"]):
            if int(rec.get("rows", 0)) == 0:
                skipped_markers += 1
                continue
            new_id = f"{s}::{rec['fragment']}"
            if new_id in done_dst:
                continue
            new_key = fragment_key(new_id)
            new_rec = {
                **rec,
                "fragment": new_id,
                "frag_key": new_key,
                "unioned_from": s,
            }
            entries.append(
                (
                    data_dir,
                    rec,
                    os.path.join(dst_data, f"frag={new_key}"),
                    new_rec,
                )
            )
    copied = 0
    for start in range(0, len(entries), fragments_per_round):
        batch = entries[start : start + fragments_per_round]
        seeks = _map_tasks(_union_copy, [(d, r, f) for d, r, f, _n in batch])
        for (_d, _r, _f, new_rec), seek in zip(batch, seeks):
            dst_manifest.commit(_stamp_seek({**new_rec, "seek": seek}))
            copied += 1
    if stats_out is not None:
        stats_out.update(
            fragments_copied=copied,
            sources=len(src_outs),
            zero_row_markers_elided=skipped_markers,
        )
    return dst_manifest.stats()


def vacuum_table_store(
    out_dir: str, dry_run: bool = False, stats_out: dict | None = None
) -> dict:
    """Garbage-collect crash leftovers from a store's data directory —
    OFFLINE maintenance, same contract as compact (no concurrent
    writer: an in-flight append's not-yet-committed fragment dir is
    indistinguishable from an orphan).

    Removes, manifest-first (readers walk the manifest, never the
    directory, so none of this is ever visible to a query):

    - ORPHAN fragment dirs: ``data/frag=K`` with no committed manifest
      record — a task died between writing parts and the commit;
    - STRAY files inside committed fragment dirs that are neither a
      ``part-*.parquet`` part nor the ``part-*.seek`` sidecar of a part
      that exists (tmp files, editor droppings, orphan sidecars).

    ``dry_run=True`` reports without deleting. Returns/``stats_out``:
    orphan_dirs, stray_files, reclaimed_bytes, plus the lists when dry.
    No Ray session needed — pure manifest+filesystem work, O(#dirs)."""
    manifest = Manifest(out_dir)
    committed = {r["frag_key"] for r in manifest.completed().values()}
    data_dir = os.path.join(out_dir, "data")
    orphans: list[str] = []
    strays: list[str] = []
    reclaimed = 0
    if os.path.isdir(data_dir):
        for name in sorted(os.listdir(data_dir)):
            full = os.path.join(data_dir, name)
            if not name.startswith("frag=") or not os.path.isdir(full):
                continue
            if name[len("frag="):] not in committed:
                orphans.append(full)
                for root, _dirs, files in os.walk(full):
                    reclaimed += sum(
                        os.path.getsize(os.path.join(root, f))
                        for f in files
                    )
                continue
            names = set(os.listdir(full))
            keep = {
                f
                for f in names
                if f.startswith("part-") and f.endswith(".parquet")
            }
            keep |= {seek_path(f) for f in keep} & names
            for f in sorted(names - keep):
                fp = os.path.join(full, f)
                if os.path.isfile(fp):
                    strays.append(fp)
                    reclaimed += os.path.getsize(fp)
    if not dry_run:
        for d in orphans:
            shutil.rmtree(d, ignore_errors=True)
        for f in strays:
            try:
                os.remove(f)
            except OSError:
                pass
    out = {
        "orphan_dirs": len(orphans),
        "stray_files": len(strays),
        "reclaimed_bytes": reclaimed,
        "dry_run": dry_run,
    }
    if dry_run:
        out["orphan_paths"] = orphans
        out["stray_paths"] = strays
    if stats_out is not None:
        stats_out.update(out)
    return out


def sort_table_store(
    out_dir: str,
    by,
    columns=None,
    descending: bool = False,
    rownum: str = "rownum",
    stats_out: dict | None = None,
    limit_rows: int | None = None,
):
    """Total-order export of a committed store: ORDER BY ``by`` (one
    column or a list — pass a key set that is actually total, e.g.
    ``["value", "event_id"]``; ties otherwise number arbitrarily) with a
    GLOBAL ``rownum`` column (0-based) carrying the order, so the result
    stays a Dataset whose blocks can land in any order and a partitioned
    parquet sink is resumable without losing the ordering.

    Two physical paths, chosen from the lineage manifest alone:

    - **zonemerge** (no shuffle): when every fragment carries a zone for
      the leading key, records zero nulls in it, and the fragment zones
      are pairwise DISJOINT (the natural state after
      cluster_table_store, or time-ordered ingest at 100 TB), the global
      sort decomposes into per-fragment local sorts — each task decodes
      one fragment, sorts it, and stamps row numbers from the lineage
      row-count prefix sums. Zero data crosses tasks.
    - **sort** (one shuffle): otherwise the decoded stream goes through
      Ray's range-partitioned sort; the sorted blocks' row counts come
      back as tiny ints, prefix sums stamp per-block offsets, and the
      blocks re-enter a Dataset by reference (never pulled to the
      driver).

    ``limit_rows``: only rows with ``rownum < limit_rows`` are produced.
    On the zonemerge path this PRUNES whole fragments before any read —
    rownum is dense and fragment offsets come from lineage row-count
    prefix sums, so a head-20 over a thousand-fragment store opens one
    or two fragments (``stats_out['fragments_pruned']`` records the
    skips). On the shuffle path the sort still runs (a global order
    needs it) but only the head blocks materialize.
    """
    import ray
    import ray.data

    from .columnar import decode_columns_batch

    by = [by] if isinstance(by, str) else list(by)
    if not by:
        raise ValueError("sort_table_store: empty sort key")
    if rownum in (columns or ()) or rownum in by:
        raise ValueError(f"sort_table_store: rownum column {rownum!r} clashes")
    manifest = Manifest(out_dir)
    done = manifest.completed()
    if not done:
        raise FileNotFoundError(
            f"sort_table_store: no committed fragments under {out_dir!r}"
        )
    recs = [
        r
        for r in sorted(done.values(), key=lambda r: r["frag_key"])
        if int(r.get("rows", 0))
    ]
    lead = by[0]

    def _zone(rec):
        return (rec.get("zones") or {}).get(lead)

    def _nulls_zero(rec):
        return (rec.get("nulls") or {}).get(lead) == 0

    mergeable = bool(recs) and all(
        _zone(r) is not None and _nulls_zero(r) for r in recs
    )
    if mergeable:
        ordered = sorted(recs, key=lambda r: _zone(r)[0])
        for a, b_ in zip(ordered, ordered[1:]):
            if not (_zone(a)[1] < _zone(b_)[0]):
                mergeable = False  # overlap (or touching: a tie could span)
                break
    out_cols = None if columns is None else list(columns)
    read_cols = (
        None if out_cols is None else sorted(set(out_cols) | set(by))
    )
    sort_keys = [
        (c, "descending" if descending else "ascending") for c in by
    ]

    if mergeable:
        if descending:
            ordered = ordered[::-1]
        offsets, acc = [], 0
        for r in ordered:
            offsets.append(acc)
            acc += int(r["rows"])
        data_dir = os.path.join(out_dir, "data")
        units = [
            {
                "parts": _fragment_parts(data_dir, r["frag_key"]),
                "offset": off,
                "rows": int(r["rows"]),
            }
            for r, off in zip(ordered, offsets)
        ]
        n_total = len(units)
        if limit_rows is not None:
            # rownum is dense: a fragment whose offset is past the limit
            # can contribute nothing — skip it before any read
            units = [u for u in units if u["offset"] < limit_rows]
        if stats_out is not None:
            stats_out["fragments_pruned"] = n_total - len(units)
        units_ref = ray.put(units)

        def sort_frag(ids: pa.Table) -> pa.Table:
            us = ray.get(units_ref)
            outs = []
            for i in ids["id"].to_pylist():
                u = us[i]
                t = pa.concat_tables(
                    [
                        decode_columns_batch(_read_part(p, read_cols))
                        for p in u["parts"]
                    ]
                )
                if t.num_rows != u["rows"]:
                    raise RuntimeError(
                        "sort_table_store: lineage row count mismatch "
                        f"({t.num_rows} != {u['rows']})"
                    )
                t = t.sort_by(sort_keys)
                t = t.append_column(
                    rownum,
                    pa.array(
                        np.arange(
                            u["offset"], u["offset"] + t.num_rows,
                            dtype=np.int64,
                        )
                    ),
                )
                if out_cols is not None:
                    t = t.select([*out_cols, rownum])
                if limit_rows is not None and u["offset"] + t.num_rows > (
                    limit_rows
                ):
                    t = t.slice(0, max(0, limit_rows - u["offset"]))
                outs.append(t)
            return pa.concat_tables(outs)

        if stats_out is not None:
            stats_out["path"] = "zonemerge"
            stats_out["fragments"] = len(units)
        n_blocks = max(1, len(units))
        return ray.data.range(
            len(units), override_num_blocks=n_blocks
        ).map_batches(sort_frag, batch_format="pyarrow", batch_size=None)

    # general path: decoded stream → Ray range-partitioned sort →
    # per-block offsets from tiny row counts → blocks re-enter by ref
    ds = read_table_store(out_dir, columns=read_cols)
    sorted_ds = ds.sort(by, descending=descending)
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def _stamp(t: pa.Table, off: int) -> pa.Table:
        t = t.append_column(
            rownum,
            pa.array(np.arange(off, off + t.num_rows, dtype=np.int64)),
        )
        return t.select([*out_cols, rownum]) if out_cols is not None else t

    counts = ray.get([_nrows.remote(r) for r in refs])
    offs, acc = [], 0
    for c in counts:
        offs.append(acc)
        acc += c
    stamped = [
        _stamp.remote(r, off) for r, off, c in zip(refs, offs, counts) if c
    ]
    if not stamped:
        # every committed fragment decoded to zero rows (post-filter
        # stores can do this); keep the contract schema without a ref
        if refs:
            stamped = [_stamp.remote(refs[0], 0)]
        else:
            base = pa.schema(
                [(c, pa.null()) for c in (out_cols or by)]
                + [(rownum, pa.int64())]
            )
            return ray.data.from_arrow(base.empty_table())
    if stats_out is not None:
        stats_out["path"] = "sort"
        stats_out["fragments"] = len(recs)
        stats_out["fragments_pruned"] = 0
    out = ray.data.from_arrow_refs(stamped)
    # stamped refs are in global sort order, so the first limit_rows rows
    # ARE the rownum head — only the head blocks ever materialize further
    return out.limit(limit_rows) if limit_rows is not None else out
