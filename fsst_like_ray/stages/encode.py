"""Encode stage: a stateful callable class for ``ds.map_batches``.

One Ray Data block ≅ one reference 64Ki-row block (src/BenchmarkDriver.hpp:12):
codec state (symbol table / dictionary / width) is trained per batch on that
batch's own rows (reference: src/BenchmarkDriver.cpp:100-101), then every row
is encoded into an independently decodable payload. The state travels WITH the
data as a dictionary-encoded binary column, so decode needs no side channel
(SURVEY.md §4 "state sharing").

Used as ``ds.map_batches(EncoderActor, fn_constructor_kwargs=..., batch_format
="pyarrow", concurrency=N)`` — actor pool so per-codec setup happens once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import CODECS, select_codec

# codecs whose state can encode ARBITRARY input: fsst falls back to escape
# literals for byte sequences its symbol table never saw, so one GLOBAL
# table is always correct (dict/bitpack/for states would reject or corrupt
# out-of-domain tokens — they stay per-block)
SHARED_SAFE_CODECS = ("fsst",)

ENCODED_SCHEMA_FIELDS = [
    "doc_id",
    "n_tok",
    "source",
    "codec",
    "state",
    "payload",
    "payload_nbytes",
]


def list_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy extraction of (values:int32, offsets:int64) from a
    list<int32> array, handling chunk slices."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off = arr.offsets.to_numpy().astype(np.int64)
    base = off[0]
    values = arr.values.to_numpy(zero_copy_only=False)[base : off[-1]]
    return np.ascontiguousarray(values, dtype=np.int32), off - base


def payload_array(buf: np.ndarray, payload_offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array from (buffer, offsets)."""
    n = len(payload_offsets) - 1
    return pa.Array.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(payload_offsets.astype(np.int64)), pa.py_buffer(buf)],
    )


def _chunk_bounds(offsets: np.ndarray, max_tokens: int | None) -> np.ndarray:
    """Row boundaries so each chunk carries ≤ max_tokens (≥1 row per chunk) —
    the intra-batch skew guard: a giant document gets its own codec state
    instead of blowing up a shared one (SURVEY.md §7.4 "skew")."""
    n = len(offsets) - 1
    if max_tokens is None or offsets[-1] - offsets[0] <= max_tokens:
        return np.array([0, n], dtype=np.int64)
    bounds = [0]
    start = 0
    while start < n:
        limit = offsets[start] + max_tokens
        end = int(np.searchsorted(offsets, limit, side="right")) - 1
        end = min(max(end, start + 1), n)
        bounds.append(end)
        start = end
    return np.array(bounds, dtype=np.int64)


def encode_table(
    batch: pa.Table,
    codec: str = "auto",
    codec_names=None,
    max_tokens_per_state: int | None = None,
    shared_state: bytes | None = None,
) -> pa.Table:
    """``shared_state``: a pre-trained codec state (e.g. a GLOBAL fsst
    symbol table trained once on a corpus sample) — training and the
    state-scope chunking are skipped entirely; every row encodes against
    the one state. Only codecs whose state can encode ARBITRARY input
    (fsst: unseen bytes fall back to escape literals) are safe here —
    enforced below."""
    values, offsets = list_buffers(batch["tokens"])
    n = batch.num_rows
    if shared_state is not None and codec == "auto":
        raise ValueError("shared_state requires an explicit codec")
    if shared_state is not None and codec not in SHARED_SAFE_CODECS:
        # this is the choke point every encode path funnels through: a
        # dict/bitpack state missing the batch's tokens would corrupt
        # SILENTLY (wrong indices, no exception), so reject here
        raise ValueError(
            f"shared state is only sound for {SHARED_SAFE_CODECS}, got "
            f"{codec!r} (its state cannot encode unseen tokens)"
        )
    bounds = (
        np.array([0, n], dtype=np.int64)
        if shared_state is not None
        else _chunk_bounds(offsets, max_tokens_per_state)
    )
    bufs, pos, states, names = [], [], [], []
    row_chunk = np.empty(n, dtype=np.int32)
    base_bytes = 0
    # sibling state windows share screen states: a screened codec trains
    # once per BATCH instead of once per window (choice fidelity intact —
    # contenders always get a fresh full estimate)
    screen_cache: dict = {}
    for ci in range(len(bounds) - 1):
        lo, hi = int(bounds[ci]), int(bounds[ci + 1])
        v = values[offsets[lo] : offsets[hi]]
        o = offsets[lo : hi + 1] - offsets[lo]
        state = None
        if shared_state is not None:
            name, state = codec, shared_state
        elif codec == "auto":
            name, _est, state = select_codec(
                v, o, codec_names, screen_cache=screen_cache
            )
        else:
            name = codec
        c = CODECS[name]
        if state is None:
            state, buf, po = c.train_encode(v, o)
        else:
            buf, po = c.encode(v, o, state)
        bufs.append(buf)
        pos.append(po[1:] if ci else po)
        states.append(state)
        names.append(name)
        row_chunk[lo:hi] = ci
        pos[-1] = pos[-1] + base_bytes
        base_bytes += len(buf)
    buf = bufs[0] if len(bufs) == 1 else np.concatenate(bufs)
    po = pos[0] if len(pos) == 1 else np.concatenate(pos)
    idx = pa.array(row_chunk)
    state_col = pa.DictionaryArray.from_arrays(idx, pa.array(states, type=pa.binary()))
    codec_col = pa.DictionaryArray.from_arrays(idx, pa.array(names, type=pa.string()))
    n_tok = batch["n_tok"] if "n_tok" in batch.column_names else pa.array(
        np.diff(offsets).astype(np.int32), type=pa.int32()
    )
    source = (
        batch["source"]
        if "source" in batch.column_names
        else pa.nulls(n, type=pa.string())
    )
    # per-row input hash (doc_id + token values): travels with the encoded
    # row so lineage stats can record the corpus hash WITHOUT a second read,
    # and decode-verify can check against the manifest instead of re-reading
    # the original corpus (at 100 TB the original may no longer be hot)
    from .verify import row_hashes

    rh = row_hashes(batch)
    out = {
        "doc_id": batch["doc_id"],
        "n_tok": n_tok,
        "source": source,
        "codec": codec_col,
        "state": state_col,
        "payload": payload_array(buf, po),
        "payload_nbytes": pa.array(np.diff(po), type=pa.int64()),
        "row_hash": pa.array(rh.view(np.int64)),
    }
    # pass through any extra columns (e.g. the lineage fragment key)
    for name in batch.column_names:
        if name not in out and name != "tokens":
            out[name] = batch[name]
    return pa.table(out)


class EncoderActor:
    """Stateful map_batches callable: holds the codec registry + selection
    config; one instance per actor, reused across that actor's batches."""

    def __init__(
        self,
        codec: str = "auto",
        codec_names: list[str] | None = None,
        max_tokens_per_state: int | None = None,
        shared_state: bytes | None = None,
    ):
        self.codec = codec
        self.codec_names = codec_names
        self.max_tokens_per_state = max_tokens_per_state
        self.shared_state = shared_state
        if codec != "auto" and codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return encode_table(
            batch, self.codec, self.codec_names, self.max_tokens_per_state,
            shared_state=self.shared_state,
        )
