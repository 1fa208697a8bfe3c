"""Whole-table per-column compression over arbitrary Arrow tables.

The north rule's engine is *per-column*: every column of a Parquet table
gets its own lightweight codec, auto-selected per block (the reference
fixes FSST for its one string column, src/BenchmarkDriver.cpp:87-140; this
generalizes the choice across the type system). Column families:

- ``list<int32>`` / ``list<float32>``  — per-row payloads through the int
  codec registry (floats ride as int32 bit views: bit-identical, honest —
  random mantissas won't compress and ``auto`` then picks ``plain``).
- ``int32`` / ``float32`` / ``bool`` / ``date32`` — the whole block column
  encodes as ONE codec row (run/delta/dict statistics work across the
  column; per-row scalar payloads could never beat 1 value/row), carried in
  the block envelope.
- ``int64`` / ``timestamp[*]`` / ``float64`` — wrap-around base-shift to
  uint64, split into lo/hi 32-bit streams, each auto-encoded (hi is
  near-constant for timestamps → RLE; sorted µs timestamps → delta/varint).
- ``string`` / ``binary`` — per-block scheme choice between ``fsstb``
  (FSST symbol table over the UTF-8 bytes, per-row payloads), ``strdict``
  (whole-string dictionary + auto-int-coded indices — wins on low-cardinality
  columns like ``source``) and ``plainb`` (raw bytes), by estimated size.

Encoded layout (self-describing, parquet-stable):

- ``__rowidx`` int32 — row position inside its encode-time block. Scalar
  kinds carry the block payload once (dictionary-encoded envelope), and a
  parquet rewrite may re-slice blocks: ``__rowidx`` maps any row subset
  back into the block-decoded vector. Parquet: DELTA_BINARY_PACKED.
- per source column ``c``:
  - ``c__blk``     dict<binary> — block envelope: original type, validity
    bitmap, codec name(s)/state(s), scalar payloads, plain-bytes accounting;
    an ``fsstb`` body is the symbol table then the block's 32-byte
    escaped-literal bitmap (bodies written before the bitmap end at the
    table, and LIKE computes it from the payloads). Parquet: dictionary.
  - ``c__payload`` large_binary — per-row payload. Only list and
    string/binary columns have the field (its rows are empty in strdict
    blocks); scalar families keep every value in the envelope and write
    none. Readers go through ``_payload_buffers``, which reads an absent
    field as empty rows and refuses blocks that need the bytes.
    Parquet: DELTA_LENGTH_BYTE_ARRAY, no dictionary.
  - ``c__n``       int32 — per-row element count (list families only; it is
    the decode ``counts`` argument). Parquet: dictionary.

The parquet encodings are those of the store's part writer
(tablestore._part_writer); readers take any encoding, so parts written
with dictionaries on every field read the same.

Everything is vectorized NumPy / Arrow; no per-row Python on either path.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import fsstlib
from ..buffers import (
    _binary_buffers,
    _group_indices,
    payload_array,
    string_buffers,
)
from ..codecs import CODECS
from ..codecs.auto import select_codec
from ..codecs.bitutil import gather_rows, scatter_segments

# v2: numeric families carry a (vmin, vmax) zone map. No v1 read shim on
# purpose: v1 existed for one session with no persisted artifacts beyond
# /tmp scratch; decode hard-rejects the version byte rather than guessing.
ENV_VERSION = 4
# envelopes carrying the F64_XOR tag stamp this instead (see _parse_head)
ENV_VERSION_XOR = 5

# float64 stream transforms (envelope tag, T_FLOAT64 only). F64_BITS stores
# the raw IEEE bit view (the only exact option for arbitrary doubles);
# F64_ALP is the ALP-style decimal transform (Afroozeh & Boncz, SIGMOD'23,
# public): when the block's doubles are decimal-rounded (prices, scores,
# rounded measurements — events.value here), round(v*10^e) is a SMALL
# integer whose division by 10^e reproduces the original bits exactly for
# almost every row; rows where it does not (and NaN/inf) ride a patched
# exception sidecar (position + raw bits), so the transform is bit-exact
# for ANY input. The int stream then compresses ~4x better than the
# near-random mantissa bits (17-bit bitpack vs 8-byte raw on the fixture).
# F64_XOR is the Gorilla float scheme (Pelkonen et al., VLDB'15 §4.1.2) in
# this layout: x[0]=bits[0], x[i]=bits[i]^bits[i-1] — adjacent values
# sharing sign/exponent/high mantissa zero the high bits, narrowing the
# base-shifted hi/lo streams where the RAW bit view jumps across sign or
# exponent boundaries (sensor walks that straddle 0 or powers of two).
# Chosen over BITS when the xor stream's 64-bit span is strictly narrower;
# exact for ANY doubles (XOR is an involution — NaN/inf need no sidecar).
F64_BITS, F64_ALP, F64_XOR = 0, 1, 2
_ALP_MAX_E = 14  # 10^14 < 2^51: round-trip stays exact in float64
_ALP_EXC_FRAC = 0.05  # accept a decimal exponent only below this rate

# int64/timestamp stream transforms (envelope tag). I64_RAW: wrap-around
# base-shift of the values themselves (exact for any range). I64_DELTA:
# zigzag(v[i]-v[i-1]) mod 2^64 with the first value in the envelope —
# chosen when the delta span needs fewer bits than the value span, which
# is the normal case for event-log timestamps at scale: a fragment's
# microsecond span exceeds 32 bits after ~71 minutes of data (defeating
# the lo/hi split: the low word goes incompressible), while inter-event
# gaps stay small. All arithmetic is mod-2^64, so the inverse cumsum is
# exact for ANY int64 input, sorted or not; the zone map keeps LOGICAL
# min/max (stored beside the first value) so range pruning is unaffected.
I64_RAW, I64_DELTA = 0, 2


def _est64_cost(v: np.ndarray) -> tuple[int, str | None, str | None]:
    """(sampled encoded-size estimate, lo winner, hi winner) for an int64
    stream through the base-shift + lo/hi-split path — the SAME estimator
    the real encode runs, so transform choices (bits vs xor) optimize the
    actual target, and the chosen transform's per-stream winners are
    PINNED downstream (the estimate is paid once). fsst is excluded from
    the candidates outright, not gated as in select_codec (its estimate
    trains a table; a pinned stream still fully retrains its state on the
    real block, so a sample-biased pick costs ratio only, never
    correctness)."""
    n = len(v)
    if n == 0:
        return 0, None, None
    base = int(v.min())
    u = v.view(np.uint64) - np.uint64(base & 0xFFFFFFFFFFFFFFFF)
    lo = (u & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
    hi = (u >> np.uint64(32)).astype(np.uint32).view(np.int32)
    seg = np.arange(0, n + _SEL_SEG, _SEL_SEG, dtype=np.int64)
    seg = seg[seg < n]
    seg = np.append(seg, n)
    cheap = [c for c in CODECS if c != "fsst"]
    total = 0
    names: list[str] = []
    for s in (lo, hi):
        name, est, _ = select_codec(s, seg, cheap, sample_rows=_SEL_ROWS)
        total += min(est.values())
        names.append(name)
    return total, names[0], names[1]


def _xor64_fwd(bits: np.ndarray) -> np.ndarray:
    """float64 bit views → xor-with-previous stream (slot 0 = bits[0]).
    Inverse is one ``np.bitwise_xor.accumulate`` — both directions are
    single vectorized passes."""
    u = bits.view(np.uint64)
    x = np.empty_like(u)
    if len(u):  # empty block: nothing to difference (forced-spec path)
        x[0] = u[0]
        np.bitwise_xor(u[1:], u[:-1], out=x[1:])
    return x.view(np.int64)


def _delta64_fwd(v: np.ndarray) -> tuple[np.ndarray, int]:
    """int64 values → (zigzag-delta stream as int64, first value).
    Stream slot 0 is 0 (the first value rides the envelope)."""
    u = v.view(np.uint64)
    du = np.empty_like(u)
    du[0] = 0
    np.subtract(u[1:], u[:-1], out=du[1:])
    ds = du.view(np.int64)
    zz = ((ds << 1) ^ (ds >> 63)).view(np.uint64)
    return zz.view(np.int64), int(v[0])


def _delta64_inv(w: np.ndarray, first: int) -> np.ndarray:
    """Exact inverse of _delta64_fwd (mod-2^64 cumulative sum)."""
    zz = w.view(np.uint64)
    du = (zz >> np.uint64(1)) ^ (np.uint64(0) - (zz & np.uint64(1)))
    u = np.cumsum(du, dtype=np.uint64)
    u += np.uint64(first & 0xFFFFFFFFFFFFFFFF)
    return u.view(np.int64)


def _alp_try(f: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(scaled-int candidates as float64, exception mask) for one decimal
    exponent. Non-finite and |scaled| > 2^51 rows are exceptions (the
    int→float division is only exact below 2^52)."""
    s = 10.0**e
    d = np.round(f * s)
    okf = np.isfinite(d) & (np.abs(d) <= 2.0**51)
    di = np.where(okf, d, 0.0)
    # verify from the STORED int, exactly as decode reconstructs — checking
    # di/s directly would miss -0.0, whose sign survives float division but
    # not the int64 cast (int 0 decodes to +0.0: wrong bits)
    exc = (
        di.astype(np.int64).astype(np.float64) / s
    ).view(np.int64) != f.view(np.int64)
    return di, exc


def _alp_split(f: np.ndarray, pinned_e: int | None = None):
    """ALP-decompose a contiguous float64 block: → (e, int64 stream,
    exception positions uint32, exception raw bits int64), or None when
    the block is not decimal-like (caller stores raw bits). ``pinned_e``
    (spec mode) skips the exponent probe; a hostile block under a pinned
    exponent still bails to bits above 25% exceptions — the per-block
    transform tag keeps every block self-describing."""
    n = len(f)
    if n == 0:
        return None
    if pinned_e is None:
        probe = (
            f
            if n <= 3072
            else np.ascontiguousarray(f[:: max(1, n // 2048)][:3072])
        )
        e = next(
            (
                ee
                for ee in range(_ALP_MAX_E + 1)
                if _alp_try(probe, ee)[1].mean() <= _ALP_EXC_FRAC
            ),
            None,
        )
        if e is None:
            return None
    else:
        e = pinned_e
    di, exc = _alp_try(f, e)
    frac = float(exc.mean())
    if frac > (0.25 if pinned_e is not None else _ALP_EXC_FRAC):
        return None
    ints = di.astype(np.int64)
    if exc.any():
        ints[exc] = 0
        pos = np.flatnonzero(exc).astype(np.uint32)
        excbits = np.ascontiguousarray(f.view(np.int64)[exc])
    else:
        pos = np.zeros(0, dtype=np.uint32)
        excbits = np.zeros(0, dtype=np.int64)
    return e, ints, pos, excbits

# type codes (envelope byte 1)
T_INT32, T_INT64, T_FLOAT32, T_FLOAT64, T_BOOL, T_DATE32, T_TS = range(7)
T_STRING, T_LARGE_STRING, T_BINARY, T_LARGE_BINARY = 7, 8, 9, 10
T_LIST_INT32, T_LIST_FLOAT32, T_LARGE_LIST_INT32, T_LARGE_LIST_FLOAT32 = (
    11,
    12,
    13,
    14,
)

_TS_UNITS = ["s", "ms", "us", "ns"]

# string schemes (envelope family body byte)
S_PLAINB, S_FSSTB, S_STRDICT = 0, 1, 2

_I32_FAMILY = frozenset((T_INT32, T_FLOAT32, T_BOOL, T_DATE32))
_I64_FAMILY = frozenset((T_INT64, T_FLOAT64, T_TS))
_STR_FAMILY = frozenset((T_STRING, T_LARGE_STRING, T_BINARY, T_LARGE_BINARY))
_LIST_FAMILY = frozenset(
    (T_LIST_INT32, T_LIST_FLOAT32, T_LARGE_LIST_INT32, T_LARGE_LIST_FLOAT32)
)

FSSTB_SAMPLE_BYTES = 1 << 15  # matches codecs/fsst.py's training budget


def _type_code(t: pa.DataType) -> tuple[int, int, str]:
    """(type_code, ts_unit_index, tz) for a supported Arrow type."""
    if pa.types.is_int32(t):
        return T_INT32, 0, ""
    if pa.types.is_int64(t):
        return T_INT64, 0, ""
    if pa.types.is_float32(t):
        return T_FLOAT32, 0, ""
    if pa.types.is_float64(t):
        return T_FLOAT64, 0, ""
    if pa.types.is_boolean(t):
        return T_BOOL, 0, ""
    if pa.types.is_date32(t):
        return T_DATE32, 0, ""
    if pa.types.is_timestamp(t):
        return T_TS, _TS_UNITS.index(t.unit), t.tz or ""
    if pa.types.is_string(t):
        return T_STRING, 0, ""
    if pa.types.is_large_string(t):
        return T_LARGE_STRING, 0, ""
    if pa.types.is_large_binary(t):
        return T_LARGE_BINARY, 0, ""
    if pa.types.is_binary(t):
        return T_BINARY, 0, ""
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        big = pa.types.is_large_list(t)
        if pa.types.is_int32(t.value_type):
            return (T_LARGE_LIST_INT32 if big else T_LIST_INT32), 0, ""
        if pa.types.is_float32(t.value_type):
            return (T_LARGE_LIST_FLOAT32 if big else T_LIST_FLOAT32), 0, ""
    raise NotImplementedError(f"columnar: unsupported column type {t}")


def _type_from_code(tc: int, unit: int, tz: str) -> pa.DataType:
    if tc == T_TS:
        return pa.timestamp(_TS_UNITS[unit], tz or None)
    return {
        T_INT32: pa.int32(),
        T_INT64: pa.int64(),
        T_FLOAT32: pa.float32(),
        T_FLOAT64: pa.float64(),
        T_BOOL: pa.bool_(),
        T_DATE32: pa.date32(),
        T_STRING: pa.string(),
        T_LARGE_STRING: pa.large_string(),
        T_BINARY: pa.binary(),
        T_LARGE_BINARY: pa.large_binary(),
        T_LIST_INT32: pa.list_(pa.int32()),
        T_LIST_FLOAT32: pa.list_(pa.float32()),
        T_LARGE_LIST_INT32: pa.large_list(pa.int32()),
        T_LARGE_LIST_FLOAT32: pa.large_list(pa.float32()),
    }[tc]


# ------------------------------------------------------------ pack helpers
def _pb32(b: bytes) -> bytes:
    return struct.pack("<I", len(b)) + b


def _pb64(b: bytes) -> bytes:
    return struct.pack("<Q", len(b)) + b


def _pack_codec(name: str, state: bytes) -> bytes:
    nb = name.encode()
    return bytes([len(nb)]) + nb + _pb32(state)


class _Reader:
    __slots__ = ("b", "i")

    def __init__(self, b: bytes):
        self.b, self.i = b, 0

    def u8(self) -> int:
        v = self.b[self.i]
        self.i += 1
        return v

    def take(self, n: int) -> bytes:
        v = self.b[self.i : self.i + n]
        self.i += n
        return v

    def u16(self) -> int:
        return struct.unpack_from("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack_from("<q", self.take(8))[0]

    def b32(self) -> bytes:
        return self.take(self.u32())

    def b64(self) -> bytes:
        return self.take(self.u64())

    def codec(self) -> tuple[str, bytes]:
        name = self.take(self.u8()).decode()
        return name, self.b32()


# --------------------------------------------------------- encode kernels
_SEL_SEG = 64  # selection-only pseudo-row length
_SEL_ROWS = 32  # strided windows sampled per stream


def _encode_stream(
    v: np.ndarray, codec_names=None, pinned: str | None = None
) -> tuple[str, bytes, bytes]:
    """Auto-encode a flat int32 stream as ONE codec row →
    (codec name, state, payload bytes).

    Selection sees the stream segmented into 64-value pseudo-rows so the
    estimator samples ~32 contiguous windows (2 K values) instead of
    running every codec over the whole column — with [0, n] offsets the
    sampler's row stride can't engage and an 8 K-row block paid ~11
    full-column estimates per stream (measured 40-70 ms/column; ~8x the
    actual encode). Contiguous windows preserve the run/delta adjacency
    statistics; the ENCODE still sees every value as one row, and one
    ``select_codec`` call (its fsst gate included) picks the codec."""
    v = np.ascontiguousarray(v, dtype=np.int32)
    n = len(v)
    off = np.array([0, n], dtype=np.int64)
    if n == 0:
        return "plain", b"", b""
    if pinned is not None:  # spec mode: the choice was trained on a sample
        state, buf, _po = CODECS[pinned].train_encode(v, off)
        return pinned, bytes(state), buf.tobytes()
    seg = np.arange(0, n + _SEL_SEG, _SEL_SEG, dtype=np.int64)
    seg = seg[seg < n]
    seg = np.append(seg, n)
    name, _est, state = select_codec(v, seg, codec_names, sample_rows=_SEL_ROWS)
    c = CODECS[name]
    if state is None:
        state, buf, _po = c.train_encode(v, off)
    else:
        buf, _po = c.encode(v, off, state)
    return name, bytes(state), buf.tobytes()


def _decode_stream(name: str, state: bytes, payload: bytes, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    buf = np.frombuffer(payload, dtype=np.uint8)
    po = np.array([0, len(buf)], dtype=np.int64)
    return CODECS[name].decode(buf, po, np.array([n], dtype=np.int64), state)


def _validity(arr: pa.Array) -> np.ndarray | None:
    if arr.null_count == 0:
        return None
    return arr.is_valid().to_numpy(zero_copy_only=False)


def _encode_stream_as(name: str, state, v: np.ndarray) -> tuple[str, bytes, bytes]:
    """Encode a flat int32 stream with an ALREADY-selected codec (reuses a
    prior select_codec result instead of re-running selection)."""
    v = np.ascontiguousarray(v, dtype=np.int32)
    if len(v) == 0:
        return "plain", b"", b""
    off = np.array([0, len(v)], dtype=np.int64)
    c = CODECS[name]
    if state is None:
        state, buf, _po = c.train_encode(v, off)
    else:
        buf, _po = c.encode(v, off, state)
    return name, bytes(state), buf.tobytes()


def _list_parts(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat values ndarray, int64 offsets rebased to 0) of a list array."""
    off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    base = off[0]
    vals = arr.values.to_numpy(zero_copy_only=False)[base : off[-1]]
    return vals, off - base


def _sample_bytes(
    data: np.ndarray, off: np.ndarray, target: int, row_cap: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic byte-capped training sample: rows stride so their
    CLIPPED lengths sum to ≈ target, and each row contributes at most
    ``row_cap`` bytes — one giant document can't blow the budget (the skew
    contract of codecs/auto._sample, which the old row-stride missed)."""
    total = int(off[-1])
    n_rows = len(off) - 1
    if total <= target or n_rows == 0:
        return data, off
    lens = np.diff(off)
    clipped = np.minimum(lens, row_cap)
    stride = max(1, int(np.ceil(int(clipped.sum()) / target)))
    rows = np.arange(0, n_rows, stride)
    take = clipped[rows]
    k = int(np.searchsorted(np.cumsum(take), target)) + 1
    rows, take = rows[:k], take[:k]
    return gather_rows(data, off[rows], take.astype(np.int64))


def _empty_payload(n: int) -> pa.Array:
    return pa.Array.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(np.zeros(n + 1, dtype=np.int64)), pa.py_buffer(b"")],
    )


def _head(
    tc: int, unit: int, tz: str, n: int, valid, plain_nbytes: int,
    ver: int = ENV_VERSION,
) -> bytes:
    vb = b"" if valid is None else np.packbits(valid, bitorder="little").tobytes()
    return (
        bytes([ver, tc, unit])
        + struct.pack("<H", len(tz.encode()))
        + tz.encode()
        + struct.pack("<I", n)
        + _pb32(vb)
        + struct.pack("<Q", plain_nbytes)
    )


def _float_zone(arr: pa.Array) -> tuple[float, float]:
    """LOGICAL (fmin, fmax) of a float column's non-null, non-NaN values
    (±inf participate). All-null/NaN blocks return NaN sentinels, whose
    comparisons are all False — they never prune. Blocks that CONTAIN
    NaN report fmax = +inf ("upper bound unknown"): range pruning stays
    sound (the real fmin still proves z[0] > hi disjointness; NaN rows
    can never match a range anyway), while any full-coverage claim
    (z[1] <= hi, e.g. count_table_store's metadata fast path) is
    refused — a covered-zone fragment would otherwise count its NaN
    rows as matches."""
    v = arr.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
    nan = np.isnan(v)
    has_nan = bool(nan.any())
    if has_nan:
        v = v[~nan]
    if not len(v):
        return (float("nan"), float("nan"))
    return (float(v.min()), float("inf") if has_nan else float(v.max()))


def _plain_nbytes(arr: pa.Array) -> int:
    """In-memory data bytes of the column (buffers, excluding the top-level
    validity bitmap) — the honest 'plain' side of the ratio accounting.
    Child validity never reaches here: list element nulls are rejected at
    encode time."""
    total = sum(len(b) for b in arr.buffers() if b is not None)
    bufs = arr.buffers()
    if arr.null_count and bufs and bufs[0] is not None:
        total -= len(bufs[0])
    return total


def _encode_column(
    arr: pa.Array, n: int, codec_names=None, col_spec: dict | None = None
) -> tuple[bytes, pa.Array | None, np.ndarray | None]:
    """→ (envelope, per-row payload array or None for the scalar
    families, per-row counts or None).
    ``col_spec`` (from train_columnar_spec) pins this column's choices
    and skips all selection work."""
    tc, unit, tz = _type_code(arr.type)
    valid = _validity(arr)
    plain = _plain_nbytes(arr)

    if tc in _LIST_FAMILY:
        # element-level nulls can't ride the flat int stream (to_numpy would
        # widen to float64 NaN and the bit view would silently corrupt);
        # reject loudly like every other unsupported shape
        if arr.values.null_count:
            raise NotImplementedError(
                "columnar: list element nulls are not supported"
            )
        vals, off = _list_parts(arr)
        if vals.dtype != np.int32:
            vals = np.ascontiguousarray(vals).view(np.int32)
        counts = np.diff(off)
        if valid is not None:
            # null rows contribute no values; validity restores them
            counts = np.where(valid, counts, 0)
            keep = np.repeat(valid, np.diff(off))
            vals = vals[keep]
            off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
        if len(vals) == 0:
            name, state, buf, po = "plain", b"", np.zeros(0, np.uint8), np.zeros(
                n + 1, np.int64
            )
        elif col_spec is not None:
            name = col_spec["codec"]
            state, buf, po = CODECS[name].train_encode(
                np.ascontiguousarray(vals, np.int32), off
            )
        else:
            name, _est, state = select_codec(
                np.ascontiguousarray(vals, np.int32), off, codec_names
            )
            c = CODECS[name]
            if state is None:
                state, buf, po = c.train_encode(vals, off)
            else:
                buf, po = c.encode(vals, off, state)
        env = _head(tc, unit, tz, n, valid, plain) + _pack_codec(name, bytes(state))
        return env, payload_array(np.ascontiguousarray(buf), po), counts

    if tc in _I32_FAMILY:
        a = arr
        if tc == T_BOOL:
            a = a.cast(pa.int32())
        elif tc == T_DATE32:
            a = a.cast(pa.int32())
        if a.null_count:
            a = pc.fill_null(a, 0)
        v = a.to_numpy(zero_copy_only=False)
        if tc == T_FLOAT32:
            v = np.ascontiguousarray(v, dtype=np.float32).view(np.int32)
        else:
            v = np.ascontiguousarray(v, dtype=np.int32)
        name, state, payload = _encode_stream(
            v, codec_names, col_spec["codec"] if col_spec else None
        )
        # zone map: logical (vmin, vmax) for int/bool/date as int64 pair;
        # for float32 the same 16 bytes hold LOGICAL (fmin, fmax) as a
        # float64 pair (NaN/null-excluded; all-NaN → NaN sentinels that
        # never prune) — float range predicates prune like int ones
        if tc == T_FLOAT32:
            zone = struct.pack("<dd", *_float_zone(arr))
        else:
            vmin = int(v.min()) if n else 0
            vmax = int(v.max()) if n else 0
            zone = struct.pack("<qq", vmin, vmax)
        env = (
            _head(tc, unit, tz, n, valid, plain)
            + zone
            + _pack_codec(name, state)
            + _pb64(payload)
        )
        return env, None, None

    if tc in _I64_FAMILY:
        a = arr
        if tc == T_TS:
            a = a.cast(pa.int64())
        if a.null_count:
            a = pc.fill_null(a, 0)
        v = a.to_numpy(zero_copy_only=False)
        pre = b""
        head_ver = ENV_VERSION
        pin_lo = pin_hi = None
        if tc == T_FLOAT64:
            f = np.ascontiguousarray(v, dtype=np.float64)
            spec_f64 = col_spec.get("f64") if col_spec else None
            alp = (
                None
                if spec_f64 in ("bits", "xor")
                else _alp_split(
                    f,
                    col_spec.get("alp_e") if spec_f64 == "alp" else None,
                )
            )
            if alp is not None:
                e_dec, v, pos, excbits = alp
                pre = (
                    bytes([F64_ALP, e_dec])
                    + _pb32(pos.tobytes())
                    + _pb32(excbits.tobytes())
                )
            else:
                bits = f.view(np.int64)
                use_xor = spec_f64 == "xor"
                if spec_f64 is None and n >= 8:
                    # estimator-backed choice: the winner is whichever
                    # transform's lo/hi streams the codec selector prices
                    # cheaper (a 64-bit span proxy misses XOR's shape —
                    # mostly-tiny values with sign-flip outliers). The
                    # winner's per-stream codec picks are PINNED into the
                    # encode below, so the estimate is paid once, not
                    # re-run by _encode_stream's own selection.
                    xs = _xor64_fwd(bits)
                    cx, xlo, xhi = _est64_cost(xs)
                    cb, blo, bhi = _est64_cost(bits)
                    use_xor = cx < cb
                    pin_lo, pin_hi = (xlo, xhi) if use_xor else (blo, bhi)
                if use_xor:
                    v = _xor64_fwd(bits)
                    pre = bytes([F64_XOR])
                    # a v4 reader would misdecode this tag as raw bits —
                    # stamp the xor version so old readers fail loudly
                    head_ver = ENV_VERSION_XOR
                else:
                    v = bits
                    pre = bytes([F64_BITS])
            pre += struct.pack("<dd", *_float_zone(arr))
        else:
            v = np.ascontiguousarray(v, dtype=np.int64)
            spec_i64 = col_spec.get("i64") if col_spec else None
            delta = None
            if n >= 8 and spec_i64 != "raw":
                cand = _delta64_fwd(v)
                if spec_i64 == "delta":
                    delta = cand
                else:
                    # width proxy: delta wins only when the zigzag-delta
                    # span fits UNDER the 32-bit lo word and shrinks it —
                    # if deltas still need ≥32 bits, both candidates
                    # carry a random low word and raw's sorted hi word
                    # compresses at least as well as delta's
                    span_raw = (int(v.max()) - int(v.min())) & (2**64 - 1)
                    span_zz = int(cand[0].view(np.uint64).max())
                    zb, rb = span_zz.bit_length(), span_raw.bit_length()
                    if zb < 32 and zb + 1 < min(rb, 32):
                        delta = cand
            if delta is not None:
                pre = bytes([I64_DELTA]) + struct.pack(
                    "<qqq", delta[1], int(v.min()), int(v.max())
                )
                v = delta[0]
            else:
                pre = bytes([I64_RAW])
        base = int(v.min()) if n else 0
        vmax = int(v.max()) if n else 0  # zone map: base IS vmin
        # wrap-around shift in uint64: exact for ANY int64 range
        u = v.view(np.uint64) - np.uint64(base & 0xFFFFFFFFFFFFFFFF)
        lo = (u & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
        hi = (u >> np.uint64(32)).astype(np.uint32).view(np.int32)
        lname, lstate, lpay = _encode_stream(
            lo, codec_names, (col_spec["lo"] if col_spec else None) or pin_lo
        )
        hname, hstate, hpay = _encode_stream(
            hi, codec_names, (col_spec["hi"] if col_spec else None) or pin_hi
        )
        env = (
            _head(tc, unit, tz, n, valid, plain, ver=head_ver)
            + pre
            + struct.pack("<qq", base, vmax)
            + _pack_codec(lname, lstate)
            + _pb64(lpay)
            + _pack_codec(hname, hstate)
            + _pb64(hpay)
        )
        return env, None, None

    # string / binary family
    a = arr.cast(pa.large_binary())
    if a.null_count:
        a = pc.fill_null(a, b"")
    data, off = string_buffers(a)
    total = int(off[-1])

    def _dict_parts():
        denc = a.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int32)
        dvals = denc.dictionary.cast(pa.large_binary())
        ddata, doff = string_buffers(dvals)
        return idx, ddata, doff, len(dvals)

    if col_spec is not None:  # spec mode: scheme pinned, no estimation
        scheme = col_spec["scheme"]
        ftable = None
        if scheme == S_FSSTB:
            shared = col_spec.get("fsst_table")
            if shared:
                # LRU: rebuilding lookup structures costs ~0.8 ms — ~25% of
                # a whole spec-mode batch encode if paid per block
                ftable = fsstlib.cached_table(bytes(shared))
            elif total:
                sdata, soff = _sample_bytes(data, off, FSSTB_SAMPLE_BYTES)
                ftable = fsstlib.train(sdata, soff)
            else:
                scheme = S_PLAINB  # empty block, nothing to train on
        if scheme == S_STRDICT:
            idx, ddata, doff, nd = _dict_parts()
            iname0, istate0 = col_spec.get("idx_codec", "plain"), None
    else:
        # --- scheme selection (per block, by estimated encoded bytes)
        est = {S_PLAINB: total + 16}
        idx, ddata, doff, nd = _dict_parts()
        iname0, iest, istate0 = (
            select_codec(idx, np.array([0, n], dtype=np.int64), codec_names)
            if n
            else ("plain", {"plain": 0}, None)
        )
        est[S_STRDICT] = int(doff[-1]) + 4 * (nd + 1) + int(min(iest.values())) + 32
        ftable = None
        # one FSST code byte covers ≤ 8 input bytes, so the fsstb estimate is
        # ≥ total // 8: training cannot win when plainb or strdict beats that
        if total and min(est.values()) >= total // 8:
            # byte-capped sample → train → sampled-ratio extrapolation. The
            # cap is on BYTES, not rows: per-row contributions clip at 4 KiB
            # and the cumulative budget cuts the row set, so one giant
            # document can't blow the training cost (codecs/auto._sample's
            # skew contract).
            sdata, soff = _sample_bytes(data, off, FSSTB_SAMPLE_BYTES)
            ftable = fsstlib.train(sdata, soff)
            sbuf, _spo, _used = fsstlib.encode(sdata, soff, ftable)
            sb = max(int(soff[-1]), 1)
            est[S_FSSTB] = int(len(sbuf) / sb * total) + len(ftable.serialize())
        scheme = min(est, key=lambda s: (est[s], s))

    if scheme == S_PLAINB:
        body = bytes([S_PLAINB])
        payload = pa.Array.from_buffers(
            pa.large_binary(),
            n,
            [None, pa.py_buffer(off), pa.py_buffer(data)],
        )
    elif scheme == S_FSSTB:
        # the block's escaped-literal bitmap rides after the table (the
        # reference's used_chars, src/BenchmarkDriver.cpp:128-137), so a
        # LIKE prunes on it without a payload pass
        buf, po, used = fsstlib.encode(data, off, ftable)
        body = bytes([S_FSSTB]) + _pb32(ftable.serialize()) + used
        payload = payload_array(buf, po)
    else:  # S_STRDICT: dictionary + auto-int-coded indices, all in envelope
        # reuse the estimate pass's winning codec — re-selecting over the
        # same indices is guaranteed to pick the same winner
        iname, istate, ipay = _encode_stream_as(iname0, istate0, idx)
        body = (
            bytes([S_STRDICT])
            + struct.pack("<I", nd)
            + _pb64(doff.astype(np.uint32).tobytes())
            + _pb64(ddata.tobytes())
            + _pack_codec(iname, istate)
            + _pb64(ipay)
        )
        payload = _empty_payload(n)
    env = _head(tc, unit, tz, n, valid, plain) + body
    return env, payload, None


def _read_choices(r: _Reader, tc: int) -> tuple[str, dict]:
    """Walk an envelope PAST the head and return (scheme label, spec dict)
    — the one shared reader for 'what was chosen' consumers (stats and
    spec training). Decode/scan paths keep their own walks: they consume
    payloads mid-stream."""
    if tc in _LIST_FAMILY:
        name, _ = r.codec()
        return name, {"codec": name}
    if tc in _I32_FAMILY:
        r.take(16)  # zone map
        name, _ = r.codec()
        return name, {"codec": name}
    if tc in _I64_FAMILY:
        d: dict = {}
        if tc == T_FLOAT64:
            tag = r.u8()
            if tag == F64_ALP:
                d["f64"], d["alp_e"] = "alp", r.u8()
                r.b32()  # exception positions
                r.b32()  # exception bits
            else:
                d["f64"] = "xor" if tag == F64_XOR else "bits"
            r.take(16)  # logical float zone
        elif r.u8() == I64_DELTA:
            d["i64"] = "delta"
            r.take(24)  # first value + logical zone
        else:
            d["i64"] = "raw"
        r.take(16)  # base/vmin + vmax
        a, _ = r.codec()
        r.b64()
        b, _ = r.codec()
        d.update({"lo": a, "hi": b})
        label = f"{a}+{b}"
        if d.get("f64") == "alp":
            label = f"alp{d['alp_e']}({label})"
        elif d.get("f64") == "xor":
            label = f"x64({label})"
        elif d.get("i64") == "delta":
            label = f"d64({label})"
        return label, d
    scheme = r.u8()
    label = {S_PLAINB: "plainb", S_FSSTB: "fsstb", S_STRDICT: "strdict"}[scheme]
    d: dict = {"scheme": scheme}
    if scheme == S_FSSTB:
        d["fsst_table"] = r.b32()  # shared symbol table (escape-safe)
    elif scheme == S_STRDICT:
        r.u32()  # nd
        r.b64()  # doff
        r.b64()  # ddata
        cname, _ = r.codec()
        d["idx_codec"] = cname
    return label, d


def train_columnar_spec(sample: pa.Table, codec_names=None) -> dict:
    """Train a per-column codec SPEC on a bounded sample (north rule:
    "first train symbol tables / dictionaries on a reservoir sample …
    then encode"): encode the sample once with full auto-selection, parse
    the self-describing envelopes back into {column: choice}, and ship
    that to every block — per-block encode then skips ALL selection work
    (every-codec estimates + fsstb sample training, the profiled majority
    of encode cost). Choices pin codec NAMES (and the trained fsst table
    for fsstb columns); width-trained states still retrain per block, so
    a block outside the sample's value range stays exact.

    Tradeoff: partitions that differ from the sample (other text domain,
    other value distributions) can compress worse under pinned choices —
    spec mode trades ratio for encode CPU; keep auto on heterogeneous
    corpora."""
    enc = encode_columns_batch(sample, codec_names)
    spec: dict[str, dict] = {}
    for enc_name in enc.column_names:
        if not enc_name.endswith("__blk"):
            continue
        name = enc_name[: -len("__blk")]
        env = bytes(enc[enc_name].combine_chunks().dictionary[0].as_py())
        r = _Reader(env)
        tc, _unit, _tz, _nb, _valid, _plain = _parse_head(r)
        _label, spec[name] = _read_choices(r, tc)
    return spec


def encode_columns_batch(
    batch: pa.Table, codec_names=None, spec: dict | None = None
) -> pa.Table:
    """One source block → its per-column-encoded form (see module doc).
    Each ``__blk`` field carries the source type in its Arrow field
    metadata (parquet-preserved): a zero-row block has no dictionary
    values, so decode recovers the schema from the metadata instead."""
    n = batch.num_rows
    zero = pa.array(np.zeros(n, dtype=np.int32))
    cols: dict[str, object] = {
        "__rowidx": pa.array(np.arange(n, dtype=np.int32))
    }
    field_meta: dict[str, dict[bytes, bytes]] = {}
    for name in batch.column_names:
        arr = batch[name]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        env, payload, counts = _encode_column(
            arr, n, codec_names, (spec or {}).get(name)
        )
        tc, unit, tz = _type_code(arr.type)
        field_meta[f"{name}__blk"] = {
            b"columnar_tc": str(tc).encode(),
            b"columnar_unit": str(unit).encode(),
            b"columnar_tz": tz.encode(),
        }
        cols[f"{name}__blk"] = pa.DictionaryArray.from_arrays(
            zero, pa.array([env], type=pa.binary())
        )
        if payload is not None:
            cols[f"{name}__payload"] = payload
        if counts is not None:
            cols[f"{name}__n"] = pa.array(
                counts.astype(np.int32), type=pa.int32()
            )
    tbl = pa.table(cols)
    schema = pa.schema(
        [
            f.with_metadata(field_meta[f.name]) if f.name in field_meta else f
            for f in tbl.schema
        ]
    )
    return pa.Table.from_arrays(tbl.columns, schema=schema)


# --------------------------------------------------------------- decode
_BLK_CACHE: OrderedDict[bytes, object] = OrderedDict()
_BLK_CACHE_MAX = 16


def _cached_block(env: bytes, fn):
    """Per-process LRU over block-envelope decodes (scalar families decode
    the WHOLE block; consecutive slices of one block reuse the result)."""
    hit = _BLK_CACHE.get(env)
    if hit is not None:
        _BLK_CACHE.move_to_end(env)
        return hit
    out = fn()
    _BLK_CACHE[env] = out
    if len(_BLK_CACHE) > _BLK_CACHE_MAX:
        _BLK_CACHE.popitem(last=False)
    return out


def _parse_head(r: _Reader):
    ver = r.u8()
    # 4 = base format; 5 = identical layout but the block uses a transform
    # tag (F64_XOR) a v4 reader would silently misdecode as raw bits —
    # stamped per-envelope so only blocks that NEED the new tag demand the
    # newer reader, and every pre-existing store stays readable
    if ver not in (ENV_VERSION, ENV_VERSION_XOR):
        raise ValueError(f"columnar envelope version {ver} unsupported")
    tc = r.u8()
    unit = r.u8()
    tz = r.take(r.u16()).decode()
    n_block = r.u32()
    vb = r.b32()
    valid = (
        None
        if not vb
        else np.unpackbits(
            np.frombuffer(vb, dtype=np.uint8), bitorder="little"
        )[:n_block].astype(bool)
    )
    plain = r.u64()
    return tc, unit, tz, n_block, valid, plain


def _binary_from(
    data: np.ndarray, off: np.ndarray, valid_seg: np.ndarray | None
) -> pa.Array:
    bufs = [
        None
        if valid_seg is None
        else pa.py_buffer(np.packbits(valid_seg, bitorder="little").tobytes()),
        pa.py_buffer(off.astype(np.int64)),
        pa.py_buffer(np.ascontiguousarray(data)),
    ]
    return pa.Array.from_buffers(
        pa.large_binary(),
        len(off) - 1,
        bufs,
        null_count=-1 if valid_seg is not None else 0,
    )


def _int_block_reader(r: _Reader, tc: int, n_block: int):
    """(zmin, zmax, blk) for an int-family envelope positioned past the
    head — THE one walk of the numeric body (decode, range scan and
    aggregate paths all consume it; a layout change edits one place).
    ``blk()`` decodes the whole block's stored int stream (bit patterns
    for floats); callers LRU it via ``_cached_block(env, blk)``. For
    float columns zmin/zmax are the LOGICAL float zone (Python floats,
    NaN when the block has no comparable values)."""
    if tc in _I32_FAMILY:
        if tc == T_FLOAT32:
            zmin, zmax = struct.unpack("<dd", r.take(16))
        else:
            zmin, zmax = struct.unpack("<qq", r.take(16))
        name, state = r.codec()
        payload = r.b64()

        def blk():
            return _decode_stream(name, state, payload, n_block)

        return zmin, zmax, blk
    post = None
    zone = None
    if tc == T_FLOAT64:
        tag = r.u8()
        if tag == F64_ALP:
            e_dec = r.u8()
            pos = np.frombuffer(r.b32(), dtype=np.uint32)
            excbits = np.frombuffer(r.b32(), dtype=np.int64)
            s = 10.0**e_dec

            def post(ints, pos=pos, excbits=excbits, s=s):
                # same operands, same IEEE division as encode →
                # identical bits
                bits = (ints.astype(np.float64) / s).view(np.int64)
                if len(pos):
                    bits[pos] = excbits
                return bits

        elif tag == F64_XOR:

            def post(x):
                # exact inverse of _xor64_fwd: cumulative xor scan
                return np.bitwise_xor.accumulate(
                    x.view(np.uint64)
                ).view(np.int64)

        zone = struct.unpack("<dd", r.take(16))  # logical float zone
    elif r.u8() == I64_DELTA:
        first, zlo, zhi = struct.unpack("<qqq", r.take(24))
        zone = (zlo, zhi)  # logical zone map (stream min/max is deltas)

        def post(w, first=first):
            return _delta64_inv(w, first)

    sbase = r.i64()  # stream base: values for RAW, zigzag deltas for DELTA
    zmax = struct.unpack("<q", r.take(8))[0]
    zmin = sbase
    if zone is not None:
        zmin, zmax = zone
    lname, lstate = r.codec()
    lpay = r.b64()
    hname, hstate = r.codec()
    hpay = r.b64()

    def blk():
        lo = _decode_stream(lname, lstate, lpay, n_block).view(np.uint32)
        hi = _decode_stream(hname, hstate, hpay, n_block).view(np.uint32)
        u = lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
        out = (u + np.uint64(sbase & 0xFFFFFFFFFFFFFFFF)).view(np.int64)
        return out if post is None else post(out)

    return zmin, zmax, blk


def _strdict_reader(r: _Reader, n_block: int):
    """(nd, doff, ddata, idx_blk) for a strdict envelope positioned past
    the scheme byte — the one walk of the strdict body."""
    nd = r.u32()
    doff = np.frombuffer(r.b64(), dtype=np.uint32).astype(np.int64)
    ddata = np.frombuffer(r.b64(), dtype=np.uint8)
    iname, istate = r.codec()
    ipay = r.b64()

    def idx_blk():
        return _decode_stream(iname, istate, ipay, n_block)

    return nd, doff, ddata, idx_blk


def _decode_segment(
    env: bytes,
    rowidx: np.ndarray,
    pay_buf: np.ndarray,
    pay_off: np.ndarray,
    counts: np.ndarray | None,
) -> pa.Array:
    """Decode one contiguous same-envelope row segment back to the original
    Arrow column slice. ``pay_off`` is already rebased to this segment."""
    r = _Reader(env)
    tc, unit, tz, n_block, valid, _plain = _parse_head(r)
    t = _type_from_code(tc, unit, tz)
    vseg = valid[rowidx] if valid is not None else None
    nseg = len(rowidx)

    if tc in _LIST_FAMILY:
        name, state = r.codec()
        cts = counts.astype(np.int64)
        vals = (
            CODECS[name].decode(pay_buf, pay_off, cts, state)
            if int(cts.sum())
            else np.zeros(0, dtype=np.int32)
        )
        off32 = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(cts, out=off32[1:])
        if tc in (T_LIST_FLOAT32, T_LARGE_LIST_FLOAT32):
            child = pa.array(vals.view(np.float32), type=pa.float32())
        else:
            child = pa.array(vals, type=pa.int32())
        big = tc in (T_LARGE_LIST_INT32, T_LARGE_LIST_FLOAT32)
        cls = pa.LargeListArray if big else pa.ListArray
        offs = pa.array(
            off32 if big else off32.astype(np.int32),
            type=pa.int64() if big else pa.int32(),
        )
        mask = None if vseg is None else pa.array(~vseg)
        return cls.from_arrays(offs, child, mask=mask)

    if tc in _I32_FAMILY:
        _zmin, _zmax, blk = _int_block_reader(r, tc, n_block)
        v = _cached_block(env, blk)[rowidx]
        mask = None if vseg is None else ~vseg
        if tc == T_FLOAT32:
            return pa.array(v.view(np.float32), type=pa.float32(), mask=mask)
        if tc == T_BOOL:
            return pa.array(v.astype(bool), type=pa.bool_(), mask=mask)
        arr = pa.array(v, type=pa.int32(), mask=mask)
        return arr.cast(t) if tc == T_DATE32 else arr

    if tc in _I64_FAMILY:
        _zmin, _zmax, blk = _int_block_reader(r, tc, n_block)
        v = _cached_block(env, blk)[rowidx]
        mask = None if vseg is None else ~vseg
        if tc == T_FLOAT64:
            return pa.array(v.view(np.float64), type=pa.float64(), mask=mask)
        arr = pa.array(v, type=pa.int64(), mask=mask)
        return arr.cast(t) if tc == T_TS else arr

    # string / binary family
    scheme = r.u8()
    if scheme == S_PLAINB:
        out = _binary_from(pay_buf, pay_off, vseg)
    elif scheme == S_FSSTB:
        table = fsstlib.cached_table(bytes(r.b32()))
        data, off = fsstlib.decode(pay_buf, pay_off, table)
        out = _binary_from(data, off, vseg)
    else:  # S_STRDICT
        _nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
        idx = _cached_block(env, idx_blk)[rowidx]
        data, off = gather_rows(
            ddata, doff[idx], (doff[idx + 1] - doff[idx]).astype(np.int64)
        )
        out = _binary_from(data, off, vseg)
    if not t.equals(pa.large_binary()):
        out = out.cast(t)
    return out


def _env_runs(blk, n: int):
    """(lo, hi, envelope) per contiguous same-envelope row run of a
    ``__blk`` column (rows of one encode block stay contiguous through
    slicing and parquet rewrites, so this is run-length segmentation)."""
    gi, envs = _group_indices(blk)
    if not n:
        return
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(gi)) + 1, [n]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        yield lo, hi, bytes(envs[int(gi[lo])])


def _needs_payload(env: bytes) -> bool:
    """Whether a block's rows keep bytes in ``c__payload``: the list
    family, and string/binary blocks stored fsstb or plainb."""
    if env[1] in _LIST_FAMILY:
        return True
    if env[1] not in _STR_FAMILY:
        return False
    r = _Reader(env)
    _parse_head(r)
    return r.u8() != S_STRDICT


def _payload_buffers(batch: pa.Table, column: str, envs=None):
    """(bytes, int64 offsets) of ``column``'s per-row payloads — the one
    reader of ``c__payload``. Scalar columns have no such field, and a
    store scan leaves it unread where every block is strdict; their rows
    read as empty. A batch without the field whose blocks need payloads
    raises ValueError instead of decoding them as empty. ``envs`` (the
    column's envelopes, when the caller holds them) spares the
    ``c__blk`` walk of that check."""
    field = f"{column}__payload"
    if field in batch.column_names:
        return _binary_buffers(batch[field])
    if envs is None:
        envs = _group_indices(batch[f"{column}__blk"])[1]
    if any(_needs_payload(bytes(e)) for e in envs):
        raise ValueError(
            f"columnar: column {column!r} has blocks with per-row payloads "
            f"but the batch has no {field!r} field"
        )
    return np.zeros(0, dtype=np.uint8), np.zeros(
        batch.num_rows + 1, dtype=np.int64
    )


def list_segment_runs(batch: pa.Table, column: str):
    """A list-family column of an encoded batch as codec-kernel inputs →
    ``(segments, pay_buf, pay_off, counts)``: one ``(lo, hi, codec name,
    state)`` per same-envelope row run, read from the envelope head, plus
    the per-row payloads and the ``__n`` counts. The compressed-domain
    kernels (codecs/pushdown.py) take these exactly as ``Codec.decode``
    does."""
    segments, envs = [], []
    for lo, hi, env in _env_runs(batch[f"{column}__blk"], batch.num_rows):
        r = _Reader(env)
        if _parse_head(r)[0] not in _LIST_FAMILY:
            raise TypeError(f"columnar: {column!r} is not a list column")
        segments.append((lo, hi, *r.codec()))
        envs.append(env)
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    counts = batch[f"{column}__n"].to_numpy().astype(np.int64)
    return segments, pay_buf, pay_off, counts


def decode_list_rows(batch: pa.Table, column: str, rows):
    """A list-family column of an encoded batch decoded straight into
    ``rows`` order (None: every row, in batch order) → (flat int32
    values, int64 offsets of len(rows) + 1); float lists come back as
    their int32 bit patterns. Equal to
    ``decode_columns_batch(batch)[column].take(rows)`` flattened, with no
    Arrow list built or taken: each selected row's compressed payload is
    gathered in ``rows`` order, and ``Codec.decode`` runs once per group
    of envelope runs sharing one (codec, state). One group (a stateless
    codec, or one block) is the result as decoded; only mixed groups
    scatter into a preallocated output."""
    segments, pay_buf, pay_off, counts = list_segment_runs(batch, column)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        counts = counts[rows]
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    groups: dict[tuple[str, bytes], int] = {}
    gid = np.repeat(
        np.array([groups.setdefault((name, state), len(groups))
                  for _lo, _hi, name, state in segments], dtype=np.int64),
        [hi - lo for lo, hi, _n, _s in segments],
    )
    if rows is not None:
        gid = gid[rows]
    keys = list(groups)

    def decode(g, src, cts):
        """Group g's rows ``src`` of the batch (None: all of them)."""
        if not int(cts.sum()):
            return np.zeros(0, dtype=np.int32)
        if src is None:
            buf, po = pay_buf, pay_off
        else:
            buf, po = gather_rows(
                pay_buf, pay_off[src], pay_off[src + 1] - pay_off[src]
            )
        name, state = keys[g]
        return CODECS[name].decode(buf, po, cts, state).view(np.int32)

    present = np.flatnonzero(np.bincount(gid, minlength=len(keys))).tolist()
    if len(present) <= 1:
        if not present:
            return np.zeros(0, dtype=np.int32), off
        return decode(present[0], rows, counts), off
    out = np.empty(int(off[-1]), dtype=np.int32)
    for g in present:
        sel = np.flatnonzero(gid == g)
        vals = decode(g, sel if rows is None else rows[sel], counts[sel])
        scatter_segments(
            out.view(np.uint8), off[sel] * 4, counts[sel] * 4,
            vals.view(np.uint8),
        )
    return out, off


def decode_columns_batch(batch: pa.Table) -> pa.Table:
    """Per-column-encoded table → original columns, in original order.
    Robust to block slicing / parquet rewrites: rows group into contiguous
    same-envelope runs; scalar families decode their block once (LRU) and
    ``__rowidx`` selects the surviving rows."""
    n = batch.num_rows
    rowidx = batch["__rowidx"].to_numpy().astype(np.int64)
    out: dict[str, pa.Array] = {}
    for enc_name in batch.column_names:
        if not enc_name.endswith("__blk"):
            continue
        name = enc_name[: -len("__blk")]
        runs = list(_env_runs(batch[enc_name], n))
        pay_buf, pay_off = _payload_buffers(
            batch, name, [env for _lo, _hi, env in runs]
        )
        counts = (
            batch[f"{name}__n"].to_numpy().astype(np.int64)
            if f"{name}__n" in batch.column_names
            else None
        )
        parts = [
            _decode_segment(
                env,
                rowidx[lo:hi],
                pay_buf[pay_off[lo] : pay_off[hi]],
                pay_off[lo : hi + 1] - pay_off[lo],
                None if counts is None else counts[lo:hi],
            )
            for lo, hi, env in runs
        ]
        if not parts:
            envs = _group_indices(batch[enc_name])[1]
            if envs:
                r = _Reader(bytes(envs[0]))
                tc, unit, tz, _nb, _v, _p = _parse_head(r)
            else:
                # zero-row block after a parquet rewrite: the dictionary
                # values are gone; recover the type from field metadata
                md = batch.schema.field(enc_name).metadata or {}
                if b"columnar_tc" not in md:
                    raise ValueError(
                        f"columnar: cannot infer type of empty encoded "
                        f"column {name!r} (no envelope, no field metadata)"
                    )
                tc = int(md[b"columnar_tc"])
                unit = int(md[b"columnar_unit"])
                tz = md[b"columnar_tz"].decode()
            out[name] = pa.array([], type=_type_from_code(tc, unit, tz))
        elif len(parts) == 1:
            out[name] = parts[0]
        else:
            out[name] = pa.concat_arrays(parts)
    return pa.table(out)


def decode_column(batch: pa.Table, column: str) -> pa.Array:
    """One column of an encoded batch; the other columns stay encoded."""
    keep = batch.select(_encoded_field_names(batch, [column]))
    return decode_columns_batch(keep)[column]


def columnar_stats_batch(batch: pa.Table) -> pa.Table:
    """Encoded block → one accounting row per (column, block): chosen
    scheme/codec, plain bytes, encoded bytes (payload + envelope).

    Slice-consistent: a block split across batches (parquet rewrite, Ray
    dynamic block splitting) pro-rates its whole-block plain and envelope
    bytes by the fraction of block rows present, and dictionary entries
    with zero surviving rows are skipped — summing stats over any
    re-slicing of the encoded table reproduces the unsliced totals
    (±rounding) instead of double-counting."""
    names, schemes, plains, encs, rows = [], [], [], [], []
    for enc_name in batch.column_names:
        if not enc_name.endswith("__blk"):
            continue
        name = enc_name[: -len("__blk")]
        gi, envs = _group_indices(batch[enc_name])
        _buf, pay_off = _payload_buffers(batch, name, envs)
        for k, env in enumerate(envs):
            env = bytes(env)
            sel = np.flatnonzero(gi == k)
            if not len(sel):
                continue
            r = _Reader(env)
            tc, unit, tz, n_block, _valid, plain = _parse_head(r)
            scheme, _choices = _read_choices(r, tc)
            pay = int((pay_off[sel + 1] - pay_off[sel]).sum())
            frac = len(sel) / max(n_block, 1)
            names.append(name)
            schemes.append(scheme)
            plains.append(int(round(plain * frac)))
            encs.append(pay + int(round(len(env) * frac)))
            rows.append(int(len(sel)))
    return pa.table(
        {
            "column": pa.array(names, type=pa.string()),
            "scheme": pa.array(schemes, type=pa.string()),
            "plain_nbytes": pa.array(plains, type=pa.int64()),
            "encoded_nbytes": pa.array(encs, type=pa.int64()),
            "rows": pa.array(rows, type=pa.int64()),
        }
    )


# ----------------------------------------------- compressed-domain scan
def columnar_zones_batch(batch: pa.Table) -> dict[str, tuple[int, int]]:
    """Per-column (vmin, vmax) over a batch's block envelopes for the types
    range_scan_batch accepts — _RANGE_TYPES (int32/date32/int64/timestamp,
    int zones) plus the float families, whose envelopes carry LOGICAL
    (fmin, fmax) float zones (bool adds no pruning value and stays
    excluded). All-NaN/null float blocks carry NaN sentinels and
    contribute nothing. Zero-row blocks contribute nothing. The store
    layer rolls these up to per-FRAGMENT zones in the lineage manifest,
    so a range scan prunes whole fragments before any part file opens."""
    import math

    out: dict[str, tuple] = {}
    for name in batch.column_names:
        if not name.endswith("__blk"):
            continue
        col = name[: -len("__blk")]
        _gi, envs = _group_indices(batch[name])
        for env in envs:
            r = _Reader(bytes(env))
            tc, _unit, _tz, n_block, _valid, _plain = _parse_head(r)
            rangeable = tc in _RANGE_TYPES or tc in _FLOAT_TYPES
            if not rangeable or n_block == 0:
                continue
            # _int_block_reader owns the numeric-body layout — one walker
            zmin, zmax, _blk = _int_block_reader(r, tc, n_block)
            if isinstance(zmin, float) and (
                math.isnan(zmin) or math.isnan(zmax)
            ):
                continue
            cur = out.get(col)
            out[col] = (
                (zmin, zmax)
                if cur is None
                else (min(cur[0], zmin), max(cur[1], zmax))
            )
    return out


def columnar_nulls_batch(batch: pa.Table) -> dict[str, int]:
    """Per-column null counts from the block envelope validity bitmaps
    alone (head parse, no payload bytes). Rolled up to per-FRAGMENT null
    counts in the store lineage, enabling metadata-only COUNT answers:
    a fragment whose zone is fully covered by a range predicate and whose
    null count is zero contributes its row count without opening a file.
    Counts are per ENVELOPE (whole block): callers must pass full-block
    batches, as the encode path does — a re-sliced batch repeating an
    envelope would double-count."""
    out: dict[str, int] = {}
    for name in batch.column_names:
        if not name.endswith("__blk"):
            continue
        col = name[: -len("__blk")]
        _gi, envs = _group_indices(batch[name])
        total = 0
        for env in envs:
            r = _Reader(bytes(env))
            _tc, _unit, _tz, n_block, valid, _plain = _parse_head(r)
            if valid is not None:
                total += int(n_block - valid.sum())
        out[col] = out.get(col, 0) + total
    return out


def eq_scan_batch(
    batch: pa.Table, column: str, value, out_columns=None
) -> pa.Table:
    """Equality filter on an ENCODED string/binary column without
    materializing the strings: strdict blocks probe the dictionary and
    compare index codes; fsstb blocks encode the literal with the block's
    symbol table and compare payload bytes (FSST parsing is deterministic,
    so equal strings encode to equal payloads — the constant re-encode
    trick of matchers/engines.py exact_payload_match, sketch.cc:1306-1371);
    plainb compares raw bytes. Only SURVIVING rows decode."""
    return _decode_survivors(
        batch, eq_scan_mask(batch, column, value), out_columns
    )


def eq_scan_mask(batch: pa.Table, column: str, value) -> np.ndarray:
    """Row mask of eq_scan_batch, decoding nothing (predicate composition).
    Int literals delegate to the degenerate range mask (lo == hi == value)
    so ("eq", col, v) works uniformly across column kinds — the store's
    fragment tier probes the int-key value bloom for the same predicate."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return range_scan_mask(batch, column, int(value), int(value))
    n = batch.num_rows
    if isinstance(value, str):
        value = value.encode()
    gi, envs = _group_indices(batch[f"{column}__blk"])
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _STR_FAMILY:
            raise TypeError(f"eq_scan: column {column!r} is not string-kind")
        scheme = r.u8()
        if scheme == S_STRDICT:
            nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
            target = -1
            vb = np.frombuffer(value, dtype=np.uint8)
            for j in range(nd):  # bounded by dictionary size, not rows
                if (
                    doff[j + 1] - doff[j] == len(vb)
                    and np.array_equal(ddata[doff[j] : doff[j + 1]], vb)
                ):
                    target = j
                    break
            if target < 0:
                continue
            idx = _cached_block(env, idx_blk)
            m = idx[rowidx_all[sel]] == target
        else:
            if scheme == S_FSSTB:
                table = fsstlib.cached_table(bytes(r.b32()))
                vdat = np.frombuffer(value, dtype=np.uint8)
                voff = np.array([0, len(vdat)], dtype=np.int64)
                needle, _epo, _used = fsstlib.encode(vdat, voff, table)
            else:  # S_PLAINB
                needle = np.frombuffer(value, dtype=np.uint8)
            lo = pay_off[sel]
            ln = pay_off[sel + 1] - lo
            m = ln == len(needle)
            cand = np.flatnonzero(m)
            if len(cand) and len(needle):
                pos = lo[cand, None] + np.arange(len(needle))[None, :]
                m[cand] = (pay_buf[pos] == needle[None, :]).all(axis=1)
        if valid is not None:
            m &= valid[rowidx_all[sel]]
        mask[sel] = m
    return mask


def in_scan_mask(batch: pa.Table, column: str, values) -> np.ndarray:
    """Membership mask for a value SET on an encoded string column.
    strdict blocks test the DICTIONARY against a hash set in one pass
    (O(distinct + |values|), independent of the list length per row) —
    the semi-join building block; fsstb/plainb blocks compare each row's
    payload bytes against the set of re-encoded needles grouped by
    length (equal strings encode to equal payloads, the eq_scan_mask
    contract), so cost stays one pass over payload bytes regardless of
    |values|.

    Int-family columns take a sorted-searchsorted membership pass over
    the (cached) block streams — IN on ids, the semi-join-on-key
    building block (values must then be ints)."""
    n = batch.num_rows
    if n and bytes(batch[f"{column}__blk"][0].as_py())[1] not in _STR_FAMILY:
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            # upsert-scale sets arrive pre-typed: skip the per-element walk
            ivals = np.sort(values.astype(np.int64, copy=False))
        else:
            for v in values:
                if not isinstance(v, (int, np.integer)):
                    # silent int("1") coercion would mask a schema confusion
                    raise TypeError(
                        f"in_scan on int column {column!r}: values must be "
                        f"ints, got {type(v).__name__}"
                    )
            ivals = np.sort(
                np.fromiter((int(v) for v in values), dtype=np.int64)
            )
        if not len(ivals):
            return np.zeros(n, dtype=bool)
        vals, ok = _int_values(batch, column)
        idx = np.searchsorted(ivals, vals)
        np.minimum(idx, len(ivals) - 1, out=idx)
        return ok & (ivals[idx] == vals)
    vset = set()
    for v in values:
        if isinstance(v, str):
            vset.add(v.encode())
        elif isinstance(v, (bytes, bytearray)):
            vset.add(bytes(v))
        else:
            # bytes(int) would build NUL padding and silently match
            # nothing — surface the caller bug instead
            raise TypeError(
                f"in_scan: values must be str/bytes, got {type(v).__name__}"
            )
    gi, envs = _group_indices(batch[f"{column}__blk"])
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    if not vset:
        return mask
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _STR_FAMILY:
            raise TypeError(f"in_scan: column {column!r} is not string-kind")
        scheme = r.u8()
        if scheme == S_STRDICT:
            nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
            db = ddata.tobytes()
            dmask = np.fromiter(
                (db[doff[j] : doff[j + 1]] in vset for j in range(nd)),
                dtype=bool,
                count=nd,
            )
            idx = _cached_block(env, idx_blk)
            m = dmask[idx[rowidx_all[sel]]]
        else:
            if scheme == S_FSSTB:
                table = fsstlib.cached_table(r.b32())
                needles = set()
                for v in vset:
                    vdat = np.frombuffer(v, dtype=np.uint8)
                    voff = np.array([0, len(vdat)], dtype=np.int64)
                    ebuf, _epo, _used = fsstlib.encode(vdat, voff, table)
                    needles.add(ebuf.tobytes())
            else:  # S_PLAINB
                needles = vset
            lens = pay_off[sel + 1] - pay_off[sel]
            m = np.zeros(len(sel), dtype=bool)
            by_len: dict[int, list[bytes]] = {}
            for x in needles:
                by_len.setdefault(len(x), []).append(x)
            for L, group in by_len.items():
                cand = np.flatnonzero(lens == L)
                if not len(cand):
                    continue
                if L == 0:
                    m[cand] = True
                    continue
                if len(group) <= 16 or len(cand) < 4 * len(group):
                    # few needles (or few candidates): vectorized byte
                    # compare per needle over ALL candidates at once
                    pos = pay_off[sel[cand], None] + np.arange(L)[None, :]
                    cb = pay_buf[pos]
                    hit = np.zeros(len(cand), dtype=bool)
                    for x in group:
                        hit |= (
                            cb == np.frombuffer(x, dtype=np.uint8)[None, :]
                        ).all(axis=1)
                    m[cand] = hit
                else:
                    # many needles: per-candidate hash-set membership
                    gs = set(group)
                    for j in cand:
                        lo = int(pay_off[sel[j]])
                        if pay_buf[lo : lo + L].tobytes() in gs:
                            m[j] = True
        if valid is not None:
            m &= valid[rowidx_all[sel]]
        mask[sel] = m
    return mask


def like_scan_batch(
    batch: pa.Table,
    column: str,
    pattern: str,
    out_columns=None,
    engine: str = "auto",
) -> pa.Table:
    """SQL LIKE filter on an ENCODED string column — the reference's
    flagship capability (LIKE pushdown for FSST, README.md:1) lifted onto
    the whole-table engine's layout:

    - ``strdict`` blocks evaluate the pattern ONCE over the dictionary
      (O(distinct), never O(rows)) and map the verdicts to rows through the
      int index stream — classic dictionary pushdown;
    - ``fsstb`` blocks run the full compressed-domain engine stack
      (matchers/engines.match_block: required-code prefilters, C KMP walk,
      cost-based auto dispatch) against the block's symbol table, decoding
      only candidate rows;
    - ``plainb`` blocks match the raw bytes directly.

    Only surviving rows decode, through the pruned ``out_columns`` set."""
    return _decode_survivors(
        batch, like_scan_mask(batch, column, pattern, engine), out_columns
    )


def like_scan_mask(
    batch: pa.Table, column: str, pattern: str, engine: str = "auto"
) -> np.ndarray:
    """Row mask of like_scan_batch, decoding nothing beyond candidate
    verification (predicate composition)."""
    from ..matchers.engines import match_block, match_decoded
    from ..matchers.pattern import parse_like

    pat = parse_like(pattern)
    n = batch.num_rows
    gi, envs = _group_indices(batch[f"{column}__blk"])
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        if tc not in (T_STRING, T_LARGE_STRING):
            raise TypeError(f"like_scan: column {column!r} is not a string")
        scheme = r.u8()
        if scheme == S_STRDICT:
            nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
            dict_arr = _binary_from(ddata, doff, None).cast(pa.large_string())
            dmask = match_decoded(dict_arr, pat)
            idx = _cached_block(env, idx_blk)
            m = dmask[idx[rowidx_all[sel]]]
        elif scheme == S_FSSTB:
            table = fsstlib.cached_table(r.b32())
            # the whole block's escaped-literal bitmap: a superset of the
            # bitmap of any subset of its rows, so pruning on it is sound
            used = r.take(32)
            if len(sel) and np.all(np.diff(sel) == 1):
                # contiguous row run (the common whole-block batch):
                # zero-copy payload slice, no gather temporaries
                lo0, hi0 = int(sel[0]), int(sel[-1]) + 1
                gpay = pay_buf[pay_off[lo0] : pay_off[hi0]]
                gpo = pay_off[lo0 : hi0 + 1] - pay_off[lo0]
            else:
                gpay, gpo = gather_rows(
                    pay_buf, pay_off[sel], pay_off[sel + 1] - pay_off[sel]
                )

            if len(used) < 32:
                # an envelope that ends after the table predates the
                # stored bitmap: compute it over the rows under scan, and
                # only if the engine path consumes it
                def used(_gpay=gpay, _gpo=gpo):
                    return fsstlib.escaped_literal_bitmap(_gpay, _gpo)

            def decode_fn(cidx, _gpay=gpay, _gpo=gpo, _table=table):
                spay, spo = gather_rows(
                    _gpay, _gpo[cidx], _gpo[cidx + 1] - _gpo[cidx]
                )
                dbuf, dof = fsstlib.decode(spay, spo, _table)
                return _binary_from(dbuf, np.asarray(dof), None).cast(
                    pa.large_string()
                )

            m = match_block(gpay, gpo, table, used, pat, engine, decode_fn)
        else:  # S_PLAINB
            data, off = gather_rows(
                pay_buf, pay_off[sel], pay_off[sel + 1] - pay_off[sel]
            )
            text = _binary_from(data, off, None)
            m = match_decoded(text.cast(pa.large_string()), pat)
        if valid is not None:
            m &= valid[rowidx_all[sel]]
        mask[sel] = m
    return mask


def assert_bit_equal(orig: pa.Table, dec: pa.Table) -> None:
    """Assert per-column BIT-exact equality between a source table and its
    decoded round-trip: floats compare as int bit views (``equals`` would
    miss NaN payload / signed-zero changes), list columns compare lengths
    plus flattened bit views, everything else via Arrow equals. Raises
    ValueError on the first mismatching column."""
    for name in orig.column_names:
        a = orig[name]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        d = dec[name].combine_chunks() if isinstance(
            dec[name], pa.ChunkedArray
        ) else dec[name]
        t = a.type
        if pa.types.is_floating(t):
            if a.null_count or d.null_count:
                raise ValueError(f"unexpected nulls in float column {name!r}")
            w = np.int32 if pa.types.is_float32(t) else np.int64
            ok = np.array_equal(
                a.to_numpy(zero_copy_only=False).view(w),
                d.to_numpy(zero_copy_only=False).view(w),
            )
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            fa = a.flatten().to_numpy(zero_copy_only=False)
            fd = d.flatten().to_numpy(zero_copy_only=False)
            if fa.dtype.kind == "f":
                fa, fd = fa.view(np.int32), fd.view(np.int32)
            ok = pc.list_value_length(a).equals(
                pc.list_value_length(d)
            ) and np.array_equal(fa, fd)
        else:
            ok = a.equals(d)
        if not ok:
            raise ValueError(f"columnar round-trip mismatch in column {name!r}")


def _decode_survivors(
    batch: pa.Table, mask: np.ndarray, out_columns
) -> pa.Table:
    """Decode only the rows the scan kept — and only the REQUESTED columns:
    the encoded field set prunes BEFORE decode, so a scan projecting two
    columns never pays the text column's FSST decode for survivors."""
    keep = batch.take(pa.array(np.flatnonzero(mask)))
    if out_columns:
        keep = keep.select(_encoded_field_names(keep, out_columns))
    dec = decode_columns_batch(keep)
    return dec.select(list(out_columns)) if out_columns else dec


_RANGE_TYPES = frozenset((T_INT32, T_DATE32, T_INT64, T_TS))


def range_scan_batch(
    batch: pa.Table,
    column: str,
    lo=None,
    hi=None,
    out_columns=None,
    stats_out: dict | None = None,
) -> pa.Table:
    """Inclusive-range filter on an ENCODED numeric column
    (int32/date32/int64/timestamp with int bounds in the column's storage
    unit — days for date32, the timestamp's unit for ts — and
    float32/float64 with float-logical bounds; NaN rows never match, SQL
    comparison semantics). Every numeric block envelope carries a
    (vmin, vmax) zone map — logical floats for float columns: blocks
    whose range is disjoint from [lo, hi] are SKIPPED without decoding a
    single value — the parquet row-group-stats trick applied to the
    encoded layout. ``stats_out`` (optional dict) receives
    blocks_scanned/blocks_skipped."""
    return _decode_survivors(
        batch,
        range_scan_mask(batch, column, lo, hi, stats_out=stats_out),
        out_columns,
    )


def range_scan_mask(
    batch: pa.Table,
    column: str,
    lo=None,
    hi=None,
    stats_out: dict | None = None,
) -> np.ndarray:
    """Row mask of range_scan_batch, decoding nothing when the block zone
    map is disjoint (predicate composition)."""
    n = batch.num_rows
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    scanned = skipped = 0
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        flt = tc in _FLOAT_TYPES
        if tc not in _RANGE_TYPES and not flt:
            raise TypeError(
                f"range_scan: column {column!r} is not numeric-kind"
            )
        vmin, vmax, blk = _int_block_reader(r, tc, n_block)
        # float zones can be NaN (all-null/NaN block): comparisons are
        # False, the block is kept, and the NaN rows fail the row test
        if (lo is not None and vmax < lo) or (hi is not None and vmin > hi):
            skipped += 1
            continue
        scanned += 1
        bits = _cached_block(env, blk)[rowidx_all[sel]]
        if flt:
            v = (
                bits.view(np.float32).astype(np.float64)
                if tc == T_FLOAT32
                else bits.view(np.float64)
            )
        else:
            v = bits.astype(np.int64)
        m = np.ones(len(sel), dtype=bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v <= hi
        if valid is not None:
            m &= valid[rowidx_all[sel]]
        mask[sel] = m
    if stats_out is not None:
        stats_out["blocks_scanned"] = scanned
        stats_out["blocks_skipped"] = skipped
    return mask


def predicate_scan_batch(
    batch: pa.Table,
    preds,
    out_columns=None,
    engine: str = "auto",
) -> pa.Table:
    """Conjunctive compound filter on an ENCODED table — every predicate
    evaluates in the compressed domain and survivors decode ONCE at the
    end, through the pruned ``out_columns`` set.

    ``preds`` is an iterable of tuples:

    - ``("range", col, lo, hi)`` — inclusive bounds (either may be None);
      block zone maps skip disjoint blocks;
    - ``("eq", col, value)`` — dictionary probe / constant re-encode;
    - ``("in", col, values)`` — OR of equality probes (bounded by the
      value-list length, each O(dictionary) on strdict blocks);
    - ``("like", col, pattern)`` — the LIKE engine stack;
    - ``("isnull", col)`` / ``("notnull", col)`` — envelope validity
      bitmaps only (head parse, zero payload decode).

    Predicates are evaluated in the given order with an any-rows-left
    short-circuit, so put the most selective / cheapest first."""
    return _decode_survivors(
        batch, predicate_mask(batch, preds, engine), out_columns
    )


def null_scan_mask(
    batch: pa.Table, column: str, want_null: bool = True
) -> np.ndarray:
    """Row mask for ``col IS [NOT] NULL`` on an ENCODED table from the
    envelope validity bitmaps alone — a head parse, zero payload bytes
    decode (a null-free block answers from the absent bitmap). Works for
    every column family."""
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    mask = np.zeros(batch.num_rows, dtype=bool)
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        _tc, _u, _tz, _nb, valid, _plain = _parse_head(r)
        if valid is None:
            mask[sel] = not want_null
        else:
            v = valid[rowidx_all[sel]]
            mask[sel] = ~v if want_null else v
    return mask


def predicate_mask(batch: pa.Table, preds, engine: str = "auto") -> np.ndarray:
    """The conjunctive compound-filter mask of predicate_scan_batch,
    without the survivor decode — shared by the scan and the
    predicate-composed aggregates (same op tuples, same short-circuit)."""
    mask = np.ones(batch.num_rows, dtype=bool)
    for p in preds:
        op = p[0]
        if op == "range":
            m = range_scan_mask(batch, p[1], p[2], p[3])
        elif op == "eq":
            m = eq_scan_mask(batch, p[1], p[2])
        elif op == "in":
            m = in_scan_mask(batch, p[1], p[2])
        elif op == "like":
            m = like_scan_mask(batch, p[1], p[2], engine)
        elif op == "isnull":
            m = null_scan_mask(batch, p[1], want_null=True)
        elif op == "notnull":
            m = null_scan_mask(batch, p[1], want_null=False)
        else:
            raise ValueError(f"predicate_scan: unknown op {op!r}")
        mask &= m
        if not mask.any():
            break
    return mask


_SAMPLE_MULT = 2654435761  # Knuth multiplicative hash constant
_SAMPLE_MOD = 1 << 32


def sample_scan_batch(
    batch: pa.Table,
    id_col: str,
    rate: float,
    seed: int = 0,
    out_columns=None,
) -> pa.Table:
    """Deterministic hash sample of an ENCODED table: the keep decision
    is ``((id + seed) * 2654435761) mod 2^32 < rate * 2^32`` over the
    (cached) int id stream — exactly mirrorable in SQL, stable across
    read parallelism and resume (the id decides, not the batch), and
    only the SAMPLED rows ever decode. The mixture-sampling primitive
    for training-data pipelines at store scale."""
    vals, ok = _int_values(batch, id_col)
    thresh = np.uint64(min(max(rate, 0.0), 1.0) * _SAMPLE_MOD)
    h = (
        (vals.view(np.uint64) + np.uint64(seed)) * np.uint64(_SAMPLE_MULT)
    ) % np.uint64(_SAMPLE_MOD)
    mask = ok & (h < thresh)
    return _decode_survivors(batch, mask, out_columns)


def column_topk_batch(
    batch: pa.Table,
    column: str,
    k: int,
    descending: bool = True,
    out_columns=None,
    mask: np.ndarray | None = None,
) -> pa.Table:
    """Per-batch top-k rows by an ENCODED numeric column: ranking
    values come straight from the cached block int streams (no other
    column touches memory); only the ≤k winning rows decode, through the
    pruned ``out_columns`` set. Null rows never rank; float columns rank
    on logical values and NaN rows never rank (SQL ordering would place
    NaN above +inf — rank on a non-NaN column when that matters). The
    store-level operator (tablestore.topk_table_store) merges these
    bounded partials and prunes whole fragments via the manifest zone
    envelopes."""
    n = batch.num_rows
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    flt = len(envs) and bytes(envs[0])[1] in _FLOAT_TYPES
    # int64 ranks stay int64: float64 keys would lose exactness > 2^53
    vals = np.zeros(n, dtype=np.float64 if flt else np.int64)
    ok = np.zeros(n, dtype=bool)
    for kk, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == kk)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, _unit, _tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _RANGE_TYPES and tc not in _FLOAT_TYPES:
            raise TypeError(f"topk: column {column!r} is not numeric-kind")
        _zmin, _zmax, blk = _int_block_reader(r, tc, n_block)
        bits = _cached_block(env, blk)[rowidx_all[sel]]
        if tc in _FLOAT_TYPES:
            fv = (
                bits.view(np.float32).astype(np.float64)
                if tc == T_FLOAT32
                else bits.view(np.float64)
            )
            vals[sel] = fv
            okk = ~np.isnan(fv)
            if valid is not None:
                okk &= valid[rowidx_all[sel]]
            ok[sel] = okk
        else:
            vals[sel] = bits.astype(np.int64)
            ok[sel] = True if valid is None else valid[rowidx_all[sel]]
    if mask is not None:
        ok &= mask
    cand = np.flatnonzero(ok)
    if len(cand) > k:
        key = -vals[cand] if descending else vals[cand]
        cand = cand[np.argpartition(key, k - 1)[:k]]
    mask = np.zeros(n, dtype=bool)
    mask[cand] = True
    keep = None if out_columns is None else sorted(set(out_columns) | {column})
    dec = _decode_survivors(batch, mask, keep)
    return dec


def group_topk_batch(
    batch: pa.Table,
    group_col: str,
    rank_col: str,
    k: int,
    descending: bool = True,
    out_columns=None,
    mask: np.ndarray | None = None,
) -> pa.Table:
    """Per-batch top-k rows PER GROUP: group codes from the dictionary
    path (_group_head), ranking values from the cached int streams; one
    lexsort picks ≤k candidates per group and only those rows decode.
    Null group keys and null ranks never rank. Partials are ≤ k ×
    groups-per-batch rows; the store fold re-ranks them per group."""
    codes, _keys, _ik, _it = _group_head(batch, group_col, mask, None)
    vals, ok = _int_values(batch, rank_col)
    live = ok & (codes >= 0)
    idx = np.flatnonzero(live)
    if len(idx):
        key_v = vals[idx]
        order = np.lexsort(
            (-key_v if descending else key_v, codes[idx])
        )
        sc = codes[idx][order]
        run_start = np.r_[0, 1 + np.flatnonzero(sc[1:] != sc[:-1])]
        rank = np.arange(len(sc)) - np.repeat(
            run_start, np.diff(np.r_[run_start, len(sc)])
        )
        winners = idx[order[rank < k]]
    else:
        winners = idx
    keep_mask = np.zeros(batch.num_rows, dtype=bool)
    keep_mask[winners] = True
    keep = (
        None
        if out_columns is None
        else sorted(set(out_columns) | {group_col, rank_col})
    )
    return _decode_survivors(batch, keep_mask, keep)


def agg_scan_batch(
    batch: pa.Table, column: str, ops=("min", "max", "sum", "count")
) -> pa.Table:
    """Per-batch aggregate partials of an ENCODED integer-logical column.
    When a block is fully present and null-free, min/max come straight
    from the envelope's zone map and count from the block header — with
    ``ops`` excluding "sum", such a block aggregates with ZERO values
    decoded; sum decodes the (LRU-cached) stream. Partials combine by
    min/min, max/max, sum/sum, count/count — one tiny row per batch."""
    want_sum = "sum" in ops
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    vmin_acc, vmax_acc, sum_acc, cnt_acc = None, None, 0, 0
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _RANGE_TYPES:
            raise TypeError(f"agg_scan: column {column!r} is not integer-kind")
        zmin, zmax, blk = _int_block_reader(r, tc, n_block)
        need_minmax = "min" in ops or "max" in ops
        whole = len(sel) == n_block and valid is None
        bmin = bmax = None
        if not want_sum and (whole or not need_minmax):
            # header/bitmap-only: zero values decode — count comes from
            # the selection length (or the validity bitmap), min/max from
            # the zone map when the whole null-free block is present
            n_valid = (
                len(sel) if valid is None else int(valid[rowidx_all[sel]].sum())
            )
            if need_minmax:
                bmin, bmax = zmin, zmax
        else:
            v = _cached_block(env, blk)[rowidx_all[sel]].astype(np.int64)
            if valid is not None:
                v = v[valid[rowidx_all[sel]]]
            if not len(v):
                continue
            n_valid = len(v)
            if need_minmax:
                bmin, bmax = int(v.min()), int(v.max())
            if want_sum:
                # overflow-proof exact sum: arithmetic-shift hi + unsigned
                # lo parts each sum in int64 safely (|hi| <= n*2^31,
                # lo <= n*2^32, n < 2^30), recombined as python ints
                lo_sum = int((v & np.int64(0xFFFFFFFF)).sum())
                hi_sum = int((v >> np.int64(32)).sum())
                sum_acc += hi_sum * (1 << 32) + lo_sum
        cnt_acc += n_valid
        if bmin is not None:
            vmin_acc = bmin if vmin_acc is None else min(vmin_acc, bmin)
            vmax_acc = bmax if vmax_acc is None else max(vmax_acc, bmax)
    import decimal

    return pa.table(
        {
            "vmin": pa.array([vmin_acc], type=pa.int64()),
            "vmax": pa.array([vmax_acc], type=pa.int64()),
            # a batch of near-2^62 values legitimately sums past int64 —
            # the partial rides as decimal128 (exact to ~10^38)
            "vsum": pa.array(
                [decimal.Decimal(sum_acc)], type=pa.decimal128(38, 0)
            ),
            "cnt": pa.array([cnt_acc], type=pa.int64()),
        }
    )


def columnar_agg(enc_ds, column: str, ops=("min", "max", "sum", "count")) -> dict:
    """Dataset-level (min, max, sum, count) over an encoded int column:
    one partial row per batch crosses the cluster; the driver folds a
    handful of tiny rows."""
    vmin = vmax = None
    vsum = cnt = 0
    for b in enc_ds.map_batches(
        lambda t: agg_scan_batch(t, column, ops), batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for row in b.to_pylist():
            if row["cnt"]:
                cnt += row["cnt"]
                vsum += int(row["vsum"])
                vmin = row["vmin"] if vmin is None else min(vmin, row["vmin"])
                vmax = row["vmax"] if vmax is None else max(vmax, row["vmax"])
    # only the REQUESTED aggregates appear: a sum nobody asked for would
    # read as a (fabricated) 0 indistinguishable from a true zero sum
    out = {}
    if "min" in ops:
        out["min"] = vmin
    if "max" in ops:
        out["max"] = vmax
    if "sum" in ops:
        out["sum"] = vsum
    if "count" in ops:
        out["count"] = cnt
    return out


def like_count(enc_ds, column: str, pattern: str, engine: str = "auto") -> int:
    """Global LIKE match count over an encoded string column (the
    reference's headline metric, src/BenchmarkDriver.cpp:66-79): one count
    row per batch crosses the cluster, nothing decodes but candidates."""
    counts = enc_ds.map_batches(
        lambda t: pa.table(
            {"n": [int(like_scan_mask(t, column, pattern, engine).sum())]}
        ),
        batch_format="pyarrow",
    )
    return sum(
        int(n)
        for b in counts.iter_batches(batch_format="pyarrow")
        for n in b["n"].to_pylist()
    )


def group_count_batch(batch: pa.Table, column: str) -> pa.Table:
    """Per-batch GROUP BY count over an ENCODED string column. strdict
    blocks never materialize a string: counts come from a bincount over
    the (LRU-cached) index stream, keyed by the per-block dictionary's
    raw bytes. fsstb/plainb blocks fall back to decoding just this
    column. Emits (value, n) partial rows — combine with one tiny
    groupby-sum downstream."""
    gi, envs = _group_indices(batch[f"{column}__blk"])
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    counts: dict[bytes, int] = {}
    is_text = True
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, unit, tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _STR_FAMILY:
            raise TypeError(f"group_count: column {column!r} is not string-kind")
        is_text &= tc in (T_STRING, T_LARGE_STRING)
        scheme = r.u8()
        vmask = valid[rowidx_all[sel]] if valid is not None else None
        if scheme == S_STRDICT:
            nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
            idx = _cached_block(env, idx_blk)[rowidx_all[sel]]
            if vmask is not None:
                idx = idx[vmask]
            bc = np.bincount(idx, minlength=nd)
            for j in np.flatnonzero(bc):
                key = ddata[doff[j] : doff[j + 1]].tobytes()
                counts[key] = counts.get(key, 0) + int(bc[j])
        else:
            if scheme == S_FSSTB:
                table = fsstlib.cached_table(bytes(r.b32()))
                lens = (pay_off[sel + 1] - pay_off[sel]).astype(np.int64)
                dense, dpo = gather_rows(pay_buf, pay_off[sel], lens)
                data, off = fsstlib.decode(dense, dpo, table)
            else:  # S_PLAINB
                lens = (pay_off[sel + 1] - pay_off[sel]).astype(np.int64)
                data, off = gather_rows(pay_buf, pay_off[sel], lens)
            arr = _binary_from(data, off, vmask)
            vc = pc.value_counts(arr.cast(pa.large_binary()))
            for item in vc:
                val = item["values"].as_py()
                if val is None:
                    continue
                counts[val] = counts.get(val, 0) + int(item["counts"].as_py())
    return pa.table(
        {
            "value": pa.array(list(counts.keys()), type=pa.large_binary()),
            "n": pa.array(list(counts.values()), type=pa.int64()),
            # one scalar rides per row: lets the combiner know whether the
            # source column was utf-8 text (string family) or raw binary
            "is_text": pa.array([is_text] * len(counts), type=pa.bool_()),
        }
    )


def columnar_group_count(enc_ds, column: str) -> pa.Table:
    """Dataset-level GROUP BY count over an encoded string column: one
    (value, n) partial row per distinct value per batch crosses the
    cluster; the driver folds partials (bounded by the column's
    cardinality, which for a groupable column is small by contract).
    Keys decode to utf-8 ONLY for string-family columns — binary columns
    keep large_binary keys (a lossy decode would merge distinct groups)."""
    acc: dict[bytes, int] = {}
    text = True
    for b in enc_ds.map_batches(
        lambda t: group_count_batch(t, column), batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for row in b.to_pylist():
            acc[row["value"]] = acc.get(row["value"], 0) + int(row["n"])
            text &= bool(row["is_text"])
    keys = sorted(acc)
    vals = (
        pa.array([k.decode() for k in keys], type=pa.string())
        if text
        else pa.array(keys, type=pa.large_binary())
    )
    return pa.table(
        {
            "value": vals,
            "n": pa.array([acc[k] for k in keys], type=pa.int64()),
        }
    )


def _group_codes(
    batch: pa.Table, column: str
) -> tuple[np.ndarray, list[bytes], bool]:
    """Row-aligned group ids for an ENCODED string column: ``codes[i]``
    indexes the returned key list (−1 for null rows — GROUP BY here
    follows the aggregate convention of dropping null keys; callers'
    oracles mirror with ``WHERE col IS NOT NULL``). strdict blocks map
    through the block dictionary — O(distinct) strings touched, the index
    stream never materializes a value; fsstb/plainb blocks decode THIS
    column only, then dictionary-encode. Key ids are batch-local:
    partials combine on the key BYTES downstream."""
    gi, envs = _group_indices(batch[f"{column}__blk"])
    pay_buf, pay_off = _payload_buffers(batch, column, envs)
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    codes = np.full(len(rowidx_all), -1, dtype=np.int64)
    keys: list[bytes] = []
    gid: dict[bytes, int] = {}
    is_text = True
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, _unit, _tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _STR_FAMILY:
            raise TypeError(
                f"group codes: column {column!r} is not string-kind"
            )
        is_text &= tc in (T_STRING, T_LARGE_STRING)
        scheme = r.u8()
        ri = rowidx_all[sel]
        vmask = valid[ri] if valid is not None else None
        if scheme == S_STRDICT:
            nd, doff, ddata, idx_blk = _strdict_reader(r, n_block)
            lut = np.empty(nd, dtype=np.int64)
            for j in range(nd):
                key = ddata[doff[j] : doff[j + 1]].tobytes()
                g = gid.get(key)
                if g is None:
                    g = gid[key] = len(keys)
                    keys.append(key)
                lut[j] = g
            c = lut[_cached_block(env, idx_blk)[ri]]
        else:
            lens = (pay_off[sel + 1] - pay_off[sel]).astype(np.int64)
            if scheme == S_FSSTB:
                table = fsstlib.cached_table(bytes(r.b32()))
                dense, dpo = gather_rows(pay_buf, pay_off[sel], lens)
                data, off = fsstlib.decode(dense, dpo, table)
            else:  # S_PLAINB
                data, off = gather_rows(pay_buf, pay_off[sel], lens)
            de = _binary_from(data, off, None).dictionary_encode()
            lut = np.empty(len(de.dictionary), dtype=np.int64)
            for j, v in enumerate(de.dictionary):
                key = v.as_py()
                g = gid.get(key)
                if g is None:
                    g = gid[key] = len(keys)
                    keys.append(key)
                lut[j] = g
            c = lut[de.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        if vmask is not None:
            c = np.where(vmask, c, np.int64(-1))
        codes[sel] = c
    return codes, keys, is_text


def _int_values(batch: pa.Table, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned (int64 logical values, validity) for an encoded
    int-family column — shares _int_block_reader and the block LRU with
    the range/agg/top-k scans (null slots hold the encode-time 0 fill and
    are masked False)."""
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    vals = np.zeros(len(rowidx_all), dtype=np.int64)
    ok = np.ones(len(rowidx_all), dtype=bool)
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, _unit, _tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _RANGE_TYPES:
            raise TypeError(
                f"int values: column {column!r} is not integer-kind"
            )
        _zmin, _zmax, blk = _int_block_reader(r, tc, n_block)
        ri = rowidx_all[sel]
        vals[sel] = _cached_block(env, blk)[ri].astype(np.int64)
        if valid is not None:
            ok[sel] = valid[ri]
    return vals, ok


_FLOAT_TYPES = frozenset((T_FLOAT32, T_FLOAT64))


def _group_head(batch, group_col, mask, bucket):
    """Shared group-key resolution of the GROUP BY kernels →
    (row codes, keys, int_keys, is_text): string columns through
    _group_codes, int-family columns on their logical values with
    optional floor-bucketing; ``mask`` drops rows (code −1)."""
    probe = bytes(batch[f"{group_col}__blk"][0].as_py())[:2]
    int_keys = len(probe) == 2 and probe[1] not in _STR_FAMILY
    if int_keys:
        gvals, gok = _int_values(batch, group_col)
        if bucket:
            gvals = gvals // np.int64(bucket) * np.int64(bucket)
        sel = gok if mask is None else (gok & mask)
        uk, inv = np.unique(gvals[sel], return_inverse=True)
        codes = np.full(len(gvals), -1, dtype=np.int64)
        codes[sel] = inv
        return codes, uk, True, False
    if bucket:
        raise TypeError(
            f"group bucket: column {group_col!r} is not integer-kind"
        )
    codes, keys, is_text = _group_codes(batch, group_col)
    if mask is not None:
        codes = np.where(mask, codes, np.int64(-1))
    return codes, keys, False, is_text


def _group_head_multi(batch, group_cols, mask, buckets):
    """Composite group-key resolution for GROUP BY over SEVERAL columns:
    per-column codes from _group_head compose positionally
    (mixed-radix over per-batch cardinalities), rows where ANY key is
    null drop (SQL GROUP BY semantics), and each emitted group's key
    serializes to a self-describing bytes tuple — int parts as
    order-preserving big-endian (offset by 2^63), text parts
    length-prefixed — so composite partials ride the SAME binary
    ``value`` fold as single text keys. ``buckets`` maps column →
    floor-bucket for int-family parts. Returns
    (row codes, serialized keys, int_keys=False, is_text=False)."""
    n = batch.num_rows
    part_codes, part_keys, part_int = [], [], []
    valid = np.ones(n, dtype=bool) if mask is None else mask.copy()
    for col in group_cols:
        codes, keys, int_k, _is_text = _group_head(
            batch, col, None, (buckets or {}).get(col)
        )
        part_codes.append(codes)
        part_keys.append(keys)
        part_int.append(int_k)
        valid &= codes >= 0
    card = 1
    for keys in part_keys:
        card *= max(len(keys), 1)
    if card > (1 << 62):
        raise ValueError(
            "group multi: per-batch key-cardinality product exceeds 2^62 "
            "— not a groupable-column combination"
        )
    combined = np.zeros(n, dtype=np.int64)
    for codes, keys in zip(part_codes, part_keys):
        combined = combined * np.int64(max(len(keys), 1)) + np.where(
            valid, codes, 0
        )
    uk, inv = np.unique(combined[valid], return_inverse=True)
    out_codes = np.full(n, -1, dtype=np.int64)
    out_codes[valid] = inv
    parts_idx = []
    rem = uk.copy()
    for keys in reversed(part_keys):
        c = np.int64(max(len(keys), 1))
        parts_idx.append(rem % c)
        rem //= c
    parts_idx.reverse()
    key_bytes = []
    for gi in range(len(uk)):
        bs = b""
        for j in range(len(group_cols)):
            ki = int(parts_idx[j][gi])
            if part_int[j]:
                v = int(part_keys[j][ki])
                bs += b"\x00" + struct.pack(
                    ">Q", (v + (1 << 63)) & ((1 << 64) - 1)
                )
            else:
                kb = bytes(part_keys[j][ki])
                bs += b"\x01" + struct.pack(">I", len(kb)) + kb
        key_bytes.append(bs)
    return out_codes, key_bytes, False, False


def _split_multi_key(bs: bytes) -> list:
    """Inverse of _group_head_multi's key serialization → python values
    (int for int parts, bytes for text parts)."""
    out: list = []
    i = 0
    while i < len(bs):
        tag = bs[i]
        i += 1
        if tag == 0:
            (u,) = struct.unpack_from(">Q", bs, i)
            i += 8
            out.append(int(u) - (1 << 63))
        else:
            (ln,) = struct.unpack_from(">I", bs, i)
            i += 4
            out.append(bs[i : i + ln])
            i += ln
    return out


def _float_values(batch: pa.Table, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned (float64 logical values, validity) for an encoded
    float column: the stored streams hold the IEEE bit patterns
    (float32 as int32, float64 as split int64), so the decoded ints view
    back bit-exactly (null slots carry the 0.0 encode fill, masked
    False)."""
    gi, envs = _group_indices(batch[f"{column}__blk"])
    rowidx_all = batch["__rowidx"].to_numpy().astype(np.int64)
    vals = np.zeros(len(rowidx_all), dtype=np.float64)
    ok = np.ones(len(rowidx_all), dtype=bool)
    for k, env in enumerate(envs):
        env = bytes(env)
        sel = np.flatnonzero(gi == k)
        if not len(sel):
            continue
        r = _Reader(env)
        tc, _unit, _tz, n_block, valid, _plain = _parse_head(r)
        if tc not in _FLOAT_TYPES:
            raise TypeError(
                f"float values: column {column!r} is not float-kind"
            )
        _zmin, _zmax, blk = _int_block_reader(r, tc, n_block)
        ri = rowidx_all[sel]
        bits = _cached_block(env, blk)[ri]
        vals[sel] = (
            bits.view(np.float32).astype(np.float64)
            if tc == T_FLOAT32
            else bits.view(np.float64)
        )
        if valid is not None:
            ok[sel] = valid[ri]
    return vals, ok


def float_agg_scan_batch(
    batch: pa.Table, column: str, ops=("min", "max", "sum", "count")
) -> pa.Table:
    """Per-batch aggregate partials of an ENCODED float column — the
    float sibling of agg_scan_batch. Values come from the (cached) bit
    streams; nulls skip (SQL semantics); sums accumulate in float64
    (pairwise np.sum — exactness is inherently rounding-order-dependent
    for floats, which is why the store query gates float sums on a
    tolerance instead of a hash). NaNs propagate (NaN-naive, unlike SQL
    aggregates which skip only NULLs)."""
    vals, ok = _float_values(batch, column)
    v = vals[ok]
    n = int(len(v))
    return pa.table(
        {
            "fmin": pa.array(
                [float(v.min()) if n else None], type=pa.float64()
            ),
            "fmax": pa.array(
                [float(v.max()) if n else None], type=pa.float64()
            ),
            "fsum": pa.array([float(v.sum()) if n else 0.0], type=pa.float64()),
            "cnt": pa.array([n], type=pa.int64()),
        }
    )


def group_agg_batch(
    batch: pa.Table,
    group_col: str,
    agg_col: str | None = None,
    mask: np.ndarray | None = None,
    bucket: int | None = None,
) -> pa.Table:
    """Per-batch GROUP BY aggregate partials over ENCODED columns: group
    keys from the string column's dictionaries (_group_codes), aggregate
    values from the int column's (LRU-cached) block streams. Emits one
    (value, is_text, n_rows, n_vals, vsum, vmin, vmax) row per group per
    batch — COUNT(*) semantics for ``n_rows``, null-skipping SQL
    semantics for the value aggregates; sums ride as decimal128 so a
    near-2^62 batch can't overflow the partial. ``mask`` (e.g. a
    predicate_mask) drops rows from every aggregate — a masked-out row
    counts nowhere.

    Int-family group columns (ids, dates, timestamps) group on the
    (cached) block int streams; ``bucket`` floor-buckets the keys first
    (``key // bucket * bucket`` — e.g. 86_400_000_000 buckets a
    microsecond timestamp by day), giving time-windowed rollups in one
    pass. Int-keyed partials carry an ``ivalue`` int64 key column in
    place of ``value``.

    Float aggregate columns emit float64 partials (fsum/fmin/fmax in
    place of vsum/vmin/vmax) — min/max bit-exact, sums
    rounding-order-dependent like any float reduction.

    ``group_col`` may be a LIST of columns (composite GROUP BY): keys
    serialize into self-describing byte tuples (_group_head_multi) and
    ride the binary ``value`` partial path; ``bucket`` is then a
    {column: bucket} dict."""
    import decimal

    if batch.num_rows == 0:
        return pa.table(
            {
                "value": pa.array([], type=pa.large_binary()),
                "is_text": pa.array([], type=pa.bool_()),
                "n_rows": pa.array([], type=pa.int64()),
                "n_vals": pa.array([], type=pa.int64()),
                "vsum": pa.array([], type=pa.decimal128(38, 0)),
                "vmin": pa.array([], type=pa.int64()),
                "vmax": pa.array([], type=pa.int64()),
            }
        )
    if isinstance(group_col, (list, tuple)):
        codes, keys, int_keys, is_text = _group_head_multi(
            batch, list(group_col), mask, bucket
        )
    else:
        codes, keys, int_keys, is_text = _group_head(
            batch, group_col, mask, bucket
        )
    ng = len(keys)
    m = codes >= 0
    n_rows = np.bincount(codes[m], minlength=ng).astype(np.int64)
    float_agg = (
        agg_col is not None
        and bytes(batch[f"{agg_col}__blk"][0].as_py())[1] in _FLOAT_TYPES
    )
    if float_agg:
        vals, ok = _float_values(batch, agg_col)
        mv = m & ok
        cv, v = codes[mv], vals[mv]
        n_vals = np.bincount(cv, minlength=ng).astype(np.int64)
        fsum = np.zeros(ng, dtype=np.float64)
        np.add.at(fsum, cv, v)
        fmin = np.full(ng, np.inf)
        fmax = np.full(ng, -np.inf)
        np.minimum.at(fmin, cv, v)
        np.maximum.at(fmax, cv, v)
        emit = np.flatnonzero(n_rows)
        key_col = (
            {"ivalue": pa.array(keys[emit], type=pa.int64())}
            if int_keys
            else {
                "value": pa.array(
                    [keys[g] for g in emit], type=pa.large_binary()
                ),
            }
        )
        return pa.table(
            {
                **key_col,
                "is_text": pa.array([is_text] * len(emit), type=pa.bool_()),
                "n_rows": pa.array(n_rows[emit], type=pa.int64()),
                "n_vals": pa.array(n_vals[emit], type=pa.int64()),
                "fsum": pa.array(fsum[emit], type=pa.float64()),
                "fmin": pa.array(
                    [
                        float(fmin[g]) if n_vals[g] else None
                        for g in emit
                    ],
                    type=pa.float64(),
                ),
                "fmax": pa.array(
                    [
                        float(fmax[g]) if n_vals[g] else None
                        for g in emit
                    ],
                    type=pa.float64(),
                ),
            }
        )
    if agg_col is None:
        n_vals = n_rows
        lo = hi = np.zeros(ng, dtype=np.int64)
        vmin = vmax = None
    else:
        vals, ok = _int_values(batch, agg_col)
        mv = m & ok
        cv, v = codes[mv], vals[mv]
        n_vals = np.bincount(cv, minlength=ng).astype(np.int64)
        # overflow-proof grouped sum: signed-hi + unsigned-lo 32-bit parts
        # each accumulate safely in int64 (same split as agg_scan_batch)
        lo = np.zeros(ng, dtype=np.int64)
        hi = np.zeros(ng, dtype=np.int64)
        np.add.at(lo, cv, v & np.int64(0xFFFFFFFF))
        np.add.at(hi, cv, v >> np.int64(32))
        vmin = np.full(ng, np.iinfo(np.int64).max)
        vmax = np.full(ng, np.iinfo(np.int64).min)
        np.minimum.at(vmin, cv, v)
        np.maximum.at(vmax, cv, v)
    emit = np.flatnonzero(n_rows)
    key_col = (
        {"ivalue": pa.array(keys[emit], type=pa.int64())}
        if int_keys
        else {
            "value": pa.array(
                [keys[g] for g in emit], type=pa.large_binary()
            ),
        }
    )
    return pa.table(
        {
            **key_col,
            "is_text": pa.array([is_text] * len(emit), type=pa.bool_()),
            "n_rows": pa.array(n_rows[emit], type=pa.int64()),
            "n_vals": pa.array(n_vals[emit], type=pa.int64()),
            "vsum": pa.array(
                [
                    decimal.Decimal(int(hi[g]) * (1 << 32) + int(lo[g]))
                    for g in emit
                ],
                type=pa.decimal128(38, 0),
            ),
            "vmin": pa.array(
                [
                    int(vmin[g]) if vmin is not None and n_vals[g] else None
                    for g in emit
                ],
                type=pa.int64(),
            ),
            "vmax": pa.array(
                [
                    int(vmax[g]) if vmax is not None and n_vals[g] else None
                    for g in emit
                ],
                type=pa.int64(),
            ),
        }
    )


def group_agg_part(
    group_col,
    agg_col: str | None = None,
    preds=None,
    engine: str = "auto",
    bucket=None,
    aggs: dict | None = None,
):
    """The per-batch GROUP BY kernel as one callable: ``preds`` mask the
    batch in the compressed domain, then group_multi_agg_batch (``aggs``)
    or group_agg_batch emits the partials the folds below consume."""

    def part(t: pa.Table) -> pa.Table:
        mask = predicate_mask(t, preds, engine) if preds else None
        if aggs:
            return group_multi_agg_batch(
                t, group_col, aggs, mask=mask, bucket=bucket
            )
        return group_agg_batch(t, group_col, agg_col, mask=mask, bucket=bucket)

    return part


def _partials(enc_ds, part):
    """``part`` over a Dataset's batches → its partial tables."""
    return enc_ds.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    )


def columnar_group_agg(
    enc_ds,
    group_col: str,
    agg_col: str | None = None,
    ops=("count", "sum", "min", "max"),
    preds=None,
    engine: str = "auto",
    bucket: int | None = None,
) -> pa.Table:
    """Dataset-level GROUP BY <string col> with COUNT/SUM/MIN/MAX over an
    int column, computed entirely in the compressed domain: one partial
    row per group per batch crosses the cluster; the driver folds rows
    bounded by group cardinality × batches (small by the groupable-column
    contract — same contract as columnar_group_count). ``preds``
    (predicate_scan_batch op tuples) filter rows in the compressed
    domain before any aggregate sees them — GROUP BY ... WHERE without a
    row decode. Int-family group columns key on their int64 logical
    values (``bucket`` floor-buckets them — time-windowed rollups).
    Output: fold_group_agg."""
    part = group_agg_part(group_col, agg_col, preds, engine, bucket)
    return fold_group_agg(_partials(enc_ds, part), group_col, agg_col, ops)


def fold_group_agg(
    partials,
    group_col,
    agg_col: str | None = None,
    ops=("count", "sum", "min", "max"),
) -> pa.Table:
    """Driver fold of group_agg_batch partial tables (any iterable — a
    Dataset's batches or in-process per-part outputs). Output sorts by
    key; only the REQUESTED aggregates appear, named n_rows / vsum /
    vmin / vmax (sum raises past int64 rather than wrap). Int-family
    keys come out as an int64 ``value`` column; composite keys as one
    column per group column. Float aggregate columns fold in float64
    (vsum/vmin/vmax come out float64; no overflow check — float sums
    saturate to inf rather than wrap)."""
    acc: dict = {}
    text = True
    int_keys = False
    float_mode = False
    for b in partials:
        key_name = "ivalue" if "ivalue" in b.column_names else "value"
        int_keys |= key_name == "ivalue"
        flt = "fsum" in b.column_names
        float_mode |= flt
        for row in b.to_pylist():
            a = acc.setdefault(
                row[key_name], [0, 0, 0.0 if flt else 0, None, None]
            )
            a[0] += int(row["n_rows"])
            a[1] += int(row["n_vals"])
            a[2] += row["fsum"] if flt else int(row["vsum"])
            rmin = row["fmin"] if flt else row["vmin"]
            rmax = row["fmax"] if flt else row["vmax"]
            if rmin is not None:
                a[3] = rmin if a[3] is None else min(a[3], rmin)
                a[4] = rmax if a[4] is None else max(a[4], rmax)
            text &= bool(row["is_text"])
    keys = sorted(acc)
    if isinstance(group_col, (list, tuple)):
        # composite keys: decompose the serialized tuples into one
        # output column per group column (int parts int64, text parts
        # utf-8 strings), named after the source columns
        parts = [_split_multi_key(k) for k in keys]
        cols = {}
        for j, cname in enumerate(group_col):
            vals = [p[j] for p in parts]
            cols[cname] = (
                pa.array(
                    [v.decode() for v in vals], type=pa.string()
                )
                if vals and isinstance(vals[0], bytes)
                else pa.array(vals, type=pa.int64())
            )
    elif int_keys:
        cols = {"value": pa.array(keys, type=pa.int64())}
    else:
        cols = {
            "value": pa.array([k.decode() for k in keys], type=pa.string())
            if text
            else pa.array(keys, type=pa.large_binary())
        }
    agg_t = pa.float64() if float_mode else pa.int64()
    if "count" in ops:
        cols["n_rows"] = pa.array([acc[k][0] for k in keys], type=pa.int64())
    if agg_col is not None and "sum" in ops:
        if not float_mode:
            for k in keys:
                if not -(1 << 63) <= acc[k][2] < (1 << 63):
                    raise OverflowError(
                        f"group sum of {agg_col!r} exceeds int64 for key {k!r}"
                    )
        cols["vsum"] = pa.array([acc[k][2] for k in keys], type=agg_t)
    if agg_col is not None and "min" in ops:
        cols["vmin"] = pa.array([acc[k][3] for k in keys], type=agg_t)
    if agg_col is not None and "max" in ops:
        cols["vmax"] = pa.array([acc[k][4] for k in keys], type=agg_t)
    return pa.table(cols)


def group_multi_agg_batch(
    batch: pa.Table,
    group_col: str,
    aggs: dict,
    mask: np.ndarray | None = None,
    bucket: int | None = None,
) -> pa.Table:
    """Per-batch GROUP BY partials over SEVERAL aggregate columns in one
    pass — each column's streams decode once for all its ops
    (``aggs = {col: ("sum", "min", ...), ...}``; int columns ride the
    overflow-proof decimal128 sums, float columns float64). Emits
    per-column suffixed partial fields (n_vals__c, vsum__c/fsum__c,
    vmin__c, vmax__c) plus the shared key/n_rows head."""
    import decimal

    if batch.num_rows == 0:
        empty: dict = {
            "value": pa.array([], type=pa.large_binary()),
            "is_text": pa.array([], type=pa.bool_()),
            "n_rows": pa.array([], type=pa.int64()),
        }
        for c in aggs:
            empty[f"n_vals__{c}"] = pa.array([], type=pa.int64())
            empty[f"vsum__{c}"] = pa.array([], type=pa.decimal128(38, 0))
            empty[f"vmin__{c}"] = pa.array([], type=pa.int64())
            empty[f"vmax__{c}"] = pa.array([], type=pa.int64())
        return pa.table(empty)
    codes, keys, int_keys, is_text = _group_head(
        batch, group_col, mask, bucket
    )
    ng = len(keys)
    m = codes >= 0
    n_rows = np.bincount(codes[m], minlength=ng).astype(np.int64)
    emit = np.flatnonzero(n_rows)
    cols: dict = (
        {"ivalue": pa.array(keys[emit], type=pa.int64())}
        if int_keys
        else {
            "value": pa.array([keys[g] for g in emit], type=pa.large_binary())
        }
    )
    cols["is_text"] = pa.array([is_text] * len(emit), type=pa.bool_())
    cols["n_rows"] = pa.array(n_rows[emit], type=pa.int64())
    for c in aggs:
        flt = bytes(batch[f"{c}__blk"][0].as_py())[1] in _FLOAT_TYPES
        vals, ok = (_float_values if flt else _int_values)(batch, c)
        mv = m & ok
        cv, v = codes[mv], vals[mv]
        n_vals = np.bincount(cv, minlength=ng).astype(np.int64)
        cols[f"n_vals__{c}"] = pa.array(n_vals[emit], type=pa.int64())
        if flt:
            fsum = np.zeros(ng, dtype=np.float64)
            np.add.at(fsum, cv, v)
            fmin = np.full(ng, np.inf)
            fmax = np.full(ng, -np.inf)
            np.minimum.at(fmin, cv, v)
            np.maximum.at(fmax, cv, v)
            cols[f"fsum__{c}"] = pa.array(fsum[emit], type=pa.float64())
            cols[f"vmin__{c}"] = pa.array(
                [float(fmin[g]) if n_vals[g] else None for g in emit],
                type=pa.float64(),
            )
            cols[f"vmax__{c}"] = pa.array(
                [float(fmax[g]) if n_vals[g] else None for g in emit],
                type=pa.float64(),
            )
        else:
            lo = np.zeros(ng, dtype=np.int64)
            hi = np.zeros(ng, dtype=np.int64)
            np.add.at(lo, cv, v & np.int64(0xFFFFFFFF))
            np.add.at(hi, cv, v >> np.int64(32))
            vmin = np.full(ng, np.iinfo(np.int64).max)
            vmax = np.full(ng, np.iinfo(np.int64).min)
            np.minimum.at(vmin, cv, v)
            np.maximum.at(vmax, cv, v)
            cols[f"vsum__{c}"] = pa.array(
                [
                    decimal.Decimal(int(hi[g]) * (1 << 32) + int(lo[g]))
                    for g in emit
                ],
                type=pa.decimal128(38, 0),
            )
            cols[f"vmin__{c}"] = pa.array(
                [int(vmin[g]) if n_vals[g] else None for g in emit],
                type=pa.int64(),
            )
            cols[f"vmax__{c}"] = pa.array(
                [int(vmax[g]) if n_vals[g] else None for g in emit],
                type=pa.int64(),
            )
    return pa.table(cols)


def columnar_group_multi_agg(
    enc_ds,
    group_col: str,
    aggs: dict,
    preds=None,
    engine: str = "auto",
    bucket: int | None = None,
) -> pa.Table:
    """Dataset-level multi-aggregate GROUP BY: one compressed-domain pass
    emits partials for every (column, op) at once; the driver folds
    (cardinality-bounded contract; output: fold_group_multi_agg)."""
    part = group_agg_part(group_col, None, preds, engine, bucket, aggs)
    return fold_group_multi_agg(_partials(enc_ds, part), group_col, aggs)


def fold_group_multi_agg(partials, group_col: str, aggs: dict) -> pa.Table:
    """Driver fold of group_multi_agg_batch partial tables (any
    iterable). Output columns: value, n_rows (always), then
    ``{op}_{col}`` per requested op — e.g. aggs={"user_id": ("sum",
    "max")} → sum_user_id, max_user_id. Int sums raise past int64; float
    sums fold in float64."""
    acc: dict = {}
    text = True
    int_keys = False
    float_cols: set = set()
    for b in partials:
        key_name = "ivalue" if "ivalue" in b.column_names else "value"
        int_keys |= key_name == "ivalue"
        names = set(b.column_names)
        for c in aggs:
            if f"fsum__{c}" in names:
                float_cols.add(c)
        for row in b.to_pylist():
            a = acc.setdefault(
                row[key_name],
                {
                    "n_rows": 0,
                    **{
                        c: [0, 0.0 if f"fsum__{c}" in names else 0, None, None]
                        for c in aggs
                    },
                },
            )
            a["n_rows"] += int(row["n_rows"])
            for c in aggs:
                e = a[c]
                e[0] += int(row[f"n_vals__{c}"])
                e[1] += (
                    row[f"fsum__{c}"]
                    if f"fsum__{c}" in names
                    else int(row[f"vsum__{c}"])
                )
                rmin, rmax = row[f"vmin__{c}"], row[f"vmax__{c}"]
                if rmin is not None:
                    e[2] = rmin if e[2] is None else min(e[2], rmin)
                    e[3] = rmax if e[3] is None else max(e[3], rmax)
            text &= bool(row["is_text"])
    keys = sorted(acc)
    if int_keys:
        out: dict = {"value": pa.array(keys, type=pa.int64())}
    else:
        out = {
            "value": pa.array([k.decode() for k in keys], type=pa.string())
            if text
            else pa.array(keys, type=pa.large_binary())
        }
    out["n_rows"] = pa.array(
        [acc[k]["n_rows"] for k in keys], type=pa.int64()
    )
    for c, cops in aggs.items():
        t = pa.float64() if c in float_cols else pa.int64()
        if "sum" in cops:
            if c not in float_cols:
                for k in keys:
                    if not -(1 << 63) <= acc[k][c][1] < (1 << 63):
                        raise OverflowError(
                            f"group sum of {c!r} exceeds int64 for key {k!r}"
                        )
            out[f"sum_{c}"] = pa.array([acc[k][c][1] for k in keys], type=t)
        if "min" in cops:
            out[f"min_{c}"] = pa.array([acc[k][c][2] for k in keys], type=t)
        if "max" in cops:
            out[f"max_{c}"] = pa.array([acc[k][c][3] for k in keys], type=t)
        if "count" in cops:
            out[f"count_{c}"] = pa.array(
                [acc[k][c][0] for k in keys], type=pa.int64()
            )
    return pa.table(out)


def columnar_group_agg_ds(
    enc_ds,
    group_col: str,
    agg_col: str | None = None,
    ops=("count", "sum", "min", "max"),
    preds=None,
    engine: str = "auto",
    bucket: int | None = None,
    int_keys: bool | None = None,
):
    """The UNBOUNDED-cardinality fold of columnar_group_agg: per-batch
    compressed-domain partials (one row per group per batch) shuffle ONCE
    through ``groupby(key)`` and merge exactly inside ``map_groups`` —
    the driver never holds the key space, so ``GROUP BY user_id`` over
    100 TB streams. Returns a Dataset of (value, requested aggregates);
    sums merge through python ints off the decimal128 partials, so no
    combiner overflow at any row count (still raising past int64 in the
    final value). Prefer columnar_group_agg when cardinality is small —
    this path pays an all-to-all shuffle."""
    parts = enc_ds.map_batches(
        group_agg_part(group_col, agg_col, preds, engine, bucket),
        batch_format="pyarrow",
    )
    # callers that know the key kind (the store tier probes the envelope
    # type code) skip the schema() peek, which would execute the partial
    # pipeline once just to read a column name
    key = (
        ("ivalue" if int_keys else "value")
        if int_keys is not None
        else ("ivalue" if "ivalue" in parts.schema().names else "value")
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        """Vectorized multi-key merge of ONE coarse bucket's partials —
        Arrow's C++ hash aggregate folds every key at once (decimal128
        sums stay exact; 38 digits of headroom over int64 partials), so
        per-group Python cost is O(buckets), never O(#keys)."""
        flt = "fsum" in g.column_names
        scol = "fsum" if flt else "vsum"
        mincol = "fmin" if flt else "vmin"
        maxcol = "fmax" if flt else "vmax"
        keys = [key] if key == "ivalue" else [key, "is_text"]
        gb = g.group_by(keys).aggregate(
            [
                ("n_rows", "sum"),
                (scol, "sum"),
                (mincol, "min"),
                (maxcol, "max"),
            ]
        )
        if key == "ivalue":
            val = gb["ivalue"].cast(pa.int64())
        else:
            txt = gb["is_text"]
            if isinstance(txt, pa.ChunkedArray):
                txt = txt.combine_chunks()
            bv = gb["value"]
            if isinstance(bv, pa.ChunkedArray):
                bv = bv.combine_chunks()
            # a partial stream is all-text or all-binary for one column
            val = (
                bv.cast(pa.string())
                if txt.to_numpy(zero_copy_only=False).all()
                else bv
            )
        cols: dict = {"value": val}
        agg_t = pa.float64() if flt else pa.int64()
        if "count" in ops:
            cols["n_rows"] = gb["n_rows_sum"].cast(pa.int64())
        if agg_col is not None and "sum" in ops:
            s = gb[f"{scol}_sum"]
            if not flt:
                # exact decimal128 totals; the int64 contract still holds
                lo, hi = pa.scalar(-(1 << 63), s.type), pa.scalar(
                    (1 << 63) - 1, s.type
                )
                import pyarrow.compute as pc

                bad = pc.or_(pc.less(s, lo), pc.greater(s, hi))
                if pc.any(bad).as_py():
                    raise OverflowError(
                        f"group sum of {agg_col!r} exceeds int64"
                    )
            cols["vsum"] = s.cast(agg_t)
        if agg_col is not None and "min" in ops:
            cols["vmin"] = gb[f"{mincol}_min"].cast(agg_t)
        if agg_col is not None and "max" in ops:
            cols["vmax"] = gb[f"{maxcol}_max"].cast(agg_t)
        return pa.table(cols)

    from ..functions.bucketed import bucketed_group_kernel

    return bucketed_group_kernel(parts, key, merge_bucket)


def distinct_scan_batch(batch: pa.Table, column: str) -> pa.Table:
    """Per-batch DISTINCT partial over an encoded column. String columns
    go through the dictionary path (_group_codes — only referenced,
    non-null entries emit; a strdict block touches O(distinct) strings);
    int columns np.unique their (cached) block streams. One row per
    distinct value per batch."""
    if batch.num_rows == 0:
        return pa.table(
            {
                "value": pa.array([], type=pa.large_binary()),
                "is_text": pa.array([], type=pa.bool_()),
            }
        )
    probe = bytes(batch[f"{column}__blk"][0].as_py())[:2]
    tc = probe[1] if len(probe) == 2 else -1
    if tc in _STR_FAMILY:
        codes, keys, is_text = _group_codes(batch, column)
        seen = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(keys)))
        return pa.table(
            {
                "value": pa.array([keys[g] for g in seen], pa.large_binary()),
                "is_text": pa.array([is_text] * len(seen), pa.bool_()),
            }
        )
    vals, ok = _int_values(batch, column)
    uniq = np.unique(vals[ok])
    return pa.table({"ivalue": pa.array(uniq, type=pa.int64())})


def columnar_distinct_ds(enc_ds, column: str, int_keys: bool | None = None):
    """Unbounded-cardinality DISTINCT: per-batch partials (dictionary
    entries / per-batch uniques) dedupe through ONE groupby shuffle —
    the driver never holds the value set. Returns a Dataset with a
    single ``value`` column (utf-8 for text, large_binary for binary,
    int64 for ints)."""

    def first_bucket(g: pa.Table) -> pa.Table:
        """Vectorized multi-key dedupe of one coarse bucket — Arrow's
        hash-distinct, not one Python call per distinct value."""
        if "ivalue" in g.column_names:
            iv = g["ivalue"]
            if isinstance(iv, pa.ChunkedArray):
                iv = iv.combine_chunks()
            return pa.table(
                {"value": iv.unique().cast(pa.int64())}
            )
        gb = g.group_by(["value", "is_text"]).aggregate([])
        bv = gb["value"]
        if isinstance(bv, pa.ChunkedArray):
            bv = bv.combine_chunks()
        txt = gb["is_text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        if len(txt) and txt.to_numpy(zero_copy_only=False).all():
            return pa.table({"value": bv.cast(pa.string())})
        return pa.table({"value": bv})

    parts = enc_ds.map_batches(
        lambda t: distinct_scan_batch(t, column), batch_format="pyarrow"
    )
    key = (
        ("ivalue" if int_keys else "value")
        if int_keys is not None
        else ("ivalue" if "ivalue" in parts.schema().names else "value")
    )
    from ..functions.bucketed import bucketed_group_kernel

    return bucketed_group_kernel(parts, key, first_bucket)


def fold_distinct(partials, column: str) -> pa.Table:
    """Driver fold of distinct_scan_batch partial tables (any iterable — a
    Dataset's batches or in-process per-part outputs; each bounded by
    per-batch cardinality) into one sorted ``value`` column — strings
    never materialize beyond dictionary entries, ints never ship more
    than each batch's unique set."""
    svals: set[bytes] = set()
    ivals: set[int] = set()
    text = True
    for b in partials:
        if "ivalue" in b.column_names:
            ivals.update(b["ivalue"].to_pylist())
        else:
            svals.update(b["value"].to_pylist())
            for t in b["is_text"].to_pylist():
                text &= bool(t)
    if ivals and svals:
        raise TypeError(f"distinct: column {column!r} mixed int/string blocks")
    if ivals:
        return pa.table(
            {"value": pa.array(sorted(ivals), type=pa.int64())}
        )
    keys = sorted(svals)
    return pa.table(
        {
            "value": pa.array([k.decode() for k in keys], type=pa.string())
            if text
            else pa.array(keys, type=pa.large_binary())
        }
    )


# ------------------------------------------------------------- datasets
def _encoded_field_names(b_or_names, columns) -> list[str]:
    names = (
        b_or_names if isinstance(b_or_names, list) else b_or_names.column_names
    )
    unknown = [c for c in columns if f"{c}__blk" not in names]
    if unknown:
        have = sorted(
            n[: -len("__blk")] for n in names if n.endswith("__blk")
        )
        raise KeyError(
            f"columnar: unknown column(s) {unknown!r}; encoded table has {have!r}"
        )
    keep = ["__rowidx"]
    for c in columns:
        for suffix in ("__blk", "__payload", "__n"):
            if f"{c}{suffix}" in names:
                keep.append(f"{c}{suffix}")
    return keep


def encode_columns_dataset(
    ds, codec_names=None, batch_size: int | None = None, spec: dict | None = None
):
    """Dataset → per-column-encoded Dataset (streaming map_batches; the
    per-block codec selection is stateless, so plain tasks suffice).
    ``spec`` (train_columnar_spec output) pins per-column choices — the
    sample-trained amortization path for 10^12-sequence jobs."""
    kw = {"batch_size": batch_size} if batch_size else {}
    return ds.map_batches(
        lambda b: encode_columns_batch(b, codec_names, spec),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **kw,
    )


def decode_columns_dataset(ds, columns=None):
    """Encoded Dataset → original columns. ``columns`` prunes BEFORE
    decode: only the selected columns' blk/payload leave the batch, so
    unwanted columns never pay their decode. (For parquet-backed encoded
    tables prefer read_decoded_columns — it prunes at the READ.)"""
    if columns is None:
        return ds.map_batches(
            decode_columns_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    return ds.map_batches(
        lambda b: decode_columns_batch(
            b.select(_encoded_field_names(b, columns))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def read_decoded_columns(path, columns, **read_kwargs):
    """Column-pruned read of a parquet-persisted encoded table: passes the
    encoded field names to read_parquet so unneeded columns never leave
    storage (north-star 'prune at the read'), then decodes."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    p = str(path)
    if not p.endswith(".parquet"):
        frags = sorted(f for f in os.listdir(p) if f.endswith(".parquet"))
        if not frags:
            raise FileNotFoundError(
                f"read_decoded_columns: no .parquet files under {p!r}"
            )
        # encode_columns_dataset writes one uniform schema across fragments,
        # so the first file's schema speaks for the table
        p = os.path.join(p, frags[0])
    names = pq.read_schema(p).names
    keep = _encoded_field_names(list(names), columns)
    ds = ray.data.read_parquet(path, columns=keep, **read_kwargs)
    return decode_columns_dataset(ds)
