"""Optional C acceleration for the FSST hot loops: symbol-table training,
encode and decode, plus the LIKE scan and integer-codec kernels.
``varint_decode`` has an SSSE3 Stream-VByte body on x86 (the build passes
``-march=native``) and a scalar loop elsewhere and as its tail;
``varint_simd`` says which one the loaded library holds.

Compiled at import time from ``fsstkern.c`` with the system C compiler into
a content-addressed ``.so`` under the temp dir (no installs, no network;
concurrent workers build to a pid-suffixed temp file and ``os.replace`` it
atomically). When the build or load fails, ``lib`` is None, ``build_error``
says why, a RuntimeWarning is issued once per process, and callers such as
:mod:`fsst_like_ray.fsstlib` run their pure-NumPy path — both paths produce
bit-identical output (asserted in tests/test_native.py).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

import numpy as np

_SRC = os.path.join(os.path.dirname(__file__), "fsstkern.c")


def _build():
    with open(_SRC, "rb") as f:
        src = f.read()
    tag = hashlib.sha256(src).hexdigest()[:16]
    so = os.path.join(tempfile.gettempdir(), f"fsstkern_{tag}.so")
    if not os.path.exists(so):
        tmp = f"{so}.{os.getpid()}.tmp"
        subprocess.run(
            ["cc", "-O3", "-march=native", "-shared", "-fPIC", "-o", tmp, _SRC],
            check=True,
            capture_output=True,
        )
        os.replace(tmp, so)
    l = ctypes.CDLL(so)
    l.fsst_encode.restype = ctypes.c_int64
    l.fsst_encode.argtypes = (
        [ctypes.c_void_p] * 2
        + [ctypes.c_int64]
        + [ctypes.c_void_p] * 3
        + [ctypes.c_int64]
        + [ctypes.c_void_p] * 8
    )
    l.fsst_decode.restype = ctypes.c_int64
    l.fsst_decode.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    l.fsst_train.restype = ctypes.c_int64
    l.fsst_train.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                             ctypes.c_int, ctypes.c_int, ctypes.c_void_p,
                             ctypes.c_void_p]
    l.pack_rows.restype = None
    l.pack_rows.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                            ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
    l.unpack_rows.restype = None
    l.unpack_rows.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_void_p, ctypes.c_int64, ctypes.c_int,
                              ctypes.c_void_p]
    l.dict_unique.restype = ctypes.c_long
    l.dict_unique.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_int64, ctypes.c_void_p,
                              ctypes.c_void_p]
    l.like_prefilter.restype = None
    l.like_prefilter.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_int64, ctypes.c_void_p,
                                 ctypes.c_void_p, ctypes.c_int,
                                 ctypes.c_void_p]
    l.kmp_scan.restype = None
    l.kmp_scan.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                           ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int32,
                           ctypes.c_void_p]
    l.seg_scatter.restype = None
    l.seg_scatter.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64,
                                                      ctypes.c_void_p]
    l.seg_gather.restype = None
    l.seg_gather.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64,
                                                     ctypes.c_void_p]
    l.varint_layout.restype = ctypes.c_int64
    l.varint_layout.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_void_p]
    l.varint_encode.restype = None
    l.varint_encode.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_void_p]
    l.stream_stats.restype = ctypes.c_int
    l.stream_stats.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                               ctypes.c_int64] + [ctypes.c_void_p] * 3
    l.varint_decode.restype = None
    l.varint_decode.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_void_p]
    l.varint_simd.restype = ctypes.c_int
    l.varint_simd.argtypes = []
    l.meta_kmp_scan.restype = None
    l.meta_kmp_scan.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int, ctypes.c_void_p,
                                ctypes.c_void_p]
    l.anchored_scan.restype = None
    l.anchored_scan.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_int32, ctypes.c_int,
                                ctypes.c_void_p]
    l.poly_rowhash_u32.restype = None
    l.poly_rowhash_u32.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.c_int64, ctypes.c_void_p]
    return l


lib = None
build_error: str | None = None  # why ``lib`` is None; None once it loaded
varint_simd = False  # the loaded varint_decode has the SSSE3 body
_warned = False


def _load() -> None:
    """Build and load the kernels into ``lib``. On failure (no compiler,
    a compile error, a sandbox that forbids exec or dlopen) ``lib`` stays
    None, ``build_error`` keeps the reason, and the first failure in the
    process warns that the slower NumPy fallback is running."""
    global lib, build_error, varint_simd, _warned
    try:
        lib, build_error = _build(), None
        varint_simd = bool(lib.varint_simd())
    except (OSError, subprocess.CalledProcessError, AttributeError) as e:
        lib, varint_simd = None, False
        build_error = f"{type(e).__name__}: {e}"
        stderr = getattr(e, "stderr", None)
        if stderr:
            build_error += "\n" + stderr.decode(errors="replace").strip()
        if not _warned:
            _warned = True
            warnings.warn(
                "fsst_like_ray.native: C kernels unavailable, running the "
                f"NumPy fallback: {build_error}",
                RuntimeWarning,
                stacklevel=2,
            )


_load()


def _ptr(a: np.ndarray):
    return ctypes.c_void_p(a.ctypes.data)


def _prep(table):
    """C-ready lookup arrays for a SymbolTable (cheap: ≤255 symbols): the
    len-1 code table, then the ≥3-byte symbols grouped by 3-byte-prefix id
    (their prefix's index in ``long_prefixes``, as ``lut3`` maps it),
    longest first — group pid is ``[pfx_start[pid], pfx_start[pid + 1])``."""
    len1 = np.full(256, 255, dtype=np.uint8)
    if 1 in table.keys_by_len:
        len1[table.keys_by_len[1].astype(np.int64)] = table.codes_by_len[1]
    lengths = [l for l in sorted(table.keys_by_len) if l >= 3]
    grams = np.concatenate(
        [table.keys_by_len[l] for l in lengths] + [np.zeros(0, np.uint64)]
    )
    codes = np.concatenate(
        [table.codes_by_len[l] for l in lengths] + [np.zeros(0, np.uint8)]
    )
    lens = np.concatenate(
        [np.full(len(table.keys_by_len[l]), l, np.int64) for l in lengths]
        + [np.zeros(0, np.int64)]
    )
    pids = np.searchsorted(table.long_prefixes, grams & np.uint64(0xFFFFFF))
    order = np.lexsort((-lens, pids))
    pfx_start = np.searchsorted(
        pids[order], np.arange(len(table.long_prefixes) + 1)
    ).astype(np.uint8)
    lut3 = table.lut3
    if lut3 is None:
        lut3 = np.zeros(1, dtype=np.uint8)  # has_long is False ⇒ never read
    return (
        len1, lut3, pfx_start, np.ascontiguousarray(grams[order]),
        lens[order].astype(np.uint8), np.ascontiguousarray(codes[order]),
    )


def encode(data: np.ndarray, offsets: np.ndarray, table):
    """Native twin of fsstlib.encode: (out buffer, per-row payload offsets,
    32-byte escaped-literal bitmap). The kernel's gram loads are
    tail-safe, so the batch buffer is passed as-is — no zeroed pad copy
    (2 extra passes over the batch)."""
    n = int(data.size)
    n_rows = len(offsets) - 1
    data = np.ascontiguousarray(data, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    out = np.empty(2 * n + 8, dtype=np.uint8)
    po = np.empty(n_rows + 1, dtype=np.int64)
    used = np.zeros(32, dtype=np.uint8)
    len1, lut3, pfx_start, grams, lens, codes = _prep(table)
    has_long = int(lut3.size > 1)
    total = lib.fsst_encode(
        _ptr(data), _ptr(offsets), n_rows,
        _ptr(table.short_code), _ptr(table.short_len), _ptr(len1),
        has_long, _ptr(lut3), _ptr(pfx_start),
        _ptr(grams), _ptr(lens), _ptr(codes),
        _ptr(out), _ptr(po), _ptr(used),
    )
    return out[:total], po, used.tobytes()


def decode(buf: np.ndarray, payload_offsets: np.ndarray, table,
           out_nbytes: int | None = None):
    """Native twin of fsstlib.decode: (decoded bytes, per-row offsets).

    ``out_nbytes`` (exact decoded size, when the caller knows it from row
    counts) avoids allocating the worst-case 8× bound — first-touch page
    faults on those large buffers dominated cold decode tasks. The kernel
    treats the allocation as a HARD capacity: a corrupt payload that would
    expand past it stops with -1 instead of overflowing the heap."""
    n = int(buf.size)
    n_rows = len(payload_offsets) - 1
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    po = np.ascontiguousarray(payload_offsets, dtype=np.int64)
    # reference decode bound: 8 * compressed + 32 (src/FsstWrapper.hpp:56)
    size = (out_nbytes + 8) if out_nbytes is not None else (8 * n + 32)
    out = np.empty(size, dtype=np.uint8)
    ro = np.empty(n_rows + 1, dtype=np.int64)
    total = lib.fsst_decode(
        _ptr(buf), _ptr(po), n_rows,
        _ptr(table.sym_bytes), _ptr(table.sym_lens_u8),
        _ptr(out), size, _ptr(ro),
    )
    if total < 0:
        raise ValueError(
            "fsst decode: payload expands past the expected output size "
            "(corrupt payload or wrong row counts)"
        )
    return out[:total], ro


def pack_rows(values_u32, offsets, width, payload_offsets, total_bytes):
    """Native bit pack; caller supplies precomputed row payload offsets."""
    vals = np.ascontiguousarray(values_u32, dtype=np.uint32)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    po = np.ascontiguousarray(payload_offsets, dtype=np.int64)
    out = np.zeros(int(total_bytes), dtype=np.uint8)
    lib.pack_rows(_ptr(vals), _ptr(off), len(off) - 1, int(width),
                  _ptr(out), _ptr(po))
    return out


def unpack_rows(buf, payload_offsets, offsets, width, n_values):
    vals = np.empty(int(n_values), dtype=np.uint32)
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    po = np.ascontiguousarray(payload_offsets, dtype=np.int64)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    lib.unpack_rows(_ptr(b), _ptr(po), _ptr(off), len(off) - 1, int(width),
                    _ptr(vals))
    return vals


def seg_scatter(buf, dst_base, seg_nbytes, src):
    db = np.ascontiguousarray(dst_base, dtype=np.int64)
    nb = np.ascontiguousarray(seg_nbytes, dtype=np.int64)
    s = np.ascontiguousarray(src, dtype=np.uint8)
    lib.seg_scatter(_ptr(buf), _ptr(db), _ptr(nb), len(nb), _ptr(s))


def seg_gather(buf, src_base, seg_nbytes, total):
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    sb = np.ascontiguousarray(src_base, dtype=np.int64)
    nb = np.ascontiguousarray(seg_nbytes, dtype=np.int64)
    out = np.empty(int(total), dtype=np.uint8)
    lib.seg_gather(_ptr(b), _ptr(sb), _ptr(nb), len(nb), _ptr(out))
    return out


def varint_encode(values_u32, offsets):
    """Native Stream-VByte pack → (buf, per-row payload offsets): a
    counting pass lays the rows out, then the fill writes every byte."""
    vals = np.ascontiguousarray(values_u32, dtype=np.uint32)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    n_rows = len(off) - 1
    po = np.empty(n_rows + 1, dtype=np.int64)
    total = lib.varint_layout(_ptr(vals), _ptr(off), n_rows, _ptr(po))
    out = np.empty(total + 3, dtype=np.uint8)  # + the fill's store slack
    lib.varint_encode(_ptr(vals), _ptr(off), n_rows, _ptr(po), _ptr(out))
    return out[:total], po


N_STREAM_STATS = 15  # scalar slots of fsstkern.c stream_stats


def stream_stats(values, offsets):
    """(int64[N_STREAM_STATS] scalars, int64 runs per row, int64[33]
    bit-length histogram) of rows[values, offsets], offsets[0] being 0;
    slot meanings in fsstkern.c stream_stats."""
    v = np.ascontiguousarray(values, dtype=np.int32)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    n_rows = len(off) - 1
    out = np.empty(N_STREAM_STATS, dtype=np.int64)
    rpr = np.empty(n_rows, dtype=np.int64)
    hist = np.empty(33, dtype=np.int64)
    if lib.stream_stats(_ptr(v), _ptr(off), n_rows, _ptr(out), _ptr(rpr),
                        _ptr(hist)):
        raise MemoryError("stream_stats: out of memory")
    return out, rpr, hist


def poly_rowhash_u32(values_u32, offsets):
    """Native per-row polynomial hash (bit-identical to the NumPy
    _poly_rowhash on zero-extended uint32 values): 4 bytes read per token
    instead of the vectorized path's ~60 bytes of intermediates."""
    vals = np.ascontiguousarray(values_u32, dtype=np.uint32)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    out = np.empty(len(off) - 1, dtype=np.uint64)
    lib.poly_rowhash_u32(_ptr(vals), _ptr(off), len(off) - 1, _ptr(out))
    return out


def varint_decode(buf, payload_offsets, offsets, n_values):
    """Native Stream-VByte unpack: row r's payload at
    ``payload_offsets[r]`` decodes into ``[offsets[r], offsets[r + 1])``
    of the output."""
    vals = np.empty(int(n_values), dtype=np.uint32)
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    po = np.ascontiguousarray(payload_offsets, dtype=np.int64)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    lib.varint_decode(_ptr(b), _ptr(po), _ptr(off), len(off) - 1, _ptr(vals))
    return vals


def train(data: np.ndarray, offsets: np.ndarray, generations: int,
          max_symbols: int) -> list[bytes]:
    """Native twin of fsstlib.train's NumPy generations: the trained
    symbols in code order (see fsstkern.c fsst_train)."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(offsets) < 2:
        return []
    # the kernel reads data[offsets[0]:offsets[-1]] and counts in 32 bits
    if (
        offsets[0] < 0
        or offsets[-1] > data.size
        or offsets[-1] - offsets[0] >= 1 << 32
        or (np.diff(offsets) < 0).any()
    ):
        raise ValueError("fsst train: offsets do not partition the data")
    grams = np.zeros(max_symbols, dtype=np.uint64)
    lens = np.zeros(max_symbols, dtype=np.uint8)
    n = lib.fsst_train(
        _ptr(data), _ptr(offsets), len(offsets) - 1, generations,
        max_symbols, _ptr(grams), _ptr(lens),
    )
    if n == -2:
        raise ValueError(f"fsst train: max_symbols {max_symbols} not in 1..255")
    if n < 0:
        raise MemoryError("fsst train: out of memory")
    raw = grams[:n].tobytes()
    return [raw[8 * i : 8 * i + l] for i, l in enumerate(lens[:n].tolist())]


def like_prefilter(
    pay: np.ndarray, po: np.ndarray, comb: np.ndarray, esc_comb: np.ndarray,
    need: int,
) -> np.ndarray:
    """Native requirement-AND prefilter; see fsstkern.c like_prefilter."""
    pay = np.ascontiguousarray(pay, dtype=np.uint8)
    po = np.ascontiguousarray(po, dtype=np.int64)
    n_rows = len(po) - 1
    out = np.empty(n_rows, dtype=np.uint8)
    lib.like_prefilter(
        _ptr(pay), _ptr(po), n_rows,
        _ptr(np.ascontiguousarray(comb, dtype=np.uint8)),
        _ptr(np.ascontiguousarray(esc_comb, dtype=np.uint8)),
        int(need), _ptr(out),
    )
    return out.view(bool)


def kmp_scan(
    pay: np.ndarray, po: np.ndarray, code_delta: np.ndarray,
    char_delta: np.ndarray, m: int,
) -> np.ndarray:
    """Native lockstep-KMP contains match; see fsstkern.c kmp_scan."""
    pay = np.ascontiguousarray(pay, dtype=np.uint8)
    po = np.ascontiguousarray(po, dtype=np.int64)
    n_rows = len(po) - 1
    out = np.empty(n_rows, dtype=np.uint8)
    lib.kmp_scan(
        _ptr(pay), _ptr(po), n_rows,
        _ptr(np.ascontiguousarray(code_delta, dtype=np.int32)),
        _ptr(np.ascontiguousarray(char_delta, dtype=np.int32)),
        int(m), _ptr(out),
    )
    return out.view(bool)


def meta_kmp_scan(
    pay: np.ndarray, po: np.ndarray,
    char_d: list[np.ndarray], code_d: list[np.ndarray],
    acc: list[np.ndarray], m_of: list[int], table,
) -> np.ndarray:
    """Native ordered multi-segment KMP; see fsstkern.c meta_kmp_scan.
    Stacks the per-segment automata row-major (tab_off addresses them)."""
    pay = np.ascontiguousarray(pay, dtype=np.uint8)
    po = np.ascontiguousarray(po, dtype=np.int64)
    n_rows = len(po) - 1
    K = len(m_of)
    tab_off = np.zeros(K + 1, dtype=np.int64)
    for k in range(K):
        tab_off[k + 1] = tab_off[k] + m_of[k] + 1
    cd = np.ascontiguousarray(np.vstack(char_d), dtype=np.int32)
    kd = np.ascontiguousarray(np.vstack(code_d), dtype=np.int32)
    ac = np.ascontiguousarray(np.vstack(acc), dtype=np.int32)
    mo = np.ascontiguousarray(np.asarray(m_of), dtype=np.int32)
    out = np.empty(n_rows, dtype=np.uint8)
    lib.meta_kmp_scan(
        _ptr(pay), _ptr(po), n_rows, _ptr(cd), _ptr(kd), _ptr(ac),
        _ptr(tab_off), _ptr(mo), K,
        _ptr(table.sym_bytes), _ptr(table.sym_lens_u8), _ptr(out),
    )
    return out.view(bool)


def anchored_scan(
    pay: np.ndarray, po: np.ndarray, table, needle: bytes, from_end: bool,
) -> np.ndarray:
    """Native anchored `p%` / `%p` unit walk; see fsstkern.c anchored_scan."""
    pay = np.ascontiguousarray(pay, dtype=np.uint8)
    po = np.ascontiguousarray(po, dtype=np.int64)
    n_rows = len(po) - 1
    nd = np.frombuffer(needle, dtype=np.uint8)
    out = np.empty(n_rows, dtype=np.uint8)
    lib.anchored_scan(
        _ptr(pay), _ptr(po), n_rows,
        _ptr(table.sym_bytes), _ptr(table.sym_lens_u8),
        _ptr(nd), len(nd), int(from_end), _ptr(out),
    )
    return out.view(bool)


def dict_unique_inverse(values: np.ndarray):
    """(sorted unique int32 array, uint32 codes into it) — the dict
    codec's np.unique(return_inverse=True) replaced by one O(n) C hash
    pass; only the SMALL unique array is sorted (u log u) and codes are
    remapped with one gather. Bit-identical to the NumPy contract."""
    v = np.ascontiguousarray(values, dtype=np.int32)
    n = int(v.size)
    if n == 0:
        return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint32)
    cap = 1 << max(int(n * 2 - 1).bit_length(), 4)
    ht_keys = np.empty(cap, dtype=np.int32)
    ht_codes = np.full(cap, -1, dtype=np.int32)
    uniq = np.empty(n, dtype=np.int32)
    codes = np.empty(n, dtype=np.int32)
    u = lib.dict_unique(
        _ptr(v), n, _ptr(ht_keys), _ptr(ht_codes), cap, _ptr(uniq),
        _ptr(codes),
    )
    uniq = uniq[:u]
    order = np.argsort(uniq, kind="stable")
    rank = np.empty(u, dtype=np.uint32)
    rank[order] = np.arange(u, dtype=np.uint32)
    return uniq[order], rank[codes]
