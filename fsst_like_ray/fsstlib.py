"""From-scratch FSST-style symbol-table compression over byte strings.

Public-knowledge algorithm (FSST, Boncz/Neumann/Leis VLDB'20): learn ≤255
symbols of ≤8 bytes via iterative sample→parse→count→merge generations; encode
greedily longest-match-first with code 255 as a 2-byte escape for bytes no
symbol covers; decode is pure table expansion. Format constants mirror the
reference (≤255 symbols × ≤8 B, escape literal = 2 B — reference:
sketch.cc:95, src/FsstWrapper.cpp:131-136).

Training, encode and decode run in the C kernels of
:mod:`fsst_like_ray.native` when they load (training is one native call
covering every generation). This module keeps a vectorized NumPy
implementation of all three as the fallback and as the reference the
kernels are tested against, bit for bit:

- match lengths for all positions at once via sliding 8-byte little-endian
  grams + per-length sorted-key binary search;
- the greedy parse walks all segments in lockstep (rows are split into ≤256-byte
  segments, so the Python loop runs ≤ ~260 iterations per batch regardless of
  batch size, with NumPy doing O(total emitted) work);
- decode classifies escape/literal/code positions with run-parity analysis on
  255-runs, then scatters symbol bytes with fancy indexing.

Rows are independently decodable (parse state never crosses a row boundary),
mirroring the reference's block model (src/BenchmarkDriver.cpp:100-101,
sketch.cc:770-785).
"""

from __future__ import annotations

import functools as _functools

import numpy as np

ESCAPE = 255
MAX_SYMBOLS = 255  # codes 0..254; 255 is the escape marker
MAX_SYMBOL_LEN = 8
SEGMENT = 256  # greedy parse restarts every SEGMENT bytes within a row
TRAIN_GENERATIONS = 5


class SymbolTable:
    """A trained FSST symbol table with lookup structures for encode + decode."""

    __slots__ = (
        "symbols",
        "sym_bytes",
        "sym_lens",
        "sym_lens_u8",
        "keys_by_len",
        "codes_by_len",
        "short_code",
        "short_len",
        "long_prefixes",
        "prefix_has_len",
        "_p3_positions",
        "cache_key",
    )

    @property
    def lut3(self):
        """Direct-address 2^24 table: 3-byte prefix → prefix id + 1 (0 = no
        long symbol). One shared process-level buffer, re-claimed per table:
        clearing = resetting the previous owner's ≤255 entries."""
        if self._p3_positions.size == 0:
            return None
        return _claim_lut3(self)

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        n = len(symbols)
        # vectorized construction: tables are rebuilt per training
        # generation and per estimated block, so the Python-loop version
        # (≤255 × 4 passes) was a measurable slice of auto-selection CPU
        lens = np.fromiter(
            (len(s) for s in symbols), dtype=np.int64, count=n
        )
        # decode tables: (256, 8) byte matrix + lengths (code 255 unused)
        self.sym_bytes = np.zeros((256, MAX_SYMBOL_LEN), dtype=np.uint8)
        self.sym_lens = np.zeros(256, dtype=np.int64)
        if n:
            joined = np.frombuffer(b"".join(symbols), dtype=np.uint8)
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            rows = np.repeat(np.arange(n, dtype=np.int64), lens)
            cols = np.arange(len(joined), dtype=np.int64) - np.repeat(
                starts, lens
            )
            self.sym_bytes[rows, cols] = joined
            self.sym_lens[:n] = lens
        self.sym_lens_u8 = self.sym_lens.astype(np.uint8)
        # little-endian gram of each symbol from the padded byte matrix
        shifts = (np.arange(MAX_SYMBOL_LEN, dtype=np.uint64) * np.uint64(8))
        grams = (
            (self.sym_bytes[:n].astype(np.uint64) << shifts[None, :]).sum(
                axis=1, dtype=np.uint64
            )
            if n
            else np.zeros(0, dtype=np.uint64)
        )
        # encode tables: per symbol length, sorted little-endian gram keys
        self.keys_by_len: dict[int, np.ndarray] = {}
        self.codes_by_len: dict[int, np.ndarray] = {}
        if n:
            order = np.lexsort((grams, lens))
            sl, sgr = lens[order], grams[order]
            bnd = np.flatnonzero(np.diff(sl)) + 1
            for seg0, seg1 in zip(
                np.concatenate(([0], bnd)), np.concatenate((bnd, [n]))
            ):
                l = int(sl[seg0])
                self.keys_by_len[l] = sgr[seg0:seg1]
                self.codes_by_len[l] = order[seg0:seg1].astype(np.uint8)
        # O(1) short-symbol lookup on the first 2 bytes (g2 = b0 + 256*b1):
        # len-1 symbols fill their whole [*, b0] column — so every row b1 is
        # the same 256-entry row, tiled — and len-2 overwrite exact cells →
        # one gather resolves the longest 1-2 byte match
        code_row = np.full(256, ESCAPE, dtype=np.uint8)
        len_row = np.zeros(256, dtype=np.uint8)
        one = np.flatnonzero(lens == 1)  # distinct symbols → distinct bytes
        code_row[self.sym_bytes[one, 0]] = one
        len_row[self.sym_bytes[one, 0]] = 1
        self.short_code = np.tile(code_row, 256)
        self.short_len = np.tile(len_row, 256)
        two = np.flatnonzero(lens == 2)
        g2 = self.sym_bytes[two, 0] + 256 * self.sym_bytes[two, 1].astype(
            np.int64
        )
        self.short_code[g2] = two
        self.short_len[g2] = 2
        # distinct 3-byte prefixes of symbols of length ≥3 — the candidate
        # filter for long matches. lut3 is a direct-address 2^24 byte table
        # (prefix → prefix id + 1, 0 = no long symbol): one gather replaces a
        # binary search over every position. prefix_has_len[l][pid] marks
        # which symbol lengths exist under each prefix.
        lng = np.flatnonzero(lens >= 3)
        pref = grams[lng] & np.uint64(0xFFFFFF)
        p3, pidx_of = np.unique(pref, return_inverse=True)
        self.long_prefixes = p3
        self.prefix_has_len = np.zeros(
            (MAX_SYMBOL_LEN + 1, len(p3)), dtype=bool
        )
        if lng.size:
            self.prefix_has_len[lens[lng], pidx_of] = True
        # lut3 itself is process-level scratch, claimed lazily on first use —
        # a fresh 16 MB allocation per table (tables are built per training
        # generation and per batch) would thrash the allocator
        self._p3_positions = np.array(p3, dtype=np.int64)
        # set by cached_table: the serialized blob, used by matcher-state
        # LRUs to key structures derived from (table, pattern)
        self.cache_key: bytes | None = None

    # -- serialization (reference analog: SerializeDecoder/DeserializeDecoder,
    #    src/FsstWrapper.cpp:67-109) --
    def serialize(self) -> bytes:
        lens = bytes(len(s) for s in self.symbols)
        return bytes([len(self.symbols)]) + lens + b"".join(self.symbols)

    @classmethod
    def deserialize(cls, blob: bytes) -> "SymbolTable":
        n = blob[0]
        lens = blob[1 : 1 + n]
        out, off = [], 1 + n
        for l in lens:
            out.append(blob[off : off + l])
            off += l
        return cls(out)


@_functools.lru_cache(maxsize=128)
def cached_table(state: bytes) -> SymbolTable:
    """Deserialize-with-LRU: distinct symbol tables repeat across the batches
    of one corpus (one table per encode block), but rebuilding the lookup
    structures costs ~2 ms per table — per BATCH per operator without this
    cache. Keyed by the serialized blob; ~150 KB per cached table. The
    returned table carries ``cache_key`` so matcher-state caches
    (engines._position_code_sets etc.) can key derived structures on
    (table, pattern) without re-hashing."""
    t = SymbolTable.deserialize(state)
    t.cache_key = state
    return t


_LUT3_BUF: np.ndarray | None = None
_LUT3_OWNER_POSITIONS: np.ndarray | None = None


def _claim_lut3(table: "SymbolTable") -> np.ndarray:
    global _LUT3_BUF, _LUT3_OWNER_POSITIONS
    pos = table._p3_positions
    if _LUT3_BUF is None:
        _LUT3_BUF = np.zeros(1 << 24, dtype=np.uint8)
    elif _LUT3_OWNER_POSITIONS is pos:
        return _LUT3_BUF
    elif _LUT3_OWNER_POSITIONS is not None:
        _LUT3_BUF[_LUT3_OWNER_POSITIONS] = 0
    _LUT3_BUF[pos] = np.arange(len(pos), dtype=np.uint8) + 1
    _LUT3_OWNER_POSITIONS = pos
    return _LUT3_BUF


def _grams8(data: np.ndarray) -> np.ndarray:
    """Little-endian uint64 of data[p:p+8] for every position (zero-padded)."""
    n = int(data.size)
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = data
    try:
        g = np.ndarray(shape=(n,), dtype="<u8", buffer=padded.data, strides=(1,))
        return np.ascontiguousarray(g)
    except Exception:
        w = np.lib.stride_tricks.sliding_window_view(padded, 8)[:n].astype(np.uint64)
        shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))[None, :]
        return (w << shifts).sum(axis=1, dtype=np.uint64)


def _lookup_long(table, g8, cand, pids, m_loc, c_loc, max_len=MAX_SYMBOL_LEN):
    """Longest ≥3-byte symbol match at candidate positions.

    ``cand`` are global positions; ``pids`` their 3-byte-prefix index in
    ``long_prefixes`` (only lengths existing under that prefix are searched);
    ``m_loc``/``c_loc`` are in/out arrays parallel to ``cand``."""
    for l in sorted((x for x in table.keys_by_len if 3 <= x <= max_len), reverse=True):
        keys = table.keys_by_len[l]
        codes = table.codes_by_len[l]
        sel = np.flatnonzero(table.prefix_has_len[l][pids] & (m_loc < l))
        if sel.size == 0:
            continue
        mask = np.uint64((1 << (8 * l)) - 1) if l < 8 else np.uint64(0xFFFFFFFFFFFFFFFF)
        gl = g8[cand[sel]] & mask
        i = np.searchsorted(keys, gl)
        np.minimum(i, len(keys) - 1, out=i)
        hit = keys[i] == gl
        hp = sel[hit]
        m_loc[hp] = l
        c_loc[hp] = codes[i[hit]]


def _match_table(
    data: np.ndarray,
    table: SymbolTable,
    seg_starts: np.ndarray,
    seg_ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest-symbol match length + code for every position (0 = escape).

    Matches never cross a segment end (segment ends include all row ends).
    Reference analog (scalar): FindLongestSymbol, src/FsstWrapper.cpp:196-230;
    the two-level short-code table + long-prefix filter mirrors the public
    FSST encoder's shortCodes/hash-table split, re-expressed as NumPy gathers.
    """
    n = int(data.size)
    if n == 0 or not table.symbols:
        return np.zeros(n, dtype=np.uint8), np.full(n, ESCAPE, dtype=np.uint8)
    g8 = _grams8(data)
    # 1-2 byte matches: truncating astype IS the &0xFFFF mask (little-endian)
    g2 = g8.astype(np.uint16)
    m = table.short_len[g2]  # uint8 throughout — lengths are ≤8
    code = table.short_code[g2].copy()
    del g2
    # ≥3-byte matches: one direct-address gather finds candidate positions
    if table.lut3 is not None:
        g3 = np.bitwise_and(g8, np.uint64(0xFFFFFF)).astype(np.int32)
        pid1 = table.lut3[g3]
        del g3
        cand = np.flatnonzero(pid1)
        if cand.size:
            pids = pid1[cand].astype(np.int64) - 1
            del pid1
            m_loc = m[cand]
            c_loc = code[cand]
            _lookup_long(table, g8, cand, pids, m_loc, c_loc)
            m[cand] = m_loc
            code[cand] = c_loc
    # boundary fixup: the last ≤7 bytes of each segment must not match past
    # the segment end — recompute with the length cap there
    seg_len = seg_ends - seg_starts
    tail = np.minimum(seg_len, MAX_SYMBOL_LEN - 1)
    tot = int(tail.sum())
    if tot:
        wi = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(tail) - tail, tail)
        bp = np.repeat(seg_ends - tail, tail) + wi
        rem = np.repeat(seg_ends, tail) - bp  # 1..7
        bad = m[bp] > rem
        fix = bp[bad]
        if fix.size:
            fr = rem[bad]
            fm = np.zeros(len(fix), dtype=np.int64)
            fc = np.full(len(fix), ESCAPE, dtype=np.uint8)
            # short matches under the cap
            g2f = np.bitwise_and(g8[fix], np.uint64(0xFFFF)).astype(np.int32)
            sl = table.short_len[g2f].astype(np.int64)
            sc = table.short_code[g2f]
            ok = sl <= fr
            fm[ok] = sl[ok]
            fc[ok] = sc[ok]
            # rem==1 but short gave len-2: check the len-1 table explicitly
            need1 = (~ok) & (fr >= 1)
            if need1.any() and 1 in table.keys_by_len:
                keys = table.keys_by_len[1]
                codes = table.codes_by_len[1]
                b0 = np.bitwise_and(g8[fix[need1]], np.uint64(0xFF))
                j = np.searchsorted(keys, b0)
                np.minimum(j, len(keys) - 1, out=j)
                hit = keys[j] == b0
                tgt = np.flatnonzero(need1)[hit]
                fm[tgt] = 1
                fc[tgt] = codes[j[hit]]
            # long matches with length ≤ rem, per distinct cap value
            if table.lut3 is not None:
                g3f = np.bitwise_and(g8[fix], np.uint64(0xFFFFFF)).astype(np.int32)
                j1 = table.lut3[g3f]
                phit = j1 > 0
                j = j1.astype(np.int64) - 1
                for cap in np.unique(fr[phit]):
                    if cap < 3:
                        continue
                    sel = np.flatnonzero(phit & (fr == cap))
                    local_m = fm[sel].copy()
                    local_c = fc[sel].copy()
                    _lookup_long(
                        table, g8, fix[sel], j[sel], local_m, local_c,
                        max_len=int(cap),
                    )
                    fm[sel] = local_m
                    fc[sel] = local_c
            m[fix] = fm
            code[fix] = fc
    return m, code


def _segments(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split rows into ≤SEGMENT-byte parse segments (row bounds always split)."""
    counts = np.diff(offsets)
    nseg = (counts + SEGMENT - 1) // SEGMENT
    nseg = np.maximum(nseg, 0)
    total = int(nseg.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    row_of_seg = np.repeat(np.arange(len(counts)), nseg)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(nseg) - nseg, nseg
    )
    starts = offsets[:-1][row_of_seg] + within * SEGMENT
    ends = np.minimum(starts + SEGMENT, offsets[1:][row_of_seg])
    return starts, ends


def _parse(
    data: np.ndarray, offsets: np.ndarray, table: SymbolTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy parse of every row. Returns (emitted positions ascending, match
    length per emitted position (0 = escape), code per emitted position)."""
    n = int(data.size)
    seg_starts, seg_ends = _segments(offsets)
    m, code = _match_table(data, table, seg_starts, seg_ends)
    jump = np.maximum(m, 1)

    visited = np.zeros(n, dtype=bool)
    cur = seg_starts.copy()
    ends = seg_ends
    idx = np.flatnonzero(cur < ends)
    while idx.size:
        p = cur[idx]
        visited[p] = True
        p2 = p + jump[p]
        cur[idx] = p2
        idx = idx[p2 < ends[idx]]
    pos = np.flatnonzero(visited)
    return pos, m[pos], code[pos]


def encode(
    data: np.ndarray, offsets: np.ndarray, table: SymbolTable
) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Encode rows of ``data`` (uint8, rows per ``offsets``). Returns
    (encoded buffer, per-row payload offsets, escaped-literal bitmap):
    the bitmap is the 32-byte ``used_chars`` statistic of the whole
    output (see escaped_literal_bitmap), gathered while encoding.

    Dispatches to the C kernel when available (bit-identical output,
    asserted in tests); the NumPy path below is the portable fallback."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    from . import native

    if native.lib is not None:
        return native.encode(data, np.ascontiguousarray(offsets, np.int64), table)
    pos, ml, code = _parse(data, offsets, table)
    esc = ml == 0
    out_len = np.where(esc, 2, 1).astype(np.int64)
    out_off = np.zeros(len(pos) + 1, dtype=np.int64)
    np.cumsum(out_len, out=out_off[1:])
    out = np.empty(int(out_off[-1]), dtype=np.uint8)
    out[out_off[:-1][~esc]] = code[~esc]
    ep = out_off[:-1][esc]
    lits = data[pos[esc]]
    out[ep] = ESCAPE
    out[ep + 1] = lits
    used = np.packbits(np.bincount(lits, minlength=256) > 0, bitorder="little")
    # per-row payload sizes: emitted positions are ascending, so the cumulative
    # output length at each row's first emitted position gives the offsets —
    # one searchsorted over n_rows, not over positions
    first_emit = np.searchsorted(pos, offsets)
    po = out_off[first_emit].astype(np.int64)
    return out, po, used.tobytes()


def decode(
    buf: np.ndarray,
    payload_offsets: np.ndarray,
    table: SymbolTable,
    out_nbytes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode per-row payloads back to the original bytes.

    Returns (decoded buffer, per-row byte offsets). Vectorized twin of the
    reference's streaming Iterate (src/FsstWrapper.hpp:65-161).

    Bandwidth-lean design (the decode path saturates memory at full-node
    concurrency): escape/literal/code classification is O(n) via a single
    ``maximum.accumulate`` run-start sweep + parity test — no per-run repeat
    or searchsorted — and output assembly is ≤36 per-length scatters with
    int32 indices instead of an (n, 8) mask + boolean compaction."""
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    n = int(b.size)
    n_rows = len(payload_offsets) - 1
    if n == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(n_rows + 1, dtype=np.int64)
    from . import native

    if native.lib is not None:
        return native.decode(
            b, np.ascontiguousarray(payload_offsets, np.int64), table, out_nbytes
        )

    is255 = b == ESCAPE
    idx = np.arange(n, dtype=np.int32)
    rs = payload_offsets[:-1]
    row_start = np.zeros(n, dtype=bool)
    row_start[rs[rs < n]] = True
    prev255 = np.empty(n, dtype=bool)
    prev255[0] = False
    prev255[1:] = is255[:-1]
    prev255[row_start] = False
    # most recent 255-run start at or before each position (row-reset runs)
    run_start = np.maximum.accumulate(np.where(is255 & ~prev255, idx, np.int32(-1)))
    off_in_run = idx - run_start
    esc = is255 & (off_in_run % 2 == 0)  # 255 at even offset → escape marker
    prev_esc = np.empty(n, dtype=bool)
    prev_esc[0] = False
    prev_esc[1:] = esc[:-1]
    lit = prev_esc  # byte right after an escape = the literal (255 or not)
    code_mask = ~esc & ~lit

    # output length per input byte: 0 escape, 1 literal, sym_len code.
    # int32 offsets are the bandwidth-lean common case; a group whose
    # worst-case expansion (8×payload) could cross 2 GiB gets int64 — a
    # silent cumsum wraparound would corrupt output, not error
    out_len = np.where(lit, np.uint8(1), np.uint8(0))
    out_len[code_mask] = table.sym_lens_u8[b[code_mask]]
    off_dtype = np.int32 if 8 * n + 8 < 2**31 else np.int64
    out_off = np.empty(n + 1, dtype=off_dtype)
    out_off[0] = 0
    np.cumsum(out_len, out=out_off[1:])
    total = int(out_off[-1])
    out = np.empty(total, dtype=np.uint8)

    lp = np.flatnonzero(lit).astype(np.int32)
    if lp.size:
        out[out_off[lp]] = b[lp]
    cp = np.flatnonzero(code_mask).astype(np.int32)
    if cp.size:
        codes = b[cp]
        lens = table.sym_lens_u8[codes]
        for l in range(1, MAX_SYMBOL_LEN + 1):
            sel = lens == l
            if not sel.any():
                continue
            p = cp[sel]
            base = out_off[p]
            cb = codes[sel]
            for k in range(l):
                out[base + k] = table.sym_bytes[cb, k]

    ro = out_off[payload_offsets].astype(np.int64)
    return out, ro


def escaped_literal_bitmap(
    buf: np.ndarray, payload_offsets: np.ndarray
) -> bytes:
    """256-bit bitmap of byte values that appear as ESCAPED LITERALS in the
    encoded stream — the reference's ``used_chars`` block statistic
    (src/BenchmarkDriver.cpp:128-137): a predicate byte no symbol covers can
    only match via an escape, so a block whose bitmap lacks it is pruned
    without touching payloads. ``encode`` returns the same bytes for what
    it encodes; this payload pass serves stores written before the fsstb
    envelope carried them."""
    b = np.ascontiguousarray(buf, dtype=np.uint8)
    n = int(b.size)
    out = np.zeros(32, dtype=np.uint8)
    if n:
        is255 = b == ESCAPE
        idx = np.arange(n, dtype=np.int32)
        rs = payload_offsets[:-1]
        row_start = np.zeros(n, dtype=bool)
        row_start[rs[rs < n]] = True
        prev255 = np.empty(n, dtype=bool)
        prev255[0] = False
        prev255[1:] = is255[:-1]
        prev255[row_start] = False
        run_start = np.maximum.accumulate(
            np.where(is255 & ~prev255, idx, np.int32(-1))
        )
        esc = is255 & ((idx - run_start) % 2 == 0)
        lit = np.zeros(n, dtype=bool)
        lit[1:] = esc[:-1]
        vals = np.unique(b[lit])
        np.bitwise_or.at(out, vals >> 3, np.uint8(1) << (vals & 7).astype(np.uint8))
    return out.tobytes()


def train(data: np.ndarray, offsets: np.ndarray) -> SymbolTable:
    """Iterative sample→parse→count→merge symbol-table construction over
    TRAIN_GENERATIONS generations, at most MAX_SYMBOLS symbols.

    Gain = count × length ("apparent gain", FSST paper §4). Candidates each
    generation: symbols/literals emitted by the current parse plus concatenations
    of adjacent emitted symbols ≤8 bytes. Fully deterministic (ties broken by
    (length, gram value)).

    Runs as one C call when the native kernels are loaded; the NumPy loop
    below is the fallback and the reference the C trainer is tested
    against (identical symbols in identical code order)."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    table = SymbolTable([])
    if data.size == 0:
        return table
    from . import native

    if native.lib is not None:
        return SymbolTable(
            native.train(data, offsets, TRAIN_GENERATIONS, MAX_SYMBOLS)
        )
    g8 = _grams8(data)
    for _gen in range(TRAIN_GENERATIONS):
        pos, ml, _code = _parse(data, offsets, table)
        eff_len = np.maximum(ml, 1)
        mask_for = lambda l: (
            np.uint64(0xFFFFFFFFFFFFFFFF)
            if l >= 8
            else np.uint64((1 << (8 * int(l))) - 1)
        )
        # single-symbol candidates (incl. escaped literals as 1-byte symbols)
        lens_arr = eff_len
        masks = np.array([mask_for(l) for l in range(0, 9)], dtype=np.uint64)
        singles_g = g8[pos] & masks[lens_arr]
        singles_l = lens_arr
        # pair candidates: positionally adjacent emitted symbols (a pair
        # may span a segment or row boundary)
        nxt_pos = pos[1:]
        cur_pos = pos[:-1]
        contig = cur_pos + eff_len[:-1] == nxt_pos
        pair_len = eff_len[:-1] + eff_len[1:]
        okp = contig & (pair_len <= MAX_SYMBOL_LEN)
        pairs_g = g8[cur_pos[okp]] & masks[pair_len[okp]]
        pairs_l = pair_len[okp]

        all_g = np.concatenate([singles_g, pairs_g])
        all_l = np.concatenate([singles_l, pairs_l]).astype(np.int64)
        # count (gram, len) pairs. Groups equal (len, gram) pairs adjacently
        # like np.lexsort((all_g, all_l)) but ~2.5× faster: one NON-stable
        # uint64 argsort (stability is irrelevant — only group counts and
        # values are consumed), then a counting-sort bucket pass over the 8
        # length values (lexsort's generic two-key merge dominated training)
        order0 = np.argsort(all_g)
        lo = all_l[order0]
        order = np.concatenate(
            [order0[lo == l] for l in range(1, MAX_SYMBOL_LEN + 1)]
        )
        sg, sl = all_g[order], all_l[order]
        new_grp = np.ones(len(sg), dtype=bool)
        new_grp[1:] = (sg[1:] != sg[:-1]) | (sl[1:] != sl[:-1])
        gidx = np.flatnonzero(new_grp)
        ug, ul = sg[gidx], sl[gidx]
        cnt = np.diff(np.append(gidx, len(sg)))
        gain = cnt * ul
        # top-N by gain, deterministic tie-break by (len, gram). Exact
        # preselect: keep every group whose gain ties-or-beats the 1024th
        # largest (nothing below can reach the top 255), then rank only
        # those — the full-width lexsort was a training hot spot
        if len(gain) > 2048:
            thresh = np.partition(gain, len(gain) - 1024)[len(gain) - 1024]
            keep = np.flatnonzero(gain >= thresh)
            ug, ul, gain = ug[keep], ul[keep], gain[keep]
        sel = np.lexsort((ug, ul, -gain))[:MAX_SYMBOLS]
        symbols = [
            int(ug[i]).to_bytes(8, "little")[: int(ul[i])] for i in sel
        ]
        table = SymbolTable(symbols)
    return table
