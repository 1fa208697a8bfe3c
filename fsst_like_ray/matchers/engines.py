"""LIKE engines over decoded and FSST-compressed text.

Mirrors the reference's engine families (SURVEY.md §2.3) with vectorized
re-designs:

- decoded path       ≅ StdFind engines (src/algos/StdFind.hpp) via
                       pyarrow.compute kernels;
- first-code prefix  ≅ StartsWithEngine (src/algos/StartsWith.hpp:28-37):
                       pattern ≥9 bytes ⇒ every matching row's first payload
                       byte is fully determined by the pattern; one vectorized
                       byte compare prunes, decode verifies survivors;
- required-code skip ≅ SkippingEngine (src/algos/Skipping.hpp:348-449):
                       per-needle-position sets of alignment-consistent
                       codes (the symbol-path set cover), ANDed over the
                       rarest positions; suffix patterns additionally prune
                       on the LAST payload unit; exact patterns compare the
                       re-encoded constant's payload bytes directly;
- lookup-KMP         ≅ CometKmpEngine + StateMachine::precompute
                       (src/algos/Comet.hpp:63-78, src/StateMachine.hpp:41-60):
                       per-(pattern × symtab) (state, code)→state table, rows
                       advanced in lockstep so the Python loop is bounded by
                       the longest payload, not total bytes.

All engines return identical row sets (oracle-tested against DuckDB LIKE).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import fsstlib
from .. import native as _native
from ..codecs.bitutil import gather_rows
from .pattern import LikePattern

ESCAPE = fsstlib.ESCAPE


def _state_cached(fn):
    """LRU for structures derived from (symbol table, needle): the same
    ~255-symbol Python rebuild ran once per BLOCK per pattern (mirroring the
    reference's per-block rebuild, Comet.hpp:26-33), but distinct tables
    repeat across the batches of one corpus. Tables that came through
    ``fsstlib.cached_table`` carry their serialized blob as ``cache_key``;
    ad-hoc tables (tests, training generations) fall through uncached.
    Cached results are read-only by contract."""
    keyed = functools.lru_cache(maxsize=512)(
        lambda key, needle, _fn=fn: _fn(fsstlib.cached_table(key), needle)
    )

    @functools.wraps(fn)
    def wrapper(table, needle):
        key = getattr(table, "cache_key", None)
        if key is None:
            return fn(table, needle)
        return keyed(key, bytes(needle))

    return wrapper


# ---------------------------------------------------------------- decoded path
def match_decoded(text: pa.Array | pa.ChunkedArray, pat: LikePattern) -> np.ndarray:
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    shape = pat.shape
    if shape == "all":
        return np.ones(len(text), dtype=bool)
    seg = pat.segments[0].decode() if pat.segments else ""
    if shape == "exact":
        m = pc.equal(text, pat.raw.replace("%", ""))
    elif shape == "prefix":
        m = pc.starts_with(text, seg)
    elif shape == "suffix":
        m = pc.ends_with(text, seg)
    elif shape == "contains":
        m = pc.match_substring(text, seg)
    else:  # multi / general — SQL LIKE semantics
        m = pc.match_like(text, pat.raw)
    return m.to_numpy(zero_copy_only=False).astype(bool)


# ------------------------------------------------------- compressed prefilters
def _payload_rows_any(hits_u8: np.ndarray, po: np.ndarray) -> np.ndarray:
    """Per-row OR over a per-byte uint8 hit array."""
    n_rows = len(po) - 1
    out = np.zeros(n_rows, dtype=bool)
    counts = np.diff(po)
    nz = counts > 0
    if nz.any():
        out[nz] = np.maximum.reduceat(hits_u8, po[:-1][nz]) > 0
    return out


@_state_cached
def _position_code_sets(
    table: fsstlib.SymbolTable, needle: bytes
) -> list[set[int]]:
    """For each needle position i, the set of codes whose symbol can produce
    needle[i] in SOME consistent alignment: symbol s placed so s[j] lands on
    position i must agree with the needle on the whole overlap (bytes of s
    outside the needle are unconstrained). Reference analog: the symbol-path
    construction of SkippingEngine (src/algos/Skipping.hpp:348-449), which
    enumerates symbols spelling the pattern including suffix-offset symbols;
    re-expressed here as per-position alignment-consistent code sets."""
    m = len(needle)
    sets: list[set[int]] = [set() for _ in range(m)]
    for code, s in enumerate(table.symbols):
        L = len(s)
        if L == 0:
            continue
        for a in range(-(L - 1), m):  # alignment: s[0] sits at needle index a
            lo, hi = max(a, 0), min(a + L, m)
            if lo >= hi:
                continue
            ok = True
            for i in range(lo, hi):
                if s[i - a] != needle[i]:
                    ok = False
                    break
            if ok:
                for i in range(lo, hi):
                    sets[i].add(code)
    return sets


def _choose_requirements(
    table: fsstlib.SymbolTable,
    needle: bytes,
    used_chars: bytes | None,
    max_positions: int = 2,
):
    """The ``max_positions`` rarest-code-set needle positions as
    (code set, escape byte or -1) requirement tuples, deduplicated.
    Returns None when some position has NO covering code and its byte is
    not in the block's escaped-literal bitmap — the whole block is pruned
    without reading payloads (reference src/BenchmarkDriver.cpp:128-137)."""
    sets = _position_code_sets(table, needle)
    esc_ok = [
        used_chars is None
        or bool(used_chars[b >> 3] & (1 << (b & 7)))
        for b in needle
    ]
    for i in range(len(needle)):
        if not sets[i] and not esc_ok[i]:
            return None
    order = sorted(range(len(needle)), key=lambda i: len(sets[i]))
    reqs: list[tuple] = []
    seen: set[tuple] = set()
    for i in order:
        if len(reqs) >= max_positions:
            break
        sig = (frozenset(sets[i]), needle[i] if esc_ok[i] else -1)
        if sig in seen:
            continue  # identical requirement adds nothing
        seen.add(sig)
        reqs.append(sig)
    return reqs


def _apply_requirements(
    pay: np.ndarray, po: np.ndarray, reqs: list[tuple]
) -> np.ndarray:
    """AND of requirement masks over the payloads. Native path: ONE LUT
    scan accumulating a per-row requirement bitmask with per-row early
    exit (fsstkern.c like_prefilter); NumPy fallback is the bit-identical
    per-requirement pass."""
    n_rows = len(po) - 1
    if not reqs:
        return np.ones(n_rows, dtype=bool)
    if _native.lib is not None and len(reqs) <= 8:
        comb = np.zeros(256, dtype=np.uint8)
        esc_comb = np.zeros(256, dtype=np.uint8)
        for bit, (codes, eb) in enumerate(reqs):
            if codes:
                comb[list(codes)] |= np.uint8(1 << bit)
            if eb >= 0:
                esc_comb[eb] |= np.uint8(1 << bit)
        return _native.like_prefilter(
            pay, po, comb, esc_comb, (1 << len(reqs)) - 1
        ).copy()
    cand = np.ones(n_rows, dtype=bool)
    for codes, eb in reqs:
        if not cand.any():
            break
        lut = np.zeros(256, dtype=np.uint8)
        if codes:
            lut[list(codes)] = 1
        c = _payload_rows_any(lut[pay], po)
        if eb >= 0:
            # escaped literal: 255 followed by the byte (conservative, no
            # parity check)
            esc = np.zeros(len(pay), dtype=np.uint8)
            if len(pay) > 1:
                esc[:-1] = (pay[:-1] == ESCAPE) & (pay[1:] == eb)
            c |= _payload_rows_any(esc, po)
        cand &= c
    return cand


def required_code_prefilter(
    pay: np.ndarray,
    po: np.ndarray,
    table: fsstlib.SymbolTable,
    needle: bytes,
    used_chars: bytes | None = None,
    max_positions: int = 2,
) -> np.ndarray:
    """Sound candidate mask: True ⇒ row MIGHT contain ``needle``.

    Every needle position must be produced by either (a) a payload code
    whose symbol covers that position in a consistent alignment
    (_position_code_sets — strictly tighter than byte-membership: a symbol
    merely CONTAINING the byte in an inconsistent context no longer keeps
    the row), or (b) that byte as an escaped literal. The masks of the
    ``max_positions`` positions with the smallest code sets are ANDed."""
    n_rows = len(po) - 1
    if not needle:
        return np.ones(n_rows, dtype=bool)
    reqs = _choose_requirements(table, needle, used_chars, max_positions)
    if reqs is None:
        return np.zeros(n_rows, dtype=bool)
    return _apply_requirements(pay, po, reqs)


# candidate-fraction cutoffs for the adaptive auto dispatch: above these,
# the prefilter prunes too little to pay for its own payload pass relative
# to the (C-kernel) decode+find path. Calibrated from engine_rank timings:
# native LUT scan ≈ dummy-walk cost (~18% of decode+find), NumPy fancy-
# indexing pass ≈ decode+find cost per requirement.
_SKIP_CUTOFF_NATIVE = 0.8
_SKIP_CUTOFF_NUMPY = 0.4
_SKIP_SAMPLE_ROWS = 512


def _segments_requirements(
    table: fsstlib.SymbolTable,
    segments: tuple[bytes, ...],
    used_chars: bytes | None,
):
    """Deduplicated requirement tuples over ALL pattern segments, or None
    when any segment is unproducible (whole block prunes)."""
    reqs: list[tuple] = []
    seen: set[tuple] = set()
    for needle in segments:
        if not needle:
            continue
        r = _choose_requirements(table, needle, used_chars)
        if r is None:
            return None
        for sig in r:
            if sig not in seen:
                seen.add(sig)
                reqs.append(sig)
    return reqs[:8]  # native bitmask width; dropping reqs only widens


def _sampled_candidate_fraction(
    pay: np.ndarray, po: np.ndarray, reqs: list[tuple]
) -> float:
    """Observed candidate fraction of the requirements on a strided row
    sample (the auto engine's cost signal)."""
    n_rows = len(po) - 1
    stride = max(1, n_rows // _SKIP_SAMPLE_ROWS)
    starts = po[:-1:stride]
    spay, spo = gather_rows(pay, starts, po[1::stride] - starts)
    return float(_apply_requirements(spay, spo, reqs).mean())


def skipping_prefilter(
    pay: np.ndarray,
    po: np.ndarray,
    table: fsstlib.SymbolTable,
    segments: tuple[bytes, ...],
    used_chars: bytes | None = None,
    adaptive: bool = False,
) -> np.ndarray:
    """Combined candidate mask over ALL pattern segments: requirements from
    every needle fold into one payload pass (native) or per-requirement
    passes (NumPy). ``adaptive=True`` (the auto engine's cost-based
    dispatch, mirroring the reference's factory-decline contract,
    src/algos/StdFind.hpp:102-135): the requirements run first on a small
    strided row sample; when the observed candidate fraction exceeds the
    path-specific cutoff the prefilter declines — returns all-True so the
    caller decode-verifies everything, which is cheaper than a full
    low-yield prefilter pass."""
    n_rows = len(po) - 1
    reqs = _segments_requirements(table, segments, used_chars)
    if reqs is None:
        return np.zeros(n_rows, dtype=bool)
    if not reqs:
        return np.ones(n_rows, dtype=bool)
    if adaptive and n_rows > 2 * _SKIP_SAMPLE_ROWS:
        frac = _sampled_candidate_fraction(pay, po, reqs)
        cutoff = (
            _SKIP_CUTOFF_NATIVE if _native.lib is not None
            else _SKIP_CUTOFF_NUMPY
        )
        if frac >= cutoff:
            return np.ones(n_rows, dtype=bool)
    return _apply_requirements(pay, po, reqs)


def exact_payload_match(
    pay: np.ndarray, po: np.ndarray, table: fsstlib.SymbolTable, const: bytes
) -> np.ndarray:
    """Exact-shape pattern (no wildcards): re-encode the constant with the
    block's table (reference: constant re-encode, FsstWrapper.cpp:124-144)
    and compare payloads byte-for-byte. Because our encoder is a
    deterministic greedy parse, a row equal to the constant encodes
    IDENTICALLY — payload equality is exact, no decode-verify needed."""
    n_rows = len(po) - 1
    data = np.frombuffer(const, dtype=np.uint8)
    buf, cpo, _used = fsstlib.encode(
        np.ascontiguousarray(data), np.array([0, len(const)], dtype=np.int64),
        table,
    )
    L = int(cpo[1])
    cand = np.flatnonzero(np.diff(po) == L)
    if cand.size == 0 or L == 0:
        out = np.zeros(n_rows, dtype=bool)
        if L == 0:
            out[np.diff(po) == 0] = True
        return out
    idx = po[cand][:, None] + np.arange(L, dtype=np.int64)[None, :]
    eq = (pay[idx] == buf[None, :L]).all(axis=1)
    out = np.zeros(n_rows, dtype=bool)
    out[cand[eq]] = True
    return out


@_state_cached
def _suffix_ok_codes(table: fsstlib.SymbolTable, suffix: bytes) -> np.ndarray:
    ok_codes = np.zeros(256, dtype=bool)
    for code, s in enumerate(table.symbols):
        L = len(s)
        if L == 0:
            continue
        t = min(L, len(suffix))
        if s[L - t :] == suffix[len(suffix) - t :]:
            ok_codes[code] = True
    return ok_codes


def last_code_prefilter(
    pay: np.ndarray, po: np.ndarray, table: fsstlib.SymbolTable, suffix: bytes
) -> np.ndarray:
    """Suffix pattern ``%p``: a matching row's LAST payload unit must be
    either a code whose symbol ends consistently with ``p``'s tail (symbol
    shorter than p ⇒ symbol == p's tail; longer ⇒ symbol's tail == p), or
    an escaped literal equal to ``p``'s last byte. The compressed-domain
    dual of the reference's first-code idea (StartsWith.hpp:28-37), which
    neither the reference nor round 1 attempted for suffixes. Conservative
    on escape parity — sound, never excludes a true match."""
    n_rows = len(po) - 1
    if not suffix:
        return np.ones(n_rows, dtype=bool)
    ok_codes = _suffix_ok_codes(table, suffix)
    counts = np.diff(po)
    cand = np.zeros(n_rows, dtype=bool)
    nz = counts > 0
    last = pay[po[1:][nz] - 1]
    c = ok_codes[last]
    # row ending in an escaped literal: [..., 255, b] (no parity check —
    # a code byte 255 cannot exist, and a false [x==255] only widens)
    two = counts[nz] > 1
    if two.any():
        idx2 = po[1:][nz][two] - 2
        c[two] |= (pay[idx2] == ESCAPE) & (last[two] == suffix[-1])
    cand[nz] = c
    return cand


def first_code_prefilter(
    pay: np.ndarray, po: np.ndarray, table: fsstlib.SymbolTable, prefix: bytes
) -> np.ndarray:
    """Prefix pattern ≥ MAX_SYMBOL_LEN+1 bytes: the first payload unit of any
    match is fully determined by greedily encoding the prefix (reference
    argument: StartsWith.hpp:12 assert). Returns a candidate mask."""
    assert len(prefix) > fsstlib.MAX_SYMBOL_LEN
    data = np.frombuffer(prefix, dtype=np.uint8)
    off = np.array([0, len(prefix)], dtype=np.int64)
    pos, ml, code = fsstlib._parse(data, off, table)
    n_rows = len(po) - 1
    counts = np.diff(po)
    first = np.full(n_rows, -1, dtype=np.int64)
    nz = counts > 0
    first[nz] = pay[po[:-1][nz]]
    if ml[0] > 0:
        return first == code[0]
    # prefix starts with an escaped literal: payload must start 255, byte
    second = np.full(n_rows, -1, dtype=np.int64)
    nz2 = counts > 1
    second[nz2] = pay[po[:-1][nz2] + 1]
    return (first == ESCAPE) & (second == data[0])


# ----------------------------------------------------------- lookup-KMP engine
@functools.lru_cache(maxsize=512)
def _kmp_char_delta(needle: bytes) -> np.ndarray:
    """(m+1, 256) byte-level KMP automaton; state m is absorbing accept.
    Classic construction (public algorithm; reference analog
    src/StateMachine.hpp:307-332 build_pi + :41-60 precompute)."""
    m = len(needle)
    delta = np.zeros((m + 1, 256), dtype=np.int32)
    delta[0, needle[0]] = 1
    # delta[s] = delta[pi] for mismatches, advance on match; pi tracks the
    # failure state incrementally
    pi = 0
    for s in range(1, m):
        delta[s] = delta[pi]
        delta[s, needle[s]] = s + 1
        pi = int(delta[pi, needle[s]])
    delta[m] = m  # absorb
    return delta


def _kmp_code_delta(
    char_delta: np.ndarray, table: fsstlib.SymbolTable
) -> np.ndarray:
    """(m+1, 256) code-level transitions: run char_delta over each symbol's
    expansion, for all states at once."""
    m1 = char_delta.shape[0]
    out = np.tile(np.arange(m1, dtype=np.int32)[:, None], (1, 256))
    for code, sym in enumerate(table.symbols):
        states = np.arange(m1, dtype=np.int32)
        for b in sym:
            states = char_delta[states, b]
        out[:, code] = states
    return out


@_state_cached
def _kmp_code_delta_for(table: fsstlib.SymbolTable, needle: bytes) -> np.ndarray:
    return _kmp_code_delta(_kmp_char_delta(needle), table)


def kmp_code_match(
    pay: np.ndarray, po: np.ndarray, table: fsstlib.SymbolTable, needle: bytes
) -> np.ndarray:
    """Exact contains-match on compressed payloads, no decode. All rows step
    one payload byte per iteration (lockstep), with escape handling."""
    n_rows = len(po) - 1
    if not needle:
        return np.ones(n_rows, dtype=bool)
    m = len(needle)
    char_delta = _kmp_char_delta(bytes(needle))
    code_delta = _kmp_code_delta_for(table, needle)
    if _native.lib is not None:
        return _native.kmp_scan(pay, po, code_delta, char_delta, m)

    state = np.zeros(n_rows, dtype=np.int32)
    pos = po[:-1].copy()
    ends = po[1:]
    pending = np.zeros(n_rows, dtype=bool)
    idx = np.flatnonzero(pos < ends)
    while idx.size:
        b = pay[pos[idx]]
        s = state[idx]
        p = pending[idx]
        is_esc = (b == ESCAPE) & ~p
        # literal step for pending rows, code step otherwise
        ns = s.copy()
        lit = p
        if lit.any():
            ns[lit] = char_delta[s[lit], b[lit]]
        codep = ~p & ~is_esc
        if codep.any():
            ns[codep] = code_delta[s[codep], b[codep]]
        state[idx] = ns
        pending[idx] = is_esc
        pos[idx] += 1
        alive = (ns < m) & (pos[idx] < ends[idx])
        idx = idx[alive]
    return state == m


@_state_cached
def _accept_offsets_for(table: fsstlib.SymbolTable, needle: bytes) -> np.ndarray:
    return _accept_offsets(_kmp_char_delta(bytes(needle)), table)


def _accept_offsets(char_delta: np.ndarray, table: fsstlib.SymbolTable) -> np.ndarray:
    """(m+1, 256) first within-symbol byte index at which the automaton
    reaches accept while consuming the symbol's expansion (-1 = never).
    The reference's stop_pos (src/StateMachine.hpp:41-60, :137-147): a
    segment can complete MID-symbol, and the next segment must resume from
    the remaining bytes of the SAME symbol (MetaStateMachine.hpp:67-116)."""
    m = char_delta.shape[0] - 1
    out = np.full((m + 1, 256), -1, dtype=np.int32)
    for code, sym in enumerate(table.symbols):
        states = np.arange(m + 1, dtype=np.int32)
        first = np.full(m + 1, -1, dtype=np.int32)
        for t, b in enumerate(sym):
            states = char_delta[states, b]
            hit = (states == m) & (first < 0)
            first[hit] = t
        out[:, code] = first
    return out


def meta_kmp_code_match(
    pay: np.ndarray,
    po: np.ndarray,
    table: fsstlib.SymbolTable,
    segments: tuple[bytes, ...],
) -> np.ndarray:
    """Ordered multi-segment contains-match on compressed payloads
    (≅ CometKmpMetaEngine, src/algos/Comet.hpp:80-96): one KMP machine per
    segment; rows step one payload byte per lockstep iteration; on a
    segment completing mid-symbol, the symbol's remaining bytes feed the
    next machine char-by-char (rare → handled scalar, bounded ≤8 bytes)."""
    n_rows = len(po) - 1
    K = len(segments)
    if K == 0:
        return np.ones(n_rows, dtype=bool)
    char_d = [_kmp_char_delta(bytes(seg)) for seg in segments]
    code_d = [_kmp_code_delta_for(table, seg) for seg in segments]
    acc_off = [_accept_offsets_for(table, seg) for seg in segments]
    m_of = [len(seg) for seg in segments]
    if _native.lib is not None:
        return _native.meta_kmp_scan(
            pay, po, char_d, code_d, acc_off, m_of, table
        )
    syms = table.symbols

    def advance_through(sym_bytes: bytes, start: int, k: int, st: int):
        """Feed sym_bytes[start:] through machines k.. — returns (k, state)."""
        if k >= K:
            return K, 0
        for b in sym_bytes[start:]:
            st = int(char_d[k][st, b])
            if st == m_of[k]:
                k += 1
                st = 0
                if k == K:
                    return K, 0
        return k, st

    state = np.zeros(n_rows, dtype=np.int32)
    seg = np.zeros(n_rows, dtype=np.int32)
    pos = po[:-1].copy()
    ends = po[1:]
    pending = np.zeros(n_rows, dtype=bool)
    done = np.zeros(n_rows, dtype=bool)
    idx = np.flatnonzero(pos < ends)
    while idx.size:
        b = pay[pos[idx]]
        p = pending[idx]
        is_esc = (b == ESCAPE) & ~p
        # group rows by current segment (usually almost all in segment 0).
        # DESCENDING order: a row promoted to segment k+1 during step k must
        # not re-process the same byte in the k+1 group this iteration
        for k in np.unique(seg[idx])[::-1]:
            sel = np.flatnonzero((seg[idx] == k) & ~is_esc)
            if sel.size == 0:
                continue
            rows = idx[sel]
            bb = b[sel]
            st = state[rows]
            lit = p[sel]
            # literal byte step
            if lit.any():
                li = np.flatnonzero(lit)
                ns = char_d[k][st[li], bb[li]]
                fin = ns == m_of[k]
                st[li] = np.where(fin, 0, ns)
                if fin.any():
                    adv = rows[li[fin]]
                    seg[adv] += 1
                    done[adv] |= seg[adv] == K
            # code step
            ci = np.flatnonzero(~lit)
            if ci.size:
                t = acc_off[k][st[ci], bb[ci]]
                ns = code_d[k][st[ci], bb[ci]]
                plain = t < 0
                st[ci] = np.where(plain, ns, st[ci])
                hit = np.flatnonzero(~plain)
                for h in hit:  # rare: segment completed inside this symbol
                    r = rows[ci[h]]
                    nk, nst = advance_through(
                        syms[int(bb[ci[h]])], int(t[h]) + 1, k + 1, 0
                    )
                    if nk == K:
                        done[r] = True
                    seg[r] = nk
                    st[ci[h]] = nst
            state[rows] = st
        pending[idx] = is_esc
        pos[idx] += 1
        alive = ~done[idx] & (pos[idx] < ends[idx])
        idx = idx[alive]
    return done


def dummy_walk(pay: np.ndarray, po: np.ndarray) -> np.ndarray:
    """Cost FLOOR of any compressed-domain matcher (the reference's
    DummyStateMachine, sketch.cc:493-512): touch every payload byte doing
    no matching, report zero matches. Bench-triage only — any engine's
    scan time minus this is its matching overhead. Never used by auto."""
    n_rows = len(po) - 1
    if len(pay):
        counts = np.diff(po)
        sink = np.zeros(n_rows, dtype=np.uint8)
        nz = counts > 0
        if nz.any():
            sink[nz] = np.bitwise_xor.reduceat(pay, po[:-1][nz])
        _ = int(sink.sum())  # keep the pass observable
    return np.zeros(n_rows, dtype=bool)


# ------------------------------------------------------------------ public API
ENGINES = ("decoded", "prefix", "skipping", "kmp", "auto", "dummy")


def match_block(
    gpay: np.ndarray,
    gpo: np.ndarray,
    table: fsstlib.SymbolTable,
    used: bytes | None,
    pat: LikePattern,
    engine: str,
    decode_fn,
) -> np.ndarray:
    """Row mask for ``pat`` over ONE encoded block: payload bytes ``gpay``
    sliced by ``gpo``, symbol table ``table``, optional escaped-literal
    bitmap ``used`` (bytes, None, or a zero-arg callable resolved lazily —
    only the skipping path consumes it, so a caller that must compute the
    bitmap with a payload pass, as for an fsstb envelope written before
    encode stored it, defers that pass). ``decode_fn(cidx) -> pa.Array``
    must return the decoded text of block-local rows ``cidx`` — the
    decode-verify step for candidates a prefilter cannot settle. This is
    the engine core behind the fsstb LIKE scan
    (pipelines/columnar.like_scan_mask / like_scan_batch)."""
    n_rows = len(gpo) - 1
    shape = pat.shape
    result = np.zeros(n_rows, dtype=bool)
    if shape == "all":
        result[:] = True
        return result

    eng = engine
    if eng == "dummy":
        return dummy_walk(gpay, gpo)
    if eng == "auto":
        if shape == "exact":
            # compressed-domain equality: deterministic encoder ⇒ the
            # re-encoded constant IS the payload of any equal row
            return exact_payload_match(
                gpay, gpo, table,
                pat.segments[0] if pat.segments else b"",
            )
        if shape == "prefix" and len(pat.segments[0]) > fsstlib.MAX_SYMBOL_LEN:
            eng = "prefix"
        elif shape in ("contains", "multi", "suffix"):
            eng = "skipping"
        else:
            eng = "decoded"

    if eng == "kmp" and shape == "contains":
        return kmp_code_match(gpay, gpo, table, pat.segments[0])
    if eng == "kmp" and shape == "multi":
        return meta_kmp_code_match(gpay, gpo, table, pat.segments)

    cand = np.ones(n_rows, dtype=bool)
    if pat.has_underscore:
        # '_' sits INSIDE segments, so they are not literal needles —
        # any compressed-domain prefilter would prune wrongly; force
        # decode-verify regardless of the explicitly requested engine
        eng = "decoded"
    if eng == "prefix" and shape == "prefix" and len(
        pat.segments[0]
    ) > fsstlib.MAX_SYMBOL_LEN:
        cand = first_code_prefilter(gpay, gpo, table, pat.segments[0])
    elif eng == "skipping":
        reqs = _segments_requirements(
            table, tuple(pat.segments), used() if callable(used) else used
        )
        if reqs is None:
            return result  # block pruned: no code/escape can spell a segment
        # with the C kernel, unanchored contains routes straight to the
        # KMP walk (one segment) or the meta-KMP walk (several): one C
        # payload pass with per-row early exit, exact, so nothing
        # decode-verifies. It beats BOTH the requirements pass and
        # decode+find at every observed density (r4 engine_rank: kmp 1.8
        # ms vs skipping 5.7 / decoded 8.7 on a 77%-dense pattern; also
        # fastest on sparse ones) — the reqs-None check above already
        # handled the provably-empty block, the only case the prefilter
        # wins outright
        if engine == "auto" and _native.lib is not None:
            if shape == "contains":
                return kmp_code_match(gpay, gpo, table, pat.segments[0])
            if shape == "multi":
                return meta_kmp_code_match(gpay, gpo, table, pat.segments)
        # cost-based dispatch under auto (reference factory-decline
        # contract, src/algos/StdFind.hpp:102-135): sample the
        # requirements' candidate fraction; when dense, a low-yield
        # prefilter pass can't pay for itself and the shape falls back to
        # plain decode+find
        declined = False
        if engine == "auto" and reqs and n_rows > 2 * _SKIP_SAMPLE_ROWS:
            frac = _sampled_candidate_fraction(gpay, gpo, reqs)
            cutoff = (
                _SKIP_CUTOFF_NATIVE if _native.lib is not None
                else _SKIP_CUTOFF_NUMPY
            )
            declined = frac >= cutoff
        if not declined and reqs:
            cand = _apply_requirements(gpay, gpo, reqs)
        if shape == "suffix":
            cand &= last_code_prefilter(gpay, gpo, table, pat.segments[0])
    # decode-verify the candidates (or everything on the decoded path)
    cidx = np.flatnonzero(cand)
    if cidx.size == 0:
        return result
    result[cidx] = match_decoded(decode_fn(cidx), pat)
    return result
