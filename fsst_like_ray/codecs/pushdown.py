"""Compressed-domain aggregate / predicate kernels over encoded payloads.

Extends the reference's distinctive capability — predicates evaluated
directly on the compressed representation (LIKE-on-FSST,
src/algos/StartsWith.hpp:28-37, Skipping.hpp:348-449) — to the NUMERIC
token codecs: per-row sum/min/max and token-membership computed from a
(codec, state, payload) segment WITHOUT materializing decoded Arrow
list arrays.

How much work each codec avoids (documented honestly):

- ``rle``     — touches RUNS, never tokens: sum = Σ value×runlen,
  min/max/contains over run values. The win grows with the compression
  ratio (exactly the property that made the codec win the block).
- ``plain``   — the payload IS the int32 stream: zero-copy view +
  ``reduceat``; no byte shuffling at all.
- ``dict``    — block-level ZONE check: a token absent from the sorted
  dictionary rules out the whole segment in O(log |dict|); present →
  membership compares the packed indices' unpacked codes against ONE
  index (no value gather). Stats decode (a gather) but skip Arrow.
- ``bitpack`` — width zone check: ``tid`` outside ``[0, 2^width)``
  rules out the segment; otherwise unpack + compare.
- ``for``/``delta``/``fsst`` — no sub-decode shortcut exists (per-row
  references / prefix sums); they decode the segment into a flat NumPy
  stream and reduce vectorized — still far cheaper than a full
  ``decode_columns_batch`` (no ListArray construction, no table rebuild).

All kernels return per-row results for a CONTIGUOUS same-(codec, state)
row segment: (buf, payload_offsets, counts, state) exactly as
``Codec.decode`` takes them. A columnar list column yields these per
block envelope through ``pipelines.columnar.list_segment_runs``.
"""

from __future__ import annotations

import numpy as np

from . import CODECS
from .bitutil import unpack_rows
from .dictionary import _parse_state as _dict_state

I32_MIN = -(2**31)
I32_MAX = 2**31 - 1


def _reduce_rows(stream: np.ndarray, offsets: np.ndarray):
    """(sums, mins, maxs) per row over a flat value stream; empty rows get
    (0, I32_MAX, I32_MIN) so callers can merge across segments with
    min/max identities."""
    counts = np.diff(offsets)
    n = len(counts)
    sums = np.zeros(n, dtype=np.int64)
    mins = np.full(n, I32_MAX, dtype=np.int64)
    maxs = np.full(n, I32_MIN, dtype=np.int64)
    nz = counts > 0
    if nz.any():
        starts = offsets[:-1][nz]
        s64 = stream.astype(np.int64)
        sums[nz] = np.add.reduceat(s64, starts)
        mins[nz] = np.minimum.reduceat(s64, starts)
        maxs[nz] = np.maximum.reduceat(s64, starts)
    return sums, mins, maxs


def _any_rows(match: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row ANY of a flat bool stream (empty rows → False)."""
    counts = np.diff(offsets)
    out = np.zeros(len(counts), dtype=bool)
    nz = counts > 0
    if nz.any():
        starts = offsets[:-1][nz]
        out[nz] = np.maximum.reduceat(match.view(np.uint8), starts) > 0
    return out


def _rle_runs(buf, payload_offsets):
    pairs = np.ascontiguousarray(buf).view(np.uint32).reshape(-1, 2)
    run_off = (payload_offsets // 8).astype(np.int64)
    return pairs[:, 0].view(np.int32), pairs[:, 1].astype(np.int64), run_off


def segment_stats(name, buf, payload_offsets, counts, state):
    """Per-row (sum:int64, min:int64, max:int64) for one segment."""
    if name == "rle":
        vals, lens, run_off = _rle_runs(buf, payload_offsets)
        n = len(run_off) - 1
        sums = np.zeros(n, dtype=np.int64)
        mins = np.full(n, I32_MAX, dtype=np.int64)
        maxs = np.full(n, I32_MIN, dtype=np.int64)
        nz = np.diff(run_off) > 0
        if nz.any():
            starts = run_off[:-1][nz]
            v64 = vals.astype(np.int64)
            sums[nz] = np.add.reduceat(v64 * lens, starts)
            mins[nz] = np.minimum.reduceat(v64, starts)
            maxs[nz] = np.maximum.reduceat(v64, starts)
        return sums, mins, maxs
    if name == "plain":
        vals = np.ascontiguousarray(buf).view(np.int32)
        return _reduce_rows(vals, (payload_offsets // 4).astype(np.int64))
    if name == "dict":
        width, dictv = _dict_state(state)
        idx = unpack_rows(buf, payload_offsets, counts, width)
        stream = dictv[idx] if idx.size else np.zeros(0, dtype=np.int32)
        off = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        return _reduce_rows(stream, off)
    # generic: decode to the flat stream (no Arrow materialization)
    stream = CODECS[name].decode(buf, payload_offsets, counts, state)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=off[1:])
    return _reduce_rows(stream, off)


def segment_histogram(name, buf, payload_offsets, counts, state):
    """SEGMENT-level exact token frequencies: (values:int32, counts:int64),
    values strictly increasing. Per-codec work avoided:

    - ``rle``/``rlebp-via-decode?`` no — ``rle`` sums run LENGTHS per
      distinct run value: O(runs log runs), never O(tokens);
    - ``dict`` bincounts the packed indices against the dictionary length
      and gathers values only for the tiny nonzero set;
    - ``plain`` is a zero-copy int32 view + unique;
    - everything else decodes to the flat stream first (still no Arrow)."""
    if name == "rle":
        vals, lens, _run_off = _rle_runs(buf, payload_offsets)
        if not len(vals):
            return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64)
        order = np.argsort(vals, kind="stable")
        sv, sl = vals[order], lens[order]
        new = np.r_[True, sv[1:] != sv[:-1]]
        starts = np.flatnonzero(new)
        return sv[starts], np.add.reduceat(sl, starts)
    if name == "plain":
        vals = np.ascontiguousarray(buf).view(np.int32)
        u, c = np.unique(vals, return_counts=True)
        return u, c.astype(np.int64)
    if name == "dict":
        width, dictv = _dict_state(state)
        idx = unpack_rows(buf, payload_offsets, counts, width)
        bc = np.bincount(idx.astype(np.int64), minlength=len(dictv))
        nz = np.flatnonzero(bc)
        return dictv[nz].astype(np.int32), bc[nz].astype(np.int64)
    stream = CODECS[name].decode(buf, payload_offsets, counts, state)
    u, c = np.unique(stream, return_counts=True)
    return u.astype(np.int32), c.astype(np.int64)


def state_can_contain(name, state, tid: int) -> bool:
    """Block-level zone check: False proves NO row in the segment holds
    ``tid`` — the segment is skipped without touching payload bytes."""
    if name == "dict":
        _w, dictv = _dict_state(state)
        j = int(np.searchsorted(dictv, tid))
        return j < len(dictv) and int(dictv[j]) == tid
    if name == "bitpack":
        width = state[0]
        if width < 32:
            return 0 <= tid < (1 << width)
    if name == "rlebp":
        # state: vw | rw | minv — run values span [minv, minv + 2^vw)
        vw = state[0]
        minv = int(np.frombuffer(state, dtype="<i4", count=1, offset=2)[0])
        if vw < 32:
            return minv <= tid < minv + (1 << vw)
    return True


def segment_contains(name, buf, payload_offsets, counts, state, tid: int):
    """Per-row bool: does the row contain token ``tid``?"""
    n = len(counts)
    if not state_can_contain(name, state, tid):
        return np.zeros(n, dtype=bool)
    if name == "rle":
        vals, _lens, run_off = _rle_runs(buf, payload_offsets)
        return _any_rows(vals == tid, run_off)
    if name == "plain":
        vals = np.ascontiguousarray(buf).view(np.int32)
        return _any_rows(vals == tid, (payload_offsets // 4).astype(np.int64))
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=off[1:])
    if name == "dict":
        width, dictv = _dict_state(state)
        j = int(np.searchsorted(dictv, tid))
        idx = unpack_rows(buf, payload_offsets, counts, width)
        return _any_rows(idx == np.uint32(j), off)
    stream = CODECS[name].decode(buf, payload_offsets, counts, state)
    return _any_rows(stream == tid, off)
