"""Byte trigrams of text rows and LIKE patterns: the evidence behind the
table store's per-(fragment, string column) trigram blooms
(tablestore._tri_accumulate builds them at encode; _bloom_keeps and
_predicate_checks probe them with a pattern's trigrams), which let a LIKE
skip whole fragments without opening a part file — the reference's
per-block ``used_chars`` prune (Fsst.hpp's escaped-literal bitmap) lifted
to fragment granularity.

Soundness: a row matching ``LIKE '%needle%'`` contains every trigram of
``needle``, so a fragment whose bloom misses ANY pattern trigram provably
holds no match (blooms have no false negatives). Patterns with ``_`` or
with every literal segment shorter than 3 bytes yield no trigrams — every
fragment stays a candidate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..buffers import string_buffers
from ..matchers import parse_like


def _utf8_flat(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat bytes uint8, int64 offsets) of a string column (nulls → '')."""
    return string_buffers(pc.fill_null(col, ""))


def _trigram_keys(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Unique int64 keys (b0<<16 | b1<<8 | b2) of every within-row 3-byte
    window — one vectorized pass, windows never cross row boundaries."""
    if flat.size < 3:
        return np.zeros(0, dtype=np.int64)
    counts = np.diff(offsets)
    rid = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    lo = int(offsets[0])
    a = flat[lo : lo + int(counts.sum())].astype(np.int64)
    if a.size < 3:
        return np.zeros(0, dtype=np.int64)
    tri = (a[:-2] << 16) | (a[1:-1] << 8) | a[2:]
    valid = rid[:-2] == rid[2:]
    return np.unique(tri[valid])


def _needle_trigrams(seg: bytes) -> np.ndarray:
    b = np.frombuffer(seg, dtype=np.uint8).astype(np.int64)
    if b.size < 3:
        return np.zeros(0, dtype=np.int64)
    return np.unique((b[:-2] << 16) | (b[1:-1] << 8) | b[2:])


def pattern_trigrams(pattern: str) -> np.ndarray | None:
    """All trigrams a matching row MUST contain, or None when the pattern
    gives no sound trigram evidence (``_`` wildcards make segments
    non-literal)."""
    pat = parse_like(pattern)
    if pat.has_underscore:
        return None
    tris = [_needle_trigrams(seg) for seg in pat.segments]
    tris = [t for t in tris if t.size]
    if not tris:
        return None
    return np.unique(np.concatenate(tris))
