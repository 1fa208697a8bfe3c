"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

All kernels are per-batch and vectorized (pyarrow.compute / NumPy); each has
a `queries()` entry in __ray_entry__ with (where SQL-expressible) a DuckDB
oracle using the exact same formulas.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..buffers import string_buffers

M31 = np.uint64((1 << 31) - 1)

STOPWORDS = ("the", "a", "and", "of", "to")
PUNCT = b".,;:!?'\"()-"


# GPT-2-style splitter subset shared verbatim with the DuckDB oracle (both
# engines' regex dialects agree on this subset: alternation, classes, ' ?')
BPE_PATTERN = " ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+"


class RegexTokenCounter:
    """Actor-pool map_batches callable: the regex compiles ONCE per actor in
    __init__ (the stateful-stage pattern — per-batch compilation would pay
    the setup on every block)."""

    def __init__(self, pattern: str = BPE_PATTERN):
        import re

        self.rx = re.compile(pattern)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        findall = self.rx.findall  # regex matching is inherently per-row
        n = [len(findall(t)) for t in texts]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": pa.array(n, type=pa.int64()),
            }
        )


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count (single-space split, matching SQL
    ``length(string_split(text, ' '))``) + a BPE-ish sub-word count."""
    text = batch[text_col]
    n_ws = pc.add(pc.count_substring(text, " "), 1)
    # BPE-ish proxy: words + digit runs + punctuation marks each count once;
    # computed vectorized as chars/4 heuristic + word count mix
    data, offsets = string_buffers(text)
    n_rows = len(offsets) - 1
    counts = np.diff(offsets)
    n_sub = np.maximum((counts + 3) // 4, 1)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_ws_tokens": n_ws.cast(pa.int64()),
            "n_subword_est": pa.array(n_sub.astype(np.int64), type=pa.int64()),
        }
    )


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-score components as exact integers (SQL-mirrorable):
    word count, stopword count, punctuation count, char count."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    stop_mask = pc.is_in(flat, value_set=pa.array(STOPWORDS))
    stop_np = stop_mask.to_numpy(zero_copy_only=False).astype(np.int64)
    wo = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    woff = wo.offsets.to_numpy().astype(np.int64)
    base = woff[0]
    woff = woff - base
    n_rows = batch.num_rows
    n_words = np.diff(woff)
    n_stop = np.zeros(n_rows, dtype=np.int64)
    nz = n_words > 0
    if nz.any():
        n_stop[nz] = np.add.reduceat(stop_np, woff[:-1][nz])
    data, offsets = string_buffers(text)
    punct_hits = np.isin(data, np.frombuffer(PUNCT, dtype=np.uint8)).astype(np.int64)
    n_punct = np.zeros(n_rows, dtype=np.int64)
    cz = np.diff(offsets) > 0
    if cz.any():
        n_punct[cz] = np.add.reduceat(punct_hits, offsets[:-1][cz])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, type=pa.int64()),
            "n_stop": pa.array(n_stop, type=pa.int64()),
            "n_punct": pa.array(n_punct, type=pa.int64()),
            "n_chars": pa.array(np.diff(offsets), type=pa.int64()),
        }
    )


_LANG_MARKERS = {
    "en": (" the ", " and ", " of "),
    "de": (" der ", " und ", " die "),
    "es": (" el ", " de ", " la "),
    "fr": (" le ", " et ", " la "),
}


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """N-gram/marker-word language heuristic (deterministic; not claimed to
    reproduce the synthetic ``lang`` labels — rows-only check)."""
    text = batch[text_col]
    n = batch.num_rows
    scores = np.zeros((len(_LANG_MARKERS), n), dtype=np.int64)
    langs = list(_LANG_MARKERS)
    for i, lang in enumerate(langs):
        for marker in _LANG_MARKERS[lang]:
            scores[i] += pc.count_substring(text, marker).to_numpy(
                zero_copy_only=False
            )
    best = np.argmax(scores, axis=0)
    conf = scores[best, np.arange(n)]
    pred = np.where(conf > 0, np.array(langs)[best], "unk")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(pred.tolist(), type=pa.string()),
            "lang_score": pa.array(conf, type=pa.int64()),
        }
    )


def codepoints(text_arr) -> tuple[np.ndarray, np.ndarray]:
    """Unicode code points of each row (values, offsets) — the SQL
    ``unicode(substr(text, i, 1))`` view of a string column."""
    if isinstance(text_arr, pa.ChunkedArray):
        text_arr = text_arr.combine_chunks()
    data, offsets = string_buffers(text_arr)
    # fast path: pure ASCII → bytes are the code points
    if data.size == 0 or int(data.max(initial=0)) < 128:
        return data.astype(np.int32), offsets
    texts = text_arr.to_pylist()
    arrs = [np.frombuffer(t.encode("utf-32-le"), dtype="<u4") for t in texts]
    off = np.zeros(len(texts) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(a) for a in arrs])
    vals = (
        np.concatenate(arrs).astype(np.int32) if arrs else np.zeros(0, np.int32)
    )
    return vals, off


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Rolling polynomial fingerprint over code points, mod 2^31-1, Horner
    seeded with the first element — identical to DuckDB
    ``list_reduce(cps, (a,b) -> (a*31+b) % 2147483647)``. Vectorized via the
    closed form Σ x_j·31^(n-1-j) with precomputed modular powers."""
    vals, offsets = codepoints(batch[text_col])
    counts = np.diff(offsets)
    n_rows = len(counts)
    max_len = int(counts.max()) if n_rows else 0
    pows = np.ones(max_len + 1, dtype=np.uint64)
    for i in range(1, max_len + 1):
        pows[i] = (pows[i - 1] * np.uint64(31)) % M31
    # exponent of value j in row r: counts[r]-1 - (j - start_r)
    exp = np.repeat(counts - 1, counts) - (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(offsets[:-1], counts)
    )
    with np.errstate(over="ignore"):
        terms = (vals.astype(np.uint64) % M31) * pows[exp] % M31
    fp = np.zeros(n_rows, dtype=np.uint64)
    nz = counts > 0
    if nz.any():
        fp[nz] = np.add.reduceat(terms, offsets[:-1][nz]) % M31
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fp": pa.array(fp.astype(np.int64), type=pa.int64()),
        }
    )


# (pattern, replacement) pairs; RE2 syntax — evaluated by Arrow C++
# (pc.replace_substring_regex) on the Ray side and by DuckDB's RE2
# regexp_replace(..., 'g') in the oracle, so semantics match by engine.
PII_PATTERNS = (
    (r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}", "<EMAIL>"),
    (r"\+[0-9][0-9-]{6,}[0-9]", "<PHONE>"),
)


def redact_pii_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Scrub emails / phone numbers from a text column — the standard
    pre-training privacy pass. Fully vectorized: one RE2 sweep per
    pattern over the whole column (Arrow C++), no per-row Python. Null
    text passes through as null."""
    import pyarrow.compute as pc

    out = batch[col]
    for pat, rep in PII_PATTERNS:
        out = pc.replace_substring_regex(out, pattern=pat, replacement=rep)
    return batch.set_column(
        batch.column_names.index(col), col, out
    )
