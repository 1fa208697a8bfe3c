"""Seeded inputs of the benchmark workloads.

Everything here is a pure function of ``seed`` and a size, so the same seed
gives the same inputs. The ``documents`` and ``events`` tables follow the
shape of the sf0.1 test tables (same columns, vocabulary, value ranges and
row counts) but are generated here, so a checkout needs no test data.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORDS = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ["en", "zh", "fr", "es", "de"]
LANG_P = [0.41, 0.1475, 0.1475, 0.1475, 0.1475]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
DOC_ROWS = 5000
EVENT_ROWS = 100_000
N_USERS = 1500

# The engine-ranking patterns of the program's own benchmark queries
# (pipelines.queries.RANK_PATTERNS), kept here as plain input data.
RANK_PATTERNS = ["%scan%", "%merge%sort%", "the fast key %", "%join"]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def documents_table(seed: int, replicas: int, base_rows: int = DOC_ROWS) -> pa.Table:
    """``replicas`` seed-permuted copies of one seeded base document set:
    ``doc_id:int64, text:string, lang:string, source:string, n_chars:int64``.
    Replica ``r`` holds the base rows in its own seeded order, with doc ids
    offset by ``r * base_rows``; 5% of documents end in the word ``dup``."""
    rng = _rng(seed, 1)
    n_words = rng.integers(10, 101, base_rows)
    words = np.array(WORDS)[rng.integers(0, len(WORDS), int(n_words.sum()))]
    ends = np.cumsum(n_words)
    texts = [" ".join(ws) for ws in np.split(words, ends[:-1])]
    dup = rng.random(base_rows) < 0.05
    texts = [t + " dup" if d else t for t, d in zip(texts, dup)]
    lang = np.array(LANGS)[rng.choice(len(LANGS), base_rows, p=LANG_P)]
    source = np.array([f"src{i % 20}" for i in range(base_rows)])
    texts_arr = np.array(texts, dtype=object)
    parts = []
    for r in range(replicas):
        perm = _rng(seed, 100 + r).permutation(base_rows)
        t = texts_arr[perm]
        parts.append(
            pa.table(
                {
                    "doc_id": pa.array(perm + r * base_rows, type=pa.int64()),
                    "text": pa.array(t, type=pa.string()),
                    "lang": pa.array(lang[perm], type=pa.string()),
                    "source": pa.array(source[perm], type=pa.string()),
                    "n_chars": pa.array(
                        np.fromiter((len(s) for s in t), np.int64, len(t))
                    ),
                }
            )
        )
    return pa.concat_tables(parts)


def events_table(seed: int, n_rows: int = EVENT_ROWS) -> pa.Table:
    """``event_id:int64, ts:timestamp[us], user_id:int64, event_type:string,
    value:double, props:string`` in event-time order."""
    rng = _rng(seed, 2)
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    gaps = rng.exponential(26e6, n_rows).astype(np.int64)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n_rows, dtype=np.int64)),
            "ts": pa.array(t0 + np.cumsum(gaps), type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, N_USERS, n_rows), type=pa.int64()),
            "event_type": pa.array(
                np.array(EVENT_TYPES)[rng.integers(0, len(EVENT_TYPES), n_rows)],
                type=pa.string(),
            ),
            "value": pa.array(np.round(rng.exponential(50.0, n_rows), 2)),
            "props": pa.array(
                [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_rows)],
                type=pa.string(),
            ),
        }
    )


def write_shards(table: pa.Table, path: str, n_shards: int, row_group_size: int = 2048) -> str:
    """Write ``table`` as ``n_shards`` parquet files of near-equal row count."""
    os.makedirs(path, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_shards + 1).astype(int)
    for i in range(n_shards):
        pq.write_table(
            table.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(path, f"part-{i:04d}.parquet"),
            row_group_size=row_group_size,
        )
    return path


def like_pool() -> list[str]:
    """LIKE patterns of every shape the engines dispatch on: prefix, suffix,
    single-segment contains, multi-segment contains and zero-match, plus the
    engine-ranking patterns. Fixed, so every seed sees the same selectivity
    mix; the seed orders the requests and generates the documents."""
    return RANK_PATTERNS + [
        "the %",
        "spark window%",
        "% agg",
        "% sort dup",
        "%join line%",
        "%small%filter%fast%",
        "%customer%row hash%",
        "%zebra%",
        "%quartz fjord%",
        "group part slow big%",
    ]


def query_plan(seed: int, n: int) -> list[tuple]:
    """A closed-loop client's request sequence: every other request is a
    LIKE query, each pass over the pattern pool in a new seeded order; the
    aggregates in between cycle through a GROUP BY ``event_type`` over
    ``user_id``, a COUNT(*) and a range scan, on ``user_id`` ranges of
    cycling width at seeded positions."""
    rng = _rng(seed, 4)
    pool = like_pool()
    kinds = ("group", "count", "scan")
    widths = (50, 150, 300, 450)
    likes: list[str] = []
    plan = []
    for i in range(n):
        if i % 2 == 0:
            if not likes:
                likes = [pool[j] for j in rng.permutation(len(pool))]
            plan.append(("like", likes.pop()))
        else:
            w = widths[(i // 2) % len(widths)]
            lo = int(rng.integers(0, N_USERS - w))
            plan.append((kinds[(i // 2) % len(kinds)], lo, lo + w))
    return plan
