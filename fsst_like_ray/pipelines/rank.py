"""Per-engine comparative LIKE benchmark — the reference's flagship ranking
artifact (sketch.cc:1306-1371: every applicable AlgType over the same column,
raw vs fsst, oracle-checked counts, ranked by throughput; engines registered
in multiplicity in main.cpp:19-40), re-expressed over a Ray Data stream.

The encoded side is the per-column layout with the text column pinned to
``fsstb`` (``encode_columns_dataset(raw, spec=FSSTB_TEXT)``), so every
block is FSST payloads and every named engine really runs; each engine is
one ``columnar.like_scan_mask`` call per batch.

Timing design: the ranked quantity is the SUM of in-UDF matcher seconds
across batches (a per-core number, like the reference's single-thread
ms/pass), NOT pipeline wall time — per-task scheduling noise (~0.1 s) would
swamp millisecond-scale engine differences on small corpora, and the in-UDF
sum is what scales to a cluster (wall ≈ sum / effective parallelism).

Every engine's match count is asserted equal to the decoded-path oracle
(`dummy` excepted — it is the reference's cost floor and reports 0 by
design); a mismatch raises instead of silently ranking a wrong engine.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

import ray.data

from ..matchers import match_decoded, parse_like
from .columnar import S_FSSTB, like_scan_mask

# spec mode pins the text column's scheme: auto would hand a repetitive or
# tiny block to strdict/plainb, where no compressed-domain engine runs
FSSTB_TEXT = {"text": {"scheme": S_FSSTB}}

# applicable engines per pattern shape (reference: BenchmarkDriver registers
# every engine valid for the pattern class, main.cpp:19-40). "auto" is the
# production policy and is ranked alongside its components.
SHAPE_ENGINES = {
    "contains": ("decoded", "skipping", "kmp", "auto"),
    "multi": ("decoded", "skipping", "kmp", "auto"),
    "prefix": ("decoded", "prefix", "auto"),
    "suffix": ("decoded", "skipping", "auto"),
    "exact": ("decoded", "auto"),
    "all": ("decoded",),
}


def applicable_engines(pattern: str) -> tuple[str, ...]:
    pat = parse_like(pattern)
    if pat.has_underscore:
        # '_' forces decode-verify in every compressed engine; ranking the
        # aliases would rank identical code paths
        return ("decoded", "auto")
    return SHAPE_ENGINES.get(pat.shape, ("decoded", "auto"))


class _TimedEncodedScan:
    """Times ONLY the matcher call per batch; ships one tiny stat row."""

    def __init__(self, pattern: str, engine: str):
        self.pattern = pattern
        self.engine = engine

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        mask = like_scan_mask(batch, "text", self.pattern, self.engine)
        dt = time.perf_counter() - t0
        return pa.table(
            {
                "matches": pa.array([int(mask.sum())], type=pa.int64()),
                "sec": pa.array([dt], type=pa.float64()),
                "rows": pa.array([batch.num_rows], type=pa.int64()),
            }
        )


class _TimedRawScan:
    """Raw (uncompressed) baseline: the same predicate over the plain text
    column (reference: the `uncompressed` leg of every ranking row)."""

    def __init__(self, pattern: str):
        self.pat = parse_like(pattern)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        mask = match_decoded(batch["text"], self.pat)
        dt = time.perf_counter() - t0
        return pa.table(
            {
                "matches": pa.array([int(mask.sum())], type=pa.int64()),
                "sec": pa.array([dt], type=pa.float64()),
                "rows": pa.array([batch.num_rows], type=pa.int64()),
            }
        )


def _run_timed(ds: "ray.data.Dataset", fn) -> tuple[int, float, int]:
    rows = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).take_all()
    return (
        sum(int(r["matches"]) for r in rows),
        sum(float(r["sec"]) for r in rows),
        sum(int(r["rows"]) for r in rows),
    )


def rank_engines(
    raw: "ray.data.Dataset",
    encoded: "ray.data.Dataset",
    patterns: list[str],
    repeats: int = 1,
    include_dummy: bool = True,
) -> list[dict]:
    """Ranked rows: one per (pattern, representation, engine), fastest first
    within each pattern. Raises if any engine disagrees with the decoded
    oracle on match count."""
    out: list[dict] = []
    for pattern in patterns:
        rows_ranked: list[dict] = []
        oracle_matches = None
        for engine in applicable_engines(pattern):
            matches = n_rows = 0
            sec = 0.0
            for _ in range(repeats):
                matches, s, n_rows = _run_timed(
                    encoded, _TimedEncodedScan(pattern, engine)
                )
                sec += s
            sec /= repeats
            if engine == "decoded":
                oracle_matches = matches
            rows_ranked.append(
                {
                    "pattern": pattern,
                    "repr": "fsst",
                    "engine": engine,
                    "ms": round(sec * 1e3, 3),
                    "tuples_per_s": round(n_rows / sec) if sec else None,
                    "matches": matches,
                }
            )
        # raw leg averaged over the SAME repeats as the encoded engines —
        # mixed protocols would let one scheduling hiccup mis-rank raw
        m = n = 0
        s = 0.0
        for _ in range(repeats):
            m, s1, n = _run_timed(raw, _TimedRawScan(pattern))
            s += s1
        s /= repeats
        if oracle_matches is None:
            oracle_matches = m
        rows_ranked.append(
            {
                "pattern": pattern,
                "repr": "raw",
                "engine": "decoded",
                "ms": round(s * 1e3, 3),
                "tuples_per_s": round(n / s) if s else None,
                "matches": m,
            }
        )
        bad = [
            r
            for r in rows_ranked
            if r["matches"] != oracle_matches
        ]
        if bad:
            raise AssertionError(
                f"engine count mismatch vs decoded oracle ({oracle_matches}): {bad}"
            )
        if include_dummy:
            m, s, n = _run_timed(encoded, _TimedEncodedScan(pattern, "dummy"))
            rows_ranked.append(
                {
                    "pattern": pattern,
                    "repr": "fsst",
                    "engine": "dummy",
                    "ms": round(s * 1e3, 3),
                    "tuples_per_s": round(n / s) if s else None,
                    "matches": None,  # cost floor reports no matches by design
                }
            )
        rows_ranked.sort(key=lambda r: r["ms"])
        out.extend(rows_ranked)
    return out


def engine_rank_counts(
    raw: "ray.data.Dataset",
    encoded: "ray.data.Dataset",
    patterns: list[str],
) -> pa.Table:
    """Deterministic projection of the ranking (pattern, engine, matches) —
    every applicable engine's count, oracle-checkable against SQL LIKE."""
    rows = rank_engines(raw, encoded, patterns, include_dummy=False)
    rows = [r for r in rows if r["matches"] is not None]
    rows.sort(key=lambda r: (r["pattern"], r["repr"], r["engine"]))
    return pa.table(
        {
            "pattern": pa.array([r["pattern"] for r in rows], type=pa.string()),
            "repr": pa.array([r["repr"] for r in rows], type=pa.string()),
            "engine": pa.array([r["engine"] for r in rows], type=pa.string()),
            "matches": pa.array([r["matches"] for r in rows], type=pa.int64()),
        }
    )
