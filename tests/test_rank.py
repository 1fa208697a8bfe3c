"""Engine-ranking benchmark correctness (SURVEY.md §2.5 / sketch.cc:1306-1371
analog): the ranked table's match counts must agree with DuckDB's LIKE counts
for every (pattern, engine) row, and the artifact must cover every applicable
engine for each shape family."""

from __future__ import annotations

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def ranked(ray_session):
    import ray.data

    from fsst_like_ray.pipelines.columnar import encode_columns_dataset
    from fsst_like_ray.pipelines.queries import RANK_PATTERNS
    from fsst_like_ray.pipelines.rank import FSSTB_TEXT, rank_engines

    raw = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    enc = encode_columns_dataset(raw, spec=FSSTB_TEXT).materialize()
    # rank_engines raises internally on any engine/oracle count mismatch
    return rank_engines(raw, enc, RANK_PATTERNS)


def test_rank_counts_match_duckdb(ranked):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    for row in ranked:
        if row["engine"] == "dummy":
            assert row["matches"] is None
            continue
        expect = con.execute(
            "SELECT count(*) FROM documents WHERE text LIKE ?",
            [row["pattern"]],
        ).fetchone()[0]
        assert row["matches"] == expect, row


def test_rank_covers_applicable_engines(ranked):
    from fsst_like_ray.pipelines.queries import RANK_PATTERNS
    from fsst_like_ray.pipelines.rank import applicable_engines

    for pattern in RANK_PATTERNS:
        got = {r["engine"] for r in ranked if r["pattern"] == pattern
               and r["repr"] == "fsst"}
        assert set(applicable_engines(pattern)) | {"dummy"} == got, pattern
        raws = [r for r in ranked if r["pattern"] == pattern and r["repr"] == "raw"]
        assert len(raws) == 1


def test_rank_rows_have_timings(ranked):
    for r in ranked:
        assert r["ms"] >= 0
        assert r["tuples_per_s"] is None or r["tuples_per_s"] > 0


def test_oracle_sql_matches_query_shape(ray_session):
    """The generated oracle enumerates exactly the rows engine_rank_counts
    produces (same patterns × engines, same ordering keys)."""
    from fsst_like_ray.pipelines.queries import (
        engine_rank_oracle_sql,
        q_engine_rank,
    )

    t = q_engine_rank(SF)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    oracle = con.execute(engine_rank_oracle_sql()).arrow()
    assert t.num_rows == oracle.num_rows
    got = sorted(zip(*[t[c].to_pylist() for c in t.column_names]))
    exp = sorted(zip(*[oracle[c].to_pylist() for c in oracle.column_names]))
    assert got == exp
