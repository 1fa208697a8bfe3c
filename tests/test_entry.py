"""Mini-driver: run every queries() entry at sf0.001 and compare with its
oracle_sql() via DuckDB (row count + order-insensitive value compare) — a
local replica of the driver's CORRECTNESS gate."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


@pytest.fixture(scope="module")
def registry(ray_session):
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    out = _to_pandas(e.entry())
    assert len(out) >= 0
    assert set(out.columns) == {"doc_id", "n_tok", "tok_str"}


def test_all_queries_have_known_oracle_policy(registry):
    queries, oracles = registry
    assert set(oracles) <= set(queries)


ORACLE_CHECKED = None  # filled dynamically


def test_oracle_queries_match(registry, con):
    queries, oracles = registry
    failures = []
    for name, sql in oracles.items():
        got = _canon(_to_pandas(queries[name](SF)))
        expect = _canon(con.sql(sql).df())
        if list(got.columns) != list(expect.columns):
            # an empty Ray result may lose its schema — only rows matter then
            if len(got) == 0 and len(expect) == 0:
                continue
            failures.append(
                f"{name}: columns {list(got.columns)} vs {list(expect.columns)}"
            )
        elif not got.equals(expect):
            failures.append(f"{name}: rows {len(got)} vs {len(expect)} differ")
    assert not failures, "\n".join(failures)


def test_rows_only_queries_run(registry):
    queries, oracles = registry
    for name in set(queries) - set(oracles):
        out = _to_pandas(queries[name](SF))
        assert out is not None, name


def test_scratch_queries_remove_their_stores(ray_session, monkeypatch):
    """A query that builds a store in a scratch directory removes it when
    it returns, or raises, and hands back a materialized result that
    still reads after the store is gone."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from fsst_like_ray.pipelines import queries as Q

    made = []
    real = tempfile.mkdtemp

    def spy(*a, **kw):
        made.append(real(*a, **kw))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    out = Q.q_columnar_store_roundtrip(SF)
    assert made and not any(os.path.exists(d) for d in made)
    assert out.count() == pq.read_metadata(f"{SF}/documents.parquet").num_rows

    @Q._in_scratch("scratch_raises_")
    def boom(sf_dir, base):
        open(os.path.join(base, "x"), "w").close()
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        boom(SF)
    assert not os.path.exists(made[-1])
