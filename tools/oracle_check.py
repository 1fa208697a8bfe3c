"""Focused oracle check: run named queries() entries against their
oracle_sql() via DuckDB at a given SF — the driver's CORRECTNESS gate in
miniature, for fast iteration on a few queries.

Usage: python tools/oracle_check.py /root/testdata/sf0.01 q1,q2,...
"""
import os
import sys

# import the checkout this file lives in: this process through sys.path,
# the local Ray cluster's workers through the PYTHONPATH they inherit
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = ROOT
import duckdb
import pandas as pd

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
NAMES = sys.argv[2].split(",") if len(sys.argv) > 2 else []

import ray

if not ray.is_initialized():
    ray.init(address="local", num_cpus=min(8, os.cpu_count() or 1),
             include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as e

queries, oracles = e.queries(), e.oracle_sql()

con = duckdb.connect()
for t in ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")


def _to_pandas(result):
    import pyarrow as pa
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


fail = 0
for name in NAMES:
    got = _canon(_to_pandas(queries[name](SF)))
    if name in oracles:
        expect = _canon(con.sql(oracles[name]).df())
        ok = (list(got.columns) == list(expect.columns)) and got.equals(expect)
        print(f"{name}: {'OK' if ok else 'FAIL'} rows={len(got)}/{len(expect)}")
        if not ok:
            fail += 1
            print("  got cols", list(got.columns), "expect", list(expect.columns))
            print(got.head(3))
            print(expect.head(3))
    else:
        print(f"{name}: rows-only rows={len(got)}")
ray.shutdown()
sys.exit(fail)
