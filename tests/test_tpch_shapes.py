"""Edge-case tests for the round-3 TPC-H shapes on PLANTED tables — the
corners the random testdata can't guarantee to hit: Q21's tie-at-max and
single-supplier exclusions, Q2's multi-row tie-keeping minima. Each query
runs against the same planted parquet as its DuckDB oracle, so the test is
the driver compare in miniature."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def planted_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("tpch_planted")
    ts = lambda s: pd.Timestamp(s)  # noqa: E731

    # orders: 1=F multi-supp unique max, 2=F tie at max, 3=F single supp,
    # 4=O multi-supp (wrong status), 5=F multi-supp unique max (supplier 7)
    pd.DataFrame(
        {
            "o_orderkey": [1, 2, 3, 4, 5],
            "o_custkey": [1, 1, 2, 2, 3],
            "o_orderstatus": ["F", "F", "F", "O", "F"],
            "o_totalprice": [10.0] * 5,
            "o_orderdate": [ts("1996-03-01")] * 5,
            "o_orderpriority": ["1-URGENT"] * 5,
        }
    ).to_parquet(d / "orders.parquet")

    li = pd.DataFrame(
        {
            "o": [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
            "s": [7, 8, 8, 7, 8, 7, 7, 7, 8, 7, 9],
            "ship": [
                "1996-01-10", "1996-01-05", "1996-02-01",  # 1: max=8 (02-01)
                "1996-01-15", "1996-01-15",                 # 2: tie at max
                "1996-01-01", "1996-03-01",                 # 3: single supp
                "1996-01-01", "1996-04-01",                 # 4: status O
                "1996-05-01", "1996-01-01",                 # 5: max=7
            ],
        }
    )
    pd.DataFrame(
        {
            "l_orderkey": li["o"],
            "l_partkey": np.ones(len(li), dtype=np.int64),
            "l_suppkey": li["s"],
            "l_linenumber": np.arange(len(li), dtype=np.int64),
            "l_quantity": np.full(len(li), 2.0),
            "l_extendedprice": np.full(len(li), 100.0),
            "l_discount": np.zeros(len(li)),
            "l_tax": np.zeros(len(li)),
            "l_returnflag": ["N"] * len(li),
            "l_linestatus": ["O"] * len(li),
            "l_shipdate": pd.to_datetime(li["ship"]),
        }
    ).to_parquet(d / "lineitem.parquet")

    pd.DataFrame(
        {
            "s_suppkey": [7, 8, 9],
            "s_name": ["Supplier#7", "Supplier#8", "Supplier#9"],
            "s_nationkey": [0, 1, 2],
            "s_acctbal": [1.0, 2.0, 3.0],
        }
    ).to_parquet(d / "supplier.parquet")

    # customers: nation 0 has a TIED minimum (two rows at 1.00)
    pd.DataFrame(
        {
            "c_custkey": [1, 2, 3, 4, 5],
            "c_name": ["ca", "cb", "cc", "cd", "ce"],
            "c_nationkey": [0, 0, 0, 1, 2],
            "c_acctbal": [1.0, 1.0, 5.0, 2.0, 9.0],
            "c_mktsegment": ["BUILDING"] * 5,
        }
    ).to_parquet(d / "customer.parquet")
    pd.DataFrame(
        {
            "n_nationkey": [0, 1, 2],
            "n_name": ["NATION_0", "NATION_1", "NATION_2"],
            "n_regionkey": [0, 0, 1],  # nations 0,1 in EUROPE region
        }
    ).to_parquet(d / "nation.parquet")
    pd.DataFrame(
        {"r_regionkey": [0, 1], "r_name": ["EUROPE", "ASIA"]}
    ).to_parquet(d / "region.parquet")
    pd.DataFrame(
        {
            "p_partkey": [1],
            "p_name": ["blue widget"],
            "p_brand": ["Brand#1"],
            "p_type": ["PROMO"],
            "p_size": [1],
            "p_retailprice": [10.0],
        }
    ).to_parquet(d / "part.parquet")
    return str(d)


def _oracle(planted_sf: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ["orders", "lineitem", "supplier", "customer", "nation",
              "region", "part"]:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{planted_sf}/{t}.parquet'"
        )
    return con.sql(sql).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_q21_planted_corners(ray_session, planted_sf):
    from fsst_like_ray.pipelines.queries import (
        q_tpch_q21,
        build_oracle_sql,
    )

    got = q_tpch_q21(planted_sf).to_pandas()
    # order 1 blocks on supplier 8, order 5 on supplier 7; ties (2),
    # single-supplier (3) and non-F (4) orders contribute nothing
    assert dict(zip(got["s_name"], got["numwait"])) == {
        "Supplier#7": 1,
        "Supplier#8": 1,
    }
    expect = _oracle(planted_sf, build_oracle_sql()["tpch_q21"])
    pd.testing.assert_frame_equal(_canon(got), _canon(expect))


def test_q2_tie_keeping_min(ray_session, planted_sf):
    from fsst_like_ray.pipelines.queries import q_tpch_q2, build_oracle_sql

    got = q_tpch_q2(planted_sf).to_pandas()
    # nation 0's minimum is shared by ca and cb — BOTH rows survive
    assert sorted(got["c_name"]) == ["ca", "cb", "cd"]
    assert got["acctbal_cents"].tolist() == [100, 100, 200]
    expect = _oracle(planted_sf, build_oracle_sql()["tpch_q2"])
    pd.testing.assert_frame_equal(_canon(got), _canon(expect))
