"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself; nothing here (or in fsst_like_ray)
calls ray.init/ray.shutdown. ``entry()`` runs the flagship pipeline on
sf0.001; ``queries()``/``oracle_sql()`` expose every implemented operator
(SURVEY.md §2 + training-data ops) with DuckDB oracles where the semantics
are SQL-expressible.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship: documents → north-rule tokens table → per-block auto-codec
    columnar encode → decode (bit-identical) → comma-joined token strings."""
    from fsst_like_ray.pipelines.queries import make_roundtrip

    return make_roundtrip("auto")(SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    from fsst_like_ray.pipelines.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    from fsst_like_ray.pipelines.queries import build_oracle_sql

    return build_oracle_sql()
