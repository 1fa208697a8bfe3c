"""Parquet read helpers the table store shares.

- ``discover_fragments`` / ``read_parquet_blocks``: input-fragment
  listing and a read whose parallelism never drops below cluster width
  (``cluster_cpus``);
- ``_rowgroup_specs``: the driver-side row-group split that turns one
  large input fragment into many parallel work units
  (pipelines/tablestore.py ``compress_table``).
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data


def discover_fragments(path: str | list[str]) -> list[str]:
    if isinstance(path, list):
        return sorted(path)
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, f)
        for root, _dirs, files in os.walk(path)
        for f in files
        if f.endswith(".parquet") and not f.startswith("_")
    )


def cluster_cpus() -> int:
    """The CPU count work is sized by: the Ray cluster's when a session is
    up, else the host's. Ray may not be initialized yet on a first call
    (the first read or ray.put auto-inits), and a hard-coded fallback would
    cap that call's parallelism on a big machine."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 4))
    return os.cpu_count() or 4


def read_parquet_blocks(
    path: str | list[str], min_blocks_per_cpu: int = 2, **kwargs
) -> "ray.data.Dataset":
    """``read_parquet`` with read parallelism pinned to
    ``max(#files, min_blocks_per_cpu × CPUs)``. Ray sizes read tasks by
    estimated bytes ÷ target block size, which collapses small inputs to ONE
    block and serializes every downstream stage; at 100 TB the auto sizing is
    fine, but per-fragment parallelism must never drop below the cluster
    width. Files with multiple row groups can split beyond file granularity."""
    files = discover_fragments(path)
    onb = max(len(files), min_blocks_per_cpu * cluster_cpus())
    return ray.data.read_parquet(files, override_num_blocks=onb, **kwargs)


# A spec is the unit of MEMORY locality, a group of specs the unit of
# SCHEDULING. Specs are capped at ~2 encode batches (~2 M tokens ≈ 16 MB of
# values): measured at 32 procs, 4 M-token working sets inflate per-core
# CPU ~2× (cache/bandwidth contention: 39.7 vs 80.8 M tokens/s on the same
# 520 M-token corpus). A task then processes a contiguous GROUP of specs
# sequentially (tablestore._map_tasks launches at most max(4·CPUs, 16)
# tasks a round, ~1.3 ms each) — same peak footprint: the group bounds the
# launches, the spec cap bounds the memory.
MAX_SPEC_ROWS_FACTOR = 2


def _rowgroup_specs(
    fragments: list[str],
    target_rows: int,
    path_to_key: dict[str, str],
    target_specs: int | None = None,
) -> list[dict]:
    """One work unit per ~``target_rows`` of consecutive row groups, from
    driver-side parquet FOOTERS only (a few KB per fragment; bounded per
    round by ``fragments_per_round``). Row-group granularity is the finest
    split a parquet reader can do without decoding — a fragment written with
    giant row groups degrades to file granularity (documented corpus-layout
    assumption; our own sinks write 2048-row groups).

    ``target_specs`` (≈4× cluster CPUs) coarsens specs when the round would
    otherwise produce far more. Each spec pays ~14 ms of fixed cost for its
    own part file (writer, footer, seek sidecar, lineage stats; a 16-row
    spec on a 1-CPU VM share), while launching a task costs ~1.3 ms
    (tablestore._map_tasks; the Ray Data range → map_batches chain it
    replaced paid ~11 ms a block plus ~35 ms a call). So thousands of
    1 M-token specs throttle a small cluster through part overhead, while
    ~4 waves per CPU still levels content skew. The coarsening is capped at
    ``MAX_SPEC_ROWS_FACTOR`` encode batches per spec so one task never reads
    an unbounded slice of the round into memory (state granularity is
    unaffected — the encoder re-chunks by token budget internally)."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    def _footer(f: str) -> tuple[str, list[int]]:
        # an unreadable footer fails the whole call HERE, naming the file,
        # before any task is scheduled or any manifest record committed
        try:
            md = pq.read_metadata(f)
        except pa.ArrowException as e:
            raise ValueError(f"{f}: unreadable parquet footer ({e})") from e
        return f, [md.row_group(g).num_rows for g in range(md.num_row_groups)]

    # footer reads are tiny but latency-bound (one driver-side round trip
    # per fragment; object storage at 100 TB makes this worse, not better)
    # — a thread pool keeps planning out of the critical path
    with ThreadPoolExecutor(max_workers=16) as ex:
        per_frag = list(ex.map(_footer, fragments))
    total_rows = sum(sum(rg) for _f, rg in per_frag)
    if target_specs:
        coarse = -(-total_rows // target_specs)  # ceil
        target_rows = max(
            target_rows, min(coarse, MAX_SPEC_ROWS_FACTOR * target_rows)
        )
    specs: list[dict] = []
    for f, rg_rows in per_frag:
        if not rg_rows:
            specs.append({"path": f, "rg0": 0, "rg1": -1, "frag": path_to_key[f]})
            continue
        g = 0
        while g < len(rg_rows):
            hi, acc = g, 0
            while hi < len(rg_rows) and acc < target_rows:
                acc += rg_rows[hi]
                hi += 1
            specs.append(
                {"path": f, "rg0": g, "rg1": hi, "frag": path_to_key[f]}
            )
            g = hi
    return specs
