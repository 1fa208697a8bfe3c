"""CLI entry points — the reference's executables re-expressed
(``./build/main <column:file> <like-pattern>`` → ``like``; the sketch.cc
full-decompression harness → ``table-store --verify`` / ``table-decode``).

Usage:
    python -m fsst_like_ray table-store <input_parquet> <out_dir> [--verify]
    python -m fsst_like_ray table-decode <encoded> <dest> [--columns ...]
    python -m fsst_like_ray like <documents.parquet> <pattern>
        [--engine auto|decoded|prefix|skipping|kmp] [--text-col text]
    python -m fsst_like_ray rank <documents.parquet> <pattern> [<pattern>...]
        (the reference's per-engine ranking run: every applicable engine,
        raw vs fsst, counts oracle-asserted, one JSON row per ranking line)

Owns its Ray session (guarded init; the library itself never inits Ray).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ray():
    import os

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; default
        # to a local session otherwise — the same CLI is the job entrypoint
        # on a real multi-node cluster and the standalone local tool
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_like(args) -> int:
    """The reference's flagship run (src/BenchmarkDriver.cpp:54-85): encode
    the column, scan the pattern on the compressed representation, print the
    match count + timing."""
    ray = _ray()
    import ray.data

    from .pipelines.scan import encode_text_dataset, like_count

    if args.file.endswith((".csv", ".txt")):
        # the reference's input format: one text value per line
        # (scripts/data-setup.sh exports l_comment.csv / p_type.csv). Line
        # number ids are batch-local — LIKE counting needs no global ids.
        import numpy as np
        import pyarrow as pa

        def lines_to_rows(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(b.num_rows, dtype=np.int64)
                    ),
                    "text": b["text"],
                }
            )

        ds = ray.data.read_text(args.file).map_batches(
            lines_to_rows, batch_format="pyarrow"
        )
    else:
        ds = ray.data.read_parquet(
            args.file, columns=[args.id_col, args.text_col]
        )
    if args.text_col != "text" and not args.file.endswith((".csv", ".txt")):
        import pyarrow as pa

        def rename(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                ["doc_id" if c == args.id_col else "text" if c == args.text_col
                 else c for c in b.column_names]
            )

        ds = ds.map_batches(rename, batch_format="pyarrow")
    enc = encode_text_dataset(ds).materialize()
    t0 = time.time()
    n = like_count(enc, args.pattern, engine=args.engine)
    dt = time.time() - t0
    out = {"pattern": args.pattern, "engine": args.engine,
           "matches": n, "scan_sec": round(dt, 4)}
    if args.shadow:
        # shadow run on the UNCOMPRESSED column (the reference's DEBUG
        # shadow, sketch.cc:1147): every compressed-domain engine must
        # report the same count as the decoded oracle path
        t1 = time.time()
        n_plain = like_count(enc, args.pattern, engine="decoded")
        out["shadow_matches"] = n_plain
        out["shadow_sec"] = round(time.time() - t1, 4)
        out["shadow_agrees"] = bool(n == n_plain)
    print(json.dumps(out))
    ray.shutdown()
    if args.shadow and not out["shadow_agrees"]:
        return 1
    return 0


def cmd_rank(args) -> int:
    """The reference's flagship ranking run (sketch.cc:1306-1371): every
    applicable engine over the same column, raw vs fsst, counts
    oracle-asserted, ranked by matcher time. Prints one JSON line per
    ranked row (CSV-convertible, like the reference's ranking output)."""
    ray = _ray()
    import ray.data

    from .pipelines.rank import rank_engines
    from .pipelines.scan import encode_text_dataset

    raw = ray.data.read_parquet(args.file, columns=[args.id_col, args.text_col])
    if (args.id_col, args.text_col) != ("doc_id", "text"):
        import pyarrow as pa

        def rename(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                ["doc_id" if c == args.id_col else "text" for c in b.column_names]
            )

        raw = raw.map_batches(rename, batch_format="pyarrow")
    raw = raw.materialize()
    enc = encode_text_dataset(raw).materialize()
    rows = rank_engines(raw, enc, args.patterns, repeats=args.repeats)
    for r in rows:
        print(json.dumps(r))
    ray.shutdown()
    return 0


def cmd_trigram_index(args) -> int:
    ray = _ray()
    from .pipelines.trigram import build_trigram_index

    t0 = time.time()
    stats = build_trigram_index(args.corpus, text_col=args.text_col)
    print(json.dumps({**stats, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_profile(args) -> int:
    ray = _ray()
    import ray.data as rd

    from .functions.profile import profile_table

    t0 = time.time()
    tbl = profile_table(rd.read_parquet(args.input))
    for r in tbl.to_pylist():
        print(json.dumps(r))
    print(json.dumps({"sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_decontam(args) -> int:
    ray = _ray()
    import ray.data as rd

    from .functions.decontam import contamination_report

    t0 = time.time()
    out = contamination_report(
        rd.read_parquet(args.docs),
        rd.read_parquet(args.bench),
        text_col=args.text_col,
        id_col=args.id_col,
        k=args.k,
    )
    n = 0
    for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for r in b.to_pylist():
            print(json.dumps(r))
            n += 1
    print(json.dumps({"contaminated_docs": n,
                      "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_bpe_train(args) -> int:
    """Train BPE merge rules over a corpus; optionally write the merged
    token stream. Accepts a north-rule tokens parquet directly, or any
    parquet with a text column (tokenized to code points first)."""
    ray = _ray()
    import ray.data as rd

    from .functions.bpe import bpe_train

    t0 = time.time()
    ds = rd.read_parquet(args.corpus)
    if "tokens" not in ds.schema().names:
        from .pipelines.queries import to_tokens_batch

        ds = ds.map_batches(to_tokens_batch, batch_format="pyarrow")
    rules, final, stats = bpe_train(
        ds, args.merges, sample_rate=args.sample_rate
    )
    out = {
        "rules": [
            {"a": a, "b": b, "new_id": n, "count": c}
            for a, b, n, c in rules
        ],
        "rounds": stats,
        "sec": round(time.time() - t0, 3),
    }
    if args.rules_out:
        with open(args.rules_out, "w") as f:
            json.dump(out, f)
    if args.apply_out:
        final.write_parquet(args.apply_out)
        out["applied_to"] = args.apply_out
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_ingest(args) -> int:
    """Raw corpus shards → the north-rule tokens parquet: JSONL
    (optionally .gz/.zst — decompress-on-read inside each read task) or
    CSV with (doc_id, text, source) columns, tokenized per batch into
    (doc_id, tokens:list<int32>, n_tok, source) and written partitioned.
    The output feeds `compress` / `table-store` / `bpe-train` directly —
    the missing first mile of the raw-data→store path."""
    ray = _ray()
    import ray.data as rd

    from .pipelines.queries import to_tokens_batch

    t0 = time.time()
    paths = args.inputs
    if args.format == "csv":
        ds = rd.read_csv(paths)
    else:
        codec = (
            "gzip"
            if any(p.endswith(".gz") for p in paths)
            else "zstd"
            if any(p.endswith(".zst") for p in paths)
            else None
        )
        kw = (
            {"arrow_open_stream_args": {"compression": codec}}
            if codec
            else {}
        )
        ds = rd.read_json(paths, **kw)
    import pyarrow as pa

    def norm(b: pa.Table) -> pa.Table:
        cols = {"doc_id": b[args.id_col], "text": b[args.text_col]}
        cols["source"] = (
            b[args.source_col]
            if args.source_col in b.column_names
            else pa.nulls(b.num_rows, type=pa.string())
        )
        return pa.table(cols)

    out = ds.map_batches(norm, batch_format="pyarrow").map_batches(
        to_tokens_batch, batch_format="pyarrow"
    )
    out.write_parquet(args.out)
    from ray.data.aggregate import Sum

    row = out.aggregate(Sum("n_tok", alias_name="t"))
    print(
        json.dumps(
            {
                "out": args.out,
                "tokens": int(row["t"] or 0),
                "sec": round(time.time() - t0, 3),
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_bpe_apply(args) -> int:
    """Tokenize a NEW corpus with a previously trained merge table
    (functions/bpe.bpe_apply — one map_batches stage, rules in rank
    order; --rules-out from bpe-train is the input contract)."""
    ray = _ray()
    import ray.data as rd

    from .functions.bpe import bpe_apply

    t0 = time.time()
    with open(args.rules) as f:
        blob = json.load(f)
    rules = [
        (r["a"], r["b"], r["new_id"], r.get("count", 0))
        for r in blob["rules"]
    ]
    ds = rd.read_parquet(args.corpus)
    if "tokens" not in ds.schema().names:
        from .pipelines.queries import to_tokens_batch

        ds = ds.map_batches(to_tokens_batch, batch_format="pyarrow")
    applied = bpe_apply(ds, rules)
    applied.write_parquet(args.out)
    from ray.data.aggregate import Sum

    row = applied.aggregate(Sum("n_tok", alias_name="t"))
    print(
        json.dumps(
            {
                "rules": len(rules),
                "out": args.out,
                "tokens_out": int(row["t"] or 0),
                "sec": round(time.time() - t0, 3),
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_pack(args) -> int:
    """Pack a corpus into fixed-length training sequences and write them
    as partitioned parquet — the last step before a trainer consumes the
    data. Accepts a tokens parquet or any parquet with a text column."""
    ray = _ray()
    import ray.data as rd

    from .functions.packing import pack_sequences

    t0 = time.time()
    ds = rd.read_parquet(args.corpus)
    if "tokens" not in ds.schema().names:
        from .pipelines.queries import to_tokens_batch

        ds = ds.map_batches(to_tokens_batch, batch_format="pyarrow")
    packed = pack_sequences(ds, args.seq_len)
    packed.write_parquet(args.out_dir)
    n = packed.count()
    print(
        json.dumps(
            {
                "sequences": n,
                "seq_len": args.seq_len,
                "out": args.out_dir,
                "sec": round(time.time() - t0, 3),
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_table_encode(args) -> int:
    """Whole-table per-column encode of ANY parquet table (each column
    gets its own per-block auto-selected codec) → encoded parquet +
    per-column accounting from the PERSISTED files."""
    ray = _ray()
    import pyarrow as pa
    import ray.data as rd

    from .pipelines.columnar import columnar_stats_batch, encode_columns_dataset

    t0 = time.time()
    ds = rd.read_parquet(args.input)
    encode_columns_dataset(ds, batch_size=args.batch_size).write_parquet(
        args.out_dir
    )
    acc: dict[str, list] = {}
    for b in (
        rd.read_parquet(args.out_dir)
        .map_batches(columnar_stats_batch, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        for r in b.to_pylist():
            a = acc.setdefault(r["column"], [0, 0, set()])
            a[0] += int(r["plain_nbytes"])
            a[1] += int(r["encoded_nbytes"])
            a[2].add(r["scheme"])
    cols = {
        c: {"plain": a[0], "encoded": a[1], "ratio": round(a[0] / max(a[1], 1), 3),
            "schemes": sorted(a[2])}
        for c, a in sorted(acc.items())
    }
    tot_p = sum(a[0] for a in acc.values())
    tot_e = sum(a[1] for a in acc.values())
    print(json.dumps({
        "columns": cols,
        "total_ratio": round(tot_p / max(tot_e, 1), 3),
        "out": args.out_dir,
        "sec": round(time.time() - t0, 3),
    }))
    ray.shutdown()
    return 0


def cmd_table_decode(args) -> int:
    """Decode an encoded table back to plain parquet; --columns prunes at
    the read (only the requested columns' fields leave storage)."""
    ray = _ray()
    import ray.data as rd

    from .pipelines.columnar import decode_columns_dataset, read_decoded_columns

    t0 = time.time()
    if args.columns:
        cols = [c.strip() for c in args.columns.split(",") if c.strip()]
        dec = read_decoded_columns(args.input, cols)
    else:
        dec = decode_columns_dataset(rd.read_parquet(args.input))
    dec.write_parquet(args.dest)
    n = rd.read_parquet(args.dest).count()
    print(json.dumps({
        "rows": n,
        "out": args.dest,
        "sec": round(time.time() - t0, 3),
    }))
    ray.shutdown()
    return 0


def cmd_table_store(args) -> int:
    """Resumable whole-table encode: per-fragment lineage manifest; a
    re-run after a kill skips committed fragments. --verify re-reads the
    source and asserts bit-exact decode per fragment."""
    ray = _ray()
    from .pipelines.tablestore import compress_table, verify_table_store

    t0 = time.time()
    stats = compress_table(
        args.input,
        args.out_dir,
        batch_rows=args.batch_rows,
        spec_sample_rows=args.spec_sample,
    )
    out = {**stats, "sec": round(time.time() - t0, 3)}
    if args.verify:
        out["verify"] = verify_table_store(args.input, args.out_dir)
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_table_scan(args) -> int:
    """Predicate scan over a committed whole-table store: --like runs the
    compressed-domain LIKE engines (dictionary pushdown / fsstb matcher
    stack); --lo/--hi runs the zone-pruned range scan (manifest fragment
    zones, then block zone maps); --top K the zone-pruned top-k; --count
    the metadata-first COUNT; --isnull/--notnull the validity-bitmap
    null scan (lineage null counts prune fragments). Prints match count
    + pruning stats, and for the --like/--lo/--hi/null scans the
    executor that ran them ("driver" or "ray") with the surviving
    parts' bytes (scan_bytes)."""
    ray = _ray()
    from .pipelines.tablestore import (
        count_table_store,
        like_table_store,
        predicate_scan_table_store,
        scan_table_store,
        topk_table_store,
    )

    cols = (
        [c.strip() for c in args.columns.split(",") if c.strip()]
        if args.columns
        else None
    )
    null_mode = bool(getattr(args, "isnull", False)) or bool(
        getattr(args, "notnull", False)
    )
    modes = sum(
        (
            args.like is not None,
            args.top is not None,
            bool(args.count),
            null_mode,
        )
    )
    if modes > 1:
        print(
            "table-scan: --like / --top / --count / --isnull/--notnull "
            "are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    t0 = time.time()
    stats: dict = {}
    if null_mode:
        op = "isnull" if args.isnull else "notnull"
        ds = predicate_scan_table_store(
            args.store, [(op, args.column)], columns=cols, stats_out=stats
        )
        print(json.dumps({
            "matches": ds.count(),
            **stats,
            "sec": round(time.time() - t0, 3),
        }))
        ray.shutdown()
        return 0
    if args.count:
        n = count_table_store(
            args.store, args.column, lo=args.lo, hi=args.hi, stats_out=stats
        )
        print(json.dumps(
            {"matches": n, **stats, "sec": round(time.time() - t0, 3)}
        ))
        ray.shutdown()
        return 0
    if args.top is not None:
        if args.lo is not None or args.hi is not None:
            print(
                "table-scan: --top and --lo/--hi are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        t = topk_table_store(
            args.store, args.column, args.top,
            descending=not args.asc, columns=cols, stats_out=stats,
        )
        print(json.dumps({
            "matches": t.num_rows,
            "rows": t.to_pylist(),
            **stats,
            "sec": round(time.time() - t0, 3),
        }, default=str))
        ray.shutdown()
        return 0
    if args.like is not None:
        if args.lo is not None or args.hi is not None:
            print(
                "table-scan: --like and --lo/--hi are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        ds = like_table_store(
            args.store, args.column, args.like, columns=cols, stats_out=stats
        )
    else:
        if args.lo is None and args.hi is None:
            print(
                "table-scan: need --like / --lo/--hi / --top / --count",
                file=sys.stderr,
            )
            return 2
        ds = scan_table_store(
            args.store, args.column, lo=args.lo, hi=args.hi,
            columns=cols, stats_out=stats,
        )
    if args.dest:
        ds.write_parquet(args.dest)
        import ray.data as rd

        n = rd.read_parquet(args.dest).count()
    else:
        n = ds.count()
    print(json.dumps({
        "matches": n,
        **stats,
        "sec": round(time.time() - t0, 3),
        **({"out": args.dest} if args.dest else {}),
    }))
    ray.shutdown()
    return 0


def cmd_table_agg(args) -> int:
    """Aggregates over a committed store: --group-by runs the
    compressed-domain GROUP BY (dictionary group keys, cached int
    streams); without it, scalar MIN/MAX/COUNT answer from the manifest
    metadata where lineage allows and SUM scans one column's encoded
    fields. --distinct folds per-block dictionary entries. --group-by
    prints the pruning stats and the executor with its scan_bytes."""
    ray = _ray()
    from .pipelines.tablestore import (
        agg_table_store,
        distinct_table_store,
        group_agg_table_store,
    )

    t0 = time.time()
    stats: dict = {}
    if args.distinct:
        t = distinct_table_store(args.store, args.column, stats_out=stats)
        print(json.dumps({
            "distinct": t.num_rows,
            "values": t["value"].to_pylist() if t.num_rows <= 50 else None,
            **stats,
            "sec": round(time.time() - t0, 3),
        }, default=str))
    elif args.group_by:
        aggs = None
        if args.agg:
            aggs = {}
            for spec in args.agg:
                op, _, col = spec.partition(":")
                if op not in ("sum", "min", "max", "count") or not col:
                    print(
                        f"table-agg: bad --agg {spec!r} (want OP:COL)",
                        file=sys.stderr,
                    )
                    return 2
                aggs.setdefault(col, []).append(op)
            aggs = {c: tuple(o) for c, o in aggs.items()}
        gb = args.group_by
        bucket = args.bucket
        if "," in gb:
            gb = [c.strip() for c in gb.split(",") if c.strip()]
            if aggs:
                print(
                    "table-agg: --agg is single-key; composite --group-by "
                    "takes --column + --ops",
                    file=sys.stderr,
                )
                return 2
            if bucket is not None:
                # with a composite key the bucket applies to the LAST
                # listed column (the conventional time dimension)
                bucket = {gb[-1]: bucket}
        t = group_agg_table_store(
            args.store, gb,
            None if aggs else args.column,
            ops=tuple(args.ops), bucket=bucket, aggs=aggs, stats_out=stats,
        )
        print(json.dumps({
            "groups": t.num_rows,
            "rows": t.to_pylist() if t.num_rows <= 50 else None,
            **stats,
            "sec": round(time.time() - t0, 3),
        }, default=str))
    else:
        a = agg_table_store(
            args.store, args.column, ops=tuple(args.ops), stats_out=stats
        )
        print(json.dumps(
            {**a, **stats, "sec": round(time.time() - t0, 3)}
        ))
    ray.shutdown()
    return 0


def cmd_table_filter(args) -> int:
    """Predicate-filtered store rewrite: fragments provably irrelevant
    drop without opening a file, provably all-matching ones copy their
    encoded parts verbatim, boundary fragments rewrite their predicate
    survivors (tablestore.filter_table_store)."""
    ray = _ray()
    from .pipelines.tablestore import filter_table_store

    preds = []
    if args.lo is not None or args.hi is not None:
        preds.append(("range", args.column, args.lo, args.hi))
    if args.like is not None:
        preds.append(("like", args.column, args.like))
    if not preds:
        print("table-filter: need --lo/--hi and/or --like", file=sys.stderr)
        return 2
    t0 = time.time()
    stats: dict = {}
    out = filter_table_store(args.src, args.dst, preds, stats_out=stats)
    print(json.dumps({**out, **stats, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_table_restore(args) -> int:
    """Decode a committed whole-table store back to plain parquet
    (tablestore.read_table_store → write_parquet), streaming — the
    exit ramp of the store lifecycle."""
    ray = _ray()
    from .pipelines.tablestore import read_table_store

    cols = (
        [c.strip() for c in args.columns.split(",") if c.strip()]
        if args.columns
        else None
    )
    t0 = time.time()
    ds = read_table_store(args.store, columns=cols)
    ds.write_parquet(args.dest)
    import ray.data as rd

    n = rd.read_parquet(args.dest).count()
    print(json.dumps({
        "rows": n, "out": args.dest, "sec": round(time.time() - t0, 3),
    }))
    ray.shutdown()
    return 0


def cmd_table_compact(args) -> int:
    """Fragment compaction without re-encoding: byte-identical part
    copies packed into fewer fragments, lineage merged exactly
    (tablestore.compact_table_store)."""
    ray = _ray()
    from .pipelines.tablestore import compact_table_store

    t0 = time.time()
    stats: dict = {}
    out = compact_table_store(
        args.src, args.dst, target_rows=args.target_rows,
        order_by=args.order_by, stats_out=stats,
    )
    print(json.dumps({**out, **stats, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_table_cluster(args) -> int:
    """Cluster-while-encoding: one distributed range sort, then the
    resumable store encode — fragment zone envelopes come out disjoint."""
    ray = _ray()
    from .pipelines.tablestore import cluster_table_store

    t0 = time.time()
    stats = cluster_table_store(
        args.input, args.out_dir, args.column, batch_rows=args.batch_rows
    )
    print(json.dumps({**stats, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_table_sort(args) -> int:
    """Total-order export of a committed store with a global rownum
    column (tablestore.sort_table_store): zonemerge (no shuffle) when
    the lineage proves fragment envelopes disjoint on the leading key,
    one range-partitioned sort otherwise. --dest streams parquet;
    otherwise prints the first rows + the chosen physical path."""
    ray = _ray()
    from .pipelines.tablestore import sort_table_store

    by = [c.strip() for c in args.by.split(",") if c.strip()]
    cols = (
        [c.strip() for c in args.columns.split(",") if c.strip()]
        if args.columns
        else None
    )
    t0 = time.time()
    stats: dict = {}
    ds = sort_table_store(
        args.store, by, columns=cols, descending=args.desc,
        stats_out=stats,
        # head-print mode: push the limit into the plan so zonemerge
        # prunes whole fragments instead of decoding the full store
        limit_rows=None if args.dest else args.limit,
    )
    if args.dest:
        ds.write_parquet(args.dest)
        out = {**stats, "dest": args.dest}
    else:
        head = ds.to_pandas().sort_values("rownum").head(args.limit)
        print(head.to_string(index=False))
        out = stats
    print(json.dumps({**out, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_table_upsert(args) -> int:
    """CDC MERGE a delta parquet into a committed store → a new store
    (tablestore.upsert_table_store): zone-disjoint fragments copy
    verbatim, overlapping ones rewrite through the negated
    compressed-domain IN mask, the delta appends with full lineage."""
    ray = _ray()
    from .pipelines.tablestore import upsert_table_store

    t0 = time.time()
    stats: dict = {}
    st = upsert_table_store(
        args.src, args.dst, args.delta, args.key,
        batch_rows=args.batch_rows, stats_out=stats,
    )
    print(
        json.dumps(
            {**stats, "rows": st.get("rows"),
             "sec": round(time.time() - t0, 3)}
        )
    )
    ray.shutdown()
    return 0


def cmd_table_delete(args) -> int:
    """Key-list delete (GDPR shape) → a new committed store
    (tablestore.delete_keys_table_store). Keys come from --keys (comma
    ints) or --keys-parquet (a parquet with the key column)."""
    ray = _ray()
    from .pipelines.tablestore import delete_keys_table_store

    if bool(args.keys) == bool(args.keys_parquet):
        print("exactly one of --keys / --keys-parquet required")
        return 2
    keys = (
        args.keys_parquet
        if args.keys_parquet
        else [int(k) for k in args.keys.split(",") if k.strip()]
    )
    t0 = time.time()
    stats: dict = {}
    st = delete_keys_table_store(
        args.src, args.dst, keys, args.key,
        batch_rows=args.batch_rows, stats_out=stats,
    )
    print(
        json.dumps(
            {**stats, "rows": st.get("rows"),
             "sec": round(time.time() - t0, 3)}
        )
    )
    ray.shutdown()
    return 0


def cmd_table_vacuum(args) -> int:
    """GC crash leftovers from a store's data dir (offline maintenance;
    no Ray session — pure manifest+filesystem work)."""
    from .pipelines.tablestore import vacuum_table_store

    print(json.dumps(vacuum_table_store(args.store, dry_run=args.dry_run)))
    return 0


def cmd_table_drop_columns(args) -> int:
    """Column erasure: rewrite a store keeping every column except the
    named ones (tablestore.drop_columns_table_store); kept columns
    verify bit-exact per fragment before commit."""
    ray = _ray()
    from .pipelines.tablestore import drop_columns_table_store

    try:
        print(
            json.dumps(
                drop_columns_table_store(
                    args.src, args.dst, args.columns.split(",")
                )
            )
        )
        return 0
    finally:
        ray.shutdown()


def cmd_table_ndv(args) -> int:
    """Approximate distinct counts from the lineage manifest alone
    (tablestore.ndv_table_store; no Ray session, no file opens)."""
    from .pipelines.tablestore import ndv_table_store

    print(json.dumps(ndv_table_store(args.store, args.column)))
    return 0


def cmd_table_batches(args) -> int:
    """Stream token-budgeted training batches from a committed store
    (pipelines/loader.py — table OR flagship corpus format; no Ray:
    the loader is a sequential consumer). Prints one JSON line per
    batch head, then a summary."""
    from .pipelines.loader import (
        iter_training_batches,
        plan_training_batches,
    )

    epoch = (
        (args.seed, args.epoch) if args.epoch is not None else None
    )
    t0 = time.time()
    plan = plan_training_batches(
        args.store, args.budget, rank=args.rank,
        world_size=args.world_size, epoch=epoch,
        batch_rows=args.batch_rows, order=args.order, keep_sources=(
            args.sources.split(",") if args.sources else None
        ),
    )
    plan_sec = time.time() - t0
    tokens = batches = rows = 0
    t0 = time.time()
    for b in iter_training_batches(
        args.store, args.budget, start_step=args.start_step,
        rank=args.rank, world_size=args.world_size, epoch=epoch,
        batch_rows=args.batch_rows, order=args.order, keep_sources=(
            args.sources.split(",") if args.sources else None
        ), plan=plan,
    ):
        if batches < args.head:
            print(
                json.dumps(
                    {
                        "step": b["step"],
                        "n_rows": b["n_rows"],
                        "n_tokens": b["n_tokens"],
                        "oversized": b["oversized"],
                        "first_doc": str(b["doc_id"][0]),
                    }
                )
            )
        tokens += b["n_tokens"]
        rows += b["n_rows"]
        batches += 1
    sec = time.time() - t0
    print(
        json.dumps(
            {
                "batches": batches,
                "rows": rows,
                "tokens": tokens,
                "plan_sec": round(plan_sec, 3),
                "sec": round(sec, 3),
                "tokens_per_sec": round(tokens / sec, 1) if sec else 0.0,
            }
        )
    )
    return 0


def cmd_catalog_commit(args) -> int:
    """Register a committed store as the next catalog version
    (state/catalog.commit_version; no Ray — manifest rollup only)."""
    from .state.catalog import commit_version, resolve

    v = commit_version(
        args.catalog, args.store, op=args.op, note=args.note,
        parent=args.parent,
    )
    print(json.dumps(resolve(args.catalog, v)))
    return 0


def cmd_catalog_log(args) -> int:
    """Version history, oldest first (state/catalog.history; no Ray)."""
    from .state.catalog import head_version, history

    head = head_version(args.catalog)
    for rec in history(args.catalog):
        print(json.dumps({**rec, "head": rec["version"] == head}))
    return 0


def cmd_catalog_read(args) -> int:
    """Time-travel row count + head rows AS OF a version (HEAD default)."""
    ray = _ray()
    from .state.catalog import read_version, resolve

    rec = resolve(args.catalog, args.version)
    ds = read_version(args.catalog, args.version)
    n = 0
    shown = 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
        if shown < args.head and b.num_rows:
            for row in b.slice(0, args.head - shown).to_pylist():
                print(json.dumps(row, default=str))
                shown += 1
    print(
        json.dumps(
            {"version": rec["version"], "op": rec["op"], "rows": n}
        )
    )
    ray.shutdown()
    return 0


def cmd_catalog_prune(args) -> int:
    """Retention GC: drop versions older than the newest N, reclaim
    managed unreferenced stores (state/catalog.prune_catalog; no Ray)."""
    from .state.catalog import prune_catalog

    print(
        json.dumps(
            prune_catalog(
                args.catalog,
                args.keep_last,
                dry_run=args.dry_run,
                stray_grace_s=args.stray_grace_s,
            )
        )
    )
    return 0


def cmd_table_union(args) -> int:
    """Consolidate N committed stores into one by byte-identical part
    copy with lineage carry-over (tablestore.union_table_store)."""
    ray = _ray()
    from .pipelines.tablestore import union_table_store

    t0 = time.time()
    stats: dict = {}
    st = union_table_store(args.srcs, args.dst, stats_out=stats)
    print(
        json.dumps(
            {**stats, "rows": st.get("rows"),
             "sec": round(time.time() - t0, 3)}
        )
    )
    ray.shutdown()
    return 0


def cmd_table_explain(args) -> int:
    """Print the fragment planner's skip/scan decision per committed
    fragment for a predicate, from the manifest alone (no Ray)."""
    from .pipelines.tablestore import explain_table_store

    preds = []
    if args.lo is not None or args.hi is not None:
        preds.append(("range", args.column, args.lo, args.hi))
    if args.like:
        preds.append(("like", args.column, args.like))
    if not preds:
        print("need --lo/--hi or --like")
        return 2
    plan = explain_table_store(args.store, preds)
    for row in plan.to_pylist():
        print(json.dumps(row))
    n_skip = sum(1 for d in plan["decision"].to_pylist() if d == "skip")
    print(
        json.dumps(
            {"fragments": plan.num_rows, "skip": n_skip,
             "scan": plan.num_rows - n_skip}
        )
    )
    return 0


def cmd_table_join(args) -> int:
    """Equi-join two committed stores (tablestore.join_table_store):
    lineage key envelopes prune fragments on both sides before any part
    file opens; small right sides broadcast, big ones take the one-shuffle
    co-partitioned path. --dest streams the result to parquet; otherwise
    prints row count + pruning/path stats."""
    ray = _ray()
    from .pipelines.tablestore import join_table_store

    def _cols(s):
        return [c.strip() for c in s.split(",") if c.strip()] if s else None

    t0 = time.time()
    stats: dict = {}
    ds = join_table_store(
        args.left,
        args.right,
        on=args.on,
        right_on=args.right_on,
        left_columns=_cols(args.left_columns),
        right_columns=_cols(args.right_columns),
        how=args.how,
        distributed={"auto": None, "shuffle": True, "broadcast": False}[
            args.path
        ],
        stats_out=stats,
    )
    if args.dest:
        ds.write_parquet(args.dest)
        import ray.data as rd

        n = rd.read_parquet(args.dest).count()
    else:
        n = ds.count()
    out = {"rows": n, "sec": round(time.time() - t0, 3), **stats}
    if args.dest:
        out["out"] = args.dest
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_table_stats(args) -> int:
    """Lineage rollup of a committed store from the manifest alone (no
    Ray session, no file opens) — tablestore.store_lineage_rollup."""
    from .pipelines.tablestore import store_lineage_rollup

    try:
        print(json.dumps(store_lineage_rollup(args.store)))
    except FileNotFoundError as e:
        print(f"table-stats: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_word_index(args) -> int:
    ray = _ray()
    from .pipelines.postings import build_word_index

    t0 = time.time()
    stats = build_word_index(
        args.corpus, args.index_dir,
        text_col=args.text_col, id_col=args.id_col,
        n_buckets=args.n_buckets, incremental=args.incremental,
    )
    print(json.dumps({**stats, "sec": round(time.time() - t0, 3)}))
    ray.shutdown()
    return 0


def cmd_search(args) -> int:
    # lookup is driver-side file reads — no Ray session needed
    from .pipelines.postings import word_index_lookup

    t0 = time.time()
    ids, read = word_index_lookup(
        args.index_dir, tuple(args.terms), mode=args.mode
    )
    print(json.dumps({
        "doc_ids": [int(i) for i in ids],
        "n": len(ids),
        "buckets_read": read,
        "sec": round(time.time() - t0, 4),
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m fsst_like_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    l = sub.add_parser("like")
    l.add_argument("file")
    l.add_argument("pattern")
    l.add_argument("--engine", default="auto",
                   choices=("auto", "decoded", "prefix", "skipping", "kmp",
                            "dummy"))  # dummy = cost floor, reports 0 matches
    l.add_argument("--text-col", default="text")
    l.add_argument("--id-col", default="doc_id")
    l.add_argument("--shadow", action="store_true",
                   help="also run the decoded path and assert equal counts "
                        "(the reference's DEBUG shadow run)")
    l.set_defaults(fn=cmd_like)

    r = sub.add_parser("rank")
    r.add_argument("file")
    r.add_argument("patterns", nargs="+")
    r.add_argument("--text-col", default="text")
    r.add_argument("--id-col", default="doc_id")
    r.add_argument("--repeats", type=int, default=2)
    r.set_defaults(fn=cmd_rank)

    tg = sub.add_parser(
        "trigram-index",
        help="build the per-file trigram bloom index over a text corpus "
             "(<corpus>/index/trigrams.parquet; prunes LIKE scans)",
    )
    tg.add_argument("corpus")
    tg.add_argument("--text-col", default="text")
    tg.set_defaults(fn=cmd_trigram_index)

    pf = sub.add_parser(
        "profile",
        help="per-column nulls / exact distinct / integer min-max "
             "(one JSON line per column)",
    )
    pf.add_argument("input")
    pf.set_defaults(fn=cmd_profile)

    dc = sub.add_parser(
        "decontam",
        help="flag docs sharing any exact k-word window with a benchmark "
             "set (train/test overlap sweep)",
    )
    dc.add_argument("docs")
    dc.add_argument("bench")
    dc.add_argument("--k", type=int, default=5)
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--id-col", default="doc_id")
    dc.set_defaults(fn=cmd_decontam)

    bp = sub.add_parser(
        "bpe-train",
        help="train BPE merge rules over a corpus (tokens or text parquet)",
    )
    bp.add_argument("corpus")
    bp.add_argument("--merges", type=int, default=8)
    bp.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        help="train rules on a deterministic doc sample, apply corpus-wide",
    )
    bp.add_argument("--rules-out", default=None)
    bp.add_argument("--apply-out", default=None)
    bp.set_defaults(fn=cmd_bpe_train)

    ing = sub.add_parser(
        "ingest",
        help="raw JSONL[.gz/.zst]/CSV shards -> north-rule tokens parquet",
    )
    ing.add_argument("inputs", nargs="+")
    ing.add_argument("out")
    ing.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    ing.add_argument("--id-col", default="doc_id")
    ing.add_argument("--text-col", default="text")
    ing.add_argument("--source-col", default="source")
    ing.set_defaults(fn=cmd_ingest)

    ba = sub.add_parser(
        "bpe-apply",
        help="tokenize a new corpus with trained merge rules (JSON from "
        "bpe-train --rules-out)",
    )
    ba.add_argument("corpus")
    ba.add_argument("rules")
    ba.add_argument("out")
    ba.set_defaults(fn=cmd_bpe_apply)

    pk = sub.add_parser(
        "pack",
        help="pack a corpus into fixed-length training sequences (parquet)",
    )
    pk.add_argument("corpus")
    pk.add_argument("out_dir")
    pk.add_argument("--seq-len", type=int, default=512)
    pk.set_defaults(fn=cmd_pack)

    te = sub.add_parser(
        "table-encode",
        help="per-column compress ANY parquet table (auto codec per column/block)",
    )
    te.add_argument("input")
    te.add_argument("out_dir")
    te.add_argument("--batch-size", type=int, default=None)
    te.set_defaults(fn=cmd_table_encode)

    td = sub.add_parser(
        "table-decode",
        help="decode an encoded table; --columns a,b prunes at the read",
    )
    td.add_argument("input")
    td.add_argument("dest")
    td.add_argument("--columns", default=None)
    td.set_defaults(fn=cmd_table_decode)

    ts = sub.add_parser(
        "table-store",
        help="resumable per-column encode with lineage manifest (+--verify)",
    )
    ts.add_argument("input")
    ts.add_argument("out_dir")
    ts.add_argument("--batch-rows", type=int, default=8192)
    ts.add_argument("--verify", action="store_true")
    ts.add_argument(
        "--spec-sample", type=int, default=None,
        help="train per-column codec spec ONCE on N sample rows (amortized)",
    )
    ts.set_defaults(fn=cmd_table_store)

    tj = sub.add_parser(
        "table-join",
        help="equi-join two stores (envelope-pruned; broadcast or shuffle)",
    )
    tj.add_argument("left")
    tj.add_argument("right")
    tj.add_argument("--on", required=True, help="left key column")
    tj.add_argument("--right-on", default=None, help="right key (default: --on)")
    tj.add_argument("--left-columns", default=None, help="comma-separated")
    tj.add_argument("--right-columns", default=None, help="comma-separated")
    tj.add_argument("--how", default="inner", choices=("inner", "left"))
    tj.add_argument(
        "--path", default="auto", choices=("auto", "broadcast", "shuffle")
    )
    tj.add_argument("--dest", default=None, help="write result parquet here")
    tj.set_defaults(fn=cmd_table_join)

    tst = sub.add_parser(
        "table-stats",
        help="store lineage rollup from the manifest alone (no Ray)",
    )
    tst.add_argument("store")
    tst.set_defaults(fn=cmd_table_stats)

    tcl = sub.add_parser(
        "table-cluster",
        help="range-sort by a column while encoding into the store "
        "(disjoint fragment zones → scans open ~1 file)",
    )
    tcl.add_argument("input")
    tcl.add_argument("out_dir")
    tcl.add_argument("column")
    tcl.add_argument("--batch-rows", type=int, default=8192)
    tcl.set_defaults(fn=cmd_table_cluster)

    tup = sub.add_parser(
        "table-upsert",
        help="CDC MERGE a delta parquet into a committed store → new "
        "store (zone-disjoint fragments copy verbatim, no decode)",
    )
    tup.add_argument("src")
    tup.add_argument("dst")
    tup.add_argument("delta")
    tup.add_argument("key")
    tup.add_argument("--batch-rows", type=int, default=8192)
    tup.set_defaults(fn=cmd_table_upsert)

    tun = sub.add_parser(
        "table-union",
        help="consolidate N stores into one (byte-identical part copy, "
        "lineage carry-over, UNION ALL semantics)",
    )
    tun.add_argument("dst")
    tun.add_argument("srcs", nargs="+")
    tun.set_defaults(fn=cmd_table_union)

    tex = sub.add_parser(
        "table-explain",
        help="per-fragment skip/scan plan for a predicate, from the "
        "manifest alone (no Ray)",
    )
    tex.add_argument("store")
    tex.add_argument("column")
    tex.add_argument("--lo", type=int, default=None)
    tex.add_argument("--hi", type=int, default=None)
    tex.add_argument("--like", default=None)
    tex.set_defaults(fn=cmd_table_explain)

    tdl = sub.add_parser(
        "table-delete",
        help="key-list delete (GDPR shape) → new store; zone-disjoint "
        "fragments copy verbatim",
    )
    tdl.add_argument("src")
    tdl.add_argument("dst")
    tdl.add_argument("key")
    tdl.add_argument("--keys", default=None, help="comma-separated ints")
    tdl.add_argument("--keys-parquet", default=None)
    tdl.add_argument("--batch-rows", type=int, default=8192)
    tdl.set_defaults(fn=cmd_table_delete)

    tdc = sub.add_parser(
        "table-drop-columns",
        help="rewrite a store WITHOUT the named columns (GDPR erasure)",
    )
    tdc.add_argument("src")
    tdc.add_argument("dst")
    tdc.add_argument("columns", help="comma-separated columns to drop")
    tdc.set_defaults(fn=cmd_table_drop_columns)

    tnv = sub.add_parser(
        "table-ndv",
        help="manifest-only approx COUNT(DISTINCT) per column (no Ray)",
    )
    tnv.add_argument("store")
    tnv.add_argument("column", nargs="?", default=None)
    tnv.set_defaults(fn=cmd_table_ndv)

    tb = sub.add_parser(
        "table-batches",
        help="stream token-budgeted training batches from a store (no Ray)",
    )
    tb.add_argument("store")
    tb.add_argument("--budget", type=int, default=262144)
    tb.add_argument("--start-step", type=int, default=0)
    tb.add_argument("--rank", type=int, default=0)
    tb.add_argument("--world-size", type=int, default=1)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--epoch", type=int, default=None)
    tb.add_argument("--head", type=int, default=3)
    tb.add_argument("--batch-rows", type=int, default=None)
    tb.add_argument(
        "--order", choices=["store", "length", "shuffle"], default="store"
    )
    tb.add_argument(
        "--sources",
        default=None,
        help="serve only these comma-separated source domains "
        "(plan-level filter; dropped rows never decode)",
    )
    tb.set_defaults(fn=cmd_table_batches)

    cc = sub.add_parser(
        "catalog-commit",
        help="register a committed store as the next table version (no Ray)",
    )
    cc.add_argument("catalog")
    cc.add_argument("store")
    cc.add_argument("--op", default="compress")
    cc.add_argument("--note", default="")
    cc.add_argument("--parent", type=int, default=None)
    cc.set_defaults(fn=cmd_catalog_commit)

    cl = sub.add_parser(
        "catalog-log", help="version history with HEAD marker (no Ray)"
    )
    cl.add_argument("catalog")
    cl.set_defaults(fn=cmd_catalog_log)

    cr = sub.add_parser(
        "catalog-read",
        help="time-travel read AS OF a version (HEAD when omitted)",
    )
    cr.add_argument("catalog")
    cr.add_argument("version", nargs="?", type=int, default=None)
    cr.add_argument("--head", type=int, default=5)
    cr.set_defaults(fn=cmd_catalog_read)

    cp = sub.add_parser(
        "catalog-prune",
        help="retention GC: keep newest N versions, reclaim managed stores",
    )
    cp.add_argument("catalog")
    cp.add_argument("--keep-last", type=int, default=2)
    cp.add_argument("--dry-run", action="store_true")
    cp.add_argument(
        "--stray-grace-s",
        type=float,
        default=3600.0,
        help="reclaim unreferenced managed dirs only after this many "
        "seconds of quiet (0 = immediate; offline janitor only)",
    )
    cp.set_defaults(fn=cmd_catalog_prune)

    tvc = sub.add_parser(
        "table-vacuum",
        help="GC orphan fragment dirs / stray files (offline; no Ray)",
    )
    tvc.add_argument("store")
    tvc.add_argument("--dry-run", action="store_true")
    tvc.set_defaults(fn=cmd_table_vacuum)

    tso = sub.add_parser(
        "table-sort",
        help="total-order export with a global rownum (zonemerge when "
        "fragment zones are disjoint, else one distributed sort)",
    )
    tso.add_argument("store")
    tso.add_argument("by", help="comma-separated sort key columns")
    tso.add_argument("--columns", default=None)
    tso.add_argument("--desc", action="store_true")
    tso.add_argument("--dest", default=None)
    tso.add_argument("--limit", type=int, default=10)
    tso.set_defaults(fn=cmd_table_sort)

    tsc = sub.add_parser(
        "table-scan",
        help="LIKE / zone-pruned range scan over a whole-table store",
    )
    tsc.add_argument("store")
    tsc.add_argument("column")
    tsc.add_argument("--like", default=None, metavar="PATTERN")
    tsc.add_argument("--lo", type=int, default=None)
    tsc.add_argument("--hi", type=int, default=None)
    tsc.add_argument("--top", type=int, default=None, metavar="K")
    tsc.add_argument("--asc", action="store_true", help="with --top: smallest K")
    tsc.add_argument(
        "--count", action="store_true",
        help="metadata-first COUNT (with optional --lo/--hi)",
    )
    tsc.add_argument(
        "--isnull", action="store_true",
        help="rows where COLUMN IS NULL (validity bitmaps only)",
    )
    tsc.add_argument(
        "--notnull", action="store_true",
        help="rows where COLUMN IS NOT NULL (validity bitmaps only)",
    )
    tsc.add_argument("--columns", default=None, help="comma-separated output columns")
    tsc.add_argument("--dest", default=None, help="write survivors as parquet")
    tsc.set_defaults(fn=cmd_table_scan)

    tag = sub.add_parser(
        "table-agg",
        help="metadata-first aggregates / GROUP BY / DISTINCT over a store",
    )
    tag.add_argument("store")
    tag.add_argument("column", help="aggregate (or distinct) column")
    tag.add_argument("--group-by", default=None, metavar="COL")
    tag.add_argument(
        "--ops", nargs="+", default=("min", "max", "sum", "count"),
        choices=("min", "max", "sum", "count"),
    )
    tag.add_argument("--distinct", action="store_true")
    tag.add_argument(
        "--bucket", type=int, default=None,
        help="floor-bucket an int group key (e.g. 86400000000 = day of us-ts)",
    )
    tag.add_argument(
        "--agg", action="append", default=None, metavar="OP:COL",
        help="with --group-by: multi-column aggregate (repeatable)",
    )
    tag.set_defaults(fn=cmd_table_agg)

    tr = sub.add_parser(
        "table-restore",
        help="decode a whole-table store back to plain parquet",
    )
    tr.add_argument("store")
    tr.add_argument("dest")
    tr.add_argument("--columns", default=None, help="comma-separated subset")
    tr.set_defaults(fn=cmd_table_restore)

    tcp = sub.add_parser(
        "table-compact",
        help="pack small store fragments into fewer (byte-identical copies)",
    )
    tcp.add_argument("src")
    tcp.add_argument("dst")
    tcp.add_argument("--target-rows", type=int, default=1_000_000)
    tcp.add_argument(
        "--order-by", default=None,
        help="pack in zone order on this int column (keeps range pruning)",
    )
    tcp.set_defaults(fn=cmd_table_compact)

    tf = sub.add_parser(
        "table-filter",
        help="predicate-filtered store rewrite (drop/copy/rewrite per fragment)",
    )
    tf.add_argument("src")
    tf.add_argument("dst")
    tf.add_argument("column")
    tf.add_argument("--lo", type=int, default=None)
    tf.add_argument("--hi", type=int, default=None)
    tf.add_argument("--like", default=None, metavar="PATTERN")
    tf.set_defaults(fn=cmd_table_filter)

    wi = sub.add_parser(
        "word-index",
        help="build (or incrementally extend) the posting-list index",
    )
    wi.add_argument("corpus")
    wi.add_argument("index_dir")
    wi.add_argument("--n-buckets", type=int, default=64)
    wi.add_argument("--incremental", action="store_true")
    wi.add_argument("--text-col", default="text")
    wi.add_argument("--id-col", default="doc_id")
    wi.set_defaults(fn=cmd_word_index)

    se = sub.add_parser(
        "search", help="word search against a posting-list index"
    )
    se.add_argument("index_dir")
    se.add_argument("terms", nargs="+")
    se.add_argument("--mode", choices=("and", "or"), default="and")
    se.set_defaults(fn=cmd_search)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
