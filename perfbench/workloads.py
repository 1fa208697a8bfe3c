"""The benchmark's three workloads against the program's public API.

Each workload has a ``setup`` (run several times, each into fresh
directories, to time set-up), a ``step`` (one unit of timed work that
records primary and secondary operation latencies and checks every output
against the oracles) and, for the traced run, ``floor`` (the Ray Data chain
of its operations with an identity UDF) and ``extra`` (layer measurements
made outside the timed loop).

| workload | primary operation | secondary operation |
|---|---|---|
| ingest | compress_table into an empty store | verify_table_store |
| serve | one whole shuffled epoch | one cold resume to its first batch |
| query | one LIKE query | one aggregate |
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs
import oracles


@dataclass(frozen=True)
class Sizes:
    token_rows: int = 16384  # ~8 M tokens
    token_shards: int = 8
    batch_tokens: int = 65536
    resumes_per_epoch: int = 8
    doc_replicas: int = 4
    doc_base_rows: int = inputs.DOC_ROWS
    doc_shards: int = 4
    event_rows: int = inputs.EVENT_ROWS
    event_shards: int = 4


class Context:
    """One run: its directories, seed, sizes, samples and failure count."""

    def __init__(self, run_dir: str, seed: int, sizes: Sizes):
        self.run_dir = run_dir
        self.seed = seed
        self.sizes = sizes
        self.primary: list[float] = []  # wall ms per operation
        self.secondary: list[float] = []
        self.probe: list[float] = []  # probe_ms() samples, between steps
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stats: dict[str, float] = {}  # workload-specific tallies
        self._n = 0

    def new_dir(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.run_dir, f"{tag}-{self._n}")

    def tally(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=4))
            print(self.errors[-1], file=sys.stderr)
            return False, None

    def check(self, errs: list[str]) -> None:
        """Oracle verdict of the last operation: a mismatch fails it."""
        if errs:
            self.failed += 1
            self.errors.extend(errs)
            print("\n".join(errs), file=sys.stderr)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _d, files in os.walk(path)
        for f in files
    )


def shard_paths(path: str) -> list[str]:
    return sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet"))


def store_parts(store: str) -> list[str]:
    """Part files of a store's committed fragments (read-only view)."""
    data = os.path.join(store, "data")
    return sorted(
        os.path.join(root, f)
        for root, _d, files in os.walk(data)
        for f in files
        if f.startswith("part-") and f.endswith(".parquet")
    )


def encoded_fields(path: str, column: str) -> list[str]:
    names = pq.read_schema(path).names
    return [n for n in names if n == "__rowidx" or n.startswith(f"{column}__")]


def token_corpus(ctx: Context) -> str:
    """The seeded tokens corpus in ``token_shards`` parquet shards. The
    generator writes whole 8192-row chunks per file, so it writes one file
    and the shards are cut from it."""
    from fsst_like_ray.sources.tokens import write_tokens_parquet

    s = ctx.sizes
    gen = ctx.new_dir("gen")
    write_tokens_parquet(gen, s.token_rows, seed=ctx.seed, rows_per_file=s.token_rows)
    table = pa.concat_tables(pq.read_table(p) for p in shard_paths(gen))
    shutil.rmtree(gen)
    return inputs.write_shards(table, ctx.new_dir("corpus"), s.token_shards)


def ray_chain_ms(make_ds, reps: int = 5) -> float:
    """Median wall of a Ray Data chain built by ``make_ds`` and consumed."""
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _b in make_ds().iter_batches(batch_format="pyarrow", batch_size=None):
            pass
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls)


def _identity(b):
    return b


PROBE_BLOCKS = 4


class _ProbeWork:
    """Fixed CPU and memory work per block: ``sorts`` sorts of 2**17
    seeded integers."""

    def __init__(self, sorts: int):
        self.sorts = sorts

    def __call__(self, b):
        a = np.random.default_rng(0).integers(0, 1 << 30, 1 << 17)
        for k in range(self.sorts):
            a = np.sort(a ^ k)
        return b


def probe_ms(sorts: int) -> float:
    """Wall of a fixed reference job on the run's Ray session: a Ray Data
    chain of PROBE_BLOCKS blocks whose UDF does fixed NumPy work. It runs
    no program code, so it tracks only how fast the host is running us;
    operation latencies divided by it vary far less between runs on a
    shared host than the latencies themselves. ``sorts`` sets the probe's
    share of compute against Ray overhead, to match the workload's
    operations: the two kinds of time slow down differently when the host
    is contended."""
    import ray

    t0 = time.perf_counter()
    ds = ray.data.range(PROBE_BLOCKS, override_num_blocks=PROBE_BLOCKS).map_batches(
        _ProbeWork(sorts), batch_format="pyarrow", batch_size=None
    )
    for _b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        pass
    return (time.perf_counter() - t0) * 1e3


class Workload:
    """Defaults of a workload (see the module doc)."""

    name: str
    builds_in_setup = True  # its stores, and so codec selection, are set up
    probe_sorts = 3  # operations are mostly Ray Data or loader overhead
    probe_every = 1  # probe the host before every n-th step

    def at_boundary(self) -> bool:
        """True where a run may stop without skewing its request mix."""
        return True

    def floor(self, ctx: Context) -> tuple[float, float]:
        return 0.0, 0.0

    def extra(self, ctx: Context) -> dict:
        return {}


# ----------------------------------------------------------------- ingest
class Ingest(Workload):
    """Write path: codec selection, encode kernels, columnar encode,
    parquet write, manifest commit; then decode-verify."""

    name = "ingest"
    builds_in_setup = False
    probe_sorts = 30  # operations are ~90% compute in the worker

    def setup(self, ctx: Context) -> None:
        self.src = token_corpus(ctx)

    def prepare(self, ctx: Context) -> None:
        self.shards = shard_paths(self.src)
        t = pa.concat_tables(pq.read_table(p) for p in self.shards)
        self.rows = t.num_rows
        self.tokens = int(pc.sum(t["n_tok"]).as_py())
        self.plain_bytes = t.nbytes

    def step(self, ctx: Context) -> None:
        from fsst_like_ray.pipelines.tablestore import compress_table, verify_table_store

        store = ctx.new_dir("store")
        ok, res = ctx.op(timed, compress_table, self.src, store)
        if ok:
            stats, ms = res
            ctx.primary.append(ms)
            ctx.tally("tokens", self.tokens)
            ctx.tally("encode_ms", ms)
            ctx.stats["store_bytes_per_plain_byte"] = dir_bytes(store) / self.plain_bytes
            ok, res = ctx.op(timed, verify_table_store, self.src, store)
            if ok:
                verify, ms = res
                ctx.secondary.append(ms)
                ctx.tally("verify_ms", ms)
                ctx.check(oracles.check_ingest(verify, stats, len(self.shards), self.rows))
        shutil.rmtree(store, ignore_errors=True)

    def floor(self, ctx: Context) -> tuple[float, float]:
        # compress_table and verify_table_store both run one range →
        # map_batches(batch_size=None) → take_all chain with one block per
        # fragment spec / store part (one per shard at these sizes)
        import ray

        n = len(self.shards)
        ms = ray_chain_ms(
            lambda: ray.data.range(n, override_num_blocks=n).map_batches(
                _identity, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            )
        )
        return ms, ms


# ------------------------------------------------------------------ serve
class Serve(Workload):
    """Read path a trainer pays: plan/seek, fragment decode, prefetch. The
    loader runs in the main process, so there is no Ray Data floor."""

    name = "serve"

    def setup(self, ctx: Context) -> None:
        from fsst_like_ray.pipelines.tablestore import compress_table

        self.src = token_corpus(ctx)
        self.store = ctx.new_dir("store")
        compress_table(self.src, self.store)

    def prepare(self, ctx: Context) -> None:
        self.corpus = oracles.TokenCorpus(shard_paths(self.src))
        self.plain_bytes = pa.concat_tables(pq.read_table(p) for p in shard_paths(self.src)).nbytes
        ctx.stats["store_bytes_per_plain_byte"] = dir_bytes(self.store) / self.plain_bytes
        self.seed, self.batch_tokens = ctx.seed, ctx.sizes.batch_tokens
        self.rng = np.random.Generator(np.random.Philox(key=[ctx.seed, 5]))
        self.epoch = 0
        self.n_steps = None

    def _epoch(self, epoch: int) -> tuple[list, float]:
        from fsst_like_ray.pipelines.loader import iter_training_batches

        batches, wait = [], 0.0
        it = iter_training_batches(
            self.store, self.batch_tokens, order="shuffle", epoch=(self.seed, epoch)
        )
        while True:
            t0 = time.perf_counter()
            b = next(it, None)
            wait += time.perf_counter() - t0
            if b is None:
                return batches, wait
            batches.append(b)

    def _resume(self, epoch: int, step: int):
        from fsst_like_ray.pipelines.loader import iter_training_batches

        it = iter_training_batches(
            self.store, self.batch_tokens, order="shuffle",
            epoch=(self.seed, epoch), start_step=step,
        )
        try:
            return next(it, None)
        finally:
            it.close()

    def step(self, ctx: Context) -> None:
        e = self.epoch
        self.epoch += 1
        ok, res = ctx.op(timed, self._epoch, e)
        if ok:
            (batches, wait), ms = res
            ctx.primary.append(ms)
            tally = oracles.ServedTally()
            for b in batches:
                tally.add(b)
            ctx.tally("tokens", tally.tokens)
            ctx.tally("serve_ms", ms)
            ctx.tally("wait_s", wait)
            ctx.tally("batches", len(batches))
            ctx.check(oracles.check_epoch(tally, self.corpus))
            self.n_steps = len(batches)
        for _ in range(ctx.sizes.resumes_per_epoch if self.n_steps else 0):
            step = int(self.rng.integers(self.n_steps))
            ok, res = ctx.op(timed, self._resume, e, step)
            if ok:
                batch, ms = res
                ctx.secondary.append(ms)
                ctx.check(oracles.check_resume_batch(batch, step, self.corpus))


# ------------------------------------------------------------------ query
class Query(Workload):
    """Compressed-domain path: LIKE matchers with trigram pruning on
    ``documents``; compressed GROUP BY / COUNT / range scan on ``events``."""

    name = "query"
    probe_every = 2  # one step is one request: probing each would halve them

    def setup(self, ctx: Context) -> None:
        from fsst_like_ray.pipelines.tablestore import compress_table

        s = ctx.sizes
        self.docs = inputs.documents_table(ctx.seed, s.doc_replicas, s.doc_base_rows)
        self.events = inputs.events_table(ctx.seed, s.event_rows)
        self.docs_src = inputs.write_shards(self.docs, ctx.new_dir("docs"), s.doc_shards)
        self.events_src = inputs.write_shards(self.events, ctx.new_dir("events"), s.event_shards)
        self.docs_store = ctx.new_dir("docs-store")
        self.events_store = ctx.new_dir("events-store")
        compress_table(self.docs_src, self.docs_store)
        compress_table(self.events_src, self.events_store)

    def prepare(self, ctx: Context) -> None:
        plain = self.docs.nbytes + self.events.nbytes
        stored = dir_bytes(self.docs_store) + dir_bytes(self.events_store)
        ctx.stats["store_bytes_per_plain_byte"] = stored / plain
        self.text = self.docs.select(["doc_id", "text"])
        self.like_oracle = {p: oracles.like_ids(self.text, p) for p in inputs.like_pool()}
        self.plan = inputs.query_plan(ctx.seed, 1_000_000)
        self.i = 0

    def _like(self, pattern: str, stats_out: dict) -> np.ndarray:
        from fsst_like_ray.pipelines.tablestore import like_table_store

        ds = like_table_store(
            self.docs_store, "text", pattern, columns=["doc_id"], stats_out=stats_out
        )
        ids = [b["doc_id"].to_numpy() for b in ds.iter_batches(batch_format="pyarrow")]
        return np.concatenate(ids) if ids else np.zeros(0, np.int64)

    def _agg(self, kind: str, lo: int, hi: int, stats_out: dict):
        from fsst_like_ray.pipelines import tablestore as ts

        if kind == "group":
            return ts.group_agg_table_store(
                self.events_store, "event_type", "user_id",
                preds=[("range", "user_id", lo, hi)], stats_out=stats_out,
            )
        if kind == "count":
            return ts.count_where_table_store(
                self.events_store, [("range", "user_id", lo, hi)], stats_out=stats_out
            )
        ds = ts.scan_table_store(
            self.events_store, "user_id", lo, hi, columns=["event_id"], stats_out=stats_out
        )
        n = total = 0
        for b in ds.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
            total += int(pc.sum(b["event_id"]).as_py() or 0)
        return n, total

    def at_boundary(self) -> bool:
        """True after whole passes over the pattern pool, so every run
        measures the same mix of LIKE shapes."""
        return self.i % (2 * len(inputs.like_pool())) == 0

    def step(self, ctx: Context) -> None:
        req = self.plan[self.i]
        self.i += 1
        so: dict = {}
        if req[0] == "like":
            ok, res = ctx.op(timed, self._like, req[1], so)
            if ok:
                ids, ms = res
                ctx.primary.append(ms)
                ctx.check(oracles.check_like(ids, self.like_oracle[req[1]], req[1]))
        else:
            kind, lo, hi = req
            ok, res = ctx.op(timed, self._agg, kind, lo, hi, so)
            if ok:
                got, ms = res
                ctx.secondary.append(ms)
                what = f"{kind} on user_id in [{lo}, {hi}]"
                if kind == "group":
                    want = oracles.group_oracle(self.events, lo, hi)
                    ctx.check(oracles.check_group(got, want, lo, hi))
                elif kind == "count":
                    want = oracles.count_oracle(self.events, lo, hi)
                    ctx.check(oracles.check_value(got, want, what))
                else:
                    want = oracles.scan_oracle(self.events, lo, hi)
                    ctx.check(oracles.check_value(got, want, what))
        ctx.tally("frags_scanned", so.get("fragments_scanned", 0))
        ctx.tally("frags_skipped", so.get("fragments_skipped", 0))

    def floor(self, ctx: Context) -> tuple[float, float]:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 1))

        def chain(store, cols):
            paths = store_parts(store)
            fields = sorted({f for c in cols for f in encoded_fields(paths[0], c)})
            return lambda: ray.data.read_parquet(
                paths, override_num_blocks=max(len(paths), 2 * ncpu), columns=fields
            ).map_batches(_identity, batch_format="pyarrow")

        return (
            ray_chain_ms(chain(self.docs_store, ["text", "doc_id"])),
            ray_chain_ms(chain(self.events_store, ["user_id", "event_type"])),
        )

    def extra(self, ctx: Context, reps: int = 3) -> dict:
        """LIKE A/B on the same store parts, in this process: the
        compressed-domain mask against decode + match on decoded text."""
        from fsst_like_ray.matchers.engines import match_decoded
        from fsst_like_ray.matchers.pattern import parse_like
        from fsst_like_ray.pipelines.columnar import decode_columns_batch, like_scan_mask

        parts = store_parts(self.docs_store)
        batches = [pq.read_table(p, columns=encoded_fields(p, "text")) for p in parts]
        pool = inputs.like_pool()
        a_reps, b_reps = [], []
        for _ in range(reps):
            a = b = 0.0
            for pat in pool:
                lp = parse_like(pat)
                na = nb = 0
                for batch in batches:
                    t0 = time.perf_counter()
                    na += int(like_scan_mask(batch, "text", pat).sum())
                    t1 = time.perf_counter()
                    nb += int(match_decoded(decode_columns_batch(batch)["text"], lp).sum())
                    t2 = time.perf_counter()
                    a += t1 - t0
                    b += t2 - t1
                want = len(self.like_oracle[pat])
                for side, got in (("compressed", na), ("decoded", nb)):
                    ctx.attempted += 1
                    ctx.check(oracles.check_value(got, want, f"LIKE A/B {side} {pat!r} count"))
            a_reps.append(a)
            b_reps.append(b)
        a, b = statistics.median(a_reps), statistics.median(b_reps)
        return {
            "pipelines.columnar.like_mask_s": a,
            "pipelines.columnar.decode_match_s": b,
            "pipelines.columnar.like_vs_decoded": a / b,
        }


WORKLOADS = {w.name: w for w in (Ingest, Serve, Query)}
