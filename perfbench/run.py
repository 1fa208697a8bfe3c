"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,serve,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout of the repository. It starts a fresh local
one-CPU Ray session, builds the workload's inputs from ``--seed`` (several
times, to time set-up), runs the workload's operations for ``--seconds``
seconds with a host-speed probe between them, checks every output against
oracles computed without the program, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the timed steps alternate in pairs between untraced and
traced, and the metrics are the per-layer metrics (see perfbench/README.md).
The line before it is a JSON report with the environment and the
per-workload figures. Everything the run writes goes under ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUPS = 3
# One Ray CPU on every host, so figures compare across hosts that differ in
# core count; the host's own count is recorded as env.nproc.
RAY_CPUS = 1
# AF_UNIX socket paths are limited to 107 bytes; Ray's session directory
# adds up to 64 of them below its temp dir
RAY_TEMP_MAX = 43


def _cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _steal_share(t0: list[int], t1: list[int]) -> float:
    d = [b - a for a, b in zip(t0, t1)]
    return d[7] / max(sum(d), 1) if len(d) > 7 else 0.0


def nproc() -> int:
    """CPUs this process may use, as GNU ``nproc`` counts them."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "")
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def iqm(samples: list[float]) -> float:
    """Interquartile mean: the mean of the samples left after dropping the
    lowest and highest quarter. Unlike the median it is steady on the
    mixed-cost requests of one workload (LIKE patterns differ in cost by
    10x), and unlike the mean it ignores stalls."""
    if not samples:
        return 0.0
    x = sorted(samples)
    k = len(x) // 4
    return statistics.mean(x[k : len(x) - k])


def _p(samples: list[float], q: int) -> float:
    """Median (q=50) or 90th percentile of ``samples``."""
    if not samples:
        return 0.0
    if q == 50 or len(samples) < 2:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10)[-1]


def start_ray(run_dir: str, ncpu: int, trace_dir: str | None):
    import ray

    env = {
        "PYTHONPATH": os.pathsep.join([ROOT, HERE]),
        "TMPDIR": os.environ["TMPDIR"],
    }
    runtime_env: dict = {"env_vars": env}
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
        runtime_env["worker_process_setup_hook"] = "tracing.install"
    ray_tmp = os.path.join(run_dir, "ray")
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=512 << 20,
        runtime_env=runtime_env,
        _temp_dir=ray_tmp if len(ray_tmp) <= RAY_TEMP_MAX else None,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False

    @ray.remote
    def warm():
        import fsst_like_ray.native as native

        return native.lib is not None

    # start the worker and import the program in it before any timing
    return ray.get(warm.remote())


def _setup_repeated(wl, ctx, recorder=None) -> float:
    """Run ``wl.setup`` SETUPS times into fresh directories; keep the last
    one's outputs and return the median set-up time in seconds. A
    ``recorder`` traces the last repetition."""
    walls, prev = [], set()
    for i in range(SETUPS):
        before = set(os.listdir(ctx.run_dir))
        last = recorder is not None and i == SETUPS - 1
        if last:
            recorder.set_recording(True)
        t0 = time.perf_counter()
        wl.setup(ctx)
        walls.append(time.perf_counter() - t0)
        if last:
            recorder.set_recording(False)
        for d in prev:
            shutil.rmtree(os.path.join(ctx.run_dir, d), ignore_errors=True)
        prev = set(os.listdir(ctx.run_dir)) - before
    return statistics.median(walls)


def _warm(wl, ctx) -> None:
    """One step whose latencies are dropped: the first call into each Ray
    Data chain and program path pays one-off imports and caches."""
    wl.step(ctx)
    ctx.primary.clear()
    ctx.secondary.clear()
    workloads.probe_ms(wl.probe_sorts)
    ctx.stats = {"store_bytes_per_plain_byte": ctx.stats["store_bytes_per_plain_byte"]}


class Split:
    """Samples and tallies of the traced and untraced steps of a run."""

    def __init__(self):
        self.primary = {False: [], True: []}
        self.secondary = {False: [], True: []}
        self.stats: dict[str, float] = {}


def _measure(wl, ctx, seconds: float, recorder=None) -> Split:
    """Step until ``seconds`` passed, the workload is at a boundary of its
    request mix and both operation kinds have a sample, or until twice
    ``seconds`` passed. With a ``recorder``, steps
    alternate in pairs between untraced and traced, so both see the same
    drift of the host."""
    split = Split()
    t0 = time.perf_counter()
    i = 0
    while True:
        if i % wl.probe_every == 0:
            ctx.probe.append(workloads.probe_ms(wl.probe_sorts))
        on = recorder is not None and (i // 2) % 2 == 1
        if recorder is not None:
            recorder.set_recording(on)
        n_p, n_q, before = len(ctx.primary), len(ctx.secondary), dict(ctx.stats)
        wl.step(ctx)
        split.primary[on] += ctx.primary[n_p:]
        split.secondary[on] += ctx.secondary[n_q:]
        if on:
            for k, v in ctx.stats.items():
                split.stats[k] = split.stats.get(k, 0) + v - before.get(k, 0)
        i += 1
        dt = time.perf_counter() - t0
        done = wl.at_boundary() and ctx.primary and ctx.secondary
        if (dt >= seconds and done) or dt >= 2 * seconds:
            break
    if recorder is not None:
        recorder.set_recording(False)
    return split


def _report(name: str, ctx) -> dict:
    s = ctx.stats
    p, q = ctx.primary, ctx.secondary
    out = {
        "samples": {"primary": len(p), "secondary": len(q)},
        "primary_ms": [round(x, 3) for x in p],
        "secondary_ms": [round(x, 3) for x in q],
        "probe_ms": [round(x, 3) for x in ctx.probe],
        "primary_ms_p50": _p(p, 50),
        "secondary_ms_p50": _p(q, 50),
        "primary_ms_iqm": iqm(p),
        "secondary_ms_iqm": iqm(q),
        "probe_ms_iqm": iqm(ctx.probe),
        "primary_ms_p90": _p(p, 90),
        "secondary_ms_p90": _p(q, 90),
        "failed_op_share": ctx.failed / max(ctx.attempted, 1),
    }
    if name == "ingest" and p and q:
        out["ingest_tok_per_s"] = s["tokens"] / (s["encode_ms"] / 1e3)
        out["verify_tok_per_s"] = s["tokens"] / (s["verify_ms"] / 1e3)
    if name == "serve" and p:
        out["serve_tok_per_s"] = s["tokens"] / (s["serve_ms"] / 1e3)
        out.update(resume_ms_p50=_p(q, 50), resume_ms_p90=_p(q, 90))
    if name == "query":
        out.update(
            like_ms_p50=_p(p, 50), like_ms_p90=_p(p, 90),
            agg_ms_p50=_p(q, 50), agg_ms_p90=_p(q, 90),
        )
    return out


def _layers(
    totals: dict, builds: dict, ctx, split: Split, floor: tuple, extra: dict, c_path: int
) -> dict:
    """Per-layer metrics. ``totals`` are the traced steps' span totals;
    ``builds`` the totals of the store builds the codec selector ran in
    (the timed steps on ingest, the last set-up elsewhere)."""
    import fsst_like_ray.codecs as codecs
    import tracing

    def s(key):
        return totals.get(f"{key}.s", 0.0)

    def n(key):
        return totals.get(f"{key}.n", 0.0)

    st = split.stats
    untraced = iqm(split.primary[False]), iqm(split.secondary[False])
    traced = iqm(split.primary[True]), iqm(split.secondary[True])
    cand = totals.get("like.candidate_rows", 0.0)
    match = totals.get("like.match_rows", 0.0)
    m = {
        "ray_floor.ms": (floor[0], "ms"),
        "ray_floor.secondary_ms": (floor[1], "ms"),
        "trace.untraced_primary_ms": (untraced[0], "ms"),
        "trace.traced_primary_ms": (traced[0], "ms"),
        "trace.untraced_secondary_ms": (untraced[1], "ms"),
        "trace.traced_secondary_ms": (traced[1], "ms"),
        "trace.overhead_share": (traced[0] / untraced[0] - 1 if untraced[0] else 0.0, "share"),
        "trace.ops": (len(split.primary[True]) + len(split.secondary[True]), "count"),
        "pipelines.tablestore.frags_scanned": (st.get("frags_scanned", 0), "count"),
        "pipelines.tablestore.frags_skipped": (st.get("frags_skipped", 0), "count"),
        "state.manifest.commit_s": (s("state.manifest.commit"), "s"),
        "state.manifest.commits": (n("state.manifest.commit"), "count"),
        "pipelines.columnar.encode_s": (s("pipelines.columnar.encode"), "s"),
        "pipelines.columnar.decode_s": (s("pipelines.columnar.decode"), "s"),
        "pipelines.columnar.like_scan_mask_s": (s("pipelines.columnar.like_scan_mask"), "s"),
        "pipelines.columnar.like_mask_s": (extra.get("pipelines.columnar.like_mask_s", 0.0), "s"),
        "pipelines.columnar.decode_match_s": (extra.get("pipelines.columnar.decode_match_s", 0.0), "s"),
        "pipelines.columnar.like_vs_decoded": (extra.get("pipelines.columnar.like_vs_decoded", 0.0), "ratio"),
        "pipelines.columnar.like_candidate_rows": (cand, "count"),
        "pipelines.columnar.like_match_rows": (match, "count"),
        "pipelines.columnar.like_useful_ratio": (match / cand if cand else 0.0, "ratio"),
        "codecs.auto.select_s": (builds.get("codecs.auto.select.s", 0.0), "s"),
        "codecs.auto.select_calls": (builds.get("codecs.auto.select.n", 0.0), "count"),
        "fsstlib.train_s": (s("fsstlib.train"), "s"),
        "fsstlib.train_calls": (n("fsstlib.train"), "count"),
        "native.encode_s": (s("native.encode"), "s"),
        "native.decode_s": (s("native.decode"), "s"),
        "native.varint_encode_s": (s("native.varint_encode"), "s"),
        "native.varint_decode_s": (s("native.varint_decode"), "s"),
        "native.rowhash_s": (s("native.rowhash"), "s"),
        "native.like_kernel_s": (s("native.like_kernel"), "s"),
        "native.c_path": (c_path, "bool"),
        "matchers.engines.match_block_s": (s("matchers.engines.match_block"), "s"),
        "matchers.engines.match_block_calls": (n("matchers.engines.match_block"), "count"),
        "matchers.engines.engine.match_decoded": (n("matchers.engines.match_decoded"), "count"),
        "pipelines.loader.plan_s": (s("pipelines.loader.plan"), "s"),
        "pipelines.loader.plan_calls": (n("pipelines.loader.plan"), "count"),
        "pipelines.loader.wait_s": (st.get("wait_s", 0.0), "s"),
        "pipelines.loader.wait_share": (
            st["wait_s"] / (st["serve_ms"] / 1e3) if st.get("serve_ms") else 0.0, "share"
        ),
        "pipelines.loader.batches": (st.get("batches", 0), "count"),
        "pyarrow.parquet.read_s": (s("pyarrow.parquet.read"), "s"),
        "pyarrow.parquet.write_s": (s("pyarrow.parquet.write"), "s"),
        "pyarrow.parquet.write_bytes": (totals.get("pyarrow.parquet.write_bytes", 0.0), "bytes"),
        "env.nproc": (nproc(), "count"),
        "env.probe_ms": (iqm(ctx.probe), "ms"),
        "env.steal_share": (ctx.stats.get("steal_share", 0.0), "share"),
    }
    for name in codecs.CODECS:
        m[f"codecs.auto.wins.{name}"] = (builds.get(f"codecs.auto.wins.{name}", 0.0), "count")
    for fn in tracing.ENGINE_FUNCTIONS:
        m[f"matchers.engines.engine.{fn}"] = (n(f"matchers.engines.engine.{fn}"), "count")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """One benchmark run → (result object, report object)."""
    import ray

    import fsst_like_ray.native as native

    sizes = sizes or workloads.Sizes()
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"r{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_dir = None
    if trace:
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
    try:
        c_path_worker = start_ray(run_dir, RAY_CPUS, trace_dir)
        c_path = int(native.lib is not None and c_path_worker)
        recorder = None
        if trace:
            import tracing

            tracing.install(worker=False)
            recorder = tracing.RECORDER
        ctx = workloads.Context(run_dir, seed, sizes)
        wl = workloads.WORKLOADS[workload]()
        setup_s = _setup_repeated(wl, ctx, recorder)
        setup_totals = recorder.totals() if trace else {}
        wl.prepare(ctx)
        _warm(wl, ctx)
        cpu0 = _cpu_times()
        split = _measure(wl, ctx, seconds, recorder)
        ctx.stats["steal_share"] = _steal_share(cpu0, _cpu_times())
        probe = iqm(ctx.probe)
        if not trace:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "primary_per_probe": {"value": iqm(ctx.primary) / probe, "unit": "ratio"},
                "secondary_per_probe": {"value": iqm(ctx.secondary) / probe, "unit": "ratio"},
                "store_bytes_per_plain_byte": {
                    "value": ctx.stats["store_bytes_per_plain_byte"], "unit": "ratio",
                },
            }
        else:
            totals = recorder.totals()
            timed = {k: v - setup_totals.get(k, 0.0) for k, v in totals.items()}
            metrics = _layers(
                timed, setup_totals if wl.builds_in_setup else timed,
                ctx, split, wl.floor(ctx), wl.extra(ctx), c_path,
            )
        missing = not ctx.primary or not ctx.secondary
        result = {
            "correct": ctx.failed == 0 and not missing,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": metrics,
        }
        report = {
            "env": {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": int(trace),
                "nproc": nproc(),
                "ray_cpus": RAY_CPUS,
                "ray": ray.__version__,
                "native_c_path_main": int(native.lib is not None),
                "native_c_path_worker": int(c_path_worker),
                "steal_share": ctx.stats.get("steal_share", 0.0),
            },
            "report": _report(workload, ctx),
            "errors": ctx.errors[:5],
        }
        return result, report
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)


def prepare_env() -> None:
    """Point temp files at the checkout and make the program importable.
    Must run before the program is imported: its native kernels compile
    into the temp dir at import."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "serve", "query"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    prepare_env()
    try:
        import fsst_like_ray
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(fsst_like_ray.__file__).startswith(ROOT + os.sep):
        print(f"perfbench: the program was imported from outside {ROOT}", file=sys.stderr)
        return 2

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
