"""Out-of-package tracing for the benchmark's traced run.

``install()`` replaces public functions of the program's layers (and a few
pyarrow.parquet entry points) with wrappers that record, per metric key, the
number of calls and the busy time of the outermost call. The program itself
is not changed: a wrapper is set on every ``fsst_like_ray`` module that holds
the original object, because callers bind names with ``from .x import y``.

The main process calls ``install()`` itself; Ray workers run it at process start
through ``runtime_env={"worker_process_setup_hook": "tracing.install"}``.
Recording happens only while the run's flag file exists, so the traced run
can time the same operations untraced and traced in one session. Spans are
kept in memory as per-key aggregates; a worker writes its aggregates to
``<trace dir>/w-<pid>.json`` whenever its outermost span closes, so they are
on disk before the task that produced them returns to the main process.

A worker process is set up by a no-argument hook, so the recorder of a
process is the module-level ``RECORDER``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
FLAG = "recording"

RECORDER = None


class Recorder:
    """Per-process span aggregates: ``<key>.s`` busy seconds of the
    outermost span of ``key`` and ``<key>.n`` its number of calls, plus
    free-form counters. Thread-safe: the loader decodes on a prefetch
    thread."""

    def __init__(self, trace_dir: str, worker: bool):
        self.trace_dir = trace_dir
        self.worker = worker
        self.flag_path = os.path.join(trace_dir, FLAG)
        self.sums: dict[str, float] = defaultdict(float)
        self.lock = threading.Lock()
        self.local = threading.local()
        self.enabled = False  # main-process switch; workers read the flag

    def _stack(self) -> list:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def recording(self) -> bool:
        """Decided once per outermost span; nested spans follow it."""
        st = self._stack()
        if st:
            return st[0] is not None
        return os.path.exists(self.flag_path) if self.worker else self.enabled

    def add(self, key: str, value: float) -> None:
        with self.lock:
            self.sums[key] += value

    def parent(self) -> str | None:
        st = self._stack()
        return st[-1] if st and st[-1] is not None else None

    def span(self, key: str, fn, args, kwargs, after=None):
        st = self._stack()
        on = self.recording()
        if not on:
            st.append(None)
            try:
                return fn(*args, **kwargs)
            finally:
                st.pop()
        outer = key not in st
        parent = self.parent()
        st.append(key)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(self, parent, out)
            return out
        finally:
            dt = time.perf_counter() - t0
            st.pop()
            with self.lock:
                self.sums[f"{key}.n"] += 1
                if outer:
                    self.sums[f"{key}.s"] += dt
            if not st and self.worker:
                self.flush()

    def flush(self) -> None:
        path = os.path.join(self.trace_dir, f"w-{os.getpid()}.json")
        with self.lock:
            data = json.dumps(self.sums)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            f.write(data)
        os.replace(tmp, path)

    def set_recording(self, on: bool) -> None:
        """Switch recording in this process and in every worker."""
        if on:
            open(self.flag_path, "w").close()
        elif os.path.exists(self.flag_path):
            os.remove(self.flag_path)
        self.enabled = on

    def totals(self) -> dict[str, float]:
        """Totals so far, summed over this process and every worker."""
        out: dict[str, float] = defaultdict(float)
        with self.lock:
            for k, v in self.sums.items():
                out[k] += v
        for name in os.listdir(self.trace_dir):
            if name.startswith("w-") and name.endswith(".json"):
                with open(os.path.join(self.trace_dir, name)) as f:
                    for k, v in json.load(f).items():
                        out[k] += v
        return dict(out)


def _wrap(fn, key: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if rec is None:
            return fn(*args, **kwargs)
        return rec.span(key, fn, args, kwargs, after)

    return wrapper


def _wrap_iter(fn, key: str):
    """A function returning an iterator: each ``next`` is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        rec = RECORDER
        if rec is None:
            return it

        def gen():
            while True:
                try:
                    yield rec.span(key, next, (it,), {})
                except StopIteration:
                    return

        return gen()

    return wrapper


def _patch_everywhere(orig, wrapper) -> None:
    """Set ``wrapper`` on every program module that holds ``orig``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("fsst_like_ray"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


# ------------------------------------------------------- per-call counters
def _after_select(rec, parent, out):
    rec.add(f"codecs.auto.wins.{out[0]}", 1)


def _after_match_decoded(rec, parent, out):
    # decode-verify inside match_block = the compressed path's candidates
    if parent == "matchers.engines.match_block":
        rec.add("like.candidate_rows", len(out))
        rec.add("like.match_rows", int(out.sum()))


def _counting_close(orig):
    """ParquetWriter.close that adds the finished file's size."""

    @functools.wraps(orig)
    def close(self, *args, **kwargs):
        was_open = getattr(self, "is_open", False)
        out = orig(self, *args, **kwargs)
        where = getattr(self, "where", None)
        rec = RECORDER
        if was_open and isinstance(where, str) and rec is not None and rec.recording():
            rec.add("pyarrow.parquet.write_bytes", os.path.getsize(where))
        return out

    return close


# (module, function name, metric key, after-hook)
FUNCTIONS = [
    ("fsst_like_ray.pipelines.columnar", "encode_columns_batch", "pipelines.columnar.encode", None),
    ("fsst_like_ray.pipelines.columnar", "decode_columns_batch", "pipelines.columnar.decode", None),
    ("fsst_like_ray.pipelines.columnar", "like_scan_mask", "pipelines.columnar.like_scan_mask", None),
    ("fsst_like_ray.codecs.auto", "select_codec", "codecs.auto.select", _after_select),
    ("fsst_like_ray.fsstlib", "train", "fsstlib.train", None),
    ("fsst_like_ray.native", "encode", "native.encode", None),
    ("fsst_like_ray.native", "decode", "native.decode", None),
    ("fsst_like_ray.native", "varint_encode", "native.varint_encode", None),
    ("fsst_like_ray.native", "varint_decode", "native.varint_decode", None),
    ("fsst_like_ray.native", "poly_rowhash_u32", "native.rowhash", None),
    ("fsst_like_ray.native", "like_prefilter", "native.like_kernel", None),
    ("fsst_like_ray.native", "kmp_scan", "native.like_kernel", None),
    ("fsst_like_ray.native", "meta_kmp_scan", "native.like_kernel", None),
    ("fsst_like_ray.matchers.engines", "match_block", "matchers.engines.match_block", None),
    ("fsst_like_ray.matchers.engines", "match_decoded", "matchers.engines.match_decoded", _after_match_decoded),
    ("fsst_like_ray.pipelines.loader", "plan_training_batches", "pipelines.loader.plan", None),
]
# public engine functions of matchers.engines, counted per call
ENGINE_FUNCTIONS = [
    "exact_payload_match",
    "first_code_prefilter",
    "last_code_prefilter",
    "required_code_prefilter",
    "skipping_prefilter",
    "kmp_code_match",
    "meta_kmp_code_match",
    "dummy_walk",
]


def install(worker: bool = True) -> None:
    """Install the wrappers in this process (idempotent). Ray calls it with
    no argument in each worker; the main process passes ``worker=False``."""
    global RECORDER
    if RECORDER is not None:
        return
    import importlib

    import pyarrow.parquet as pq

    for mod, _fn, _key, _after in FUNCTIONS:
        importlib.import_module(mod)
    importlib.import_module("fsst_like_ray.pipelines.tablestore")
    for mod, fn, key, after in FUNCTIONS:
        orig = getattr(sys.modules[mod], fn)
        _patch_everywhere(orig, _wrap(orig, key, after))
    eng = sys.modules["fsst_like_ray.matchers.engines"]
    for fn in ENGINE_FUNCTIONS:
        orig = getattr(eng, fn)
        _patch_everywhere(orig, _wrap(orig, f"matchers.engines.engine.{fn}"))

    from fsst_like_ray.state.manifest import Manifest

    Manifest.commit = _wrap(Manifest.commit, "state.manifest.commit")
    for meth in ("read", "read_row_group", "read_row_groups"):
        setattr(pq.ParquetFile, meth, _wrap(getattr(pq.ParquetFile, meth), "pyarrow.parquet.read"))
    pq.ParquetFile.iter_batches = _wrap_iter(pq.ParquetFile.iter_batches, "pyarrow.parquet.read")
    pq.read_table = _wrap(pq.read_table, "pyarrow.parquet.read")
    pq.ParquetWriter.write_table = _wrap(pq.ParquetWriter.write_table, "pyarrow.parquet.write")
    pq.ParquetWriter.close = _wrap(_counting_close(pq.ParquetWriter.close), "pyarrow.parquet.write")
    pq.write_table = _wrap(pq.write_table, "pyarrow.parquet.write")

    RECORDER = Recorder(os.environ[TRACE_DIR_ENV], worker=worker)
