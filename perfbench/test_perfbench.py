"""Self-tests of the benchmark: each oracle fires on a corrupted output,
and a tiny pass of each workload finishes correct.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.prepare_env()

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    token_rows=1024,
    token_shards=2,
    batch_tokens=16384,
    resumes_per_epoch=2,
    doc_replicas=1,
    doc_base_rows=400,
    doc_shards=2,
    event_rows=4000,
    event_shards=2,
)

# ------------------------------------------------------------- oracles
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from fsst_like_ray.sources.tokens import tokens_table

    t = tokens_table(64, seed=5)
    path = str(tmp_path_factory.mktemp("corpus") / "part.parquet")
    pa.parquet.write_table(t, path)
    return t, oracles.TokenCorpus([path])


def _batch(t: pa.Table, step: int = 0) -> dict:
    toks = t["tokens"].combine_chunks()
    return {
        "step": step,
        "n_rows": t.num_rows,
        "tokens": toks.flatten().to_numpy().copy(),
        "row_offsets": toks.offsets.to_numpy().astype(np.int64),
        "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
    }


def test_epoch_oracle_accepts_any_row_order(corpus):
    t, c = corpus
    tally = oracles.ServedTally()
    for part in (t.slice(40), t.slice(0, 40).take(pa.array(np.arange(39, -1, -1)))):
        tally.add(_batch(part))
    assert oracles.check_epoch(tally, c) == []


def test_epoch_oracle_fires_on_flipped_token(corpus):
    t, c = corpus
    b = _batch(t)
    b["tokens"][len(b["tokens"]) // 2] ^= 1
    tally = oracles.ServedTally()
    tally.add(b)
    assert oracles.check_epoch(tally, c)


def test_epoch_oracle_fires_on_swapped_tokens_and_lost_row(corpus):
    t, c = corpus
    b = _batch(t)
    i = int(np.flatnonzero(np.diff(b["tokens"]))[0])
    b["tokens"][[i, i + 1]] = b["tokens"][[i + 1, i]]  # same sum and count
    tally = oracles.ServedTally()
    tally.add(b)
    assert oracles.check_epoch(tally, c)
    tally = oracles.ServedTally()
    tally.add(_batch(t.slice(1)))
    assert oracles.check_epoch(tally, c)


def test_resume_oracle_fires_on_flipped_token_and_wrong_step(corpus):
    t, c = corpus
    b = _batch(t.slice(3, 5), step=7)
    assert oracles.check_resume_batch(b, 7, c) == []
    assert oracles.check_resume_batch(b, 8, c)
    b["tokens"][0] += 1
    assert oracles.check_resume_batch(b, 7, c)
    assert oracles.check_resume_batch(None, 7, c)


def test_ingest_oracle_fires_on_bad_verify_or_commit():
    ok = {"ok": True, "rows": 100}
    stats = {"fragments": 4, "rows": 100}
    assert oracles.check_ingest(ok, stats, 4, 100) == []
    assert oracles.check_ingest({"ok": False, "rows": 100}, stats, 4, 100)
    assert oracles.check_ingest({"ok": True, "rows": 99}, stats, 4, 100)
    assert oracles.check_ingest(ok, {"fragments": 3, "rows": 100}, 4, 100)


def test_like_oracle_fires_on_off_by_one_and_wrong_ids():
    docs = inputs.documents_table(3, 1, base_rows=300)
    want = oracles.like_ids(docs, "%merge%sort%")
    assert len(want) > 2
    assert oracles.check_like(want[::-1], want, "%merge%sort%") == []
    assert oracles.check_like(want[:-1], want, "%merge%sort%")
    assert oracles.check_like(np.append(want[:-1], 10**6), want, "%merge%sort%")


def test_aggregate_oracles_fire_on_off_by_one():
    ev = inputs.events_table(3, 2000)
    want = oracles.group_oracle(ev, 100, 700)
    rows = [
        {"value": k, "n_rows": v[0], "vsum": v[1], "vmin": v[2], "vmax": v[3]}
        for k, v in want.items()
    ]
    assert oracles.check_group(pa.Table.from_pylist(rows), want, 100, 700) == []
    rows[0]["vsum"] += 1
    assert oracles.check_group(pa.Table.from_pylist(rows), want, 100, 700)
    n = oracles.count_oracle(ev, 100, 700)
    assert oracles.check_value(n + 1, n, "count")
    got = oracles.scan_oracle(ev, 100, 700)
    assert oracles.check_value((got[0], got[1] - 1), got, "scan")


def test_inputs_are_a_function_of_the_seed():
    assert inputs.documents_table(4, 2, 200).equals(inputs.documents_table(4, 2, 200))
    assert not inputs.documents_table(4, 2, 200).equals(inputs.documents_table(5, 2, 200))
    assert inputs.events_table(4, 500).equals(inputs.events_table(4, 500))
    assert inputs.query_plan(4, 50) == inputs.query_plan(4, 50)


# ------------------------------------------------------- tiny workloads
def _positive(metrics: dict) -> None:
    for name, m in metrics.items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", ["ingest", "serve", "query"])
def test_tiny_workload_is_correct(workload):
    result, report = run.run(workload, seed=9, seconds=1, trace=False, sizes=TINY)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {
        "setup_s", "primary_per_probe", "secondary_per_probe", "store_bytes_per_plain_byte",
    }
    _positive(result["metrics"])
    assert report["report"]["failed_op_share"] == 0


def test_tiny_query_counts_a_wrong_like_result(monkeypatch):
    like = workloads.Query._like

    def off_by_one(self, pattern, stats_out):
        return like(self, pattern, stats_out)[1:]

    monkeypatch.setattr(workloads.Query, "_like", off_by_one)
    result, report = run.run("query", seed=9, seconds=1, trace=False, sizes=TINY)
    assert not result["correct"]
    assert result["failed"] > 0


def test_tiny_traced_query_reports_layers():
    # last: installing the tracer wraps program functions in this process
    result, _report = run.run("query", seed=9, seconds=2, trace=True, sizes=TINY)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["matchers.engines.match_block_calls"] > 0
    assert m["pipelines.columnar.like_mask_s"] > 0
    assert m["ray_floor.ms"] > 0
    assert m["native.c_path"] in (0, 1)
    assert sum(v for k, v in m.items() if k.startswith("codecs.auto.wins.")) > 0
