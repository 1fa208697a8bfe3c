"""Correctness oracles of the benchmark, computed with pyarrow and NumPy
from the generated inputs, never through the program under test.

Each ``check_*`` returns a list of mismatch descriptions; an empty list
means the output is correct.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, elementwise on uint64 (wraps mod 2**64)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def row_digests(doc_nums: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One uint64 digest per row of (doc number, token position, token).
    Order inside a row matters; the sum over rows is order-independent."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    row = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(len(values), dtype=np.int64) - (offsets[:-1] - offsets[0])[row]
    with np.errstate(over="ignore"):
        key = (
            np.asarray(values, dtype=np.int64).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + pos.astype(np.uint64) * np.uint64(0xD1B54A32D192ED03)
            + np.asarray(doc_nums, dtype=np.uint64)[row] * np.uint64(0x8CB92BA72F3D8DD7)
        )
        cs = np.zeros(len(values) + 1, dtype=np.uint64)
        np.cumsum(_mix(key), out=cs[1:])
        per_row = cs[offsets[1:] - offsets[0]] - cs[offsets[:-1] - offsets[0]]
        return _mix(per_row + lens.astype(np.uint64))


def doc_numbers(doc_ids) -> np.ndarray:
    """``doc-00001234`` → 1234."""
    ids = pa.array(doc_ids, type=pa.string()) if not isinstance(doc_ids, (pa.Array, pa.ChunkedArray)) else doc_ids
    return pc.cast(pc.utf8_slice_codeunits(ids, 4), pa.int64()).to_numpy(zero_copy_only=False)


class TokenCorpus:
    """Token count, token sum and order-independent digest of a
    ``tokens`` parquet corpus, plus each row's digest by doc number."""

    def __init__(self, paths: list[str]):
        t = pa.concat_tables(pq.read_table(p, columns=["doc_id", "tokens"]) for p in paths)
        toks = t["tokens"].combine_chunks()
        vals = toks.flatten().to_numpy()
        offs = toks.offsets.to_numpy().astype(np.int64)
        nums = doc_numbers(t["doc_id"])
        self.rows = t.num_rows
        self.tokens = int(len(vals))
        self.token_sum = int(vals.astype(np.int64).sum())
        d = row_digests(nums, vals, offs)
        with np.errstate(over="ignore"):
            self.digest = int(d.sum(dtype=np.uint64))
        self.by_doc = dict(zip(nums.tolist(), d.tolist()))


class ServedTally:
    """Running count/sum/digest of served loader batches."""

    def __init__(self):
        self.rows = self.tokens = self.token_sum = 0
        self.digest = np.uint64(0)

    def add(self, batch: dict) -> np.ndarray:
        vals = batch["tokens"]
        d = row_digests(doc_numbers(batch["doc_id"]), vals, batch["row_offsets"])
        self.rows += int(batch["n_rows"])
        self.tokens += int(len(vals))
        self.token_sum += int(vals.astype(np.int64).sum())
        with np.errstate(over="ignore"):
            self.digest = self.digest + d.sum(dtype=np.uint64)
        return d


def check_epoch(tally: ServedTally, corpus: TokenCorpus) -> list[str]:
    errs = []
    for what in ("rows", "tokens", "token_sum"):
        if getattr(tally, what) != getattr(corpus, what):
            errs.append(f"epoch {what}: served {getattr(tally, what)}, input {getattr(corpus, what)}")
    if int(tally.digest) != corpus.digest:
        errs.append("epoch digest differs from the input corpus")
    return errs


def check_resume_batch(batch: dict, step: int, corpus: TokenCorpus) -> list[str]:
    if batch is None:
        return [f"resume at step {step}: no batch"]
    errs = [] if batch["step"] == step else [f"resume at step {step}: got step {batch['step']}"]
    got = row_digests(doc_numbers(batch["doc_id"]), batch["tokens"], batch["row_offsets"])
    for num, d in zip(doc_numbers(batch["doc_id"]).tolist(), got.tolist()):
        if corpus.by_doc.get(num) != d:
            errs.append(f"resume at step {step}: row doc-{num:08d} differs from the input")
            break
    return errs


def check_ingest(verify: dict, stats: dict, n_fragments: int, n_rows: int) -> list[str]:
    errs = []
    if not verify.get("ok"):
        errs.append(f"verify_table_store not ok: {verify}")
    if verify.get("rows") != n_rows:
        errs.append(f"verify rows {verify.get('rows')} != input rows {n_rows}")
    if stats.get("fragments") != n_fragments:
        errs.append(f"committed fragments {stats.get('fragments')} != {n_fragments}")
    if stats.get("rows") != n_rows:
        errs.append(f"committed rows {stats.get('rows')} != input rows {n_rows}")
    return errs


def like_ids(text_table: pa.Table, pattern: str) -> np.ndarray:
    """Sorted doc ids whose ``text`` matches ``pattern``, by pyarrow."""
    m = pc.match_like(text_table["text"], pattern)
    return np.sort(text_table["doc_id"].filter(m).to_numpy())


def check_like(got_ids: np.ndarray, want_ids: np.ndarray, pattern: str) -> list[str]:
    got = np.sort(np.asarray(got_ids, dtype=np.int64))
    if len(got) != len(want_ids):
        return [f"LIKE {pattern!r}: {len(got)} rows, oracle {len(want_ids)}"]
    if not np.array_equal(got, want_ids):
        return [f"LIKE {pattern!r}: matched doc ids differ from the oracle"]
    return []


def _user_range(events: pa.Table, lo: int, hi: int) -> pa.Table:
    u = events["user_id"]
    return events.filter(pc.and_(pc.greater_equal(u, lo), pc.less_equal(u, hi)))


def group_oracle(events: pa.Table, lo: int, hi: int) -> dict:
    """{event_type: (count, sum, min, max) of user_id} over the range."""
    g = _user_range(events, lo, hi).group_by("event_type").aggregate(
        [("user_id", "count"), ("user_id", "sum"), ("user_id", "min"), ("user_id", "max")]
    )
    return {
        r["event_type"]: (r["user_id_count"], r["user_id_sum"], r["user_id_min"], r["user_id_max"])
        for r in g.to_pylist()
    }


def check_group(got: pa.Table, want: dict, lo: int, hi: int) -> list[str]:
    have = {
        r["value"]: (r["n_rows"], r["vsum"], r["vmin"], r["vmax"])
        for r in got.to_pylist()
        if r["n_rows"]
    }
    if have != want:
        return [f"GROUP BY event_type over user_id in [{lo}, {hi}] differs from the oracle"]
    return []


def count_oracle(events: pa.Table, lo: int, hi: int) -> int:
    return _user_range(events, lo, hi).num_rows


def scan_oracle(events: pa.Table, lo: int, hi: int) -> tuple[int, int]:
    t = _user_range(events, lo, hi)
    return t.num_rows, int(pc.sum(t["event_id"]).as_py() or 0)


def check_value(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, oracle {want}"]
