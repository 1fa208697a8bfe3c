"""LIKE-engine oracle tests (SURVEY.md §5b): every engine must return the
exact row set DuckDB returns for the same LIKE pattern on the raw table —
the reference's computeOracle + assert philosophy (sketch.cc:1124-1143,
:1336-1337). Pure batch-level (no Ray session needed)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray.matchers import parse_like, like_on_encoded, match_decoded
from fsst_like_ray.matchers.engines import kmp_code_match, required_code_prefilter
from fsst_like_ray.stages.text import encode_text_table, decode_text_table

SF = "/root/testdata/sf0.001"

PATTERNS = [
    "%scan%",
    "%scan%join%",
    "%join",
    "the %",
    "%window%",
    "%zzz-not-there%",
    "%a%",
    "%merge%sort%scan%",
]


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def encoded_docs(docs):
    return encode_text_table(docs)


def oracle_ids(pattern: str, table: pa.Table) -> set:
    con = duckdb.connect()
    con.register("t", table)
    rows = con.sql(
        "SELECT doc_id FROM t WHERE text LIKE ?", params=[pattern]
    ).fetchall()
    return {r[0] for r in rows}


def test_text_roundtrip(docs, encoded_docs):
    dec = decode_text_table(encoded_docs)
    assert dec["text"].to_pylist() == docs["text"].to_pylist()
    assert dec["doc_id"].to_pylist() == docs["doc_id"].to_pylist()
    # compression sanity: encoded smaller than plain text
    plain = sum(len(t) for t in docs["text"].to_pylist())
    enc = int(pa.compute.sum(encoded_docs["payload_nbytes"]).as_py())
    assert enc < plain


@pytest.mark.parametrize("pattern", PATTERNS)
def test_engines_match_oracle(docs, encoded_docs, pattern):
    expect = oracle_ids(pattern, docs)
    ids = np.array(docs["doc_id"].to_pylist())
    for engine in ["decoded", "skipping", "auto"]:
        mask = like_on_encoded(encoded_docs, pattern, engine=engine)
        got = set(ids[mask].tolist())
        assert got == expect, (engine, pattern)


@pytest.mark.parametrize("pattern", ["%scan%", "%window%", "%zzz-not-there%", "%a%"])
def test_kmp_engine_matches_oracle(docs, encoded_docs, pattern):
    expect = oracle_ids(pattern, docs)
    ids = np.array(docs["doc_id"].to_pylist())
    mask = like_on_encoded(encoded_docs, pattern, engine="kmp")
    assert set(ids[mask].tolist()) == expect, pattern


def test_long_prefix_engine(docs, encoded_docs):
    # build a ≥9-byte prefix that actually occurs
    first_text = docs["text"][0].as_py()
    prefix = first_text[:12]
    pattern = prefix + "%"
    expect = oracle_ids(pattern.replace("\\", "\\\\"), docs)
    ids = np.array(docs["doc_id"].to_pylist())
    mask = like_on_encoded(encoded_docs, pattern, engine="prefix")
    assert set(ids[mask].tolist()) == expect
    mask_auto = like_on_encoded(encoded_docs, pattern, engine="auto")
    assert set(ids[mask_auto].tolist()) == expect


def test_p_type_patterns():
    part = pq.read_table(f"{SF}/part.parquet", columns=["p_partkey", "p_type"])
    t = pa.table({"doc_id": part["p_partkey"].cast(pa.string()), "text": part["p_type"]})
    enc = encode_text_table(t)
    for pattern in ["PROMO%", "%ECONOMY%", "STANDARD%"]:
        expect = oracle_ids(pattern, t)
        ids = np.array(t["doc_id"].to_pylist())
        mask = like_on_encoded(enc, pattern, engine="auto")
        assert set(ids[mask].tolist()) == expect, pattern


def test_pattern_parser():
    p = parse_like("%a%b%")
    assert p.shape == "multi" and p.segments == (b"a", b"b")
    assert parse_like("abc%").shape == "prefix"
    assert parse_like("%abc").shape == "suffix"
    assert parse_like("abc").shape == "exact"
    assert parse_like("a%b").shape == "general"
    # '_' routes to the general (decoded, full-SQL-LIKE) path
    assert parse_like("a_c").shape == "general"
    assert parse_like("%a_c%").shape == "general"


def test_prefilter_is_sound(docs, encoded_docs):
    """The skipping prefilter must never exclude a true match."""
    ids = np.array(docs["doc_id"].to_pylist())
    from fsst_like_ray.buffers import _binary_buffers
    from fsst_like_ray import fsstlib
    import pyarrow.compute as pc

    pay, po = _binary_buffers(encoded_docs["payload"])
    state = encoded_docs["state"][0].as_py()
    table = fsstlib.SymbolTable.deserialize(state)
    for needle in [b"scan", b"join", b"the", b"qqq"]:
        cand = required_code_prefilter(pay, po, table, needle)
        truth = pc.match_substring(docs["text"], needle.decode()).to_numpy(
            zero_copy_only=False
        )
        assert not (truth & ~cand).any(), needle


def test_position_code_sets_consistency(docs, encoded_docs):
    """The set-cover prefilter must stay sound for needles only spellable
    ACROSS symbol boundaries, and prune strictly tighter than plain
    byte-membership on nonsense needles."""
    import pyarrow.compute as pc
    from fsst_like_ray.buffers import _binary_buffers
    from fsst_like_ray import fsstlib
    from fsst_like_ray.matchers.engines import required_code_prefilter

    pay, po = _binary_buffers(encoded_docs["payload"])
    table = fsstlib.SymbolTable.deserialize(encoded_docs["state"][0].as_py())
    used = (
        encoded_docs["used_chars"][0].as_py()
        if "used_chars" in encoded_docs.column_names
        else None
    )
    # multi-word needles span symbol boundaries; 'zzzqqq' matches nothing
    for needle in [b"the fast key", b"fast key", b"zzzqqq"]:
        truth = pc.match_substring(docs["text"], needle.decode()).to_numpy(
            zero_copy_only=False
        )
        cand = required_code_prefilter(pay, po, table, needle, used)
        assert not (truth & ~cand).any(), needle
    # tighter than byte-membership: every byte of 'zzzqqq' appears in the
    # corpus alphabet, but no symbol alignment can spell it, so candidates
    # must be far below "rows containing a z or q anywhere"
    cand = required_code_prefilter(pay, po, table, b"zzzqqq", used)
    assert cand.sum() < len(cand) // 4


def test_last_code_suffix_prefilter(docs, encoded_docs):
    """Suffix prefilter soundness + the auto path returning oracle rows."""
    import pyarrow.compute as pc
    from fsst_like_ray.buffers import _binary_buffers
    from fsst_like_ray import fsstlib
    from fsst_like_ray.matchers.engines import last_code_prefilter

    pay, po = _binary_buffers(encoded_docs["payload"])
    table = fsstlib.SymbolTable.deserialize(encoded_docs["state"][0].as_py())
    ids = np.array(docs["doc_id"].to_pylist())
    for suf in [b"join", b"sort", b"a", b"zzz"]:
        truth = pc.ends_with(docs["text"], suf.decode()).to_numpy(
            zero_copy_only=False
        )
        cand = last_code_prefilter(pay, po, table, suf)
        assert not (truth & ~cand).any(), suf
    for pattern in ["%join", "%rt", "%zzz"]:
        mask = like_on_encoded(encoded_docs, pattern, engine="auto")
        assert set(ids[mask].tolist()) == oracle_ids(pattern, docs), pattern


def test_exact_payload_match(docs, encoded_docs):
    """Exact-shape LIKE matches via payload equality (no decode)."""
    texts = docs["text"].to_pylist()
    ids = np.array(docs["doc_id"].to_pylist())
    target = texts[3]
    if "%" in target or "_" in target:
        target = texts[5]
    mask = like_on_encoded(encoded_docs, target, engine="auto")
    expect = {i for i, t in zip(ids, texts) if t == target}
    assert set(ids[mask].tolist()) == expect
    # no-match constant
    mask0 = like_on_encoded(encoded_docs, "definitely not a row", engine="auto")
    assert mask0.sum() == 0


def test_underscore_with_explicit_engines(docs, encoded_docs):
    """'_' patterns must return oracle rows under EVERY explicitly requested
    engine (segments containing '_' are not literal needles — the engines
    must fall back to decode-verify rather than prune wrongly)."""
    ids = np.array(docs["doc_id"].to_pylist())
    pattern = "%sc_n%"
    expect = oracle_ids(pattern, docs)
    for engine in ("auto", "decoded", "skipping", "kmp", "prefix"):
        mask = like_on_encoded(encoded_docs, pattern, engine=engine)
        assert set(ids[mask].tolist()) == expect, engine


# symbols a..e cover: "abc", "ab", "bc", "cde", "de", " " and "xyz";
# 'q' has no symbol, so it only ever appears as an escaped literal
MULTI_SYMBOLS = [b"abc", b"ab", b"bc", b"cde", b"de", b" ", b"xyz"]
MULTI_CASES = {
    # overlapping segments: "ab" and "bc" share the b of "abc"
    "%ab%bc%": [b"abc", b"ab bc", b"abbc", b"bcab"],
    # "ab" ends inside the symbol "abc"; its last byte opens "cde"
    "%ab%cde%": [b"abcde", b"ab de", b"abde", b"xabcdex"],
    # escaped literals inside segments
    "%aq%qb%": [b"aqqb", b"aqb", b"q aq x qb", b"qqqq"],
    "%q%b%q%": [b"qbq", b"qqb", b"abc q abc q", b"q"],
    # more segments than the prefilter's 8-bit requirement mask
    "%a%b%a%b%a%b%a%b%a%b%": [b"ab" * 5, b"ab" * 4, b"abc" * 6, b""],
}


def _multi_block(rows):
    from fsst_like_ray import fsstlib

    table = fsstlib.cached_table(fsstlib.SymbolTable(MULTI_SYMBOLS).serialize())
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    data = np.frombuffer(b"".join(rows), dtype=np.uint8).copy()
    pay, po, used = fsstlib.encode(data, off, table)
    text = pa.array([r.decode() for r in rows], type=pa.large_string())
    return pay, po, used, table, text


@pytest.mark.parametrize("c_path", [True, False])
def test_auto_multi_segment_matches_decoded(c_path, monkeypatch):
    """engine="auto" on unanchored multi-segment patterns equals the
    decoded LIKE; with the C kernels it is the exact meta-KMP walk (no
    decode-verify), without them the prefilter + decode path."""
    from fsst_like_ray import native
    from fsst_like_ray.matchers import engines

    if c_path and native.lib is None:
        pytest.skip("no C compiler")
    if not c_path:
        monkeypatch.setattr(native, "lib", None)
    meta_calls = []
    real_meta = engines.meta_kmp_code_match

    def meta_spy(*a, **kw):
        meta_calls.append(1)
        return real_meta(*a, **kw)

    monkeypatch.setattr(engines, "meta_kmp_code_match", meta_spy)
    rng = np.random.default_rng(3)
    noise = [
        bytes(rng.choice(np.frombuffer(b"abcdeqxyz ", np.uint8),
                         int(rng.integers(0, 30))))
        for _ in range(1500)
    ]
    for pattern, crafted in MULTI_CASES.items():
        pat = parse_like(pattern)
        assert pat.shape == "multi"
        pay, po, used, table, text = _multi_block(crafted + noise)

        def decode_fn(cidx, _text=text):
            if c_path:
                raise AssertionError("the meta-KMP route decode-verifies")
            return _text.take(pa.array(cidx))

        got = engines.match_block(pay, po, table, used, pat, "auto", decode_fn)
        want = match_decoded(text, pat)
        assert np.array_equal(got, want), pattern
        assert want.any() and not want.all(), pattern
    assert bool(meta_calls) == c_path
