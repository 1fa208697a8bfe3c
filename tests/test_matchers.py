"""LIKE-engine oracle tests (SURVEY.md §5b): every engine must return the
exact row set DuckDB returns for the same LIKE pattern on the raw table —
the reference's computeOracle + assert philosophy (sketch.cc:1124-1143,
:1336-1337). Corpora are per-column encoded with the text column pinned to
fsstb (auto could pick strdict/plainb, where no named engine runs) and
scanned through columnar.like_scan_mask. Pure batch-level (no Ray session
needed)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_like_ray import fsstlib
from fsst_like_ray.buffers import _binary_buffers
from fsst_like_ray.matchers import parse_like, match_decoded
from fsst_like_ray.matchers.engines import required_code_prefilter
from fsst_like_ray.pipelines.columnar import (
    S_FSSTB,
    _parse_head,
    _Reader,
    decode_columns_batch,
    encode_columns_batch,
    like_scan_mask,
)
from fsst_like_ray.pipelines.rank import FSSTB_TEXT

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


def fsstb_encode(table: pa.Table) -> pa.Table:
    return encode_columns_batch(table, spec=FSSTB_TEXT)


def fsstb_block(enc: pa.Table):
    """(payload bytes, offsets, symbol table, used bitmap) of a one-block
    fsstb text column."""
    env = enc["text__blk"].combine_chunks().dictionary[0].as_py()
    r = _Reader(bytes(env))
    _parse_head(r)
    assert r.u8() == S_FSSTB
    table = fsstlib.cached_table(r.b32())
    used = r.take(32)
    pay, po = _binary_buffers(enc["text__payload"])
    return pay, po, table, used


@pytest.fixture(scope="module")
def encoded_docs(docs):
    return fsstb_encode(docs)


def oracle_ids(pattern: str, table: pa.Table) -> set:
    con = duckdb.connect()
    con.register("t", table)
    rows = con.sql(
        "SELECT doc_id FROM t WHERE text LIKE ?", params=[pattern]
    ).fetchall()
    return {r[0] for r in rows}


def test_text_roundtrip(docs, encoded_docs):
    dec = decode_columns_batch(encoded_docs)
    assert dec["text"].to_pylist() == docs["text"].to_pylist()
    assert dec["doc_id"].to_pylist() == docs["doc_id"].to_pylist()
    # compression sanity: fsstb payload bytes smaller than plain text
    plain = sum(len(t) for t in docs["text"].to_pylist())
    pay, _po, _table, _used = fsstb_block(encoded_docs)
    assert len(pay) < plain


@pytest.mark.parametrize("pattern", PATTERNS)
def test_engines_match_oracle(docs, encoded_docs, pattern):
    expect = oracle_ids(pattern, docs)
    ids = np.array(docs["doc_id"].to_pylist())
    for engine in ["decoded", "skipping", "auto"]:
        mask = like_scan_mask(encoded_docs, "text", pattern, engine)
        got = set(ids[mask].tolist())
        assert got == expect, (engine, pattern)


@pytest.mark.parametrize("pattern", ["%scan%", "%window%", "%zzz-not-there%", "%a%"])
def test_kmp_engine_matches_oracle(docs, encoded_docs, pattern):
    expect = oracle_ids(pattern, docs)
    ids = np.array(docs["doc_id"].to_pylist())
    mask = like_scan_mask(encoded_docs, "text", pattern, "kmp")
    assert set(ids[mask].tolist()) == expect, pattern


def test_long_prefix_engine(docs, encoded_docs):
    # build a ≥9-byte prefix that actually occurs
    first_text = docs["text"][0].as_py()
    prefix = first_text[:12]
    pattern = prefix + "%"
    expect = oracle_ids(pattern.replace("\\", "\\\\"), docs)
    ids = np.array(docs["doc_id"].to_pylist())
    mask = like_scan_mask(encoded_docs, "text", pattern, "prefix")
    assert set(ids[mask].tolist()) == expect
    mask_auto = like_scan_mask(encoded_docs, "text", pattern, "auto")
    assert set(ids[mask_auto].tolist()) == expect


def test_p_type_patterns():
    part = pq.read_table(f"{SF}/part.parquet", columns=["p_partkey", "p_type"])
    t = pa.table({"doc_id": part["p_partkey"].cast(pa.string()), "text": part["p_type"]})
    enc = fsstb_encode(t)
    for pattern in ["PROMO%", "%ECONOMY%", "STANDARD%"]:
        expect = oracle_ids(pattern, t)
        ids = np.array(t["doc_id"].to_pylist())
        mask = like_scan_mask(enc, "text", pattern, "auto")
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
    import pyarrow.compute as pc

    pay, po, table, _used = fsstb_block(encoded_docs)
    for needle in [b"scan", b"join", b"the", b"qqq"]:
        cand = required_code_prefilter(pay, po, table, needle)
        truth = pc.match_substring(docs["text"], needle.decode()).to_numpy(
            zero_copy_only=False
        )
        assert not (truth & ~cand).any(), needle


def _position_code_sets_loop(table, needle):
    """Per-symbol, per-alignment reference for engines._position_code_sets."""
    m = len(needle)
    sets = [set() for _ in range(m)]
    for code, s in enumerate(table.symbols):
        for a in range(-(len(s) - 1), m):  # s[0] sits at needle index a
            lo, hi = max(a, 0), min(a + len(s), m)
            if lo < hi and all(s[i - a] == needle[i] for i in range(lo, hi)):
                for i in range(lo, hi):
                    sets[i].add(code)
    return sets


def test_position_code_sets_match_loop():
    """The all-codes-at-once sets equal the per-symbol loop on random
    tables (1- to 8-byte symbols, empty symbols) and on needles with
    repeated bytes, short and long."""
    from fsst_like_ray.matchers.engines import _position_code_sets

    rng = np.random.default_rng(24)
    for trial in range(40):
        alpha = rng.integers(97, 97 + int(rng.integers(2, 6)), size=8)
        n = int(rng.integers(0, 256))
        lens = rng.integers(0, 9, size=n)
        syms = [bytes(rng.choice(alpha, size=int(k)).astype(np.uint8))
                for k in lens]
        table = fsstlib.SymbolTable(syms)
        needles = [b"", b"a", b"aaaa", b"abab" * 5,
                   bytes(rng.choice(alpha, size=int(rng.integers(1, 30)))
                         .astype(np.uint8))]
        for needle in needles:
            got = _position_code_sets(table, needle)
            want = _position_code_sets_loop(table, needle)
            assert got == want, (trial, needle)


def test_position_code_sets_consistency(docs, encoded_docs):
    """The set-cover prefilter must stay sound for needles only spellable
    ACROSS symbol boundaries, and prune strictly tighter than plain
    byte-membership on nonsense needles."""
    import pyarrow.compute as pc

    pay, po, table, used = fsstb_block(encoded_docs)
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
    from fsst_like_ray.matchers.engines import last_code_prefilter

    pay, po, table, _used = fsstb_block(encoded_docs)
    ids = np.array(docs["doc_id"].to_pylist())
    for suf in [b"join", b"sort", b"a", b"zzz"]:
        truth = pc.ends_with(docs["text"], suf.decode()).to_numpy(
            zero_copy_only=False
        )
        cand = last_code_prefilter(pay, po, table, suf)
        assert not (truth & ~cand).any(), suf
    for pattern in ["%join", "%rt", "%zzz"]:
        mask = like_scan_mask(encoded_docs, "text", pattern, "auto")
        assert set(ids[mask].tolist()) == oracle_ids(pattern, docs), pattern


def test_exact_payload_match(docs, encoded_docs):
    """Exact-shape LIKE matches via payload equality (no decode)."""
    texts = docs["text"].to_pylist()
    ids = np.array(docs["doc_id"].to_pylist())
    target = texts[3]
    if "%" in target or "_" in target:
        target = texts[5]
    mask = like_scan_mask(encoded_docs, "text", target, "auto")
    expect = {i for i, t in zip(ids, texts) if t == target}
    assert set(ids[mask].tolist()) == expect
    # no-match constant
    mask0 = like_scan_mask(
        encoded_docs, "text", "definitely not a row", "auto"
    )
    assert mask0.sum() == 0


def test_underscore_with_explicit_engines(docs, encoded_docs):
    """'_' patterns must return oracle rows under EVERY explicitly requested
    engine (segments containing '_' are not literal needles — the engines
    must fall back to decode-verify rather than prune wrongly)."""
    ids = np.array(docs["doc_id"].to_pylist())
    pattern = "%sc_n%"
    expect = oracle_ids(pattern, docs)
    for engine in ("auto", "decoded", "skipping", "kmp", "prefix"):
        mask = like_scan_mask(encoded_docs, "text", pattern, engine)
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


def test_mixed_table_batch_every_engine(docs):
    """A batch concatenated from two fsstb blocks with DIFFERENT symbol
    tables (and a slice crossing the join): like_scan_mask groups rows by
    envelope, so each block's rows scan under their own table and bitmap.
    Every engine and every pattern shape, '_' included, equals DuckDB."""
    half = docs.num_rows // 2
    a, b = fsstb_encode(docs.slice(0, half)), fsstb_encode(docs.slice(half))
    assert fsstb_block(a)[2].serialize() != fsstb_block(b)[2].serialize()
    enc = pa.concat_tables([a, b])
    texts = docs["text"].to_pylist()
    patterns = PATTERNS + [
        "%sc_n%", "the fast key %", "%f_st%k_y%", texts[half + 1],
    ]
    for lo, n in ((0, docs.num_rows), (half - 40, 80)):
        raw, batch = docs.slice(lo, n), enc.slice(lo, n)
        ids = np.array(raw["doc_id"].to_pylist())
        for pattern in patterns:
            expect = oracle_ids(pattern, raw)
            for engine in ("decoded", "prefix", "skipping", "kmp", "auto"):
                mask = like_scan_mask(batch, "text", pattern, engine)
                assert set(ids[mask].tolist()) == expect, (lo, pattern, engine)
            # the cost floor walks the payloads and reports no matches
            assert not like_scan_mask(batch, "text", pattern, "dummy").any()


# ----------------------------------------------------- anchored unit walks
def _byte_rows(rng, n):
    """Random byte rows over a small alphabet plus 0xFF, with the edge
    cases the backward escape rule must get right spliced in: empty rows,
    0xFF-only rows, 0xFF runs of every parity just before the last unit."""
    alpha = np.frombuffer(b"ab \xff\xfeq", np.uint8)
    rows = [bytes(rng.choice(alpha, int(rng.integers(0, 24)))) for _ in range(n)]
    rows += [b"", b"\xff", b"\xff" * 2, b"\xff" * 3, b"a", b"ab" * 9]
    for k in range(1, 6):
        rows += [b"ab" + b"\xff" * k + b"a", b"q" + b"\xff" * k + b"ab",
                 b"\xff" * k + b"q", b"ab " + b"\xff" * k]
    return rows


def _walk_tables(rows):
    """Symbol tables to walk under: hand-made (symbols holding 0xFF and
    overlapping prefixes), trained on the rows, and empty (every byte an
    escaped literal)."""
    data = np.frombuffer(b"".join(rows), np.uint8).copy()
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    return data, off, [
        fsstlib.SymbolTable(
            [b"ab", b"a", b"b ", b"abab", b"\xff\xffa", b" ab", b"\xfe\xfe",
             b"ababab a"]
        ),
        fsstlib.train(data, off),
        fsstlib.SymbolTable([]),
    ]


WALK_NEEDLES = [
    b"a", b"\xff", b"q", b"ab", b"\xff\xff", b"b \xff", b"\xffa", b"ab ab",
    b"abababab", b"ababab ab", b"ab" * 9, b"\xff" * 3 + b"a", b"q\xff",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_anchored_walks_agree_with_bytes(seed, monkeypatch):
    """``p%`` / ``%p`` unit walks on random byte rows: the C walk, the
    NumPy walk and bytes.startswith / endswith agree for needles of 1,
    ≤ 8 and > 8 bytes, longer than many rows, over escapes, literal 0xFF
    and 0xFF runs of both parities before a row's last unit."""
    from fsst_like_ray import native
    from fsst_like_ray.matchers.engines import anchored_match

    rng = np.random.default_rng(seed)
    rows = _byte_rows(rng, 1500)
    data, off, tables = _walk_tables(rows)
    lib = native.lib
    for t, table in enumerate(tables):
        pay, po, _used = fsstlib.encode(data, off, table)
        # the trained table covers the whole alphabet; the others escape
        assert (pay == 255).any() == (t != 1)
        for needle in WALK_NEEDLES:
            for from_end in (False, True):
                want = np.array(
                    [r.endswith(needle) if from_end else r.startswith(needle)
                     for r in rows]
                )
                monkeypatch.setattr(native, "lib", None)
                got_np = anchored_match(pay, po, table, needle, from_end)
                monkeypatch.setattr(native, "lib", lib)
                assert np.array_equal(got_np, want), (needle, from_end)
                if lib is not None:
                    got_c = anchored_match(pay, po, table, needle, from_end)
                    assert np.array_equal(got_c, want), (needle, from_end)


def _forbid_decode(monkeypatch):
    """Make any payload decode in the LIKE path fail the test."""

    def no_decode(*a, **kw):
        raise AssertionError("decode-verify ran")

    monkeypatch.setattr(fsstlib, "decode", no_decode)


@pytest.mark.parametrize("c_path", [True, False])
def test_anchored_auto_never_decodes(docs, encoded_docs, c_path, monkeypatch):
    """Under auto, ``p%`` and ``%p`` are answered by the unit walks alone:
    equal to match_decoded, and no row of the fsstb block decodes (C and
    NumPy paths)."""
    from fsst_like_ray import native

    if c_path and native.lib is None:
        pytest.skip("no C compiler")
    if not c_path:
        monkeypatch.setattr(native, "lib", None)
    texts = docs["text"].to_pylist()
    long_prefix = texts[0][:12]
    patterns = [
        "the %", "%join", "%a", "a%", "%zzz", "zzz%", long_prefix + "%",
        "%" + texts[1][-11:], "%" + texts[2], texts[2] + "%",
    ]
    want = {p: match_decoded(docs["text"], parse_like(p)) for p in patterns}
    _forbid_decode(monkeypatch)
    for p in patterns:
        got = like_scan_mask(encoded_docs, "text", p, "auto")
        assert np.array_equal(got, want[p]), p
    assert want["the %"].any() and want["%join"].any()


def test_underscore_still_decode_verifies(docs, encoded_docs, monkeypatch):
    """A ``_`` pattern has no literal needles, so auto decodes its rows."""
    calls = []
    real = fsstlib.decode

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(fsstlib, "decode", spy)
    ids = np.array(docs["doc_id"].to_pylist())
    for pattern in ("the _%", "%jo_n"):
        mask = like_scan_mask(encoded_docs, "text", pattern, "auto")
        assert set(ids[mask].tolist()) == oracle_ids(pattern, docs), pattern
    assert calls


@pytest.mark.parametrize("pattern", ["the%dup", "%the%dup", "spark%line%"])
def test_general_anchored_shapes_match_duckdb(docs, encoded_docs, pattern):
    """Anchored ``p1%…%pn``: the end walks prefilter, decode verifies."""
    ids = np.array(docs["doc_id"].to_pylist())
    expect = oracle_ids(pattern, docs)
    assert expect
    for engine in ("auto", "decoded", "skipping"):
        mask = like_scan_mask(encoded_docs, "text", pattern, engine)
        assert set(ids[mask].tolist()) == expect, engine


def _loop_code_delta(char_delta, table):
    """Per-symbol loop reference for the code-level KMP transitions."""
    m1 = char_delta.shape[0]
    out = np.tile(np.arange(m1, dtype=np.int32)[:, None], (1, 256))
    for code, sym in enumerate(table.symbols):
        states = np.arange(m1, dtype=np.int32)
        for b in sym:
            states = char_delta[states, b]
        out[:, code] = states
    return out


def _loop_accept_offsets(char_delta, table):
    """Per-symbol loop reference for the first mid-symbol accept index."""
    m = char_delta.shape[0] - 1
    out = np.full((m + 1, 256), -1, dtype=np.int32)
    for code, sym in enumerate(table.symbols):
        states = np.arange(m + 1, dtype=np.int32)
        first = np.full(m + 1, -1, dtype=np.int32)
        for t, b in enumerate(sym):
            states = char_delta[states, b]
            first[(states == m) & (first < 0)] = t
        out[:, code] = first
    return out


def test_symbol_walk_matches_per_symbol_loops(encoded_docs):
    """The all-codes symbol walk is bit-identical to the per-symbol loops
    it replaced, over several tables (255 symbols included) and needles."""
    from fsst_like_ray.matchers.engines import _kmp_char_delta, _symbol_walk

    rows = _byte_rows(np.random.default_rng(5), 400)
    _data, _off, tables = _walk_tables(rows)
    tables.append(fsstb_block(encoded_docs)[2])
    assert len(tables[-1].symbols) == 255
    for table in tables:
        for needle in [b"a", b"the ", b"ab ab", b"sort dup", b"\xff\xffa",
                       b"merge sort scan join"]:
            cd = _kmp_char_delta(needle)
            delta, first = _symbol_walk(cd, table)
            assert delta.dtype == first.dtype == np.int32
            assert np.array_equal(delta, _loop_code_delta(cd, table))
            assert np.array_equal(first, _loop_accept_offsets(cd, table))
