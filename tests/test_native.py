"""The C kernels must be byte-identical twins of the NumPy FSST path."""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsst_like_ray import fsstlib, native


def _numpy_encode(data, off, table):
    """fsstlib.encode on its NumPy path (the C kernels switched off)."""
    lib, native.lib = native.lib, None
    try:
        return fsstlib.encode(data, off, table)
    finally:
        native.lib = lib


def _random_rows(seed):
    """(data, offsets): up to 500 rows of 0-399 bytes, in one of three
    modes by seed: random bytes, a small alphabet with 0xFF, all 0xFF."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 500))
    lens = rng.integers(0, 400, n_rows)
    off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    total = int(off[-1])
    mode = seed % 3
    if mode == 0:
        data = rng.integers(0, 256, total).astype(np.uint8)
    elif mode == 1:
        data = rng.choice(
            np.frombuffer(b"the quick brown\xff fox ", dtype=np.uint8), total
        )
    else:
        data = np.full(total, 255, dtype=np.uint8)
    return np.ascontiguousarray(data), off


def _rows(rows):
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    return np.frombuffer(b"".join(rows), dtype=np.uint8).copy(), off


def _trainer_case(case):
    rng = np.random.default_rng(11)
    words = [b"merge", b"sort", b"scan", b"the fast key", b"\xffhash"]
    if case.startswith("random"):
        return _random_rows(int(case[len("random"):]))
    if case == "empty":
        return np.zeros(0, dtype=np.uint8), np.array([0], dtype=np.int64)
    if case == "one_byte":
        return _rows([b"x"])
    if case == "long_rows":  # several 256-byte segment restarts per row
        return _rows(
            [b" ".join(rng.choice(words, size=300)) for _ in range(20)]
        )
    if case == "empty_rows_between":
        return _rows([b"", b"merge sort", b"", b"", b"the fast key", b""] * 40)
    if case == "all_ff_rows":
        return _rows([b"\xff" * int(n) for n in rng.integers(0, 700, 60)])
    if case == "int32_tokens":
        toks = (rng.zipf(1.3, 20_000) % 50_000).astype(np.int32)
        off = np.arange(0, 20_001, 100, dtype=np.int64)
        return toks.view(np.uint8), off * 4
    if case == "pairs_across_rows":  # "ab" occurs only across a row bound
        return _rows([b"a", b"b"] * 500)
    if case == "offset_base":  # rows start past the buffer's first byte
        data, off = _rows([b"junk"] + [b"scan merge"] * 50)
        return data, off[1:]
    raise ValueError(case)


TRAINER_CASES = [f"random{s}" for s in range(6)] + [
    "empty", "one_byte", "long_rows", "empty_rows_between", "all_ff_rows",
    "int32_tokens", "pairs_across_rows", "offset_base",
]


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
@pytest.mark.parametrize("case", TRAINER_CASES)
def test_native_train_matches_numpy(case, monkeypatch):
    """The one-call C trainer and the NumPy generations must produce the
    same symbols in the same code order — every store byte depends on it —
    and the C encoder must match the NumPy one under that table."""
    data, off = _trainer_case(case)
    table = fsstlib.train(data, off)
    if data.size:
        b_c, po_c, u_c = native.encode(data, off, table)
        b_np, po_np, u_np = _numpy_encode(data, off, table)
        assert bytes(b_c) == bytes(b_np)
        assert np.array_equal(po_c, po_np)
        assert u_c == u_np == fsstlib.escaped_literal_bitmap(b_c, po_c)
    monkeypatch.setattr(native, "lib", None)
    assert table.symbols == fsstlib.train(data, off).symbols
    if case == "pairs_across_rows":
        assert b"ab" in table.symbols


def test_native_build_failure_is_visible(tmp_path, monkeypatch):
    """A failed build leaves ``lib`` None (the NumPy fallback), keeps the
    reason in ``build_error`` and warns once per process, not per load."""
    import shutil

    bad = tmp_path / "broken.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(native, "_SRC", str(bad))
    monkeypatch.setattr(native, "lib", native.lib)
    monkeypatch.setattr(native, "build_error", native.build_error)
    monkeypatch.setattr(native, "varint_simd", native.varint_simd)
    monkeypatch.setattr(native, "_warned", False)
    with pytest.warns(RuntimeWarning, match="NumPy fallback") as rec:
        native._load()
        native._load()
    assert len(rec) == 1
    assert native.lib is None
    assert native.varint_simd is False
    assert native.build_error
    if shutil.which("cc"):  # the compiler's own message is kept
        assert "broken.c" in native.build_error


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
@pytest.mark.parametrize("seed", range(6))
def test_native_encode_decode_bit_identical(seed):
    data, off = _random_rows(seed)
    table = fsstlib.train(data, off)

    b_np, po_np, u_np = _numpy_encode(data, off, table)
    b_c, po_c, u_c = native.encode(data, off, table)
    assert np.array_equal(po_np, po_c)
    assert np.array_equal(b_np, b_c)
    assert u_np == u_c == fsstlib.escaped_literal_bitmap(b_c, po_c)

    d_c, ro_c = native.decode(b_c, po_c, table)
    assert bytes(d_c) == bytes(data)
    assert np.array_equal(ro_c, off)


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
def test_native_empty_table_and_rows():
    table = fsstlib.SymbolTable([])
    data = np.frombuffer(b"xyz\xff", dtype=np.uint8).copy()
    off = np.array([0, 0, 4, 4], dtype=np.int64)  # empty rows at both ends
    buf, po, used = native.encode(data, off, table)
    assert list(po) == [0, 0, 8, 8]  # all escaped: 2 bytes per input byte
    bits = np.unpackbits(np.frombuffer(used, np.uint8), bitorder="little")
    assert np.flatnonzero(bits).tolist() == [0x78, 0x79, 0x7A, 0xFF]
    assert _numpy_encode(data, off, table)[2] == used
    assert fsstlib.escaped_literal_bitmap(buf, po) == used
    dec, ro = native.decode(buf, po, table)
    assert bytes(dec) == bytes(data)
    assert list(ro) == list(off)


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
def test_native_decode_bounds_corrupt_payload():
    """A payload that expands past the caller's expected output size must
    error, not write past the buffer (a corrupted parquet payload could
    otherwise expand to 8x compressed before any row-size check runs)."""
    table = fsstlib.SymbolTable([b"ABCDEFGH"])  # code 0 -> 8 bytes
    # 100 copies of code 0 decode to 800 bytes; claim only 16 expected
    buf = np.zeros(100, dtype=np.uint8)
    po = np.array([0, 100], dtype=np.int64)
    with pytest.raises(ValueError, match="expand"):
        native.decode(buf, po, table, out_nbytes=16)
    # and with an honest bound it round-trips
    out, ro = native.decode(buf, po, table, out_nbytes=800)
    assert bytes(out) == b"ABCDEFGH" * 100


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
def test_numpy_decode_fallback_matches_native(monkeypatch):
    """fsstlib.decode dispatches to C when available; the NumPy fallback
    (used on hosts without a compiler) must stay bit-identical."""
    rng = np.random.default_rng(9)
    lens = rng.integers(0, 300, 300)
    off = np.zeros(301, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    data = rng.choice(
        np.frombuffer(b"abcdefgh \xff123", dtype=np.uint8), int(off[-1])
    ).copy()
    table = fsstlib.train(data, off)
    buf, po, _used = fsstlib.encode(data, off, table)
    d_c, ro_c = fsstlib.decode(buf, po, table)
    monkeypatch.setattr(native, "lib", None)
    d_np, ro_np = fsstlib.decode(buf, po, table)
    assert bytes(d_np) == bytes(d_c) == bytes(data)
    assert np.array_equal(ro_np, ro_c)


def test_dict_unique_inverse_matches_numpy():
    """C hash unique+inverse must be bit-identical to
    np.unique(return_inverse=True) — including negatives (the table uses
    a code sentinel, never a key sentinel) and heavy duplication."""
    from fsst_like_ray import native

    if native.lib is None:
        import pytest

        pytest.skip("no compiler")
    rng = np.random.default_rng(3)
    cases = [
        np.zeros(0, dtype=np.int32),
        np.array([-1], dtype=np.int32),
        np.array([-1, -1, 0, 2**31 - 1, -2**31], dtype=np.int32),
        rng.integers(-5, 5, 10_000).astype(np.int32),
        rng.integers(-2**31, 2**31, 50_000).astype(np.int32),
    ]
    for v in cases:
        u1, c1 = native.dict_unique_inverse(v)
        u2, c2 = np.unique(v, return_inverse=True)
        assert np.array_equal(u1, u2)
        assert np.array_equal(c1, c2.astype(np.uint32))


def _random_encoded_corpus(seed, n_rows=1500):
    """(pay, po, table, texts) over word-soup rows incl. escape bytes."""
    rng = np.random.default_rng(seed)
    words = ["merge", "sort", "scan", "\xffhash", "the fast key", "zap!"]
    rows = []
    for _ in range(n_rows):
        n = int(rng.integers(0, 25))
        rows.append(" ".join(rng.choice(words, size=n)).encode("latin-1"))
    off = np.zeros(n_rows + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    flat = np.frombuffer(b"".join(rows), dtype=np.uint8)
    table = fsstlib.train(flat, off)
    pay, po, _used = fsstlib.encode(flat, off, table)
    return pay, po, table, rows


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
@pytest.mark.parametrize("seed", range(3))
def test_native_like_prefilter_and_kmp_bit_identical(seed, monkeypatch):
    """The new scan kernels (like_prefilter, kmp_scan, meta_kmp_scan) must
    return exactly the NumPy masks on the same payloads — including
    escape-pair handling and no-match patterns."""
    from fsst_like_ray.matchers import engines as E
    from fsst_like_ray.matchers.pattern import parse_like

    pay, po, table, rows = _random_encoded_corpus(seed)
    patterns = [
        "%merge%", "%zap!%", "%never-there%", "%merge%sort%",
        "%fast key%zap%scan%", "%\xffhash%",
    ]
    for p in patterns:
        segs = tuple(parse_like(p).segments)
        nat_pref = E.skipping_prefilter(pay, po, table, segs, None)
        if len(segs) == 1:
            nat_kmp = E.kmp_code_match(pay, po, table, segs[0])
        else:
            nat_kmp = E.meta_kmp_code_match(pay, po, table, segs)
        with monkeypatch.context() as m:
            m.setattr(native, "lib", None)
            np_pref = E.skipping_prefilter(pay, po, table, segs, None)
            if len(segs) == 1:
                np_kmp = E.kmp_code_match(pay, po, table, segs[0])
            else:
                np_kmp = E.meta_kmp_code_match(pay, po, table, segs)
        assert np.array_equal(nat_pref, np_pref), p
        assert np.array_equal(nat_kmp, np_kmp), p
        # the prefilter must be sound: every true match is a candidate
        assert not (nat_kmp & ~nat_pref).any(), p
        # and KMP must equal ground truth on the decoded rows
        if len(segs) == 1:
            truth = np.array([segs[0] in r for r in rows])
        else:
            def ordered_contains(r, ss):
                pos = 0
                for s in ss:
                    i = r.find(s, pos)
                    if i < 0:
                        return False
                    pos = i + len(s)
                return True
            truth = np.array([ordered_contains(r, segs) for r in rows])
        assert np.array_equal(nat_kmp, truth), p


@pytest.mark.parametrize("name", ["varint", "pfor", "for", "rlebp"])
def test_numpy_codec_fallback_matches_native(name, monkeypatch):
    """The varint C kernels and the seg_scatter/seg_gather payload movers
    must produce byte-identical encodings to the pure-NumPy paths (and
    cross-decode: NumPy decodes the native buffer and vice versa)."""
    from fsst_like_ray.codecs import CODECS

    if native.lib is None:
        pytest.skip("no C compiler")
    rng = np.random.default_rng(21)
    rows = [
        list(rng.integers(0, 1 << int(rng.integers(1, 31)), rng.integers(0, 90)))
        for _ in range(200)
    ] + [[], [2**31 - 1, -5, 0], [7] * 500]
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    values = np.concatenate(
        [np.asarray(r, dtype=np.int32) for r in rows if len(r)]
    ).astype(np.int32)
    counts = np.diff(off)

    c = CODECS[name]
    state = c.train(values, off)
    buf_c, po_c = c.encode(values, off, state)
    dec_c = c.decode(buf_c, po_c, counts, state)

    monkeypatch.setattr(native, "lib", None)
    buf_np, po_np = c.encode(values, off, state)
    dec_np = c.decode(buf_c, po_c, counts, state)  # numpy decodes C buffer
    assert bytes(buf_np) == bytes(buf_c)
    np.testing.assert_array_equal(po_np, po_c)
    np.testing.assert_array_equal(dec_np, values)
    np.testing.assert_array_equal(dec_c, values)


_VARINT_EDGES = [0, 255, 256, 65535, 65536, 2**24 - 1, 2**24, 2**31 - 1,
                 -1, -(2**31), -256]


def _varint_rows(rng):
    """Every row length 0-40 (across the 4-value control byte and the
    16-value SIMD threshold), twice: once of byte-width edge values, once
    of random values of random byte widths."""
    rows = []
    for n in range(41):
        rows.append(rng.choice(_VARINT_EDGES, n).astype(np.int32))
        w = rng.integers(0, 33, n)
        rows.append((rng.integers(0, 2**32, n, dtype=np.uint64)
                     >> (32 - w).astype(np.uint64)).astype(np.uint32)
                    .view(np.int32))
    return rows


def test_varint_simd_scalar_numpy_agree(monkeypatch):
    """varint_decode's SSSE3 body (rows of >= 16 values), its scalar loop
    (shorter rows and every row's tail) and the NumPy decode all agree:
    on every row length 0-40, on values at each byte-width boundary, with
    the last row's data ending exactly at the end of the buffer, and with
    per-row payload starts permuted into a different output order."""
    import mmap
    import platform

    from fsst_like_ray.codecs import CODECS

    if native.lib is None:
        pytest.skip("no C compiler")
    if platform.machine() in ("x86_64", "AMD64"):
        assert native.varint_simd  # -march=native on x86-64 has SSSE3
    rng = np.random.default_rng(8)
    rows = _varint_rows(rng)
    rng.shuffle(rows)
    rows.append(np.full(17, 7, dtype=np.int32))  # 1-byte values, last
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    values = np.concatenate(rows).astype(np.int32)
    c = CODECS["varint"]
    buf, po = c.encode(values, off, b"")
    assert po[-1] == buf.size

    # the buffer ends flush against a PROT_NONE page: a SIMD load past
    # the last row's data bytes faults instead of passing unnoticed
    page = mmap.PAGESIZE
    size = -(-buf.size // page) * page
    region = mmap.mmap(-1, size + page)
    libc = ctypes.CDLL(None)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    mem = np.frombuffer(region, dtype=np.uint8)
    guard = mem.ctypes.data + size
    flush = mem[size - buf.size : size]
    flush[:] = buf
    assert libc.mprotect(guard, page, 0) == 0
    try:
        dec_c = c.decode(flush, po, counts, b"")
        perm = rng.permutation(len(rows))
        p_off = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts[perm], out=p_off[1:])
        dec_perm = native.varint_decode(
            flush, po[perm], p_off, int(p_off[-1])
        ).view(np.int32)
    finally:
        assert libc.mprotect(guard, page, 3) == 0  # PROT_READ | PROT_WRITE
        del mem, flush
        region.close()

    monkeypatch.setattr(native, "lib", None)
    dec_np = c.decode(buf, po, counts, b"")
    np.testing.assert_array_equal(dec_np, values)
    np.testing.assert_array_equal(dec_c, values)
    np.testing.assert_array_equal(
        dec_perm, np.concatenate([rows[i] for i in perm]).astype(np.int32)
    )


def test_poly_rowhash_native_matches_numpy():
    """C per-row polynomial hash bit-identical to the NumPy formulation
    (zero-extended uint32 values, including empty rows and extremes)."""
    if native.lib is None:
        pytest.skip("no C compiler")
    from fsst_like_ray.stages.verify import _poly_rowhash

    rng = np.random.default_rng(5)
    rows = [
        list(rng.integers(0, 1 << 32, rng.integers(0, 120), dtype=np.uint64))
        for _ in range(300)
    ] + [[], [0], [2**32 - 1] * 700]
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    off[1:] = np.cumsum([len(r) for r in rows])
    values = (
        np.concatenate([np.asarray(r, dtype=np.uint64) for r in rows if r])
        .astype(np.uint32)
        if off[-1]
        else np.zeros(0, dtype=np.uint32)
    )
    got = native.poly_rowhash_u32(values, off)
    want = _poly_rowhash(values.astype(np.uint64), off)
    np.testing.assert_array_equal(got, want)


def _stats_pair(rows):
    """stream_stats of ``rows`` on the C kernel and on the NumPy
    reference, as field dicts."""
    from fsst_like_ray.codecs.stats import _numpy_stats, stream_stats

    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    v = np.array([x for r in rows for x in r], dtype=np.int64).astype(
        np.int32
    )
    return stream_stats(v, off)._asdict(), _numpy_stats(v, off)._asdict()


def _assert_stats_equal(rows):
    got, ref = _stats_pair(rows)
    for field, want in ref.items():
        assert np.array_equal(got[field], want), (field, got[field], want)
        if isinstance(want, np.ndarray):
            assert got[field].dtype == want.dtype, field


_STATS_EDGES = [
    [],
    [[]],
    [[], [], []],
    [[7]],
    [[3, 3]],
    [[1, 2], [], [2, 1]],
    [[9] * 40, [9], [9, 9, 9]],
    [[-1, -5, -(2**31)], [-2, -2]],
    [[2**31 - 1, -(2**31), 2**31 - 1, -(2**31)]],
    [[0, 2**31 - 1, -(2**31), 0, -1, 1]],
    [[-(2**31), 2**31 - 1], [2**31 - 1, -(2**31)], [-1, 0, -1, 0]],
    [[x * 65536 for x in range(-40, 40)], [1 << 30, -(1 << 30), 1 << 30]],
]


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
@pytest.mark.parametrize("rows", _STATS_EDGES)
def test_stream_stats_matches_numpy_edges(rows):
    """C stream_stats equals the NumPy reference field for field: empty
    rows, one- and two-value rows, all-equal rows, negative int32, values
    either side of 2^31 in the unsigned view, and int32 min/max next to
    each other, where first and second differences wrap."""
    _assert_stats_equal(rows)


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
@given(
    rows=st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
                st.integers(min_value=-3, max_value=3),
                st.sampled_from([-(2**31), 2**31 - 1, 1 << 23, -1]),
            ),
            max_size=40,
        ),
        max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_stream_stats_matches_numpy_hypothesis(rows):
    _assert_stats_equal(rows)


@pytest.mark.skipif(native.lib is None, reason="no C compiler")
def test_stream_stats_distinct_counts_large():
    """The distinct counts take the bitmap for values near the minimum
    and the growing hash set for the rest; both must count exactly, at
    all three prefixes, on a stream large enough to grow the set."""
    rng = np.random.default_rng(3)
    for hi in (1 << 10, 1 << 22, 1 << 31):
        v = rng.integers(0, hi, 50_000).astype(np.int64)
        v[::7] = rng.integers(-(2**31), 2**31 - 1, v[::7].size)
        rows = np.array_split(v, 300)
        _assert_stats_equal([list(r) for r in rows])


@given(
    rows=st.lists(
        st.lists(
            st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=40
        ),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_varint_encode_layout_matches_numpy_hypothesis(rows):
    """The C varint encode lays out its own rows: its payload and row
    offsets equal the NumPy layout and fill for any rows."""
    from fsst_like_ray.codecs import CODECS

    if native.lib is None:
        pytest.skip("no C compiler")
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    v = np.array([x for r in rows for x in r], dtype=np.int64).astype(
        np.int32
    )
    c = CODECS["varint"]
    buf_c, po_c = c.encode(v, off, b"")
    lib, native.lib = native.lib, None
    try:
        buf_np, po_np = c.encode(v, off, b"")
    finally:
        native.lib = lib
    assert bytes(buf_c) == bytes(buf_np)
    np.testing.assert_array_equal(po_c, po_np)
    assert po_c[-1] == buf_c.size
