"""Vectorized bit-packing helpers (NumPy only, no Python per-row loops).

Packs uint32 values at an arbitrary bit width ``w`` (0..32), with every ROW's
packed bits padded to a byte boundary so each row's payload slice is
independently decodable — mirroring the reference's property that rows inside
a block are independently addressable (reference: src/BenchmarkDriver.hpp:40-51,
sketch.cc:770-785).
"""

from __future__ import annotations

import numpy as np


def row_lengths(offsets: np.ndarray) -> np.ndarray:
    return np.diff(offsets)


def packed_row_nbytes(counts: np.ndarray, width: int) -> np.ndarray:
    """Bytes each row occupies when its values are packed at ``width`` bits."""
    return (counts.astype(np.int64) * width + 7) // 8


def bit_width_for(values_u32: np.ndarray) -> int:
    """Minimum bit width that can represent every value (0 for empty/all-zero)."""
    if values_u32.size == 0:
        return 0
    m = int(values_u32.max())
    return int(m).bit_length()


def pack_rows(
    values_u32: np.ndarray, offsets: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack ``values_u32`` (flattened rows given by ``offsets``) at ``width`` bits.

    Returns ``(buf: uint8 array, payload_offsets: int64 array of len n_rows+1)``;
    row i's payload is ``buf[payload_offsets[i]:payload_offsets[i+1]]``.
    """
    counts = row_lengths(offsets)
    nbytes = packed_row_nbytes(counts, width)
    payload_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=payload_offsets[1:])
    total_bytes = int(payload_offsets[-1])
    if width == 0 or total_bytes == 0:
        return np.zeros(total_bytes, dtype=np.uint8), payload_offsets

    from .. import native

    if native.lib is not None:
        return (
            native.pack_rows(values_u32, offsets, width, payload_offsets,
                             total_bytes),
            payload_offsets,
        )

    n_tot = int(values_u32.size)
    # value bits: (n_tot, width), little-endian bit order
    vbits = np.unpackbits(
        values_u32.astype(np.uint32, copy=False).view(np.uint8).reshape(n_tot, 4),
        axis=1,
        bitorder="little",
    )[:, :width]
    src_bits = np.ascontiguousarray(vbits).reshape(-1)

    # each row's bits form ONE contiguous run in both src and dst — copy per
    # row (n_rows memcpys, no per-bit index matrices)
    out_bits = np.zeros(total_bytes * 8, dtype=np.uint8)
    dst_starts = payload_offsets[:-1] * 8
    src_starts = offsets[:-1] * width
    nbits = counts * width
    for r in range(len(counts)):
        nb = nbits[r]
        if nb:
            d = dst_starts[r]
            s = src_starts[r]
            out_bits[d : d + nb] = src_bits[s : s + nb]
    buf = np.packbits(out_bits, bitorder="little")
    return buf, payload_offsets


def unpack_rows(
    buf: np.ndarray,
    payload_offsets: np.ndarray,
    counts: np.ndarray,
    width: int,
) -> np.ndarray:
    """Inverse of :func:`pack_rows`. Returns the flattened uint32 values."""
    n_tot = int(counts.sum())
    if width == 0 or n_tot == 0:
        return np.zeros(n_tot, dtype=np.uint32)

    from .. import native

    if native.lib is not None:
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return native.unpack_rows(buf, payload_offsets, offsets, width, n_tot)

    bits = np.unpackbits(np.ascontiguousarray(buf), bitorder="little")

    n_rows = len(counts)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    src_starts = payload_offsets[:-1] * 8
    dst_starts = offsets[:-1] * width
    nbits = counts * width
    vflat = np.zeros(n_tot * width, dtype=np.uint8)
    for r in range(n_rows):
        nb = nbits[r]
        if nb:
            s = src_starts[r]
            d = dst_starts[r]
            vflat[d : d + nb] = bits[s : s + nb]
    vbits = np.zeros((n_tot, 32), dtype=np.uint8)
    vbits[:, :width] = vflat.reshape(n_tot, width)
    return np.packbits(vbits, axis=1, bitorder="little").view(np.uint32).ravel()


def scatter_segments(buf, dst_base, seg_nbytes, src) -> None:
    """Copy per-row variable-length segments ``src`` (concatenated, sizes
    ``seg_nbytes``) into ``buf`` starting at ``dst_base[row]`` — one
    cumsum/repeat index build, no per-row Python (shared by the FOR and
    RLE×bitpack codecs' payload assembly)."""
    total = int(seg_nbytes.sum())
    if not total:
        return

    from .. import native

    if native.lib is not None:
        native.seg_scatter(buf, dst_base, seg_nbytes, src)
        return
    so = np.zeros(len(seg_nbytes) + 1, dtype=np.int64)
    np.cumsum(seg_nbytes, out=so[1:])
    row_of_byte = np.repeat(np.arange(len(seg_nbytes)), seg_nbytes)
    within = np.arange(total, dtype=np.int64) - np.repeat(so[:-1], seg_nbytes)
    buf[dst_base[row_of_byte] + within] = src


def gather_segments(buf, src_base, seg_nbytes) -> np.ndarray:
    """Inverse of :func:`scatter_segments`: concatenate per-row segments
    of ``buf`` (sizes ``seg_nbytes``) starting at ``src_base[row]``."""
    total = int(seg_nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    if not total:
        return out

    from .. import native

    if native.lib is not None:
        return native.seg_gather(buf, src_base, seg_nbytes, total)
    so = np.zeros(len(seg_nbytes) + 1, dtype=np.int64)
    np.cumsum(seg_nbytes, out=so[1:])
    row_of_byte = np.repeat(np.arange(len(seg_nbytes)), seg_nbytes)
    within = np.arange(total, dtype=np.int64) - np.repeat(so[:-1], seg_nbytes)
    return np.ascontiguousarray(buf[src_base[row_of_byte] + within])


def gather_rows(
    values: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i] : starts[i] + lens[i]]`` over every
    i → (flat array of ``values``' dtype, int64 offsets): the one row
    gather behind training samples, selector samples and payload subsets.
    Moves bytes with :func:`gather_segments`, so any fixed-width dtype
    works."""
    v = np.ascontiguousarray(values)
    lens = np.asarray(lens, dtype=np.int64)
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    w = v.dtype.itemsize
    flat = gather_segments(
        v.view(np.uint8), np.asarray(starts, dtype=np.int64) * w, lens * w
    )
    return flat.view(v.dtype), off
