"""RLE × bit-pack cascade: run-length encoding whose run VALUES are
frame-of-reference bit-packed and whose run LENGTHS are bit-packed — the
classic lightweight-codec cascade (plain RLE spends a fixed 8 bytes/run;
this spends (vw+rw) bits/run plus a 4-byte per-row run count).

State blob: ``vw:uint8 | rw:uint8 | minv:int32le`` (6 bytes) — vw is the
width of (run value − minv), rw the width of (run length − 1).
Per-row payload: ``nruns:uint32le`` + packed run values (byte-aligned) +
packed run lengths (byte-aligned); rows stay independently decodable
(reference analog: per-row addressability, sketch.cc:770-785).
"""

from __future__ import annotations

import numpy as np

from . import Codec
from .bitutil import (
    bit_width_for,
    gather_segments,
    pack_rows,
    packed_row_nbytes,
    scatter_segments,
    unpack_rows,
)
from .rle import _runs


def _parse_state(state: bytes):
    vw, rw = state[0], state[1]
    minv = int(np.frombuffer(state, dtype="<i4", count=1, offset=2)[0])
    return vw, rw, minv


class RleBitpackCodec(Codec):
    name = "rlebp"

    def train(self, values, offsets):
        values = np.ascontiguousarray(values, dtype=np.int32)
        rv, rl, _ = _runs(values, offsets)
        minv = int(rv.min()) if rv.size else 0
        vw = bit_width_for((rv.astype(np.int64) - minv).astype(np.uint32))
        rw = bit_width_for((rl.astype(np.int64) - 1).astype(np.uint32))
        return bytes([vw, rw]) + np.int32(minv).tobytes()

    def encode(self, values, offsets, state):
        vw, rw, minv = _parse_state(state)
        values = np.ascontiguousarray(values, dtype=np.int32)
        rv, rl, runs_per_row = _runs(values, offsets)
        dv = rv.astype(np.int64) - minv
        dl = rl.astype(np.int64) - 1
        if rv.size and (
            dv.min() < 0
            or (vw < 32 and dv.max() >> vw)
            or (rw < 32 and dl.max() >> rw)
        ):
            raise ValueError("rlebp codec: block exceeds trained widths")
        ro = np.zeros(len(runs_per_row) + 1, dtype=np.int64)
        np.cumsum(runs_per_row, out=ro[1:])
        vbuf, vpo = pack_rows(dv.astype(np.uint32), ro, vw)
        lbuf, lpo = pack_rows(dl.astype(np.uint32), ro, rw)
        vbytes = np.diff(vpo)
        lbytes = np.diff(lpo)
        nbytes = 4 + vbytes + lbytes
        po = np.zeros(len(runs_per_row) + 1, dtype=np.int64)
        np.cumsum(nbytes, out=po[1:])
        buf = np.zeros(int(po[-1]), dtype=np.uint8)
        hdr_pos = po[:-1][:, None] + np.arange(4, dtype=np.int64)[None, :]
        buf[hdr_pos.ravel()] = (
            runs_per_row.astype(np.uint32).view(np.uint8).reshape(-1, 4).ravel()
        )
        scatter_segments(buf, po[:-1] + 4, vbytes, vbuf)
        scatter_segments(buf, po[:-1] + 4 + vbytes, lbytes, lbuf)
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        vw, rw, minv = _parse_state(state)
        n_rows = len(counts)
        if n_rows == 0:
            return np.zeros(0, dtype=np.int32)
        hdr_pos = (
            payload_offsets[:-1][:, None] + np.arange(4, dtype=np.int64)[None, :]
        )
        nruns = (
            np.ascontiguousarray(buf[hdr_pos.ravel()])
            .view(np.uint32)
            .astype(np.int64)
        )
        vbytes = packed_row_nbytes(nruns, vw)
        lbytes = packed_row_nbytes(nruns, rw)
        vpo = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(vbytes, out=vpo[1:])
        lpo = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lbytes, out=lpo[1:])
        vcat = gather_segments(buf, payload_offsets[:-1] + 4, vbytes)
        lcat = gather_segments(buf, payload_offsets[:-1] + 4 + vbytes, lbytes)
        dv = unpack_rows(vcat, vpo, nruns, vw).astype(np.int64)
        dl = unpack_rows(lcat, lpo, nruns, rw).astype(np.int64)
        return np.repeat((dv + minv).astype(np.int32), dl + 1)

    def size(self, st):
        # the run values are the stream's values, so their range is the
        # stream's signed range
        vw = (st.smax - st.smin).bit_length()
        rw = max(st.max_run - 1, 0).bit_length()
        rpr = st.runs_per_row
        return int(
            (4 + packed_row_nbytes(rpr, vw) + packed_row_nbytes(rpr, rw)).sum()
        ) + 6
