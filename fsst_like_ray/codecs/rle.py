"""Run-length codec: per-row payload = sequence of (value:int32le, run:uint32le)
pairs. Runs never cross row boundaries. Stateless.
"""

from __future__ import annotations

import numpy as np

from . import Codec


def _runs(values: np.ndarray, offsets: np.ndarray):
    """Vectorized run detection with forced breaks at row starts."""
    n = int(values.size)
    if n == 0:
        return (
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.uint32),
            np.zeros(len(offsets) - 1, dtype=np.int64),
        )
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = values[1:] != values[:-1]
    # row starts always begin a run
    inner = offsets[1:-1]
    is_start[inner[inner < n]] = True
    starts = np.flatnonzero(is_start)
    run_values = values[starts].astype(np.int32)
    bounds = np.append(starts, n)
    run_lengths = np.diff(bounds).astype(np.uint32)
    # runs per row: count run-starts in [offsets[i], offsets[i+1])
    runs_per_row = np.diff(np.searchsorted(starts, offsets)).astype(np.int64)
    return run_values, run_lengths, runs_per_row


class RleCodec(Codec):
    name = "rle"

    def encode(self, values, offsets, state):
        values = np.ascontiguousarray(values, dtype=np.int32)
        run_values, run_lengths, runs_per_row = _runs(values, offsets)
        pairs = np.empty((len(run_values), 2), dtype=np.uint32)
        pairs[:, 0] = run_values.view(np.uint32)
        pairs[:, 1] = run_lengths
        buf = pairs.reshape(-1).view(np.uint8)
        po = np.zeros(len(runs_per_row) + 1, dtype=np.int64)
        np.cumsum(runs_per_row * 8, out=po[1:])
        return buf, po

    def decode(self, buf, payload_offsets, counts, state):
        pairs = np.ascontiguousarray(buf).view(np.uint32).reshape(-1, 2)
        run_values = pairs[:, 0].view(np.int32)
        run_lengths = pairs[:, 1].astype(np.int64)
        return np.repeat(run_values, run_lengths)

    def size(self, st):
        return st.runs * 8
