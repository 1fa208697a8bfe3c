"""Per-block codec auto-selection: sample rows, estimate encoded bytes for
every registered codec, pick the minimum (north-rule requirement; the
reference's fixed always-FSST choice generalized).

Statistics first (BtrBlocks, Kuschewski et al., SIGMOD 2023): one
:func:`.stats.stream_stats` pass over the sample feeds every integer
codec's closed-form :meth:`~.Codec.price`; only fsst, whose size depends on
a trained symbol table, trains and encodes, past the gate and screen below.

Deterministic: the sample is a fixed stride over the block's rows; ties break
by codec name order in the registry.
"""

from __future__ import annotations

import numpy as np

from .bitutil import gather_rows
from .stats import stream_stats


def _sample(
    values: np.ndarray,
    offsets: np.ndarray,
    max_rows: int,
    max_tokens: int = 1 << 17,
):
    """Bounded estimation sample: at most ``max_rows`` strided rows AND at
    most ``max_tokens`` tokens. 2^17 measured: every codec estimator stays
    within ~2% of its exact encoded total at the correctness-gate window
    (≤15% tolerance), the fsst held-out estimate sits at ~11% vs ~9% at
    the old 2^19 on 8M-token fragments, and the integer-codec estimators
    that actually compete for the win (varint/pfor/dvint/for) are
    near-exact at any size — while the selector's share of encode CPU
    (the socket-bandwidth constraint at 32 cores) drops ~4x. Small enough
    that a 10M-token single row estimates in O(sample), not O(row) —
    estimation may subsample, only encode must see every value.

    Over the token budget, EVERY selected row contributes a CONTIGUOUS
    prefix slice proportional to its share of the tokens — a giant row
    keeps (almost all of) the budget instead of being dropped, and
    contiguity preserves the run/delta adjacency statistics the rle/delta
    estimators depend on (element striding would smear deltas by the
    stride factor)."""
    n_rows = len(offsets) - 1
    total = int(offsets[-1] - offsets[0])
    if n_rows <= max_rows and total <= max_tokens:
        return values, offsets
    stride = max(1, int(np.ceil(n_rows / max_rows)))
    rows = np.arange(0, n_rows, stride)
    counts = np.diff(offsets)[rows].astype(np.int64)
    sampled = int(counts.sum())
    if sampled > max_tokens:
        # proportional contiguous slice per row (≥1 token for non-empty)
        take = (counts * max_tokens // max(sampled, 1)).astype(np.int64)
        take[(counts > 0) & (take == 0)] = 1
        counts = np.minimum(counts, take)
    return gather_rows(values, offsets[rows], counts)


# train-heavy estimators (symbol-table training per estimate) are GATED, then
# SCREENED. Gate: no estimate when the best cheap one is ≤ FSST_GATE × plain.
# 0.55 sits between bitpack at 17 bits (17/32) and 18 bits (18/32): fsst reads
# int32 as bytes and wins only where the cheap codecs fail (wide values with
# repeated byte patterns); below the gate it won one block (+538 B) across the
# perfbench stores and the sf0.01/sf0.1 tables (BASELINE.md). Screen: past the
# gate a tiny-prefix estimate runs first, and the full-sample one only when the
# codec is within SCREEN_SLACK of the best cheap estimate.
SCREEN_CODECS = ("fsst",)
FSST_GATE = 0.55
SCREEN_TOKENS = 1 << 14
SCREEN_SLACK = 1.15


def select_codec(
    values: np.ndarray,
    offsets: np.ndarray,
    codec_names: list[str] | None = None,
    sample_rows: int = 1024,
) -> tuple[str, dict[str, int], bytes | None]:
    """Returns (winning codec name, {codec: estimated FULL-BLOCK bytes}, and
    the winner's sample-trained state when reusable — saves the auto path a
    second training pass for expensive codecs like fsst). Deterministic:
    the sample, the screen and every tie-break are pure functions of the
    block content. A pricing or estimate error raises: a codec silently
    scored out of the race would change the choice without a trace."""
    from . import CODECS

    names = codec_names or list(CODECS)
    full_tokens = int(offsets[-1] - offsets[0])
    full_rows = len(offsets) - 1
    sv, so = _sample(np.ascontiguousarray(values, dtype=np.int32), offsets, sample_rows)
    estimates: dict[str, int] = {}
    states: dict[str, bytes | None] = {}

    def run(name, v, o):
        estimates[name], states[name] = CODECS[name].estimate(
            v, o, full_tokens=full_tokens, full_rows=full_rows
        )

    cheap = [n for n in names if n not in SCREEN_CODECS]
    if cheap:
        stats = stream_stats(sv, so)
        for name in cheap:
            estimates[name] = CODECS[name].price(stats, full_tokens, full_rows)
            states[name] = None
    best_cheap = min(
        (estimates[n] for n in cheap), default=np.iinfo(np.int64).max
    )
    if cheap and best_cheap <= FSST_GATE * estimates.get("plain", 4 * full_tokens):
        names = cheap
    for name in names:
        if name in estimates:
            continue
        pv, po = _sample(sv, so, sample_rows, max_tokens=SCREEN_TOKENS)
        run(name, pv, po)
        if estimates[name] <= SCREEN_SLACK * best_cheap and (
            len(po) - 1 < len(so) - 1 or po[-1] < so[-1]
        ):
            # contender: replace the screen figure with the full-sample
            # estimate (the screen only ever skips work, never fidelity
            # for a codec that might win)
            run(name, sv, so)
    best = min(estimates, key=lambda n: (estimates[n], n))
    return best, estimates, states[best]
