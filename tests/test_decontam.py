"""Planted-contamination tests for functions/decontam.py: exact hit
counts, case/punctuation normalization, distinct-gram dedup, and the
clean-doc negative — corners the random-corpus oracle sweep can't pin."""

from __future__ import annotations

import pandas as pd
import pytest


@pytest.fixture()
def report(ray_session):
    import ray

    from fsst_like_ray.functions.decontam import contamination_report

    bench = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [100, 101],
                "text": [
                    "the quick brown fox jumps over the lazy dog",
                    "pack my box with five dozen liquor jugs",
                ],
            }
        )
    )
    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    # one shared 5-gram, despite case + punctuation noise
                    "intro text THE QUICK, brown Fox... jumps! outro",
                    # two distinct shared 5-grams (overlapping 6-gram window)
                    "quick brown fox jumps over the",
                    # the same shared gram twice still counts ONCE
                    "pack my box with five x pack my box with five",
                    "completely unrelated words nothing shared here at all",
                ],
            }
        )
    )
    out = contamination_report(docs, bench, k=5).to_pandas()
    return dict(zip(out["doc_id"], out["n_hits"]))


def test_planted_hits(report):
    assert report == {1: 1, 2: 2, 3: 1}


def test_clean_doc_absent(report):
    assert 4 not in report


def test_punctuation_only_bench_is_empty(ray_session):
    """A bench set with no extractable windows must yield an empty report,
    not crash the window-text derivation."""
    import ray

    from fsst_like_ray.functions.decontam import contamination_report

    bench = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [9], "text": ["!!! ... ???"]})
    )
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1], "text": ["some ordinary words here ok"]})
    )
    out = contamination_report(docs, bench, k=5).to_pandas()
    assert len(out) == 0
