"""Property tests: the run-length encoding and its projections vs the scalar scans.

Random toss matrices up to 10^4 tosses wide, with forced all-heads and
all-tails rows, are encoded once; every projection must equal what the
scalar oracles ``coin_stats``, ``run_lengths`` and ``gamma_from_tosses``
report row by row, and an encoding made over many small row blocks must be
identical to the one made in a single block.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtree import stats
from permtree.cover import batch_gamma, gamma_from_tosses
from permtree.stats import coin_stats, run_lengths, toss_runs

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def toss_matrices(draw, max_width=10_000):
    width = draw(
        st.one_of(st.just(1), st.integers(1, 40), st.integers(41, max_width), st.just(max_width))
    )
    rows = draw(st.integers(1, 6 if width <= 2000 else 2))
    p_heads = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heads = rng.random((rows, width)) < p_heads
    fills = draw(st.lists(st.sampled_from([None, True, False]), min_size=rows, max_size=rows))
    for i, fill in enumerate(fills):
        if fill is not None:
            heads[i] = fill  # an all-heads (path) or all-tails (star) row
    return heads


@PROPERTY
@given(toss_matrices())
def test_encoding_lists_every_run(heads):
    runs = toss_runs(heads)
    assert runs.rows == heads.shape[0] and runs.width == heads.shape[1]
    assert runs.start[0] == 0 and runs.start[-1] == runs.length.size == runs.tail.size
    for i, row in enumerate(heads):
        lo, hi = runs.start[i], runs.start[i + 1]
        assert runs.length[lo:hi].tolist() == run_lengths(row.tolist())
        kinds = runs.tail[lo:hi].tolist()
        assert kinds[0] == (not row[0])
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


@PROPERTY
@given(toss_matrices())
def test_projections_match_scalar_oracles(heads):
    runs = toss_runs(heads)
    width = heads.shape[1]
    cols = min(width, 12)
    tail_hist = runs.tail_run_histogram(cols)
    windows = runs.window_counts(cols)
    n = width + 3
    degrees = runs.degree_counts(n, cols + 2)
    for i, row in enumerate(heads):
        cs = coin_stats(row.tolist())
        assert runs.head_count()[i] == row.sum()
        assert runs.longest_tail_run()[i] == cs.longest_tail_run
        assert runs.tail_runs()[i] == sum(c for k, c in cs.block_counts.items() if k >= 2)
        assert tail_hist[i].tolist() == [cs.block_counts.get(r + 1, 0) for r in range(1, cols + 1)]
        assert windows[i].tolist() == [cs.window_counts.get(k, 0) for k in range(1, cols + 1)]
        assert degrees[i, 0] == n - sum(cs.block_counts.values())
        assert degrees[i, 1:].tolist() == [cs.block_counts.get(k, 0) for k in range(1, cols + 2)]
        assert runs.cover_number()[i] == gamma_from_tosses(row.tolist())


@PROPERTY
@given(toss_matrices(max_width=3000), st.integers(1, 4))
def test_encoding_independent_of_row_blocks(heads, rows_per_block):
    whole = toss_runs(heads)
    budget = rows_per_block * heads.shape[1]
    with mock.patch.object(stats, "_BLOCK_TOSSES", budget):
        split = toss_runs(heads)
        assert np.array_equal(batch_gamma(heads), whole.cover_number())
    assert np.array_equal(split.length, whole.length)
    assert np.array_equal(split.tail, whole.tail)
    assert np.array_equal(split.start, whole.start)


def test_chunk_over_many_blocks(monkeypatch):
    rng = np.random.default_rng(2024)
    heads = rng.integers(0, 2, size=(300, 997)).astype(bool)
    heads[7] = True
    heads[8] = False
    whole = toss_runs(heads)
    monkeypatch.setattr(stats, "_BLOCK_TOSSES", 5 * 997 + 3)  # 5 rows per block, 60 blocks
    split = toss_runs(heads)
    for name in ("length", "tail", "start"):
        assert np.array_equal(getattr(split, name), getattr(whole, name))
    assert split.cover_number().tolist() == [gamma_from_tosses(r.tolist()) for r in heads]
    assert split.longest_tail_run()[7:9].tolist() == [0, 997]


def test_zero_width_rows_have_no_runs():
    runs = toss_runs(np.zeros((3, 0), dtype=bool))
    assert runs.start.tolist() == [0, 0, 0, 0]
    assert runs.head_count().tolist() == [0, 0, 0]
    assert runs.longest_tail_run().tolist() == [0, 0, 0]
    assert runs.degree_counts(3, 3).tolist() == [[2, 1, 0]] * 3
    with pytest.raises(ValueError):
        runs.cover_number()
