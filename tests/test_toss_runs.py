"""Property tests: the run-length encoding and its projections vs the scalar scans.

Random toss matrices up to 10^4 tosses wide, with forced all-heads and
all-tails rows, are encoded once; every projection must equal what the
scalar oracles ``coin_stats``, ``run_lengths`` and ``gamma_from_tosses``
report row by row, and the encodings of row slices, joined, must be the
encoding of the whole matrix.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtree.cover import gamma_from_tosses
from permtree.montecarlo import TossRuns, toss_runs
from permtree.stats import coin_stats, run_lengths

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
@given(toss_matrices(max_width=3000), st.data())
def test_encoding_joins_over_row_slices(heads, data):
    width = heads.shape[1]
    heads = np.vstack([heads, np.ones((1, width), bool), np.zeros((1, width), bool)])
    cuts = sorted(data.draw(st.lists(st.integers(0, heads.shape[0]), max_size=4)))
    parts = [toss_runs(heads[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, heads.shape[0]])]
    offsets = np.cumsum([0] + [p.length.size for p in parts])
    joined = TossRuns(
        width,
        np.concatenate([p.length for p in parts]),
        np.concatenate([p.tail for p in parts]),
        np.concatenate([p.start[:-1] + o for p, o in zip(parts, offsets)] + [offsets[-1:]]),
    )
    whole = toss_runs(heads)
    for name in ("length", "tail", "start"):
        assert np.array_equal(getattr(joined, name), getattr(whole, name))
    cols = min(width, 8)
    for project in (
        lambda r: r.cover_number(),
        lambda r: r.longest_tail_run(),
        lambda r: r.window_counts(cols),
        lambda r: r.degree_counts(width + 3, cols),
    ):
        assert np.array_equal(np.concatenate([project(p) for p in parts]), project(whole))
    assert whole.longest_tail_run()[-2:].tolist() == [0, width]


def test_zero_width_rows_have_no_runs():
    runs = toss_runs(np.zeros((3, 0), dtype=bool))
    assert runs.start.tolist() == [0, 0, 0, 0]
    assert runs.head_count().tolist() == [0, 0, 0]
    assert runs.longest_tail_run().tolist() == [0, 0, 0]
    assert runs.degree_counts(3, 3).tolist() == [[2, 1, 0]] * 3
    with pytest.raises(ValueError):
        runs.cover_number()
