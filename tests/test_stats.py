"""Scalar statistics, coin-sequence laws, and the batch kernels."""
from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from permtree import verify
from permtree.codec import TreeCode, enumerate_trees
from permtree.montecarlo import (
    batch_degree_counts,
    batch_head_count,
    batch_longest_tail_run,
    batch_tail_run_starts,
    batch_tail_runs_equal,
    batch_window_counts,
    degree_cov,
    tosses_from_codes,
)
from permtree.perm import Permutation, build_graph
from permtree.stats import (
    DegreeCensus,
    coin_stats,
    coupled_tree_stats_equivalence,
    diameter_pmf,
    expected_block_count,
    expected_degree_count,
    geometric_runs,
    leaves_pmf,
    maxdeg_cdf_approx,
    run_lengths,
    sigma_entry,
    tree_stats,
    y_star_moments,
)

from conftest import coupled, edge_list, tree_diameter_bfs


def all_toss_sequences(length):
    return product((False, True), repeat=length)


@pytest.mark.parametrize("call, args, message", [
    (coupled_tree_stats_equivalence, (TreeCode(2, ()),), "coupling needs n >= 3"),
    (leaves_pmf, (2, 2), "leaf law needs n >= 3"),
    (maxdeg_cdf_approx, (3, 0), "max-degree law needs n >= 4"),
    (y_star_moments, (10, 0), "window parameter k must be >= 1"),
    (expected_block_count, (2, 1), "block law needs n >= 3"),
    (expected_degree_count, (2, 1), "degree law needs n >= 3"),
    (sigma_entry, (0, 1), "indices must be >= 1"),
    (sigma_entry, (1, 0), "indices must be >= 1"),
    (geometric_runs, (0, 0.5), "n must be >= 1"),
], ids=["coupling", "leaves_pmf", "maxdeg_cdf_approx", "y_star_moments", "expected_block_count",
        "expected_degree_count", "sigma_entry_i", "sigma_entry_j", "geometric_runs"])
def test_arguments_outside_a_law_are_refused(call, args, message):
    # each guard's own message: without it the call returns a value or fails otherwise
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_tree_stats_examples():
    s = tree_stats(Permutation([2, 1]))
    assert (s.leaves, s.diameter, s.max_degree) == (2, 1, 1)
    s = tree_stats(Permutation([2, 3, 4, 1]))
    assert (s.leaves, s.diameter, s.max_degree) == (3, 2, 3)
    assert s.degree_census.counts == {1: 3, 3: 1}
    with pytest.raises(ValueError):
        tree_stats(Permutation([1]))


def test_leaf_histogram_n5():
    hist = Counter(tree_stats(p).leaves for p in enumerate_trees(5))
    assert dict(hist) == {2: 2, 3: 4, 4: 2}


@pytest.mark.parametrize("n", range(2, 13))
def test_diameter_identity_and_bfs(n):
    for p in enumerate_trees(n):
        s = tree_stats(p)
        assert s.diameter == n - s.leaves + 1
        assert s.diameter == tree_diameter_bfs(n, edge_list(build_graph(p)))


def test_coin_sequence_coupling_example():
    tosses = (False, True, True, False, False, True, False)
    assert coupled(tosses) == (0, 0, 1, 0, 0, 0, 1, 1)
    stats = coin_stats(tosses)
    assert stats.block_counts == {2: 2, 1: 1, 3: 1}
    assert stats.longest_tail_run == 2
    assert stats.window_counts == {1: 1, 3: 1}
    # identity: window count = block count minus boundary-block indicators
    sizes = run_lengths(coupled(tosses))
    b_first, b_last = sizes[0], sizes[-1]
    for k in set(stats.block_counts) | set(stats.window_counts):
        expect = (
            stats.block_counts.get(k, 0)
            - (1 if b_first == k else 0)
            - (1 if b_last == k else 0)
        )
        assert stats.window_counts.get(k, 0) == expect


def test_all_tails_single_block():
    stats = coin_stats([False] * 5)
    assert stats.block_counts == {6: 1}
    assert stats.window_counts == {}
    assert stats.longest_tail_run == 5


@pytest.mark.parametrize("length", range(0, 11))
def test_window_identity_exhaustive(length):
    """Window counts = block counts minus boundary blocks, all sequences.

    With at least two blocks this is the literal two-indicator identity
    Y*_k = Y_k - [b_first = k] - [b_last = k]; a single-block sequence has
    one boundary block, subtracted once.
    """
    for tosses in all_toss_sequences(length):
        st = coin_stats(tosses)
        for first in (0, 1):
            sizes = run_lengths(coupled(tosses, first))
            slack = 0
            for k in range(1, length + 2):
                boundary = (
                    (1 if sizes[0] == k else 0) + (1 if sizes[-1] == k else 0)
                    if len(sizes) >= 2
                    else (1 if sizes[0] == k else 0)
                )
                assert st.window_counts.get(k, 0) == st.block_counts.get(k, 0) - boundary
                if k >= 2:
                    slack += st.block_counts.get(k, 0) - st.window_counts.get(k, 0)
            assert 0 <= slack <= 2


@pytest.mark.parametrize("n", range(3, 15))
def test_coupled_equivalence_exhaustive(n):
    """The whole law check: the leaf and diameter laws, max degree = 2 + longest tail
    run in distribution, and degree counts coupled to block sizes on every code."""
    assert verify.LAWS.at(n) == (1 << (n - 2), 0)


def test_coupled_equivalence_spot_large():
    rng = np.random.default_rng(3)
    for _ in range(3):
        bits = rng.integers(0, 2, size=9998)
        assert coupled_tree_stats_equivalence(TreeCode(10_000, bits.tolist()))


def test_degree_census_rejects_inconsistent_counts():
    assert DegreeCensus(3, {1: 2, 2: 1}).max_degree == 2
    with pytest.raises(ValueError):
        DegreeCensus(3, {1: 3})  # three vertices, but degrees sum to 3 != 4
    with pytest.raises(ValueError):
        DegreeCensus(3, {1: 2})  # two vertices counted for n = 3


def test_leaves_pmf_values():
    assert leaves_pmf(3, 2) == 1
    assert leaves_pmf(5, 3) == Fraction(1, 2)
    assert leaves_pmf(5, 5) == 0
    # n=5 enumeration histogram matches the law exactly
    hist = Counter(tree_stats(p).leaves for p in enumerate_trees(5))
    for leaves, count in hist.items():
        assert Fraction(count, 8) == leaves_pmf(5, leaves)


@pytest.mark.parametrize("n", range(3, 16))
def test_leaves_pmf_sums_to_one(n):
    assert sum(leaves_pmf(n, l) for l in range(2, n)) == 1
    assert sum(diameter_pmf(n, d) for d in range(2, n)) == 1


@pytest.mark.parametrize("n", range(3, 13))
def test_exact_leaf_and_diameter_distribution(n):
    """Counts over all trees equal the binomial law exactly."""
    leaf_hist = Counter()
    diam_hist = Counter()
    for p in enumerate_trees(n):
        s = tree_stats(p)
        leaf_hist[s.leaves] += 1
        diam_hist[s.diameter] += 1
    total = 1 << (n - 2)
    for k in range(2, n):
        assert Fraction(leaf_hist.get(k, 0), total) == leaves_pmf(n, k)
        assert Fraction(diam_hist.get(k, 0), total) == diameter_pmf(n, k)


def test_last_letter_leaf_probability_half():
    for n in range(3, 11):
        hits = 0
        for p in enumerate_trees(n):
            g = build_graph(p)
            hits += len(g[p.values[-1]]) == 1
        assert hits * 2 == 1 << (n - 2)


@pytest.mark.parametrize("n", range(4, 13))
def test_maxdeg_exact_distribution_matches_tail_runs(n):
    """Max degree over all codes is 2 + longest tail run over all tosses."""
    deg_hist = Counter(tree_stats(p).max_degree for p in enumerate_trees(n))
    run_hist = Counter(
        2 + coin_stats(tosses).longest_tail_run
        for tosses in product((False, True), repeat=n - 3)
    )
    # codes are twice as many as toss sequences (free first symbol)
    assert deg_hist == Counter({v: 2 * c for v, c in run_hist.items()})


def test_maxdeg_cdf_limits_and_value():
    assert maxdeg_cdf_approx(2051, 0) == pytest.approx(math.exp(-2), abs=1e-12)
    assert maxdeg_cdf_approx(100, 40) > 0.999999
    assert maxdeg_cdf_approx(100, -40) < 1e-9


def test_y_star_moments_examples():
    assert y_star_moments(10, 2).mean == 0.625
    assert y_star_moments(100, 1).variance == (4 + 3 - 2) * 100 / 16
    assert y_star_moments(100, 1).variance == pytest.approx(
        sigma_entry(1, 1) * 100
    )
    with pytest.raises(ValueError):
        y_star_moments(6, 3)


@pytest.mark.parametrize("n", range(5, 15))
def test_y_star_mean_exact_exhaustive(n):
    """Average window count over all toss sequences equals the closed form."""
    length = n - 3
    for k in range(1, n - 4 + 1):
        total = 0
        for tosses in all_toss_sequences(length):
            total += coin_stats(tosses).window_counts.get(k, 0)
        assert Fraction(total, 1 << length) == Fraction(n - k - 3, 1 << (k + 1))


@pytest.mark.parametrize("n", (15, 16, 17, 18))
def test_y_star_mean_exact_exhaustive_large(n):
    """Same identity up to n=18, via the vectorized kernels over all sequences."""
    length = n - 3
    codes = np.arange(1 << length, dtype=np.uint32)[:, None]
    heads = (codes >> np.arange(length, dtype=np.uint32)[None, :]) & 1 == 1
    for k in range(1, n - 3):
        total = int(batch_window_counts(heads, k).sum())
        assert Fraction(total, 1 << length) == Fraction(n - k - 3, 1 << (k + 1))


def _exhaustive_window_variance(n, k):
    length = n - 3
    vals = [
        coin_stats(tosses).window_counts.get(k, 0)
        for tosses in all_toss_sequences(length)
    ]
    return np.array(vals, dtype=float).var()


def test_y_star_variance_leading_term():
    """Exact variance minus the linear leading term is a fixed constant.

    For k=1 the exact variance over all toss sequences is (5n - 22)/16, so
    the deviation from the leading term 5n/16 must equal -22/16 for every n.
    """
    for n in (14, 16, 18):
        exact = _exhaustive_window_variance(n, 1)
        lead = y_star_moments(n, 1).variance
        assert exact - lead == pytest.approx(-22 / 16, abs=1e-9)
    # and for k=2 the remainder is n-independent as well
    remainders = [
        _exhaustive_window_variance(n, 2) - y_star_moments(n, 2).variance
        for n in (15, 17)
    ]
    assert remainders[0] == pytest.approx(remainders[1], abs=1e-9)


@pytest.mark.parametrize("n", range(4, 13))
def test_expected_block_count_exhaustive(n):
    length = n - 2
    for k in range(1, length + 1):
        total = 0
        for bits in product((0, 1), repeat=length):
            total += Counter(run_lengths(bits)).get(k, 0)
        assert total / (1 << length) == pytest.approx(
            expected_block_count(n, k), abs=1e-12
        )


def test_expected_degree_count_matches_enumeration():
    for n in range(4, 12):
        sums = Counter()
        for p in enumerate_trees(n):
            for k, c in tree_stats(p).degree_census.counts.items():
                sums[k] += c
        total = 1 << (n - 2)
        for k in range(1, n):
            assert sums.get(k, 0) / total == pytest.approx(
                expected_degree_count(n, k), abs=1e-12
            )


def test_sigma_entries():
    assert sigma_entry(1, 1) == pytest.approx(5 / 16)
    assert sigma_entry(2, 2) == pytest.approx(7 / 64)
    assert sigma_entry(1, 2) == 0.0
    assert sigma_entry(2, 3) == pytest.approx(-2 / 2**7)


def test_degree_cov_structure():
    m = 6
    cov = degree_cov(m)
    assert cov.shape == (m, m)
    assert np.allclose(cov, cov.T)
    # shifted block equals the raw window covariance
    assert cov[1, 1] == pytest.approx(5 / 16)
    assert cov[2, 2] == pytest.approx(7 / 64)
    assert cov[1, 2] == 0.0
    # leaf variance: leaves are a shifted binomial, variance n/4 in the limit
    assert cov[0, 0] == pytest.approx(0.25, abs=1e-12)
    # leaf/degree-2 covariance: cov(n-1-#H, Y_1)/n -> -sum_i sigma_{i,1}
    assert cov[0, 1] == pytest.approx(-sum(sigma_entry(i, 1) for i in range(1, 70)))


def test_geometric_runs_values():
    m = geometric_runs(10, 0.5)
    assert m.mean == pytest.approx((2 / 3) * 10 + 1 / 3)
    assert geometric_runs(1, 0.77).mean == pytest.approx(1.0)
    assert geometric_runs(1, 0.77).variance == 0.0
    with pytest.raises(ValueError):
        geometric_runs(10, 0.0)
    with pytest.raises(ValueError):
        geometric_runs(10, 1.0)


def test_geometric_runs_variance_rate_identity():
    for q in (0.1, 0.25, 0.5, 0.9):
        v = geometric_runs(1000, q).variance - geometric_runs(999, q).variance
        rate = 2 * q * (1 - q) ** 2 * (2 + q**2) / ((1 + q) ** 2 * (1 - q**3))
        assert v == pytest.approx(rate, rel=1e-9)


def test_geometric_runs_brute_force_small():
    """Exact mean/variance by enumerating truncated geometric supports."""
    q = 0.5
    n = 3
    # truncate the support; mass beyond is negligible at 2^-40
    support = list(range(1, 41))
    probs = [q ** (j - 1) * (1 - q) for j in support]
    mean = 0.0
    meansq = 0.0
    for combo in product(range(len(support)), repeat=n):
        pr = math.prod(probs[i] for i in combo)
        runs = 1 + sum(combo[i] != combo[i + 1] for i in range(n - 1))
        mean += pr * runs
        meansq += pr * runs * runs
    m = geometric_runs(n, q)
    assert mean == pytest.approx(m.mean, abs=1e-9)
    assert meansq - mean**2 == pytest.approx(m.variance, abs=1e-9)


# ---------------------------------------------------------------------------
# Batch kernels vs the scalar scan
# ---------------------------------------------------------------------------


def _matrix(length):
    seqs = list(all_toss_sequences(length))
    return seqs, np.array(seqs, dtype=bool)


@pytest.mark.parametrize("length", range(1, 11))
def test_batch_kernels_exhaustive(length):
    seqs, heads = _matrix(length)
    stats = [coin_stats(s) for s in seqs]

    assert batch_head_count(heads).tolist() == [sum(s) for s in seqs]
    assert batch_longest_tail_run(heads).tolist() == [
        st.longest_tail_run for st in stats
    ]
    n_runs = batch_tail_run_starts(heads).tolist()
    assert n_runs == [
        sum(1 for k, c in st.block_counts.items() if k >= 2 for _ in range(c))
        for st in stats
    ]
    for r in range(1, length + 1):
        got = batch_tail_runs_equal(heads, r).tolist()
        assert got == [st.block_counts.get(r + 1, 0) for st in stats]
    for k in range(1, length + 1):
        got = batch_window_counts(heads, k).tolist()
        assert got == [st.window_counts.get(k, 0) for st in stats]


@pytest.mark.parametrize("length", range(1, 9))
def test_batch_degree_counts_exhaustive(length):
    n = length + 3
    seqs, heads = _matrix(length)
    got = batch_degree_counts(heads, n, kmax=n)
    for row, tosses in zip(got, seqs):
        sizes = run_lengths(coupled(tosses))
        size_counts = Counter(sizes)
        assert row[0] == n - len(sizes)
        for k in range(2, n + 1):
            assert row[k - 1] == size_counts.get(k - 1, 0)


def test_tosses_from_codes_matches_scalar():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(40, 12), dtype=np.uint8)
    heads = tosses_from_codes(bits)
    for row_bits, row_heads in zip(bits.tolist(), heads):
        assert row_heads.tolist() == [a != b for a, b in zip(row_bits, row_bits[1:])]


def test_batch_degree_counts_match_tree_stats():
    """End-to-end: kernel census equals graph census on decoded trees."""
    rng = np.random.default_rng(17)
    n = 40
    bits = rng.integers(0, 2, size=(50, n - 2), dtype=np.uint8)
    heads = tosses_from_codes(bits)
    census = batch_degree_counts(heads, n, kmax=n - 1)
    from permtree.codec import decode

    for row_bits, row in zip(bits, census):
        p = decode(TreeCode(n, row_bits.tolist()))
        counts = tree_stats(p).degree_census
        for k in range(1, n):
            assert row[k - 1] == counts.get(k)
