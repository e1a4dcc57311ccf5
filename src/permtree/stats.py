"""Statistics of random permutation trees and of coin-flip sequences.

A uniform tree permutation of length n corresponds to a uniform bit code
of length n-2, and that code is exactly the 0-1 sequence whose blocks
(maximal constant runs) carry the tree's degrees: each block of size k
yields one vertex of degree k+1 and everything else is a leaf.  Feeding
the code through the classic coin-flip coupling (first symbol free, then
one coin per step: tails extends the current block, heads opens a new one)
turns every tree statistic into a run statistic of n-3 fair coin flips:

* leaf count      = n - #blocks          = n - 1 - #heads
* diameter        = n - leaves + 1       = #heads + 2
* maximum degree  = 1 + largest block    = 2 + longest tail run
* degree counts   D_{k+1} = #blocks of size k

The closed forms implemented here (binomial law for leaves and diameter,
the doubly-exponential approximation for the maximum degree, means and
variances of bounded-window counts, the limit covariance of the degree
vector, and the run statistics of geometric samples) are exercised against
exhaustive enumeration and seeded simulation by the test suite.

Tosses are bools, True = heads, throughout: a scalar function takes one
sequence of them, the vectorized route a boolean matrix with one row per
sample.  :func:`toss_runs` encodes the matrix once into the maximal runs of
every row, and every coin statistic the Monte Carlo harness needs is a
short projection of that one encoding (head count, longest tail run,
tail-run histogram, window counts, degree census, cover number).  The
``batch_*`` functions are the same projections taken straight from a toss
matrix.  The scalar scans (:func:`coin_stats`, :func:`run_lengths`,
``cover.gamma_from_tosses``) are independent implementations and serve as
the oracles for the projections.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .codec import TreeCode, decode
from .perm import Permutation, build_graph


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


@dataclass(frozen=True)
class DegreeCensus:
    """How many vertices have each degree; counts[k] = number of degree-k vertices."""

    n: int
    counts: dict[int, int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.n:
            raise ValueError(f"degree counts {self.counts} do not add up to n = {self.n}")
        if sum(k * c for k, c in self.counts.items()) != 2 * (self.n - 1):
            raise ValueError(f"degrees {self.counts} do not sum to 2(n-1) for n = {self.n}")

    def get(self, k: int) -> int:
        return self.counts.get(k, 0)

    @property
    def max_degree(self) -> int:
        return max(k for k, c in self.counts.items() if c > 0)


@dataclass(frozen=True)
class TreeStats:
    leaves: int
    diameter: int
    max_degree: int
    degree_census: DegreeCensus


def _bfs_farthest(adj: list[list[int]], src: int) -> tuple[int, int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = [src]
    far, fdist = src, 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    if dist[u] > fdist:
                        far, fdist = u, dist[u]
                    nxt.append(u)
        frontier = nxt
    return far, fdist


def tree_stats(perm: Permutation) -> TreeStats:
    """Leaves, diameter, maximum degree and the full degree census.

    The diameter is computed twice, by the identity diameter = n - leaves + 1
    and by a double breadth-first sweep; a mismatch means a bug and raises.

    >>> tree_stats(Permutation([2, 3, 4, 1])).diameter
    2
    """
    n = perm.n
    if n < 2:
        raise ValueError("tree_stats needs n >= 2")
    adj = build_graph(perm)
    counts = Counter(len(nbrs) for nbrs in adj[1:])
    census = DegreeCensus(n, dict(counts))
    leaves = census.get(1)
    diameter = n - leaves + 1
    far, _ = _bfs_farthest(adj, 1)
    _, bfs_diameter = _bfs_farthest(adj, far)
    if bfs_diameter != diameter:
        raise RuntimeError(
            f"diameter identity violated on {perm}: formula {diameter}, walk {bfs_diameter}"
        )
    return TreeStats(leaves, diameter, census.max_degree, census)


# ---------------------------------------------------------------------------
# Coin sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinStats:
    """Run statistics of one coin sequence.

    block_counts[k]   -- blocks of size k in the coupled 0-1 sequence
    window_counts[k]  -- occurrences of H T^(k-1) H in the tosses
    longest_tail_run  -- length of the longest run of tails
    """

    block_counts: dict[int, int]
    window_counts: dict[int, int]
    longest_tail_run: int


def run_lengths(symbols: Iterable) -> list[int]:
    """Lengths of the maximal constant runs, in order."""
    out: list[int] = []
    prev = object()
    for s in symbols:
        if s == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = s
    return out


def coin_stats(heads: Sequence[bool]) -> CoinStats:
    """Direct scan of one toss sequence (True = heads); the oracle for the batch kernels.

    A block of the coupled 0-1 sequence ends at each head and at the end,
    so the block sizes are the gaps between consecutive cuts
    ``[-1, *head positions, len(heads)]``.

    >>> cs = coin_stats([False, True, True, False, False, True, False])
    >>> cs.block_counts
    {2: 2, 1: 1, 3: 1}
    >>> cs.longest_tail_run
    2
    """
    heads_at = [i for i, h in enumerate(heads) if h]
    cuts = [-1, *heads_at, len(heads)]
    blocks = Counter(b - a for a, b in zip(cuts, cuts[1:]))

    windows: Counter = Counter()
    for a, b in zip(heads_at, heads_at[1:]):
        windows[b - a] += 1

    longest = 0
    current = 0
    for h in heads:
        current = 0 if h else current + 1
        longest = max(longest, current)

    return CoinStats(dict(blocks), dict(windows), longest)


def coupled_tree_stats_equivalence(code: TreeCode) -> bool:
    """Check the degree/block coupling on one code.

    For the tree decoded from ``code`` and the 0-1 sequence equal to the
    code bits: the leaf count is n minus the number of blocks, and for
    every k >= 1 the number of degree-(k+1) vertices equals the number of
    blocks of size k.
    """
    if code.n < 3:
        raise ValueError("coupling needs n >= 3")
    census = Counter(len(nbrs) for nbrs in build_graph(decode(code))[1:])
    sizes = run_lengths(code.bits)
    if census.get(1, 0) != code.n - len(sizes):
        return False
    size_counts = Counter(sizes)
    kmax = max(max(size_counts), max(census) - 1)
    return all(census.get(k + 1, 0) == size_counts.get(k, 0) for k in range(1, kmax + 1))


# ---------------------------------------------------------------------------
# Closed-form laws
# ---------------------------------------------------------------------------


def leaves_pmf(n: int, leaves: int) -> Fraction:
    """Exact law of the leaf count: 2 + Binomial(n-3, 1/2).

    >>> leaves_pmf(5, 3)
    Fraction(1, 2)
    >>> leaves_pmf(5, 5)
    Fraction(0, 1)
    """
    if n < 3:
        raise ValueError("leaf law needs n >= 3")
    if not 2 <= leaves <= n - 1:
        return Fraction(0)
    return Fraction(math.comb(n - 3, leaves - 2), 1 << (n - 3))


def diameter_pmf(n: int, diameter: int) -> Fraction:
    """Exact law of the diameter, the reflection d = n - leaves + 1."""
    return leaves_pmf(n, n - diameter + 1)


def maxdeg_cdf_approx(n: int, k: int) -> float:
    """Asymptotic P(max degree - floor(log2(n-3)) < k).

    Doubly exponential limit exp(-2^(-k+1+frac)) with
    frac = log2(n-3) - floor(log2(n-3)); carries an o(1) error in n, so
    comparisons against simulation use an absolute tolerance.

    >>> round(maxdeg_cdf_approx(2051, 0), 4)
    0.1353
    """
    if n < 4:
        raise ValueError("max-degree law needs n >= 4")
    x = math.log2(n - 3)
    frac = x - math.floor(x)
    return math.exp(-(2.0 ** (-k + 1 + frac)))


def y_star_moments(n: int, k: int) -> Moments:
    """Mean and leading-order variance of the H T^(k-1) H window count.

    Over n-3 fair tosses the mean is exact: (n-k-3) / 2^(k+1).  The
    variance returned is the linear leading term

        (2^(k+1) + 3 - 2k) n / 2^(2k+2)  =  sigma_entry(k, k) * n;

    the bounded remainder (exactly -22/16 for k=1, O(k 2^-k) in general) is
    not modeled, so tests compare at a stated tolerance.  The per-toss
    coefficient is the diagonal of the limit covariance; direct enumeration
    over all toss sequences confirms it (see the test suite).

    A restated mean (n-k-1)/2^(k+1) circulates; it would correspond to n-1
    tosses rather than the n-3 this count is defined over.  Exhaustive
    enumeration pins the version used here.

    >>> y_star_moments(10, 2).mean
    0.625
    """
    if k < 1:
        raise ValueError("window parameter k must be >= 1")
    if n < k + 4:
        raise ValueError(f"need n >= k+4, got n={n}, k={k}")
    mean = Fraction(n - k - 3, 1 << (k + 1))
    var = Fraction(((1 << (k + 1)) + 3 - 2 * k) * n, 1 << (2 * k + 2))
    return Moments(float(mean), float(var))


def expected_block_count(n: int, k: int) -> float:
    """Exact mean number of size-k blocks in a uniform 0-1 sequence of length n-2.

    Interior starts contribute 2^-(k+1) each, the two boundary starts
    2^-k each; the whole-sequence block is its own case.
    """
    if n < 3:
        raise ValueError("block law needs n >= 3")
    length = n - 2
    if k < 1 or k > length:
        return 0.0
    if k == length:
        return float(Fraction(1, 1 << (length - 1)))
    return float(Fraction(1, 1 << (k - 1)) + Fraction(length - k - 1, 1 << (k + 1)))


def expected_degree_count(n: int, k: int) -> float:
    """Exact mean number of degree-k vertices in a uniform tree of size n."""
    if n < 3:
        raise ValueError("degree law needs n >= 3")
    if k == 1:
        return (n + 1) / 2
    return expected_block_count(n, k - 1)


def sigma_entry(i: int, j: int) -> float:
    """Limit covariance (per toss) of the window counts for sizes i and j.

    Diagonal: 2^-(i+1) (1 - (2i-3) 2^-(i+1)); off-diagonal: -(i+j-3) 2^-(i+j+2).

    >>> sigma_entry(1, 1) == 5 / 16
    True
    >>> sigma_entry(1, 2)
    0.0
    """
    if i < 1 or j < 1:
        raise ValueError("indices must be >= 1")
    if i == j:
        return (1.0 - (2 * i - 3) / 2.0 ** (i + 1)) / 2.0 ** (i + 1)
    return -(i + j - 3) / 2.0 ** (i + j + 2)


def degree_cov(m: int) -> np.ndarray:
    """m x m limit covariance of (D_1, ..., D_m)/sqrt(n).

    The degree vector is the window-count vector pushed through the linear
    map whose first row is all -1 (leaves are n minus everything else) and
    whose remaining rows shift indices by one.  The two infinite sums in
    the first row/column are truncated 64 terms past m; entries decay
    geometrically, so the truncation error is far below any tolerance used
    in tests (< 1e-15).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cap = m + 64
    sig = np.empty((cap, cap))
    for i in range(1, cap + 1):
        for j in range(1, cap + 1):
            sig[i - 1, j - 1] = sigma_entry(i, j)
    out = np.empty((m, m))
    out[0, 0] = sig.sum()
    for c in range(1, m):
        s = -sig[:, c - 1].sum()
        out[0, c] = s
        out[c, 0] = s
    for r in range(1, m):
        for c in range(1, m):
            out[r, c] = sig[r - 1, c - 1]
    return out


def geometric_runs(n: int, q: float) -> Moments:
    """Exact mean and variance of the number of runs in n iid geometric draws.

    Draws take value j with probability q^(j-1) (1-q).  The run count is
    1 plus the number of adjacent unequal pairs; those indicators are
    1-dependent, giving

        mean = 2q/(1+q) n + (1-q)/(1+q)                     (n >= 1)
        var  = (n-1) v + 2 (n-2) c                          (n >= 2)

    with v the indicator variance 2q(1-q)/(1+q)^2 and c the adjacent
    covariance q(1-q)^3 / ((1+q)^2 (1-q^3)).  The variance grows at rate
    2q(1-q)^2(2+q^2) / ((1+q)^2(1-q^3)) per draw; a single draw always
    forms one run, so the variance at n=1 is zero.

    >>> geometric_runs(1, 0.3).mean
    1.0
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = 2 * q / (1 + q) * n + (1 - q) / (1 + q)
    if n == 1:
        return Moments(mean, 0.0)
    v = 2 * q * (1 - q) / (1 + q) ** 2
    c = q * (1 - q) ** 3 / ((1 + q) ** 2 * (1 - q**3))
    return Moments(mean, (n - 1) * v + 2 * (n - 2) * c)


# ---------------------------------------------------------------------------
# Run-length encoding of toss matrices (rows = samples, True = heads)
# ---------------------------------------------------------------------------


def tosses_from_codes(bits: np.ndarray) -> np.ndarray:
    """Heads matrix of the coin sequences coupled to rows of code bits."""
    if bits.ndim != 2 or bits.shape[1] < 2:
        raise ValueError("need a matrix of at least two code bits per row")
    return bits[:, 1:] != bits[:, :-1]


@dataclass(frozen=True)
class TossRuns:
    """Run-length encoding of a toss matrix (rows = samples, True = heads).

    ``length`` and ``tail`` describe every maximal constant run of every
    row, in row-major order; row i owns the runs ``start[i]:start[i + 1]``.
    Each method is one projection of the encoding, one value (or one
    histogram row) per toss row.
    """

    width: int
    length: np.ndarray  # int32 run lengths
    tail: np.ndarray  # True for a run of tails
    start: np.ndarray  # int64 run offsets, one per row plus the end

    @property
    def rows(self) -> int:
        return self.start.size - 1

    def _row_reduce(self, ufunc: np.ufunc, per_run: np.ndarray, dtype=None) -> np.ndarray:
        if per_run.size == 0:  # zero-width rows own no runs
            return np.zeros(self.rows, dtype=np.int64)
        return ufunc.reduceat(per_run, self.start[:-1], dtype=dtype).astype(np.int64)

    def _row_sum(self, per_run: np.ndarray) -> np.ndarray:
        # no row sums past its width < 2^31: int32 accumulation spares the
        # int64 copy of the whole input that np.add.reduceat makes by default
        if per_run.dtype == bool:
            per_run = per_run.view(np.int8)
        return self._row_reduce(np.add, per_run, np.int32)

    def _row_histogram(self, mask: np.ndarray, lo: int, columns: int) -> np.ndarray:
        """(rows, columns) counts of the runs in ``mask`` by length lo .. lo+columns-1."""
        sel = mask & (self.length >= lo)
        sel &= self.length < lo + columns
        row = np.repeat(np.arange(self.rows, dtype=np.int32), self._row_sum(sel))
        row *= columns
        row += np.compress(sel, self.length)
        row -= lo
        counts = np.bincount(row, minlength=self.rows * columns)
        return counts.reshape(self.rows, columns)

    def head_count(self) -> np.ndarray:
        return self._row_sum(np.where(self.tail, 0, self.length))

    def tail_runs(self) -> np.ndarray:
        """Number of maximal tail runs."""
        return self._row_sum(self.tail)

    def longest_tail_run(self) -> np.ndarray:
        """Longest run of tails, 0 for an all-heads row (Schilling 1990)."""
        return self._row_reduce(np.maximum, np.where(self.tail, self.length, 0))

    def tail_run_histogram(self, rmax: int) -> np.ndarray:
        """Column r-1 counts the maximal tail runs of length exactly r, r = 1 .. rmax."""
        return self._row_histogram(self.tail, 1, rmax)

    def window_counts(self, kmax: int) -> np.ndarray:
        """Column k-1 counts the windows H T^(k-1) H, k = 1 .. kmax.

        For k >= 2 these are the interior tail runs (neither first nor last
        in the row) of length k-1; k = 1 counts adjacent heads, the head
        runs' lengths less one.
        """
        interior = self.tail.copy()
        if interior.size:
            interior[self.start[:-1]] = False
            interior[self.start[1:] - 1] = False
        out = self._row_histogram(interior, 0, kmax)
        adjacent_heads = self.length - 1
        adjacent_heads *= ~self.tail
        out[:, 0] = self._row_sum(adjacent_heads)
        return out

    def degree_counts(self, n: int, kmax: int) -> np.ndarray:
        """Degree census columns D_1 .. D_kmax for trees of size n.

        A size-k block of the coupled code is one degree-(k+1) vertex and a
        size-k block with k >= 2 is a tail run of length k-1.
        """
        if self.width != n - 3:
            raise ValueError(f"expected n-3 = {n - 3} tosses per row, got {self.width}")
        out = np.zeros((self.rows, kmax), dtype=np.int64)
        nblocks = 1 + self.head_count()
        out[:, 0] = n - nblocks
        if kmax >= 2:
            out[:, 1] = nblocks - self.tail_runs()
        if kmax >= 3:
            out[:, 2:] = self.tail_run_histogram(kmax - 2)
        return out

    def cover_number(self) -> np.ndarray:
        """Cover number per row; :func:`permtree.cover.gamma_from_tosses` per run.

        A tail run counts one, a head run of length L counts floor((L-1)/2),
        and each row end that is a head counts one.
        """
        if self.width < 1:
            raise ValueError("need at least one toss per row (trees of size >= 4)")
        odd_far_heads = self.length - 1
        odd_far_heads >>= 1
        odd_far_heads *= ~self.tail
        total = self._row_sum(odd_far_heads) + self.tail_runs()
        total += ~self.tail[self.start[:-1]]
        total += ~self.tail[self.start[1:] - 1]
        return total


def toss_runs(heads: np.ndarray) -> TossRuns:
    """Encode every row of a toss matrix into its maximal constant runs.

    One pass over the whole matrix: a run starts wherever a toss differs
    from its predecessor and at every row start; its kind follows from the
    row's first toss by alternation.  Memory grows linearly with the
    matrix, so callers bound it: the Monte Carlo harness encodes one chunk
    at a time.
    """
    rows, width = heads.shape
    flat = heads.reshape(-1)
    if flat.size == 0:  # zero-width rows own no runs
        return TossRuns(width, np.zeros(0, np.int32), np.zeros(0, bool), np.zeros(rows + 1, np.int64))
    edge = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:])
    edge[::width] = True
    starts = np.flatnonzero(edge)
    length = np.empty(starts.size, dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=length[:-1], casting="unsafe")
    length[-1] = flat.size - starts[-1]
    start = np.searchsorted(starts, np.arange(0, flat.size + 1, width))
    # run j is tails iff j is odd xor the row's phase (the row opens with
    # tails xor its first run's index is odd); cheaper than ~flat[starts]
    phase = ~heads[:, 0] ^ (start[:-1] & 1).astype(bool)
    tail = np.zeros(starts.size, dtype=bool)
    tail[1::2] = True
    tail ^= np.repeat(phase, np.diff(start))
    return TossRuns(width, length, tail, start)


def batch_head_count(heads: np.ndarray) -> np.ndarray:
    return toss_runs(heads).head_count()


def batch_longest_tail_run(heads: np.ndarray) -> np.ndarray:
    """Per-row longest run of tails (0 for all-heads rows)."""
    return toss_runs(heads).longest_tail_run()


def batch_tail_run_starts(heads: np.ndarray) -> np.ndarray:
    """Per-row number of maximal tail runs."""
    return toss_runs(heads).tail_runs()


def batch_tail_runs_equal(heads: np.ndarray, r: int) -> np.ndarray:
    """Per-row number of maximal tail runs of length exactly r >= 1."""
    if r < 1:
        raise ValueError("run length must be >= 1")
    if r > heads.shape[1]:
        return np.zeros(heads.shape[0], dtype=np.int64)
    return toss_runs(heads).tail_run_histogram(r)[:, r - 1]


def batch_window_counts(heads: np.ndarray, k: int) -> np.ndarray:
    """Per-row occurrences of H T^(k-1) H."""
    if k < 1:
        raise ValueError("window parameter k must be >= 1")
    if k >= heads.shape[1]:
        return np.zeros(heads.shape[0], dtype=np.int64)
    return toss_runs(heads).window_counts(k)[:, k - 1]


def batch_degree_counts(heads: np.ndarray, n: int, kmax: int) -> np.ndarray:
    """Per-row degree census columns D_1 .. D_kmax for trees of size n."""
    return toss_runs(heads).degree_counts(n, kmax)
