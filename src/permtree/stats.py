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
variances of bounded-window counts, their limit covariances, and the run
statistics of geometric samples) are exercised against exhaustive
enumeration and seeded simulation by the test suite.

Tosses are bools, True = heads, throughout.  The scalar scans here
(:func:`coin_stats`, :func:`run_lengths`, ``cover.gamma_from_tosses``) are
the oracles for the toss-matrix projections of :mod:`permtree.montecarlo`,
the one module that imports numpy.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from typing import Iterable, Sequence

from .codec import TreeCode, decode
from .errors import InvalidConfigError
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


def _bfs_farthest(adj: list[tuple[int, ...]], src: int) -> tuple[int, int]:
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


# the leaf count and the diameter of the unique tree at n = 2, where the
# binomial law 2 + Binomial(n - 3, 1/2) does not apply
N2_VALUES = {"leaves": 2, "diam": 1}


def scalar_law_moments(statistic: str, n: int) -> tuple[float, float]:
    """Exact mean and variance of the leaf count (``"leaves"``) or the diameter (``"diam"``).

    >>> scalar_law_moments("leaves", 11)
    (6.0, 2.0)
    >>> scalar_law_moments("diam", 2)
    (1.0, 0.0)
    """
    if n < 2:
        raise InvalidConfigError(f"{statistic} needs n >= 2")
    if n == 2:
        return float(N2_VALUES[statistic]), 0.0
    return (n + 1) / 2, (n - 3) / 4


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
    try:
        return math.exp(-(2.0 ** (-k + 1 + frac)))
    except OverflowError:  # k past the float range: the limit, 0 as k -> -inf and 1 as k -> inf
        return 0.0 if k < 0 else 1.0


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


def __getattr__(name: str):
    # The benchmark's trace looks these toss-matrix names up here; they live
    # in montecarlo, and this forward goes with the shims (ROADMAP item 1).
    if name == "tosses_from_codes" or name.startswith("batch_"):
        return getattr(import_module(".montecarlo", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
