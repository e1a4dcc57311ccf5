"""Exact counting of connected, tree, and forest permutations.

Indecomposable (= connected) permutations satisfy the classical
convolution n! - f(n) = sum_{i<n} (n-i)! f(i).  Forest permutations
(acyclic inversion graphs, equivalently avoiding 321 and 3412) satisfy
f_n = 3 f_{n-1} - f_{n-2}.  Forests split by the number m of components,
counted by a binomial convolution driven by the tree generating function
y + y^2/(1-2y).  Everything is arbitrary-precision; the census operation
is the brute-force oracle that classifies all of S_n and is cross-checked
against the closed forms in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _lex_permutations

from .errors import CapExceededError
from .perm import Permutation, components, is_forest, is_indecomposable

CENSUS_CAP = 9


def indecomposable_count(n: int) -> int:
    """Number of permutations of length n whose inversion graph is connected.

    >>> [indecomposable_count(n) for n in range(1, 7)]
    [1, 1, 3, 13, 71, 461]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = [0] * (n + 1)
    f[1] = 1
    for length in range(2, n + 1):
        f[length] = math.factorial(length) - sum(
            math.factorial(length - i) * f[i] for i in range(1, length)
        )
    return f[n]


def forest_total(n: int) -> int:
    """Number of permutations of length n with an acyclic inversion graph.

    >>> [forest_total(n) for n in range(1, 7)]
    [1, 2, 5, 13, 34, 89]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = 1, 2  # lengths 1 and 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 3 * b - a
    return b


def forest_count(n: int, m: int) -> int:
    """Number of forest permutations with n letters and exactly m components.

    The m-th power of the tree generating function y + y^2/(1-2y) sums
    C(m, k) C(n-m-1, k-1) 2^(n-m-k) over k; each term is the one before it
    times (m-k)(n-m-k) / (2k(k+1)), its 2 taken by a Horner shift.  The
    identity permutation is the unique inversion-free one: f(n, n) = 1.

    >>> forest_count(4, 2)
    5
    >>> forest_count(3, 1)
    2
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if m == n:
        return 1
    total, binomials = 0, m
    for k in range(1, min(m, n - m) + 1):
        total = (total << 1) + binomials
        binomials = binomials * ((m - k) * (n - m - k)) // (k * (k + 1))
    return total << (n - m - k)  # k ends at min(m, n - m): the loop ran, as m < n


@dataclass(frozen=True)
class CensusTable:
    """Classification tallies for all of S_n."""

    n: int
    total: int
    connected: int
    trees: int
    forests_by_m: dict[int, int]

    @property
    def forest_total(self) -> int:
        return sum(self.forests_by_m.values())


def census(n: int) -> CensusTable:
    """Classify every permutation of S_n by scanning all n! of them.

    Refuses n above ``CENSUS_CAP`` (9; 9! is about 3.6e5 permutations).

    >>> census(4).trees
    4
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CENSUS_CAP:
        raise CapExceededError(f"census of S_{n} exceeds cap {CENSUS_CAP}")
    total = connected = trees = 0
    forests: dict[int, int] = {}
    for values in _lex_permutations(range(1, n + 1)):
        p = Permutation(values)
        total += 1
        conn = is_indecomposable(p)
        connected += conn
        if is_forest(p):
            m = len(components(p))
            forests[m] = forests.get(m, 0) + 1
            trees += conn
    return CensusTable(n, total, connected, trees, forests)
