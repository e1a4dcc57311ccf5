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

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import permutations as _lex_permutations

from .errors import CapExceededError
from .perm import Permutation, components, is_indecomposable, pattern_flags

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

    The m-th power of the tree generating function y + y^2/(1-2y) expands
    into the binomial convolution below; the identity permutation is the
    unique inversion-free permutation, so f(n, n) = 1.

    >>> forest_count(4, 2)
    5
    >>> forest_count(3, 1)
    2
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if m == n:
        return 1
    return sum(
        math.comb(m, k) * math.comb(n - m - 1, k - 1) * (1 << (n - m - k))
        for k in range(1, min(m, n - m) + 1)
    )


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "permtree/1",
                "n": self.n,
                "total": self.total,
                "connected": self.connected,
                "trees": self.trees,
                "forests_by_m": {str(m): c for m, c in sorted(self.forests_by_m.items())},
            },
            sort_keys=True,
        )

    def csv_rows(self) -> list[tuple]:
        """Rows (n, class, m, count); m is blank except for forest rows."""
        rows = [
            (self.n, "total", "", self.total),
            (self.n, "connected", "", self.connected),
            (self.n, "trees", "", self.trees),
        ]
        for m, c in sorted(self.forests_by_m.items()):
            rows.append((self.n, "forests", m, c))
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("n", "class", "m", "count"))
        writer.writerows(self.csv_rows())
        return buf.getvalue()


def _census_block(n: int, first_letters: tuple[int, ...]) -> tuple[int, int, int, dict[int, int]]:
    """Tally the slice of S_n whose leading letter lies in ``first_letters``."""
    total = 0
    connected = 0
    trees = 0
    forests: dict[int, int] = {}
    letters = list(range(1, n + 1))
    for first in first_letters:
        rest = [v for v in letters if v != first]
        for tail in _lex_permutations(rest):
            p = Permutation((first,) + tail)
            total += 1
            conn = is_indecomposable(p)
            connected += conn
            has_321, has_3412 = pattern_flags(p)
            if not has_321 and not has_3412:
                m = len(components(p))
                forests[m] = forests.get(m, 0) + 1
                trees += conn
    return total, connected, trees, forests


def census(n: int, cap: int = CENSUS_CAP, workers: int = 1) -> CensusTable:
    """Classify every permutation of S_n by scanning all n! of them.

    Refuses n above ``cap`` (default 9; 9! is about 3.6e5 permutations).
    With workers > 1 the scan is partitioned by leading letter and the
    tallies merged by addition, so the result does not depend on the
    worker count.

    >>> census(4).trees
    4
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceededError(f"census of S_{n} exceeds cap {cap}")
    if n == 1:
        return CensusTable(1, 1, 1, 1, {1: 1})

    letters = tuple(range(1, n + 1))
    if workers <= 1 or n < 5:
        total, connected, trees, forests = _census_block(n, letters)
    else:
        import multiprocessing as mp

        nblocks = min(workers, n)
        blocks = [letters[i::nblocks] for i in range(nblocks)]
        with mp.Pool(nblocks) as pool:
            parts = pool.starmap(_census_block, [(n, blk) for blk in blocks])
        total = sum(p[0] for p in parts)
        connected = sum(p[1] for p in parts)
        trees = sum(p[2] for p in parts)
        forests = {}
        for part in parts:
            for m, c in part[3].items():
                forests[m] = forests.get(m, 0) + c
    return CensusTable(n, total, connected, trees, forests)
