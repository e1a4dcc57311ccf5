"""Permutations and their inversion graphs.

A permutation w = w_1, ..., w_n of {1..n} is stored in one-line notation.
Its inversion graph has vertex set {1..n} and one edge {w_a, w_b} for every
inversion, i.e. every pair of positions a < b with w_a > w_b.  Everything
else in this package (tree codes, block structure, cover numbers, Monte
Carlo checks) is defined on top of this layer, so the operations here are
deliberately direct transcriptions of the definitions: they are the ground
truth that the faster structural shortcuts are tested against.

Positions and letters are both 1-based throughout.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable, Iterator

import numpy as np


class Permutation:
    """Immutable one-line permutation of {1..n}, n >= 1.

    >>> p = Permutation([2, 4, 1, 3])
    >>> p.n
    4
    >>> p.letter(2)          # 1-based position access
    4
    >>> p.m                  # n minus the last letter
    1
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        n = len(vals)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {vals}")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        """n minus the last letter; positive for every tree permutation."""
        return len(self.values) - self.values[-1]

    def letter(self, pos: int) -> int:
        """Letter at 1-based position ``pos``."""
        if not 1 <= pos <= len(self.values):
            raise IndexError(f"position {pos} out of range 1..{len(self.values)}")
        return self.values[pos - 1]

    def position(self, letter: int) -> int:
        """1-based position of ``letter``."""
        return self.values.index(letter) + 1

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Permutation({list(self.values)})"


class PermGraph:
    """Inversion graph: vertices are the letters 1..n, edges the inversions.

    The adjacency map is keyed by letter (not by position) and neighbor
    lists are kept sorted.
    """

    __slots__ = ("n", "adjacency")

    def __init__(self, n: int, adjacency: dict[int, tuple[int, ...]]):
        self.n = n
        self.adjacency = adjacency

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (min, max) pairs."""
        out = []
        for v, nbrs in self.adjacency.items():
            for u in nbrs:
                if v < u:
                    out.append((v, u))
        out.sort()
        return out

    def __repr__(self) -> str:
        return f"PermGraph(n={self.n}, edges={self.edge_count})"


def inversions(perm: Permutation) -> list[tuple[int, int]]:
    """All inversion pairs (w_a, w_b) with a < b and w_a > w_b, in scan order.

    >>> inversions(Permutation([3, 1, 2]))
    [(3, 1), (3, 2)]
    >>> inversions(Permutation([1, 2, 3]))
    []
    """
    w = perm.values
    n = len(w)
    out = []
    for a in range(n):
        wa = w[a]
        for b in range(a + 1, n):
            if wa > w[b]:
                out.append((wa, w[b]))
    return out


def inversion_count(perm: Permutation) -> int:
    """Number of inversions, i.e. the edge count of the inversion graph.

    Uses an O(n log n) merge count so that million-letter permutations are
    cheap to validate.

    >>> inversion_count(Permutation([2, 4, 1, 3]))
    3
    """
    arr = np.asarray(perm.values, dtype=np.int64)
    return _merge_count(arr)


def _merge_count(arr: np.ndarray) -> int:
    """Count pairs i < j with arr[i] > arr[j] by divide and conquer."""
    n = arr.size
    if n < 2:
        return 0
    if n <= 64:
        total = 0
        lst = arr.tolist()
        for i in range(n):
            ai = lst[i]
            for j in range(i + 1, n):
                if ai > lst[j]:
                    total += 1
        return total
    mid = n // 2
    left, right = arr[:mid], arr[mid:]
    count = _merge_count(left) + _merge_count(right)
    left_sorted = np.sort(left)
    # For each element of the right half, count left elements above it.
    count += int((left_sorted.size - np.searchsorted(left_sorted, right, side="right")).sum())
    return count


def build_graph(perm: Permutation) -> PermGraph:
    """Inversion graph of ``perm``.

    The sweep keeps the letters seen so far in sorted order; at each new
    letter the tail of larger seen letters gives exactly its inversion
    partners, so the cost is O(n * insert + edge count).

    >>> build_graph(Permutation([2, 4, 1, 3])).edges()
    [(1, 2), (1, 4), (3, 4)]
    """
    n = perm.n
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    seen: list[int] = []
    for v in perm.values:
        i = bisect_right(seen, v)
        for u in seen[i:]:
            adj[u].append(v)
            adj[v].append(u)
        insort(seen, v)
    return PermGraph(n, {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()})


def is_indecomposable(perm: Permutation) -> bool:
    """True iff no proper prefix w_1..w_m is a permutation of {1..m}.

    Equivalent to connectivity of the inversion graph.

    >>> is_indecomposable(Permutation([2, 3, 1]))
    True
    >>> is_indecomposable(Permutation([2, 1, 4, 3]))
    False
    """
    running_max = 0
    for pos, v in enumerate(perm.values[:-1], start=1):
        running_max = max(running_max, v)
        if running_max == pos:
            return False
    return True


def components(perm: Permutation) -> list[tuple[int, int]]:
    """Maximal consecutive position intervals inducing the graph components.

    The prefix w_1..w_m contains exactly the letters {1..m} precisely when
    the running maximum equals m; cutting at every such m splits the
    positions into the connected components of the inversion graph, each a
    consecutive block of positions (and of letters).

    Returns 1-based inclusive intervals covering 1..n.

    >>> components(Permutation([2, 1, 4, 3]))
    [(1, 2), (3, 4)]
    >>> components(Permutation([2, 3, 1]))
    [(1, 3)]
    """
    out = []
    start = 1
    running_max = 0
    for pos, v in enumerate(perm.values, start=1):
        running_max = max(running_max, v)
        if running_max == pos:
            out.append((start, pos))
            start = pos + 1
    return out


def pattern_flags(perm: Permutation) -> tuple[bool, bool]:
    """(has_321, has_3412): containment of the two cycle-forcing patterns.

    A 321 occurrence is a triangle in the inversion graph; a 3412
    occurrence is an induced 4-cycle.  A permutation is a forest
    permutation iff both flags are False, and a tree permutation iff in
    addition it is indecomposable.

    Both scans are O(n^2); they are validated against the naive
    subsequence search in the test suite.

    >>> pattern_flags(Permutation([3, 2, 1]))
    (True, False)
    >>> pattern_flags(Permutation([3, 4, 1, 2]))
    (False, True)
    >>> pattern_flags(Permutation([1, 2, 3]))
    (False, False)
    """
    w = perm.values
    n = len(w)
    has_321 = False
    if n >= 3:
        # w_j is the middle of a 321 iff some earlier letter is larger and
        # some later letter is smaller.
        suffix_min = [0] * (n + 1)
        suffix_min[n] = n + 1
        for j in range(n - 1, -1, -1):
            suffix_min[j] = min(suffix_min[j + 1], w[j])
        prefix_max = 0
        for j in range(1, n - 1):
            prefix_max = max(prefix_max, w[j - 1])
            if prefix_max > w[j] > suffix_min[j + 1]:
                has_321 = True
                break

    has_3412 = False
    if n >= 4:
        # An occurrence at positions i<j<k<l needs w_k < w_l < w_i < w_j.
        # best[k] = the largest letter usable as w_i over ascents i<j<k; a
        # later pair (k, l) with w_k < w_l < best[k] completes the pattern.
        best = [0] * (n + 1)
        b = 0
        for j in range(1, n):
            cand = 0
            for i in range(j):
                if w[i] < w[j] and w[i] > cand:
                    cand = w[i]
            b = max(b, cand)
            best[j + 1] = b
        for k in range(2, n - 1):
            bk = best[k]
            if bk <= w[k]:
                continue
            for l in range(k + 1, n):
                if w[k] < w[l] < bk:
                    has_3412 = True
                    break
            if has_3412:
                break

    return has_321, has_3412


def is_tree_permutation(perm: Permutation) -> bool:
    """True iff the inversion graph is a tree.

    Checked as: connected (indecomposable) with exactly n-1 edges.  Agrees
    with the pattern-avoidance characterisation (no 321, no 3412,
    indecomposable); the test suite verifies the equivalence exhaustively.

    >>> is_tree_permutation(Permutation([2, 4, 1, 3]))
    True
    >>> is_tree_permutation(Permutation([1, 2]))
    False
    """
    if perm.n == 1:
        return True
    if not is_indecomposable(perm):
        return False
    return inversion_count(perm) == perm.n - 1
