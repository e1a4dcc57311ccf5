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

import operator
import sys
from bisect import bisect_right, insort
from typing import Iterable, Iterator


def int_entries(values: Iterable) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, refusing entries that are not integers.

    Python and numpy integers and bools pass; a float, a string or any
    other entry without ``__index__`` raises :class:`TypeError` instead of
    being truncated or parsed.

    >>> int_entries([2, True, False])
    (2, 1, 0)
    """
    vals = tuple(values)
    try:
        return tuple(map(operator.index, vals))
    except TypeError:
        # numpy bools lack __index__; none can exist unless something loaded numpy
        numpy_bool = getattr(sys.modules.get("numpy"), "bool_", ())
        return tuple(int(v) if isinstance(v, numpy_bool) else operator.index(v) for v in vals)


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

    # _code holds the tree code once codec.code_flags has checked it against
    # ``values``; it is unset on a non-tree.  _source holds the code bits that
    # codec.decode built ``values`` from, and is unset on every other
    # permutation.  Neither takes part in equality or hashing.
    __slots__ = ("values", "_code", "_source")

    def __init__(self, values: Iterable[int]):
        vals = int_entries(values)
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


def inversion_count(perm: Permutation) -> int:
    """Number of inversions, i.e. the edge count of the inversion graph.

    The sorted sweep of :func:`build_graph`: each letter is inverted with
    every larger letter seen before it.

    >>> inversion_count(Permutation([2, 4, 1, 3]))
    3
    """
    seen: list[int] = []
    total = 0
    for v in perm.values:
        total += len(seen) - bisect_right(seen, v)
        insort(seen, v)
    return total


def build_graph(perm: Permutation) -> list[tuple[int, ...]]:
    """Inversion graph of ``perm`` as ascending neighbour tuples by letter.

    Entry v holds the neighbours of letter v; entry 0 is unused and empty.
    The sweep keeps the letters seen so far in sorted order; at each new
    letter the tail of larger seen letters gives exactly its inversion
    partners, so the cost is O(n * insert + edge count).

    >>> build_graph(Permutation([2, 4, 1, 3]))
    [(), (2, 4), (1,), (4,), (1, 3)]
    """
    adj: list[list[int]] = [[] for _ in range(perm.n + 1)]
    seen: list[int] = []
    for v in perm.values:
        i = bisect_right(seen, v)
        for u in seen[i:]:
            adj[u].append(v)
            adj[v].append(u)
        insort(seen, v)
    return [tuple(sorted(nbrs)) for nbrs in adj]


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


def _has_321(w: tuple[int, ...]) -> bool:
    """True iff ``w`` contains 321, found in one pass.

    ``w`` avoids 321 exactly when the letters that are not left-to-right
    maxima increase (Simion & Schmidt 1985).  ``top`` is the running
    maximum and ``low`` the last letter below it; a letter under ``low``
    completes a 321 with some earlier maximum above ``low``.
    """
    top = low = 0
    for v in w:
        if v > top:
            top = v
        elif v < low:
            return True
        else:
            low = v
    return False


def _has_3412(w: tuple[int, ...]) -> bool:
    """True iff ``w`` contains 3412, by an O(n^2) scan."""
    n = len(w)
    if n < 4:
        return False
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
                return True
    return False


def pattern_flags(perm: Permutation) -> tuple[bool, bool]:
    """(has_321, has_3412): containment of the two cycle-forcing patterns.

    A 321 occurrence is a triangle in the inversion graph; a 3412
    occurrence is an induced 4-cycle.  A permutation is a forest
    permutation iff both flags are False, and a tree permutation iff in
    addition it is indecomposable.

    The 321 scan is O(n) and the 3412 scan O(n^2); both are validated
    against the naive subsequence search in the test suite.

    >>> pattern_flags(Permutation([3, 2, 1]))
    (True, False)
    >>> pattern_flags(Permutation([3, 4, 1, 2]))
    (False, True)
    >>> pattern_flags(Permutation([1, 2, 3]))
    (False, False)
    """
    return _has_321(perm.values), _has_3412(perm.values)


def is_forest(perm: Permutation) -> bool:
    """True iff the inversion graph is acyclic: no 321 and no 3412.

    The O(n) 321 scan runs first, so the 3412 scan sees only 321-avoiders.

    >>> is_forest(Permutation([2, 1, 4, 3]))
    True
    >>> is_forest(Permutation([3, 4, 1, 2]))
    False
    """
    return not _has_321(perm.values) and not _has_3412(perm.values)


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
