"""Block structure of tree permutations.

The left-to-right maxima of a tree permutation and the remaining letters
form the two sides of a bipartition of its inversion graph.  Splitting the
positions into maximal runs on one side ("blocks") determines everything
about the tree locally: every neighbor set, every degree, and the spine of
the caterpillar can be read off the block sizes and the first/last letters
of each block.  This module implements those combinatorial shortcuts; the
inversion-graph layer in :mod:`permtree.perm` is the oracle they are
tested against.
"""
from __future__ import annotations

from itertools import compress
from operator import ne

from .codec import code_flags
from .errors import TooSmallError
from .perm import Permutation


def blocks(perm: Permutation) -> tuple[int, ...]:
    """Maximal alternating runs of the left-to-right-maxima flags, by their starts.

    The flags are 1, the code, 0 (just 1 for n = 1), so the runs alternate
    maxima, rest, maxima, ..., rest, and within a block the letters
    increase: a block's first and last letters are its smallest and
    largest.  Returns each block's 1-based start, then n + 1, so block t
    covers the positions ``starts[t] .. starts[t + 1] - 1`` and holds
    left-to-right maxima exactly when t is even.  Raises
    :class:`NotATreeError` unless ``perm`` is a tree permutation.

    >>> blocks(Permutation([4, 1, 2, 3]))
    (1, 2, 5)
    """
    n = perm.n
    flags = [1, *code_flags(perm), 0] if n > 1 else [1]
    changes = compress(range(2, n + 1), map(ne, flags, flags[1:]))
    return (1, *changes, n + 1)


def neighbors_via_blocks(perm: Permutation, pos: int) -> set[int]:
    """Neighbor set of the letter at ``pos``: its entry of :func:`adjacency_via_blocks`.

    Raises :class:`IndexError` for a position outside 1..n.

    >>> w = Permutation([2, 5, 1, 3, 6, 7, 11, 4, 8, 9, 10])
    >>> sorted(neighbors_via_blocks(w, 2))
    [1, 3, 4]
    >>> sorted(neighbors_via_blocks(w, 8))
    [5, 6, 7, 11]
    """
    v = perm.letter(pos)
    return set(adjacency_via_blocks(perm)[v])


def adjacency_via_blocks(perm: Permutation) -> list[tuple[int, ...]]:
    """Full adjacency (indexed by letter, entry 0 unused and empty) in O(n).

    Builds each entry whole from the maxima-side cases, which cover the
    edge set exactly once: leaves of a maxima block attach to the first
    letter of the next block (the hub), and the last letter of a maxima
    block takes the whole next block plus the first letter of the block
    three further on.  So a hub meets the previous pair's last maximum,
    its leaves and its own last maximum, in that order.  Both sides
    increase left to right, so every entry comes out ascending, as a
    tuple in :func:`~permtree.perm.build_graph`'s format.  The leaves of
    one hub share one ``(hub,)`` entry, and so do the later letters of a
    rest block, which all meet its pair's last maximum.
    """
    n = perm.n
    starts = blocks(perm)
    if n == 1:
        return [(), ()]
    # the pairs of blocks cover every position, so the loop fills every slot
    adj: list[tuple[int, ...]] = [()] + [None] * n
    w = perm.values
    last = len(starts) - 1
    before: tuple[int, ...] = ()  # the previous pair's last maximum, which the hub also meets
    for t in range(0, last, 2):
        a, b, c = starts[t], starts[t + 1], starts[t + 2]
        tail, hub = w[b - 2], w[b - 1]
        leaves = w[a - 1 : b - 2]
        hub_only = (hub,)
        for v in leaves:
            adj[v] = hub_only
        adj[hub] = (*before, *leaves, tail)
        rest = w[b - 1 : c - 1]
        tail_only = (tail,)
        for v in rest[1:]:
            adj[v] = tail_only
        adj[tail] = (*rest, w[starts[t + 3] - 1]) if t + 3 < last else rest
        before = tail_only
    return adj


def ordered_spine(adjacency: list[tuple[int, ...]], n: int, first_letter: int) -> tuple[int, ...]:
    """Walk the nonleaf vertices as a path, starting at the low end.

    ``adjacency`` is indexed by letter with entry 0 unused.  The start is
    the endpoint lying in {1, first_letter}; raises if the nonleaves do
    not form a path (i.e. the graph is not a caterpillar).
    """
    inner = [False] + [len(nbrs) >= 2 for nbrs in adjacency[1 : n + 1]]
    size = inner.count(True)
    if size == 1:
        return (inner.index(True),)
    ends = (v for v in (1, first_letter) if inner[v] and sum(map(inner.__getitem__, adjacency[v])) <= 1)
    start = next(ends, None)
    if start is None:
        raise RuntimeError("no spine endpoint in {1, w_1}; not a tree permutation?")
    path = [start]
    prev, v = 0, start
    while True:
        ahead = count = 0
        for u in adjacency[v]:
            if inner[u] and u != prev:
                ahead = u
                count += 1
        if count != 1:
            break
        prev, v = v, ahead
        path.append(v)
    # the walk stops early at a branch or when the nonleaves are disconnected
    if len(path) != size:
        raise RuntimeError("nonleaf vertices do not form a path; not a tree permutation?")
    return tuple(path)


def central_path(perm: Permutation) -> tuple[int, ...]:
    """Spine of the caterpillar: the vertices of degree >= 2, path-ordered.

    When the largest letter leads the permutation (or the letter 1 ends
    it) the tree is a star and the spine is the single hub, regardless of
    its degree.  Otherwise the spine has at least two vertices and is
    returned starting from the endpoint lying in {1, first letter}; the
    other endpoint then lies in {n, last letter}.  Reversal is considered
    an equal path by callers that compare spines.

    Rejects n < 3, where the spine is not defined.

    >>> central_path(Permutation([2, 3, 4, 1]))
    (1,)
    >>> central_path(Permutation([2, 4, 1, 3]))
    (1, 4)
    """
    n = perm.n
    if n < 3:
        raise TooSmallError("central path needs n >= 3")
    return ordered_spine(adjacency_via_blocks(perm), n, perm.values[0])
