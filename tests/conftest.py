"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: direct subsequence searches, graph
walks over explicit edge lists, exhaustive sweeps.  The library under test
must agree with these on every small instance.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from permtree.codec import decode, sample_code
from permtree.errors import NotATreeError
from permtree.perm import Permutation, is_tree_permutation


def naive_inversions(values):
    n = len(values)
    return [
        (values[a], values[b])
        for a in range(n)
        for b in range(a + 1, n)
        if values[a] > values[b]
    ]


def sample_tree(n, rng):
    """Uniform tree permutation of length n, drawn as `permtree sample` draws it."""
    return decode(sample_code(n, rng))


def naive_edges(values):
    return {tuple(sorted(p)) for p in naive_inversions(values)}


def edge_list(adj):
    """Sorted (min, max) edge pairs of a letter-indexed adjacency."""
    return sorted((v, u) for v, nbrs in enumerate(adj) for u in nbrs if v < u)


def graph_components(n, edges):
    """Vertex sets of the connected components, by breadth-first search."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for s in range(1, n + 1):
        if s in seen:
            continue
        comp = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def marking_brute(n, edges):
    """Leaf-neighbor marking by its definition: the chosen set.

    Each round searches the components afresh and, in every one with at
    least three vertices, marks the neighbors of its leaves at once; the
    edges at marked vertices then go.  Each two-vertex component left at
    the end gives its smaller vertex.
    """
    edges = {tuple(sorted(e)) for e in edges}
    chosen = set()
    while True:
        big = set().union(*(c for c in graph_components(n, edges) if len(c) >= 3))
        degree = Counter(v for e in edges for v in e)
        arcs = edges | {(b, a) for a, b in edges}
        newly = {b for a, b in arcs if a in big and degree[a] == 1}
        if not newly:
            break
        chosen |= newly
        edges = {e for e in edges if not newly.intersection(e)}
    chosen |= {min(c) for c in graph_components(n, edges) if len(c) == 2}
    return chosen


def graph_is_connected(n, edges):
    return len(graph_components(n, edges)) == 1


def graph_is_acyclic(n, edges):
    comps = graph_components(n, edges)
    return len(edges) == n - len(comps)


def graph_is_tree(n, edges):
    return graph_is_connected(n, edges) and len(edges) == n - 1


def naive_is_tree(values):
    return graph_is_tree(len(values), naive_edges(values))


def naive_pattern_321(values):
    return any(a > b > c for a, b, c in combinations(values, 3))


def naive_pattern_3412(values):
    return any(
        w[2] < w[3] < w[0] < w[1] for w in combinations(values, 4)
    )


def all_perms(n):
    for vals in permutations(range(1, n + 1)):
        yield vals


def brute_force_trees(n):
    """All tree permutations of length n, by scanning S_n."""
    return {vals for vals in all_perms(n) if naive_is_tree(vals)}


def bfs_distances(adj, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def tree_diameter_bfs(n, edges):
    """Longest path length (in edges) of a tree, by double sweep."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    d0 = bfs_distances(adj, 1)
    far = max(d0, key=d0.get)
    d1 = bfs_distances(adj, far)
    return max(d1.values())


def forest_count_by_binomials(n, m):
    """Forests of n letters with m components: the binomial sum from the m-th
    power of the tree generating function y + y^2/(1-2y), term by term."""
    if m == n:
        return 1
    return sum(
        comb(m, k) * comb(n - m - 1, k - 1) * 2 ** (n - m - k)
        for k in range(1, min(m, n - m) + 1)
    )


def coupled(heads, first=0):
    """The 0-1 sequence coupled to ``heads``: a head flips the last symbol, a tail repeats it."""
    out = [first]
    for h in heads:
        out.append(out[-1] ^ 1 if h else out[-1])
    return tuple(out)


def min_cover_brute(n, edges):
    """Smallest vertex set meeting every edge, by subset enumeration."""
    verts = list(range(1, n + 1))
    for size in range(n + 1):
        for chosen in combinations(verts, size):
            cs = set(chosen)
            if all(u in cs or v in cs for u, v in edges):
                return size
    raise AssertionError("unreachable")


@pytest.fixture(scope="session")
def trees_up_to_8():
    """n -> set of tree permutations found by brute force, n = 1..8."""
    return {n: brute_force_trees(n) for n in range(1, 9)}


def perm(values) -> Permutation:
    return Permutation(values)


@dataclass(frozen=True)
class Bipartition:
    """Per-position flags: True where the letter is a left-to-right maximum."""

    flags: tuple[bool, ...]

    def interior_bits(self) -> tuple[int, ...]:
        """Flags at positions 2..n-1 as 0/1 bits.

        For a tree permutation this equals the insertion code: letter k was
        inserted with the first-kind move exactly when position k-1 holds a
        left-to-right maximum.
        """
        return tuple(int(f) for f in self.flags[1:-1])


def bipartition(p: Permutation) -> Bipartition:
    """Flag the left-to-right maxima by a running maximum."""
    flags = []
    running_max = 0
    for v in p.values:
        flags.append(v > running_max)
        running_max = max(running_max, v)
    return Bipartition(tuple(flags))


def insert_first_kind(p: Permutation, check: bool = False) -> Permutation:
    """First-kind insertion move: w_1, ..., w_{n-1}, n+1, w_n.

    The new letter is a leaf adjacent to w_n and the deficit grows:
    m(w') = m(w) + 1.
    """
    if check and not is_tree_permutation(p):
        raise NotATreeError(f"not a tree permutation: {p}")
    if p.n < 2:
        raise ValueError("insertion needs length >= 2")
    w = p.values
    return Permutation(w[:-1] + (p.n + 1, w[-1]))


def insert_second_kind(p: Permutation, check: bool = False) -> Permutation:
    """Second-kind insertion move: replace letter n by n+1 in place, append n.

    The result has m = 1 and {n, n+1} as an edge; vertex n hands its old
    neighbors to n+1.
    """
    if check and not is_tree_permutation(p):
        raise NotATreeError(f"not a tree permutation: {p}")
    if p.n < 2:
        raise ValueError("insertion needs length >= 2")
    n = p.n
    w = list(p.values)
    w[w.index(n)] = n + 1
    w.append(n)
    return Permutation(w)


# ---------------------------------------------------------------------------
# numpy's own draws, which the harness's faster draws must reproduce
# ---------------------------------------------------------------------------


def integer_bits(rng, length):
    """Fair bits as numpy draws them, one bounded uint8 integer each."""
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def numpy_geometric(rng, q, size):
    """Geometric(1 - q) draws as numpy makes them."""
    return rng.geometric(1.0 - q, size=size)


def geometric_partial_sums(p, count):
    """The first ``count`` sums S_1, S_2, ... of numpy's geometric search, in its float order."""
    sums = []
    total = prod = p
    r = 1.0 - p
    for _ in range(count):
        sums.append(total)
        prod *= r
        total += prod
    return sums


def geometric_search(p, u):
    """numpy's geometric draw for p >= 1/3 from the double ``u``: the least X with u <= S_X."""
    x = 1
    total = prod = p
    r = 1.0 - p
    while u > total:
        prod *= r
        total += prod
        x += 1
    return x
