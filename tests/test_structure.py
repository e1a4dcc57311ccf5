"""Block structure: bipartition, adjacency lemma, spine."""
from __future__ import annotations

import pytest

from permtree import verify
from permtree.codec import count_trees, encode, enumerate_trees
from permtree.errors import NotATreeError, TooSmallError
from permtree.perm import Permutation, build_graph
from permtree.structure import (
    adjacency_via_blocks,
    blocks,
    central_path,
    neighbors_via_blocks,
    ordered_spine,
)

from conftest import bipartition

RUNNING_EXAMPLE = Permutation([2, 5, 1, 3, 6, 7, 11, 4, 8, 9, 10])


def test_bipartition_examples():
    assert bipartition(Permutation([2, 1])).flags == (True, False)
    flags = bipartition(RUNNING_EXAMPLE).flags
    assert {p + 1 for p, f in enumerate(flags) if f} == {1, 2, 5, 6, 7}
    assert bipartition(Permutation([2, 4, 1, 3])).flags == (True, True, False, False)


def test_bipartition_endpoints_and_monotone():
    for n in range(2, 11):
        for p in enumerate_trees(n):
            flags = bipartition(p).flags
            assert flags[0] is True and flags[-1] is False
            ups = [v for v, f in zip(p.values, flags) if f]
            downs = [v for v, f in zip(p.values, flags) if not f]
            assert ups == sorted(ups) and downs == sorted(downs)


def test_interior_flags_equal_code_bits():
    for n in range(2, 12):
        for p in enumerate_trees(n):
            assert bipartition(p).interior_bits() == encode(p).bits


def test_blocks_examples():
    assert blocks(Permutation([2, 1])) == (1, 2, 3)
    assert blocks(RUNNING_EXAMPLE) == (1, 3, 5, 8, 12)
    assert blocks(Permutation([4, 1, 2, 3])) == (1, 2, 5)
    assert blocks(Permutation([1])) == (1, 2)


def test_blocks_structure_invariants():
    """Blocks tile 1..n, alternate sides starting on the maxima, and increase inside."""
    for n in range(2, 11):
        for p in enumerate_trees(n):
            starts = blocks(p)
            flags = bipartition(p).flags
            assert len(starts) % 2 == 1
            assert starts[0] == 1 and starts[-1] == n + 1
            assert all(a < b for a, b in zip(starts, starts[1:]))
            for t in range(len(starts) - 1):
                block = range(starts[t], starts[t + 1])
                # block t lies on the maxima side exactly when t is even
                assert {flags[pos - 1] for pos in block} == {t % 2 == 0}
                letters = [p.letter(pos) for pos in block]
                assert letters == sorted(letters)


def test_leaves_of_one_neighbour_share_their_entry():
    # a star: the leaves 2, 3 and 4 of the hub 1 share one (1,)
    star = adjacency_via_blocks(Permutation([2, 3, 4, 5, 1]))
    assert star[2] == (1,) and star[2] is star[3] is star[4]
    # the later letters 2 and 3 of a rest block share its pair's last maximum
    rest = adjacency_via_blocks(Permutation([4, 1, 2, 3]))
    assert rest[2] == (4,) and rest[2] is rest[3]


def test_block_shortcuts_reject_non_trees():
    for values in ([3, 2, 1], [1, 2], [2, 1, 4, 3], [3, 4, 1, 2]):
        p = Permutation(values)
        for shortcut in (blocks, adjacency_via_blocks):
            with pytest.raises(NotATreeError):
                shortcut(p)
        with pytest.raises(NotATreeError):
            neighbors_via_blocks(p, 1)


def test_neighbors_via_blocks_positions_out_of_range():
    assert neighbors_via_blocks(Permutation([1]), 1) == set()
    for p, pos in ((Permutation([1]), 2), (RUNNING_EXAMPLE, 0), (RUNNING_EXAMPLE, 12)):
        with pytest.raises(IndexError):
            neighbors_via_blocks(p, pos)


def test_neighbors_via_blocks_examples():
    assert neighbors_via_blocks(RUNNING_EXAMPLE, 2) == {1, 3, 4}
    assert neighbors_via_blocks(RUNNING_EXAMPLE, 8) == {5, 6, 7, 11}
    assert neighbors_via_blocks(Permutation([2, 1]), 1) == {1}


@pytest.mark.parametrize("n", range(2, 13))
def test_adjacency_lemma_exhaustive(n):
    assert verify.ADJACENCY.at(n) == (count_trees(n), 0)


def test_degrees_vs_interior_blocks():
    # positions of degree >= 2 are in bijection with the blocks of the
    # interior positions 2..n-1
    for n in range(3, 12):
        for p in enumerate_trees(n):
            bits = bipartition(p).interior_bits()
            interior_blocks = 1 + sum(
                1 for a, b in zip(bits, bits[1:]) if a != b
            )
            g = build_graph(p)
            heavy = sum(1 for nbrs in g if len(nbrs) >= 2)
            assert heavy == interior_blocks


def test_central_path_examples():
    assert central_path(Permutation([2, 3, 4, 1])) == (1,)
    assert central_path(Permutation([2, 3, 1])) == (1,)
    assert central_path(Permutation([2, 4, 1, 3])) in ((1, 4), (4, 1))


def adjacency_of(n, edges):
    """Letter-indexed ascending neighbour lists of an edge list on 1..n."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def test_ordered_spine_walks_from_the_low_end():
    path = adjacency_of(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert ordered_spine(path, 6, 2) == (2, 3, 4, 5)
    assert ordered_spine(path, 6, 5) == (5, 4, 3, 2)
    # spine 1-4-3 with leaves 2 and 5: the walk starts at letter 1
    caterpillar = adjacency_of(5, [(1, 2), (1, 4), (4, 3), (3, 5)])
    assert ordered_spine(caterpillar, 5, 3) == (1, 4, 3)


def test_ordered_spine_star_returns_its_hub():
    star = adjacency_of(5, [(3, 1), (3, 2), (3, 4), (3, 5)])
    assert ordered_spine(star, 5, 2) == (3,)


def test_ordered_spine_rejects_a_spider():
    # hub 4 with legs 4-1-7, 4-2-6, 4-3-5: the nonleaves 1, 2, 3, 4 form a star
    spider = adjacency_of(7, [(4, 1), (1, 7), (4, 2), (2, 6), (4, 3), (3, 5)])
    for first_letter in (1, 2, 3):
        with pytest.raises(RuntimeError, match="do not form a path"):
            ordered_spine(spider, 7, first_letter)
    # two disjoint paths: the walk from 2 ends after 2-3, short of 6-7
    forest = adjacency_of(8, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
    with pytest.raises(RuntimeError, match="do not form a path"):
        ordered_spine(forest, 8, 2)


def test_ordered_spine_rejects_ends_outside_one_and_first_letter():
    path = adjacency_of(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    with pytest.raises(RuntimeError, match="no spine endpoint"):
        ordered_spine(path, 6, 6)
    with pytest.raises(RuntimeError, match="no spine endpoint"):
        ordered_spine(adjacency_of(2, [(1, 2)]), 2, 2)


def test_central_path_rejects_small():
    with pytest.raises(TooSmallError):
        central_path(Permutation([2, 1]))
    with pytest.raises(TooSmallError):
        central_path(Permutation([1]))


@pytest.mark.parametrize("n", range(3, 13))
def test_caterpillar_shape_exhaustive(n):
    """Removing leaves yields a path with the stated endpoint membership."""
    assert verify.CATERPILLAR.at(n) == (count_trees(n), 0)
