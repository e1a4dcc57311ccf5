"""Block structure: bipartition, adjacency lemma, degrees, spine."""
from __future__ import annotations

import pytest

from permtree import verify
from permtree.codec import count_trees, encode, enumerate_trees
from permtree.errors import TooSmallError
from permtree.perm import Permutation, build_graph
from permtree.structure import (
    W0,
    W1,
    bipartition,
    blocks,
    central_path,
    degree_sequence,
    neighbors_via_blocks,
)

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
    dec = blocks(Permutation([2, 1]))
    assert dec.sizes == (1, 1)
    assert [b.side for b in dec.blocks] == [W1, W0]
    dec = blocks(RUNNING_EXAMPLE)
    assert dec.sizes == (2, 2, 3, 4)
    assert [b.side for b in dec.blocks] == [W1, W0, W1, W0]
    assert blocks(Permutation([4, 1, 2, 3])).sizes == (1, 3)


def test_blocks_structure_invariants():
    for n in range(2, 11):
        for p in enumerate_trees(n):
            dec = blocks(p)
            assert len(dec) % 2 == 0
            assert dec.blocks[0].start_pos == 1 and dec.blocks[-1].end_pos == n
            for a, b in zip(dec.blocks, dec.blocks[1:]):
                assert b.start_pos == a.end_pos + 1
                assert a.side != b.side
            for blk in dec.blocks:
                letters = p.values[blk.start_pos - 1 : blk.end_pos]
                assert list(letters) == sorted(letters)
                assert blk.first_letter == letters[0]
                assert blk.last_letter == letters[-1]


def test_neighbors_via_blocks_examples():
    assert neighbors_via_blocks(RUNNING_EXAMPLE, 2) == {1, 3, 4}
    assert neighbors_via_blocks(RUNNING_EXAMPLE, 8) == {5, 6, 7, 11}
    assert neighbors_via_blocks(Permutation([2, 1]), 1) == {1}


@pytest.mark.parametrize("n", range(2, 13))
def test_adjacency_lemma_exhaustive(n):
    assert verify.ADJACENCY.at(n, 1) == (count_trees(n), 0)


def test_degree_sequence_examples():
    assert degree_sequence(Permutation([2, 1])) == (1, 1)
    assert degree_sequence(Permutation([2, 3, 4, 1])) == (1, 1, 1, 3)
    p = RUNNING_EXAMPLE
    g = build_graph(p)
    assert degree_sequence(p) == tuple(g.degree(v) for v in p.values)


@pytest.mark.parametrize("n", range(2, 13))
def test_degree_sequence_matches_graph(n):
    for p in enumerate_trees(n):
        g = build_graph(p)
        seq = degree_sequence(p)
        assert seq == tuple(g.degree(v) for v in p.values)
        assert sum(seq) == 2 * (n - 1)


def test_degrees_vs_interior_blocks():
    # positions of degree >= 2 are in bijection with the blocks of the
    # interior positions 2..n-1
    for n in range(3, 12):
        for p in enumerate_trees(n):
            bits = bipartition(p).interior_bits()
            interior_blocks = 1 + sum(
                1 for a, b in zip(bits, bits[1:]) if a != b
            )
            heavy = sum(1 for d in degree_sequence(p) if d >= 2)
            assert heavy == interior_blocks


def test_central_path_examples():
    assert central_path(Permutation([2, 3, 4, 1])).vertices == (1,)
    assert central_path(Permutation([2, 3, 1])).vertices == (1,)
    assert central_path(Permutation([2, 4, 1, 3])).vertices in ((1, 4), (4, 1))


def test_central_path_rejects_small():
    with pytest.raises(TooSmallError):
        central_path(Permutation([2, 1]))
    with pytest.raises(TooSmallError):
        central_path(Permutation([1]))


@pytest.mark.parametrize("n", range(3, 13))
def test_caterpillar_shape_exhaustive(n):
    """Removing leaves yields a path with the stated endpoint membership."""
    assert verify.CATERPILLAR.at(n, 1) == (count_trees(n), 0)
