"""Ground-truth layer: inversions, graphs, connectivity, patterns."""
from __future__ import annotations

import numpy as np
import pytest

from permtree.perm import (
    Permutation,
    int_entries,
    build_graph,
    components,
    inversion_count,
    is_forest,
    is_indecomposable,
    is_tree_permutation,
    pattern_flags,
)

from conftest import (
    all_perms,
    edge_list,
    graph_is_acyclic,
    graph_is_connected,
    naive_edges,
    naive_inversions,
    naive_pattern_321,
    naive_pattern_3412,
)


def test_int_entries_accepts_numpy_ints_and_bools():
    vals = int_entries([2, True, np.uint8(3), np.False_, np.int64(7)])
    assert vals == (2, 1, 3, 0, 7) and all(type(v) is int for v in vals)
    assert Permutation(np.array([2, 3, 1])).values == (2, 3, 1)
    for bad in ([1, 2.0], [np.True_, np.float64(1.0)], ["1"]):
        with pytest.raises(TypeError):
            int_entries(bad)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])
    for bad in ([1, 2, 2], [2, 0, 1], [1, 2, 4], [3, 1, 1]):
        with pytest.raises(ValueError):
            Permutation(bad)
    p = Permutation(np.array([2, 3, 1], dtype=np.uint8))
    assert p.values == (2, 3, 1) and all(type(v) is int for v in p.values)
    # entries are never truncated or parsed
    for bad in ([2.9, 1.2], [2.0, 1], [2, "1"], [np.float64(2.0), 1]):
        with pytest.raises(TypeError):
            Permutation(bad)
    p = Permutation([2, 1])
    with pytest.raises(AttributeError):
        p.values = (1, 2)


def test_permutation_accessors():
    p = Permutation([2, 5, 1, 3, 4])
    assert p.n == 5
    assert p.letter(1) == 2 and p.letter(5) == 4
    assert p.m == 5 - 4
    with pytest.raises(IndexError):
        p.letter(0)


def test_inversions_examples():
    assert edge_list(build_graph(Permutation([1, 2, 3]))) == []
    assert edge_list(build_graph(Permutation([3, 1, 2]))) == [(1, 3), (2, 3)]
    # Inversion set whose graph has N(5) = {1,3,4} and N(4) = {5,6,7,11}.
    g = build_graph(Permutation([2, 5, 1, 3, 6, 7, 11, 4, 8, 9, 10]))
    assert g[5] == (1, 3, 4)
    assert g[4] == (5, 6, 7, 11)


def test_build_graph_examples():
    assert build_graph(Permutation([1])) == [(), ()]
    assert build_graph(Permutation([2, 1])) == [(), (2,), (1,)]
    assert edge_list(build_graph(Permutation([2, 3, 4, 1]))) == [(1, 2), (1, 3), (1, 4)]
    assert edge_list(build_graph(Permutation([2, 4, 1, 3]))) == [(1, 2), (1, 4), (3, 4)]


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_matches_naive_inversions(n):
    for vals in all_perms(n):
        p = Permutation(vals)
        g = build_graph(p)
        edges = edge_list(g)
        assert set(edges) == naive_edges(vals)
        assert len(edges) == len(naive_inversions(vals))
        assert inversion_count(p) == len(edges)
        # one tuple per letter, entry 0 unused; symmetric, ascending, no duplicates
        assert len(g) == n + 1 and g[0] == ()
        for v, nbrs in enumerate(g):
            assert nbrs == tuple(sorted(set(nbrs)))
            for u in nbrs:
                assert v in g[u]


def test_inversion_count_random_vs_naive():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(5):
        vals = (rng.permutation(300) + 1).tolist()
        assert inversion_count(Permutation(vals)) == len(naive_inversions(vals))


def test_inversion_count_reversal_identity():
    # Every pair is inverted in exactly one of w and its reversal.
    import numpy as np

    rng = np.random.default_rng(11)
    n = 20000
    vals = (rng.permutation(n) + 1).tolist()
    total = inversion_count(Permutation(vals)) + inversion_count(
        Permutation(vals[::-1])
    )
    assert total == n * (n - 1) // 2


def test_indecomposable_examples():
    assert not is_indecomposable(Permutation([1, 2, 3]))
    assert is_indecomposable(Permutation([2, 3, 1]))
    assert not is_indecomposable(Permutation([2, 1, 4, 3]))


@pytest.mark.parametrize("n", range(1, 9))
def test_indecomposable_equals_connectivity(n):
    for vals in all_perms(n):
        assert is_indecomposable(Permutation(vals)) == graph_is_connected(
            n, naive_edges(vals)
        )


def test_components_examples():
    assert components(Permutation([1, 2, 3])) == [(1, 1), (2, 2), (3, 3)]
    assert components(Permutation([2, 1, 4, 3])) == [(1, 2), (3, 4)]
    assert components(Permutation([2, 3, 1])) == [(1, 3)]


@pytest.mark.parametrize("n", range(1, 8))
def test_components_induce_graph_components(n):
    from conftest import graph_components

    for vals in all_perms(n):
        p = Permutation(vals)
        ivs = components(p)
        # consecutive, disjoint, covering
        assert ivs[0][0] == 1 and ivs[-1][1] == n
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert c == b + 1
        # each interval's letter set is one connected component
        comps = {frozenset(c) for c in graph_components(n, naive_edges(vals))}
        got = {frozenset(vals[a - 1 : b]) for a, b in ivs}
        assert got == comps


def test_pattern_flags_examples():
    assert pattern_flags(Permutation([1, 2, 3])) == (False, False)
    assert pattern_flags(Permutation([3, 2, 1])) == (True, False)
    assert pattern_flags(Permutation([3, 4, 1, 2])) == (False, True)


@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_flags_match_naive(n):
    for vals in all_perms(n):
        p = Permutation(vals)
        assert pattern_flags(p) == (naive_pattern_321(vals), naive_pattern_3412(vals))


@pytest.mark.parametrize("n", range(1, 9))
def test_forest_iff_acyclic(n):
    for vals in all_perms(n):
        p = Permutation(vals)
        flags = pattern_flags(p)
        acyclic = graph_is_acyclic(n, naive_edges(vals))
        assert (not flags[0] and not flags[1]) == acyclic
        assert is_forest(p) == (not any(flags))


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_iff_connected_acyclic(n):
    for vals in all_perms(n):
        p = Permutation(vals)
        edges = naive_edges(vals)
        expected = graph_is_connected(n, edges) and graph_is_acyclic(n, edges)
        assert is_tree_permutation(p) == expected
        flags = pattern_flags(p)
        assert is_tree_permutation(p) == (
            is_indecomposable(p) and not flags[0] and not flags[1]
        )

