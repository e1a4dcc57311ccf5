"""Insertion bijection: decode/encode roundtrips, counting, sampling."""
from __future__ import annotations

import re

import numpy as np
import pytest

from permtree import codec, verify
from permtree.codec import (
    TreeCode,
    count_trees,
    decode,
    encode,
    enumerate_codes,
    enumerate_trees,
    sample_code,
)
from permtree.errors import CapExceededError, NotATreeError
from permtree.perm import Permutation, build_graph, is_tree_permutation
from permtree.structure import adjacency_via_blocks

from conftest import insert_first_kind, insert_second_kind, naive_is_tree, sample_tree


def test_treecode_validation_and_packing():
    assert TreeCode(1, ()).packed == 0
    assert TreeCode(2, ()).packed == 0
    c = TreeCode(5, (1, 0, 1))
    assert c.packed == 0b101
    assert TreeCode.from_packed(5, 5) == c
    with pytest.raises(ValueError):
        TreeCode(4, (1,))
    for bad in ((2, 0), (0, -1), (1,), (1, 0, 1)):
        with pytest.raises(ValueError):
            TreeCode(4, bad)
    assert TreeCode(5, np.array([1, 0, 1], dtype=np.uint8)) == c
    assert TreeCode(5, [True, False, True]) == c
    assert TreeCode(5, np.array([True, False, True])).bits == (1, 0, 1)
    assert all(type(b) is int for b in TreeCode(5, [True, False, True]).bits)
    # entries are never truncated or parsed
    for bad in ([1.9, "0"], [1.0, 0], [1, "0"], [np.float64(1.0), 0]):
        with pytest.raises(TypeError):
            TreeCode(4, bad)
    # nor is the length, and a bool is not read as 0 or 1
    for bad_n in (4.9, "4", True, False):
        with pytest.raises(TypeError):
            TreeCode(bad_n, (1, 0))
    assert TreeCode(np.int64(4), (1, 0)).n == 4
    with pytest.raises(AttributeError, match="immutable"):
        c.n = 6
    assert c.n == 5
    with pytest.raises(ValueError):
        TreeCode.from_packed(4, 4)
    with pytest.raises(ValueError):
        TreeCode.from_packed(4, -1)
    assert TreeCode.from_packed(2, 0) == TreeCode(2, ())
    for n in (3, 12, 70):
        for value in (0, 1, (1 << (n - 2)) - 1, 0b1011 % (1 << (n - 2))):
            code = TreeCode.from_packed(n, value)
            assert code.packed == value
            assert code.bits == tuple((value >> j) & 1 for j in range(n - 2))


@pytest.mark.parametrize("call, args, message", [
    (TreeCode, (0, ()), "code length parameter n must be >= 1"),
    (count_trees, (0,), "n must be >= 1"),
    (enumerate_codes, (0,), "n must be >= 1"),
    (sample_code, (0, np.random.default_rng(0)), "n must be >= 1"),
], ids=["TreeCode", "count_trees", "enumerate_codes", "sample_code"])
def test_sizes_below_one_are_refused(call, args, message):
    # each guard's own message: without it n = 0 yields a value or another error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_insertions_examples():
    assert insert_first_kind(Permutation([2, 1])).values == (2, 3, 1)
    assert insert_first_kind(Permutation([2, 3, 1])).values == (2, 3, 4, 1)
    assert insert_first_kind(Permutation([3, 1, 2])).values == (3, 1, 4, 2)
    assert insert_second_kind(Permutation([2, 1])).values == (3, 1, 2)
    assert insert_second_kind(Permutation([2, 3, 1])).values == (2, 4, 1, 3)
    assert insert_second_kind(Permutation([3, 1, 2])).values == (4, 1, 2, 3)


def test_insertions_preserve_treeness_and_deficit():
    for n in range(2, 9):
        for p in enumerate_trees(n):
            q1 = insert_first_kind(p, check=True)
            q2 = insert_second_kind(p, check=True)
            assert is_tree_permutation(q1) and is_tree_permutation(q2)
            assert q1.m == p.m + 1
            assert q2.m == 1
            # first kind: new letter is a leaf adjacent to the old last letter
            g1 = build_graph(q1)
            assert g1[n + 1] == (p.values[-1],)
            # second kind: {n, n+1} is an edge
            g2 = build_graph(q2)
            assert n in g2[n + 1]


def test_insert_check_rejects_non_tree():
    with pytest.raises(NotATreeError):
        insert_first_kind(Permutation([1, 2]), check=True)
    with pytest.raises(NotATreeError):
        insert_second_kind(Permutation([1, 2]), check=True)


def test_decode_examples():
    assert decode(TreeCode(1, ())).values == (1,)
    assert decode(TreeCode(2, ())).values == (2, 1)
    assert decode(TreeCode(3, (1,))).values == (2, 3, 1)
    assert decode(TreeCode(3, (0,))).values == (3, 1, 2)
    assert decode(TreeCode(4, (1, 0))).values == (2, 4, 1, 3)


def test_encode_examples():
    assert encode(Permutation([2, 1])).bits == ()
    assert encode(Permutation([2, 4, 1, 3])).bits == (1, 0)
    assert encode(Permutation([3, 1, 4, 2])).bits == (0, 1)


def test_encode_rejects_non_tree():
    for values in ([1, 2, 3], [3, 2, 1]):
        p = Permutation(values)
        # a failed check keeps nothing, so the same object fails every time
        for _ in range(2):
            with pytest.raises(NotATreeError):
                codec.code_flags(p)
            with pytest.raises(NotATreeError):
                encode(p)


def test_a_permutation_code_is_decoded_once(monkeypatch):
    calls = []
    decode_values = codec._decode_values
    monkeypatch.setattr(
        codec, "_decode_values", lambda n, bits: calls.append(n) or decode_values(n, bits)
    )
    code = TreeCode(9, (1, 0, 0, 1, 1, 0, 1))
    # the round trip decodes the code and reads the flags off the values;
    # they equal the code decode recorded, so their decode is that one
    assert encode(decode(code)) == code
    assert len(calls) == 1
    p = decode(code)
    calls.clear()
    adjacency_via_blocks(p)
    assert encode(p) == code
    assert len(calls) == 0
    # a permutation that decode did not build gets the full check, once
    fresh = Permutation(p.values)
    adjacency_via_blocks(fresh)
    assert encode(fresh) == code
    assert len(calls) == 1


def test_a_checked_code_changes_neither_equality_nor_later_codes():
    code = TreeCode(9, (1, 0, 0, 1, 1, 0, 1))
    p = decode(code)
    adjacency_via_blocks(p)
    fresh = Permutation(p.values)
    assert p == fresh and hash(p) == hash(fresh)
    for flags in (codec.code_flags(fresh), codec.code_flags(p)):
        flags[:] = [0] * len(flags)
        flags.append(1)
    assert encode(p) == encode(fresh) == code


@pytest.mark.parametrize("n", range(1, 13))
def test_roundtrip_exhaustive_small(n):
    assert verify.ROUNDTRIP.at(n) == (count_trees(n), 0)


def test_roundtrip_random_large():
    rng = np.random.default_rng(0xA5)
    for n in (100, 2000, 100_000, 1_000_000):
        p = sample_tree(n, rng)
        code = encode(p)
        assert decode(code) == p
        assert code.n == n


def test_decode_tail_structure():
    # decoded permutations end with (n-m+2, ..., n, n-m) where m = n - w_n
    for n in range(3, 11):
        for p in enumerate_trees(n):
            m = p.m
            assert m >= 1
            tail = p.values[n - m :]
            assert tail == tuple(range(n - m + 2, n + 1)) + (n - m,)


def test_exactly_one_of_last_letter_and_n_is_leaf():
    for n in range(3, 11):
        for p in enumerate_trees(n):
            g = build_graph(p)
            leaf_last = len(g[p.values[-1]]) == 1
            leaf_n = len(g[n]) == 1
            assert leaf_last != leaf_n


def test_count_trees_values():
    assert [count_trees(n) for n in range(1, 9)] == [1, 1, 2, 4, 8, 16, 32, 64]
    assert count_trees(200) == 1 << 198


@pytest.mark.parametrize("n", range(1, 9))
def test_decode_image_is_brute_force_tree_set(n, trees_up_to_8):
    got = {p.values for p in enumerate_trees(n)}
    assert got == trees_up_to_8[n]
    assert len(got) == count_trees(n)


def test_enumerate_examples():
    assert {p.values for p in enumerate_trees(3)} == {(2, 3, 1), (3, 1, 2)}
    assert {p.values for p in enumerate_trees(4)} == {
        (2, 3, 4, 1),
        (2, 4, 1, 3),
        (3, 1, 4, 2),
        (4, 1, 2, 3),
    }
    assert [p.values for p in enumerate_trees(1)] == [(1,)]
    for p in enumerate_trees(4):
        assert naive_is_tree(p.values)


def test_enumerate_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        list(enumerate_trees(31))
    monkeypatch.setattr(codec, "ENUM_CAP", 5)
    with pytest.raises(CapExceededError):
        list(enumerate_trees(6))
    assert len(list(enumerate_trees(5))) == 8


def test_sample_tree_trivial_and_deterministic():
    rng = np.random.default_rng(1)
    assert sample_tree(1, rng).values == (1,)
    assert sample_tree(2, rng).values == (2, 1)
    a = sample_tree(50, np.random.default_rng(123))
    b = sample_tree(50, np.random.default_rng(123))
    assert a == b


def test_sample_tree_uniform_n3():
    rng = np.random.default_rng(42)
    counts = {(2, 3, 1): 0, (3, 1, 2): 0}
    total = 100_000
    for _ in range(total):
        counts[sample_tree(3, rng).values] += 1
    for c in counts.values():
        assert abs(c / total - 0.5) < 0.01


def test_sample_tree_uniform_chi_square_n12():
    from scipy.stats import chi2

    rng = np.random.default_rng(2024)
    total = 100_000
    counts = np.zeros(1 << 10, dtype=np.int64)
    for _ in range(total):
        counts[encode(sample_tree(12, rng)).packed] += 1
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    # fixed seed; comfortably below the 0.999 quantile of chi2(1023)
    assert stat < chi2.ppf(0.999, counts.size - 1)
