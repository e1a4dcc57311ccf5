"""Cover numbers: route agreement, decomposition, theory."""
from __future__ import annotations

import re

import numpy as np
import pytest

from permtree import codec, cover, verify
from permtree.codec import (
    TreeCode,
    count_trees,
    decode,
    encode,
    enumerate_codes,
    enumerate_trees,
    sample_code,
)
from permtree.cover import (
    gamma_code,
    gamma_decomposition,
    gamma_formula,
    gamma_from_tosses,
    gamma_theory,
    marking_algorithm,
    min_cover_oracle,
)
from permtree.errors import NotATreeError
from permtree.montecarlo import batch_gamma
from permtree.perm import Permutation, build_graph
from permtree.structure import adjacency_via_blocks

from conftest import edge_list, marking_brute, min_cover_brute, naive_edges


def path_permutation(n):
    """A tree permutation whose graph is the n-vertex path (alternating code)."""
    bits = [(i + 1) % 2 for i in range(n - 2)]
    return decode(TreeCode(n, bits))


def test_path_permutation_is_path():
    for n in range(4, 9):
        g = build_graph(path_permutation(n))
        degs = sorted(len(g[v]) for v in range(1, n + 1))
        assert degs == [1, 1] + [2] * (n - 2)


def test_marking_examples():
    res = marking_algorithm(Permutation([2, 3, 4, 1]))
    assert res.chosen == {1} and res.size == 1
    res = marking_algorithm(Permutation([2, 4, 1, 3]))
    assert res.chosen == {1, 4} and res.size == 2
    assert marking_algorithm(path_permutation(6)).size == 3


def test_marking_base_cases():
    assert marking_algorithm(Permutation([1])).size == 0
    res = marking_algorithm(Permutation([2, 1]))
    assert res.chosen == {1} and res.size == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_marking_matches_definition(n):
    """Same chosen set as the per-round component search."""
    for p in enumerate_trees(n):
        chosen = marking_brute(n, naive_edges(p.values))
        for adj in (None, adjacency_via_blocks(p)):
            res = marking_algorithm(p, adj)
            assert (res.chosen, res.size) == (chosen, len(chosen))


def test_gamma_formula_examples():
    assert gamma_formula(Permutation([2, 3, 4, 1])) == 1
    assert gamma_formula(path_permutation(6)) == 3
    assert gamma_formula(path_permutation(5)) == 2
    assert gamma_formula(Permutation([2, 1])) == 1
    assert gamma_formula(Permutation([1])) == 0


def test_min_cover_examples():
    assert min_cover_oracle(Permutation([2, 1])) == 1
    assert min_cover_oracle(Permutation([1])) == 0
    for n in range(3, 9):
        star = decode(TreeCode(n, (0,) * (n - 2)))
        assert sorted(len(nbrs) for nbrs in build_graph(star))[-1] == n - 1
        assert min_cover_oracle(star) == 1


def test_min_cover_oracle_rejects_a_disconnected_graph():
    two_edges = [[], [2], [1], [4], [3]]
    isolated_root = [[], [], [3], [2]]  # letter 1, the root, reaches nothing
    for values, adjacency in (([2, 1, 4, 3], two_edges), ([1, 3, 2], isolated_root)):
        with pytest.raises(NotATreeError):
            min_cover_oracle(Permutation(values), adjacency)


@pytest.mark.parametrize("n", range(1, 8))
def test_min_cover_matches_brute_force(n):
    for p in enumerate_trees(n):
        edges = edge_list(build_graph(p))
        assert min_cover_oracle(p) == min_cover_brute(n, edges)


@pytest.mark.parametrize("n", range(1, 11))
def test_triple_agreement_exhaustive(n):
    assert verify.COVER.at(n) == (count_trees(n), 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_marked_set_meets_every_edge(n):
    for p in enumerate_trees(n):
        chosen = marking_algorithm(p).chosen
        for u, v in edge_list(build_graph(p)):
            assert u in chosen or v in chosen


def test_triple_agreement_sampled_medium():
    rng = np.random.default_rng(99)
    for _ in range(60):
        assert verify.cover_agrees(sample_code(200, rng))


@pytest.mark.parametrize("n", range(4, 13))
def test_gamma_decomposition_exhaustive(n):
    assert verify.DECOMPOSITION.at(n) == (count_trees(n), 0)


def test_gamma_decomposition_star_and_path():
    star = encode(decode(TreeCode(8, (0,) * 6)))
    dec = gamma_decomposition(star)
    assert (dec.heavy_blocks, dec.weighted_gaps, dec.boundary) == (1, 0, 0)
    path = encode(path_permutation(8))
    dec = gamma_decomposition(path)
    assert dec.heavy_blocks == 0 and dec.weighted_gaps == 0
    assert dec.total == 4  # floor(8/2)


def test_gamma_decomposition_random_large():
    rng = np.random.default_rng(12345)
    for _ in range(5):
        code = TreeCode(10_000, rng.integers(0, 2, size=9998).tolist())
        assert gamma_decomposition(code).total == gamma_formula(decode(code))


def test_gamma_decomposition_reads_the_code_alone(monkeypatch):
    codes = list(enumerate_codes(8))
    terms = [gamma_decomposition(code) for code in codes]

    def no_graph_route(*args):
        raise AssertionError("the decomposition builds no tree")

    monkeypatch.setattr(cover, "gamma_formula", no_graph_route)
    monkeypatch.setattr(cover, "build_graph", no_graph_route)
    assert [gamma_decomposition(code) for code in codes] == terms


def test_packed_gamma_code_equals_the_toss_loop(monkeypatch):
    """The whole-int fold equals ``gamma_from_tosses`` on every code for
    n = 4..18 and on seeded codes up to n = 10^5, building no tree."""

    def no_tree(*args):
        raise AssertionError("gamma_code builds no tree")

    for module, name in ((cover, "build_graph"), (cover, "ordered_spine"), (codec, "_decode_values")):
        monkeypatch.setattr(module, name, no_tree)

    def toss_loop(code):
        bits = code.bits
        return gamma_from_tosses([a != b for a, b in zip(bits, bits[1:])])

    for n in range(4, 19):
        assert [c for c in enumerate_codes(n) if gamma_code(c) != toss_loop(c)] == []
    rng = np.random.default_rng(0x6A3)
    for n in (10**3, 10**4, 10**5):
        for _ in range(3):
            code = sample_code(n, rng)
            assert gamma_code(code) == toss_loop(code)


@pytest.mark.parametrize("n", range(4, 13))
def test_batch_gamma_matches_formula_exhaustive(n):
    codes = list(enumerate_codes(n))
    bits = np.array([c.bits for c in codes], dtype=np.uint8)
    heads = bits[:, 1:] != bits[:, :-1]
    got = batch_gamma(heads)
    for code, g in zip(codes, got):
        assert g == gamma_formula(decode(code))
        assert g == gamma_from_tosses(
            [code.bits[i] != code.bits[i + 1] for i in range(len(code.bits) - 1)]
        )
        assert g == gamma_code(code)


@pytest.mark.parametrize("call, args, message", [
    (gamma_decomposition, (TreeCode(3, (0,)),), "decomposition needs n >= 4"),
    (gamma_from_tosses, ([],), "need at least one toss (trees of size >= 4)"),
    (gamma_theory, (0,), "n must be >= 1"),
], ids=["gamma_decomposition", "gamma_from_tosses", "gamma_theory"])
def test_sizes_below_the_domain_are_refused(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_gamma_theory_values():
    th = gamma_theory(300)
    assert th.mean == 100.0 and th.variance == 78.0
    assert gamma_theory(50).variance == pytest.approx(13.0)


@pytest.fixture(scope="module")
def gamma_sums():
    """n -> (trees, sum of gamma, sum of gamma^2) over every code, n = 14..20 even."""
    sums = {}
    for n in (14, 16, 18, 20):
        vals = [gamma_code(c) for c in enumerate_codes(n)]
        sums[n] = len(vals), sum(vals), sum(v * v for v in vals)
    return sums


def test_gamma_variance_rate_matches_exhaustive(gamma_sums):
    """Exact variance over all trees of size n is (2/27) n minus a constant.

    The remainder must be the same constant for every n, which pins the
    rate exactly (any other rate would make the remainders drift linearly).
    """
    from fractions import Fraction

    from permtree.cover import gamma_variance_rate

    rate = gamma_variance_rate()
    assert rate == Fraction(2, 27)
    remainders = []
    for n in (14, 16, 18, 20):
        total, s1, s2 = gamma_sums[n]
        exact_var = Fraction(s2, total) - Fraction(s1, total) ** 2
        remainders.append(rate * n - exact_var)
    diffs = [float(b - a) for a, b in zip(remainders, remainders[1:])]
    # remainders converge geometrically to 10/81
    assert all(abs(d) < 2e-3 for d in diffs)
    assert abs(remainders[-1] - Fraction(10, 81)) < 1e-4


def test_gamma_mean_rate_matches_exhaustive(gamma_sums):
    """Exact mean over all trees of size n is n/3 + 1/9 plus a vanishing remainder."""
    from fractions import Fraction

    rems = []
    for n in (16, 18, 20):
        total, s1, _ = gamma_sums[n]
        mean = Fraction(s1, total)
        rems.append(float(mean - Fraction(n, 3)))
    assert all(abs(r) < 0.16 for r in rems)
    assert abs(rems[-1] - rems[-2]) < 2e-3
    assert abs(rems[-1] - 1 / 9) < 1e-5
