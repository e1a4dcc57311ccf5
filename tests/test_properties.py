"""Property tests: the exact layer on random codes beyond the exhaustive sizes.

Codes up to n = 10^4 are drawn at random; on each decoded tree the block
shortcuts must equal the inversion-graph definition, the degree counts
must couple to the code's block sizes, the spine must end where the
structure lemma says, encode must invert decode, the four cover
routes must agree on both adjacencies (and the marking must match its
definition up to n = 1000), and a swap of two letters must be rejected by
encode exactly when the inversion graph stops being a tree.  Below the
random range, every permutation of S_n for n <= 8 is offered to encode.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtree.codec import TreeCode, decode, encode
from permtree.cover import gamma_code, gamma_formula, marking_algorithm, min_cover_oracle
from permtree.errors import NotATreeError
from permtree.perm import Permutation, build_graph, is_tree_permutation
from permtree.stats import coupled_tree_stats_equivalence
from permtree.structure import adjacency_via_blocks, central_path

from conftest import marking_brute, naive_edges

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def codes(draw, max_n=10_000):
    n = draw(st.one_of(st.integers(3, 40), st.integers(41, max_n), st.just(max_n)))
    p_one = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random(n - 2) < p_one).astype(int).tolist()
    fill = draw(st.sampled_from([None, 0, 1]))
    if fill is not None:
        bits = [fill] * (n - 2)  # a star (all 0) or a path-like broom (all 1)
    return TreeCode(n, bits)


@PROPERTY
@given(codes())
def test_encode_inverts_decode(code):
    assert encode(decode(code)) == code


@PROPERTY
@given(codes())
def test_block_shortcuts_equal_the_inversion_graph(code):
    p = decode(code)
    g = build_graph(p)
    assert adjacency_via_blocks(p) == g
    assert g[0] == () and len(g) == p.n + 1
    assert coupled_tree_stats_equivalence(code)


@PROPERTY
@given(codes())
def test_spine_endpoints(code):
    p = decode(code)
    spine = central_path(p)
    assert spine[0] in (1, p.values[0])
    assert spine[-1] in (p.n, p.values[-1])


@PROPERTY
@given(codes(), st.data())
def test_encode_rejects_a_swap_exactly_when_it_is_not_a_tree(code, data):
    n = code.n
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.one_of(st.just(i + 1), st.integers(i + 1, n - 1)))
    w = list(decode(code).values)
    w[i], w[j] = w[j], w[i]
    swapped = Permutation(w)
    try:
        encode(swapped)
        rejected = False
    except NotATreeError:
        rejected = True
    assert rejected == (not is_tree_permutation(swapped))


@pytest.mark.parametrize("n", range(1, 9))
def test_encode_raises_exactly_on_non_trees(n, trees_up_to_8):
    for values in permutations(range(1, n + 1)):
        try:
            encode(Permutation(values))
            accepted = True
        except NotATreeError:
            accepted = False
        assert accepted == (values in trees_up_to_8[n])


@PROPERTY
@given(codes())
def test_cover_routes_agree_on_both_adjacencies(code):
    p = decode(code)
    gamma = gamma_code(code)
    for adj in (build_graph(p), adjacency_via_blocks(p)):
        assert marking_algorithm(p, adj).size == gamma_formula(p, adj) == min_cover_oracle(p, adj) == gamma


@PROPERTY
@given(codes(max_n=1000))
def test_marking_matches_the_definition_on_random_codes(code):
    p = decode(code)
    chosen = marking_brute(p.n, naive_edges(p.values))
    for adj in (build_graph(p), adjacency_via_blocks(p)):
        assert marking_algorithm(p, adj).chosen == chosen
