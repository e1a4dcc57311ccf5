"""Exact counts vs the brute-force census and cross-identities."""
from __future__ import annotations

import math

import pytest

from permtree import counting, verify
from permtree.codec import count_trees
from permtree.counting import (
    census,
    forest_count,
    forest_total,
    indecomposable_count,
)
from permtree.errors import CapExceededError


@pytest.mark.parametrize("count", [indecomposable_count, forest_total, census])
def test_sizes_below_one_are_refused(count):
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        count(0)


def test_indecomposable_examples():
    assert indecomposable_count(1) == 1
    assert indecomposable_count(2) == 1
    assert indecomposable_count(3) == 3
    assert indecomposable_count(4) == 13


def test_forest_total_examples():
    assert forest_total(1) == 1
    assert forest_total(2) == 2
    assert forest_total(3) == 5
    assert forest_total(8) == 3 * forest_total(7) - forest_total(6)


def test_forest_count_examples():
    assert forest_count(4, 2) == 5
    assert forest_count(3, 1) == 2
    for n in range(1, 12):
        assert forest_count(n, n) == 1
    with pytest.raises(ValueError):
        forest_count(4, 0)
    with pytest.raises(ValueError):
        forest_count(4, 5)


@pytest.mark.parametrize("n", range(1, 30))
def test_forest_count_m1_equals_tree_count(n):
    assert forest_count(n, 1) == count_trees(n)


def test_forest_count_sums_to_total_big():
    for n in range(1, 201):
        assert sum(forest_count(n, m) for m in range(1, n + 1)) == forest_total(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_census_matches_closed_forms(n):
    assert verify.CENSUS.at(n) == (math.factorial(n), 0)


def test_census_n4_table():
    table = census(4)
    assert table.trees == 4
    assert table.forests_by_m == {1: 4, 2: 5, 3: 3, 4: 1}


def test_census_n1():
    table = census(1)
    assert table.total == 1 and table.trees == 1


def test_census_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        census(10)
    monkeypatch.setattr(counting, "CENSUS_CAP", 6)
    with pytest.raises(CapExceededError):
        census(7)


def test_census_n9_full_cap():
    """The top of the census range still matches every closed form."""
    assert verify.CENSUS.at(9) == (math.factorial(9), 0)
