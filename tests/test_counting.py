"""Exact counts vs the brute-force census and cross-identities."""
from __future__ import annotations

import json

import pytest

from permtree.codec import count_trees
from permtree.counting import (
    census,
    forest_count,
    forest_total,
    indecomposable_count,
)
from permtree.errors import CapExceededError


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
    table = census(n)
    import math

    assert table.total == math.factorial(n)
    assert table.connected == indecomposable_count(n)
    assert table.trees == count_trees(n)
    assert table.forest_total == forest_total(n)
    for m in range(1, n + 1):
        assert table.forests_by_m.get(m, 0) == forest_count(n, m)


def test_census_n4_table():
    table = census(4)
    assert table.trees == 4
    assert table.forests_by_m == {1: 4, 2: 5, 3: 3, 4: 1}


def test_census_n1():
    table = census(1)
    assert table.total == 1 and table.trees == 1


def test_census_cap():
    with pytest.raises(CapExceededError):
        census(10)
    with pytest.raises(CapExceededError):
        census(7, cap=6)


def test_census_workers_equivalent():
    assert census(6, workers=2) == census(6, workers=1)


def test_census_n9_full_cap():
    """The top of the census range still matches every closed form."""
    import math

    table = census(9, workers=2)
    assert table.total == math.factorial(9)
    assert table.trees == count_trees(9)
    assert table.connected == indecomposable_count(9)
    assert table.forest_total == forest_total(9)
    for m in range(1, 10):
        assert table.forests_by_m.get(m, 0) == forest_count(9, m)


def test_census_serialization():
    table = census(4)
    obj = json.loads(table.to_json())
    assert obj["schema"] == "permtree/1"
    assert obj["trees"] == 4
    assert obj["forests_by_m"]["2"] == 5
    text = table.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "n,class,m,count"
    assert "4,forests,2,5" in lines
    assert len(table.csv_rows()) == 3 + len(table.forests_by_m)
