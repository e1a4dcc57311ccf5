"""Keep the docstring examples and the public names honest."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import permtree

# every module of the package, so a new one cannot be missed
MODULES = [
    importlib.import_module(f"permtree.{info.name}")
    for info in pkgutil.iter_modules(permtree.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_public_names_resolve_sorted_and_once():
    names = permtree.__all__
    assert names == sorted(set(names))
    assert all(hasattr(permtree, name) for name in names)
    scope: dict = {}
    exec("from permtree import *", scope)
    assert set(names) <= scope.keys()
