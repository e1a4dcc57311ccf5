"""Keep the docstring examples honest."""
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
