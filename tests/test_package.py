"""Package-wide checks: every module's doctests, and every exported name."""

import doctest
import importlib
import pkgutil

import pytest

import tameplane

MODULES = sorted(m.name for m in pkgutil.walk_packages(tameplane.__path__, "tameplane."))


@pytest.mark.parametrize("name", ["tameplane", *MODULES])
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("name", ["tameplane", "tameplane.matrixrep", "tameplane.lab"])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
