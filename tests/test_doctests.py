import doctest
import importlib
import pkgutil

import pytest

import severi

MODULES = ["severi"] + [f"severi.{m.name}" for m in pkgutil.iter_modules(severi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_profiles_doctests_run():
    result = doctest.testmod(importlib.import_module("severi.profiles"))
    assert result.attempted >= 5
