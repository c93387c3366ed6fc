"""The package's exports are its modules' ``__all__``, with nothing lost or
shadowed on the way: a name listed by one module must reach ``ybe4`` as that
module's object, even though the package star-imports six modules into one
namespace."""

from __future__ import annotations

from importlib import import_module

import pytest

import ybe4

MODULES = ("errors", "linalg", "core", "families", "classify", "bracket")


def test_exports_have_no_duplicate():
    assert len(set(ybe4.__all__)) == len(ybe4.__all__)


def test_every_export_resolves():
    namespace = {}
    exec("from ybe4 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ybe4.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_reach_the_package_unshadowed(module):
    mod = import_module(f"ybe4.{module}")
    for name in mod.__all__:
        assert name in ybe4.__all__, name
        assert getattr(ybe4, name) is getattr(mod, name), name


def test_classify_is_the_function():
    assert ybe4.classify is import_module("ybe4.classify").classify
