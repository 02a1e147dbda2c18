"""The public surface: every name an `__all__` exports resolves."""

import importlib
import pkgutil

import pytest

import walkers_return

# `__main__` runs the CLI when imported, so it is no importable module.
MODULES = ["walkers_return"] + [
    f"walkers_return.{info.name}"
    for info in pkgutil.iter_modules(walkers_return.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
