"""Every module of the package exports only names it defines or imports."""

import pkgutil

import pytest

import riskmdp

MODULES = ["riskmdp"] + [f"riskmdp.{info.name}" for info in pkgutil.iter_modules(riskmdp.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry, say one left behind by a deletion, raises here
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1
