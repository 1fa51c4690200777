"""Every name in a rankforge module's `__all__` exists, so that a star
import of the module works."""

import pkgutil

import pytest

import rankforge

MODULES = ["rankforge"] + [
    f"rankforge.{m.name}" for m in pkgutil.iter_modules(rankforge.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})  # AttributeError names a stale __all__ entry
