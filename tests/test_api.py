"""The public API: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import spectop

MODULES = [spectop] + [
    importlib.import_module(f"spectop.{info.name}")
    for info in pkgutil.iter_modules(spectop.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
