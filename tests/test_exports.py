"""Every name a module exports resolves, so a deletion cannot leave a stale one."""

import importlib
import pkgutil

import pytest

import noncepipe

MODULES = ["noncepipe"] + sorted(
    f"noncepipe.{info.name}" for info in pkgutil.iter_modules(noncepipe.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
