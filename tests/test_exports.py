"""Every name a module exports resolves, so a deletion cannot leave a stale
one; every enum hashes by identity."""

import enum
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


def test_every_enum_hashes_by_identity():
    # a C-level hash for dict and set lookups; no report iterates a set of
    # members, whose order would then follow memory addresses
    enums = {
        value
        for name in MODULES
        for value in vars(importlib.import_module(name)).values()
        if isinstance(value, type) and issubclass(value, enum.Enum)
        and value.__module__.startswith("noncepipe.")
    }
    assert len(enums) >= 8  # the scan finds Stage, DefenseMode, Permission, ...
    assert [e.__qualname__ for e in enums if e.__hash__ is not object.__hash__] == []
