"""Every name a module exports resolves, and every name it imports is used,
so a deletion cannot leave a stale one; every enum hashes by identity."""

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

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
    assert len(enums) >= 7  # the scan finds Stage, DefenseMode, Permission, ...
    assert [e.__qualname__ for e in enums if e.__hash__ is not object.__hash__] == []


SOURCES = sorted(Path(noncepipe.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {  # a re-export is a use
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__"
        for name in ast.literal_eval(node.value)
    }
    assert sorted(imported - used - exported) == []
