"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` imports. A stale export left behind by a
deletion fails here, by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import layoutfusion

MODULES = sorted(info.name for info in pkgutil.iter_modules(layoutfusion.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"layoutfusion.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), f"{module}.__all__ lists a name twice"
    assert [name for name in names if not hasattr(mod, name)] == []


def _init_imports():
    tree = ast.parse(Path(layoutfusion.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def test_every_init_import_exists_and_is_exported():
    imports = list(_init_imports())
    assert len(imports) > 50
    missing = []
    for module, name in imports:
        mod = importlib.import_module(f"layoutfusion.{module}")
        if not hasattr(mod, name) or name not in getattr(mod, "__all__", [name]):
            missing.append(f"{module}.{name}")
    assert missing == []
