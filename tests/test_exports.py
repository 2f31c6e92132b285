"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` imports. A stale export left behind by a
deletion fails here, by name. No library module but ``geometry`` binds
``iou``, the per-record types are built by ``schema.record``, and every
loaded config checks its field types."""

import ast
import dataclasses
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


def test_only_geometry_binds_iou():
    """Callers reach ``iou`` through ``geometry.best_overlap`` or
    ``geometry.paired_iou``, so one kernel change, or one rebinding of
    ``geometry.iou``, reaches every IoU computed in the library."""
    from layoutfusion import geometry

    holders = [
        f"{module}.{name}"
        for module in MODULES
        if module != "geometry"
        for name, value in vars(importlib.import_module(f"layoutfusion.{module}")).items()
        if value is geometry.iou
    ]
    assert holders == []


def _decorator_name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    return target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)


def test_per_record_types_are_slotted():
    """A slotted type is built once per record, so it takes ``record``'s
    ``__init__``, not the slower one of ``dataclass(slots=True)``; and
    each ``record`` class is frozen and slotted, with that ``__init__``."""
    plain, records = [], []
    for path in sorted(Path(layoutfusion.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                name = _decorator_name(decorator)
                if name == "record":
                    records.append((path.stem, node.name))
                elif name == "dataclass" and isinstance(decorator, ast.Call) and any(
                    k.arg == "slots" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
                    for k in decorator.keywords
                ):
                    plain.append(f"{path.stem}.{node.name}")
    assert plain == []
    assert len(records) >= 10
    broken = []
    for module, name in records:
        cls = getattr(importlib.import_module(f"layoutfusion.{module}"), name)
        if not (
            "__slots__" in vars(cls)
            and cls.__dataclass_params__.frozen
            and cls.__init__.__code__.co_filename == f"<record {cls.__qualname__}>"
        ):
            broken.append(f"{module}.{name}")
    assert broken == []


def test_box_validation_stays_a_class_attribute():
    """Box validation is hooked, and counted, as ``BoundingBox.__post_init__``."""
    from layoutfusion.geometry import BoundingBox

    assert "__post_init__" in vars(BoundingBox)


def _unread_parameters(tree: ast.Module, module: str):
    """``module.function (names)`` for each function with a parameter
    that its body never loads. ``self``, ``cls`` and names with a leading
    ``_`` are exempt; a read in a nested function counts."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        loaded = {
            n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread = [p for p in params if p not in loaded and p not in ("self", "cls") and not p.startswith("_")]
        if unread:
            yield f"{module}.{node.name} ({', '.join(unread)})"


def test_no_function_ignores_a_parameter():
    """A parameter nothing reads is an input callers must supply for no
    effect; ``del`` does not count as a read."""
    found = []
    for path in sorted(Path(layoutfusion.__file__).parent.glob("*.py")):
        found += _unread_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == []


def _loaded_config_classes():
    """Each class that ``cli`` passes to ``_build_config``, the one loader."""
    from layoutfusion import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = {
        node.args[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_build_config"
    }
    return [getattr(cli, name) for name in sorted(names)]


def test_every_loaded_config_checks_each_field_type():
    """A config class, or a field, that skips ``schema.check_fields`` fails
    here: each field takes a value of the wrong JSON type and must raise a
    ValueError that names it."""
    classes = _loaded_config_classes()
    assert {cls.__name__ for cls in classes} >= {
        "CurriculumConfig", "Experiment", "FusionConfig", "GateTask", "GateTrainConfig",
        "HeuristicConfig", "SimConfig", "TheoryConfig",
    }
    for cls in classes:
        for field in dataclasses.fields(cls):
            wrong = 1 if field.type == "str" else "x"
            with pytest.raises(ValueError, match=f"^{field.name} must be "):
                cls(**{field.name: wrong})
