"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` imports. A stale export left behind by a
deletion fails here, by name. No library module but ``geometry`` binds
``iou``, the per-record types are built by ``schema.record`` and follow
its type rule, every loaded config checks its field types and has each
field read, and the CLI's docstring names each subcommand."""

import argparse
import ast
import collections
import dataclasses
import importlib
import json
import pkgutil
import re
import sys
import typing
from pathlib import Path

import numpy as np
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


def _decorated_classes():
    """``(module, class name, decorator)`` for each decorator of each library class."""
    for path in sorted(Path(layoutfusion.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    yield path.stem, node.name, decorator


def test_per_record_types_are_slotted():
    """A slotted type is built once per record, so it takes ``record``'s
    ``__init__``, not the slower one of ``dataclass(slots=True)``; and
    each ``record`` class is frozen and slotted, with that ``__init__``."""
    plain, records = [], []
    for module, name, decorator in _decorated_classes():
        if (kind := _decorator_name(decorator)) == "record":
            records.append((module, name))
        elif kind == "dataclass" and isinstance(decorator, ast.Call) and any(
            k.arg == "slots" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
            for k in decorator.keywords
        ):
            plain.append(f"{module}.{name}")
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


RECORD_TYPES = [
    getattr(importlib.import_module(f"layoutfusion.{module}"), name)
    for module, name, decorator in _decorated_classes()
    if _decorator_name(decorator) == "record"
]


def _built(cls, **fields):
    """``cls`` built from its instance in ``test_records.RECORDS`` with
    ``fields`` changed, or the type and message of the error raised."""
    from test_records import RECORDS

    base = next((r for r in RECORDS if type(r) is cls), None)
    assert base is not None, f"test_records.RECORDS holds no {cls.__qualname__} to build from"
    try:
        return dataclasses.replace(base, **fields)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _fields_of(cls, *types) -> list[str]:
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if hints[f.name] in types]


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=[cls.__qualname__ for cls in RECORD_TYPES])
def test_record_float_fields_store_each_real_number_as_a_float(cls):
    """The record type rule: a float field (``float`` or ``float | None``)
    stores an int or a numpy real scalar as its float, as if built with that
    float, and refuses a bool, a str or an int beyond the float range."""
    for name in _fields_of(cls, float, float | None):
        value = getattr(_built(cls), name)
        value = 0.25 if value is None else value
        for given in (np.float64(value), np.float32(value), 0, 1):
            built = _built(cls, **{name: given})
            assert built == _built(cls, **{name: float(given)})
            assert isinstance(built, tuple) or type(getattr(built, name)) is float
        assert type(getattr(_built(cls, **{name: np.float64(value)}), name)) is float
        for given in (True, "0.5"):
            assert _built(cls, **{name: given}) == (
                TypeError, f"{cls.__qualname__} {name} must be a float, got {type(given).__name__}"
            )
        assert _built(cls, **{name: 10**400}) == (
            ValueError, f"{cls.__qualname__} {name} must be a float, got an int beyond the float range"
        )


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=[cls.__qualname__ for cls in RECORD_TYPES])
def test_record_str_and_bool_fields_refuse_any_other_type(cls):
    for name in _fields_of(cls, str, bool):
        tp = typing.get_type_hints(cls)[name]
        for given, got in ((1, "int"), (np.True_, "numpy.bool"), (b"x", "bytes"), (None, "NoneType")):
            want = f"{cls.__qualname__} {name} must be a {tp.__name__}, got {got}"
            assert _built(cls, **{name: given}) == (TypeError, want)


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
        "Experiment", "FusionConfig", "GateTask", "GateTrainConfig", "HeuristicConfig", "SimConfig", "TheoryConfig",
    }
    for cls in classes:
        for field in dataclasses.fields(cls):
            wrong = 1 if field.type == "str" else "x"
            with pytest.raises(ValueError, match=f"^{field.name} must be "):
                cls(**{field.name: wrong})


def _attribute_reads():
    """Every attribute name the library loads (``x.name``), counted over
    all modules and, separately, within each class body."""
    everywhere, by_class = collections.Counter(), collections.defaultdict(collections.Counter)
    for path in sorted(Path(layoutfusion.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                everywhere[node.attr] += 1
            elif isinstance(node, ast.ClassDef):
                by_class[node.name].update(
                    n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                )
    return everywhere, by_class


def test_every_loaded_config_field_is_read():
    """A config field that nothing reads is accepted, validated and
    digested, and changes no output. Each field of each loaded config
    must be read as an attribute somewhere in the library outside its own
    class body."""
    everywhere, by_class = _attribute_reads()
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in _loaded_config_classes()
        for field in dataclasses.fields(cls)
        if everywhere[field.name] - by_class[cls.__name__][field.name] <= 0
    ]
    assert unread == []


REPO = Path(__file__).resolve().parent.parent


def _traced_methods() -> set[str]:
    """The class attributes ``perfbench/tracing.py`` rebinds by name (its ``METHODS``)."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]:
            return {attribute for _, _, attribute, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no METHODS")


def _references(node: ast.AST) -> collections.Counter:
    """Per name, its reads in ``node`` as a variable or an attribute
    (key ``name``) and its calls as a method, ``x.name(...)`` (key
    ``name()``)."""
    found = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)):
            found[n.id if isinstance(n, ast.Name) else n.attr] += 1
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            found[n.func.attr + "()"] += 1
    return found


def test_every_public_member_is_used():
    """A public method or property of a library class that nothing names
    is code kept for no caller. Each must be referenced in the library,
    the tests or the benchmark outside its own definition: a property
    read, a method called. A field of the same name does not count for a
    method (``LayoutCategory.rarity`` is not a call of
    ``Taxonomy.rarity``). Dunder methods and the members the benchmark's
    tracer rebinds are exempt."""
    used = collections.Counter()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py")):
        used += _references(ast.parse(path.read_text(encoding="utf-8")))
    exempt = _traced_methods()
    unused = []
    for path in sorted(Path(layoutfusion.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_") or member.name in exempt:
                    continue
                is_property = any(_decorator_name(d) == "property" for d in member.decorator_list)
                key = member.name if is_property else member.name + "()"
                if used[key] - _references(member)[key] <= 0:
                    unused.append(f"{path.stem}.{cls.name}.{member.name}")
    assert unused == []


def test_cli_docstring_lists_each_subcommand():
    """``cli``'s docstring, which ``--help`` prints, names the subcommands
    that ``build_parser`` registers, no more and no fewer."""
    from layoutfusion import cli

    listed = re.search(r"Subcommands:(.*?)\.\s", cli.__doc__, re.S).group(1)
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(name.strip() for name in listed.split(",")) == sorted(subparsers.choices)


def test_readme_lists_each_manifest_key(tmp_path):
    """The README's CLI section names the keys ``write_manifest`` writes,
    no more and no fewer."""
    from layoutfusion import manifest

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Its keys are(.*?)\.\s", readme, re.S).group(1)
    (tmp_path / "out.csv").write_text("x\n", encoding="utf-8")
    path = manifest.write_manifest(tmp_path, "cmd", {}, 0, ["out.csv"], manifest.now_utc())
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(json.loads(path.read_text(encoding="utf-8")))


def _imported_packages():
    """The top-level package of each absolute import in the library, at any depth."""
    for path in Path(layoutfusion.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.partition(".")[0]


def test_every_import_is_the_standard_library_or_a_declared_dependency():
    """Each package the library imports is in the standard library or in
    ``[project].dependencies``, and each declared dependency is imported."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    }
    imported = set(_imported_packages()) - {"__future__"}
    assert sorted(imported - set(sys.stdlib_module_names) - declared) == []
    assert sorted(declared - imported) == []
