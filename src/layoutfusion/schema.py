"""Dataclass machinery. One type rule for every config: each field against
its annotation, as JSON loads it, arrays as tuples; the README tabulates
what each accepts. One decorator, ``record``, for the types built once per
record, with one type rule for their ``float``, ``str`` and ``bool`` fields."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import types
import typing
from collections.abc import Mapping

import numpy as np

__all__ = ["check", "check_fields", "record"]

_SCALARS = {int: "a JSON integer", float: "a JSON number", bool: "true or false", str: "a JSON string"}


def _fits(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in args)
    if origin is tuple:
        if args[-1] is Ellipsis and isinstance(value, tuple):
            args = args[:1] * len(value)  # tuple[T, ...]: every item a T
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is Mapping:
        return isinstance(value, Mapping) and all(_fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:
        # NaN fails the comparison, and so does an int beyond the float range.
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, tp)


def check(value, tp, where: str, written=None):
    """``value`` if it fits annotation ``tp`` (``written`` in source); else ValueError naming ``where``."""
    if not _fits(value, tp):
        expected = _SCALARS.get(tp) or f"JSON that fits {written or tp}"
        raise ValueError(f"{where} must be {expected}, got {json.dumps(value, default=repr, skipkeys=True)}")
    return value


_hints = functools.cache(typing.get_type_hints)  # a class's resolved annotations, once per class


def check_fields(config) -> None:
    """Check each field of the dataclass instance ``config`` against its annotation."""
    hints = _hints(type(config))
    for field in dataclasses.fields(config):
        check(getattr(config, field.name), hints[field.name], field.name, field.type)


# What a record's float field converts with float(); a bool, though an int, is refused.
_REALS = (int, float, np.integer, np.floating)


def _coerce(value, tp: type, where: str):
    """``value`` under the record type rule for a ``tp`` field, or its error naming ``where``."""
    if tp is not float and isinstance(value, tp):
        return value
    if tp is float and isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} must be a float, got an int beyond the float range") from None
    kind = type(value)
    got = kind.__name__ if kind.__module__ == "builtins" else f"{kind.__module__}.{kind.__qualname__}"
    raise TypeError(f"{where} must be a {tp.__name__}, got {got}")


def record(cls):
    """``dataclass(frozen=True, slots=True)`` with a faster ``__init__``.

    The generated ``__init__`` stores each field with
    ``object.__setattr__``; this one, built the same way (one ``exec``
    per class), stores it through the field's slot descriptor, which
    skips the attribute lookup. Signature, defaults, equality, hashing
    and ``dataclasses.replace`` are the dataclass's. ``__post_init__``
    is looked up on each call, so a hook rebound on the class sees every
    instance.

    Before it, each field meets the record type rule of its annotation.
    A ``float`` or ``float | None`` field keeps a float, stores an int or
    a numpy real scalar as ``float(value)``, and refuses anything else (a
    bool, a str) with TypeError, or an int beyond the float range with
    ValueError. A ``str`` or ``bool`` field must hold one (TypeError).
    Each error names the class and the field.

    A field with a ``default_factory``, ``init=False`` or ``kw_only``, or
    an ``InitVar``, is a TypeError.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    env, params, body = {"_coerce": _coerce}, ["self"], []
    hints = _hints(cls)
    for f in dataclasses.fields(cls):
        env[f"_type_{f.name}"] = f.type
        env[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        param = f"{f.name}:_type_{f.name}"
        if f.default is not dataclasses.MISSING:
            env[f"_dflt_{f.name}"] = f.default
            param += f"=_dflt_{f.name}"
        params.append(param)
        optional = hints[f.name] == float | None
        if optional or hints[f.name] in (float, str, bool):
            tp = "float" if optional else hints[f.name].__name__
            test = f"{f.name} is not None and " * optional + f"type({f.name}) is not {tp}"
            body.append(f"  if {test}: {f.name}=_coerce({f.name},{tp},{cls.__qualname__ + ' ' + f.name!r})")
        body.append(f"  _set_{f.name}(self,{f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    text = f" def __init__({','.join(params)})->None:\n" + "\n".join(body or ["  pass"])
    source = f"def __create_fn__({', '.join(env)}):\n{text}\n return __init__"
    namespace: dict = {}
    # dont_inherit: this module's ``from __future__ import annotations``
    # would otherwise turn the annotations into their names.
    exec(compile(source, f"<record {cls.__qualname__}>", "exec", dont_inherit=True), {}, namespace)
    init = namespace["__create_fn__"](**env)
    # Each unsupported field form changes the dataclass's own signature
    # (a default marker, a missing, keyword-only or extra parameter).
    if inspect.signature(init) != inspect.signature(cls.__init__):
        raise TypeError(
            f"@record {cls.__qualname__}: a field has a default_factory, init=False or kw_only, or is an InitVar"
        )
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
