"""One type rule for every config: each field against its annotation, as
JSON loads it, arrays as tuples. The README tabulates what each accepts."""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from collections.abc import Mapping

__all__ = ["check", "check_fields"]

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
