"""``schema.record`` builds each per-record type as a plain
``dataclass(frozen=True, slots=True)`` would, with an ``__init__`` that
stores through the slot descriptors: same signature, same objects, same
errors, and ``__post_init__`` looked up on each call.

One difference is deliberate: before ``__post_init__``, ``record``'s
``__init__`` applies the record type rule, which the twin does not. A
float field stores an int or a numpy scalar as its float, and any field
of ``float``, ``str`` or ``bool`` refuses another type; the twin stores
what it is given. So these tests build the twins from values of each
field's own type, and ``test_exports`` checks the rule."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutfusion.dataset_io import load_dataset, save_dataset
from layoutfusion.geometry import BoundingBox
from layoutfusion.schema import record
from layoutfusion.simulator import SimConfig, simulate_dataset

from test_records import IDS, RECORDS, _values

TYPES = [type(r) for r in RECORDS]


def _twin(cls):
    """A plain frozen slotted dataclass with ``cls``'s annotations,
    defaults, ``__post_init__`` and qualified name."""
    namespace = {
        "__annotations__": dict(cls.__annotations__),
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            namespace[field.name] = field.default
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


TWINS = {cls: _twin(cls) for cls in TYPES}


def _error(call):
    try:
        call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_signature_is_the_dataclass_signature(cls):
    assert inspect.signature(cls) == inspect.signature(TWINS[cls])
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_positional_keyword_default_and_replace_build_equal_objects(rec):
    cls, values = type(rec), _values(rec)
    fields = dataclasses.fields(cls)
    by_name = {f.name: v for f, v in zip(fields, values)}
    built = [cls(*values), cls(**by_name), dataclasses.replace(rec), dataclasses.replace(rec, **by_name)]
    assert all(b == rec and _values(b) == values for b in built)
    assert _values(TWINS[cls](*values)) == values
    # Leaving out the trailing fields that have defaults gives the defaults.
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    defaults = tuple(f.default for f in fields if f.default is not dataclasses.MISSING)
    assert _values(cls(*values[: len(required)])) == values[: len(required)] + defaults


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_missing_or_extra_argument_raises_the_dataclass_type_error(rec):
    cls, values = type(rec), _values(rec)
    twin = TWINS[cls]
    by_name = {f.name: v for f, v in zip(dataclasses.fields(cls), values)}
    calls = [
        lambda c: c(),
        lambda c: c(*values, values[0]),
        lambda c: c(**by_name, extra=1),
        lambda c: c(values[0], **by_name),
    ]
    for call in calls:
        error = _error(lambda: call(cls))
        assert error is not None and error[0] is TypeError
        assert error == _error(lambda: call(twin))


# 1e-170 squared underflows to 0.0; 5e-324 is the least subnormal.
coordinates = st.floats() | st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-170, 2e-170, 0.5])


@settings(max_examples=400, deadline=None)
@given(st.tuples(coordinates, coordinates, coordinates, coordinates))
def test_box_builds_or_rejects_as_the_dataclass_does(coords):
    """NaN, the infinities, -0.0, subnormals and areas that underflow:
    the same box, or the same ValueError message."""
    twin = TWINS[BoundingBox]
    expected = _error(lambda: twin(*coords))
    if expected is None:
        box = BoundingBox(*coords)
        assert repr(_values(box)) == repr(_values(twin(*coords)))  # repr tells -0.0 from 0.0
    else:
        assert _error(lambda: BoundingBox(*coords)) == expected


def test_post_init_rebound_on_the_class_sees_every_loaded_box(tmp_path, monkeypatch):
    """The benchmark counts boxes by rebinding ``BoundingBox.__post_init__``."""
    path = tmp_path / "dataset.jsonl"
    save_dataset(simulate_dataset(SimConfig(pages=4, seed=3)), path)
    seen = []
    check = BoundingBox.__post_init__

    def counting(self):
        seen.append(id(self))
        check(self)

    monkeypatch.setattr(BoundingBox, "__post_init__", counting)
    pages = load_dataset(path)
    streams = [s for p in pages for s in (p.ocr_blocks, p.teacher, p.llm, p.ground_truth or (), p.refined or ())]
    records = [r for stream in streams for r in stream]
    assert records and set(seen) >= {id(r.box) for r in records}


@pytest.mark.parametrize(
    "field",
    [
        "x: list = dataclasses.field(default_factory=list)",
        "x: int = dataclasses.field(default=0, init=False)",
        "x: int = dataclasses.field(default=0, kw_only=True)",
        "x: dataclasses.InitVar[int] = 0",
    ],
    ids=["default_factory", "init-false", "kw_only", "InitVar"],
)
def test_unsupported_field_is_a_type_error_at_decoration(field):
    source = f"class Rec:\n    {field}\n    def __post_init__(self, *args):\n        pass\n"
    namespace = {"dataclasses": dataclasses}
    exec(source, namespace)
    with pytest.raises(TypeError, match="^@record Rec: "):
        record(namespace["Rec"])
