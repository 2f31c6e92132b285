"""Per-record types are frozen slotted dataclasses: no ``__dict__``, no
ad-hoc attributes, and the same equality and hashing as before."""

import dataclasses

import pytest

from layoutfusion.fusion import MatchResult
from layoutfusion.geometry import BoundingBox
from layoutfusion.metrics import Detection, GroundTruthBox
from layoutfusion.model import FusedLabel, GroundTruthAnnotation, LlmRegion, OcrBlock, Page, TeacherPrediction
from layoutfusion.taxonomy import DOCLAYNET

BOX = BoundingBox(0.1, 0.2, 0.5, 0.6)
TITLE = DOCLAYNET.category("title")
TEACHER = TeacherPrediction(BOX, TITLE, 0.9, 0.01)
LLM = LlmRegion(BOX, TITLE, 0.8, 0.9, 0.7)
OCR = OcrBlock(BOX, "Results", True)
TRUTH = GroundTruthAnnotation(BOX, TITLE)
LABEL = FusedLabel(BOX, TITLE, 0.85, "fused")
RECORDS = [
    BOX,
    TEACHER,
    LLM,
    OCR,
    TRUTH,
    LABEL,
    Page("p0", (OCR,), (TEACHER,), (LLM,), (TRUTH,), (LABEL,)),
    Detection("p0", "title", 0.9, BOX),
    GroundTruthBox("p0", "title", BOX),
    MatchResult(0, 0, 0.7),
]
IDS = [type(record).__name__ for record in RECORDS]


def _values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_no_instance_dict_and_no_ad_hoc_attributes(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", "x")
    # On some Python versions, 3.11 among them, a frozen slotted class's
    # __setattr__ still refers to the class that slots=True replaced, so a
    # name that is not a field raises TypeError instead of
    # FrozenInstanceError.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.note = "x"


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_field_assignment_raises_frozen_instance_error(record):
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_and_hash_are_over_the_fields(record):
    twin = type(record)(*_values(record))
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) == hash(_values(record))
    assert dataclasses.replace(record) == record
    assert record != _values(record)
