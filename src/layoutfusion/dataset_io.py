"""JSON-Lines dataset interchange: one page per line.

Region objects use the ``{"type", "bbox", "score"}`` schema; teacher
entries carry ``confidence`` (and optional ``coord_var``) instead of
``score``, text regions add ``q_text``/``q_spatial``, refined labels add
``provenance`` and ``smoothing``. Floats are serialized with full
round-trip precision so save followed by load is the identity.

Finite coordinates are clamped into [0, 1] at ingest with a warning
counter; non-finite ones (NaN, Infinity) and boxes that remain invalid
after clamping (x1 >= x2, y1 >= y2) are rejected with an error naming
the page and field. Other values are converted with ``float()``,
``str()`` and ``bool()``; a record whose values already have those
types and whose box needs no clamp is built without the conversions.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .geometry import BoundingBox, clamp_coordinates
from .model import (
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from .taxonomy import DOCLAYNET, Taxonomy

__all__ = ["DatasetError", "IngestStats", "load_dataset", "save_dataset", "page_to_dict", "page_from_dict"]

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Raised for malformed lines or invariant violations at ingest."""


_COORD_NAMES = ("x1", "y1", "x2", "y2")


@dataclass
class IngestStats:
    pages: int = 0
    clamped_coordinates: int = 0


def _array(items, field: str, page_id: str) -> list:
    if not isinstance(items, list):
        raise DatasetError(f"page {page_id!r}: {field} must be a JSON array")
    return items


def _context(raw, field: str, i: int, page_id: str) -> str:
    """``field[i]`` for error messages; the record must be an object."""
    context = f"{field}[{i}]"
    if not isinstance(raw, dict):
        raise DatasetError(f"page {page_id!r}: {context} must be a JSON object")
    return context


def _require(obj: dict, key: str, page_id: str, context: str):
    if key not in obj:
        raise DatasetError(f"page {page_id!r}: {context} missing field {key!r}")
    return obj[key]


def _parse_box(raw, page_id: str, context: str, stats: IngestStats) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DatasetError(f"page {page_id!r}: {context} bbox must be [x1, y1, x2, y2]")
    try:
        coords, moved = clamp_coordinates(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"page {page_id!r}: {context} bbox not numeric: {exc}") from exc
    if moved:
        # NaN and the infinities clamp too (to 0.0 and 1.0); reject them
        # instead of counting them as out-of-range values.
        for name, value in zip(_COORD_NAMES, raw):
            value = float(value)
            if not math.isfinite(value):
                raise DatasetError(f"page {page_id!r}: {context} bbox coordinate {name}={value!r} is not finite")
    stats.clamped_coordinates += moved
    try:
        return BoundingBox.from_array(coords)
    except ValueError as exc:
        raise DatasetError(f"page {page_id!r}: {context} bbox invalid: {exc}") from exc


def _parse_category(raw, taxonomy: Taxonomy, page_id: str, context: str):
    if not isinstance(raw, str):
        raise DatasetError(f"page {page_id!r}: {context} type must be a string")
    try:
        return taxonomy.category(raw)
    except KeyError as exc:
        raise DatasetError(f"page {page_id!r}: {context} has unknown category {raw!r}") from exc


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


_REQUIRED = object()

# The checked path, per record field: the model class, whether the record
# names a category, and each further constructor argument as (key,
# conversion, default), where _REQUIRED marks a key the record must have.
_RECORDS = {
    "ocr_blocks": (OcrBlock, False, (("text", str, ""), ("is_bold", bool, False))),
    "teacher": (TeacherPrediction, True, (("confidence", float, _REQUIRED), ("coord_var", _optional_float, None))),
    "llm": (LlmRegion, True, (("score", float, _REQUIRED), ("q_text", float, 1.0), ("q_spatial", float, 1.0))),
    "ground_truth": (GroundTruthAnnotation, True, ()),
    "refined": (
        FusedLabel,
        True,
        (("score", float, _REQUIRED), ("provenance", str, _REQUIRED), ("smoothing", float, 0.0)),
    ),
}


def _checked(field: str, raw, i: int, page_id: str, taxonomy: Taxonomy, stats: IngestStats):
    """Record ``i`` of ``field`` by the checked path, which takes every
    record the fast path in ``page_from_dict`` does not: values are
    converted, coordinates are clamped and counted, and the first fault
    in field order is reported."""
    cls, has_category, extra = _RECORDS[field]
    context = _context(raw, field, i, page_id)
    args = [_parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)]
    if has_category:
        args.append(_parse_category(_require(raw, "type", page_id, context), taxonomy, page_id, context))
    try:
        for key, convert, default in extra:
            value = _require(raw, key, page_id, context) if default is _REQUIRED else raw.get(key, default)
            args.append(convert(value))
        return cls(*args)
    except DatasetError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc


def _unit_box(bbox) -> BoundingBox | None:
    """The box of a bbox that needs no conversion and no clamp, else None.

    That is a list of four floats with x1 > 0 and y1 > 0 that
    ``BoundingBox`` accepts; a box it rejects raises its ValueError,
    which every fast path answers with the checked path. An exact zero
    is left to the checked path too, whose clamp turns -0.0 into 0.0.
    """
    if type(bbox) is list and len(bbox) == 4:
        x1, y1, x2, y2 = bbox
        if (
            type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float
            and x1 > 0.0 and y1 > 0.0
        ):
            return BoundingBox(x1, y1, x2, y2)
    return None


def page_from_dict(obj: dict, taxonomy: Taxonomy = DOCLAYNET, stats: IngestStats | None = None) -> Page:
    """Validate one page object against all type invariants.

    One pass per record. A record whose bbox passes ``_unit_box`` and
    whose other fields already have their final types is built
    directly, and its box and objects still validate themselves. Any
    other record, or one they reject, goes through the checked path,
    which gives the same objects, or names the first fault.
    """
    stats = stats if stats is not None else IngestStats()
    if not isinstance(obj, dict):
        raise DatasetError("page record must be a JSON object")
    page_id = obj.get("page_id")
    if not isinstance(page_id, str) or not page_id:
        raise DatasetError("page record missing non-empty 'page_id'")
    category = taxonomy.category

    ocr_blocks = []
    for i, raw in enumerate(_array(obj.get("ocr_blocks", []), "ocr_blocks", page_id)):
        if type(raw) is dict:
            text = raw.get("text", "")
            is_bold = raw.get("is_bold", False)
            if type(text) is str and type(is_bold) is bool:
                try:
                    box = _unit_box(raw.get("bbox"))
                    if box is not None:
                        ocr_blocks.append(OcrBlock(box, text, is_bold))
                        continue
                except ValueError:
                    pass
        ocr_blocks.append(_checked("ocr_blocks", raw, i, page_id, taxonomy, stats))

    teacher = []
    for i, raw in enumerate(_array(obj.get("teacher", []), "teacher", page_id)):
        if type(raw) is dict:
            name = raw.get("type")
            confidence = raw.get("confidence")
            coord_var = raw.get("coord_var")
            if (
                type(name) is str and type(confidence) is float
                and (coord_var is None or type(coord_var) is float)
            ):
                try:
                    box = _unit_box(raw.get("bbox"))
                    if box is not None:
                        teacher.append(TeacherPrediction(box, category(name), confidence, coord_var))
                        continue
                except (KeyError, ValueError):
                    pass
        teacher.append(_checked("teacher", raw, i, page_id, taxonomy, stats))

    llm = []
    for i, raw in enumerate(_array(obj.get("llm", []), "llm", page_id)):
        if type(raw) is dict:
            name = raw.get("type")
            score = raw.get("score")
            q_text = raw.get("q_text", 1.0)
            q_spatial = raw.get("q_spatial", 1.0)
            if (
                type(name) is str and type(score) is float
                and type(q_text) is float and type(q_spatial) is float
            ):
                try:
                    box = _unit_box(raw.get("bbox"))
                    if box is not None:
                        llm.append(LlmRegion(box, category(name), score, q_text, q_spatial))
                        continue
                except (KeyError, ValueError):
                    pass
        llm.append(_checked("llm", raw, i, page_id, taxonomy, stats))

    ground_truth = None
    if obj.get("ground_truth") is not None:
        ground_truth = []
        for i, raw in enumerate(_array(obj["ground_truth"], "ground_truth", page_id)):
            if type(raw) is dict:
                name = raw.get("type")
                if type(name) is str:
                    try:
                        box = _unit_box(raw.get("bbox"))
                        if box is not None:
                            ground_truth.append(GroundTruthAnnotation(box, category(name)))
                            continue
                    except (KeyError, ValueError):
                        pass
            ground_truth.append(_checked("ground_truth", raw, i, page_id, taxonomy, stats))

    refined = None
    if obj.get("refined") is not None:
        refined = []
        for i, raw in enumerate(_array(obj["refined"], "refined", page_id)):
            if type(raw) is dict:
                name = raw.get("type")
                score = raw.get("score")
                provenance = raw.get("provenance")
                smoothing = raw.get("smoothing", 0.0)
                if (
                    type(name) is str and type(score) is float
                    and type(provenance) is str and type(smoothing) is float
                ):
                    try:
                        box = _unit_box(raw.get("bbox"))
                        if box is not None:
                            refined.append(FusedLabel(box, category(name), score, provenance, smoothing))
                            continue
                    except (KeyError, ValueError):
                        pass
            refined.append(_checked("refined", raw, i, page_id, taxonomy, stats))

    stats.pages += 1
    return Page(
        page_id,
        tuple(ocr_blocks),
        tuple(teacher),
        tuple(llm),
        None if ground_truth is None else tuple(ground_truth),
        None if refined is None else tuple(refined),
    )


def _bbox(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def region_record(region: LlmRegion) -> dict:
    """The JSON record of a text region."""
    return {
        "type": region.category.name,
        "bbox": _bbox(region.box),
        "score": region.score,
        "q_text": region.q_text,
        "q_spatial": region.q_spatial,
    }


def page_to_dict(page: Page) -> dict:
    obj: dict = {"page_id": page.page_id}
    obj["ocr_blocks"] = [
        {"bbox": _bbox(b.box), "text": b.text, "is_bold": b.is_bold} for b in page.ocr_blocks
    ]
    obj["teacher"] = [
        {
            "type": t.category.name,
            "bbox": _bbox(t.box),
            "confidence": t.confidence,
            **({"coord_var": t.coordinate_variance} if t.coordinate_variance is not None else {}),
        }
        for t in page.teacher
    ]
    obj["llm"] = [region_record(r) for r in page.llm]
    if page.ground_truth is not None:
        obj["ground_truth"] = [
            {"type": g.category.name, "bbox": _bbox(g.box)} for g in page.ground_truth
        ]
    if page.refined is not None:
        obj["refined"] = [
            {
                "type": f.category.name,
                "bbox": _bbox(f.box),
                "score": f.confidence,
                "provenance": f.provenance,
                "smoothing": f.smoothing,
            }
            for f in page.refined
        ]
    return obj


def load_dataset(
    path, taxonomy: Taxonomy = DOCLAYNET, stats: IngestStats | None = None
) -> list[Page]:
    """Load and validate a JSON-Lines dataset.

    Raises DatasetError naming the line for parse failures, or the page
    and field for invariant violations. Pass an IngestStats to observe
    the clamped-coordinate counter; it is also logged as a warning.
    """
    stats = stats if stats is not None else IngestStats()
    pages: list[Page] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer beyond the digit limit
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            try:
                page = page_from_dict(obj, taxonomy=taxonomy, stats=stats)
            except DatasetError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            if page.page_id in seen:
                raise DatasetError(f"{path}: line {lineno}: duplicate page_id {page.page_id!r}")
            seen.add(page.page_id)
            pages.append(page)
    if stats.clamped_coordinates:
        logger.warning(
            "clamped %d out-of-range coordinates while loading %s", stats.clamped_coordinates, path
        )
    return pages


def save_dataset(pages: Iterable[Page], path) -> None:
    """Write pages as JSON Lines with round-trip-exact floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for page in pages:
            fh.write(json.dumps(page_to_dict(page), separators=(",", ":")) + "\n")
