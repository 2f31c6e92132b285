"""JSON-Lines dataset interchange: one page per line.

Region objects use the ``{"type", "bbox", "score"}`` schema; teacher
entries carry ``confidence`` (and optional ``coord_var``) instead of
``score``, text regions add ``q_text``/``q_spatial``, refined labels add
``provenance`` and ``smoothing``. Floats are serialized with full
round-trip precision so save followed by load is the identity.

Finite coordinates are clamped into [0, 1] at ingest with a warning
counter; non-finite ones (NaN, Infinity) and boxes that remain invalid
after clamping (x1 >= x2, y1 >= y2) are rejected with an error naming
the page and field.
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


def _records(items, field: str, page_id: str):
    """Yield (context, record) for one region list; each record must be an object."""
    if not isinstance(items, list):
        raise DatasetError(f"page {page_id!r}: {field} must be a JSON array")
    for i, raw in enumerate(items):
        context = f"{field}[{i}]"
        if not isinstance(raw, dict):
            raise DatasetError(f"page {page_id!r}: {context} must be a JSON object")
        yield context, raw


def _require(obj: dict, key: str, page_id: str, context: str):
    if key not in obj:
        raise DatasetError(f"page {page_id!r}: {context} missing field {key!r}")
    return obj[key]


def _parse_box(raw, page_id: str, context: str, stats: IngestStats) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DatasetError(f"page {page_id!r}: {context} bbox must be [x1, y1, x2, y2]")
    try:
        coords, moved = clamp_coordinates(raw)
    except (TypeError, ValueError) as exc:
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


def page_from_dict(obj: dict, taxonomy: Taxonomy = DOCLAYNET, stats: IngestStats | None = None) -> Page:
    """Validate one page object against all type invariants."""
    stats = stats if stats is not None else IngestStats()
    if not isinstance(obj, dict):
        raise DatasetError("page record must be a JSON object")
    page_id = obj.get("page_id")
    if not isinstance(page_id, str) or not page_id:
        raise DatasetError("page record missing non-empty 'page_id'")

    ocr_blocks = []
    for context, raw in _records(obj.get("ocr_blocks", []), "ocr_blocks", page_id):
        box = _parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)
        ocr_blocks.append(OcrBlock(box=box, text=str(raw.get("text", "")), is_bold=bool(raw.get("is_bold", False))))

    teacher = []
    for context, raw in _records(obj.get("teacher", []), "teacher", page_id):
        box = _parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)
        category = _parse_category(_require(raw, "type", page_id, context), taxonomy, page_id, context)
        coord_var = raw.get("coord_var")
        try:
            teacher.append(
                TeacherPrediction(
                    box=box,
                    category=category,
                    confidence=float(_require(raw, "confidence", page_id, context)),
                    coordinate_variance=None if coord_var is None else float(coord_var),
                )
            )
        except ValueError as exc:
            raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    llm = []
    for context, raw in _records(obj.get("llm", []), "llm", page_id):
        box = _parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)
        category = _parse_category(_require(raw, "type", page_id, context), taxonomy, page_id, context)
        try:
            llm.append(
                LlmRegion(
                    box=box,
                    category=category,
                    score=float(_require(raw, "score", page_id, context)),
                    q_text=float(raw.get("q_text", 1.0)),
                    q_spatial=float(raw.get("q_spatial", 1.0)),
                )
            )
        except ValueError as exc:
            raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    ground_truth = None
    if obj.get("ground_truth") is not None:
        ground_truth = []
        for context, raw in _records(obj["ground_truth"], "ground_truth", page_id):
            box = _parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)
            category = _parse_category(_require(raw, "type", page_id, context), taxonomy, page_id, context)
            ground_truth.append(GroundTruthAnnotation(box=box, category=category))

    refined = None
    if obj.get("refined") is not None:
        refined = []
        for context, raw in _records(obj["refined"], "refined", page_id):
            box = _parse_box(_require(raw, "bbox", page_id, context), page_id, context, stats)
            category = _parse_category(_require(raw, "type", page_id, context), taxonomy, page_id, context)
            try:
                refined.append(
                    FusedLabel(
                        box=box,
                        category=category,
                        confidence=float(_require(raw, "score", page_id, context)),
                        provenance=str(_require(raw, "provenance", page_id, context)),
                        smoothing=float(raw.get("smoothing", 0.0)),
                    )
                )
            except ValueError as exc:
                raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    stats.pages += 1
    return Page(
        page_id=page_id,
        ocr_blocks=tuple(ocr_blocks),
        teacher=tuple(teacher),
        llm=tuple(llm),
        ground_truth=None if ground_truth is None else tuple(ground_truth),
        refined=None if refined is None else tuple(refined),
    )


def _bbox(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


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
    obj["llm"] = [
        {
            "type": r.category.name,
            "bbox": _bbox(r.box),
            "score": r.score,
            "q_text": r.q_text,
            "q_spatial": r.q_spatial,
        }
        for r in page.llm
    ]
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
            except json.JSONDecodeError as exc:
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
