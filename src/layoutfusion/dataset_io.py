"""JSON-Lines dataset interchange: one page per line.

Region objects use the ``{"type", "bbox", "score"}`` schema; teacher
entries carry ``confidence`` (and optional ``coord_var``) instead of
``score``, text regions add ``q_text``/``q_spatial``, refined labels add
``provenance`` and ``smoothing``. Floats are serialized with full
round-trip precision so save followed by load is the identity.

A page's line is, by definition, ``json.dumps(page_to_dict(page),
separators=(",", ":"))``. ``save_dataset`` writes it from one ``%``
line template per record kind (OCR block, teacher with and without
``coord_var``, text region, ground truth, refined label), each kept next
to that kind's parser: numbers go through ``%r``, which writes a float or
an int as ``json.dumps`` does (+inf, the one non-finite number a record
admits, becomes ``Infinity``), and strings through
``json.encoder.encode_basestring_ascii``, json's own escaper. Each page's
numbers are checked once, in C calls: every one a float or int (strings
and flags were checked when the records were built). A page that fails
(a numpy scalar, a bool where a number belongs) is written through
``json.dumps`` itself, which stays the reference. ``regions_line`` writes
a heuristics regions line the same way, from the text-region template
plus ``"source"``.

Finite coordinates are clamped into [0, 1] at ingest with a warning
counter; non-finite ones (NaN, Infinity) and boxes that remain invalid
after clamping (x1 >= x2, y1 >= y2) are rejected with an error naming
the page and field. Every record of a kind goes through the one parser
of that kind. A value that already has its final type is used as it is;
any other is converted with ``float()``, ``str()`` or ``bool()``. The
first fault in field order (bbox, type, then the rest) is the one named.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .geometry import BoundingBox, clamp_coordinates
from .model import (
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from .schema import record
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


class _Fault(Exception):
    """A record fault: the message ending after ``page 'p': field[i]``."""


@record
class _Ingest:
    """What the record parsers of one page read besides the record."""

    stats: IngestStats
    taxonomy: Taxonomy


def _box(raw: dict, ingest: _Ingest) -> BoundingBox:
    """The record's box. A list of four floats with x1 > 0 and y1 > 0
    that ``BoundingBox`` accepts is built as it is. Any other bbox is
    converted, clamped into [0, 1] (each moved coordinate counted) and
    then built; an exact zero takes that path too, whose clamp turns
    -0.0 into 0.0."""
    bbox = raw["bbox"]
    if type(bbox) is list and len(bbox) == 4:
        x1, y1, x2, y2 = bbox
        if (
            type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float
            and x1 > 0.0 and y1 > 0.0
        ):
            try:
                return BoundingBox(x1, y1, x2, y2)
            except ValueError:
                pass
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise _Fault(" bbox must be [x1, y1, x2, y2]")
    try:
        coords, moved = clamp_coordinates(bbox)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _Fault(f" bbox not numeric: {exc}") from exc
    if moved:
        # NaN and the infinities clamp too (to 0.0 and 1.0); reject them
        # instead of counting them as out-of-range values.
        for name, value in zip(_COORD_NAMES, bbox):
            value = float(value)
            if not math.isfinite(value):
                raise _Fault(f" bbox coordinate {name}={value!r} is not finite")
    ingest.stats.clamped_coordinates += moved
    try:
        return BoundingBox.from_array(coords)
    except ValueError as exc:
        raise _Fault(f" bbox invalid: {exc}") from exc


def _category(raw: dict, ingest: _Ingest):
    """The record's category: one lookup, and only on a miss the reason."""
    try:
        return ingest.taxonomy.category(raw["type"])
    except KeyError as exc:
        if "type" not in raw:
            raise _Fault(" missing field 'type'") from None
        if not isinstance(raw["type"], str):
            raise _Fault(" type must be a string") from None
        raise _Fault(f" has unknown category {raw['type']!r}") from exc


# One parser per record kind. Each reads its fields in constructor order
# (bbox, type, then the rest), so the first fault in that order is the
# one reported. A value that already has its final type is used as it is;
# any other is converted with float(), str() or bool().
#
# Next to each parser is the line template of its kind: the record's JSON
# text with page_to_dict's keys in page_to_dict's order, numbers through
# %r and strings (already escaped) through %s.


def _ocr_block(raw: dict, ingest: _Ingest) -> OcrBlock:
    text = raw.get("text", "")
    is_bold = raw.get("is_bold", False)
    return OcrBlock(
        _box(raw, ingest),
        text if type(text) is str else str(text),
        is_bold if type(is_bold) is bool else bool(is_bold),
    )


_OCR_BLOCK_LINE = '{"bbox":[%r,%r,%r,%r],"text":%s,"is_bold":%s}'


def _teacher(raw: dict, ingest: _Ingest) -> TeacherPrediction:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    confidence = raw["confidence"]
    coord_var = raw.get("coord_var")
    return TeacherPrediction(
        box,
        category,
        confidence if type(confidence) is float else float(confidence),
        coord_var if coord_var is None or type(coord_var) is float else float(coord_var),
    )


_TEACHER_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"confidence":%r}'
_TEACHER_VAR_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"confidence":%r,"coord_var":%r}'


def _text_region(raw: dict, ingest: _Ingest) -> LlmRegion:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    score = raw["score"]
    score = score if type(score) is float else float(score)
    q_text = raw.get("q_text", 1.0)
    q_text = q_text if type(q_text) is float else float(q_text)
    q_spatial = raw.get("q_spatial", 1.0)
    return LlmRegion(box, category, score, q_text, q_spatial if type(q_spatial) is float else float(q_spatial))


_TEXT_REGION_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"score":%r,"q_text":%r,"q_spatial":%r}'


def _ground_truth(raw: dict, ingest: _Ingest) -> GroundTruthAnnotation:
    return GroundTruthAnnotation(_box(raw, ingest), _category(raw, ingest))


_GROUND_TRUTH_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r]}'


def _refined_label(raw: dict, ingest: _Ingest) -> FusedLabel:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    score = raw["score"]
    score = score if type(score) is float else float(score)
    provenance = raw["provenance"]
    provenance = provenance if type(provenance) is str else str(provenance)
    smoothing = raw.get("smoothing", 0.0)
    return FusedLabel(box, category, score, provenance, smoothing if type(smoothing) is float else float(smoothing))


_REFINED_LABEL_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"score":%r,"provenance":%s,"smoothing":%r}'


def _records(items, field: str, page_id: str, parse, ingest: _Ingest) -> tuple:
    """``parse(record, ingest)`` for each record of the array ``items``; a
    fault raises DatasetError naming the page and ``field[i]``, where
    ``i`` is the number of records parsed before it."""
    if not isinstance(items, list):
        raise DatasetError(f"page {page_id!r}: {field} must be a JSON array")
    parsed = []
    try:
        for raw in items:
            if not isinstance(raw, dict):
                raise _Fault(" must be a JSON object")
            parsed.append(parse(raw, ingest))
    except _Fault as exc:
        raise DatasetError(f"page {page_id!r}: {field}[{len(parsed)}]{exc}") from exc.__cause__
    except KeyError as exc:
        raise DatasetError(f"page {page_id!r}: {field}[{len(parsed)}] missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"page {page_id!r}: {field}[{len(parsed)}]: {exc}") from exc
    return tuple(parsed)


def page_from_dict(obj: dict, taxonomy: Taxonomy = DOCLAYNET, stats: IngestStats | None = None) -> Page:
    """Validate one page object against all type invariants: each record
    goes once through the parser of its kind, or names its first fault."""
    stats = stats if stats is not None else IngestStats()
    if not isinstance(obj, dict):
        raise DatasetError("page record must be a JSON object")
    page_id = obj.get("page_id")
    if not isinstance(page_id, str) or not page_id:
        raise DatasetError("page record missing non-empty 'page_id'")
    ingest = _Ingest(stats, taxonomy)
    ocr_blocks = _records(obj.get("ocr_blocks", []), "ocr_blocks", page_id, _ocr_block, ingest)
    teacher = _records(obj.get("teacher", []), "teacher", page_id, _teacher, ingest)
    llm = _records(obj.get("llm", []), "llm", page_id, _text_region, ingest)
    ground_truth = obj.get("ground_truth")
    if ground_truth is not None:
        ground_truth = _records(ground_truth, "ground_truth", page_id, _ground_truth, ingest)
    refined = obj.get("refined")
    if refined is not None:
        refined = _records(refined, "refined", page_id, _refined_label, ingest)
    stats.pages += 1
    return Page(page_id, ocr_blocks, teacher, llm, ground_truth, refined)


def _bbox(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def page_to_dict(page: Page) -> dict:
    """The JSON object of ``page``'s dataset line, keys in line order."""
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


# Where the numbers sit in each kind's template arguments.
_OCR_BLOCK_NUMBERS = itemgetter(0, 1, 2, 3)
_TEACHER_NUMBERS = itemgetter(1, 2, 3, 4, 5)
_TEXT_REGION_NUMBERS = itemgetter(1, 2, 3, 4, 5, 6, 7)
_GROUND_TRUTH_NUMBERS = itemgetter(1, 2, 3, 4)
_REFINED_LABEL_NUMBERS = itemgetter(1, 2, 3, 4, 5, 7)
_NUMBER_TYPES = {float, int}
_VARIANCE_TYPES = {float, int, type(None)}
_JSON_BOOL = ("false", "true")
_SOURCED_REGION_LINE = _TEXT_REGION_LINE[:-1] + ',"source":%s}'


def _json_line(obj) -> str:
    """The reference writer: ``obj`` as one compact JSON line."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _text_region_args(regions) -> list[tuple]:
    return [
        (_quote(r.category.name), (b := r.box).x1, b.y1, b.x2, b.y2, r.score, r.q_text, r.q_spatial)
        for r in regions
    ]


def _page_line(page: Page) -> str:
    """``page``'s dataset line, ``_json_line(page_to_dict(page))``: from
    the record templates when every number passes the check, else from
    that reference."""
    ocr = [((b := o.box).x1, b.y1, b.x2, b.y2, _quote(o.text), o.is_bold) for o in page.ocr_blocks]
    teacher = [
        (_quote(t.category.name), (b := t.box).x1, b.y1, b.x2, b.y2, t.confidence, t.coordinate_variance)
        for t in page.teacher
    ]
    llm = _text_region_args(page.llm)
    ground_truth = [(_quote(g.category.name), (b := g.box).x1, b.y1, b.x2, b.y2) for g in page.ground_truth or ()]
    refined = [
        (_quote(f.category.name), (b := f.box).x1, b.y1, b.x2, b.y2, f.confidence, _quote(f.provenance), f.smoothing)
        for f in page.refined or ()
    ]
    numbers = chain(
        chain.from_iterable(map(_OCR_BLOCK_NUMBERS, ocr)),
        chain.from_iterable(map(_TEACHER_NUMBERS, teacher)),
        chain.from_iterable(map(_TEXT_REGION_NUMBERS, llm)),
        chain.from_iterable(map(_GROUND_TRUTH_NUMBERS, ground_truth)),
        chain.from_iterable(map(_REFINED_LABEL_NUMBERS, refined)),
    )
    if not (
        set(map(type, numbers)) <= _NUMBER_TYPES
        and set(map(type, map(itemgetter(6), teacher))) <= _VARIANCE_TYPES
    ):
        return _json_line(page_to_dict(page))
    teacher_text = ",".join([_TEACHER_LINE % a[:6] if a[6] is None else _TEACHER_VAR_LINE % a for a in teacher])
    parts = [
        '{"page_id":', _quote(page.page_id),
        ',"ocr_blocks":[', ",".join([_OCR_BLOCK_LINE % (*a[:5], _JSON_BOOL[a[5]]) for a in ocr]),
        # %r writes +inf, the one non-finite number a record admits, as inf.
        '],"teacher":[', teacher_text.replace('"coord_var":inf}', '"coord_var":Infinity}'),
        '],"llm":[', ",".join(map(_TEXT_REGION_LINE.__mod__, llm)), "]",
    ]
    if page.ground_truth is not None:
        parts += ',"ground_truth":[', ",".join(map(_GROUND_TRUTH_LINE.__mod__, ground_truth)), "]"
    if page.refined is not None:
        parts += ',"refined":[', ",".join(map(_REFINED_LABEL_LINE.__mod__, refined)), "]"
    parts.append("}\n")
    return "".join(parts)


def regions_line(page: Page, source: str) -> str:
    """The JSON line ``{"page_id", "regions"}`` of ``page``'s text regions:
    each region's dataset record, then ``"source": source``."""
    try:
        page_id, source_text = _quote(page.page_id), _quote(source)
        llm = _text_region_args(page.llm)
    except TypeError:  # json's escaper takes only a str
        llm = None
    if llm is None or not set(map(type, chain.from_iterable(map(_TEXT_REGION_NUMBERS, llm)))) <= _NUMBER_TYPES:
        obj = page_to_dict(page)
        return _json_line({"page_id": obj["page_id"], "regions": [{**r, "source": source} for r in obj["llm"]]})
    regions = ",".join([_SOURCED_REGION_LINE % (*a, source_text) for a in llm])
    return '{"page_id":%s,"regions":[%s]}\n' % (page_id, regions)


def save_dataset(pages: Iterable[Page], path, *, make_pages: Callable | None = None, records: int = 0) -> None:
    """Write pages as JSON Lines with round-trip-exact floats.

    Raises ValueError, before the file is opened, naming the first
    ``page_id`` that repeats: ``load_dataset`` would reject the file.

    With ``make_pages``, ``pages`` holds work items (``simulate`` passes
    page indices) and each process writing a part of them writes the pages
    ``make_pages(part)``, whose ids the caller vouches for and whose
    record count ``records`` estimates (``_write_split``).
    """
    if make_pages is None:
        pages = list(pages)
        seen: set[str] = set()
        for page in pages:
            if page.page_id in seen:
                raise ValueError(f"duplicate page_id {page.page_id!r}")
            seen.add(page.page_id)
        records = sum(
            len(p.ocr_blocks) + len(p.teacher) + len(p.llm) + len(p.ground_truth or ()) + len(p.refined or ())
            for p in pages
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_split(path, pages, lambda part: map(_page_line, part if make_pages is None else make_pages(part)), records)


# The fewest records (OCR blocks, teacher boxes, text regions, ground truth,
# refined labels) worth a process. In two in-process sweeps a two-way split
# beat the sequential save_dataset from 2 000-5 000 records, and with the
# pages simulated in the part from 750-2 000 (BENCH_21.json "break_even").
_PART_MIN_RECORDS = 2500


def _write_split(path: Path, items: Sequence, lines: Callable[[Sequence], Iterable[str]], records: int) -> None:
    """Write the text ``lines(items)`` to ``path``, in item order.

    On Linux, with more CPUs in the affinity mask than one and
    ``_PART_MIN_RECORDS`` of the ``records`` for each, the items are cut
    into one contiguous part per CPU: this process streams the first
    part's lines to the file while a forked child computes each other
    part's text, copied from its pipe in order. A part whose child failed
    is cut off and computed here, raising what the sequential loop would.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, len(items), records // _PART_MIN_RECORDS)
    with open(path, "w", encoding="utf-8") as fh:
        if parts < 2:
            fh.writelines(lines(items))
            return
        bounds = [len(items) * k // parts for k in range(parts + 1)]
        children = []  # (pid, read end of its pipe, its part), in part order
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append((*_fork_part(items[lo:hi], lines), items[lo:hi]))
            fh.writelines(lines(items[: bounds[1]]))
            while children:
                pid, fd, part = children[0]
                fh.flush()
                start = fh.buffer.tell()
                while chunk := os.read(fd, 1 << 20):
                    fh.buffer.write(chunk)
                del children[0]
                os.close(fd)
                if os.waitpid(pid, 0)[1]:
                    fh.buffer.seek(start)
                    fh.buffer.truncate()
                    fh.writelines(lines(part))
        finally:
            # All pipes close before any reaping: a child holds the read ends
            # of earlier pipes, so one blocked on a full pipe waits for later ones.
            for _, fd, _ in children:
                os.close(fd)
            for pid, _, _ in children:
                os.waitpid(pid, 0)


def _fork_part(part: Sequence, lines: Callable[[Sequence], Iterable[str]]) -> tuple[int, int]:
    """Fork a child that sends the text ``lines(part)`` through a pipe and
    exits 0, or 1 on any exception; return its pid and the read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # The child leaves only by os._exit: no exception, buffer flush or exit
    # handler of the parent's runs here.
    try:
        import gc  # only a child needs it: importing this module loads nothing numpy does not

        gc.disable()  # a collection here could finalize objects the parent still uses
        os.close(read_fd)
        text = memoryview("".join(lines(part)).encode("utf-8"))
        while text:
            text = text[os.write(write_fd, text) :]
        os._exit(0)
    finally:
        os._exit(1)
