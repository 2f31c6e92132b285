"""JSON-Lines dataset interchange: one page per line.

Region objects use the ``{"type", "bbox", "score"}`` schema; teacher
entries carry ``confidence`` (and optional ``coord_var``) instead of
``score``, text regions add ``q_text``/``q_spatial``, refined labels add
``provenance`` and ``smoothing``. Floats are serialized with full
round-trip precision so save followed by load is the identity.

A page's line is what ``save_dataset`` writes from one ``%`` line
template per record kind (OCR block, teacher, text region, ground truth,
refined label), each kept next to that kind's parser: compact JSON, keys
in line order. Every number a record holds is a float (``schema.record``
converts or refuses any other), which ``%r`` writes as json's encoder
does (+inf, the one non-finite number a record admits, becomes
``Infinity``, and an absent ``coord_var`` is cut); strings go through
``json.encoder.encode_basestring_ascii``, json's own escaper. The tests
compare these bytes with json's encoding of the page object that
``tests/oracles.py`` builds, the reference. ``regions_line`` writes a
heuristics regions line the same way, from the text-region template plus
``"source"``.

``fuse`` and ``heuristics`` copy each record kind of a loaded page they
left unchanged from its input line, and template the rest, when that text
is the template writer's: the file's sha256, taken before parsing, and
``LINE_FORMAT`` (the tag of the templates and line skeleton) match a sibling
``*_manifest.json``, ingest converted and clamped nothing on the page, and
the line holds each kind's key once, in line order. Else it is templated.

``load_dataset`` decodes each line with orjson, and with ``json.loads``
each line on which the two could differ (``_decode``): a line orjson
refuses, one with a run of 19 or more digits not after a decimal point
(orjson 3.8 reads an integer outside [-2**63, 2**64) as a float) and one of
more than ``_MAX_OPENERS`` ``[`` and ``{``. So every value, error and kept
line is json's. A line with a byte that is not UTF-8, or nested too deeply
for json, raises DatasetError naming the file and the line.

Finite coordinates are clamped into [0, 1] at ingest with a warning
counter; non-finite ones (NaN, Infinity) and boxes that remain invalid
after clamping (x1 >= x2, y1 >= y2) are rejected with an error naming
the page and field: the first fault in field order (bbox, type, then the
rest). Every record of every kind is checked. A kind the caller does not
read, whose records its parser would take as read, may be left ``Unbuilt``
(``load_dataset``); any other record goes through its kind's one parser,
which converts a value not of its final type with ``float()``, ``str()``
or ``bool()`` (and the page is no longer copied).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .geometry import BoundingBox, clamp_coordinates
from .model import (
    _PROVENANCES,
    PROVENANCE_LLM_SOFT,
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from .taxonomy import DOCLAYNET, Taxonomy

__all__ = ["DatasetError", "IngestStats", "Unbuilt", "load_dataset", "save_dataset"]

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


@dataclass(frozen=True)
class Unbuilt:
    """A record kind checked and not built: reading it raises TypeError, and ``save_dataset`` can only copy it."""

    kind: str

    def _read(self, *_):
        raise TypeError(f"the {self.kind!r} records were checked but not built: load them with {self.kind!r} in kinds")

    __iter__ = __len__ = __getitem__ = _read


class _Ingest:
    """What the record parsers and checks read besides the record, and whether
    the parsers used each value of a page as read (``exact``: nothing converted)."""

    __slots__ = ("stats", "taxonomy", "names", "exact")

    def __init__(self, stats: IngestStats, taxonomy: Taxonomy) -> None:
        self.stats, self.taxonomy, self.names, self.exact = stats, taxonomy, frozenset(taxonomy.names), True

    def convert(self, kind: type, value):
        """``kind(value)``, for a value not already of type ``kind``."""
        self.exact = False
        return kind(value)


def _exact_region(raw, names: frozenset | None) -> bool:
    """Whether ``_box`` takes the bbox of the object ``raw`` as read and its type is in ``names`` (unless None)."""
    if type(raw) is not dict or type(bbox := raw.get("bbox")) is not list or len(bbox) != 4:
        return False
    x1, y1, x2, y2 = bbox
    return (
        type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float
        and 0.0 < x1 < x2 <= 1.0 and 0.0 < y1 < y2 <= 1.0 and (x2 - x1) * (y2 - y1) > 0.0
        and (names is None or type(name := raw.get("type")) is str and name in names)
    )


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
        box = BoundingBox.from_array(coords)
    except ValueError as exc:
        raise _Fault(f" bbox invalid: {exc}") from exc
    if list(map(repr, coords)) != list(map(repr, bbox)):  # -0.0, an int or a clamped value: not as read
        ingest.exact = False
    return box


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
# any other is converted with float(), str() or bool() (``_Ingest.convert``).
#
# Next to each parser is its check, true only of a record the parser takes as
# read (nothing converted, clamped or rejected), and the line template of its
# kind: the record's compact JSON text, numbers through %r and strings
# (already escaped) through %s.


def _ocr_block(raw: dict, ingest: _Ingest) -> OcrBlock:
    text = raw.get("text", "")
    is_bold = raw.get("is_bold", False)
    return OcrBlock(
        _box(raw, ingest),
        text if type(text) is str else ingest.convert(str, text),
        is_bold if type(is_bold) is bool else ingest.convert(bool, is_bold),
    )


def _exact_ocr_block(raw, _names: frozenset) -> bool:  # an OCR block names no category
    return _exact_region(raw, None) and type(raw.get("text", "")) is str and type(raw.get("is_bold", False)) is bool


_OCR_BLOCK_LINE = '{"bbox":[%r,%r,%r,%r],"text":%s,"is_bold":%s}'


def _teacher(raw: dict, ingest: _Ingest) -> TeacherPrediction:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    confidence = raw["confidence"]
    coord_var = raw.get("coord_var")
    return TeacherPrediction(
        box,
        category,
        confidence if type(confidence) is float else ingest.convert(float, confidence),
        coord_var if coord_var is None or type(coord_var) is float else ingest.convert(float, coord_var),
    )


def _exact_teacher(raw, names: frozenset) -> bool:
    return (
        _exact_region(raw, names) and type(confidence := raw.get("confidence")) is float and 0.0 < confidence < 1.0
        and ((var := raw.get("coord_var")) is None or type(var) is float and var >= 0.0)
    )


# An absent coord_var, written as None, is cut from the page's line.
_TEACHER_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"confidence":%r,"coord_var":%r}'


def _text_region(raw: dict, ingest: _Ingest) -> LlmRegion:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    score = raw["score"]
    score = score if type(score) is float else ingest.convert(float, score)
    q_text = raw.get("q_text", 1.0)
    q_text = q_text if type(q_text) is float else ingest.convert(float, q_text)
    q_spatial = raw.get("q_spatial", 1.0)
    return LlmRegion(
        box, category, score, q_text, q_spatial if type(q_spatial) is float else ingest.convert(float, q_spatial)
    )


def _exact_text_region(raw, names: frozenset) -> bool:
    return (
        _exact_region(raw, names) and type(score := raw.get("score")) is float and 0.0 < score < 1.0
        and type(q_text := raw.get("q_text", 1.0)) is float and 0.0 < q_text <= 1.0
        and type(q_spatial := raw.get("q_spatial", 1.0)) is float and 0.0 < q_spatial <= 1.0
        and 0.0 < q_text * q_spatial and 1.0 / (q_text * q_spatial) < math.inf
    )


_TEXT_REGION_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r],"score":%r,"q_text":%r,"q_spatial":%r}'


def _ground_truth(raw: dict, ingest: _Ingest) -> GroundTruthAnnotation:
    return GroundTruthAnnotation(_box(raw, ingest), _category(raw, ingest))


_GROUND_TRUTH_LINE = '{"type":%s,"bbox":[%r,%r,%r,%r]}'


def _refined_label(raw: dict, ingest: _Ingest) -> FusedLabel:
    box = _box(raw, ingest)
    category = _category(raw, ingest)
    score = raw["score"]
    score = score if type(score) is float else ingest.convert(float, score)
    provenance = raw["provenance"]
    provenance = provenance if type(provenance) is str else ingest.convert(str, provenance)
    smoothing = raw.get("smoothing", 0.0)
    return FusedLabel(
        box, category, score, provenance, smoothing if type(smoothing) is float else ingest.convert(float, smoothing)
    )


def _exact_refined_label(raw, names: frozenset) -> bool:
    return (
        _exact_region(raw, names) and type(score := raw.get("score")) is float and 0.0 < score < 1.0
        and type(provenance := raw.get("provenance")) is str and provenance in _PROVENANCES
        and type(smoothing := raw.get("smoothing", 0.0)) is float and 0.0 <= smoothing < 1.0
        and (smoothing == 0.0 or provenance == PROVENANCE_LLM_SOFT)
    )


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


# The record kinds in line order, each with its parser and its check. The first
# three load as () when absent, the last two as None when absent or null.
_PARSERS = (
    ("ocr_blocks", _ocr_block, _exact_ocr_block),
    ("teacher", _teacher, _exact_teacher),
    ("llm", _text_region, _exact_text_region),
    ("ground_truth", _ground_truth, _exact_region),
    ("refined", _refined_label, _exact_refined_label),
)
KINDS = tuple(kind for kind, *_ in _PARSERS)
_OPTIONAL = KINDS[3:]


def _page(obj: dict, ingest: _Ingest, unread: frozenset = frozenset()) -> Page:
    if not isinstance(obj, dict):
        raise DatasetError("page record must be a JSON object")
    page_id = obj.get("page_id")
    if not isinstance(page_id, str) or not page_id:
        raise DatasetError("page record missing non-empty 'page_id'")
    fields = []
    for kind, parse, exact in _PARSERS:
        items = obj.get(kind, None if kind in _OPTIONAL else [])
        if items is None and kind in _OPTIONAL:
            fields.append(None)
        elif kind in unread and type(items) is list and all(map(exact, items, repeat(ingest.names))):
            fields.append(Unbuilt(kind))
        else:
            fields.append(_records(items, kind, page_id, parse, ingest))
    ingest.stats.pages += 1
    return Page(page_id, *fields)


# Which bytes of a line _decode reads: a digit as "0", an opener ("[" or "{") as "[".
_SHAPE = bytes.maketrans(b"123456789{", b"000000000[")
_LONG_RUN = b"0" * 19  # 19 digits: an integer of 19 or more may lie outside [-2**63, 2**64)
# json.loads refuses a depth near sys.getrecursionlimit() (1 000 by default)
# less its caller's stack depth; orjson 3.8.3 takes any depth, and overflows
# the C stack near a million. A line with more openers than this goes to json.
_MAX_OPENERS = 512


def _decode(line: str, loads: Callable[[str], object]):
    """``json.loads(line)``: the same object, or the same exception, for any line.

    ``loads`` (``orjson.loads``) decodes the line, unless the two could read
    it differently, when json does: a line ``loads`` refuses (``NaN``,
    ``Infinity``, ``1e400``, a lone-surrogate escape or malformed text), a
    line holding a run of 19 or more digits not after a decimal point (orjson
    reads an integer outside [-2**63, 2**64) as a float), and a line of more
    than ``_MAX_OPENERS`` openers. A fraction's digits may run on: both
    decoders round a decimal literal to the same float. A line holding a
    lone surrogate, as ``errors="surrogateescape"`` reads a byte that is not
    UTF-8, raises the UnicodeDecodeError of that byte.
    """
    try:
        shape = line.encode("utf-8").translate(_SHAPE)
    except UnicodeEncodeError:
        line.encode("utf-8", "surrogateescape").decode("utf-8")  # raises the error of the first bad byte
        raise
    at = shape.find(_LONG_RUN)
    while at > 0 and shape[at - 1] in b".0":  # a fraction's run, or inside a run already seen
        at = shape.find(_LONG_RUN, at + 1)
    if at == -1 and shape.count(b"[") <= _MAX_OPENERS:
        try:
            return loads(line)
        except ValueError:  # orjson.JSONDecodeError
            pass
    return json.loads(line)


class _ProvenLine(str):
    """A kept line, with ``cuts``: where each kind's array starts in it (``_cuts``)."""

    def __new__(cls, line: str, cuts: dict[str, slice]):
        self = super().__new__(cls, line)
        self.cuts = cuts
        return self


def load_dataset(
    path, taxonomy: Taxonomy = DOCLAYNET, stats: IngestStats | None = None, *, digests=(), sources: list | None = None,
    kinds: Iterable[str] = KINDS,
) -> list[Page]:
    """Load and validate a JSON-Lines dataset.

    Raises DatasetError naming the line for parse failures, or the page
    and field for invariant violations. Pass an IngestStats to observe
    the clamped-coordinate counter; it is also logged as a warning.

    With ``sources``, each page is also appended to it as ``(page, line)``
    for ``save_dataset``: ``line`` is the page's text if the file's sha256 is
    in ``digests`` (``manifest.listed_digests(path)``), ingest used each value
    as read and the line holds each kind's key once, in line order, else None.

    ``kinds`` names the record kinds the caller reads; every record of every
    kind is checked, and another kind whose records its parser takes as read
    is left ``Unbuilt`` without ``sources`` or on a page whose line is kept.
    """
    stats = stats if stats is not None else IngestStats()
    pages: list[Page] = []
    seen: set[str] = set()
    proven = sources is not None and bool(digests) and file_sha256(path) in digests
    if not (kinds := frozenset(kinds)) <= set(KINDS):
        raise ValueError(f"unknown record kinds {sorted(kinds - set(KINDS))}; the kinds are {', '.join(KINDS)}")
    unread = frozenset(KINDS) - kinds if sources is None or proven else frozenset()
    ingest = _Ingest(stats, taxonomy)
    import orjson  # here, not at module level: importing it costs every ``import layoutfusion`` about 5 ms

    # A byte that is not UTF-8 reads as a lone surrogate, which _decode reports with its line.
    # A line ends only at "\n": JSON takes a "\r" between tokens as whitespace.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode(line, orjson.loads)
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: not UTF-8: {exc}") from exc
            except ValueError as exc:  # JSONDecodeError, or an integer beyond the digit limit
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            except RecursionError:
                raise DatasetError(f"{path}: line {lineno}: JSON nested too deeply to decode") from None
            ingest.exact = True
            try:
                page = _page(obj, ingest, unread)
            except DatasetError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            if page.page_id in seen:
                raise DatasetError(f"{path}: line {lineno}: duplicate page_id {page.page_id!r}")
            seen.add(page.page_id)
            if sources is not None:
                cuts = _cuts(line, page) if proven and ingest.exact else {}
                # Each "[" outside the page id and OCR texts opens a kind's array or a
                # record's bbox: a repeated key, unchecked, adds one.
                kept = bool(cuts) and line.count("[") - _text_brackets(obj) == len(cuts) + sum(
                    len(obj[kind]) for kind in cuts
                )
                if unread and not kept:  # the page is written from its objects: build every kind
                    page = _page(obj, _Ingest(IngestStats(), taxonomy))
                sources.append((page, _ProvenLine(line, cuts) if kept else None))
            pages.append(page)
    if stats.clamped_coordinates:
        logger.warning(
            "clamped %d out-of-range coordinates while loading %s", stats.clamped_coordinates, path
        )
    return pages


_JSON_BOOL = ("false", "true")
_SOURCED_REGION_LINE = _TEXT_REGION_LINE[:-1] + ',"source":%s}'
# A page's line: its quoted id, then for each record kind present _ARRAY_KEY, the records and "]".
_PAGE_LINE = '{"page_id":%s%s}\n'
_ARRAY_KEY = ',"%s":['


def _text_region_args(regions) -> list[tuple]:
    return [
        (_quote(r.category.name), (b := r.box).x1, b.y1, b.x2, b.y2, r.score, r.q_text, r.q_spatial)
        for r in regions
    ]


# The record kinds in line order, each with its record template and its records' arguments.
_KINDS = (
    ("ocr_blocks", _OCR_BLOCK_LINE, lambda blocks: [
        ((b := o.box).x1, b.y1, b.x2, b.y2, _quote(o.text), _JSON_BOOL[o.is_bold]) for o in blocks
    ]),
    ("teacher", _TEACHER_LINE, lambda teacher: [
        (_quote(t.category.name), (b := t.box).x1, b.y1, b.x2, b.y2, t.confidence, t.coordinate_variance)
        for t in teacher
    ]),
    ("llm", _TEXT_REGION_LINE, _text_region_args),
    ("ground_truth", _GROUND_TRUTH_LINE, lambda truth: [
        (_quote(g.category.name), (b := g.box).x1, b.y1, b.x2, b.y2) for g in truth
    ]),
    ("refined", _REFINED_LABEL_LINE, lambda labels: [
        (_quote(f.category.name), (b := f.box).x1, b.y1, b.x2, b.y2, f.confidence, _quote(f.provenance), f.smoothing)
        for f in labels
    ]),
)
# The writer's format tag, which manifests record: a digest of the line
# skeleton and of each kind's name and template, in line order.
LINE_FORMAT = hashlib.sha256(
    repr((_PAGE_LINE, _ARRAY_KEY, [(kind, template) for kind, template, *_ in _KINDS])).encode("utf-8")
).hexdigest()[:16]


def file_sha256(path) -> str:
    """The sha256 of the bytes of the file ``path``, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _text_brackets(obj: dict) -> int:
    """How many "[" the page object ``obj`` holds inside strings: in its page id and its OCR texts."""
    return obj["page_id"].count("[") + sum(raw.get("text", "").count("[") for raw in obj.get("ocr_blocks", ()))


def _cuts(line: str, page: Page) -> dict[str, slice]:
    """Where each kind ``page`` holds starts in ``line``, at ``,"<kind>":[``. Empty unless the line is
    ``{"page_id":``, the quoted id, then those keys in line order, as a dataset line (not a regions line)."""
    kinds = [kind for kind in KINDS if getattr(page, kind) is not None]
    at = [len(head := '{"page_id":' + _quote(page.page_id))]
    for kind in kinds[1:]:
        at.append(line.find(_ARRAY_KEY % kind, at[-1] + 1))
    laid_out = -1 not in at and line.startswith(head) and line.startswith(_ARRAY_KEY % kinds[0], at[0])
    return dict(zip(kinds, map(slice, at, at[1:] + [len(line) - 1]))) if laid_out else {}


def _page_line(page: Page, loaded: Page | None = None, line: _ProvenLine | None = None) -> str:
    """``page``'s dataset line. Each record kind that ``page`` holds as the
    very same tuple (or ``Unbuilt``) as ``loaded`` is cut from ``line``,
    ``loaded``'s proven line; any other is written from its template."""
    kept = {}
    if line is not None:
        kept = {k: line[at] for k, at in line.cuts.items() if getattr(page, k) is getattr(loaded, k)}
    arrays = []
    for kind, template, args_of in _KINDS:
        records = getattr(page, kind)
        if records is None or kind in kept:
            arrays.append(kept.get(kind, ""))
            continue
        text = ",".join(map(template.__mod__, args_of(records)))
        if template is _TEACHER_LINE:  # %r writes +inf, the one non-finite number a record admits, as inf
            text = text.replace('"coord_var":inf}', '"coord_var":Infinity}').replace(',"coord_var":None}', "}")
        arrays += _ARRAY_KEY % kind, text, "]"
    return _PAGE_LINE % (_quote(page.page_id), "".join(arrays))


def regions_line(page: Page, source: str) -> str:
    """The JSON line ``{"page_id", "regions"}`` of ``page``'s text regions:
    each region's dataset record, then ``"source": source``."""
    source_text = _quote(source)
    regions = ",".join([_SOURCED_REGION_LINE % (*a, source_text) for a in _text_region_args(page.llm)])
    return '{"page_id":%s,"regions":[%s]}\n' % (_quote(page.page_id), regions)


def save_dataset(
    pages: Iterable[Page], path, *, make_pages: Callable | None = None, records: int = 0, sources=()
) -> None:
    """Write pages as JSON Lines with round-trip-exact floats.

    Raises ValueError, before the file is opened, naming the first
    ``page_id`` that repeats: ``load_dataset`` would reject the file.

    With ``sources`` from ``load_dataset``, one per page, each page copies
    from its source's line the record kinds it holds as the very same
    tuples (or ``Unbuilt``) as the source's page (``dataclasses.replace``
    keeps them); an ``Unbuilt`` kind it cannot so copy raises TypeError.

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
        pages = list(zip(pages, sources, strict=True) if sources else zip(pages, repeat((None, None))))
        # Only the records written from the templates count toward a split.
        records = sum(
            len(getattr(page, kind) or ())
            for page, (loaded, line) in pages
            for kind, *_ in _KINDS
            if line is None or getattr(page, kind) is not getattr(loaded, kind)
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def lines(part):
        if make_pages is not None:
            return map(_page_line, make_pages(part))
        return (_page_line(page) if line is None else _page_line(page, loaded, line) for page, (loaded, line) in part)

    _write_split(path, pages, lines, records)


# The fewest records (OCR blocks, teacher boxes, text regions, ground truth,
# refined labels) written from the templates, not copied, worth a process.
# In two in-process sweeps a two-way split beat the sequential save_dataset
# from 2 000-5 000 records, and with the pages simulated in the part from
# 750-2 000 (BENCH_21.json "break_even").
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
