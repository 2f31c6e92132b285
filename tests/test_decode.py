"""``load_dataset`` decodes a line with orjson unless the two decoders could
read it differently, and then with json, so that every result and every
error is json's. Each test compares it with ``frozen_load_dataset``, the
loader built on ``json.loads`` alone, on the same file text: equal pages
(float bits included, through ``repr``), equal ``IngestStats``, the same
kept line or None per page, and the same ``DatasetError`` text.

The inputs are lines the writer makes, mutated where the decoders part:
repeated keys, integers of 19-25 digits in any field, ``Infinity``,
``NaN`` and ``1e400``, lone-surrogate escapes, a byte order mark, control
characters and decimal literals next to the midpoint of two floats."""

import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutfusion import dataset_io
from layoutfusion.dataset_io import KINDS, DatasetError, IngestStats, file_sha256, load_dataset, save_dataset
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import (
    PROVENANCE_LLM_SOFT,
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from layoutfusion.simulator import SimConfig, simulate_dataset
from layoutfusion.taxonomy import DOCLAYNET

from generators import random_dataset_page


def frozen_load_dataset(path, stats: IngestStats, *, digests=(), sources: list | None = None, kinds=KINDS) -> list:
    """``load_dataset`` as it was before orjson: each stripped line of the
    UTF-8 text through ``json.loads``, then the one page parser."""
    pages, seen = [], set()
    proven = sources is not None and bool(digests) and file_sha256(path) in digests
    unread = frozenset(KINDS) - frozenset(kinds) if sources is None or proven else frozenset()
    ingest = dataset_io._Ingest(stats, DOCLAYNET)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            ingest.exact = True
            try:
                page = dataset_io._page(obj, ingest, unread)
            except DatasetError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            if page.page_id in seen:
                raise DatasetError(f"{path}: line {lineno}: duplicate page_id {page.page_id!r}")
            seen.add(page.page_id)
            if sources is not None:
                cuts = dataset_io._cuts(line, page) if proven and ingest.exact else {}
                kept = bool(cuts) and line.count("[") == len(cuts) + sum(len(obj[kind]) for kind in cuts)
                if unread and not kept:
                    page = dataset_io._page(obj, dataset_io._Ingest(IngestStats(), DOCLAYNET))
                sources.append((page, line if kept else None))
            pages.append(page)
    return pages


def _outcome(load, path, listed: bool, kinds) -> tuple:
    """What ``load`` makes of ``path``: its pages, stats and kept lines, or its error."""
    stats, sources = IngestStats(), []
    digests = {file_sha256(path)} if listed else ()
    try:
        pages = load(path, stats=stats, digests=digests, sources=sources, kinds=kinds)
    except DatasetError as exc:
        return ("error", str(exc))
    kept = [(repr(page), None if line is None else str(line)) for page, line in sources]
    return repr(pages), stats, kept


def _assert_decoded_as_json_does(path, listed=True, kinds=KINDS) -> tuple:
    expected = _outcome(frozen_load_dataset, path, listed, kinds)
    assert _outcome(load_dataset, path, listed, kinds) == expected
    return expected


@pytest.fixture()
def orjson_lines(monkeypatch) -> list:
    """The lines ``load_dataset`` hands to ``orjson.loads``."""
    lines, loads = [], orjson.loads

    def spy(line):
        lines.append(line)
        return loads(line)

    monkeypatch.setattr(orjson, "loads", spy)
    return lines


def _near_halfway(draw) -> str:
    """A decimal literal at, or one unit in its last digit off, the midpoint
    of a float and the next, with 17 to 40 significant digits."""
    x = draw(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False))
    with localcontext() as exact:
        exact.prec = 1000  # enough for any midpoint of two floats in this range
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        literal = mid.quantize(Decimal(1).scaleb(mid.adjusted() - draw(st.integers(16, 39))))
        literal += draw(st.sampled_from([0, 1, -1])) * Decimal(1).scaleb(literal.as_tuple().exponent)
    fixed = abs(mid.adjusted()) < 25 and draw(st.booleans())
    return format(literal, "f" if fixed else "e")


def _integers():
    """An integer of 19 to 25 digits, as text."""
    return st.integers(10**18, 10**25 - 1).flatmap(lambda n: st.sampled_from([str(n), str(-n)]))


@st.composite
def _values(draw) -> str:
    """A JSON value's text where the two decoders may part."""
    kind = draw(st.sampled_from(["integer", "special", "surrogate", "halfway", "plain"]))
    if kind == "integer":
        return draw(_integers())
    if kind == "special":
        return draw(st.sampled_from(["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1e-400", "-0.0"]))
    if kind == "surrogate":
        return draw(st.sampled_from(['"\\ud800"', '"a\\udc00b"', '"\\ud83d\\ude00"', '"\\uDBFF"']))
    if kind == "halfway":
        return _near_halfway(draw)
    return draw(st.sampled_from(["0.5", "1", "true", "null", '"text"', "[]", "{}", '"fused"']))


# A field's value (not an array), and a number in an array: a bbox coordinate.
_FIELD_VALUE = re.compile(r'"(\w+)":(-?\d[\d.eE+-]*|"(?:[^"\\]|\\.)*"|true|false|null|Infinity)')
_COORDINATE = re.compile(r"(?<=[\[,])-?\d[\d.eE+-]*")
_KEYS = ("page_id", "ocr_blocks", "teacher", "llm", "ground_truth", "refined", "bbox", "type", "text", "is_bold",
         "confidence", "coord_var", "score", "q_text", "q_spatial", "provenance", "smoothing")


@st.composite
def _mutations(draw):
    """One edit of a line's text: (line index, function of the text)."""
    at = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["value", "integer", "repeat-first", "repeat-last", "bom", "control"]))
    if kind in ("value", "integer"):
        value = draw(_integers() if kind == "integer" else _values())

        def edit(text):  # first a field the line holds, then one of its values
            spans = {"bbox": [m.span() for m in _COORDINATE.finditer(text)]}
            for m in _FIELD_VALUE.finditer(text):
                spans.setdefault(m[1], []).append(m.span(2))
            fields = sorted(field for field in spans if spans[field])
            field = spans[fields[at % len(fields)]]
            lo, hi = field[at // len(fields) % len(field)]
            return text[:lo] + value + text[hi:]
    elif kind.startswith("repeat"):
        entry = f'"{draw(st.sampled_from(_KEYS))}":{draw(_values())}'

        def edit(text):  # the repeat before the object's first key loses; before its "}", wins
            marks = [m.start() for m in re.finditer(r"\{" if kind == "repeat-first" else r"\}", text)]
            i = marks[at % len(marks)]
            return text[: i + 1] + entry + "," + text[i + 1 :] if kind == "repeat-first" else text[:i] + "," + entry + text[i:]
    elif kind == "bom":
        def edit(text):
            return "\ufeff" + text
    else:
        char = draw(st.sampled_from(["\x00", "\x01", "\t", "\x0b", "\x0c", "\x1f", "\x7f"]))

        def edit(text):
            return text[: at % len(text)] + char + text[at % len(text) :]
    return draw(st.integers(0, 3)), edit


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    mutations=st.lists(_mutations(), min_size=1, max_size=3),
    listed=st.booleans(),
    kinds=st.sampled_from([KINDS, ("teacher", "llm"), ("ocr_blocks",), ()]),
)
def test_load_dataset_decodes_every_line_as_json_does(tmp_path_factory, seed, mutations, listed, kinds):
    path = tmp_path_factory.mktemp("decode") / "dataset.jsonl"
    rng = np.random.default_rng(seed)
    save_dataset([random_dataset_page(rng, f"p{i}") for i in range(4)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, edit in mutations:
        lines[index] = edit(lines[index])
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _assert_decoded_as_json_does(path, listed, kinds)


def _value_spans(text: str) -> list[tuple[int, int]]:
    """Where each value of a writer's line lies: each field's and each coordinate."""
    return [m.span(2) for m in _FIELD_VALUE.finditer(text)] + [m.span() for m in _COORDINATE.finditer(text)]


def _full_line(tmp_path) -> str:
    """The writer's line of a page holding one record of every kind."""
    box, text = BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text")
    page = Page(
        "p", ocr_blocks=(OcrBlock(box, "body text", False),), teacher=(TeacherPrediction(box, text, 0.9, 1e-4),),
        llm=(LlmRegion(box, text, 0.8, 0.9, 0.7),), ground_truth=(GroundTruthAnnotation(box, text),),
        refined=(FusedLabel(box, text, 0.8, PROVENANCE_LLM_SOFT, 0.1),),
    )
    save_dataset([page], tmp_path / "full.jsonl")
    return (tmp_path / "full.jsonl").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("integer", ["9223372036854775807", "9223372036854775808", "-9223372036854775809",
                                     "18446744073709551616", "1234567890123456789012345"])
def test_a_long_integer_in_any_field_is_decoded_as_json_does(tmp_path, integer):
    """Each value of a line, the text, provenance and page id included, in turn."""
    line = _full_line(tmp_path)
    spans = _value_spans(line)
    assert len(spans) == 35  # 15 field values and 5 boxes
    path = tmp_path / "dataset.jsonl"
    for lo, hi in spans:
        path.write_text(line[:lo] + integer + line[hi:] + "\n", encoding="utf-8")
        _assert_decoded_as_json_does(path)


_PAGE = '{"page_id":"p","ocr_blocks":[%s],"teacher":[%s],"llm":[]}'
_BLOCK = '{"bbox":[0.1,0.1,0.4,0.2],"text":%s,"is_bold":false}'
_TEACHER = '{"type":"text","bbox":[0.1,0.1,%s,0.2],"confidence":%s,"coord_var":%s}'

# Lines the decoders could read differently, each with whether orjson.loads
# is tried first: json decodes each, and its result or error is kept.
KNOWN_DIFFERENCES = {
    "infinite variance": (_PAGE % ("", _TEACHER % ("0.4", "0.9", "Infinity")), True),
    "NaN confidence": (_PAGE % ("", _TEACHER % ("0.4", "NaN", "null")), True),
    "1e400 coordinate": (_PAGE % ("", _TEACHER % ("1e400", "0.9", "null")), True),
    "lone surrogate escape": (_PAGE % (_BLOCK % '"\\ud800"', ""), True),
    "byte order mark": ("\ufeff" + _PAGE % ("", ""), True),
    "malformed": (_PAGE % ("", "") + ",", True),
    "30-digit text": (_PAGE % (_BLOCK % "123456789012345678901234567890", ""), False),
    "19-digit coordinate": (_PAGE % ("", _TEACHER % ("9223372036854775808", "0.9", "null")), False),
    "negative 20-digit variance": (_PAGE % ("", _TEACHER % ("0.4", "0.9", "-18446744073709551616")), False),
    "19-digit exponent": (_PAGE % ("", _TEACHER % ("4e-0000000000000000001", "0.9", "null")), False),
    "5000-digit text": (_PAGE % (_BLOCK % ("7" * 5000), ""), False),
    "514 openers": (_PAGE % (",".join([_BLOCK % '"x"'] * 255), ""), False),
    "600 deep": (_PAGE[:-1] % ("", "") + ',"extra":' + "[" * 600 + "]" * 600 + "}", False),
}


@pytest.mark.parametrize("line, tried", KNOWN_DIFFERENCES.values(), ids=KNOWN_DIFFERENCES.keys())
def test_each_known_difference_is_decoded_by_json(tmp_path, orjson_lines, line, tried):
    path = tmp_path / "dataset.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    _assert_decoded_as_json_does(path)
    assert (orjson_lines != []) == tried


def test_a_fraction_of_many_digits_is_decoded_by_orjson(tmp_path, orjson_lines):
    """repr writes 0.00012087799940199012 for a float near 1.2e-4: a run of
    20 digits after the decimal point, which both decoders read as one float."""
    line = _PAGE % ("", _TEACHER % ("0.4", "0.9", "0.00012087799940199012"))
    path = tmp_path / "dataset.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    pages, stats, kept = _assert_decoded_as_json_does(path)
    assert kept[0][1] == line
    assert orjson_lines == [line]


def test_a_512_opener_line_is_decoded_by_orjson(tmp_path, orjson_lines):
    line = _PAGE % (",".join([_BLOCK % '"x"'] * 254), "")
    assert line.count("[") + line.count("{") == dataset_io._MAX_OPENERS
    path = tmp_path / "dataset.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    _assert_decoded_as_json_does(path)
    assert orjson_lines == [line]


def test_simulated_lines_are_all_decoded_by_orjson(tmp_path, orjson_lines):
    path = tmp_path / "dataset.jsonl"
    config = SimConfig(pages=40, regions_min=36, regions_max=48, emit_ocr_stubs=True, emit_coordinate_variance=True)
    save_dataset(simulate_dataset(config), path)
    _assert_decoded_as_json_does(path)
    assert orjson_lines == path.read_text(encoding="utf-8").splitlines()


def test_orjson_is_not_imported_with_the_package():
    """orjson imports zoneinfo: ``import layoutfusion`` leaves it to the first load."""
    code = "import sys, layoutfusion.cli; print('orjson' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dataset_io.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
