"""Property tests of ingest: ``page_from_dict``, which reads every
record of a kind with that kind's one parser, against a frozen copy of
the parser as it was before (``oracles.frozen_page_from_dict``), plus
the load and round-trip invariants.

On any mutated record the two must return equal pages (saved to the
same bytes) with equal ``IngestStats``, or raise the same
``DatasetError``. So must ``load_dataset`` for every subset of the record
kinds it is asked to build: a kind it leaves ``Unbuilt`` must be one
whose every record holds the values the frozen parser built from it,
type and all. Two faults of the frozen parser are fixed and checked
as such: it let ``TypeError``/``OverflowError`` escape from ``float()``
on a null, array, object or huge-integer value, and it repeated the
page/record prefix when a required number was missing.
"""

import itertools
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutfusion.dataset_io import (
    DatasetError,
    IngestStats,
    Unbuilt,
    load_dataset,
    page_from_dict,
    page_to_dict,
    save_dataset,
)
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import FusedLabel, GroundTruthAnnotation, LlmRegion, OcrBlock, Page, TeacherPrediction
from layoutfusion.simulator import SimConfig, simulate_dataset
from layoutfusion.taxonomy import DOCLAYNET, PUBLAYNET

from oracles import frozen_page_from_dict

FIELDS = ("ocr_blocks", "teacher", "llm", "ground_truth", "refined")


def _base_pages() -> list[dict]:
    """Simulated pages with every region list filled, as saved."""
    pages = simulate_dataset(SimConfig(pages=4, regions_min=2, regions_max=3, emit_ocr_stubs=True,
                                       emit_coordinate_variance=True, seed=11))
    return [page_to_dict(replace(p, refined=tuple(refine_pseudo_labels(p)))) for p in pages]


BASE_PAGES = _base_pages()

# Values a record field may hold in a malformed line: ints, bools,
# numeric and other strings, non-finite and out-of-range floats, exact
# and signed zeros, sides whose area underflows, huge integers, nulls,
# arrays, objects, category names and provenances.
AWKWARD = [
    0, 1, 2, -1, True, False, "0.5", "1e-3", "abc", "nan", "inf", "", None, [], {}, [0.5], {"a": 1},
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 1.5, -0.5, 0.5, 0.999, 5e-324, 1e-160, 10**400,
    "text", "table", "caption", "mystery", "fused", "teacher", "llm-soft",
]
EXTRA_KEYS = ("type", "confidence", "coord_var", "score", "q_text", "q_spatial", "provenance", "smoothing",
              "text", "is_bold")
DELETE = object()
values = st.one_of(st.sampled_from(AWKWARD), st.floats(), st.integers(-3, 3), st.text(max_size=4))


@st.composite
def mutated_pages(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(BASE_PAGES))))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(FIELDS))
        records = obj.get(field)
        kind = draw(st.sampled_from(["value", "value", "coordinate", "bbox", "delete", "record", "list"]))
        if kind == "list" or not isinstance(records, list) or not records:
            obj[field] = draw(st.sampled_from([None, {}, "x", 3, [], [[0.1]], [None]]))
            continue
        i = draw(st.integers(0, len(records) - 1))
        record = records[i]
        if kind == "record" or not isinstance(record, dict):
            records[i] = draw(st.sampled_from([None, [], "x", 1.0, ["bbox"]]))
        elif kind == "delete":
            record.pop(draw(st.sampled_from(sorted(record) + ["bbox"])), None)
        elif kind == "bbox":
            record["bbox"] = draw(st.one_of(st.lists(values, max_size=5), values))
        elif kind == "coordinate" and isinstance(record.get("bbox"), list) and record["bbox"]:
            bbox = record["bbox"]
            bbox[draw(st.integers(0, len(bbox) - 1))] = draw(values)
        else:
            record[draw(st.sampled_from(sorted(set(record) | set(EXTRA_KEYS))))] = draw(values)
    return obj


def _outcome(parse, obj, taxonomy):
    stats = IngestStats()
    try:
        page = parse(obj, taxonomy, stats)
    except DatasetError as exc:
        return "error", str(exc), stats
    return "page", page, stats


def _undoubled(message: str) -> str:
    """The frozen parser's message with its repeated prefix removed."""
    return re.sub(r"^(page .*?: \w+\[\d+\]): \1 ", r"\1 ", message)


def _assert_same_outcome(obj, taxonomy):
    try:
        want = _outcome(frozen_page_from_dict, obj, taxonomy)
    except (TypeError, OverflowError):
        # The frozen parser's fault: the new one names the page and record.
        kind, message, _ = _outcome(page_from_dict, obj, taxonomy)
        assert kind == "error"
        assert re.match(rf"page {re.escape(repr(obj['page_id']))}: \w+\[\d+\]", message)
        return
    got = _outcome(page_from_dict, obj, taxonomy)
    assert got[0] == want[0]
    assert got[2] == want[2]
    if got[0] == "error":
        assert got[1] == _undoubled(want[1])
    else:
        assert got[1] == want[1]
        assert json.dumps(page_to_dict(got[1])) == json.dumps(page_to_dict(want[1]))


@pytest.mark.parametrize("field", FIELDS)
def test_every_single_substitution_matches_frozen_parser(field):
    """Each awkward value in each field and bbox coordinate of one
    record, and each key deleted, one at a time."""
    base = BASE_PAGES[0]
    record = base[field][0]
    edits = [(key, value) for key in sorted(set(record) | set(EXTRA_KEYS)) for value in AWKWARD]
    edits += [(key, DELETE) for key in record]
    edits += [(("bbox", i), value) for i in range(4) for value in AWKWARD]
    for key, value in edits:
        obj = json.loads(json.dumps(base))
        target = obj[field][0]
        if isinstance(key, tuple):
            target["bbox"][key[1]] = value
        elif value is DELETE:
            del target[key]
        else:
            target[key] = value
        _assert_same_outcome(obj, DOCLAYNET)


@pytest.mark.parametrize("field", FIELDS)
def test_converted_box_and_field_defaults_match_frozen_parser(field):
    """Each key deleted from a record whose bbox holds a JSON integer, so
    ``_box`` takes its converting branch; the parser's defaults for the
    missing field, or its missing-field error, are compared."""
    base = BASE_PAGES[0]
    for key in base[field][0]:
        obj = json.loads(json.dumps(base))
        target = obj[field][0]
        target["bbox"][2] = 1
        del target[key]
        _assert_same_outcome(obj, DOCLAYNET)


KINDS_SUBSETS = [frozenset(c) for r in range(len(FIELDS) + 1) for c in itertools.combinations(FIELDS, r)]
# What the parsers read for a field a record leaves out.
DEFAULTS = {"text": "", "is_bold": False, "q_text": 1.0, "q_spatial": 1.0, "smoothing": 0.0}


def _taken_as_read(raws, built) -> bool:
    """Whether each record of ``raws`` holds, type and all, the values the
    frozen parser built from it (``built``, as ``page_to_dict`` writes them)."""
    return all(
        json.dumps({key: raw.get(key, DEFAULTS.get(key)) for key in record}) == json.dumps(record)
        for raw, record in zip(raws, built, strict=True)
    )


def _assert_every_kinds_subset_matches(path, obj, taxonomy, subsets=KINDS_SUBSETS):
    """``obj``, written to ``path`` and loaded for each of ``subsets`` of the
    record kinds, gives the frozen parser's outcome: its error, or its stats
    and its page, with each kind equal or, only where every record is taken
    as read, ``Unbuilt``."""
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    try:
        want = _outcome(frozen_page_from_dict, obj, taxonomy)
        want = want[0], _undoubled(want[1]) if want[0] == "error" else want[1], want[2]
    except (TypeError, OverflowError):  # the frozen parser's fault: compare with the full parse
        want = _outcome(page_from_dict, obj, taxonomy)
    for kinds in subsets:
        stats = IngestStats()
        try:
            (page,) = load_dataset(path, taxonomy, stats, kinds=kinds)
        except DatasetError as exc:
            assert ("error", str(exc).removeprefix(f"{path}: line 1: "), stats) == want
            continue
        assert want[0] == "page" and stats == want[2]
        built = page_to_dict(want[1])
        for field in FIELDS:
            value = getattr(page, field)
            if isinstance(value, Unbuilt):
                assert field not in kinds and _taken_as_read(obj.get(field, []), built[field])
            else:
                assert value == getattr(want[1], field)


@settings(max_examples=400, deadline=None)
@given(mutated_pages(), st.sampled_from([DOCLAYNET, PUBLAYNET]))
def test_ingest_matches_frozen_parser(tmp_path_factory, obj, taxonomy):
    _assert_same_outcome(obj, taxonomy)
    _assert_every_kinds_subset_matches(tmp_path_factory.mktemp("kinds") / "one.jsonl", obj, taxonomy)


@pytest.mark.parametrize("field", FIELDS)
def test_a_kind_not_built_is_checked_for_every_single_substitution(tmp_path, field):
    """The edits of ``test_every_single_substitution_matches_frozen_parser``
    (integer, zero, signed-zero, non-finite and out-of-range numbers, types
    that are unknown, not strings or unhashable, ...) and a null kind, with
    the edited kind read, not read, and no kind read."""
    subsets = [frozenset(FIELDS), frozenset(FIELDS) - {field}, frozenset()]
    record = BASE_PAGES[0][field][0]
    edits = [(key, value) for key in sorted(set(record) | set(EXTRA_KEYS)) for value in AWKWARD]
    edits += [(key, DELETE) for key in record] + [(("bbox", i), value) for i in range(4) for value in AWKWARD]
    for key, value in edits:
        obj = json.loads(json.dumps(BASE_PAGES[0]))
        target = obj[field][0]
        if isinstance(key, tuple):
            target["bbox"][key[1]] = value
        elif value is DELETE:
            del target[key]
        else:
            target[key] = value
        _assert_every_kinds_subset_matches(tmp_path / "one.jsonl", obj, DOCLAYNET, subsets)
    _assert_every_kinds_subset_matches(tmp_path / "one.jsonl", {**BASE_PAGES[0], field: None}, DOCLAYNET)


def test_a_kind_not_read_is_left_unbuilt(tmp_path):
    """Every kind is left ``Unbuilt`` on some base page when nothing reads it."""
    path = tmp_path / "base.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in BASE_PAGES), encoding="utf-8")
    loaded = load_dataset(path, kinds=())
    assert {field for page in loaded for field in FIELDS if isinstance(getattr(page, field), Unbuilt)} == set(FIELDS)
    assert load_dataset(path) == [page_from_dict(obj) for obj in BASE_PAGES]


@pytest.mark.parametrize("q_text, q_spatial", [(1e-200, 1e-200), (5e-324, 0.5), (1e-160, 1e-160), (1e-160, 0.5)])
def test_every_kinds_subset_checks_the_text_quality_product(tmp_path, q_text, q_spatial):
    """A quality product that underflows to 0.0, or whose inverse overflows,
    is rejected whether or not the text regions are built; 1e-160 * 0.5 is
    accepted."""
    obj = json.loads(json.dumps(BASE_PAGES[0]))
    obj["llm"][0].update(q_text=q_text, q_spatial=q_spatial)
    _assert_every_kinds_subset_matches(tmp_path / "one.jsonl", obj, DOCLAYNET)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)
json_lines = st.one_of(
    mutated_pages().map(json.dumps),
    json_values.map(json.dumps),
    st.dictionaries(st.sampled_from(("page_id",) + FIELDS), json_values, max_size=6).map(json.dumps),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@settings(max_examples=300)
@given(json_lines)
def test_any_json_line_loads_or_raises_dataset_error(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("line") / "one.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        pages = load_dataset(path)
    except DatasetError:
        return
    assert all(isinstance(p, Page) for p in pages)


def test_integer_beyond_the_digit_limit_raises_dataset_error(tmp_path):
    path = tmp_path / "big.jsonl"
    path.write_text('{"page_id": "p", "teacher": [' + "9" * 5000 + "]}\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(path)


@pytest.mark.parametrize("value", [None, [0.9], {"p": 0.9}, 10**400])
def test_non_numeric_confidence_names_page_and_record(tmp_path, value):
    record = {"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "confidence": value}
    path = tmp_path / "conf.jsonl"
    path.write_text(json.dumps({"page_id": "c-page", "teacher": [record]}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"c-page.*teacher\[0\]: "):
        load_dataset(path)


def test_missing_number_is_named_once(tmp_path):
    path = tmp_path / "missing.jsonl"
    record = {"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2]}
    path.write_text(json.dumps({"page_id": "m-page", "llm": [record]}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value).endswith("line 1: page 'm-page': llm[0] missing field 'score'")


def test_area_underflow_is_rejected_at_ingest(tmp_path):
    path = tmp_path / "tiny.jsonl"
    record = {"type": "text", "bbox": [1e-200, 1e-200, 2e-200, 2e-200], "confidence": 0.9}
    path.write_text(json.dumps({"page_id": "t-page", "teacher": [record]}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"t-page.*teacher\[0\] bbox invalid: degenerate box: area"):
        load_dataset(path)


def test_negative_zero_coordinate_loads_as_zero(tmp_path):
    path = tmp_path / "zero.jsonl"
    record = {"type": "text", "bbox": [-0.0, -0.0, 0.4, 0.2]}
    path.write_text(json.dumps({"page_id": "z", "ground_truth": [record]}) + "\n", encoding="utf-8")
    (page,) = load_dataset(path)
    box = page.ground_truth[0].box
    assert math.copysign(1.0, box.x1) == math.copysign(1.0, box.y1) == 1.0


unit = st.floats(0.0, 1.0)
probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def unit_boxes(draw):
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    if not (x2 - x1) * (y2 - y1) > 0.0:
        x1, y1, x2, y2 = 0.0, 0.0, 1.0, 1.0
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def llm_regions(draw, categories):
    """Any region; qualities too small for a finite spatial variance
    1/(q_text*q_spatial), which LlmRegion rejects, become 1.0."""
    box, category, score = draw(unit_boxes()), draw(categories), draw(probability)
    quality = st.floats(0.0, 1.0, exclude_min=True)
    try:
        return LlmRegion(box, category, score, draw(quality), draw(quality))
    except ValueError:
        return LlmRegion(box, category, score, 1.0, 1.0)


@st.composite
def pages(draw, page_id):
    categories = st.sampled_from(DOCLAYNET.categories)
    teacher = draw(st.lists(st.builds(
        TeacherPrediction, unit_boxes(), categories, probability,
        st.one_of(st.none(), st.floats(0.0, allow_nan=False)),
    ), max_size=3))
    llm = draw(st.lists(llm_regions(categories), max_size=3))
    ocr = draw(st.lists(st.builds(OcrBlock, unit_boxes(), st.text(max_size=5), st.booleans()), max_size=3))
    ground_truth = draw(st.one_of(st.none(), st.lists(st.builds(GroundTruthAnnotation, unit_boxes(), categories),
                                                      max_size=3).map(tuple)))
    refined = draw(st.one_of(st.none(), st.lists(st.one_of(
        st.builds(FusedLabel, unit_boxes(), categories, probability, st.sampled_from(["fused", "teacher"])),
        st.builds(FusedLabel, unit_boxes(), categories, probability, st.just("llm-soft"),
                  st.floats(0.0, 1.0, exclude_max=True)),
    ), max_size=3).map(tuple)))
    return Page(page_id, tuple(ocr), tuple(teacher), tuple(llm), ground_truth, refined)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 10**6), unique=True, max_size=4).flatmap(
    lambda ids: st.tuples(*(pages(f"page-{i}") for i in ids))))
def test_save_then_load_is_identity(tmp_path_factory, saved):
    directory = tmp_path_factory.mktemp("round")
    first, second = directory / "a.jsonl", directory / "b.jsonl"
    save_dataset(saved, first)
    stats = IngestStats()
    loaded = load_dataset(first, stats=stats)
    assert loaded == list(saved)
    assert stats == IngestStats(pages=len(saved), clamped_coordinates=0)
    save_dataset(loaded, second)
    assert second.read_bytes() == first.read_bytes()
