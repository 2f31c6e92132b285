"""Dataset interchange: validation errors, bit-exact round-trips, and the
template writer against its ``json.dumps`` reference."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from layoutfusion import dataset_io
from layoutfusion.cli import main
from layoutfusion.dataset_io import DatasetError, IngestStats, load_dataset, page_to_dict, regions_line, save_dataset
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import (
    PROVENANCE_FUSED,
    PROVENANCE_LLM_SOFT,
    PROVENANCE_TEACHER,
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from layoutfusion.simulator import SimConfig, simulate_dataset
from layoutfusion.taxonomy import DOCLAYNET


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def page_line(page_id="p1", **overrides):
    obj = {
        "page_id": page_id,
        "ocr_blocks": [{"bbox": [0.1, 0.1, 0.4, 0.2], "text": "Figure 1: x", "is_bold": False}],
        "teacher": [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "confidence": 0.9, "coord_var": 1e-4}],
        "llm": [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "score": 0.8, "q_text": 0.9, "q_spatial": 0.7}],
        "ground_truth": [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2]}],
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_well_formed_round_trip_fields(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_lines(path, [page_line()])
        (page,) = load_dataset(path)
        assert page.page_id == "p1"
        assert page.teacher[0].confidence == 0.9
        assert page.teacher[0].coordinate_variance == 1e-4
        assert page.llm[0].q_text == 0.9
        assert page.ocr_blocks[0].text == "Figure 1: x"
        assert page.ground_truth[0].category.name == "text"

    def test_parse_failure_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [page_line(), "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_inverted_box_names_page(self, tmp_path):
        path = tmp_path / "inv.jsonl"
        write_lines(
            path,
            [page_line(page_id="bad-page", teacher=[{"type": "text", "bbox": [0.5, 0.1, 0.2, 0.2], "confidence": 0.9}])],
        )
        with pytest.raises(DatasetError, match="bad-page"):
            load_dataset(path)

    def test_degenerate_box_rejected(self, tmp_path):
        path = tmp_path / "deg.jsonl"
        write_lines(
            path,
            [page_line(teacher=[{"type": "text", "bbox": [0.2, 0.1, 0.2, 0.2], "confidence": 0.9}])],
        )
        with pytest.raises(DatasetError, match="teacher\\[0\\]"):
            load_dataset(path)

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        write_lines(path, [page_line(teacher=[{"type": "mystery", "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}])])
        with pytest.raises(DatasetError, match="mystery"):
            load_dataset(path)

    def test_confidence_out_of_range_names_field(self, tmp_path):
        path = tmp_path / "conf.jsonl"
        write_lines(path, [page_line(teacher=[{"type": "text", "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 1.2}])])
        with pytest.raises(DatasetError, match="confidence"):
            load_dataset(path)

    def test_nan_coordinate_variance_names_page_and_field(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        bad = [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "confidence": 0.9, "coord_var": float("nan")}]
        write_lines(path, [page_line(page_id="nan-page", teacher=bad)])
        with pytest.raises(DatasetError, match=r"nan-page.*teacher\[0\].*coordinate_variance"):
            load_dataset(path)

    def test_vanishing_region_quality_names_page_and_field(self, tmp_path):
        # 1 / (1e-200 * 1e-200) is no finite spatial variance.
        path = tmp_path / "q.jsonl"
        bad = [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "score": 0.8, "q_text": 1e-200, "q_spatial": 1e-200}]
        write_lines(path, [page_line(page_id="q-page", llm=bad)])
        with pytest.raises(DatasetError, match=r"q-page.*llm\[0\].*q_text\*q_spatial"):
            load_dataset(path)

    def test_infinite_coordinate_variance_gives_teacher_no_weight(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        teacher = [{"type": "text", "bbox": [0.1, 0.1, 0.4, 0.2], "confidence": 0.9, "coord_var": float("inf")}]
        llm = [{"type": "text", "bbox": [0.12, 0.1, 0.4, 0.22], "score": 0.8}]
        write_lines(path, [page_line(teacher=teacher, llm=llm)])
        (page,) = load_dataset(path)
        (label,) = refine_pseudo_labels(page)
        assert label.box == page.llm[0].box

    @pytest.mark.parametrize("field", ["ocr_blocks", "teacher", "llm", "ground_truth", "refined"])
    def test_non_object_record_names_page_and_field(self, tmp_path, field):
        path = tmp_path / "rec.jsonl"
        write_lines(path, [page_line(page_id="rec-page", **{field: [["bbox"]]})])
        with pytest.raises(DatasetError, match=rf"rec-page.*{field}\[0\] must be a JSON object"):
            load_dataset(path)

    def test_non_array_region_list_names_field(self, tmp_path):
        path = tmp_path / "arr.jsonl"
        write_lines(path, [page_line(page_id="arr-page", llm={"bbox": [0.1, 0.1, 0.4, 0.2]})])
        with pytest.raises(DatasetError, match="arr-page.*llm must be a JSON array"):
            load_dataset(path)

    def test_duplicate_page_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_lines(path, [page_line(), page_line()])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "bbox, name",
        [
            ("[NaN, 0.1, 0.4, 0.2]", "x1=nan"),
            ("[0.1, 0.1, Infinity, 0.2]", "x2=inf"),
            ("[0.1, -Infinity, 0.4, 0.2]", "y1=-inf"),
        ],
    )
    def test_non_finite_coordinate_names_page_and_field(self, tmp_path, bbox, name):
        # json.loads reads NaN and +-Infinity; they must not clamp to 0.0 or 1.0.
        path = tmp_path / "nonfinite.jsonl"
        line = '{"page_id": "nf-page", "teacher": [{"type": "text", "bbox": %s, "confidence": 0.9}]}' % bbox
        write_lines(path, [line])
        with pytest.raises(DatasetError, match=rf"nf-page.*teacher\[0\] bbox coordinate {name} is not finite"):
            load_dataset(path)

    def test_clamping_counted(self, tmp_path):
        path = tmp_path / "clamp.jsonl"
        write_lines(
            path,
            [page_line(llm=[{"type": "text", "bbox": [-0.05, 0.1, 0.4, 1.08], "score": 0.8}])],
        )
        stats = IngestStats()
        (page,) = load_dataset(path, stats=stats)
        assert stats.clamped_coordinates == 2
        assert page.llm[0].box == BoundingBox(0.0, 0.1, 0.4, 1.0)


class TestRoundTrip:
    def test_save_load_identity_on_simulated_data(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=20, emit_coordinate_variance=True, seed=3))
        path = tmp_path / "ds.jsonl"
        save_dataset(pages, path)
        loaded = load_dataset(path)
        assert loaded == pages

    def test_save_twice_is_byte_identical(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=10, seed=9))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(pages, a)
        save_dataset(pages, b)
        assert a.read_bytes() == b.read_bytes()

    def test_refined_labels_round_trip(self, tmp_path):
        tax = DOCLAYNET
        page = Page(
            page_id="r1",
            teacher=(TeacherPrediction(BoundingBox(0.1, 0.1, 0.3, 0.3), tax.category("text"), 0.75),),
            llm=(LlmRegion(BoundingBox(0.1, 0.1, 0.3, 0.3), tax.category("text"), 0.8),),
        )
        from layoutfusion.fusion import refine_pseudo_labels

        refined = replace(page, refined=tuple(refine_pseudo_labels(page)))
        path = tmp_path / "refined.jsonl"
        save_dataset([refined], path)
        (loaded,) = load_dataset(path)
        assert loaded == refined
        assert loaded.refined[0].provenance == "fused"

    def test_exotic_floats_survive(self, tmp_path):
        x = float(np.nextafter(0.1, 1.0))
        page = Page(
            page_id="f",
            teacher=(
                TeacherPrediction(
                    BoundingBox(x, 0.1, 0.9123456789123456, 0.7), DOCLAYNET.category("text"), 0.123456789123456
                ),
            ),
        )
        path = tmp_path / "float.jsonl"
        save_dataset([page], path)
        (loaded,) = load_dataset(path)
        assert loaded.teacher[0].box.x1 == x
        assert loaded.teacher[0].confidence == 0.123456789123456


# --- The template writer -------------------------------------------------


def reference_line(page):
    return json.dumps(page_to_dict(page), separators=(",", ":")) + "\n"


def reference_regions_line(page, source):
    obj = page_to_dict(page)
    regions = [{**record, "source": source} for record in obj["llm"]]
    return json.dumps({"page_id": obj["page_id"], "regions": regions}, separators=(",", ":")) + "\n"


# Quotes, backslashes, control characters, non-ASCII and astral characters,
# plus anything else hypothesis draws.
TEXT = st.text(st.sampled_from('a Z"\\/\x00\x1f\x7f\n\té€\U0001f600') | st.characters(), max_size=10)
PROBABILITY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def pages(draw, exact_floats=False):
    """A valid page. Unless ``exact_floats``, numbers may be ints (0 and 1
    in boxes, 1 for a quality, 0 for a smoothing, any variance) and box
    coordinates -0.0, which load turns into 0.0."""
    floats = st.floats(0.0, 1.0, exclude_max=True)

    def side():
        lo = draw(st.just(0.0) | floats)
        hi = draw(st.just(1.0) | st.floats(lo, 1.0, exclude_min=True))
        if not exact_floats:
            lo = draw(st.sampled_from([lo, 0, -0.0])) if lo == 0.0 else lo
            hi = draw(st.sampled_from([hi, 1])) if hi == 1.0 else hi
        return lo, hi

    def box():
        (x1, x2), (y1, y2) = side(), side()
        try:
            return BoundingBox(x1, y1, x2, y2)
        except ValueError:  # an area that underflows to 0.0
            reject()

    def number(floats, ints):
        return draw(floats if exact_floats else floats | ints)

    category = st.sampled_from(DOCLAYNET.categories)
    quality = st.floats(0.0, 1.0, exclude_min=True)
    variance = st.none() | st.floats(0.0) | st.just(math.inf)
    try:
        ocr = [OcrBlock(box(), draw(TEXT), draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
        teacher = [
            TeacherPrediction(box(), draw(category), draw(PROBABILITY), number(variance, st.integers(0, 10**20)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        llm = [
            LlmRegion(box(), draw(category), draw(PROBABILITY), number(quality, st.just(1)), number(quality, st.just(1)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        ground_truth = None
        if draw(st.booleans()):
            ground_truth = [GroundTruthAnnotation(box(), draw(category)) for _ in range(draw(st.integers(0, 3)))]
        refined = None
        if draw(st.booleans()):
            refined = []
            for _ in range(draw(st.integers(0, 3))):
                provenance = draw(st.sampled_from([PROVENANCE_FUSED, PROVENANCE_TEACHER, PROVENANCE_LLM_SOFT]))
                smoothing = st.floats(0.0, 1.0, exclude_max=True) if provenance == PROVENANCE_LLM_SOFT else st.just(0.0)
                refined.append(FusedLabel(box(), draw(category), draw(PROBABILITY), provenance, number(smoothing, st.just(0))))
    except ValueError:  # a quality product too small for its variance
        reject()
    return Page(
        draw(TEXT.filter(bool)),
        tuple(ocr),
        tuple(teacher),
        tuple(llm),
        None if ground_truth is None else tuple(ground_truth),
        None if refined is None else tuple(refined),
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(pages(), max_size=3, unique_by=lambda page: page.page_id), TEXT)
def test_written_lines_are_json_dumps_of_page_to_dict(tmp_path, written, source):
    path = tmp_path / "pages.jsonl"
    save_dataset(written, path)
    assert path.read_text(encoding="utf-8") == "".join(map(reference_line, written))
    for page in written:
        assert regions_line(page, source) == reference_regions_line(page, source)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(pages(exact_floats=True), max_size=3, unique_by=lambda page: page.page_id))
def test_save_load_save_is_byte_stable(tmp_path, written):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_dataset(written, first)
    save_dataset(load_dataset(first), second)
    assert second.read_bytes() == first.read_bytes()


def _forced(record, **fields):
    """``record`` with ``fields`` stored past its constructor's checks, as
    ``object.__setattr__`` can. The writer checks only numbers, so such a
    page meets the writer's own first use of the value (FORCED_WRITES)."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _text_page(**fields):
    block = _forced(OcrBlock(BoundingBox(0.1, 0.1, 0.4, 0.2)), **fields)
    return Page("p", ocr_blocks=(block,))


def _teacher_page(box=BoundingBox(0.1, 0.1, 0.4, 0.2), confidence=0.9, coordinate_variance=None):
    return Page("p", teacher=(TeacherPrediction(box, DOCLAYNET.category("text"), confidence, coordinate_variance),))


def _region_page(q_text=0.9):
    return Page("p", llm=(LlmRegion(BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text"), 0.8, q_text),))


OFF_TYPE_PAGES = {
    "np.float64 coordinate": _teacher_page(box=BoundingBox(np.float64(0.1), 0.1, 0.4, 0.2)),
    "np.float64 confidence": _teacher_page(confidence=np.float64(0.9)),
    "np.float64 variance": _teacher_page(coordinate_variance=np.float64(1e-4)),
    "np.float64 quality": _region_page(q_text=np.float64(0.9)),
    "bool coordinates": _teacher_page(box=BoundingBox(False, 0.1, True, 0.2)),
    "bool variance": _teacher_page(coordinate_variance=True),
    "bool quality": _region_page(q_text=True),
    "int text": _text_page(text=5),
    "list text": _text_page(text=["x", 1.5]),
    "object text": _text_page(text=object()),
    "np.bool_ is_bold": _text_page(is_bold=np.True_),
    "int is_bold": _text_page(is_bold=1),
    "int page_id": _forced(_teacher_page(), page_id=7),
}

# What the writer does with the forced pages: json's escaper raises on a
# string field that is not a str, the is_bold lookup raises on an np.bool_
# and writes an int flag as the bool it stands for, which is what
# load_dataset reads back from json.dumps' 1 too.
FORCED_WRITES = {
    "int text": TypeError("first argument must be a string, not int"),
    "list text": TypeError("first argument must be a string, not list"),
    "object text": TypeError("first argument must be a string, not object"),
    "np.bool_ is_bold": TypeError(r"tuple indices must be integers or slices, not numpy\.bool"),
    "int is_bold": reference_line(_text_page(is_bold=True)),
    "int page_id": TypeError("first argument must be a string, not int"),
}


@pytest.mark.parametrize(
    "page, forced", [pytest.param(page, FORCED_WRITES.get(key), id=key) for key, page in OFF_TYPE_PAGES.items()]
)
def test_off_type_values_give_json_dumps_bytes_or_its_type_error(tmp_path, page, forced):
    path = tmp_path / "page.jsonl"
    if isinstance(forced, TypeError):
        with pytest.raises(TypeError, match=str(forced)):
            save_dataset([page], path)
    elif forced is not None:
        save_dataset([page], path)
        assert path.read_text(encoding="utf-8") == forced
    else:
        try:
            want = reference_line(page)
        except TypeError as exc:
            with pytest.raises(TypeError, match=str(exc)):
                save_dataset([page], path)
        else:
            save_dataset([page], path)
            assert path.read_text(encoding="utf-8") == want
    assert regions_line(page, "heuristic") == reference_regions_line(page, "heuristic")


# Records save_dataset would write and load_dataset reject are refused
# where they are made: at the constructor, or at save for a repeated id.
@pytest.mark.parametrize("page_id", ["", 7, None, b"p"], ids=["empty", "int", "None", "bytes"])
def test_page_rejects_an_empty_or_non_str_page_id(page_id):
    with pytest.raises((TypeError, ValueError), match="page_id must be"):
        Page(page_id)


OFF_TYPE_OCR_FIELDS = {
    "tuple box": ("box", (0.1, 0.1, 0.2, 0.2)),
    "int text": ("text", 5),
    "None text": ("text", None),
    "np.bool_ is_bold": ("is_bold", np.True_),
    "int is_bold": ("is_bold", 1),
}


@pytest.mark.parametrize("field, value", OFF_TYPE_OCR_FIELDS.values(), ids=OFF_TYPE_OCR_FIELDS.keys())
def test_ocr_block_rejects_off_type_fields(field, value):
    fields = {"box": BoundingBox(0.1, 0.1, 0.2, 0.2), "text": "x", "is_bold": False, field: value}
    with pytest.raises(TypeError, match=f"OcrBlock {field} must be"):
        OcrBlock(**fields)


def test_save_dataset_rejects_a_repeated_page_id_before_writing(tmp_path):
    path = tmp_path / "pages.jsonl"
    with pytest.raises(ValueError, match="duplicate page_id 'a'"):
        save_dataset(iter([Page("a"), Page("b"), Page("a")]), path)
    assert not path.exists()


PIPELINE_CORPORA = {
    # The benchmark's two corpus shapes, small: OCR stubs with variances, and dense pages.
    "sparse": {"pages": 40, "regions_min": 4, "regions_max": 8, "emit_coordinate_variance": True,
               "emit_ocr_stubs": True, "seed": 2},
    "dense": {"pages": 8, "regions_min": 36, "regions_max": 48, "sigma_t": 0.004, "sigma_l": 0.006, "seed": 2},
}


@pytest.mark.parametrize("sim", PIPELINE_CORPORA.values(), ids=PIPELINE_CORPORA.keys())
def test_pipeline_pages_never_take_the_reference_writer(tmp_path, monkeypatch, sim):
    """Every page the commands write passes the template writer's check, so
    a numpy scalar that leaks into a record fails here."""
    written = []
    reference = dataset_io._json_line
    monkeypatch.setattr(dataset_io, "_json_line", lambda obj: written.append(obj) or reference(obj))
    (tmp_path / "sim.json").write_text(json.dumps(sim), encoding="utf-8")
    (tmp_path / "gate.json").write_text(json.dumps({"epochs": 2}), encoding="utf-8")
    dataset = str(tmp_path / "sim" / "dataset.jsonl")
    for argv in (
        ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")],
        ["fuse", "--dataset", dataset, "--out", str(tmp_path / "fuse")],
        ["train-gate", "--dataset", dataset, "--config", str(tmp_path / "gate.json"), "--hidden", "8",
         "--out", str(tmp_path / "gate")],
        ["fuse", "--dataset", dataset, "--gate", str(tmp_path / "gate" / "gate.json"), "--out", str(tmp_path / "gfuse")],
        ["heuristics", "--dataset", dataset, "--out", str(tmp_path / "heur")],
    ):
        assert main(argv) == 0
    assert written == []
    lines = [
        (tmp_path / name).read_text(encoding="utf-8").count("\n")
        for name in ("sim/dataset.jsonl", "fuse/refined.jsonl", "gfuse/refined.jsonl",
                     "heur/heuristic_dataset.jsonl", "heur/heuristic_regions.jsonl")
    ]
    assert lines == [sim["pages"]] * 5
    # The count sees a page that does take it.
    save_dataset([OFF_TYPE_PAGES["np.float64 confidence"]], tmp_path / "off.jsonl")
    assert len(written) == 1
