"""Dataset interchange: validation errors and bit-exact round-trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from layoutfusion.dataset_io import DatasetError, IngestStats, load_dataset, save_dataset
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import LlmRegion, Page, TeacherPrediction
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
