"""Ingest parses each record once: it builds one box per record and, for
each kind that names a category, looks one category up per record. The
benchmark counts both by rebinding ``BoundingBox.__post_init__`` and
``Taxonomy.category`` on their classes, and so does this test."""

import json
from dataclasses import replace

from layoutfusion.dataset_io import load_dataset, page_to_dict
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.simulator import SimConfig, simulate_dataset
from layoutfusion.taxonomy import Taxonomy

FIELDS = ("ocr_blocks", "teacher", "llm", "ground_truth", "refined")


def _count_calls(monkeypatch, cls, attr: str) -> list:
    calls = []
    original = vars(cls)[attr]

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def test_each_record_builds_one_box_and_looks_up_one_category(tmp_path, monkeypatch):
    pages = simulate_dataset(SimConfig(pages=6, regions_min=2, regions_max=4, emit_ocr_stubs=True,
                                       emit_coordinate_variance=True, seed=4))
    objs = [page_to_dict(replace(p, refined=tuple(refine_pseudo_labels(p)))) for p in pages]
    # Records whose values need converting or clamping: an integer
    # coordinate, an exact zero and an integer quality.
    objs[0]["llm"][0]["bbox"][0] = 0
    objs[0]["llm"][0]["q_text"] = 1
    objs[0]["teacher"][0]["bbox"][1] = 0.0
    path = tmp_path / "dataset.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")

    boxes = _count_calls(monkeypatch, BoundingBox, "__post_init__")
    lookups = _count_calls(monkeypatch, Taxonomy, "category")
    loaded = load_dataset(path)

    records = {field: sum(len(getattr(page, field) or ()) for page in loaded) for field in FIELDS}
    assert len(loaded) == len(objs) and all(records.values())
    assert len(boxes) == sum(records.values())
    assert len(lookups) == sum(records.values()) - records["ocr_blocks"]
