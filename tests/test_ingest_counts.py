"""Ingest parses each record once: it builds one box per record and, for
each kind that names a category, looks one category up per record. The
benchmark counts both by rebinding ``BoundingBox.__post_init__`` and
``Taxonomy.category`` on their classes, and so does this test. A kind the
caller does not read (``load_dataset``'s ``kinds``) is only checked: it
builds no box and looks up no category."""

import json
from dataclasses import replace

import pytest

from layoutfusion import dataset_io
from layoutfusion.dataset_io import Unbuilt, load_dataset, save_dataset
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.simulator import SimConfig, simulate_dataset
from layoutfusion.taxonomy import Taxonomy

from oracles import page_to_dict

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


def _dataset(tmp_path):
    """A simulated dataset with every kind filled, in which page 0's first
    teacher box (an exact zero) and first text region (an integer
    coordinate) fail their kinds' checks."""
    pages = simulate_dataset(SimConfig(pages=6, regions_min=2, regions_max=4, emit_ocr_stubs=True,
                                       emit_coordinate_variance=True, seed=4))
    objs = [page_to_dict(replace(p, refined=tuple(refine_pseudo_labels(p)))) for p in pages]
    objs[0]["llm"][0]["bbox"][0] = 0
    objs[0]["teacher"][0]["bbox"][1] = 0.0
    path = tmp_path / "dataset.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return path, objs


@pytest.mark.parametrize("kinds", [(), ("teacher", "llm"), ("ocr_blocks",), ("refined", "ground_truth"), FIELDS])
def test_only_the_kinds_read_build_boxes_and_look_up_categories(tmp_path, monkeypatch, kinds):
    """A kind outside ``kinds`` is checked and left unbuilt, except on a
    page where one of its records fails the check: that kind is parsed."""
    path, objs = _dataset(tmp_path)
    failing = {(0, "teacher"), (0, "llm")}
    boxes = _count_calls(monkeypatch, BoundingBox, "__post_init__")
    lookups = _count_calls(monkeypatch, Taxonomy, "category")
    loaded = load_dataset(path, kinds=kinds)

    built = {(i, field) for i in range(len(objs)) for field in FIELDS if field in kinds or (i, field) in failing}
    for i, page in enumerate(loaded):
        for field in FIELDS:
            assert isinstance(getattr(page, field), Unbuilt) == ((i, field) not in built)
    assert len(boxes) == sum(len(objs[i][field]) for i, field in built)
    assert len(lookups) == sum(len(objs[i][field]) for i, field in built if field != "ocr_blocks")


def test_reading_an_unbuilt_kind_raises_type_error_naming_it(tmp_path):
    path, _ = _dataset(tmp_path)
    page = load_dataset(path, kinds=("teacher",))[1]
    assert len(page.teacher) > 0
    for read in (iter, len, lambda records: records[0], list, bool):
        with pytest.raises(TypeError, match="'llm' records were checked but not built"):
            read(page.llm)


def test_save_dataset_refuses_to_template_an_unbuilt_kind(tmp_path):
    """Without a proven line to copy it from, an unbuilt kind cannot be
    written: save_dataset raises before it opens the file."""
    path, _ = _dataset(tmp_path)
    pages = load_dataset(path, kinds=("teacher", "llm"))
    out = tmp_path / "out.jsonl"
    with pytest.raises(TypeError, match="'ocr_blocks' records were checked but not built"):
        save_dataset(pages[1:], out)
    assert not out.exists()


def test_unknown_kinds_are_rejected(tmp_path):
    """``kinds`` is any iterable of kind names; a bare name is a string of letters."""
    path, _ = _dataset(tmp_path)
    for kinds in (("teacher", "gt"), "teacher"):
        with pytest.raises(ValueError, match="unknown record kinds"):
            load_dataset(path, kinds=kinds)
    assert load_dataset(path, kinds=iter(["teacher"])) == load_dataset(path, kinds=("teacher",))


def test_a_kept_line_is_cut_once_from_load_to_save(tmp_path, monkeypatch):
    """``load_dataset`` finds where each kind's array starts in a kept line,
    and ``save_dataset`` copies from those cuts without finding them again."""
    pages = simulate_dataset(SimConfig(pages=6, regions_min=2, regions_max=4, emit_ocr_stubs=True, seed=4))
    path = tmp_path / "dataset.jsonl"
    save_dataset(pages, path)
    cuts = _count_calls(monkeypatch, dataset_io, "_cuts")
    sources: list = []
    loaded = load_dataset(path, digests={dataset_io.file_sha256(path)}, sources=sources, kinds=("teacher", "llm"))
    assert all(line is not None for _, line in sources) and len(cuts) == len(pages)
    refined = [replace(page, refined=tuple(refine_pseudo_labels(page))) for page in loaded]
    save_dataset(refined, tmp_path / "refined.jsonl", sources=sources)
    assert len(cuts) == len(pages)
    assert (tmp_path / "refined.jsonl").read_text(encoding="utf-8") == "".join(
        map(dataset_io._page_line, [replace(p, refined=tuple(refine_pseudo_labels(p))) for p in load_dataset(path)])
    )
