"""The copy path of ``save_dataset``: ``fuse`` and ``heuristics`` copy each
record kind they leave unchanged from the line of a CLI-written input.

A copy is the writer's bytes only for a line that writer wrote
and that ingest read without converting or clamping a value. So every
output here must equal ``_page_line`` of the pages it loads to, whatever
the input: hand-formatted, edited after it was written, listed under
another format tag, or holding a page that ingest repaired.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutfusion import dataset_io, manifest
from layoutfusion.cli import main
from layoutfusion.dataset_io import IngestStats, Unbuilt, load_dataset, save_dataset
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import LlmRegion, OcrBlock, Page, TeacherPrediction
from layoutfusion.taxonomy import DOCLAYNET

from generators import random_dataset_page

KINDS = ("ocr_blocks", "teacher", "llm", "ground_truth", "refined")


def _template_bytes(pages) -> str:
    return "".join(map(dataset_io._page_line, pages))


def _assert_template_bytes(path: Path) -> None:
    assert path.read_text(encoding="utf-8") == _template_bytes(load_dataset(path))


def _sources(path: Path, stats: IngestStats | None = None) -> list:
    """What ``fuse`` and ``heuristics`` load: each page with its proven line or None."""
    sources: list = []
    load_dataset(path, stats=stats, digests=manifest.listed_digests(path), sources=sources)
    return sources


def _simulate(tmp_path: Path) -> Path:
    config = {"pages": 6, "seed": 4, "emit_ocr_stubs": True, "emit_coordinate_variance": True}
    (tmp_path / "sim.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")]) == 0
    return tmp_path / "sim" / "dataset.jsonl"


def _rewrite(tmp_path: Path, dataset: Path) -> list[Path]:
    """Run ``fuse`` and ``heuristics`` on ``dataset``; their dataset outputs."""
    assert main(["fuse", "--dataset", str(dataset), "--out", str(tmp_path / "fuse")]) == 0
    assert main(["heuristics", "--dataset", str(dataset), "--out", str(tmp_path / "heur")]) == 0
    return [tmp_path / "fuse" / "refined.jsonl", tmp_path / "heur" / "heuristic_dataset.jsonl"]


def _save_proven(pages, path: Path) -> None:
    """Save ``pages`` and list the file in a manifest, as a command does."""
    save_dataset(pages, path)
    manifest.write_manifest(path.parent, "simulate", {}, 0, [path.name], manifest.now_utc())


def test_a_cli_written_input_is_proven_and_its_rewrites_are_template_bytes(tmp_path):
    dataset = _simulate(tmp_path)
    assert all(line is not None for _, line in _sources(dataset))
    for output in _rewrite(tmp_path, dataset):
        _assert_template_bytes(output)
        assert all(line is not None for _, line in _sources(output))


def test_a_kind_the_page_shares_with_its_source_is_copied_from_the_line(tmp_path):
    """The copy takes the line's text as it is; only the kinds ``page``
    does not share with the loaded page are encoded."""
    dataset = _simulate(tmp_path)
    loaded, line = _sources(dataset)[0]
    refined = load_dataset(_rewrite(tmp_path, dataset)[0])[0].refined
    def mark(text):  # a teacher confidence as the writer never writes it
        return text.replace('"confidence":0.', '"confidence":0.000', 1)

    marked = dataset_io._ProvenLine(mark(line), dataset_io._cuts(mark(line), loaded))
    out = tmp_path / "out.jsonl"
    save_dataset([replace(loaded, refined=refined)], out, sources=[(loaded, marked)])
    assert out.read_text(encoding="utf-8") == mark(_template_bytes([replace(loaded, refined=refined)]))
    save_dataset([replace(loaded, teacher=loaded.teacher[1:], refined=refined)], out, sources=[(loaded, marked)])
    assert '"confidence":0.000' not in out.read_text(encoding="utf-8")


def test_a_proven_file_of_another_writer_is_templated(tmp_path):
    """heuristic_regions.jsonl is listed by its manifest, but its lines are
    not dataset lines: loaded as a dataset, each page holds no records."""
    _rewrite(tmp_path, _simulate(tmp_path))
    regions = tmp_path / "heur" / "heuristic_regions.jsonl"
    assert manifest.listed_digests(regions)
    assert main(["fuse", "--dataset", str(regions), "--out", str(tmp_path / "rfuse")]) == 0
    _assert_template_bytes(tmp_path / "rfuse" / "refined.jsonl")


def test_sources_must_pair_with_every_page(tmp_path):
    sources = _sources(_simulate(tmp_path))
    pages = [page for page, _ in sources]
    with pytest.raises(ValueError, match="zip"):
        save_dataset(pages, tmp_path / "out.jsonl", sources=sources[:-1])
    assert not (tmp_path / "out.jsonl").exists()


# Lines no writer of this package writes: spacing and key order, 1e-4 where
# repr writes 0.0001, int coordinates, a quality left to its default.
HAND_FORMATTED = [
    '{"teacher": [{"confidence": 0.9, "bbox": [0.1, 0.1, 0.4, 0.2], "type": "text"}], "page_id": "a", '
    '"llm": [], "ocr_blocks": []}',
    '{"page_id":"b","ocr_blocks":[],"teacher":[{"type":"text","bbox":[0.1,0.1,0.4,0.2],"confidence":0.9,'
    '"coord_var":1e-4}],"llm":[],"ground_truth":[]}',
    '{"page_id":"c","ocr_blocks":[{"bbox":[0,0.1,0.4,0.2],"text":"Figure 1: x","is_bold":false}],"teacher":[],'
    '"llm":[{"type":"text","bbox":[0.1,0.1,1,0.2],"score":0.8,"q_text":0.9}],"ground_truth":[]}',
]


@pytest.mark.parametrize("listed", [False, True], ids=["no-manifest", "manifest-lists-the-name"])
def test_a_hand_formatted_input_is_templated(tmp_path, listed):
    """With ``listed``, the file replaces a simulated dataset.jsonl whose
    manifest still lists that name, with the simulated file's digest."""
    dataset = _simulate(tmp_path) if listed else tmp_path / "hand" / "dataset.jsonl"
    dataset.parent.mkdir(exist_ok=True)
    dataset.write_text("".join(line + "\n" for line in HAND_FORMATTED), encoding="utf-8")
    assert len(manifest.listed_digests(dataset)) == listed
    assert [line for _, line in _sources(dataset)] == [None] * len(HAND_FORMATTED)
    for output in _rewrite(tmp_path, dataset):
        _assert_template_bytes(output)


def test_an_input_edited_after_it_was_written_is_templated(tmp_path):
    dataset = _simulate(tmp_path)
    text = dataset.read_text(encoding="utf-8")
    at = text.index('"confidence":0.') + len('"confidence":0.')
    edited = text[:at] + ("8" if text[at] == "9" else str(int(text[at]) + 1)) + text[at + 1 :]
    dataset.write_text(edited, encoding="utf-8")
    listed = manifest.listed_digests(dataset)
    assert listed and hashlib.sha256(edited.encode("utf-8")).hexdigest() not in listed
    assert [line for _, line in _sources(dataset)] == [None] * 6
    for output in _rewrite(tmp_path, dataset):
        _assert_template_bytes(output)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {**doc, "dataset_format": "0" * 16},
        lambda doc: {key: value for key, value in doc.items() if key != "dataset_format"},
        lambda doc: {**doc, "output_sha256": "not a mapping"},
        lambda doc: [doc],
    ],
    ids=["other-format-tag", "no-format-tag", "digests-not-a-mapping", "not-an-object"],
)
def test_a_manifest_of_another_format_proves_nothing(tmp_path, edit):
    dataset = _simulate(tmp_path)
    path = dataset.parent / "simulate_manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    assert manifest.listed_digests(dataset) == set()
    assert [line for _, line in _sources(dataset)] == [None] * 6
    for output in _rewrite(tmp_path, dataset):
        _assert_template_bytes(output)


def test_an_unparsable_manifest_proves_nothing(tmp_path):
    dataset = _simulate(tmp_path)
    (dataset.parent / "simulate_manifest.json").write_text("{", encoding="utf-8")
    assert manifest.listed_digests(dataset) == set()


# Listed lines that the writer does not lay out so: a repeated "ground_truth"
# key, whose first array (x1 > x2) json.loads drops unchecked, and the keys
# of a line out of line order.
MISLAID = [
    '{"page_id":"a","ocr_blocks":[],"teacher":[{"type":"text","bbox":[0.1,0.1,0.4,0.2],"confidence":0.9}],"llm":[],'
    '"ground_truth":[{"type":"text","bbox":[0.9,0.1,0.5,0.5]}],"ground_truth":[{"type":"text","bbox":[0.1,0.1,0.4,0.2]}]}',
    '{"page_id":"b","teacher":[{"type":"text","bbox":[0.1,0.1,0.4,0.2],"confidence":0.9}],"ocr_blocks":[],"llm":[],'
    '"ground_truth":[{"type":"text","bbox":[0.1,0.1,0.4,0.2]}]}',
]


def test_a_listed_line_with_a_repeated_or_misordered_key_is_templated(tmp_path):
    """A line is copied only when each kind's key appears once and in line
    order: else the copy could hold text that ingest never checked."""
    dataset = tmp_path / "hand" / "dataset.jsonl"
    dataset.parent.mkdir()
    dataset.write_text("".join(line + "\n" for line in MISLAID), encoding="utf-8")
    manifest.write_manifest(dataset.parent, "simulate", {}, 0, [dataset.name], manifest.now_utc())
    assert manifest.listed_digests(dataset)
    assert [line for _, line in _sources(dataset)] == [None, None]
    for output in _rewrite(tmp_path, dataset):
        _assert_template_bytes(output)
        assert "[0.9,0.1,0.5,0.5]" not in output.read_text(encoding="utf-8")


def test_a_bracket_inside_a_string_opens_no_array(tmp_path):
    """A "[" in an OCR text or a page id leaves a proven line kept, and a
    kind the caller does not read unbuilt, as on a page without one."""
    box, text = BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text")
    pages = [
        Page(page_id, ocr_blocks=(OcrBlock(box, ocr),), teacher=(TeacherPrediction(box, text, 0.9),))
        for page_id, ocr in (("a", "see 1"), ("b", "see [1]"), ("c[2]", "see 1"))
    ]
    path = tmp_path / "dataset.jsonl"
    _save_proven(pages, path)
    sources: list = []
    loaded = load_dataset(path, digests=manifest.listed_digests(path), sources=sources, kinds=("teacher", "llm"))
    assert [line is not None for _, line in sources] == [True] * 3
    assert [isinstance(page.ocr_blocks, Unbuilt) for page in loaded] == [True] * 3
    save_dataset(loaded, tmp_path / "copied.jsonl", sources=sources)
    assert (tmp_path / "copied.jsonl").read_bytes() == path.read_bytes()


def _box(**coords) -> BoundingBox:
    """A box with ``coords`` stored past the constructor's checks."""
    box = BoundingBox(0.1, 0.1, 0.4, 0.2)
    for name, value in coords.items():
        object.__setattr__(box, name, value)
    return box


def _teacher(box=None, **fields) -> TeacherPrediction:
    """A teacher prediction with ``fields`` stored past the constructor's checks."""
    teacher = TeacherPrediction(box or BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text"), 0.9)
    for name, value in fields.items():
        object.__setattr__(teacher, name, value)
    return teacher


def _region(**fields) -> LlmRegion:
    """A text region with ``fields`` stored past the constructor's checks."""
    region = LlmRegion(BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text"), 0.8)
    for name, value in fields.items():
        object.__setattr__(region, name, value)
    return region


# Pages whose line the writer writes, but which ingest converts or clamps
# on the way back, so the line's text is not what the writer writes. A
# record stores every number as a float; an int, which the encoder writes
# as an int, is stored here past the constructor, as an edited line would hold it.
REPAIRED = {
    "clamped coordinate": Page("r", teacher=(_teacher(_box(x2=1.5)),)),
    "negative zero": Page("r", teacher=(_teacher(BoundingBox(-0.0, 0.1, 0.4, 0.2)),)),
    "int coordinate": Page("r", teacher=(_teacher(_box(x1=0, y2=1)),)),
    "int variance": Page("r", teacher=(_teacher(coordinate_variance=0),)),
    "int quality": Page("r", llm=(_region(q_text=1),)),
}


@pytest.mark.parametrize("page", REPAIRED.values(), ids=REPAIRED.keys())
def test_only_the_page_ingest_repaired_is_templated(tmp_path, page):
    neighbours = [Page("a", teacher=(_teacher(),)), Page("z", llm=())]
    path = tmp_path / "dataset.jsonl"
    _save_proven([neighbours[0], page, neighbours[1]], path)
    stats = IngestStats()
    sources = _sources(path, stats)
    assert [line is None for _, line in sources] == [False, True, False]
    assert stats.clamped_coordinates == (page is REPAIRED["clamped coordinate"])
    saved = [replace(loaded, refined=()) for loaded, _ in sources]
    save_dataset(saved, tmp_path / "refined.jsonl", sources=sources)
    assert (tmp_path / "refined.jsonl").read_text(encoding="utf-8") == _template_bytes(saved)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), changed=st.sets(st.sampled_from(KINDS)), fresh=st.booleans())
def test_a_proven_page_saves_to_the_template_bytes_with_any_kinds_replaced(tmp_path_factory, seed, changed, fresh):
    """Each kind in ``changed`` comes from another page: the next loaded page
    (floats as loaded, so encoded) or, if ``fresh``, a new one, whose
    numpy coordinates its boxes store as floats."""
    tmp = tmp_path_factory.mktemp("copy")
    rng = np.random.default_rng(seed)
    path = tmp / "dataset.jsonl"
    _save_proven([random_dataset_page(rng, f"p{i}") for i in range(4)], path)
    sources = _sources(path)
    assert all(line is not None for _, line in sources)
    loaded = [page for page, _ in sources]
    donors = [random_dataset_page(rng, "d") for _ in loaded] if fresh else loaded[1:] + loaded[:1]
    saved = [replace(page, **{kind: getattr(donor, kind) for kind in changed}) for page, donor in zip(loaded, donors)]
    out = tmp / "saved.jsonl"
    save_dataset(saved, out, sources=sources)
    assert out.read_text(encoding="utf-8") == _template_bytes(saved)
