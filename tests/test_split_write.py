"""The split dataset writer: ``dataset_io._write_split`` behind
``save_dataset``, and the page-index ranges of the simulator that let
each process simulate its own part of a corpus.

A split write must give the bytes of the sequential loop at every CPU
count, raise what that loop raises, and leave no child behind.
"""

import functools
import hashlib
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import test_cli
from layoutfusion import dataset_io, manifest
from layoutfusion.dataset_io import load_dataset, save_dataset
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import GroundTruthAnnotation, Page
from layoutfusion.simulator import SimConfig, generate_pages, simulate_dataset, simulate_predictions
from layoutfusion.taxonomy import DOCLAYNET
from test_vector_paths import CORPORA, SIMULATED_SHA256

SRC = Path(dataset_io.__file__).resolve().parents[1]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` made in this process."""
    made = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return made


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("corpus, seed", [("sparse", 5), ("dense", 5)])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_simulated_corpus_bytes_at_any_cpu_count(tmp_path, monkeypatch, forks, corpus, seed, cpus):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", 8)
    config = SimConfig(seed=seed, **CORPORA[corpus])
    path = tmp_path / "dataset.jsonl"
    save_dataset(range(config.pages), path, make_pages=functools.partial(simulate_dataset, config), records=config.pages)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SIMULATED_SHA256[(corpus, seed)]
    assert len(forks) == cpus - 1
    assert _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_gate_pipeline_bytes_at_one_and_two_cpus(tmp_path, monkeypatch, forks, cpus):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", 100)  # the corpus has 30 pages of 8-12 regions
    test_cli.test_gate_pipeline_bytes_unchanged(tmp_path)
    # The dataset.jsonl write, and the refined.jsonl write, which copies every
    # record but the refined labels and splits on those alone.
    assert len(forks) == 2 * (cpus - 1)


def test_a_save_that_copies_splits_by_the_records_it_templates(tmp_path, monkeypatch, forks):
    """A ``fuse``-like save of a proven corpus encodes only the refined
    labels: with that many records per part it writes in this process,
    and the same pages without sources, all encoded, split."""
    _cpus(monkeypatch, 2)
    path = tmp_path / "dataset.jsonl"
    save_dataset(simulate_dataset(SimConfig(pages=30, regions_min=8, regions_max=12, seed=2)), path)
    manifest.write_manifest(tmp_path, "simulate", {}, 0, [path.name], manifest.now_utc())
    sources: list = []
    loaded = load_dataset(path, digests=manifest.listed_digests(path), sources=sources)
    refined = [replace(page, refined=tuple(refine_pseudo_labels(page))) for page in loaded]
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", sum(len(page.refined) for page in refined))
    forks.clear()
    save_dataset(refined, tmp_path / "copied.jsonl", sources=sources)
    assert forks == []
    save_dataset(refined, tmp_path / "templated.jsonl")
    assert len(forks) == 1
    assert (tmp_path / "copied.jsonl").read_bytes() == (tmp_path / "templated.jsonl").read_bytes()
    assert _no_child_left()


def _pages(count: int) -> list[Page]:
    """Pages of one record each."""
    truth = (GroundTruthAnnotation(BoundingBox(0.1, 0.1, 0.4, 0.2), DOCLAYNET.category("text")),)
    return [Page(f"p{i}", ground_truth=truth) for i in range(count)]


def test_no_affinity_mask_writes_sequentially(tmp_path, monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", 4)
    pages = _pages(200)
    save_dataset(pages, tmp_path / "pages.jsonl")
    assert forks == []
    assert (tmp_path / "pages.jsonl").read_text(encoding="utf-8") == "".join(map(dataset_io._page_line, pages))


def _failing_line(fails):
    """``_page_line`` that raises for the pages ``fails(page)`` picks,
    naming the page and the process it raised in."""
    line = dataset_io._page_line

    def page_line(page):
        if fails(page):
            raise ValueError(f"cannot write {page.page_id} (pid {os.getpid()})")
        return line(page)

    return page_line


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failing_page_in_a_childs_part_raises_from_this_process(tmp_path, monkeypatch, forks, cpus):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", 4)
    monkeypatch.setattr(dataset_io, "_page_line", _failing_line(lambda page: page.page_id == "p10"))
    with pytest.raises(ValueError, match=rf"^cannot write p10 \(pid {os.getpid()}\)$"):
        save_dataset(_pages(12), tmp_path / "pages.jsonl")
    assert len(forks) == cpus - 1
    assert _no_child_left()


def test_a_part_whose_child_fails_alone_is_written_here(tmp_path, monkeypatch, forks):
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(dataset_io, "_PART_MIN_RECORDS", 4)
    parent = os.getpid()
    monkeypatch.setattr(dataset_io, "_page_line", _failing_line(lambda page: os.getpid() != parent and page.page_id == "p5"))
    pages = _pages(12)
    save_dataset(pages, tmp_path / "pages.jsonl")
    assert len(forks) == 2
    assert (tmp_path / "pages.jsonl").read_text(encoding="utf-8") == "".join(map(dataset_io._page_line, pages))
    assert _no_child_left()


# This process's own part raises while three children each hold more text
# than a pipe buffers. Run apart, under a timeout: a writer that reaped a
# child before closing every pipe would wait for ever.
PARENT_PART_FAILS = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, sys.argv[1])
    from layoutfusion import dataset_io
    from layoutfusion.geometry import BoundingBox
    from layoutfusion.model import OcrBlock, Page

    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
    dataset_io._PART_MIN_RECORDS = 100
    line = dataset_io._page_line

    def page_line(page):
        if page.page_id == "p0":
            raise ValueError("cannot write p0")
        return line(page)

    dataset_io._page_line = page_line
    blocks = tuple(OcrBlock(BoundingBox(0.1, 0.1, 0.2, 0.2), "x" * 1000) for _ in range(100))
    pages = [Page(f"p{i}", ocr_blocks=blocks) for i in range(16)]
    try:
        dataset_io.save_dataset(pages, sys.argv[2])
    except ValueError as exc:
        print(exc)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    """
)


def test_a_failing_page_in_this_processs_part_returns_and_leaves_no_child(tmp_path):
    # Its own session: on a hang, the whole group, children included, is killed.
    run = subprocess.Popen(
        [sys.executable, "-c", PARENT_PART_FAILS, str(SRC), str(tmp_path / "pages.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = run.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        pytest.fail("the writer hung after a failing page in its own part")
    assert run.returncode == 0, err
    assert out.splitlines() == ["cannot write p0", "no child left"]


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_a_corpus_is_the_concatenation_of_its_index_ranges(seed):
    config = SimConfig(seed=seed, **{**CORPORA["sparse"], "pages": 40})
    whole = simulate_dataset(config)
    for cuts in ([0, 1, 40], [0, 17, 40], [0, 39, 40], [0, 7, 20, 33, 40]):
        parts = [simulate_dataset(config, range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
        assert sum(parts, []) == whole
    assert simulate_predictions(generate_pages(config, range(9, 12)), config, range(9, 12)) == whole[9:12]
