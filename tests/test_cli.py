"""Command-line surface: every subcommand end-to-end on small data."""

import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import layoutfusion
from layoutfusion import cli, dataset_io
from layoutfusion.cli import main
from layoutfusion.dataset_io import LINE_FORMAT, IngestStats, load_dataset, save_dataset
from layoutfusion.fusion import FusionConfig, refine_pseudo_labels
from layoutfusion.gating import GateTrainConfig, TrainResult, init_gate, save_gate
from layoutfusion.heuristics import HeuristicConfig, heuristic_regions
from layoutfusion.manifest import listed_digests, now_utc, write_manifest
from layoutfusion.simulator import GateTask, SimConfig, simulate_dataset
from layoutfusion.theory import Experiment, TheoryConfig, summarize_reference_point


@pytest.fixture()
def sim_config_path(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"pages": 12, "seed": 3, "emit_ocr_stubs": True}), encoding="utf-8")
    return path


@pytest.fixture()
def dataset_path(tmp_path, sim_config_path):
    out = tmp_path / "sim_out"
    assert main(["simulate", "--config", str(sim_config_path), "--out", str(out)]) == 0
    return out / "dataset.jsonl"


class TestSimulate:
    def test_writes_configured_page_count(self, dataset_path):
        assert len(load_dataset(dataset_path)) == 12

    def test_manifest_written(self, dataset_path):
        manifest = json.loads((dataset_path.parent / "simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert "dataset.jsonl" in manifest["outputs"]
        assert manifest["output_sha256"] == {"dataset.jsonl": hashlib.sha256(dataset_path.read_bytes()).hexdigest()}
        assert manifest["dataset_format"] == LINE_FORMAT

    def test_manifest_artifact_version_is_package_version(self, dataset_path):
        manifest = json.loads((dataset_path.parent / "simulate_manifest.json").read_text())
        assert manifest["artifact_version"] == layoutfusion.__version__

    def test_seed_flag_overrides_config(self, tmp_path, sim_config_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", str(sim_config_path), "--out", str(a), "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(sim_config_path), "--out", str(b)]) == 0
        assert (a / "dataset.jsonl").read_bytes() != (b / "dataset.jsonl").read_bytes()

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pages": 3, "rho": 2.0}), encoding="utf-8")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_field_exits_2_with_field_name(self, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"pages": 3, "page_count": 5}), encoding="utf-8")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "page_count" in capsys.readouterr().err


class TestFuse:
    def test_matches_library_output(self, tmp_path, dataset_path):
        out = tmp_path / "fuse_out"
        assert main(["fuse", "--dataset", str(dataset_path), "--out", str(out)]) == 0
        refined = load_dataset(out / "refined.jsonl")
        pages = load_dataset(dataset_path)
        for page, cli_page in zip(pages, refined):
            assert tuple(refine_pseudo_labels(page)) == cli_page.refined

    def test_provenance_histogram_printed(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "fuse_hist"
        main(["fuse", "--dataset", str(dataset_path), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "fused:" in stdout

    def test_missing_gate_file_errors(self, tmp_path, dataset_path):
        code = main(
            ["fuse", "--dataset", str(dataset_path), "--gate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_non_object_region_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad_record.jsonl"
        path.write_text(json.dumps({"page_id": "p-bad", "teacher": [["bbox"]]}) + "\n", encoding="utf-8")
        assert main(["fuse", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "p-bad" in err and "teacher[0]" in err

    def test_non_finite_bbox_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan_bbox.jsonl"
        path.write_text(
            '{"page_id": "p-nan", "llm": [{"type": "text", "bbox": [0.1, NaN, 0.4, 0.2], "score": 0.8}]}\n',
            encoding="utf-8",
        )
        assert main(["fuse", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "p-nan" in err and "llm[0]" in err and "y1=nan" in err

    def test_teacher_only_dataset(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=4, seed=8))
        stripped = [dataclasses.replace(p, llm=()) for p in pages]
        path = tmp_path / "teacher_only.jsonl"
        save_dataset(stripped, path)
        out = tmp_path / "fo"
        assert main(["fuse", "--dataset", str(path), "--out", str(out)]) == 0
        for page in load_dataset(out / "refined.jsonl"):
            assert all(l.provenance == "teacher" for l in page.refined)


class TestTheory:
    def test_reference_point_defaults(self, tmp_path):
        out = tmp_path / "theory_out"
        assert main(["theory", "--out", str(out)]) == 0
        report = json.loads((out / "theory_report.json").read_text())
        assert 21.5 <= report["k"] <= 22.5
        assert 0.028 <= report["sqrt_k_over_n"] <= 0.030
        assert (out / "theory_report.csv").exists()

    def test_small_experiment(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps({"experiment": {"n_grid": [200, 400, 800, 1600], "seeds": 1, "heldout": 2000, "hidden": 8}}),
            encoding="utf-8",
        )
        out = tmp_path / "exp_out"
        assert main(["theory", "--config", str(config), "--out", str(out), "--seed", "5"]) == 0
        report = json.loads((out / "theory_report.json").read_text())
        assert len(report["cells"]) == 4
        assert report["slope"] is not None

    def test_dataset_mode_boundary_fraction(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=10, emit_coordinate_variance=True, seed=2))
        path = tmp_path / "gt.jsonl"
        save_dataset(pages, path)
        out = tmp_path / "th_ds"
        assert main(["theory", "--dataset", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "theory_report.json").read_text())
        assert report["boundary_fraction"] == 0.0


@pytest.mark.parametrize("command", [["theory"], ["evaluate", "--dataset", "d.jsonl"]])
def test_format_is_an_unknown_argument(tmp_path, command):
    """Both report commands always write the JSON and the CSV."""
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--format", "json", "--out", str(tmp_path / "o")])
    assert exit_.value.code == 2


class TestEvaluate:
    def test_refined_metrics(self, tmp_path, dataset_path):
        fuse_out = tmp_path / "f"
        main(["fuse", "--dataset", str(dataset_path), "--out", str(fuse_out)])
        out = tmp_path / "eval"
        assert main(["evaluate", "--dataset", str(fuse_out / "refined.jsonl"), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["ap"] <= 1.0
        assert (out / "metrics.csv").exists()

    def test_metrics_csv_ap_cells_are_numbers(self, tmp_path, dataset_path):
        fuse_out = tmp_path / "f"
        main(["fuse", "--dataset", str(dataset_path), "--out", str(fuse_out)])
        out = tmp_path / "eval"
        assert main(["evaluate", "--dataset", str(fuse_out / "refined.jsonl"), "--out", str(out)]) == 0
        categories = len(json.loads((out / "metrics.json").read_text())["per_category"])
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # Ten thresholds and a mean per category, then four summary rows.
        assert len(rows) == categories * 11 + 4
        for row in rows:
            assert 0.0 <= float(row["ap"]) <= 1.0

    def test_perfect_predictions_reach_one(self, tmp_path):
        config = SimConfig(pages=6, sigma_t=0.0, sigma_l=0.0, teacher_confusion=0.0, llm_confusion=0.0, seed=1)
        pages = simulate_dataset(config)
        path = tmp_path / "perfect.jsonl"
        save_dataset(pages, path)
        out = tmp_path / "pe"
        assert main(["evaluate", "--dataset", str(path), "--source", "teacher", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["ap"] == pytest.approx(1.0)

    def test_calibration_that_cannot_be_fitted_names_the_stream(self, tmp_path, capsys):
        # Every teacher box is correct, so no temperature fits.
        config = SimConfig(pages=6, sigma_t=0.0, sigma_l=0.0, teacher_confusion=0.0, llm_confusion=0.0, seed=1)
        path = tmp_path / "perfect.jsonl"
        save_dataset(simulate_dataset(config), path)
        out = tmp_path / "pe"
        assert main(["evaluate", "--dataset", str(path), "--source", "teacher", "--calibrate", "--out", str(out)]) == 2
        assert "error: teacher stream: need both correct and incorrect outcomes" in capsys.readouterr().err

    def test_calibration_flag_reports_before_after(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=150, teacher_temperature=2.0, seed=4))
        path = tmp_path / "cal.jsonl"
        save_dataset(pages, path)
        out = tmp_path / "ce"
        assert main(["evaluate", "--dataset", str(path), "--source", "teacher", "--calibrate", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "ece_before" in metrics["calibration"]
        assert "ece_after" in metrics["calibration"]

    def test_missing_ground_truth_errors(self, tmp_path, dataset_path):
        pages = load_dataset(dataset_path)
        from layoutfusion.model import Page

        bare = [
            Page(page_id=p.page_id, ocr_blocks=p.ocr_blocks, teacher=p.teacher, llm=p.llm) for p in pages
        ]
        path = tmp_path / "nogt.jsonl"
        save_dataset(bare, path)
        assert main(["evaluate", "--dataset", str(path), "--source", "teacher", "--out", str(tmp_path / "x")]) == 2


class TestCompare:
    def write_runs(self, tmp_path, a, b):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text(json.dumps(a), encoding="utf-8")
        pb.write_text(json.dumps(b), encoding="utf-8")
        return pa, pb

    def test_identical_runs(self, tmp_path):
        pa, pb = self.write_runs(tmp_path, [88.0, 88.2, 87.9, 88.1, 88.0], [88.0, 88.2, 87.9, 88.1, 88.0])
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(pa), "--b", str(pb), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["p"] == 1.0
        assert doc["tost"]["equivalent"] is True

    def test_large_gap_not_equivalent(self, tmp_path):
        pa, pb = self.write_runs(
            tmp_path, [88.6, 88.7, 88.5, 88.65, 88.55], [88.0, 88.1, 87.9, 88.05, 87.95]
        )
        out = tmp_path / "cmp2"
        assert main(["compare", "--a", str(pa), "--b", str(pb), "--delta", "0.5", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["tost"]["equivalent"] is False
        assert doc["mean_difference"] == pytest.approx(0.6, abs=1e-9)

    def test_unpaired_lengths_exit_2(self, tmp_path):
        pa, pb = self.write_runs(tmp_path, [1.0, 2.0], [1.0, 2.0, 3.0])
        assert main(["compare", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "x")]) == 2

    # Run A's values, extra flags, and what the error must name; run B is [1, 2, 3].
    BAD_INPUTS = {
        "null": ("[1, 2, null]", [], "--a file {a} must be JSON that fits tuple[float, ...], got [1, 2, null]"),
        "nan": ("[1, 2, NaN]", [], "--a file {a} must be JSON that fits tuple[float, ...], got [1, 2, NaN]"),
        "infinity": ("[1, Infinity, 3]", [], "--a file {a} must be JSON that fits tuple[float, ...]"),
        "booleans": ("[true, false, true]", [], "--a file {a} must be JSON that fits tuple[float, ...]"),
        "overflow": ("[1e308, -1e308, 1e308]", [], "{a} - {b}: the paired differences' mean or standard deviation"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2_naming_file_or_flag(self, tmp_path, capsys, case):
        text, flags, named = self.BAD_INPUTS[case]
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(text, encoding="utf-8")
        pb.write_text("[1, 2, 3]", encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(pa), "--b", str(pb), *flags, "--out", str(out)]) == 2
        assert named.format(a=pa, b=pb) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_missing_input_file_exits_2_naming_its_flag(self, tmp_path, capsys, flag):
        pa, pb = self.write_runs(tmp_path, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        missing = tmp_path / "nofile.json"
        files = {"--a": pa, "--b": pb, flag: missing}
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(files["--a"]), "--b", str(files["--b"]), "--out", str(out)]) == 2
        assert f"{flag} file not found: {missing}" in capsys.readouterr().err
        assert not out.exists()


class TestHeuristicsCommand:
    def test_regions_file_and_dataset(self, tmp_path, dataset_path):
        out = tmp_path / "heur"
        assert main(["heuristics", "--dataset", str(dataset_path), "--out", str(out)]) == 0
        lines = (out / "heuristic_regions.jsonl").read_text().strip().splitlines()
        assert len(lines) == 12
        record = json.loads(lines[0])
        if record["regions"]:
            assert record["regions"][0]["source"] == "heuristic"
        replaced = load_dataset(out / "heuristic_dataset.jsonl")
        assert len(replaced) == 12

    def test_region_records_are_dataset_records_plus_source(self, tmp_path, dataset_path):
        """Each region's record is its text-region record in the written
        dataset, keys in the same order, then ``source``."""
        out = tmp_path / "heur"
        assert main(["heuristics", "--dataset", str(dataset_path), "--out", str(out)]) == 0
        pages = [json.loads(line) for line in (out / "heuristic_dataset.jsonl").read_text().splitlines()]
        records = [json.loads(line) for line in (out / "heuristic_regions.jsonl").read_text().splitlines()]
        want = [[[*region.items(), ("source", "heuristic")] for region in page["llm"]] for page in pages]
        assert [[list(region.items()) for region in record["regions"]] for record in records] == want
        assert any(want)

    def test_heuristic_dataset_feeds_fuse(self, tmp_path, dataset_path):
        heur = tmp_path / "h2"
        main(["heuristics", "--dataset", str(dataset_path), "--out", str(heur)])
        out = tmp_path / "hf"
        assert main(["fuse", "--dataset", str(heur / "heuristic_dataset.jsonl"), "--out", str(out)]) == 0


class TestCalibrate:
    def test_fits_both_streams(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=200, teacher_temperature=2.0, llm_temperature=0.7, seed=6))
        path = tmp_path / "c.jsonl"
        save_dataset(pages, path)
        out = tmp_path / "cal"
        assert main(["calibrate", "--dataset", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["teacher"]["temperature"] > 1.2
        assert doc["llm"]["temperature"] < 1.0
        assert doc["teacher"]["ece_after"] <= doc["teacher"]["ece_before"]


class TestGateCommands:
    def test_train_then_apply_then_lipschitz(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=120, sigma_t=0.004, sigma_l=0.02, seed=7))
        path = tmp_path / "gate_data.jsonl"
        save_dataset(pages, path)
        train_out = tmp_path / "gate"
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"learning_rate": 0.3, "epochs": 10, "seed": 1}), encoding="utf-8")
        assert main(
            ["train-gate", "--dataset", str(path), "--config", str(config), "--out", str(train_out), "--hidden", "16"]
        ) == 0
        gate_file = train_out / "gate.json"
        assert gate_file.exists()
        assert (train_out / "gate_training.csv").exists()

        fuse_out = tmp_path / "gated"
        assert main(["fuse", "--dataset", str(path), "--gate", str(gate_file), "--out", str(fuse_out)]) == 0
        plain_out = tmp_path / "plain"
        assert main(["fuse", "--dataset", str(path), "--out", str(plain_out)]) == 0
        assert (fuse_out / "refined.jsonl").read_bytes() != (plain_out / "refined.jsonl").read_bytes()

        lip_out = tmp_path / "lip"
        assert main(["lipschitz", "--gate", str(gate_file), "--dataset", str(path), "--out", str(lip_out)]) == 0
        doc = json.loads((lip_out / "lipschitz.json").read_text())
        assert doc["lipschitz"] >= 0.0

    @pytest.fixture()
    def gate_dataset(self, tmp_path):
        path = tmp_path / "gate_data.jsonl"
        save_dataset(simulate_dataset(SimConfig(pages=30, seed=3)), path)
        return path

    def test_validation_split_of_every_sample_exits_2(self, tmp_path, gate_dataset, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"validation_fraction": 0.9999, "epochs": 2}), encoding="utf-8")
        out = tmp_path / "gate"
        argv = ["train-gate", "--dataset", str(gate_dataset), "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert "leaving none to train on" in capsys.readouterr().err
        assert not (out / "gate_training.csv").exists()

    def test_lipschitz_grid_mode(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=120, seed=9))
        path = tmp_path / "d.jsonl"
        save_dataset(pages, path)
        train_out = tmp_path / "g2"
        main(["train-gate", "--dataset", str(path), "--out", str(train_out), "--hidden", "8"])
        out = tmp_path / "lg"
        assert main(["lipschitz", "--gate", str(train_out / "gate.json"), "--grid", "9", "--out", str(out)]) == 0


def test_removed_schedule_command_exits_2_as_unknown(tmp_path, capsys):
    out = tmp_path / "sched"
    with pytest.raises(SystemExit) as exited:
        main(["schedule", "--epochs", "10", "--out", str(out)])
    assert exited.value.code == 2
    assert "argument command: invalid choice: 'schedule'" in capsys.readouterr().err
    assert not out.exists()


class TestKindsACommandDoesNotRead:
    """``fuse`` builds only the teacher and text streams, ``heuristics`` only
    the OCR blocks and ``evaluate`` only its source and the ground truth, but
    each checks every record of every kind: a malformed record in a kind it
    does not read exits 2 with the message a full load gives, naming the page
    and the field, and a record that ingest clamps is clamped and counted.
    Each input is listed in a manifest, as the files a command writes are,
    or not, so that ``fuse`` and ``heuristics`` may copy its lines."""

    @pytest.fixture()
    def refined_path(self, tmp_path, dataset_path):
        assert main(["fuse", "--dataset", str(dataset_path), "--out", str(tmp_path / "fused")]) == 0
        return tmp_path / "fused" / "refined.jsonl"

    @staticmethod
    def _edit(path, field, listed, edit):
        """Apply ``edit`` to the first ``field`` record in ``path`` and list the
        file in a manifest if ``listed``; return the page id and line number."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines) if json.loads(line)[field])
        obj = json.loads(lines[lineno])
        edit(obj[field][0])
        lines[lineno] = json.dumps(obj, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        for stale in path.parent.glob("*_manifest.json"):
            stale.unlink()
        if listed:
            write_manifest(path.parent, "simulate", {}, 0, [path.name], now_utc())
        return obj["page_id"], lineno + 1

    FAULTS = {
        "fuse": ("ocr_blocks", lambda r: r.update(bbox=[0.5, 0.1, 0.4, 0.2]),
                 "ocr_blocks[0] bbox invalid: degenerate box: x1=0.5 >= x2=0.4"),
        "heuristics": ("ground_truth", lambda r: r.update(type="mystery"), "ground_truth[0] has unknown category 'mystery'"),
        "evaluate": ("teacher", lambda r: r.update(confidence=1.5), "teacher[0]: confidence=1.5 must be strictly inside (0, 1)"),
    }

    @pytest.mark.parametrize("listed", [False, True], ids=["unlisted", "listed"])
    @pytest.mark.parametrize("command", sorted(FAULTS))
    def test_a_malformed_record_exits_2_naming_page_and_field(self, tmp_path, request, capsys, command, listed):
        path = request.getfixturevalue("refined_path" if command == "evaluate" else "dataset_path")
        field, edit, fault = self.FAULTS[command]
        page_id, lineno = self._edit(path, field, listed, edit)
        out = tmp_path / "out"
        assert main([command, "--dataset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line {lineno}: page {page_id!r}: {fault}\n"
        assert not out.exists()

    @pytest.mark.parametrize("listed", [False, True], ids=["unlisted", "listed"])
    @pytest.mark.parametrize("command", ["fuse", "heuristics", "evaluate"])
    def test_a_clamped_record_gives_the_full_load_bytes_and_count(self, tmp_path, request, caplog, command, listed):
        path = request.getfixturevalue("refined_path" if command == "evaluate" else "dataset_path")
        field = {"fuse": "ocr_blocks", "heuristics": "ground_truth", "evaluate": "teacher"}[command]
        if command == "evaluate":  # the teacher stream does not change the metrics
            assert main(["evaluate", "--dataset", str(path), "--out", str(tmp_path / "before")]) == 0
            expected = (tmp_path / "before" / "metrics.json").read_bytes()
        self._edit(path, field, listed, lambda r: r["bbox"].__setitem__(2, 1.25))
        stats = IngestStats()
        pages = load_dataset(path, stats=stats)
        assert stats.clamped_coordinates == 1
        if command == "fuse":
            expected = "".join(dataset_io._page_line(dataclasses.replace(p, refined=tuple(refine_pseudo_labels(p))))
                               for p in pages).encode("utf-8")
        elif command == "heuristics":
            expected = "".join(dataset_io._page_line(dataclasses.replace(p, llm=tuple(heuristic_regions(p))))
                               for p in pages).encode("utf-8")
        caplog.clear()
        out = tmp_path / "out"
        assert main([command, "--dataset", str(path), "--out", str(out)]) == 0
        written = {"fuse": "refined.jsonl", "heuristics": "heuristic_dataset.jsonl", "evaluate": "metrics.json"}[command]
        assert (out / written).read_bytes() == expected
        warnings = [r.getMessage() for r in caplog.records if r.name == "layoutfusion.dataset_io"]
        assert warnings == [f"clamped 1 out-of-range coordinates while loading {path}"]


DEEP = "[" * 3000 + "]" * 3000  # deeper than json.loads decodes at the default recursion limit


class TestUndecodableInputs:
    """A file json cannot decode exits 2 naming it, and for a dataset the
    line: nested too deeply, bytes that are not UTF-8, or an integer beyond
    the digit limit. So does a config field too deep to load, and a sibling
    manifest json cannot decode proves nothing."""

    @staticmethod
    def _with_line(path, lineno: int, line: bytes):
        """``path`` with its line ``lineno`` replaced by ``line``."""
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = line + b"\n"
        path.write_bytes(b"".join(lines))
        return path

    def test_a_deeply_nested_dataset_line_exits_2_naming_the_line(self, tmp_path, dataset_path, capsys):
        self._with_line(dataset_path, 3, b'{"page_id":"deep","teacher":' + DEEP.encode() + b"}")
        assert main(["evaluate", "--dataset", str(dataset_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {dataset_path}: line 3: JSON nested too deeply to decode\n"

    def test_a_dataset_line_nested_a_million_deep_exits_2(self, tmp_path):
        """orjson would overflow the C stack on this line; json refuses it."""
        path = tmp_path / "deep.jsonl"
        path.write_text('{"page_id":"a"}\n{"page_id":"deep","llm":' + "[" * 10**6 + "]" * 10**6 + "}\n")
        src = Path(layoutfusion.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "layoutfusion.cli", "evaluate", "--dataset", str(path), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, f"error: {path}: line 2: JSON nested too deeply to decode\n")

    @pytest.mark.parametrize("flag", ["--config", "--gate"])
    def test_a_deeply_nested_fuse_input_exits_2_naming_the_file(self, tmp_path, dataset_path, capsys, flag):
        path = tmp_path / "deep.json"
        path.write_text('{"teacher_box_weight":' + DEEP + "}", encoding="utf-8")
        argv = ["fuse", "--dataset", str(dataset_path), flag, str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to decode\n"
        assert not (tmp_path / "out").exists()

    def test_a_config_field_json_decodes_but_too_deep_to_load_exits_2(self, tmp_path, dataset_path, capsys):
        path = tmp_path / "fuse.json"
        path.write_text('{"soft_categories":' + "[" * 600 + "]" * 600 + "}", encoding="utf-8")
        assert main(["fuse", "--dataset", str(dataset_path), "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: fusion config: a field is nested too deeply\n"

    def test_a_deeply_nested_sibling_manifest_is_skipped(self, tmp_path, dataset_path):
        (dataset_path.parent / "deep_manifest.json").write_text(DEEP, encoding="utf-8")
        assert listed_digests(dataset_path) == {dataset_io.file_sha256(dataset_path)}
        assert main(["fuse", "--dataset", str(dataset_path), "--out", str(tmp_path / "out")]) == 0

    def test_a_dataset_byte_that_is_not_utf8_exits_2_naming_the_line(self, tmp_path, dataset_path, capsys):
        self._with_line(dataset_path, 5, b'{"page_id":"p\xff"}')
        assert main(["evaluate", "--dataset", str(dataset_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {dataset_path}: line 5: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 13: "
            "invalid start byte\n"
        )

    CONFIGS = {
        "not-utf8": (b'{"teacher_box_weight": \xff}', "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 23: "
                     "invalid start byte"),
        "5000-digit-integer": (b'{"teacher_box_weight": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit (4300 "
                               "digits) for integer string conversion: value has 5000 digits; use "
                               "sys.set_int_max_str_digits() to increase the limit"),
    }

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_an_undecodable_config_exits_2_naming_the_file(self, tmp_path, dataset_path, capsys, case):
        text, message = self.CONFIGS[case]
        path = tmp_path / "fuse.json"
        path.write_bytes(text)
        assert main(["fuse", "--dataset", str(dataset_path), "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestCollectorPause:
    """``main`` runs each command with the cyclic collector off and puts
    the caller's setting back however the command ends."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def _spy(monkeypatch, raised=None) -> list[bool]:
        """Make ``theory``'s reference-point summary record whether the
        collector is on, then raise ``raised`` if given."""
        seen = []
        real = cli.summarize_reference_point

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "summarize_reference_point", spy)
        return seen

    @staticmethod
    def _theory(tmp_path) -> int:
        return main(["theory", "--out", str(tmp_path / "theory")])

    def test_collector_is_off_while_a_command_runs(self, tmp_path, monkeypatch):
        seen = self._spy(monkeypatch)
        gc.enable()
        assert self._theory(tmp_path) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["was-on", "was-off"])
    @pytest.mark.parametrize(
        "raised, code", [(None, 0), (ValueError("bad"), 2), (OSError("disk full"), 1)], ids=["exit-0", "exit-2", "exit-1"]
    )
    def test_previous_state_restored_on_exit(self, tmp_path, monkeypatch, enabled, raised, code):
        seen = self._spy(monkeypatch, raised)
        (gc.enable if enabled else gc.disable)()
        assert self._theory(tmp_path) == code
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["was-on", "was-off"])
    def test_previous_state_restored_after_an_uncaught_exception(self, tmp_path, monkeypatch, enabled):
        seen = self._spy(monkeypatch, RuntimeError("boom"))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="boom"):
            self._theory(tmp_path)
        assert seen == [False]
        assert gc.isenabled() is enabled


def test_module_entry_point_runs_a_command(tmp_path):
    """``python -m layoutfusion.cli`` reaches ``main`` and exits with its status."""
    src = Path(layoutfusion.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "layoutfusion.cli", "simulate", "--seed", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(load_dataset(tmp_path / "dataset.jsonl")) == SimConfig().pages


# A theory experiment that runs in well under a second, so a tree that
# accepts a bad value next to it fails a test quickly.
SMALL_EXPERIMENT = {"n_grid": [100, 200, 300, 400], "seeds": 1, "heldout": 100, "hidden": 2}

# Every config the CLI reads goes through one loader. Each case is a
# command, whether it needs a dataset, the config file around some
# fields, and the config class the fields load into.
CONFIG_SITES = {
    "simulate": (False, lambda fields: {"pages": 2, **fields}, SimConfig),
    "fuse": (True, lambda fields: fields, FusionConfig),
    "theory": (False, lambda fields: fields, TheoryConfig),
    "theory-experiment": (False, lambda fields: {"experiment": {**SMALL_EXPERIMENT, **fields}}, Experiment),
    "theory-task": (False, lambda fields: {"experiment": {**SMALL_EXPERIMENT, "task": fields}}, GateTask),
    "theory-train": (False, lambda fields: {"experiment": {**SMALL_EXPERIMENT, "train": fields}}, GateTrainConfig),
    "heuristics": (True, lambda fields: fields, HeuristicConfig),
    "train-gate": (True, lambda fields: fields, GateTrainConfig),
}


def _run_with_config(tmp_path, request, site, config):
    needs_dataset = CONFIG_SITES[site][0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    command = "theory" if site.startswith("theory") else site
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if needs_dataset:
        argv += ["--dataset", str(request.getfixturevalue("dataset_path"))]
    return main(argv)


def _capture(monkeypatch, name, result=None):
    """Replace ``cli.<name>`` with a recorder of its arguments; it calls
    through unless ``result`` is given."""
    calls = []
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return result if result is not None else real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return calls


# A config field of the wrong JSON type: the command, the config, and
# the message that names the field.
WRONG_TYPES = [
    ("simulate", {"pages": 2.5}, "simulator config: pages must be a JSON integer, got 2.5"),
    ("simulate", {"seed": 1.5}, "simulator config: seed must be a JSON integer, got 1.5"),
    ("simulate", {"pages": True}, "simulator config: pages must be a JSON integer, got true"),
    ("simulate", {"regions_max": 5.5}, "simulator config: regions_max must be a JSON integer, got 5.5"),
    ("train-gate", {"epochs": 2.5}, "gate training config: epochs must be a JSON integer, got 2.5"),
    ("train-gate", {"batch_size": 4.5}, "gate training config: batch_size must be a JSON integer, got 4.5"),
    ("train-gate", {"seed": 1.5}, "gate training config: seed must be a JSON integer, got 1.5"),
    ("train-gate", {"epochs": True}, "gate training config: epochs must be a JSON integer, got true"),
    ("heuristics", {"min_shared_columns": 1.5}, "heuristic config: min_shared_columns must be a JSON integer, got 1.5"),
    ("heuristics", {"min_aligned_lines": 2.5}, "heuristic config: min_aligned_lines must be a JSON integer, got 2.5"),
    ("theory", {"dim_psi": 2.5}, "theory config: dim_psi must be a JSON integer, got 2.5"),
    ("fuse", {"soft_score_min": None}, "fusion config: soft_score_min must be a JSON number, got null"),
    ("fuse", {"soft_score_min": "a"}, 'fusion config: soft_score_min must be a JSON number, got "a"'),
    ("heuristics", {"region_score": "x"}, 'heuristic config: region_score must be a JSON number, got "x"'),
    ("heuristics", {"region_quality": None}, "heuristic config: region_quality must be a JSON number, got null"),
    ("theory", {"ap_scale": "x"}, 'theory config: ap_scale must be a JSON number, got "x"'),
    ("theory", {"gap_constant": None}, "theory config: gap_constant must be a JSON number, got null"),
    ("simulate", {"sigma_t": {"text": 0.01}}, "sigma_t has no deviation for drawn categories: "),
    ("heuristics", {"caption_prefixes": ["Figure", 3]}, 'heuristic config: caption_prefixes must be JSON that fits tuple[str, ...], got ["Figure", 3]'),
]


class TestConfigLoader:
    @pytest.mark.parametrize("site", sorted(CONFIG_SITES))
    def test_unknown_field_exits_2_and_names_it(self, tmp_path, request, capsys, site):
        config = CONFIG_SITES[site][1]({"no_such_knob": 1})
        assert _run_with_config(tmp_path, request, site, config) == 2
        assert "no_such_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("site, field", [("fuse", "llm_logit_weight")])
    def test_removed_field_exits_2_and_names_it(self, tmp_path, request, capsys, site, field):
        assert _run_with_config(tmp_path, request, site, {field: 0.3}) == 2
        assert f"field(s): {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("site", sorted(CONFIG_SITES))
    def test_non_object_exits_2_and_names_the_file(self, tmp_path, request, capsys, site):
        nested = {
            "theory-experiment": {"experiment": [1]},
            "theory-task": {"experiment": {"task": [1]}},
            "theory-train": {"experiment": {"train": [1]}},
        }
        assert _run_with_config(tmp_path, request, site, nested.get(site, [1, 2])) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "config.json") in err and "must be a JSON object, got list" in err

    def test_theory_task_sigma_scale_of_zero_exits_2_and_names_it(self, tmp_path, request, capsys):
        assert _run_with_config(tmp_path, request, "theory", {"experiment": {"task": {"sigma_scale": 0}}}) == 2
        assert "sigma_scale=0 must be finite and > 0" in capsys.readouterr().err

    def test_fuse_soft_categories_load_as_tuple(self, tmp_path, request, monkeypatch):
        calls = _capture(monkeypatch, "refine_pseudo_labels")
        assert _run_with_config(tmp_path, request, "fuse", {"soft_categories": ["title", "footer"]}) == 0
        assert calls and calls[0][0][1] == FusionConfig(soft_categories=("title", "footer"))

    @pytest.mark.parametrize(
        "names, named",
        [
            ("caption", 'fusion config: soft_categories must be JSON that fits tuple[str, ...], got "caption"'),
            (["title", 3], 'fusion config: soft_categories must be JSON that fits tuple[str, ...], got ["title", 3]'),
            (["title", "captoin"], "unknown soft_categories for taxonomy 'doclaynet': captoin"),
        ],
        ids=["string", "non-string-entry", "unknown-name"],
    )
    def test_fuse_bad_soft_categories_exit_2_and_name_them(self, tmp_path, request, capsys, names, named):
        assert _run_with_config(tmp_path, request, "fuse", {"soft_categories": names}) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"n": [1]}, "config.json: n must be a JSON integer, got [1]"),
            ({"n": 2.7}, "config.json: n must be a JSON integer, got 2.7"),
            ({"n": True}, "config.json: n must be a JSON integer, got true"),
            ({"experiment": {"seeds": [1]}}, "experiment: seeds must be a JSON integer, got [1]"),
            ({"experiment": {"seeds": 1.5}}, "experiment: seeds must be a JSON integer, got 1.5"),
            ({"experiment": {"heldout": True}}, "experiment: heldout must be a JSON integer, got true"),
            ({"experiment": {"hidden": "4"}}, 'experiment: hidden must be a JSON integer, got "4"'),
            (
                {"experiment": {"n_grid": [100, 200, [300], 400]}},
                "experiment: n_grid must be JSON that fits tuple[int, ...], got [100, 200, [300], 400]",
            ),
            (
                {"experiment": {"n_grid": [100, 200, 300, 400.5]}},
                "experiment: n_grid must be JSON that fits tuple[int, ...], got [100, 200, 300, 400.5]",
            ),
        ],
        ids=[
            "n-array", "n-float", "n-bool", "seeds-array", "seeds-float", "heldout-bool", "hidden-string",
            "n_grid-entry-array", "n_grid-entry-float",
        ],
    )
    def test_theory_non_integer_counts_exit_2_and_name_them(self, tmp_path, request, capsys, config, named):
        # Small valid values elsewhere, so a tree that accepts the bad one
        # fails this test quickly.
        if "experiment" in config:
            small = {"n_grid": [100, 200, 300, 400], "seeds": 1, "heldout": 100, "hidden": 2}
            config = {"experiment": {**small, **config["experiment"]}}
        assert _run_with_config(tmp_path, request, "theory", config) == 2
        assert named in capsys.readouterr().err

    def test_theory_n_grid_that_is_not_an_array_exits_2_and_names_it(self, tmp_path, request, capsys):
        assert _run_with_config(tmp_path, request, "theory", {"experiment": {"n_grid": 5}}) == 2
        assert "experiment: n_grid must be JSON that fits tuple[int, ...], got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "site, config, named",
        WRONG_TYPES,
        ids=[f"{site}-{key}={json.dumps(value)}" for site, config, _ in WRONG_TYPES for key, value in config.items()],
    )
    def test_field_of_the_wrong_type_exits_2_and_names_it(self, tmp_path, request, capsys, site, config, named):
        assert _run_with_config(tmp_path, request, site, config) == 2
        assert named in capsys.readouterr().err

    def test_heuristics_caption_prefixes_load_as_tuple(self, tmp_path, request, monkeypatch):
        calls = _capture(monkeypatch, "heuristic_regions")
        assert _run_with_config(tmp_path, request, "heuristics", {"caption_prefixes": ["Fig."]}) == 0
        assert calls and calls[0][0][1] == HeuristicConfig(caption_prefixes=("Fig.",))

    def test_theory_task_loads_equal_to_its_gate_task(self, tmp_path, request, monkeypatch):
        calls = _capture(monkeypatch, "run_sample_complexity_experiment", summarize_reference_point(100))
        task = {
            "mixture": [[0.7, 0.03, 0.03], [0.3, 0.039, 0.03]],
            "p_t_range": [0.5, 0.8],
            "synthetic_iou": [0.5, 0.9],
        }
        assert _run_with_config(tmp_path, request, "theory", {"experiment": {"task": task}}) == 0
        expected = GateTask(
            mixture=((0.7, 0.03, 0.03), (0.3, 0.039, 0.03)), p_t_range=(0.5, 0.8), synthetic_iou=(0.5, 0.9)
        )
        assert calls[0][1]["task"] == expected


# Values of the right JSON type but out of range: each exits 2 naming the
# field, before the command writes anything.
OUT_OF_RANGE = [
    ("heuristics", {"region_score": 2.5}, "heuristic config: region_score=2.5 must be strictly inside (0, 1)"),
    ("heuristics", {"region_score": -1}, "heuristic config: region_score=-1 must be strictly inside (0, 1)"),
    ("heuristics", {"region_score": 0}, "heuristic config: region_score=0 must be strictly inside (0, 1)"),
    ("heuristics", {"region_quality": 2.5}, "heuristic config: region_quality=2.5 must be in (0, 1]"),
    ("heuristics", {"region_quality": 1e-200}, "heuristic config: region_quality=1e-200 must be in (0, 1]"),
    ("simulate", {"seed": -1}, "simulator config: seed=-1 must be >= 0"),
    ("simulate", {"pages": -1}, f"simulator config: pages=-1 must be in [0, {sys.maxsize}]"),
    # range() and len() index at most sys.maxsize items; 2**70 pages once ended in an OverflowError traceback.
    ("simulate", {"pages": 2**70}, f"simulator config: pages={2**70} must be in [0, {sys.maxsize}]"),
    ("train-gate", {"seed": -1}, "gate training config: seed=-1 must be >= 0"),
    ("theory-experiment", {"heldout": 0}, "heldout=0 must be >= 1"),
    ("theory-experiment", {"heldout": -1}, "heldout=-1 must be >= 1"),
    ("theory-experiment", {"hidden": 0}, "experiment: hidden=0 must be >= 1"),
    (
        "theory-task",
        {"mixture": [[1.0, 0.03, 0.03]], "p_t_range": [1.5, 2.0]},
        "gate task: p_t_range=(1.5, 2.0) must be (lo, hi) with 0 <= lo <= hi <= 1",
    ),
    ("theory-task", {"p_t_range": [0.9, 0.5]}, "gate task: p_t_range=(0.9, 0.5) must be (lo, hi)"),
    ("theory-task", {"s_l_range": [-0.1, 0.5]}, "gate task: s_l_range=(-0.1, 0.5) must be (lo, hi)"),
    ("theory-task", {"synthetic_iou": [1.5, 2.0]}, "gate task: synthetic_iou=(1.5, 2.0) must be (lo, hi)"),
    (
        "theory-task",
        {"mixture": [[1e308, 0.01, 0.01], [1e308, 0.02, 0.02]]},
        "gate task: mixture weights must have a finite sum",
    ),
]


@pytest.mark.parametrize(
    "site, fields, named", OUT_OF_RANGE, ids=[f"{site}-{json.dumps(fields)}" for site, fields, _ in OUT_OF_RANGE]
)
def test_out_of_range_field_exits_2_before_any_output(tmp_path, request, capsys, site, fields, named):
    assert _run_with_config(tmp_path, request, site, CONFIG_SITES[site][1](fields)) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "n_grid",
    [[0, 100, 200, 300], [50, 100, 200, 300], [-5, 100, 200, 300], [300, 300, 300, 300], [100, 200, 300]],
    ids=["zero", "below-100", "negative", "repeated", "three-sizes"],
)
def test_theory_n_grid_out_of_range_exits_2_before_any_cell_trains(tmp_path, request, capsys, monkeypatch, n_grid):
    from layoutfusion import theory

    drawn = []
    monkeypatch.setattr(theory, "sample_gate_instances", lambda *args, **kwargs: drawn.append(args))
    config = {"experiment": {**SMALL_EXPERIMENT, "n_grid": n_grid}}
    assert _run_with_config(tmp_path, request, "theory-experiment", config) == 2
    err = capsys.readouterr().err
    assert f"n_grid={sorted(n_grid)} must hold at least 4 distinct sizes, each >= 100" in err
    assert drawn == [] and not (tmp_path / "out").exists()


def test_theory_train_seed_exits_2_naming_it(tmp_path, request, capsys):
    """Each cell trains with a seed drawn from (--seed, n, s); a configured
    one would change the digest and nothing else."""
    config = {"experiment": {**SMALL_EXPERIMENT, "train": {"epochs": 1, "seed": 7}}}
    assert _run_with_config(tmp_path, request, "theory-train", config) == 2
    err = capsys.readouterr().err
    assert "experiment.train.seed must be left out" in err and "drawn from --seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["calibrate", "--bins", "0"], "argument --bins: must be >= 1, got 0"),
        (["lipschitz", "--gate", "gate.json", "--grid", "1"], "argument --grid: must be >= 2, got 1"),
        (["lipschitz", "--gate", "gate.json", "--grid", "-1"], "argument --grid: must be >= 2, got -1"),
        (["train-gate", "--hidden", "0"], "argument --hidden: must be >= 1, got 0"),
        (["train-gate", "--hidden", "-2"], "argument --hidden: must be >= 1, got -2"),
    ],
    ids=["bins-0", "grid-1", "grid-negative", "hidden-0", "hidden-neg"],
)
def test_count_flag_out_of_range_exits_2_naming_it_before_any_input_is_read(tmp_path, capsys, argv, named):
    # Neither the dataset nor the gate file exists: the flag is checked first.
    argv += ["--dataset", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--alpha", "0"], "argument --alpha: must be in (0, 1), got 0.0"),
        (["--alpha", "1.5"], "argument --alpha: must be in (0, 1), got 1.5"),
        (["--alpha", "2"], "argument --alpha: must be in (0, 1), got 2.0"),
        (["--delta", "0"], "argument --delta: must be finite and > 0, got 0.0"),
        (["--delta", "nan"], "argument --delta: must be finite and > 0, got nan"),
        (["--delta", "inf"], "argument --delta: must be finite and > 0, got inf"),
    ],
    ids=["alpha-0", "alpha-1.5", "alpha-2", "delta-0", "delta-nan", "delta-inf"],
)
def test_compare_flag_out_of_range_exits_2_naming_it_before_any_input_is_read(tmp_path, capsys, flags, named):
    # Neither run file exists: the flag is checked first.
    argv = ["compare", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"), *flags, "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_theory_on_deviations_below_1e_6_exits_0(tmp_path, request):
    # optimal_weights once rejected deviations this small as degenerate.
    config = {"experiment": {**SMALL_EXPERIMENT, "task": {"sigma_scale": 1e-7}}}
    assert _run_with_config(tmp_path, request, "theory-task", config) == 0
    assert (tmp_path / "out" / "theory_report.json").exists()


@pytest.mark.parametrize("command", ["simulate", "theory"])
def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exited.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _json_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(float(value))
    except OverflowError:  # an int beyond the float range
        return False


def _json_list(value, item, length=None) -> bool:
    return type(value) is list and (length is None or len(value) == length) and all(map(item, value))


# The JSON values that fit each annotation the configs use, written out
# apart from ``layoutfusion.schema``: the property below checks the
# schema against this table.
FITS = {
    "int": lambda v: type(v) is int,
    "float": _json_number,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "tuple[int, ...]": lambda v: _json_list(v, lambda x: type(x) is int),
    "tuple[str, ...]": lambda v: _json_list(v, lambda x: type(x) is str),
    "tuple[float, float]": lambda v: _json_list(v, _json_number, 2),
    "tuple[float, float] | None": lambda v: v is None or _json_list(v, _json_number, 2),
    "tuple[tuple[float, float, float], ...] | None": (
        lambda v: v is None or _json_list(v, lambda c: _json_list(c, _json_number, 3))
    ),
    "Mapping[str, float]": lambda v: type(v) is dict and all(map(_json_number, v.values())),
    "float | Mapping[str, float]": lambda v: _json_number(v) or FITS["Mapping[str, float]"](v),
}

# Arbitrary JSON, as json.loads can return it: NaN and the infinities
# included, and integers too large for a float.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)]) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _site_fields(site) -> dict:
    """Field name -> annotation source text of the config at ``site``."""
    fields = {f.name: f.type for f in dataclasses.fields(CONFIG_SITES[site][2])}
    return {**fields, "n": "int"} if site == "theory" else fields


def _empty_file(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(b"")


@pytest.mark.parametrize("site", sorted(CONFIG_SITES))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_value_in_any_field_exits_0_or_2(tmp_path, request, monkeypatch, capsys, site, data):
    """Each command's work after loading is stubbed; loading alone must end
    in exit 0 or 2, and a value that does not fit the field's annotation
    in exit 2 naming the field."""
    report = summarize_reference_point(100)
    for name, stub in {
        # simulate's pages are made inside save_dataset, so stubbing it cuts out their simulation too;
        # it leaves an empty file for the manifest to hash
        "save_dataset": lambda pages, path, **kwargs: _empty_file(path),
        "_load_pages": lambda path, taxonomy, kinds, sources=None: [],
        "train_gate": lambda samples, config, hidden: TrainResult(init_gate(hidden=2), [1.0], [1.0], 1),
        "summarize_reference_point": lambda n, config: report,
        "run_sample_complexity_experiment": lambda **kwargs: report,
    }.items():
        monkeypatch.setattr(cli, name, stub)
    fields = _site_fields(site)
    field = data.draw(st.sampled_from(sorted(fields)), label="field")
    value = data.draw(json_values, label="value")
    capsys.readouterr()
    code = _run_with_config(tmp_path, request, site, CONFIG_SITES[site][1]({field: value}))
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if not FITS[fields[field]](value):
        assert code == 2 and f"{field} must be " in err, err


def _digest(out: Path, command: str) -> str:
    return json.loads((out / f"{command}_manifest.json").read_text(encoding="utf-8"))["config_digest"]


# Per command: its arguments, and the same with one input changed that the
# digest must see.
DIGEST_CASES = {
    "simulate": (["--config", "{sim}"], ["--config", "{sim}", "--seed", "4"]),
    "fuse": (["--dataset", "{data}"], ["--dataset", "{data}", "--config", "{fuse}"]),
    "theory": ([], ["--n", "1000"]),
    "evaluate": (["--dataset", "{data}", "--source", "teacher"], ["--dataset", "{data}", "--source", "teacher", "--calibrate"]),
    "compare": (["--a", "{a}", "--b", "{b}"], ["--a", "{a}", "--b", "{b}", "--delta", "0.3"]),
    "heuristics": (["--dataset", "{data}"], ["--dataset", "{data}", "--config", "{heur}"]),
    "calibrate": (["--dataset", "{data}"], ["--dataset", "{data}", "--bins", "10"]),
    "train-gate": (
        ["--dataset", "{data}", "--hidden", "2", "--config", "{gate1}"],
        ["--dataset", "{data}", "--hidden", "2", "--config", "{gate2}"],
    ),
    "lipschitz": (["--gate", "{gate}", "--grid", "3"], ["--gate", "{gate}", "--grid", "3", "--taxonomy", "publaynet"]),
}


@pytest.mark.parametrize("command", sorted(DIGEST_CASES))
def test_manifest_digest_is_stable_and_sees_each_input(tmp_path, command):
    data = tmp_path / "data.jsonl"
    save_dataset(simulate_dataset(SimConfig(pages=30, seed=3)), data)
    files = {"data": data, "sim": tmp_path / "sim.json", "gate": _gate_file(tmp_path)}
    for name, doc in {
        "fuse": {"iou_threshold": 0.4},
        "heur": {"region_score": 0.7},
        "gate1": {"epochs": 1},
        "gate2": {"epochs": 2},
        "a": [0.5, 0.6, 0.7],
        "b": [0.5, 0.6, 0.8],
    }.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc), encoding="utf-8")
    files["sim"].write_text(json.dumps({"pages": 2}), encoding="utf-8")
    digests = []
    for i, args in enumerate((*DIGEST_CASES[command], DIGEST_CASES[command][0])):
        out = tmp_path / f"out{i}"
        assert main([command, *(a.format(**files) for a in args), "--out", str(out)]) == 0
        digests.append(_digest(out, command))
    base, changed, rerun = digests
    assert rerun == base
    assert changed != base


def _gate_file(tmp_path, mutate=None, text=None):
    """A gate file: a saved gate, changed by ``mutate`` on its JSON
    document, or ``text`` verbatim."""
    path = tmp_path / "gate.json"
    save_gate(init_gate(hidden=4, seed=0), path)
    if mutate is not None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return path


MALFORMED_GATES = {
    "format-version-only": (dict(text='{"format_version": 1}'), "missing weights"),
    "missing-b3": (dict(mutate=lambda doc: doc["weights"].pop("b3")), "missing weights.b3"),
    "weights-array": (dict(mutate=lambda doc: doc.update(weights=[1.0, 2.0])), "weights must be a JSON object"),
    "null-b3": (dict(mutate=lambda doc: doc["weights"].update(b3=None)), "weights.b3 must be a JSON number"),
    "invalid-json": (dict(text='{"format_version": 1,'), "invalid JSON"),
    "non-numeric-weight": (
        dict(mutate=lambda doc: doc["weights"]["w1"][0].__setitem__(0, "a")),
        "weights.w1 must be an array of arrays of JSON numbers",
    ),
    "missing-architecture": (dict(mutate=lambda doc: doc.pop("architecture")), "missing architecture"),
    "missing-parameter-count": (dict(mutate=lambda doc: doc.pop("parameter_count")), "missing parameter_count"),
    "header-hidden": (
        dict(mutate=lambda doc: doc["architecture"].update(hidden=[50, 50])),
        'architecture is {"input": 3, "hidden": [50, 50], "output": 1, "activation": "tanh"',
    ),
    "header-activation": (
        dict(mutate=lambda doc: doc["architecture"].update(activation="relu")),
        'architecture is {"input": 3, "hidden": [4, 4], "output": 1, "activation": "relu"',
    ),
    "header-parameter-count": (
        dict(mutate=lambda doc: doc.update(parameter_count=999)),
        "parameter_count is 999, but the weights give 41",
    ),
}


class TestMalformedGateFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED_GATES))
    @pytest.mark.parametrize("command", ["fuse", "lipschitz"])
    def test_exits_2_naming_file_and_key(self, tmp_path, dataset_path, capsys, command, case):
        change, named = MALFORMED_GATES[case]
        gate = _gate_file(tmp_path, **change)
        argv = [command, "--gate", str(gate), "--out", str(tmp_path / "out")]
        argv += ["--dataset", str(dataset_path)] if command == "fuse" else ["--grid", "3"]
        assert main(argv) == 2
        assert f"error: {gate}: {named}" in capsys.readouterr().err


# sha256 of the gate commands' data files on one small corpus, recorded
# with numpy 2.4.6 on x86-64 before the gate rows came from
# fusion.pair_features. Gate training runs BLAS matmuls, so another BLAS
# build or CPU may round differently and change them.
GATE_PIPELINE_SHA256 = {
    "gate/gate.json": "4e5b4f16fc80c9532152dbaa2671a0166ede33e591dd41cc9bc1ca7d8e08c6e7",
    "gate/gate_training.csv": "17ce392d45ecd5cdeccee8e57e00feb9ac9e718864addae9bd675d08ab315ccf",
    "gfuse/refined.jsonl": "71f0adc16314e7cfe965db59ba85f69c3a5c92666800404af58a8ff14184a7bc",
    "lip/lipschitz.json": "872f0ce1cc44e0e66b80b26e896291aa12eba157db2f87d4ad28b6f1b32fc72b",
}


def test_gate_pipeline_bytes_unchanged(tmp_path):
    (tmp_path / "sim.json").write_text(json.dumps({"pages": 30, "regions_min": 8, "regions_max": 12, "seed": 2}))
    (tmp_path / "gate_cfg.json").write_text(json.dumps({"epochs": 5}))
    dataset = str(tmp_path / "sim" / "dataset.jsonl")
    gate = str(tmp_path / "gate" / "gate.json")
    for argv in (
        ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")],
        ["train-gate", "--dataset", dataset, "--config", str(tmp_path / "gate_cfg.json"), "--hidden", "8",
         "--seed", "2", "--out", str(tmp_path / "gate")],
        ["fuse", "--dataset", dataset, "--gate", gate, "--out", str(tmp_path / "gfuse")],
        ["lipschitz", "--gate", gate, "--dataset", dataset, "--out", str(tmp_path / "lip")],
    ):
        assert main(argv) == 0
    got = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in GATE_PIPELINE_SHA256}
    assert got == GATE_PIPELINE_SHA256


# sha256 of the heuristics, calibrate and evaluate --calibrate data files
# on one small corpus, recorded before the text-region record and the
# calibration report each had one writer. These commands run no BLAS
# matmuls.
REPORT_SHA256 = {
    "heur/heuristic_regions.jsonl": "32b20de563349447442fb5f3efaf0ae9f75a38d58826c67ce99e4dadc6ba9cce",
    "heur/heuristic_dataset.jsonl": "12c6652618e1fcf09e7b8ea602e84d791ebe8ff2c74350c85b33a6d3ad5b6476",
    "cal/calibration.json": "bcbd4d1132f13f803c90ae652db3e9497ca081611e26129e285e6445ab4eafd7",
    "eval/metrics.json": "ed542807c5bd1c84aa55f6f2b8ab48e0518bbfaf6d7a31cdec186e376397a422",
}


def test_report_bytes_unchanged(tmp_path):
    (tmp_path / "sim.json").write_text(json.dumps({"pages": 30, "emit_ocr_stubs": True, "seed": 2}))
    dataset = str(tmp_path / "sim" / "dataset.jsonl")
    for argv in (
        ["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "sim")],
        ["heuristics", "--dataset", dataset, "--out", str(tmp_path / "heur")],
        ["calibrate", "--dataset", dataset, "--out", str(tmp_path / "cal")],
        ["fuse", "--dataset", dataset, "--out", str(tmp_path / "fuse")],
        ["evaluate", "--dataset", str(tmp_path / "fuse" / "refined.jsonl"), "--calibrate",
         "--out", str(tmp_path / "eval")],
    ):
        assert main(argv) == 0
    got = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in REPORT_SHA256}
    assert got == REPORT_SHA256
