"""Command-line surface: every subcommand end-to-end on small data."""

import csv
import json

import numpy as np
import pytest

import layoutfusion
from layoutfusion.cli import main
from layoutfusion.dataset_io import load_dataset, save_dataset
from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.simulator import SimConfig, simulate_dataset


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
        stripped = [p.with_llm([]) for p in pages]
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

    @pytest.mark.parametrize("hidden", ["0", "-2"])
    def test_hidden_width_below_one_exits_2(self, tmp_path, gate_dataset, capsys, hidden):
        out = tmp_path / "gate"
        assert main(["train-gate", "--dataset", str(gate_dataset), "--hidden", hidden, "--out", str(out)]) == 2
        assert f"hidden={hidden} must be >= 1" in capsys.readouterr().err

    def test_lipschitz_grid_mode(self, tmp_path):
        pages = simulate_dataset(SimConfig(pages=120, seed=9))
        path = tmp_path / "d.jsonl"
        save_dataset(pages, path)
        train_out = tmp_path / "g2"
        main(["train-gate", "--dataset", str(path), "--out", str(train_out), "--hidden", "8"])
        out = tmp_path / "lg"
        assert main(["lipschitz", "--gate", str(train_out / "gate.json"), "--grid", "9", "--out", str(out)]) == 0


class TestSchedule:
    def test_schedule_csv(self, tmp_path):
        out = tmp_path / "sched"
        assert main(["schedule", "--epochs", "8", "--out", str(out)]) == 0
        rows = (out / "schedule.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + 8 epochs
