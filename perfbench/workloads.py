"""The three benchmark workloads: their configs, commands and output checks.

A workload is a fixed sequence of ``layoutfusion`` CLI commands. Its
inputs are generated from the benchmark seed alone; the program sees
only the config files written here. Every command's outputs are checked
after the repetition that produced them, outside the timed region.

Why each workload exists, and which layer metric should move which
end-to-end metric, is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Float tolerances for comparing against the recorded reference. They
# admit last-digit changes from a reordered sum or a vectorised kernel,
# and nothing larger.
AP_ABS_TOL = 1e-6
TEMPERATURE_ABS_TOL = 2e-4  # twice the golden-section tolerance of fit_temperature
SLOPE_ABS_TOL = 1e-6
K_REL_TOL = 1e-12

# The README's theory experiment: n_grid 500..32000, 3 seeds per size.
THEORY_N_GRID = [500, 1000, 2000, 4000, 8000, 16000, 32000]
THEORY_SEEDS = 3
THEORY_EXPERIMENT = {
    "lipschitz_scale": 10.0,
    "experiment": {
        "n_grid": THEORY_N_GRID,
        "seeds": THEORY_SEEDS,
        "heldout": 20000,
        "hidden": 32,
        "task": {"sigma_scale": 0.05, "ratio_lo": 0.25, "ratio_hi": 4.0},
    },
}
THEORY_GATE_INSTANCES = THEORY_SEEDS * sum(THEORY_N_GRID)
GATE_EPOCHS = 40  # GateTrainConfig default, used by train-gate

# Seeds whose outputs reference.json holds; record_reference.py records them all.
REFERENCE_SEEDS = range(64)

# Layer isolation, checked on every traced repetition: metric -> inclusive
# (low, high). corpus_sparse makes at most SPARSE_IOU_PER_PAGE IoU calls
# per page (138-150 on seeds 0-63) and corpus_dense at least 40 times that
# (6440-7270 on seeds 0-63), so dense makes 40x sparse's calls per page.
SPARSE_IOU_PER_PAGE = 155


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``key`` names its wall-time metric ``<key>_s``."""

    key: str
    argv: tuple[str, ...]
    out_dir: str  # relative to the repetition directory


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], dict]  # seed -> {file name: JSON object}
    commands: Callable[[int, Path, Path], list[Command]]
    pages: int  # corpus pages per repetition; 0 for theory_sweep
    isolation: dict[str, tuple[float, float]]  # traced metric -> inclusive (low, high)


def _sparse_configs(seed: int) -> dict:
    return {
        "sim.json": {
            "seed": seed, "pages": 500, "regions_min": 4, "regions_max": 8,
            "emit_coordinate_variance": True, "emit_ocr_stubs": True,
        }
    }


def _dense_configs(seed: int) -> dict:
    # Noise shrinks with the smaller boxes so the match rate stays at
    # corpus_sparse's 0.86.
    return {
        "sim.json": {
            "seed": seed, "pages": 50, "regions_min": 36, "regions_max": 48,
            "sigma_t": 0.004, "sigma_l": 0.006,
        }
    }


def _theory_configs(seed: int) -> dict:
    return {"theory.json": THEORY_EXPERIMENT}


def _cmd(key: str, out_dir: str, rep: Path, *argv: str) -> Command:
    return Command(key, tuple(argv) + ("--out", str(rep / out_dir)), out_dir)


def _sparse_commands(seed: int, cfg: Path, rep: Path) -> list[Command]:
    dataset = str(rep / "sim" / "dataset.jsonl")
    return [
        _cmd("simulate", "sim", rep, "simulate", "--config", str(cfg / "sim.json"), "--seed", str(seed)),
        _cmd("fuse", "fuse", rep, "fuse", "--dataset", dataset),
        _cmd("evaluate", "eval", rep, "evaluate", "--dataset", str(rep / "fuse" / "refined.jsonl"), "--calibrate"),
        _cmd("heuristics", "heur", rep, "heuristics", "--dataset", dataset),
    ]


def _dense_commands(seed: int, cfg: Path, rep: Path) -> list[Command]:
    dataset = str(rep / "sim" / "dataset.jsonl")
    return [
        _cmd("simulate", "sim", rep, "simulate", "--config", str(cfg / "sim.json"), "--seed", str(seed)),
        _cmd("fuse", "fuse", rep, "fuse", "--dataset", dataset),
        _cmd("train_gate", "gate", rep, "train-gate", "--dataset", dataset, "--seed", str(seed)),
        _cmd("gated_fuse", "gfuse", rep, "fuse", "--dataset", dataset, "--gate", str(rep / "gate" / "gate.json")),
        _cmd("evaluate", "eval", rep, "evaluate", "--dataset", str(rep / "gfuse" / "refined.jsonl")),
    ]


def _theory_commands(seed: int, cfg: Path, rep: Path) -> list[Command]:
    return [_cmd("theory", "theory", rep, "theory", "--config", str(cfg / "theory.json"), "--seed", str(seed))]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("corpus_sparse", _sparse_configs, _sparse_commands, 500, {
            "gating.train_gate.calls": (0, 0),
            "geometry.iou_calls_per_page": (0, SPARSE_IOU_PER_PAGE),
        }),
        Workload("corpus_dense", _dense_configs, _dense_commands, 50, {
            "geometry.iou_calls_per_page": (40 * SPARSE_IOU_PER_PAGE, math.inf),
        }),
        Workload("theory_sweep", _theory_configs, _theory_commands, 0, {
            "dataset_io.calls": (0, 0),
            "fusion.match_regions.calls": (0, 0),
        }),
    )
}


def write_configs(workload: Workload, seed: int, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, obj in workload.configs(seed).items():
        (cfg_dir / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def data_file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every data file below ``out_dir``; manifests carry
    timestamps and are exempt, as in the CLI's own determinism test."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and not path.name.endswith("_manifest.json"):
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _histogram(pages: list[dict]) -> dict[str, int]:
    histogram: dict[str, int] = {}
    for page in pages:
        for label in page["refined"]:
            histogram[label["provenance"]] = histogram.get(label["provenance"], 0) + 1
    return dict(sorted(histogram.items()))


def _printed_histogram(stdout: str) -> dict[str, int]:
    histogram = {}
    for line in stdout.splitlines():
        name, sep, count = line.partition(": ")
        if sep and count.isdigit():
            histogram[name] = int(count)
    return dict(sorted(histogram.items()))


def _check_simulate(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    pages = _read_jsonl(out / "dataset.jsonl")
    counts = {
        "pages": len(pages),
        "teacher_boxes": sum(len(p["teacher"]) for p in pages),
        "llm_regions": sum(len(p["llm"]) for p in pages),
        "gt_boxes": sum(len(p["ground_truth"]) for p in pages),
    }
    if counts["pages"] != config["pages"]:
        problems.append(f"simulate wrote {counts['pages']} pages, config asks {config['pages']}")
    for page in pages:
        n = len(page["ground_truth"])
        if not config["regions_min"] <= n <= config["regions_max"] or not len(page["teacher"]) == len(page["llm"]) == n:
            problems.append(f"simulate page {page['page_id']}: region counts outside the config")
            break
    return counts


def _check_fuse(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    pages = _read_jsonl(out / "refined.jsonl")
    histogram = _histogram(pages)
    if _printed_histogram(stdout) != histogram:
        problems.append(f"fuse printed {_printed_histogram(stdout)} but wrote {histogram}")
    if len(pages) != config["pages"]:
        problems.append(f"fuse wrote {len(pages)} pages, expected {config['pages']}")
    return {"pages": len(pages), "labels": sum(histogram.values()), "provenance": histogram}


def _check_evaluate(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    values = {key: doc[key] for key in ("ap", "ap50", "ap75")}
    if not all(0.0 <= v <= 1.0 for v in values.values()):
        problems.append(f"evaluate AP outside [0, 1]: {values}")
    if "calibration" in doc:
        values["temperature"] = doc["calibration"]["temperature"]
        if not 0.05 <= values["temperature"] <= 20.0:
            problems.append(f"fitted temperature {values['temperature']} outside the search range")
    return values


def _check_heuristics(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    records = _read_jsonl(out / "heuristic_regions.jsonl")
    regions = sum(len(r["regions"]) for r in records)
    if f"emitted {regions} heuristic regions over {len(records)} pages" not in stdout:
        problems.append("heuristics summary line disagrees with heuristic_regions.jsonl")
    if len(records) != config["pages"]:
        problems.append(f"heuristics covered {len(records)} pages, expected {config['pages']}")
    return {"pages": len(records), "regions": regions}


def _check_train_gate(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    with open(out / "gate_training.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    val = [float(r["val_loss"]) for r in rows]
    if len(rows) != GATE_EPOCHS:
        problems.append(f"train-gate logged {len(rows)} epochs, expected {GATE_EPOCHS}")
    best_epoch = val.index(min(val)) + 1 if val else 0
    if f"best epoch {best_epoch} " not in stdout:
        problems.append(f"train-gate best epoch in stdout disagrees with the loss log ({best_epoch})")
    json.loads((out / "gate.json").read_text(encoding="utf-8"))
    return {"best_epoch": best_epoch}


def _check_theory(out: Path, stdout: str, config: dict, problems: list[str]) -> dict:
    doc = json.loads((out / "theory_report.json").read_text(encoding="utf-8"))
    cells = len(doc["cells"])
    if cells != len(THEORY_N_GRID) * THEORY_SEEDS:
        problems.append(f"theory reported {cells} cells, expected {len(THEORY_N_GRID) * THEORY_SEEDS}")
    expected_k = 3 * math.log(1.0 + THEORY_EXPERIMENT["lipschitz_scale"] * math.sqrt(THEORY_N_GRID[-1]))
    if not math.isclose(doc["k"], expected_k, rel_tol=K_REL_TOL):
        problems.append(f"theory k={doc['k']!r}, closed form gives {expected_k!r}")
    return {"k": doc["k"], "slope": doc["slope"], "cells": cells}


CHECKS = {
    "simulate": _check_simulate,
    "fuse": _check_fuse,
    "gated_fuse": _check_fuse,
    "evaluate": _check_evaluate,
    "heuristics": _check_heuristics,
    "train_gate": _check_train_gate,
    "theory": _check_theory,
}


def check_command(command: Command, rep: Path, stdout: str, config: dict) -> tuple[dict, list[str]]:
    """Values read back from a finished command, and every problem found."""
    problems: list[str] = []
    try:
        values = CHECKS[command.key](rep / command.out_dir, stdout, config, problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"{command.key}: outputs unreadable: {type(exc).__name__}: {exc}"]
    return values, problems


def compare_to_reference(key: str, values: dict, reference: dict) -> list[str]:
    """Exact counts and histograms; floats within the stated tolerances."""
    tolerances = {
        "ap": AP_ABS_TOL, "ap50": AP_ABS_TOL, "ap75": AP_ABS_TOL,
        "temperature": TEMPERATURE_ABS_TOL, "slope": SLOPE_ABS_TOL,
    }
    problems = []
    for name, expected in reference.items():
        actual = values.get(name)
        if name == "k":
            ok = actual is not None and math.isclose(actual, expected, rel_tol=K_REL_TOL)
        elif name in tolerances and expected is not None and actual is not None:
            ok = abs(actual - expected) <= tolerances[name]
        else:
            ok = actual == expected
        if not ok:
            problems.append(f"{key}.{name} = {actual!r}, reference {expected!r}")
    return problems
