"""Command-line surface: thin shells over the library.

Subcommands: simulate, fuse, theory, evaluate, compare, heuristics,
calibrate, train-gate, lipschitz. All randomness flows from --seed, and
rerunning any command with the same seed and config produces
byte-identical data files (manifests carry timestamps and are exempt).

Exit status: 0 on success, 2 for config or validation errors, 1 for
unexpected failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import manifest
from .curriculum import CurriculumConfig, schedule_table, threshold_table
from .dataset_io import DatasetError, load_dataset, save_dataset
from .fusion import (
    FusionConfig,
    fit_temperature,
    apply_temperature,
    gate_samples_from_pages,
    match_regions,
    refine_pseudo_labels,
)
from .gating import GateTrainConfig, estimate_lipschitz, load_gate, save_gate, train_gate
from .heuristics import HeuristicConfig, heuristic_regions
from .metrics import (
    ece,
    evaluate_pages,
    paired_t_test,
    prediction_correctness,
    significance_stars,
    tost,
)
from .simulator import GateTask, SimConfig, simulate_dataset
from .taxonomy import TAXONOMIES
from .theory import (
    TheoryConfig,
    gammas_from_pages,
    boundary_measure,
    run_sample_complexity_experiment,
    summarize_reference_point,
)


class CliError(ValueError):
    """User-facing configuration or input problem (exit status 2)."""


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc


def _build_config(cls, obj: dict, name: str):
    known = set(cls.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise CliError(f"unknown {name} field(s): {', '.join(sorted(unknown))}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {name}: {exc}") from exc


def _taxonomy(name: str):
    if name not in TAXONOMIES:
        raise CliError(f"unknown taxonomy {name!r}; choose from {sorted(TAXONOMIES)}")
    return TAXONOMIES[name]


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_pages(path, taxonomy):
    try:
        return load_dataset(path, taxonomy=taxonomy)
    except FileNotFoundError as exc:
        raise CliError(f"dataset not found: {path}") from exc
    except DatasetError as exc:
        raise CliError(str(exc)) from exc


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = manifest.now_utc()
    raw = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    config = _build_config(SimConfig, raw, "simulator config")
    pages = simulate_dataset(config)
    out = Path(args.out)
    dataset_path = out / "dataset.jsonl"
    save_dataset(pages, dataset_path)
    manifest.write_manifest(out, "simulate", config.to_dict(), config.seed, [dataset_path.name], started)
    print(f"wrote {len(pages)} pages to {dataset_path}")
    return 0


def _fusion_config_from(args) -> FusionConfig:
    raw = _load_json(args.config) if getattr(args, "config", None) else {}
    if "soft_categories" in raw:
        raw["soft_categories"] = tuple(raw["soft_categories"])
    return _build_config(FusionConfig, raw, "fusion config")


def cmd_fuse(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    config = _fusion_config_from(args)
    gate = None
    if args.gate:
        if not Path(args.gate).exists():
            raise CliError(f"gate file not found: {args.gate}")
        gate = load_gate(args.gate)
    pages = _load_pages(args.dataset, taxonomy)
    thresholds = threshold_table(taxonomy, CurriculumConfig())
    histogram: dict[str, int] = {}
    refined_pages = []
    for page in pages:
        labels = refine_pseudo_labels(page, config, gate, taxonomy=taxonomy, thresholds=thresholds)
        for label in labels:
            histogram[label.provenance] = histogram.get(label.provenance, 0) + 1
        refined_pages.append(page.with_refined(labels))
    out = Path(args.out)
    refined_path = out / "refined.jsonl"
    save_dataset(refined_pages, refined_path)
    effective = {"fusion": dataclasses.asdict(config), "gate": args.gate, "taxonomy": args.taxonomy}
    manifest.write_manifest(out, "fuse", effective, args.seed, [refined_path.name], started)
    for provenance in sorted(histogram):
        print(f"{provenance}: {histogram[provenance]}")
    print(f"wrote {len(refined_pages)} pages to {refined_path}")
    return 0


def _theory_csv_rows(report) -> tuple[list[str], list[list]]:
    header = ["kind", "n", "seed", "gap"]
    rows: list[list] = [["cell", c.n, c.seed, repr(c.gap)] for c in report.cells]
    summary = report.to_dict()
    for key in (
        "k",
        "sqrt_k_over_n",
        "predicted_gap_simple",
        "predicted_gap_log_refined",
        "boundary_fraction",
        "slope",
        "slope_stderr",
    ):
        rows.append(["summary", key, "", "" if summary[key] is None else repr(summary[key])])
    return header, rows


def cmd_theory(args) -> int:
    started = manifest.now_utc()
    raw = _load_json(args.config) if args.config else {}
    n_reference = int(raw.pop("n", args.n))
    experiment = raw.pop("experiment", None)
    # snapshot before the experiment block below consumes sub-dicts
    effective = json.loads(
        json.dumps({"config": raw, "n": n_reference, "experiment": experiment, "dataset": args.dataset})
    )
    config = _build_config(TheoryConfig, raw, "theory config")

    if experiment is not None:
        task_raw = experiment.pop("task", {})
        train_raw = experiment.pop("train", {})
        try:
            task = GateTask.from_dict(task_raw)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        train = _build_config(GateTrainConfig, train_raw, "gate training config") if train_raw else None
        known = {"n_grid", "seeds", "heldout", "hidden"}
        unknown = set(experiment) - known
        if unknown:
            raise CliError(f"unknown experiment field(s): {', '.join(sorted(unknown))}")
        report = run_sample_complexity_experiment(
            n_grid=experiment.get("n_grid", [500, 1000, 2000, 4000, 8000, 16000, 32000]),
            seeds=int(experiment.get("seeds", 3)),
            task=task,
            train_config=train,
            config=config,
            heldout=int(experiment.get("heldout", 20000)),
            hidden=int(experiment.get("hidden", 32)),
            master_seed=args.seed,
        )
    else:
        report = summarize_reference_point(n_reference, config)
        if args.dataset:
            taxonomy = _taxonomy(args.taxonomy)
            pages = _load_pages(args.dataset, taxonomy)
            gammas = gammas_from_pages(pages, taxonomy=taxonomy)
            report.boundary_fraction = boundary_measure(gammas, config)

    out = Path(args.out)
    outputs = []
    if args.format in ("json", "both"):
        _write_json(out / "theory_report.json", report.to_dict())
        outputs.append("theory_report.json")
    if args.format in ("csv", "both"):
        header, rows = _theory_csv_rows(report)
        _write_csv(out / "theory_report.csv", header, rows)
        outputs.append("theory_report.csv")
    manifest.write_manifest(out, "theory", effective, args.seed, outputs, started)
    print(f"k={report.k:.4f} sqrt(k/n)={report.sqrt_k_over_n:.6f}")
    if report.slope is not None:
        print(f"slope={report.slope:.4f} +/- {report.slope_stderr:.4f}")
    if report.degenerate:
        print(report.note)
    return 0


def _metrics_csv_rows(result) -> tuple[list[str], list[list]]:
    header = ["category", "iou_threshold", "gt_count", "ap"]
    rows = []
    for name in sorted(result.per_category):
        cat = result.per_category[name]
        for threshold in sorted(cat.by_threshold):
            rows.append([name, threshold, cat.gt_count, repr(cat.by_threshold[threshold])])
        rows.append([name, "mean", cat.gt_count, repr(cat.ap)])
    rows.append(["macro", "0.5", "", repr(result.ap50)])
    rows.append(["macro", "0.75", "", repr(result.ap75)])
    rows.append(["macro", "mean", "", repr(result.ap)])
    rows.append(["weighted", "mean", "", repr(result.weighted_ap)])
    return header, rows


def cmd_evaluate(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    pages = _load_pages(args.dataset, taxonomy)
    try:
        result = evaluate_pages(pages, source=args.source)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    doc = {
        "source": args.source,
        "ap": result.ap,
        "ap50": result.ap50,
        "ap75": result.ap75,
        "weighted_ap": result.weighted_ap,
        "per_category": {
            name: {"ap": cat.ap, "gt_count": cat.gt_count} for name, cat in result.per_category.items()
        },
    }
    if args.calibrate:
        confidences, correct = prediction_correctness(pages, source=args.source)
        before = ece(confidences, correct)
        temperature = fit_temperature(confidences, correct)
        after = ece(apply_temperature(confidences, temperature), correct)
        doc["calibration"] = {
            "temperature": temperature,
            "ece_before": before.ece,
            "ece_after": after.ece,
        }
    out = Path(args.out)
    outputs = []
    if args.format in ("json", "both"):
        _write_json(out / "metrics.json", doc)
        outputs.append("metrics.json")
    if args.format in ("csv", "both"):
        header, rows = _metrics_csv_rows(result)
        _write_csv(out / "metrics.csv", header, rows)
        outputs.append("metrics.csv")
    manifest.write_manifest(out, "evaluate", {"dataset": args.dataset, "source": args.source}, args.seed, outputs, started)
    print(f"ap={result.ap:.4f} ap50={result.ap50:.4f} ap75={result.ap75:.4f}")
    if args.calibrate:
        cal = doc["calibration"]
        print(f"temperature={cal['temperature']:.4f} ece {cal['ece_before']:.4f} -> {cal['ece_after']:.4f}")
    return 0


def cmd_compare(args) -> int:
    started = manifest.now_utc()
    a = _load_json(args.a)
    b = _load_json(args.b)
    if not isinstance(a, list) or not isinstance(b, list):
        raise CliError("comparison inputs must be JSON arrays of per-seed metric values")
    if len(a) != len(b):
        raise CliError(f"unpaired metric lists: {len(a)} vs {len(b)} values")
    try:
        ttest = paired_t_test(a, b)
        equivalence = tost(a, b, delta=args.delta, alpha=args.alpha)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    doc = {
        "n": len(a),
        "mean_difference": equivalence.mean_difference,
        "t": ttest.t,
        "p": ttest.p,
        "stars": significance_stars(ttest.p),
        "tost": {
            "margin": equivalence.margin,
            "alpha": args.alpha,
            "p_lower": equivalence.p_lower,
            "p_upper": equivalence.p_upper,
            "equivalent": equivalence.equivalent,
        },
    }
    out = Path(args.out)
    _write_json(out / "comparison.json", doc)
    manifest.write_manifest(
        out, "compare", {"a": args.a, "b": args.b, "delta": args.delta, "alpha": args.alpha},
        args.seed, ["comparison.json"], started,
    )
    stars = doc["stars"] or "ns"
    print(f"p={ttest.p:.6g} ({stars}); equivalent within +/-{args.delta}: {equivalence.equivalent}")
    return 0


def cmd_heuristics(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    raw = _load_json(args.config) if args.config else {}
    if "caption_prefixes" in raw:
        raw["caption_prefixes"] = tuple(raw["caption_prefixes"])
    config = _build_config(HeuristicConfig, raw, "heuristic config")
    pages = _load_pages(args.dataset, taxonomy)
    out = Path(args.out)
    regions_path = out / "heuristic_regions.jsonl"
    dataset_path = out / "heuristic_dataset.jsonl"
    replaced = []
    total = 0
    regions_path.parent.mkdir(parents=True, exist_ok=True)
    with open(regions_path, "w", encoding="utf-8") as fh:
        for page in pages:
            regions = heuristic_regions(page, config, taxonomy)
            total += len(regions)
            record = {
                "page_id": page.page_id,
                "regions": [
                    {
                        "type": r.category.name,
                        "bbox": [r.box.x1, r.box.y1, r.box.x2, r.box.y2],
                        "score": r.score,
                        "q_text": r.q_text,
                        "q_spatial": r.q_spatial,
                        "source": "heuristic",
                    }
                    for r in regions
                ],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            replaced.append(page.with_llm(regions))
    save_dataset(replaced, dataset_path)
    manifest.write_manifest(
        out, "heuristics", {"dataset": args.dataset, "taxonomy": args.taxonomy}, args.seed,
        [regions_path.name, dataset_path.name], started,
    )
    print(f"emitted {total} heuristic regions over {len(pages)} pages")
    return 0


def cmd_calibrate(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    pages = _load_pages(args.dataset, taxonomy)
    doc: dict = {}
    for source in ("teacher", "llm"):
        confidences, correct = prediction_correctness(pages, source=source)
        try:
            temperature = fit_temperature(confidences, correct)
        except ValueError as exc:
            raise CliError(f"{source} stream: {exc}") from exc
        before = ece(confidences, correct, bins=args.bins)
        after = ece(apply_temperature(confidences, temperature), correct, bins=args.bins)
        doc[source] = {
            "temperature": temperature,
            "ece_before": before.ece,
            "ece_after": after.ece,
            "samples": int(len(confidences)),
        }
        print(f"{source}: T={temperature:.4f} ece {before.ece:.4f} -> {after.ece:.4f}")
    out = Path(args.out)
    _write_json(out / "calibration.json", doc)
    manifest.write_manifest(
        out, "calibrate", {"dataset": args.dataset, "bins": args.bins}, args.seed, ["calibration.json"], started
    )
    return 0


def cmd_train_gate(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    raw = _load_json(args.config) if args.config else {}
    raw.setdefault("seed", args.seed)
    config = _build_config(GateTrainConfig, raw, "gate training config")
    pages = _load_pages(args.dataset, taxonomy)
    samples = gate_samples_from_pages(pages, taxonomy=taxonomy)
    try:
        result = train_gate(samples, config, hidden=args.hidden)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = Path(args.out)
    gate_path = out / "gate.json"
    save_gate(result.params, gate_path)
    history_rows = [
        [epoch + 1, repr(train_loss), repr(val_loss)]
        for epoch, (train_loss, val_loss) in enumerate(zip(result.train_losses, result.val_losses))
    ]
    _write_csv(out / "gate_training.csv", ["epoch", "train_loss", "val_loss"], history_rows)
    manifest.write_manifest(
        out, "train-gate", {"dataset": args.dataset, "config": raw, "hidden": args.hidden},
        config.seed, [gate_path.name, "gate_training.csv"], started,
    )
    print(
        f"trained on {len(samples)} samples; best epoch {result.best_epoch} "
        f"(val loss {result.val_losses[result.best_epoch - 1]:.6f}); wrote {gate_path}"
    )
    return 0


def cmd_lipschitz(args) -> int:
    started = manifest.now_utc()
    if not Path(args.gate).exists():
        raise CliError(f"gate file not found: {args.gate}")
    gate = load_gate(args.gate)
    if args.dataset:
        taxonomy = _taxonomy(args.taxonomy)
        pages = _load_pages(args.dataset, taxonomy)
        points = []
        for page in pages:
            outcome = match_regions(page.teacher, page.llm, taxonomy=taxonomy)
            for m in outcome.matches:
                pred = page.teacher[m.teacher_index]
                region = page.llm[m.llm_index]
                points.append([pred.confidence, region.score, m.iou])
        points = np.array(points, dtype=np.float64)
        if points.size == 0:
            raise CliError("dataset produced no matched pairs to probe")
    else:
        axis = np.linspace(0.0, 1.0, args.grid)
        points = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    try:
        estimate = estimate_lipschitz(gate, points, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = Path(args.out)
    _write_json(out / "lipschitz.json", {"lipschitz": estimate, "points": int(points.shape[0])})
    manifest.write_manifest(
        out, "lipschitz", {"gate": args.gate, "dataset": args.dataset, "grid": args.grid},
        args.seed, ["lipschitz.json"], started,
    )
    print(f"lipschitz estimate {estimate:.4f} over {points.shape[0]} points")
    return 0


def cmd_schedule(args) -> int:
    started = manifest.now_utc()
    taxonomy = _taxonomy(args.taxonomy)
    raw = _load_json(args.config) if args.config else {}
    config = _build_config(CurriculumConfig, raw, "curriculum config")
    rows = schedule_table(args.epochs, config, taxonomy)
    out = Path(args.out)
    _write_csv(
        out / "schedule.csv",
        ["epoch", "sources", "thresholds", "regenerate"],
        [[r["epoch"], r["sources"], r["thresholds"], r["regenerate"]] for r in rows],
    )
    manifest.write_manifest(out, "schedule", {"epochs": args.epochs}, args.seed, ["schedule.csv"], started)
    print(f"wrote schedule for {args.epochs} epochs")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_common(parser, *, config=True, fmt=False, taxonomy=False, seed_default=0) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=seed_default, help="master random seed")
    if config:
        parser.add_argument("--config", help="JSON config file")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    if taxonomy:
        parser.add_argument("--taxonomy", default="doclaynet", choices=sorted(TAXONOMIES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layoutfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    # seed default None: an explicit --seed (even 0) overrides the config
    # file's seed, an absent flag defers to it.
    _add_common(p, seed_default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="refine pseudo-labels over a dataset")
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--gate", help="trained gate JSON file")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("theory", help="sample-complexity diagnostics and experiment")
    _add_common(p, fmt=True, taxonomy=True)
    p.add_argument("--dataset", help="dataset for regime analysis")
    p.add_argument("--n", type=int, default=26000, help="reference sample count")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("evaluate", help="AP and calibration metrics")
    _add_common(p, config=False, fmt=True, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--source", default="refined", choices=("refined", "teacher", "llm"))
    p.add_argument("--calibrate", action="store_true", help="also fit a temperature and report ECE before/after")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired t-test and equivalence test between runs")
    _add_common(p, config=False)
    p.add_argument("--a", required=True, help="JSON array of per-seed metrics (run A)")
    p.add_argument("--b", required=True, help="JSON array of per-seed metrics (run B)")
    p.add_argument("--delta", type=float, default=0.5, help="equivalence margin")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heuristics", help="run the rule-based text-prior baseline")
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_heuristics)

    p = sub.add_parser("calibrate", help="fit per-stream temperatures against ground truth")
    _add_common(p, config=False, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train-gate", help="train the fusion gate on a dataset with ground truth")
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.set_defaults(func=cmd_train_gate)

    p = sub.add_parser("lipschitz", help="estimate the gate's Lipschitz constant")
    _add_common(p, config=False, taxonomy=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--dataset", help="probe points from this dataset's matched pairs")
    p.add_argument("--grid", type=int, default=21, help="per-axis grid resolution when no dataset given")
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("schedule", help="export the curriculum schedule table")
    _add_common(p, taxonomy=True)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_schedule)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # CliError and DatasetError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
