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
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import manifest
from .curriculum import threshold_table
from .dataset_io import load_dataset, regions_line, save_dataset
from .fusion import (
    FusionConfig,
    fit_temperature,
    apply_temperature,
    gate_samples_from_pages,
    match_regions,
    pair_features,
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
from .schema import check
from .simulator import GateTask, SimConfig, simulate_dataset
from .taxonomy import TAXONOMIES
from .theory import (
    Experiment,
    TheoryConfig,
    gammas_from_pages,
    boundary_measure,
    run_sample_complexity_experiment,
    summarize_reference_point,
)


class CliError(ValueError):
    """User-facing configuration or input problem (exit status 2)."""


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object; else exit 2 naming ``where``."""
    if not isinstance(value, dict):
        raise CliError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _load_json(path, name: str = "config file"):
    """The JSON document in ``path``; a missing file exits 2 naming ``name``,
    and a document json cannot read exits 2 naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CliError(f"{name} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer beyond the digit limit
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply to decode") from None


def _load_config(path) -> dict:
    """The object in the JSON config file ``path``; {} without a file."""
    return _object(_load_json(path), f"config file {path}") if path else {}


def _tuples(value):
    """``value`` with every JSON array, at any depth, as a tuple."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return value


def _build_config(cls, obj: dict, name: str):
    """The one config loader: a dataclass from a JSON object, with unknown
    fields rejected by name, arrays loaded as tuples and errors prefixed
    with ``name``. The class checks its field types and ranges itself."""
    unknown = set(obj) - set(cls.__dataclass_fields__)
    if unknown:
        raise CliError(f"unknown {name} field(s): {', '.join(sorted(unknown))}")
    try:
        return cls(**_tuples(obj))
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from exc
    except RecursionError:  # _tuples recurses once per level of an array json decoded
        raise CliError(f"{name}: a field is nested too deeply") from None


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(args, stem: str, doc, csv_table) -> list[str]:
    """Write ``stem``.json and ``stem``.csv (header, rows); return the names."""
    _write_json(Path(args.out) / f"{stem}.json", doc)
    _write_csv(Path(args.out) / f"{stem}.csv", *csv_table)
    return [f"{stem}.json", f"{stem}.csv"]


def _load_pages(path, taxonomy, kinds, sources: list | None = None):
    """The pages of the dataset ``path``, built for the record kinds ``kinds``; with
    ``sources``, also what a command that rewrites them passes to ``save_dataset``."""
    digests = manifest.listed_digests(path) if sources is not None else ()
    try:
        return load_dataset(path, taxonomy=taxonomy, digests=digests, sources=sources, kinds=kinds)
    except FileNotFoundError as exc:
        raise CliError(f"dataset not found: {path}") from exc


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_simulate(args):
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = _build_config(SimConfig, raw, "simulator config")
    args.seed = config.seed
    dataset_path = Path(args.out) / "dataset.jsonl"
    # Each process writing a part of the file simulates that part's pages;
    # they hold a ground-truth box, a teacher box and a text region per region.
    records = config.pages * 3 * (config.regions_min + config.regions_max) // 2
    save_dataset(range(config.pages), dataset_path, make_pages=functools.partial(simulate_dataset, config), records=records)
    print(f"wrote {config.pages} pages to {dataset_path}")
    return [dataset_path.name], [config]


def cmd_fuse(args):
    taxonomy = TAXONOMIES[args.taxonomy]
    raw = _load_config(args.config)
    config = _build_config(FusionConfig, raw, "fusion config")
    # Only configured names are checked: the default set names categories
    # that some taxonomies (publaynet) lack.
    unknown = [name for name in raw.get("soft_categories", ()) if name not in taxonomy]
    if unknown:
        raise CliError(f"unknown soft_categories for taxonomy {taxonomy.name!r}: {', '.join(unknown)}")
    gate = None
    if args.gate:
        if not Path(args.gate).exists():
            raise CliError(f"gate file not found: {args.gate}")
        gate = load_gate(args.gate)
    sources: list = []
    pages = _load_pages(args.dataset, taxonomy, ("teacher", "llm"), sources)
    thresholds = threshold_table(taxonomy)
    histogram: dict[str, int] = {}
    refined_pages = []
    for page in pages:
        labels = refine_pseudo_labels(page, config, gate, taxonomy=taxonomy, thresholds=thresholds)
        for label in labels:
            histogram[label.provenance] = histogram.get(label.provenance, 0) + 1
        refined_pages.append(dataclasses.replace(page, refined=tuple(labels)))
    refined_path = Path(args.out) / "refined.jsonl"
    save_dataset(refined_pages, refined_path, sources=sources)
    for provenance in sorted(histogram):
        print(f"{provenance}: {histogram[provenance]}")
    print(f"wrote {len(refined_pages)} pages to {refined_path}")
    return [refined_path.name], [config]


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


def cmd_theory(args):
    raw = _load_config(args.config)
    args.n = check(raw.pop("n", args.n), int, f"{args.config}: n")
    block = raw.pop("experiment", None)
    config = _build_config(TheoryConfig, raw, "theory config")
    configs = [config]

    if block is not None:
        block = _object(block, f"{args.config}: experiment")
        task_raw = _object(block.pop("task", {}), f"{args.config}: experiment.task")
        train_raw = _object(block.pop("train", {}), f"{args.config}: experiment.train")
        if "seed" in train_raw:
            raise CliError(
                f"{args.config}: experiment.train.seed must be left out: each cell's training seed is drawn from --seed"
            )
        task = _build_config(GateTask, task_raw, "gate task")
        train = _build_config(GateTrainConfig, train_raw, "gate training config") if train_raw else None
        experiment = _build_config(Experiment, block, "experiment")
        configs += [experiment, task, train]
        report = run_sample_complexity_experiment(
            experiment=experiment, task=task, train_config=train, config=config, master_seed=args.seed
        )
    else:
        report = summarize_reference_point(args.n, config)
        if args.dataset:
            taxonomy = TAXONOMIES[args.taxonomy]
            pages = _load_pages(args.dataset, taxonomy, ("teacher", "llm"))
            gammas = gammas_from_pages(pages, taxonomy=taxonomy)
            report.boundary_fraction = boundary_measure(gammas, config)

    outputs = _write_report(args, "theory_report", report.to_dict(), _theory_csv_rows(report))
    print(f"k={report.k:.4f} sqrt(k/n)={report.sqrt_k_over_n:.6f}")
    if report.slope is not None:
        print(f"slope={report.slope:.4f} +/- {report.slope_stderr:.4f}")
    if report.degenerate:
        print(report.note)
    return outputs, configs


def _calibration(pages, source: str, bins: int) -> tuple[dict, int]:
    """The fitted temperature of ``source``'s confidences with its ECE
    before and after, and the number of confidences it was fitted on."""
    confidences, correct = prediction_correctness(pages, source=source)
    try:
        temperature = fit_temperature(confidences, correct)
    except ValueError as exc:
        raise CliError(f"{source} stream: {exc}") from exc
    report = {
        "temperature": temperature,
        "ece_before": ece(confidences, correct, bins=bins).ece,
        "ece_after": ece(apply_temperature(confidences, temperature), correct, bins=bins).ece,
    }
    return report, len(confidences)


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


def cmd_evaluate(args):
    taxonomy = TAXONOMIES[args.taxonomy]
    pages = _load_pages(args.dataset, taxonomy, (args.source, "ground_truth"))
    result = evaluate_pages(pages, source=args.source)
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
        doc["calibration"], _ = _calibration(pages, args.source, bins=15)
    outputs = _write_report(args, "metrics", doc, _metrics_csv_rows(result))
    print(f"ap={result.ap:.4f} ap50={result.ap50:.4f} ap75={result.ap75:.4f}")
    if args.calibrate:
        cal = doc["calibration"]
        print(f"temperature={cal['temperature']:.4f} ece {cal['ece_before']:.4f} -> {cal['ece_after']:.4f}")
    return outputs, []


def cmd_compare(args):
    # Per-seed metric values: finite JSON numbers, by the config type rule.
    a = check(_tuples(_load_json(args.a, "--a file")), tuple[float, ...], f"--a file {args.a}")
    b = check(_tuples(_load_json(args.b, "--b file")), tuple[float, ...], f"--b file {args.b}")
    if len(a) != len(b):
        raise CliError(f"unpaired metric lists: {len(a)} vs {len(b)} values")
    try:
        ttest = paired_t_test(a, b)
    except ValueError as exc:
        raise CliError(f"{args.a} - {args.b}: {exc}") from exc
    equivalence = tost(a, b, delta=args.delta, alpha=args.alpha)
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
    _write_json(Path(args.out) / "comparison.json", doc)
    stars = doc["stars"] or "ns"
    print(f"p={ttest.p:.6g} ({stars}); equivalent within +/-{args.delta}: {equivalence.equivalent}")
    return ["comparison.json"], []


def cmd_heuristics(args):
    taxonomy = TAXONOMIES[args.taxonomy]
    raw = _load_config(args.config)
    config = _build_config(HeuristicConfig, raw, "heuristic config")
    sources: list = []
    pages = _load_pages(args.dataset, taxonomy, ("ocr_blocks",), sources)
    out = Path(args.out)
    regions_path = out / "heuristic_regions.jsonl"
    dataset_path = out / "heuristic_dataset.jsonl"
    replaced = []
    total = 0
    regions_path.parent.mkdir(parents=True, exist_ok=True)
    with open(regions_path, "w", encoding="utf-8") as fh:
        for page in pages:
            page = dataclasses.replace(page, llm=tuple(heuristic_regions(page, config, taxonomy)))
            total += len(page.llm)
            fh.write(regions_line(page, "heuristic"))
            replaced.append(page)
    save_dataset(replaced, dataset_path, sources=sources)
    print(f"emitted {total} heuristic regions over {len(pages)} pages")
    return [regions_path.name, dataset_path.name], [config]


def cmd_calibrate(args):
    taxonomy = TAXONOMIES[args.taxonomy]
    pages = _load_pages(args.dataset, taxonomy, ("teacher", "llm", "ground_truth"))
    doc: dict = {}
    for source in ("teacher", "llm"):
        cal, samples = _calibration(pages, source, args.bins)
        doc[source] = {**cal, "samples": samples}
        print(f"{source}: T={cal['temperature']:.4f} ece {cal['ece_before']:.4f} -> {cal['ece_after']:.4f}")
    _write_json(Path(args.out) / "calibration.json", doc)
    return ["calibration.json"], []


def cmd_train_gate(args):
    taxonomy = TAXONOMIES[args.taxonomy]
    raw = _load_config(args.config)
    raw.setdefault("seed", args.seed)
    config = _build_config(GateTrainConfig, raw, "gate training config")
    args.seed = config.seed
    pages = _load_pages(args.dataset, taxonomy, ("teacher", "llm", "ground_truth"))
    samples = gate_samples_from_pages(pages, taxonomy=taxonomy)
    result = train_gate(samples, config, hidden=args.hidden)
    out = Path(args.out)
    gate_path = out / "gate.json"
    save_gate(result.params, gate_path)
    history_rows = [
        [epoch + 1, repr(train_loss), repr(val_loss)]
        for epoch, (train_loss, val_loss) in enumerate(zip(result.train_losses, result.val_losses))
    ]
    _write_csv(out / "gate_training.csv", ["epoch", "train_loss", "val_loss"], history_rows)
    print(
        f"trained on {len(samples)} samples; best epoch {result.best_epoch} "
        f"(val loss {result.val_losses[result.best_epoch - 1]:.6f}); wrote {gate_path}"
    )
    return [gate_path.name, "gate_training.csv"], [config]


def cmd_lipschitz(args):
    if not Path(args.gate).exists():
        raise CliError(f"gate file not found: {args.gate}")
    gate = load_gate(args.gate)
    if args.dataset:
        taxonomy = TAXONOMIES[args.taxonomy]
        pages = _load_pages(args.dataset, taxonomy, ("teacher", "llm"))
        rows = [pair_features(page, match_regions(page.teacher, page.llm, taxonomy=taxonomy).matches) for page in pages]
        points = np.concatenate(rows) if rows else np.empty((0, 3))
        if points.size == 0:
            raise CliError("dataset produced no matched pairs to probe")
    else:
        axis = np.linspace(0.0, 1.0, args.grid)
        points = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    estimate = estimate_lipschitz(gate, points, seed=args.seed)
    _write_json(Path(args.out) / "lipschitz.json", {"lipschitz": estimate, "points": int(points.shape[0])})
    print(f"lipschitz estimate {estimate:.4f} over {points.shape[0]} points")
    return ["lipschitz.json"], []


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _flag(kind, ok, rule: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds, checked
    before the command runs; any other exits 2 naming the flag and ``rule``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _at_least(minimum: int):
    return _flag(int, lambda value: value >= minimum, f">= {minimum}")


_seed = _at_least(0)  # numpy seeds its generators only from integers >= 0


def _add_common(parser, *, config=True, taxonomy=False, seed_default=0) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=_seed, default=seed_default, help="master random seed")
    if config:
        parser.add_argument("--config", help="JSON config file")
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
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", help="dataset for regime analysis")
    p.add_argument("--n", type=int, default=26000, help="reference sample count")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("evaluate", help="AP and calibration metrics")
    _add_common(p, config=False, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--source", default="refined", choices=("refined", "teacher", "llm"))
    p.add_argument("--calibrate", action="store_true", help="also fit a temperature and report ECE before/after")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired t-test and equivalence test between runs")
    _add_common(p, config=False)
    p.add_argument("--a", required=True, help="JSON array of per-seed metrics (run A)")
    p.add_argument("--b", required=True, help="JSON array of per-seed metrics (run B)")
    p.add_argument(
        "--delta", type=_flag(float, lambda v: 0 < v < math.inf, "finite and > 0"), default=0.5, help="equivalence margin"
    )
    p.add_argument("--alpha", type=_flag(float, lambda v: 0 < v < 1, "in (0, 1)"), default=0.05)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heuristics", help="run the rule-based text-prior baseline")
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_heuristics)

    p = sub.add_parser("calibrate", help="fit per-stream temperatures against ground truth")
    _add_common(p, config=False, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--bins", type=_at_least(1), default=15)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train-gate", help="train the fusion gate on a dataset with ground truth")
    _add_common(p, taxonomy=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--hidden", type=_at_least(1), default=64)
    p.set_defaults(func=cmd_train_gate)

    p = sub.add_parser("lipschitz", help="estimate the gate's Lipschitz constant")
    _add_common(p, config=False, taxonomy=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--dataset", help="probe points from this dataset's matched pairs")
    p.add_argument("--grid", type=_at_least(2), default=21, help="per-axis grid resolution when no dataset given")
    p.set_defaults(func=cmd_lipschitz)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command, then write its manifest. The digest covers every
    flag but --out and --config, and each config the command built."""
    args = _parser().parse_args(argv)
    started = manifest.now_utc()
    # A command builds large acyclic record graphs that reference counting frees; GC passes find nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        outputs, configs = args.func(args)
        flags = {key: value for key, value in vars(args).items() if key not in ("func", "out", "config")}
        built = {type(config).__name__: dataclasses.asdict(config) for config in configs if config is not None}
        manifest.write_manifest(args.out, args.command, {"flags": flags, "configs": built}, args.seed, outputs, started)
        return 0
    except ValueError as exc:  # CliError and DatasetError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
