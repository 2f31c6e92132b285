"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the criterion. Stated runtime budgets are asserted
too; they are generous on this hardware.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from layoutfusion.cli import main
from layoutfusion.curriculum import threshold_table
from layoutfusion.dataset_io import load_dataset, save_dataset
from layoutfusion.fusion import (
    apply_temperature,
    fit_temperature,
    fused_variance,
    optimal_weights,
    refine_pseudo_labels,
)
from layoutfusion.gating import (
    GateParams,
    GateTrainConfig,
    estimate_lipschitz,
    gate_forward_batch,
    train_gate,
)
from layoutfusion.geometry import BoundingBox
from layoutfusion.heuristics import classify_block, heuristic_regions
from layoutfusion.metrics import (
    Detection,
    GroundTruthBox,
    average_precision,
    ece,
    evaluate_pages,
    paired_t_test,
    tost,
)
from layoutfusion.model import OcrBlock, Page
from layoutfusion.simulator import (
    GateTask,
    SimConfig,
    monte_carlo_fusion_variance,
    sample_calibration_data,
    sample_gate_instances,
    simulate_dataset,
)
from layoutfusion.taxonomy import DOCLAYNET
from layoutfusion.theory import (
    Experiment,
    complementarity_dimension,
    regime_residual_analysis,
    run_sample_complexity_experiment,
)

from generators import random_page
from oracles import naive_refine


def report(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:02d} {name}: {status} ({detail})")


def test_01_balanced_fusion_variance():
    start = time.monotonic()
    value = monte_carlo_fusion_variance(1.0, 1.0, 0.0, 0.5, 10**6, seed=0)
    elapsed = time.monotonic() - start
    ok = 0.49 <= value <= 0.51 and elapsed < 5.0
    report(1, "balanced-fusion-variance", ok, f"value={value:.5f}, {elapsed:.2f}s")
    assert 0.49 <= value <= 0.51
    assert elapsed < 5.0


def test_02_optimal_weight_grid():
    start = time.monotonic()
    sigmas = [0.7, 0.85, 1.0, 1.2, 1.4]
    rhos = [0.0, 0.1, 0.2, 0.3]
    alphas = np.linspace(0.0, 1.0, 101)
    worst_step = 0.0
    worst_rel = 0.0
    for i, sigma_t in enumerate(sigmas):
        for j, sigma_l in enumerate(sigmas):
            for k, rho in enumerate(rhos):
                rng = np.random.default_rng((100, i, j, k))
                m = 10**6
                z = rng.standard_normal(m)
                u = rng.standard_normal(m)
                v = rng.standard_normal(m)
                eps_t = sigma_t * (math.sqrt(rho) * z + math.sqrt(1 - rho) * u)
                eps_l = sigma_l * (math.sqrt(rho) * z + math.sqrt(1 - rho) * v)
                # empirical second moments give the whole variance curve
                s_tt = float(np.mean(eps_t * eps_t))
                s_ll = float(np.mean(eps_l * eps_l))
                s_tl = float(np.mean(eps_t * eps_l))
                curve = alphas**2 * s_tt + (1 - alphas) ** 2 * s_ll + 2 * alphas * (1 - alphas) * s_tl
                empirical_argmin = float(alphas[int(np.argmin(curve))])
                closed_form = float(optimal_weights(sigma_t, sigma_l, rho))
                worst_step = max(worst_step, abs(empirical_argmin - closed_form))
                rel = abs(float(curve.min()) - fused_variance(sigma_t, sigma_l, rho)) / fused_variance(
                    sigma_t, sigma_l, rho
                )
                worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - start
    ok = worst_step <= 0.01 + 1e-9 and worst_rel <= 0.02 and elapsed < 120.0
    report(2, "optimal-weight-grid", ok, f"worst step={worst_step:.4f}, worst rel={worst_rel:.4f}, {elapsed:.1f}s")
    assert worst_step <= 0.01 + 1e-9
    assert worst_rel <= 0.02
    assert elapsed < 120.0


def test_03_complementarity_dimension_constants():
    start = time.monotonic()
    k = complementarity_dimension(3, 10.0, 26_000)
    ratio = math.sqrt(k / 26_000)
    elapsed = time.monotonic() - start
    ok = 21.5 <= k <= 22.5 and 0.028 <= ratio <= 0.030 and elapsed < 1.0
    report(3, "complementarity-dimension", ok, f"k={k:.3f}, sqrt(k/n)={ratio:.5f}, {elapsed:.3f}s")
    assert 21.5 <= k <= 22.5
    assert 0.028 <= ratio <= 0.030
    assert elapsed < 1.0


def test_04_sample_complexity_slope():
    start = time.monotonic()
    result = run_sample_complexity_experiment(
        Experiment(n_grid=(500, 1000, 2000, 4000, 8000, 16000, 32000), seeds=3), master_seed=0
    )
    elapsed = time.monotonic() - start
    ok = (
        not result.degenerate
        and result.slope is not None
        and -0.65 <= result.slope <= -0.35
        and elapsed < 900.0
    )
    report(
        4,
        "sample-complexity-slope",
        ok,
        f"slope={result.slope:.3f}+/-{result.slope_stderr:.3f}, bound_ok={result.bound_holds_with_calibrated_constant}, {elapsed:.0f}s",
    )
    assert not result.degenerate
    assert -0.65 <= result.slope <= -0.35
    # boundedness analogue: calibrated constant at the smallest size
    # must cover the gap at the largest
    assert result.bound_holds_with_calibrated_constant
    assert elapsed < 900.0


def test_05_regime_boundary_residuals():
    start = time.monotonic()
    task = GateTask(
        mixture=((0.7, 0.03, 0.03), (0.3, 0.039, 0.03)),
        p_t_range=(0.55, 0.9),
        s_l_range=(0.55, 0.9),
        synthetic_iou=(0.6, 0.95),
    )
    train = sample_gate_instances(task, 4000, seed=11)
    trained = train_gate(train, GateTrainConfig(learning_rate=0.3, epochs=30, seed=3))
    heldout = sample_gate_instances(task, 10_000, seed=12)
    residuals = regime_residual_analysis(heldout, trained.params)
    elapsed = time.monotonic() - start
    ok = (
        residuals.boundary_mean > residuals.interior_mean
        and residuals.separation_zscore > 3.0
        and elapsed < 60.0
    )
    report(
        5,
        "regime-boundary-residuals",
        ok,
        f"boundary={residuals.boundary_mean:.2e}, interior={residuals.interior_mean:.2e}, z={residuals.separation_zscore:.0f}, {elapsed:.1f}s",
    )
    assert residuals.boundary_mean > residuals.interior_mean
    assert residuals.separation_zscore > 3.0
    assert elapsed < 60.0


def test_06_refinement_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    pages: list[Page] = [random_page(rng, f"adv{i}") for i in range(600)]
    pages += simulate_dataset(SimConfig(pages=200, seed=51))
    pages += simulate_dataset(SimConfig(pages=200, emit_coordinate_variance=True, seed=52))
    thresholds = threshold_table(DOCLAYNET)
    compared = 0
    for page in pages:
        expected = naive_refine(page, thresholds=thresholds)
        got = refine_pseudo_labels(page)
        assert len(got) == len(expected), page.page_id
        for label, ref in zip(got, expected):
            np.testing.assert_allclose(label.box.as_array(), ref[:4], atol=1e-9)
            assert label.category.name == ref[4]
            assert abs(label.confidence - ref[5]) <= 1e-9
            assert label.provenance == ref[6]
            assert label.smoothing == ref[7]
            compared += 1
    elapsed = time.monotonic() - start
    ok = compared > 2000 and elapsed < 30.0
    report(6, "refinement-oracle-equivalence", ok, f"pages={len(pages)}, labels={compared}, {elapsed:.1f}s")
    assert len(pages) == 1000
    assert compared > 2000
    assert elapsed < 30.0


def test_07_temperature_recovery_and_ece():
    start = time.monotonic()
    details = []
    ok = True
    for true_temperature in (0.5, 2.0, 4.0):
        fit_conf, fit_correct = sample_calibration_data(10_000, temperature=true_temperature, seed=71)
        fitted = fit_temperature(fit_conf, fit_correct)
        rel_err = abs(fitted - true_temperature) / true_temperature
        conf, correct = sample_calibration_data(10_000, temperature=true_temperature, seed=72)
        before = ece(conf, correct).ece
        after = ece(apply_temperature(conf, fitted), correct).ece
        details.append(f"T={true_temperature}: fit={fitted:.3f} rel={rel_err:.3f} ece {before:.3f}->{after:.3f}")
        ok = ok and rel_err <= 0.10 and after < before
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(7, "temperature-recovery", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_08_fusion_beats_both_sources():
    start = time.monotonic()
    pages = simulate_dataset(SimConfig(pages=200, seed=0))
    refined = [replace(p, refined=tuple(refine_pseudo_labels(p))) for p in pages]
    fused_ap = evaluate_pages(refined, "refined").ap
    teacher_ap = evaluate_pages(refined, "teacher").ap
    llm_ap = evaluate_pages(refined, "llm").ap
    elapsed = time.monotonic() - start
    ok = fused_ap >= teacher_ap and fused_ap >= llm_ap and elapsed < 120.0
    report(
        8,
        "fusion-beats-both-sources",
        ok,
        f"fused={fused_ap:.4f}, teacher={teacher_ap:.4f}, llm={llm_ap:.4f}, {elapsed:.1f}s",
    )
    assert fused_ap >= teacher_ap
    assert fused_ap >= llm_ap
    assert elapsed < 120.0


def test_09_metric_unit_fixtures():
    # AP hand trace: a false positive outscoring the true positive
    ap_result = average_precision(
        [
            Detection("p", "text", 0.95, BoundingBox(0.6, 0.6, 0.9, 0.9)),
            Detection("p", "text", 0.90, BoundingBox(0.1, 0.1, 0.4, 0.4)),
        ],
        [GroundTruthBox("p", "text", BoundingBox(0.1, 0.1, 0.4, 0.4))],
    )
    ap50 = ap_result.per_category["text"].by_threshold[0.5]

    ece_value = ece(np.array([0.8, 0.6]), np.array([True, False]), bins=1).ece

    ttest = paired_t_test(np.array([0.5, 0.7, 0.3, 0.6, 0.4]), np.zeros(5))

    tight = tost(np.array([0.05, -0.03, 0.01, 0.02, -0.04]), np.zeros(5), delta=0.5)
    wide = tost(np.full(5, 0.6) + np.array([0.0, 0.02, -0.02, 0.01, -0.01]), np.zeros(5), delta=0.5)
    same = tost(np.ones(5), np.ones(5), delta=0.5)

    ok = (
        abs(ap50 - 0.5) < 1e-12
        and abs(ece_value - 0.2) < 1e-12
        and abs(ttest.p - 0.0021) <= 2e-4
        and tight.equivalent
        and not wide.equivalent
        and same.equivalent
    )
    report(
        9,
        "metric-unit-fixtures",
        ok,
        f"ap50={ap50:.3f}, ece={ece_value:.3f}, p={ttest.p:.5f}, tost=({tight.equivalent},{wide.equivalent},{same.equivalent})",
    )
    assert ap50 == pytest.approx(0.5, abs=1e-12)
    assert ece_value == pytest.approx(0.2, abs=1e-12)
    assert ttest.p == pytest.approx(0.0021, abs=2e-4)
    assert tight.equivalent and same.equivalent and not wide.equivalent


def test_10_gate_properties():
    start = time.monotonic()
    symmetric_task = GateTask(mixture=((1.0, 0.03, 0.03),), p_t_range=(0.5, 0.9), s_l_range=(0.5, 0.9))
    instances = sample_gate_instances(symmetric_task, 3000, seed=1)
    config = GateTrainConfig(learning_rate=0.3, epochs=40, batch_size=32, seed=0)
    trained = train_gate(instances, config)
    heldout = sample_gate_instances(symmetric_task, 2000, seed=2)
    symmetric_mean = float(gate_forward_batch(trained.params, heldout.features).mean())

    dominant_task = GateTask(mixture=((1.0, 0.001, 0.05),), p_t_range=(0.75, 0.95), s_l_range=(0.3, 0.6))
    dom_instances = sample_gate_instances(dominant_task, 3000, seed=3)
    dom_trained = train_gate(dom_instances, config)
    dom_heldout = sample_gate_instances(dominant_task, 2000, seed=4)
    dominant_mean = float(gate_forward_batch(dom_trained.params, dom_heldout.features).mean())

    repeat = train_gate(instances, config)
    reproducible = (
        np.array_equal(repeat.params.w1, trained.params.w1)
        and np.array_equal(repeat.params.w2, trained.params.w2)
        and np.array_equal(repeat.params.w3, trained.params.w3)
        and repeat.params.b3 == trained.params.b3
    )

    hidden = 8
    constant = GateParams(
        w1=np.zeros((hidden, 3)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, hidden)),
        b2=np.zeros(hidden),
        w3=np.zeros(hidden),
        b3=0.9,
    )
    probe = np.random.default_rng(9).uniform(0, 1, size=(100, 3))
    constant_lipschitz = estimate_lipschitz(constant, probe)

    delta = 1e-3
    w1 = np.zeros((hidden, 3))
    w1[0, 0] = delta
    w2 = np.zeros((hidden, hidden))
    w2[0, 0] = delta
    w3 = np.zeros(hidden)
    w3[0] = 8.0 / delta**2
    slope_two = GateParams(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(hidden), w3=w3, b3=-4.0)
    line = np.stack([np.linspace(0.35, 0.65, 500), np.full(500, 0.5), np.full(500, 0.5)], axis=1)
    linear_lipschitz = estimate_lipschitz(slope_two, line)

    elapsed = time.monotonic() - start
    ok = (
        0.4 <= symmetric_mean <= 0.6
        and dominant_mean > 0.9
        and reproducible
        and constant_lipschitz == 0.0
        and abs(linear_lipschitz - 2.0) / 2.0 <= 0.05
    )
    report(
        10,
        "gate-properties",
        ok,
        f"symmetric={symmetric_mean:.3f}, dominant={dominant_mean:.3f}, reproducible={reproducible}, "
        f"L_const={constant_lipschitz}, L_linear={linear_lipschitz:.4f}, {elapsed:.1f}s",
    )
    assert 0.4 <= symmetric_mean <= 0.6
    assert dominant_mean > 0.9
    assert reproducible
    assert constant_lipschitz == 0.0
    assert linear_lipschitz == pytest.approx(2.0, rel=0.05)


def test_11_heuristic_rule_fixtures():
    caption = classify_block(OcrBlock(BoundingBox(0.3, 0.5, 0.7, 0.55), "Figure 2: results"))
    header = classify_block(OcrBlock(BoundingBox(0.2, 0.05, 0.6, 0.08), "Introduction", is_bold=True))
    footer = classify_block(OcrBlock(BoundingBox(0.4, 0.95, 0.6, 0.98), "page 3"))
    grid = []
    for r in range(3):
        for c in range(3):
            x1 = 0.2 + c * 0.12
            y1 = 0.4 + r * 0.06
            grid.append(OcrBlock(BoundingBox(x1, y1, x1 + 0.08, y1 + 0.03), str(r * 3 + c)))
    # The grid alone, on a page of its own, makes one table region.
    grid_regions = heuristic_regions(Page(page_id="grid", ocr_blocks=tuple(grid)))
    grid_found = [r.category.name for r in grid_regions] == ["table"]

    page = Page(
        page_id="acc11",
        ocr_blocks=(OcrBlock(BoundingBox(0.2, 0.33, 0.6, 0.37), "Table 1: data"), *grid),
    )
    regions = heuristic_regions(page)
    labels = refine_pseudo_labels(replace(page, llm=tuple(regions)))

    ok = (
        caption is not None
        and caption.name == "caption"
        and header is not None
        and header.name == "header"
        and footer is not None
        and footer.name == "footer"
        and grid_found
        and len(regions) == 2
        and len(labels) >= 1
    )
    report(
        11,
        "heuristic-rules",
        ok,
        f"caption={caption and caption.name}, header={header and header.name}, "
        f"footer={footer and footer.name}, grid={grid_found}, regions={len(regions)}, labels={len(labels)}",
    )
    assert ok


def _data_files(directory: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith("_manifest.json"):
            out[str(path.relative_to(directory))] = path.read_bytes()
    return out


def test_12_cli_determinism(tmp_path):
    start = time.monotonic()
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(
        json.dumps({"pages": 40, "seed": 4, "emit_ocr_stubs": True, "teacher_temperature": 2.0}),
        encoding="utf-8",
    )
    theory_config = tmp_path / "theory.json"
    theory_config.write_text(
        json.dumps({"experiment": {"n_grid": [200, 400, 800, 1600], "seeds": 1, "heldout": 1500, "hidden": 8}}),
        encoding="utf-8",
    )
    runs_a = tmp_path / "a"
    runs_b = tmp_path / "b"

    def run_all(base: Path) -> None:
        base.mkdir(exist_ok=True)
        assert main(["simulate", "--config", str(sim_config), "--out", str(base / "sim")]) == 0
        dataset = base / "sim" / "dataset.jsonl"
        assert main(["fuse", "--dataset", str(dataset), "--out", str(base / "fuse")]) == 0
        assert main(["heuristics", "--dataset", str(dataset), "--out", str(base / "heur")]) == 0
        assert main(["calibrate", "--dataset", str(dataset), "--out", str(base / "cal")]) == 0
        assert main(
            ["evaluate", "--dataset", str(base / "fuse" / "refined.jsonl"), "--calibrate", "--out", str(base / "eval")]
        ) == 0
        assert main(["theory", "--config", str(theory_config), "--seed", "7", "--out", str(base / "theory")]) == 0
        a_json = base / "runs_a.json"
        b_json = base / "runs_b.json"
        a_json.write_text(json.dumps([88.1, 88.3, 88.0, 88.2, 88.15]), encoding="utf-8")
        b_json.write_text(json.dumps([88.0, 88.25, 88.05, 88.1, 88.2]), encoding="utf-8")
        assert main(["compare", "--a", str(a_json), "--b", str(b_json), "--out", str(base / "cmp")]) == 0
        assert main(
            ["train-gate", "--dataset", str(dataset), "--out", str(base / "gate"), "--hidden", "8", "--seed", "2"]
        ) == 0
        assert main(
            [
                "lipschitz",
                "--gate",
                str(base / "gate" / "gate.json"),
                "--dataset",
                str(dataset),
                "--out",
                str(base / "lip"),
            ]
        ) == 0
        assert main(
            ["fuse", "--dataset", str(dataset), "--gate", str(base / "gate" / "gate.json"), "--out", str(base / "gfuse")]
        ) == 0

    run_all(runs_a)
    run_all(runs_b)
    files_a = _data_files(runs_a)
    files_b = _data_files(runs_b)
    elapsed = time.monotonic() - start
    same_names = set(files_a) == set(files_b)
    diffs = [name for name in files_a if same_names and files_a[name] != files_b[name]]
    ok = same_names and not diffs
    report(12, "cli-determinism", ok, f"files={len(files_a)}, mismatches={diffs}, {elapsed:.1f}s")
    assert same_names
    assert diffs == []
