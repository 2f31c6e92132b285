"""Synthetic corpus generator: determinism, noise model, calibration."""

import dataclasses

import numpy as np
import pytest

from layoutfusion.fusion import fused_variance, optimal_alpha
from layoutfusion.gating import GateBatch
from layoutfusion.geometry import iou
from layoutfusion.simulator import (
    GateTask,
    SimConfig,
    generate_pages,
    monte_carlo_fusion_variance,
    sample_calibration_data,
    sample_gate_instances,
    simulate_dataset,
    simulate_predictions,
)


class TestGeneratePages:
    def test_zero_pages(self):
        assert generate_pages(SimConfig(pages=0)) == []

    def test_deterministic(self):
        config = SimConfig(pages=15, seed=11)
        assert generate_pages(config) == generate_pages(config)

    def test_ground_truth_boxes_disjoint(self):
        for page in generate_pages(SimConfig(pages=25, regions_min=6, regions_max=9, seed=2)):
            annotations = page.ground_truth
            for i in range(len(annotations)):
                for j in range(i + 1, len(annotations)):
                    assert iou(annotations[i].box, annotations[j].box) == 0.0

    def test_category_frequencies_converge(self):
        freqs = {"text": 0.5, "caption": 0.1, "table": 0.25, "figure": 0.15}
        config = SimConfig(pages=1000, regions_min=5, regions_max=7, category_frequencies=freqs, seed=3)
        counts: dict[str, int] = {}
        total = 0
        for page in generate_pages(config):
            for annotation in page.ground_truth:
                counts[annotation.category.name] = counts.get(annotation.category.name, 0) + 1
                total += 1
        for name, expected in freqs.items():
            assert counts[name] / total == pytest.approx(expected, abs=0.02)

    def test_infeasible_region_count(self):
        with pytest.raises(ValueError):
            generate_pages(SimConfig(pages=1, regions_min=3000, regions_max=3000))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(category_frequencies={"text": 0.6, "caption": 0.3})
        with pytest.raises(ValueError):
            SimConfig(rho=1.2)
        with pytest.raises(ValueError):
            SimConfig(teacher_confusion=0.6)
        with pytest.raises(ValueError):
            SimConfig.from_dict({"pages": 3, "bogus": 1})


class TestSimulatePredictions:
    def test_zero_noise_equals_ground_truth(self):
        config = SimConfig(pages=10, sigma_t=0.0, sigma_l=0.0, teacher_confusion=0.0, llm_confusion=0.0, seed=4)
        for page in simulate_dataset(config):
            for annotation, pred, reg in zip(page.ground_truth, page.teacher, page.llm):
                assert iou(annotation.box, pred.box) == 1.0
                assert iou(annotation.box, reg.box) == 1.0
                assert pred.category == annotation.category
                assert reg.category == annotation.category

    def test_deterministic(self):
        config = SimConfig(pages=12, seed=6)
        pages = generate_pages(config)
        assert simulate_predictions(pages, config) == simulate_predictions(pages, config)

    def test_error_correlation_zero(self):
        r = _paired_coordinate_correlation(rho=0.0, seed=7)
        assert abs(r) < 0.01

    def test_error_correlation_strong(self):
        r = _paired_coordinate_correlation(rho=0.8, seed=8)
        assert r == pytest.approx(0.80, abs=0.02)

    def test_confusion_rate_bounded_and_near_target(self):
        config = SimConfig(
            pages=800,
            regions_min=5,
            regions_max=7,
            teacher_confusion=0.2,
            llm_confusion=0.05,
            seed=9,
        )
        flips = {"teacher": 0, "llm": 0}
        per_category: dict[str, list[int]] = {}
        total = 0
        for page in simulate_dataset(config):
            for annotation, pred, reg in zip(page.ground_truth, page.teacher, page.llm):
                total += 1
                wrong_t = pred.category != annotation.category
                flips["teacher"] += wrong_t
                flips["llm"] += reg.category != annotation.category
                per_category.setdefault(annotation.category.name, []).append(wrong_t)
        assert flips["teacher"] / total == pytest.approx(0.2, abs=0.02)
        assert flips["llm"] / total == pytest.approx(0.05, abs=0.01)
        for name, wrongs in per_category.items():
            if len(wrongs) >= 100:
                assert np.mean(wrongs) <= 0.5  # bounded-disagreement check

    def test_per_category_noise_levels(self):
        config = SimConfig(
            pages=400,
            sigma_t={name: (0.002 if name != "table" else 0.03) for name in SimConfig().category_frequencies},
            sigma_l=0.01,
            rho=0.0,
            seed=10,
        )
        errors: dict[str, list[float]] = {"table": [], "text": []}
        for page in simulate_dataset(config):
            for annotation, pred in zip(page.ground_truth, page.teacher):
                name = annotation.category.name
                if name in errors:
                    errors[name].extend(np.abs(pred.box.as_array() - annotation.box.as_array()))
        assert np.std(errors["table"]) > 3 * np.std(errors["text"])

    def test_teacher_variance_emitted_when_enabled(self):
        config = SimConfig(pages=3, sigma_t=0.02, emit_coordinate_variance=True, seed=11)
        for page in simulate_dataset(config):
            for pred in page.teacher:
                assert pred.coordinate_variance == pytest.approx(0.02**2)

    def test_every_box_coordinate_is_a_plain_float(self):
        # Table cells used to take np.float64 coordinates from np.linspace.
        config = SimConfig(pages=40, seed=5, emit_ocr_stubs=True, emit_coordinate_variance=True)
        pages = simulate_dataset(config)
        boxes = [
            item.box
            for page in pages
            for item in page.ocr_blocks + page.teacher + page.llm + page.ground_truth
        ]
        assert any(block.text.isdigit() for page in pages for block in page.ocr_blocks)
        assert {type(c) for box in boxes for c in (box.x1, box.y1, box.x2, box.y2)} == {float}


def _paired_coordinate_correlation(rho: float, seed: int) -> float:
    config = SimConfig(
        pages=4000, regions_min=6, regions_max=7, sigma_t=0.004, sigma_l=0.004, rho=rho, seed=seed
    )
    errs_t = []
    errs_l = []
    for page in simulate_dataset(config):
        for annotation, pred, reg in zip(page.ground_truth, page.teacher, page.llm):
            truth = annotation.box.as_array()
            errs_t.extend(pred.box.as_array() - truth)
            errs_l.extend(reg.box.as_array() - truth)
    return float(np.corrcoef(np.array(errs_t), np.array(errs_l))[0, 1])


class TestMonteCarloVariance:
    def test_endpoint_recovers_source_variance(self):
        assert monte_carlo_fusion_variance(0.7, 1.3, 0.4, 1.0, 10**5, seed=1) == pytest.approx(
            0.49, rel=0.02
        )

    def test_balanced_independent_halves_variance(self):
        value = monte_carlo_fusion_variance(1.0, 1.0, 0.0, 0.5, 10**6, seed=2)
        assert value == pytest.approx(0.5, rel=0.02)

    def test_perfect_correlation_constant_in_weight(self):
        values = [
            monte_carlo_fusion_variance(1.0, 1.0, 0.99, alpha, 10**5, seed=3) for alpha in (0.1, 0.5, 0.9)
        ]
        for v in values:
            assert v == pytest.approx(1.0, rel=0.05)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_fusion_variance(1.0, 1.0, 0.0, 0.5, 100)

    def test_closed_form_argmin_on_small_grid(self):
        alphas = np.linspace(0, 1, 101)
        for st, sl, rho in ((0.8, 1.2, 0.0), (1.0, 1.0, 0.5), (1.3, 0.7, 0.25)):
            variances = [monte_carlo_fusion_variance(st, sl, rho, a, 10**5, seed=5) for a in alphas[::10]]
            best = alphas[::10][int(np.argmin(variances))]
            assert abs(best - optimal_alpha(st, sl, rho)) <= 0.1 + 1e-9
            assert min(variances) >= fused_variance(st, sl, rho) * 0.95


class TestCalibrationSampler:
    def test_calibrated_draws(self):
        conf, correct = sample_calibration_data(50_000, temperature=1.0, seed=4)
        # group by confidence decile and compare to empirical accuracy
        bins = np.minimum((conf * 10).astype(int), 9)
        for b in range(10):
            mask = bins == b
            if mask.sum() > 500:
                assert correct[mask].mean() == pytest.approx(conf[mask].mean(), abs=0.03)

    def test_deterministic(self):
        a = sample_calibration_data(100, temperature=2.0, seed=5)
        b = sample_calibration_data(100, temperature=2.0, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestGateInstances:
    def test_ratio_task_shapes_and_ranges(self):
        instances = sample_gate_instances(GateTask(), 500, seed=6)
        assert instances.features.shape == (500, 3)
        assert np.all(instances.features >= 0.0) and np.all(instances.features <= 1.0)
        assert np.all(instances.sigma_t > 0)
        np.testing.assert_allclose(
            instances.features[:, 0],
            instances.sigma_l**2 / (instances.sigma_t**2 + instances.sigma_l**2),
            atol=1e-3,
        )

    def test_mixture_task_components(self):
        task = GateTask(mixture=((0.5, 0.01, 0.02), (0.5, 0.03, 0.03)), synthetic_iou=(0.5, 0.9))
        instances = sample_gate_instances(task, 2000, seed=7)
        pairs = set(zip(instances.sigma_t.tolist(), instances.sigma_l.tolist()))
        assert pairs == {(0.01, 0.02), (0.03, 0.03)}
        assert np.all(instances.features[:, 2] >= 0.5)

    def test_samples_round_trip(self):
        # The instances are the gate's training batch, checked as one.
        instances = sample_gate_instances(GateTask(), 120, seed=8)
        assert isinstance(instances, GateBatch) and len(instances) == 120
        truth = instances.truth_boxes.copy()
        truth[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"truth_boxes\[3\] = .* has a non-finite coordinate"):
            dataclasses.replace(instances, truth_boxes=truth)

    def test_far_corner_clipped_to_zero_is_repaired(self):
        # Wide noise clips some far corners to 0; the near corner is then
        # floored at 0 too, so the repair must raise the far corner.
        instances = sample_gate_instances(GateTask(sigma_scale=0.3), 200, seed=0)
        for boxes in (instances.teacher_boxes, instances.llm_boxes):
            assert np.all(boxes[:, :2] < boxes[:, 2:])
            assert np.all(boxes >= 0.0) and np.all(boxes <= 1.0)
        repaired = np.concatenate([instances.teacher_boxes[:, 2:], instances.llm_boxes[:, 2:]]) == 1e-4
        assert repaired.any()

    def test_task_validation(self):
        with pytest.raises(ValueError):
            GateTask(rho=1.5)
        with pytest.raises(ValueError):
            GateTask(mixture=((0.0, 0.1, 0.1),))
        with pytest.raises(ValueError):
            GateTask.from_dict({"nope": 1})

    def test_task_dict_round_trip(self):
        task = GateTask(mixture=((1.0, 0.01, 0.02),), synthetic_iou=(0.5, 0.9))
        assert GateTask.from_dict(task.to_dict()) == task
