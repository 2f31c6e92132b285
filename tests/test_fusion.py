"""Matching, closed-form fusion rules, calibration, and the complete
refinement pipeline, checked against independent references."""

import math

import numpy as np
import pytest

from layoutfusion.fusion import (
    FusionConfig,
    apply_temperature,
    compatible,
    fit_temperature,
    fuse_confidence_logit,
    fuse_fixed_box,
    fuse_inverse_variance,
    fused_variance,
    gate_samples_from_pages,
    llm_spatial_variance,
    match_regions,
    optimal_alpha,
    refine_pseudo_labels,
    resolve_category,
)
from layoutfusion.geometry import BoundingBox, iou
from layoutfusion.model import LlmRegion, Page, TeacherPrediction
from layoutfusion.simulator import SimConfig, monte_carlo_fusion_variance, sample_calibration_data, simulate_dataset
from layoutfusion.taxonomy import DOCLAYNET, LayoutCategory, Taxonomy

from generators import random_page
from oracles import best_assignment_by_enumeration, naive_refine

TAX = DOCLAYNET


def cat(name):
    return TAX.category(name)


def teacher(box, name="text", conf=0.8, var=None):
    return TeacherPrediction(box=box, category=cat(name), confidence=conf, coordinate_variance=var)


def region(box, name="text", score=0.8, qt=0.9, qs=0.9):
    return LlmRegion(box=box, category=cat(name), score=score, q_text=qt, q_spatial=qs)


class TestFusionConfig:
    def test_defaults_valid(self):
        config = FusionConfig()
        assert config.teacher_logit_weight + config.llm_logit_weight == 1.0

    def test_rejects_bad_logit_weights(self):
        with pytest.raises(ValueError):
            FusionConfig(teacher_logit_weight=0.7, llm_logit_weight=0.4)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            FusionConfig(iou_threshold=0.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            FusionConfig(teacher_temperature=0.0)

    @pytest.mark.parametrize("field", ["teacher_temperature", "llm_temperature"])
    def test_rejects_nan_temperature(self, field):
        with pytest.raises(ValueError, match="temperatures must be positive"):
            FusionConfig(**{field: math.nan})


class TestCompatible:
    def test_reflexive(self):
        assert compatible(cat("caption"), cat("caption"))

    def test_confusable_pair(self):
        assert compatible(cat("caption"), cat("footer"))
        assert compatible(cat("footer"), cat("caption"))

    def test_unrelated_pair(self):
        assert not compatible(cat("figure"), cat("paragraph"))

    def test_unknown_category_errors(self):
        with pytest.raises(KeyError):
            compatible("caption", "watermark")

    def test_symmetric_over_all_pairs(self):
        for a in TAX.names:
            for b in TAX.names:
                assert compatible(a, b) == compatible(b, a)


class TestResolveCategory:
    def test_agreement_keeps_category(self):
        assert resolve_category(cat("text"), 0.9, cat("text"), 0.8).name == "text"

    def test_disagreement_trusts_text_source(self):
        # Unconditional on the scores: the lower-scoring text category
        # still wins on a compatible disagreement.
        assert resolve_category(cat("footer"), 0.9, cat("caption"), 0.3).name == "caption"

    def test_class_correction_example(self):
        # A detector calling a caption line "paragraph" while the text
        # stream reads the caption prefix; with the pair configured
        # confusable the fused label follows the text stream.
        tax = Taxonomy(
            name="custom",
            categories=(LayoutCategory("paragraph"), LayoutCategory("caption", "rare")),
            confusable_pairs=frozenset({frozenset({"paragraph", "caption"})}),
        )
        resolved = resolve_category(
            tax.category("paragraph"), 0.78, tax.category("caption"), 0.92, taxonomy=tax
        )
        assert resolved.name == "caption"

    def test_incompatible_errors(self):
        with pytest.raises(ValueError):
            resolve_category(cat("figure"), 0.9, cat("paragraph"), 0.9)


class TestMatchRegions:
    def test_empty_llm(self):
        preds = [teacher(BoundingBox(0.1, 0.1, 0.3, 0.3))]
        outcome = match_regions(preds, [], FusionConfig())
        assert outcome.matches == ()
        assert outcome.unmatched_teacher == (0,)
        assert outcome.unmatched_llm == ()

    def test_identical_single_pair(self):
        box = BoundingBox(0.1, 0.1, 0.3, 0.3)
        outcome = match_regions([teacher(box)], [region(box)], FusionConfig())
        assert len(outcome.matches) == 1
        assert outcome.matches[0].iou == 1.0
        assert outcome.matches[0].compatible

    def test_argmax_candidate_wins(self):
        # Two candidates at different overlaps: the better one is taken;
        # verified against exhaustive one-use assignment.
        t_box = BoundingBox(0.2, 0.2, 0.6, 0.6)
        weaker = BoundingBox(0.2, 0.2, 0.6, 0.54)  # iou 0.85 -> scaled below
        stronger = BoundingBox(0.2, 0.2, 0.6, 0.58)
        preds = [teacher(t_box)]
        regions = [region(weaker), region(stronger)]
        outcome = match_regions(preds, regions, FusionConfig())
        expected = best_assignment_by_enumeration(
            [(t_box.x1, t_box.y1, t_box.x2, t_box.y2)],
            [(b.x1, b.y1, b.x2, b.y2) for b in (weaker, stronger)],
            0.5,
        )
        assert {m.teacher_index: m.llm_index for m in outcome.matches} == expected == {0: 1}

    def test_greedy_single_use_matches_reference(self):
        rng = np.random.default_rng(17)
        config = FusionConfig()
        for i in range(200):
            page = random_page(rng, f"m{i}")
            outcome = match_regions(page.teacher, page.llm, config)
            compat_pairs = {m.llm_index for m in outcome.matches}
            assert len(compat_pairs) == len(outcome.matches), "a region was consumed twice"
            assert set(outcome.unmatched_teacher) == set(range(len(page.teacher))) - {
                m.teacher_index for m in outcome.matches
            }
            assert set(outcome.unmatched_llm) == set(range(len(page.llm))) - compat_pairs
            for m in outcome.matches:
                assert m.iou >= config.iou_threshold
                assert compatible(page.teacher[m.teacher_index].category, page.llm[m.llm_index].category)


class TestBoxFusion:
    def test_fixed_endpoints(self):
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.2, 0.2, 0.5, 0.5)
        assert fuse_fixed_box(a, b, 1.0) == a
        assert fuse_fixed_box(a, b, 0.0) == b

    def test_fixed_convex_combination_value(self):
        fused = fuse_fixed_box(BoundingBox(0, 0, 0.5, 0.5), BoundingBox(0.1, 0.1, 0.6, 0.6), 0.6)
        np.testing.assert_allclose(fused.as_array(), [0.04, 0.04, 0.54, 0.54], atol=1e-12)

    def test_spatial_variance_values(self):
        assert llm_spatial_variance(1.0, 1.0) == 1.0
        assert llm_spatial_variance(0.5, 0.8) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            llm_spatial_variance(0.0, 0.8)

    def test_inverse_variance_midpoint_when_equal(self):
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.2, 0.2, 0.5, 0.5)
        fused = fuse_inverse_variance(a, 0.02, b, 0.02)
        np.testing.assert_allclose(fused.as_array(), (a.as_array() + b.as_array()) / 2, atol=1e-12)

    def test_inverse_variance_scalar_value(self):
        # Precisions 100 and 25 on a single coordinate: (40+15)/125.
        a = BoundingBox(0.4, 0.4, 0.9, 0.9)
        b = BoundingBox(0.6, 0.6, 0.9, 0.9)
        fused = fuse_inverse_variance(a, 0.01, b, 0.04)
        assert fused.x1 == pytest.approx(0.44, abs=1e-12)

    def test_inverse_variance_huge_one_side(self):
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.6, 0.6, 0.9, 0.9)
        fused = fuse_inverse_variance(a, 1e-9, b, 1e6)
        np.testing.assert_allclose(fused.as_array(), a.as_array(), atol=1e-9)

    def test_inverse_variance_zero_variance_wins(self):
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.6, 0.6, 0.9, 0.9)
        assert fuse_inverse_variance(a, 0.0, b, 0.5) == a
        assert fuse_inverse_variance(a, 0.5, b, 0.0) == b
        with pytest.raises(ValueError):
            fuse_inverse_variance(a, 0.0, b, 0.0)

    def test_inverse_variance_with_overflowing_precision_wins(self):
        # 1 / 5e-324 overflows to inf, which used to make every coordinate NaN.
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.15, 0.1, 0.35, 0.3)
        assert fuse_inverse_variance(a, 5e-324, b, 0.5) == a
        assert fuse_inverse_variance(a, 0.5, b, 5e-324) == b

    def test_inverse_variance_with_overflowing_total_precision(self):
        # 1 / 1e-308 + 1 / 1e-308 overflows; the blend used to divide by inf.
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        b = BoundingBox(0.15, 0.1, 0.35, 0.3)
        assert fuse_inverse_variance(a, 1e-308, b, 1e-308) == fuse_inverse_variance(a, 0.5, b, 0.5)

    def test_blend_of_equal_coordinates_is_that_coordinate(self):
        # (w_t * 0.75 + 1.0 * 0.75) / (w_t + 1.0) rounds to 0.7499999999999999.
        box = BoundingBox(0.0, 0.0, 0.75, 0.25)
        assert fuse_inverse_variance(box, 4.2757393933598746e-279, box, 1.0) == box
        assert fuse_fixed_box(box, box, 0.3) == box


class TestOptimalWeight:
    def test_balanced_case(self):
        assert optimal_alpha(1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_perfect_text_source_takes_all(self):
        assert optimal_alpha(1.0, 1e-6, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_clamped_at_one(self):
        # Unconstrained optimum (4-1)/(5-2) = 1 exactly.
        assert optimal_alpha(1.0, 2.0, 0.5) == 1.0

    def test_degenerate_errors(self):
        with pytest.raises(ValueError):
            optimal_alpha(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            optimal_alpha(0.0, 1.0, 0.0)

    def test_fused_variance_balanced(self):
        assert fused_variance(1.0, 1.0, 0.0) == pytest.approx(0.5)
        sigma = 0.7
        for rho in (0.0, 0.3, 0.9, 0.99):
            assert fused_variance(sigma, sigma, rho) == pytest.approx(sigma**2 * (1 + rho) / 2)

    def test_fused_variance_example(self):
        assert fused_variance(1.0, 2.0, 0.0) == pytest.approx(0.8)

    def test_fused_variance_never_worse_than_best_source(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            st = rng.uniform(0.05, 3.0)
            sl = rng.uniform(0.05, 3.0)
            rho = rng.uniform(0.0, 0.99)
            assert fused_variance(st, sl, rho) <= min(st**2, sl**2) + 1e-12

    def test_closed_form_matches_monte_carlo(self):
        st, sl, rho = 0.9, 1.4, 0.35
        alpha = optimal_alpha(st, sl, rho)
        mc = monte_carlo_fusion_variance(st, sl, rho, alpha, 10**6, seed=4)
        assert mc == pytest.approx(fused_variance(st, sl, rho), rel=0.02)


class TestTemperature:
    def test_identity(self):
        assert apply_temperature(0.73, 1.0) == pytest.approx(0.73, abs=1e-12)

    def test_half_is_fixed_point(self):
        for t in (0.1, 1.0, 7.0):
            assert apply_temperature(0.5, t) == pytest.approx(0.5, abs=1e-12)

    def test_exact_value(self):
        # logit(0.9) = ln 9; sigmoid(ln 9 / 2) = 3/4 exactly.
        assert apply_temperature(0.9, 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_vectorized(self):
        out = apply_temperature(np.array([0.2, 0.5, 0.9]), 2.0)
        assert out.shape == (3,)

    def test_fit_recovers_unit_temperature(self):
        conf, correct = sample_calibration_data(10_000, temperature=1.0, seed=0)
        assert fit_temperature(conf, correct) == pytest.approx(1.0, abs=0.1)

    def test_fit_recovers_sharpening(self):
        conf, correct = sample_calibration_data(10_000, temperature=0.5, seed=1)
        assert fit_temperature(conf, correct) == pytest.approx(0.5, abs=0.1)

    def test_fit_requires_samples_and_both_outcomes(self):
        with pytest.raises(ValueError):
            fit_temperature([0.5] * 5, [True, False, True, False, True])
        with pytest.raises(ValueError):
            fit_temperature([0.9] * 20, [True] * 20)


class TestConfidenceFusion:
    def test_neutral_inputs(self):
        assert fuse_confidence_logit(0.5, 0.5, 0.7) == pytest.approx(0.5, abs=1e-12)

    def test_endpoint(self):
        assert fuse_confidence_logit(0.8, 0.3, 1.0) == pytest.approx(0.8, abs=1e-12)

    def test_exact_value(self):
        expected = 1.0 / (1.0 + math.exp(-(0.7 * math.log(4.0) + 0.3 * math.log(1.5))))
        assert fuse_confidence_logit(0.8, 0.6, 0.7) == pytest.approx(expected, abs=1e-12)
        assert fuse_confidence_logit(0.8, 0.6, 0.7) == pytest.approx(0.748767, abs=1e-5)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p, s = rng.uniform(0.05, 0.95, size=2)
            lam = rng.uniform(0.05, 0.95)
            eps = 0.01
            base = fuse_confidence_logit(p, s, lam)
            assert 0.0 < base < 1.0
            assert fuse_confidence_logit(min(p + eps, 0.99), s, lam) > base
            assert fuse_confidence_logit(p, min(s + eps, 0.99), lam) > base


class TestRefinePseudoLabels:
    def test_soft_admission_only(self):
        page = Page(
            page_id="s",
            llm=(region(BoundingBox(0.1, 0.1, 0.4, 0.2), "header", score=0.7),),
        )
        labels = refine_pseudo_labels(page)
        assert len(labels) == 1
        assert labels[0].provenance == "llm-soft"
        assert labels[0].smoothing == 0.2
        assert labels[0].confidence == 0.7

    def test_soft_rejects_low_score_and_wrong_category(self):
        page = Page(
            page_id="s2",
            llm=(
                region(BoundingBox(0.1, 0.1, 0.4, 0.2), "header", score=0.55),
                region(BoundingBox(0.5, 0.5, 0.8, 0.6), "text", score=0.9),
            ),
        )
        assert refine_pseudo_labels(page) == []

    def test_empty_page(self):
        assert refine_pseudo_labels(Page(page_id="e")) == []

    def test_unmatched_teacher_thresholds_by_rarity(self):
        # frequent text needs 0.7; rare caption needs only 0.5
        page = Page(
            page_id="t",
            teacher=(
                teacher(BoundingBox(0.1, 0.1, 0.3, 0.2), "text", conf=0.65),
                teacher(BoundingBox(0.5, 0.5, 0.7, 0.6), "caption", conf=0.55),
            ),
        )
        labels = refine_pseudo_labels(page)
        assert [l.category.name for l in labels] == ["caption"]
        assert labels[0].provenance == "teacher"

    def test_flat_threshold_table_available(self):
        page = Page(
            page_id="t2",
            teacher=(teacher(BoundingBox(0.1, 0.1, 0.3, 0.2), "caption", conf=0.55),),
        )
        flat = {name: 0.7 for name in TAX.names}
        assert refine_pseudo_labels(page, thresholds=flat) == []

    def test_matched_pair_fixed_path(self):
        box_t = BoundingBox(0.1, 0.1, 0.5, 0.5)
        box_l = BoundingBox(0.12, 0.12, 0.5, 0.5)
        page = Page(page_id="m", teacher=(teacher(box_t, conf=0.8),), llm=(region(box_l, score=0.6),))
        (label,) = refine_pseudo_labels(page)
        assert label.provenance == "fused"
        np.testing.assert_allclose(
            label.box.as_array(), 0.6 * box_t.as_array() + 0.4 * box_l.as_array(), atol=1e-12
        )
        assert label.confidence == pytest.approx(fuse_confidence_logit(0.8, 0.6, 0.7), abs=1e-12)

    def test_matched_pair_inverse_variance_path(self):
        box_t = BoundingBox(0.1, 0.1, 0.5, 0.5)
        box_l = BoundingBox(0.14, 0.14, 0.52, 0.52)
        page = Page(
            page_id="iv",
            teacher=(teacher(box_t, conf=0.8, var=1e-4),),
            llm=(region(box_l, score=0.6, qt=0.8, qs=0.8),),
        )
        (label,) = refine_pseudo_labels(page)
        var_l = 1.0 / 0.64
        lam = var_l / (1e-4 + var_l)
        expected_box = fuse_inverse_variance(box_t, 1e-4, box_l, var_l)
        np.testing.assert_allclose(label.box.as_array(), expected_box.as_array(), atol=1e-12)
        assert label.confidence == pytest.approx(fuse_confidence_logit(0.8, 0.6, lam), abs=1e-12)

    @pytest.mark.parametrize("conf", [0.999999, 1e-6])
    def test_sharpest_fitted_temperature_on_saturated_pair(self, conf):
        # T = 0.05 is the low end of fit_temperature's search range; the
        # calibrated probabilities round to exactly 1.0 (or nearly 0).
        config = FusionConfig(teacher_temperature=0.05, llm_temperature=0.05)
        box = BoundingBox(0.1, 0.1, 0.5, 0.5)
        page = Page(page_id="sharp", teacher=(teacher(box, conf=conf),), llm=(region(box, score=conf),))
        (label,) = refine_pseudo_labels(page, config)
        assert label.provenance == "fused"
        assert 0.0 < label.confidence < 1.0
        assert label.confidence == pytest.approx(1.0 if conf > 0.5 else 0.0, abs=1e-11)

    def test_infinitely_sharp_temperature_gives_a_finite_confidence(self):
        # logit(0.75) / 5e-324 overflows; times a zero weight it was NaN.
        box = BoundingBox(0.1, 0.1, 0.5, 0.5)
        page = Page(page_id="inf-t", teacher=(teacher(box, conf=0.75),), llm=(region(box, score=0.5),))
        config = FusionConfig(teacher_temperature=5e-324, teacher_logit_weight=0.0, llm_logit_weight=1.0)
        (label,) = refine_pseudo_labels(page, config)
        assert label.confidence == 0.5
        # Opposite saturated logits: the larger weight decides the side.
        page = Page(page_id="inf-t2", teacher=(teacher(box, conf=0.75),), llm=(region(box, score=0.25),))
        config = FusionConfig(teacher_temperature=5e-324, llm_temperature=5e-324)
        (label,) = refine_pseudo_labels(page, config)
        assert label.confidence == 1.0 - 1e-12

    def test_temperatures_fuse_in_logit_space(self):
        config = FusionConfig(teacher_temperature=0.5, llm_temperature=2.0)
        box = BoundingBox(0.1, 0.1, 0.5, 0.5)
        page = Page(page_id="t", teacher=(teacher(box, conf=0.8),), llm=(region(box, score=0.6),))
        (label,) = refine_pseudo_labels(page, config)
        z = 0.7 * math.log(4.0) / 0.5 + 0.3 * math.log(1.5) / 2.0
        assert label.confidence == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)

    def test_fused_box_no_further_from_teacher_than_text_region(self):
        pages = simulate_dataset(SimConfig(pages=60, sigma_t=0.02, sigma_l=0.03, seed=23))
        count = 0
        for page in pages:
            labels = [l for l in refine_pseudo_labels(page) if l.provenance == "fused"]
            outcome = match_regions(page.teacher, page.llm)
            assert len(labels) == len(outcome.matches)
            for label, match in zip(labels, outcome.matches):
                t_box = page.teacher[match.teacher_index].box
                l_box = page.llm[match.llm_index].box
                assert iou(label.box, t_box) >= min(1.0, iou(t_box, l_box)) - 1e-12
                count += 1
        assert count > 100

    def test_each_region_contributes_at_most_once(self):
        rng = np.random.default_rng(29)
        for i in range(100):
            page = random_page(rng, f"q{i}")
            labels = refine_pseudo_labels(page)
            outcome = match_regions(page.teacher, page.llm)
            fused = sum(1 for l in labels if l.provenance == "fused")
            soft = sum(1 for l in labels if l.provenance == "llm-soft")
            assert fused == len(outcome.matches)
            assert fused + soft <= len(page.llm) + len(outcome.unmatched_teacher) + fused

    def test_matches_naive_reference_on_random_pages(self):
        rng = np.random.default_rng(31)
        from layoutfusion.curriculum import CurriculumConfig, threshold_table

        thresholds = threshold_table(TAX, CurriculumConfig())
        for i in range(150):
            page = random_page(rng, f"r{i}")
            expected = naive_refine(page, thresholds=thresholds)
            got = refine_pseudo_labels(page)
            assert len(got) == len(expected)
            for label, ref in zip(got, expected):
                np.testing.assert_allclose(label.box.as_array(), ref[:4], atol=1e-9)
                assert label.category.name == ref[4]
                assert label.confidence == pytest.approx(ref[5], abs=1e-9)
                assert label.provenance == ref[6]
                assert label.smoothing == ref[7]


class TestGateSamplesFromPages:
    def test_samples_built_from_simulated_data(self):
        pages = simulate_dataset(SimConfig(pages=30, seed=5))
        samples = gate_samples_from_pages(pages)
        assert len(samples) > 50
        assert np.all((samples.features[:, 2] >= 0.0) & (samples.features[:, 2] <= 1.0))
        assert samples.truth_boxes.shape == (len(samples), 4)

    def test_requires_ground_truth(self):
        page = Page(page_id="nogt", teacher=(teacher(BoundingBox(0.1, 0.1, 0.3, 0.3)),))
        with pytest.raises(ValueError):
            gate_samples_from_pages([page])
