"""Evaluation statistics against hand traces, scipy, and permutation
references."""

import math

import numpy as np
import pytest
import scipy.stats
import scipy.special

from layoutfusion.fusion import apply_temperature, fit_temperature
from layoutfusion.geometry import BoundingBox
from layoutfusion.metrics import (
    Detection,
    GroundTruthBox,
    average_precision,
    ece,
    paired_t_test,
    regularized_incomplete_beta,
    significance_stars,
    student_t_sf,
    tost,
)
from layoutfusion.simulator import sample_calibration_data

from oracles import sign_flip_p_one_sided, sign_flip_p_two_sided


def det(page, category, score, box):
    return Detection(page, category, score, BoundingBox(*box))


def gt(page, category, box):
    return GroundTruthBox(page, category, BoundingBox(*box))


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        result = average_precision(
            [det("p", "text", 0.9, (0.1, 0.1, 0.4, 0.4))], [gt("p", "text", (0.1, 0.1, 0.4, 0.4))]
        )
        assert result.ap == 1.0
        assert result.ap50 == 1.0
        assert result.ap75 == 1.0

    def test_no_detections(self):
        result = average_precision([], [gt("p", "text", (0.1, 0.1, 0.4, 0.4))])
        assert result.ap == 0.0

    def test_no_ground_truth_errors(self):
        with pytest.raises(ValueError):
            average_precision([det("p", "text", 0.9, (0.1, 0.1, 0.4, 0.4))], [])

    def test_false_positive_then_true_positive_hand_trace(self):
        # Higher-scored detection misses, lower-scored one hits the only
        # box: interpolated precision is 1/2 at every recall level.
        result = average_precision(
            [
                det("p", "text", 0.95, (0.6, 0.6, 0.9, 0.9)),
                det("p", "text", 0.90, (0.1, 0.1, 0.4, 0.4)),
            ],
            [gt("p", "text", (0.1, 0.1, 0.4, 0.4))],
        )
        assert result.per_category["text"].by_threshold[0.5] == pytest.approx(0.5)

    def test_duplicate_detection_counts_once(self):
        result = average_precision(
            [
                det("p", "text", 0.95, (0.1, 0.1, 0.4, 0.4)),
                det("p", "text", 0.90, (0.1, 0.1, 0.4, 0.4)),
            ],
            [gt("p", "text", (0.1, 0.1, 0.4, 0.4))],
        )
        # second detection is a false positive at every threshold
        assert result.ap50 == pytest.approx(1.0)

    def test_rank_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(12)
        detections = []
        truths = []
        for p in range(6):
            page = f"p{p}"
            for i in range(5):
                x1, y1 = rng.uniform(0.0, 0.6, size=2)
                box = (x1, y1, x1 + 0.3, y1 + 0.3)
                truths.append(gt(page, "text", box))
                jitter = rng.uniform(-0.05, 0.05, size=4)
                dbox = np.clip(np.array(box) + jitter, 0, 1)
                dbox[2] = max(dbox[2], dbox[0] + 0.01)
                dbox[3] = max(dbox[3], dbox[1] + 0.01)
                detections.append(det(page, "text", float(rng.uniform(0.1, 0.9)), tuple(dbox)))
        base = average_precision(detections, truths)
        for transform in (lambda s: s**3, lambda s: 0.1 + 0.8 * s, math.tanh):
            mapped = [
                Detection(d.page_id, d.category, float(transform(d.score)), d.box) for d in detections
            ]
            assert average_precision(mapped, truths).ap == pytest.approx(base.ap, abs=1e-12)

    def test_antitone_in_iou_threshold(self):
        rng = np.random.default_rng(13)
        detections, truths = [], []
        for p in range(8):
            page = f"p{p}"
            for i in range(4):
                x1, y1 = rng.uniform(0.0, 0.5, size=2)
                box = (x1, y1, x1 + 0.35, y1 + 0.35)
                truths.append(gt(page, "text", box))
                jitter = rng.uniform(-0.06, 0.06, size=4)
                dbox = np.clip(np.array(box) + jitter, 0, 1)
                dbox[2] = max(dbox[2], dbox[0] + 0.01)
                dbox[3] = max(dbox[3], dbox[1] + 0.01)
                detections.append(det(page, "text", float(rng.uniform(0.1, 0.9)), tuple(dbox)))
        result = average_precision(detections, truths)
        assert result.ap75 <= result.ap50 + 1e-12

    def test_macro_mean_is_unweighted_average(self):
        detections = [
            det("p", "text", 0.9, (0.1, 0.1, 0.4, 0.4)),
            det("p", "title", 0.9, (0.6, 0.6, 0.9, 0.9)),
        ]
        truths = [
            gt("p", "text", (0.1, 0.1, 0.4, 0.4)),
            gt("p", "text", (0.5, 0.1, 0.8, 0.4)),
            gt("p", "title", (0.6, 0.6, 0.9, 0.9)),
        ]
        result = average_precision(detections, truths)
        per_cat = [c.ap for c in result.per_category.values()]
        assert result.ap == pytest.approx(np.mean(per_cat))
        weights = [c.gt_count for c in result.per_category.values()]
        assert result.weighted_ap == pytest.approx(np.average(per_cat, weights=weights))

    def test_zero_gt_category_excluded(self):
        detections = [det("p", "figure", 0.9, (0.1, 0.1, 0.4, 0.4))]
        truths = [gt("p", "text", (0.1, 0.1, 0.4, 0.4))]
        result = average_precision(detections, truths)
        assert set(result.per_category) == {"text"}


class TestEce:
    def test_confident_and_correct(self):
        result = ece(np.full(10, 0.999), np.ones(10, dtype=bool))
        assert result.ece == pytest.approx(0.001, abs=1e-9)

    def test_half_correct_at_half_confidence(self):
        conf = np.full(100, 0.5)
        correct = np.arange(100) % 2 == 0
        assert ece(conf, correct).ece == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_hand_value(self):
        result = ece(np.array([0.8, 0.6]), np.array([True, False]), bins=1)
        assert result.ece == pytest.approx(0.2)
        assert result.bins[0].count == 2

    def test_bin_counts_sum(self):
        rng = np.random.default_rng(3)
        conf = rng.uniform(0.0, 1.0, size=500)
        correct = rng.random(500) < conf
        result = ece(conf, correct)
        assert sum(b.count for b in result.bins) == 500
        assert 0.0 <= result.ece <= 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ece([], [])

    def test_calibration_reduces_ece_on_heldout(self):
        # Fit on one split, evaluate on a fresh one; the improvement
        # must clear 3 standard errors of the ECE difference estimate.
        fit_conf, fit_correct = sample_calibration_data(10_000, temperature=3.0, seed=21)
        temperature = fit_temperature(fit_conf, fit_correct)
        conf, correct = sample_calibration_data(10_000, temperature=3.0, seed=22)
        before = ece(conf, correct).ece
        after = ece(apply_temperature(conf, temperature), correct).ece
        # crude scale of ECE sampling noise at n = 1e4
        noise = 3.0 * math.sqrt(0.25 / 10_000)
        assert after < before - 3 * noise


class TestStudentT:
    def test_incomplete_beta_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = rng.uniform(0.5, 30)
            b = rng.uniform(0.5, 30)
            x = rng.uniform(0.0, 1.0)
            mine = regularized_incomplete_beta(a, b, x)
            ref = scipy.special.betainc(a, b, x)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_tail_matches_scipy(self):
        for df in (1, 2, 4, 9, 30):
            for t in (-8.0, -2.1, -0.3, 0.0, 0.7, 2.132, 7.07):
                assert student_t_sf(t, df) == pytest.approx(scipy.stats.t.sf(t, df), abs=1e-12)


class TestPairedTTest:
    def test_identical_samples_convention(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 1.0

    def test_fixed_difference_vector(self):
        b = np.zeros(5)
        a = np.array([0.5, 0.7, 0.3, 0.6, 0.4])
        result = paired_t_test(a, b)
        assert result.t == pytest.approx(7.0710678, abs=1e-6)
        ref = scipy.stats.ttest_rel(a, b)
        assert result.p == pytest.approx(ref.pvalue, abs=1e-12)
        assert result.p == pytest.approx(0.0021, abs=2e-4)

    def test_constant_nonzero_difference_convention(self):
        result = paired_t_test([1.0] * 5, [0.0] * 5)
        assert result.p == 0.0
        assert math.isinf(result.t)

    def test_matches_scipy_randomized(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            a = rng.normal(0.2, 1.0, size=n)
            b = rng.normal(0.0, 1.0, size=n)
            mine = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert mine.t == pytest.approx(ref.statistic, abs=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_sign_flip_permutation(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(30, 60))
            a = rng.normal(rng.uniform(-0.3, 0.3), 1.0, size=n)
            b = rng.normal(0.0, 1.0, size=n)
            mine = paired_t_test(a, b).p
            perm = sign_flip_p_two_sided(a - b, n_draws=60_000, seed=trial)
            assert mine == pytest.approx(perm, abs=0.01)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.5])

    @pytest.mark.parametrize("a", [[1e308, -1e308, 1e308], [1.0, 2.0, math.nan], [1.7e308, 1.7e308, 1.0]])
    def test_differences_without_a_finite_mean_or_deviation_are_rejected(self, a):
        # Under the suite's RuntimeWarning filter, a numpy overflow warning fails this too.
        with pytest.raises(ValueError, match="mean or standard deviation is not finite"):
            paired_t_test(a, [1.0, -2.0, 3.0])


class TestTost:
    def test_mean_outside_margin_never_equivalent(self):
        a = np.array([0.6, 0.62, 0.58, 0.61, 0.59])
        result = tost(a, np.zeros(5), delta=0.5)
        assert not result.equivalent
        assert result.p_upper > 0.5

    def test_tight_differences_equivalent(self):
        # Both one-sided statistics exceed the df=4 critical value 2.132.
        a = np.array([0.05, -0.03, 0.01, 0.02, -0.04])
        result = tost(a, np.zeros(5), delta=0.5, alpha=0.05)
        assert result.equivalent
        assert max(result.p_lower, result.p_upper) < 0.05

    def test_identical_samples_equivalent_by_convention(self):
        result = tost([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], delta=0.5)
        assert result.equivalent
        assert result.mean_difference == 0.0

    def test_constant_difference_outside_margin(self):
        result = tost([1.0] * 4, [0.0] * 4, delta=0.5)
        assert not result.equivalent

    def test_equivalence_flag_matches_p_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            a = rng.normal(rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.5), size=n)
            result = tost(a, np.zeros(n), delta=0.5)
            assert result.equivalent == (max(result.p_lower, result.p_upper) < 0.05)

    def test_one_sided_p_matches_permutation(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(30, 50))
            d = rng.normal(0.05, 0.4, size=n)
            result = tost(d, np.zeros(n), delta=0.5)
            perm_lower = sign_flip_p_one_sided(d, shift=-0.5, n_draws=60_000, seed=trial)
            assert result.p_lower == pytest.approx(perm_lower, abs=0.01)

    def test_critical_value_hand_check(self):
        # With df=4 the one-sided 5% critical value is 2.1318; build a
        # sample whose lower statistic just clears it and upper fails.
        d = np.array([0.0, 0.1, -0.1, 0.05, -0.05])
        se = d.std(ddof=1) / math.sqrt(5)
        t_lower = (d.mean() + 0.5) / se
        t_upper = (d.mean() - 0.5) / se
        result = tost(d, np.zeros(5), delta=0.5)
        assert (result.p_lower < 0.05) == (t_lower > 2.1318)
        assert (result.p_upper < 0.05) == (t_upper < -2.1318)


    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan, math.inf])
    def test_margin_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match=f"delta={delta} must be finite and > 0"):
            tost([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], delta=delta)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, math.nan])
    def test_level_must_be_inside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=rf"alpha={alpha} must be in \(0, 1\)"):
            tost([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], delta=0.5, alpha=alpha)


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.2) == ""
        assert significance_stars(0.04) == "*"
        assert significance_stars(0.009) == "**"
        assert significance_stars(0.0009) == "***"
