"""Schedule, thresholds, EMA, consistency penalty."""

import numpy as np
import pytest

from layoutfusion.curriculum import (
    CurriculumConfig,
    category_threshold,
    consistency_loss,
    ema_update,
    schedule,
    schedule_table,
    threshold_table,
)
from layoutfusion.taxonomy import DOCLAYNET


class TestSchedule:
    def test_warmup_is_teacher_only_at_flat_threshold(self):
        phase = schedule(1)
        assert phase.allowed_provenance == frozenset({"teacher"})
        assert set(phase.thresholds.values()) == {0.7}
        assert phase.regenerate

    def test_fusion_window(self):
        phase = schedule(4)
        assert phase.allowed_provenance == frozenset({"teacher", "fused"})
        assert phase.soft_rarities == frozenset()

    def test_soft_phase_admits_rare_only(self):
        phase = schedule(7)
        assert phase.allowed_provenance == frozenset({"teacher", "fused", "llm-soft"})
        assert phase.soft_rarities == frozenset({"rare"})

    def test_regeneration_period(self):
        flags = [schedule(e).regenerate for e in range(1, 9)]
        assert flags == [True, False, True, False, True, False, True, False]

    def test_epoch_below_one_errors(self):
        with pytest.raises(ValueError):
            schedule(0)

    def test_allowed_sets_monotone_in_epoch(self):
        previous = frozenset()
        for epoch in range(1, 30):
            current = schedule(epoch).allowed_provenance
            assert previous <= current
            previous = current

    def test_table_rows(self):
        rows = schedule_table(6)
        assert [r["epoch"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[-1]["sources"] == "fused+llm-soft+teacher"


class TestThresholds:
    def test_frequent_category(self):
        assert category_threshold(DOCLAYNET.category("paragraph")) == 0.7

    def test_rare_category(self):
        assert category_threshold(DOCLAYNET.category("caption")) == 0.5

    def test_table_covers_taxonomy(self):
        table = threshold_table(DOCLAYNET)
        assert set(table) == set(DOCLAYNET.names)
        assert table["header"] == 0.5
        assert table["text"] == 0.7

    def test_all_frequent_taxonomy_uniform(self):
        from layoutfusion.taxonomy import LayoutCategory, Taxonomy

        tax = Taxonomy("flat", (LayoutCategory("a"), LayoutCategory("b")))
        assert set(threshold_table(tax).values()) == {0.7}


class TestEmaUpdate:
    def test_momentum_one_keeps_teacher(self):
        out = ema_update([1.0, 2.0], [5.0, 5.0], 1.0)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_momentum_zero_copies_student(self):
        out = ema_update([1.0, 2.0], [5.0, 6.0], 0.0)
        np.testing.assert_allclose(out, [5.0, 6.0])

    def test_standard_momentum_value(self):
        out = ema_update([1.0], [0.0], 0.999)
        assert out[0] == pytest.approx(0.999, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ema_update([1.0, 2.0], [1.0], 0.9)

    def test_geometric_convergence_to_fixed_student(self):
        momentum = 0.9
        teacher = np.array([3.0])
        student = np.array([1.0])
        gap0 = abs(teacher[0] - student[0])
        for k in range(1, 20):
            teacher = ema_update(teacher, student, momentum)
            assert abs(teacher[0] - student[0]) == pytest.approx(momentum**k * gap0, rel=1e-12)


class TestConsistencyLoss:
    def test_identical_vectors(self):
        v = [np.array([1.0, 2.0]), np.array([0.5, -1.0])]
        assert consistency_loss(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_single_orthogonal_pair(self):
        assert consistency_loss([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(1.0)

    def test_absent_text_counts_in_denominator(self):
        loss = consistency_loss([[1.0, 0.0], [1.0, 0.0]], [None, [0.0, 1.0]])
        assert loss == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.normal(size=4)
            t = rng.normal(size=4)
            base = consistency_loss([v], [t])
            scaled = consistency_loss([v * rng.uniform(0.1, 50)], [t * rng.uniform(0.1, 50)])
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = [rng.normal(size=3) for _ in range(4)]
            t = [rng.normal(size=3) if rng.random() > 0.3 else None for _ in range(4)]
            if all(x is None for x in t):
                continue
            assert 0.0 <= consistency_loss(v, t) <= 2.0

    def test_zero_norm_errors(self):
        with pytest.raises(ValueError):
            consistency_loss([[0.0, 0.0]], [[1.0, 0.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            consistency_loss([[1.0]], [])
