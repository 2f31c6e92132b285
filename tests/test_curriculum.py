"""Schedule and thresholds."""

import pytest

from layoutfusion.curriculum import (
    CurriculumConfig,
    category_threshold,
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

