"""Training-loop bookkeeping as pure computations, no learner attached.

Covers the epoch-indexed admission schedule for pseudo-label sources
and class-adaptive confidence thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import PROVENANCE_FUSED, PROVENANCE_LLM_SOFT, PROVENANCE_TEACHER
from .schema import check_fields
from .taxonomy import DOCLAYNET, LayoutCategory, RARE, Taxonomy

__all__ = [
    "CurriculumConfig",
    "SchedulePhase",
    "schedule",
    "category_threshold",
    "threshold_table",
    "schedule_table",
]


@dataclass(frozen=True)
class CurriculumConfig:
    warmup_epochs: int = 2
    soft_start_epoch: int = 6
    threshold_frequent: float = 0.7
    threshold_rare: float = 0.5
    regeneration_period: int = 2

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("threshold_frequent", "threshold_rare"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name}={value} must be in (0, 1)")
        if self.warmup_epochs < 0 or self.soft_start_epoch < 1:
            raise ValueError("epoch boundaries must be positive")
        if self.regeneration_period < 1:
            raise ValueError("regeneration_period must be >= 1")


@dataclass(frozen=True)
class SchedulePhase:
    """What one training epoch admits.

    ``soft_rarities`` restricts llm-soft admission (rare categories only
    by default once soft labels are enabled).
    """

    allowed_provenance: frozenset[str]
    thresholds: dict[str, float]
    regenerate: bool
    soft_rarities: frozenset[str] = frozenset()


def category_threshold(category: LayoutCategory, config: CurriculumConfig = CurriculumConfig()) -> float:
    """Per-category retention threshold from the rarity tag."""
    return config.threshold_rare if category.rarity == RARE else config.threshold_frequent


def threshold_table(taxonomy: Taxonomy, config: CurriculumConfig = CurriculumConfig()) -> dict[str, float]:
    return {c.name: category_threshold(c, config) for c in taxonomy.categories}


def schedule(
    epoch: int, config: CurriculumConfig = CurriculumConfig(), taxonomy: Taxonomy = DOCLAYNET
) -> SchedulePhase:
    """Admission policy for the given 1-based epoch.

    Warmup epochs take only high-confidence teacher labels at a flat
    threshold; fused labels join afterwards; soft text-only labels for
    rare categories join from the soft-start epoch. Pseudo-labels are
    regenerated on the first epoch of each regeneration period.
    """
    if epoch < 1:
        raise ValueError(f"epoch={epoch} must be >= 1")
    if epoch <= config.warmup_epochs:
        allowed = frozenset({PROVENANCE_TEACHER})
        thresholds = {c.name: config.threshold_frequent for c in taxonomy.categories}
        soft = frozenset()
    elif epoch < config.soft_start_epoch:
        allowed = frozenset({PROVENANCE_TEACHER, PROVENANCE_FUSED})
        thresholds = threshold_table(taxonomy, config)
        soft = frozenset()
    else:
        allowed = frozenset({PROVENANCE_TEACHER, PROVENANCE_FUSED, PROVENANCE_LLM_SOFT})
        thresholds = threshold_table(taxonomy, config)
        soft = frozenset({RARE})
    regenerate = epoch % config.regeneration_period == 1 or config.regeneration_period == 1
    return SchedulePhase(allowed, thresholds, regenerate, soft)


def schedule_table(
    max_epoch: int, config: CurriculumConfig = CurriculumConfig(), taxonomy: Taxonomy = DOCLAYNET
) -> list[dict]:
    """Flat per-epoch rows (for CSV export and audit)."""
    rows = []
    for epoch in range(1, max_epoch + 1):
        phase = schedule(epoch, config, taxonomy)
        rows.append(
            {
                "epoch": epoch,
                "sources": "+".join(sorted(phase.allowed_provenance)),
                "thresholds": ";".join(
                    f"{name}={phase.thresholds[name]}" for name in sorted(phase.thresholds)
                ),
                "regenerate": phase.regenerate,
            }
        )
    return rows
