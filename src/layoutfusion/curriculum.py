"""Training-loop bookkeeping as pure computations, no learner attached.

Covers the epoch-indexed admission schedule for pseudo-label sources,
class-adaptive confidence thresholds, EMA parameter updates and the
cross-modal consistency penalty over embedding vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PROVENANCE_FUSED, PROVENANCE_LLM_SOFT, PROVENANCE_TEACHER
from .taxonomy import DOCLAYNET, LayoutCategory, RARE, Taxonomy

__all__ = [
    "CurriculumConfig",
    "SchedulePhase",
    "schedule",
    "category_threshold",
    "threshold_table",
    "ema_update",
    "consistency_loss",
    "schedule_table",
]


@dataclass(frozen=True)
class CurriculumConfig:
    warmup_epochs: int = 2
    fusion_start_epoch: int = 3
    soft_start_epoch: int = 6
    threshold_frequent: float = 0.7
    threshold_rare: float = 0.5
    regeneration_period: int = 2
    ema_momentum: float = 0.999
    lambda_pseudo: float = 1.0
    lambda_cons: float = 0.2

    def __post_init__(self) -> None:
        for name in ("threshold_frequent", "threshold_rare"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name}={value} must be in (0, 1)")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError(f"ema_momentum={self.ema_momentum} must be in [0, 1]")
        if self.warmup_epochs < 0 or self.fusion_start_epoch < 1 or self.soft_start_epoch < 1:
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


def ema_update(teacher, student, momentum: float) -> np.ndarray:
    """Elementwise momentum * teacher + (1 - momentum) * student."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum={momentum} must be in [0, 1]")
    teacher = np.asarray(teacher, dtype=np.float64)
    student = np.asarray(student, dtype=np.float64)
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    return momentum * teacher + (1.0 - momentum) * student


def consistency_loss(visual, text) -> float:
    """Mean over all entries of (1 - cosine similarity).

    Entries whose text vector is absent (None) contribute zero but stay
    in the denominator, matching the 1/N normalization. Zero-norm
    vectors are an error: their direction is undefined.
    """
    if len(visual) != len(text):
        raise ValueError("visual and text lists must have equal length")
    if len(visual) == 0:
        raise ValueError("need at least one entry")
    total = 0.0
    for i, (v, t) in enumerate(zip(visual, text)):
        if t is None:
            continue
        v = np.asarray(v, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        nv = np.linalg.norm(v)
        nt = np.linalg.norm(t)
        if nv == 0.0 or nt == 0.0:
            raise ValueError(f"zero-norm embedding at index {i}")
        total += 1.0 - float(np.dot(v, t) / (nv * nt))
    return total / len(visual)


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
