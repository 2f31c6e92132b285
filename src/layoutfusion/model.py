"""Domain types shared by every other module.

All values are immutable after construction; pages can be processed in
parallel with no shared mutable state.
"""

from __future__ import annotations

import math

from .geometry import BoundingBox
from .schema import record
from .taxonomy import LayoutCategory

__all__ = [
    "TeacherPrediction",
    "LlmRegion",
    "OcrBlock",
    "GroundTruthAnnotation",
    "FusedLabel",
    "Page",
    "PROVENANCE_FUSED",
    "PROVENANCE_TEACHER",
    "PROVENANCE_LLM_SOFT",
]

PROVENANCE_FUSED = "fused"
PROVENANCE_TEACHER = "teacher"
PROVENANCE_LLM_SOFT = "llm-soft"
_PROVENANCES = (PROVENANCE_FUSED, PROVENANCE_TEACHER, PROVENANCE_LLM_SOFT)


def _check_probability(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name}={value} must be strictly inside (0, 1)")


@record
class TeacherPrediction:
    """One visual-detector output: box, category, confidence.

    ``coordinate_variance`` is an optional per-box variance of the
    normalized coordinates; when present it enables precision-weighted
    box fusion instead of the fixed-weight blend.
    """

    box: BoundingBox
    category: LayoutCategory
    confidence: float
    coordinate_variance: float | None = None

    def __post_init__(self) -> None:
        _check_probability(self.confidence, "confidence")
        # +inf is allowed and means the teacher box carries no weight;
        # NaN would fail only later, inside the fused box.
        var = self.coordinate_variance
        if var is not None and not var >= 0.0:
            raise ValueError(f"coordinate_variance={var} must be >= 0 and not NaN")


@record
class LlmRegion:
    """One text-derived structural region: box, category, score.

    ``q_text`` and ``q_spatial`` grade the text evidence behind the
    region; their product sets the region's spatial precision.
    """

    box: BoundingBox
    category: LayoutCategory
    score: float
    q_text: float = 1.0
    q_spatial: float = 1.0

    def __post_init__(self) -> None:
        _check_probability(self.score, "score")
        if not 0.0 < self.q_text <= 1.0:
            raise ValueError(f"q_text={self.q_text} must be in (0, 1]")
        if not 0.0 < self.q_spatial <= 1.0:
            raise ValueError(f"q_spatial={self.q_spatial} must be in (0, 1]")
        # The region's spatial variance is 1 / (q_text * q_spatial).
        quality = self.q_text * self.q_spatial
        if not (quality > 0.0 and 1.0 / quality < math.inf):
            raise ValueError(
                f"q_text*q_spatial={quality!r} is too small: the spatial variance 1/(q_text*q_spatial) overflows"
            )


@record
class OcrBlock:
    box: BoundingBox
    text: str = ""
    is_bold: bool = False


@record
class GroundTruthAnnotation:
    box: BoundingBox
    category: LayoutCategory


@record
class FusedLabel:
    """A refined pseudo-label with provenance.

    ``smoothing`` is stored on the label (not applied to any target
    distribution) and must be zero unless the label came in as an
    unmatched high-confidence text region ("llm-soft").
    """

    box: BoundingBox
    category: LayoutCategory
    confidence: float
    provenance: str
    smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence={self.confidence} must be in (0, 1)")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError(f"smoothing={self.smoothing} must be in [0, 1)")
        if self.provenance != PROVENANCE_LLM_SOFT and self.smoothing != 0.0:
            raise ValueError("smoothing is only meaningful for llm-soft labels")


@record
class Page:
    """One document page: OCR blocks plus the two prediction streams.

    ``ground_truth`` is present on simulated or annotated data only;
    ``refined`` carries fusion output when a refined dataset is loaded.
    """

    page_id: str
    ocr_blocks: tuple[OcrBlock, ...] = ()
    teacher: tuple[TeacherPrediction, ...] = ()
    llm: tuple[LlmRegion, ...] = ()
    ground_truth: tuple[GroundTruthAnnotation, ...] | None = None
    refined: tuple[FusedLabel, ...] | None = None
