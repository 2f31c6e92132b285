"""Random input builders shared across test modules (not oracles)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from layoutfusion.geometry import BoundingBox
from layoutfusion.model import (
    PROVENANCE_FUSED,
    PROVENANCE_LLM_SOFT,
    PROVENANCE_TEACHER,
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from layoutfusion.taxonomy import DOCLAYNET


def random_box(rng, min_side: float = 0.02) -> BoundingBox:
    x1, x2 = np.sort(rng.uniform(0.0, 1.0, size=2))
    y1, y2 = np.sort(rng.uniform(0.0, 1.0, size=2))
    if x2 - x1 < min_side:
        x2 = min(1.0, x1 + min_side)
        x1 = x2 - min_side
    if y2 - y1 < min_side:
        y2 = min(1.0, y1 + min_side)
        y1 = y2 - min_side
    return BoundingBox(x1, y1, x2, y2)


def random_page(rng, page_id: str, taxonomy=DOCLAYNET, max_teacher: int = 8, max_llm: int = 8) -> Page:
    """Adversarial page: streams are unrelated random boxes, sometimes
    with coordinate variances, with arbitrary categories and scores."""
    names = taxonomy.names
    teacher = []
    for _ in range(int(rng.integers(0, max_teacher + 1))):
        coord_var = float(rng.uniform(1e-6, 5e-3)) if rng.random() < 0.5 else None
        teacher.append(
            TeacherPrediction(
                box=random_box(rng),
                category=taxonomy.category(str(rng.choice(names))),
                confidence=float(rng.uniform(0.05, 0.95)),
                coordinate_variance=coord_var,
            )
        )
    llm = []
    for _ in range(int(rng.integers(0, max_llm + 1))):
        llm.append(
            LlmRegion(
                box=random_box(rng),
                category=taxonomy.category(str(rng.choice(names))),
                score=float(rng.uniform(0.05, 0.95)),
                q_text=float(rng.uniform(0.3, 1.0)),
                q_spatial=float(rng.uniform(0.3, 1.0)),
            )
        )
    return Page(page_id=page_id, teacher=tuple(teacher), llm=tuple(llm))


# OCR text a dataset line must escape: quotes, backslashes, control,
# non-ASCII and astral characters.
AWKWARD_TEXT = ('Figure 1: "x"', "a\\b/c", "\x00\x1f\x7f\n\t", "é€ 表", "\U0001f600", "", "Table 2")


def random_dataset_page(rng, page_id: str, taxonomy=DOCLAYNET) -> Page:
    """``random_page`` with every record kind a dataset line holds: OCR
    blocks with ``AWKWARD_TEXT``, teacher variances None, finite or +inf,
    and ground truth and refined labels each absent (None) or present."""
    page = random_page(rng, page_id, taxonomy, max_teacher=4, max_llm=4)
    names = taxonomy.names
    teacher = tuple(
        replace(t, coordinate_variance=math.inf) if rng.random() < 0.2 else t for t in page.teacher
    )
    ocr = tuple(
        OcrBlock(random_box(rng), str(rng.choice(AWKWARD_TEXT)), bool(rng.random() < 0.3))
        for _ in range(int(rng.integers(0, 4)))
    )
    ground_truth = None
    if rng.random() < 0.7:
        ground_truth = tuple(
            GroundTruthAnnotation(random_box(rng), taxonomy.category(str(rng.choice(names))))
            for _ in range(int(rng.integers(0, 4)))
        )
    refined = None
    if rng.random() < 0.5:
        labels = []
        for _ in range(int(rng.integers(0, 4))):
            provenance = str(rng.choice([PROVENANCE_FUSED, PROVENANCE_TEACHER, PROVENANCE_LLM_SOFT]))
            smoothing = float(rng.uniform(0.0, 0.3)) if provenance == PROVENANCE_LLM_SOFT else 0.0
            category = taxonomy.category(str(rng.choice(names)))
            labels.append(FusedLabel(random_box(rng), category, float(rng.uniform(0.05, 0.95)), provenance, smoothing))
        refined = tuple(labels)
    return replace(page, ocr_blocks=ocr, teacher=teacher, ground_truth=ground_truth, refined=refined)
