"""Matching and fusion of the two prediction streams.

The teacher stream (visual detector) and the text stream (LLM-style
structural regions) are aligned by greedy IoU matching, then fused:

* boxes by a fixed convex blend, by inverse-variance (precision)
  weighting when per-box variances are available, or by a learned gate;
* confidences by a convex combination in logit space, optionally after
  per-stream temperature calibration;
* categories by the trust-the-text-source policy on compatible
  disagreements.

``refine_pseudo_labels`` runs the complete refinement pipeline over one
page: fuse matched pairs, retain confident unmatched teacher boxes, and
admit high-scoring unmatched text regions of selected categories as
smoothed soft labels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curriculum import CurriculumConfig, threshold_table
from .gating import GateBatch, GateParams, gate_forward_batch
from .geometry import BoundingBox, best_overlap
from .model import (
    FusedLabel,
    LlmRegion,
    Page,
    PROVENANCE_FUSED,
    PROVENANCE_LLM_SOFT,
    PROVENANCE_TEACHER,
    TeacherPrediction,
)
from .numerics import logit, sigmoid, softplus
from .schema import check_fields, record
from .taxonomy import DOCLAYNET, LayoutCategory, Taxonomy

__all__ = [
    "FusionConfig",
    "MatchResult",
    "MatchOutcome",
    "match_regions",
    "resolve_category",
    "pair_features",
    "fuse_fixed_box",
    "llm_spatial_variance",
    "fuse_inverse_variance",
    "optimal_weights",
    "optimal_alpha",
    "fused_variance",
    "apply_temperature",
    "fit_temperature",
    "fuse_confidence_logit",
    "refine_pseudo_labels",
    "gate_samples_from_pages",
]


# Fused confidences are kept this far inside (0, 1), so a pair whose
# calibrated logits saturate the sigmoid still makes a valid FusedLabel.
# Unbinding for |fused logit| < 27.6, which covers every confidence in
# [1e-7, 1 - 1e-7] at unit temperatures.
_FUSED_CONF_CLIP = 1e-12
# Half the largest float: a convex combination of two logits clipped to
# this magnitude is finite.
_LOGIT_BOUND = sys.float_info.max / 2


def _finite_logit(z: float) -> float:
    return min(max(z, -_LOGIT_BOUND), _LOGIT_BOUND)


@dataclass(frozen=True)
class FusionConfig:
    """Thresholds and weights for matching and fixed fusion.

    ``teacher_logit_weight`` weighs the teacher's logit in confidence
    fusion; the text logit's weight is ``1 - teacher_logit_weight``.
    Temperatures of 1.0 leave confidences untouched.
    """

    iou_threshold: float = 0.5
    teacher_box_weight: float = 0.6
    teacher_logit_weight: float = 0.7
    teacher_temperature: float = 1.0
    llm_temperature: float = 1.0
    soft_score_min: float = 0.6
    soft_categories: tuple[str, ...] = ("header", "title", "caption")
    soft_smoothing: float = 0.2

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold={self.iou_threshold} must be in (0, 1)")
        if not 0.0 <= self.teacher_box_weight <= 1.0:
            raise ValueError(f"teacher_box_weight={self.teacher_box_weight} must be in [0, 1]")
        if not 0.0 <= self.teacher_logit_weight <= 1.0:
            raise ValueError("teacher_logit_weight must be in [0, 1]")
        if not (self.teacher_temperature > 0.0 and self.llm_temperature > 0.0):
            raise ValueError("temperatures must be positive")
        if not 0.0 <= self.soft_smoothing < 1.0:
            raise ValueError(f"soft_smoothing={self.soft_smoothing} must be in [0, 1)")


@record
class MatchResult:
    """A consumed teacher/text pairing; emitted matches are compatible."""

    teacher_index: int
    llm_index: int
    iou: float


@dataclass(frozen=True)
class MatchOutcome:
    matches: tuple[MatchResult, ...]
    unmatched_teacher: tuple[int, ...]
    unmatched_llm: tuple[int, ...]


def match_regions(
    teacher,
    llm,
    config: FusionConfig = FusionConfig(),
    taxonomy: Taxonomy = DOCLAYNET,
) -> MatchOutcome:
    """Greedy IoU matching in teacher-list order with single-use regions.

    For each teacher box the IoU-argmax among still-available text
    regions is taken; the pair is emitted iff its IoU clears the
    threshold and the categories are compatible. A region consumed by an
    earlier teacher box is unavailable to later ones. No second-best
    fallback: if the argmax fails either check the teacher stays
    unmatched.
    """
    matches: list[MatchResult] = []
    unmatched_teacher: list[int] = []
    # The still-available regions in index order: their indices and,
    # side by side, their boxes.
    available = list(range(len(llm)))
    boxes = [region.box for region in llm]
    threshold = config.iou_threshold
    for ti, pred in enumerate(teacher):
        pos, overlap = best_overlap(pred.box, boxes)
        if pos >= 0 and overlap >= threshold:
            li = available[pos]
            if taxonomy.compatible(pred.category.name, llm[li].category.name):
                matches.append(MatchResult(ti, li, overlap))
                del available[pos], boxes[pos]
                continue
        unmatched_teacher.append(ti)
    return MatchOutcome(tuple(matches), tuple(unmatched_teacher), tuple(available))


def resolve_category(c_t: LayoutCategory, c_l: LayoutCategory, taxonomy: Taxonomy = DOCLAYNET) -> LayoutCategory:
    """Category of a fused label: agreement keeps it, disagreement
    trusts the text source.

    The policy does not read the scores; they take part in confidence
    fusion only. Incompatible pairs are an error because the matcher
    must never produce them.
    """
    if not taxonomy.compatible(c_t.name, c_l.name):
        raise ValueError(f"incompatible categories {c_t.name!r} and {c_l.name!r}")
    return c_t if c_t.name == c_l.name else c_l


def pair_features(page: Page, matches) -> np.ndarray:
    """The gate's input rows for ``matches`` of ``page``: teacher
    confidence, text score and pair IoU, as an (n, 3) float64 array in
    match order."""
    rows = [(page.teacher[m.teacher_index].confidence, page.llm[m.llm_index].score, m.iou) for m in matches]
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def _within(v: float, a: float, b: float) -> float:
    """``v`` moved into [min(a, b), max(a, b)]: a rounded blend of a and
    b can land an ulp past them."""
    if a > b:
        a, b = b, a
    return a if v < a else b if v > b else v


def _blend_box(b_t: BoundingBox, b_l: BoundingBox, x1: float, y1: float, x2: float, y2: float) -> BoundingBox:
    """The box of the blended coordinates, each kept inside the hull of
    its two inputs. A matched pair overlaps, so each blended x1 stays
    below the smaller x2 (likewise y) and the box cannot collapse."""
    return BoundingBox(
        _within(float(x1), b_t.x1, b_l.x1),
        _within(float(y1), b_t.y1, b_l.y1),
        _within(float(x2), b_t.x2, b_l.x2),
        _within(float(y2), b_t.y2, b_l.y2),
    )


def fuse_fixed_box(b_t: BoundingBox, b_l: BoundingBox, weight: float) -> BoundingBox:
    """Coordinate-wise convex combination, ``weight`` on the teacher box."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight={weight} must be in [0, 1]")
    # Per coordinate, the same two products and one sum as the array form.
    w_l = 1.0 - weight
    return _blend_box(
        b_t,
        b_l,
        weight * b_t.x1 + w_l * b_l.x1,
        weight * b_t.y1 + w_l * b_l.y1,
        weight * b_t.x2 + w_l * b_l.x2,
        weight * b_t.y2 + w_l * b_l.y2,
    )


def llm_spatial_variance(q_text: float, q_spatial: float) -> float:
    """Spatial variance of a text region: reciprocal of its evidence quality."""
    if q_text <= 0.0 or q_spatial <= 0.0:
        raise ValueError("variance undefined for non-positive quality")
    return 1.0 / (q_text * q_spatial)


def fuse_inverse_variance(
    b_t: BoundingBox, var_t: float, b_l: BoundingBox, var_l: float
) -> BoundingBox:
    """Precision-weighted box blend; a zero-variance source wins outright,
    and so does one whose precision 1/variance overflows."""
    if var_t < 0.0 or var_l < 0.0:
        raise ValueError("variances must be nonnegative")
    if var_t == 0.0 and var_l == 0.0:
        raise ValueError("at least one variance must be positive")
    if var_t == 0.0:
        return b_t
    if var_l == 0.0:
        return b_l
    w_t = 1.0 / var_t
    w_l = 1.0 / var_l
    if w_t == math.inf:
        return b_t
    if w_l == math.inf:
        return b_l
    total = w_t + w_l
    if total == math.inf:
        # Two precisions near the largest float: halved, they and every
        # weighted sum below stay finite, and the ratios are unchanged.
        w_t, w_l = w_t / 2, w_l / 2
        total = w_t + w_l
    return _blend_box(
        b_t,
        b_l,
        (w_t * b_t.x1 + w_l * b_l.x1) / total,
        (w_t * b_t.y1 + w_l * b_l.y1) / total,
        (w_t * b_t.x2 + w_l * b_l.x2) / total,
        (w_t * b_t.y2 + w_l * b_l.y2) / total,
    )


def _fusion_terms(sigma_t, sigma_l, rho: float):
    """Both deviations as float64 arrays and the fusion denominator
    sigma_t^2 + sigma_l^2 - 2 rho sigma_t sigma_l, checked elementwise."""
    sigma_t = np.asarray(sigma_t, dtype=np.float64)
    sigma_l = np.asarray(sigma_l, dtype=np.float64)
    if np.any(sigma_t <= 0.0) or np.any(sigma_l <= 0.0):
        raise ValueError("standard deviations must be positive")
    denominator = sigma_t**2 + sigma_l**2 - 2.0 * rho * sigma_t * sigma_l
    if np.any(denominator <= 1e-12):
        raise ValueError("degenerate fusion: equal deviations with correlation near 1")
    return sigma_t, sigma_l, denominator


def optimal_weights(sigma_t, sigma_l, rho: float) -> np.ndarray:
    """Variance-minimizing teacher weight for correlated sources, per
    element of the deviation arrays.

    Closed form (sigma_l^2 - rho sigma_t sigma_l) / (sigma_t^2 +
    sigma_l^2 - 2 rho sigma_t sigma_l), clamped to [0, 1].
    """
    sigma_t, sigma_l, denominator = _fusion_terms(sigma_t, sigma_l, rho)
    return np.clip((sigma_l**2 - rho * sigma_t * sigma_l) / denominator, 0.0, 1.0)


def optimal_alpha(sigma_t: float, sigma_l: float, rho: float) -> float:
    """``optimal_weights`` for one pair of deviations, as a float."""
    return float(optimal_weights(sigma_t, sigma_l, rho))


def fused_variance(sigma_t: float, sigma_l: float, rho: float) -> float:
    """Minimum variance achievable by any linear combination of the sources."""
    sigma_t, sigma_l, denominator = _fusion_terms(sigma_t, sigma_l, rho)
    return float(sigma_t**2 * sigma_l**2 * (1.0 - rho**2) / denominator)


def apply_temperature(p, temperature: float):
    """Rescale a probability's logit by 1/T; T = 1 is the identity."""
    if temperature <= 0.0:
        raise ValueError(f"temperature={temperature} must be positive")
    return sigmoid(logit(p) / temperature)


def fit_temperature(confidences, correct, *, tol: float = 1e-4) -> float:
    """Fit the temperature minimizing binary negative log-likelihood.

    One-dimensional golden-section search on T in [0.05, 20]. Requires
    at least 10 samples and both outcomes present (otherwise the NLL is
    unbounded in T).
    """
    p = np.asarray(confidences, dtype=np.float64)
    y = np.asarray(correct, dtype=bool)
    if p.shape != y.shape:
        raise ValueError("confidences and correct must have equal length")
    if p.size < 10:
        raise ValueError(f"need at least 10 samples, got {p.size}")
    if y.all() or (~y).all():
        raise ValueError("need both correct and incorrect outcomes to fit a temperature")
    z = logit(p)

    def nll(temperature: float) -> float:
        scaled = z / temperature
        # -log sigmoid(x) = softplus(-x); stable for extreme logits.
        return float(np.sum(softplus(-scaled[y])) + np.sum(softplus(scaled[~y])))

    lo, hi = 0.05, 20.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > tol:
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        if nll(c) < nll(d):
            hi = d
        else:
            lo = c
    return (lo + hi) / 2.0


def fuse_confidence_logit(
    p_t: float, s_l: float, lambda_t: float, teacher_temperature: float = 1.0, llm_temperature: float = 1.0
) -> float:
    """Logit-space blend of two temperature-scaled confidences, teacher weight ``lambda_t``."""
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError(f"lambda_t={lambda_t} must be in [0, 1]")
    # Calibrated logits stay in logit space: a sharp temperature would
    # saturate sigmoid(logit / T) to exactly 1.0, which logit rejects.
    z_t = logit(p_t) / teacher_temperature
    z_l = logit(s_l) / llm_temperature
    z = lambda_t * z_t + (1.0 - lambda_t) * z_l
    if z != z:
        # A temperature near 0 overflowed a calibrated logit to +-inf, and
        # 0 * inf or inf - inf is NaN: combine the logits clipped to
        # +-_LOGIT_BOUND, which gives the side the larger weight is on.
        z = lambda_t * _finite_logit(z_t) + (1.0 - lambda_t) * _finite_logit(z_l)
    return min(max(sigmoid(z), _FUSED_CONF_CLIP), 1.0 - _FUSED_CONF_CLIP)


def _fuse_pair(
    pred: TeacherPrediction,
    region: LlmRegion,
    config: FusionConfig,
    g: float | None,
    taxonomy: Taxonomy,
) -> FusedLabel:
    """Fuse one matched pair; ``g`` is the gate's teacher weight, or
    None without a gate."""
    if g is not None:
        box = fuse_fixed_box(pred.box, region.box, g)
        lambda_t = g
    elif pred.coordinate_variance is not None:
        var_t = pred.coordinate_variance
        var_l = llm_spatial_variance(region.q_text, region.q_spatial)
        box = fuse_inverse_variance(pred.box, var_t, region.box, var_l)
        # Normalized precisions; a zero-variance teacher takes all weight.
        lambda_t = 1.0 if var_t == 0.0 else var_l / (var_t + var_l)
    else:
        box = fuse_fixed_box(pred.box, region.box, config.teacher_box_weight)
        lambda_t = config.teacher_logit_weight
    confidence = fuse_confidence_logit(
        pred.confidence, region.score, lambda_t, config.teacher_temperature, config.llm_temperature
    )
    category = resolve_category(pred.category, region.category, taxonomy)
    return FusedLabel(box=box, category=category, confidence=confidence, provenance=PROVENANCE_FUSED)


def refine_pseudo_labels(
    page: Page,
    config: FusionConfig = FusionConfig(),
    gate: GateParams | None = None,
    *,
    taxonomy: Taxonomy = DOCLAYNET,
    thresholds=None,
) -> list[FusedLabel]:
    """Run the full refinement pipeline over one page.

    Matched pairs become fused labels; unmatched teacher boxes are kept
    when their confidence clears the per-category threshold (rarity
    defaults: 0.7 frequent, 0.5 rare; pass a flat table for a global
    threshold); unmatched text regions with high scores in the
    configured soft categories enter as smoothed soft labels.
    """
    if thresholds is None:
        thresholds = threshold_table(taxonomy, CurriculumConfig())
    outcome = match_regions(page.teacher, page.llm, config, taxonomy)
    matched_llm = {m.llm_index for m in outcome.matches}
    by_teacher = {m.teacher_index: m for m in outcome.matches}
    # The gate runs once per page, one feature row per matched pair.
    weights: dict[int, float] = {}
    if gate is not None and outcome.matches:
        g = gate_forward_batch(gate, pair_features(page, outcome.matches)).tolist()
        weights = {m.teacher_index: w for m, w in zip(outcome.matches, g)}

    labels: list[FusedLabel] = []
    for ti, pred in enumerate(page.teacher):
        match = by_teacher.get(ti)
        if match is not None:
            labels.append(
                _fuse_pair(pred, page.llm[match.llm_index], config, weights.get(ti), taxonomy)
            )
        elif pred.confidence >= thresholds[pred.category.name]:
            labels.append(
                FusedLabel(
                    box=pred.box,
                    category=pred.category,
                    confidence=pred.confidence,
                    provenance=PROVENANCE_TEACHER,
                )
            )
    for li, region in enumerate(page.llm):
        if li in matched_llm:
            continue
        if region.score >= config.soft_score_min and region.category.name in config.soft_categories:
            labels.append(
                FusedLabel(
                    box=region.box,
                    category=region.category,
                    confidence=region.score,
                    provenance=PROVENANCE_LLM_SOFT,
                    smoothing=config.soft_smoothing,
                )
            )
    return labels


def gate_samples_from_pages(
    pages,
    config: FusionConfig = FusionConfig(),
    taxonomy: Taxonomy = DOCLAYNET,
) -> GateBatch:
    """Gate training samples from annotated pages.

    One sample per matched pair; the target box is the ground-truth
    annotation that best overlaps the teacher box, and the correctness
    flag records whether the text source named that annotation's
    category.
    """
    features, teacher_boxes, llm_boxes, truth_boxes, llm_correct = [], [], [], [], []
    for page in pages:
        if page.ground_truth is None:
            raise ValueError(f"page {page.page_id!r} has no ground truth")
        truth = [annotation.box for annotation in page.ground_truth]
        kept = []
        for match in match_regions(page.teacher, page.llm, config, taxonomy).matches:
            pred = page.teacher[match.teacher_index]
            region = page.llm[match.llm_index]
            pos, _ = best_overlap(pred.box, truth)
            if pos < 0:
                continue
            kept.append(match)
            best = page.ground_truth[pos]
            for rows, box in ((teacher_boxes, pred.box), (llm_boxes, region.box), (truth_boxes, best.box)):
                rows.append((box.x1, box.y1, box.x2, box.y2))
            llm_correct.append(region.category.name == best.category.name)
        features.append(pair_features(page, kept))
    return GateBatch(
        features=np.concatenate(features) if features else np.empty((0, 3)),
        teacher_boxes=np.array(teacher_boxes, dtype=np.float64).reshape(-1, 4),
        llm_boxes=np.array(llm_boxes, dtype=np.float64).reshape(-1, 4),
        truth_boxes=np.array(truth_boxes, dtype=np.float64).reshape(-1, 4),
        llm_correct=np.array(llm_correct, dtype=bool),
    )
