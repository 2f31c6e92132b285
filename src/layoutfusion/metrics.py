"""Evaluation statistics: detection AP, calibration error, paired tests.

The Student-t tail probability is computed from the regularized
incomplete beta function via its continued-fraction expansion, accurate
to ~1e-10, so the statistics carry no external dependency. Zero-variance
edge cases follow explicit conventions (documented on each function)
instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, best_overlap
from .model import Page
from .schema import record

__all__ = [
    "Detection",
    "GroundTruthBox",
    "CategoryAp",
    "ApResult",
    "EceBin",
    "EceResult",
    "TTestResult",
    "TostResult",
    "COCO_IOU_THRESHOLDS",
    "average_precision",
    "evaluate_pages",
    "detections_from_pages",
    "ground_truth_from_pages",
    "prediction_correctness",
    "ece",
    "paired_t_test",
    "tost",
    "student_t_sf",
    "regularized_incomplete_beta",
    "significance_stars",
]

COCO_IOU_THRESHOLDS: tuple[float, ...] = tuple(np.round(np.linspace(0.5, 0.95, 10), 2))
_RECALL_GRID = np.linspace(0.0, 1.0, 101)


@record
class Detection:
    page_id: str
    category: str
    score: float
    box: BoundingBox


@record
class GroundTruthBox:
    page_id: str
    category: str
    box: BoundingBox


@dataclass(frozen=True)
class CategoryAp:
    ap: float
    by_threshold: dict[float, float]
    gt_count: int


@dataclass(frozen=True)
class ApResult:
    """COCO-style AP summary.

    ``ap`` is the macro mean over categories of the per-category mean
    over IoU thresholds; ``weighted_ap`` weights categories by their
    ground-truth counts. Categories without ground truth are excluded.
    """

    ap: float
    ap50: float
    ap75: float
    per_category: dict[str, CategoryAp]
    weighted_ap: float


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """101-point interpolation: mean over the recall grid of the best
    precision achieved at or beyond each recall level."""
    if recall.size == 0:
        return 0.0
    best = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_GRID, side="left")
    # Grid points beyond the last recall add 0. add.accumulate sums
    # strictly left to right; np.sum would sum pairwise.
    reached = best[idx[idx < best.size]]
    ap = float(np.add.accumulate(reached)[-1]) if reached.size else 0.0
    return ap / _RECALL_GRID.size


def average_precision(
    detections: list[Detection],
    ground_truth: list[GroundTruthBox],
    iou_thresholds: tuple[float, ...] = COCO_IOU_THRESHOLDS,
) -> ApResult:
    """Greedy confidence-ordered matching, per category and threshold.

    ``iou_thresholds`` must include 0.5 and 0.75, the thresholds of
    ``ap50`` and ``ap75``.
    """
    if not ground_truth:
        raise ValueError("no ground truth boxes to evaluate against")
    missing = {0.5, 0.75}.difference(float(t) for t in iou_thresholds)
    if missing:
        raise ValueError(f"iou_thresholds must include 0.5 and 0.75, missing {sorted(missing)}")
    gt_by_cat: dict[str, dict[str, list[BoundingBox]]] = {}
    for g in ground_truth:
        gt_by_cat.setdefault(g.category, {}).setdefault(g.page_id, []).append(g.box)

    det_by_cat: dict[str, list[Detection]] = {}
    for d in detections:
        det_by_cat.setdefault(d.category, []).append(d)

    per_category: dict[str, CategoryAp] = {}
    for category, gt_pages in sorted(gt_by_cat.items()):
        npos = sum(len(v) for v in gt_pages.values())
        dets = det_by_cat.get(category, [])
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        # Ranked once: each detection's box and the slot of its page's
        # ground truth; the last slot (empty) serves pages without any.
        page_boxes = list(gt_pages.values()) + [[]]
        slot = {pid: k for k, pid in enumerate(gt_pages)}
        ranked = [(dets[i].box, slot.get(dets[i].page_id, len(gt_pages))) for i in order]
        by_threshold: dict[float, float] = {}
        for threshold in iou_thresholds:
            # Each page's still-unclaimed boxes, in index order.
            available = [list(boxes) for boxes in page_boxes]
            hits: list[bool] = []
            for box, k in ranked:
                candidates = available[k]
                j, overlap = best_overlap(box, candidates)
                hit = j >= 0 and overlap >= threshold
                if hit:
                    del candidates[j]
                hits.append(hit)
            tp = np.array(hits, dtype=np.float64)
            tp_cum = np.cumsum(tp)
            fp_cum = np.cumsum(1.0 - tp)
            recall = tp_cum / npos
            precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
            by_threshold[float(threshold)] = _interpolated_ap(recall, precision)
        per_category[category] = CategoryAp(
            ap=float(np.mean(list(by_threshold.values()))),
            by_threshold=by_threshold,
            gt_count=npos,
        )

    macro = float(np.mean([c.ap for c in per_category.values()]))
    weights = np.array([c.gt_count for c in per_category.values()], dtype=np.float64)
    weighted = float(
        np.sum(weights * np.array([c.ap for c in per_category.values()])) / weights.sum()
    )

    def _mean_at(threshold: float) -> float:
        return float(np.mean([c.by_threshold[threshold] for c in per_category.values()]))

    return ApResult(
        ap=macro,
        ap50=_mean_at(0.5),
        ap75=_mean_at(0.75),
        per_category=per_category,
        weighted_ap=weighted,
    )


def detections_from_pages(pages: list[Page], source: str = "refined") -> list[Detection]:
    """Flatten one prediction stream into scored detections."""
    out: list[Detection] = []
    for page in pages:
        if source == "refined":
            if page.refined is None:
                raise ValueError(f"page {page.page_id!r} has no refined labels")
            for f in page.refined:
                out.append(Detection(page.page_id, f.category.name, f.confidence, f.box))
        elif source == "teacher":
            for t in page.teacher:
                out.append(Detection(page.page_id, t.category.name, t.confidence, t.box))
        elif source == "llm":
            for r in page.llm:
                out.append(Detection(page.page_id, r.category.name, r.score, r.box))
        else:
            raise ValueError(f"unknown source {source!r}")
    return out


def ground_truth_from_pages(pages: list[Page]) -> list[GroundTruthBox]:
    out: list[GroundTruthBox] = []
    for page in pages:
        if page.ground_truth is None:
            raise ValueError(f"page {page.page_id!r} has no ground truth")
        for g in page.ground_truth:
            out.append(GroundTruthBox(page.page_id, g.category.name, g.box))
    return out


def evaluate_pages(pages: list[Page], source: str = "refined") -> ApResult:
    return average_precision(detections_from_pages(pages, source), ground_truth_from_pages(pages))


def prediction_correctness(pages: list[Page], source: str = "teacher", iou_threshold: float = 0.5):
    """Confidence/correctness pairs for calibration work.

    A prediction counts as correct when its best-overlap ground-truth
    box clears the IoU threshold and carries the same category.
    """
    confidences: list[float] = []
    correct: list[bool] = []
    for page in pages:
        if page.ground_truth is None:
            raise ValueError(f"page {page.page_id!r} has no ground truth")
        truth = [g.box for g in page.ground_truth]
        for det in detections_from_pages([page], source):
            pos, overlap = best_overlap(det.box, truth)
            confidences.append(det.score)
            correct.append(
                pos >= 0 and overlap >= iou_threshold and page.ground_truth[pos].category.name == det.category
            )
    return np.array(confidences), np.array(correct, dtype=bool)


@dataclass(frozen=True)
class EceBin:
    lower: float
    upper: float
    count: int
    mean_confidence: float | None
    accuracy: float | None


@dataclass(frozen=True)
class EceResult:
    ece: float
    bins: tuple[EceBin, ...]


def ece(confidences, correct, bins: int = 15) -> EceResult:
    """Expected calibration error over equal-width confidence bins."""
    p = np.asarray(confidences, dtype=np.float64)
    y = np.asarray(correct, dtype=bool)
    if p.size == 0:
        raise ValueError("need at least one sample")
    if p.shape != y.shape:
        raise ValueError("confidences and correct must have equal length")
    if bins < 1:
        raise ValueError("need at least one bin")
    idx = np.minimum((p * bins).astype(int), bins - 1)
    total = 0.0
    rows: list[EceBin] = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        lower, upper = b / bins, (b + 1) / bins
        if count == 0:
            rows.append(EceBin(lower, upper, 0, None, None))
            continue
        conf = float(p[mask].mean())
        acc = float(y[mask].mean())
        total += (count / p.size) * abs(acc - conf)
        rows.append(EceBin(lower, upper, count, conf, acc))
    return EceResult(ece=total, bins=tuple(rows))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iterations = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """P(T_df > t), the upper tail of Student's t."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    two_sided = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return two_sided / 2.0 if t >= 0 else 1.0 - two_sided / 2.0


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float


def _paired_differences(a, b) -> tuple[int, float, float]:
    """Count, mean and sample standard deviation of the paired
    differences ``a - b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    if a.size < 2:
        raise ValueError("need at least 2 pairs")
    # Overflow is reported below, as a ValueError, not as a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        mean, sd = float(d.mean()), float(d.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("the paired differences' mean or standard deviation is not finite")
    return a.size, mean, sd


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test.

    Conventions: all-zero differences give t=0, p=1; nonzero differences
    with zero variance give p=0 (an infinite t).
    """
    n, mean, sd = _paired_differences(a, b)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p=2.0 * student_t_sf(abs(t), n - 1))


@dataclass(frozen=True)
class TostResult:
    p_lower: float
    p_upper: float
    equivalent: bool
    margin: float
    mean_difference: float


def tost(a, b, delta: float, alpha: float = 0.05) -> TostResult:
    """Two one-sided paired t-tests against the margins -delta, +delta.

    Equivalent iff both one-sided nulls are rejected, i.e.
    max(p_lower, p_upper) < alpha. Zero-variance convention: the point
    mass decides each side outright (p = 0 when the mean is strictly
    inside that margin, 1 otherwise).
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta={delta} must be finite and > 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} must be in (0, 1)")
    n, mean, sd = _paired_differences(a, b)
    if sd == 0.0:
        p_lower = 0.0 if mean > -delta else 1.0
        p_upper = 0.0 if mean < delta else 1.0
    else:
        se = sd / math.sqrt(n)
        t_lower = (mean + delta) / se
        t_upper = (mean - delta) / se
        p_lower = student_t_sf(t_lower, n - 1)
        p_upper = 1.0 - student_t_sf(t_upper, n - 1)
    return TostResult(
        p_lower=p_lower,
        p_upper=p_upper,
        equivalent=max(p_lower, p_upper) < alpha,
        margin=delta,
        mean_difference=mean,
    )


def significance_stars(p: float) -> str:
    """Conventional star notation: *, **, *** at 0.05, 0.01, 0.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
