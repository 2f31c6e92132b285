"""Synthetic ground truth and noisy two-source predictions.

This is the desk-scale oracle: every noise parameter is known exactly,
so closed-form fusion claims (optimal weights, fused variance, sample
complexity) can be checked against brute force.

Noise model per ground-truth box, coordinate-wise:

    teacher = truth + sigma_t * (sqrt(rho) * z + sqrt(1 - rho) * u)
    text    = truth + sigma_l * (sqrt(rho) * z + sqrt(1 - rho) * v)

with independent standard normals z, u, v shared as shown, giving error
correlation exactly rho. Categories flip to a confusable partner (or a
random other category when none exists) at the configured rate, and
confidences are drawn calibrated (correctness is Bernoulli in the
latent confidence) then optionally miscalibrated by scaling logits with
a temperature, so a temperature fit has a recoverable target.

Pages own independent RNG streams derived from (seed, stream, page), so
generation order does not matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fusion import optimal_weights
from .gating import GateBatch
from .geometry import BoundingBox, paired_iou
from .model import GroundTruthAnnotation, LlmRegion, OcrBlock, Page, TeacherPrediction
from .numerics import sigmoid
from .schema import check_fields
from .taxonomy import TAXONOMIES, Taxonomy

__all__ = [
    "SimConfig",
    "GateTask",
    "GateInstances",
    "generate_pages",
    "simulate_predictions",
    "simulate_dataset",
    "correlated_noise",
    "monte_carlo_fusion_variance",
    "sample_calibration_data",
    "sample_gate_instances",
]

_CONF_CLIP = 1e-7
_BETA_CONCENTRATION = 8.0
_MIN_CELL = 0.02

DEFAULT_CATEGORY_FREQUENCIES: dict[str, float] = {
    "text": 0.30,
    "paragraph": 0.20,
    "section-header": 0.12,
    "list": 0.08,
    "table": 0.07,
    "figure": 0.07,
    "caption": 0.06,
    "title": 0.04,
    "header": 0.03,
    "footer": 0.02,
    "footnote": 0.01,
}


@dataclass(frozen=True)
class SimConfig:
    """Controllable noise model for the synthetic corpus.

    ``sigma_t``/``sigma_l`` may be a single float or a per-category
    mapping. Confusion rates must stay below 0.5 (predictors must not
    be mostly wrong). ``*_temperature`` scales the emitted confidence
    logits; 1.0 emits calibrated confidences.
    """

    pages: int = 100
    regions_min: int = 4
    regions_max: int = 8
    category_frequencies: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CATEGORY_FREQUENCIES)
    )
    sigma_t: float | Mapping[str, float] = 0.010
    sigma_l: float | Mapping[str, float] = 0.015
    rho: float = 0.2
    teacher_confusion: float = 0.18
    llm_confusion: float = 0.06
    teacher_temperature: float = 1.0
    llm_temperature: float = 1.0
    emit_coordinate_variance: bool = False
    emit_ocr_stubs: bool = False
    taxonomy: str = "doclaynet"
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.pages < 0:
            raise ValueError("pages must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if not 1 <= self.regions_min <= self.regions_max:
            raise ValueError("need 1 <= regions_min <= regions_max")
        if self.taxonomy not in TAXONOMIES:
            raise ValueError(f"unknown taxonomy {self.taxonomy!r}")
        total = sum(self.category_frequencies.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"category frequencies sum to {total}, expected 1")
        tax = TAXONOMIES[self.taxonomy]
        for name in self.category_frequencies:
            if name not in tax:
                raise ValueError(f"frequency for unknown category {name!r}")
        if not 0.0 <= self.rho <= 0.99:
            raise ValueError(f"rho={self.rho} must be in [0, 0.99]")
        for name in ("teacher_confusion", "llm_confusion"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ValueError(f"{name}={value} must be in [0, 0.5)")
        for name in ("teacher_temperature", "llm_temperature"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("sigma_t", "sigma_l"):
            sigma = getattr(self, name)
            values = sigma.values() if isinstance(sigma, Mapping) else [sigma]
            if any(v < 0.0 for v in values):
                raise ValueError(f"{name} must be nonnegative")
            if isinstance(sigma, Mapping):
                missing = [c for c, f in self.category_frequencies.items() if f > 0.0 and c not in sigma]
                if missing:
                    raise ValueError(f"{name} has no deviation for drawn categories: {', '.join(missing)}")

    def sigma_for(self, which: str, category: str) -> float:
        sigma = self.sigma_t if which == "teacher" else self.sigma_l
        if isinstance(sigma, Mapping):
            return float(sigma[category])
        return float(sigma)


def _page_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _place_boxes(rng: np.random.Generator, count: int) -> list[BoundingBox]:
    grid = int(np.ceil(np.sqrt(count)))
    cell = 1.0 / grid
    if cell < _MIN_CELL:
        raise ValueError(f"region count {count} infeasible for the placement grid")
    cells = rng.choice(grid * grid, size=count, replace=False)
    boxes = []
    margin = 0.05 * cell
    avail = cell - 2.0 * margin
    # lo + (hi - lo) * u is how numpy draws uniform(lo, hi), and one
    # random(4 * count) takes the stream of 4 * count scalar draws: per
    # box the x extent, the x offset, the y extent and the y offset.
    uniforms = iter(rng.random(4 * count).tolist())
    for flat in cells.tolist():
        row, col = divmod(flat, grid)
        spans = []
        for base in (col, row):
            lo = base * cell + margin
            extent = (0.5 + (0.95 - 0.5) * next(uniforms)) * avail
            offset = (avail - extent) * next(uniforms)  # uniform(0.0, avail - extent)
            spans.append((lo + offset, lo + offset + extent))
        (x1, x2), (y1, y2) = spans
        boxes.append(BoundingBox(x1, y1, x2, y2))
    return boxes


def generate_pages(config: SimConfig) -> list[Page]:
    """Ground-truth pages: non-overlapping boxes on a jittered grid."""
    taxonomy = TAXONOMIES[config.taxonomy]
    names = sorted(config.category_frequencies)
    freqs = np.array([config.category_frequencies[n] for n in names])
    freqs = freqs / freqs.sum()
    # rng.choice(len(names), size=count, p=freqs) is this cdf searched
    # with count uniforms: the same stream and the same indices, with
    # the cdf built once.
    cdf = freqs.cumsum()
    cdf /= cdf[-1]
    pages = []
    for index in range(config.pages):
        rng = _page_rng(config.seed, 0, index)
        count = int(rng.integers(config.regions_min, config.regions_max + 1))
        boxes = _place_boxes(rng, count)
        categories = cdf.searchsorted(rng.random(count), side="right").tolist()
        annotations = tuple(
            GroundTruthAnnotation(box=b, category=taxonomy.category(names[c]))
            for b, c in zip(boxes, categories)
        )
        pages.append(Page(page_id=f"page-{index:05d}", ground_truth=annotations))
    return pages


def correlated_noise(rng: np.random.Generator, shape: tuple[int, ...], rho: float):
    """Unit-deviation teacher and text noise of the given shape with error
    correlation ``rho``: sqrt(rho) * z + sqrt(1 - rho) * u and
    sqrt(rho) * z + sqrt(1 - rho) * v.

    z, u and v are one ``standard_normal((3, *shape))`` draw, which takes
    the same stream as three draws of ``shape`` in that order. The
    simulator's per-box ``_correlated_offsets`` keeps its own plain-float
    form of the same arithmetic: on a 4-vector this helper costs 12 us
    per box against 4.5 us (Xeon VM, Python 3.11, numpy 2.4), about
    20 ms more per 500-page corpus.
    """
    z, u, v = rng.standard_normal((3, *shape))
    shared = np.sqrt(rho)
    private = np.sqrt(1.0 - rho)
    return shared * z + private * u, shared * z + private * v


def _correlated_offsets(rng: np.random.Generator, sigma_t: float, sigma_l: float, rho: float):
    """Four teacher and four text offsets, as lists of floats.

    The draws are the three ``standard_normal(4)`` vectors z, u, v, taken
    as one draw of 12 (the same stream); the arithmetic is
    ``correlated_noise``'s, one coordinate at a time.
    """
    normals = rng.standard_normal(12).tolist()
    z, u, v = normals[:4], normals[4:8], normals[8:]
    shared = math.sqrt(rho)
    private = math.sqrt(1.0 - rho)
    eps_t = [sigma_t * (shared * zi + private * ui) for zi, ui in zip(z, u)]
    eps_l = [sigma_l * (shared * zi + private * vi) for zi, vi in zip(z, v)]
    return eps_t, eps_l


def _clip_unit(c: float) -> float:
    """``np.clip(c, 0.0, 1.0)`` for one float, NaN passing through."""
    return 0.0 if c < 0.0 else (1.0 if c > 1.0 else c)


def _noisy_box(truth: BoundingBox, eps) -> BoundingBox | None:
    e1, e2, e3, e4 = eps
    x1 = _clip_unit(truth.x1 + e1)
    y1 = _clip_unit(truth.y1 + e2)
    x2 = _clip_unit(truth.x2 + e3)
    y2 = _clip_unit(truth.y2 + e4)
    if x1 < x2 and y1 < y2:
        return BoundingBox(x1, y1, x2, y2)
    return None


def _draw_confidence(rng: np.random.Generator, confusion: float):
    """Calibrated latent confidence and its correctness draw.

    The latent confidence has mean 1 - confusion and correctness is
    Bernoulli in it, so emitted confidences (``_emit_confidences`` of
    the latents, after the page's draws) are exactly calibrated before
    the temperature distortion. A zero confusion rate means the stream
    never errs: correctness is forced, not drawn, and the latent stays
    high.
    """
    if confusion == 0.0:
        return min(max(rng.beta(_BETA_CONCENTRATION, 0.05), 0.5), 1.0 - _CONF_CLIP), True
    draw = rng.beta(_BETA_CONCENTRATION * (1.0 - confusion), _BETA_CONCENTRATION * confusion)
    latent = min(max(draw, _CONF_CLIP), 1.0 - _CONF_CLIP)
    return latent, bool(rng.random() < latent)


def _emit_confidences(latents: list[float], temperature: float) -> list[float]:
    """The emitted confidence of each latent: its logit scaled by
    ``temperature``, mapped back and clipped, in one array pass that
    draws nothing.

    numpy's log/log1p, not math's: the two libraries' kernels round
    differently on some inputs, and every emitted confidence is pinned
    by the simulated corpora's bytes. On an AVX512F Xeon (numpy 2.4.6)
    math.log differed on 0.35% of uniform draws, math.log1p(-x) on 4.6%
    of beta-drawn latents and math.exp on 4.5% of their logits. numpy's
    kernels give an array element the bits they give that scalar.
    """
    latent = np.array(latents, dtype=np.float64)
    z = np.log(latent) - np.log1p(-latent)
    return np.clip(sigmoid(temperature * z), _CONF_CLIP, 1.0 - _CONF_CLIP).tolist()


def _flip_category(rng: np.random.Generator, name: str, taxonomy: Taxonomy) -> str:
    partner = taxonomy.confusable_partner(name)
    if partner is not None:
        return partner
    others = [c for c in taxonomy.names if c != name]
    # rng.choice(n) draws integers(0, n): the same stream and index.
    return others[rng.integers(0, len(others))]


def _quarter_points(start: float, stop: float) -> list[float]:
    """``np.linspace(start, stop, 4)`` as plain floats: numpy's own
    ``i * step + start`` with the endpoint set to ``stop``."""
    step = (stop - start) / 3
    return [0 * step + start, 1 * step + start, 2 * step + start, stop]


def _ocr_stub_blocks(rng: np.random.Generator, annotation: GroundTruthAnnotation) -> list[OcrBlock]:
    box = annotation.box
    name = annotation.category.name
    if name == "caption":
        return [OcrBlock(box=box, text="Figure 1: synthetic caption", is_bold=False)]
    if name == "header":
        return [OcrBlock(box=box, text="Synthetic Header", is_bold=True)]
    if name == "footer":
        return [OcrBlock(box=box, text="page 3", is_bold=False)]
    if name == "table":
        blocks = []
        xs = _quarter_points(box.x1, box.x2)
        ys = _quarter_points(box.y1, box.y2)
        # One draw of nine takes the stream of nine scalar draws.
        texts = iter(rng.integers(0, 100, size=9).tolist())
        for r in range(3):
            for c in range(3):
                cell = BoundingBox(
                    xs[c], ys[r], xs[c] + 0.8 * (xs[1] - xs[0]), ys[r] + 0.8 * (ys[1] - ys[0])
                )
                blocks.append(OcrBlock(box=cell, text=str(next(texts)), is_bold=False))
        return blocks
    return [OcrBlock(box=box, text="body text", is_bold=False)]


def simulate_predictions(pages: list[Page], config: SimConfig) -> list[Page]:
    """Attach noisy teacher and text streams to ground-truth pages.

    Each page's draws come from its own stream, in ground-truth order;
    the emitted confidences are computed after them, one array pass per
    stream.
    """
    taxonomy = TAXONOMIES[config.taxonomy]
    # (sigma_t, sigma_l) per category, resolved on first use: a
    # per-category mapping need only cover the categories that occur.
    sigmas: dict[str, tuple[float, float]] = {}
    out = []
    for index, page in enumerate(pages):
        if page.ground_truth is None:
            raise ValueError(f"page {page.page_id!r} has no ground truth")
        rng = _page_rng(config.seed, 1, index)
        teacher = []
        llm = []
        latents_t = []
        latents_l = []
        ocr: list[OcrBlock] = []
        for annotation in page.ground_truth:
            name = annotation.category.name
            pair = sigmas.get(name)
            if pair is None:
                pair = sigmas[name] = (config.sigma_for("teacher", name), config.sigma_for("llm", name))
            sigma_t, sigma_l = pair
            for _ in range(100):
                eps_t, eps_l = _correlated_offsets(rng, sigma_t, sigma_l, config.rho)
                box_t = _noisy_box(annotation.box, eps_t)
                box_l = _noisy_box(annotation.box, eps_l)
                if box_t is not None and box_l is not None:
                    break
            else:
                raise ValueError("noise repeatedly collapsed a box; lower sigma")

            latent_t, correct_t = _draw_confidence(rng, config.teacher_confusion)
            cat_t = name if correct_t else _flip_category(rng, name, taxonomy)
            latents_t.append(latent_t)
            variance = sigma_t**2 if config.emit_coordinate_variance else None
            teacher.append((box_t, taxonomy.category(cat_t), variance))

            latent_l, correct_l = _draw_confidence(rng, config.llm_confusion)
            cat_l = name if correct_l else _flip_category(rng, name, taxonomy)
            latents_l.append(latent_l)
            u_text, u_spatial = rng.random(2).tolist()
            q_text = 0.6 + (0.95 - 0.6) * u_text
            q_spatial = 0.6 + (0.95 - 0.6) * u_spatial
            llm.append((box_l, taxonomy.category(cat_l), q_text, q_spatial))
            if config.emit_ocr_stubs:
                ocr.extend(_ocr_stub_blocks(rng, annotation))
        confs_t = _emit_confidences(latents_t, config.teacher_temperature)
        scores_l = _emit_confidences(latents_l, config.llm_temperature)
        out.append(
            Page(
                page_id=page.page_id,
                ocr_blocks=tuple(ocr),
                teacher=tuple(
                    TeacherPrediction(box=box, category=category, confidence=conf, coordinate_variance=var)
                    for (box, category, var), conf in zip(teacher, confs_t)
                ),
                llm=tuple(
                    LlmRegion(box=box, category=category, score=score, q_text=q_text, q_spatial=q_spatial)
                    for (box, category, q_text, q_spatial), score in zip(llm, scores_l)
                ),
                ground_truth=page.ground_truth,
            )
        )
    return out


def simulate_dataset(config: SimConfig) -> list[Page]:
    return simulate_predictions(generate_pages(config), config)


def monte_carlo_fusion_variance(
    sigma_t: float, sigma_l: float, rho: float, alpha: float, samples: int, seed: int = 0
) -> float:
    """Empirical variance of the alpha-fused scalar under correlated noise."""
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a stable estimate")
    unit_t, unit_l = correlated_noise(np.random.default_rng(seed), (samples,), rho)
    fused = alpha * (sigma_t * unit_t) + (1.0 - alpha) * (sigma_l * unit_l)
    return float(np.var(fused))


def sample_calibration_data(
    n: int, temperature: float = 1.0, seed: int = 0, logit_scale: float = 1.2
):
    """Confidence/correctness pairs, calibrated before logit scaling.

    Correctness is Bernoulli in the latent probability; the emitted
    confidence has its logit multiplied by ``temperature``, which is
    exactly the value a temperature fit should recover.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, logit_scale, size=n)
    latent = sigmoid(z)
    correct = rng.random(n) < latent
    emitted = np.clip(sigmoid(temperature * z), _CONF_CLIP, 1.0 - _CONF_CLIP)
    return emitted, correct


@dataclass(frozen=True)
class GateTask:
    """Recipe for sampling abstract fusion-gate instances.

    Default mode draws the text/teacher deviation ratio log-uniformly
    and encodes it in both confidence channels as the uncorrelated
    optimal weight (so the optimal weight is an exact smooth function of
    the features). A ``mixture`` of (weight, sigma_t, sigma_l)
    components overrides the ratio draw, with confidences drawn
    uninformatively from the configured ranges.
    """

    sigma_scale: float = 0.05
    ratio_lo: float = 0.25
    ratio_hi: float = 4.0
    rho: float = 0.0
    mixture: tuple[tuple[float, float, float], ...] | None = None
    p_t_range: tuple[float, float] = (0.55, 0.9)
    s_l_range: tuple[float, float] = (0.55, 0.9)
    synthetic_iou: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.sigma_scale < math.inf:
            raise ValueError(f"sigma_scale={self.sigma_scale} must be finite and > 0")
        if not 0.0 <= self.rho <= 0.99:
            raise ValueError(f"rho={self.rho} must be in [0, 0.99]")
        if self.mixture is None and not 0.0 < self.ratio_lo <= self.ratio_hi:
            raise ValueError("need 0 < ratio_lo <= ratio_hi")
        if self.mixture is not None:
            if not self.mixture or any(w <= 0 or st <= 0 or sl <= 0 for w, st, sl in self.mixture):
                raise ValueError("mixture components need positive weight and deviations")
            try:  # the weights are finite, so only an overflowing sum fails
                math.fsum(w for w, _, _ in self.mixture)
            except OverflowError:
                raise ValueError("mixture weights must have a finite sum: they are normalized by it") from None
        for name in ("p_t_range", "s_l_range", "synthetic_iou"):
            pair = getattr(self, name)
            if pair is not None and not 0.0 <= pair[0] <= pair[1] <= 1.0:
                raise ValueError(f"{name}={pair} must be (lo, hi) with 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class GateInstances(GateBatch):
    """Gate instances with their true noise parameters."""

    sigma_t: np.ndarray  # (n,)
    sigma_l: np.ndarray  # (n,)
    rho: float
    teacher_correct: np.ndarray  # (n,) bool


def _sample_truth_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    cx = rng.uniform(0.3, 0.7, size=n)
    cy = rng.uniform(0.3, 0.7, size=n)
    hx = rng.uniform(0.05, 0.2, size=n)
    hy = rng.uniform(0.05, 0.2, size=n)
    return np.stack([cx - hx, cy - hy, cx + hx, cy + hy], axis=1)


def sample_gate_instances(task: GateTask, n: int, seed: int = 0) -> GateInstances:
    """Draw abstract matched-pair instances from a gate task.

    The instances carry no category draw: ``teacher_correct`` and
    ``llm_correct`` are all True, so ``theory.disagreement_indicator`` is
    0 on every instance and the complementarity factors, and with them
    the ``theory`` experiment's ``boundary_fraction``, reflect only the
    deviation spread.
    """
    rng = np.random.default_rng(seed)
    if task.mixture is not None:
        weights = np.array([c[0] for c in task.mixture])
        weights = weights / weights.sum()
        idx = rng.choice(len(task.mixture), size=n, p=weights)
        sigma_t = np.array([task.mixture[i][1] for i in idx])
        sigma_l = np.array([task.mixture[i][2] for i in idx])
    else:
        log_ratio = rng.uniform(np.log(task.ratio_lo), np.log(task.ratio_hi), size=n)
        ratio = np.exp(log_ratio)
        sigma_t = task.sigma_scale / np.sqrt(ratio)
        sigma_l = task.sigma_scale * np.sqrt(ratio)

    truth = _sample_truth_boxes(rng, n)
    unit_t, unit_l = correlated_noise(rng, (n, 4), task.rho)
    teacher = np.clip(truth + sigma_t[:, None] * unit_t, 0.0, 1.0)
    llm = np.clip(truth + sigma_l[:, None] * unit_l, 0.0, 1.0)
    # Repair the rare collapse instead of resampling: order the corners.
    # A far corner clipped to 0 still collapses once the near corner is
    # floored at 0, so only those entries get their far corner raised.
    for boxes in (teacher, llm):
        lo = np.minimum(boxes[:, :2], boxes[:, 2:] - 1e-4)
        boxes[:, :2] = np.clip(lo, 0.0, 1.0 - 1e-4)
        collapsed = boxes[:, 2:] <= boxes[:, :2]
        boxes[:, 2:][collapsed] = boxes[:, :2][collapsed] + 1e-4

    if task.mixture is not None:
        p_t = rng.uniform(*task.p_t_range, size=n)
        s_l = rng.uniform(*task.s_l_range, size=n)
    else:
        p_t = np.clip(optimal_weights(sigma_t, sigma_l, 0.0), 1e-3, 1.0 - 1e-3)
        s_l = p_t.copy()

    if task.synthetic_iou is not None:
        pair_iou = rng.uniform(*task.synthetic_iou, size=n)
    else:
        pair_iou = paired_iou(teacher, llm)
    features = np.stack([p_t, s_l, np.clip(pair_iou, 0.0, 1.0)], axis=1)
    flags = np.ones(n, dtype=bool)
    return GateInstances(
        features=features,
        teacher_boxes=teacher,
        llm_boxes=llm,
        truth_boxes=truth,
        sigma_t=sigma_t,
        sigma_l=sigma_l,
        rho=task.rho,
        teacher_correct=flags,
        llm_correct=flags.copy(),
    )
