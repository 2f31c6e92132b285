"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch (plain Python,
no imports from the package's fusion internals) so the main code can be
checked against a second, dumber path.
"""

from __future__ import annotations

import math

import numpy as np


def raster_iou(box_a, box_b, resolution: int = 2000) -> float:
    """Brute-force IoU by rasterizing both boxes on a fine pixel grid."""
    xs = (np.arange(resolution) + 0.5) / resolution
    ys = (np.arange(resolution) + 0.5) / resolution
    gx, gy = np.meshgrid(xs, ys)

    def mask(b):
        return (gx >= b.x1) & (gx <= b.x2) & (gy >= b.y1) & (gy <= b.y2)

    a = mask(box_a)
    b = mask(box_b)
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


def _iou_tuple(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def naive_refine(
    page,
    *,
    tau: float = 0.5,
    box_weight: float = 0.6,
    w_t: float = 0.7,
    t_teacher: float = 1.0,
    t_llm: float = 1.0,
    soft_min: float = 0.6,
    soft_categories=("header", "title", "caption"),
    smoothing: float = 0.2,
    thresholds=None,
    confusable=frozenset(
        {frozenset({"caption", "footer"}), frozenset({"title", "section-header"}), frozenset({"table", "figure"})}
    ),
):
    """Straight-line re-implementation of the refinement loop.

    Returns tuples (x1, y1, x2, y2, category, confidence, provenance,
    smoothing) in emission order. Matching: for each teacher box in list
    order take the best-overlap unconsumed region; fuse iff overlap
    clears tau and the categories are equal or confusable. Unmatched
    teacher boxes survive when above their category threshold; leftover
    regions in the soft set with high scores come in smoothed.
    """
    thresholds = thresholds or {}
    out = []
    consumed = set()
    teacher = [
        (
            (t.box.x1, t.box.y1, t.box.x2, t.box.y2),
            t.category.name,
            t.confidence,
            t.coordinate_variance,
        )
        for t in page.teacher
    ]
    regions = [
        ((r.box.x1, r.box.y1, r.box.x2, r.box.y2), r.category.name, r.score, r.q_text, r.q_spatial)
        for r in page.llm
    ]
    for t_box, t_cat, t_conf, t_var in teacher:
        best_j = -1
        best_overlap = 0.0
        for j, (r_box, _, _, _, _) in enumerate(regions):
            if j in consumed:
                continue
            overlap = _iou_tuple(t_box, r_box)
            if overlap > best_overlap:
                best_overlap = overlap
                best_j = j
        ok = False
        if best_j >= 0 and best_overlap >= tau:
            r_box, r_cat, r_score, r_qt, r_qs = regions[best_j]
            ok = t_cat == r_cat or frozenset({t_cat, r_cat}) in confusable
        if ok:
            consumed.add(best_j)
            if t_var is not None:
                var_l = 1.0 / (r_qt * r_qs)
                if t_var == 0.0:
                    fused = t_box
                    lam = 1.0
                else:
                    p_t_w = 1.0 / t_var
                    p_l_w = 1.0 / var_l
                    fused = tuple(
                        (p_t_w * tc + p_l_w * rc) / (p_t_w + p_l_w) for tc, rc in zip(t_box, r_box)
                    )
                    lam = var_l / (t_var + var_l)
            else:
                fused = tuple(box_weight * tc + (1.0 - box_weight) * rc for tc, rc in zip(t_box, r_box))
                lam = w_t
            p_cal = _sigmoid(_logit(t_conf) / t_teacher)
            s_cal = _sigmoid(_logit(r_score) / t_llm)
            conf = _sigmoid(lam * _logit(p_cal) + (1.0 - lam) * _logit(s_cal))
            cat = t_cat if t_cat == r_cat else r_cat
            out.append((*fused, cat, conf, "fused", 0.0))
        elif t_conf >= thresholds.get(t_cat, 0.7):
            out.append((*t_box, t_cat, t_conf, "teacher", 0.0))
    for j, (r_box, r_cat, r_score, _, _) in enumerate(regions):
        if j in consumed:
            continue
        if r_score >= soft_min and r_cat in soft_categories:
            out.append((*r_box, r_cat, r_score, "llm-soft", smoothing))
    return out


def best_assignment_by_enumeration(teacher_boxes, llm_boxes, tau):
    """All feasible one-use matchings by exhaustive enumeration,
    keeping for each teacher (in order) the best available overlap.

    Mirrors the greedy semantics: walk teachers in order, each taking
    the argmax over regions not yet taken. Returned as a dict
    teacher_index -> llm_index for pairs clearing tau.
    """
    taken = set()
    result = {}
    for ti, t_box in enumerate(teacher_boxes):
        best, best_j = 0.0, -1
        for j, r_box in enumerate(llm_boxes):
            if j in taken:
                continue
            overlap = _iou_tuple(t_box, r_box)
            if overlap > best:
                best, best_j = overlap, j
        if best_j >= 0 and best >= tau:
            result[ti] = best_j
            taken.add(best_j)
    return result


def sign_flip_p_two_sided(differences, n_draws: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo sign-flip permutation p-value for a paired test."""
    d = np.asarray(differences, dtype=np.float64)
    rng = np.random.default_rng(seed)
    observed = abs(d.mean())
    signs = rng.choice([-1.0, 1.0], size=(n_draws, d.size))
    flipped = np.abs((signs * d).mean(axis=1))
    return float((np.count_nonzero(flipped >= observed - 1e-15) + 1) / (n_draws + 1))


def sign_flip_p_one_sided(differences, shift: float, n_draws: int = 100_000, seed: int = 0) -> float:
    """One-sided permutation p for H0: mean <= shift versus greater.

    Centers the differences at the null and counts sign-flip means at
    least as large as observed.
    """
    d = np.asarray(differences, dtype=np.float64) - shift
    rng = np.random.default_rng(seed)
    observed = d.mean()
    signs = rng.choice([-1.0, 1.0], size=(n_draws, d.size))
    flipped = (signs * d).mean(axis=1)
    return float((np.count_nonzero(flipped >= observed - 1e-15) + 1) / (n_draws + 1))


def masked_sigmoid(x):
    """Elementwise sigmoid by boolean masks: exp(-x) where x >= 0, exp(x)
    elsewhere. Frozen copy of the array path ``numerics.sigmoid`` had
    before it became one ``np.where``; a numpy scalar went through it as
    a 0-d array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def loop_interpolated_ap(recall, precision) -> float:
    """101-point interpolated AP by an explicit backward running max and
    one ``searchsorted`` per recall level, summed in grid order. Frozen
    copy of ``metrics._interpolated_ap`` before it was vectorised (but
    returning a float, not a numpy scalar)."""
    if recall.size == 0:
        return 0.0
    best = np.zeros_like(precision)
    running = 0.0
    for i in range(precision.size - 1, -1, -1):
        running = max(running, precision[i])
        best[i] = running
    grid = np.linspace(0.0, 1.0, 101)
    ap = 0.0
    for r in grid:
        idx = np.searchsorted(recall, r, side="left")
        ap += best[idx] if idx < best.size else 0.0
    return float(ap / grid.size)


def frozen_gate_forward(params, x):
    """``gating._forward`` as it was before it wrote into a workspace:
    every step allocates its result, and the output squash is the
    ``np.where`` form of ``numerics.sigmoid``'s array path. Returns the
    gate outputs of the rows of ``x``."""
    z1 = x @ params.w1.T + params.b1
    a1 = np.tanh(z1)
    z2 = a1 @ params.w2.T + params.b2
    a2 = np.tanh(z2)
    z3 = a2 @ params.w3 + params.b3
    e = np.exp(np.minimum(z3, -z3))
    d = 1.0 + e
    return np.where(z3 >= 0, 1.0 / d, e / d)


def reference_train_gate(samples, config, hidden: int = 64):
    """Frozen copy of ``gating.train_gate`` as it was before its batches
    became slices of per-epoch shuffled buffers: fancy-indexed batches,
    ``np.mean``, ``np.outer``, the masked sigmoid, one update per weight
    array and a finiteness check on each batch's loss as it is computed.
    Returns (params, train_losses, val_losses, best_epoch)."""
    import copy

    from layoutfusion.gating import init_gate

    clip = 1e-6
    # The inputs are read from a packed gate batch; the arithmetic below
    # is frozen.
    x, bt, bl, gt = samples.features, samples.teacher_boxes, samples.llm_boxes, samples.truth_boxes
    y = np.array(samples.llm_correct, dtype=np.float64)
    clipped = np.clip(x[:, :2], clip, 1.0 - clip)
    z_t = np.log(clipped[:, 0]) - np.log1p(-clipped[:, 0])
    z_l = np.log(clipped[:, 1]) - np.log1p(-clipped[:, 1])

    def forward(p, xb):
        a1 = np.tanh(xb @ p.w1.T + p.b1)
        a2 = np.tanh(a1 @ p.w2.T + p.b2)
        return masked_sigmoid(a2 @ p.w3 + p.b3), a1, a2

    def loss_and_ggrad(g, bt, bl, gt, y, z_t, z_l, conf_weight=0.1):
        residual = g[:, None] * bt + (1.0 - g[:, None]) * bl - gt
        box_loss = np.mean(residual**2, axis=1)
        dbox_dg = 2.0 * np.mean(residual * (bt - bl), axis=1)
        u = g * z_t + (1.0 - g) * z_l
        bce = np.logaddexp(0.0, u) - y * u
        dbce_dg = (masked_sigmoid(u) - y) * (z_t - z_l)
        loss = float(np.mean(box_loss + conf_weight * bce))
        return loss, (dbox_dg + conf_weight * dbce_dg) / g.shape[0]

    def sgd_step(p, xb, dz3, a1, a2, lr):
        grad_w3 = dz3 @ a2
        grad_b3 = float(np.sum(dz3))
        dz2 = np.outer(dz3, p.w3) * (1.0 - a2**2)
        grad_w2 = dz2.T @ a1
        grad_b2 = dz2.sum(axis=0)
        dz1 = (dz2 @ p.w2) * (1.0 - a1**2)
        grad_w1 = dz1.T @ xb
        grad_b1 = dz1.sum(axis=0)
        p.w3 -= lr * grad_w3
        p.b3 -= lr * grad_b3
        p.w2 -= lr * grad_w2
        p.b2 -= lr * grad_b2
        p.w1 -= lr * grad_w1
        p.b1 -= lr * grad_b1

    n = x.shape[0]
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * config.validation_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    params = init_gate(hidden=hidden, seed=int(rng.integers(2**31 - 1)))
    arrays = (x, bt, bl, gt, y, z_t, z_l)
    val = [a[val_idx] for a in arrays]
    train = [a[train_idx] for a in arrays]
    best_val, best_params, best_epoch = np.inf, copy.deepcopy(params), 0
    train_losses, val_losses = [], []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_idx))
        epoch_losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            xb = train[0][batch]
            g, a1, a2 = forward(params, xb)
            loss, dloss_dg = loss_and_ggrad(g, *(a[batch] for a in train[1:]))
            if not math.isfinite(loss):
                raise ValueError(f"non-finite training loss at epoch {epoch}")
            sgd_step(params, xb, dloss_dg * g * (1.0 - g), a1, a2, config.learning_rate)
            epoch_losses.append(loss)
        train_losses.append(float(np.mean(epoch_losses)))
        g, _, _ = forward(params, val[0])
        val_loss, _ = loss_and_ggrad(g, *val[1:])
        if not math.isfinite(val_loss):
            raise ValueError(f"non-finite validation loss at epoch {epoch}")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val, best_params, best_epoch = val_loss, copy.deepcopy(params), epoch
    return best_params, train_losses, val_losses, best_epoch


def frozen_match_regions(teacher, llm, iou_threshold, taxonomy, iou):
    """``fusion.match_regions`` as it was before it scanned a list of
    still-available regions: every region is visited and skipped when
    its index is in the consumed set. ``iou`` is the IoU function to
    call. Returns (matches as (teacher, region, iou) tuples, unmatched
    teacher indices, unmatched region indices)."""
    matches = []
    consumed = set()
    unmatched_teacher = []
    for ti, pred in enumerate(teacher):
        best_iou = 0.0
        best_idx = -1
        for li, region in enumerate(llm):
            if li in consumed:
                continue
            overlap = iou(pred.box, region.box)
            if overlap > best_iou:
                best_iou = overlap
                best_idx = li
        if (
            best_idx >= 0
            and best_iou >= iou_threshold
            and taxonomy.compatible(pred.category.name, llm[best_idx].category.name)
        ):
            matches.append((ti, best_idx, best_iou))
            consumed.add(best_idx)
        else:
            unmatched_teacher.append(ti)
    unmatched_llm = tuple(i for i in range(len(llm)) if i not in consumed)
    return tuple(matches), tuple(unmatched_teacher), unmatched_llm


def frozen_average_precision(detections, ground_truth, iou_thresholds, iou):
    """``metrics.average_precision`` as it was before it ranked each
    category once: per threshold, a used-flag list per page, a lookup
    of each detection's page and 0/1 ``tp``/``fp`` arrays. ``iou`` is
    the IoU function to call. Returns an ``ApResult``."""
    from layoutfusion.metrics import ApResult, CategoryAp, _interpolated_ap

    gt_by_cat = {}
    for g in ground_truth:
        gt_by_cat.setdefault(g.category, {}).setdefault(g.page_id, []).append(g.box)
    det_by_cat = {}
    for d in detections:
        det_by_cat.setdefault(d.category, []).append(d)

    per_category = {}
    for category, gt_pages in sorted(gt_by_cat.items()):
        npos = sum(len(v) for v in gt_pages.values())
        dets = det_by_cat.get(category, [])
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        by_threshold = {}
        for threshold in iou_thresholds:
            used = {pid: [False] * len(v) for pid, v in gt_pages.items()}
            tp = np.zeros(len(order))
            fp = np.zeros(len(order))
            for rank, di in enumerate(order):
                det = dets[di]
                candidates = gt_pages.get(det.page_id, [])
                best_iou = 0.0
                best_j = -1
                for j, gt_box in enumerate(candidates):
                    if used[det.page_id][j]:
                        continue
                    overlap = iou(det.box, gt_box)
                    if overlap > best_iou:
                        best_iou = overlap
                        best_j = j
                if best_j >= 0 and best_iou >= threshold:
                    tp[rank] = 1.0
                    used[det.page_id][best_j] = True
                else:
                    fp[rank] = 1.0
            tp_cum = np.cumsum(tp)
            fp_cum = np.cumsum(fp)
            recall = tp_cum / npos
            precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
            by_threshold[float(threshold)] = _interpolated_ap(recall, precision)
        per_category[category] = CategoryAp(
            ap=float(np.mean(list(by_threshold.values()))), by_threshold=by_threshold, gt_count=npos
        )

    macro = float(np.mean([c.ap for c in per_category.values()]))
    weights = np.array([c.gt_count for c in per_category.values()], dtype=np.float64)
    weighted = float(np.sum(weights * np.array([c.ap for c in per_category.values()])) / weights.sum())

    def mean_at(threshold):
        return float(np.mean([c.by_threshold[threshold] for c in per_category.values()]))

    return ApResult(
        ap=macro, ap50=mean_at(0.5), ap75=mean_at(0.75), per_category=per_category,
        weighted_ap=weighted,
    )


def frozen_prediction_correctness(pages, source, iou_threshold, iou):
    """``metrics.prediction_correctness`` with its own best-overlap loop,
    as it was before ``geometry.best_overlap``: the first ground-truth
    box of the largest IoU names the category. ``source`` is "teacher"
    or "llm"; ``iou`` is the IoU function to call. Returns the
    confidence and correctness arrays."""
    confidences = []
    correct = []
    for page in pages:
        if source == "teacher":
            records = [(t.box, t.category.name, t.confidence) for t in page.teacher]
        else:
            records = [(r.box, r.category.name, r.score) for r in page.llm]
        for box, name, score in records:
            best_iou = 0.0
            best_cat = None
            for g in page.ground_truth:
                overlap = iou(box, g.box)
                if overlap > best_iou:
                    best_iou = overlap
                    best_cat = g.category.name
            confidences.append(score)
            correct.append(best_iou >= iou_threshold and best_cat == name)
    return np.array(confidences), np.array(correct, dtype=bool)


def frozen_gate_samples(pages, iou_threshold, taxonomy, iou):
    """``fusion.gate_samples_from_pages`` with its own best-overlap loop,
    as it was before ``geometry.best_overlap``, over
    ``frozen_match_regions``. ``iou`` is the IoU function to call.
    Returns the features, teacher, text and truth box rows and the text
    correctness flags as lists."""
    features, teacher_boxes, llm_boxes, truth_boxes, llm_correct = [], [], [], [], []
    for page in pages:
        matches, _, _ = frozen_match_regions(page.teacher, page.llm, iou_threshold, taxonomy, iou)
        for ti, li, match_iou in matches:
            pred = page.teacher[ti]
            region = page.llm[li]
            best_overlap = 0.0
            best = None
            for annotation in page.ground_truth:
                overlap = iou(pred.box, annotation.box)
                if overlap > best_overlap:
                    best_overlap = overlap
                    best = annotation
            if best is None:
                continue
            features.append([pred.confidence, region.score, match_iou])
            for rows, box in ((teacher_boxes, pred.box), (llm_boxes, region.box), (truth_boxes, best.box)):
                rows.append([box.x1, box.y1, box.x2, box.y2])
            llm_correct.append(region.category.name == best.category.name)
    return features, teacher_boxes, llm_boxes, truth_boxes, llm_correct


def array_correlated_offsets(rng, sigma_t: float, sigma_l: float, rho: float):
    """The simulator's correlated box noise as 4-element array arithmetic
    (frozen copy of the form before it moved to plain floats)."""
    z = rng.standard_normal(4)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    shared = np.sqrt(rho)
    private = np.sqrt(1.0 - rho)
    return sigma_t * (shared * z + private * u), sigma_l * (shared * z + private * v)


def array_noisy_box(truth, eps):
    """Truth plus offsets, clipped to [0, 1] with ``np.clip``; None for a
    collapsed box, else the four coordinates as floats."""
    coords = np.clip(np.array([truth.x1, truth.y1, truth.x2, truth.y2]) + eps, 0.0, 1.0)
    if coords[0] < coords[2] and coords[1] < coords[3]:
        return tuple(float(c) for c in coords)
    return None


def _bbox(box) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def page_to_dict(page) -> dict:
    """The JSON object of ``page``'s dataset line, keys in line order: the
    reference the writer's bytes are compared with, as
    ``json.dumps(page_to_dict(page), separators=(",", ":"))``."""
    obj: dict = {"page_id": page.page_id}
    obj["ocr_blocks"] = [
        {"bbox": _bbox(b.box), "text": b.text, "is_bold": b.is_bold} for b in page.ocr_blocks
    ]
    obj["teacher"] = [
        {
            "type": t.category.name,
            "bbox": _bbox(t.box),
            "confidence": t.confidence,
            **({"coord_var": t.coordinate_variance} if t.coordinate_variance is not None else {}),
        }
        for t in page.teacher
    ]
    obj["llm"] = [
        {
            "type": r.category.name,
            "bbox": _bbox(r.box),
            "score": r.score,
            "q_text": r.q_text,
            "q_spatial": r.q_spatial,
        }
        for r in page.llm
    ]
    if page.ground_truth is not None:
        obj["ground_truth"] = [
            {"type": g.category.name, "bbox": _bbox(g.box)} for g in page.ground_truth
        ]
    if page.refined is not None:
        obj["refined"] = [
            {
                "type": f.category.name,
                "bbox": _bbox(f.box),
                "score": f.confidence,
                "provenance": f.provenance,
                "smoothing": f.smoothing,
            }
            for f in page.refined
        ]
    return obj


def page_from_dict(obj, taxonomy=None, stats=None):
    """One page object through ``load_dataset``'s page parser (every kind
    built): each record goes once through the parser of its kind, or
    names its first fault."""
    from layoutfusion import dataset_io
    from layoutfusion.taxonomy import DOCLAYNET

    ingest = dataset_io._Ingest(stats if stats is not None else dataset_io.IngestStats(), taxonomy or DOCLAYNET)
    return dataset_io._page(obj, ingest)


def frozen_page_from_dict(obj, taxonomy, stats):
    """``dataset_io.page_from_dict`` as it was before its fast path:
    a generator over records, an f-string context and ``_require`` per
    record, ``clamp_coordinates`` and keyword construction for every
    box. Frozen copy, helpers inlined as closures."""
    from layoutfusion.dataset_io import DatasetError
    from layoutfusion.geometry import BoundingBox, clamp_coordinates
    from layoutfusion.model import (
        FusedLabel,
        GroundTruthAnnotation,
        LlmRegion,
        OcrBlock,
        Page,
        TeacherPrediction,
    )

    def records(items, field, page_id):
        if not isinstance(items, list):
            raise DatasetError(f"page {page_id!r}: {field} must be a JSON array")
        for i, raw in enumerate(items):
            context = f"{field}[{i}]"
            if not isinstance(raw, dict):
                raise DatasetError(f"page {page_id!r}: {context} must be a JSON object")
            yield context, raw

    def require(obj, key, page_id, context):
        if key not in obj:
            raise DatasetError(f"page {page_id!r}: {context} missing field {key!r}")
        return obj[key]

    def parse_box(raw, page_id, context):
        if not isinstance(raw, (list, tuple)) or len(raw) != 4:
            raise DatasetError(f"page {page_id!r}: {context} bbox must be [x1, y1, x2, y2]")
        try:
            coords, moved = clamp_coordinates(raw)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"page {page_id!r}: {context} bbox not numeric: {exc}") from exc
        if moved:
            for name, value in zip(("x1", "y1", "x2", "y2"), raw):
                value = float(value)
                if not math.isfinite(value):
                    raise DatasetError(f"page {page_id!r}: {context} bbox coordinate {name}={value!r} is not finite")
        stats.clamped_coordinates += moved
        try:
            return BoundingBox.from_array(coords)
        except ValueError as exc:
            raise DatasetError(f"page {page_id!r}: {context} bbox invalid: {exc}") from exc

    def parse_category(raw, page_id, context):
        if not isinstance(raw, str):
            raise DatasetError(f"page {page_id!r}: {context} type must be a string")
        try:
            return taxonomy.category(raw)
        except KeyError as exc:
            raise DatasetError(f"page {page_id!r}: {context} has unknown category {raw!r}") from exc

    if not isinstance(obj, dict):
        raise DatasetError("page record must be a JSON object")
    page_id = obj.get("page_id")
    if not isinstance(page_id, str) or not page_id:
        raise DatasetError("page record missing non-empty 'page_id'")

    ocr_blocks = []
    for context, raw in records(obj.get("ocr_blocks", []), "ocr_blocks", page_id):
        box = parse_box(require(raw, "bbox", page_id, context), page_id, context)
        ocr_blocks.append(OcrBlock(box=box, text=str(raw.get("text", "")), is_bold=bool(raw.get("is_bold", False))))

    teacher = []
    for context, raw in records(obj.get("teacher", []), "teacher", page_id):
        box = parse_box(require(raw, "bbox", page_id, context), page_id, context)
        category = parse_category(require(raw, "type", page_id, context), page_id, context)
        coord_var = raw.get("coord_var")
        try:
            teacher.append(
                TeacherPrediction(
                    box=box,
                    category=category,
                    confidence=float(require(raw, "confidence", page_id, context)),
                    coordinate_variance=None if coord_var is None else float(coord_var),
                )
            )
        except ValueError as exc:
            raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    llm = []
    for context, raw in records(obj.get("llm", []), "llm", page_id):
        box = parse_box(require(raw, "bbox", page_id, context), page_id, context)
        category = parse_category(require(raw, "type", page_id, context), page_id, context)
        try:
            llm.append(
                LlmRegion(
                    box=box,
                    category=category,
                    score=float(require(raw, "score", page_id, context)),
                    q_text=float(raw.get("q_text", 1.0)),
                    q_spatial=float(raw.get("q_spatial", 1.0)),
                )
            )
        except ValueError as exc:
            raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    ground_truth = None
    if obj.get("ground_truth") is not None:
        ground_truth = []
        for context, raw in records(obj["ground_truth"], "ground_truth", page_id):
            box = parse_box(require(raw, "bbox", page_id, context), page_id, context)
            category = parse_category(require(raw, "type", page_id, context), page_id, context)
            ground_truth.append(GroundTruthAnnotation(box=box, category=category))

    refined = None
    if obj.get("refined") is not None:
        refined = []
        for context, raw in records(obj["refined"], "refined", page_id):
            box = parse_box(require(raw, "bbox", page_id, context), page_id, context)
            category = parse_category(require(raw, "type", page_id, context), page_id, context)
            try:
                refined.append(
                    FusedLabel(
                        box=box,
                        category=category,
                        confidence=float(require(raw, "score", page_id, context)),
                        provenance=str(require(raw, "provenance", page_id, context)),
                        smoothing=float(raw.get("smoothing", 0.0)),
                    )
                )
            except ValueError as exc:
                raise DatasetError(f"page {page_id!r}: {context}: {exc}") from exc

    stats.pages += 1
    return Page(
        page_id=page_id,
        ocr_blocks=tuple(ocr_blocks),
        teacher=tuple(teacher),
        llm=tuple(llm),
        ground_truth=None if ground_truth is None else tuple(ground_truth),
        refined=None if refined is None else tuple(refined),
    )


def frozen_find_grid(blocks, config):
    """``heuristics._find_grid`` as it was before its subset scan skipped
    columns present in too few rows: every ``min_shared_columns``-subset
    of column clusters is tried. The clustering itself is the library's."""
    from itertools import combinations

    from layoutfusion.heuristics import _cluster_positions

    if len(blocks) < config.min_aligned_lines * config.min_shared_columns:
        return None
    col_of = _cluster_positions([b.box.x1 for b in blocks], config.alignment_tolerance)
    row_of = _cluster_positions([b.box.y1 for b in blocks], config.alignment_tolerance)
    presence = {}
    for i, key in enumerate(zip(row_of, col_of)):
        presence.setdefault(key, []).append(i)
    columns = sorted(set(col_of))
    rows = sorted(set(row_of))
    if len(columns) < config.min_shared_columns or len(rows) < config.min_aligned_lines:
        return None
    detected = False
    for col_subset in combinations(columns, config.min_shared_columns):
        complete_rows = [r for r in rows if all((r, c) in presence for c in col_subset)]
        if len(complete_rows) >= config.min_aligned_lines:
            detected = True
            break
    if not detected:
        return None
    col_counts = {c: sum(1 for r in rows if (r, c) in presence) for c in columns}
    grid_columns = {c for c, count in col_counts.items() if count >= config.min_aligned_lines}
    grid_rows = {
        r for r in rows if sum(1 for c in grid_columns if (r, c) in presence) >= config.min_shared_columns
    }
    members = []
    for (r, c), idx in presence.items():
        if r in grid_rows and c in grid_columns:
            members.extend(idx)
    return sorted(members)


def frozen_estimate_lipschitz(params, points, max_pairs: int = 10_000_000, seed: int = 0) -> float:
    """Frozen copy of ``gating.estimate_lipschitz`` as it was before one
    pair scorer served both of its branches: the exhaustive loop scored
    one point against all later points, and the sampled branch dropped
    the self-pairs and then scored every sampled pair at once."""
    from layoutfusion.gating import gate_forward_batch

    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    g = gate_forward_batch(params, x)

    best = 0.0
    found_pair = False
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        for i in range(n - 1):
            d = np.linalg.norm(x[i + 1 :] - x[i], axis=1)
            valid = d >= 1e-9
            if not np.any(valid):
                continue
            found_pair = True
            q = np.abs(g[i + 1 :][valid] - g[i]) / d[valid]
            best = max(best, float(q.max()))
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=max_pairs)
        jj = rng.integers(0, n, size=max_pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        d = np.linalg.norm(x[ii] - x[jj], axis=1)
        valid = d >= 1e-9
        if np.any(valid):
            found_pair = True
            q = np.abs(g[ii][valid] - g[jj][valid]) / d[valid]
            best = float(q.max())
    if not found_pair:
        raise ValueError("all sample points identical: slope undefined")
    return best
