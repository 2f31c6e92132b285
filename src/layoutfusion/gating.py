"""Instance-adaptive fusion gate: a small MLP trained by manual backprop.

The gate maps the 3-D feature triple (teacher confidence, text-region
score, pair IoU) to a weight g in [0, 1], interpreted as the teacher's
share: fused box = g * teacher + (1 - g) * text region, and the fused
confidence uses the same g as its logit weight.

Architecture is fixed: input -> hidden -> hidden -> scalar, tanh hidden
activations, sigmoid output squash. Gradients are computed by hand so
training is dependency-free and bit-reproducible given (seed, config,
samples).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import LlmRegion, TeacherPrediction
from .numerics import sigmoid

__all__ = [
    "GateFeatures",
    "GateParams",
    "GateSample",
    "GateTrainConfig",
    "TrainResult",
    "extract_features",
    "init_gate",
    "gate_forward",
    "gate_forward_batch",
    "train_gate",
    "estimate_lipschitz",
    "save_gate",
    "load_gate",
]

GATE_FORMAT_VERSION = 1
_LOGIT_CLIP = 1e-6


@dataclass(frozen=True)
class GateFeatures:
    """The sufficient statistic driving the gate: confidences plus IoU."""

    teacher_confidence: float
    llm_score: float
    iou: float

    def __post_init__(self) -> None:
        for name in ("teacher_confidence", "llm_score", "iou"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} must be in [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.teacher_confidence, self.llm_score, self.iou], dtype=np.float64)


def extract_features(pred: TeacherPrediction, region: LlmRegion, pair_iou: float) -> GateFeatures:
    """Project a matched pair onto the gate's input triple, verbatim."""
    return GateFeatures(pred.confidence, region.score, pair_iou)


@dataclass
class GateParams:
    """Dense parameters for the fixed two-hidden-layer architecture."""

    w1: np.ndarray  # (hidden, 3)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, hidden)
    b2: np.ndarray  # (hidden,)
    w3: np.ndarray  # (hidden,)
    b3: float

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        self.w3 = np.asarray(self.w3, dtype=np.float64)
        self.b3 = float(self.b3)
        hidden = self.w1.shape[0]
        if self.w1.shape != (hidden, 3):
            raise ValueError(f"w1 must be (hidden, 3), got {self.w1.shape}")
        if self.b1.shape != (hidden,) or self.b2.shape != (hidden,) or self.w3.shape != (hidden,):
            raise ValueError("bias/output vector shapes inconsistent with hidden width")
        if self.w2.shape != (hidden, hidden):
            raise ValueError(f"w2 must be (hidden, hidden), got {self.w2.shape}")
        for arr in (self.w1, self.b1, self.w2, self.b2, self.w3):
            if not np.all(np.isfinite(arr)):
                raise ValueError("gate parameters must be finite")
        if not np.isfinite(self.b3):
            raise ValueError("gate parameters must be finite")

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]

    @property
    def parameter_count(self) -> int:
        return int(self.w1.size + self.b1.size + self.w2.size + self.b2.size + self.w3.size + 1)


@dataclass(frozen=True)
class GateSample:
    """One training instance: features, the three boxes, correctness flags."""

    features: GateFeatures
    teacher_box: np.ndarray
    llm_box: np.ndarray
    truth_box: np.ndarray
    teacher_correct: bool
    llm_correct: bool


@dataclass(frozen=True)
class GateTrainConfig:
    learning_rate: float = 0.3
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class TrainResult:
    params: GateParams
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def init_gate(hidden: int = 64, seed: int = 0) -> GateParams:
    """Symmetry-breaking small uniform weights (fan-scaled), zero biases."""
    rng = np.random.default_rng(seed)

    def layer(fan_in: int, fan_out: int, size) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=size)

    return GateParams(
        w1=layer(3, hidden, (hidden, 3)),
        b1=np.zeros(hidden),
        w2=layer(hidden, hidden, (hidden, hidden)),
        b2=np.zeros(hidden),
        w3=layer(hidden, 1, hidden),
        b3=0.0,
    )


def _forward(params: GateParams, x: np.ndarray):
    z1 = x @ params.w1.T + params.b1
    a1 = np.tanh(z1)
    z2 = a1 @ params.w2.T + params.b2
    a2 = np.tanh(z2)
    z3 = a2 @ params.w3 + params.b3
    g = sigmoid(z3)
    return g, a1, a2


def gate_forward_batch(params: GateParams, features: np.ndarray) -> np.ndarray:
    """Gate outputs for an (n, 3) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 3:
        raise ValueError(f"expected (n, 3) features, got {features.shape}")
    g, _, _ = _forward(params, features)
    return np.asarray(g, dtype=np.float64)


def gate_forward(params: GateParams, features: GateFeatures) -> float:
    """Deterministic gate weight in [0, 1] for one feature triple."""
    return float(gate_forward_batch(params, features.as_array()[None, :])[0])


def _pack(samples):
    x = np.stack([s.features.as_array() for s in samples])
    bt = np.stack([np.asarray(s.teacher_box, dtype=np.float64) for s in samples])
    bl = np.stack([np.asarray(s.llm_box, dtype=np.float64) for s in samples])
    gt = np.stack([np.asarray(s.truth_box, dtype=np.float64) for s in samples])
    # Fused-category correctness under the trust-the-text resolution: on
    # disagreement the text category is emitted, so its flag decides; on
    # agreement both flags coincide anyway.
    y = np.array([s.llm_correct for s in samples], dtype=np.float64)
    clipped = np.clip(x[:, :2], _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    z_t = np.log(clipped[:, 0]) - np.log1p(-clipped[:, 0])
    z_l = np.log(clipped[:, 1]) - np.log1p(-clipped[:, 1])
    return x, bt, bl, gt, y, z_t, z_l


def _batch_loss_and_ggrad(g, bt, bl, gt, y, z_t, z_l, conf_weight: float = 0.1):
    """Loss value plus dLoss/dg for one batch.

    Loss per sample: mean squared coordinate error of the gate-fused box
    against the truth box, plus ``conf_weight`` times binary
    cross-entropy of the gate-fused confidence against fused-category
    correctness.
    """
    fused = g[:, None] * bt + (1.0 - g[:, None]) * bl
    residual = fused - gt
    # np.add.reduce(...) / n is what np.mean computes, minus its dispatch.
    width = residual.shape[1]
    box_loss = np.add.reduce(residual**2, axis=1) / width
    dbox_dg = 2.0 * (np.add.reduce(residual * (bt - bl), axis=1) / width)

    u = g * z_t + (1.0 - g) * z_l
    p_f = sigmoid(u)
    bce = np.logaddexp(0.0, u) - y * u  # softplus(u) - y*u == -[y ln p + (1-y) ln(1-p)]
    dbce_dg = (p_f - y) * (z_t - z_l)

    loss = float(np.add.reduce(box_loss + conf_weight * bce) / g.shape[0])
    dloss_dg = (dbox_dg + conf_weight * dbce_dg) / g.shape[0]
    return loss, dloss_dg


def _sgd_step(params: GateParams, x, dz3, a1, a2, lr: float) -> None:
    grad_w3 = dz3 @ a2
    grad_b3 = float(np.add.reduce(dz3))
    da2 = dz3[:, None] * params.w3
    dz2 = da2 * (1.0 - a2**2)
    grad_w2 = dz2.T @ a1
    grad_b2 = dz2.sum(axis=0)
    da1 = dz2 @ params.w2
    dz1 = da1 * (1.0 - a1**2)
    grad_w1 = dz1.T @ x
    grad_b1 = dz1.sum(axis=0)
    params.w3 -= lr * grad_w3
    params.b3 -= lr * grad_b3
    params.w2 -= lr * grad_w2
    params.b2 -= lr * grad_b2
    params.w1 -= lr * grad_w1
    params.b1 -= lr * grad_b1


def _full_loss(params, x, bt, bl, gt, y, z_t, z_l) -> float:
    g, _, _ = _forward(params, x)
    loss, _ = _batch_loss_and_ggrad(g, bt, bl, gt, y, z_t, z_l)
    return loss


def train_gate(samples, config: GateTrainConfig = GateTrainConfig(), hidden: int = 64) -> TrainResult:
    """Mini-batch SGD on the fusion objective; best-validation params win.

    Deterministic: the RNG (seeded from config) drives the train/val
    split, the initialization, and every epoch's batch order, in that
    order. Raises on fewer than 100 samples or a non-finite loss.
    """
    samples = list(samples)
    if len(samples) < 100:
        raise ValueError(f"need at least 100 samples, got {len(samples)}")
    arrays = _pack(samples)
    n = arrays[0].shape[0]

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * config.validation_fraction)))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    params = init_gate(hidden=hidden, seed=int(rng.integers(2**31 - 1)))

    xv, btv, blv, gtv, yv, ztv, zlv = (a[val_idx] for a in arrays)
    n_train = len(train_idx)
    # Each epoch's training rows in shuffled order, gathered into buffers
    # made once; a batch is a run of consecutive rows.
    shuffled = tuple(np.empty((n_train,) + a.shape[1:], dtype=a.dtype) for a in arrays)

    best_val = np.inf
    best_params = copy.deepcopy(params)
    best_epoch = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        rows = train_idx[rng.permutation(n_train)]
        for source, target in zip(arrays, shuffled):
            # Every row index is in range; "clip" lets take write to out unbuffered.
            np.take(source, rows, axis=0, out=target, mode="clip")
        xs, bts, bls, gts, ys, zts, zls = shuffled
        epoch_losses = []
        for start in range(0, n_train, config.batch_size):
            stop = start + config.batch_size
            xb = xs[start:stop]
            g, a1, a2 = _forward(params, xb)
            loss, dloss_dg = _batch_loss_and_ggrad(
                g, bts[start:stop], bls[start:stop], gts[start:stop], ys[start:stop],
                zts[start:stop], zls[start:stop],
            )
            if not math.isfinite(loss):
                raise ValueError(f"non-finite training loss at epoch {epoch}")
            dz3 = dloss_dg * g * (1.0 - g)
            _sgd_step(params, xb, dz3, a1, a2, config.learning_rate)
            epoch_losses.append(loss)
        train_losses.append(float(np.mean(epoch_losses)))
        val_loss = _full_loss(params, xv, btv, blv, gtv, yv, ztv, zlv)
        if not math.isfinite(val_loss):
            raise ValueError(f"non-finite validation loss at epoch {epoch}")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = copy.deepcopy(params)
            best_epoch = epoch
    return TrainResult(best_params, train_losses, val_losses, best_epoch)


def estimate_lipschitz(params: GateParams, points, max_pairs: int = 10_000_000, seed: int = 0) -> float:
    """Max pairwise difference quotient of the gate over the sample.

    Exhaustive over all pairs up to ``max_pairs``, otherwise a uniform
    seeded subsample of pairs. Pairs closer than 1e-9 are skipped; all
    points identical is an error.
    """
    if isinstance(points, np.ndarray):
        x = np.asarray(points, dtype=np.float64)
    else:
        x = np.stack([p.as_array() if isinstance(p, GateFeatures) else np.asarray(p) for p in points])
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


def save_gate(params: GateParams, path) -> None:
    """Serialize with an explicit architecture header and version field."""
    doc = {
        "format_version": GATE_FORMAT_VERSION,
        "architecture": {
            "input": 3,
            "hidden": [params.hidden_width, params.hidden_width],
            "output": 1,
            "activation": "tanh",
            "output_squash": "sigmoid",
            "gate_semantics": "teacher_weight",
        },
        "parameter_count": params.parameter_count,
        "weights": {
            "w1": params.w1.tolist(),
            "b1": params.b1.tolist(),
            "w2": params.w2.tolist(),
            "b2": params.b2.tolist(),
            "w3": params.w3.tolist(),
            "b3": params.b3,
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def load_gate(path) -> GateParams:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if "format_version" not in doc:
        raise ValueError(f"{path}: missing format_version")
    if doc["format_version"] != GATE_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {doc['format_version']}")
    w = doc["weights"]
    return GateParams(
        w1=np.array(w["w1"], dtype=np.float64),
        b1=np.array(w["b1"], dtype=np.float64),
        w2=np.array(w["w2"], dtype=np.float64),
        b2=np.array(w["b2"], dtype=np.float64),
        w3=np.array(w["w3"], dtype=np.float64),
        b3=float(w["b3"]),
    )
