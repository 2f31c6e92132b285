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

from .numerics import sigmoid

__all__ = [
    "GateBatch",
    "GateFeatures",
    "GateParams",
    "GateTrainConfig",
    "TrainResult",
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
_CONF_WEIGHT = 0.1  # weight of the confidence BCE in the gate loss


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
class GateBatch:
    """Gate training data, one row per matched pair: the feature triple,
    the teacher, text and truth boxes, and whether the text source named
    the truth's category. Checked once, here; an error names the first
    bad row."""

    features: np.ndarray  # (n, 3)
    teacher_boxes: np.ndarray  # (n, 4)
    llm_boxes: np.ndarray  # (n, 4)
    truth_boxes: np.ndarray  # (n, 4)
    llm_correct: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        n = len(self.features)
        for name, shape, dtype in (
            ("features", (n, 3), np.float64),
            ("teacher_boxes", (n, 4), np.float64),
            ("llm_boxes", (n, 4), np.float64),
            ("truth_boxes", (n, 4), np.float64),
            ("llm_correct", (n,), np.bool_),
        ):
            value = getattr(self, name)
            if not isinstance(value, np.ndarray) or value.shape != shape or value.dtype != dtype:
                got = f"{value.dtype} {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
                raise ValueError(f"{name} must be a {np.dtype(dtype)} array of shape {shape}, got {got}")
        for name in ("teacher_boxes", "llm_boxes", "truth_boxes"):
            _first_bad_row(name, getattr(self, name), np.isfinite, "a non-finite coordinate")
        _first_bad_row("features", self.features, lambda f: (f >= 0.0) & (f <= 1.0), "a value outside [0, 1]")

    def __len__(self) -> int:
        return self.features.shape[0]


def _first_bad_row(name: str, rows: np.ndarray, ok, fault: str) -> None:
    bad = ~ok(rows).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{name}[{i}] = {rows[i].tolist()} has {fault}")


@dataclass(frozen=True)
class GateTrainConfig:
    learning_rate: float = 0.3
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate={self.learning_rate} must be finite and >= 0")
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
    if hidden < 1:
        raise ValueError(f"hidden={hidden} must be >= 1")
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


def _pack(batch: GateBatch):
    """Training arrays, one row per sample: x, bt, bl, gt, bt - bl, y,
    z_t, z_l, z_t - z_l."""
    x, bt, bl, gt = batch.features, batch.teacher_boxes, batch.llm_boxes, batch.truth_boxes
    # Fused-category correctness under the trust-the-text resolution: on
    # disagreement the text category is emitted, so its flag decides; on
    # agreement both flags coincide anyway.
    y = batch.llm_correct.astype(np.float64)
    clipped = np.clip(x[:, :2], _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    z_t = np.log(clipped[:, 0]) - np.log1p(-clipped[:, 0])
    z_l = np.log(clipped[:, 1]) - np.log1p(-clipped[:, 1])
    return x, bt, bl, gt, bt - bl, y, z_t, z_l, z_t - z_l


def _ggrad(g, h, bt, bl, gt, dbt, y, z_t, z_l, dz, residual, u):
    """dLoss/dg for one batch, given ``h = 1 - g``.

    Loss per sample: mean squared coordinate error of the gate-fused box
    against the truth box, plus ``_CONF_WEIGHT`` times binary
    cross-entropy of the gate-fused confidence against fused-category
    correctness. Each row's box residual and fused logit are written to
    ``residual`` and ``u``, from which ``_row_losses`` gives the loss.
    """
    np.subtract(g[:, None] * bt + h[:, None] * bl, gt, out=residual)
    np.add(g * z_t, h * z_l, out=u)
    # np.add.reduce(...) / n is what np.mean computes, minus its dispatch.
    dbox_dg = 2.0 * (np.add.reduce(residual * dbt, axis=1) / residual.shape[1])
    dbce_dg = (sigmoid(u) - y) * dz
    return (dbox_dg + _CONF_WEIGHT * dbce_dg) / g.shape[0]


def _row_losses(residual, u, y):
    """Each row's loss from its box residual and fused logit."""
    box_loss = np.add.reduce(residual**2, axis=1) / residual.shape[1]
    # softplus(u) - y*u == -[y ln p + (1-y) ln(1-p)] with p = sigmoid(u).
    return box_loss + _CONF_WEIGHT * (np.logaddexp(0.0, u) - y * u)


def _batch_losses(rows, batch_size: int) -> np.ndarray:
    """Mean row loss of each run of ``batch_size`` rows, the last run
    possibly shorter. Reducing the rows of a 2-D array sums each run in
    the same order as reducing it alone."""
    full = len(rows) // batch_size * batch_size
    losses = np.add.reduce(rows[:full].reshape(-1, batch_size), axis=1) / batch_size
    if full < len(rows):
        tail = rows[full:]
        losses = np.append(losses, np.add.reduce(tail) / tail.size)
    return losses


def _backward(params: GateParams, grads, x, dz3, a1, a2) -> float:
    """Write the gradients of w1, b1, w2, b2 and w3 into the views
    ``grads``; return the gradient of b3."""
    grad_w1, grad_b1, grad_w2, grad_b2, grad_w3 = grads
    np.matmul(dz3, a2, out=grad_w3)
    dz2 = dz3[:, None] * params.w3 * (1.0 - a2**2)
    np.matmul(dz2.T, a1, out=grad_w2)
    np.add.reduce(dz2, axis=0, out=grad_b2)
    dz1 = (dz2 @ params.w2) * (1.0 - a1**2)
    np.matmul(dz1.T, x, out=grad_w1)
    np.add.reduce(dz1, axis=0, out=grad_b1)
    return float(np.add.reduce(dz3))


def _views(flat: np.ndarray, hidden: int) -> list[np.ndarray]:
    """w1, b1, w2, b2 and w3 as reshaped views of one flat buffer."""
    views = []
    start = 0
    for shape in ((hidden, 3), (hidden,), (hidden, hidden), (hidden,), (hidden,)):
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def train_gate(samples: GateBatch, config: GateTrainConfig = GateTrainConfig(), hidden: int = 64) -> TrainResult:
    """Mini-batch SGD on the fusion objective; best-validation params win.

    Deterministic: the RNG (seeded from config) drives the train/val
    split, the initialization, and every epoch's batch order, in that
    order. Raises on fewer than 100 samples, on a validation split that
    leaves no training sample, and on a non-finite loss (naming its
    epoch).
    """
    n = len(samples)
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    n_val = max(1, int(round(n * config.validation_fraction)))
    if n_val >= n:
        raise ValueError(
            f"validation_fraction={config.validation_fraction} puts {n_val} of {n} samples "
            "in the validation split, leaving none to train on"
        )
    arrays = _pack(samples)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    init = init_gate(hidden=hidden, seed=int(rng.integers(2**31 - 1)))
    # The weights, and their gradients, are views of one flat buffer
    # each, so a step updates every weight with two calls.
    flat = np.concatenate([a.ravel() for a in (init.w1, init.b1, init.w2, init.b2, init.w3)])
    params = GateParams(*_views(flat, hidden), init.b3)
    grad = np.empty_like(flat)
    grads = _views(grad, hidden)
    lr = config.learning_rate

    val = tuple(a[val_idx] for a in arrays)
    val_out = (np.empty((n_val, 4)), np.empty(n_val))
    n_train = len(train_idx)
    # Each epoch's training rows in shuffled order, gathered into buffers
    # made once, plus each row's residual and fused logit; a batch is a
    # run of consecutive rows of all of them.
    shuffled = tuple(np.empty((n_train,) + a.shape[1:], dtype=a.dtype) for a in arrays)
    residual, u = np.empty((n_train, 4)), np.empty(n_train)
    batches = [
        tuple(a[start : start + config.batch_size] for a in shuffled + (residual, u))
        for start in range(0, n_train, config.batch_size)
    ]
    y_train, y_val = shuffled[5], val[5]  # y is the sixth of _pack's arrays

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
        for xb, *batch in batches:
            g, a1, a2 = _forward(params, xb)
            h = 1.0 - g
            dloss_dg = _ggrad(g, h, *batch)
            grad_b3 = _backward(params, grads, xb, dloss_dg * g * h, a1, a2)
            grad *= lr
            flat -= grad
            params.b3 -= lr * grad_b3
        # A batch whose loss is not finite fails the epoch it ran in.
        losses = _batch_losses(_row_losses(residual, u, y_train), config.batch_size)
        if not np.isfinite(losses).all():
            raise ValueError(f"non-finite training loss at epoch {epoch}")
        train_losses.append(float(np.mean(losses)))
        # The validation pass writes its residuals and fused logits the
        # same way; its gradient goes unused.
        g, _, _ = _forward(params, val[0])
        _ggrad(g, 1.0 - g, *val[1:], *val_out)
        val_loss = float(np.add.reduce(_row_losses(*val_out, y_val)) / n_val)
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
