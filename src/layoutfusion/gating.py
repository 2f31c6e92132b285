"""Instance-adaptive fusion gate: a small MLP trained by manual backprop.

The gate maps the 3-D feature triple (teacher confidence, text-region
score, pair IoU) to a weight g in [0, 1], interpreted as the teacher's
share: fused box = g * teacher + (1 - g) * text region, and the fused
confidence uses the same g as its logit weight.

Architecture is fixed: input -> hidden -> hidden -> scalar, tanh hidden
activations, sigmoid output squash. Gradients are computed by hand so
training is dependency-free and bit-reproducible given (seed, config,
samples).

Training runs in buffers made once: a ``_Workspace`` per batch size
holds everything a step writes, each buffer on a 64-byte boundary, and
each step is forward pass, dLoss/dg and backward pass as ``out=`` calls
into it, then one update of the flat weight buffer. ``_forward`` is the
one forward pass: training steps, the validation pass and
``gate_forward_batch`` all run it. The validation pass then runs only
``_fuse_pair``, the part of dLoss/dg that its loss reads.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import logit, sigmoid
from .schema import check_fields

__all__ = [
    "GateBatch",
    "GateParams",
    "GateTrainConfig",
    "TrainResult",
    "init_gate",
    "gate_forward_batch",
    "train_gate",
    "estimate_lipschitz",
    "save_gate",
    "load_gate",
]

GATE_FORMAT_VERSION = 1
_LOGIT_CLIP = 1e-6
_CONF_WEIGHT = 0.1  # weight of the confidence BCE in the gate loss
_PAIR_BLOCK = 1 << 18  # sampled pairs scored at once by estimate_lipschitz
# What ``load_gate`` expects of a weight, by its number of dimensions.
_NESTING = ("a JSON number", "an array of JSON numbers", "an array of arrays of JSON numbers")


def _shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """The weight layout: each weight's name and shape, in file and buffer order."""
    return {"w1": (hidden, 3), "b1": (hidden,), "w2": (hidden, hidden), "b2": (hidden,), "w3": (hidden,), "b3": ()}


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
        hidden = np.shape(self.w1)[0] if np.ndim(self.w1) else 0
        for name, shape in _shapes(hidden).items():
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for hidden width {hidden}, got {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, value if shape else float(value))

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]

    @property
    def parameter_count(self) -> int:
        return sum(math.prod(shape) for shape in _shapes(self.hidden_width).values())


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
        check_fields(self)
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate={self.learning_rate} must be finite and >= 0")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")


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


def _carve(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Float64 arrays of these shapes, cut from one block so that each
    starts on a 64-byte boundary. numpy only promises 16-byte ones, where
    a 64-byte vector load can span two cache lines: a training step on
    such buffers ran about 4% slower (2-core Xeon VM, numpy 2.4.6)."""
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]  # whole 64-byte lines
    block = np.empty(sum(sizes) + 8)
    start = (-block.__array_interface__["data"][0] % 64) // 8
    arrays = []
    for shape, size in zip(shapes, sizes):
        arrays.append(block[start : start + math.prod(shape)].reshape(shape))
        start += size
    return arrays


class _ForwardBuffers:
    """The buffers a forward pass over ``rows`` samples writes: the
    hidden activations, the output logit z3, the gate output g and the
    sigmoid's work space."""

    def __init__(self, rows: int, hidden: int):
        self.a1, self.a2, self.z3, self.g, d = _carve((rows, hidden), (rows, hidden), (rows,), (rows,), (rows,))
        self.sigmoid_work = (d, np.empty(rows, dtype=bool))


class _Workspace(_ForwardBuffers):
    """Every buffer a training step over ``rows`` samples writes, made
    once and reused by each step: the forward pass's, ``1 - g``, the loss
    gradient's temporaries, the backward pass's ``dz`` arrays, and the
    column and transposed views the step reads them through."""

    def __init__(self, rows: int, hidden: int):
        super().__init__(rows, hidden)
        wide, narrow, box = (rows, hidden), (rows,), (rows, 4)
        (self.act, self.dz2, self.dz1, self.h, self.t1, self.t2, self.dz3, self.box, self.box2) = _carve(
            wide, wide, wide, narrow, narrow, narrow, narrow, box, box
        )
        self.g_col, self.h_col, self.dz3_col = self.g[:, None], self.h[:, None], self.dz3[:, None]
        self.dz2_t, self.dz1_t = self.dz2.T, self.dz1.T


def _forward(params: GateParams, x: np.ndarray, ws: _ForwardBuffers) -> np.ndarray:
    """The gate outputs of the rows of ``x``, written to ``ws.g``; the
    hidden activations stay in ``ws.a1`` and ``ws.a2``."""
    a1, a2, z3 = ws.a1, ws.a2, ws.z3
    np.matmul(x, params.w1.T, out=a1)
    np.add(a1, params.b1, out=a1)
    np.tanh(a1, out=a1)
    np.matmul(a1, params.w2.T, out=a2)
    np.add(a2, params.b2, out=a2)
    np.tanh(a2, out=a2)
    np.matmul(a2, params.w3, out=z3)
    np.add(z3, params.b3, out=z3)
    return sigmoid(z3, out=ws.g, work=ws.sigmoid_work)


def gate_forward_batch(params: GateParams, features: np.ndarray) -> np.ndarray:
    """Gate outputs for an (n, 3) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 3:
        raise ValueError(f"expected (n, 3) features, got {features.shape}")
    # A copy, so the caller does not keep the activations' block alive.
    return _forward(params, features, _ForwardBuffers(len(features), params.hidden_width)).copy()


def _pack(batch: GateBatch):
    """Training arrays, one row per sample: x, bt, bl, gt, bt - bl, y,
    z_t, z_l, z_t - z_l."""
    x, bt, bl, gt = batch.features, batch.teacher_boxes, batch.llm_boxes, batch.truth_boxes
    # Fused-category correctness under the trust-the-text resolution: on
    # disagreement the text category is emitted, so its flag decides; on
    # agreement both flags coincide anyway.
    y = batch.llm_correct.astype(np.float64)
    z = logit(np.clip(x[:, :2], _LOGIT_CLIP, 1.0 - _LOGIT_CLIP))
    z_t, z_l = z[:, 0], z[:, 1]
    return x, bt, bl, gt, bt - bl, y, z_t, z_l, z_t - z_l


def _fuse_pair(ws: _Workspace, bt, bl, gt, z_t, z_l, residual, u) -> None:
    """The gate-fused pair of each row, from the gate outputs in
    ``ws.g``: writes ``ws.h = 1 - g``, the fused box's residual against
    the truth box to ``residual`` and the fused logit to ``u``, from
    which ``_row_losses`` gives the row's loss."""
    g, h, box, t1, t2 = ws.g, ws.h, ws.box, ws.t1, ws.t2
    np.subtract(1.0, g, out=h)
    np.multiply(ws.g_col, bt, out=box)
    np.multiply(ws.h_col, bl, out=ws.box2)
    np.add(box, ws.box2, out=box)
    np.subtract(box, gt, out=residual)
    np.multiply(g, z_t, out=t1)
    np.multiply(h, z_l, out=t2)
    np.add(t1, t2, out=u)


def _ggrad(ws: _Workspace, bt, bl, gt, dbt, y, z_t, z_l, dz, residual, u) -> None:
    """dLoss/dg for one batch, from the gate outputs in ``ws.g``: runs
    ``_fuse_pair`` and writes the gradient to ``ws.t1``.

    Loss per sample: mean squared coordinate error of the gate-fused box
    against the truth box, plus ``_CONF_WEIGHT`` times binary
    cross-entropy of the gate-fused confidence against fused-category
    correctness.
    """
    _fuse_pair(ws, bt, bl, gt, z_t, z_l, residual, u)
    g, box, t1, t2 = ws.g, ws.box, ws.t1, ws.t2
    # dbox/dg = 2 * mean(residual * dbt) over the coordinates, by
    # np.add.reduce(...) / n, which is what np.mean computes, minus its dispatch.
    np.multiply(residual, dbt, out=box)
    np.add.reduce(box, axis=1, out=t1)
    np.divide(t1, residual.shape[1], out=t1)
    np.multiply(2.0, t1, out=t1)
    # dbce/dg = (sigmoid(u) - y) * dz
    sigmoid(u, out=t2, work=ws.sigmoid_work)
    np.subtract(t2, y, out=t2)
    np.multiply(t2, dz, out=t2)
    np.multiply(_CONF_WEIGHT, t2, out=t2)
    np.add(t1, t2, out=t1)
    np.divide(t1, g.shape[0], out=t1)


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


def _backward(params: GateParams, grads, x, ws: _Workspace) -> float:
    """Backpropagate the dLoss/dg in ``ws.t1`` through the pass that
    ``_forward`` left in ``ws``: write the gradients of w1, b1, w2, b2
    and w3 into the views ``grads``; return the gradient of b3."""
    grad_w1, grad_b1, grad_w2, grad_b2, grad_w3 = grads
    dz3, dz2, dz1, act = ws.dz3, ws.dz2, ws.dz1, ws.act
    np.multiply(ws.t1, ws.g, out=dz3)
    np.multiply(dz3, ws.h, out=dz3)
    np.matmul(dz3, ws.a2, out=grad_w3)
    # dz2 = dz3[:, None] * w3 * (1 - a2**2)
    np.multiply(ws.dz3_col, params.w3, out=dz2)
    np.square(ws.a2, out=act)
    np.subtract(1.0, act, out=act)
    np.multiply(dz2, act, out=dz2)
    np.matmul(ws.dz2_t, ws.a1, out=grad_w2)
    np.add.reduce(dz2, axis=0, out=grad_b2)
    # dz1 = (dz2 @ w2) * (1 - a1**2)
    np.matmul(dz2, params.w2, out=dz1)
    np.square(ws.a1, out=act)
    np.subtract(1.0, act, out=act)
    np.multiply(dz1, act, out=dz1)
    np.matmul(ws.dz1_t, x, out=grad_w1)
    np.add.reduce(dz1, axis=0, out=grad_b1)
    return float(np.add.reduce(dz3))


def _views(flat: np.ndarray, hidden: int) -> list[np.ndarray]:
    """w1, b1, w2, b2 and w3 as reshaped views of one flat buffer."""
    views = []
    start = 0
    for shape in filter(None, _shapes(hidden).values()):  # b3, a float, has shape ()
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
    flat = np.concatenate([getattr(init, name).ravel() for name, shape in _shapes(hidden).items() if shape])
    params = GateParams(*_views(flat, hidden), init.b3)
    grad = np.empty_like(flat)
    grads = _views(grad, hidden)
    lr = config.learning_rate

    val = tuple(a[val_idx] for a in arrays)
    x_val, bt_val, bl_val, gt_val, _, y_val, z_t_val, z_l_val, _ = val
    val_out = (np.empty((n_val, 4)), np.empty(n_val))
    val_ws = _Workspace(n_val, hidden)
    n_train = len(train_idx)
    # Each epoch's training rows in shuffled order, gathered into buffers
    # made once, plus each row's residual and fused logit; a batch is a
    # run of consecutive rows of all of them. The full batches share one
    # workspace, a short last batch has its own.
    shuffled = tuple(np.empty((n_train,) + a.shape[1:], dtype=a.dtype) for a in arrays)
    residual, u = np.empty((n_train, 4)), np.empty(n_train)
    batches = [
        tuple(a[start : start + config.batch_size] for a in shuffled + (residual, u))
        for start in range(0, n_train, config.batch_size)
    ]
    workspaces = {rows: _Workspace(rows, hidden) for rows in {len(xb) for xb, *_ in batches}}
    steps = [(workspaces[len(xb)], xb, batch) for xb, *batch in batches]
    y_train = shuffled[5]  # y is the sixth of _pack's arrays

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
        for ws, xb, batch in steps:
            _forward(params, xb, ws)
            _ggrad(ws, *batch)
            grad_b3 = _backward(params, grads, xb, ws)
            grad *= lr
            flat -= grad
            params.b3 -= lr * grad_b3
        # A batch whose loss is not finite fails the epoch it ran in.
        losses = _batch_losses(_row_losses(residual, u, y_train), config.batch_size)
        if not np.isfinite(losses).all():
            raise ValueError(f"non-finite training loss at epoch {epoch}")
        train_losses.append(float(np.mean(losses)))
        # The validation pass needs only each row's residual and fused logit.
        _forward(params, x_val, val_ws)
        _fuse_pair(val_ws, bt_val, bl_val, gt_val, z_t_val, z_l_val, *val_out)
        val_loss = float(np.add.reduce(_row_losses(*val_out, y_val)) / n_val)
        if not math.isfinite(val_loss):
            raise ValueError(f"non-finite validation loss at epoch {epoch}")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = copy.deepcopy(params)
            best_epoch = epoch
    return TrainResult(best_params, train_losses, val_losses, best_epoch)


def _steepest(x: np.ndarray, g: np.ndarray, first, second) -> float:
    """The largest |g[second] - g[first]| / ||x[second] - x[first]|| over
    the pairs at least 1e-9 apart; -1.0 when no pair is."""
    d = np.linalg.norm(x[second] - x[first], axis=1)
    valid = d >= 1e-9
    if not valid.any():
        return -1.0
    return float((np.abs(g[second] - g[first])[valid] / d[valid]).max())


def estimate_lipschitz(params: GateParams, points, max_pairs: int = 10_000_000, seed: int = 0) -> float:
    """Max pairwise difference quotient of the gate over the sample.

    Exhaustive over all pairs up to ``max_pairs``, otherwise a uniform
    seeded sample of ``max_pairs`` pairs, scored ``_PAIR_BLOCK`` at a
    time. Pairs closer than 1e-9 are skipped; a non-finite coordinate
    and all points identical are errors.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    if max_pairs < 1:
        raise ValueError(f"max_pairs={max_pairs} must be >= 1")
    _first_bad_row("points", x, np.isfinite, "a non-finite coordinate")
    g = gate_forward_batch(params, x)
    if n * (n - 1) // 2 <= max_pairs:
        pairs = ((i, slice(i + 1, None)) for i in range(n - 1))
    else:
        rng = np.random.default_rng(seed)
        first = rng.integers(0, n, size=max_pairs)
        second = rng.integers(0, n, size=max_pairs)
        blocks = (slice(start, start + _PAIR_BLOCK) for start in range(0, max_pairs, _PAIR_BLOCK))
        pairs = ((first[block], second[block]) for block in blocks)
    best = max(_steepest(x, g, *pair) for pair in pairs)
    if best < 0.0:
        raise ValueError("all sample points identical: slope undefined")
    return best


def _header(params: GateParams) -> dict:
    """The header of ``params``'s gate file: its architecture and parameter count."""
    hidden = params.hidden_width
    return {
        "architecture": {
            "input": 3,
            "hidden": [hidden, hidden],
            "output": 1,
            "activation": "tanh",
            "output_squash": "sigmoid",
            "gate_semantics": "teacher_weight",
        },
        "parameter_count": params.parameter_count,
    }


def save_gate(params: GateParams, path) -> None:
    """Serialize with an explicit architecture header and version field."""
    doc = {
        "format_version": GATE_FORMAT_VERSION,
        **_header(params),
        "weights": {name: np.asarray(getattr(params, name)).tolist() for name in _shapes(params.hidden_width)},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def load_gate(path) -> GateParams:
    """The parameters in a gate file written by ``save_gate``. A file that
    is not one, or whose header does not describe its weights, raises
    ValueError naming the file and the key at fault."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ValueError(f"{path}: missing format_version")
    if doc["format_version"] != GATE_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {doc['format_version']}")
    if "weights" not in doc:
        raise ValueError(f"{path}: missing weights")
    weights = doc["weights"]
    if not isinstance(weights, dict):
        raise ValueError(f"{path}: weights must be a JSON object")
    arrays = {}
    # The layout's names and ranks; GateParams checks the widths.
    for key, shape in _shapes(0).items():
        if key not in weights:
            raise ValueError(f"{path}: missing weights.{key}")
        try:
            value = np.array(weights[key])
        except ValueError:  # ragged nesting
            value = np.array(None)
        # Kinds i and f: JSON numbers only, not booleans, strings or nulls.
        if value.dtype.kind not in "if" or value.ndim != len(shape):
            raise ValueError(f"{path}: weights.{key} must be {_NESTING[len(shape)]}")
        arrays[key] = value.astype(np.float64)
    try:
        params = GateParams(**arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # The header must be the one save_gate writes for these weights.
    for key, value in _header(params).items():
        if key not in doc:
            raise ValueError(f"{path}: missing {key}")
        if doc[key] != value:
            raise ValueError(f"{path}: {key} is {json.dumps(doc[key])}, but the weights give {json.dumps(value)}")
    return params
