"""Property tests: the vectorised and plain-float paths against frozen
copies of the code they replaced (``oracles``).

sigmoid, 101-point AP, the simulator's box noise, the gate's forward
pass and gate training must match their old forms bit for bit, and so
must the Lipschitz estimate match its old two-branch form. The gate
runs once per page in ``refine_pseudo_labels``; a many-row matmul may
sum in another order than a one-row one, so its weights must stay
within a few ulps of a one-row ``gate_forward_batch`` per pair.
"""

import dataclasses
import functools
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layoutfusion import gating
from layoutfusion.dataset_io import save_dataset
from layoutfusion.fusion import (
    FusionConfig,
    fuse_fixed_box,
    gate_samples_from_pages,
    match_regions,
    refine_pseudo_labels,
)
from layoutfusion.gating import (
    GateTrainConfig,
    _batch_losses,
    estimate_lipschitz,
    gate_forward_batch,
    init_gate,
    save_gate,
    train_gate,
)
from layoutfusion.geometry import BoundingBox
from layoutfusion.metrics import _interpolated_ap
from layoutfusion.numerics import logit, sigmoid
from layoutfusion.simulator import (
    GateTask,
    SimConfig,
    _correlated_offsets,
    _noisy_box,
    correlated_noise,
    monte_carlo_fusion_variance,
    sample_gate_instances,
    simulate_dataset,
)

from oracles import (
    array_correlated_offsets,
    array_noisy_box,
    frozen_estimate_lipschitz,
    frozen_gate_forward,
    loop_interpolated_ap,
    masked_sigmoid,
    reference_train_gate,
)

EDGES = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    1e308, -1e308, 709.78, -745.2, 36.7, -36.7,
]
any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGES))
unit = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(any_float, max_size=40))
def test_array_sigmoid_equals_masked_form_bit_for_bit(values):
    """Also when it writes into caller buffers, as a gate training step does."""
    x = np.array(values, dtype=np.float64)
    want = masked_sigmoid(x).tobytes()
    assert sigmoid(x).tobytes() == want
    out = np.full_like(x, 7.0)
    work = (np.full_like(x, 7.0), np.ones(x.shape, dtype=bool))
    assert sigmoid(x, out=out, work=work) is out
    assert out.tobytes() == want


@given(any_float)
def test_float64_sigmoid_equals_masked_form_bit_for_bit(value):
    got = sigmoid(np.float64(value))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(masked_sigmoid(np.float64(value))).tobytes()


def test_array_sigmoid_keeps_nan_bits_and_shape_without_warnings():
    payloads = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)
    x = np.concatenate([payloads, EDGES]).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
    assert got.shape == (4, 4)
    assert got.tobytes() == masked_sigmoid(x).tobytes()


@st.composite
def ranked_hits(draw):
    """Recall and precision as ``average_precision`` builds them from a
    ranked list of hits and a ground-truth count."""
    hits = draw(st.lists(st.booleans(), max_size=80))
    npos = draw(st.integers(min_value=max(1, sum(hits)), max_value=max(1, sum(hits)) + 30))
    tp = np.array(hits, dtype=np.float64)
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    return tp_cum / npos, tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)


@st.composite
def monotone_curves(draw):
    """Any non-decreasing recall in [0, 1] with any precision in [0, 1]."""
    points = draw(st.lists(st.tuples(unit, unit), max_size=80))
    recall = np.sort(np.array([r for r, _ in points], dtype=np.float64))
    return recall, np.array([p for _, p in points], dtype=np.float64)


@given(st.one_of(ranked_hits(), monotone_curves()))
def test_interpolated_ap_equals_loop_form_bit_for_bit(curve):
    recall, precision = curve
    got = _interpolated_ap(recall, precision)
    assert type(got) is float
    assert got.hex() == loop_interpolated_ap(recall, precision).hex()


@st.composite
def truth_boxes(draw):
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    assume((x2 - x1) * (y2 - y1) > 0.0)
    return BoundingBox(x1, y1, x2, y2)


@given(
    truth_boxes(),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(0.0, 0.05), st.floats(0.05, 2.0)),
    st.one_of(st.floats(0.0, 0.05), st.floats(0.05, 2.0)),
    st.floats(0.0, 0.99),
)
def test_box_noise_equals_array_form_bit_for_bit(truth, seed, sigma_t, sigma_l, rho):
    """Same draws, same offsets and the same boxes (or collapses); large
    sigmas exercise the clip at both edges. The per-box offsets also equal
    the library's array helper scaled by each sigma."""
    eps_t, eps_l = _correlated_offsets(np.random.default_rng(seed), sigma_t, sigma_l, rho)
    ref_t, ref_l = array_correlated_offsets(np.random.default_rng(seed), sigma_t, sigma_l, rho)
    assert np.array(eps_t).tobytes() == ref_t.tobytes()
    assert np.array(eps_l).tobytes() == ref_l.tobytes()
    unit_t, unit_l = correlated_noise(np.random.default_rng(seed), (4,), rho)
    assert np.array(eps_t).tobytes() == (sigma_t * unit_t).tobytes()
    assert np.array(eps_l).tobytes() == (sigma_l * unit_l).tobytes()
    for eps, ref in ((eps_t, ref_t), (eps_l, ref_l)):
        box = _noisy_box(truth, eps)
        got = None if box is None else (box.x1, box.y1, box.x2, box.y2)
        want = array_noisy_box(truth, ref)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array(got).tobytes() == np.array(want).tobytes()


# sha256 of save_dataset(simulate_dataset(config)), recorded from the
# array-form simulator. They pin numpy's Generator streams and its exp/log
# too, so a numpy release that changes either changes them.
SPARSE = dict(pages=500, regions_min=4, regions_max=8, emit_coordinate_variance=True, emit_ocr_stubs=True)
DENSE = dict(pages=50, regions_min=36, regions_max=48, sigma_t=0.004, sigma_l=0.006)
SIMULATED_SHA256 = {
    ("sparse", 0): "1a81c694804b7c564315dad429ddf975b09c26addc095ad1bbae3f600d553a21",
    ("sparse", 5): "396dbce561c312692f3ff159021d33dfc46d0a7869d82b3da7499bd086246a83",
    ("dense", 0): "23d8a4af4e13d66b530f5b1f086482de300cca2393eff23e4a11ba04208be1e4",
    ("dense", 5): "fb3b5dc8fd3ab75892435fbf5c9a0cedf3ca745030ed9d6787096257377cd9d3",
}


@pytest.mark.parametrize("corpus, seed", sorted(SIMULATED_SHA256))
def test_simulated_corpus_bytes_unchanged(tmp_path, corpus, seed):
    config = SimConfig(seed=seed, **(SPARSE if corpus == "sparse" else DENSE))
    path = tmp_path / "dataset.jsonl"
    save_dataset(simulate_dataset(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SIMULATED_SHA256[(corpus, seed)]


# sha256 of sample_gate_instances(task, 4000, seed).features, recorded
# when its pair IoU was a loop of scalar ``iou`` calls. The mixture task
# draws its confidences independently of the noise, and neither task
# sets synthetic_iou, so both run the pair-IoU kernel.
GATE_FEATURES_SHA256 = {
    ("default", 0): "3e7356e94f569f5e98c4cdda9d954a1ae42c581e93f0d48f8542043529332832",
    ("default", 5): "b4b86c1da7d96708ec35745061e72df1d45ff8547149f4126938141509b37f7c",
    ("mixture", 0): "31969a69f36fcc7ccb86b4790d9ed3c41ed75977ffd9879319b1e382e618afc2",
    ("mixture", 5): "5595ea6122e64cc56c07aabb94c38949643912cbd7f514bfd4e2794db9b425ac",
}
GATE_TASKS = {
    "default": GateTask(),
    "mixture": GateTask(
        mixture=((0.7, 0.03, 0.03), (0.3, 0.039, 0.03)), p_t_range=(0.55, 0.9), s_l_range=(0.55, 0.9)
    ),
}


@pytest.mark.parametrize("task, seed", sorted(GATE_FEATURES_SHA256))
def test_gate_instance_features_unchanged(task, seed):
    features = sample_gate_instances(GATE_TASKS[task], 4000, seed=seed).features
    assert hashlib.sha256(features.tobytes()).hexdigest() == GATE_FEATURES_SHA256[(task, seed)]


# sha256 of sample_gate_instances(task, 4000, seed).teacher_boxes and
# .llm_boxes, recorded when the sampler drew z, u and v as three
# separate (n, 4) arrays.
GATE_BOXES_SHA256 = {
    ("default", 0): (
        "e3992957dd817ddb9118c3f2c94e768c19d24a5783c70747a2fabbeda9007e02",
        "e7302e0c830b2140102d857a94d6a4339715e13cac8c1a49a8e54f2910c81624",
    ),
    ("default", 5): (
        "76ee827f5f900fa6058bb7e140245332b32b86728df8804ea788ad920140cc2a",
        "a7666b08f4cf78d46df037dfebce56d991c1af65ea284cf7655673023224752e",
    ),
    ("mixture", 0): (
        "2237f3a9d48a064f2b9146c9b38213c141843a6de8ba0b859e98f9375a2186ee",
        "f43dfac10f045785475776369493be107a1f740853d5e6fdc7745c8fb4361fd4",
    ),
    ("mixture", 5): (
        "a2647ea5d867d2d64c6876ba993f21c6691230150a574e0c2448f2dee32ecea4",
        "1e2e4f60eb1b0b9fb7771e59d203af611a68e5a8c2d8f9c3149a5ef5dd42f12e",
    ),
}


@pytest.mark.parametrize("task, seed", sorted(GATE_BOXES_SHA256))
def test_gate_instance_boxes_unchanged(task, seed):
    instances = sample_gate_instances(GATE_TASKS[task], 4000, seed=seed)
    got = tuple(hashlib.sha256(b.tobytes()).hexdigest() for b in (instances.teacher_boxes, instances.llm_boxes))
    assert got == GATE_BOXES_SHA256[(task, seed)]


# monte_carlo_fusion_variance(sigma_t, sigma_l, rho, alpha, 10**5, seed)
# as float.hex(), recorded from the same three-draw form.
MONTE_CARLO_HEX = {
    (1.0, 2.0, 0.0, 0.8, 0): "0x1.9b6373bb8985cp-1",
    (0.7, 1.3, 0.5, 0.3, 7): "0x1.0fad4e9ad85ecp+0",
    (1.2, 0.4, 0.95, 0.5, 11): "0x1.41ec26b94f4cep-1",
}


@pytest.mark.parametrize("sigma_t, sigma_l, rho, alpha, seed", sorted(MONTE_CARLO_HEX))
def test_monte_carlo_variance_unchanged(sigma_t, sigma_l, rho, alpha, seed):
    value = monte_carlo_fusion_variance(sigma_t, sigma_l, rho, alpha, 10**5, seed=seed)
    assert value.hex() == MONTE_CARLO_HEX[(sigma_t, sigma_l, rho, alpha, seed)]


def test_gate_training_matches_reference_loop_byte_for_byte(tmp_path):
    samples = gate_samples_from_pages(simulate_dataset(SimConfig(pages=40, seed=3)))
    # 217 samples: 174 training rows, so every epoch ends on a short batch of 14.
    assert len(samples) == 217
    config = GateTrainConfig(epochs=6, batch_size=16, seed=11)
    result = train_gate(samples, config, hidden=16)
    params, train_losses, val_losses, best_epoch = reference_train_gate(samples, config, hidden=16)
    save_gate(result.params, tmp_path / "got.json")
    save_gate(params, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert [v.hex() for v in result.train_losses] == [v.hex() for v in train_losses]
    assert [v.hex() for v in result.val_losses] == [v.hex() for v in val_losses]
    assert result.best_epoch == best_epoch


@functools.cache
def _corpus_samples():
    # 323 samples, with both values of llm_correct.
    return gate_samples_from_pages(simulate_dataset(SimConfig(pages=60, seed=3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(100, 323), st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**31 - 1))
# At n = 100, 20 samples validate and 80 train.
@example(n=100, batch_size=79, hidden=1, seed=0)  # a last batch of one row
@example(n=100, batch_size=16, hidden=64, seed=1)  # five full batches, no short one
@example(n=100, batch_size=80, hidden=64, seed=2)  # one batch of every training row
@example(n=323, batch_size=300, hidden=1, seed=3)  # batch_size above the 258 training rows
def test_gate_training_matches_reference_loop_bit_for_bit(n, batch_size, hidden, seed):
    """Every batch shape a training can meet, at widths 1 to 64."""
    corpus = _corpus_samples()
    samples = dataclasses.replace(corpus, **{f.name: getattr(corpus, f.name)[:n] for f in dataclasses.fields(corpus)})
    config = GateTrainConfig(epochs=2, batch_size=batch_size, seed=seed)
    result = train_gate(samples, config, hidden=hidden)
    params, train_losses, val_losses, best_epoch = reference_train_gate(samples, config, hidden=hidden)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        got, want = (np.asarray(getattr(p, name), dtype=np.float64) for p in (result.params, params))
        assert got.tobytes() == want.tobytes()
    assert [v.hex() for v in result.train_losses] == [v.hex() for v in train_losses]
    assert [v.hex() for v in result.val_losses] == [v.hex() for v in val_losses]
    assert result.best_epoch == best_epoch


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 500), st.sampled_from([1, 4, 16, 64]), st.integers(0, 2**31 - 1), st.sampled_from([1.0, 4.0]))
def test_gate_forward_equals_allocating_form_bit_for_bit(rows, hidden, seed, scale):
    """``gate_forward_batch`` runs the training step's forward pass, in
    buffers of its own; it must give the allocating pass's outputs. Weights scaled by 4
    spread the output logits wider on both sides of 0."""
    init = init_gate(hidden=hidden, seed=seed)
    params = gating.GateParams(init.w1 * scale, init.b1, init.w2 * scale, init.b2, init.w3 * scale, 0.5 * scale)
    features = np.random.default_rng(seed).uniform(0.0, 1.0, size=(rows, 3))
    assert gate_forward_batch(params, features).tobytes() == frozen_gate_forward(params, features).tobytes()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), st.integers(1, 70))
def test_epoch_batch_losses_equal_per_batch_reduce(rows, batch_size):
    """Reducing the rows of a 2-D array sums each batch as reducing that
    batch's slice alone does (``np.add.reduceat`` would not)."""
    rows = np.array(rows)
    want = [
        np.add.reduce(rows[start : start + batch_size]) / rows[start : start + batch_size].size
        for start in range(0, rows.size, batch_size)
    ]
    assert _batch_losses(rows, batch_size).tobytes() == np.array(want).tobytes()


def test_diverging_run_fails_at_the_reference_epoch():
    """The loss is checked once per epoch, after its last batch; a run
    whose loss overflows must still fail with the reference loop's
    error, naming the same epoch. (The tanh and sigmoid saturate, so a
    huge learning rate alone does not overflow the loss: the boxes are
    scaled up as well.)"""
    samples = gate_samples_from_pages(simulate_dataset(SimConfig(pages=40, seed=3)))
    samples = dataclasses.replace(
        samples, teacher_boxes=samples.teacher_boxes * 1e154, truth_boxes=samples.truth_boxes * 1e154
    )
    config = GateTrainConfig(learning_rate=1e300, epochs=6, batch_size=16, seed=11)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as want:
            reference_train_gate(samples, config, hidden=16)
        with pytest.raises(ValueError) as got:
            train_gate(samples, config, hidden=16)
    assert str(want.value) == "non-finite training loss at epoch 1"
    assert str(got.value) == str(want.value)


def _ulps(a: float, b: float) -> int:
    """Distance in representable doubles between two finite values of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


# A one-row forward pass and a many-row one reach the same sums through
# different BLAS kernels, so they may round differently. The 8-ulp bound
# below holds for init_gate weights and for trained gates (at most 4 ulps
# on the benchmark corpora); it is not a bound for arbitrary weights,
# since the distance grows with cancellation in the hidden sums (about 56
# ulps with init_gate weights scaled by 4).


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=60),
    st.sampled_from([4, 16, 64]),
    st.integers(0, 2**31 - 1),
)
def test_batched_gate_within_eight_ulps_of_per_pair(rows, hidden, seed):
    params = init_gate(hidden=hidden, seed=seed)
    batched = gate_forward_batch(params, np.array(rows, dtype=np.float64)).tolist()
    for row, g in zip(rows, batched):
        assert _ulps(g, gate_forward_batch(params, np.array([row], dtype=np.float64))[0]) <= 8


def test_gated_refine_within_eight_ulps_of_per_pair_gate():
    """Each fused label of a page refined with a trained gate equals, to
    a few ulps, the label built from that pair's own one-row
    ``gate_forward_batch``."""
    pages = simulate_dataset(SimConfig(pages=30, regions_min=10, regions_max=20, seed=9))
    gate = train_gate(gate_samples_from_pages(pages), GateTrainConfig(epochs=5, seed=2), hidden=16).params
    config = FusionConfig()
    fused_seen = 0
    for page in pages:
        labels = [l for l in refine_pseudo_labels(page, config, gate) if l.provenance == "fused"]
        matches = match_regions(page.teacher, page.llm, config).matches
        assert len(labels) == len(matches)
        for label, m in zip(labels, matches):
            pred, region = page.teacher[m.teacher_index], page.llm[m.llm_index]
            g = float(gate_forward_batch(gate, np.array([[pred.confidence, region.score, m.iou]]))[0])
            box = fuse_fixed_box(pred.box, region.box, g)
            z_t, z_l = logit(pred.confidence), logit(region.score)
            for got, want in zip(
                (label.box.x1, label.box.y1, label.box.x2, label.box.y2),
                (box.x1, box.y1, box.x2, box.y2),
            ):
                assert _ulps(got, want) <= 8
            assert _ulps(label.confidence, sigmoid(g * z_t + (1.0 - g) * z_l)) <= 8
            fused_seen += 1
    assert fused_seen > 200


# Coordinates from a small set, so duplicate points and pairs closer
# than, or exactly at, the estimator's 1e-9 cut-off are common.
NEAR_VALUES = [0.0, 1e-9, 0.25, 0.5, 0.5 + 1e-10, 1.0]


@st.composite
def lipschitz_cases(draw):
    """A gate, 2 to 300 points, ``max_pairs`` on either side of the pair
    count, a seed and a pair block small enough for a ragged last block."""
    n = draw(st.integers(2, 300))
    coordinate = st.one_of(st.sampled_from(NEAR_VALUES), unit)
    pool = draw(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=n))
    points = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    total = n * (n - 1) // 2
    max_pairs = draw(st.one_of(st.integers(1, total), st.integers(total, 2 * total + 10)))
    # At most about 400 blocks of sampled pairs.
    block = max(draw(st.integers(1, 64)), max_pairs // 400 + 1)
    params = init_gate(hidden=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**16)))
    return params, points, max_pairs, draw(st.integers(0, 2**16)), block


def _outcome(estimate, *args):
    """The estimate's value as hex, or its error message."""
    try:
        return estimate(*args).hex()
    except ValueError as exc:
        return f"error: {exc}"


@settings(max_examples=150, deadline=None)
@given(lipschitz_cases())
def test_lipschitz_equals_two_branch_form_bit_for_bit(case):
    params, points, max_pairs, seed, block = case
    with mock.patch.object(gating, "_PAIR_BLOCK", block):
        got = _outcome(estimate_lipschitz, params, points, max_pairs, seed)
    assert got == _outcome(frozen_estimate_lipschitz, params, points, max_pairs, seed)


@pytest.mark.parametrize("max_pairs", [1, 44, 45, 10_000], ids=["sampled-one", "sampled", "exhaustive-exact", "exhaustive"])
def test_lipschitz_identical_points_error_on_both_branches(max_pairs):
    points = np.tile([[0.5, 0.5, 0.5]], (10, 1))  # 45 pairs, all at distance 0
    params = init_gate(hidden=4, seed=1)
    want = "error: all sample points identical: slope undefined"
    assert _outcome(estimate_lipschitz, params, points, max_pairs) == want
    assert _outcome(frozen_estimate_lipschitz, params, points, max_pairs) == want


@pytest.mark.parametrize("max_pairs", [2, 3], ids=["sampled", "exhaustive"])
def test_lipschitz_scores_a_pair_exactly_at_the_cutoff(max_pairs):
    # Two pairs exactly 1e-9 apart and one duplicate pair; seed 0 samples
    # (2, 1) and (1, 0), both at the cut-off.
    points = np.array([[0.0, 0.5, 0.5], [1e-9, 0.5, 0.5], [0.0, 0.5, 0.5]])
    params = init_gate(hidden=4, seed=1)
    got = _outcome(estimate_lipschitz, params, points, max_pairs, 0)
    assert not got.startswith("error")
    assert got == _outcome(frozen_estimate_lipschitz, params, points, max_pairs, 0)
