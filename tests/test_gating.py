"""The learned fusion gate: forward pass, training behavior, slope
estimation, and serialization."""

import dataclasses

import numpy as np
import pytest

from layoutfusion.fusion import gate_samples_from_pages
from layoutfusion.gating import (
    GateBatch,
    GateFeatures,
    GateParams,
    GateTrainConfig,
    estimate_lipschitz,
    gate_forward,
    gate_forward_batch,
    init_gate,
    load_gate,
    save_gate,
    train_gate,
)
from layoutfusion.geometry import BoundingBox, iou
from layoutfusion.model import GroundTruthAnnotation, LlmRegion, Page, TeacherPrediction
from layoutfusion.simulator import GateTask, SimConfig, sample_gate_instances, simulate_dataset
from layoutfusion.taxonomy import DOCLAYNET


def zero_params(hidden: int = 8, b3: float = 0.0) -> GateParams:
    return GateParams(
        w1=np.zeros((hidden, 3)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, hidden)),
        b2=np.zeros(hidden),
        w3=np.zeros(hidden),
        b3=b3,
    )


def slope_two_params(delta: float = 1e-3) -> GateParams:
    """Weights realizing g ~ sigmoid(8 p - 4): slope 2 at p = 0.5.

    A single near-linear hidden path: tanh(d x) / d approximates the
    identity for small d, so the output logit is 8 p - 4 up to O(d^2).
    """
    hidden = 8
    w1 = np.zeros((hidden, 3))
    w1[0, 0] = delta
    w2 = np.zeros((hidden, hidden))
    w2[0, 0] = delta
    w3 = np.zeros(hidden)
    w3[0] = 8.0 / delta**2
    return GateParams(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(hidden), w3=w3, b3=-4.0)


class TestFeatures:
    def test_projection(self):
        # A matched pair's row is (teacher confidence, text score, pair
        # IoU), verbatim, next to its three boxes.
        tax = DOCLAYNET
        teacher_box, llm_box = BoundingBox(0.1, 0.1, 0.4, 0.4), BoundingBox(0.12, 0.1, 0.4, 0.43)
        page = Page(
            page_id="p",
            teacher=(TeacherPrediction(teacher_box, tax.category("text"), 0.78),),
            llm=(LlmRegion(llm_box, tax.category("text"), 0.92),),
            ground_truth=(GroundTruthAnnotation(BoundingBox(0.1, 0.1, 0.4, 0.41), tax.category("text")),),
        )
        batch = gate_samples_from_pages([page])
        assert batch.features.tolist() == [[0.78, 0.92, iou(teacher_box, llm_box)]]
        assert batch.teacher_boxes.tolist() == [[0.1, 0.1, 0.4, 0.4]]
        assert batch.llm_boxes.tolist() == [[0.12, 0.1, 0.4, 0.43]]
        assert batch.truth_boxes.tolist() == [[0.1, 0.1, 0.4, 0.41]]
        assert batch.llm_correct.tolist() == [True]

    def test_boundary_values_allowed(self):
        assert GateFeatures(0.0, 1.0, 0.0).as_array().tolist() == [0.0, 1.0, 0.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GateFeatures(1.2, 0.3, 0.5)


def _corpus_batch() -> GateBatch:
    return gate_samples_from_pages(simulate_dataset(SimConfig(pages=30, seed=3)))


class TestGateBatch:
    def test_three_coordinate_truth_box_rejected_before_training(self):
        batch = _corpus_batch()
        with pytest.raises(ValueError, match=r"truth_boxes must be a float64 array of shape \(\d+, 4\), got float64 \(\d+, 3\)"):
            dataclasses.replace(batch, truth_boxes=batch.truth_boxes[:, :3])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nan_coordinate_rejected_naming_its_row(self, value):
        batch = _corpus_batch()
        teacher = batch.teacher_boxes.copy()
        teacher[7, 2] = value
        teacher[9, 0] = value
        with pytest.raises(ValueError, match=r"teacher_boxes\[7\] = \[.*(nan|inf).*\] has a non-finite coordinate"):
            dataclasses.replace(batch, teacher_boxes=teacher)

    @pytest.mark.parametrize("value", [-0.1, 1.5, np.nan])
    def test_feature_outside_unit_interval_rejected(self, value):
        batch = _corpus_batch()
        features = batch.features.copy()
        features[4, 1] = value
        with pytest.raises(ValueError, match=r"features\[4\] = .* has a value outside \[0, 1\]"):
            dataclasses.replace(batch, features=features)

    def test_correctness_flags_must_be_bool(self):
        batch = _corpus_batch()
        with pytest.raises(ValueError, match=r"llm_correct must be a bool array"):
            dataclasses.replace(batch, llm_correct=batch.llm_correct.astype(np.float64))

    def test_empty_batch_fails_training_by_size(self):
        batch = gate_samples_from_pages([])
        assert len(batch) == 0 and batch.features.shape == (0, 3)
        with pytest.raises(ValueError, match="need at least 100 samples, got 0"):
            train_gate(batch)


class TestForward:
    def test_zero_params_give_half(self):
        assert gate_forward(zero_params(), GateFeatures(0.3, 0.9, 0.2)) == 0.5

    def test_large_bias_saturates(self):
        assert gate_forward(zero_params(b3=40.0), GateFeatures(0.5, 0.5, 0.5)) > 0.999999

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        params = init_gate(hidden=16, seed=1)
        outputs = gate_forward_batch(params, rng.uniform(0, 1, size=(500, 3)))
        assert np.all(outputs > 0.0) and np.all(outputs < 1.0)

    def test_dimension_mismatch_errors(self):
        with pytest.raises(ValueError):
            gate_forward_batch(zero_params(), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            GateParams(
                w1=np.zeros((4, 3)),
                b1=np.zeros(5),
                w2=np.zeros((4, 4)),
                b2=np.zeros(4),
                w3=np.zeros(4),
                b3=0.0,
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GateParams(
                w1=np.full((4, 3), np.nan),
                b1=np.zeros(4),
                w2=np.zeros((4, 4)),
                b2=np.zeros(4),
                w3=np.zeros(4),
                b3=0.0,
            )

    def test_parameter_count(self):
        params = init_gate(hidden=64, seed=0)
        assert params.parameter_count == 64 * 3 + 64 + 64 * 64 + 64 + 64 + 1


class TestTraining:
    def test_requires_minimum_samples(self):
        instances = sample_gate_instances(GateTask(), 50, seed=1)
        with pytest.raises(ValueError):
            train_gate(instances, GateTrainConfig())

    def test_validation_split_of_every_sample_is_rejected(self):
        # round(100 * 0.995) = 100: the split used to leave nothing to train on.
        samples = sample_gate_instances(GateTask(), 100, seed=1)
        with pytest.raises(ValueError, match=r"validation_fraction=0.995 puts 100 of 100 samples in the validation split"):
            train_gate(samples, GateTrainConfig(validation_fraction=0.995, epochs=2))

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_width_below_one_is_rejected(self, hidden):
        with pytest.raises(ValueError, match=rf"hidden={hidden} must be >= 1"):
            init_gate(hidden=hidden)
        samples = sample_gate_instances(GateTask(), 120, seed=1)
        with pytest.raises(ValueError, match=rf"hidden={hidden} must be >= 1"):
            train_gate(samples, GateTrainConfig(epochs=1), hidden=hidden)

    @pytest.mark.parametrize("rate", [-0.1, float("inf"), float("nan")])
    def test_learning_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            GateTrainConfig(learning_rate=rate)

    def test_zero_learning_rate_keeps_initialization(self):
        instances = sample_gate_instances(GateTask(), 200, seed=2)
        config = GateTrainConfig(learning_rate=0.0, epochs=3, seed=5)
        result = train_gate(instances, config, hidden=8)
        rng = np.random.default_rng(5)
        rng.permutation(200)
        expected = init_gate(hidden=8, seed=int(rng.integers(2**31 - 1)))
        np.testing.assert_array_equal(result.params.w1, expected.w1)
        np.testing.assert_array_equal(result.params.w3, expected.w3)

    def test_bitwise_reproducible(self):
        instances = sample_gate_instances(GateTask(), 400, seed=3)
        config = GateTrainConfig(learning_rate=0.5, epochs=5, batch_size=16, seed=9)
        a = train_gate(instances, config, hidden=16)
        b = train_gate(instances, config, hidden=16)
        np.testing.assert_array_equal(a.params.w1, b.params.w1)
        np.testing.assert_array_equal(a.params.w2, b.params.w2)
        np.testing.assert_array_equal(a.params.w3, b.params.w3)
        assert a.params.b3 == b.params.b3
        assert a.val_losses == b.val_losses

    def test_teacher_dominant_task_pushes_gate_up(self):
        task = GateTask(mixture=((1.0, 0.001, 0.05),), p_t_range=(0.75, 0.95), s_l_range=(0.3, 0.6))
        instances = sample_gate_instances(task, 2000, seed=4)
        result = train_gate(instances, GateTrainConfig(learning_rate=0.3, epochs=30, seed=0))
        heldout = sample_gate_instances(task, 1500, seed=5)
        outputs = gate_forward_batch(result.params, heldout.features)
        assert outputs.mean() > 0.9

    def test_symmetric_task_stays_balanced(self):
        task = GateTask(mixture=((1.0, 0.03, 0.03),), p_t_range=(0.5, 0.9), s_l_range=(0.5, 0.9))
        instances = sample_gate_instances(task, 2000, seed=6)
        result = train_gate(instances, GateTrainConfig(learning_rate=0.3, epochs=30, seed=0))
        heldout = sample_gate_instances(task, 1500, seed=7)
        outputs = gate_forward_batch(result.params, heldout.features)
        assert 0.4 <= outputs.mean() <= 0.6

    def test_loss_history_recorded(self):
        instances = sample_gate_instances(GateTask(), 300, seed=8)
        result = train_gate(instances, GateTrainConfig(epochs=4, seed=1), hidden=8)
        assert len(result.train_losses) == 4
        assert len(result.val_losses) == 4
        assert 1 <= result.best_epoch <= 4
        assert min(result.val_losses) == result.val_losses[result.best_epoch - 1]


class TestLipschitz:
    def test_constant_gate_is_flat(self):
        points = np.random.default_rng(2).uniform(0, 1, size=(50, 3))
        assert estimate_lipschitz(zero_params(b3=1.7), points) == 0.0

    def test_linear_fixture_slope_two(self):
        points = np.stack(
            [np.linspace(0.35, 0.65, 400), np.full(400, 0.5), np.full(400, 0.5)], axis=1
        )
        estimate = estimate_lipschitz(slope_two_params(), points)
        assert estimate == pytest.approx(2.0, rel=0.05)

    def test_matches_finite_difference_oracle(self):
        params = init_gate(hidden=16, seed=3)
        axis = np.linspace(0.0, 1.0, 60)
        points = np.stack([axis, np.full(60, 0.4), np.full(60, 0.7)], axis=1)
        outputs = gate_forward_batch(params, points)
        fd = np.max(np.abs(np.diff(outputs)) / np.diff(axis))
        assert estimate_lipschitz(params, points) >= fd - 1e-12

    def test_never_decreases_on_superset(self):
        rng = np.random.default_rng(4)
        params = init_gate(hidden=16, seed=5)
        points = rng.uniform(0, 1, size=(80, 3))
        small = estimate_lipschitz(params, points[:40])
        large = estimate_lipschitz(params, points)
        assert large >= small - 1e-15

    def test_identical_points_error(self):
        points = np.tile(np.array([[0.5, 0.5, 0.5]]), (10, 1))
        with pytest.raises(ValueError):
            estimate_lipschitz(zero_params(), points)

    def test_subsampled_path_close_to_exhaustive(self):
        rng = np.random.default_rng(6)
        params = init_gate(hidden=16, seed=7)
        points = rng.uniform(0, 1, size=(200, 3))
        full = estimate_lipschitz(params, points)
        sampled = estimate_lipschitz(params, points, max_pairs=5000, seed=0)
        assert sampled <= full + 1e-12
        assert sampled >= 0.3 * full


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = init_gate(hidden=8, seed=11)
        path = tmp_path / "gate.json"
        save_gate(params, path)
        loaded = load_gate(path)
        np.testing.assert_array_equal(loaded.w1, params.w1)
        np.testing.assert_array_equal(loaded.w2, params.w2)
        np.testing.assert_array_equal(loaded.w3, params.w3)
        assert loaded.b3 == params.b3

    def test_version_field_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="format_version"):
            load_gate(path)

    def test_header_documents_semantics(self, tmp_path):
        import json

        path = tmp_path / "gate.json"
        save_gate(init_gate(hidden=4, seed=0), path)
        doc = json.loads(path.read_text())
        assert doc["architecture"]["gate_semantics"] == "teacher_weight"
        assert doc["format_version"] == 1
        assert doc["parameter_count"] == 4 * 3 + 4 + 16 + 4 + 4 + 1


class TestFusionNotWorseThanWorseSource:
    def test_gate_fused_error_bounded_by_worse_source(self):
        # After training, the expected squared box error of gate-fused
        # outputs must not exceed the worse single source, with a
        # 3-standard-error margin over 1e4 held-out samples.
        task = GateTask(mixture=((1.0, 0.01, 0.05),), p_t_range=(0.6, 0.9), s_l_range=(0.4, 0.7))
        instances = sample_gate_instances(task, 3000, seed=40)
        trained = train_gate(
            instances, GateTrainConfig(learning_rate=0.3, epochs=30, seed=1)
        )
        heldout = sample_gate_instances(task, 10_000, seed=41)
        g = gate_forward_batch(trained.params, heldout.features)[:, None]
        fused = g * heldout.teacher_boxes + (1.0 - g) * heldout.llm_boxes
        fused_err = np.mean((fused - heldout.truth_boxes) ** 2, axis=1)
        teacher_err = np.mean((heldout.teacher_boxes - heldout.truth_boxes) ** 2, axis=1)
        llm_err = np.mean((heldout.llm_boxes - heldout.truth_boxes) ** 2, axis=1)
        worse = max(teacher_err.mean(), llm_err.mean())
        worse_err = teacher_err if teacher_err.mean() >= llm_err.mean() else llm_err
        diff = worse_err - fused_err
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert fused_err.mean() <= worse
        assert diff.mean() > 3 * se
