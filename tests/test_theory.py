"""Sample-complexity diagnostics: closed forms, regime analysis, and
the convergence-slope machinery."""

import math

import numpy as np
import pytest

from layoutfusion.fusion import optimal_alpha
from layoutfusion.gating import GateTrainConfig, train_gate
from layoutfusion.simulator import GateTask, SimConfig, sample_gate_instances, simulate_dataset
from layoutfusion.theory import (
    TheoryConfig,
    boundary_measure,
    classify_regime,
    complementarity_dimension,
    complementarity_factor,
    expected_weight_risk,
    fit_convergence_slope,
    gammas_from_pages,
    oracle_weights,
    predicted_gap,
    regime_residual_analysis,
    run_sample_complexity_experiment,
    summarize_reference_point,
)


class TestComplementarityDimension:
    def test_reference_point(self):
        k = complementarity_dimension(3, 10.0, 26_000)
        assert 21.5 <= k <= 22.5
        assert k == pytest.approx(3 * math.log1p(10 * math.sqrt(26_000)), abs=1e-12)

    def test_zero_scale(self):
        for n in (1, 100, 10**6):
            assert complementarity_dimension(3, 0.0, n) == 0.0

    def test_large_n_value(self):
        assert complementarity_dimension(3, 10.0, 10**6) == pytest.approx(3 * math.log(10001), abs=1e-9)

    def test_monotone_in_each_argument(self):
        base = complementarity_dimension(3, 10.0, 1000)
        assert complementarity_dimension(4, 10.0, 1000) > base
        assert complementarity_dimension(3, 11.0, 1000) > base
        assert complementarity_dimension(3, 10.0, 2000) > base

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            complementarity_dimension(3, 10.0, 0)
        with pytest.raises(ValueError):
            complementarity_dimension(3, -1.0, 10)


class TestPredictedGap:
    def test_reference_values(self):
        k = complementarity_dimension(3, 10.0, 26_000)
        gap = predicted_gap(k, 26_000)
        assert 0.028 <= math.sqrt(k / 26_000) <= 0.030
        assert gap.simple == pytest.approx(100 * math.sqrt(k / 26_000))
        assert gap.log_refined > gap.simple

    def test_zero_k(self):
        assert predicted_gap(0.0, 1000).simple == 0.0

    def test_vanishes_with_data(self):
        k = 22.0
        previous = predicted_gap(k, 100)
        for n in (10**4, 10**6, 10**8):
            current = predicted_gap(k, n)
            assert current.simple < previous.simple
            assert current.log_refined < previous.log_refined
            previous = current

    def test_monotone_in_k(self):
        assert predicted_gap(30.0, 1000).simple > predicted_gap(20.0, 1000).simple


class TestComplementarityFactor:
    def test_equal_deviations(self):
        for rho_hat in (0.0, 0.5, 1.0):
            assert complementarity_factor(0.7, 0.7, rho_hat) == pytest.approx(-2 * rho_hat)

    def test_direct_value(self):
        assert complementarity_factor(2.0, 1.0, 0.2) == pytest.approx(0.6)

    def test_invalid_deviation(self):
        with pytest.raises(ValueError):
            complementarity_factor(0.0, 1.0, 0.0)


class TestRegimes:
    def test_center_is_boundary(self):
        assert classify_regime(0.3) == "boundary"

    def test_clear_separation_is_interior(self):
        assert classify_regime(0.52) == "interior"

    def test_near_zero_default_vs_zero_centered(self):
        assert classify_regime(0.04) == "interior"
        zero_centered = TheoryConfig(boundary_center=0.0)
        assert classify_regime(0.04, zero_centered) == "boundary"

    def test_partition(self):
        for gamma in np.linspace(-2.5, 2.5, 101):
            assert classify_regime(float(gamma)) in ("interior", "boundary")

    def test_boundary_measure_counts(self):
        gammas = [0.3] * 9 + [2.0] * 41
        assert boundary_measure(gammas) == pytest.approx(9 / 50)
        assert boundary_measure([2.0, -3.0]) == 0.0
        assert boundary_measure([0.25, 0.35]) == 1.0
        with pytest.raises(ValueError):
            boundary_measure([])


class TestSlopeFit:
    def test_exact_inverse_sqrt(self):
        points = [(n, 3.0 * n**-0.5) for n in (100, 300, 1000, 3000, 10_000)]
        fit = fit_convergence_slope(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_exact_inverse_linear(self):
        points = [(n, 7.0 / n) for n in (50, 500, 5000)]
        assert fit_convergence_slope(points).slope == pytest.approx(-1.0, abs=1e-9)

    def test_noisy_powerlaw_within_three_stderr(self):
        rng = np.random.default_rng(14)
        for exponent in (-0.5, -0.8):
            ns = np.logspace(2, 5, 12)
            gaps = 2.0 * ns**exponent * np.exp(rng.normal(0.0, 0.05, size=ns.size))
            fit = fit_convergence_slope(list(zip(ns, gaps)))
            assert abs(fit.slope - exponent) <= 3 * fit.stderr + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_convergence_slope([(10, 1.0), (20, 0.5)])
        with pytest.raises(ValueError):
            fit_convergence_slope([(10, 1.0), (20, -0.5), (30, 0.2)])
        with pytest.raises(ValueError):
            fit_convergence_slope([(10, 1.0), (10, 0.5), (30, 0.2)])


class TestOracleHelpers:
    def test_vectorized_weights_match_scalar(self):
        rng = np.random.default_rng(15)
        st = rng.uniform(0.1, 2.0, size=50)
        sl = rng.uniform(0.1, 2.0, size=50)
        for rho in (0.0, 0.3):
            vec = oracle_weights(st, sl, rho)
            for i in range(50):
                assert vec[i] == pytest.approx(optimal_alpha(st[i], sl[i], rho), abs=1e-12)

    def test_expected_risk_at_oracle_weight_is_minimal(self):
        rng = np.random.default_rng(16)
        st = rng.uniform(0.1, 2.0, size=30)
        sl = rng.uniform(0.1, 2.0, size=30)
        rho = 0.2
        best = expected_weight_risk(oracle_weights(st, sl, rho), st, sl, rho)
        for g in (0.0, 0.25, 0.5, 0.75, 1.0):
            others = expected_weight_risk(np.full(30, g), st, sl, rho)
            assert np.all(best <= others + 1e-15)


class TestReferenceReport:
    def test_defaults(self):
        report = summarize_reference_point(26_000)
        assert 21.5 <= report.k <= 22.5
        assert 0.028 <= report.sqrt_k_over_n <= 0.030
        assert report.slope is None

    def test_gammas_from_simulated_pages(self):
        config = SimConfig(pages=40, emit_coordinate_variance=True, seed=17)
        pages = simulate_dataset(config)
        gammas = gammas_from_pages(pages)
        assert len(gammas) > 50
        # text-region variances are on the reciprocal-quality scale, so
        # the spread term dominates and every instance is far interior
        assert boundary_measure(gammas) == 0.0

    def test_gammas_require_variances(self):
        pages = simulate_dataset(SimConfig(pages=5, seed=18))
        with pytest.raises(ValueError):
            gammas_from_pages(pages)


class TestRegimeResiduals:
    def test_boundary_strictly_worse(self):
        task = GateTask(
            mixture=((0.7, 0.03, 0.03), (0.3, 0.039, 0.03)),
            p_t_range=(0.55, 0.9),
            s_l_range=(0.55, 0.9),
            synthetic_iou=(0.6, 0.95),
        )
        train = sample_gate_instances(task, 3000, seed=19)
        result = train_gate(train, GateTrainConfig(learning_rate=0.3, epochs=20, seed=2))
        heldout = sample_gate_instances(task, 6000, seed=20)
        residuals = regime_residual_analysis(heldout, result.params)
        assert residuals.boundary_mean > residuals.interior_mean
        assert residuals.separation_zscore > 3.0
        assert residuals.boundary_count + residuals.interior_count == 6000

    def test_single_regime_errors(self):
        task = GateTask(mixture=((1.0, 0.03, 0.03),), synthetic_iou=(0.6, 0.95))
        instances = sample_gate_instances(task, 500, seed=21)
        with pytest.raises(ValueError):
            regime_residual_analysis(instances, train_gate(
                instances, GateTrainConfig(epochs=1, seed=0), hidden=8
            ).params)


class TestExperiment:
    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            run_sample_complexity_experiment([100, 200, 300])

    def test_degenerate_task_rejects_slope(self):
        # Equal deviations everywhere: the optimal weight is 0.5 for
        # every instance and there is nothing to learn.
        task = GateTask(ratio_lo=1.0, ratio_hi=1.0)
        report = run_sample_complexity_experiment(
            [200, 400, 800, 1600], seeds=1, task=task, heldout=2000, hidden=8, master_seed=3
        )
        assert report.degenerate
        assert report.slope is None
        assert "degenerate" in report.note

    def test_small_experiment_structure(self):
        report = run_sample_complexity_experiment(
            [300, 600, 1200, 2400], seeds=2, heldout=3000, hidden=16, master_seed=4
        )
        assert len(report.cells) == 8
        assert not report.degenerate
        assert report.slope is not None
        assert report.slope < 0.0
        assert report.boundary_fraction > 0.0
        doc = report.to_dict()
        assert doc["n_reference"] == 2400
        assert len(doc["cells"]) == 8


class TestCorrelationProxies:
    def test_disagreement_indicator_values(self):
        from layoutfusion.theory import disagreement_indicator

        instances = sample_gate_instances(GateTask(), 50, seed=30)
        instances.teacher_correct[:10] = False  # text flags stay True
        rho_hat = disagreement_indicator(instances)
        assert rho_hat[:10].tolist() == [1.0] * 10
        assert rho_hat[10:].tolist() == [0.0] * 40

    def test_local_correlation_recovers_signal(self):
        from layoutfusion.theory import local_error_correlation

        rng = np.random.default_rng(31)
        n = 600
        features = rng.uniform(0, 1, size=(n, 3))
        # correlation rises with the first feature coordinate
        rho_true = 0.8 * features[:, 0]
        z = rng.standard_normal(n)
        err_t = np.sqrt(rho_true) * z + np.sqrt(1 - rho_true) * rng.standard_normal(n)
        err_l = np.sqrt(rho_true) * z + np.sqrt(1 - rho_true) * rng.standard_normal(n)
        estimate = local_error_correlation(features, err_t, err_l, neighbors=120)
        low = estimate[features[:, 0] < 0.25].mean()
        high = estimate[features[:, 0] > 0.75].mean()
        assert high > low + 0.2

    def test_local_correlation_validation(self):
        from layoutfusion.theory import local_error_correlation

        with pytest.raises(ValueError):
            local_error_correlation(np.zeros((5, 3)), np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            local_error_correlation(np.zeros((5, 3)), np.zeros(5), np.zeros(5), neighbors=2)

    def test_regime_analysis_accepts_override(self):
        task = GateTask(
            mixture=((0.7, 0.03, 0.03), (0.3, 0.039, 0.03)),
            synthetic_iou=(0.6, 0.95),
        )
        instances = sample_gate_instances(task, 800, seed=32)
        trained = train_gate(
            instances, GateTrainConfig(epochs=2, seed=1), hidden=8
        )
        override = np.zeros(len(instances))
        result = regime_residual_analysis(instances, trained.params, rho_hat=override)
        assert result.boundary_count + result.interior_count == 800
