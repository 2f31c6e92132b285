"""Computable sample-complexity diagnostics for learned fusion.

Everything here is validated numerically against the simulator, where
the per-instance noise parameters are known exactly:

* the complementarity dimension k and the generalization gap it
  predicts (two published variants of the constant are both reported);
* the complementarity factor separating instances with a clearly better
  source ("interior") from ambiguous ones ("boundary");
* an empirical convergence-rate experiment: train the gate on growing
  sample sizes, measure the excess risk over the per-instance optimal
  weight, and regress log-gap on log-n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .fusion import FusionConfig, llm_spatial_variance, match_regions, optimal_weights
from .gating import GateParams, GateTrainConfig, gate_forward_batch, train_gate
from .schema import check_fields
from .simulator import GateInstances, GateTask, sample_gate_instances
from .taxonomy import DOCLAYNET, Taxonomy

__all__ = [
    "TheoryConfig",
    "Experiment",
    "GapPrediction",
    "SlopeFit",
    "ExperimentCell",
    "TheoryReport",
    "RegimeResiduals",
    "complementarity_dimension",
    "predicted_gap",
    "complementarity_factor",
    "boundary_measure",
    "fit_convergence_slope",
    "expected_weight_risk",
    "run_sample_complexity_experiment",
    "regime_residual_analysis",
    "summarize_reference_point",
    "gammas_from_pages",
    "disagreement_indicator",
]

# Learnable headroom (constant-gate risk minus oracle risk), relative
# to the oracle risk, below which the slope fit is meaningless: the
# oracle is already matched by doing nothing.
_DEGENERATE_REL_HEADROOM = 1e-3


@dataclass(frozen=True)
class TheoryConfig:
    dim_psi: int = 3
    lipschitz_scale: float = 10.0
    delta: float = 0.05
    boundary_center: float = 0.3
    boundary_half_width: float = 0.2
    gap_constant: float = 1.0
    ap_scale: float = 100.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dim_psi < 1:
            raise ValueError("dim_psi must be >= 1")
        if self.lipschitz_scale < 0.0:
            raise ValueError("lipschitz_scale must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.boundary_half_width <= 0.0:
            raise ValueError("boundary_half_width must be positive")


@dataclass(frozen=True)
class Experiment:
    """The ``theory`` experiment block: the training-set sizes, the gates
    trained per size, the held-out instances the gap is measured on and
    the gate's hidden width."""

    n_grid: tuple[int, ...] = (500, 1000, 2000, 4000, 8000, 16000, 32000)
    seeds: int = 3
    heldout: int = 20_000
    hidden: int = 32

    def __post_init__(self) -> None:
        check_fields(self)
        sizes = sorted(self.n_grid)
        if len(sizes) < 4 or len(set(sizes)) < len(sizes) or sizes[0] < 100:
            raise ValueError(f"n_grid={sizes} must hold at least 4 distinct sizes, each >= 100 (train_gate's minimum)")
        if self.seeds < 1:
            raise ValueError(f"seeds={self.seeds} must be >= 1: with no cells there is no slope to fit")
        if self.heldout < 1:
            raise ValueError(f"heldout={self.heldout} must be >= 1: the gap is a mean over held-out instances")
        if self.hidden < 1:
            raise ValueError(f"hidden={self.hidden} must be >= 1")


def complementarity_dimension(dim_psi: int, lipschitz_scale: float, n: int) -> float:
    """dim * ln(1 + scale * sqrt(n)); natural log throughout."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if lipschitz_scale < 0.0:
        raise ValueError("lipschitz_scale must be >= 0")
    return dim_psi * math.log1p(lipschitz_scale * math.sqrt(n))


@dataclass(frozen=True)
class GapPrediction:
    """Both published forms of the predicted generalization gap.

    ``simple`` = scale * C * sqrt(k/n); ``log_refined`` additionally
    carries the ln(n/delta) factor. The two disagree in the literature
    this follows, so both are always reported.
    """

    simple: float
    log_refined: float


def predicted_gap(k: float, n: int, config: TheoryConfig = TheoryConfig()) -> GapPrediction:
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0.0:
        raise ValueError("k must be >= 0")
    scale = config.ap_scale * config.gap_constant
    simple = scale * math.sqrt(k / n)
    log_refined = scale * math.sqrt(k * math.log(n / config.delta) / n)
    return GapPrediction(simple=simple, log_refined=log_refined)


def complementarity_factor(sigma_t, sigma_l, rho_hat):
    """|sigma_t - sigma_l| / min(sigma_t, sigma_l) - 2 * rho_hat, elementwise."""
    sigma_t = np.asarray(sigma_t, dtype=np.float64)
    sigma_l = np.asarray(sigma_l, dtype=np.float64)
    smaller = np.minimum(sigma_t, sigma_l)
    if np.any(smaller <= 0.0):
        raise ValueError("deviations must be positive")
    return np.abs(sigma_t - sigma_l) / smaller - 2.0 * rho_hat


def _in_band(gammas, config: TheoryConfig) -> np.ndarray:
    """The boundary band test: |gamma - center| <= half width, elementwise."""
    return np.abs(np.asarray(gammas, dtype=np.float64) - config.boundary_center) <= config.boundary_half_width


def boundary_measure(gammas: Iterable[float], config: TheoryConfig = TheoryConfig()) -> float:
    flags = _in_band(list(gammas), config)
    if not flags.size:
        raise ValueError("need at least one complementarity factor")
    return int(np.count_nonzero(flags)) / flags.size


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


def fit_convergence_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """OLS of ln(gap) on ln(n); returns the slope and its standard error."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([p[0] for p in points], dtype=np.float64)
    gaps = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(gaps <= 0.0):
        raise ValueError("gaps must be positive for a log-log fit")
    if len(set(ns.tolist())) != len(ns):
        raise ValueError("sample sizes must be distinct (aggregate repeated cells first)")
    x = np.log(ns)
    y = np.log(gaps)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    residuals = y - (intercept + slope * x)
    dof = len(points) - 2
    sigma2 = float(np.sum(residuals**2) / dof) if dof > 0 else 0.0
    return SlopeFit(slope=slope, stderr=math.sqrt(sigma2 / sxx))


def expected_weight_risk(weights, sigma_t, sigma_l, rho: float) -> np.ndarray:
    """Expected squared coordinate error of a weight-g fused estimate."""
    g = np.asarray(weights, dtype=np.float64)
    sigma_t = np.asarray(sigma_t, dtype=np.float64)
    sigma_l = np.asarray(sigma_l, dtype=np.float64)
    return g**2 * sigma_t**2 + (1.0 - g) ** 2 * sigma_l**2 + 2.0 * g * (1.0 - g) * rho * sigma_t * sigma_l


@dataclass(frozen=True)
class ExperimentCell:
    n: int
    seed: int
    gap: float


@dataclass
class TheoryReport:
    k: float
    sqrt_k_over_n: float
    predicted_gap_simple: float
    predicted_gap_log_refined: float
    boundary_fraction: float
    n_reference: int
    slope: float | None = None
    slope_stderr: float | None = None
    cells: list[ExperimentCell] = field(default_factory=list)
    degenerate: bool = False
    note: str = ""
    calibrated_constant: float | None = None
    bound_holds_with_calibrated_constant: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def disagreement_indicator(instances: GateInstances) -> np.ndarray:
    """The correlation proxy: 1 when exactly one source got the
    category right, else 0.

    Instances from ``simulator.sample_gate_instances`` mark both sources
    correct, so on them the indicator is 0 throughout.
    """
    return (instances.teacher_correct != instances.llm_correct).astype(np.float64)


def summarize_reference_point(n: int, config: TheoryConfig = TheoryConfig()) -> TheoryReport:
    """k and the gap predictions at one reference sample size; the
    boundary fraction is 0.0 until a caller measures it."""
    k = complementarity_dimension(config.dim_psi, config.lipschitz_scale, n)
    gaps = predicted_gap(k, n, config)
    return TheoryReport(
        k=k,
        sqrt_k_over_n=math.sqrt(k / n),
        predicted_gap_simple=gaps.simple,
        predicted_gap_log_refined=gaps.log_refined,
        boundary_fraction=0.0,
        n_reference=n,
    )


def run_sample_complexity_experiment(
    experiment: Experiment = Experiment(),
    task: GateTask = GateTask(),
    train_config: GateTrainConfig | None = None,
    config: TheoryConfig = TheoryConfig(),
    master_seed: int = 0,
) -> TheoryReport:
    """Train gates on growing subsets and fit the convergence slope.

    The gap per cell is the held-out excess expected risk of the
    trained gate over the per-instance optimal weight, computed in
    closed form from the true noise parameters (this is the one setting
    where the oracle is exactly known). Near-zero gaps mean there was
    nothing to learn; the slope fit is then rejected with a note.
    """
    n_grid = sorted(experiment.n_grid)
    if train_config is None:
        # Single-pass SGD: every cell sees its data exactly once, so the
        # excess risk tracks the statistical budget rather than an
        # optimization schedule.
        train_config = GateTrainConfig(learning_rate=2.25, epochs=1, batch_size=32)

    heldout_instances = sample_gate_instances(task, experiment.heldout, seed=(master_seed, 10**6))
    alpha_star = optimal_weights(heldout_instances.sigma_t, heldout_instances.sigma_l, task.rho)
    oracle_risk = expected_weight_risk(
        alpha_star, heldout_instances.sigma_t, heldout_instances.sigma_l, task.rho
    )
    mean_oracle_risk = float(oracle_risk.mean())
    constant_risk = expected_weight_risk(
        np.full(experiment.heldout, 0.5), heldout_instances.sigma_t, heldout_instances.sigma_l, task.rho
    )
    headroom = float((constant_risk - oracle_risk).mean())

    cells: list[ExperimentCell] = []
    for n in n_grid:
        for s in range(experiment.seeds):
            instances = sample_gate_instances(task, n, seed=(master_seed, n, s))
            cell_seed = int(np.random.default_rng((master_seed, n, s, 1)).integers(2**31 - 1))
            cell_train = replace(train_config, seed=cell_seed)
            result = train_gate(instances, cell_train, hidden=experiment.hidden)
            g = gate_forward_batch(result.params, heldout_instances.features)
            risk = expected_weight_risk(
                g, heldout_instances.sigma_t, heldout_instances.sigma_l, task.rho
            )
            cells.append(ExperimentCell(n=n, seed=s, gap=float(np.mean(risk - oracle_risk))))

    n_reference = n_grid[-1]
    report = summarize_reference_point(n_reference, config)
    report.cells = cells
    gammas = complementarity_factor(
        heldout_instances.sigma_t, heldout_instances.sigma_l, disagreement_indicator(heldout_instances)
    )
    report.boundary_fraction = boundary_measure(gammas, config)

    mean_gaps = {n: float(np.mean([c.gap for c in cells if c.n == n])) for n in n_grid}
    no_learning = headroom < _DEGENERATE_REL_HEADROOM * max(mean_oracle_risk, 1e-300)
    if no_learning or any(g <= 0.0 for g in mean_gaps.values()):
        report.degenerate = True
        report.note = "degenerate gaps: oracle already matched, slope fit rejected"
        return report

    fit = fit_convergence_slope([(n, mean_gaps[n]) for n in n_grid])
    report.slope = fit.slope
    report.slope_stderr = fit.stderr

    k_min = complementarity_dimension(config.dim_psi, config.lipschitz_scale, n_grid[0])
    k_max = complementarity_dimension(config.dim_psi, config.lipschitz_scale, n_grid[-1])
    c_cal = mean_gaps[n_grid[0]] / math.sqrt(k_min / n_grid[0])
    bound_at_max = c_cal * math.sqrt(k_max / n_grid[-1])
    report.calibrated_constant = c_cal
    report.bound_holds_with_calibrated_constant = bool(mean_gaps[n_grid[-1]] <= bound_at_max)
    return report


@dataclass
class RegimeResiduals:
    boundary_mean: float
    interior_mean: float
    boundary_se: float
    interior_se: float
    boundary_count: int
    interior_count: int

    @property
    def separation_zscore(self) -> float:
        return (self.boundary_mean - self.interior_mean) / math.sqrt(
            self.boundary_se**2 + self.interior_se**2
        )


def gammas_from_pages(
    pages, fusion_config: FusionConfig = FusionConfig(), taxonomy: Taxonomy = DOCLAYNET
) -> list[float]:
    """Per-instance complementarity factors from a dataset's matched pairs.

    Teacher deviation comes from the stored coordinate variance, text
    deviation from the evidence qualities, and the correlation proxy is
    the category-disagreement indicator. Pairs without a teacher
    variance are skipped; no usable pair at all is an error.
    """
    rows: list[tuple[float, float, float]] = []
    for page in pages:
        outcome = match_regions(page.teacher, page.llm, fusion_config, taxonomy)
        for match in outcome.matches:
            pred = page.teacher[match.teacher_index]
            region = page.llm[match.llm_index]
            if pred.coordinate_variance is None or pred.coordinate_variance <= 0.0:
                continue
            sigma_t = math.sqrt(pred.coordinate_variance)
            sigma_l = math.sqrt(llm_spatial_variance(region.q_text, region.q_spatial))
            rows.append((sigma_t, sigma_l, 0.0 if pred.category.name == region.category.name else 1.0))
    if not rows:
        raise ValueError("no matched pairs with coordinate variances; cannot compute factors")
    return complementarity_factor(*np.array(rows).T).tolist()


def regime_residual_analysis(
    instances: GateInstances,
    params: GateParams,
    config: TheoryConfig = TheoryConfig(),
) -> RegimeResiduals:
    """Excess fusion risk of a trained gate, split by regime.

    The residual per instance is the gate's expected risk minus the
    per-instance oracle's, both in closed form. The boundary band should
    carry strictly more residual: the optimal weight is ambiguous there.
    The correlation proxy is ``disagreement_indicator``.
    """
    g = gate_forward_batch(params, instances.features)
    alpha_star = optimal_weights(instances.sigma_t, instances.sigma_l, instances.rho)
    residual = expected_weight_risk(
        g, instances.sigma_t, instances.sigma_l, instances.rho
    ) - expected_weight_risk(alpha_star, instances.sigma_t, instances.sigma_l, instances.rho)
    rho_hat = disagreement_indicator(instances)
    in_band = _in_band(complementarity_factor(instances.sigma_t, instances.sigma_l, rho_hat), config)
    if not np.any(in_band) or np.all(in_band):
        raise ValueError("need instances in both regimes to compare residuals")
    boundary = residual[in_band]
    interior = residual[~in_band]
    return RegimeResiduals(
        boundary_mean=float(boundary.mean()),
        interior_mean=float(interior.mean()),
        boundary_se=float(boundary.std(ddof=1) / math.sqrt(boundary.size)),
        interior_se=float(interior.std(ddof=1) / math.sqrt(interior.size)),
        boundary_count=int(boundary.size),
        interior_count=int(interior.size),
    )
