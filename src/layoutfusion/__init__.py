"""Cross-modal pseudo-label fusion for document layout analysis.

A numpy library plus CLI covering: greedy IoU matching of two
prediction streams, closed-form probabilistic fusion (fixed, inverse
variance, optimal linear, logit-space confidence), temperature
calibration, a learned fusion gate with manual backprop, computable
sample-complexity diagnostics, evaluation statistics (AP, ECE, paired
t-test, TOST), a rule-based text-prior baseline, and the synthetic
simulator that serves as ground-truth oracle for all of it.
"""

# Set before the submodules load: manifest reads it as the artifact version.
__version__ = "0.1.0"

from .geometry import BoundingBox, giou, iou
from .taxonomy import DOCLAYNET, PUBLAYNET, TAXONOMIES, LayoutCategory, Taxonomy
from .model import (
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from .dataset_io import DatasetError, IngestStats, load_dataset, save_dataset
from .fusion import (
    FusionConfig,
    MatchOutcome,
    MatchResult,
    apply_temperature,
    compatible,
    fit_temperature,
    fuse_confidence_logit,
    fuse_fixed_box,
    fuse_inverse_variance,
    fused_variance,
    gate_samples_from_pages,
    llm_spatial_variance,
    match_regions,
    optimal_alpha,
    refine_pseudo_labels,
    resolve_category,
)
from .gating import (
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
from .curriculum import (
    CurriculumConfig,
    SchedulePhase,
    category_threshold,
    consistency_loss,
    ema_update,
    schedule,
    schedule_table,
    threshold_table,
)
from .metrics import (
    ApResult,
    Detection,
    EceResult,
    GroundTruthBox,
    TTestResult,
    TostResult,
    average_precision,
    ece,
    evaluate_pages,
    paired_t_test,
    significance_stars,
    tost,
)
from .simulator import (
    GateInstances,
    GateTask,
    SimConfig,
    default_asymmetric_config,
    generate_pages,
    monte_carlo_fusion_variance,
    sample_calibration_data,
    sample_gate_instances,
    simulate_dataset,
    simulate_predictions,
)
from .theory import (
    TheoryConfig,
    TheoryReport,
    boundary_measure,
    classify_regime,
    complementarity_dimension,
    complementarity_factor,
    fit_convergence_slope,
    predicted_gap,
    regime_residual_analysis,
    run_sample_complexity_experiment,
)
from .heuristics import HeuristicConfig, classify_block, detect_grid_alignment, heuristic_regions
