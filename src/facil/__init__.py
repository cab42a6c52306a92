"""Factored-space curation toolkit.

Build factor grids, curate demonstration datasets along weak compositions,
expand stage by stage into larger factor products, and analyze scaling and
compositional generalization, all against a deterministic synthetic oracle.
"""

from .analysis import (
    CompositionalityReport,
    ScalingFit,
    StrategyOutcome,
    baseline_sampler,
    compare_strategies,
    compositionality_check,
    fit_power_law,
    generalization_gap,
)
from .curation import (
    CurationStep,
    CurationTrace,
    aggregated_tensor,
    curate_expansion,
)
from .dataset import (
    Dataset,
    add_many,
    dataset_from_doc,
    dataset_to_csv,
    dataset_to_doc,
    marginal_counts,
    support_and_ratios,
)
from .flywheel import (
    BudgetReport,
    FlywheelConfig,
    IterationRecord,
    RunHistory,
    rollout_budget,
    run_flywheel,
    sequential_expansion,
)
from .oracle import (
    EvaluationReport,
    OracleParams,
    default_family,
    default_params,
    mapped_evaluation,
    ratio_guided_evaluation,
    simulate_evaluation,
    success_tensor,
)
from .orbit import (
    empirical_orbit,
    product_closure,
)
from .spaces import (
    Composition,
    FactorDimension,
    FactorSpace,
    Tensor,
    build_space,
    diagonal_init,
    preset_space,
    product_space,
    reduced_product,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetReport",
    "CompositionalityReport",
    "Composition",
    "CurationStep",
    "CurationTrace",
    "Dataset",
    "EvaluationReport",
    "FactorDimension",
    "FactorSpace",
    "FlywheelConfig",
    "IterationRecord",
    "OracleParams",
    "RunHistory",
    "ScalingFit",
    "StrategyOutcome",
    "Tensor",
    "add_many",
    "aggregated_tensor",
    "baseline_sampler",
    "build_space",
    "compare_strategies",
    "compositionality_check",
    "curate_expansion",
    "dataset_from_doc",
    "dataset_to_csv",
    "dataset_to_doc",
    "default_family",
    "default_params",
    "diagonal_init",
    "empirical_orbit",
    "fit_power_law",
    "generalization_gap",
    "mapped_evaluation",
    "marginal_counts",
    "preset_space",
    "product_closure",
    "product_space",
    "ratio_guided_evaluation",
    "reduced_product",
    "rollout_budget",
    "run_flywheel",
    "sequential_expansion",
    "simulate_evaluation",
    "success_tensor",
    "support_and_ratios",
]
