"""oddshift: effects of multiplying treatment odds in panels with dropout.

The library estimates the curve delta -> E[Y_t under an intervention that
multiplies every unit's odds of treatment by delta], from longitudinal
data with monotone dropout, using cross-fitted influence values with
pluggable nuisance learners, plus uncertainty bands, simulation
benchmarks, and analytic long-horizon efficiency bounds.
"""

from .efficiency import (
    EfficiencyReport,
    MomentSpec,
    base_factor,
    crossover_horizon_bound,
    decomposition_check,
    efficiency_curve,
    exact_variance,
    path_weight,
    trial_moments,
    truncated_normal_variance,
    variance_ratio_bounds,
)
from .errors import ConfigError, EstimationError, PanelDataError
from .estimator import (
    EffectEstimate,
    EifMatrix,
    complete_case_subset,
    eif_correction_terms,
    eif_from_arrays,
    eif_single_period,
    eif_values_for,
    estimate_complete_case,
    estimate_cross_fit,
    estimate_ipw,
    estimate_no_censoring,
    estimate_plugin,
)
from .inference import ConfidenceBand, estimate_variance, pointwise_interval, uniform_band
from .intervention import DeltaGrid, default_grid, density_ratio, incremental_propensity
from .learners import FittedModel, LearnerSpec, fit_learner
from .nuisance import (
    NuisanceSet,
    NuisanceSpecs,
    fit_missingness_sequence,
    fit_propensity_sequence,
    fit_pseudo_outcome_sequence,
    fit_nuisances,
)
from .panel import (
    FoldAssignment,
    PanelDataset,
    history_features,
    load_long_csv,
    split_folds,
    validate_monotonicity,
    write_long_csv,
)
from .simulation import (
    BenchmarkResult,
    DgpConfig,
    exact_effect_curve,
    normalized_rmse,
    oracle_specs,
    relative_efficiency_mc,
    run_benchmark,
    simulate,
    true_effect_curve,
    true_propensities,
)

__version__ = "0.1.0"
