"""Adaptive importance sampling with spiked Gaussian sampling laws.

The package splits into a numerical core (seeding, numerics, gauss_core),
the rare-event problem definitions (targets), the weighted estimators and
their diagnostics (estimators), the adaptive schemes themselves
(ce_schemes), the sample-size phase laboratory (phase_lab), and the
plotting plus command line layer (svg, config, cli).
"""
from .seeding import stream
from .numerics import (
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    cholesky,
    gamma_inverse_cdf,
    operator_norm_diff,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    sym_eigen_extremes,
)
from .gauss_core import (
    CollapsedEstimateError,
    GaussianLaw,
    SpikedCovariance,
    WeightedSample,
    log_density,
    log_likelihood_ratio,
    proj_r,
    sample,
)
from .targets import (
    AnalyticConditional,
    LimitState,
    benchmark_target,
    count_target,
    halfspace_target,
    linear_target,
    prop_range_width,
    quadratic_target,
    slab_target,
)
from .estimators import (
    DegenerateSampleError,
    ice_delta,
    indicator_delta,
    is_probability,
    max_weight_statistic,
    quantile_threshold,
    sigma_a_estimator,
    smooth_weighted_mean_cov,
    weighted_mean_cov,
)
from .ce_schemes import (
    IterationTrace,
    RunResult,
    SchemeConfig,
    deterministic_halfspace_path,
    optimize_bandwidth,
    run_scheme,
    select_direction,
)
from .phase_lab import (
    GammaEstimate,
    SweepConfig,
    SweepResult,
    build_alignment,
    estimate_gamma_star,
    kappa_conjecture_report,
    phase_sweep,
)
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AnalyticConditional",
    "CollapsedEstimateError",
    "ConfigError",
    "DegenerateSampleError",
    "DomainError",
    "ExperimentConfig",
    "GammaEstimate",
    "GaussianLaw",
    "IterationTrace",
    "LimitState",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "RunResult",
    "SchemeConfig",
    "SpikedCovariance",
    "SweepConfig",
    "SweepResult",
    "WeightedSample",
    "benchmark_target",
    "build_alignment",
    "cholesky",
    "count_target",
    "deterministic_halfspace_path",
    "estimate_gamma_star",
    "gamma_inverse_cdf",
    "halfspace_target",
    "ice_delta",
    "indicator_delta",
    "is_probability",
    "kappa_conjecture_report",
    "linear_target",
    "load_config",
    "log_density",
    "log_likelihood_ratio",
    "max_weight_statistic",
    "operator_norm_diff",
    "optimize_bandwidth",
    "phase_sweep",
    "proj_r",
    "prop_range_width",
    "quadratic_target",
    "quantile_threshold",
    "run_scheme",
    "sample",
    "select_direction",
    "sigma_a_estimator",
    "slab_target",
    "smooth_weighted_mean_cov",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "stream",
    "sym_eigen_extremes",
    "weighted_mean_cov",
]
