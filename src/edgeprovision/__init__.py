"""Provisioning toolkit for distributed edge/cloud inference over random
cellular deployments.

Closed-form accuracy/delay metrics and their inversions live in
:mod:`edgeprovision.analytic`; the Monte Carlo cross-check in
:mod:`edgeprovision.geomsim`; parameter sweeps and file formats in
:mod:`edgeprovision.experiments`; shared numeric helpers in
:mod:`edgeprovision.numerics`.
"""

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    asymptotic_mse,
    average_mse,
    cloud_use_probability,
    coverage_exponent,
    coverage_exponent_inverse,
    critical_ap_density,
    critical_edge_mse,
    delay_cdf,
    mean_cell_load,
    sinr_threshold,
)
from .errors import (
    BracketError,
    EdgeProvisionError,
    InfeasibleTargetError,
    ModelDomainError,
    SpecFileError,
    SpecValidationError,
)
from .experiments import (
    SimSettings,
    SweepResult,
    SweepRow,
    SweepSpec,
    emit_csv,
    load_spec,
    parse_csv,
    run_sweep,
)
from .geomsim import (
    CANONICAL_SEED,
    DiscWindow,
    SimConfig,
    SimSummary,
    TorusWindow,
    TrialRealization,
    canonical_validation_scenario,
    cloud_delay,
    delay_ks_statistic,
    run_loads,
    run_trials,
    run_validation,
    select_output,
    simulate_trial,
    uplink_rate,
)
from .numerics import EmpiricalCdf, RngStream, bisect_root

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # analytic
    "AirInterface",
    "DeploymentConfig",
    "InferenceWorkload",
    "Scenario",
    "asymptotic_mse",
    "average_mse",
    "cloud_use_probability",
    "coverage_exponent",
    "coverage_exponent_inverse",
    "critical_ap_density",
    "critical_edge_mse",
    "delay_cdf",
    "mean_cell_load",
    "sinr_threshold",
    # errors
    "BracketError",
    "EdgeProvisionError",
    "InfeasibleTargetError",
    "ModelDomainError",
    "SpecFileError",
    "SpecValidationError",
    # experiments
    "SimSettings",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "emit_csv",
    "load_spec",
    "parse_csv",
    "run_sweep",
    # geomsim
    "CANONICAL_SEED",
    "DiscWindow",
    "SimConfig",
    "SimSummary",
    "TorusWindow",
    "TrialRealization",
    "canonical_validation_scenario",
    "cloud_delay",
    "delay_ks_statistic",
    "run_loads",
    "run_trials",
    "run_validation",
    "select_output",
    "simulate_trial",
    "uplink_rate",
    # numerics
    "EmpiricalCdf",
    "RngStream",
    "bisect_root",
]
