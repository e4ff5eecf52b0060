"""Provisioning toolkit for distributed edge/cloud inference over random
cellular deployments.

Closed-form accuracy/delay metrics and their inversions live in
:mod:`edgeprovision.analytic`; the Monte Carlo cross-check in
:mod:`edgeprovision.geomsim`; parameter sweeps and file formats in
:mod:`edgeprovision.experiments`; shared numeric helpers in
:mod:`edgeprovision.numerics`.

Exports and submodules are imported on first access (PEP 562), so
``import edgeprovision`` and the closed forms load only the standard
library; NumPy, SciPy and YAML load with the simulator and the spec reader.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "analytic": (
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
    ),
    "errors": (
        "BracketError",
        "EdgeProvisionError",
        "InfeasibleTargetError",
        "ModelDomainError",
        "SpecFileError",
        "SpecValidationError",
    ),
    "experiments": (
        "SweepResult",
        "SweepRow",
        "SweepSpec",
        "emit_csv",
        "load_spec",
        "parse_csv",
        "run_sweep",
    ),
    "geomsim": (
        "CANONICAL_SEED",
        "DiscWindow",
        "SimConfig",
        "SimSettings",
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
    ),
    "numerics": ("EmpiricalCdf", "RngStream", "bisect_root"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
