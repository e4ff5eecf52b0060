"""Produce a publication-style sweep table as CSV.

Sweeps the minimum spectral-efficiency demand, records the closed-form
average MSE and cloud-use probability with Monte Carlo cross-checks, and
writes the table to sweep_output.csv in the working directory.

Run:  python3 demos/sweep_to_csv.py
"""

import sys

from edgeprovision import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    SimSettings,
    SweepSpec,
    emit_csv,
    run_sweep,
)

spec = SweepSpec(
    base=Scenario(
        deployment=DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0),
        workload=InferenceWorkload(
            payload_bits=1.0,
            delay_budget=2.0,
            compute_delay=1.0,
            mse_cloud=1.0,
            mse_edge=1.5,
        ),
        air=AirInterface(bandwidth=1.0),
    ),
    axis="r_min",
    grid=(0.05, 0.1, 0.2, 0.4, 0.8, 1.6),
    outputs=("avg_mse", "cloud_use_prob"),
    sim=SimSettings(trials=500),  # simulate every grid point with these settings
)

result = run_sweep(spec)
emit_csv(result, "sweep_output.csv")
emit_csv(result, sys.stdout)
print("\nwrote sweep_output.csv (parse it back with edgeprovision.parse_csv)")
