"""SHA-256 fingerprints of the package's seeded outputs.

``OUTPUTS`` maps a name to a function returning the bytes of one output:
the ``validate --trials 300`` report as text and as JSON, short simulated
sweep CSVs, ``run_trials`` summaries, ``run_loads`` arrays, every field of
``simulate_trial`` realizations, the CSVs of the benchmark's 24
analytic-only ``provision`` sweeps, and those of its four base-0 sweeps
at ``snr: 1`` (the closed forms' noise term). ``tests/fingerprints.json``
holds their digests with the Python, NumPy and SciPy versions that made
them, and ``test_fingerprints.py`` recomputes every one. A change that
keeps seeded outputs byte-identical leaves the fixture as it is.

Regenerate the fixture (only when an output is meant to change) with

    PYTHONPATH=src python tests/make_fingerprints.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from edgeprovision import cli
from edgeprovision.analytic import DeploymentConfig
from edgeprovision.experiments import SweepSpec, emit_csv, load_spec, run_sweep
from edgeprovision.geomsim import (
    SimConfig,
    SimSettings,
    canonical_validation_scenario,
    run_loads,
    run_trials,
    simulate_trial,
)

FIXTURE = Path(__file__).resolve().parent / "fingerprints.json"
ROOT = Path(__file__).resolve().parent.parent


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _cfg(lambda_hat: float = 1.0, **settings) -> SimConfig:
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0 / lambda_hat)
    scenario = replace(canonical_validation_scenario(), deployment=dep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimConfig(scenario=scenario, **settings)


def _validate(*flags: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["validate", "--trials", "300", *flags])
    return out.getvalue().encode()


def _sweep(workers: int, **settings) -> bytes:
    spec = SweepSpec(
        base=canonical_validation_scenario(),
        axis="lambda_hat",
        grid=(0.1, 1.0, 10.0, 1000.0),
        outputs=("avg_mse", "cloud_use_prob", "delay_cdf_at"),
        sim=SimSettings(trials=12, master_seed=5, **settings),
    )
    buf = io.StringIO()
    emit_csv(run_sweep(spec, workers=workers), buf)
    return buf.getvalue().encode()


def _summary(cfg: SimConfig) -> bytes:
    s = run_trials(cfg)
    scalars = (s.cloud_use_fraction, s.mse_estimate, s.mean_load, s.trial_count)
    return s.delay_samples.sorted_samples.tobytes() + repr(scalars).encode()


def _loads(cfg: SimConfig) -> bytes:
    return run_loads(cfg).tobytes()


def _realizations(cfg: SimConfig, indices) -> bytes:
    parts = []
    for i in indices:
        r = simulate_trial(cfg, i)
        for f in fields(r):
            v = getattr(r, f.name)
            if isinstance(v, np.ndarray):
                parts.append(f"{f.name} {v.dtype} {v.shape}".encode() + v.tobytes())
            else:
                parts.append(f"{f.name} {v!r}".encode())
    return b"\n".join(parts)


def _provision(prefix: str = "", snr: str = "inf") -> bytes:
    # the specs of the benchmark's provision workload whose names start with
    # ``prefix``, at ``air.snr`` = ``snr`` (loading it puts the checkout's src
    # first on sys.path, which is put back after)
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_pb_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    saved_path, sys.modules[spec.name] = list(sys.path), workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path[:] = saved_path
        del sys.modules[spec.name]
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in workloads.provision_specs():
            if not name.startswith(prefix):
                continue
            path = Path(tmp) / f"{name}.yaml"
            path.write_text(text.replace("snr: inf", f"snr: {snr}"), encoding="utf-8")
            buf = io.StringIO()
            emit_csv(run_sweep(load_spec(path)), buf)
            parts.append(name.encode() + b"\n" + buf.getvalue().encode())
    return b"".join(parts)


_SIM_MODES = {
    "torus": {},
    "disc": {"boundary": "disc"},
    "torus_8db": {"shadowing_sigma_db": 8.0},
    "disc_8db": {"boundary": "disc", "shadowing_sigma_db": 8.0},
    "no_full_buffer": {"full_buffer": False},
    "realized": {"load_model": "realized"},
}

OUTPUTS = {
    "validate_300_text": _validate,
    "validate_300_json": lambda: _validate("--json"),
}
for _workers in (1, 2):
    for _name, _settings in (
        ("torus", {}),
        ("disc", {"boundary": "disc"}),
        ("disc_8db", {"boundary": "disc", "shadowing_sigma_db": 8.0}),
    ):
        OUTPUTS[f"sweep_{_name}_workers{_workers}"] = (
            lambda w=_workers, s=_settings: _sweep(w, **s)
        )
for _name, _settings in (
    ("no_full_buffer", {"full_buffer": False}),
    ("realized", {"load_model": "realized"}),
):
    OUTPUTS[f"run_trials_{_name}"] = (
        lambda s=_settings: _summary(_cfg(window_radius=5.0, trials=40, master_seed=11, **s))
    )
for _lh in (0.1, 1.0, 1000.0):
    for _sigma in (None, 8.0):
        OUTPUTS[f"run_loads_lh{_lh:g}_{'8db' if _sigma else 'plain'}"] = (
            lambda lh=_lh, sg=_sigma: _loads(
                _cfg(lh, window_radius=4.0, trials=30, master_seed=13, shadowing_sigma_db=sg)
            )
        )
for _name, _settings in _SIM_MODES.items():
    for _lh in (0.1, 1.0, 1000.0):
        OUTPUTS[f"simulate_trial_{_name}_lh{_lh:g}"] = (
            lambda lh=_lh, s=_settings: _realizations(
                _cfg(lh, window_radius=4.0, trials=10, master_seed=17, **s), (0, 3, 9)
            )
        )
for _name, _settings in (
    ("torus", {"window_radius": 1.5}),
    ("disc", {"boundary": "disc", "window_radius": 2.0}),
):
    # windows of about 9 and 12.6 expected APs: most trials hold 12 APs or fewer
    OUTPUTS[f"simulate_trial_{_name}_few_aps"] = (
        lambda s=_settings: _realizations(_cfg(trials=40, master_seed=19, **s), range(0, 40, 5))
    )
OUTPUTS["provision_csvs"] = _provision
OUTPUTS["provision_base0_snr1_csvs"] = lambda: _provision("base0.", "1")


def digest(name: str) -> str:
    return hashlib.sha256(OUTPUTS[name]()).hexdigest()


def main() -> None:
    fixture = {"versions": versions(), "outputs": {name: digest(name) for name in OUTPUTS}}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(OUTPUTS)} fingerprints to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
