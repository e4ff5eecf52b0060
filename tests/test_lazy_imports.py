"""The closed-form path loads only the standard library, an analytic sweep
only YAML besides, and the simulator loads YAML and the process-pool modules
only where they run.

Each check runs in a fresh interpreter, since this suite itself has long
loaded NumPy, SciPy and YAML by the time it gets here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import edgeprovision

SRC = str(Path(edgeprovision.__file__).resolve().parent.parent)
HEAVY = "{m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy', 'yaml')}"


def run_fresh(code: str, *argv: str) -> tuple[int, str]:
    """Exit code and last stdout line of ``python -c code argv...``."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.stderr == ""
    return proc.returncode, proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["avg-mse"],
        ["asymptotic-mse"],
        ["delay-cdf", "--d", "0.5"],
        ["cloud-prob"],
        ["critical-density", "--mt", "1.4"],
        ["critical-edge-mse", "--mt", "1.2"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_form_command_loads_no_numpy_scipy_or_yaml(argv):
    code, last = run_fresh(
        "import json, sys\n"
        "from edgeprovision.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps(sorted({HEAVY})))\n"
        "sys.exit(code)\n",
        *argv,
        "--json",
    )
    assert code == 0
    assert json.loads(last) == []


def test_package_import_loads_no_numpy_scipy_or_yaml():
    code, last = run_fresh(
        "import json, sys, types\n"
        "import edgeprovision\n"
        f"heavy = sorted({HEAVY})\n"
        "assert isinstance(edgeprovision.geomsim, types.ModuleType)\n"
        "assert edgeprovision.run_trials is edgeprovision.geomsim.run_trials\n"
        "print(json.dumps(heavy))\n"
    )
    assert code == 0
    assert json.loads(last) == []


ANALYTIC_SPEC = """
    deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
    workload: {q: 1.0e6, d_t: 0.06, d_c: 0.01, m_c: 1.0}
    air: {b: 1.6e8}
    sweep:
      axis: lambda_hat
      range: {lo: 0.1, hi: 100, n: 4, scale: log}
      outputs: [avg_mse, critical_density, delay_cdf_at]
      mse_target: 1.05
      simulate: false
"""


def test_analytic_sweep_loads_yaml_but_no_numpy_or_scipy(tmp_path):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(textwrap.dedent(ANALYTIC_SPEC), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code, last = run_fresh(
        "import json, sys\n"
        "from edgeprovision.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps(sorted({{m.partition('.')[0] for m in {HEAVY}}})))\n"
        "sys.exit(code)\n",
        "sweep",
        "--spec",
        str(spec),
        "--out",
        str(out),
    )
    assert code == 0
    assert json.loads(last) == ["yaml"]
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 4 * 3


# Modules only a spec file or a process pool needs.
ON_DEMAND = "sorted(m for m in ('yaml', 'concurrent.futures.process', 'multiprocessing') if m in sys.modules)"


def test_simulator_loads_yaml_and_pool_modules_only_where_they_run(tmp_path):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(textwrap.dedent(ANALYTIC_SPEC), encoding="utf-8")
    code, last = run_fresh(
        "import json, sys\n"
        "from edgeprovision import experiments, geomsim\n"
        f"steps = [{ON_DEMAND}]\n"
        "scenario = geomsim.canonical_validation_scenario()\n"
        "geomsim.run_trials(geomsim.SimConfig(scenario=scenario, trials=2), workers=1)\n"
        f"steps.append({ON_DEMAND})\n"
        "experiments.load_spec(sys.argv[1])\n"
        f"steps.append({ON_DEMAND})\n"
        "print(json.dumps(steps))\n",
        str(spec),
    )
    assert code == 0
    assert json.loads(last) == [[], [], ["yaml"]]
