"""The closed-form path loads only the standard library.

Each check runs in a fresh interpreter, since this suite itself has long
loaded NumPy, SciPy and YAML by the time it gets here.
"""

import json
import os
import subprocess
import sys
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
