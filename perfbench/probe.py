"""Fresh-interpreter probes started by ``run.py``.

``probe.py setup <workload> <seed> <workdir>`` imports the package and builds
the workload's inputs, then exits; its parent times it from spawn to exit.

``probe.py imports`` imports the package's modules one at a time in
dependency order, without running the package ``__init__`` (which would
import them all at once), and prints the milliseconds each import took.
"""

import importlib
import json
import sys
import time
import types
from pathlib import Path


def imports() -> None:
    pkg_dir = Path(__file__).resolve().parent.parent / "src" / "edgeprovision"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"no package source at {pkg_dir}")
    pkg = types.ModuleType("edgeprovision")
    pkg.__path__ = [str(pkg_dir)]
    sys.modules["edgeprovision"] = pkg
    ms = {}
    for layer in ("analytic", "geomsim", "experiments", "cli"):
        t0 = time.perf_counter()
        importlib.import_module(f"edgeprovision.{layer}")
        ms[layer] = (time.perf_counter() - t0) * 1e3
    print(json.dumps(ms))


def setup(workload: str, seed: int, workdir: str) -> None:
    import workloads

    workloads.WORKLOADS[workload](seed, Path(workdir))


if __name__ == "__main__":
    if sys.argv[1:2] == ["imports"]:
        imports()
    else:
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
