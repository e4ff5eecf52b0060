"""Every exported name resolves, the demos import only names that exist,
and README's sweep-spec example loads.

The demos and README are not run by the suite, so this is what notices a
public name or a spec rule changed from under them.
"""

import ast
import importlib
from pathlib import Path

import pytest
import yaml

import edgeprovision
from edgeprovision.experiments import load_spec
from edgeprovision.geomsim import SimSettings

MODULES = ("analytic", "cli", "errors", "experiments", "geomsim", "numerics")
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"edgeprovision.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_resolve():
    names = edgeprovision.__all__
    assert [n for n in names if not hasattr(edgeprovision, n)] == []
    assert len(set(names)) == len(names)


def test_demos_import_existing_names():
    assert DEMOS
    for path in DEMOS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "edgeprovision":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edgeprovision":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{path.name} imports {missing} from {node.module}"


def test_readme_sweep_spec_example_loads(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Sweep spec files", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "sweep.yaml"
    path.write_text(example, encoding="utf-8")
    spec = load_spec(path)
    assert spec.axis == "lambda_hat" and len(spec.grid) == 31
    assert spec.outputs == ("avg_mse", "cloud_use_prob", "critical_density")
    assert spec.sim == SimSettings(trials=2000, master_seed=20260825)
    # PyYAML's pure-Python parser, the fallback without libyaml, agrees
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_spec(path) == spec
