"""Every exported name resolves, and the demos import only names that exist.

The demos are not run by the suite, so this is what notices a public name
removed from under them.
"""

import ast
import importlib
from pathlib import Path

import pytest

import edgeprovision

MODULES = ("analytic", "cli", "errors", "experiments", "geomsim", "numerics")
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
