"""Module boundaries: production modules never import the oracle module.

The oracles check the construction by independent routes, so the code they
check must not depend on them. The modules below are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

import ewlab

PACKAGE = Path(ewlab.__file__).parent
PRODUCTION = ("kernel", "linalg", "construct", "spectral_probe", "cli")


def imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_oracle(module):
    names = imported_modules(PACKAGE / f"{module}.py")
    assert "ewlab.oracle" not in names, f"ewlab.{module} imports ewlab.oracle"
