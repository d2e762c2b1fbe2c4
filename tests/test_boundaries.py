"""Module boundaries: production modules never import the oracle module.

The oracles check the construction by independent routes, so the code they
check must not depend on them, and the quadrature and RK4 oracles take
nothing from it but sampled data. Every public name of a production module
is used somewhere in the package, not only by tests. The modules are parsed,
not imported.
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


# The Gram quadrature and the RK4 shooting oracle with their helpers: they
# may take V and the initial frame from sample_grid, and call no other
# function of the code they check.
INDEPENDENT = ("quadrature_gram", "_gauss_legendre", "_halving_ratio",
               "_rk4_increment", "_compose", "_rk4_trajectory",
               "shooting_compare")


def defined_functions(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_quadrature_and_rk4_call_only_sample_grid_of_the_checked_code():
    checked = (defined_functions(PACKAGE / "kernel.py")
               | defined_functions(PACKAGE / "construct.py"))
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    assert set(INDEPENDENT) <= set(bodies)
    for name in INDEPENDENT:
        used = set()
        for node in ast.walk(bodies[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert used & checked <= {"sample_grid"}, name


def _used_names(node: ast.AST, skip: str) -> set:
    """Names and attributes used under node, outside any def or class skip."""
    if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name == skip):
        return set()
    used = set()
    if isinstance(node, ast.Name):
        used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, skip)
    return used


def public_names(path: Path) -> list:
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("module", PRODUCTION)
def test_public_names_are_used_in_the_package(module):
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    unused = [name for name in public_names(PACKAGE / f"{module}.py")
              if not any(name in _used_names(tree, name) for tree in trees)]
    assert unused == [], f"ewlab.{module} exports names only tests reach"


def test_cli_leaves_blocking_to_sample_blocks():
    # construct.sample_blocks is the one loop that cuts radii into blocks;
    # the CLI consumes its blocks and never sizes them itself
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert {name for name in names if name == "BLOCK_BYTES"
            or "block_len" in name.lower()} == set()


@pytest.mark.parametrize("module", ("construct", "oracle"))
def test_finite_difference_steps_are_not_parameters(module):
    # a convergence check fixes its steps h and h/2 itself and returns the
    # defect at h with its halving ratio, so no public function takes h
    path = PACKAGE / f"{module}.py"
    public = set(public_names(path))
    takes_h = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            args = node.args
            if "h" in {a.arg for a in (args.posonlyargs + args.args
                                       + args.kwonlyargs)}:
                takes_h.append(node.name)
    assert takes_h == [], f"ewlab.{module} functions take a step h"
