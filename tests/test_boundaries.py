"""Module boundaries: production modules never import the oracle module.

The oracles check the construction by independent routes, so the code they
check must not depend on them, and the quadrature and RK4 oracles take
nothing from it but sampled data. Every public name of a module is used
somewhere in the package, not only by tests, and so is every
defaulted parameter of a public function. The modules are parsed,
not imported, except by the import guards at the end, which run the CLI in
a fresh interpreter and read its sys.modules.
"""

import ast
import json
import os
import subprocess
import sys
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


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore is its module's own business
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "ewlab"):
                reached += [f"{path.stem}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.startswith("__")]
    assert reached == []


# The Gram quadrature and the RK4 shooting oracle with their helpers: they
# may take V and the initial frame from sample_blocks, and call no other
# function of the code they check.
INDEPENDENT = ("quadrature_gram", "_gauss_legendre", "_halving_ratio",
               "_rk4_increment", "_compose", "_rk4_trajectory",
               "shooting_compare")


def defined_functions(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_quadrature_and_rk4_call_only_sample_blocks_of_the_checked_code():
    checked = (defined_functions(PACKAGE / "kernel.py")
               | defined_functions(PACKAGE / "construct.py"))
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(INDEPENDENT) <= set(bodies)
    for name in INDEPENDENT:
        used = set()
        for node in ast.walk(bodies[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert used & checked <= {"sample_blocks"}, name


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


@pytest.mark.parametrize("module", PRODUCTION + ("oracle", "verify"))
def test_public_names_are_used_in_the_package(module):
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    unused = [name for name in public_names(PACKAGE / f"{module}.py")
              if not any(name in _used_names(tree, name) for tree in trees)]
    assert unused == [], f"ewlab.{module} exports names only tests reach"


def _defaulted_parameters(func: ast.FunctionDef) -> list:
    """(name, position) of each parameter of func with a default; a
    keyword-only one has position None."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, default
               in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _passes(call: ast.Call, func: str, name: str, position) -> bool:
    """Whether call calls func and passes its parameter name."""
    callee = call.func
    called = (callee.id if isinstance(callee, ast.Name) else
              callee.attr if isinstance(callee, ast.Attribute) else None)
    return called == func and (
        any(k.arg == name for k in call.keywords)
        or (position is not None and len(call.args) > position))


def test_defaulted_parameters_are_passed_in_the_package():
    # a default that no call in the package overrides is a path that no
    # command takes; cli.main, the console script, is called from outside
    # the package, which passes its argv
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    never = []
    for module, tree in trees.items():
        public = set(public_names(PACKAGE / f"{module}.py"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                never += [f"{module}.{node.name}: {name}"
                          for name, position in _defaulted_parameters(node)
                          if not any(_passes(call, node.name, name, position)
                                     for call in calls)]
    assert never == ["cli.main: argv"]


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


# Runs load_config, or main on the command in argv[2:], on the config in
# argv[1], with stdout sent to stderr, then prints the loaded module names.
CHILD = """\
import contextlib, sys
from ewlab.cli import load_config, main
with contextlib.redirect_stdout(sys.stderr):
    if sys.argv[2:]:
        assert main([*sys.argv[2:], "--config", sys.argv[1]]) == 0
    else:
        load_config(sys.argv[1])
print(*sys.modules)
"""


def loaded_modules(tmp_path, *command) -> set:
    """sys.modules of a fresh interpreter after it runs the CLI."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": [2.0, 1.0], "a": [1.0, [1.0, 0.5]],
                               "grid": {"start": 0.0, "end": 40.0,
                                        "step": 0.01}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cfg), *command],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=300)
    return set(proc.stdout.split())


def test_load_config_loads_only_the_kernel(tmp_path):
    # every command starts here, and every bad-input exit ends here
    modules = loaded_modules(tmp_path)
    assert {m for m in modules if m.split(".")[0] == "ewlab"} == {
        "ewlab", "ewlab.cli", "ewlab.kernel"}
    assert {"numpy.random", "numpy.polynomial"}.isdisjoint(modules)


@pytest.mark.parametrize("command", [("verify",), ("probe", "--sweep", "2"),
                                     ("probe", "--free")],
                         ids=["verify", "probe-sweep", "probe-free"])
def test_seeded_commands_leave_numpy_random_unloaded(tmp_path, command):
    # their seeded draws come from the standard library's random.Random
    assert "numpy.random" not in loaded_modules(tmp_path, *command)
