"""The package's import graph: which module may build on which.

Each module is parsed, not imported, so the test sees the import
statements themselves, including ones that only run inside a function.
One subprocess check pins which costly scipy modules the CLI loads.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import planarcrit

PACKAGE = Path(planarcrit.__file__).parent

# Package modules each module imports.  Closed forms and the Kac-Rice
# engine never reach the simulation layer (finder, estimators).
LAYERS = {
    "models": set(),
    "theory": {"models"},
    "sampling": {"models"},
    "finder": {"models", "sampling"},
    "kacrice": {"models", "sampling", "theory"},
    "estimators": {"finder", "models", "sampling", "theory"},
    "cli": {"estimators", "finder", "kacrice", "models", "sampling", "theory"},
}


def _package_imports(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("planarcrit"):
            return set()
        path = (node.module or "").removeprefix("planarcrit").lstrip(".")
        if path:
            return {path.split(".")[0]}
        return {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("planarcrit.")
        }
    return set()


def _imports(name):
    """(package modules imported anywhere in the module, those imported in a function)."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    in_function = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                in_function |= _package_imports(node)
    every = set()
    for node in ast.walk(tree):
        every |= _package_imports(node)
    return every, in_function


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_its_layers(name):
    every, _ = _imports(name)
    assert every == LAYERS[name]


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_no_package_import_inside_a_function(name):
    _, in_function = _imports(name)
    assert in_function == set()


def test_parser_sees_relative_and_function_level_imports():
    tree = ast.parse(
        "from . import kacrice, theory\n"
        "from .models import RandomWave\n"
        "import numpy\n"
        "def f():\n"
        "    from planarcrit.estimators import sweep\n"
    )
    found = set()
    for node in ast.walk(tree):
        found |= _package_imports(node)
    assert found == {"kacrice", "theory", "models", "estimators"}


@pytest.mark.parametrize("name", ["planarcrit", *(f"planarcrit.{m}" for m in sorted(LAYERS))])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_cli_import_leaves_scipy_integrate_out():
    # Only the untruncated power law needs adaptive quadrature, and it
    # imports scipy.integrate (and the scipy.optimize it loads) itself.
    code = "import sys, planarcrit.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "False"
