"""The package's import graph: which module may build on which.

Each module is parsed, not imported, so the test sees the import
statements themselves, including ones that only run inside a function.
Subprocess checks pin which costly scipy modules the CLI loads, on import
and through a small report, and one check pins the names and argument
shapes the benchmark's layer trace (perfbench/tracing.py) wraps.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import planarcrit
from planarcrit import estimators, kacrice
from planarcrit.models import RandomWave

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


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_source_line_exceeds_100_characters(name):
    lines = (PACKAGE / name).read_text().splitlines()
    long = [number for number, line in enumerate(lines, 1) if len(line) > 100]
    assert not long, f"{name} lines {long} exceed 100 characters"


@pytest.mark.parametrize("name", ["planarcrit", *(f"planarcrit.{m}" for m in sorted(LAYERS))])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_each_module_name_once():
    # A public name is declared once, in its module's __all__; the package
    # re-exports every module but the CLI, in layer order, and adds only
    # its version.
    modules = [importlib.import_module(f"planarcrit.{m}") for m in LAYERS if m != "cli"]
    expected = [n for module in modules for n in module.__all__] + ["__version__"]
    assert planarcrit.__all__ == expected
    assert len(set(expected)) == len(expected)


# No module uses adaptive quadrature: the untruncated power law, which
# has no ring rule, is evaluated only at lag 0, where its profile is
# closed form.  The Kac-Rice engine's one Schur complement divides by
# the four variances of a diagonal gradient block in longdouble, so
# nothing needs scipy.linalg either.  scipy.special (which loads numpy's
# f2py through scipy's array-API shim, about 0.3 s of every fresh CLI
# process) is imported only where a double-precision lag is nonzero.
@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg", "scipy.special"])
def test_cli_import_leaves_scipy_integrate_out(module):
    code = f"import sys, planarcrit.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "False"


# The worker pool is imported where a run asks for more than one process,
# so a fresh CLI process does not pay for multiprocessing.
def test_cli_import_leaves_the_process_pool_out():
    code = ("import sys, planarcrit.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "[]"


# The report's one-point laws sit at lag 0 and its pair laws are 80-bit
# within the series' reach, so a small report loads no scipy at all.
@pytest.mark.parametrize(
    "flags", [("--model", "randomwave", "--k", "1"), ("--model", "powerlawtruncated", "--t", "2")]
)
def test_small_report_leaves_scipy_unloaded(flags):
    argv = ["report", *flags, "--budget", "small", "--seed", "1", "--format", "csv"]
    code = (
        "import contextlib, io, sys\n"
        "from planarcrit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "0 False"


def test_benchmark_trace_hooks_resolve_and_count(monkeypatch):
    # tracing wraps names where their callers look them up, unpacks the
    # six-slot sweep task and reads the finder's positional diagnostics
    # slot; a rename or a new argument shape breaks the traced runs.
    monkeypatch.syspath_prepend(str(PACKAGE.parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, attr, *_ in tracing.CALL_SITES:
        owner, name = tracing._resolve(module, attr)
        assert name in owner.__dict__, (module, attr)
    model = RandomWave(1.0)
    with tracing.installed(tracing.Tracer()) as tracer:
        estimators.sweep(model, 2, 3, rho_list=(1.0,), window=((0.0, 6.0), (0.0, 6.0)), M=32)
        kacrice.second_factorial_by_quadrature(model, 0.3, nsamples_per_node=200, seed=1)
        kacrice.one_point_intensity_mc(model, nsamples=200, seed=1, kind="min")
    totals = tracing.layer_totals(tracer.spans)
    assert totals["estimators._realization_stats"]["distinct"] == 2
    assert totals["finder.find_critical_points"]["seeds"] > 0
    assert totals["kacrice.quadrature"]["calls"] == 48
    assert totals["kacrice.one_point_intensity_mc"]["calls"] == 1
    # A two-point estimate draws its pairs in several blocks; the traced
    # draws still add up to the pairs drawn.
    monkeypatch.setattr(kacrice, "_BLOCK_DRAWS", 64)
    with tracing.installed(tracing.Tracer()) as tracer:
        kacrice.two_point_correlation(model, 0.3, ("e", "e"), nsamples=1001, seed=1)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["kacrice.sample"]["draws"] == 501
    assert totals["kacrice.sample"]["calls"] == 8
    # A stack of three distances draws one stream of common normals in
    # the same blocks of 64 pairs, and each pair drawn counts once, not
    # once per distance.
    with tracing.installed(tracing.Tracer()) as tracer:
        kacrice.two_point_correlation(model, [0.1, 0.3, 0.5], ("e", "e"), nsamples=1001, seed=1)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["kacrice.sample"]["draws"] == 501
    assert totals["kacrice.sample"]["calls"] == 8
    assert totals["kacrice._pair_conditional"]["calls"] == 1
