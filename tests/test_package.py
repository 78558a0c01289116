"""The package surface: exported names exist, are declared, and are used."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cknlab


def test_public_names_resolve():
    for info in pkgutil.iter_modules(cknlab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"cknlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # what the package root re-exports, each module must list in __all__
    tree = ast.parse(Path(cknlab.__file__).read_text())
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module(f"cknlab.{node.module}")
        declared = getattr(module, "__all__", None)
        if declared is None:
            continue
        for alias in node.names:
            assert alias.name in declared, f"cknlab.{node.module}.{alias.name}"


# Module-level definitions that nothing in the package calls, kept for the
# check each one serves.  Any other such definition is dead code.
KEPT_WITHOUT_CALLER = {
    # the quotient computed independently of the solver, which the tests
    # check the solver's own quotients against
    "cylinder_quotient",
    # acceptance criterion 09: the Gaussian quotient dips below one
    "gaussian_h",
    # acceptance criterion 04: the closed-form constant against quadrature
    "log_radial_quadrature",
}


def test_every_library_definition_has_a_caller():
    src = Path(cknlab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = {node.name: f"{stem}.{node.name}"
                for stem, tree in trees.items()
                if stem not in ("__init__", "__main__")
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and node.name not in referenced}
    # equality: an allowance whose name is gone or has gained a caller
    # must go as well
    assert set(uncalled) == KEPT_WITHOUT_CALLER, sorted(uncalled.values())


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # nothing in the package integrates an ODE or calls a SciPy optimizer,
    # so importing it must load neither scipy.integrate (about 0.15 s of
    # import time) nor scipy.optimize (about 0.29 s and 14 MB).  Only the
    # cylinder's 2-D solves factor a sparse matrix and only zonal grids
    # need scipy.special, so neither the import nor params and criterion
    # may load those two (together about 7 MB and 0.1 s of import).  Only
    # a sweep with more than one worker starts a process pool, so nothing
    # else may load multiprocessing (14 modules, about 1.7 MB).
    # The first run freezes the import graph once; later runs must leave
    # the frozen set alone, and garbage made after it is still collected.
    env = dict(os.environ, PYTHONPATH=str(Path(cknlab.__file__).parents[1]))
    (tmp_path / "grid.ini").write_text(
        "[sweep]\ncommand = criterion\nd = 3\np = 2.5\n")
    code = ("import gc, sys, cknlab\n"
            "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n"
            "lazy = {'scipy.sparse', 'scipy.special', 'multiprocessing'}\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "from cknlab import cli_io\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert cli_io.run(['criterion', '--d', '3', '--p', '2.5']) == 0\n"
            "frozen = gc.get_freeze_count()\n"
            "assert frozen > 0, frozen\n"
            "assert cli_io.run(['params', '--d', '5', '--p', '2.8']) == 0\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert cli_io.run(['sweep', '--spec', 'grid.ini', '--out-dir',\n"
            "                   'swept', '--workers', '1']) == 0\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert gc.get_freeze_count() == frozen, gc.get_freeze_count()\n"
            "cycle = []\n"
            "cycle.append(cycle)\n"
            "del cycle\n"
            "assert gc.collect() >= 1\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
