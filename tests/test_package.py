"""The package surface: exported names exist and are declared."""

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


def test_import_leaves_scipy_integrate_unloaded():
    # nothing in the package integrates an ODE or calls a SciPy optimizer,
    # so importing it must load neither scipy.integrate (about 0.15 s of
    # import time) nor scipy.optimize (about 0.29 s and 14 MB)
    env = dict(os.environ, PYTHONPATH=str(Path(cknlab.__file__).parents[1]))
    code = ("import sys, cknlab\n"
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
