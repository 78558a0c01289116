"""The package surface: exported names exist and are declared."""

import ast
import importlib
import pkgutil
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
