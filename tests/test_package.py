"""The package surface: exported names exist, are declared, and are used."""

import ast
import importlib
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import cknlab
from cknlab import cli_io


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


# Module-level definitions, methods and properties that nothing in the
# package calls, kept for the check each one serves.  Any other such
# definition is dead code.
KEPT_WITHOUT_CALLER = {
    # the quotient computed independently of the solver, which the tests
    # check the solver's own quotients against
    "cylinder_quotient",
    # acceptance criterion 09: the Gaussian quotient dips below one
    "gaussian_h",
    # samples the curvature tests' families of pressure fields
    "TensorGrid.sample",
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
    uncalled = {}
    for stem, tree in trees.items():
        if stem in ("__init__", "__main__"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name not in referenced:
                uncalled[node.name] = f"{stem}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                continue
            # methods and properties; dunders are called by the language
            for fn in node.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("__")
                        and fn.name not in referenced):
                    uncalled[f"{node.name}.{fn.name}"] = \
                        f"{stem}.{node.name}.{fn.name}"
    # equality: an allowance whose name is gone or has gained a caller
    # must go as well
    assert set(uncalled) == KEPT_WITHOUT_CALLER, sorted(uncalled.values())


# Keyword defaults that no call in the package sets, kept because tests
# set them to reach a reference.  Any other such default is a constant
# written as a setting.
DEFAULTS_KEPT_WITHOUT_CALLER = {
    # the pointwise K functional away from its default scale
    "functionals.k_functional(zeta_star)",
    # the zonal rule's exactness by degree
    "grids.zonal_quadrature(rule)",
    # the independent quotient at theta < 1
    "functionals.cylinder_quotient(theta)",
    # the trajectory observers of the flow tests
    "sphere_flows.integrate(observers)",
    # tests pass the command line; the console script reads sys.argv
    "cli_io.run(argv)",
}


def _keyword_defaults(fn, bound):
    """{name: position or None} of fn's parameters that have a default.

    bound drops the instance or class argument from the positions;
    keyword-only parameters have no position.
    """
    args = fn.args
    positional = (args.posonlyargs + args.args)[bound:]
    first = len(positional) - len(args.defaults)
    out = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
    out.update((arg.arg, None)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None)
    return out


def _is_dataclass(node):
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            dec = dec.func
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def _field_defaults(node):
    """{name: position} of a dataclass's fields that have a default.

    The position is the field's place among the generated __init__'s
    parameters, which are the annotated class attributes in order.
    """
    fields = [stmt for stmt in node.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    return {stmt.target.id: i for i, stmt in enumerate(fields)
            if stmt.value is not None}


def _is_static(fn):
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in fn.decorator_list)


def _class_name(node, names):
    """The (module, class) an annotation names, or None.

    Takes a class name, a quoted one, or X | None; names maps local
    names to where they are defined.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [side for side in (node.left, node.right)
                 if not (isinstance(side, ast.Constant)
                         and side.value is None)]
        node = sides[0] if len(sides) == 1 else None
    if isinstance(node, ast.Name):
        return names.get(node.id)
    return None


def _unset_defaults(sources):
    """Labels "module.function(name)" of keyword defaults no call sets.

    sources maps module stems to module source.  A module-level function
    is reached by its name in its own module, by a name imported from its
    module, or as an attribute of its module; a class's __init__ by the
    class name the same ways, and a dataclass's fields with a default
    count as its __init__'s keyword defaults.  A method is reached
    through a receiver whose class is known: self (or cls) inside its class, or a parameter
    annotated with the class (grid: FVZonalGrid).  Any other attribute
    call of its name, x.integrate(v) with x unknown, reaches every method
    of that name, and module functions such as sphere_flows.integrate
    stay apart from methods.  A call sets a default by keyword, by
    position, or through * or **.
    """
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    targets = []  # (label, how calls reach it, keyword defaults)
    methods = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                targets.append((f"{stem}.{node.name}", (stem, node.name),
                                _keyword_defaults(node, 0)))
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                targets.append((f"{stem}.{node.name}", (stem, node.name),
                                _field_defaults(node)))
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = _is_static(fn)
                    reach = ((stem, node.name) if fn.name == "__init__"
                             else (stem, node.name, fn.name))
                    methods.add((stem, node.name, fn.name))
                    targets.append((f"{stem}.{node.name}.{fn.name}", reach,
                                    _keyword_defaults(fn, 1 - static)))
    calls = {}
    for stem, tree in trees.items():
        modules, names = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names[node.name] = (stem, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)

        def record(node, known):
            func = node.func
            if isinstance(func, ast.Name):
                reach = names.get(func.id, (stem, func.id))
            elif not isinstance(func, ast.Attribute):
                return
            elif isinstance(func.value, ast.Name) and func.value.id in modules:
                reach = (modules[func.value.id], func.attr)
            else:
                owner = (known.get(func.value.id)
                         if isinstance(func.value, ast.Name) else None)
                reach = (None, func.attr)
                if owner is not None and (*owner, func.attr) in methods:
                    reach = (*owner, func.attr)
            spread = (any(isinstance(arg, ast.Starred) for arg in node.args)
                      or any(kw.arg is None for kw in node.keywords))
            calls.setdefault(reach, []).append(
                (len(node.args), spread, {kw.arg for kw in node.keywords}))

        def visit(node, known, cls):
            # known maps local names to the (module, class) they hold; a
            # nested function sees the names of the functions around it
            if isinstance(node, ast.ClassDef):
                cls = (stem, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                known = dict(known)
                args = node.args.posonlyargs + node.args.args
                for i, arg in enumerate(args + node.args.kwonlyargs):
                    owner = _class_name(arg.annotation, names)
                    if i == 0 and cls is not None and not _is_static(node):
                        owner = cls
                    if owner is not None:
                        known[arg.arg] = owner
                    else:
                        known.pop(arg.arg, None)
                cls = None
            elif isinstance(node, ast.Call):
                record(node, known)
            for child in ast.iter_child_nodes(node):
                visit(child, known, cls)

        visit(tree, {}, None)

    def reaching(reach):
        found = list(calls.get(reach, []))
        if len(reach) == 3:
            found += calls.get((None, reach[2]), [])
        return found

    return {f"{label}({name})"
            for label, reach, defaults in targets
            for name, position in defaults.items()
            if not any(spread or name in keywords
                       or (position is not None and n_args > position)
                       for n_args, spread, keywords in reaching(reach))}


def test_every_keyword_default_is_set_by_a_caller():
    src = Path(cknlab.__file__).parent
    unset = _unset_defaults({path.stem: path.read_text()
                             for path in sorted(src.glob("*.py"))})
    # equality, as above
    assert unset == DEFAULTS_KEPT_WITHOUT_CALLER, sorted(
        unset ^ DEFAULTS_KEPT_WITHOUT_CALLER)


def test_default_guard_tells_same_named_methods_apart():
    # two classes with the same method names: a call through self or an
    # annotated parameter reaches one class's method only, and a call on
    # an unknown receiver still reaches both
    sources = {
        "shapes": (
            "class Coarse:\n"
            "    def integrate(self, v, scale=1.0):\n"
            "        return self.refine(v, level=2)\n"
            "    def refine(self, v, level=1):\n"
            "        return v\n"
            "    def smooth(self, v, k=1):\n"
            "        return v\n"
            "class Fine:\n"
            "    def integrate(self, v, scale=1.0):\n"
            "        return v\n"
            "    def refine(self, v, level=1):\n"
            "        return v\n"
            "    def smooth(self, v, k=1):\n"
            "        return v\n"),
        "use": (
            "from .shapes import Coarse, Fine\n"
            "def total(coarse: Coarse, fine: 'Fine | None', thing, v):\n"
            "    thing.smooth(v, k=3)\n"
            "    fine.integrate(v)\n"
            "    fine.refine(v)\n"
            "    return coarse.integrate(v, scale=2.0)\n"),
    }
    assert _unset_defaults(sources) == {"shapes.Fine.integrate(scale)",
                                        "shapes.Fine.refine(level)"}


def test_default_guard_reports_unset_dataclass_fields():
    # a field with a default is a keyword default of the generated
    # __init__: set by keyword, by position or through **, or reported
    sources = {
        "specs": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Spec:\n"
            "    kind: str\n"
            "    t_end: float = 1.0\n"
            "    dt_max: float = 2e-2\n"
            "    cells: int = 96\n"
            "@dataclass\n"
            "class Grid:\n"
            "    n: int = 8\n"
            "    def refine(self, level=1):\n"
            "        return Grid(n=self.n * 2 ** level)\n"
            "class Plain:\n"
            "    size: int = 3\n"),
        "use": (
            "from .specs import Spec\n"
            "def run(kind, settings):\n"
            "    Spec(kind, 0.5)\n"
            "    return Spec(kind, **settings)\n"),
    }
    assert _unset_defaults(sources) == {"specs.Grid.refine(level)"}
    sources["use"] = ("from .specs import Spec\n"
                      "def run(kind):\n"
                      "    return Spec(kind, cells=48)\n")
    assert _unset_defaults(sources) == {"specs.Spec(t_end)",
                                        "specs.Spec(dt_max)",
                                        "specs.Grid.refine(level)"}


def _unset_options(commands, sources):
    """Labels "command --flag" of command options that no source sets.

    commands maps each command to its options.  An option counts as set
    when a string constant in one of the sources holds its flag as a
    whitespace-separated token (an argv entry or a command line) or
    holds a ``name = ...`` line (a config file or a sweep spec).
    """
    tokens, keys = set(), set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                tokens.update(node.value.split())
                keys.update(line.partition("=")[0].strip()
                            for line in node.value.splitlines()
                            if "=" in line)
    return {f"{command} {opt.flag}"
            for command, options in commands.items() for opt in options
            if opt.flag not in tokens and opt.name not in keys}


def _option_sources():
    tests = Path(__file__).parent
    workloads = tests.parent / "perfbench" / "workloads.py"
    return [path.read_text() for path in
            [*sorted(tests.glob("*.py")), workloads]]


def test_every_command_option_is_set_somewhere():
    # a test, a benchmark workload, or a config file or sweep spec they
    # write must set each option; any other option is a setting that
    # nothing exercises, and belongs in the library as a constant
    commands = {command: entry.options.values()
                for command, entry in cli_io._COMMANDS.items()}
    assert _unset_options(commands, _option_sources()) == set()


def test_option_guard_reports_an_option_nothing_sets():
    options = [cli_io.Option(name, float)
               for name in ("t_end", "n_cells", "step_cap")]
    sources = ['ARGV = ["flow", "--t-end", "0.5"]\n',
               'CFG = """[flow]\n  n_cells = 24\n"""\n',
               '# --step-cap in a comment\nstep_cap = 1.0\n'
               'NOTE = "--step-caps and step_cap: 1"\n']
    assert _unset_options({"flow": options}, sources) == {
        "flow --step-cap"}


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
    # The first run also sets the allocator up, once, through ctypes; where
    # glibc's mallopt is missing (no such C library, or one without the
    # function) that step must do nothing and raise nothing, and importing
    # the package must not take it.  Resetting the parser makes the next
    # run a first run again.
    env = dict(os.environ, PYTHONPATH=str(Path(cknlab.__file__).parents[1]))
    (tmp_path / "grid.ini").write_text(
        "[sweep]\ncommand = criterion\nd = 3\np = 2.5\n")
    code = ("import ctypes\n"
            "loads = []\n"
            "def no_libc(name, *args, **kwargs):\n"
            "    loads.append(name)\n"
            "    raise OSError(name)\n"
            "ctypes.CDLL = no_libc\n"
            "import gc, sys, cknlab\n"
            "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n"
            "lazy = {'scipy.sparse', 'scipy.special', 'multiprocessing'}\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "from cknlab import cli_io\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert loads == [], loads\n"
            "assert cli_io.run(['criterion', '--d', '3', '--p', '2.5']) == 0\n"
            "frozen = gc.get_freeze_count()\n"
            "assert frozen > 0, frozen\n"
            "assert len(loads) == 1, loads\n"
            "assert cli_io.run(['params', '--d', '5', '--p', '2.8']) == 0\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert cli_io.run(['sweep', '--spec', 'grid.ini', '--out-dir',\n"
            "                   'swept', '--workers', '1']) == 0\n"
            "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
            "assert gc.get_freeze_count() == frozen, gc.get_freeze_count()\n"
            "assert len(loads) == 1, loads\n"
            "cycle = []\n"
            "cycle.append(cycle)\n"
            "del cycle\n"
            "assert gc.collect() >= 1\n"
            "def no_mallopt(name, *args, **kwargs):\n"
            "    loads.append(name)\n"
            "    return object()\n"
            "ctypes.CDLL = no_mallopt\n"
            "cli_io._PARSER = None\n"
            "assert cli_io.run(['params', '--d', '5', '--p', '2.8']) == 0\n"
            "assert len(loads) == 2, loads\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator set-up uses glibc's mallopt")
def test_run_lets_factorizations_reuse_freed_heap():
    # Each SuperLU factorization of the branch continuation allocates its
    # LU storage afresh, about 1,000 pages on the default (5, 2.8) grid.
    # After the first run() the allocator keeps freed heap memory, so a
    # factorization reuses the pages the last one freed instead of
    # faulting them in again.
    env = dict(os.environ, PYTHONPATH=str(Path(cknlab.__file__).parents[1]))
    code = (
        "import math, resource\n"
        "import numpy as np\n"
        "from cknlab import cli_io, cylinder_solver as cs\n"
        "from cknlab.params import lambda_fs_value\n"
        "d, p = 5, 2.8\n"
        "cfg = cs.ContinuationConfig()\n"
        "lam = lambda_fs_value(d, p)\n"
        "grid = cs.cylinder_grid(d, 20.0 / math.sqrt(lam), cfg.m_cells,\n"
        "                        cfg.nz)\n"
        "bordered = cs._BorderedKeller(grid)\n"
        "assert cli_io.run(['params', '--d', '5', '--p', '2.8']) == 0\n"
        "n = grid.m_cells * grid.nz\n"
        "u = np.full((grid.m_cells, grid.nz), 0.1)\n"
        "row = np.append(np.zeros(n), 1.0)\n"
        "rhs = np.ones(n + 1)\n"
        "bordered.solve(p, lam, u, row, rhs)  # grows the heap once\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(2):\n"
        "    bordered.solve(p, lam, u, row, rhs)\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "assert faults < 300, faults\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
