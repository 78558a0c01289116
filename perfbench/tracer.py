"""Spans and counters recorded around the calls into each cknlab layer.

The benchmark wraps module attributes from outside the package: a layer
function such as ``cylinder_solver.continue_branch`` is replaced in every
``cknlab`` module that binds it, and each SciPy entry point a module binds
by name (``cylinder_solver.splu``, ``sphere_flows.solve_banded``, ...) is
replaced in that module only, so kernel work is attributed to its caller.
Nothing inside ``src/`` changes; the wrappers return what they wrap, so the
artifacts of a traced run are byte-identical to an untraced one.

Spans stay in memory until the run ends.  Each carries a name, start, end,
the span that caused it (the enclosing span on the same thread), the thread
and the operation it belongs to.  Wrappers are thread-safe: sweeps run
their points on worker threads.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Layer functions, named by the module that defines them.
LAYER_FUNCTIONS = (
    "cylinder_solver.continue_branch",
    "branch_analysis.reparametrize",
    "branch_analysis.conjecture_probe",
    "branch_analysis.mu_star_theta_line",
    "branch_analysis.lemma_criterion",
    "branch_analysis.gn_constant",
    "params.mu_star",
    "sphere_flows.integrate",
    "sphere_flows.flow_step",
    "sphere_flows.counterexample_search",
    "sphere_flows.deficit_derivative",
)

# SciPy entry points, by the module that defines them.
KERNELS = {
    "splu": "scipy.sparse.linalg",
    "eigh_tridiagonal": "scipy.linalg",
    "solve_banded": "scipy.linalg",
    "solve_ivp": "scipy.integrate",
    "brentq": "scipy.optimize",
    "minimize_scalar": "scipy.optimize",
}


def _splu_fill(tracer, lu) -> None:
    tracer.count("kernels.splu.fill_nnz", lu.L.nnz + lu.U.nnz)


def _ivp_nfev(tracer, sol) -> None:
    tracer.count("kernels.solve_ivp.nfev", sol.nfev)


RESULT_HOOKS = {"splu": _splu_fill, "solve_ivp": _ivp_nfev}

# Span name of a result hook: the benchmark's own work, not a layer's.
HOOK = "trace.hook"


class Tracer:
    """Thread-safe in-memory span and counter recorder."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op: str | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def _call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), self.op))

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around each call.

        ``on_result(tracer, result)`` runs after that span, in a span of its
        own named ``HOOK``, so that the cost of inspecting a result can be
        taken out of the caller's times.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, *args, **kwargs)
            if on_result is not None:
                self._call(HOOK, on_result, self, result)
            return result

        return traced

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "thread", "op")
        with self._lock:
            return [dict(zip(keys, s)) for s in self.spans]


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "cknlab"
                                    or name.startswith("cknlab."))]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function and kernel binding; returns what was missing.

    A name that no longer exists is reported and skipped, so the benchmark
    keeps running on a refactored package; its metrics then read 0.
    """
    modules = _package_modules()
    missing = []
    for qualified in LAYER_FUNCTIONS:
        mod_name, attr = qualified.split(".")
        home = sys.modules.get(f"cknlab.{mod_name}")
        original = getattr(home, attr, None)
        if original is None:
            missing.append(qualified)
            continue
        traced = tracer.wrap(qualified, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for kernel, scipy_module in KERNELS.items():
        original = getattr(sys.modules.get(scipy_module), kernel, None)
        bindings = [(mod, key) for mod in modules
                    for key, value in vars(mod).items()
                    if original is not None and value is original]
        if not bindings:
            missing.append(f"kernels.{kernel}")
        for mod, key in bindings:
            short = mod.__name__.rpartition(".")[2]
            setattr(mod, key, tracer.wrap(f"kernels.{kernel}.{short}", original,
                                          RESULT_HOOKS.get(kernel)))
    return missing
