"""Shared fixtures, and the BLAS kernels the run used.

The symmetry-breaking branch at (d, p) = (5, 2.8) costs several seconds
to continue and three test modules inspect it, so it is built once per
session.  The fixture hands out (branch, build_seconds) because the
acceptance tests also budget the construction time.

A few byte tests hold only under OpenBLAS's SkylakeX kernels and NumPy's
AVX-512 loops, so the run ends with one line naming the kernels and
version of the OpenBLAS that NumPy and SciPy each bundle and the SIMD
targets that NumPy dispatches to on this CPU (``unknown`` where a library
or symbol is missing), also under ``-q``.
"""

import ctypes
import importlib.util
import time
from pathlib import Path

import pytest

from cknlab import continue_branch


@pytest.fixture(scope="session")
def branch_5_2_8():
    start = time.perf_counter()
    branch = continue_branch(5, 2.8)
    return branch, time.perf_counter() - start


def _openblas(package: str, suffix: str) -> str:
    """Core name and version of the OpenBLAS in <package>.libs."""
    spec = importlib.util.find_spec(package)
    libs = Path(spec.origin).parent.parent / f"{package}.libs"
    found = sorted(libs.glob("libscipy_openblas*.so*"))
    if not found:
        return "unknown"
    lib = ctypes.CDLL(str(found[0]))
    answers = []
    for symbol in ("scipy_openblas_get_corename", "scipy_openblas_get_config"):
        try:
            fn = getattr(lib, symbol + suffix)
        except AttributeError:
            answers.append("unknown")
            continue
        fn.restype = ctypes.c_char_p
        answers.append(fn().decode())
    core, config = answers
    # the config string opens with "OpenBLAS <version>"
    version = config.split()[1] if config.startswith("OpenBLAS ") else config
    return f"{core} {version}"


def _numpy_dispatch() -> str:
    """NumPy's SIMD dispatch targets that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
        targets, features = umath.__cpu_dispatch__, umath.__cpu_features__
    except (ImportError, AttributeError):
        return "unknown"
    return " ".join(t for t in targets if features.get(t)) or "none"


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"openblas: numpy {_openblas('numpy', '64_')}, "
        f"scipy {_openblas('scipy', '')}; "
        f"numpy dispatch: {_numpy_dispatch()}")
