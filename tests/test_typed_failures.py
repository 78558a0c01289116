"""Random admissible inputs: every solver returns or fails typed.

Each property drives one entry point over inputs that pass its own
validation, on small grids, and holds it to the package's failure
contract: the call returns, or it raises a CknlabError.  Any other
exception, and any NumPy warning (the suite turns warnings into errors),
fails the property.  The examples are derandomized, so the run time is
the same from run to run, and each example has a deadline.
"""

import math
from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import (
    CknlabError,
    ContinuationConfig,
    continue_branch,
    gn_constant,
    lambda_fs_value,
)
from cknlab.params import two_star_value
from cknlab.sphere_flows import (
    FlowSpec,
    FlowState,
    counterexample_search,
    integrate,
    random_smooth_density,
    tilted_density,
)


def _returns_or_fails_typed(call, *args, **kwargs):
    """call's result, or None if it raised a CknlabError."""
    try:
        return call(*args, **kwargs)
    except CknlabError:
        return None


def _exponents(d: int, lo: float, cap: float):
    """p in (lo, min(2d/(d-2), cap)), both ends open."""
    return st.floats(lo, min(two_star_value(d), cap), exclude_min=True,
                     exclude_max=True)


@st.composite
def continuations(draw):
    d = draw(st.integers(2, 12))
    p = draw(_exponents(d, 2.0, 6.0))
    config = ContinuationConfig(
        lambda_max=draw(st.floats(0.5, 2.0)) * lambda_fs_value(d, p),
        m_cells=draw(st.integers(32, 64)),
        nz=draw(st.integers(4, 8)),
        length=draw(st.one_of(st.none(), st.floats(0.5, 40.0))))
    return d, p, config


@settings(max_examples=40, deadline=timedelta(seconds=10),
          derandomize=True)
@given(continuations())
def test_continuation_returns_or_fails_typed(args):
    branch = _returns_or_fails_typed(continue_branch, *args)
    if branch is not None:
        lam = branch.column("lam")
        assert len(np.unique(lam)) == len(lam)


@st.composite
def flows(draw):
    d = draw(st.integers(2, 10))
    p = draw(st.floats(1.0, min(two_star_value(d), 12.0)))
    kind = draw(st.sampled_from(("heat", "fde")))
    m = None
    if kind == "fde":
        m = draw(st.one_of(st.none(), st.floats(0.05, 2.0).filter(
            lambda m: abs(m - 1.0) > 1e-6)))
    n_cells = draw(st.integers(8, 64))
    tilt = draw(st.one_of(st.none(), st.tuples(st.floats(0.01, 0.99),
                                               st.floats(-20.0, 20.0))))
    return (d, p, kind, m, draw(st.floats(1e-3, 2.0)), n_cells, tilt,
            draw(st.integers(0, 2 ** 16)))


def _flow(d, p, kind, m, t_end, n_cells, tilt, seed):
    spec = FlowSpec(kind=kind, p=p, m=m, t_end=t_end)
    density = (random_smooth_density(d, n_cells, np.random.default_rng(seed))
               if tilt is None else tilted_density(d, n_cells, *tilt))
    return integrate(FlowState.initial(density), spec)


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
@given(flows())
def test_flow_returns_or_fails_typed(args):
    trajectory = _returns_or_fails_typed(_flow, *args)
    if trajectory is not None:
        assert math.isclose(trajectory.final_state.time, args[4],
                            rel_tol=1e-12)


@st.composite
def searches(draw):
    d = draw(st.integers(2, 10))
    return (d, draw(st.floats(1.0, min(two_star_value(d), 12.0))),
            draw(st.integers(8, 64)), draw(st.sampled_from(("heat", "fde"))))


@settings(max_examples=30, deadline=timedelta(seconds=5), derandomize=True)
@given(searches())
def test_counterexample_search_returns_or_fails_typed(args):
    d, p, n_cells, kind = args
    _returns_or_fails_typed(counterexample_search, d, p, n_cells=n_cells,
                            flow_kind=kind)


@settings(max_examples=20, deadline=timedelta(seconds=5), derandomize=True)
@given(st.integers(2, 12).flatmap(
    lambda d: st.tuples(st.just(d), _exponents(d, 2.0, 12.0))))
def test_gn_constant_returns_or_fails_typed(args):
    value = _returns_or_fails_typed(gn_constant, *args)
    if value is not None:
        assert math.isfinite(value) and value > 0.0
