"""Exception hierarchy for cknlab.

Everything raised on purpose by this package derives from CknlabError, so
callers can catch one type at the CLI boundary and map it to an exit code.
Numerical failures carry enough state to be diagnosable without a debugger:
the admissibility errors name the violated inequality, search failures carry
the best candidate seen, and step rejections carry the offending step size.
"""

from __future__ import annotations


class CknlabError(Exception):
    """Base class for all package-level errors."""


class AdmissibilityError(CknlabError):
    """Parameter combination outside the admissible region.

    Parameters
    ----------
    message : str
        Human-readable description.
    violated : str, optional
        The inequality that failed, as a short formula string
        (e.g. ``"a < a_c"``).
    """

    def __init__(self, message: str, violated: str | None = None):
        super().__init__(message)
        self.violated = violated


class DomainError(CknlabError):
    """Input outside the mathematical domain of an operation."""


class DegenerateInput(CknlabError):
    """Input that makes the requested quantity ill-defined (e.g. p = 2
    where an expression divides by p - 2)."""


class InversionError(CknlabError):
    """A scalar function could not be inverted on the requested range,
    typically because it is not monotone there."""


class StepRejected(CknlabError):
    """A time step was rejected more times than the retry budget allows."""

    def __init__(self, message: str, dt: float | None = None):
        super().__init__(message)
        self.dt = dt


class SingularSystem(CknlabError):
    """A linear solve met an exactly singular matrix or a bad argument.

    Attributes
    ----------
    info : int
        The LAPACK status: the 1-based index of the zero pivot when
        positive, minus the index of the illegal argument when negative.
    """

    def __init__(self, message: str, info: int):
        super().__init__(message)
        self.info = info


class PositivityLoss(CknlabError):
    """A flow iterate left the positive cone and could not be rescued."""


class NewtonDiverged(CknlabError):
    """Newton iteration exceeded its iteration budget or its residual grew."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EigFailed(CknlabError):
    """An eigenvalue computation failed to converge or cross-validate."""


class ContinuationStalled(CknlabError):
    """Pseudo-arclength continuation could not advance past a point."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class GroundStateFailed(CknlabError):
    """The ground-state solve found no two consecutive resolutions that
    agree on the constant, or a state with too heavy a tail to trust it.

    Attributes
    ----------
    d, p : int and float, or None
        The problem that was solved.
    iterations : int or None
        Petviashvili iterations spent over all resolutions.
    residual : float or None
        The collocation residual of the last iteration stage.
    """

    def __init__(self, message: str, d: int | None = None,
                 p: float | None = None, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.d = d
        self.p = p
        self.iterations = iterations
        self.residual = residual


class SearchFailed(CknlabError):
    """A certified search exhausted its budget without a witness.

    Attributes
    ----------
    best_value : float or None
        The most promising objective value seen, for diagnostics.
    """

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        self.best_value = best_value


class InsufficientSamples(CknlabError):
    """A statistical or sweep operation was asked to run with too few
    sample points to be meaningful."""


class ConfigError(CknlabError):
    """Malformed configuration file or unknown configuration key."""
