"""Exception types raised across the package.

Everything derives from :class:`MtlError` so callers can catch the whole
family at once; a few classes also subclass the matching builtin so that
generic code (``except ValueError``, ``except RuntimeError``) keeps working.
"""

from __future__ import annotations


class MtlError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MtlError, ValueError):
    """Shapes or sizes that are mutually inconsistent."""


class NonFinite(MtlError, ValueError):
    """A NaN or infinite entry where only finite values are allowed."""


class EmptyDataset(MtlError, ValueError):
    """A dataset with no tasks, no samples in some task, or no features."""


class DatasetFormatError(MtlError, ValueError):
    """A dataset directory or file that cannot be parsed."""


class DegenerateData(MtlError, ValueError):
    """Data on which the requested quantity is not defined.

    Raised e.g. when every feature is orthogonal to every response, so the
    smallest all-zero regularization level does not exist.
    """


class NonPositiveLambda(MtlError, ValueError):
    """A regularization parameter that is zero or negative."""


class LambdaOutOfRange(MtlError, ValueError):
    """A regularization parameter outside the range an operation requires."""


class NegativeInnerProduct(MtlError, ValueError):
    """An inconsistent reference fed to the ball estimate: its half-space
    excludes a point the feasible set holds (a negative offset), or misses
    the ball that must hold the dual optimum.
    """


class NoConvergence(MtlError, RuntimeError):
    """An iterative routine that failed to reach its tolerance."""


class MaxItersExceeded(MtlError, RuntimeError):
    """Solver hit its iteration cap; carries the best iterate found, its
    residual and the iterations spent (0 when the solver does not say)."""

    def __init__(self, message, weights=None, residual=None, n_iters=0):
        super().__init__(message)
        self.weights = weights
        self.residual = residual
        self.n_iters = n_iters


class SolverFailure(MtlError, RuntimeError):
    """A path run aborted mid-way; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonPositiveWeight(MtlError, ValueError):
    """A per-task weight that is zero or negative."""


class NonPositiveRho(MtlError, ValueError):
    """A ridge-style regularization constant that is zero or negative."""
