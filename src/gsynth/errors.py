"""Exception types raised across the package."""

from __future__ import annotations


class GsynthError(Exception):
    """Base class for all errors raised by gsynth."""


class DimensionError(GsynthError, ValueError):
    """An operand has an incompatible or unexpected shape."""


class SingularMatrixError(GsynthError):
    """A matrix that must be inverted is singular to working precision."""


class NotHurwitzError(GsynthError):
    """The drift matrix has spectrum outside the open left half-plane, so
    the steady-state equation has no unique solution."""


class NotPureStateError(GsynthError):
    """The covariance matrix does not describe a pure Gaussian state."""


class DegenerateCovarianceError(GsynthError):
    """The position block of the covariance matrix is singular, or so large
    that its inverse falls below the graph matrix's positive-definiteness
    floor, so the graph-matrix factorization does not exist."""


class InvalidCovarianceError(GsynthError):
    """The matrix fails the physicality requirements of a covariance matrix."""


class InvalidDiffusionError(GsynthError, ValueError):
    """The diffusion matrix of a moment system is not positive semidefinite."""


class UnsupportedBipartitionError(GsynthError):
    """Entanglement quantification was requested for a partition other than
    one mode against one mode."""


class InvalidRError(GsynthError):
    """The diagonal frequency matrix is inconsistent with the target graph
    matrix (the quadratic consistency identity fails)."""


class InfeasibleStateError(GsynthError):
    """The target state cannot be prepared under the structural constraints.

    Carries the feasibility certificate explaining why.
    """

    def __init__(self, certificate):
        super().__init__(certificate.reason)
        self.certificate = certificate


class MatrixFileError(GsynthError):
    """A state or realization file could not be parsed or validated."""
