"""Gaussian-state data model and metrics.

Quadratures are ordered ``x = (q_1 .. q_N, p_1 .. p_N)`` with ``hbar = 1``,
so the vacuum covariance is ``I/2`` and an N-mode state is pure exactly
when ``det(V) = 2**(-2N)``. A zero-mean pure state is equivalently labeled
by its complex symmetric graph matrix ``Z = X + iY`` with ``Y`` positive
definite; conversions in both directions are provided, together with
purity, symplectic spectra, mode reduction and the logarithmic negativity
of two-mode states (natural logarithm convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    InvalidCovarianceError,
    NotPureStateError,
    UnsupportedBipartitionError,
)
from .numerics import (
    DEFAULT_TOL,
    TOL_FLOOR,
    all_finite,
    least_eigenvalue_unless_above,
    max_abs,
    symmetrized,
    threshold,
)

#: Eigenvalue slack allowed when checking physicality, at the scale of the
#: covariance's entries (see :func:`gsynth.numerics.threshold`).
PHYSICALITY_TOL = 1e-9

#: Strict positive-definiteness floor for the imaginary part of a graph matrix.
POSDEF_TOL = 1e-12


@lru_cache
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """The canonical antisymmetric form ``[[0, I], [-I, 0]]`` for n modes.

    Built once per ``n_modes`` and shared between callers, so the returned
    array is read-only.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    eye = np.eye(n_modes)
    sig = np.zeros((2 * n_modes, 2 * n_modes))
    sig[:n_modes, n_modes:] = eye
    sig[n_modes:, :n_modes] = -eye
    sig.flags.writeable = False
    return sig


@dataclass(frozen=True)
class CovarianceMatrix:
    """A physical covariance matrix over ``(q_1..q_N, p_1..p_N)``.

    Construction validates shape, finiteness, symmetry and the uncertainty
    relation ``V + (i/2) Sigma >= 0``: its eigenvalues may fall no lower
    than ``-threshold(max|V|, PHYSICALITY_TOL)``, so the slack grows with
    a strongly squeezed covariance's entries as their rounding does. A
    Cholesky factorization of the shifted matrix accepts; only when it
    fails does ``eigvalsh`` decide and word the rejection. The stored
    matrix is exactly symmetrized.
    """

    V: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.V, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2 or v.shape[0] == 0:
            raise DimensionError(f"covariance matrix must be 2N x 2N, got shape {v.shape}")
        if not all_finite(v):
            raise InvalidCovarianceError("covariance matrix has non-finite entries")
        try:
            v = symmetrized(v, "covariance matrix")
        except ValueError as exc:
            raise InvalidCovarianceError(str(exc)) from exc
        n = v.shape[0] // 2
        bound = threshold(max_abs(v), PHYSICALITY_TOL)
        least = least_eigenvalue_unless_above(v + 0.5j * symplectic_form(n), -bound)
        if least is not None and least < -bound:
            raise InvalidCovarianceError(
                f"uncertainty relation violated (min eigenvalue {least:.3e})"
            )
        object.__setattr__(self, "V", v)

    @property
    def n_modes(self) -> int:
        return self.V.shape[0] // 2

    def purity_residual(self) -> tuple[float, float]:
        """``|det(V) 4**N - 1|`` and the rounding floor below which it is noise.

        For a state ``(1 + d) V_pure`` the residual is about ``2 N d``; for a
        pure state it is the rounding of the determinant, about
        ``eps ||V|| ||V^-1||``. A pure state has ``V^-1 = -4 Sigma V Sigma``,
        so the floor ``c eps ||V||_F ||V^-1||_F = 4 c eps ||V||_F**2`` needs
        no second factorization. ``c = 4`` is ten times the largest ratio of
        residual to ``eps ||V||_F ||V^-1||_F`` seen on pure states (0.42, on
        two-mode squeezing up to alpha = 9 and random graph states up to 32
        modes).
        """
        residual = abs(float(np.linalg.det(self.V)) * 4.0 ** self.n_modes - 1.0)
        floor = TOL_FLOOR * float(np.linalg.norm(self.V)) ** 2  # 16 eps ||V||_F**2
        return residual, floor

    def is_pure(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether ``det(V)`` equals ``2**(-2N)`` to relative tolerance ``tol``.

        The residual is compared with ``threshold(1, tol)`` or, for a
        covariance so squeezed that its determinant's rounding exceeds that,
        with the rounding floor (:meth:`purity_residual`).
        """
        residual, floor = self.purity_residual()
        return residual <= max(threshold(1.0, tol), floor)

    @classmethod
    def vacuum(cls, n_modes: int) -> "CovarianceMatrix":
        return cls(0.5 * np.eye(2 * n_modes))


@dataclass(frozen=True)
class GraphMatrix:
    """The complex symmetric label ``Z = X + iY`` of a pure Gaussian state.

    ``X`` and ``Y`` are real symmetric N x N matrices and ``Y`` is positive
    definite (minimum eigenvalue above ``POSDEF_TOL``). Exact-form short cut:
    a ``Y`` whose Gershgorin discs all lie above ``POSDEF_TOL``, as every
    block-structured state's diagonally dominant ``Y`` does, is accepted
    without a factorization. Otherwise a Cholesky factorization of
    ``Y - POSDEF_TOL I`` accepts, and only when it fails does ``eigvalsh``
    decide.

    A graph is immutable. It stores its own symmetrized copies of ``X`` and
    ``Y``, read-only, so the caller's arrays stay writable. Facts derived
    from it are computed once and kept on the instance: ``Z`` (read-only
    too), ``Y^-1`` and the certificate of :func:`gsynth.structure.decompose`
    for each tolerance. Equality, ``repr`` and ``dataclasses.replace`` see
    the fields alone, and a replaced graph computes its facts afresh.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.Y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape or x.shape[0] != x.shape[1] or x.shape[0] == 0:
            raise DimensionError(
                f"graph matrix parts must be equal square matrices, got {x.shape} and {y.shape}"
            )
        if not all_finite(x, y):
            raise ValueError("graph matrix has non-finite entries")
        x = symmetrized(x, "real part of graph matrix")
        y = symmetrized(y, "imaginary part of graph matrix")
        # Gershgorin: every eigenvalue of Y is at least min_i (Y_ii - sum_j!=i |Y_ij|),
        # here less 16 n eps of the largest absolute row sum for the sums' rounding
        rows = np.add.reduce(np.abs(y), axis=1)
        slack = len(y) * TOL_FLOOR * np.maximum.reduce(rows)
        if not np.minimum.reduce(2.0 * y.diagonal() - rows) > POSDEF_TOL + slack:
            least = least_eigenvalue_unless_above(y, POSDEF_TOL)
            if least is not None and least <= POSDEF_TOL:
                raise ValueError("imaginary part of graph matrix must be positive definite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @cached_property
    def Z(self) -> NDArray[np.complex128]:
        z = self.X + 1j * self.Y
        z.flags.writeable = False
        return z

    @cached_property
    def _y_inv(self) -> NDArray[np.float64]:
        """``Y^-1``, read-only; ``Y`` is positive definite, so it exists."""
        y_inv = np.linalg.inv(self.Y)
        y_inv.flags.writeable = False
        return y_inv

    @property
    def n_modes(self) -> int:
        return self.X.shape[0]

    @classmethod
    def vacuum(cls, n_modes: int) -> "GraphMatrix":
        return cls(np.zeros((n_modes, n_modes)), np.eye(n_modes))


def factor_covariance(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> GraphMatrix:
    """Factor a pure covariance matrix into its graph matrix.

    With ``V`` partitioned into N x N quadrature blocks, the factorization
    inverts ``V = (1/2) [[Y^-1, Y^-1 X], [X Y^-1, X Y^-1 X + Y]]``:
    ``Y = (2 V_qq)^-1`` and ``X = Y (2 V_qp)``.

    Raises
    ------
    NotPureStateError
        If the determinant test for purity fails at tolerance ``tol``.
    DegenerateCovarianceError
        If the position block is singular, or so large that ``Y`` is not a
        valid graph part (positive definite above ``POSDEF_TOL``, finite).
    """
    if not cov.is_pure(tol):
        message = f"state is not pure (purity {purity(cov):.6f})"
        residual, floor = cov.purity_residual()
        if floor > threshold(1.0, tol):
            message += (f"; |det(V) 4^N - 1| = {residual:.3e} exceeds this covariance's"
                        f" rounding floor {floor:.3e}, which is above tol")
        raise NotPureStateError(message)
    n = cov.n_modes
    v_qq = cov.V[:n, :n]
    v_qp = cov.V[:n, n:]
    try:
        y = np.linalg.inv(2.0 * v_qq)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError("position block of the covariance is singular") from exc
    x = y @ (2.0 * v_qp)
    # Purity guarantees symmetry of both factors; discard rounding skew.
    try:
        return GraphMatrix(0.5 * (x + x.T), 0.5 * (y + y.T))
    except ValueError as exc:
        raise DegenerateCovarianceError(f"covariance has no graph matrix: {exc}") from exc


def graph_to_covariance(graph: GraphMatrix) -> CovarianceMatrix:
    """Covariance matrix of the pure state labeled by ``graph``."""
    n = graph.n_modes
    y_inv = graph._y_inv
    x = graph.X
    xy = x @ y_inv
    v = np.empty((2 * n, 2 * n))
    v[:n, :n] = y_inv
    v[:n, n:] = y_inv @ x
    v[n:, :n] = xy
    v[n:, n:] = xy @ x + graph.Y
    v *= 0.5
    return CovarianceMatrix(0.5 * (v + v.T))


def purity(cov) -> float:
    """Purity ``1 / (2**N sqrt(det V))``, in ``(0, 1]`` for physical states.

    ``cov`` is a :class:`CovarianceMatrix` or a bare 2N x 2N array, such as
    a sample of a trajectory, which is not checked for physicality.

    Raises
    ------
    InvalidCovarianceError
        If ``det V`` is not positive.
    """
    v = cov.V if isinstance(cov, CovarianceMatrix) else np.asarray(cov, dtype=float)
    det = float(np.linalg.det(v))
    if det <= 0.0:
        raise InvalidCovarianceError(f"covariance determinant {det:.3e} is not positive")
    return 1.0 / (2.0 ** (v.shape[0] // 2) * np.sqrt(det))


def symplectic_eigenvalues(v) -> NDArray[np.float64]:
    """The N symplectic eigenvalues of a 2N x 2N covariance-like matrix.

    Computed as the absolute eigenvalues of ``i Sigma v``, which occur in
    equal pairs; pairs are merged by sorting and averaging adjacent values.
    Adjacent values further apart than ``threshold`` at the scale of the
    entries of ``v``, where the eigensolver's rounding sits, do not pair,
    and the matrix is rejected.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ v)))
    gaps = moduli[1::2] - moduli[0::2]
    if gaps.size and gaps.max() > threshold(max_abs(v)):
        raise InvalidCovarianceError(
            "eigenvalues do not pair into a symplectic spectrum; matrix is not covariance-like"
        )
    return 0.5 * (moduli[0::2] + moduli[1::2])


def log_negativity(cov: CovarianceMatrix) -> float:
    """Logarithmic negativity of a two-mode state across the 1|1 split.

    Partially transposes the second mode (sign flip of its momentum row and
    column) and sums ``max(0, -ln(2 nu))`` over the symplectic eigenvalues
    ``nu`` of the result.
    """
    if cov.n_modes != 2:
        raise UnsupportedBipartitionError(
            f"logarithmic negativity is implemented for 2 modes, got {cov.n_modes}"
        )
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nus = symplectic_eigenvalues(flip @ cov.V @ flip)
    return float(np.sum(np.maximum(0.0, -np.log(2.0 * nus))))


def reduced_state(cov: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Restriction of the state to the given modes, preserving (q.., p..) order."""
    modes = list(modes)
    n = cov.n_modes
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must be distinct, got {modes}")
    for m in modes:
        if not 0 <= m < n:
            raise IndexError(f"mode index {m} out of range for {n} modes")
    idx = modes + [n + m for m in modes]
    return CovarianceMatrix(cov.V[np.ix_(idx, idx)])
