"""Dense real/complex matrix substrate.

Everything here targets small dense problems (matrix dimension at most 64):
eigendecomposition, toleranced rank, a guarded Bartels-Stewart Lyapunov
solve, matrix exponentials and permutation bookkeeping. All functions are
pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import DimensionError, NotHurwitzError

#: Default relative tolerance for structural zero/equality tests.
DEFAULT_TOL = 1e-9

#: Absolute bound on the spectral abscissa below which a matrix counts as Hurwitz.
HURWITZ_TOL = 1e-12


def max_abs(a) -> float:
    """Max-norm of an array (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def eig(a) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Eigenvalues and unit-norm right eigenvectors of a square matrix.

    Returns
    -------
    (w, v):
        ``w`` holds the eigenvalues, ``v`` the eigenvectors as columns,
        normalized to unit Euclidean norm, with ``a @ v[:, k] == w[k] * v[:, k]``.
    """
    a = _require_square(np.asarray(a, dtype=complex))
    w, v = np.linalg.eig(a)
    norms = np.linalg.norm(v, axis=0)
    return w, v / norms


def rank_tol(m, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: number of singular values above ``tol * max(1, s_max)``.

    The threshold floor of 1 keeps the rank of small-norm matrices from
    being inflated by noise-level singular values.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    s = scipy.linalg.svdvals(m)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def spectral_abscissa(a) -> float:
    """Largest real part among the eigenvalues of ``a``."""
    a = _require_square(np.asarray(a))
    return float(np.linalg.eigvals(a).real.max())


def is_hurwitz(a) -> bool:
    """Whether every eigenvalue of ``a`` has real part below ``-HURWITZ_TOL``."""
    return spectral_abscissa(a) < -HURWITZ_TOL


def solve_lyapunov(a, d) -> NDArray[np.float64]:
    """Solve ``a @ v + v @ a.T + d = 0`` for symmetric ``v``.

    Uses scipy's Schur-based Bartels-Stewart solver. The output is
    symmetrized before being returned, and a relative residual check
    rejects an ill-conditioned solution.

    Raises
    ------
    NotHurwitzError
        If ``a`` is not Hurwitz, in which case the equation has no unique
        stabilizing solution.
    """
    a = _require_square(np.asarray(a, dtype=float), "drift matrix")
    d = np.asarray(d, dtype=float)
    if d.shape != a.shape:
        raise DimensionError(f"noise matrix shape {d.shape} does not match {a.shape}")
    if max_abs(d - d.T) > DEFAULT_TOL * max(1.0, max_abs(d)):
        raise ValueError("noise matrix must be symmetric")
    if not is_hurwitz(a):
        raise NotHurwitzError(
            "drift matrix is not Hurwitz; the steady-state equation has no unique solution"
        )
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d)
    bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d))
    if residual > bound:
        raise NotHurwitzError(
            f"Lyapunov solve is ill-conditioned (residual {residual:.3e} exceeds {bound:.3e})"
        )
    return v


def expm(a, t: float = 1.0) -> NDArray[np.float64]:
    """Matrix exponential ``exp(a * t)`` via scaling-and-squaring with Pade."""
    a = _require_square(np.asarray(a))
    return scipy.linalg.expm(a * t)


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``{0, ..., n-1}`` acting on matrix indices.

    ``image[s]`` is the source index placed at slot ``s``, so the matrix
    form ``P`` has ``P[s, image[s]] = 1`` and conjugation reorders a
    matrix as ``(P @ m @ P.T)[s, t] == m[image[s], image[t]]``.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"image {self.image} is not a bijection on 0..{n - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def matrix(self) -> NDArray[np.float64]:
        return np.eye(self.n)[list(self.image)]

    def inverse(self) -> "Permutation":
        return Permutation(tuple(int(k) for k in np.argsort(self.image)))

    def conjugate(self, m) -> np.ndarray:
        """Return ``P @ m @ P.T`` without forming the permutation matrix."""
        m = _require_square(np.asarray(m))
        if m.shape[0] != self.n:
            raise DimensionError(f"matrix of size {m.shape[0]} under permutation of size {self.n}")
        idx = list(self.image)
        return m[np.ix_(idx, idx)]
