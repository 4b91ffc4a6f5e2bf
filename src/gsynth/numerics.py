"""Dense real/complex matrix substrate and the tolerance policy.

Everything here targets small dense problems (matrix dimension at most 64):
eigendecomposition, toleranced rank, a guarded Bartels-Stewart Lyapunov
solve, matrix exponentials and permutation bookkeeping. All functions are
pure and safe to call concurrently.

Only :func:`solve_lyapunov` and :func:`expm` need scipy, and each imports
``scipy.linalg`` when it is called. Importing this module, or the package
and its command line, loads numpy alone, so a command decided by factoring
and the block certificate (``analyze``, ``feasible``, an infeasible
``synthesize``) never pays scipy's import time.

Tolerance policy: a residual ``err`` of a structural test on data of scale
``s`` (the max-norm of the entries it came from) counts as zero when
``err <= tol * max(1, s)``, relative above unit scale and absolute below
it. :func:`threshold` is the one place this rule is written, and
:func:`symmetrized` applies it to every check-then-symmetrize of an input
matrix. Each caller of :func:`threshold` keeps its own
comparison with the returned threshold (``>`` to reject, ``<=`` to
accept), so a NaN residual fails every test as it always has. The tests
that do not follow the rule yet are listed in :func:`threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


def threshold(scale, tol: float = DEFAULT_TOL) -> float:
    """The zero threshold ``tol * max(1, scale)`` for data of max-norm ``scale``.

    Every scaled structural test compares its residual with this value.
    Exceptions, which keep their own arithmetic for now:

    * ``structure.decompose``'s scalar test ``|z - i| > tol`` (absolute);
    * ``CovarianceMatrix.is_pure``, ``|det(V) 4**N - 1| <= tol`` (absolute);
    * the fixed bounds ``HURWITZ_TOL``, ``gaussian.POSDEF_TOL`` and
      ``gaussian.PHYSICALITY_TOL`` (absolute);
    * ``dynamics.MomentSystem``'s positive-semidefinite floor ``-1e-10``
      (absolute);
    * the Lyapunov residual bound in :func:`solve_lyapunov` (Frobenius
      norms, relative with no floor);
    * ``dynamics.verify_generation``'s target test, ``max|V - V_target|
      <= tol`` (absolute).
    """
    return tol * max(1.0, scale)


def symmetrized(m, name: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``(m + m.T) / 2``, after checking ``m`` is symmetric under :func:`threshold`.

    Raises
    ------
    ValueError
        ``"<name> must be symmetric"`` when ``max|m - m.T|`` exceeds the
        threshold at scale ``max|m|``.
    """
    if max_abs(m - m.T) > threshold(max_abs(m), tol):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


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
    """Numerical rank: number of singular values above ``threshold(s_max, tol)``.

    The threshold floor of 1 keeps the rank of small-norm matrices from
    being inflated by noise-level singular values. The singular values come
    from numpy's SVD, so this does not load scipy.

    Raises
    ------
    ValueError
        If ``tol`` is negative or ``m`` has a NaN or infinite entry.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    if not np.all(np.isfinite(m)):
        raise ValueError("array must not contain infs or NaNs")
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > threshold(float(s[0]), tol)))


def spectral_abscissa(a) -> float:
    """Largest real part among the eigenvalues of ``a``."""
    a = _require_square(np.asarray(a))
    return float(np.linalg.eigvals(a).real.max())


def is_hurwitz(a) -> bool:
    """Whether every eigenvalue of ``a`` has real part below ``-HURWITZ_TOL``."""
    return spectral_abscissa(a) < -HURWITZ_TOL


def solve_lyapunov(a, d) -> NDArray[np.float64]:
    """Solve ``a @ v + v @ a.T + d = 0`` for symmetric ``v``.

    Uses scipy's Schur-based Bartels-Stewart solver, importing
    ``scipy.linalg`` on the first call. The noise matrix is
    checked and symmetrized by :func:`symmetrized`, the output is
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
    d = symmetrized(d, "noise matrix")
    if not is_hurwitz(a):
        raise NotHurwitzError(
            "drift matrix is not Hurwitz; the steady-state equation has no unique solution"
        )
    import scipy.linalg

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
    """Matrix exponential ``exp(a * t)`` via scaling-and-squaring with Pade.

    Calls ``scipy.linalg.expm``, importing ``scipy.linalg`` on the first call.
    """
    import scipy.linalg

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
