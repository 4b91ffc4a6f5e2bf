"""Dense real/complex matrix substrate and the tolerance policy.

Everything here targets small dense problems (matrix dimension at most 64):
eigendecomposition, toleranced rank, a Lyapunov solve by diagonalization
with Bartels-Stewart as its certified fallback, matrix exponentials and
permutation bookkeeping. All functions are pure and safe to call
concurrently.

Only the Bartels-Stewart fallback of :func:`solve_lyapunov` needs scipy,
and it imports ``scipy.linalg`` when it runs. The eigenbasis solve and
:func:`expm` (Higham's scaling and squaring Pade) use numpy alone, so
importing the package or its command line, and running any command on a
drift with a well-conditioned eigenbasis, loads no scipy module.

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

import math
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
    a = np.abs(a)
    return float(a.max()) if a.size else 0.0


#: Smallest tolerance :func:`threshold` applies. A residual within a few
#: ulps of its scale is rounding, so ``tol = 0`` asks for equality up to
#: rounding, which a computed graph or covariance can meet.
TOL_FLOOR = 16.0 * np.finfo(float).eps


def threshold(scale, tol: float = DEFAULT_TOL) -> float:
    """The zero threshold ``tol * max(1, scale)`` for data of max-norm ``scale``.

    ``tol`` below :data:`TOL_FLOOR` counts as ``TOL_FLOOR``. Every scaled
    structural test compares its residual with this value. Exceptions,
    which keep their own arithmetic for now:

    * ``structure.decompose``'s scalar test ``|z - i| > tol`` (absolute);
    * ``CovarianceMatrix.is_pure``, ``|det(V) 4**N - 1|`` against
      ``threshold(1, tol)`` or the determinant's rounding floor, whichever
      is larger;
    * the fixed bounds ``HURWITZ_TOL`` and ``gaussian.POSDEF_TOL``
      (absolute);
    * the Lyapunov residual bounds in :func:`solve_lyapunov` (Frobenius
      norms, relative with no floor): ``16 n eps`` to accept the eigenbasis
      answer, 1e-10 to refuse Bartels-Stewart's.
    """
    return max(tol, TOL_FLOOR) * max(1.0, scale)


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


def least_eigenvalue_unless_above(m, floor: float) -> float | None:
    """``None`` when Cholesky certifies every eigenvalue of ``m`` above ``floor``.

    ``m`` is real symmetric or complex Hermitian. A Cholesky factorization
    of ``m - floor I`` completes exactly when that matrix is positive
    definite, and it is backward stable (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 10.1), so success certifies the
    bound at a fraction of an eigendecomposition's cost. When it fails,
    the smallest eigenvalue from ``eigvalsh`` is returned, so every
    rejection, and the number its message quotes, comes from the
    eigenvalues as before.
    """
    shifted = np.array(m)
    shifted.flat[:: shifted.shape[0] + 1] -= floor
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return float(np.linalg.eigvalsh(m).min())
    return None


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

    Diagonalization first, with numpy alone: one ``np.linalg.eig(a) =
    (w, s)``. When the spectral abscissa is below ``-HURWITZ_TOL`` by more
    than the rounding of the spectrum and ``s`` inverts, the equation is
    diagonal in the eigenbasis, ``y_ij = -(s^-1 d s^-H)_ij / (w_i +
    conj(w_j))``, and ``v = Re(s y s^H)``, symmetrized. That answer is
    returned only when it passes :func:`solves_lyapunov`, a relative
    residual of at most ``16 n eps``.

    Every other case goes to Bartels-Stewart (:func:`_bartels_stewart`),
    whose answer is bitwise scipy's ``solve_continuous_lyapunov``: a
    non-finite ``d``, a clustered or defective spectrum, a singular or
    ill-conditioned ``s``, a residual above the bound, and an abscissa at or
    near the guard. So every :class:`NotHurwitzError` and every
    ill-conditioned verdict comes from the real Schur form, and only this
    fallback imports ``scipy.linalg``. The noise matrix is checked and
    symmetrized by :func:`symmetrized`.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` has a NaN or infinite entry.
    ValueError
        If ``d`` is not symmetric or, for a Hurwitz ``a``, has a NaN or
        infinite entry.
    NotHurwitzError
        If ``a`` is not Hurwitz, in which case the equation has no unique
        stabilizing solution, or if the solution fails the residual check.
    """
    a = _require_square(np.asarray(a, dtype=float), "drift matrix")
    d = np.asarray(d, dtype=float)
    if d.shape != a.shape:
        raise DimensionError(f"noise matrix shape {d.shape} does not match {a.shape}")
    d = symmetrized(d, "noise matrix")
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    v = _modal_lyapunov(a, d)
    return _bartels_stewart(a, d) if v is None else v


def _modal_lyapunov(a: np.ndarray, d: np.ndarray) -> NDArray[np.float64] | None:
    """The eigenbasis solution of ``a v + v a.T + d = 0``, or None to fall back."""
    n = a.shape[0]
    eps = np.finfo(float).eps
    w, s = np.linalg.eig(a)
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        return None
    norm_a = np.linalg.norm(a)
    # Bauer-Fike: rounding moves a computed eigenvalue by about
    # kappa(s) n eps ||a|| at most (||s|| = sqrt(n), its columns have unit
    # norm), so past this margin the Schur form's guard passes too
    margin = np.sqrt(n) * np.linalg.norm(s_inv) * n * eps * norm_a
    if not w.real.max() + margin < -HURWITZ_TOL:
        return None
    y = (s_inv @ d @ s_inv.conj().T) / -(w[:, None] + w.conj()[None, :])
    v = (s @ y @ s.conj().T).real
    v = 0.5 * (v + v.T)
    return v if solves_lyapunov(a, v, d) else None


def solves_lyapunov(a, v, d) -> bool:
    """Whether ``v`` solves ``a v + v a.T + d = 0`` to rounding.

    The relative residual ``||a v + v a.T + d|| / (||a|| ||v|| + ||d||)``
    (Frobenius norms) must be at most ``16 n eps`` for ``n x n`` operands.
    Forming ``a v + v a.T`` rounds each entry by about ``n eps ||a||
    ||v||``, so an exact answer reads about ``2 n eps`` (benchmark designs,
    their thermal variants and bath-only drifts at n = 4..64 read at most
    that). 8 times it, 16 n eps, is 2.3e-13 at n = 64: over 400 times below
    the 1e-10 at which Bartels-Stewart's answer is refused. A NaN residual
    fails.
    """
    residual = np.linalg.norm(a @ v + v @ a.T + d)
    bound = 16.0 * a.shape[0] * np.finfo(float).eps
    return bool(residual <= bound * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d)))


def _bartels_stewart(a: np.ndarray, d: np.ndarray) -> NDArray[np.float64]:
    """Bartels-Stewart on one real Schur form ``a = u t u.T``, bitwise scipy's.

    In LAPACK's standardized real Schur form ``diag(t)`` holds the real
    part of every eigenvalue, so the Hurwitz guard (the same
    ``-HURWITZ_TOL`` bound as :func:`is_hurwitz`) reads it from ``t``;
    LAPACK's ``?trsyl`` then solves the triangular equation. The output is
    symmetrized, and a relative residual above 1e-10 rejects an
    ill-conditioned solution. The one place the package imports scipy.
    """
    import scipy.linalg

    t, u = scipy.linalg.schur(a, output="real")
    if not np.diag(t).max() < -HURWITZ_TOL:
        raise NotHurwitzError(
            "drift matrix is not Hurwitz; the steady-state equation has no unique solution"
        )
    q = -d
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")
    # the products in scipy's solve_continuous_lyapunov order, so the result
    # is bitwise what that call returns
    f = u.conj().T.dot(q.dot(u))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (t, f))
    y, scale, info = trsyl(t, t, f, tranb="T")
    if info < 0:
        raise ValueError(f"?trsyl: illegal value in argument number {-info}")
    # info == 1: trsyl perturbed a near-zero eigenvalue sum; the residual check decides
    y *= scale
    v = u.dot(y).dot(u.conj().T)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d)
    bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d))
    if residual > bound:
        raise NotHurwitzError(
            f"Lyapunov solve is ill-conditioned (residual {residual:.3e} exceeds {bound:.3e})"
        )
    return v


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited": the [m/m] Pade numerator coefficients b_0 .. b_m, split into
# the even and odd ones, and the largest 1-norm theta_m at which degree m
# meets double precision unscaled.
_PADE = {
    m: (np.array(b[0::2]), np.array(b[1::2]))
    for m, b in {
        3: (120.0, 60.0, 12.0, 1.0),
        5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
        7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
        9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0),
        13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
             1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
             33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
    }.items()
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0


def expm(a, t: float = 1.0) -> NDArray[np.float64]:
    """Matrix exponential ``exp(a * t)`` by scaling and squaring with Pade.

    Higham (2005), in numpy alone: the degree is the least of 3, 5, 7 and 9
    whose bound ``theta_m`` the 1-norm of ``a t`` meets. Above ``theta_9``
    the matrix is scaled by ``2**-s`` into ``theta_13``, the degree-13
    approximant is taken, and the result is squared ``s`` times.
    """
    a = _require_square(np.asarray(a)) * t
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    for m, theta in _THETA:
        if norm <= theta:
            return _pade(a, m)
    s = max(0, math.frexp(norm / _THETA_13)[1])
    r = _pade(a * 2.0 ** -s, 13)
    for _ in range(s):
        r = r @ r
    return r


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The degree-``m`` Pade approximant ``(v - u)^-1 (v + u)`` of ``exp(a)``.

    ``u`` holds the odd and ``v`` the even terms of the numerator; each sum
    over the stacked even powers ``a**2, a**4, ...`` is one matrix-vector
    product, and degree 13 nests them in ``a**6`` as Higham does.
    """
    even, odd = _PADE[m]
    n = a.shape[0]
    k = 3 if m == 13 else (m - 1) // 2
    powers = np.empty((k, n, n), dtype=np.result_type(a, float))
    np.matmul(a, a, out=powers[0])
    if k > 1:
        np.matmul(powers[0], powers[0], out=powers[1])
    if k > 2:
        np.matmul(powers[1], powers[0], out=powers[2])
    if k > 3:
        np.matmul(powers[1], powers[1], out=powers[3])
    flat = powers.reshape(k, n * n)
    if m == 13:
        u = powers[2] @ (odd[4:] @ flat).reshape(n, n) + (odd[1:4] @ flat).reshape(n, n)
        v = powers[2] @ (even[4:] @ flat).reshape(n, n) + (even[1:4] @ flat).reshape(n, n)
    else:
        u = (odd[1:] @ flat).reshape(n, n)
        v = (even[1:] @ flat).reshape(n, n)
    u.flat[:: n + 1] += odd[0]
    v.flat[:: n + 1] += even[0]
    u = a @ u
    return np.linalg.solve(v - u, v + u)


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
