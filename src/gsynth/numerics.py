"""Dense real/complex matrix substrate and the tolerance policy.

Everything here targets small dense problems (matrix dimension at most 64):
toleranced rank, the one Lyapunov solver (per-mode closed form, then an
eigenbasis the caller already holds, then the drift's own eigenbasis, then
scipy's Bartels-Stewart), matrix exponentials and permutation bookkeeping.
A design keeps the eigenbasis of its drift, and a uniform thermal bath only
shifts that drift's eigenvalues, so a design's thermal solves take no
eigendecomposition of their own. All functions are pure and safe to call
concurrently.

Only the fallback of :func:`solve_lyapunov` needs scipy, and it imports
``scipy.linalg`` when it runs. The Hurwitz verdict, the closed-form and
eigenbasis solves and :func:`expm` (Higham's scaling and squaring Pade)
use numpy alone, so importing the package or its command line, refusing
an unstable drift, and running any command on a drift with a
well-conditioned eigenbasis load no scipy module.

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

_NOT_HURWITZ = "drift matrix is not Hurwitz; the steady-state equation has no unique solution"


def max_abs(a) -> float:
    """Max-norm of an array (0.0 for empty input; NaN when an entry is NaN)."""
    return float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))


def all_finite(*parts) -> bool:
    """Whether every entry of every array in ``parts`` is finite (one reduction each)."""
    for part in parts:
        if not np.logical_and.reduce(np.isfinite(part), axis=None):
            return False
    return True


#: Smallest tolerance :func:`threshold` applies. A residual within a few
#: ulps of its scale is rounding, so ``tol = 0`` asks for equality up to
#: rounding, which a computed graph or covariance can meet.
TOL_FLOOR = 16.0 * np.finfo(float).eps


def threshold(scale, tol: float = DEFAULT_TOL) -> float:
    """The zero threshold ``tol * max(1, scale)`` for data of max-norm ``scale``.

    ``tol`` below :data:`TOL_FLOOR` counts as ``TOL_FLOOR``, and a NaN ``tol`` is a
    ``ValueError``; an array of scales gives one threshold each (a NaN scale counts as 1).
    Every scaled structural test compares its residual with this value. Exceptions,
    which keep their own arithmetic for now:

    * ``CovarianceMatrix.is_pure``, ``|det(V) 4**N - 1|`` against
      ``threshold(1, tol)`` or the determinant's rounding floor, whichever
      is larger;
    * the fixed bounds ``HURWITZ_TOL`` and ``gaussian.POSDEF_TOL``
      (absolute);
    * the Lyapunov residual bounds in :func:`solve_lyapunov` (Frobenius
      norms, relative with no floor): ``16 n eps`` to accept the closed-form
      or eigenbasis answer, 1e-10 to refuse scipy's fallback answer.
    """
    # a NaN tol would make a threshold that no residual exceeds; the max() of the rule is
    # written as conditionals, as every structural test of an op calls this
    if tol != tol:
        raise ValueError("tol must not be NaN")
    tol = tol if tol >= TOL_FLOOR else TOL_FLOOR
    if isinstance(scale, np.ndarray):
        return tol * np.fmax(1.0, scale)
    return tol * (scale if scale > 1.0 else 1.0)


def symmetrized(m, name: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``(m + m.T) / 2``, after checking ``m`` is symmetric under :func:`threshold`.

    Each constructor that holds a symmetric matrix calls this once on it.
    Exact-form short cut: an ``m`` whose bytes equal its transpose's passes
    at once, and a copy of it is returned, which is ``(m + m.T) / 2`` bit for
    bit unless ``2 m`` overflows. Every matrix a design op builds is exact
    (``X`` and ``Y``, the input, target and steady covariances, ``G`` and
    ``D``), so only a matrix from outside with a rounding skew, or with a
    ``-0.0`` facing a ``0.0``, takes the scaled test.

    Raises
    ------
    ValueError
        ``"<name> must be symmetric"`` when ``max|m - m.T|`` exceeds the
        threshold at scale ``max|m|``.
    """
    if m.tobytes() == m.T.tobytes():
        return m.copy()
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
    if not all_finite(m):
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

    Every steady state is solved by :func:`_solve_lyapunov`, cheapest route
    first:

    1. A drift and noise of even order with no entry outside the per-mode
       ``(q_j, p_j)`` 2 x 2 blocks, such as a passive diagonal Hamiltonian
       under thermal baths alone, split into independent 2 x 2 equations,
       solved in closed form with a Routh-Hurwitz verdict
       (:func:`_per_mode_lyapunov`).
    2. A candidate eigenbasis ``(w, s, s^-1)`` of ``a`` that a caller
       already holds; this public entry passes none. A design's solves with
       coupling pass the eigenbasis of its drift, kept on the design, with
       ``w`` shifted by a uniform bath (see :mod:`gsynth.dynamics`). It is
       used only when ``w`` passes the rule of :func:`is_hurwitz` and the
       eigenbasis answer below passes :func:`_accepted` against ``(a, d)``.
    3. Otherwise one ``np.linalg.eig(a) = (w, s)``, or the caller's basis if it
       is that very decomposition (:class:`_OwnBasis`). A spectral abscissa
       not below ``-HURWITZ_TOL``, the rule of :func:`is_hurwitz`, raises
       :class:`NotHurwitzError`. When ``s`` inverts, the equation is
       diagonal in the eigenbasis, ``y_ij = -(s^-1 d s^-H)_ij / (w_i +
       conj(w_j))``, and ``v = Re(s y s^H)``, symmetrized, is returned if
       it passes :func:`_accepted`.
    4. Every other case (a clustered or defective spectrum, a singular or
       ill-conditioned ``s``) takes Bartels-Stewart as scipy's
       ``solve_continuous_lyapunov`` does, the only code that imports
       ``scipy.linalg``: the real Schur form ``a = u r u.T``, then LAPACK's
       ``dtrsyl`` on ``r`` and ``u.T (-d) u``. Its answer is scipy's, bit
       for bit, symmetrized. It is refused when trsyl reports ``info != 0``,
       having perturbed a near-zero eigenvalue sum to finish, or a scale
       below 1, having shrunk the equation because the solution would
       overflow, and when its relative residual exceeds 1e-10.

    The first three use numpy alone, so a non-Hurwitz drift is refused
    without loading scipy, and every "not Hurwitz" verdict comes from the
    closed form or the eigenvalues of ``a`` itself, never from a
    candidate. This entry checks the caller's ``a`` and ``d`` (``d`` by
    :func:`symmetrized`); a ``MomentSystem``'s are checked already.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` has a NaN or infinite entry.
    ValueError
        If ``d`` is not symmetric or has a NaN or infinite entry.
    NotHurwitzError
        If ``a`` is not Hurwitz, in which case the equation has no unique
        stabilizing solution, or if the solution fails the residual check
        or route 4's trsyl had to perturb or scale the equation.
    """
    a = _require_square(np.asarray(a, dtype=float), "drift matrix")
    d = np.asarray(d, dtype=float)
    if d.shape != a.shape:
        raise DimensionError(f"noise matrix shape {d.shape} does not match {a.shape}")
    d = symmetrized(d, "noise matrix")
    if not all_finite(a):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if not all_finite(d):
        raise ValueError("noise matrix must not contain infs or NaNs")
    return _solve_lyapunov(a, d, None)[0]


class _OwnBasis(tuple):
    """An eigenbasis ``(w, s, s^-1)`` that is ``np.linalg.eig`` of the drift it comes with."""


def _solve_lyapunov(a, d, basis) -> tuple[NDArray[np.float64], float]:
    """:func:`solve_lyapunov` with a candidate ``(w, s, s^-1)``, an :class:`_OwnBasis` or
    None, on checked input: float ``a`` and ``d`` of one square shape, ``a`` finite and
    ``d`` exactly symmetric, as a :class:`~gsynth.dynamics.MomentSystem` holds them.

    Returns ``(v, ||a v + v a.T + d||)`` (Frobenius): every route judges its answer by
    that residual, so a caller that reports it takes it from here, not afresh."""
    own = isinstance(basis, _OwnBasis)
    solved = _per_mode_lyapunov(a, d) if a.shape[0] % 2 == 0 else None
    if solved is None and basis is not None and not own and basis[0].real.max() < -HURWITZ_TOL:
        solved = _modal_lyapunov(a, d, *basis)
    if solved is None:
        w, s, s_inv = basis if own else eigenbasis(a)
        if not w.real.max() < -HURWITZ_TOL:
            raise NotHurwitzError(_NOT_HURWITZ)
        solved = _modal_lyapunov(a, d, w, s, s_inv)
    if solved is not None:
        return solved
    import scipy.linalg

    # scipy's solve_continuous_lyapunov(a, -d), step for step, reading trsyl's info
    r, u = scipy.linalg.schur(a, output="real")
    f = u.conj().T.dot((-d).dot(u))
    y, scale, info = scipy.linalg.lapack.dtrsyl(r, r, f, tranb="T")
    # info 1: trsyl perturbed a near-zero eigenvalue sum; scale < 1: it shrank the
    # right-hand side, as the solution would overflow
    if info != 0 or scale != 1.0:
        raise NotHurwitzError(
            f"Lyapunov solve is ill-conditioned (trsyl info {info}, scale {scale:.3e})"
        )
    v = u.dot(y).dot(u.conj().T)
    v = 0.5 * (v + v.T)
    residual = float(np.linalg.norm(a @ v + v @ a.T + d))
    bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d))
    if residual > bound:
        raise NotHurwitzError(
            f"Lyapunov solve is ill-conditioned (residual {residual:.3e} exceeds {bound:.3e})"
        )
    return v, residual


def eigenbasis(a) -> tuple[NDArray[np.complex128], NDArray[np.complex128],
                           NDArray[np.complex128] | None]:
    """``(w, s, s^-1)`` with ``a = s diag(w) s^-1``; ``s^-1`` is None when ``s`` is singular.

    ``(w, s)`` is ``np.linalg.eig(a)`` as it stands, unnormalized, so a
    basis kept by a caller is the one route 3 of :func:`solve_lyapunov`
    would take.
    """
    w, s = np.linalg.eig(a)
    try:
        return w, s, np.linalg.inv(s)
    except np.linalg.LinAlgError:
        return w, s, None


def _per_mode_lyapunov(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The solution and its residual for a system that splits into per-mode 2 x 2 blocks,
    or None.

    For one block ``a`` with trace ``t`` and determinant ``det``,
    Cayley-Hamilton gives the solution of ``a v + v a.T + d = 0`` as
    ``v = -(det d + e d e.T) / (2 t det)`` with ``e = a - t I``. A 2 x 2
    drift has every eigenvalue's real part below ``-HURWITZ_TOL`` exactly
    when ``a + HURWITZ_TOL I`` has negative trace and positive determinant
    (Routh-Hurwitz), so the verdict needs no eigensolver and uses the same
    guard as :func:`is_hurwitz`. Returns None, to fall back, when the
    system has an inter-mode entry or a non-finite one, or when the answer
    fails :func:`_accepted`.
    """
    n = a.shape[0] // 2
    # a per-mode matrix has at most 4 N nonzeros, so a coupled drift is
    # turned away after one count
    if np.count_nonzero(a) > 4 * n or np.count_nonzero(d) > 4 * n:
        return None
    # blocks[j] is the 2 x 2 restriction of a matrix to (q_j, p_j)
    modes = np.arange(n)
    a_blocks = a.reshape(2, n, 2, n)[:, modes, :, modes]
    d_blocks = d.reshape(2, n, 2, n)[:, modes, :, modes]
    if (np.count_nonzero(a_blocks) != np.count_nonzero(a)
            or np.count_nonzero(d_blocks) != np.count_nonzero(d)
            or not all_finite(a_blocks, d_blocks)):
        return None
    a11, a12, a21, a22 = a_blocks.reshape(n, 4).T
    if not np.all((a11 + a22 + 2.0 * HURWITZ_TOL < 0.0)
                  & ((a11 + HURWITZ_TOL) * (a22 + HURWITZ_TOL) - a12 * a21 > 0.0)):
        raise NotHurwitzError(_NOT_HURWITZ)
    det = a11 * a22 - a12 * a21
    if not np.all(det > 0.0):
        # rounding contradicts the verdict: a Hurwitz block has det > 0
        return None
    trace = (a11 + a22)[:, None, None]
    det = det[:, None, None]
    e = a_blocks - trace * np.eye(2)
    blocks = -(det * d_blocks + e @ d_blocks @ e.transpose(0, 2, 1)) / (2.0 * trace * det)
    v = np.zeros_like(a)
    v.reshape(2, n, 2, n)[:, modes, :, modes] = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    return _accepted(a, v, d)


def _modal_lyapunov(a: np.ndarray, d: np.ndarray, w: np.ndarray, s: np.ndarray,
                    s_inv: np.ndarray | None) -> tuple[NDArray[np.float64], float] | None:
    """The solution in the eigenbasis ``a = s diag(w) s^-1`` and its residual, or None to
    fall back."""
    if s_inv is None:
        return None
    y = (s_inv @ d @ s_inv.conj().T) / -(w[:, None] + w.conj()[None, :])
    v = (s @ y @ s.conj().T).real
    v = 0.5 * (v + v.T)
    return _accepted(a, v, d)


def _accepted(a, v, d) -> tuple[np.ndarray, float] | None:
    """``(v, ||a v + v a.T + d||)`` when ``v`` solves the equation to rounding, else None.

    The relative residual ``||a v + v a.T + d|| / (||a|| ||v|| + ||d||)``
    (Frobenius norms) must be at most ``16 n eps`` for ``n x n`` operands.
    Forming ``a v + v a.T`` rounds each entry by about ``n eps ||a||
    ||v||``, so an exact answer reads about ``2 n eps`` (benchmark designs,
    their thermal variants and bath-only drifts at n = 4..64 read at most
    that). 8 times it, 16 n eps, is 2.3e-13 at n = 64: over 400 times below
    the 1e-10 at which scipy's fallback answer is refused. A NaN residual
    fails.
    """
    residual = float(np.linalg.norm(a @ v + v @ a.T + d))
    bound = a.shape[0] * TOL_FLOOR  # 16 n eps
    if residual <= bound * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d)):
        return v, residual
    return None


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

    ``image[s]`` is the source index placed at slot ``s``: with ``P[s,
    image[s]] = 1``, conjugation reorders a matrix as ``(P @ m @ P.T)[s, t]
    == m[image[s], image[t]]``.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"image {self.image} is not a bijection on 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.image)

    def inverse(self) -> "Permutation":
        return Permutation(tuple(int(k) for k in np.argsort(self.image)))

    def conjugate(self, m) -> np.ndarray:
        """Return ``P @ m @ P.T`` without forming the permutation matrix."""
        m = _require_square(np.asarray(m))
        if m.shape[0] != self.n:
            raise DimensionError(f"matrix of size {m.shape[0]} under permutation of size {self.n}")
        idx = list(self.image)
        return m[np.ix_(idx, idx)]
