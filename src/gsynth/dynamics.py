"""Moment dynamics: drift/diffusion assembly, stability, steady states and
transient covariance evolution.

For a quadratic Hamiltonian matrix ``G`` and coupling rows ``C`` the first
and second moments obey ``d<x>/dt = A <x>`` and
``dV/dt = A V + V A.T + D`` with ``A = Sigma (G + Im(C^dag C))`` and
``D = (1/2) B B^dag``, ``B = i Sigma [-C^dag  C.T]``. Since
``B B^dag = 2 Sigma Re(C^dag C) Sigma.T``, ``D`` is real and is formed from
the ``C^dag C`` the drift already needs. A Hurwitz ``A`` makes the steady
state the unique solution of ``A V + V A.T + D = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidDiffusionError, NotHurwitzError
from .gaussian import CovarianceMatrix, purity, symplectic_form
from .numerics import (
    DEFAULT_TOL,
    HURWITZ_TOL,
    expm,
    least_eigenvalue_unless_above,
    max_abs,
    solve_lyapunov,
    solves_lyapunov,
    symmetrized,
    threshold,
)
from .synthesis import Realization, ConstraintReport, verify_constraints

#: Eigenvalue slack of the diffusion matrix's positive semidefiniteness, at
#: the scale of its entries (see :func:`gsynth.numerics.threshold`).
DIFFUSION_PSD_TOL = 1e-10


@dataclass(frozen=True)
class MomentSystem:
    """Drift ``A`` and diffusion ``D`` of the moment equations.

    ``D`` must be symmetric and positive semidefinite: its eigenvalues may
    fall no lower than ``-threshold(max|D|, DIFFUSION_PSD_TOL)``. A Cholesky
    factorization of ``D`` shifted by that floor accepts; only when it
    fails does ``eigvalsh`` decide, and a rejection raises
    :class:`InvalidDiffusionError`.
    """

    A: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        d = np.asarray(self.D, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise DimensionError(f"drift matrix must be 2N x 2N, got {a.shape}")
        if d.shape != a.shape:
            raise DimensionError("diffusion shape must match the drift")
        d = symmetrized(d, "diffusion matrix", tol=1e-12)
        floor = threshold(max_abs(d), DIFFUSION_PSD_TOL)
        least = least_eigenvalue_unless_above(d, -floor)
        if least is not None and least < -floor:
            raise InvalidDiffusionError(
                f"diffusion matrix must be positive semidefinite (min eigenvalue {least:.3e})"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "D", d)

    @property
    def n_modes(self) -> int:
        return self.A.shape[0] // 2


def build_moment_system(g, c) -> MomentSystem:
    """Assemble drift and diffusion matrices from ``(G, C)``.

    ``A = Sigma (G + Im(C^dag C))`` and ``D = Sigma Re(C^dag C) Sigma.T``,
    both from one product ``C^dag C``.
    """
    return MomentSystem(*_moment_matrices(g, c))


def _moment_matrices(g, c) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated ``(A, D)`` of :func:`build_moment_system`; ``c`` may have no rows."""
    g = np.asarray(g, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
        raise DimensionError(f"Hamiltonian matrix must be 2N x 2N, got {g.shape}")
    if c.shape[1] != g.shape[0]:
        raise DimensionError(f"coupling rows must have {g.shape[0]} columns, got {c.shape}")
    n = g.shape[0] // 2
    sig = symplectic_form(n)
    cc = c.conj().T @ c
    return sig @ (g + cc.imag), sig @ cc.real @ sig.T


def steady_state(system: MomentSystem) -> CovarianceMatrix:
    """Unique steady-state covariance of a stable moment system.

    A system whose drift and diffusion have no entry outside the per-mode
    ``(q_j, p_j)`` 2 x 2 blocks, such as a passive diagonal Hamiltonian
    under thermal baths alone, splits into N independent 2 x 2 Lyapunov
    equations. They are solved in closed form as one batch
    (:func:`_per_mode_lyapunov`). Every other system, and a per-mode
    answer that fails the residual bound of :func:`solves_lyapunov`, goes
    to :func:`solve_lyapunov`.

    Raises ``NotHurwitzError`` when the drift is not Hurwitz.
    """
    v = _per_mode_lyapunov(system.A, system.D)
    return CovarianceMatrix(solve_lyapunov(system.A, system.D) if v is None else v)


def _per_mode_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """The steady state of a system that splits into per-mode 2 x 2 blocks, or None.

    For one block ``a`` with trace ``t`` and determinant ``det``,
    Cayley-Hamilton gives the solution of ``a v + v a.T + d = 0`` as
    ``v = -(det d + e d e.T) / (2 t det)`` with ``e = a - t I``. A 2 x 2
    drift has every eigenvalue's real part below ``-HURWITZ_TOL`` exactly
    when ``a + HURWITZ_TOL I`` has negative trace and positive determinant
    (Routh-Hurwitz), so the verdict needs no eigensolver and uses the same
    guard as :func:`solve_lyapunov`. Returns None, to fall back, when the
    system has an inter-mode entry or a non-finite one, or when the answer
    fails :func:`solves_lyapunov`.
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
            or not (np.isfinite(a_blocks).all() and np.isfinite(d_blocks).all())):
        return None
    a11, a12, a21, a22 = a_blocks.reshape(n, 4).T
    if not np.all((a11 + a22 + 2.0 * HURWITZ_TOL < 0.0)
                  & ((a11 + HURWITZ_TOL) * (a22 + HURWITZ_TOL) - a12 * a21 > 0.0)):
        raise NotHurwitzError(
            "drift matrix is not Hurwitz; the steady-state equation has no unique solution"
        )
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
    return v if solves_lyapunov(a, v, d) else None


@dataclass(frozen=True)
class Trajectory:
    """Sampled first and second moments: ``means[k]``, ``covariances[k]`` at ``times[k]``."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


def evolve(system: MomentSystem, v0: CovarianceMatrix, times, mean0=None) -> Trajectory:
    """Propagate the moment equations from ``v0`` (and ``mean0``, default 0).

    A step of length ``h`` is ``mean <- Phi mean``,
    ``V <- Phi V Phi.T + Q`` with ``Phi = exp(A h)`` and
    ``Q = int_0^h exp(A s) D exp(A.T s) ds``. Both come from one Van Loan
    block exponential, so the propagation is exact for unstable drift too.
    The first sample is one step from ``t = 0``. On a uniform grid (every
    ``times[k]`` within a few ulps of ``times[0] + k h``, as from
    ``np.linspace``) the rest take one step for ``h`` and then
    ``log2(m)`` doublings: the samples filled so far are advanced as one
    batch by the current pair, which is then squared,
    ``(Phi, Q) <- (Phi Phi, Phi Q Phi.T + Q)``. The flows of one drift
    commute, so this is as accurate as stepping sample by sample. An
    irregular grid takes one step per gap.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and ascending")
    n2 = system.A.shape[0]
    if v0.V.shape != (n2, n2):
        raise DimensionError("initial covariance size does not match the system")
    mean = np.zeros(n2) if mean0 is None else np.asarray(mean0, dtype=float)
    if mean.shape != (n2,):
        raise DimensionError(f"initial mean must have length {n2}")

    steps: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def step(h):
        if h not in steps:
            steps[h] = _van_loan_step(system, h)
        return steps[h]

    m = times.size
    h = (times[-1] - times[0]) / max(m - 1, 1)
    # np.linspace fills times[0] + k h, but sets the last sample to the
    # endpoint, which can sit a few ulps away
    if np.abs(times - (times[0] + h * np.arange(m))).max() > 4.0 * np.spacing(times[-1]):
        v = v0.V
        means, covs = [], []
        for gap in np.diff(times, prepend=0.0):
            phi, q = step(gap)
            mean = phi @ mean
            v = phi @ v @ phi.T + q
            v = 0.5 * (v + v.T)
            means.append(mean)
            covs.append(v)
        return Trajectory(times=times, means=np.stack(means), covariances=np.stack(covs))

    means = np.empty((m, n2))
    covs = np.empty((m, n2, n2))
    phi, q = step(times[0])
    means[0] = phi @ mean
    v = phi @ v0.V @ phi.T + q
    covs[0] = 0.5 * (v + v.T)
    filled = 1
    if m > 1:
        phi, q = step(h)
    while filled < m:
        cnt = min(filled, m - filled)
        # one matrix product each over the stacked batch: W = V Phi.T, then
        # W.T Phi.T = (Phi V Phi.T).T, which the symmetrization below absorbs
        w = (covs[:cnt].reshape(-1, n2) @ phi.T).reshape(cnt, n2, n2)
        v = (w.transpose(0, 2, 1).reshape(-1, n2) @ phi.T).reshape(cnt, n2, n2) + q
        covs[filled:filled + cnt] = 0.5 * (v + v.transpose(0, 2, 1))
        means[filled:filled + cnt] = means[:cnt] @ phi.T
        filled += cnt
        # squaring past the last sample is wasted and can overflow an unstable drift
        if filled < m:
            q = phi @ q @ phi.T + q
            phi = phi @ phi
    return Trajectory(times=times, means=means, covariances=covs)


def _van_loan_step(system: MomentSystem, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(A h), int_0^h exp(A s) D exp(A.T s) ds)`` by scaling and doubling.

    The block exponential holds ``exp(-A h)``, which overflows over long
    spans, so it is taken at ``h / 2**k`` with ``||A h / 2**k|| <= 1/2``
    and the pair is doubled ``k`` times. ``h = 0`` gives ``(I, 0)``
    exactly, with no exponential.
    """
    a, d = system.A, system.D
    n2 = a.shape[0]
    if h == 0.0:
        return np.eye(n2), np.zeros((n2, n2))
    # frexp's exponent is the least k with 2 ||A|| h < 2**k
    k = max(0, math.frexp(2.0 * np.linalg.norm(a, 1) * h)[1])
    block = np.zeros((2 * n2, 2 * n2))
    block[:n2, :n2] = -a
    block[:n2, n2:] = d
    block[n2:, n2:] = a.T
    e = expm(block, h / 2.0 ** k)
    phi = e[n2:, n2:].T
    q = phi @ e[:n2, n2:]
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    return phi, q


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of checking a design against its target covariance.

    ``tolerance`` is the bound the max-norm error was compared with, the
    target tolerance at the scale of the target.
    """

    hurwitz: bool
    lyapunov_residual: float
    max_error: float
    steady_purity: float
    constraints: ConstraintReport
    tolerance: float
    steady_covariance: CovarianceMatrix | None

    @property
    def generates_target(self) -> bool:
        return self.hurwitz and self.max_error <= self.tolerance


def verify_generation(realization: Realization, target: CovarianceMatrix,
                      tol: float = 1e-8, extra_rows=None,
                      constraint_tol: float = DEFAULT_TOL) -> GenerationReport:
    """Solve the design's steady state and compare it with ``target``.

    Never raises on a failing design: instability or a mismatch is reported
    through the flags and the max-norm error. ``extra_rows`` stacks
    parasitic coupling rows (for example thermal channels) under the
    designed coupling before solving; the constraint flags still refer to
    the designed coupling alone. The max-norm error passes when it is at
    most ``threshold(max|target.V|, tol)``, the bound stored as
    ``tolerance``: absolute at unit scale, relative above it, so a
    strongly squeezed target is judged against its own entries.
    ``constraint_tol`` is the structural tolerance of the one
    :func:`verify_constraints` call, whose report is ``constraints``.
    """
    c_all = realization.C
    if extra_rows is not None and len(extra_rows):
        c_all = np.vstack([c_all, np.atleast_2d(np.asarray(extra_rows, dtype=complex))])
    system = build_moment_system(realization.G, c_all)
    constraints = verify_constraints(realization, constraint_tol)
    bound = threshold(max_abs(target.V), tol)
    try:
        v_inf = steady_state(system)
    except NotHurwitzError:
        return GenerationReport(
            hurwitz=False, lyapunov_residual=float("inf"), max_error=float("inf"),
            steady_purity=float("nan"), constraints=constraints, tolerance=bound,
            steady_covariance=None,
        )
    residual = float(np.linalg.norm(system.A @ v_inf.V + v_inf.V @ system.A.T + system.D))
    return GenerationReport(
        hurwitz=True,
        lyapunov_residual=residual,
        max_error=max_abs(v_inf.V - target.V),
        steady_purity=purity(v_inf),
        constraints=constraints,
        tolerance=bound,
        steady_covariance=v_inf,
    )
