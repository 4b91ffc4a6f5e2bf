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

from .errors import DimensionError, InvalidCovarianceError, InvalidDiffusionError, NotHurwitzError
from .gaussian import CovarianceMatrix, purity, symplectic_form
from .numerics import (
    DEFAULT_TOL,
    expm,
    least_eigenvalue_unless_above,
    max_abs,
    solve_lyapunov,
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

    The solution of ``A V + V A.T + D = 0`` from
    :func:`gsynth.numerics.solve_lyapunov`, which solves a system of
    independent per-mode blocks, such as a passive diagonal Hamiltonian
    under thermal baths alone, in closed form.

    Raises ``NotHurwitzError`` when the drift is not Hurwitz, and
    ``InvalidCovarianceError`` when the solution violates the uncertainty
    relation.
    """
    return CovarianceMatrix(solve_lyapunov(system.A, system.D))


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
    target tolerance at the scale of the target. ``steady_covariance`` is
    None when the drift is not Hurwitz or the steady state violates the
    uncertainty relation; either way the design does not generate the
    target.
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
        return self.steady_covariance is not None and self.max_error <= self.tolerance


def verify_generation(realization: Realization, target: CovarianceMatrix,
                      tol: float = 1e-8, extra_rows=None,
                      constraint_tol: float = DEFAULT_TOL) -> GenerationReport:
    """Solve the design's steady state and compare it with ``target``.

    Never raises on a failing design: instability, a steady state that
    violates the uncertainty relation (its error and residual are those of
    the raw solve) or a mismatch is reported through the flags and the
    max-norm error. ``extra_rows`` stacks parasitic coupling rows (for
    example thermal channels) under the designed coupling before solving;
    the constraint flags still refer to the designed coupling alone. The
    max-norm error passes when it is at most ``threshold(max|target.V|,
    tol)``, the bound stored as ``tolerance``: absolute at unit scale,
    relative above it, so a strongly squeezed target is judged against its
    own entries. ``constraint_tol`` is the structural tolerance of the one
    :func:`verify_constraints` call, whose report is ``constraints``.
    """
    c_all = realization.C
    if extra_rows is not None and len(extra_rows):
        c_all = np.vstack([c_all, np.atleast_2d(np.asarray(extra_rows, dtype=complex))])
    system = build_moment_system(realization.G, c_all)
    constraints = verify_constraints(realization, constraint_tol)
    bound = threshold(max_abs(target.V), tol)
    try:
        v = solve_lyapunov(system.A, system.D)
    except NotHurwitzError:
        return GenerationReport(
            hurwitz=False, lyapunov_residual=float("inf"), max_error=float("inf"),
            steady_purity=float("nan"), constraints=constraints, tolerance=bound,
            steady_covariance=None,
        )
    try:
        v_inf = CovarianceMatrix(v)
    except InvalidCovarianceError:
        v_inf = None
    return GenerationReport(
        hurwitz=True,
        lyapunov_residual=float(np.linalg.norm(system.A @ v + v @ system.A.T + system.D)),
        max_error=max_abs(v - target.V),
        steady_purity=float("nan") if v_inf is None else purity(v_inf),
        constraints=constraints,
        tolerance=bound,
        steady_covariance=v_inf,
    )
