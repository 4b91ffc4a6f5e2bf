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
    _OwnBasis,
    _solve_lyapunov,
    all_finite,
    eigenbasis,
    expm,
    least_eigenvalue_unless_above,
    max_abs,
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

    Both must be finite (else ``ValueError``), and ``D`` symmetric positive
    semidefinite: its eigenvalues may fall no lower than
    ``-threshold(max|D|, DIFFUSION_PSD_TOL)``. A Cholesky factorization of
    ``D`` shifted by that floor accepts; only when it fails does
    ``eigvalsh`` decide, and a rejection raises :class:`InvalidDiffusionError`.

    These checks run once, here: the steady-state solver takes ``A`` and
    ``D`` as checked. ``D`` as :func:`build_moment_system` forms it comes
    out exactly symmetric on a design's coupling, so its symmetry test is
    the exact-form short cut of :func:`~gsynth.numerics.symmetrized`; one
    with a rounding skew takes the scaled test.

    The system keeps its own copies of ``A`` and ``D``, read-only, so the
    caller's arrays stay writable and a later write to them does not reach
    a checked system.
    """

    A: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        d = np.asarray(self.D, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise DimensionError(f"drift matrix must be 2N x 2N, got {a.shape}")
        if d.shape != a.shape:
            raise DimensionError("diffusion shape must match the drift")
        if not all_finite(a, d):
            raise ValueError("drift and diffusion matrices have non-finite entries")
        d = symmetrized(d, "diffusion matrix", tol=1e-12)
        floor = threshold(max_abs(d), DIFFUSION_PSD_TOL)
        least = least_eigenvalue_unless_above(d, -floor)
        if least is not None and least < -floor:
            raise InvalidDiffusionError(
                f"diffusion matrix must be positive semidefinite (min eigenvalue {least:.3e})"
            )
        a.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "D", d)

    @property
    def n_modes(self) -> int:
        return self.A.shape[0] // 2


def build_moment_system(g, c) -> MomentSystem:
    """Assemble drift and diffusion matrices from ``(G, C)``.

    ``A = Sigma (G + Im(C^dag C))`` and ``D = Sigma Re(C^dag C) Sigma.T``,
    both from one product ``C^dag C``. ``c`` may have no rows.
    """
    g = np.asarray(g, dtype=float)
    c = np.array(c, dtype=complex, ndmin=2)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
        raise DimensionError(f"Hamiltonian matrix must be 2N x 2N, got {g.shape}")
    if c.shape[1] != g.shape[0]:
        raise DimensionError(f"coupling rows must have {g.shape[0]} columns, got {c.shape}")
    sig = symplectic_form(g.shape[0] // 2)
    cc = c.conj().T @ c
    return MomentSystem(A=sig @ (g + cc.imag), D=sig @ cc.real @ sig.T)


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
    return CovarianceMatrix(_solve_lyapunov(system.A, system.D, None)[0])


def _coupled_steady_state(realization: Realization, rows) -> tuple[np.ndarray, float]:
    """The steady state of a design with ``rows`` stacked under ``C``, and its residual.

    Every solve with the designed coupling comes here. The system is
    ``build_moment_system(G, [C; rows])``, so a bath is coupling rows on
    this path as on every other. The eigenbasis of the design's own drift
    ``Sigma (G + Im C^dag C)`` is computed once and kept on the design; with
    no rows it is that drift's own ``eig``, passed as such and not taken again.
    When the rows' own drift ``Sigma Im(rows^dag rows)`` is exactly ``c I``,
    as for one ``(gamma, nbar)`` bath on every mode (``-gamma/2`` per mode),
    the drift with rows has the same eigenvectors and eigenvalues ``w + c``,
    and that basis goes to :func:`~gsynth.numerics.solve_lyapunov`'s route 2 as
    a candidate; failing the assembled system, it gives way to that drift's own.
    The residual ``||A V + V A.T + D||`` is the one the accepting route judged.
    """
    rows = np.array(rows, dtype=complex, ndmin=2)
    system = build_moment_system(
        realization.G, np.vstack([realization.C, rows]) if len(rows) else realization.C)
    basis = realization.__dict__.get("_drift_basis")
    if basis is None:
        design = build_moment_system(realization.G, realization.C) if len(rows) else system
        basis = realization.__dict__["_drift_basis"] = _OwnBasis(eigenbasis(design.A))
    if len(rows):
        own = symplectic_form(realization.n_modes) @ (rows.conj().T @ rows).imag
        shift = own[0, 0]
        w, s, s_inv = basis
        basis = (w + shift, s, s_inv) if np.array_equal(own, shift * np.eye(len(own))) else None
    return _solve_lyapunov(system.A, system.D, basis)


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
    The first sample is one step from ``t = 0``; at ``t = 0`` it is ``v0``
    and ``mean0`` as given, with no step. On a uniform grid (every
    ``times[k]`` within a few ulps of ``times[0] + k h``, as from
    ``np.linspace``) the rest take one step for ``h`` and then
    ``log2(m)`` doublings: each round advances the samples filled so far in
    place, ``V[f:f+c] = Phi (V[:c] Phi.T) + Q`` in two stacked products and
    one add, and then squares the pair,
    ``(Phi, Q) <- (Phi Phi, Phi Q Phi.T + Q)``. The stack is symmetrized
    once at the end, so every covariance is exactly symmetric. The flows of
    one drift commute, so this is as accurate as stepping sample by sample.
    An irregular grid takes one step per gap. On either grid a zero mean is
    not propagated: its samples stay exact zeros, even where the propagator
    overflows. A ``v0`` with another mode count than the system raises
    :class:`~gsynth.errors.DimensionError`.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if not all_finite(times):
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and ascending")
    n2 = system.A.shape[0]
    if v0.V.shape != (n2, n2):
        raise DimensionError(f"initial state has {v0.n_modes} modes, system has {system.n_modes}")
    mean = np.zeros(n2) if mean0 is None else np.asarray(mean0, dtype=float)
    if mean.shape != (n2,):
        raise DimensionError(f"initial mean must have length {n2}")
    moving = mean.any()

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
            if moving:
                mean = phi @ mean
            v = phi @ v @ phi.T + q
            v = 0.5 * (v + v.T)
            means.append(mean)
            covs.append(v)
        return Trajectory(times=times, means=np.stack(means), covariances=np.stack(covs))

    means = np.zeros((m, n2))
    covs = np.empty((m, n2, n2))
    if times[0] == 0.0:
        means[0] = mean
        covs[0] = v0.V
    else:
        phi, q = step(times[0])
        if moving:
            means[0] = phi @ mean
        covs[0] = phi @ v0.V @ phi.T + q
    filled = 1
    if m > 1:
        phi, q = step(h)
    while filled < m:
        cnt = min(filled, m - filled)
        batch = covs[filled:filled + cnt]
        # V Phi.T for the whole batch in one product, then Phi (V Phi.T)
        # written in place; the stack is symmetrized once, below
        w = (covs[:cnt].reshape(-1, n2) @ phi.T).reshape(cnt, n2, n2)
        np.matmul(phi, w, out=batch)
        batch += q
        if moving:
            np.matmul(means[:cnt], phi.T, out=means[filled:filled + cnt])
        filled += cnt
        # squaring past the last sample is wasted and can overflow an unstable drift
        if filled < m:
            q = phi @ q @ phi.T + q
            phi = phi @ phi
    covs += covs.transpose(0, 2, 1)
    covs *= 0.5
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
    target. ``steady_purity`` is NaN then, or when ``det`` rounds to <= 0.
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


def _require_target_modes(realization: Realization, target: CovarianceMatrix) -> None:
    """Refuse a target state whose mode count is not the design's."""
    if target.V.shape != realization.G.shape:
        raise DimensionError(
            f"target state has {target.n_modes} modes, realization has {realization.n_modes}"
        )


def verify_generation(realization: Realization, target: CovarianceMatrix,
                      tol: float = 1e-8, extra_rows=None,
                      constraint_tol: float = DEFAULT_TOL) -> GenerationReport:
    """Solve the design's steady state and compare it with ``target``.

    Never raises on a failing design: instability, a steady state that
    violates the uncertainty relation (its error and residual are those of
    the raw solve) or a mismatch is reported through the flags and the
    max-norm error. ``extra_rows``, one row or an ``(m, 2N)`` block with
    ``m`` possibly 0, stacks parasitic coupling rows (for example thermal
    channels) under the designed coupling before solving; the constraint
    flags still refer to the designed coupling alone. The
    max-norm error passes when it is at most ``threshold(max|target.V|,
    tol)``, the bound stored as ``tolerance``: absolute at unit scale,
    relative above it, so a strongly squeezed target is judged against its
    own entries. ``constraint_tol`` is the structural tolerance of the one
    :func:`verify_constraints` call, whose report is ``constraints``.
    A target with another mode count than the design raises
    :class:`~gsynth.errors.DimensionError` before anything is solved.

    Each fact is computed once: ``lyapunov_residual`` is the Frobenius norm
    of ``A V + V A.T + D`` that the accepting route of the solve judged, not
    a second product, and the steady state is checked once, by
    :class:`~gsynth.gaussian.CovarianceMatrix` (its symmetry by the
    exact-form short cut of :func:`~gsynth.numerics.symmetrized`).
    """
    _require_target_modes(realization, target)
    if extra_rows is None:
        extra_rows = realization.C[:0]
    constraints = verify_constraints(realization, constraint_tol)
    bound = threshold(max_abs(target.V), tol)
    try:
        v, residual = _coupled_steady_state(realization, extra_rows)
    except NotHurwitzError:
        return GenerationReport(
            hurwitz=False, lyapunov_residual=float("inf"), max_error=float("inf"),
            steady_purity=float("nan"), constraints=constraints, tolerance=bound,
            steady_covariance=None,
        )
    v_inf, steady_purity = None, float("nan")
    try:
        v_inf = CovarianceMatrix(v)
        steady_purity = purity(v_inf)
    except InvalidCovarianceError:
        pass
    return GenerationReport(
        hurwitz=True,
        lyapunov_residual=residual,
        max_error=max_abs(v - target.V),
        steady_purity=steady_purity,
        constraints=constraints,
        tolerance=bound,
        steady_covariance=v_inf,
    )
