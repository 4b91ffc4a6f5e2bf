"""Construction of a preparing system from a feasible block decomposition.

Given the graph matrix of a feasible target state, the synthesis chain
assigns one oscillator frequency per mode (``build_R``), derives the
antisymmetric correction ``Gamma = X R Y`` (``build_Gamma``), takes the
coupling seed from the eigenvectors of ``Q = -R Z`` (no search: the
certificate makes their eigenvalues distinct) and assembles the Hamiltonian
matrix ``G`` and the coupling row ``C``. The result drives the target state
as the unique steady state of the associated moment dynamics, using a
single dissipative channel and no oscillator-oscillator couplings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    InfeasibleStateError,
    InvalidRError,
    SingularMatrixError,
)
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, eig, max_abs, symmetrized, threshold
from .structure import LAMBDA, PI, BlockDecomposition, decompose, is_controllable

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Realization:
    """A linear open-system design ``(R, Gamma, P, G, C)`` for a target state.

    ``R`` is the diagonal frequency matrix, ``Gamma`` the antisymmetric free
    parameter, ``P`` the N x K coupling seed, ``G`` the 2N x 2N Hamiltonian
    matrix and ``C`` the K x 2N coupling row(s). The target's graph matrix
    is kept alongside so the design can be re-validated on its own.
    """

    R: np.ndarray
    Gamma: np.ndarray
    P: np.ndarray
    G: np.ndarray
    C: np.ndarray
    graph: GraphMatrix

    def __post_init__(self):
        n = self.graph.n_modes
        r = np.asarray(self.R, dtype=float)
        gamma = np.asarray(self.Gamma, dtype=float)
        p = np.atleast_2d(np.asarray(self.P, dtype=complex).T).T
        g = np.asarray(self.G, dtype=float)
        c = np.atleast_2d(np.asarray(self.C, dtype=complex))
        if r.shape != (n, n) or gamma.shape != (n, n) or g.shape != (2 * n, 2 * n):
            raise DimensionError("R, Gamma and G must be N x N, N x N and 2N x 2N")
        if p.shape[0] != n or c.shape != (p.shape[1], 2 * n):
            raise DimensionError(
                f"P must be N x K and C must be K x 2N, got {p.shape} and {c.shape}"
            )
        if max_abs(r - np.diag(np.diag(r))) > threshold(max_abs(r)):
            raise ValueError("R must be diagonal")
        if max_abs(gamma + gamma.T) > threshold(max_abs(gamma)):
            raise ValueError("Gamma must be antisymmetric")
        g = symmetrized(g, "G")
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "Gamma", gamma)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "C", c)

    @property
    def n_modes(self) -> int:
        return self.graph.n_modes

    @property
    def n_channels(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ConstraintReport:
    """Validation flags for the two structural constraints plus the rank test."""

    passive_diagonal: bool
    single_channel: bool
    rank_condition: bool
    frequencies: np.ndarray | None
    violations: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.violations


def build_R(dec: BlockDecomposition) -> NDArray[np.float64]:
    """Diagonal frequency matrix for a feasible decomposition.

    Blockwise assignment in certificate order: a lone scalar gets 0, a
    ``pi`` block gets ``diag(0, 1)`` and a coupled pair in the j-th block
    (counting from 1) gets ``diag(j, -j)``, pulled back through the
    certificate permutation to mode coordinates.
    The result satisfies the consistency identity ``-Z R Z = R``.
    """
    if not dec.feasible:
        raise InfeasibleStateError(dec.certificate)
    diag_entries: list[float] = []
    for index, blk in enumerate(dec.blocks, start=1):
        if blk.tag == LAMBDA:
            diag_entries.append(0.0)
        elif blk.tag == PI:
            diag_entries.extend([0.0, 1.0])
        else:
            diag_entries.extend([float(index), -float(index)])
    r_tilde = np.diag(diag_entries)
    z_tilde = np.zeros((dec.n_modes, dec.n_modes), dtype=complex)
    at = 0
    for blk in dec.blocks:
        z_tilde[at:at + blk.size, at:at + blk.size] = blk.block
        at += blk.size
    if max_abs(-z_tilde @ r_tilde @ z_tilde - r_tilde) > threshold(max_abs(r_tilde)):
        raise InvalidRError("frequency assignment violates the block consistency identity")
    # Pull back through the permutation: mode image[s] carries slot s.
    r = np.zeros(dec.n_modes)
    r[list(dec.permutation.image)] = diag_entries
    return np.diag(r)


def build_Gamma(graph: GraphMatrix, r, tol: float = DEFAULT_TOL) -> NDArray[np.float64]:
    """The antisymmetric parameter ``Gamma = X R Y``.

    Requires the consistency identity ``-Z R Z = R`` to hold at tolerance
    ``tol``; antisymmetry of the result is then automatic and checked.
    """
    r = np.asarray(r, dtype=float)
    z = graph.Z
    r_scale = max_abs(r)
    if max_abs(-z @ r @ z - r) > threshold(max(r_scale, max_abs(z) ** 2 * r_scale), tol):
        raise InvalidRError("-Z R Z = R fails; R is not consistent with this graph matrix")
    gamma = graph.X @ r @ graph.Y
    if max_abs(gamma + gamma.T) > threshold(max_abs(gamma), tol):
        raise InvalidRError("X R Y is not antisymmetric; R is not consistent")
    return 0.5 * (gamma - gamma.T)


def build_G(x, y, r, gamma) -> NDArray[np.float64]:
    """Hamiltonian matrix of the general covariance-assignment family.

    ``G = [[X R X + Y R Y - Gamma Y^-1 X - X Y^-1 Gamma.T, -X R + Gamma Y^-1],
    [-R X + Y^-1 Gamma.T, R]]``. When ``Gamma = X R Y`` and ``-Z R Z = R``
    this collapses to ``diag(R, R)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.asarray(r, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not (x.shape == y.shape == r.shape == gamma.shape):
        raise DimensionError("X, Y, R and Gamma must share one square shape")
    try:
        y_inv = np.linalg.inv(y)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("Y must be invertible") from exc
    g11 = x @ r @ x + y @ r @ y - gamma @ y_inv @ x - x @ y_inv @ gamma.T
    g12 = -x @ r + gamma @ y_inv
    g21 = -r @ x + y_inv @ gamma.T
    return np.block([[g11, g12], [g21, r]])


def build_C(graph: GraphMatrix, p) -> NDArray[np.complex128]:
    """Coupling rows ``C = P.T [-Z  I]`` for a coupling seed ``P`` (N x K)."""
    p = np.atleast_2d(np.asarray(p, dtype=complex).T).T
    n = graph.n_modes
    if p.shape[0] != n:
        raise DimensionError(f"P must have {n} rows, got shape {p.shape}")
    return p.T @ np.hstack([-graph.Z, np.eye(n)])


def assemble_realization(graph: GraphMatrix, r, gamma, p) -> Realization:
    """Package explicit parameters ``(R, Gamma, P)`` into a full design."""
    g = build_G(graph.X, graph.Y, r, gamma)
    c = build_C(graph, p)
    return Realization(R=np.asarray(r, float), Gamma=np.asarray(gamma, float),
                       P=p, G=g, C=c, graph=graph)


def synthesize(graph: GraphMatrix, tol: float = DEFAULT_TOL) -> Realization:
    """Design a single-channel passive-diagonal system preparing ``graph``.

    Runs the full chain: feasibility decomposition, frequency assignment,
    ``Gamma = X R Y``, the coupling seed (the unit-norm sum of the unit
    eigenvectors of ``Q = -R Z``, cyclic because the certificate makes the
    eigenvalues distinct) and the final ``(G, C)`` pair. The returned
    Hamiltonian matrix is stored in its exact reduced form ``diag(R, R)``
    after verifying the general construction collapses to it.

    Raises
    ------
    InfeasibleStateError
        If the state fails the block-structure test; carries the certificate.
    """
    return _synthesize(graph, decompose(graph, tol), tol)


def _synthesize(graph: GraphMatrix, dec: BlockDecomposition, tol: float) -> Realization:
    """:func:`synthesize` from the decomposition ``dec`` that ``decompose`` made of ``graph``."""
    if not dec.feasible:
        raise InfeasibleStateError(dec.certificate)
    r = build_R(dec)
    gamma = build_Gamma(graph, r, tol)
    # Certificate spectrum of Q: 0 or {0, -i}, then +-k*i at block k; distinct, so p is cyclic.
    _, vecs = eig(-r @ graph.Z)
    p = vecs @ np.ones(graph.n_modes)
    p = (p / np.linalg.norm(p)).reshape(-1, 1)
    realization = assemble_realization(graph, r, gamma, p)
    g_exact = np.block([[r, np.zeros_like(r)], [np.zeros_like(r), r]])
    if max_abs(realization.G - g_exact) > threshold(max_abs(r), tol):
        raise InvalidRError("constructed Hamiltonian does not reduce to the passive diagonal form")
    return replace(realization, G=g_exact)


def _clearly_controllable(q, p, tol: float = DEFAULT_TOL) -> bool:
    """Whether the PBH left-eigenvector test clearly finds ``(q, p)`` controllable.

    With ``q = V diag(w) V^-1`` and every eigenvalue its own cluster under
    :func:`is_controllable`'s rule, the left eigenvectors ``w_k`` are the
    rows of ``V^-1``, and ``(q, p)`` is controllable exactly when no
    ``w_k^H p`` vanishes (Hautus 1969), so one ``eig`` and one ``inv``
    decide it. False means "not decided here": a non-finite ``q``, a
    clustered spectrum, a singular ``V`` or a margin below the cutoff.
    """
    try:
        w, v = np.linalg.eig(q)
        left = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return False
    gaps = np.abs(w[:, None] - w)
    np.fill_diagonal(gaps, np.inf)
    gap = gaps.min(axis=1)
    abs_w = np.abs(w)
    if not gap.min() > threshold(float(abs_w.max()), tol):
        return False
    # Why the cutoff is safe. Hautus calls (q, p) controllable when, at each
    # eigenvalue w_k, sigma_min([q - w_k I, p]) exceeds threshold(sigma_max, tol),
    # and sigma_max is at most |q|_F + |w_k| + |p|_F. For a unit left vector x
    # at angle theta to the left null vector w_k / |w_k|,
    #   |x^H (q - w_k I)| >= s_k sin(theta),  |x^H p| >= c_k cos(theta) - |p|_F sin(theta),
    # where c_k = |w_k^H p| / |w_k| is the margin times |p|_F, and s_k = gap_k / kappa
    # bounds the second-smallest singular value of q - w_k I = V (diag(w) - w_k I) V^-1
    # from below, kappa = |V|_F |V^-1|_F. The larger of the two is smallest
    # where they cross, so
    #   sigma_min >= s_k c_k / sqrt((s_k + |p|_F)^2 + c_k^2) = bound_k.
    # Accepting only bound_k > 2 threshold + slack, the slack covering the
    # rounding of eig and inv (n eps kappa |[q, p]|), leaves Hautus nothing to
    # reject. A non-finite p, overflow or a zero p makes a bound NaN or 0, which
    # fails, and Hautus then gives the verdict or the error.
    with np.errstate(all="ignore"):
        p_norm = np.sqrt(np.vdot(p, p).real)
        q_norm = np.sqrt(np.vdot(q, q).real)
        left_sq = np.abs(left) ** 2
        kappa = np.sqrt(np.vdot(v, v).real * left_sq.sum())
        reach = np.sqrt((np.abs(left @ p) ** 2).sum(axis=1) / left_sq.sum(axis=1))
        s = gap / kappa
        bound = reach / np.sqrt((1.0 + p_norm / s) ** 2 + (reach / s) ** 2)
        cutoff = (2.0 * tol * np.maximum(1.0, q_norm + abs_w + p_norm)
                  + q.shape[0] * _EPS * kappa * (q_norm + p_norm))
        return bool(np.all(bound > cutoff))


def verify_constraints(realization: Realization, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Check a design against the structural constraints.

    Reports whether ``G`` is the passive diagonal form ``diag(d, d)``,
    whether exactly one designed dissipative channel is present, and
    whether the controllability rank condition holds for
    ``Q = -i R Y + Y^-1 Gamma`` with the stored coupling seed. The rank
    condition takes one ``eig`` of ``Q``: when its eigenvalues are distinct
    and every left eigenvector clearly reaches the seed, the design is
    controllable. Otherwise the general Hautus test
    :func:`~gsynth.structure.is_controllable` decides, so the verdict is
    always the one that test gives.
    """
    n = realization.n_modes
    g = realization.G
    violations: list[str] = []

    g_tol = threshold(max_abs(g), tol)
    diagonal = max_abs(g - np.diag(np.diag(g))) <= g_tol
    d = np.diag(g)
    passive = diagonal and max_abs(d[:n] - d[n:]) <= g_tol
    if not passive:
        violations.append("Hamiltonian matrix is not of the passive diagonal form diag(d, d)")

    single = realization.n_channels == 1
    if not single:
        violations.append(f"{realization.n_channels} designed channels present, expected 1")

    y_inv = np.linalg.inv(realization.graph.Y)
    q = -1j * realization.R @ realization.graph.Y + y_inv @ realization.Gamma
    # a "not controllable" verdict always comes from the general Hautus test
    rank_ok = (_clearly_controllable(q, realization.P, tol)
               or is_controllable(q, realization.P, tol))
    if not rank_ok:
        violations.append(f"coupling seed does not reach all {n} modes (rank condition fails)")

    return ConstraintReport(
        passive_diagonal=passive,
        single_channel=single,
        rank_condition=rank_ok,
        frequencies=d[:n].copy() if passive else None,
        violations=tuple(violations),
    )
