"""Construction of a preparing system from a feasible block decomposition.

The certificate of ``decompose`` is the design's whole hypothesis, so every
graph it accepts gets a design and nothing here judges feasibility again:
``build_R`` assigns one oscillator frequency per mode, blockwise, ``Gamma``
is the antisymmetric part of ``X R Y``, the coupling seed comes from one
batched ``eig`` of the certificate's 2 x 2 blocks of ``Q = -R Z`` (no search:
``Q`` is block diagonal with distinct eigenvalues), and ``G = diag(R, R)``
and the coupling row ``C`` complete it. ``verify_generation`` judges whether
the design generates its target. ``verify_constraints`` re-checks a design,
loaded or synthesized; its rank test is one ``eigh`` of ``Q`` in the Cholesky
frame of ``Y``, where ``Q`` is ``-i`` times a Hermitian matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    InfeasibleStateError,
    SingularMatrixError,
)
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, all_finite, max_abs, symmetrized, threshold
from .structure import LAMBDA, PI, BlockDecomposition, decompose


@dataclass(frozen=True)
class Realization:
    """A linear open-system design ``(R, Gamma, P, G, C)`` for a target state.

    ``R`` is the diagonal frequency matrix, ``Gamma`` the antisymmetric free
    parameter, ``P`` the N x K coupling seed, ``G`` the 2N x 2N Hamiltonian
    matrix and ``C`` the K x 2N coupling row(s). The target's graph matrix
    is kept alongside so the design can be re-validated on its own. A
    non-finite entry is a ``ValueError``.

    Construction checks each part once: finiteness, then ``R`` diagonal,
    ``Gamma`` antisymmetric and ``G`` symmetric, each under
    :func:`~gsynth.numerics.threshold`. The exact forms ``synthesize`` builds
    take a short cut with the same verdict: an ``R`` with no off-diagonal
    nonzero and a ``Gamma`` with ``Gamma + Gamma.T`` exactly zero pass
    without their scaled tests, and an exactly symmetric ``G`` passes as
    :func:`~gsynth.numerics.symmetrized` describes.

    A design is immutable. It stores its own copies of ``R, Gamma, P, G,
    C``, read-only, so the caller's arrays stay writable. The eigenbasis
    ``(w, s, s^-1)`` of its drift ``Sigma (G + Im C^dag C)`` is computed by
    the first steady-state solve with coupling and kept on the instance,
    so later solves of the design, with or without a uniform thermal bath,
    take no eigendecomposition of their own (see
    ``gsynth.dynamics.verify_generation``). ``dataclasses.replace`` builds
    a new design, which computes its basis afresh.
    """

    R: np.ndarray
    Gamma: np.ndarray
    P: np.ndarray
    G: np.ndarray
    C: np.ndarray
    graph: GraphMatrix

    def __post_init__(self):
        n = self.graph.n_modes
        r = np.array(self.R, dtype=float)
        gamma = np.array(self.Gamma, dtype=float)
        p = np.array(np.asarray(self.P, dtype=complex).T, ndmin=2).T
        g = np.asarray(self.G, dtype=float)
        c = np.array(self.C, dtype=complex, ndmin=2)
        if r.shape != (n, n) or gamma.shape != (n, n) or g.shape != (2 * n, 2 * n):
            raise DimensionError("R, Gamma and G must be N x N, N x N and 2N x 2N")
        if p.shape[0] != n or c.shape != (p.shape[1], 2 * n):
            raise DimensionError(
                f"P must be N x K and C must be K x 2N, got {p.shape} and {c.shape}"
            )
        if not all_finite(r, gamma, p, g, c):
            raise ValueError("R, Gamma, P, G and C must have finite entries")
        # an R with no off-diagonal nonzero, or a Gamma with Gamma + Gamma.T exactly
        # zero, as synthesize builds them, passes without its scaled test
        if (np.count_nonzero(r) > np.count_nonzero(r.diagonal())
                and max_abs(r - np.diag(np.diag(r))) > threshold(max_abs(r))):
            raise ValueError("R must be diagonal")
        skew = gamma + gamma.T
        if np.count_nonzero(skew) and max_abs(skew) > threshold(max_abs(gamma)):
            raise ValueError("Gamma must be antisymmetric")
        g = symmetrized(g, "G")
        for part in (r, gamma, p, g, c):
            part.flags.writeable = False
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
    certificate permutation to mode coordinates. Each certified block meets
    ``-Z_b R_b Z_b = R_b`` by its family's definition, so nothing is re-tested.
    """
    if not dec.feasible:
        raise InfeasibleStateError(dec.certificate)
    n = dec.n_modes
    # the certificate puts its exceptional block, a lambda or a pi, first
    head = dec.blocks[0].tag
    index = np.arange(n // 2) + (2.0 if head == LAMBDA else 1.0)
    r_b = np.empty((n // 2, 2))  # the diagonal of each 2 x 2 block
    r_b[:, 0], r_b[:, 1] = index, -index
    if head == PI:
        r_b[0] = 0.0, 1.0
    # Pull back through the permutation: mode image[s] carries slot s.
    slots = list(dec.permutation.image)[n % 2:]
    r = np.zeros((n, n))
    r[slots, slots] = r_b.ravel()
    return r


def _gamma(graph: GraphMatrix, r: np.ndarray) -> NDArray[np.float64]:
    """The antisymmetric part of ``X R Y``, for an ``R`` that meets ``-Z R Z = R``."""
    gamma = graph.X @ r @ graph.Y
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
    n = r.shape[0]
    g = np.empty((2 * n, 2 * n))
    g[:n, :n] = x @ r @ x + y @ r @ y - gamma @ y_inv @ x - x @ y_inv @ gamma.T
    g[:n, n:] = -x @ r + gamma @ y_inv
    g[n:, :n] = -r @ x + y_inv @ gamma.T
    g[n:, n:] = r
    return g


def build_C(graph: GraphMatrix, p) -> NDArray[np.complex128]:
    """Coupling rows ``C = P.T [-Z  I]`` for a coupling seed ``P`` (N x K)."""
    p = np.array(np.asarray(p, dtype=complex).T, ndmin=2).T
    n = graph.n_modes
    if p.shape[0] != n:
        raise DimensionError(f"P must have {n} rows, got shape {p.shape}")
    return p.T @ np.concatenate((-graph.Z, np.eye(n)), axis=1)


def assemble_realization(graph: GraphMatrix, r, gamma, p) -> Realization:
    """Package explicit parameters ``(R, Gamma, P)`` into a full design."""
    g = build_G(graph.X, graph.Y, r, gamma)
    c = build_C(graph, p)
    return Realization(R=np.asarray(r, float), Gamma=np.asarray(gamma, float),
                       P=p, G=g, C=c, graph=graph)


def synthesize(graph: GraphMatrix, tol: float = DEFAULT_TOL) -> Realization:
    """Design a single-channel passive-diagonal system preparing ``graph``.

    Runs the full chain: feasibility decomposition (the one
    :func:`~gsynth.structure.decompose` keeps on ``graph`` for ``tol``, so
    a caller that decomposed first pays for no second classification),
    frequency assignment, ``Gamma`` as the antisymmetric part of ``X R Y``,
    the coupling seed and the final ``(G, C)`` pair. The seed is the
    unit-norm sum of each certificate block's eigenvectors of ``-R_b Z_b``
    (1 for a lone scalar; one ``np.linalg.eig`` of the ``(k, 2, 2)`` stack
    of the others), cyclic for ``Q = -R Z`` as the certificate's
    eigenvalues (0 or {0, -i}, then +-j i for the j-th block) are distinct.
    The certificate is the only test: every graph it accepts at ``tol`` gets
    a design, ``G = diag(R, R)``, and :func:`~gsynth.dynamics.verify_generation`
    judges whether it generates the target.

    Raises
    ------
    InfeasibleStateError
        If the state fails the block-structure test; carries the certificate.
    """
    dec = decompose(graph, tol)
    r = build_R(dec)
    gamma = _gamma(graph, r)
    # A lone scalar's piece is 1; slots holds the 2 x 2 blocks' modes. -R_b Z_b
    # is a product, as -R Z is: a row scaling flips signed zeros, moving eig's vectors.
    n = graph.n_modes
    slots = list(dec.permutation.image)[n % 2:]
    p = np.ones(n, dtype=complex)
    if slots:
        r_b = np.zeros((n // 2, 2, 2))
        r_b[:, [0, 1], [0, 1]] = r.diagonal()[slots].reshape(-1, 2)
        _, vecs = np.linalg.eig(-r_b @ dec._block_stack)
        p[slots] = np.add.reduce(vecs, axis=2).ravel()
    p = (p / np.linalg.norm(p)).reshape(-1, 1)
    # build_G's general form is diag(R, R) when Gamma = X R Y and -Z R Z = R (then
    # Gamma Y^-1 X = X R X, Y R Y - X R X = Re(-Z R Z) = R and -X R + Gamma Y^-1 = 0).
    # The certificate's blocks meet -Z R Z = R by definition; the residue of its
    # structural zeros shows in verify_generation's error, not here.
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = r
    g[n:, n:] = r
    return Realization(R=r, Gamma=gamma, P=p, G=g, C=build_C(graph, p), graph=graph)


def verify_constraints(realization: Realization, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Check a design against the structural constraints.

    Reports whether ``G`` is the passive diagonal form ``diag(d, d)``,
    whether exactly one designed dissipative channel is present, and
    whether the controllability rank condition holds for
    ``Q = -i R Y + Y^-1 Gamma`` with the stored coupling seed ``P`` (N x K).

    The rank test runs in a frame where ``Q`` is normal. With ``Y = L L^T``
    (Cholesky), ``L^T Q L^-T = -i Omega`` for the Hermitian
    ``Omega = L^T R L + i L^-1 Gamma L^-T``, as ``R`` is diagonal and
    ``Gamma`` antisymmetric, and the seed becomes ``c = L^T P``; a
    similarity keeps controllability (Hautus 1969). One ``eigh`` of
    ``Omega`` sorts its eigenvalues, and a run of them whose consecutive
    gaps are at most ``threshold(max|w|, tol)`` is one cluster. The pair
    is controllable when no cluster has more than K members and, for each
    cluster's eigenvectors ``U_cl``, the least singular value of
    ``U_cl^H c`` exceeds ``threshold(1, tol) |c|``. A lone eigenvalue's is
    the norm of its row of ``U^H c``, so a one-column seed takes no SVD.
    """
    n = realization.n_modes
    g = realization.G
    violations: list[str] = []

    g_tol = threshold(max_abs(g), tol)
    d, off_diagonal = g.diagonal(), np.abs(g)
    off_diagonal.flat[::2 * n + 1] = 0.0
    passive = off_diagonal.max() <= g_tol and max_abs(d[:n] - d[n:]) <= g_tol
    if not passive:
        violations.append("Hamiltonian matrix is not of the passive diagonal form diag(d, d)")

    single = realization.n_channels == 1
    if not single:
        violations.append(f"{realization.n_channels} designed channels present, expected 1")

    graph = realization.graph
    lower = np.linalg.cholesky(graph.Y)
    lower_inv = lower.T @ graph._y_inv
    omega = lower.T @ realization.R @ lower + 1j * (lower_inv @ realization.Gamma @ lower_inv.T)
    w, u = np.linalg.eigh(omega)
    c = lower.T @ realization.P
    reach = u.conj().T @ c
    margin = np.linalg.norm(reach, axis=1)
    joined = w[1:] - w[:-1] <= threshold(max_abs(w), tol)
    if joined.any():
        # a cluster of more than K eigenvalues leaves U_cl^H c rank deficient
        for cluster in np.split(np.arange(n), np.flatnonzero(~joined) + 1):
            margin[cluster] = (np.linalg.svd(reach[cluster], compute_uv=False)[-1]
                               if len(cluster) <= c.shape[1] else 0.0)
    rank_ok = bool((margin > threshold(1.0, tol) * np.linalg.norm(c)).all())
    if not rank_ok:
        violations.append(f"coupling seed does not reach all {n} modes (rank condition fails)")

    return ConstraintReport(
        passive_diagonal=passive,
        single_channel=single,
        rank_condition=rank_ok,
        frequencies=d[:n].copy() if passive else None,
        violations=tuple(violations),
    )
