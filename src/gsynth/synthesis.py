"""Construction of a preparing system from a feasible block decomposition.

Given the graph matrix of a feasible target state, the synthesis chain
assigns one oscillator frequency per mode, blockwise (``build_R``),
derives the antisymmetric correction ``Gamma = X R Y`` (``build_Gamma``),
takes the coupling seed from one batched ``eig`` of the certificate's
2 x 2 blocks of ``Q = -R Z`` (no search: the certificate makes ``Q`` block
diagonal with distinct eigenvalues) and assembles the Hamiltonian matrix
``G`` and the coupling row ``C``. The result drives the target state
as the unique steady state of the associated moment dynamics, using a
single dissipative channel and no oscillator-oscillator couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    InfeasibleStateError,
    InvalidRError,
    SingularMatrixError,
)
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, max_abs, symmetrized, threshold
from .structure import LAMBDA, PI, BlockDecomposition, _components, decompose, is_controllable

_EPS = float(np.finfo(float).eps)

#: The rank test splits ``Q`` by its support from this many modes; below, one dense
#: ``eig`` and ``inv`` cost less than the split (measured on a 2-vCPU Xeon, numpy 2.4.6).
_SPLIT_MIN_MODES = 15


@dataclass(frozen=True)
class Realization:
    """A linear open-system design ``(R, Gamma, P, G, C)`` for a target state.

    ``R`` is the diagonal frequency matrix, ``Gamma`` the antisymmetric free
    parameter, ``P`` the N x K coupling seed, ``G`` the 2N x 2N Hamiltonian
    matrix and ``C`` the K x 2N coupling row(s). The target's graph matrix
    is kept alongside so the design can be re-validated on its own.

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
        p = np.atleast_2d(np.array(self.P, dtype=complex).T).T
        g = np.asarray(self.G, dtype=float)
        c = np.atleast_2d(np.array(self.C, dtype=complex))
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
    certificate permutation to mode coordinates.
    Each block satisfies the consistency identity ``-Z_b R_b Z_b = R_b``,
    checked at the rounding scale of its own products,
    ``threshold(max|Z_b|**2 max(1, max|R_b|))``, over the stack of 2 x 2
    blocks at once (a lone scalar's ``R_b = 0`` meets it exactly).
    """
    if not dec.feasible:
        raise InfeasibleStateError(dec.certificate)
    z_b = dec._block_stack
    # the certificate puts its exceptional block, a lambda or a pi, first
    head = dec.blocks[0].tag
    index = np.arange(len(z_b)) + (2.0 if head == LAMBDA else 1.0)
    r_b = np.zeros((len(z_b), 2, 2))
    r_b[:, 0, 0], r_b[:, 1, 1] = index, -index
    if head == PI:
        r_b[0, 0, 0], r_b[0, 1, 1] = 0.0, 1.0
    scale = np.abs(z_b).max(axis=(1, 2)) ** 2 * np.maximum(1.0, np.abs(r_b).max(axis=(1, 2)))
    if np.any(np.abs(-z_b @ r_b @ z_b - r_b).max(axis=(1, 2)) > threshold(scale)):
        raise InvalidRError("frequency assignment violates the block consistency identity")
    # Pull back through the permutation: mode image[s] carries slot s.
    r = np.zeros(dec.n_modes)
    r[list(dec.permutation.image)[dec.n_modes % 2:]] = r_b.diagonal(axis1=1, axis2=2).ravel()
    return np.diag(r)


def build_Gamma(graph: GraphMatrix, r, tol: float = DEFAULT_TOL) -> NDArray[np.float64]:
    """The antisymmetric parameter ``Gamma = X R Y``.

    Requires the consistency identity ``-Z R Z = R`` to hold at tolerance
    ``tol``; then ``Gamma + Gamma.T = Im(Z R Z + R)`` vanishes too. Both
    are checked at the products' rounding scale
    ``threshold(max(|R|, |Z|**2 |R|), tol)``, never at ``max|Gamma|``.
    """
    r = np.asarray(r, dtype=float)
    z = graph.Z
    r_scale = max_abs(r)
    bound = threshold(max(r_scale, max_abs(z) ** 2 * r_scale), tol)
    if max_abs(-z @ r @ z - r) > bound:
        raise InvalidRError("-Z R Z = R fails; R is not consistent with this graph matrix")
    gamma = graph.X @ r @ graph.Y
    if max_abs(gamma + gamma.T) > bound:
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
    n = r.shape[0]
    g = np.empty((2 * n, 2 * n))
    g[:n, :n] = x @ r @ x + y @ r @ y - gamma @ y_inv @ x - x @ y_inv @ gamma.T
    g[:n, n:] = -x @ r + gamma @ y_inv
    g[n:, :n] = -r @ x + y_inv @ gamma.T
    g[n:, n:] = r
    return g


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

    Runs the full chain: feasibility decomposition (the one
    :func:`~gsynth.structure.decompose` keeps on ``graph`` for ``tol``, so
    a caller that decomposed first pays for no second classification),
    frequency assignment, ``Gamma = X R Y``, the coupling seed and the
    final ``(G, C)`` pair. The seed is the unit-norm sum of each
    certificate block's eigenvectors of ``-R_b Z_b`` (1 for a lone scalar;
    one ``np.linalg.eig`` of the ``(k, 2, 2)`` stack of the others), cyclic
    for ``Q = -R Z`` as the certificate's eigenvalues (0 or {0, -i}, then
    +-j i for the j-th block) are distinct. The Hamiltonian matrix is built
    in its reduced form ``diag(R, R)``, which the two identities
    :func:`build_R` and :func:`build_Gamma` check imply, and the design is
    validated once.

    Raises
    ------
    InfeasibleStateError
        If the state fails the block-structure test; carries the certificate.
    """
    dec = decompose(graph, tol)
    if not dec.feasible:
        raise InfeasibleStateError(dec.certificate)
    r = build_R(dec)
    gamma = build_Gamma(graph, r, tol)
    # A lone scalar's piece is 1; slots holds the 2 x 2 blocks' modes. -R_b Z_b
    # is a product, as -R Z is: a row scaling flips signed zeros, moving eig's vectors.
    n = graph.n_modes
    slots = list(dec.permutation.image)[n % 2:]
    p = np.ones(n, dtype=complex)
    if slots:
        r_b = np.zeros((n // 2, 2, 2))
        r_b[:, [0, 1], [0, 1]] = np.diag(r)[slots].reshape(-1, 2)
        _, vecs = np.linalg.eig(-r_b @ dec._block_stack)
        p[slots] = vecs.sum(axis=2).ravel()
    p = (p / np.linalg.norm(p)).reshape(-1, 1)
    # build_G's general form collapses to diag(R, R). With Gamma = X R Y,
    # Gamma Y^-1 X = X R X = X Y^-1 Gamma.T, so the top-left block is
    # Y R Y - X R X = Re(-Z R Z) = R, and the off-diagonal block is
    # -X R + Gamma Y^-1 = 0, as is its transpose.
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = r
    g[n:, n:] = r
    return Realization(R=r, Gamma=gamma, P=p, G=g, C=build_C(graph, p), graph=graph)


def _clearly_controllable(q, p, tol: float = DEFAULT_TOL) -> bool:
    """Whether the PBH left-eigenvector test clearly finds ``(q, p)`` controllable.

    With ``q = V diag(w) V^-1`` and every eigenvalue its own cluster under
    :func:`is_controllable`'s rule, the left eigenvectors ``w_k`` are the
    rows of ``V^-1``, and ``(q, p)`` is controllable exactly when no
    ``w_k^H p`` vanishes (Hautus 1969), so one :func:`_split_eigenbasis`
    decides it. False means "not decided here": a non-finite ``q``, a
    clustered spectrum, a singular ``V`` or a margin below the cutoff.
    """
    try:
        w, v, left = _split_eigenbasis(q)
    except np.linalg.LinAlgError:
        return False
    gaps = np.abs(w[:, None] - w)
    gaps.flat[::len(w) + 1] = np.inf
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
        p_norm = math.sqrt(np.vdot(p, p).real)
        q_norm = math.sqrt(np.vdot(q, q).real)
        left_sq = np.abs(left) ** 2
        kappa = math.sqrt(np.vdot(v, v).real * left_sq.sum())
        reach = np.sqrt((np.abs(left @ p) ** 2).sum(axis=1) / left_sq.sum(axis=1))
        s = gap / kappa
        bound = reach / np.sqrt((1.0 + p_norm / s) ** 2 + (reach / s) ** 2)
        cutoff = (2.0 * tol * np.maximum(1.0, q_norm + abs_w + p_norm)
                  + q.shape[0] * _EPS * kappa * (q_norm + p_norm))
        return bool(np.all(bound > cutoff))


def _split_eigenbasis(q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, V, V^-1)`` of ``q``: from :data:`_SPLIT_MIN_MODES` modes, if no component of
    its exact nonzero support spans more than two, one batched ``eig`` with closed-form
    inverses (non-finite if singular) and lone diagonal entries; else dense ``eig`` and ``inv``.
    """
    n = len(q)
    if n >= _SPLIT_MIN_MODES:
        support = q != 0
        _, size, pairs = _components(support | support.T)
        if size.max() <= 2:
            rows, cols = pairs[:, :, None], pairs[:, None, :]
            w, v = q.diagonal().astype(complex), np.eye(n, dtype=complex)
            left = v.copy()
            w[pairs], v_b = np.linalg.eig(q[rows, cols])
            v[rows, cols] = v_b
            with np.errstate(all="ignore"):
                det = v_b[:, 0, 0] * v_b[:, 1, 1] - v_b[:, 0, 1] * v_b[:, 1, 0]
                # the adjugate [[d, -b], [-c, a]] over the determinant
                left[rows, cols] = (v_b[:, ::-1, ::-1].transpose(0, 2, 1) * [[1, -1], [-1, 1]]
                                    / det[:, None, None])
            return w, v, left
    w, v = np.linalg.eig(q)
    return w, v, np.linalg.inv(v)


def verify_constraints(realization: Realization, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Check a design against the structural constraints.

    Reports whether ``G`` is the passive diagonal form ``diag(d, d)``,
    whether exactly one designed dissipative channel is present, and
    whether the controllability rank condition holds for
    ``Q = -i R Y + Y^-1 Gamma`` with the stored coupling seed. One batched
    ``eig`` over the support components of ``Q`` (a dense one as fallback,
    :func:`_split_eigenbasis`) accepts distinct eigenvalues whose left
    eigenvectors all clearly reach the seed; otherwise the general Hautus
    test :func:`~gsynth.structure.is_controllable` decides, so the verdict
    is always the one that test gives.
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
    q = -1j * realization.R @ graph.Y + graph._y_inv @ realization.Gamma
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
