"""Shared fixtures: reference states, worked designs, random generators and
independent reference implementations."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from gsynth import (
    BlockClass,
    CovarianceMatrix,
    GraphMatrix,
    Permutation,
    assemble_graph,
    assemble_realization,
    factor_covariance,
    states,
)
from gsynth.dynamics import Trajectory, _van_loan_step
from gsynth.errors import DimensionError, GsynthError
from gsynth.noise import bath_channels
from gsynth.numerics import DEFAULT_TOL, max_abs, rank_tol, threshold
from gsynth.structure import LAMBDA, XI_PHI, is_controllable

SQRT6_2 = np.sqrt(6.0) / 2.0


# --- entangled pair state (two modes, sqrt(6)/2 covariance entries) ---

def pair_graph() -> GraphMatrix:
    x = np.array([[1.0, SQRT6_2], [SQRT6_2, 1.0]])
    y = np.array([[SQRT6_2, 1.0], [1.0, SQRT6_2]])
    return GraphMatrix(x, y)


def pair_cov() -> CovarianceMatrix:
    r = SQRT6_2
    return CovarianceMatrix(np.array([
        [r, -1.0, 0.0, 0.5],
        [-1.0, r, 0.5, 0.0],
        [0.0, 0.5, r, 1.0],
        [0.5, 0.0, 1.0, r],
    ]))


PAIR_LOG_NEGATIVITY = 1.5445


def pair_realization():
    """The worked single-channel design for the pair state."""
    g = pair_graph()
    r = np.diag([1.0, -1.0])
    gamma = np.array([[0.0, -0.5], [0.5, 0.0]])
    p = np.array([[0.0], [1.0]])
    return assemble_realization(g, r, gamma, p)


# --- two-mode squeezed family ---

def tms_graph(alpha: float) -> GraphMatrix:
    c, s = np.cosh(2 * alpha), np.sinh(2 * alpha)
    return GraphMatrix(np.zeros((2, 2)), np.array([[c, -s], [-s, c]]))


def tms_reference_p(alpha: float) -> np.ndarray:
    """Coupling seed of the worked two-mode squeezed design (not unit norm)."""
    return 1j * (np.cosh(alpha) + np.sinh(alpha)) / np.sqrt(2.0) * np.array([[1.0], [1.0]])


def tms_realization(alpha: float):
    g = tms_graph(alpha)
    r = np.diag([1.0, -1.0])
    return assemble_realization(g, r, np.zeros((2, 2)), tms_reference_p(alpha))


# --- eight-mode state: four copies of the pair block ---

def eight_mode_graph() -> GraphMatrix:
    base = pair_graph()
    return GraphMatrix(np.kron(np.eye(4), base.X), np.kron(np.eye(4), base.Y))


def eight_mode_reference_p() -> np.ndarray:
    return np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]]).T


# --- three-mode path cluster state and its two-channel design ---

def cluster_parts(alpha: float) -> SimpleNamespace:
    adjacency = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    em2 = np.exp(-2.0 * alpha)
    graph = GraphMatrix(adjacency, em2 * np.eye(3))
    cov = states.cluster_state(adjacency, alpha)
    r = np.eye(3)
    gamma = em2 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    p = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    return SimpleNamespace(adjacency=adjacency, graph=graph, cov=cov, R=r, Gamma=gamma, P=p)


# --- thermal-noise reference results (gamma=0.01, nbar=10 on both modes) ---

THERMAL_GAMMA = 0.01
THERMAL_NBAR = 10.0

# Steady covariance of the two-mode squeezed design (alpha=0.7) under the
# standard baths; frozen from an independent dense Lyapunov solve and
# consistent with the published 4-d.p. values.
THERMAL_TMS_V = np.array([
    [1.1943, 0.9169, -0.0047, -0.0464],
    [0.9169, 1.1943, 0.0464, 0.0047],
    [-0.0047, 0.0464, 1.1896, -0.9638],
    [-0.0464, 0.0047, -0.9638, 1.1896],
])
THERMAL_TMS_PURITY = 0.4787
THERMAL_TMS_NEGATIVITY = 0.7134

# Same baths on the pair-state design.
THERMAL_PAIR_V = np.array([
    [1.7298, -1.2921, -0.0439, 0.4866],
    [-1.2921, 1.4780, 0.6209, 0.0270],
    [-0.0439, 0.6209, 1.5698, 1.0281],
    [0.4866, 0.0270, 1.0281, 1.2790],
])
THERMAL_PAIR_PURITY = 0.4175
THERMAL_PAIR_NEGATIVITY = 0.8479

THERMAL_BASELINE_V = 10.5 * np.eye(4)


def standard_baths(n_modes: int = 2, gamma: float = THERMAL_GAMMA, nbar: float = THERMAL_NBAR):
    channels = []
    for mode in range(n_modes):
        channels.extend(bath_channels(mode, gamma, nbar))
    return channels


# --- certified graphs that only pass at their tolerance ---

def near_pair_graph() -> GraphMatrix:
    """The pair ``z11 = 0.5 + 1.2i`` with ``z12`` 1e-5 relative off ``sqrt(z11**2 + 1)``:
    a coupled-pair member at tolerance 1e-3, not at the default."""
    z11 = 0.5 + 1.2j
    z12 = np.sqrt(z11 ** 2 + 1.0) * (1.0 + 1e-5)
    z = np.array([[z11, z12], [z12, z11]])
    return GraphMatrix(z.real, z.imag)


def residue_graph(rng: np.random.Generator, n: int, tol: float) -> GraphMatrix:
    """A certified graph of ``n`` modes whose structural zeros are not zero.

    Coupled pairs with ``Re z11`` in (-2, 2), ``Im z11`` in (0.3, 2) and
    ``z12 = +-sqrt(z11**2 + 1)``, and a lone scalar when ``n`` is odd. Every
    entry between two blocks is 0.5 to 0.9 of the certificate's threshold
    ``tol max(1, sqrt(|Z_jj| |Z_kk|))`` at a random phase, and the modes are
    relabeled at random.
    """
    z = np.zeros((n, n), dtype=complex)
    for k in range(0, n - 1, 2):
        z11 = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.3, 2.0)
        z12 = np.sqrt(z11 ** 2 + 1.0) * rng.choice([-1.0, 1.0])
        z[k:k + 2, k:k + 2] = [[z11, z12], [z12, z11]]
    if n % 2:
        z[-1, -1] = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.3, 2.0)
    size = np.abs(z.diagonal())
    off = np.triu(rng.uniform(0.5, 0.9, (n, n)) * tol
                  * np.maximum(1.0, np.sqrt(np.outer(size, size)))
                  * np.exp(2j * np.pi * rng.random((n, n))), 1)
    block = np.arange(n) // 2
    z = np.where(block[:, None] == block, z, off + off.T)
    z = Permutation(tuple(int(k) for k in rng.permutation(n))).conjugate(z)
    return GraphMatrix(z.real, z.imag)


# --- random generators ---

def random_phi_block(rng: np.random.Generator) -> np.ndarray:
    """A random member of the coupled-pair block family."""
    while True:
        z11 = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.1, 2.0)
        z12 = (z11 ** 2 + 1.0) ** 0.5 * rng.choice([-1.0, 1.0])
        # keep the coupling well above the structural-zero threshold
        if abs(z12) > 1e-3:
            return np.array([[z11, z12], [z12, z11]])


def random_lambda_scalar(rng: np.random.Generator) -> np.ndarray:
    return np.array([[rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.1, 2.0)]])


def random_feasible_graph(rng: np.random.Generator, max_pairs: int = 4,
                          allow_scalar: bool = True) -> GraphMatrix:
    """Random feasible graph: coupled pairs, optionally one lone scalar,
    scrambled by a random relabeling of the modes."""
    blocks = [BlockClass(XI_PHI, random_phi_block(rng))
              for _ in range(int(rng.integers(1, max_pairs + 1)))]
    if allow_scalar and rng.random() < 0.5:
        blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
    n = sum(b.size for b in blocks)
    perm = Permutation(tuple(int(k) for k in rng.permutation(n)))
    return assemble_graph(blocks, perm)


def random_graph(rng: np.random.Generator, n: int) -> GraphMatrix:
    """Random valid (not necessarily feasible) graph matrix."""
    x = rng.normal(size=(n, n))
    x = 0.5 * (x + x.T)
    m = rng.normal(size=(n, n))
    y = m @ m.T + 0.2 * np.eye(n)
    return GraphMatrix(x, y)


def random_pure_covariance(rng: np.random.Generator, n: int) -> CovarianceMatrix:
    from gsynth import graph_to_covariance

    return graph_to_covariance(random_graph(rng, n))


# --- independent references: the Krylov rank, the involution membership
# test and the cyclic-vector search, which the package no longer ships ---

class DerogatoryMatrixError(GsynthError):
    """No cyclic vector exists because the matrix is derogatory."""


def xi_membership(b, tol: float = DEFAULT_TOL) -> bool:
    """Involution-based membership test for the coupled-pair block family.

    True when the 2x2 matrix is symmetric, its imaginary part is positive
    definite and ``(diag(1, -1) b)**2 = -I`` within ``tol``. Agrees with
    :func:`phi_membership` on every input.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (2, 2):
        raise DimensionError(f"membership test needs a 2x2 matrix, got {b.shape}")
    scale = max_abs(b)
    if abs(b[0, 1] - b[1, 0]) > threshold(scale, tol):
        return False
    if np.linalg.eigvalsh(0.5 * (b.imag + b.imag.T)).min() <= 0.0:
        return False
    m = np.diag([1.0, -1.0]) @ b
    return max_abs(m @ m + np.eye(2)) <= threshold(scale ** 2, tol)


def _eig_clusters(a: np.ndarray, tol: float):
    """Unit eigenvectors of ``a`` and one eigenvalue per cluster within ``tol``."""
    w, vecs = np.linalg.eig(a)
    atol = threshold(max_abs(w), tol)
    reps: list[complex] = []
    for lam in w:
        if all(abs(lam - r) > atol for r in reps):
            reps.append(complex(lam))
    return vecs, reps


def non_derogatory(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``rank(a - w I) == n - 1`` for every distinct eigenvalue ``w``.

    Eigenvalues closer than ``tol`` at the matrix scale are treated as one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    _, reps = _eig_clusters(a, tol)
    return all(rank_tol(a - lam * np.eye(n), tol) == n - 1 for lam in reps)


def _krylov(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Columns ``[p, q p, ..., q^(n-1) p]`` for p a vector or matrix."""
    n = q.shape[0]
    cols = [np.atleast_2d(p.T).T]
    for _ in range(n - 1):
        cols.append(q @ cols[-1])
    return np.hstack(cols)


def controllability_rank(q, p, tol: float = DEFAULT_TOL) -> int:
    """Rank of the controllability matrix of ``(q, p)``.

    Columns are normalized before the rank test; this leaves the rank
    unchanged but keeps the test meaningful when powers of ``q`` spread
    the column scales over many orders of magnitude. Note the conditioning
    of the power basis still degrades exponentially with dimension; use
    :func:`is_controllable` for a decision that stays reliable up to the
    supported 32 modes.
    """
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    k = _krylov(q, p)
    norms = np.linalg.norm(k, axis=0)
    norms[norms == 0.0] = 1.0
    return rank_tol(k / norms, tol)


def find_cyclic_vector(q, tol: float = DEFAULT_TOL):
    """A unit vector ``p`` with ``rank([p, q p, ..., q^(n-1) p]) = n``.

    A general search for any square ``q``; ``synthesize`` needs none, as
    its certificate makes the spectrum distinct. When the eigenvalues of
    ``q`` are pairwise distinct the all-ones combination of the eigenbasis
    is tried first. With repeated eigenvalues any vector whose Krylov basis
    has full rank yields a similarity of ``q`` to companion form with that
    vector as first basis column, so a fixed-seed search over candidate
    seeds follows. Controllability of the returned vector is always
    verified (via :func:`is_controllable`) before returning.

    Raises
    ------
    DerogatoryMatrixError
        If ``q`` is derogatory, in which case no cyclic vector exists.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {q.shape}")
    if not non_derogatory(q, tol):
        raise DerogatoryMatrixError("matrix is derogatory; no cyclic vector exists")
    n = q.shape[0]
    vecs, reps = _eig_clusters(q, tol)

    def candidates():
        if len(reps) == n:
            yield vecs @ np.ones(n)
        yield np.ones(n, dtype=complex)
        gen = np.random.default_rng(0)
        for _ in range(64):
            yield gen.normal(size=n) + 1j * gen.normal(size=n)

    for p in candidates():
        p = p / np.linalg.norm(p)
        if is_controllable(q, p, tol):
            return p
    raise DerogatoryMatrixError("no cyclic vector found within the search budget")


# --- independent reference: the per-gap propagator, which ``evolve`` now
# runs only on irregular grids ---

def evolve_per_gap(system, v0, times, mean0=None) -> Trajectory:
    """One Van Loan step per gap between samples (the first from ``t = 0``).

    Steps are cached per distinct gap, keyed on the exact float, so a
    ``np.linspace`` grid takes one step per ulp-distinct gap.
    """
    times = np.asarray(times, dtype=float)
    n2 = system.A.shape[0]
    mean = np.zeros(n2) if mean0 is None else np.asarray(mean0, dtype=float)

    steps: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    v = v0.V
    means, covs = [], []
    for h in np.diff(times, prepend=0.0):
        if h not in steps:
            steps[h] = _van_loan_step(system, h)
        phi, q = steps[h]
        mean = phi @ mean
        v = phi @ v @ phi.T + q
        v = 0.5 * (v + v.T)
        means.append(mean)
        covs.append(v)
    return Trajectory(times=times, means=np.stack(means), covariances=np.stack(covs))
