"""Structural feasibility analysis of graph matrices.

A pure Gaussian state admits a preparation with a diagonal passive
Hamiltonian and one engineered dissipator exactly when its graph matrix
splits, after relabeling the modes, into 1x1 and 2x2 diagonal blocks of
restricted form:

* ``lambda`` - a lone scalar ``z`` with ``Im(z) > 0`` (any single mode);
* ``pi`` - ``diag(z, i)``: one scalar not equal to ``i`` paired with a
  vacuum-like scalar ``i``;
* ``xi_phi`` - a coupled pair ``[[z11, z12], [z12, z11]]`` obeying
  ``z12**2 = z11**2 + 1`` with ``Im(z11) > 0``; equivalently a symmetric
  2x2 block with positive-definite imaginary part satisfying
  ``(diag(1, -1) Z)**2 = -I``.

At most one block may fall outside the ``xi_phi`` family: a ``lambda``
block when the mode count is odd, a ``pi`` block (or none) when it is
even. ``decompose`` finds the relabeling from the connected components of
the off-diagonal support graph, which is equivalent to searching over all
permutations because permutations preserve components, and emits a
certificate either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DerogatoryMatrixError, DimensionError
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, Permutation, eig, max_abs, rank_tol, threshold

LAMBDA = "lambda"
PI = "pi"
XI_PHI = "xi_phi"


@dataclass(frozen=True)
class BlockClass:
    """One classified diagonal block: its tag and the actual entries."""

    tag: str
    block: np.ndarray

    def __post_init__(self):
        block = np.atleast_2d(np.asarray(self.block, dtype=complex))
        sizes = {LAMBDA: 1, PI: 2, XI_PHI: 2}
        if self.tag not in sizes:
            raise ValueError(f"unknown block tag {self.tag!r}")
        if block.shape != (sizes[self.tag], sizes[self.tag]):
            raise DimensionError(f"{self.tag} block must be {sizes[self.tag]}x{sizes[self.tag]}")
        object.__setattr__(self, "block", block)

    @property
    def size(self) -> int:
        return self.block.shape[0]


@dataclass(frozen=True)
class Certificate:
    """Outcome of the feasibility test; ``reason`` explains a refusal."""

    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class BlockDecomposition:
    """Permutation plus classified blocks certifying feasibility.

    When feasible, ``permutation.conjugate(Z)`` is block diagonal with the
    listed blocks in order: the exceptional block (if any) first, coupled
    pairs next, then leftover vacuum-like scalars merged pairwise into
    ``i*I_2`` blocks.
    """

    n_modes: int
    certificate: Certificate
    permutation: Permutation | None = None
    blocks: tuple[BlockClass, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.certificate.feasible


def phi_membership(b, tol: float = DEFAULT_TOL) -> bool:
    """Explicit membership test for the coupled-pair block family.

    True when the 2x2 matrix is symmetric with equal diagonal, satisfies
    ``b12**2 = b11**2 + 1`` (within ``tol`` at the matrix scale) and has
    ``Im(b11) > 0``.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (2, 2):
        raise DimensionError(f"membership test needs a 2x2 matrix, got {b.shape}")
    scale = max_abs(b)
    entry_tol = threshold(scale, tol)
    if abs(b[0, 1] - b[1, 0]) > entry_tol or abs(b[0, 0] - b[1, 1]) > entry_tol:
        return False
    if abs(b[0, 1] ** 2 - b[0, 0] ** 2 - 1.0) > threshold(scale ** 2, tol):
        return False
    return b[0, 0].imag > 0.0


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
    w, vecs = eig(a)
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


def is_controllable(q, p, tol: float = DEFAULT_TOL) -> bool:
    """Eigenvalue-wise controllability test for ``(q, p)``.

    Checks ``rank([q - w I, p]) == n`` at every distinct eigenvalue ``w``,
    which is equivalent to full rank of the power-basis controllability
    matrix but avoids its exponential ill-conditioning.
    """
    q = np.asarray(q, dtype=complex)
    p = np.atleast_2d(np.asarray(p, dtype=complex).T).T
    n = q.shape[0]
    if p.shape[0] != n:
        raise DimensionError(f"seed must have {n} rows, got shape {p.shape}")
    _, reps = _eig_clusters(q, tol)
    return all(rank_tol(np.hstack([q - lam * np.eye(n), p]), tol) == n for lam in reps)


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


def decompose(graph: GraphMatrix, tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Classify a graph matrix against the feasible block structure.

    An off-diagonal entry counts as a structural zero when ``|Z_jk|`` is at
    most ``threshold(sqrt(|Z_jj| |Z_kk|), tol)``, the zero threshold at the
    scale of its own two modes, so a large entry elsewhere in ``Z`` cannot
    hide a coupling. The connected components of the remaining off-diagonal
    support are the indecomposable diagonal blocks; feasibility requires
    every component to span at most two modes, every two-mode component to
    pass :func:`phi_membership`, and at most one lone scalar to differ from
    ``i`` (absolute tolerance ``tol``).
    """
    z = graph.Z
    n = graph.n_modes
    mags = np.abs(z).tolist()

    adjacency = [[] for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            # an exact zero is a structural zero at any tolerance; skipping
            # it spares the threshold on the sparse graphs of feasible states
            m = mags[j][k]
            if m and m > threshold(math.sqrt(mags[j][j] * mags[k][k]), tol):
                adjacency[j].append(k)
                adjacency[k].append(j)

    components: list[list[int]] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nbr in adjacency[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        components.append(sorted(comp))

    def infeasible(reason: str) -> BlockDecomposition:
        return BlockDecomposition(n_modes=n, certificate=Certificate(False, reason))

    pairs: list[list[int]] = []
    scalars: list[int] = []
    for comp in components:
        if len(comp) > 2:
            return infeasible(f"component size {len(comp)} exceeds 2 (modes {tuple(comp)})")
        if len(comp) == 2:
            block = z[np.ix_(comp, comp)]
            if not phi_membership(block, tol):
                return infeasible(
                    f"2x2 component on modes {tuple(comp)} fails the coupled-pair membership test"
                )
            pairs.append(comp)
        else:
            scalars.append(comp[0])

    non_i = [j for j in scalars if abs(z[j, j] - 1j) > tol]
    if len(non_i) > 1:
        return infeasible(f"more than one non-i scalar (modes {tuple(non_i)})")

    blocks: list[BlockClass] = []
    order: list[int] = []
    if n % 2 == 1:
        head = non_i[0] if non_i else scalars[0]
        blocks.append(BlockClass(LAMBDA, np.array([[z[head, head]]])))
        order.append(head)
        leftover = [j for j in scalars if j != head]
    elif non_i:
        partner = next(j for j in scalars if j != non_i[0])
        blocks.append(BlockClass(PI, np.diag([z[non_i[0], non_i[0]], z[partner, partner]])))
        order.extend([non_i[0], partner])
        leftover = [j for j in scalars if j not in (non_i[0], partner)]
    else:
        leftover = scalars

    for comp in pairs:
        blocks.append(BlockClass(XI_PHI, z[np.ix_(comp, comp)]))
        order.extend(comp)
    for a, b in zip(leftover[0::2], leftover[1::2]):
        blocks.append(BlockClass(XI_PHI, np.diag([z[a, a], z[b, b]])))
        order.extend([a, b])

    return BlockDecomposition(
        n_modes=n,
        certificate=Certificate(True),
        permutation=Permutation(tuple(order)),
        blocks=tuple(blocks),
    )


def assemble_graph(blocks, permutation: Permutation | None = None) -> GraphMatrix:
    """Build the graph matrix whose relabeled form is ``diag(blocks)``.

    Inverse of :func:`decompose` up to block ordering: with ``P`` the given
    permutation, returns the graph matrix ``Z = P.T diag(blocks) P``.
    """
    mats = [np.atleast_2d(np.asarray(b.block if isinstance(b, BlockClass) else b, dtype=complex))
            for b in blocks]
    n = sum(m.shape[0] for m in mats)
    z = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        z[at:at + m.shape[0], at:at + m.shape[0]] = m
        at += m.shape[0]
    if permutation is not None:
        z = permutation.inverse().conjugate(z)
    return GraphMatrix(z.real, z.imag)
