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

The certificate makes ``Q = -R Z`` block diagonal with distinct
eigenvalues, so ``synthesize`` takes its coupling seed from the listed
blocks and searches for nothing. :func:`is_controllable` is the general Hautus rank test (Hautus
1969). ``verify_constraints`` decides a distinct spectrum with a clear
margin by the cheaper left-eigenvector form of the same test and runs
:func:`is_controllable` for every other case, so any "not controllable"
verdict comes from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, Permutation, max_abs, rank_tol, threshold

LAMBDA = "lambda"
PI = "pi"
XI_PHI = "xi_phi"


@dataclass(frozen=True)
class BlockClass:
    """One classified diagonal block: its tag and a read-only copy of its entries."""

    tag: str
    block: np.ndarray

    def __post_init__(self):
        block = np.atleast_2d(np.array(self.block, dtype=complex))
        sizes = {LAMBDA: 1, PI: 2, XI_PHI: 2}
        if self.tag not in sizes:
            raise ValueError(f"unknown block tag {self.tag!r}")
        if block.shape != (sizes[self.tag], sizes[self.tag]):
            raise DimensionError(f"{self.tag} block must be {sizes[self.tag]}x{sizes[self.tag]}")
        # a decomposition is shared by every caller that asks for it
        block.flags.writeable = False
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


def is_controllable(q, p, tol: float = DEFAULT_TOL) -> bool:
    """Hautus rank test for the controllability of ``(q, p)``.

    Checks ``rank([q - w I, p]) == n`` at one eigenvalue ``w`` of each
    cluster, eigenvalues closer than ``threshold(max|w|, tol)`` counting as
    one. This is equivalent to full rank of the power-basis controllability
    matrix but avoids its exponential ill-conditioning.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {q.shape}")
    p = np.atleast_2d(np.asarray(p, dtype=complex).T).T
    n = q.shape[0]
    if p.shape[0] != n:
        raise DimensionError(f"seed must have {n} rows, got shape {p.shape}")
    w = np.linalg.eigvals(q)
    atol = threshold(max_abs(w), tol)
    reps: list[complex] = []
    for lam in w:
        if all(abs(lam - r) > atol for r in reps):
            reps.append(complex(lam))
    return all(rank_tol(np.hstack([q - lam * np.eye(n), p]), tol) == n for lam in reps)


def decompose(graph: GraphMatrix, tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Classify a graph matrix against the feasible block structure.

    An off-diagonal entry counts as a structural zero when ``|Z_jk|`` is at
    most ``threshold(sqrt(|Z_jj| |Z_kk|), tol)``, the zero threshold at the
    scale of its own two modes, so a large entry elsewhere in ``Z`` cannot
    hide a coupling. The connected components of the remaining off-diagonal
    support are the indecomposable diagonal blocks; feasibility requires
    every component to span at most two modes, every two-mode component to
    pass :func:`phi_membership`, and at most one lone scalar to differ from
    ``i`` by more than ``threshold(1, tol)``.

    A graph is immutable, so the result is kept on it, one per ``tol``: a
    second call with the same graph and tolerance, such as the one inside
    :func:`~gsynth.synthesis.synthesize`, returns the same object without
    classifying again.
    """
    memo = graph.__dict__.setdefault("_decompositions", {})
    dec = memo.get(tol)
    if dec is None:
        dec = memo[tol] = _decompose(graph, tol)
    return dec


def _decompose(graph: GraphMatrix, tol: float) -> BlockDecomposition:
    """The classification of :func:`decompose`, made afresh."""
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

    pairs: list[tuple[list[int], np.ndarray]] = []
    scalars: list[int] = []
    for comp in components:
        if len(comp) > 2:
            return infeasible(f"component size {len(comp)} exceeds 2 (modes {tuple(comp)})")
        if len(comp) == 2:
            a, b = comp
            block = np.array([[z[a, a], z[a, b]], [z[b, a], z[b, b]]])
            if not phi_membership(block, tol):
                return infeasible(
                    f"2x2 component on modes {tuple(comp)} fails the coupled-pair membership test"
                )
            pairs.append((comp, block))
        else:
            scalars.append(comp[0])

    non_i = [j for j in scalars if abs(z[j, j] - 1j) > threshold(1.0, tol)]
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

    for comp, block in pairs:
        blocks.append(BlockClass(XI_PHI, block))
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
