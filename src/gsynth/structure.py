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

The certificate makes ``Z``, ``R``, ``Gamma`` and ``Q`` block diagonal with
distinct eigenvalues, so ``synthesize`` takes its coupling seed from one batched
``eig`` of the 2 x 2 blocks. :func:`is_controllable` is the general Hautus rank
test (Hautus 1969). ``verify_constraints`` does not call it: in the Cholesky frame
of ``Y`` a design's ``Q`` is ``-i`` times a Hermitian matrix, and one ``eigh`` of
that matrix decides the rank condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .gaussian import GraphMatrix
from .numerics import DEFAULT_TOL, Permutation, all_finite, max_abs, rank_tol, threshold

LAMBDA = "lambda"
PI = "pi"
XI_PHI = "xi_phi"


@dataclass(frozen=True)
class BlockClass:
    """One classified diagonal block: its tag and a read-only copy of its entries."""

    tag: str
    block: np.ndarray

    def __post_init__(self):
        block = np.array(self.block, dtype=complex, ndmin=2)
        size = 1 if self.tag == LAMBDA else 2 if self.tag in (PI, XI_PHI) else 0
        if not size:
            raise ValueError(f"unknown block tag {self.tag!r}")
        if block.shape != (size, size):
            raise DimensionError(f"{self.tag} block must be {size}x{size}")
        # a decomposition is shared by every caller that asks for it
        block.setflags(write=False)
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

    @cached_property
    def _block_stack(self) -> np.ndarray:
        """The 2 x 2 blocks as one ``(k, 2, 2)`` array; :func:`decompose` fills it in."""
        return np.array([b.block for b in self.blocks if b.size == 2]).reshape(-1, 2, 2)


def phi_membership(b, tol: float = DEFAULT_TOL) -> bool:
    """Explicit membership test for the coupled-pair block family.

    True when the 2x2 matrix is symmetric with equal diagonal, satisfies
    ``b12**2 = b11**2 + 1`` (within ``tol`` at the matrix scale) and has
    ``Im(b11) > 0``. A block with a NaN or infinite entry is no member.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (2, 2):
        raise DimensionError(f"membership test needs a 2x2 matrix, got {b.shape}")
    return all_finite(b) and _phi_members(b[None], tol)[0]


def _phi_members(stack: np.ndarray, tol: float) -> list[bool]:
    """The rule of :func:`phi_membership` on each block of a ``(k, 2, 2)`` stack.

    numpy's elementwise arithmetic forms the residuals, and one ``abs`` gives, per
    block, ``|b11|, |b12|, |b21|, |b22|`` (whose max is the scale), ``|b11 - b22|``,
    ``|b12 - b21|`` and ``|b12**2 - b11**2 - 1|``. The comparisons run on Python
    floats, as a design has a handful of blocks. A NaN residual passes no test.
    """
    flat = stack.reshape(-1, 4)
    parts = np.empty((len(flat), 7), dtype=complex)
    parts[:, :4] = flat
    np.subtract(flat[:, :2], flat[:, :1:-1], out=parts[:, 4:6])
    squares = flat[:, :2] ** 2
    np.subtract(squares[:, 1], squares[:, 0], out=parts[:, 6])
    parts[:, 6] -= 1.0
    members = []
    for (m11, m12, m21, m22, asym, skew, ident), up in zip(np.abs(parts).tolist(),
                                                        flat[:, 0].imag.tolist()):
        scale = max(m11, m12, m21, m22)
        cut = threshold(scale, tol)
        members.append(up > 0.0 and asym <= cut and skew <= cut
                       and ident <= threshold(scale * scale, tol))
    return members


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
    """The classification of :func:`decompose`, made afresh: one mask finds the structural
    zeros, one batched test judges every coupled pair, and the 2 x 2 blocks form one
    ``(k, 2, 2)`` stack, kept on the result for the coupling seed's batched ``eig``.

    The mask's ``nonzero`` lists every link twice, ``(j, k)`` and ``(k, j)``, by ``j``. No
    mode with two links means every component spans at most two modes: the links with
    ``j < k`` are the pairs, in mode order, and the modes with none are the lone scalars.
    Only a mode with two links takes the components' transitive closure (:func:`_wide_refusal`).
    """
    z = graph.Z
    n = graph.n_modes
    mags = np.abs(z)
    diag = mags.diagonal()
    # an exact zero never exceeds its threshold, so it is a structural zero at any tolerance
    linked = mags > threshold(np.sqrt(diag[:, None] * diag), tol)
    linked.flat[::n + 1] = False
    heads, tails = linked.nonzero()
    # a mode that heads two links, as one of more than n links must, sits in a component
    # of three or more modes
    if len(heads) > n or len(set(heads.tolist())) < len(heads):
        return _refused(n, _wide_refusal(z, linked, tol))
    up = heads < tails
    pairs = np.array([heads[up], tails[up]]).T
    stack = z[pairs[:, :, None], pairs[:, None, :]]
    members = _phi_members(stack, tol)
    pairs = pairs.tolist()
    if not all(members):
        return _refused(n, f"2x2 component on modes {tuple(pairs[members.index(False)])} fails"
                           " the coupled-pair membership test")

    scalars = sorted(set(range(n)).difference(*pairs))
    far = (np.abs(z.diagonal()[scalars] - 1j) > threshold(1.0, tol)).tolist() if scalars else []
    non_i = [j for j, off in zip(scalars, far) if off]
    if len(non_i) > 1:
        return _refused(n, f"more than one non-i scalar (modes {tuple(non_i)})")

    if n % 2 == 1:
        order = [non_i[0] if non_i else scalars[0]]
    elif non_i:
        order = [non_i[0], next(j for j in scalars if j != non_i[0])]
    else:
        order = []
    # the exceptional block, the coupled pairs, then leftover scalars two by two
    pi = len(order) // 2
    leftover = [j for j in scalars if j not in order]
    loose = order[n % 2:] + leftover
    order += [j for pair in pairs for j in pair] + leftover
    if loose:
        uncoupled = np.zeros((len(loose) // 2, 2, 2), dtype=complex)
        uncoupled[:, [0, 1], [0, 1]] = z.diagonal()[np.reshape(loose, (-1, 2))]
        stack = np.concatenate([uncoupled[:pi], stack, uncoupled[pi:]])
    stack.flags.writeable = False

    blocks = [BlockClass(LAMBDA, z[order[0], order[0]])] if n % 2 else []
    blocks += [BlockClass(PI if j < pi else XI_PHI, block) for j, block in enumerate(stack)]
    dec = BlockDecomposition(n, Certificate(True), Permutation(tuple(order)), tuple(blocks))
    dec.__dict__["_block_stack"] = stack
    return dec


def _refused(n: int, reason: str) -> BlockDecomposition:
    return BlockDecomposition(n_modes=n, certificate=Certificate(False, reason))


def _wide_refusal(z: np.ndarray, linked: np.ndarray, tol: float) -> str:
    """The reason for a graph with a component of three or more modes: the failing
    component (wider than two modes, or a pair outside the family) with the least mode.

    Row ``j`` of the reachability marks node ``j``'s connected component, and a
    two-node component ``(a, b)``, ``a < b``, is a row of two whose last entry is past it.
    """
    n = len(linked)
    reach = linked
    reach.flat[::n + 1] = True
    for _ in range(n.bit_length()):  # k squarings of the reachability span 2**k hops
        reach = reach.astype(float) @ reach > 0.0
    size = reach.sum(axis=1)
    last = n - 1 - reach[:, ::-1].argmax(axis=1)
    heads = ((last > np.arange(n)) & (size == 2)).nonzero()[0]
    pairs = np.array([heads, last[heads]]).T
    members = _phi_members(z[pairs[:, :, None], pairs[:, None, :]], tol)
    failing = size > 2
    failing[pairs[[not member for member in members]]] = True
    comp = tuple(reach[failing.argmax()].nonzero()[0].tolist())
    return f"component size {len(comp)} exceeds 2 (modes {comp})" if len(comp) > 2 else (
        f"2x2 component on modes {comp} fails the coupled-pair membership test")


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
