"""Tests for block classification, feasibility and cyclic vectors."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsynth import (
    GraphMatrix,
    InfeasibleStateError,
    Permutation,
    assemble_graph,
    decompose,
    eig,
    phi_membership,
    rank_tol,
    synthesize,
)
from gsynth.structure import (
    LAMBDA,
    PI,
    XI_PHI,
    BlockClass,
    is_controllable,
)
from conftest import (
    DerogatoryMatrixError,
    cluster_parts,
    controllability_rank,
    find_cyclic_vector,
    non_derogatory,
    pair_graph,
    random_feasible_graph,
    random_phi_block,
    tms_graph,
    xi_membership,
)


# --- membership predicates ---

def test_phi_membership_examples():
    assert phi_membership(1j * np.eye(2))
    assert phi_membership(pair_graph().Z)
    alpha = 0.9
    c, s = np.cosh(2 * alpha), np.sinh(2 * alpha)
    assert phi_membership(np.array([[1j * c, -1j * s], [-1j * s, 1j * c]]))


def test_phi_membership_rejects():
    assert not phi_membership(np.diag([2j, 1j]))
    assert not phi_membership(np.array([[1j, 0.5], [0.5, 1j]]))  # coupling identity fails
    assert not phi_membership(np.array([[-1j, 0.0], [0.0, -1j]]))  # wrong half-plane
    assert not phi_membership(np.array([[1j, 1.0], [0.2, 1j]]))  # not symmetric


def test_xi_membership_examples():
    assert xi_membership(1j * np.eye(2))
    assert not xi_membership(np.diag([2j, 1j]))
    rng = np.random.default_rng(2)
    for _ in range(1000):
        assert xi_membership(random_phi_block(rng))


def test_xi_equals_phi_on_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        if rng.random() < 0.5:
            b = random_phi_block(rng)
        else:
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = 0.5 * (b + b.T)
        assert xi_membership(b) == phi_membership(b)


def test_unit_imaginary_is_the_only_involution_with_pd_imaginary_part():
    # among A = A1 + i A2 with A2 > 0, only A = iI satisfies A^2 = -I
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a1 = rng.normal(size=(n, n))
        a1 = 0.5 * (a1 + a1.T)
        m = rng.normal(size=(n, n))
        a2 = m @ m.T + 0.1 * np.eye(n)
        a = a1 + 1j * a2
        if np.abs(a - 1j * np.eye(n)).max() > 1e-9:
            assert np.abs(a @ a + np.eye(n)).max() > 1e-12
    n = 4
    assert np.abs((1j * np.eye(n)) @ (1j * np.eye(n)) + np.eye(n)).max() <= 1e-12


def test_pair_blocks_have_conjugate_unit_spectrum():
    # diag(1,-1) times any coupled-pair block has eigenvalues {i, -i}
    rng = np.random.default_rng(8)
    for _ in range(100):
        b = random_phi_block(rng)
        w, _ = eig(np.diag([1.0, -1.0]) @ b)
        assert_allclose(sorted(w, key=lambda v: v.imag), [-1j, 1j], atol=1e-9)


# --- non-derogatory matrices and cyclic vectors ---

def test_non_derogatory_examples():
    assert not non_derogatory(1j * np.eye(2))
    assert non_derogatory(np.diag([1j, -1j]))
    companion = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # s^3 + s
    assert non_derogatory(companion)
    # a Jordan block is non-derogatory despite its repeated eigenvalue
    jordan = np.array([[2.0, 1.0], [0.0, 2.0]])
    assert non_derogatory(jordan)
    assert not non_derogatory(2.0 * np.eye(2))


def test_non_derogatory_similarity_invariant():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))  # generically cyclic
        else:
            lam = complex(rng.normal(), rng.normal())
            a = lam * np.eye(n)  # derogatory for n >= 2
        f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert non_derogatory(f @ a @ np.linalg.inv(f)) == non_derogatory(a)


def test_find_cyclic_vector_diagonal():
    q = np.diag([1j, -1j])
    p = find_cyclic_vector(q)
    assert controllability_rank(q, p) == 2
    # the all-ones vector is itself acceptable
    assert rank_tol(np.hstack([np.ones((2, 1)), q @ np.ones((2, 1))])) == 2


def test_find_cyclic_vector_pair_state_reference_seed():
    graph = pair_graph()
    q = -np.diag([1.0, -1.0]) @ graph.Z
    p_ref = np.array([0.0, 1.0])
    assert controllability_rank(q, p_ref) == 2
    p = find_cyclic_vector(q)
    assert controllability_rank(q, p) == 2
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


def test_find_cyclic_vector_companion():
    companion = np.array([[0.0, -1.0], [1.0, 0.0]])  # s^2 + 1
    assert controllability_rank(companion, np.array([1.0, 0.0])) == 2
    p = find_cyclic_vector(companion)
    assert controllability_rank(companion, p) == 2


def test_find_cyclic_vector_repeated_eigenvalues():
    # Jordan structure with one block per eigenvalue: cyclic vectors exist
    jordan = np.array([
        [2.0, 1.0, 0.0],
        [0.0, 2.0, 0.0],
        [0.0, 0.0, -1.0],
    ])
    p = find_cyclic_vector(jordan)
    assert controllability_rank(jordan, p) == 3


def test_is_controllable_matches_power_basis_rank(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if rng.random() < 0.5:
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
        else:
            # an eigenvector reaches only its own eigenspace
            _, vecs = eig(q)
            p = vecs[:, 0]
        assert is_controllable(q, p) == (controllability_rank(q, p) == n)

    # repeated eigenvalues: one rank test per cluster, so a scalar matrix
    # (its eigenvalues split in the last bits by the similarity) takes one
    # and a Jordan block beside a simple eigenvalue takes two
    import gsynth.structure

    calls = []

    def counted_rank_tol(m, tol):
        calls.append(m)
        return rank_tol(m, tol)

    monkeypatch.setattr(gsynth.structure, "rank_tol", counted_rank_tol)
    f = rng.normal(size=(3, 3))
    scalar = f @ ((0.3 - 1.2j) * np.eye(3)) @ np.linalg.inv(f)
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    for q, clusters in ((scalar, 1), (jordan, 2)):
        for p in (np.ones(3), np.eye(3)[0], np.eye(3)[1], np.eye(3)):
            calls.clear()
            assert is_controllable(q, p) == (controllability_rank(q, p) == 3)
            assert len(calls) <= clusters
        assert len(calls) == clusters  # the full-rank seed passes at every cluster


def test_is_controllable_scales_past_power_basis():
    # the power-basis rank test degrades exponentially with size; the
    # eigenvalue-wise test must still certify a spread frequency ladder
    n = 24
    q = np.diag(np.array([1j * k * s for k in range(1, 13) for s in (1, -1)]))
    p = np.ones(n) / np.sqrt(n)
    assert is_controllable(q, p)
    assert not is_controllable(q, np.eye(n)[0])  # touches a single mode only


def test_find_cyclic_vector_rejects_derogatory():
    with pytest.raises(DerogatoryMatrixError):
        find_cyclic_vector(np.eye(3))
    with pytest.raises(DerogatoryMatrixError):
        find_cyclic_vector(1j * np.eye(2))


def test_cyclic_vector_exists_iff_non_derogatory():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        kind = rng.random()
        if kind < 0.4:
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        elif kind < 0.7:
            # one Jordan block per eigenvalue, possibly defective: non-derogatory
            lam = rng.normal() + 1j * rng.normal()
            a = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
        else:
            # two blocks sharing an eigenvalue: derogatory
            lam = rng.normal() + 1j * rng.normal()
            a = lam * np.eye(n)
        f = rng.normal(size=(n, n))
        a = f @ a @ np.linalg.inv(f)
        if non_derogatory(a, 1e-7):
            p = find_cyclic_vector(a, 1e-7)
            assert is_controllable(a, p, 1e-7)
        else:
            with pytest.raises(DerogatoryMatrixError):
                find_cyclic_vector(a, 1e-7)


# --- decomposition ---

def test_decompose_two_mode_squeezed():
    dec = decompose(tms_graph(0.7))
    assert dec.feasible
    assert len(dec.blocks) == 1
    assert dec.blocks[0].tag == XI_PHI
    assert dec.permutation.image == (0, 1)


def test_decompose_single_mode():
    dec = decompose(GraphMatrix(np.array([[0.4]]), np.array([[1.3]])))
    assert dec.feasible
    assert [b.tag for b in dec.blocks] == [LAMBDA]


def test_decompose_cluster_is_infeasible():
    parts = cluster_parts(0.5)
    dec = decompose(parts.graph)
    assert not dec.feasible
    assert "component size 3" in dec.certificate.reason


def test_cluster_infeasibility_against_brute_force():
    # oracle: try every relabeling of three modes and every split into
    # blocks of size <= 2; none block-diagonalizes the path-coupled matrix
    z = cluster_parts(0.5).graph.Z

    def block_diagonalizable(m):
        # splits of 3 modes into {1,2} or {2,1} contiguous blocks
        return abs(m[0, 1]) < 1e-12 and abs(m[0, 2]) < 1e-12 or \
            abs(m[0, 2]) < 1e-12 and abs(m[1, 2]) < 1e-12

    for image in itertools.permutations(range(3)):
        permuted = z[np.ix_(image, image)]
        assert not block_diagonalizable(permuted)


def test_decompose_vacuum_even_and_odd():
    even = decompose(GraphMatrix.vacuum(4))
    assert even.feasible
    assert [b.tag for b in even.blocks] == [XI_PHI, XI_PHI]
    odd = decompose(GraphMatrix.vacuum(5))
    assert odd.feasible
    assert [b.tag for b in odd.blocks] == [LAMBDA, XI_PHI, XI_PHI]


def test_decompose_pi_block():
    z = np.diag([0.4 + 0.9j, 1j])
    dec = decompose(GraphMatrix(z.real, z.imag))
    assert dec.feasible
    assert [b.tag for b in dec.blocks] == [PI]
    assert_allclose(dec.blocks[0].block, np.diag([0.4 + 0.9j, 1j]), atol=1e-12)


def test_decompose_rejects_two_non_i_scalars():
    z = np.diag([0.4 + 0.9j, 0.1 + 2.0j])
    dec = decompose(GraphMatrix(z.real, z.imag))
    assert not dec.feasible
    assert "more than one non-i scalar" in dec.certificate.reason


def test_decompose_rejects_bad_pair_block():
    # coupled but violating the pair identity
    z = np.array([[2j, 1.0], [1.0, 2j]])
    dec = decompose(GraphMatrix(z.real, z.imag))
    assert not dec.feasible
    assert "membership" in dec.certificate.reason


def test_decompose_block_count_and_conjugation():
    rng = np.random.default_rng(14)
    for _ in range(25):
        graph = random_feasible_graph(rng)
        dec = decompose(graph)
        assert dec.feasible
        assert len(dec.blocks) == (graph.n_modes + 1) // 2
        z_tilde = dec.permutation.conjugate(graph.Z)
        at = 0
        for blk in dec.blocks:
            assert_allclose(z_tilde[at:at + blk.size, at:at + blk.size], blk.block, atol=1e-9)
            at += blk.size
        # exceptional block first, everything after it in the pair family
        assert all(b.tag == XI_PHI for b in dec.blocks[1:])


def _with_large_scalar(block: np.ndarray, scale: float) -> GraphMatrix:
    """``diag(scale * i) (+) block``: one far larger mode beside ``block``."""
    n = block.shape[0] + 1
    z = np.zeros((n, n), dtype=complex)
    z[0, 0] = scale * 1j
    z[1:, 1:] = block
    return GraphMatrix(z.real, z.imag)


def test_decompose_large_scalar_does_not_hide_couplings():
    # a 3-mode block with couplings 0.3 beside a 1e10 scalar: each coupling
    # is judged at the scale of its own two modes, so the block stays
    # connected and the state is infeasible (a cut at tol * max|Z| = 10
    # called it feasible, and synthesize then raised InvalidRError)
    block = 0.3 * (np.ones((3, 3)) - np.eye(3)) + 1j * np.eye(3)
    graph = _with_large_scalar(block, 1e10)
    dec = decompose(graph)
    assert not dec.feasible
    assert dec.certificate.reason == "component size 3 exceeds 2 (modes (1, 2, 3))"
    with pytest.raises(InfeasibleStateError):
        synthesize(graph)


def test_decompose_large_scalar_keeps_pairs():
    # the converse: the two-mode squeezed pair beside a 1e10 scalar is a
    # lambda block plus a coupled pair, not three scalars
    dec = decompose(_with_large_scalar(tms_graph(0.7).Z, 1e10))
    assert dec.feasible
    assert [b.tag for b in dec.blocks] == [LAMBDA, XI_PHI]
    assert dec.permutation.image == (0, 1, 2)


def test_decompose_relabeling_invariant():
    rng = np.random.default_rng(16)
    for _ in range(20):
        graph = random_feasible_graph(rng, max_pairs=3)
        n = graph.n_modes
        perm = Permutation(tuple(int(k) for k in rng.permutation(n)))
        scrambled = GraphMatrix(perm.conjugate(graph.X), perm.conjugate(graph.Y))
        assert decompose(scrambled).feasible == decompose(graph).feasible
    # and an infeasible case stays infeasible under relabeling
    parts = cluster_parts(0.3)
    for image in itertools.permutations(range(3)):
        perm = Permutation(image)
        scrambled = GraphMatrix(perm.conjugate(parts.graph.X), perm.conjugate(parts.graph.Y))
        assert not decompose(scrambled).feasible


def test_assemble_graph_roundtrip():
    rng = np.random.default_rng(18)
    blocks = [BlockClass(XI_PHI, random_phi_block(rng)),
              BlockClass(LAMBDA, np.array([[0.2 + 0.7j]]))]
    perm = Permutation((2, 0, 1))
    graph = assemble_graph(blocks, perm)
    assert_allclose(perm.conjugate(graph.Z)[0:2, 0:2], blocks[0].block, atol=1e-12)
    assert decompose(graph).feasible
