"""Tests for the realization construction chain."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsynth import (
    GraphMatrix,
    InfeasibleStateError,
    InvalidRError,
    assemble_realization,
    build_C,
    build_G,
    build_Gamma,
    build_R,
    decompose,
    factor_covariance,
    graph_to_covariance,
    states,
    symplectic_form,
    synthesize,
    verify_constraints,
)
from gsynth.dynamics import _van_loan_step, build_moment_system, steady_state, verify_generation
from gsynth.numerics import DEFAULT_TOL, expm
from conftest import (
    SQRT6_2,
    cluster_parts,
    controllability_rank,
    eight_mode_graph,
    eight_mode_reference_p,
    near_pair_graph,
    pair_graph,
    pair_realization,
    random_feasible_graph,
    residue_graph,
    tms_graph,
    tms_realization,
)


def test_build_R_two_mode_squeezed():
    r = build_R(decompose(tms_graph(0.7)))
    assert_allclose(r, np.diag([1.0, -1.0]), atol=0)


def test_build_R_single_mode():
    dec = decompose(GraphMatrix(np.array([[0.3]]), np.array([[0.8]])))
    assert_allclose(build_R(dec), np.zeros((1, 1)), atol=0)


def test_build_R_eight_mode():
    r = build_R(decompose(eight_mode_graph()))
    assert_allclose(r, np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]), atol=0)


def test_build_R_pi_block():
    z = np.diag([0.4 + 0.9j, 1j])
    r = build_R(decompose(GraphMatrix(z.real, z.imag)))
    assert_allclose(r, np.diag([0.0, 1.0]), atol=0)


def test_build_R_respects_permutation():
    rng = np.random.default_rng(31)
    for _ in range(20):
        graph = random_feasible_graph(rng)
        dec = decompose(graph)
        r = build_R(dec)
        z = graph.Z
        assert np.abs(-z @ r @ z - r).max() < 1e-9 * max(1.0, np.abs(r).max())


def test_build_R_rejects_infeasible():
    with pytest.raises(InfeasibleStateError):
        build_R(decompose(cluster_parts(0.5).graph))


def test_synthesize_mixed_pi_and_pair():
    # one detuned scalar, one vacuum-like scalar, one coupled pair (N=4 even)
    rng = np.random.default_rng(29)
    from conftest import random_phi_block
    from gsynth import BlockClass, Permutation, assemble_graph
    from gsynth.structure import PI, XI_PHI

    blocks = [BlockClass(PI, np.diag([0.3 + 1.4j, 1j])),
              BlockClass(XI_PHI, random_phi_block(rng))]
    graph = assemble_graph(blocks, Permutation((3, 0, 2, 1)))
    dec = decompose(graph)
    assert dec.feasible
    assert [b.tag for b in dec.blocks] == [PI, XI_PHI]
    real = synthesize(graph)
    # exceptional block keeps (0, 1); the pair after it gets (2, -2)
    assert sorted(np.diag(real.R)) == [-2.0, 0.0, 1.0, 2.0]
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - graph_to_covariance(graph).V).max() < 1e-9


def test_build_Gamma_values():
    assert_allclose(build_Gamma(tms_graph(0.7), np.diag([1.0, -1.0])),
                    np.zeros((2, 2)), atol=1e-12)
    gamma = build_Gamma(pair_graph(), np.diag([1.0, -1.0]))
    assert_allclose(gamma, [[0.0, -0.5], [0.5, 0.0]], atol=1e-12)
    r8 = np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0])
    gamma8 = build_Gamma(eight_mode_graph(), r8)
    expected = np.zeros((8, 8))
    for j, value in enumerate([0.5, 1.0, 1.5, 2.0]):
        expected[2 * j, 2 * j + 1] = -value
        expected[2 * j + 1, 2 * j] = value
    assert_allclose(gamma8, expected, atol=1e-12)


def test_build_Gamma_rejects_inconsistent_R():
    with pytest.raises(InvalidRError):
        build_Gamma(tms_graph(0.7), np.eye(2))


def test_build_G_reduces_to_passive_form():
    g = tms_graph(0.7)
    r = np.diag([1.0, -1.0])
    out = build_G(g.X, g.Y, r, build_Gamma(g, r))
    assert_allclose(out, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-12)
    # trivial passive case
    assert_allclose(build_G(np.zeros((2, 2)), np.eye(2), np.diag([3.0, -2.0]), np.zeros((2, 2))),
                    np.diag([3.0, -2.0, 3.0, -2.0]), atol=0)


def test_block_constructors_match_np_block_bitwise(monkeypatch):
    # the block matrices are filled in place; np.block of the same pieces is the reference
    import gsynth.dynamics as dyn

    blocks = []
    monkeypatch.setattr(dyn, "expm", lambda m, t: blocks.append(m) or expm(m, t))
    rng = np.random.default_rng(2024)
    graphs = [pair_graph(), tms_graph(0.7), eight_mode_graph(), cluster_parts(0.5).graph]
    graphs += [random_feasible_graph(rng) for _ in range(100)]
    for g in graphs:
        n = g.n_modes
        eye, zero = np.eye(n), np.zeros((n, n))
        assert symplectic_form(n).tobytes() == np.block([[zero, eye], [-eye, zero]]).tobytes()
        x, y, y_inv = g.X, g.Y, np.linalg.inv(g.Y)
        v = 0.5 * np.block([[y_inv, y_inv @ x], [x @ y_inv, x @ y_inv @ x + y]])
        assert graph_to_covariance(g).V.tobytes() == (0.5 * (v + v.T)).tobytes()
        if not decompose(g).feasible:
            continue
        real = synthesize(g)
        r, gamma = real.R, real.Gamma
        assert real.G.tobytes() == np.block([[r, zero], [zero, r]]).tobytes()
        expected = np.block([
            [x @ r @ x + y @ r @ y - gamma @ y_inv @ x - x @ y_inv @ gamma.T,
             -x @ r + gamma @ y_inv],
            [-r @ x + y_inv @ gamma.T, r]])
        assert build_G(x, y, r, gamma).tobytes() == expected.tobytes()
        system = build_moment_system(real.G, real.C)
        a, d = system.A, system.D
        _van_loan_step(system, 0.5)
        assert blocks[-1].tobytes() == np.block([[-a, d], [np.zeros_like(a), a.T]]).tobytes()


def test_build_G_cluster_matches_reference_hamiltonian():
    parts = cluster_parts(0.5)
    em4 = np.exp(-4.0 * 0.5)
    g = build_G(parts.graph.X, parts.graph.Y, parts.R, parts.Gamma)
    assert_allclose(g[:3, :3], [[-1.0 + em4, 0.0, 1.0],
                                [0.0, 2.0 + em4, 0.0],
                                [1.0, 0.0, 3.0 + em4]], atol=1e-12)
    assert_allclose(g[:3, 3:], [[0.0, 0.0, 0.0],
                                [-2.0, 0.0, 0.0],
                                [0.0, -2.0, 0.0]], atol=1e-12)
    assert_allclose(g[3:, 3:], np.eye(3), atol=0)
    assert_allclose(g, g.T, atol=1e-12)


def test_build_C_cluster_matches_reference_couplings():
    parts = cluster_parts(0.5)
    em2 = np.exp(-2.0 * 0.5)
    c = build_C(parts.graph, parts.P)
    expected = np.array([
        [-1j * em2, -1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, -1j * em2, 0.0, 0.0, 1.0],
    ])
    assert_allclose(c, expected, atol=1e-12)


def test_build_C_two_mode_squeezed_reference():
    alpha = 0.7
    real = tms_realization(alpha)
    em, ep = np.exp(-alpha), np.exp(alpha)
    expected = np.array([[em, em, 1j * ep, 1j * ep]]) / np.sqrt(2.0)
    assert_allclose(real.C, expected, atol=1e-12)


def test_build_C_pair_state_reference():
    c = build_C(pair_graph(), np.array([[0.0], [1.0]]))
    expected = np.array([[-(SQRT6_2 + 1j), -(1.0 + SQRT6_2 * 1j), 0.0, 1.0]])
    assert_allclose(c, expected, atol=1e-12)


def test_build_C_single_basis_seed():
    c = build_C(GraphMatrix.vacuum(2), np.array([[1.0], [0.0]]))
    assert_allclose(c, np.array([[-1j, 0.0, 1.0, 0.0]]), atol=0)


def test_synthesize_two_mode_squeezed_roundtrip():
    graph = tms_graph(0.7)
    real = synthesize(graph)
    assert real.n_channels == 1
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - graph_to_covariance(graph).V).max() < 1e-10


def test_synthesize_vacuum_any_size():
    for n in (1, 2, 3, 4, 5):
        real = synthesize(GraphMatrix.vacuum(n))
        v = steady_state(build_moment_system(real.G, real.C))
        assert np.abs(v.V - 0.5 * np.eye(2 * n)).max() < 1e-10


def test_synthesize_rejects_infeasible_with_certificate():
    with pytest.raises(InfeasibleStateError) as excinfo:
        synthesize(cluster_parts(0.5).graph)
    assert "component size 3" in excinfo.value.certificate.reason


def test_synthesized_Q_is_clean():
    # Q = -R Z matches the constraint-form Q and has distinct spectrum, and
    # the per-block seed is the unit-norm sum of Q's own N x N eigenvectors
    rng = np.random.default_rng(33)
    for _ in range(20):
        graph = random_feasible_graph(rng)
        real = synthesize(graph)
        q_simple = -real.R @ graph.Z
        y_inv = np.linalg.inv(graph.Y)
        q_constraint = -1j * real.R @ graph.Y + y_inv @ real.Gamma
        assert np.abs(q_simple - q_constraint).max() < 1e-9 * max(1.0, np.abs(q_simple).max())
        w, vecs = np.linalg.eig(q_simple)
        gaps = [abs(w[i] - w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]
        assert min(gaps) > 1e-6
        p = vecs.sum(axis=1)
        assert np.abs(real.P.ravel() - p / np.linalg.norm(p)).max() <= 1e-12


def test_structural_identities_for_synthesized_instances():
    rng = np.random.default_rng(35)
    for _ in range(20):
        graph = random_feasible_graph(rng)
        real = synthesize(graph)
        z, x, y, r = graph.Z, graph.X, graph.Y, real.R
        assert np.abs(z @ r @ z + r).max() <= 1e-9
        assert np.abs(y @ r @ y - x @ r @ x - r).max() <= 1e-9
        assert np.abs(x @ r @ y + y @ r @ x).max() <= 1e-9
        assert np.abs(z @ r @ r - r @ r @ z).max() <= 1e-9
        assert np.abs(real.Gamma + real.Gamma.T).max() <= 1e-9


def test_verify_constraints_synthesized_all_pass():
    report = verify_constraints(synthesize(tms_graph(0.5)))
    assert report.all_ok
    assert report.passive_diagonal and report.single_channel and report.rank_condition
    assert_allclose(report.frequencies, [1.0, -1.0], atol=0)


def test_verify_constraints_cluster_design_fails_both():
    parts = cluster_parts(0.5)
    real = assemble_realization(parts.graph, parts.R, parts.Gamma, parts.P)
    report = verify_constraints(real)
    assert not report.passive_diagonal
    assert not report.single_channel
    assert report.rank_condition
    assert len(report.violations) == 2


def test_verify_constraints_hand_built_pass():
    graph = GraphMatrix.vacuum(2)
    r = np.diag([1.0, 2.0])
    real = assemble_realization(graph, r, np.zeros((2, 2)), np.array([[1.0], [1.0]]))
    report = verify_constraints(real)
    assert report.all_ok
    assert_allclose(real.G, np.diag([1.0, 2.0, 1.0, 2.0]), atol=0)


def test_pair_realization_matches_reference_design():
    real = pair_realization()
    assert_allclose(real.G, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-12)
    report = verify_constraints(real)
    assert report.all_ok
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - graph_to_covariance(pair_graph()).V).max() < 1e-10


def test_eight_mode_reference_seed_passes_rank():
    graph = eight_mode_graph()
    r = build_R(decompose(graph))
    gamma = build_Gamma(graph, r)
    real = assemble_realization(graph, r, gamma, eight_mode_reference_p())
    assert verify_constraints(real).all_ok


def test_synthesize_random_pi_families():
    # even mode counts with one detuned scalar: exceptional block plus pairs
    from gsynth import BlockClass, Permutation, assemble_graph
    from gsynth.structure import PI, XI_PHI
    from conftest import random_phi_block

    rng = np.random.default_rng(39)
    for _ in range(10):
        scalar = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.2, 2.0)
        blocks = [BlockClass(PI, np.diag([scalar, 1j]))]
        blocks += [BlockClass(XI_PHI, random_phi_block(rng))
                   for _ in range(int(rng.integers(0, 3)))]
        n = sum(b.size for b in blocks)
        graph = assemble_graph(blocks, Permutation(tuple(int(k) for k in rng.permutation(n))))
        real = synthesize(graph)
        assert verify_constraints(real).all_ok
        v = steady_state(build_moment_system(real.G, real.C))
        assert np.abs(v.V - graph_to_covariance(graph).V).max() < 1e-8


def test_synthesize_seed_is_unit_and_cyclic():
    # the seed is checked with the general Hautus test, which synthesize no
    # longer calls, on lambda, pi, coupled-pair and merged i-scalar blocks
    from gsynth import BlockClass, Permutation, assemble_graph, is_controllable
    from gsynth.structure import LAMBDA, PI, XI_PHI
    from conftest import random_lambda_scalar, random_phi_block

    rng = np.random.default_rng(43)
    graphs = [tms_graph(4.5)]
    for k in range(24):
        head, i_pairs = k % 3, k % 2
        if k % 4 == 0:
            n_pairs = (32 - head - 2 * i_pairs) // 2
        else:
            n_pairs = int(rng.integers(1, 12))
        blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n_pairs)]
        blocks += [BlockClass(XI_PHI, 1j * np.eye(2))] * i_pairs
        if head == 1:
            blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
        elif head == 2:
            blocks.append(BlockClass(PI, np.diag([random_lambda_scalar(rng)[0, 0], 1j])))
        n = sum(b.size for b in blocks)
        graphs.append(assemble_graph(blocks, Permutation(tuple(int(j) for j in rng.permutation(n)))))
    assert max(g.n_modes for g in graphs) == 32
    for graph in graphs:
        real = synthesize(graph)
        assert np.linalg.norm(real.P) == pytest.approx(1.0, abs=1e-12)
        assert is_controllable(-real.R @ graph.Z, real.P)
    assert_allclose(synthesize(tms_graph(4.5)).P.ravel(), np.ones(2) / np.sqrt(2), atol=1e-12)


def test_synthesize_does_no_search(monkeypatch):
    # the seed takes one eig, of the (k, 2, 2) stack of the certificate's
    # 2 x 2 blocks; no N x N eigendecomposition, search or rank test runs
    import gsynth.numerics
    import gsynth.structure
    import gsynth.synthesis
    from gsynth import BlockClass, Permutation, assemble_graph
    from gsynth.structure import LAMBDA, XI_PHI
    from conftest import random_lambda_scalar, random_phi_block

    rng = np.random.default_rng(41)
    graphs = [eight_mode_graph()]
    for n in (1, 2, 5, 16):
        blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)]
        if n % 2:
            blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
        graphs.append(assemble_graph(blocks, Permutation(tuple(int(k) for k in rng.permutation(n)))))
    expected = [synthesize(graph) for graph in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("synthesize must not search, rank-test or decompose N x N")

    for module in (gsynth.numerics, gsynth.structure, gsynth.synthesis):
        for name in ("rank_tol", "non_derogatory", "is_controllable", "find_cyclic_vector"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for name in ("eigvals", "eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    for graph, want in zip(graphs, expected):
        shapes.clear()
        # a fresh graph, so the classification runs under the spies too
        real = synthesize(GraphMatrix(graph.X, graph.Y))
        n = graph.n_modes
        assert shapes == ([] if n == 1 else [(n // 2, 2, 2)])
        for field in ("R", "Gamma", "P", "G", "C"):
            assert np.array_equal(getattr(real, field), getattr(want, field))


def test_synthesize_roundtrip_from_covariance():
    # full pipeline: covariance -> graph -> design -> steady state
    rng = np.random.default_rng(37)
    for _ in range(10):
        graph = random_feasible_graph(rng, max_pairs=2)
        cov = graph_to_covariance(graph)
        from gsynth import factor_covariance

        real = synthesize(factor_covariance(cov))
        v = steady_state(build_moment_system(real.G, real.C))
        assert np.abs(v.V - cov.V).max() < 1e-8


def test_synthesize_at_supported_size_limit():
    # 24 modes: the frequency ladder reaches +-12 and the power-basis
    # controllability matrix is hopeless, but the design must still verify
    rng = np.random.default_rng(57)
    from gsynth import BlockClass
    from gsynth.structure import XI_PHI
    from conftest import random_phi_block

    blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(12)]
    from gsynth import assemble_graph

    graph = assemble_graph(blocks)
    real = synthesize(graph)
    assert verify_constraints(real).all_ok
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - graph_to_covariance(graph).V).max() < 1e-8


def _design_q(real):
    # Q = -i R Y + Y^-1 Gamma, whose rank condition verify_constraints judges
    return -1j * real.R @ real.graph.Y + np.linalg.inv(real.graph.Y) @ real.Gamma


RANK_TOLS = (0.0, 1e-9, 1e-3)


def _reaches_every_block(real, p, tol) -> bool:
    """Per-block Krylov reference for the rank condition of ``(Q, p)``.

    The certificate makes ``Q`` block diagonal with pairwise distinct block
    spectra (0 or {0, -i}, then +-j i for the j-th block), so a seed reaches
    ``Q`` exactly when its Krylov matrix has full rank on every block, each
    at most 2 x 2 and well conditioned.
    """
    q = _design_q(real)
    p = np.asarray(p).reshape(len(q), -1)
    return all(controllability_rank(q[np.ix_(b, b)], p[b], tol) == len(b)
               for b in _certificate_blocks(real.graph))


def test_verify_constraints_takes_no_svd_on_designs(monkeypatch):
    # designed systems have a distinct spectrum in the Hermitian frame, so a
    # one-column seed is judged by the rows of U^H c: neither an SVD nor a
    # non-Hermitian eig runs, and every design reaches all its modes, as the
    # per-block Krylov reference says
    from gsynth import BlockClass, assemble_graph
    from gsynth.structure import XI_PHI
    from conftest import random_phi_block

    rng = np.random.default_rng(83)
    designs = []
    for n in (2, 6, 16, 32):
        graph = assemble_graph([BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)])
        designs.append(synthesize(graph))
    designs.append(synthesize(eight_mode_graph()))
    for real in designs:
        assert all(_reaches_every_block(real, real.P, tol) for tol in RANK_TOLS)

    def forbidden(*args, **kwargs):
        raise AssertionError("the rank test took an SVD or a non-Hermitian eig")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "eig", forbidden)
    for real in designs:
        for tol in RANK_TOLS:
            assert verify_constraints(real, tol).all_ok


def test_rank_test_refuses_a_seed_that_misses_a_pair():
    # the general Hautus test agrees with the Krylov rank on a clustered
    # spectrum, a Jordan block and seeds that miss an eigenvector
    from gsynth import BlockClass, assemble_graph
    from gsynth.structure import XI_PHI, is_controllable

    rng = np.random.default_rng(89)
    f = rng.normal(size=(3, 3))
    scalar = f @ ((0.3 - 1.2j) * np.eye(3)) @ np.linalg.inv(f)
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    distinct = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    _, vecs = np.linalg.eig(distinct)
    cases = [(scalar, np.ones(3)), (jordan, np.ones(3)), (jordan, np.eye(3)[0]),
             (distinct, vecs[:, 0]), (distinct, vecs[:, :2] @ np.array([1.0, -0.5j]))]
    for q, p in cases:
        p = p.reshape(3, -1)
        assert is_controllable(q, p) == (controllability_rank(q, p) == 3)

    # a one-mode seed on a two-pair design reaches one pair only, at every
    # tolerance; the synthesized seed reaches both
    real = synthesize(assemble_graph([BlockClass(XI_PHI, pair_graph().Z),
                                      BlockClass(XI_PHI, tms_graph(0.7).Z)]))
    one_mode = real.P * 0.0
    one_mode[0, 0] = 1.0
    seeded = assemble_realization(real.graph, real.R, real.Gamma, one_mode)
    assert controllability_rank(_design_q(seeded), one_mode) < 4
    for tol in RANK_TOLS:
        assert not _reaches_every_block(seeded, one_mode, tol)
        assert not verify_constraints(seeded, tol).rank_condition
        assert _reaches_every_block(real, real.P, tol)
        assert verify_constraints(real, tol).rank_condition


def test_rank_test_agrees_with_block_krylov_on_random_designs():
    # the synthesized seed, a generic one and a one-mode one, accepted and
    # refused alike: the verdict is the per-block Krylov reference's
    rng = np.random.default_rng(97)
    verdicts = set()
    for _ in range(60):
        graph = random_feasible_graph(rng, max_pairs=8)
        real = synthesize(graph)
        n = graph.n_modes
        for p in (real.P, rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1)),
                  np.eye(n)[:, :1]):
            seeded = assemble_realization(graph, real.R, real.Gamma, p)
            for tol in RANK_TOLS:
                got = verify_constraints(seeded, tol).rank_condition
                assert got == _reaches_every_block(seeded, p, tol)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("alpha", [5.5, 6.0, 7.0])
def test_strongly_squeezed_design_passes_rank(alpha):
    # in the Hermitian frame the rank margin of tms(alpha) falls as about
    # e^-alpha, not as e^-4 alpha in the frame of Q, so the design reaches both modes
    real = synthesize(factor_covariance(states.two_mode_squeezed(alpha)))
    assert _reaches_every_block(real, real.P, DEFAULT_TOL)
    assert verify_constraints(real).rank_condition


def test_32_mode_design_passes_rank_at_loose_tol():
    # at tol 1e-3 each eigenvector of Omega is judged at the scale of the
    # seed alone, so a 32-mode design is not refused for its size
    real = synthesize(_relabeled_design_graph(np.random.default_rng(0), 32))
    assert _reaches_every_block(real, real.P, 1e-3)
    assert verify_constraints(real, 1e-3).all_ok


def _relabeled_design_graph(rng, n: int) -> GraphMatrix:
    """``n // 2`` coupled pairs and, for odd ``n``, a lone scalar, relabeled at random."""
    from gsynth import BlockClass, Permutation, assemble_graph
    from gsynth.structure import LAMBDA, XI_PHI
    from conftest import random_lambda_scalar, random_phi_block

    blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)]
    if n % 2:
        blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
    return assemble_graph(blocks, Permutation(tuple(int(k) for k in rng.permutation(n))))


def _certificate_blocks(graph) -> list[list[int]]:
    """The modes of each certificate block, in certificate order."""
    image = list(decompose(graph).permutation.image)
    n = len(image)
    return ([image[:1]] if n % 2 else []) + [image[k:k + 2] for k in range(n % 2, n, 2)]


@pytest.mark.parametrize("tol", RANK_TOLS)
def test_rank_verdict_matches_krylov_reference(tol):
    # The verdict must agree with the per-block Krylov reference on the
    # synthesized seed, a seed with one block zeroed and a generic seed.
    rng = np.random.default_rng(41)
    for n in range(1, 33):
        graph = _relabeled_design_graph(rng, n)
        real = synthesize(graph)
        blocks = _certificate_blocks(graph)
        zeroed = real.P.copy()
        zeroed[blocks[int(rng.integers(len(blocks)))]] = 0.0
        generic = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        for p in (real.P, zeroed, generic):
            seeded = assemble_realization(graph, real.R, real.Gamma, p)
            assert verify_constraints(seeded, tol).rank_condition == _reaches_every_block(
                seeded, p, tol), n
        # a seed with no weight on one block never reaches it
        assert not _reaches_every_block(real, zeroed, tol)

    # Two blocks given one frequency share their eigenvalues, which no single
    # seed can separate: refused, as the Krylov rank of the whole Q says.
    for n in (4, 5, 6):
        graph = _relabeled_design_graph(rng, n)
        real = synthesize(graph)
        blocks = _certificate_blocks(graph)
        r = np.diag(real.R).copy()
        r[blocks[-1]] = r[blocks[-2]]
        r = np.diag(r)
        for p in (real.P, rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))):
            shared = assemble_realization(graph, r, build_Gamma(graph, r), p)
            assert controllability_rank(_design_q(shared), p, tol) < n
            assert not verify_constraints(shared, tol).rank_condition, n

    # A 1e-17 entry of Gamma between two blocks couples them in Omega far
    # below their eigenvalue gaps: the verdict stays the per-block one.
    for n in (4, 9, 16, 32):
        graph = _relabeled_design_graph(rng, n)
        real = synthesize(graph)
        blocks = _certificate_blocks(graph)
        gamma = real.Gamma.copy()
        a, b = blocks[-1][0], blocks[-2][0]
        gamma[a, b], gamma[b, a] = 1e-17, -1e-17
        joined = assemble_realization(graph, real.R, gamma, real.P)
        assert verify_constraints(joined, tol).rank_condition == _reaches_every_block(
            joined, real.P, tol), n


STORED_BYTES = Path(__file__).parent / "data" / "synthesize_bytes.json"


@pytest.mark.parametrize("fixture", ["tms", "eight-mode", "cluster"])
def test_synthesize_matches_stored_bytes(fixture):
    # the design path builds one Realization with G = diag(R, R) in place of
    # the general G it once checked and replaced: no output bit may move
    stored = json.loads(STORED_BYTES.read_text())[fixture]
    graph = {"tms": lambda: tms_graph(0.7), "eight-mode": eight_mode_graph,
             "cluster": lambda: cluster_parts(0.5).graph}[fixture]()
    if "infeasible" in stored:
        with pytest.raises(InfeasibleStateError) as info:
            synthesize(graph)
        assert info.value.certificate.reason == stored["infeasible"]
        return
    real = synthesize(graph)
    assert list(decompose(graph).permutation.image) == stored["permutation"]
    for name in ("R", "Gamma", "P", "G", "C"):
        got, want = getattr(real, name), stored[name]
        assert (str(got.dtype), list(got.shape)) == (want["dtype"], want["shape"]), name
        expected = np.frombuffer(bytes.fromhex(want["bytes"]), dtype=got.dtype).reshape(got.shape)
        assert got.tobytes() == expected.tobytes(), (name, np.abs(got - expected).max())


@pytest.mark.parametrize("fixture", ["tms", "eight-mode"])
def test_verify_generation_matches_stored_bytes(fixture):
    # the steady state, its error, the Lyapunov residual the solve judged and the
    # purity: the report reuses the solve's residual, and no output bit may move
    stored = json.loads(STORED_BYTES.read_text())[fixture]["verify_generation"]
    graph = {"tms": lambda: tms_graph(0.7), "eight-mode": eight_mode_graph}[fixture]()
    report = verify_generation(synthesize(graph), graph_to_covariance(graph))
    got = {"steady_covariance": report.steady_covariance.V,
           "max_error": np.float64(report.max_error),
           "lyapunov_residual": np.float64(report.lyapunov_residual),
           "steady_purity": np.float64(report.steady_purity)}
    assert set(got) == set(stored)
    for name, value in got.items():
        want = stored[name]
        assert (str(value.dtype), list(value.shape)) == (want["dtype"], want["shape"]), name
        assert value.tobytes().hex() == want["bytes"], (name, value)


def test_realization_keeps_read_only_copies_and_one_basis(monkeypatch):
    # a design is immutable, so the eigenbasis of its drift is computed once
    # and kept; a replaced design computes its own
    import dataclasses

    import gsynth.dynamics
    from gsynth import Realization

    real = tms_realization(0.7)
    parts = {name: np.array(getattr(real, name)) for name in ("R", "Gamma", "P", "G", "C")}
    design = Realization(graph=real.graph, **parts)
    for name, given in parts.items():
        kept = getattr(design, name)
        assert given.flags.writeable and not kept.flags.writeable, name
        assert not np.shares_memory(given, kept), name
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0

    bases = []
    eigenbasis = gsynth.dynamics.eigenbasis
    monkeypatch.setattr(gsynth.dynamics, "eigenbasis", lambda a: bases.append(a) or eigenbasis(a))
    target = graph_to_covariance(real.graph)
    first = verify_generation(design, target)
    again = verify_generation(design, target)
    assert len(bases) == 1
    assert np.array_equal(first.steady_covariance.V, again.steady_covariance.V)
    moved = dataclasses.replace(design, C=2.0 * design.C)
    moved_report = verify_generation(moved, target)
    assert len(bases) == 2
    assert np.array_equal(bases[1], build_moment_system(moved.G, moved.C).A)
    assert np.array_equal(moved_report.steady_covariance.V,
                          steady_state(build_moment_system(moved.G, moved.C)).V)


def test_design_op_computes_each_fact_once(monkeypatch):
    # one feasible design op as the benchmark runs it: factor -> decompose ->
    # synthesize -> graph_to_covariance -> verify_generation
    import gsynth.dynamics
    import gsynth.gaussian
    import gsynth.numerics
    import gsynth.structure
    from gsynth import CovarianceMatrix, Realization

    counts = {"classify": 0, "realization": 0}
    inverted, normed, zero_residues, factored = [], [], [], []
    classify, post_init = gsynth.structure._decompose, Realization.__post_init__
    inv, norm, cholesky, max_abs = (np.linalg.inv, np.linalg.norm, np.linalg.cholesky,
                                    gsynth.numerics.max_abs)

    def counted_classify(graph, tol):
        counts["classify"] += 1
        return classify(graph, tol)

    def counted_post_init(self):
        counts["realization"] += 1
        post_init(self)

    def recorded_inv(a):
        inverted.append(np.array(a))
        return inv(a)

    def recorded_norm(x, *args, **kwargs):
        normed.append(np.array(x))
        return norm(x, *args, **kwargs)

    def recorded_max_abs(a):
        # the residual m - m.T, R - diag(R) or Gamma + Gamma.T of a symmetry,
        # diagonal or antisymmetry test on an array that is already exact
        a = np.asarray(a)
        if a.ndim == 2 and a.shape[0] == a.shape[1] > 1 and not a.any():
            zero_residues.append(a)
        return max_abs(a)

    feasible = random_feasible_graph(np.random.default_rng(12))
    target = CovarianceMatrix(graph_to_covariance(feasible).V)
    monkeypatch.setattr(gsynth.structure, "_decompose", counted_classify)
    monkeypatch.setattr(Realization, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "inv", recorded_inv)
    monkeypatch.setattr(np.linalg, "norm", recorded_norm)
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
    for module in (gsynth.numerics, gsynth.gaussian, gsynth.synthesis, gsynth.dynamics):
        monkeypatch.setattr(module, "max_abs", recorded_max_abs)
    graph = factor_covariance(target)
    assert decompose(graph).feasible
    real = synthesize(graph)
    report = verify_generation(real, graph_to_covariance(graph))
    factorizations = len(factored)
    assert report.generates_target and report.constraints.all_ok
    inverses_of_y = sum(a.shape == graph.Y.shape and np.array_equal(a, graph.Y) for a in inverted)
    assert counts == {"classify": 1, "realization": 1}
    assert inverses_of_y == 1
    # one Lyapunov residual per solve: the report's is the one the solve judged
    system = build_moment_system(real.G, real.C)
    v = report.steady_covariance.V
    residual = system.A @ v + v @ system.A.T + system.D
    assert sum(np.array_equal(x, residual) for x in normed) == 1
    assert report.lyapunov_residual == norm(residual)
    # X, Y, the target and steady covariances, R, Gamma, G and D are exact by
    # construction: none takes a scaled symmetry, diagonal or antisymmetry test
    assert zero_residues == []
    # Y is factored once, for the rank test's frame (its definiteness passes on its
    # Gershgorin discs), and the target, the diffusion and the steady state once each
    assert factorizations == 4


@pytest.mark.parametrize("alpha", [4.5, 5.0])
def test_strongly_squeezed_feasible_state_is_synthesizable(alpha):
    # the certificate is synthesize's only test, so a certified state is
    # synthesized; whether it generates its target is verify_generation's call
    target = states.two_mode_squeezed(alpha)
    graph = factor_covariance(target)
    assert decompose(graph).feasible
    report = verify_generation(synthesize(graph), target)
    assert report.generates_target
    assert report.constraints.all_ok


def _pair_graph(z11) -> GraphMatrix:
    """The coupled pair with diagonal ``z11`` and coupling ``+sqrt(z11**2 + 1)``."""
    z12 = np.sqrt(z11 ** 2 + 1.0)
    z = np.array([[z11, z12], [z12, z11]])
    return GraphMatrix(z.real, z.imag)


def test_strongly_squeezed_pair_sweep_is_synthesizable():
    # Gamma = X R Y cancels to O(1) while its factors' product is about
    # |Z|^2 |R| = 1e7, so an antisymmetry test judged at max|Gamma| would
    # refuse some of these certified pairs
    thetas = np.linspace(0.05, np.pi - 0.05, 400)
    for theta in thetas:
        graph = _pair_graph(3e3 * np.exp(1j * theta))
        assert decompose(graph).feasible
        synthesize(graph)
    # the ten that raised: each now generates its target
    for k in (45, 55, 58, 63, 99, 131, 145, 255, 260, 354):
        graph = _pair_graph(3e3 * np.exp(1j * thetas[k]))
        report = verify_generation(synthesize(graph), graph_to_covariance(graph))
        assert report.generates_target and report.constraints.all_ok, k


def _wide_scale_block(rng, size: int) -> np.ndarray:
    """A lone scalar or a coupled pair with ``|z11|`` log-uniform over 1e-3..1e3.

    ``arg z11`` is uniform in (0.05, pi - 0.05), the paper's parametrization
    away from the real axis, and the coupling takes either sign.
    """
    z11 = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
    if size == 1:
        return np.array([[z11]])
    z12 = np.sqrt(z11 ** 2 + 1.0) * rng.choice([-1.0, 1.0])
    return np.array([[z11, z12], [z12, z11]])


def _relabeled(rng, z) -> GraphMatrix:
    from gsynth import Permutation

    z = Permutation(tuple(int(k) for k in rng.permutation(len(z)))).conjugate(z)
    return GraphMatrix(z.real, z.imag)


def test_feasible_means_synthesizable_on_wide_scales():
    # every state the certifier accepts synthesizes, verifies without
    # raising and meets every constraint, and neither verdict depends on the
    # labeling. generates_target is printed (pytest -s or -rP shows it), not
    # gated: with |Z_jj| in the hundreds it turns on the last bits of the
    # seed (ROADMAP item 3). The record_property fixture would carry it only
    # under junit_family xunit1, and warns, an error here, under the default.
    from gsynth import BlockClass, assemble_graph
    from gsynth.structure import LAMBDA, XI_PHI

    rng = np.random.default_rng(7)
    draws = []
    for _ in range(150):
        blocks = [BlockClass(XI_PHI, _wide_scale_block(rng, 2))
                  for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.5:
            blocks.append(BlockClass(LAMBDA, _wide_scale_block(rng, 1)))
        draws.append(assemble_graph(blocks).Z)
    draws += [_pair_graph(3e3 * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))).Z
              for _ in range(100)]
    misses = 0
    for z in draws:
        graph, again = _relabeled(rng, z), _relabeled(rng, z)
        feasible = decompose(graph).feasible
        assert decompose(again).feasible == feasible
        if not feasible:
            continue
        real = synthesize(graph)
        report = verify_generation(real, graph_to_covariance(graph))
        assert report.constraints.all_ok
        flags = (report.constraints.passive_diagonal, report.constraints.single_channel,
                 report.constraints.rank_condition)
        other = verify_constraints(synthesize(again))
        assert (other.passive_diagonal, other.single_channel, other.rank_condition) == flags
        misses += not report.generates_target
    print(f"generates_target misses: {misses} of {len(draws)} draws")


def test_feasible_means_synthesizable_under_structural_zero_residue():
    # entries the certificate counts as structural zeros, at 0.5 to 0.9 of
    # its per-entry threshold, leave a residue in -Z R Z = R that no
    # downstream test may refuse: every certified graph gets a design, and
    # verify_generation judges it. The near-member pair is certified only at
    # tol 1e-3. generates_target is printed, not gated: at tol 1e-6 the
    # residue exceeds the 1e-8 target bound.
    rng = np.random.default_rng(23)
    draws = [(residue_graph(rng, int(rng.integers(2, 9)), tol), tol)
             for tol in (1e-9, 1e-6) for _ in range(60)]
    draws.append((near_pair_graph(), 1e-3))
    misses = dict.fromkeys((1e-9, 1e-6, 1e-3), 0)
    for graph, tol in draws:
        assert decompose(graph, tol).feasible
        report = verify_generation(synthesize(graph, tol), graph_to_covariance(graph),
                                   constraint_tol=tol)
        assert report.constraints.passive_diagonal and report.constraints.single_channel
        misses[tol] += not report.generates_target
    print(f"generates_target misses under residue, by tol: {misses}")


@pytest.mark.parametrize("name", ["R", "Gamma", "P", "G", "C"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_realization_rejects_non_finite_entries(name, value):
    # NaN passes the diagonal, antisymmetry and symmetry tests, so finiteness
    # is checked on its own
    from gsynth import Realization

    real = tms_realization(0.7)
    parts = {key: np.array(getattr(real, key)) for key in ("R", "Gamma", "P", "G", "C")}
    parts[name][0, 0] = value
    with pytest.raises(ValueError, match="finite"):
        Realization(graph=real.graph, **parts)
