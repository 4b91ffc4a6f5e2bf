"""Tests for the realization construction chain."""

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
    graph_to_covariance,
    states,
    synthesize,
    verify_constraints,
)
from gsynth.dynamics import build_moment_system, steady_state
from gsynth.numerics import eig
from conftest import (
    SQRT6_2,
    cluster_parts,
    eight_mode_graph,
    eight_mode_reference_p,
    pair_graph,
    pair_realization,
    random_feasible_graph,
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
    # Q = -R Z matches the constraint-form Q and has distinct spectrum
    rng = np.random.default_rng(33)
    for _ in range(20):
        graph = random_feasible_graph(rng)
        real = synthesize(graph)
        q_simple = -real.R @ graph.Z
        y_inv = np.linalg.inv(graph.Y)
        q_constraint = -1j * real.R @ graph.Y + y_inv @ real.Gamma
        assert np.abs(q_simple - q_constraint).max() < 1e-9 * max(1.0, np.abs(q_simple).max())
        w, _ = eig(q_simple)
        gaps = [abs(w[i] - w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]
        assert min(gaps) > 1e-6


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
    import gsynth.numerics
    import gsynth.structure
    import gsynth.synthesis

    graph = eight_mode_graph()
    expected = synthesize(graph)

    def forbidden(*args, **kwargs):
        raise AssertionError("synthesize must not search or rank-test")

    for module in (gsynth.numerics, gsynth.structure, gsynth.synthesis):
        for name in ("rank_tol", "non_derogatory", "is_controllable", "find_cyclic_vector"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    calls = []

    def counted_eig(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(gsynth.synthesis, "eig", counted_eig)
    real = synthesize(graph)
    assert len(calls) == 1
    for field in ("R", "Gamma", "P", "G", "C"):
        assert np.array_equal(getattr(real, field), getattr(expected, field))


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
    # the matrix verify_constraints rank-tests
    return -1j * real.R @ real.graph.Y + np.linalg.inv(real.graph.Y) @ real.Gamma


def test_verify_constraints_takes_no_svd_on_designs(monkeypatch):
    # designed systems have a distinct spectrum and a clear margin, so the
    # left-eigenvector test decides and Hautus (one SVD per eigenvalue) never runs
    import gsynth.structure
    from gsynth import BlockClass, assemble_graph
    from gsynth.structure import XI_PHI
    from conftest import random_phi_block

    rng = np.random.default_rng(83)
    designs = []
    for n in (2, 6, 16, 32):
        graph = assemble_graph([BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)])
        designs.append(synthesize(graph))
    designs.append(synthesize(eight_mode_graph()))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_constraints fell back to the Hautus test")

    monkeypatch.setattr(gsynth.structure, "rank_tol", forbidden)
    for real in designs:
        assert verify_constraints(real).all_ok


def test_rank_test_falls_back_to_hautus(monkeypatch):
    # a clustered spectrum, a Jordan block or a seed that misses an eigenvector
    # is left to is_controllable; the verdict matches the Krylov reference
    import gsynth.synthesis
    from gsynth import BlockClass, assemble_graph
    from gsynth.structure import XI_PHI, is_controllable
    from gsynth.synthesis import _clearly_controllable
    from conftest import controllability_rank

    rng = np.random.default_rng(89)
    f = rng.normal(size=(3, 3))
    scalar = f @ ((0.3 - 1.2j) * np.eye(3)) @ np.linalg.inv(f)
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    distinct = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    _, vecs = eig(distinct)
    cases = [(scalar, np.ones(3)), (jordan, np.ones(3)), (jordan, np.eye(3)[0]),
             (distinct, vecs[:, 0]), (distinct, vecs[:, :2] @ np.array([1.0, -0.5j]))]
    for q, p in cases:
        p = p.reshape(3, -1)
        assert not _clearly_controllable(q, p)
        assert is_controllable(q, p) == (controllability_rank(q, p) == 3)

    # a one-mode seed on a two-pair design reaches one pair only
    calls = []

    def counted(q, p, tol):
        calls.append(q)
        return is_controllable(q, p, tol)

    monkeypatch.setattr(gsynth.synthesis, "is_controllable", counted)
    real = synthesize(assemble_graph([BlockClass(XI_PHI, pair_graph().Z),
                                      BlockClass(XI_PHI, tms_graph(0.7).Z)]))
    one_mode = real.P * 0.0
    one_mode[0, 0] = 1.0
    seeded = assemble_realization(real.graph, real.R, real.Gamma, one_mode)
    report = verify_constraints(seeded)
    assert len(calls) == 1
    assert report.rank_condition == (controllability_rank(_design_q(seeded), one_mode) == 4)
    assert not report.rank_condition
    calls.clear()
    assert verify_constraints(real).rank_condition
    assert calls == []


def test_rank_test_agrees_with_hautus():
    # accepted and declined cases alike: the combined verdict is Hautus's
    from gsynth.structure import is_controllable
    from gsynth.synthesis import _clearly_controllable

    rng = np.random.default_rng(97)
    accepted = 0
    for _ in range(60):
        graph = random_feasible_graph(rng, max_pairs=8)
        real = synthesize(graph)
        q = _design_q(real)
        n = q.shape[0]
        for p in (real.P, rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1)),
                  np.eye(n)[:, :1]):
            for tol in (0.0, 1e-9, 1e-3):
                fast = _clearly_controllable(q, p, tol)
                accepted += fast
                assert (fast or is_controllable(q, p, tol)) == is_controllable(q, p, tol)
    assert accepted > 0
