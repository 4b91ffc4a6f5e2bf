"""Tests for the Gaussian-state data model and metrics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gsynth import (
    CovarianceMatrix,
    GraphMatrix,
    InvalidCovarianceError,
    NotPureStateError,
    UnsupportedBipartitionError,
    factor_covariance,
    graph_to_covariance,
    log_negativity,
    purity,
    reduced_state,
    states,
    symplectic_eigenvalues,
    symplectic_form,
)
from conftest import (
    SQRT6_2,
    THERMAL_TMS_NEGATIVITY,
    THERMAL_TMS_PURITY,
    THERMAL_TMS_V,
    eight_mode_graph,
    pair_cov,
    pair_graph,
    random_graph,
)


def test_symplectic_form_identities():
    for n in (1, 2, 5):
        sig = symplectic_form(n)
        assert_allclose(sig.T, -sig, atol=0)
        assert_allclose(sig @ sig, -np.eye(2 * n), atol=0)


def test_symplectic_form_is_shared_and_read_only():
    sig = symplectic_form(3)
    assert symplectic_form(3) is sig
    with pytest.raises(ValueError):
        sig[0, 3] = 2.0
    assert sig[0, 3] == 1.0


def test_graph_matrix_is_immutable_and_leaves_inputs_writable():
    x = np.array([[0.1, 0.2], [0.2, 0.3]])
    y = np.array([[2.0, 0.5], [0.5, 1.0]])
    graph = GraphMatrix(x, y)
    for part in (graph.X, graph.Y, graph.Z, graph._y_inv):
        with pytest.raises(ValueError):
            part[0, 0] = 7.0
    # the graph holds its own copies: the caller's arrays stay writable and apart
    x[0, 0] = 7.0
    y[0, 0] = 7.0
    assert graph.X[0, 0] == 0.1 and graph.Y[0, 0] == 2.0
    assert graph.Z is graph.Z
    assert graph._y_inv is graph._y_inv
    assert_allclose(graph._y_inv @ graph.Y, np.eye(2), atol=1e-15)
    # the cached facts stay out of the fields; a replaced graph computes its own
    assert repr(graph) == repr(GraphMatrix(graph.X, graph.Y))
    moved = dataclasses.replace(graph, X=np.zeros((2, 2)))
    assert moved.Z is not graph.Z
    assert moved.Z.tobytes() == (1j * graph.Y).tobytes()


def test_covariance_rejects_unphysical():
    with pytest.raises(InvalidCovarianceError):
        CovarianceMatrix(0.1 * np.eye(2))
    with pytest.raises(InvalidCovarianceError):
        CovarianceMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not symmetric


def test_factor_two_mode_squeezed():
    alpha = 0.7
    g = factor_covariance(states.two_mode_squeezed(alpha))
    c, s = np.cosh(2 * alpha), np.sinh(2 * alpha)
    assert_allclose(g.X, np.zeros((2, 2)), atol=1e-12)
    assert_allclose(g.Y, [[c, -s], [-s, c]], atol=1e-12)


def test_factor_vacuum():
    g = factor_covariance(states.vacuum(3))
    assert_allclose(g.X, np.zeros((3, 3)), atol=0)
    assert_allclose(g.Y, np.eye(3), atol=0)


def test_factor_pair_state():
    g = factor_covariance(pair_cov())
    assert_allclose(g.X, [[1.0, SQRT6_2], [SQRT6_2, 1.0]], atol=1e-12)
    assert_allclose(g.Y, [[SQRT6_2, 1.0], [1.0, SQRT6_2]], atol=1e-12)


def test_factor_rejects_impure():
    with pytest.raises(NotPureStateError):
        factor_covariance(CovarianceMatrix(THERMAL_TMS_V))


@pytest.mark.parametrize("alpha", [4.5, 5.0, 6.0])
def test_factor_strongly_squeezed_pure_state(alpha):
    # |det(V) 4**N - 1| reads 3.8e-9 at alpha = 4.5, above tol = 1e-9, but
    # below the determinant's rounding floor, so the state is pure
    cov = states.two_mode_squeezed(alpha)
    residual, floor = cov.purity_residual()
    assert 1e-9 < residual <= floor
    graph = factor_covariance(cov)
    # the round trip loses about eps ||V|| ||V^-1||, the same rounding floor
    back = graph_to_covariance(graph).V
    assert np.abs(back - cov.V).max() <= floor * np.abs(cov.V).max()


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2.0, 4.5])
def test_slightly_mixed_state_stays_mixed(alpha):
    # (1 + d) V_pure has residual about 4 d; at d = 1e-3 that is far above
    # the floor, which must not absorb it (dividing by ||V||**2 would)
    mixed = CovarianceMatrix(1.001 * states.two_mode_squeezed(alpha).V)
    assert not mixed.is_pure(1e-9)
    with pytest.raises(NotPureStateError) as info:
        factor_covariance(mixed, 1e-9)
    # the message names the floor exactly when the floor set the bound
    assert ("rounding floor" in str(info.value)) == (mixed.purity_residual()[1] > 1e-9)
    assert ("rounding floor" in str(info.value)) == (alpha == 4.5)


def test_pure_states_pass_at_zero_tolerance():
    # tol = 0 asks for purity up to rounding, which computed states meet
    for cov in (states.vacuum(3), states.two_mode_squeezed(0.7), pair_cov(),
                graph_to_covariance(eight_mode_graph())):
        assert cov.is_pure(0.0)
        factor_covariance(cov, 0.0)
    assert not CovarianceMatrix(THERMAL_TMS_V).is_pure(0.0)


def test_graph_to_covariance_vacuum():
    cov = graph_to_covariance(GraphMatrix.vacuum(4))
    assert_allclose(cov.V, 0.5 * np.eye(8), atol=0)


def test_graph_to_covariance_pair_state():
    assert_allclose(graph_to_covariance(pair_graph()).V, pair_cov().V, atol=1e-12)


def test_graph_determinant_identity():
    # det V = 4**(-N) for every graph state
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        cov = graph_to_covariance(random_graph(rng, n))
        assert abs(np.linalg.det(cov.V) * 4.0 ** n - 1.0) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_roundtrip_graph_covariance_graph(n, seed):
    g = random_graph(np.random.default_rng(seed), n)
    back = factor_covariance(graph_to_covariance(g))
    assert np.abs(back.X - g.X).max() < 1e-9 * max(1.0, np.abs(g.X).max())
    assert np.abs(back.Y - g.Y).max() < 1e-9 * max(1.0, np.abs(g.Y).max())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_graph_states_are_pure(n, seed):
    cov = graph_to_covariance(random_graph(np.random.default_rng(seed), n))
    assert cov.is_pure()
    assert abs(purity(cov) - 1.0) < 1e-9


def test_purity_values():
    assert purity(states.vacuum(2)) == pytest.approx(1.0, abs=1e-12)
    assert purity(CovarianceMatrix(10.5 * np.eye(4))) == pytest.approx(1.0 / 441.0, abs=1e-12)
    assert purity(CovarianceMatrix(THERMAL_TMS_V)) == pytest.approx(THERMAL_TMS_PURITY, abs=1e-3)


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert_allclose(symplectic_eigenvalues(states.vacuum(3).V), 0.5 * np.ones(3), atol=1e-12)
    assert_allclose(symplectic_eigenvalues(10.5 * np.eye(4)), [10.5, 10.5], atol=1e-12)


@pytest.mark.parametrize("alpha, rtol", [(6.0, 1e-6), (9.0, 0.1)])
def test_symplectic_eigenvalues_strongly_squeezed(alpha, rtol):
    # eigvals(i Sigma V) rounds at the scale of V's entries (1.6e7 at
    # alpha = 9), not at that of the moduli (0.5), so the pairs are accepted
    nus = symplectic_eigenvalues(states.two_mode_squeezed(alpha).V)
    assert_allclose(nus, [0.5, 0.5], rtol=rtol)


def test_log_negativity_two_mode_squeezed():
    assert log_negativity(states.two_mode_squeezed(0.7)) == pytest.approx(1.4, abs=1e-9)
    for alpha in (-1.0, -0.3, 0.0, 0.5, 1.2):
        value = log_negativity(states.two_mode_squeezed(alpha))
        assert value == pytest.approx(2.0 * abs(alpha), abs=1e-9)


def test_log_negativity_product_and_thermal():
    assert log_negativity(states.vacuum(2)) == 0.0
    assert log_negativity(CovarianceMatrix(THERMAL_TMS_V)) == pytest.approx(
        THERMAL_TMS_NEGATIVITY, abs=1e-3)


def test_log_negativity_rotation_invariant():
    # per-mode phase rotations are local operations
    rng = np.random.default_rng(17)
    cov = states.two_mode_squeezed(0.8)
    reference = log_negativity(cov)
    for _ in range(10):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        c = np.diag([np.cos(t1), np.cos(t2)])
        s = np.diag([np.sin(t1), np.sin(t2)])
        rot = np.block([[c, s], [-s, c]])
        rotated = CovarianceMatrix(rot @ cov.V @ rot.T)
        assert log_negativity(rotated) == pytest.approx(reference, abs=1e-9)


def test_log_negativity_needs_two_modes():
    with pytest.raises(UnsupportedBipartitionError):
        log_negativity(states.vacuum(1))
    with pytest.raises(UnsupportedBipartitionError):
        log_negativity(states.vacuum(3))


def test_reduced_state_vacuum():
    assert_allclose(reduced_state(states.vacuum(4), [0, 1]).V, 0.5 * np.eye(4), atol=0)


def test_reduced_state_eight_mode_groups():
    cov = graph_to_covariance(eight_mode_graph())
    assert_allclose(reduced_state(cov, [0, 1]).V, pair_cov().V, atol=1e-12)
    # modes from different groups are uncorrelated
    cross = reduced_state(cov, [0, 2])
    assert log_negativity(cross) == 0.0
    assert_allclose(cross.V[0, 1], 0.0, atol=1e-12)


def test_reduced_state_errors():
    with pytest.raises(IndexError):
        reduced_state(states.vacuum(2), [0, 5])
    with pytest.raises(ValueError):
        reduced_state(states.vacuum(2), [1, 1])


def _eigvalsh_accepts_covariance(v):
    from gsynth.gaussian import PHYSICALITY_TOL

    n = v.shape[0] // 2
    bound = PHYSICALITY_TOL * max(1.0, np.abs(v).max())
    return np.linalg.eigvalsh(v + 0.5j * symplectic_form(n)).min() >= -bound


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.7, 3.0])
def test_physicality_verdict_matches_eigvalsh(factor, alpha):
    # a pure state's V + i Sigma / 2 is singular; pushing it down by a
    # multiple of the bound, which scales with max|V|, decides the verdict
    from gsynth.gaussian import PHYSICALITY_TOL

    v = states.two_mode_squeezed(alpha).V
    v = v - factor * PHYSICALITY_TOL * max(1.0, np.abs(v).max()) * np.eye(4)
    expected = _eigvalsh_accepts_covariance(v)
    assert expected == (factor < 1.0)
    if expected:
        CovarianceMatrix(v)
    else:
        with pytest.raises(InvalidCovarianceError, match="min eigenvalue -"):
            CovarianceMatrix(v)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_diagonally_dominant_posdef_verdict_matches_eigvalsh(factor):
    # a block-structured state's Y is diagonally dominant, and its Gershgorin
    # discs decide without a factorization when they clear POSDEF_TOL
    from gsynth.gaussian import POSDEF_TOL

    b = 1.0 - factor * POSDEF_TOL
    y = np.array([[1.0, b, 0.0], [b, 1.0, 0.0], [0.0, 0.0, 3.0]])
    expected = np.linalg.eigvalsh(y).min() > POSDEF_TOL
    assert expected == (factor > 1.0)
    if expected:
        GraphMatrix(np.zeros((3, 3)), y)
    else:
        with pytest.raises(ValueError, match="positive definite"):
            GraphMatrix(np.zeros((3, 3)), y)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_graph_posdef_verdict_matches_eigvalsh(factor):
    from gsynth.gaussian import POSDEF_TOL

    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    y = q @ np.diag([2.0, 1.0, factor * POSDEF_TOL]) @ q.T
    y = 0.5 * (y + y.T)
    expected = np.linalg.eigvalsh(y).min() > POSDEF_TOL
    assert expected == (factor > 1.0)
    if expected:
        GraphMatrix(np.zeros((3, 3)), y)
    else:
        with pytest.raises(ValueError, match="positive definite"):
            GraphMatrix(np.zeros((3, 3)), y)
