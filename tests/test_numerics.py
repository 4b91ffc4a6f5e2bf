"""Tests for the dense linear-algebra substrate and the tolerance policy."""

import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gsynth import (
    CovarianceMatrix,
    DimensionError,
    GraphMatrix,
    InvalidCovarianceError,
    MatrixFileError,
    NotHurwitzError,
    Permutation,
    Realization,
    eig,
    expm,
    is_hurwitz,
    phi_membership,
    rank_tol,
    solve_lyapunov,
    spectral_abscissa,
    verify_constraints,
)
from gsynth.dynamics import build_moment_system
from gsynth.fileio import load_state_file
from gsynth.numerics import symmetrized, threshold
from conftest import cluster_parts, tms_graph


def test_eig_diagonal():
    w, _ = eig(np.diag([1j, -1j]))
    assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-14)


def test_eig_two_mode_squeezed_block():
    # diag(1,-1) times the two-mode-squeezed graph matrix has spectrum {i, -i}
    z = tms_graph(0.7).Z
    w, _ = eig(np.diag([1.0, -1.0]) @ z)
    assert_allclose(sorted(w, key=lambda v: v.imag), [-1j, 1j], atol=1e-12)


def test_eig_companion():
    companion = np.array([[0.0, -1.0], [1.0, 0.0]])  # s^2 + 1
    w, _ = eig(companion)
    assert_allclose(sorted(w, key=lambda v: v.imag), [-1j, 1j], atol=1e-14)


def test_eig_residual_and_norms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        w, v = eig(a)
        assert_allclose(np.linalg.norm(v, axis=0), np.ones(6), atol=1e-12)
        for k in range(6):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * np.linalg.norm(a)


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionError):
        eig(np.zeros((2, 3)))


def test_rank_tol_trivial():
    assert rank_tol(np.zeros((3, 3)), 1e-9) == 0
    assert rank_tol(np.eye(4), 1e-9) == 4


def test_rank_tol_cluster_controllability():
    # two-channel design of the path cluster state: full rank with N=3
    parts = cluster_parts(0.5)
    q = -1j * parts.R @ parts.graph.Y + np.linalg.inv(parts.graph.Y) @ parts.Gamma
    ctrb = np.hstack([parts.P, q @ parts.P, q @ q @ parts.P])
    assert rank_tol(ctrb, 1e-9) == 3


def test_rank_tol_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.normal(size=(5, 5)) @ np.diag([1.0, 1.0, 1e-3, 0.0, 0.0]) @ rng.normal(size=(5, 5))
        rows = rng.permutation(5)
        cols = rng.permutation(5)
        assert rank_tol(m, 1e-9) == rank_tol(m[np.ix_(rows, cols)], 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_rank_tol_rejects_non_finite(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        rank_tol(m)


def test_rank_tol_matches_scipy_svdvals():
    # oracle: the same count over scipy's singular values, on matrices with
    # singular values placed at 1/2 and 2 times the threshold
    rng = np.random.default_rng(23)

    def unitary(n):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q

    for _ in range(150):
        rows = int(rng.integers(1, 33))
        cols = rows + int(rng.integers(0, 3))
        scale = 10.0 ** rng.uniform(-3, 3)
        tol = float(rng.choice([1e-9, 1e-6]))
        cut = threshold(scale, tol)
        s = scale * rng.uniform(1e-3, 1.0, size=rows)
        s[0] = scale
        s[rng.random(rows) < 0.3] = 0.0
        s[rng.random(rows) < 0.2] = 0.5 * cut
        s[rng.random(rows) < 0.2] = 2.0 * cut
        m = unitary(rows) @ np.diag(s).astype(complex) @ unitary(cols)[:rows]
        oracle = scipy.linalg.svdvals(m)
        for t in (tol, 1e-3):
            expected = int(np.count_nonzero(oracle > threshold(float(oracle[0]), t)))
            assert rank_tol(m, t) == expected


def test_rank_tol_rejects_negative_tol():
    with pytest.raises(ValueError):
        rank_tol(np.eye(2), -1.0)


def test_solve_lyapunov_scalar_balance():
    v = solve_lyapunov(-np.eye(2), np.eye(2))
    assert_allclose(v, 0.5 * np.eye(2), atol=1e-14)


def test_solve_lyapunov_matches_kronecker():
    # independent oracle: the Kronecker vectorization
    # (I kron a + a kron I) vec(v) = -vec(d) as one dense solve
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a -= (spectral_abscissa(a) + 0.5) * np.eye(n)
        b = rng.normal(size=(n, n))
        d = b @ b.T
        v = solve_lyapunov(a, d)
        assert_allclose(v, v.T, atol=1e-13)
        coeff = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
        expected = np.linalg.solve(coeff, -d.reshape(-1, order="F")).reshape((n, n), order="F")
        assert_allclose(v, expected, atol=1e-9)
        residual = np.linalg.norm(a @ v + v @ a.T + d)
        assert residual <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d))


def test_solve_lyapunov_thermal_baseline():
    # four thermal rows only (gamma=0.01, nbar=10) against the passive Hamiltonian
    from conftest import standard_baths, tms_realization
    from gsynth.noise import channel_row

    rows = np.vstack([channel_row(ch, 2) for ch in standard_baths()])
    system = build_moment_system(tms_realization(0.7).G, rows)
    v = solve_lyapunov(system.A, system.D)
    assert_allclose(v, 10.5 * np.eye(4), atol=1e-12)


def test_solve_lyapunov_requires_hurwitz():
    with pytest.raises(NotHurwitzError):
        solve_lyapunov(np.zeros((2, 2)), np.eye(2))


def test_solve_lyapunov_rejects_shapes():
    with pytest.raises(DimensionError):
        solve_lyapunov(-np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_trivial():
    assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    assert_allclose(expm(np.diag([-1.0, -2.0]), 1.0),
                    np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-13)


def test_expm_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        assert_allclose(expm(a, 1.0) @ expm(a, -1.0), np.eye(4), atol=1e-10)


def test_expm_against_eigendecomposition():
    # independent route: diagonalize a symmetric matrix and exponentiate directly
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    w, q = np.linalg.eigh(a)
    for t in (0.3, 1.0, 2.5):
        assert_allclose(expm(a, t), q @ np.diag(np.exp(w * t)) @ q.T, rtol=1e-11, atol=1e-11)


def test_involution_spectrum_and_diagonalizability():
    # matrices with a^2 = eps*I have spectrum in {+-sqrt(eps)} and full
    # geometric multiplicity
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        eps = float(rng.uniform(0.5, 4.0))
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = s @ np.diag(signs * np.sqrt(eps)) @ np.linalg.inv(s)
        assert np.abs(a @ a - eps * np.eye(n)).max() < 1e-8
        w, _ = eig(a)
        assert np.all(np.minimum(np.abs(w - np.sqrt(eps)), np.abs(w + np.sqrt(eps))) < 1e-7)
        geo = 0
        for lam in (np.sqrt(eps), -np.sqrt(eps)):
            if np.any(np.abs(w - lam) < 1e-7):
                geo += n - rank_tol(a - lam * np.eye(n), 1e-7)
        assert geo == n


def test_hurwitz_predicate():
    assert is_hurwitz(-np.eye(3))
    assert not is_hurwitz(np.zeros((2, 2)))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # marginal rotation


def test_permutation_roundtrip():
    perm = Permutation((2, 0, 1))
    p = perm.matrix
    assert_allclose(p @ p.T, np.eye(3), atol=0)
    m = np.arange(9.0).reshape(3, 3)
    assert_allclose(perm.conjugate(m), p @ m @ p.T, atol=0)
    assert perm.inverse().image == (1, 2, 0)
    assert_allclose(perm.inverse().conjugate(perm.conjugate(m)), m, atol=0)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


# --- the tolerance policy at its edge ---

SCALE = 1e3
EDGE = 1e-9 * SCALE  # threshold(SCALE) at the default tolerance


def _bump(m, index, residual):
    m = np.array(m)
    m[index] += residual
    return m


def _rejects(error, build, *args, **kwargs) -> bool:
    try:
        build(*args, **kwargs)
    except error:
        return True
    return False


def _design(**parts) -> Realization:
    """A 2-mode design of scale SCALE; ``parts`` replace its matrices."""
    r = np.diag([SCALE, -SCALE])
    base = dict(R=r, Gamma=np.zeros((2, 2)), P=np.ones(2), G=np.kron(np.eye(2), r),
                C=np.ones((1, 4)), graph=GraphMatrix.vacuum(2))
    return Realization(**{**base, **parts})


def _graph_file_rejected(residual, tmp_path) -> bool:
    z = _bump((1.0 + 1.0j) * SCALE * np.eye(2), (0, 1), residual)
    path = tmp_path / "graph.json"
    data = [[[v.real, v.imag] for v in row] for row in z]
    path.write_text(json.dumps({"kind": "graph", "modes": 2, "data": data}))
    return _rejects(MatrixFileError, load_state_file, path)


def _phi_block(family_residual=0.0):
    """Coupled pair with ``Z11 = SCALE i`` and ``Z12**2 - Z11**2 - 1 = family_residual``."""
    z11 = SCALE * 1j
    z12 = np.sqrt(z11 ** 2 + 1.0 + family_residual)
    return np.array([[z11, z12], [z12, z11]])


# Each entry point fed a residual at scale SCALE; True when it rejects the input.
POLICY_EDGES = {
    "CovarianceMatrix symmetry": lambda res, _: _rejects(
        InvalidCovarianceError, CovarianceMatrix, _bump(SCALE * np.eye(4), (0, 1), res)),
    "GraphMatrix symmetry": lambda res, _: _rejects(
        ValueError, GraphMatrix, _bump(SCALE * np.eye(2), (0, 1), res), np.eye(2)),
    "Realization R diagonal": lambda res, _: _rejects(
        ValueError, _design, R=_bump(np.diag([SCALE, -SCALE]), (0, 1), res)),
    "Realization Gamma antisymmetric": lambda res, _: _rejects(
        ValueError, _design, Gamma=_bump([[0.0, SCALE], [-SCALE, 0.0]], (0, 0), res / 2)),
    "Realization G symmetric": lambda res, _: _rejects(
        ValueError, _design, G=_bump(SCALE * np.eye(4), (0, 1), res)),
    "solve_lyapunov noise matrix": lambda res, _: _rejects(
        ValueError, solve_lyapunov, -np.eye(4), _bump(SCALE * np.eye(4), (0, 1), res)),
    "load_state_file graph": _graph_file_rejected,
    "phi_membership diagonal": lambda res, _: not phi_membership(
        _bump(_phi_block(), (1, 1), res)),
    # the family identity is quadratic in Z, so its threshold is at SCALE**2
    "phi_membership family": lambda res, _: not phi_membership(_phi_block(res * SCALE)),
    "verify_constraints passive_diagonal": lambda res, _: not verify_constraints(
        _design(G=_bump(np.kron(np.eye(2), np.diag([SCALE, -SCALE])), (2, 2), res))
    ).passive_diagonal,
}


@pytest.mark.parametrize("factor, rejected", [(0.5, False), (2.0, True)])
@pytest.mark.parametrize("entry", sorted(POLICY_EDGES))
def test_tolerance_policy_edge(tmp_path, entry, factor, rejected):
    # a residual of half the threshold is zero, twice the threshold is not
    assert threshold(SCALE) == EDGE
    assert POLICY_EDGES[entry](factor * EDGE, tmp_path) == rejected


def test_solve_lyapunov_symmetrizes_noise_matrix():
    # an asymmetry the symmetry check accepts must not fail the residual check
    d = _bump(SCALE * np.eye(2), (0, 1), 0.5 * EDGE)
    v = solve_lyapunov(-np.eye(2), d)
    assert np.array_equal(v, solve_lyapunov(-np.eye(2), 0.5 * (d + d.T)))


def test_threshold_floor_and_symmetrized():
    assert threshold(0.0) == threshold(1.0) == 1e-9
    assert threshold(2.0, tol=1e-3) == 2e-3
    m = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    s = symmetrized(m, "m")
    assert np.array_equal(s, s.T) and np.abs(s - m).max() <= 1e-12
    with pytest.raises(ValueError, match="^m must be symmetric$"):
        symmetrized(m, "m", tol=1e-14)
