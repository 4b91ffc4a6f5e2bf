"""Tests for the dense linear-algebra substrate and the tolerance policy."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    decompose,
    expm,
    factor_covariance,
    graph_to_covariance,
    is_hurwitz,
    phi_membership,
    rank_tol,
    solve_lyapunov,
    spectral_abscissa,
    synthesize,
    verify_constraints,
)
from gsynth.dynamics import build_moment_system, verify_generation
from gsynth.noise import augment
from gsynth.fileio import load_state_file
from gsynth.numerics import symmetrized, threshold
from conftest import cluster_parts, random_feasible_graph, standard_baths, tms_graph


def test_eig_two_mode_squeezed_block():
    # diag(1,-1) times the two-mode-squeezed graph matrix has spectrum {i, -i}
    z = tms_graph(0.7).Z
    w = np.linalg.eigvals(np.diag([1.0, -1.0]) @ z)
    assert_allclose(sorted(w, key=lambda v: v.imag), [-1j, 1j], atol=1e-12)


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


def test_solve_lyapunov_rejects_non_finite_drift():
    # a NaN or infinite drift is refused before any solve, with numpy's error
    for bad in (np.nan, np.inf, -np.inf):
        a = -np.eye(3)
        a[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
            solve_lyapunov(a, np.eye(3))


def test_solve_lyapunov_takes_one_spectrum(monkeypatch):
    # the Hurwitz verdict is read off the one eig the eigenbasis solve
    # takes: no eigvals, is_hurwitz or spectral_abscissa, and no scipy
    import gsynth.numerics

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_lyapunov must not take a second spectrum")

    for name in ("is_hurwitz", "spectral_abscissa"):
        monkeypatch.setattr(gsynth.numerics, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
    calls = []
    real_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or real_eig(a))
    # odd order, so not the per-mode closed form
    v = solve_lyapunov(-np.eye(3), np.eye(3))
    assert_allclose(v, 0.5 * np.eye(3), atol=1e-14)
    assert len(calls) == 1
    with pytest.raises(NotHurwitzError, match="not Hurwitz"):
        solve_lyapunov(np.zeros((3, 3)), np.eye(3))
    assert len(calls) == 2


def _hurwitz_guard_passes(a) -> bool:
    try:
        solve_lyapunov(a, np.eye(a.shape[0]))
    except NotHurwitzError as exc:
        # the residual check may still refuse a barely stable drift
        return "not Hurwitz" not in str(exc)
    return True


def test_solve_lyapunov_hurwitz_guard_matches_is_hurwitz():
    from gsynth.numerics import HURWITZ_TOL

    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    drifts = [np.zeros((2, 2)), rotation]
    rng = np.random.default_rng(71)
    for _ in range(5):
        # a complex pair and a real eigenvalue in a random orthogonal basis,
        # one of them with real part just inside or just outside the guard
        omega = rng.normal()
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for edge in (-HURWITZ_TOL * 0.9, -HURWITZ_TOL * 1.1):
            for pair, single in ((edge, -1.0), (-1.0, edge)):
                block = np.array([[pair, omega, 0.0], [-omega, pair, 0.0], [0.0, 0.0, single]])
                drifts.append(basis @ block @ basis.T)
    verdicts = [is_hurwitz(a) for a in drifts]
    assert verdicts.count(True) and verdicts.count(False)
    for a, verdict in zip(drifts, verdicts):
        assert _hurwitz_guard_passes(a) == verdict


def _fallback_only(monkeypatch):
    """Refuse every closed-form and eigenbasis answer, so each solve runs scipy's."""
    import gsynth.numerics

    monkeypatch.setattr(gsynth.numerics, "_accepted", lambda a, v, d: None)


def test_solve_lyapunov_trsyl_info(monkeypatch):
    # scipy warns when ?trsyl perturbs a near-zero eigenvalue sum (info 1);
    # solve_lyapunov stays silent and its residual check decides
    a, d = np.array([[-3e-12, 1e5], [0.0, -1.0]]), np.eye(2)
    with pytest.warns(RuntimeWarning, match="eigenvalue pair"):
        expected = _scipy_lyapunov(a, d)
    _fallback_only(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # relative residual 3e-16: kept
        assert np.array_equal(solve_lyapunov(a, d), expected)

        def perturbed(a, q):
            warnings.warn('Input "a" has an eigenvalue pair whose sum is very close to '
                          'or exactly zero.', RuntimeWarning)
            return 0.6 * np.eye(2)

        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", perturbed)
        with pytest.raises(NotHurwitzError, match="ill-conditioned"):
            solve_lyapunov(-np.eye(2), np.eye(2))


def test_solve_lyapunov_matches_scipy_bitwise(monkeypatch):
    # the fallback returns scipy's bits, symmetrized
    _fallback_only(monkeypatch)
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n))
        a -= (spectral_abscissa(a) + 0.3) * np.eye(n)
        b = rng.normal(size=(n, n))
        d = b @ b.T
        v = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.array_equal(solve_lyapunov(a, d), 0.5 * (v + v.T))


def _scipy_lyapunov(a, d):
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return 0.5 * (v + v.T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), thermal=st.booleans())
def test_solve_lyapunov_matches_scipy_on_designs(seed, thermal):
    # designs of random feasible graphs, and the same designs with a thermal
    # bath on every mode: the eigenbasis answer within rounding of scipy's
    rng = np.random.default_rng(seed)
    real = synthesize(random_feasible_graph(rng, max_pairs=8))
    if thermal:
        system = augment(real, standard_baths(real.graph.n_modes))
    else:
        system = build_moment_system(real.G, real.C)
    v = solve_lyapunov(system.A, system.D)
    expected = _scipy_lyapunov(system.A, system.D)
    assert np.array_equal(v, v.T)
    assert np.abs(v - expected).max() <= 1e-11 * np.abs(expected).max()


def test_failing_candidate_basis_takes_the_full_route():
    # a candidate eigenbasis is only a guess: one that does not solve the
    # assembled equation, or one whose eigenvalues are not Hurwitz, leaves
    # the answer and every "not Hurwitz" verdict to the drift's own routes
    from gsynth.numerics import _solve_lyapunov, eigenbasis

    rng = np.random.default_rng(5)
    real = synthesize(random_feasible_graph(rng, max_pairs=6))
    system = augment(real, standard_baths(real.graph.n_modes))
    a, d = system.A, system.D
    w, s, s_inv = eigenbasis(a)
    expected = solve_lyapunov(a, d)
    # the right eigenvectors with eigenvalues off by 1e-3, and the right
    # eigenvectors with eigenvalues that are not Hurwitz
    for candidate in ((w - 1e-3, s, s_inv), (w.conj() * -1.0, s, s_inv)):
        assert np.array_equal(_solve_lyapunov(a, d, candidate)[0], expected)
    # the drift's own basis is route 3's, bit for bit
    assert np.array_equal(_solve_lyapunov(a, d, (w, s, s_inv))[0], expected)
    # a Hurwitz candidate cannot make an unstable drift solvable
    unstable = a + 2.0 * max(0.0, -float(w.real.min())) * np.eye(len(a))
    with pytest.raises(NotHurwitzError, match="not Hurwitz"):
        _solve_lyapunov(unstable, d, (w, s, s_inv))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_solve_lyapunov_falls_back_near_defective(monkeypatch, n):
    # a Jordan block with its corner perturbed by 10**-k has an eigenbasis of
    # condition about 10**(k (n-1) / n); past the modal residual bound the
    # fallback runs and returns scipy's bits
    calls = []
    scipy_solve = scipy.linalg.solve_continuous_lyapunov
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov",
                        lambda a, q: calls.append(1) or scipy_solve(a, q))
    d = np.eye(n)
    for k in range(2, 15, 2):
        a = -np.eye(n) + np.diag(np.ones(n - 1), 1)
        a[-1, 0] = 10.0 ** -k
        before = len(calls)
        v = solve_lyapunov(a, d)
        expected = scipy_solve(a, -d)
        expected = 0.5 * (expected + expected.T)
        if len(calls) > before:
            assert np.array_equal(v, expected)
        else:
            assert np.abs(v - expected).max() <= 1e-11 * np.abs(expected).max()
    # from k = 4 on the eigenbasis is too ill-conditioned for the bound; a
    # 2 x 2 drift is one mode's block, which the closed form solves
    assert len(calls) == (0 if n == 2 else 6)


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


def _expm_rel_error(actual, reference) -> float:
    # exp(-1000) underflows to exactly 0 in both, which is agreement, not 0/0
    error = float(np.abs(actual - reference).sum(axis=0).max())
    scale = float(np.abs(reference).sum(axis=0).max())
    if scale == 0.0:
        return 0.0 if error == 0.0 else float("inf")
    return error / scale


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 128), log_norm=st.floats(-3.0, 3.0),
       kind=st.sampled_from(["real", "skew", "complex"]), seed=st.integers(0, 2 ** 32 - 1))
def test_expm_matches_scipy(n, log_norm, kind, seed):
    # scipy's expm is the oracle, at 1e-13 relative (1-norm) for a unit
    # 1-norm; above it the bound grows with ||a||, the least relative
    # condition number of the exponential, for a 1-ulp change in ``a`` moves
    # exp(a) by that many ulps. Where scipy and expm still differ more, a
    # 40-digit exponential decides, and expm must be the closer one or within
    # the bound of it: scipy's own error reaches 1.6e-12 on some 2 x 2 cases.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if kind == "skew":
        a = a - a.T
    elif kind == "complex":
        a = a + 1j * rng.normal(size=(n, n))
    norm = np.abs(a).sum(axis=0).max()
    assume(norm > 0)
    a *= 10.0 ** log_norm / norm
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = scipy.linalg.expm(a)
        actual = expm(a)
    assume(np.isfinite(expected).all() and np.abs(expected).max() < 1e300)
    bound = 1e-13 * max(1.0, 10.0 ** log_norm)
    error = _expm_rel_error(actual, expected)
    if error > bound:
        assert n <= 16, f"expm differs from scipy by {error:.2e} at n = {n}"
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
        assert _expm_rel_error(actual, exact) <= max(bound, _expm_rel_error(expected, exact))


def test_expm_picks_pade_degree_by_norm(monkeypatch):
    # Higham's theta table: degrees 3, 5, 7, 9 unscaled, then 13 with 2**s scaling
    import gsynth.numerics

    seen = []
    pade = gsynth.numerics._pade
    monkeypatch.setattr(gsynth.numerics, "_pade", lambda a, m: seen.append(m) or pade(a, m))
    rng = np.random.default_rng(41)
    a = rng.normal(size=(6, 6))
    a /= np.abs(a).sum(axis=0).max()
    for norm, degree in ((1e-2, 3), (0.2, 5), (0.9, 7), (2.0, 9), (5.0, 13), (40.0, 13)):
        expm(a, norm)
        assert seen[-1] == degree
    squarings = []
    monkeypatch.setattr(gsynth.numerics, "_pade", lambda a, m: squarings.append(
        np.abs(a).sum(axis=0).max()) or pade(a, m))
    expm(a, 40.0)
    # 40 / 2**3 = 5 is within theta_13 = 5.37
    assert squarings == [pytest.approx(5.0)]


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
        w = np.linalg.eigvals(a)
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


def _graph_file_rejected(z, tmp_path) -> bool:
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
    "load_state_file graph": lambda res, tmp_path: _graph_file_rejected(
        _bump((1.0 + 1.0j) * SCALE * np.eye(2), (0, 1), res), tmp_path),
    # X and Y each skewed by the residual at their own scale SCALE: the skew
    # of Z is sqrt(2) times the residual, at about the same scale max|Z|
    "load_state_file graph, X and Y skewed": lambda res, tmp_path: _graph_file_rejected(
        _bump(np.diag([SCALE + 1.0j, SCALE * 1.0j]), (0, 1), (1.0 + 1.0j) * res), tmp_path),
    "phi_membership diagonal": lambda res, _: not phi_membership(
        _bump(_phi_block(), (1, 1), res)),
    # the family identity is quadratic in Z, so its threshold is at SCALE**2
    "phi_membership family": lambda res, _: not phi_membership(_phi_block(res * SCALE)),
    "verify_constraints passive_diagonal": lambda res, _: not verify_constraints(
        _design(G=_bump(np.kron(np.eye(2), np.diag([SCALE, -SCALE])), (2, 2), res))
    ).passive_diagonal,
}


@pytest.mark.parametrize("factor, rejected", [(0.5, False), (0.9, False), (2.0, True)])
@pytest.mark.parametrize("entry", sorted(POLICY_EDGES))
def test_tolerance_policy_edge(tmp_path, entry, factor, rejected):
    # a residual below the threshold is zero, twice the threshold is not
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


def test_symmetrized_exact_input_is_copied_bit_for_bit():
    # an exactly symmetric matrix passes without the scaled test and comes back
    # as a copy with the bits of (m + m.T) / 2; a -0.0 facing a 0.0 is not exact
    m = np.array([[1.0, 0.1 + 0.2], [0.1 + 0.2, -3e-300]])
    s = symmetrized(m, "m", tol=np.nan)
    assert s.tobytes() == (0.5 * (m + m.T)).tobytes()
    assert not np.shares_memory(s, m) and m.flags.writeable
    signed = np.array([[1.0, -0.0], [0.0, 1.0]])
    assert symmetrized(signed, "m").tobytes() == (0.5 * (signed + signed.T)).tobytes()
    assert np.signbit(symmetrized(signed, "m")).sum() == 0


def test_nan_tolerance_is_refused_everywhere():
    # threshold keeps tol as given above its floor, and max(nan, floor) is nan, which
    # no residual exceeds: a dense 3-mode graph read feasible under a NaN tolerance
    dense = GraphMatrix(np.ones((3, 3)), np.eye(3) + 0.5 * np.ones((3, 3)))
    assert not decompose(dense).feasible
    with pytest.raises(ValueError, match="tol must not be NaN"):
        threshold(1.0, np.nan)
    with pytest.raises(ValueError, match="tol must not be NaN"):
        threshold(np.ones(2), float("nan"))
    graph = tms_graph(0.7)
    real = synthesize(graph)
    target = graph_to_covariance(graph)
    for call in (lambda: decompose(dense, float("nan")),
                 lambda: decompose(graph, float("nan")),
                 lambda: synthesize(graph, float("nan")),
                 lambda: factor_covariance(target, float("nan")),
                 lambda: verify_constraints(real, float("nan")),
                 lambda: verify_generation(real, target, tol=float("nan")),
                 lambda: verify_generation(real, target, constraint_tol=float("nan"))):
        with pytest.raises(ValueError, match="tol must not be NaN"):
            call()
    # the refusals cached nothing: the default tolerance still classifies
    assert decompose(graph).feasible
