"""Tests for moment dynamics, steady states and transient evolution."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gsynth import (
    BlockClass,
    CovarianceMatrix,
    DimensionError,
    GraphMatrix,
    GsynthError,
    NotHurwitzError,
    Permutation,
    assemble_graph,
    augment,
    build_moment_system,
    evolve,
    factor_covariance,
    graph_to_covariance,
    is_hurwitz,
    purity,
    states,
    steady_state,
    symplectic_form,
    synthesize,
    verify_generation,
)
from gsynth.numerics import spectral_abscissa
from gsynth.structure import LAMBDA, XI_PHI
from conftest import (cluster_parts, evolve_per_gap, pair_realization, random_lambda_scalar,
                      random_phi_block, standard_baths, tms_graph, tms_realization)
from gsynth.synthesis import assemble_realization


def test_build_moment_system_trivial():
    ms = build_moment_system(np.zeros((4, 4)), np.zeros((1, 4), dtype=complex))
    assert_allclose(ms.A, np.zeros((4, 4)), atol=0)
    assert_allclose(ms.D, np.zeros((4, 4)), atol=0)


def test_build_moment_system_two_mode_squeezed_is_stable():
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    assert is_hurwitz(ms.A)
    assert spectral_abscissa(ms.A) < 0


def test_build_moment_system_realness_and_psd():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g = rng.normal(size=(2 * n, 2 * n))
        g = 0.5 * (g + g.T)
        c = rng.normal(size=(2, 2 * n)) + 1j * rng.normal(size=(2, 2 * n))
        ms = build_moment_system(g, c)
        assert ms.A.dtype.kind == "f"
        assert np.linalg.eigvalsh(ms.D).min() >= -1e-10


def test_build_moment_system_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        build_moment_system(np.zeros((4, 4)), np.zeros((1, 6), dtype=complex))
    with pytest.raises(DimensionError):
        build_moment_system(np.zeros((3, 3)), np.zeros((1, 3), dtype=complex))


def test_hurwitz_predicate_on_designs():
    assert is_hurwitz(-np.eye(4))
    assert not is_hurwitz(np.zeros((4, 4)))
    real = synthesize(tms_graph(0.3))
    assert is_hurwitz(build_moment_system(real.G, real.C).A)


def test_design_drift_is_decomposed_once(monkeypatch):
    # with no extra rows the design's kept basis is its drift's own eig: a
    # drift that is not Hurwitz is refused on it, and a failed eigenbasis
    # answer goes straight to scipy, with no second eig of the same matrix
    import gsynth.numerics

    z = np.zeros((3, 3), dtype=complex)
    z[:2, :2] = factor_covariance(states.two_mode_squeezed(0.7)).Z
    z[2, 2] = 1e10j
    graph = GraphMatrix(z.real, z.imag)
    unstable = synthesize(graph)
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: shapes.append(m.shape) or eig(m))
    report = verify_generation(unstable, graph_to_covariance(graph))
    # the 6 x 6 drift, once; the rank test takes a Hermitian eigh, not eig
    assert shapes == [(6, 6)]
    assert not report.hurwitz
    assert not is_hurwitz(build_moment_system(unstable.G, unstable.C).A)

    real = tms_realization(0.7)
    shapes.clear()
    monkeypatch.setattr(gsynth.numerics, "_modal_lyapunov", lambda *args: None)
    report = verify_generation(real, states.two_mode_squeezed(0.7))
    assert shapes == [(4, 4)]
    assert report.generates_target
    assert report.max_error < 1e-10


def test_steady_state_two_mode_squeezed():
    real = tms_realization(0.7)
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - states.two_mode_squeezed(0.7).V).max() < 1e-10


def test_steady_state_pair_design():
    from conftest import pair_cov

    real = pair_realization()
    v = steady_state(build_moment_system(real.G, real.C))
    assert np.abs(v.V - pair_cov().V).max() < 1e-10


def test_steady_state_thermal_only():
    from conftest import standard_baths
    from gsynth.noise import channel_row

    rows = np.vstack([channel_row(ch, 2) for ch in standard_baths()])
    ms = build_moment_system(tms_realization(0.7).G, rows)
    v = steady_state(ms)
    assert np.abs(v.V - 10.5 * np.eye(4)).max() < 1e-10


def test_steady_state_requires_stability():
    ms = build_moment_system(np.diag([1.0, 1.0]), np.zeros((1, 2), dtype=complex))
    with pytest.raises(NotHurwitzError):
        steady_state(ms)


def test_diffusion_is_real_half_of_b_b_dagger():
    # D = Sigma Re(C^dag C) Sigma.T is real by construction; the reference is
    # the textbook (1/2) B B^dag with B = i Sigma [-C^dag  C.T]
    rng = np.random.default_rng(105)
    eps = np.finfo(float).eps
    for _ in range(200):
        n = int(rng.integers(1, 33))
        rows = int(rng.integers(1, 4))
        phases = np.exp(2j * np.pi * rng.random((rows, 2 * n)))
        c = 10.0 ** rng.uniform(-3, 3, size=(rows, 2 * n)) * phases
        ms = build_moment_system(np.zeros((2 * n, 2 * n)), c)
        sig = symplectic_form(n)
        b = 1j * sig @ np.hstack([-c.conj().T, c.T])
        expected = 0.5 * (b @ b.conj().T).real
        assert ms.D.dtype.kind == "f"
        assert np.abs(ms.D - expected).max() <= 8 * eps * np.abs(expected).max()


def test_evolve_fixed_point_is_constant():
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    v_inf = steady_state(ms)
    traj = evolve(ms, v_inf, np.linspace(0.0, 5.0, 11))
    for v in traj.covariances:
        assert np.abs(v - v_inf.V).max() < 1e-10


def test_evolve_vacuum_converges():
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    v_inf = steady_state(ms)
    traj = evolve(ms, states.vacuum(2), [0.0, 10.0, 40.0, 60.0])
    assert np.abs(traj.covariances[-2] - v_inf.V).max() <= 1e-6
    assert np.abs(traj.covariances[-1] - v_inf.V).max() <= 1e-6


def test_evolve_mean_decays():
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    mean0 = np.array([1.0, -2.0, 0.5, 0.25])
    traj = evolve(ms, states.vacuum(2), [0.0, 60.0], mean0=mean0)
    assert_allclose(traj.means[0], mean0, atol=1e-12)
    assert np.abs(traj.means[-1]).max() < 1e-9


def test_evolve_matches_fixed_point_form():
    # independent oracle: V(t) = e^{At} (V0 - Vinf) e^{A.T t} + Vinf from scipy
    rng = np.random.default_rng(43)
    tested = 0
    while tested < 3:
        n = 2
        g = rng.normal(size=(2 * n, 2 * n))
        g = 0.5 * (g + g.T)
        c = rng.normal(size=(2, 2 * n)) + 1j * rng.normal(size=(2, 2 * n))
        ms = build_moment_system(g, c)
        if not is_hurwitz(ms.A):
            continue
        tested += 1
        v0 = states.vacuum(n)
        v_inf = scipy.linalg.solve_continuous_lyapunov(ms.A, -ms.D)
        times = [0.0, 0.4, 1.0, 7.5]
        traj = evolve(ms, v0, times)
        for t, v in zip(times, traj.covariances):
            e = scipy.linalg.expm(ms.A * t)
            expected = e @ (v0.V - v_inf) @ e.T + v_inf
            assert np.abs(v - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


def test_evolve_trajectory_stays_physical():
    real = tms_realization(1.0)
    ms = build_moment_system(real.G, real.C)
    traj = evolve(ms, states.vacuum(2), np.linspace(0.0, 8.0, 17))
    sig = symplectic_form(2)
    for v in traj.covariances:
        assert np.linalg.eigvalsh(v + 0.5j * sig).min() > -1e-8
        assert np.abs(v - v.T).max() == 0.0


def test_evolve_exact_when_unstable():
    # no steady state: raising only gives A = D = I/2, so V(t) = (e^t - 1/2) I
    c = np.array([[1.0, -1j]]) / np.sqrt(2.0)
    ms = build_moment_system(np.zeros((2, 2)), c)
    assert_allclose(ms.A, 0.5 * np.eye(2), atol=1e-15)
    assert_allclose(ms.D, 0.5 * np.eye(2), atol=1e-15)
    with pytest.raises(NotHurwitzError):
        steady_state(ms)
    for times in ([0.0, 1.0, 2.0, 6.0], np.linspace(0.0, 6.0, 121)):
        traj = evolve(ms, states.vacuum(1), times)
        for t, v in zip(times, traj.covariances):
            assert_allclose(v, (np.exp(t) - 0.5) * np.eye(2), rtol=1e-12, atol=1e-15)


def test_evolve_one_long_step_reaches_steady_state():
    # a single 1e4 step overflows unless the block exponential is scaled
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    traj = evolve(ms, states.vacuum(2), [0.0, 1e4])
    assert np.all(np.isfinite(traj.covariances))
    assert np.all(np.isfinite(traj.means))
    assert np.abs(traj.covariances[-1] - steady_state(ms).V).max() <= 1e-10


def test_evolve_validates_times():
    ms = build_moment_system(np.zeros((2, 2)), np.zeros((1, 2), dtype=complex))
    with pytest.raises(ValueError):
        evolve(ms, states.vacuum(1), [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(ms, states.vacuum(1), [-1.0, 0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve(ms, states.vacuum(1), [0.0, bad])


def _systems(n, rng):
    """Designed, thermal, dissipator-off and unstable systems of one random n-mode design.

    The unstable one keeps the design's ``G`` under raising rows alone, so
    every mode grows like ``exp(gamma nbar t / 2)``.
    """
    from gsynth.noise import RAISING, NoiseChannel, _channel_rows

    blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)]
    if n % 2:
        blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
    graph = assemble_graph(blocks, Permutation(tuple(int(k) for k in rng.permutation(n))))
    real = synthesize(graph)
    vacuum = states.vacuum(n)
    raising = _channel_rows([NoiseChannel(mode=j, gamma=0.2, nbar=1.0, kind=RAISING)
                             for j in range(n)], n)
    return [(build_moment_system(real.G, real.C), vacuum),
            (augment(real, standard_baths(n)), vacuum),
            (build_moment_system(real.G, np.zeros((1, 2 * n))), graph_to_covariance(graph)),
            (build_moment_system(real.G, raising), vacuum)]


def _rel_error(actual, reference):
    return np.abs(actual - reference).max() / np.abs(reference).max()


# starts at and above 0; 1, 2, 3, 64, 65, 121, 129 and 201 samples; a zero spacing
UNIFORM_GRIDS = [np.linspace(0.0, 60.0, 121), np.linspace(0.0, 10.0, 201),
                 np.linspace(0.0, 6.0, 121), np.linspace(2.5, 7.5, 11), [0.0], [3.0],
                 [0.0, 0.0, 0.0], np.linspace(0.0, 1.5, 2), np.linspace(0.7, 2.0, 3),
                 np.linspace(0.0, 30.0, 64), np.linspace(1.25, 40.0, 65),
                 np.linspace(0.0, 12.0, 129)]


@pytest.mark.parametrize("n", range(1, 9))
def test_evolve_uniform_grid_matches_per_gap_reference(n):
    rng = np.random.default_rng(100 + n)
    for system, v0 in _systems(n, rng):
        for mean0 in (None, np.zeros(2 * n), rng.normal(size=2 * n)):
            for times in UNIFORM_GRIDS:
                traj = evolve(system, v0, times, mean0=mean0)
                ref = evolve_per_gap(system, v0, times, mean0=mean0)
                assert_allclose(traj.times, ref.times, rtol=0, atol=0)
                assert np.all(np.isfinite(traj.covariances))
                assert _rel_error(traj.covariances, ref.covariances) <= 1e-12
                assert np.all(traj.covariances == traj.covariances.transpose(0, 2, 1))
                if mean0 is None or not mean0.any():
                    # a zero mean is not propagated: it stays exact zeros
                    assert not traj.means.any()
                else:
                    assert _rel_error(traj.means, ref.means) <= 1e-12
                if times[0] == 0.0:
                    # no step to a first sample at t = 0: it is the start state
                    assert traj.covariances[0].tobytes() == v0.V.tobytes()


def test_evolve_irregular_grid_is_per_gap_reference_bitwise():
    rng = np.random.default_rng(7)
    jittered = np.linspace(0.0, 6.0, 121)
    jittered[40] += 1e-6
    grids = [[0.0, 10.0, 40.0, 60.0], [0.0, 0.4, 1.0, 7.5], jittered,
             np.sort(rng.uniform(0.0, 20.0, 30))]
    for n in (1, 2, 5):
        for system, v0 in _systems(n, rng):
            mean0 = rng.normal(size=2 * n)
            for times in grids:
                traj = evolve(system, v0, times, mean0=mean0)
                ref = evolve_per_gap(system, v0, times, mean0=mean0)
                assert traj.covariances.tobytes() == ref.covariances.tobytes()
                assert traj.means.tobytes() == ref.means.tobytes()
    # one raising channel on a mode with G = 0 overflows by t = 2000: a zero
    # mean stays exact zeros where the propagator is inf or NaN
    from gsynth.noise import RAISING, NoiseChannel, channel_row

    raising = channel_row(NoiseChannel(mode=0, gamma=2.0, nbar=1.0, kind=RAISING), 1)
    system = build_moment_system(np.zeros((2, 2)), raising)
    times = [0.0, 10.0, 2000.0]
    with np.errstate(over="ignore", invalid="ignore"):
        traj = evolve(system, states.vacuum(1), times)
        ref = evolve_per_gap(system, states.vacuum(1), times)
    assert traj.covariances.tobytes() == ref.covariances.tobytes()
    assert traj.means.tobytes() == ref.means.tobytes()
    assert not traj.means.any()


@pytest.mark.parametrize("times", [np.linspace(0.0, 6.0, 121), np.linspace(0.0, 10.0, 201),
                                   np.linspace(2.5, 7.5, 11), np.linspace(1.25, 40.0, 65)])
def test_evolve_uniform_grid_takes_one_van_loan_step_per_spacing(monkeypatch, times):
    # one step for the spacing, and one from t = 0 to a first sample above 0
    # (a first sample at t = 0 is the start state, with no step); the per-gap
    # propagator takes 9 and 10 steps on the first two grids
    import gsynth.dynamics as dyn

    calls = []
    step = dyn._van_loan_step
    monkeypatch.setattr(dyn, "_van_loan_step", lambda system, h: calls.append(h) or step(system, h))
    real = tms_realization(0.7)
    evolve(build_moment_system(real.G, real.C), states.vacuum(2), times)
    assert len(calls) == (1 if times[0] == 0.0 else 2)


def test_verify_generation_roundtrip():
    graph = tms_graph(0.7)
    report = verify_generation(synthesize(graph), graph_to_covariance(graph))
    assert report.hurwitz
    assert report.generates_target
    assert report.max_error <= 1e-8
    assert report.steady_purity == pytest.approx(1.0, abs=1e-6)
    assert report.constraints.all_ok


@pytest.mark.parametrize("alpha", [3.5, 4.0])
def test_verify_generation_strong_squeezing(alpha):
    # the max-norm error (2.6e-8 at alpha 3.5, 6.5e-8 at 4) is above the
    # absolute 1e-8 but below 1e-10 of the target's largest entry
    target = states.two_mode_squeezed(alpha)
    report = verify_generation(synthesize(factor_covariance(target)), target)
    assert report.max_error > 1e-8
    assert report.tolerance == 1e-8 * np.abs(target.V).max()
    assert report.generates_target


def test_verify_generation_cluster_two_channel_design():
    parts = cluster_parts(0.5)
    real = assemble_realization(parts.graph, parts.R, parts.Gamma, parts.P)
    report = verify_generation(real, parts.cov)
    assert report.hurwitz
    assert report.max_error <= 1e-8
    assert not report.constraints.all_ok  # two channels, coupled Hamiltonian


def test_verify_generation_wrong_target_fails():
    real = synthesize(tms_graph(0.7))
    report = verify_generation(real, states.vacuum(2))
    assert report.hurwitz
    assert not report.generates_target
    assert report.max_error > 0.1


def test_steady_purity_of_designs():
    real = synthesize(tms_graph(0.9))
    v = steady_state(build_moment_system(real.G, real.C))
    assert purity(v) == pytest.approx(1.0, abs=1e-6)


def _per_mode_system(rng, n):
    """A random physical system whose rows and Hamiltonian act on one mode each.

    Every mode gets a random Hamiltonian block and one or two random
    coupling rows on its ``(q_j, p_j)``, then a damping row (a lowering
    channel) strong enough to make its block Hurwitz.
    """
    from gsynth.noise import LOWERING, NoiseChannel, channel_row

    g = np.zeros((2 * n, 2 * n))
    rows = []
    for j in range(n):
        h = rng.normal(size=(2, 2))
        g[np.ix_([j, n + j], [j, n + j])] = h + h.T
        for _ in range(int(rng.integers(1, 3))):
            row = np.zeros(2 * n, dtype=complex)
            row[[j, n + j]] = rng.normal(size=2) + 1j * rng.normal(size=2)
            rows.append(row)
    a = build_moment_system(g, np.array(rows)).A
    for j in range(n):
        abscissa = np.linalg.eigvals(a[np.ix_([j, n + j], [j, n + j])]).real.max()
        gamma = 2.0 * max(abscissa, 0.0) + rng.uniform(0.02, 2.0)
        rows.append(channel_row(NoiseChannel(mode=j, gamma=gamma, nbar=0.0, kind=LOWERING), n))
    return build_moment_system(g, np.array(rows))


def _forbid_eigensolver(monkeypatch):
    def refuse(a):
        raise AssertionError("the per-mode system took an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eig", refuse)


@pytest.mark.parametrize("seed", range(20))
def test_per_mode_steady_state_matches_scipy(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 33))
    system = _per_mode_system(rng, n)
    expected = scipy.linalg.solve_continuous_lyapunov(system.A, -system.D)
    _forbid_eigensolver(monkeypatch)
    v = steady_state(system).V
    scale = np.abs(expected).max()
    if np.abs(v - expected).max() > 1e-13 * scale:
        # scipy's Schur solve of the whole 2N system can be the one that is
        # off (2.3e-13 on one of 500 draws); a 40-digit solve of each
        # block's 3 x 3 system decides
        assert np.abs(v - _exact_per_mode(system)).max() <= 1e-13 * scale


def _exact_per_mode(system):
    mpmath = pytest.importorskip("mpmath")
    n = system.n_modes
    v = np.zeros((2 * n, 2 * n))
    with mpmath.workdps(40):
        for j in range(n):
            idx = np.ix_([j, n + j], [j, n + j])
            a11, a12, a21, a22 = (mpmath.mpf(x) for x in system.A[idx].ravel())
            d = system.D[idx]
            # the (1,1), (1,2) and (2,2) entries of a v + v a.T + d = 0
            m = [[2 * a11, 2 * a12, 0], [a21, a11 + a22, a12], [0, 2 * a21, 2 * a22]]
            rhs = [-d[0, 0], -d[0, 1], -d[1, 1]]
            x, y, z = mpmath.lu_solve(mpmath.matrix(m), mpmath.matrix(rhs))
            v[idx] = [[float(x), float(y)], [float(y), float(z)]]
    return v


@pytest.mark.parametrize("factor", [1.1, 0.9, 0.0])
@pytest.mark.parametrize("shape", ["rotating", "real"])
def test_per_mode_hurwitz_verdict_matches_schur(factor, shape):
    # a block whose abscissa sits 10% either side of -HURWITZ_TOL, or at 0
    from gsynth import MomentSystem, solve_lyapunov
    from gsynth.numerics import HURWITZ_TOL

    kappa = factor * HURWITZ_TOL
    if shape == "rotating":
        block = np.array([[-kappa, 1.3], [-1.3, -kappa]])
    else:
        block = np.array([[-kappa, 0.0], [0.7, -2.0]])
    a = np.zeros((4, 4))
    a[np.ix_([0, 2], [0, 2])] = block
    a[np.ix_([1, 3], [1, 3])] = [[-0.5, 1.0], [-1.0, -0.5]]
    system = MomentSystem(A=a, D=np.eye(4))
    hurwitz = is_hurwitz(a)
    assert hurwitz == (factor > 1.0)
    try:
        v = steady_state(system).V
    except NotHurwitzError:
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(a, system.D)
        assert not hurwitz
    else:
        assert hurwitz
        expected = solve_lyapunov(a, system.D)
        assert np.abs(v - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("matrix", ["A", "D"])
def test_one_inter_mode_entry_takes_the_general_solve(matrix, monkeypatch):
    from gsynth import MomentSystem

    system = _per_mode_system(np.random.default_rng(7), 3)
    a, d = system.A.copy(), system.D.copy()
    if matrix == "A":
        a[0, 4] = 0.05
    else:
        d[0, 4] = d[4, 0] = 0.05
    calls = []
    real_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(1) or real_eig(m))
    v = steady_state(MomentSystem(A=a, D=d)).V
    assert calls == [1]
    expected = scipy.linalg.solve_continuous_lyapunov(a, -d)
    assert np.abs(v - expected).max() <= 1e-12 * np.abs(expected).max()


def test_per_mode_non_finite_drift_takes_the_general_solve():
    # a MomentSystem refuses a non-finite drift, so only the solver sees one
    from gsynth import solve_lyapunov

    a = np.array([[-1.0, np.nan], [0.0, -1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        solve_lyapunov(a, np.eye(2))


def test_moment_system_rejects_non_finite_entries():
    from gsynth import MomentSystem

    # inf * 0 in C^dag C warns before the system sees its NaN entries
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        build_moment_system(np.zeros((2, 2)), [[np.inf, 1j]])
    with pytest.raises(ValueError, match="non-finite"):
        MomentSystem(A=-np.eye(2), D=np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        MomentSystem(A=np.diag([-1.0, np.inf]), D=np.eye(2))


def test_moment_system_keeps_its_own_read_only_arrays():
    from gsynth import MomentSystem

    a, d = -np.eye(2), np.eye(2)
    m = MomentSystem(A=a, D=d)
    a[0, 0] = 5.0
    d[0, 0] = 7.0
    assert m.A[0, 0] == -1.0 and m.D[0, 0] == 1.0
    for part in (m.A, m.D):
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 3.0
    # the caller's arrays stay writable, and every consumer only reads
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    assert not (ms.A.flags.writeable or ms.D.flags.writeable)
    steady_state(ms)
    evolve(ms, states.vacuum(2), np.linspace(0.0, 6.0, 121), mean0=np.ones(4))
    evolve(ms, states.vacuum(2), [0.0, 0.4, 1.0, 7.5])


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_diffusion_psd_verdict_matches_eigvalsh(factor, scale):
    # the floor scales with max|D|, and a rejection is a GsynthError that
    # is also a ValueError
    from gsynth import InvalidDiffusionError, MomentSystem
    from gsynth.dynamics import DIFFUSION_PSD_TOL

    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    floor = DIFFUSION_PSD_TOL * scale
    d = np.zeros((4, 4))
    d[0, 0] = scale  # max|D|, so the floor is known
    d[1:, 1:] = q @ np.diag([0.3 * scale, 0.0, -factor * floor]) @ q.T
    d = 0.5 * (d + d.T)
    expected = np.linalg.eigvalsh(d).min() >= -floor
    assert expected == (factor < 1.0)
    if expected:
        MomentSystem(A=-np.eye(4), D=d)
    else:
        with pytest.raises(InvalidDiffusionError, match="positive semidefinite") as info:
            MomentSystem(A=-np.eye(4), D=d)
        assert isinstance(info.value, GsynthError) and isinstance(info.value, ValueError)


def test_steady_state_without_positive_determinant_reports_nan_purity(monkeypatch):
    # diag(1e8, -5e-10) passes the uncertainty relation at its own scale,
    # but its determinant is -0.05: the purity is NaN, and nothing raises
    import gsynth.dynamics
    from gsynth import GraphMatrix

    real = synthesize(GraphMatrix(np.array([[0.3]]), np.array([[0.8]])))
    v = np.diag([1e8, -5e-10])
    monkeypatch.setattr(gsynth.dynamics, "_solve_lyapunov",
                        lambda a, d, basis: (v, float(np.linalg.norm(a @ v + v @ a.T + d))))
    report = verify_generation(real, graph_to_covariance(real.graph))
    assert report.hurwitz and np.array_equal(report.steady_covariance.V, v)
    assert np.isnan(report.steady_purity)
    assert not report.generates_target
