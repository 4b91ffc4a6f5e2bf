"""Tests for moment dynamics, steady states and transient evolution."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gsynth import (
    CovarianceMatrix,
    DimensionError,
    GsynthError,
    NotHurwitzError,
    build_moment_system,
    evolve,
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
from conftest import cluster_parts, pair_realization, tms_graph, tms_realization
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


def test_diffusion_imaginary_residue_is_fatal(monkeypatch):
    # the imaginary residue of D is rounding-scale by construction; a bound
    # it cannot meet must turn into a hard error, not a silent discard
    real = tms_realization(0.7)
    ms = build_moment_system(real.G, real.C)
    assert ms.D.dtype.kind == "f"
    import gsynth.dynamics as dyn

    monkeypatch.setattr(dyn, "DIFFUSION_IMAG_TOL", -1.0)
    with pytest.raises(GsynthError):
        dyn.build_moment_system(real.G, real.C)


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
    times = [0.0, 1.0, 2.0, 6.0]
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


def test_verify_generation_roundtrip():
    graph = tms_graph(0.7)
    report = verify_generation(synthesize(graph), graph_to_covariance(graph))
    assert report.hurwitz
    assert report.generates_target
    assert report.max_error <= 1e-8
    assert report.steady_purity == pytest.approx(1.0, abs=1e-6)
    assert report.constraints.all_ok


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
