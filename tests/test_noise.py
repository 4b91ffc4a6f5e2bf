"""Tests for thermal channels and robustness metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsynth import (
    CovarianceMatrix,
    augment,
    bath_channels,
    build_moment_system,
    channel_row,
    graph_to_covariance,
    purity,
    robustness_report,
    steady_state,
)
from gsynth.noise import LOWERING, RAISING, NoiseChannel
from conftest import (
    THERMAL_GAMMA,
    THERMAL_NBAR,
    THERMAL_PAIR_NEGATIVITY,
    THERMAL_PAIR_PURITY,
    THERMAL_PAIR_V,
    THERMAL_TMS_NEGATIVITY,
    THERMAL_TMS_PURITY,
    THERMAL_TMS_V,
    pair_graph,
    pair_realization,
    standard_baths,
    tms_graph,
    tms_realization,
)


def test_channel_row_pure_damping():
    row = channel_row(NoiseChannel(mode=0, gamma=1.0, nbar=0.0, kind=LOWERING), 1)
    assert_allclose(row, [1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)], atol=1e-15)


def test_channel_row_raising_amplitude():
    ch = NoiseChannel(mode=0, gamma=0.01, nbar=10.0, kind=RAISING)
    assert ch.amplitude == pytest.approx(np.sqrt(0.1), abs=1e-12)
    row = channel_row(ch, 2)
    assert_allclose(row, ch.amplitude / np.sqrt(2.0) * np.array([1.0, 0.0, -1j, 0.0]),
                    atol=1e-15)


def test_channel_row_zero_rate():
    row = channel_row(NoiseChannel(mode=1, gamma=0.0, nbar=3.0, kind=LOWERING), 2)
    assert_allclose(row, np.zeros(4), atol=0)


def test_channel_row_range_check():
    with pytest.raises(IndexError):
        channel_row(NoiseChannel(mode=2, gamma=0.1, nbar=0.0, kind=LOWERING), 2)


def test_channel_validation():
    with pytest.raises(ValueError):
        NoiseChannel(mode=0, gamma=-0.1, nbar=0.0, kind=LOWERING)
    with pytest.raises(ValueError):
        NoiseChannel(mode=0, gamma=0.1, nbar=-1.0, kind=LOWERING)
    with pytest.raises(ValueError):
        NoiseChannel(mode=0, gamma=0.1, nbar=0.0, kind="sideways")


def test_bath_is_two_rows():
    up, down = bath_channels(0, 0.2, 1.5)
    assert (up.kind, down.kind) == (RAISING, LOWERING)
    assert up.amplitude == pytest.approx(np.sqrt(0.2 * 1.5))
    assert down.amplitude == pytest.approx(np.sqrt(0.2 * 2.5))


def test_augment_no_channels_is_identity():
    real = tms_realization(0.7)
    plain = build_moment_system(real.G, real.C)
    augmented = augment(real, [])
    assert_allclose(augmented.A, plain.A, atol=0)
    assert_allclose(augmented.D, plain.D, atol=0)


def test_augment_two_mode_squeezed_reference_values():
    real = tms_realization(0.7)
    v = steady_state(augment(real, standard_baths()))
    assert np.abs(v.V - THERMAL_TMS_V).max() < 1e-3


def test_augment_pair_state_reference_values():
    v = steady_state(augment(pair_realization(), standard_baths()))
    assert np.abs(v.V - THERMAL_PAIR_V).max() < 1e-3


def test_robustness_report_two_mode_squeezed():
    real = tms_realization(0.7)
    target = graph_to_covariance(tms_graph(0.7))
    report = robustness_report(real, standard_baths(), target)
    assert report.with_coupling.purity == pytest.approx(THERMAL_TMS_PURITY, abs=1e-3)
    assert report.with_coupling.log_negativity == pytest.approx(THERMAL_TMS_NEGATIVITY, abs=1e-3)
    assert report.without_coupling.purity == pytest.approx(1.0 / 441.0, abs=1e-9)
    assert report.without_coupling.log_negativity == 0.0
    assert_allclose(report.without_coupling.covariance.V, 10.5 * np.eye(4), atol=1e-10)
    assert report.target_distance == pytest.approx(np.abs(
        report.with_coupling.covariance.V - target.V).max())


def test_robustness_report_pair_state():
    real = pair_realization()
    target = graph_to_covariance(pair_graph())
    report = robustness_report(real, standard_baths(), target)
    assert report.with_coupling.purity == pytest.approx(THERMAL_PAIR_PURITY, abs=1e-3)
    assert report.with_coupling.log_negativity == pytest.approx(THERMAL_PAIR_NEGATIVITY, abs=1e-3)


def test_zero_temperature_degrades_less():
    real = tms_realization(0.7)
    target = graph_to_covariance(tms_graph(0.7))
    cold = []
    for mode in range(2):
        cold.extend(bath_channels(mode, THERMAL_GAMMA, 0.0))
    cold_report = robustness_report(real, cold, target)
    hot_report = robustness_report(real, standard_baths(), target)
    assert cold_report.with_coupling.purity < 1.0
    assert cold_report.with_coupling.purity > hot_report.with_coupling.purity


def test_thermal_equilibrium_without_design():
    # channels alone force diag((nbar + 1/2) I) per mode for any passive G
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        freqs = rng.uniform(-3.0, 3.0, size=n)
        g = np.diag(np.concatenate([freqs, freqs]))
        channels = []
        expected = np.zeros(2 * n)
        for mode in range(n):
            gamma = rng.uniform(0.05, 1.0)
            nbar = rng.uniform(0.0, 5.0)
            channels.extend(bath_channels(mode, gamma, nbar))
            expected[mode] = expected[n + mode] = nbar + 0.5
        rows = np.vstack([channel_row(ch, n) for ch in channels])
        v = steady_state(build_moment_system(g, rows))
        assert np.abs(v.V - np.diag(expected)).max() < 1e-9


def test_thermal_purity_strictly_below_one():
    real = tms_realization(0.4)
    v = steady_state(augment(real, standard_baths(nbar=0.5)))
    assert purity(v) < 1.0 - 1e-6


def test_augmented_system_stays_real_psd():
    real = tms_realization(0.7)
    ms = augment(real, standard_baths())
    assert ms.A.dtype.kind == "f"
    assert np.linalg.eigvalsh(ms.D).min() >= -1e-10


def _random_channels(rng, n):
    """Baths and lone channels on a random subset of modes, some repeated, some at nbar = 0."""
    channels = []
    for mode in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
        gamma = float(rng.choice([0.0, rng.uniform(1e-3, 2.0)], p=[0.1, 0.9]))
        nbar = float(rng.choice([0.0, rng.uniform(0.0, 20.0)]))
        if rng.random() < 0.6:
            channels.extend(bath_channels(int(mode), gamma, nbar))
        else:
            kind = LOWERING if rng.random() < 0.5 else RAISING
            channels.append(NoiseChannel(mode=int(mode), gamma=gamma, nbar=nbar, kind=kind))
    repeats = [channels[k] for k in rng.integers(0, len(channels), size=int(rng.integers(0, 3)))]
    order = rng.permutation(len(channels) + len(repeats))
    return [(channels + repeats)[k] for k in order]


@pytest.mark.parametrize("seed", range(40))
def test_thermal_system_matches_stacked_rows(seed):
    # the diagonal terms against the moment system of the rows stacked under C
    from gsynth.noise import _thermal_system

    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 5, 8, 16, 32]))
    g = rng.normal(size=(2 * n, 2 * n))
    g = g + g.T
    c = rng.normal(size=(int(rng.integers(0, 3)), 2 * n)) * (1 + 1j * rng.normal(size=2 * n))
    channels = _random_channels(rng, n)
    rows = np.vstack([c, *[channel_row(ch, n) for ch in channels]])
    expected = build_moment_system(g, rows)
    system = _thermal_system(g, c, channels)
    # a bath's raising and lowering terms cancel in A, but not in D, whose
    # diagonal carries their sum: the system's largest entry sets the scale
    scale = max(np.abs(expected.A).max(), np.abs(expected.D).max())
    assert np.abs(system.A - expected.A).max() <= 8 * np.finfo(float).eps * scale
    assert np.abs(system.D - expected.D).max() <= 8 * np.finfo(float).eps * scale


def test_augment_matches_stacked_rows_and_checks_modes():
    real = pair_realization()
    channels = standard_baths() + [NoiseChannel(mode=1, gamma=0.3, nbar=0.0, kind=LOWERING)]
    rows = np.vstack([real.C, *[channel_row(ch, 2) for ch in channels]])
    expected = build_moment_system(real.G, rows)
    system = augment(real, iter(channels))
    assert_allclose(system.A, expected.A, rtol=0, atol=1e-15)
    assert_allclose(system.D, expected.D, rtol=0, atol=1e-14)
    with pytest.raises(IndexError, match="out of range for 2 modes"):
        augment(real, [NoiseChannel(mode=2, gamma=0.1, nbar=0.0, kind=LOWERING)])


def test_robustness_without_coupling_needs_a_bath_on_every_mode():
    # a mode with no bath keeps an undamped rotation, so the thermal-only
    # system has no steady state; the designed coupling still damps it
    real = tms_realization(0.7)
    target = graph_to_covariance(tms_graph(0.7))
    report = robustness_report(real, standard_baths()[:2], target)
    assert report.with_coupling is not None
    assert report.without_coupling is None
    full = robustness_report(real, standard_baths(), target)
    assert_allclose(full.without_coupling.covariance.V, 10.5 * np.eye(4), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_robustness_branches_match_stacked_rows(seed):
    # both branches against steady states of the thermal rows stacked under
    # C and under nothing; the without branch forms no coupling product
    from gsynth import synthesize
    from conftest import random_feasible_graph

    rng = np.random.default_rng(seed)
    graph = random_feasible_graph(rng)
    real = synthesize(graph)
    n = graph.n_modes
    target = graph_to_covariance(graph)
    baths = [ch for m in range(n) for ch in bath_channels(m, THERMAL_GAMMA, THERMAL_NBAR)]
    rows = np.vstack([channel_row(ch, n) for ch in baths])
    report = robustness_report(real, baths, target)
    for metrics, c in ((report.with_coupling, np.vstack([real.C, rows])),
                       (report.without_coupling, rows)):
        expected = steady_state(build_moment_system(real.G, c)).V
        assert np.abs(metrics.covariance.V - expected).max() <= 1e-12 * np.abs(expected).max()


def test_design_checks_skip_eigensolvers(monkeypatch):
    # on an N = 16 design, every validity check is settled by Cholesky and
    # the bath-only steady state by the per-mode closed form
    from gsynth import BlockClass, Permutation, assemble_graph, synthesize, verify_generation
    from gsynth.structure import XI_PHI
    from conftest import random_phi_block

    rng = np.random.default_rng(16)
    graph = assemble_graph([BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(8)],
                           Permutation(tuple(int(k) for k in rng.permutation(16))))
    real = synthesize(graph)
    target = graph_to_covariance(graph)
    baths = [ch for m in range(16) for ch in bath_channels(m, THERMAL_GAMMA, THERMAL_NBAR)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a validity check took eigvalsh")

    eig_sizes = []
    real_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eig", lambda m: eig_sizes.append(len(m)) or real_eig(m))
    report = verify_generation(real, target)
    robustness = robustness_report(real, baths, target)
    assert report.generates_target
    assert robustness.without_coupling is not None
    # the rank test's Q (N x N) and the two coupled drifts (2N x 2N); the
    # bath-only drift takes none
    assert eig_sizes == [16, 32, 32]
