"""Tests for thermal channels and robustness metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsynth import (
    BlockClass,
    CovarianceMatrix,
    GraphMatrix,
    Permutation,
    Realization,
    assemble_graph,
    augment,
    bath_channels,
    build_moment_system,
    channel_row,
    graph_to_covariance,
    is_controllable,
    purity,
    robustness_report,
    steady_state,
    synthesize,
    verify_generation,
)
from gsynth.errors import InvalidCovarianceError, NotHurwitzError
from gsynth.noise import LOWERING, RAISING, NoiseChannel, _channel_rows
from gsynth.structure import LAMBDA, XI_PHI
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
    random_lambda_scalar,
    random_phi_block,
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
    with pytest.raises(IndexError, match="mode index 2 out of range for 2 modes"):
        channel_row(NoiseChannel(mode=2, gamma=0.1, nbar=0.0, kind=LOWERING), 2)
    # the batch names the first channel outside the modes
    channels = [NoiseChannel(mode=m, gamma=0.1, nbar=0.0, kind=RAISING) for m in (1, 3, 2)]
    with pytest.raises(IndexError, match="mode index 3 out of range for 2 modes"):
        _channel_rows(channels, 2)


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
    # the batch is the per-channel rows, bit for bit: both kinds, nbar = 0,
    # a zero rate and several channels on one mode
    channels = [ch for m, gamma, nbar in [(2, 0.2, 1.5), (0, 0.01, 0.0), (1, 0.0, 3.0),
                                          (2, 7.0, 0.0), (0, 0.3, 10.0)]
                for ch in bath_channels(m, gamma, nbar)]
    n = 3
    reference = np.zeros((len(channels), 2 * n), dtype=complex)
    for row, ch in zip(reference, channels):
        half = ch.amplitude / np.sqrt(2.0)
        row[ch.mode] = half
        row[n + ch.mode] = (1j if ch.kind == LOWERING else -1j) * half
    rows = _channel_rows(channels, n)
    assert rows.tobytes() == reference.tobytes()
    assert np.vstack([channel_row(ch, n) for ch in channels]).tobytes() == reference.tobytes()
    assert _channel_rows([], n).shape == (0, 2 * n)


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


def _random_design(rng, n):
    """A synthesized design for a random feasible graph of ``n`` modes."""
    blocks = [BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(n // 2)]
    if n % 2:
        blocks.append(BlockClass(LAMBDA, random_lambda_scalar(rng)))
    perm = Permutation(tuple(int(k) for k in rng.permutation(n)))
    return synthesize(assemble_graph(blocks, perm))


def _steady(g, c):
    """Steady state of ``build_moment_system(g, c)``, or None when it has none."""
    try:
        return steady_state(build_moment_system(g, c))
    except (NotHurwitzError, InvalidCovarianceError):
        return None


@pytest.mark.parametrize("seed", range(40))
def test_thermal_system_matches_stacked_rows(seed):
    # augment and both robustness branches are the moment systems of the
    # channel rows stacked under C and under nothing, bit for bit: on a
    # random (G, C) and on a synthesized design of the same size
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 5, 8, 16, 32]))
    g = rng.normal(size=(2 * n, 2 * n))
    g = g + g.T
    c = rng.normal(size=(int(rng.integers(0, 3)), 2 * n)) * (1 + 1j * rng.normal(size=2 * n))
    channels = _random_channels(rng, n)
    rows = np.vstack([channel_row(ch, n) for ch in channels])
    placeholder = GraphMatrix(np.zeros((n, n)), np.eye(n))
    random_pair = Realization(R=np.zeros((n, n)), Gamma=np.zeros((n, n)),
                              P=np.zeros((n, len(c))), G=g, C=c, graph=placeholder)
    design = _random_design(rng, n)
    for real in (random_pair, design):
        expected = build_moment_system(real.G, np.vstack([real.C, rows]))
        system = augment(real, iter(channels))
        assert np.array_equal(system.A, expected.A)
        assert np.array_equal(system.D, expected.D)

    target = graph_to_covariance(design.graph)
    report = robustness_report(design, channels, target)
    check = verify_generation(design, target, extra_rows=rows)
    # a lone raising channel can undamp a mode, so a branch may have no steady state
    for metrics, expected in ((report.with_coupling, check.steady_covariance),
                              (report.without_coupling, _steady(design.G, rows))):
        assert (metrics is None) == (expected is None)
        if expected is not None:
            assert np.array_equal(metrics.covariance.V, expected.V)


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
    # C and under nothing, with a bath on every mode so both have one
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
    rng = np.random.default_rng(16)
    graph = assemble_graph([BlockClass(XI_PHI, random_phi_block(rng)) for _ in range(8)],
                           Permutation(tuple(int(k) for k in rng.permutation(16))))
    real = synthesize(graph)
    target = graph_to_covariance(graph)
    baths = [ch for m in range(16) for ch in bath_channels(m, THERMAL_GAMMA, THERMAL_NBAR)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a validity check took eigvalsh")

    eig_shapes = []
    real_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eig", lambda m: eig_shapes.append(m.shape) or real_eig(m))
    report = verify_generation(real, target)
    robustness = robustness_report(real, baths, target)
    assert report.generates_target
    assert robustness.without_coupling is not None
    # the rank test takes a Hermitian eigh, not eig, and the design's drift
    # (2N x 2N) is decomposed once, its basis reused by the uniform bath; the
    # bath-only drift takes none
    assert eig_shapes == [(32, 32)]
    # the verdict agrees with the general Hautus test on the dense Q
    q = -1j * real.R @ graph.Y + np.linalg.inv(graph.Y) @ real.Gamma
    assert report.constraints.rank_condition == is_controllable(q, real.P)


def _eig_sizes(monkeypatch) -> list[int]:
    """The sizes of the matrices later ``np.linalg.eig`` calls decompose."""
    sizes = []
    real_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: sizes.append(len(m)) or real_eig(m))
    return sizes


@pytest.mark.parametrize("n", [2, 5, 16, 32])
@pytest.mark.parametrize("gamma, nbar", [(THERMAL_GAMMA, THERMAL_NBAR), (0.3, 0.0), (1.7, 2.5)])
def test_uniform_bath_reuses_the_design_basis(monkeypatch, n, gamma, nbar):
    # one (gamma, nbar) bath on every mode shifts the design's drift by
    # -gamma/2: the with-coupling solve takes no eigendecomposition once
    # the design has one, and agrees with the drift's own
    rng = np.random.default_rng(n)
    design = _random_design(rng, n)
    target = graph_to_covariance(design.graph)
    baths = [ch for m in range(n) for ch in bath_channels(m, gamma, nbar)]
    rows = np.vstack([channel_row(ch, n) for ch in baths])
    sizes = _eig_sizes(monkeypatch)
    verify_generation(design, target)
    assert sizes.count(2 * n) == 1
    report = robustness_report(design, baths, target)
    check = verify_generation(design, target, extra_rows=rows)
    assert sizes.count(2 * n) == 1
    assert np.array_equal(report.with_coupling.covariance.V, check.steady_covariance.V)
    expected = steady_state(build_moment_system(design.G, np.vstack([design.C, rows]))).V
    # each answer lies within about 5e-13 (relative) of the exact solution
    # of the stored matrices at N = 32, so two of them may differ by the sum
    scale = np.abs(expected).max()
    assert np.abs(report.with_coupling.covariance.V - expected).max() <= 2e-12 * scale


@pytest.mark.parametrize("case", ["one mode", "one mode differs"])
def test_nonuniform_baths_take_the_full_route(monkeypatch, case):
    # baths that do not shift every mode alike leave the design's basis
    # unused: the coupled drift takes its own eigendecomposition, so the
    # answer is steady_state's to the last bit
    n = 6
    design = _random_design(np.random.default_rng(7), n)
    target = graph_to_covariance(design.graph)
    if case == "one mode":
        baths = list(bath_channels(2, THERMAL_GAMMA, THERMAL_NBAR))
    else:
        baths = [ch for m in range(n)
                 for ch in bath_channels(m, 2 * THERMAL_GAMMA if m == 3 else THERMAL_GAMMA,
                                         THERMAL_NBAR)]
    rows = np.vstack([channel_row(ch, n) for ch in baths])
    verify_generation(design, target)
    sizes = _eig_sizes(monkeypatch)
    report = robustness_report(design, baths, target)
    assert sizes.count(2 * n) == 1
    check = verify_generation(design, target, extra_rows=rows)
    expected = steady_state(build_moment_system(design.G, np.vstack([design.C, rows]))).V
    assert np.array_equal(report.with_coupling.covariance.V, check.steady_covariance.V)
    assert np.array_equal(report.with_coupling.covariance.V, expected)


@pytest.mark.parametrize("gamma", [1e-4, 1e-2, 0.17, 0.18, 1.0, 100.0])
def test_undamping_raising_channels_agree_with_is_hurwitz(gamma):
    # raising channels alone on every mode shift the drift by +gamma nbar / 2;
    # past the design's damping the coupled system has no steady state, and
    # the verdict is always that of the assembled drift
    from gsynth.numerics import is_hurwitz

    n = 4
    design = _random_design(np.random.default_rng(3), n)
    target = graph_to_covariance(design.graph)
    verify_generation(design, target)
    raising = [NoiseChannel(mode=m, gamma=gamma, nbar=1.0, kind=RAISING) for m in range(n)]
    rows = np.vstack([channel_row(ch, n) for ch in raising])
    report = robustness_report(design, raising, target)
    check = verify_generation(design, target, extra_rows=rows)
    hurwitz = is_hurwitz(build_moment_system(design.G, np.vstack([design.C, rows])).A)
    assert (report.with_coupling is not None) == hurwitz == check.hurwitz
    assert report.without_coupling is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["gamma", "nbar"])
def test_non_finite_channel_parameters_are_rejected(bad, field):
    # a NaN passes "< 0", and an infinite rate would reach the solver as a
    # non-finite drift; both are refused where the channel is made
    real = tms_realization(0.7)
    target = graph_to_covariance(tms_graph(0.7))
    params = {"gamma": THERMAL_GAMMA, "nbar": THERMAL_NBAR, field: bad}
    with pytest.raises(ValueError, match="finite and nonnegative"):
        robustness_report(real, [NoiseChannel(mode=0, kind=LOWERING, **params)], target)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        robustness_report(real, bath_channels(1, **params), target)


def test_steady_state_without_positive_determinant_has_nan_purity(monkeypatch):
    # both branches keep a covariance whose determinant is -0.05, with purity NaN
    import gsynth.dynamics

    real = synthesize(GraphMatrix(np.array([[0.3]]), np.array([[0.8]])))
    v = np.diag([1e8, -5e-10])
    monkeypatch.setattr(gsynth.dynamics, "_solve_lyapunov",
                        lambda a, d, basis: (v, float(np.linalg.norm(a @ v + v @ a.T + d))))
    report = robustness_report(real, standard_baths(1), graph_to_covariance(real.graph))
    for metrics in (report.with_coupling, report.without_coupling):
        assert np.array_equal(metrics.covariance.V, v)
        assert np.isnan(metrics.purity)
