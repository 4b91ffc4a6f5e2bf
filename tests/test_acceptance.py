"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same tolerances, so a failing criterion fails the
suite.
"""

import itertools
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

from gsynth import (
    CovarianceMatrix,
    assemble_realization,
    build_moment_system,
    decompose,
    factor_covariance,
    graph_to_covariance,
    log_negativity,
    phi_membership,
    purity,
    rank_tol,
    reduced_state,
    states,
    steady_state,
    synthesize,
    verify_constraints,
    verify_generation,
)
from gsynth.numerics import is_hurwitz
from gsynth.structure import XI_PHI, is_controllable
from gsynth.noise import augment, channel_row
from conftest import (
    DerogatoryMatrixError,
    PAIR_LOG_NEGATIVITY,
    THERMAL_PAIR_NEGATIVITY,
    THERMAL_PAIR_PURITY,
    THERMAL_PAIR_V,
    THERMAL_TMS_NEGATIVITY,
    THERMAL_TMS_PURITY,
    THERMAL_TMS_V,
    cluster_parts,
    eight_mode_graph,
    find_cyclic_vector,
    non_derogatory,
    pair_cov,
    pair_graph,
    pair_realization,
    random_feasible_graph,
    random_phi_block,
    standard_baths,
    tms_graph,
    tms_realization,
    xi_membership,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_two_mode_squeezed_roundtrip():
    with criterion("criterion 1: two-mode squeezed round trip (alpha 0.3/0.7/1.2)"):
        for alpha in (0.3, 0.7, 1.2):
            target = states.two_mode_squeezed(alpha)
            design = synthesize(factor_covariance(target))
            report = verify_generation(design, target, tol=1e-8)
            assert report.hurwitz
            assert report.max_error <= 1e-8
            assert np.array_equal(design.G, np.diag([1.0, -1.0, 1.0, -1.0]))
            assert abs(log_negativity(target) - 2.0 * abs(alpha)) <= 1e-9
            assert abs(log_negativity(report.steady_covariance) - 2.0 * abs(alpha)) <= 1e-9


def test_criterion_2_entangled_pair_fixture():
    with criterion("criterion 2: entangled-pair fixture (sqrt(6)/2 state)"):
        graph = pair_graph()
        dec = decompose(graph)
        assert dec.feasible
        assert [b.tag for b in dec.blocks] == [XI_PHI]

        design = pair_realization()
        assert_allclose(design.Gamma, [[0.0, -0.5], [0.5, 0.0]], atol=1e-12)

        p_ref = np.array([[0.0], [1.0]])
        q = -1j * design.R @ graph.Y + np.linalg.inv(graph.Y) @ design.Gamma
        assert rank_tol(np.hstack([p_ref, q @ p_ref]), 1e-9) == 2

        v = steady_state(build_moment_system(design.G, design.C))
        assert np.abs(v.V - pair_cov().V).max() <= 1e-8
        assert abs(log_negativity(pair_cov()) - PAIR_LOG_NEGATIVITY) <= 1e-3


def test_criterion_3_cluster_contrast():
    with criterion("criterion 3: path-cluster contrast (infeasible vs two-channel design)"):
        parts = cluster_parts(0.5)
        dec = decompose(parts.graph)
        assert not dec.feasible
        assert "component size 3" in dec.certificate.reason

        design = assemble_realization(parts.graph, parts.R, parts.Gamma, parts.P)
        report = verify_generation(design, parts.cov, tol=1e-8)
        assert report.hurwitz
        assert report.max_error <= 1e-8
        assert design.n_channels == 2
        assert report.constraints.rank_condition
        assert not report.constraints.passive_diagonal
        assert not report.constraints.single_channel


def test_criterion_4_thermal_degradation_two_mode_squeezed():
    with criterion("criterion 4: thermal degradation of the squeezed pair + baseline"):
        design = tms_realization(0.7)
        baths = standard_baths()
        v = steady_state(augment(design, baths))
        assert np.abs(v.V - THERMAL_TMS_V).max() <= 1e-3
        assert abs(purity(v) - THERMAL_TMS_PURITY) <= 1e-3
        assert abs(log_negativity(v) - THERMAL_TMS_NEGATIVITY) <= 1e-3

        rows = np.vstack([channel_row(ch, 2) for ch in baths])
        baseline = steady_state(build_moment_system(design.G, rows))
        assert np.abs(baseline.V - 10.5 * np.eye(4)).max() <= 1e-8
        p0 = purity(baseline)
        assert abs(p0 - 1.0 / 441.0) <= 1e-12
        assert round(p0, 4) == 0.0023
        assert log_negativity(baseline) == 0.0


def test_criterion_5_thermal_degradation_entangled_pair():
    with criterion("criterion 5: thermal degradation of the entangled pair"):
        v = steady_state(augment(pair_realization(), standard_baths()))
        assert np.abs(v.V - THERMAL_PAIR_V).max() <= 1e-3
        assert abs(purity(v) - THERMAL_PAIR_PURITY) <= 1e-3
        assert abs(log_negativity(v) - THERMAL_PAIR_NEGATIVITY) <= 1e-3


def test_criterion_6_eight_mode_state():
    with criterion("criterion 6: eight-mode four-pair state"):
        graph = eight_mode_graph()
        design = synthesize(graph)
        assert_allclose(design.R,
                        np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]), atol=0)

        r = np.sqrt(6.0) / 2.0
        v11 = np.kron(np.eye(4), np.array([[r, -1.0], [-1.0, r]]))
        v22 = np.kron(np.eye(4), np.array([[r, 1.0], [1.0, r]]))
        v12 = np.kron(np.eye(4), np.array([[0.0, 0.5], [0.5, 0.0]]))
        target = CovarianceMatrix(np.block([[v11, v12], [v12.T, v22]]))
        assert_allclose(target.V, graph_to_covariance(graph).V, atol=1e-12)

        v = steady_state(build_moment_system(design.G, design.C))
        assert np.abs(v.V - target.V).max() <= 1e-8

        groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
        for pair in groups:
            value = log_negativity(reduced_state(v, pair))
            assert abs(value - PAIR_LOG_NEGATIVITY) <= 1e-3
        for i, j in itertools.combinations(range(8), 2):
            if (i, j) in groups:
                continue
            assert log_negativity(reduced_state(v, (i, j))) <= 1e-9


def test_criterion_7_randomized_property_suite():
    with criterion("criterion 7: randomized properties (synthesis, memberships, cyclic vectors)"):
        rng = np.random.default_rng(20240811)

        # 100 random feasible targets: synthesize and check the round trip
        for _ in range(100):
            graph = random_feasible_graph(rng)
            design = synthesize(graph)
            system = build_moment_system(design.G, design.C)
            assert is_hurwitz(system.A)
            v = steady_state(system)
            assert np.abs(v.V - graph_to_covariance(graph).V).max() <= 1e-7
            assert verify_constraints(design).all_ok

        # membership equivalence on 1000 random symmetric 2x2 matrices
        for _ in range(1000):
            if rng.random() < 0.5:
                b = random_phi_block(rng)
            else:
                b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                b = 0.5 * (b + b.T)
            assert xi_membership(b) == phi_membership(b)

        # similarity invariance of the non-derogatory property, 100 samples
        for _ in range(100):
            n = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            else:
                a = complex(rng.normal(), rng.normal()) * np.eye(n)
            f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert non_derogatory(f @ a @ np.linalg.inv(f)) == non_derogatory(a)

        # cyclic vectors exist exactly for non-derogatory matrices, 100 samples
        for _ in range(100):
            n = int(rng.integers(2, 6))
            kind = rng.random()
            if kind < 0.4:
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            elif kind < 0.7:
                lam = rng.normal() + 1j * rng.normal()
                a = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
            else:
                a = complex(rng.normal(), rng.normal()) * np.eye(n)
            f = rng.normal(size=(n, n))
            a = f @ a @ np.linalg.inv(f)
            if non_derogatory(a, 1e-7):
                p = find_cyclic_vector(a, 1e-7)
                assert is_controllable(a, p, 1e-7)
            else:
                try:
                    find_cyclic_vector(a, 1e-7)
                    raise AssertionError("derogatory matrix accepted a cyclic vector")
                except DerogatoryMatrixError:
                    pass


def test_criterion_8_structural_identities():
    with criterion("criterion 8: structural identities of synthesized designs"):
        rng = np.random.default_rng(77)
        cases = [tms_graph(0.3), tms_graph(0.7), tms_graph(1.2),
                 pair_graph(), eight_mode_graph()]
        cases += [random_feasible_graph(rng) for _ in range(20)]
        for graph in cases:
            design = synthesize(graph)
            z, x, y, r = graph.Z, graph.X, graph.Y, design.R
            assert np.abs(z @ r @ z + r).max() <= 1e-9
            assert np.abs(y @ r @ y - x @ r @ x - r).max() <= 1e-9
            assert np.abs(x @ r @ y + y @ r @ x).max() <= 1e-9
            assert np.abs(z @ (r @ r) - (r @ r) @ z).max() <= 1e-9
            assert np.abs(design.Gamma + design.Gamma.T).max() <= 1e-9
